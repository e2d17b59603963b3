"""Shared fixtures, seeded random element generators, and the check-only
routes: reference implementations and test-side helpers that no serving
path of the library uses."""

from __future__ import annotations

import functools
import importlib.util
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional
from pathlib import Path

import pytest

from coulombalg import (
    AmbientRing,
    CoulombProblem,
    ExactPolynomial,
    ExpressionError,
    FactoredFraction,
    GroebnerBasis,
    Ideal,
    ReductionError,
    RingMorphism,
    VariableTable,
    ambient_table,
    buchberger,
    coulomb,
    elimination_order,
    encode_ring,
    shmodel,
)
from coulombalg.fracs import factored_sum
from coulombalg.parsing import MAX_EXPONENT, MAX_LITERAL_DIGITS

ROOT = Path(__file__).resolve().parents[1]


def benchmark_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded by path once.

    perfbench is not a package, so tests that reuse its job texts or
    request streams load the module from its file.
    """
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


@pytest.fixture
def fresh_caches():
    """Empty the library's per-ring caches (every ``lru_cache`` of ``coulomb``
    and ``shmodel``), so that a test counting the work of a request stream
    counts the same whatever tests ran before it."""
    for module in (coulomb, shmodel):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


@pytest.fixture
def u1_pm1() -> AmbientRing:
    """U(1) with a weight pair (+1, -1)."""
    return ambient_table(CoulombProblem.make(1, 0, [(1,), (-1,)]))


@pytest.fixture
def su2_standard() -> AmbientRing:
    """SU(2) with the standard two-dimensional representation."""
    return ambient_table(CoulombProblem.make(0, 1, [(1,), (-1,)]))


@pytest.fixture
def torus2() -> AmbientRing:
    return ambient_table(CoulombProblem.make(2, 0, []))


def rand_coeff(rng: random.Random, height: int = 10) -> Fraction:
    num = rng.randint(-height, height)
    den = rng.randint(1, height)
    return Fraction(num, den)


def rand_polynomial(
    rng: random.Random,
    table: VariableTable,
    max_terms: int = 4,
    max_degree: int = 3,
    height: int = 10,
) -> ExactPolynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = []
        for flag in table.laurent:
            low = -max_degree if flag else 0
            mono.append(rng.randint(low, max_degree))
        coeff = rand_coeff(rng, height)
        if coeff:
            terms[tuple(mono)] = coeff
    return ExactPolynomial(table, terms)


def rand_pure_element(
    rng: random.Random,
    ring: AmbientRing,
    max_terms: int = 4,
    zmax: int = 3,
    degmax: int = 3,
    height: int = 10,
) -> ExactPolynomial:
    """Random element of the pure branch: z-monomials times tau/mu coefficients."""
    table = ring.table
    z_positions = [table.index(n) for n in ring.z_names]
    tau_positions = [table.index(n) for n in ring.tau_names] + [table.index("mu")]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * len(table)
        for pos in z_positions:
            mono[pos] = rng.randint(-zmax, zmax)
        for pos in tau_positions:
            mono[pos] = rng.randint(0, degmax)
        coeff = rand_coeff(rng, height)
        if coeff:
            terms[tuple(mono)] = coeff
    return ExactPolynomial(table, terms)


def rand_blowup_element(
    rng: random.Random,
    ring: AmbientRing,
    max_terms: int = 4,
    zmax: int = 2,
    degmax: int = 2,
    height: int = 8,
) -> ExactPolynomial:
    """Random chart element: polynomial in mu, tau, u and Laurent in z."""
    table = ring.table
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = []
        for pos, flag in enumerate(table.laurent):
            if flag:
                mono.append(rng.randint(-zmax, zmax))
            else:
                mono.append(rng.randint(0, degmax))
        coeff = rand_coeff(rng, height)
        if coeff:
            terms[tuple(mono)] = coeff
    return ExactPolynomial(table, terms)


def reference_divide(p, d):
    """Laurent long division with no certificate: the reference for exact_divide."""
    p_shift = tuple(e if p.table.laurent[i] else 0 for i, e in enumerate(p.min_exponents()))
    d_shift = tuple(e if d.table.laurent[i] else 0 for i, e in enumerate(d.min_exponents()))
    pn = p.monomial_shifted(tuple(-e for e in p_shift))
    dn = d.monomial_shifted(tuple(-e for e in d_shift))
    lead_d, coeff_d = dn.leading()
    remainder = dict(pn.terms)
    quotient = {}
    while remainder:
        mono = max(remainder)
        q_mono = tuple(a - b for a, b in zip(mono, lead_d))
        if any(e < 0 for e in q_mono):
            return None
        q_coeff = remainder[mono] / coeff_d
        quotient[q_mono] = q_coeff
        for m2, c2 in dn.terms.items():
            target = tuple(a + b for a, b in zip(q_mono, m2))
            s = remainder.get(target, Fraction(0)) - q_coeff * c2
            if s:
                remainder[target] = s
            else:
                remainder.pop(target, None)
    shift_back = tuple(a - b for a, b in zip(p_shift, d_shift))
    return ExactPolynomial(p.table, quotient).monomial_shifted(shift_back)


def reference_sum(factors, terms):
    """Sum of reduced ``FactoredFraction`` terms, cleared over the least
    common multiple of their denominators (each factor to its largest
    exponent) and reduced by trying every factor of it with
    ``reference_divide`` for as long as it divides.

    Written out here as a second route: it shares no code with the sums of
    ``fracs``.
    """
    terms = [t for t in terms if not t.is_zero]
    powers = {}
    for t in terms:
        for idx, exp in t.denominator:
            powers[idx] = max(powers.get(idx, 0), exp)
    num = factors.table.zero()
    for t in terms:
        scale = {idx: exp - dict(t.denominator).get(idx, 0) for idx, exp in powers.items()}
        cleared = t.numerator
        for idx, exp in scale.items():
            cleared = cleared * factors.factors[idx] ** exp
        num = num + cleared
    if num.is_zero:
        return factors.zero()
    for idx in powers:
        while powers[idx] and (q := reference_divide(num, factors.factors[idx])) is not None:
            num, powers[idx] = q, powers[idx] - 1
    return FactoredFraction._reduced(factors, num, [(i, e) for i, e in powers.items() if e])


def reference_apply(morphism, p: ExactPolynomial):
    """Image of ``p`` under ``morphism``, term by term: each variable power
    through ``FactoredFraction`` powers and products (negative powers through
    ``inverse``), and the terms added by ``reference_sum``.

    Written out here as a second route: it never reads the morphism's
    factored images.
    """
    cache = {}

    def var_power(pos: int, exp: int):
        if (pos, exp) not in cache:
            cache[pos, exp] = morphism.images[morphism.source.names[pos]] ** exp
        return cache[pos, exp]

    terms = []
    for mono, coeff in sorted(p.terms.items()):
        term = morphism.target.constant(coeff)
        for pos, exp in enumerate(mono):
            if exp:
                term = term * var_power(pos, exp)
        terms.append(term)
    return reference_sum(morphism.target, terms)


def divide(p: ExactPolynomial, basis, order) -> tuple[ExactPolynomial, list[ExactPolynomial]]:
    """Plain multivariate division of ``p`` by the polynomials ``basis``.

    Returns ``(remainder, cofactors)`` with ``p == sum(c * g) + remainder``
    and no term of the remainder divisible by a leading monomial.  Written
    out here as a second route: it shares no code with ``groebner``.
    """
    key = functools.cache(order)
    leads = [max(g.terms, key=key) for g in basis]
    terms = dict(p.terms)
    cofactors: list[dict] = [{} for _ in basis]
    remainder = {}
    while terms:
        mono = max(terms, key=key)
        coeff = terms.pop(mono)
        k = next(
            (k for k, lm in enumerate(leads) if all(a <= b for a, b in zip(lm, mono))), None
        )
        if k is None:
            remainder[mono] = coeff
            continue
        g, lm = basis[k], leads[k]
        scale = coeff / g.terms[lm]
        shift = tuple(a - b for a, b in zip(mono, lm))
        cofactors[k][shift] = scale  # each step removes a smaller monomial
        for m, c in g.terms.items():
            if m == lm:
                continue
            target = tuple(a + b for a, b in zip(shift, m))
            value = terms.get(target, Fraction(0)) - scale * c
            if value:
                terms[target] = value
            else:
                terms.pop(target, None)
    return (
        ExactPolynomial(p.table, remainder),
        [ExactPolynomial(p.table, c) for c in cofactors],
    )


def is_groebner_basis(gb: GroebnerBasis) -> bool:
    """Monic, reduced, and every S-pair reduces to zero by plain division.

    Every step runs through ``divide``, so the check shares no code with
    ``groebner``.
    """
    leads = [max(g.terms, key=gb.order) for g in gb.basis]
    if any(g.terms[lm] != 1 for g, lm in zip(gb.basis, leads)):
        return False
    for i, lm in enumerate(leads):
        for j, g in enumerate(gb.basis):
            if i != j and any(all(a <= b for a, b in zip(lm, m)) for m in g.terms):
                return False
    for j in range(len(gb.basis)):
        for i in range(j):
            lcm = tuple(max(a, b) for a, b in zip(leads[i], leads[j]))
            s: dict = {}
            for g, lm, sign in ((gb.basis[i], leads[i], 1), (gb.basis[j], leads[j], -1)):
                shift = tuple(a - b for a, b in zip(lcm, lm))
                for m, c in g.terms.items():
                    target = tuple(a + b for a, b in zip(shift, m))
                    value = s.get(target, Fraction(0)) + sign * c
                    if value:
                        s[target] = value
                    else:
                        s.pop(target, None)
            remainder, _ = divide(ExactPolynomial(gb.table, s), gb.basis, gb.order)
            if not remainder.is_zero:
                return False
    return True


@dataclass(frozen=True)
class TagMembership:
    """Outcome of a subalgebra membership test by tag elimination."""

    expressible: bool
    witness: Optional[ExactPolynomial]  # over the tag table, when expressible
    tag_table: VariableTable

    def __bool__(self) -> bool:
        return self.expressible


def subalgebra_membership(f, generators, ambient_relations=()) -> TagMembership:
    """Decide whether ``f`` lies in the subalgebra the named generators span.

    The graph ideal tags each generator, the denominators of the generators
    and of ``f`` get auxiliary inverses, and every non-tag variable is
    eliminated.  The normal form of ``f`` uses tag variables only exactly
    when ``f`` is expressible; it is then a witness polynomial that
    re-evaluates to ``f``.
    """
    if not generators:
        raise ValueError("no generators supplied")
    names = [n for n, _ in generators]
    cleared = {idx for img in [g for _, g in generators] + [f] for idx, _ in img.denominator}
    enc = encode_ring(f.factors, cleared, tags=names, extra_relations=ambient_relations)
    block = enc.block_size
    graph = tuple(enc.encode(g) - enc.table.var(tag) for tag, (_, g) in zip(enc.tags, generators))
    gb = buchberger(Ideal(enc.table, enc.relations + graph), elimination_order(block))
    tag_table = VariableTable(tuple(names), (False,) * len(names))
    reduced = gb.reduce(enc.encode(f))
    if any(pos < block for pos in reduced.used_indices()):
        return TagMembership(False, None, tag_table)
    witness = ExactPolynomial(tag_table, {m[block:]: c for m, c in reduced.terms.items()})
    return TagMembership(True, witness, tag_table)


def toda_base_membership(ring: AmbientRing, f) -> bool:
    """Whether f lies in the integrable-system base: a polynomial in the
    Cartan coordinates and mu that the Weyl average fixes."""
    frac = f if isinstance(f, FactoredFraction) else ring.fraction(f)
    if not frac.is_polynomial:
        return False
    allowed = {ring.table.index(n) for n in ("mu", *ring.tau_names)}
    if not frac.numerator.used_indices() <= allowed:
        return False
    return coulomb.reynolds(ring, frac) == coulomb.expand(ring, frac)


def set_mu_zero(f) -> ExactPolynomial:
    """Evaluate a polynomial element at mu = 0 (table unchanged)."""
    poly = f.as_polynomial() if isinstance(f, FactoredFraction) else f
    return poly.assign_zero(poly.table.index("mu"))


def section_entry(section, z_name: str) -> FactoredFraction:
    """The entry of a ``SectionSpec`` for one z coordinate."""
    return dict(section.entries)[z_name]


def same_value(a: FactoredFraction, b: FactoredFraction) -> bool:
    """Cross-multiplied equality check, independent of the reduction code path."""
    return a.numerator * b.denominator_polynomial() == b.numerator * a.denominator_polynomial()


def weyl_eta_morphisms(problem: CoulombProblem) -> list:
    """Per-block eta sign flips intertwining the branch Weyl action."""
    ring = shmodel.equivariant_ring(problem)
    out = []
    for k in range(problem.datum.su2_blocks):
        pos = problem.datum.block_coordinate(k)
        images = {ring.eta_names[pos]: ring.fraction(-ring.eta(pos))}
        out.append(RingMorphism(ring.table, ring.factors, images))
    return out


def is_weyl_stable(problem: CoulombProblem) -> bool:
    """Whether the weight multiset is a genuine representation of G: each
    block's reflection, which negates its coordinate, permutes the weights."""
    bag = sorted(problem.weights)
    for k in range(problem.datum.su2_blocks):
        pos = problem.datum.block_coordinate(k)
        if sorted(w[:pos] + (-w[pos],) + w[pos + 1 :] for w in problem.weights) != bag:
            return False
    return True


def fixes_variables(morphism, names) -> bool:
    """Whether ``morphism`` sends each named variable to itself."""
    return all(morphism.images[n] == morphism.target.var(n) for n in names)


def rand_member(rng: random.Random, ring: AmbientRing, generators, size: int = 3):
    """Random element of the subring the generators span."""
    total = ring.factors.zero()
    for _ in range(rng.randint(1, size)):
        term = ring.factors.constant(rand_coeff(rng, 6) or 1)
        for _ in range(rng.randint(1, size)):
            _, g = generators[rng.randrange(len(generators))]
            term = term * g
        total = total + term
    return total


def rand_abelian_problem(rng: random.Random) -> CoulombProblem:
    """Random abelian problem whose weights span the coordinate space.

    Spanning keeps the section evaluation faithful sector by sector, which
    the element-level membership/image comparison needs.
    """
    rank = rng.randint(1, 2)
    while True:
        count = rng.randint(1, 4)
        weights = [
            tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(count)
        ]
        if rank == 1:
            if any(w[0] for w in weights):
                return CoulombProblem.make(rank, 0, weights)
            continue
        m = [list(weights[i]) for i in range(count)]
        # rank-2 spanning check via a nonzero 2x2 determinant
        spanning = any(
            m[i][0] * m[j][1] - m[i][1] * m[j][0]
            for i in range(count)
            for j in range(i + 1, count)
        )
        if spanning:
            return CoulombProblem.make(rank, 0, weights)


_REFERENCE_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))", re.ASCII
)


class _ReferenceParser:
    """Each grammar rule evaluates what it read through ``FactoredFraction``
    arithmetic, operand by operand: every product a ``*``, every negative
    power an ``inverse``.  See ``reference_parse``."""

    def __init__(self, text, factors):
        self.text, self.factors, self.tokens, self.i = text, factors, [], 0
        pos = 0
        while pos < len(text):
            m = _REFERENCE_TOKEN.match(text, pos)
            if not m:
                stripped = text[pos:].lstrip(" \t\n\r\f\v")
                if not stripped:
                    break
                raise ExpressionError(f"unexpected character {stripped[0]!r} at position {pos}")
            kind = next(k for k in ("int", "ident", "op") if m.group(k) is not None)
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.tokens.append(("end", "", len(text)))

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def at_op(self, ops):
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    def expect_op(self, op):
        kind, text, pos = self.advance()
        if kind != "op" or text != op:
            raise ExpressionError(f"expected {op!r} at position {pos} in {self.text!r}")

    def parse(self):
        value = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected {text!r} at position {pos} in {self.text!r}")
        return value

    def expr(self):
        terms = [self.term()]
        while self.at_op("+-"):
            op = self.advance()[1]
            rhs = self.term()
            terms.append(rhs if op == "+" else -rhs)
        return factored_sum(self.factors, terms)

    def term(self):
        value = self.unary()
        while self.at_op("*/"):
            op = self.advance()[1]
            rhs = self.unary()
            if op == "*":
                value = value * rhs
            elif rhs.is_zero:
                raise ExpressionError("division by zero")
            else:
                try:
                    value = value / rhs
                except ReductionError as exc:
                    raise ExpressionError(str(exc)) from None
        return value

    def unary(self):
        if self.at_op("-"):
            self.advance()
            return -self.unary()
        base = self.atom()
        if not self.at_op("^"):
            return base
        self.advance()
        exponent = self.exponent()
        if exponent < 0 and base.is_zero:
            raise ExpressionError("negative power of zero")
        try:
            return base ** exponent
        except ReductionError as exc:
            raise ExpressionError(str(exc)) from None

    def exponent(self):
        paren = self.at_op("(")
        if paren:
            self.advance()
        sign = -1 if self.at_op("-") else 1
        if sign < 0:
            self.advance()
        kind, text, pos = self.advance()
        if kind != "int":
            raise ExpressionError(
                f"exponent must be an integer literal (position {pos} in {self.text!r})"
            )
        if len(text.lstrip("0")) > len(str(MAX_EXPONENT)) or int(text) > MAX_EXPONENT:
            raise ExpressionError(
                f"exponent exceeds {MAX_EXPONENT} in absolute value "
                f"(position {pos} in {self.text!r})"
            )
        if paren:
            self.expect_op(")")
        return sign * int(text)

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "int":
            if len(text) > MAX_LITERAL_DIGITS:
                raise ExpressionError(
                    f"integer literal has more than {MAX_LITERAL_DIGITS} digits (position {pos})"
                )
            return self.factors.constant(int(text))
        if kind == "ident":
            try:
                return self.factors.var(text)
            except KeyError:
                raise ExpressionError(f"unknown variable {text!r}") from None
        if kind == "op" and text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ExpressionError(f"unexpected {text!r} at position {pos} in {self.text!r}")


def reference_parse(text, factors):
    """Evaluate an expression operand by operand, as written: the grammar,
    caps and error texts of ``parsing.parse_expression``, with every product
    and power a ``FactoredFraction`` operation and no folded terms.

    Written out here as a second route: it shares only ``FactoredFraction``
    arithmetic with the library's parser.
    """
    return _ReferenceParser(text, factors).parse()
