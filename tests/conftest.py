"""Shared fixtures and seeded random element generators."""

from __future__ import annotations

import functools
import importlib.util
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coulombalg import (
    AmbientRing,
    CoulombProblem,
    ExactPolynomial,
    ExpressionError,
    FactoredFraction,
    GroebnerBasis,
    ReductionError,
    VariableTable,
    ambient_table,
    coulomb,
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
