"""Buchberger-based ideal computations over the rationals.

Everything here works with honest polynomials: invertible variables are
pre-encoded by partner variables with pairing relations ``z * z__inv - 1``,
and declared denominators are cleared with auxiliary inverses in the same
way.  The basis computation uses the product and chain criteria and
deterministic tie-breaking by generator index, and returns the unique
reduced basis for the chosen order.  Pairs wait in a heap, each key and lcm
computed once when the pair is formed: the sugar strategy selects them under
block orders and ``LEX``, and the normal strategy under ``GREVLEX`` (see
``buchberger``).

Inside the engine a basis is a list of ``BasisEntry`` records, each built
once, when its element enters: the lead, the lead's support mask (one bit
per variable with a positive exponent) and the monic element, also as
integer numerators.  A reduction runs on integer numerators over one
denominator (see ``normal_form``).  ``GroebnerBasis.basis`` holds the
elements alone, which may be non-monic, and ``GroebnerBasis.reduce`` builds
their entries on each call.

A monomial order is its sort key: a function from an exponent tuple to a
value that compares like the monomial (``LEX``, ``GREVLEX`` and the block
orders of ``elimination_order``).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from heapq import heappop, heappush
from math import gcd
from operator import add, le, neg, sub
from typing import Callable, Iterable, NamedTuple, Sequence

from .fracs import FactoredFraction, FactorSet
from .morphisms import RingMorphism
from .poly import ExactPolynomial, Monomial, VariableTable, _integer_terms

# ---------------------------------------------------------------------------
# Monomial orders
# ---------------------------------------------------------------------------


# A total order on monomials, compatible with multiplication, given as its
# sort key: the larger key is the larger monomial.
MonomialOrder = Callable[[Monomial], tuple]


def _grevlex_key(exps: Sequence[int]) -> tuple:
    return (sum(exps), tuple(map(neg, reversed(exps))))


def _block_key(block: int, mono: Monomial) -> tuple:
    return (_grevlex_key(mono[:block]), _grevlex_key(mono[block:]))


# Position by position, first position strongest.
LEX: MonomialOrder = tuple
# Total degree, ties broken graded reverse lexicographically.
GREVLEX: MonomialOrder = _grevlex_key


def elimination_order(first_block_size: int) -> MonomialOrder:
    """Eliminates the first ``first_block_size`` variables, grevlex in each block."""
    return partial(_block_key, first_block_size)


def leading_monomial(p: ExactPolynomial, order: MonomialOrder) -> Monomial:
    if p.is_zero:
        raise ValueError("zero polynomial has no leading monomial")
    return max(p.terms, key=order)


def _support_mask(mono: Monomial) -> int:
    """One bit per variable whose exponent in ``mono`` is positive."""
    mask = 0
    for pos, e in enumerate(mono):
        if e > 0:
            mask |= 1 << pos
    return mask


def _require_plain(p: ExactPolynomial):
    for mono in p.terms:
        if any(e < 0 for e in mono):
            raise ValueError("Laurent exponents must be pre-encoded for ideal work")


# ---------------------------------------------------------------------------
# Reduction and the Buchberger loop
# ---------------------------------------------------------------------------


class BasisEntry(NamedTuple):
    """A basis element and what reduction reads of it (built by ``_entry``)."""

    lead: Monomial  # leading monomial under the basis order
    mask: int  # support mask of ``lead``
    scale: int  # lcm of the element's denominators, its integer lead coefficient
    tail: list[tuple[Monomial, int]]  # the other terms, times ``scale``
    element: ExactPolynomial  # monic


def _entry(g: ExactPolynomial, order: MonomialOrder) -> BasisEntry:
    lm = leading_monomial(g, order)
    c = g.terms[lm]
    if c != 1:
        g = g.scaled(1 / c)
    terms, scale = _integer_terms(g)
    return BasisEntry(lm, _support_mask(lm), scale, [t for t in terms if t[0] != lm], g)


def normal_form(
    p: ExactPolynomial,
    basis: Sequence[BasisEntry],
    order: MonomialOrder,
) -> ExactPolynomial:
    """Fully reduce ``p`` by ``basis``, a sequence of ``BasisEntry`` records.

    The work polynomial is integer numerators over one denominator ``D``.
    A term with numerator ``w`` whose first dividing lead has integer
    coefficient ``a`` is cancelled by ``w / a`` times the shifted integer
    element; when ``a`` does not divide ``w``, the remaining work and ``D``
    are first multiplied by ``a / gcd(a, w)``.  A term that no lead divides
    leaves for the remainder as ``Fraction(w, D)`` with ``D`` as it is then.

    Each monomial's order key is computed at most once per call.  The terms
    still to reduce wait in a list sorted by key, largest last; a reduction
    step only adds terms below the one it removes.  A lead whose stored
    support mask has a bit that the term's lacks cannot divide the term and
    is skipped untested, so the first dividing lead is the same one.

    ``p`` must be plain (no negative exponent); ``GroebnerBasis.reduce``
    checks what enters from outside, and S-polynomials of plain elements
    are plain.
    """
    keys: dict[Monomial, tuple] = {}

    def key(mono: Monomial) -> tuple:
        k = keys.get(mono)
        if k is None:
            k = keys[mono] = order(mono)
        return k

    terms, den = _integer_terms(p)
    work = dict(terms)
    queue = sorted((key(m), m) for m in work)
    remainder: dict[Monomial, Fraction] = {}
    while queue:
        mono = queue.pop()[1]
        w = work.pop(mono, None)
        if w is None:
            continue  # cancelled after it was queued
        absent = ~_support_mask(mono)
        for lm, mask, a, tail, _ in basis:
            if not mask & absent and all(map(le, lm, mono)):
                q, r = divmod(w, a)
                if r:
                    common = gcd(a, w)
                    factor, q = a // common, w // common
                    work = {m: n * factor for m, n in work.items()}
                    den *= factor
                shift = tuple(map(sub, mono, lm))
                for m2, n2 in tail:
                    target = tuple(map(add, shift, m2))
                    old = work.get(target)
                    if old is None:
                        work[target] = -q * n2
                        insort(queue, (key(target), target))
                    elif old := old - q * n2:
                        work[target] = old
                    else:
                        del work[target]
                break
        else:
            remainder[mono] = Fraction(w, den)
    return ExactPolynomial._unchecked(p.table, remainder)


def _s_polynomial(f: BasisEntry, g: BasisEntry) -> ExactPolynomial:
    """S-polynomial of two basis entries: each monic element shifted up to
    the lcm of the two leads, by a shift that is never negative, and the
    difference formed in one pass over the terms."""
    lcm = tuple(map(max, f.lead, g.lead))
    shift = tuple(map(sub, lcm, f.lead))
    terms = {tuple(map(add, m, shift)): c for m, c in f.element.terms.items()}
    shift = tuple(map(sub, lcm, g.lead))
    for m, c in g.element.terms.items():
        mono = tuple(map(add, m, shift))
        old = terms.get(mono)
        if old is None:
            terms[mono] = -c
        elif old := old - c:
            terms[mono] = old
        else:
            del terms[mono]
    return ExactPolynomial._unchecked(f.element.table, terms)


@dataclass(frozen=True)
class Ideal:
    table: VariableTable
    generators: tuple[ExactPolynomial, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.is_zero:
                raise ValueError("ideal generators must be nonzero")
            _require_plain(g)


@dataclass(frozen=True)
class GroebnerBasis:
    table: VariableTable
    order: MonomialOrder
    basis: tuple[ExactPolynomial, ...]

    def reduce(self, p: ExactPolynomial) -> ExactPolynomial:
        _require_plain(p)
        return normal_form(p, [_entry(g, self.order) for g in self.basis], self.order)

    def contains(self, p: ExactPolynomial) -> bool:
        return self.reduce(p).is_zero


def buchberger(ideal: Ideal, order: MonomialOrder) -> GroebnerBasis:
    """Reduced deterministic basis of the ideal under the given order.

    The product and chain criteria prune useless pairs, and every pair that
    survives them is reduced by the module's ``normal_form``.  Pairs wait in
    a heap, each key and lcm computed once, ties broken by generator
    indices:

    - Under ``GREVLEX``, the normal strategy: the key is ``order(lcm)``.
    - Under every other order, the sugar strategy (Giovini et al., "One
      sugar cube, please", ISSAC 1991): the key is ``(sugar, order(lcm))``.
      A generator's sugar is its total degree, a pair's is the larger of
      ``sugar + deg(lcm) - deg(lead)`` over its two elements, and a new
      element takes the sugar of its pair.  A block order's smallest lcm can
      have a high total degree; the sugar, the degree the pair would have
      if the ideal were homogenized, keeps the degrees low.  On the small
      GREVLEX bases of the membership test sugar measured slower, and there
      the degree already leads ``order(lcm)``.
    """
    basis: list[BasisEntry] = []
    sugars: list[int] = []  # beside basis
    # Pairs not yet taken: the set answers the chain criterion, the heap
    # hands out the smallest (key, (i, j)) first.  A pair's sugar and lcm
    # ride along, the sugar for its remainder to inherit.
    pairs: set[tuple[int, int]] = set()
    queue: list[tuple[tuple, tuple[int, int], int, Monomial]] = []
    by_sugar = order is not GREVLEX

    def enter(p: ExactPolynomial, sugar: int):  # generators and new remainders alike
        entry = _entry(p, order)
        lm = entry.lead
        new = len(basis)
        basis.append(entry)
        sugars.append(sugar)
        for t in range(new):
            lt = basis[t].lead
            lcm = tuple(map(max, lt, lm))
            degree = sum(lcm)
            s = max(sugars[t] + degree - sum(lt), sugar + degree - sum(lm))
            pairs.add((t, new))
            key = (s, order(lcm)) if by_sugar else order(lcm)
            heappush(queue, (key, (t, new), s, lcm))

    for g in ideal.generators:
        enter(g, max(map(sum, g.terms)))

    while queue:
        _, (i, j), sugar, lcm = heappop(queue)
        pairs.discard((i, j))
        mask_i, mask_j = basis[i].mask, basis[j].mask
        if not mask_i & mask_j:
            continue  # disjoint leading monomials reduce to zero
        absent = ~(mask_i | mask_j)  # the lcm's support is the union
        if any(
            not mk & absent
            and k not in (i, j)
            and all(map(le, lk, lcm))
            and (min(i, k), max(i, k)) not in pairs
            and (min(j, k), max(j, k)) not in pairs
            for k, (lk, mk, _, _, _) in enumerate(basis)
        ):
            continue  # chain criterion: a third lead divides the lcm
        h = normal_form(_s_polynomial(basis[i], basis[j]), basis, order)
        if not h.is_zero:
            enter(h, sugar)

    return GroebnerBasis(ideal.table, order, tuple(_interreduce(basis, order)))


def _interreduce(basis: list[BasisEntry], order: MonomialOrder) -> list[ExactPolynomial]:
    # Minimalize: drop elements whose leading monomial another one divides.
    minimal: list[BasisEntry] = []
    for entry in sorted(basis, key=lambda e: order(e.lead)):
        absent = ~entry.mask
        if not any(not e.mask & absent and all(map(le, e.lead, entry.lead)) for e in minimal):
            minimal.append(entry)
    # Tail-reduce each element against the others.  No other leading
    # monomial divides its own, and a reduction step only adds terms below
    # the one it removes, so the leading term stays, with coefficient 1.
    reduced = [
        normal_form(e.element, minimal[:idx] + minimal[idx + 1 :], order)
        for idx, e in enumerate(minimal)
    ]
    return reduced[::-1]  # largest leading monomial first


# ---------------------------------------------------------------------------
# Laurent and localization encodings
# ---------------------------------------------------------------------------

INVERSE_SUFFIX = "__inv"
_CLEAR_PREFIX = "__clr"
_TAG_PREFIX = "__tag"


@dataclass(frozen=True)
class EncodedRing:
    """Polynomial model of a localized Laurent ring plus optional tags.

    Layout of the encoded table: original variables, partner inverses for
    invertible variables, auxiliary inverses for cleared denominator factors,
    then tag variables.  The first three groups form the elimination block.
    """

    source: VariableTable
    table: VariableTable
    partner: dict[int, int]
    clear_aux: dict[int, int]
    tags: tuple[str, ...]
    relations: tuple[ExactPolynomial, ...]

    @property
    def block_size(self) -> int:
        return len(self.table) - len(self.tags)

    def encode(self, f: FactoredFraction) -> ExactPolynomial:
        """Polynomial standing for ``f`` after clearing declared denominators."""
        result = self.encode_polynomial(f.numerator)
        for idx, exp in f.denominator:
            shift = [0] * len(self.table)
            shift[self.clear_aux[idx]] = exp
            result = result.monomial_shifted(tuple(shift))
        return result

    def encode_polynomial(self, p: ExactPolynomial) -> ExactPolynomial:
        width = len(self.table)
        terms: dict[Monomial, Fraction] = {}
        for mono, coeff in p.terms.items():
            exps = [0] * width
            for pos, exp in enumerate(mono):
                if exp >= 0:
                    exps[pos] = exp
                else:
                    exps[self.partner[pos]] = -exp
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return ExactPolynomial(self.table, terms)


def encode_ring(
    factors: FactorSet,
    cleared_factor_indices: Iterable[int] = (),
    tags: Sequence[str] = (),
    extra_relations: Sequence[ExactPolynomial] = (),
) -> EncodedRing:
    """Build the polynomial presentation of a localized Laurent ring.

    ``cleared_factor_indices`` lists the declared factors that need an
    auxiliary inverse; ``extra_relations`` are ambient relations over the
    source table (Laurent exponents allowed, they are encoded here).
    """
    source = factors.table
    names: list[str] = list(source.names)
    partner: dict[int, int] = {}
    for pos, name in enumerate(source.names):
        if source.laurent[pos]:
            partner[pos] = len(names)
            names.append(name + INVERSE_SUFFIX)
    clear_aux: dict[int, int] = {}
    for idx in sorted(set(cleared_factor_indices)):
        clear_aux[idx] = len(names)
        names.append(f"{_CLEAR_PREFIX}{idx}")
    internal_tags = tuple(f"{_TAG_PREFIX}{i}" for i in range(len(tags)))
    names.extend(internal_tags)
    table = VariableTable(tuple(names), (False,) * len(names))

    enc = EncodedRing(source, table, partner, clear_aux, internal_tags, ())
    relations: list[ExactPolynomial] = []
    for pos, part in partner.items():
        z = [0] * len(names)
        z[pos] = 1
        z[part] = 1
        relations.append(table.monomial(z) - table.one())
    for idx, aux in clear_aux.items():
        f_enc = enc.encode_polynomial(factors.factors[idx])
        relations.append(f_enc * table.var(names[aux]) - table.one())
    for rel in extra_relations:
        relations.append(enc.encode_polynomial(rel))
    object.__setattr__(enc, "relations", tuple(relations))
    return enc


def ring_map_kernel(
    images: Sequence[tuple[str, FactoredFraction]],
    ambient_relations: Sequence[ExactPolynomial] = (),
) -> Ideal:
    """Ideal of all relations among named elements of a localized ring.

    The graph ideal of the assignment, each name a tag variable, is formed
    over the encoded ring (the images' denominators cleared) and the other
    variables are eliminated; what survives on the tags is the kernel of
    the induced map from the free polynomial ring on the names.
    """
    if not images:
        raise ValueError("no images supplied")
    names = [n for n, _ in images]
    if len(set(names)) != len(names):
        raise ValueError("generator names must be distinct")
    cleared = {idx for _, img in images for idx, _ in img.denominator}
    enc = encode_ring(images[0][1].factors, cleared, tags=names, extra_relations=ambient_relations)
    block = enc.block_size
    graph = tuple(enc.encode(img) - enc.table.var(tag) for tag, (_, img) in zip(enc.tags, images))
    gb = buchberger(Ideal(enc.table, enc.relations + graph), elimination_order(block))
    tag_table = VariableTable(tuple(names), (False,) * len(names))
    kept = [
        ExactPolynomial(tag_table, {m[block:]: c for m, c in g.terms.items()})
        for g in gb.basis
        if all(pos >= block for pos in g.used_indices())
    ]
    return Ideal(tag_table, tuple(kept))


def evaluate_tags(
    witness: ExactPolynomial, generators: Sequence[tuple[str, FactoredFraction]]
) -> FactoredFraction:
    """Evaluate a tag-variable polynomial at the generator elements.

    The benchmark gate's independent route, in the library only as perfbench/workloads.py imports it.
    """
    return RingMorphism(witness.table, generators[0][1].factors, dict(generators))(witness)
