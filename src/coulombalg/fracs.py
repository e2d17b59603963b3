"""Rational elements with denominators confined to a declared multiplicative set.

General multivariate gcd is avoided by design: a ``FactorSet`` declares the
only irreducible denominators a computation is allowed to produce (single
variables, invertible monomials, and linear forms such as mass-shifted
weight pairings).  A ``FactoredFraction`` stores a Laurent-polynomial
numerator over a multiset of declared factors, kept fully reduced by
iterated exact division.  Monomial units in invertible variables always live
in the numerator, so an element is a ring element exactly when its
denominator is empty.

Every declared factor that can stay in a denominator is a prime of the
Laurent ring (a linear form in non-invertible variables), no two of them
associates, and a reduced numerator is prime to its own denominator.  So, as
in Henrici's gcd-free rational arithmetic (Knuth, TAOCP vol. 2, 4.5.1), a
product can only cancel a factor of one denominator out of the other
numerator, a sum only a factor two or more of its terms carry to the top
exponent, and powers, negations and inverses cancel nothing.  Every sum, of
two values or of many terms, is one ``factored_sum``, which multiplies and
adds integer numerators over monomials packed into single ints (the packing
is linear, and each call picks a field width wide enough for its exponents
to round-trip), and every trial
division by a declared factor, here or in ``coulomb``, runs in the one loop
``FactorSet.divide``.  Results are built through the trusting
``FactoredFraction._reduced``; the public constructor reduces its input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterable, Optional

from .errors import ReductionError, TableMismatchError
from .poly import (
    ExactPolynomial,
    Monomial,
    VariableTable,
    _pack,
    _packed_power,
    _packed_product,
    _packed_terms,
    _unpacked,
    exact_divide,
)


def _is_linear_in_plain_vars(p: ExactPolynomial) -> bool:
    for mono in p.terms:
        deg = 0
        for pos, exp in enumerate(mono):
            if exp < 0:
                return False
            if exp and p.table.laurent[pos]:
                return False
            deg += exp
        if deg > 1:
            return False
    return True


def _is_one(p: ExactPolynomial) -> bool:
    if len(p.terms) != 1:
        return False
    (mono, coeff), = p.terms.items()
    return coeff == 1 and not any(mono)


def _is_unit_monomial(p: ExactPolynomial) -> bool:
    if len(p.terms) != 1:
        return False
    mono = next(iter(p.terms))
    return all(e == 0 or p.table.laurent[i] for i, e in enumerate(mono))


@dataclass(frozen=True)
class FactorSet:
    """The declared irreducible denominators of a localized ring.

    Each factor is sign-normalized (positive leading coefficient under the
    table order) and must be a single variable, an invertible monomial, or a
    linear form in non-invertible variables.  Factors are pairwise
    non-proportional, so reduction by iterated exact division is canonical.
    """

    table: VariableTable
    factors: tuple[ExactPolynomial, ...]
    # Each factor's variable positions: the screen of every trial division.
    variables: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    # Each factor's largest |exponent|: its share of a product's exponent bound.
    heights: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        monic: set[frozenset] = set()  # proportional factors share a monic form
        heights = []
        for f in self.factors:
            if f.table != self.table:
                raise TableMismatchError("factor over a different variable table")
            if f.is_zero or f.is_constant:
                raise ValueError("factors must be nonconstant")
            _, lead = f.leading()
            if lead <= 0:
                raise ValueError(f"factor not sign-normalized: {f!r}")
            if _is_unit_monomial(f):
                heights.append(max(map(abs, next(iter(f.terms)))))
            elif _is_linear_in_plain_vars(f):
                heights.append(1)
            else:
                raise ValueError(f"factor shape not supported: {f!r}")
            terms = f.terms.items()
            form = frozenset(terms if lead == 1 else ((m, c / lead) for m, c in terms))
            if form in monic:
                raise ValueError(f"proportional factors declared: {f!r}")
            monic.add(form)
        variables = tuple(tuple(sorted(f.used_indices())) for f in self.factors)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "heights", tuple(heights))

    def __len__(self) -> int:
        return len(self.factors)

    def index_of(self, p: ExactPolynomial) -> Optional[int]:
        for i, f in enumerate(self.factors):
            if f == p:
                return i
        return None

    def zero(self) -> "FactoredFraction":
        return FactoredFraction(self, self.table.zero(), ())

    def one(self) -> "FactoredFraction":
        return FactoredFraction(self, self.table.one(), ())

    def constant(self, value) -> "FactoredFraction":
        return FactoredFraction(self, self.table.constant(value), ())

    def var(self, name: str) -> "FactoredFraction":
        return FactoredFraction(self, self.table.var(name), ())

    def from_polynomial(self, p: ExactPolynomial) -> "FactoredFraction":
        return FactoredFraction(self, p, ())

    def product(self, powers: Iterable[tuple[int, int]]) -> Optional[ExactPolynomial]:
        """Product of the factors at the given indices to the given powers.

        Returns None for the empty product, so that callers skip multiplying
        by one.
        """
        product = None
        for idx, exp in powers:
            if exp:
                power = self.factors[idx] ** exp
                product = power if product is None else product * power
        return product

    def divide(
        self, num: ExactPolynomial, limits: dict[int, Optional[int]]
    ) -> tuple[ExactPolynomial, dict[int, int]]:
        """Divide the nonzero ``num`` by each factor in ``limits``, in order,
        at most to its limit, or while it divides where the limit is None.

        Returns the quotient and, per factor, its limit less the divisions
        made (a limit of None counting as zero), zeros left out.  A division
        is tried only while the quotient has each of the factor's variables
        among its non-invertible ones, as a linear form's degree in each
        variable adds under products: never on a unit monomial, and never by
        an invertible-monomial factor.  A division can only remove the
        factor's own variables, so only those are looked for again.
        """
        if not limits:
            return num, {}
        laurent = self.table.laurent
        support = {pos for pos in num.used_indices() if not laurent[pos]}
        left: dict[int, int] = {}
        for idx, limit in limits.items():
            f, needed = self.factors[idx], self.variables[idx]
            divided = 0
            while support.issuperset(needed) and divided != limit:
                q = exact_divide(num, f)
                if q is None:
                    break
                num, divided = q, divided + 1
                support.difference_update(
                    pos for pos in needed if not any(m[pos] for m in num.terms)
                )
            if rest := (limit or 0) - divided:
                left[idx] = rest
        return num, left


class FactoredFraction:
    """numerator / product of declared factors, always fully reduced."""

    __slots__ = ("factors", "numerator", "denominator")

    def __init__(
        self,
        factors: FactorSet,
        numerator: ExactPolynomial,
        denominator: Iterable[tuple[int, int]] = (),
    ):
        if numerator.table != factors.table:
            raise TableMismatchError("numerator over a different table")
        powers: dict[int, int] = {}
        for idx, exp in denominator:
            if exp < 0:
                raise ValueError("denominator exponents must be positive")
            if exp:
                if not 0 <= idx < len(factors.factors):
                    raise ValueError(f"factor index {idx} out of range")
                powers[idx] = powers.get(idx, 0) + exp
        num, powers = _reduce(factors, numerator, powers)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", tuple(sorted(powers.items())))

    @classmethod
    def _reduced(cls, factors: FactorSet, numerator: ExactPolynomial, denominator):
        """Wrap a value known to be reduced: positive exponents, no unit-monomial
        factor, no denominator factor dividing the numerator, and the empty
        denominator under zero."""
        frac = object.__new__(cls)
        object.__setattr__(frac, "factors", factors)
        object.__setattr__(frac, "numerator", numerator)
        object.__setattr__(frac, "denominator", tuple(sorted(denominator)))
        return frac

    def __setattr__(self, name, value):
        raise AttributeError("FactoredFraction is immutable")

    # Structure ------------------------------------------------------------------

    @property
    def table(self) -> VariableTable:
        return self.factors.table

    @property
    def is_polynomial(self) -> bool:
        return not self.denominator

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    def denominator_polynomial(self) -> ExactPolynomial:
        product = self.factors.product(self.denominator)
        return self.table.one() if product is None else product

    def as_polynomial(self) -> ExactPolynomial:
        if not self.is_polynomial:
            raise ReductionError(f"element is not polynomial: denominator {self.denominator}")
        return self.numerator

    # Arithmetic -------------------------------------------------------------------

    def _coerce(self, other) -> "FactoredFraction":
        if isinstance(other, FactoredFraction):
            if other.factors != self.factors:
                raise TableMismatchError("operands over different factor sets")
            return other
        if isinstance(other, ExactPolynomial):
            return FactoredFraction(self.factors, other, ())
        return self.factors.constant(other)

    def __add__(self, other) -> "FactoredFraction":
        """Sum of two values, the two-term case of ``factored_sum``."""
        return factored_sum(self.factors, (self, self._coerce(other)))

    __radd__ = __add__

    def __neg__(self) -> "FactoredFraction":
        return FactoredFraction._reduced(self.factors, -self.numerator, self.denominator)

    def __sub__(self, other) -> "FactoredFraction":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "FactoredFraction":
        return (-self) + other

    def __mul__(self, other) -> "FactoredFraction":
        """Product with cross-cancellation.

        A factor in both denominators divides neither numerator, so it
        cannot divide their product.  A factor in one denominator only is
        cancelled out of the other operand's numerator before multiplying.
        """
        other = self._coerce(other)
        a, b = self.numerator, other.numerator
        if a.is_zero or b.is_zero:
            return FactoredFraction._reduced(self.factors, self.table.zero(), ())
        mine = dict(self.denominator)
        theirs = dict(other.denominator)
        powers = {i: e + theirs[i] for i, e in mine.items() if i in theirs}
        only_mine = {i: e for i, e in mine.items() if i not in theirs}
        only_theirs = {i: e for i, e in theirs.items() if i not in mine}
        a, left = self.factors.divide(a, only_theirs)
        powers.update(left)
        b, left = self.factors.divide(b, only_mine)
        powers.update(left)
        num = b if _is_one(a) else a if _is_one(b) else a * b
        return FactoredFraction._reduced(self.factors, num, powers.items())

    __rmul__ = __mul__

    def __truediv__(self, other) -> "FactoredFraction":
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero element")
        try:
            return self * other.inverse()
        except ReductionError:
            pass
        # Not a unit: allowed only if the cleared divisor divides exactly.
        cleared = self * other.denominator_polynomial()
        q = exact_divide(cleared.numerator, other.numerator)
        if q is None:
            raise ReductionError(
                "denominator is outside the multiplicative set and does not divide exactly"
            )
        return FactoredFraction(self.factors, q, cleared.denominator)

    def __pow__(self, exponent: int) -> "FactoredFraction":
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if exponent == 0:
            return self.factors.one()
        # Declared factors are prime, so no power of a reduced numerator
        # gains a factor of the denominator.
        num = self.numerator
        return FactoredFraction._reduced(
            self.factors,
            num if _is_one(num) else num ** exponent,
            ((idx, exp * exponent) for idx, exp in self.denominator),
        )

    def inverse(self) -> "FactoredFraction":
        """Invert a unit of the localization.

        The numerator must decompose as constant * invertible monomial *
        product of declared factors; otherwise the inverse would need a
        denominator outside the multiplicative set.

        The new numerator is a product of the old denominator's factors and
        the new denominator holds the factors taken out of the old
        numerator.  A reduced value shares none between the two, so the
        inverse is reduced.
        """
        if self.is_zero:
            raise ZeroDivisionError("inverting the zero element")
        parts = unit_decompose(self.factors, self.numerator)
        if parts is None:
            raise ReductionError(
                "numerator is not a unit of the localization; cannot invert"
            )
        coeff, mono, factor_powers = parts
        num = self.denominator_polynomial()
        num = num.monomial_shifted(tuple(-e for e in mono)).scaled(Fraction(1) / coeff)
        return FactoredFraction._reduced(self.factors, num, factor_powers.items())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, ExactPolynomial)):
            other = self._coerce(other)
        if not isinstance(other, FactoredFraction):
            return NotImplemented
        return (
            self.factors == other.factors
            and self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    def __repr__(self) -> str:
        from .printing import format_fraction

        return f"FactoredFraction({format_fraction(self)!r})"


def factored_sum(factors: FactorSet, terms: Iterable) -> FactoredFraction:
    """Sum of terms, each a reduced ``FactoredFraction`` or a tuple
    (coefficient, Laurent monomial, signed factor exponents, residue or None)
    standing for coefficient * monomial * prod psi_k^e_k * residue.

    The terms are cleared over prod psi_k^-E_k, E_k the lowest exponent of
    factor k over the terms, and their numerators summed in one dict.  Each
    term's residue must be prime to the factors that term carries to a
    negative exponent, as a reduced value's numerator is to its denominator.
    Then where one term alone reaches E_k < 0, every other cleared numerator
    keeps a power of psi_k and that term's is prime to it, so the sum is
    too: only factors two or more terms reach are trial-divided.  Factor
    products, keyed by their (index, exponent) pairs, are built once per
    call, each from its longest cached prefix.

    Products and the sum run over integers and packed monomials (``poly``'s
    packed helpers): each term is an integer polynomial over its own
    denominator, scaled once to their lcm L, all are summed in one int dict,
    and each surviving monomial is unpacked once, into one Fraction(n, L).
    Packing e to sum(e_i << (i * W)) is linear, so a product or a shift adds
    packed ints; it is injective while every |e_i| < 2^(W-1).  Every exponent
    a term's product can hold is at most the bound B: its factor exponents
    times the factors' heights, plus the largest |exponent| of its residue
    and of its shift.  So W, one sign bit more than B needs, is fixed per
    call from the largest B of its terms.
    """
    table = factors.table
    unit = table.unit_monomial()
    cleared = []
    top: dict[int, int] = {}  # lowest exponent of each factor over the terms
    reach: dict[int, int] = {}  # how many terms reach it
    for term in terms:
        if isinstance(term, FactoredFraction):
            if term.is_zero:
                continue
            term = (1, unit, {idx: -exp for idx, exp in term.denominator}, term.numerator)
        cleared.append(term)
        for idx, e in term[2].items():
            if e < top.get(idx, 0):
                top[idx], reach[idx] = e, 1
            elif e < 0 and e == top[idx]:
                reach[idx] += 1
    bound = 0  # of every |exponent| in a term's products and in the sum
    keyed = []
    for coeff, shift, powers, residue in cleared:
        key = tuple(sorted(
            (idx, n) for idx in powers.keys() | top.keys()
            if (n := powers.get(idx, 0) - top.get(idx, 0))
        ))
        b = max(map(abs, shift)) + sum(n * factors.heights[idx] for idx, n in key)
        if residue is not None:
            b += max(map(abs, chain.from_iterable(residue.terms)), default=0)
        bound = max(bound, b)
        keyed.append((coeff, shift, key, residue))
    width, arity = bound.bit_length() + 1, len(table)
    radix = tuple(1 << shift for shift in range(0, arity * width, width))
    cache: dict[tuple, tuple[dict[int, int], int]] = {}
    parts = []  # (packed numerator, denominator, coefficient numerator, packed shift)
    for coeff, shift, key, residue in keyed:
        num = None
        for i, (idx, n) in enumerate(key):
            prefix, power = key[:i + 1], key[i:i + 1]
            if prefix not in cache:
                if power not in cache:
                    cache[power] = _packed_power(_packed_terms(factors.factors[idx], radix), n)
                cache[prefix] = cache[power] if num is None else _packed_product(num, cache[power])
            num = cache[prefix]
        if residue is not None:
            r = _packed_terms(residue, radix)
            num = r if num is None else _packed_product(num, r)
        sums, den = ({0: 1}, 1) if num is None else num
        parts.append((sums, den * coeff.denominator, coeff.numerator, _pack(shift, radix)))
    den = lcm(*(d for _, d, _, _ in parts))
    total: dict[int, int] = {}
    get = total.get
    for sums, d, c, s in parts:
        scale = c * (den // d)
        for k, n in sums.items():
            k += s
            total[k] = get(k, 0) + n * scale
    total = _unpacked(total, den, width, arity)
    num = ExactPolynomial._unchecked(table, total)
    if not total:
        return FactoredFraction._reduced(factors, num, ())
    contested, denominator = {}, {}
    for idx, e in top.items():
        (contested if reach[idx] > 1 else denominator)[idx] = -e
    num, left = factors.divide(num, contested)
    denominator.update(left)
    return FactoredFraction._reduced(factors, num, denominator.items())


def _reduce(
    factors: FactorSet, num: ExactPolynomial, powers: dict[int, int]
) -> tuple[ExactPolynomial, dict[int, int]]:
    """Cancel declared factors out of the numerator until fully reduced.

    Invertible-monomial factors never stay in the denominator: they are
    absorbed into the numerator as negative exponents, so each value has a
    single representation.
    """
    if num.is_zero:
        return num, {}
    limits: dict[int, int] = {}
    for idx, exp in sorted(powers.items()):
        f = factors.factors[idx]
        if _is_unit_monomial(f):
            mono, coeff = next(iter(f.terms.items()))
            shift = tuple(-e * exp for e in mono)
            num = num.monomial_shifted(shift).scaled(Fraction(1) / coeff ** exp)
        else:
            limits[idx] = exp
    return factors.divide(num, limits)


def factor_decompose(
    factors: FactorSet, p: ExactPolynomial
) -> tuple[Fraction, Monomial, dict[int, int], Optional[ExactPolynomial]]:
    """Write a nonzero p as coefficient * monomial * declared factor powers *
    residue.  The residue is what is left once every declared factor is
    extracted, or None when that is a single invertible term, whose
    coefficient and monomial come first (else both are one)."""
    p, left = factors.divide(p, dict.fromkeys(range(len(factors))))
    extracted = {idx: -exp for idx, exp in left.items()}
    if not _is_unit_monomial(p):
        return Fraction(1), p.table.unit_monomial(), extracted, p
    (mono, coeff), = p.terms.items()
    return coeff, mono, extracted, None


def unit_decompose(
    factors: FactorSet, p: ExactPolynomial
) -> Optional[tuple[Fraction, Monomial, dict[int, int]]]:
    """Write p as coefficient * monomial * product of declared factor powers,
    or return None when p is zero or leaves a residue (``factor_decompose``)."""
    parts = None if p.is_zero else factor_decompose(factors, p)
    return None if parts is None or parts[3] is not None else parts[:3]
