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
numerator, a sum only a factor both operands carry to the same exponent, and
powers, negations and inverses cancel nothing.  These paths trial-divide
only there and build their results through the trusting
``FactoredFraction._reduced``; the public constructor reduces what it is
given.  A linear form's degree in each of its variables adds under
products, so the factor loops also skip a form with a variable the dividend
lacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .errors import ReductionError, TableMismatchError
from .poly import ExactPolynomial, Monomial, VariableTable, divide_out, exact_divide


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

    def __post_init__(self):
        seen: list[ExactPolynomial] = []
        for f in self.factors:
            if f.table != self.table:
                raise TableMismatchError("factor over a different variable table")
            if f.is_zero or f.is_constant:
                raise ValueError("factors must be nonconstant")
            _, lead = f.leading()
            if lead <= 0:
                raise ValueError(f"factor not sign-normalized: {f!r}")
            if not (_is_unit_monomial(f) or _is_linear_in_plain_vars(f)):
                raise ValueError(f"factor shape not supported: {f!r}")
            for g in seen:
                if _proportional(f, g):
                    raise ValueError(f"proportional factors declared: {f!r}")
            seen.append(f)

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


def _proportional(f: ExactPolynomial, g: ExactPolynomial) -> bool:
    if set(f.terms) != set(g.terms):
        return False
    ratio = None
    for mono, coeff in f.terms.items():
        r = coeff / g.terms[mono]
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


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
        """Sum over the lcm of the denominators.

        Where one operand carries a factor to a lower exponent, its term keeps
        a power of the factor and the other term's numerator is prime to it,
        so the sum is too; only equal exponents are tried.
        """
        other = self._coerce(other)
        mine = dict(self.denominator)
        theirs = dict(other.denominator)
        lcm = {i: max(mine.get(i, 0), theirs.get(i, 0)) for i in set(mine) | set(theirs)}
        num = _scaled_numerator(self, lcm, mine) + _scaled_numerator(other, lcm, theirs)
        if num.is_zero:
            return FactoredFraction._reduced(self.factors, num, ())
        for idx, exp in mine.items():
            if theirs.get(idx) == exp:
                num, divided = divide_out(num, self.factors.factors[idx], exp)
                lcm[idx] -= divided
        return FactoredFraction._reduced(self.factors, num, ((i, e) for i, e in lcm.items() if e))

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
        a = _cancel(self.factors, a, theirs, mine, powers)
        b = _cancel(self.factors, b, mine, theirs, powers)
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


def _scaled_numerator(
    x: FactoredFraction, lcm: dict[int, int], own: dict[int, int]
) -> ExactPolynomial:
    """Numerator of x over the denominator ``lcm``, a multiple of its own."""
    scale = x.factors.product((i, e - own.get(i, 0)) for i, e in lcm.items())
    return x.numerator if scale is None else x.numerator * scale


def _cancel(
    factors: FactorSet, num: ExactPolynomial, den: dict, own: dict, powers: dict
) -> ExactPolynomial:
    """Cancel out of ``num`` each factor of the other operand's denominator
    ``den`` that its own denominator ``own`` lacks, at most to the factor's
    exponent, and record what is left of that exponent in ``powers``.

    Stops trying once ``num`` is a unit monomial, which no factor divides,
    and skips each factor with a variable that ``num`` lacks.
    """
    support = num.used_indices()
    for idx, exp in den.items():
        if idx in own:
            continue
        f = factors.factors[idx]
        if not _is_unit_monomial(num) and f.used_indices() <= support:
            num, divided = divide_out(num, f, exp)
            exp -= divided
        if exp:
            powers[idx] = exp
    return num


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
    out: dict[int, int] = {}
    for idx in sorted(powers):
        exp = powers[idx]
        f = factors.factors[idx]
        if _is_unit_monomial(f):
            mono, coeff = next(iter(f.terms.items()))
            shift = tuple(-e * exp for e in mono)
            num = num.monomial_shifted(shift).scaled(Fraction(1) / coeff ** exp)
            continue
        num, divided = divide_out(num, f, exp)
        if exp > divided:
            out[idx] = exp - divided
    return num, out


def factor_decompose(
    factors: FactorSet, p: ExactPolynomial
) -> tuple[Fraction, Monomial, dict[int, int], Optional[ExactPolynomial]]:
    """Write a nonzero p as coefficient * monomial * declared factor powers *
    residue.  The residue is what is left once every declared factor is
    extracted, or None when that is a single invertible term, whose
    coefficient and monomial come first (else both are one)."""
    extracted: dict[int, int] = {}
    support = p.used_indices()
    for idx, f in enumerate(factors.factors):
        if _is_unit_monomial(p):
            break  # no declared prime divides a unit
        if _is_unit_monomial(f):
            continue  # invertible-monomial content lands in the monomial part
        if f.used_indices() <= support:
            p, divided = divide_out(p, f)
            if divided:
                extracted[idx] = divided
                support = p.used_indices()
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


def same_value(a: FactoredFraction, b: FactoredFraction) -> bool:
    """Cross-multiplied equality check, independent of the reduction code path."""
    return a.numerator * b.denominator_polynomial() == b.numerator * a.denominator_polynomial()
