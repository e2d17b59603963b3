"""Exact sparse multivariate Laurent polynomials over the rationals.

A polynomial is a finite map from exponent tuples to nonzero ``Fraction``
coefficients.  Exponents may be negative only at positions the variable
table flags as Laurent (invertible) variables.  The variable table fixes
names, invertibility flags and the comparison order used for canonical
printing: the first listed variable is the most significant.

The zero polynomial is the empty term map; equality is term-map equality,
so every value has exactly one representation.

Products and exact division run on integers: each operand is written as
integer numerators over the lcm of its denominators for the length of one
call, and one ``Fraction`` is built per result term.  The packed helpers
below do the same over monomials packed into single ints, for the products
and the sum of ``fracs.factored_sum``.  Exact division rests
on one fact, Gauss's lemma: when the divisor divides, the cleared dividend
is an integral multiple of the primitive divisor.  So a nonzero value of the
dividend modulo the prime 2^61 - 1 at a point where a linear divisor
vanishes proves failure, and so does a non-integral step of long division
(see ``exact_divide``).  Repeated division by a declared factor, and the
screens that spare trials bound to fail, live in ``fracs.FactorSet.divide``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, lt, mul, sub
from typing import Iterable, Mapping, Optional

from .errors import TableMismatchError

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class VariableTable:
    """Ordered list of variable names with Laurent (invertibility) flags.

    The listed order is the significance order: monomials compare
    lexicographically position by position, first position strongest.
    """

    names: tuple[str, ...]
    laurent: tuple[bool, ...]

    def __post_init__(self):
        if len(self.names) != len(self.laurent):
            raise ValueError("names and laurent flags must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names in {self.names}")

    @staticmethod
    def make(entries: Iterable[tuple[str, bool]]) -> "VariableTable":
        pairs = tuple(entries)
        return VariableTable(tuple(n for n, _ in pairs), tuple(f for _, f in pairs))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def unit_monomial(self) -> Monomial:
        return (0,) * len(self.names)

    def var_monomial(self, name: str) -> Monomial:
        exps = [0] * len(self.names)
        exps[self.index(name)] = 1
        return tuple(exps)

    # Convenience constructors ------------------------------------------------

    def zero(self) -> "ExactPolynomial":
        return ExactPolynomial(self, {})

    def constant(self, value) -> "ExactPolynomial":
        c = Fraction(value)
        if c == 0:
            return self.zero()
        return ExactPolynomial(self, {self.unit_monomial(): c})

    def one(self) -> "ExactPolynomial":
        return self.constant(1)

    def var(self, name: str) -> "ExactPolynomial":
        return ExactPolynomial(self, {self.var_monomial(name): Fraction(1)})

    def monomial(self, exponents: Iterable[int], coefficient=1) -> "ExactPolynomial":
        c = Fraction(coefficient)
        if c == 0:
            return self.zero()
        return ExactPolynomial(self, {tuple(exponents): c})

    def linear_form(self, coefficients: Mapping[str, int], constant=0) -> "ExactPolynomial":
        terms: dict[Monomial, Fraction] = {}
        for name, coeff in coefficients.items():
            if coeff:
                terms[self.var_monomial(name)] = Fraction(coeff)
        c = Fraction(constant)
        if c:
            terms[self.unit_monomial()] = c
        return ExactPolynomial(self, terms)


class ExactPolynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VariableTable, terms: Mapping[Monomial, Fraction]):
        clean: dict[Monomial, Fraction] = {}
        width = len(table)
        for mono, coeff in terms.items():
            if coeff == 0:
                continue
            if len(mono) != width:
                raise ValueError(f"monomial {mono} has wrong arity for table {table.names}")
            for pos, exp in enumerate(mono):
                if exp < 0 and not table.laurent[pos]:
                    raise ValueError(
                        f"negative exponent of non-invertible variable {table.names[pos]!r}"
                    )
            clean[mono] = Fraction(coeff)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _unchecked(cls, table: VariableTable, terms: dict) -> "ExactPolynomial":
        """Wrap terms known to be valid: right arity, Laurent-admissible, nonzero Fractions."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "table", table)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("ExactPolynomial is immutable")

    # Predicates ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(all(e == 0 for e in mono) for mono in self.terms)

    def is_term(self) -> bool:
        return len(self.terms) == 1

    def used_indices(self) -> set[int]:
        used: set[int] = set()
        for mono in self.terms:
            for pos, exp in enumerate(mono):
                if exp:
                    used.add(pos)
        return used

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending positional-lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)

    def leading(self) -> tuple[Monomial, Fraction]:
        """Leading term under the table's positional-lexicographic order."""
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms)
        return mono, self.terms[mono]

    # Arithmetic ----------------------------------------------------------------

    def _check(self, other: "ExactPolynomial"):
        if self.table is not other.table and self.table != other.table:
            raise TableMismatchError(
                f"operands over different tables {self.table.names} vs {other.table.names}"
            )

    def _coerce(self, other) -> "ExactPolynomial":
        if isinstance(other, ExactPolynomial):
            self._check(other)
            return other
        return self.table.constant(other)

    def __add__(self, other) -> "ExactPolynomial":
        other = self._coerce(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = terms.get(mono, Fraction(0)) + coeff
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
        return ExactPolynomial._unchecked(self.table, terms)

    __radd__ = __add__

    def __neg__(self) -> "ExactPolynomial":
        return ExactPolynomial._unchecked(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "ExactPolynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ExactPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "ExactPolynomial":
        other = self._coerce(other)
        left, left_den = _integer_terms(self)
        right, right_den = _integer_terms(other)
        sums: dict[Monomial, int] = {}
        get = sums.get
        for m1, n1 in left:
            for m2, n2 in right:
                mono = tuple(map(add, m1, m2))
                sums[mono] = get(mono, 0) + n1 * n2
        den = left_den * right_den
        return ExactPolynomial._unchecked(
            self.table, {m: Fraction(n, den) for m, n in sums.items() if n}
        )

    __rmul__ = __mul__

    def scaled(self, scalar) -> "ExactPolynomial":
        c = Fraction(scalar)
        if c == 0:
            return self.table.zero()
        return ExactPolynomial._unchecked(self.table, {m: k * c for m, k in self.terms.items()})

    def __pow__(self, exponent: int) -> "ExactPolynomial":
        if not isinstance(exponent, int):
            raise TypeError("polynomial exponent must be an integer")
        if exponent < 0:
            if self.is_term():
                mono, coeff = next(iter(self.terms.items()))
                inv = tuple(-e for e in mono)
                return ExactPolynomial(self.table, {inv: Fraction(1) / coeff}) ** (-exponent)
            raise ValueError("negative power of a non-monomial polynomial")
        if exponent == 0:
            return self.table.one()
        result = None
        base = self
        n = exponent
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.table.constant(other)
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        from .printing import format_polynomial

        return f"ExactPolynomial({format_polynomial(self)!r})"

    # Structure helpers ----------------------------------------------------------

    def monomial_shifted(self, shift: Monomial) -> "ExactPolynomial":
        if not any(shift):
            return self
        return ExactPolynomial(
            self.table,
            {tuple(a + b for a, b in zip(m, shift)): c for m, c in self.terms.items()},
        )

    def min_exponents(self) -> Monomial:
        """Componentwise minimum exponent over the support (0 for the zero poly)."""
        if self.is_zero:
            return self.table.unit_monomial()
        mins = [min(m[i] for m in self.terms) for i in range(len(self.table))]
        return tuple(mins)

    def sector_split(self, positions: Iterable[int]) -> dict[Monomial, "ExactPolynomial"]:
        """Group terms by their exponents at ``positions``.

        Returns a map from the restricted exponent tuple to the polynomial of
        matching terms with those positions zeroed out.
        """
        pos = tuple(positions)
        sectors: dict[Monomial, dict[Monomial, Fraction]] = {}
        for mono, coeff in self.terms.items():
            key = tuple(mono[i] for i in pos)
            rest = list(mono)
            for i in pos:
                rest[i] = 0
            sectors.setdefault(key, {})[tuple(rest)] = coeff
        return {k: ExactPolynomial(self.table, v) for k, v in sectors.items()}

    def assign_zero(self, position: int) -> "ExactPolynomial":
        """Substitute 0 for the variable at ``position``."""
        terms: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            exp = mono[position]
            if exp < 0:
                raise ZeroDivisionError(
                    f"substituting 0 for inverted variable {self.table.names[position]!r}"
                )
            if exp == 0:
                terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return ExactPolynomial(self.table, {m: c for m, c in terms.items() if c})

    def assign_polynomial(self, position: int, value: "ExactPolynomial") -> "ExactPolynomial":
        """Substitute a polynomial for the variable at ``position``.

        The variable must occur with nonnegative exponents unless the value is
        an invertible single term.
        """
        self._check(value)
        result = self.table.zero()
        for (exp,), rest in self.sector_split((position,)).items():
            result = result + (rest * value ** exp if exp else rest)
        return result

    def transfer(self, table: VariableTable) -> "ExactPolynomial":
        """Re-express over another table, matching variables by name.

        Every variable actually used must exist in the target table.
        """
        mapping: list[Optional[int]] = []
        for name in self.table.names:
            try:
                mapping.append(table.index(name))
            except KeyError:
                mapping.append(None)
        width = len(table)
        terms: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            exps = [0] * width
            for pos, exp in enumerate(mono):
                if not exp:
                    continue
                target = mapping[pos]
                if target is None:
                    raise KeyError(
                        f"variable {self.table.names[pos]!r} absent from target table"
                    )
                exps[target] = exp
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coeff
        return ExactPolynomial(table, {m: c for m, c in terms.items() if c})


def _integer_terms(p: ExactPolynomial) -> tuple[list, int]:
    """p as ([(monomial, integer)], D) with p = terms / D, D the lcm of p's
    denominators."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return [(m, c.numerator * (den // c.denominator)) for m, c in p.terms.items()], den


# Packed integer polynomials, for the length of one ``fracs.factored_sum``
# call: (terms, D) with terms a map {packed monomial: integer numerator} and
# D their common denominator.  A monomial e packs to sum(e_i << (i * width)),
# a linear map, so products and monomial shifts add packed ints.  It is
# injective while every |e_i| < 2^(width-1); ``factored_sum`` picks the width.
Packed = tuple[dict[int, int], int]


def _pack(mono: Monomial, radix: tuple[int, ...]) -> int:
    """The packed monomial, ``radix`` holding 1 << (i * width) per position."""
    return sum(map(mul, mono, radix))


def _packed_terms(p: ExactPolynomial, radix: tuple[int, ...]) -> Packed:
    terms, den = _integer_terms(p)
    return {_pack(m, radix): n for m, n in terms}, den


def _packed_product(a: Packed, b: Packed) -> Packed:
    """Product of two packed polynomials; zero sums are kept."""
    sums: dict[int, int] = {}
    get = sums.get
    for k1, n1 in a[0].items():
        for k2, n2 in b[0].items():
            k = k1 + k2
            sums[k] = get(k, 0) + n1 * n2
    return sums, a[1] * b[1]


def _packed_power(a: Packed, exponent: int) -> Packed:
    """a ** exponent for exponent >= 1, by repeated products with a: cheaper
    than squaring when a is sparse, as a declared factor is."""
    power = a
    for _ in range(exponent - 1):
        power = _packed_product(power, a)
    return power


def _unpacked(sums: dict[int, int], den: int, width: int, arity: int) -> dict:
    """The terms {monomial: Fraction(n, den)} of the nonzero sums.

    A packed monomial is read as ``arity`` balanced base-2^width digits, each
    in [-2^(width-1), 2^(width-1)): adding 2^(width-1) at every digit makes
    them plain digits, read by shifts and masks, and taking it off again
    restores the signed exponents.
    """
    half, mask = 1 << (width - 1), (1 << width) - 1
    shifts = range(0, arity * width, width)
    bias = sum(half << shift for shift in shifts)
    terms = {}
    for k, n in sums.items():
        if n:
            k += bias
            terms[tuple([(k >> shift & mask) - half for shift in shifts])] = Fraction(n, den)
    return terms


# Modulus of the non-divisibility certificate in ``exact_divide``, and the
# residues of its evaluation point: coordinate i is (_POINT_BASE +
# _POINT_STEP * i) ** 3.  Cubes keep the point off the lines on which two
# small linear forms vanish together, as they would on an arithmetic
# progression.
_PRIME = 2 ** 61 - 1
_POINT_BASE = 1_000_003
_POINT_STEP = 7919


def _value_on_zero_set(
    dividend: list, divisor: list, laurent: tuple[bool, ...]
) -> Optional[int]:
    """Evaluate the dividend modulo _PRIME at a fixed point where the divisor vanishes.

    Both are unshifted integer term lists from ``_integer_terms``, the
    divisor divided by its content.  Returns None (the certificate declines)
    when the divisor is not linear, when its pivot coefficient (that of its
    first variable) is divisible by _PRIME, or when the pivot is a Laurent
    variable whose coordinate is zero.  The other coordinates are nonzero
    cubes, so an accepted point makes every Laurent monomial a unit.
    """
    constant = 0
    linear: dict[int, int] = {}
    for mono, n in divisor:
        position = None
        for pos, exp in enumerate(mono):
            if exp:
                if exp != 1 or position is not None:
                    return None
                position = pos
        if position is None:
            constant = n
        else:
            linear[position] = n
    if not linear:
        return None
    pivot = min(linear)
    if not linear[pivot] % _PRIME:
        return None
    point = [pow(_POINT_BASE + _POINT_STEP * i, 3, _PRIME) for i in range(len(laurent))]
    rest = constant + sum(n * point[pos] for pos, n in linear.items() if pos != pivot)
    point[pivot] = -rest * pow(linear[pivot], -1, _PRIME) % _PRIME
    if laurent[pivot] and not point[pivot]:
        return None
    total = 0
    powers: dict[tuple[int, int], int] = {}  # (position, exponent) -> power, for this call
    for mono, value in dividend:
        for pos, exp in enumerate(mono):
            if exp:
                power = powers.get((pos, exp))
                if power is None:
                    power = powers[pos, exp] = pow(point[pos], exp, _PRIME)
                value = value * power % _PRIME
        total += value
    return total % _PRIME


def exact_divide(p: ExactPolynomial, d: ExactPolynomial) -> Optional[ExactPolynomial]:
    """Return q with q * d == p, or None if no such polynomial exists.

    Works in the Laurent sense: monomial units are always divisible, and the
    quotient may use negative exponents at Laurent positions.

    One argument proves both failure tests.  Shift the Laurent positions to
    minimum exponent 0 and clear denominators: p becomes P and d becomes a
    primitive D (d over its integer content), both in Z[x].  If d divides p,
    then P = Q * D with Q in Z[x] by Gauss's lemma.  Hence:

    - the certificate, for a linear d: P(a) = Q(a) * D(a) = 0 modulo 2^61 - 1
      at a point a where D(a) = 0, so a nonzero value proves failure and
      None is returned at once.  ``_value_on_zero_set`` evaluates before
      shifting, which changes no zero: at a point whose Laurent coordinates
      are nonzero, the shifts are units;
    - long division: each step yields a coefficient of Q, so a non-integral
      step proves failure.

    No randomness decides an answer: a zero value and a declined certificate
    go to long division, which decides exactly.  The integer quotient,
    scaled back by the cleared denominators and the content, is the answer.
    """
    if d.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero:
        return p.table.zero()
    p._check(d)
    laurent = p.table.laurent
    dividend, p_den = _integer_terms(p)
    divisor, d_den = _integer_terms(d)
    content = gcd(*(n for _, n in divisor))
    divisor = [(m, n // content) for m, n in divisor]
    if _value_on_zero_set(dividend, divisor, laurent):
        return None
    # Lex order is shift-invariant, so the division runs unshifted; the
    # shifts only set the lowest exponent a quotient term may have.
    floor = tuple(
        a - b if flag else 0 for flag, a, b in zip(laurent, p.min_exponents(), d.min_exponents())
    )
    lead_d, coeff_d = max(divisor)
    remainder = dict(dividend)
    quotient: dict[Monomial, int] = {}
    while remainder:
        mono = max(remainder)
        q_mono = tuple(map(sub, mono, lead_d))
        if any(map(lt, q_mono, floor)):
            return None
        q_coeff, rest = divmod(remainder[mono], coeff_d)
        if rest:
            return None
        quotient[q_mono] = q_coeff
        for m2, n2 in divisor:
            target = tuple(map(add, q_mono, m2))
            s = remainder.get(target, 0) - q_coeff * n2
            if s:
                remainder[target] = s
            else:
                del remainder[target]
    den = p_den * content
    return ExactPolynomial._unchecked(
        p.table, {m: Fraction(n * d_den, den) for m, n in quotient.items()}
    )
