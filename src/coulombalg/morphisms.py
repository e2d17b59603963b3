"""Ring morphisms given by per-variable substitution images.

A morphism sends every variable of a source table to a ``FactoredFraction``
over a target localized ring.  Applying it to a polynomial or fraction
evaluates the unique ring-homomorphism extension.

Each image is factored once, when the morphism is built, as coefficient *
Laurent monomial * declared factors to signed exponents * a residue no
declared factor divides (None for a unit; invertible variables need units).
A term's image is then exponent arithmetic, and the terms are summed once
over the common denominator prod psi_k^E_k, E_k the largest denominator
exponent of factor k.  Residues are prime to the declared factors, which are
non-associate primes, so where one term alone reaches E_k the sum is prime to
psi_k: only factors two or more terms reach are trial-divided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add
from typing import Mapping

from .errors import MorphismError, ReductionError
from .fracs import FactoredFraction, FactorSet, factor_decompose
from .poly import ExactPolynomial, VariableTable, divide_out


@dataclass(frozen=True)
class RingMorphism:
    """Substitution map from a source table into a target localized ring."""

    source: VariableTable
    target: FactorSet
    images: Mapping[str, FactoredFraction]

    # Per source position: (coefficient, monomial, signed factor exponents,
    # residue) of the image, or None for a zero image.
    _factored: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        imgs = dict(self.images)
        for name in self.source.names:
            img = imgs.get(name)
            if img is None:
                # Default to the identically named variable of the target.
                img = self.target.var(name)
                imgs[name] = img
            if img.factors != self.target:
                raise MorphismError(f"image of {name!r} lives over a different ring")
        factored = []
        for name, invertible in zip(self.source.names, self.source.laurent):
            img = imgs[name]
            if img.is_zero:
                if invertible:
                    raise MorphismError(f"invertible variable {name!r} mapped to zero")
                factored.append(None)
                continue
            coeff, mono, powers, residue = factor_decompose(self.target, img.numerator)
            if invertible and residue is not None:
                raise MorphismError(f"image of invertible variable {name!r} is not a unit")
            powers.update((idx, -exp) for idx, exp in img.denominator)
            factored.append((coeff, mono, powers, residue))
        object.__setattr__(self, "images", imgs)
        object.__setattr__(self, "_factored", tuple(factored))

    def __call__(self, element) -> FactoredFraction:
        if isinstance(element, ExactPolynomial):
            return self.apply_polynomial(element)
        if isinstance(element, FactoredFraction):
            return self.apply_fraction(element)
        return self.target.constant(element)

    def apply_polynomial(self, p: ExactPolynomial) -> FactoredFraction:
        if p.table != self.source:
            raise MorphismError("element over a different source table")
        target = self.target
        terms = []  # (coefficient, monomial, factor exponents, residue powers)
        top: dict[int, int] = {}  # lowest exponent of each factor over the terms
        for mono, coeff in p.terms.items():
            shift = target.table.unit_monomial()
            powers: dict[int, int] = {}
            residues = []
            for pos, exp in enumerate(mono):
                if not exp:
                    continue
                image = self._factored[pos]
                if image is None:
                    break  # the term maps to zero
                c, m, image_powers, residue = image
                if c != 1:
                    coeff *= c ** exp
                if any(m):
                    shift = tuple(a + exp * b for a, b in zip(shift, m))
                for idx, e in image_powers.items():
                    powers[idx] = powers.get(idx, 0) + exp * e
                if residue is not None:
                    residues.append((pos, exp))
            else:
                terms.append((coeff, shift, powers, residues))
                for idx, e in powers.items():
                    if e < top.get(idx, 0):
                        top[idx] = e
        # Clear every term over prod psi_k^-top[k] and sum the numerators.
        # Factor products, keyed by their (index, exponent) pairs, and
        # residue powers, keyed by (position, exponent), are built once per
        # call, each product from its longest cached prefix.
        cache: dict[tuple, ExactPolynomial] = {}
        total: dict = {}
        one = ((target.table.unit_monomial(), 1),)
        for coeff, shift, powers, residues in terms:
            key = tuple(sorted(
                (idx, n) for idx in powers.keys() | top.keys()
                if (n := powers.get(idx, 0) - top.get(idx, 0))
            ))
            num = None
            for i, (idx, n) in enumerate(key):
                prefix, power = key[:i + 1], key[i:i + 1]
                if prefix not in cache:
                    if power not in cache:
                        cache[power] = target.factors[idx] ** n
                    cache[prefix] = cache[power] if num is None else num * cache[power]
                num = cache[prefix]
            for pos, exp in residues:
                if (pos, exp) not in cache:
                    cache[pos, exp] = self._factored[pos][3] ** exp
                num = cache[pos, exp] if num is None else num * cache[pos, exp]
            for m, c in one if num is None else num.terms.items():
                m = tuple(map(add, m, shift))
                value = total.get(m, 0) + coeff * c
                if value:
                    total[m] = value
                else:
                    del total[m]
        num = ExactPolynomial._unchecked(target.table, total)
        denominator = []
        for idx, e in top.items() if total else ():
            if sum(powers.get(idx) == e for _, _, powers, _ in terms) > 1:
                num, divided = divide_out(num, target.factors[idx], -e)
                e += divided
            if e:
                denominator.append((idx, -e))
        return FactoredFraction._reduced(target, num, denominator)

    def apply_fraction(self, f: FactoredFraction) -> FactoredFraction:
        num = self.apply_polynomial(f.numerator)
        for idx, exp in f.denominator:
            image = self.apply_polynomial(f.factors.factors[idx])
            try:
                inv = image.inverse()
            except ReductionError as exc:
                raise MorphismError(
                    f"denominator factor maps outside the multiplicative set: {exc}"
                ) from exc
            num = num * inv ** exp
        return num

    def then(self, outer: "RingMorphism") -> "RingMorphism":
        """Composite morphism: first self, then outer."""
        if outer.source != self.target.table:
            raise MorphismError("composition tables do not match")
        images = {name: outer(self.images[name]) for name in self.source.names}
        return RingMorphism(self.source, outer.target, images)

    def fixes_variables(self, names) -> bool:
        return all(self.images[n] == self.target.var(n) for n in names)


def identity_morphism(factors: FactorSet) -> RingMorphism:
    table = factors.table
    return RingMorphism(table, factors, {n: factors.var(n) for n in table.names})
