"""Ring morphisms given by per-variable substitution images.

A morphism sends every variable of a source table to a ``FactoredFraction``
over a target localized ring.  Applying it to a polynomial or fraction
evaluates the unique ring-homomorphism extension.

Each image is factored once, when the morphism is built, as coefficient *
Laurent monomial * declared factors to signed exponents * a residue no
declared factor divides (None for a unit; invertible variables need units).
A term's image is then exponent arithmetic, and the terms go to
``fracs.factored_sum`` as one sum: a product of residues is prime to every
declared factor, as that sum requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import MorphismError, ReductionError
from .fracs import FactoredFraction, FactorSet, factor_decompose, factored_sum
from .poly import ExactPolynomial, VariableTable


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
        unit = self.target.table.unit_monomial()
        residues = {}  # (position, exponent) -> residue power, built once per call
        terms = []
        for mono, coeff in p.terms.items():
            shift = unit
            powers: dict[int, int] = {}
            residue = None
            for pos, exp in enumerate(mono):
                if not exp:
                    continue
                image = self._factored[pos]
                if image is None:
                    break  # the term maps to zero
                c, m, image_powers, r = image
                if c != 1:
                    coeff *= c ** exp
                if any(m):
                    shift = tuple(a + exp * b for a, b in zip(shift, m))
                for idx, e in image_powers.items():
                    powers[idx] = powers.get(idx, 0) + exp * e
                if r is not None:
                    if (pos, exp) not in residues:
                        residues[pos, exp] = r ** exp
                    r = residues[pos, exp]
                    residue = r if residue is None else residue * r
            else:
                terms.append((coeff, shift, powers, residue))
        return factored_sum(self.target, terms)

    def apply_fraction(self, f: FactoredFraction) -> FactoredFraction:
        num = self.apply_polynomial(f.numerator)
        for idx, exp in f.denominator:
            image = self.apply_polynomial(f.factors.factors[idx])
            try:
                inv = image.inverse()
            except (ReductionError, ZeroDivisionError) as exc:
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


def identity_morphism(factors: FactorSet) -> RingMorphism:
    table = factors.table
    return RingMorphism(table, factors, {n: factors.var(n) for n in table.names})
