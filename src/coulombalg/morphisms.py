"""Ring morphisms given by per-variable substitution images.

A morphism sends every variable of a source table to a ``FactoredFraction``
over a target localized ring.  Applying it to a polynomial or fraction
evaluates the unique ring-homomorphism extension.

Each image is factored once, when the morphism is built, as coefficient *
Laurent monomial * declared factors to signed exponents * a residue no
declared factor divides (None for a unit; invertible variables need units),
and so is the unit image of each source denominator factor, when first met.
A polynomial or fraction then goes through as one ``fracs.factored_sum`` of
terms built by exponent arithmetic: residues are prime to every declared
factor and denominator images are units, as that sum requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import MorphismError
from .fracs import FactoredFraction, FactorSet, factor_decompose, factored_sum, unit_decompose
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
    _factor_images: list = field(init=False, compare=False, repr=False)  # see _factor_image

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
        object.__setattr__(self, "_factor_images", [None, {}])

    def __call__(self, element) -> FactoredFraction:
        if isinstance(element, ExactPolynomial):
            return self.apply_polynomial(element)
        if isinstance(element, FactoredFraction):
            return self.apply_fraction(element)
        return self.target.constant(element)

    def apply_polynomial(self, element) -> FactoredFraction:
        return factored_sum(self.target, self.terms(element))

    apply_fraction = apply_polynomial

    def terms(self, element, scale=1) -> list:
        """The ``factored_sum`` terms of scale times a polynomial's or fraction's
        image: each numerator term's image over the denominator's image."""
        fraction = isinstance(element, FactoredFraction)
        p = element.numerator if fraction else element
        if p.table != self.source:
            raise MorphismError("element over a different source table")
        shift0, powers0 = self.target.table.unit_monomial(), {}
        for idx, exp in element.denominator if fraction else ():
            c, m, image_powers = self._factor_image(element.factors, idx)
            scale = scale / c ** exp  # c is a Fraction, so scale becomes one
            shift0 = tuple(a - exp * b for a, b in zip(shift0, m))
            powers0.update({k: powers0.get(k, 0) - exp * e for k, e in image_powers.items()})
        residues = {}  # (position, exponent) -> residue power, built once per call
        terms = []
        for mono, coeff in p.terms.items():
            shift, powers, residue = shift0, powers0.copy(), None
            if scale != 1:
                coeff *= scale
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
        return terms

    def _factor_image(self, factors: FactorSet, idx: int) -> tuple:
        """Factor idx's unit image (coefficient, monomial, signed factor exponents),
        recorded in [factor set, {idx: image}] for the first factor set met
        (by identity, then equality).  A failure raises on every call."""
        record = self._factor_images
        if record[0] is None:
            record[0] = factors
        images = record[1] if factors is record[0] or factors == record[0] else {}
        if idx not in images:
            image = self.apply_polynomial(factors.factors[idx])
            parts = None if image.is_zero else unit_decompose(self.target, image.numerator)
            if parts is None:
                raise MorphismError("denominator factor maps outside the multiplicative set: " + (
                    "inverting the zero element" if image.is_zero
                    else "numerator is not a unit of the localization; cannot invert"))
            coeff, mono, powers = parts
            powers.update((k, -e) for k, e in image.denominator)
            images[idx] = coeff, mono, powers
        return images[idx]

    def then(self, outer: "RingMorphism") -> "RingMorphism":
        """Composite morphism: first self, then outer."""
        if outer.source != self.target.table:
            raise MorphismError("composition tables do not match")
        images = {name: outer(self.images[name]) for name in self.source.names}
        return RingMorphism(self.source, outer.target, images)


def identity_morphism(factors: FactorSet) -> RingMorphism:
    table = factors.table
    return RingMorphism(table, factors, {n: factors.var(n) for n in table.names})
