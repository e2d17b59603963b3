"""Ring morphisms given by per-variable substitution images.

A morphism sends every variable of a source table to a ``FactoredFraction``
over a target localized ring.  Applying it to a polynomial or fraction
evaluates the unique ring-homomorphism extension.  Images of invertible
(Laurent) variables must themselves be units of the target localization so
that negative exponents can be mapped; each is inverted once, when the
morphism is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import MorphismError, ReductionError
from .fracs import FactoredFraction, FactorSet
from .poly import ExactPolynomial, VariableTable


@dataclass(frozen=True)
class RingMorphism:
    """Substitution map from a source table into a target localized ring."""

    source: VariableTable
    target: FactorSet
    images: Mapping[str, FactoredFraction]

    # Inverse of each invertible variable's image, keyed by source position.
    _inverses: dict[int, FactoredFraction] = field(init=False, compare=False, repr=False)

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
        inverses = {}
        for pos, name in enumerate(self.source.names):
            if self.source.laurent[pos]:
                img = imgs[name]
                if img.is_zero:
                    raise MorphismError(
                        f"invertible variable {name!r} mapped to zero"
                    )
                try:
                    inverses[pos] = img.inverse()
                except ReductionError:
                    raise MorphismError(
                        f"image of invertible variable {name!r} is not a unit"
                    ) from None
        object.__setattr__(self, "images", imgs)
        object.__setattr__(self, "_inverses", inverses)

    def __call__(self, element) -> FactoredFraction:
        if isinstance(element, ExactPolynomial):
            return self.apply_polynomial(element)
        if isinstance(element, FactoredFraction):
            return self.apply_fraction(element)
        return self.target.constant(element)

    def apply_polynomial(self, p: ExactPolynomial) -> FactoredFraction:
        if p.table != self.source:
            raise MorphismError("element over a different source table")
        cache: dict[tuple[int, int], FactoredFraction] = {}

        def var_power(pos: int, exp: int) -> FactoredFraction:
            key = (pos, exp)
            if key not in cache:
                if exp > 0:
                    cache[key] = self.images[self.source.names[pos]] ** exp
                else:
                    cache[key] = self._inverses[pos] ** -exp
            return cache[key]

        total = self.target.zero()
        for mono, coeff in sorted(p.terms.items()):
            term = self.target.constant(coeff)
            for pos, exp in enumerate(mono):
                if exp:
                    term = term * var_power(pos, exp)
            total = total + term
        return total

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
