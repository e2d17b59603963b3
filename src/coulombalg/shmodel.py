"""Algebraic model of the equivariant cohomology of the representation ball.

The equivariant cohomology of the unit ball of the representation is the
polynomial ring on eta (equivariant Cartan) variables and the rotation
parameter mu.  Each weight nu contributes the rotation operator
psi_nu = mu + <nu, eta>; the operator of the diagonal rotation is their
product, and inverting it computes the symplectic cohomology of the ball
as a localization.

The branch-to-ball homomorphism evaluates branch elements on the Euler
section: z_i goes to the eta-side section entry, tau to eta, mu to mu, and
each blowup generator to (entry - 1)/eta reduced inside the localization.
An element of the localization lies in the image of plain equivariant
cohomology exactly when its reduced form has no denominator; regularity of
the translate always implies such a polynomial image, and for generic
elements the two are equivalent (cancellations tuned to kill poles of the
section image can break the converse).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import mul
from typing import Sequence

from .coulomb import Element, euler_section
from .errors import MorphismError
from .fracs import FactoredFraction, FactorSet
from .morphisms import RingMorphism
from .poly import ExactPolynomial, VariableTable
from .rootdata import (
    AmbientRing,
    CoulombProblem,
    WeightFormRing,
    coordinate_names,
    weight_form_table,
)


@dataclass(frozen=True)
class EquivariantRing(WeightFormRing):
    """Polynomial ring on (mu, eta) with the weight forms declared invertible-to-be."""

    problem: CoulombProblem
    table: VariableTable
    factors: FactorSet
    eta_names: tuple[str, ...]

    @property
    def weyl_flagged(self) -> bool:
        return self.problem.datum.su2_blocks > 0

    @property
    def cartan_names(self) -> tuple[str, ...]:
        return self.eta_names

    def eta(self, j: int) -> ExactPolynomial:
        return self.table.var(self.eta_names[j])


@lru_cache(maxsize=None)
def equivariant_ring(problem: CoulombProblem) -> EquivariantRing:
    eta_names = tuple(coordinate_names("eta", problem.rank))
    table, factors = weight_form_table(problem, eta_names)
    return EquivariantRing(problem, table, factors, eta_names)


def seidel_operator(ring: EquivariantRing, weight: Sequence[int]) -> ExactPolynomial:
    """Rotation operator of a single weight line: mu + <weight, eta>."""
    w = tuple(int(c) for c in weight)
    if len(w) != ring.problem.rank:
        raise ValueError(f"weight length {len(w)} does not match rank {ring.problem.rank}")
    return ring.psi(w)


def diagonal_seidel(ring: EquivariantRing) -> ExactPolynomial:
    """Operator of the diagonal rotation: the product over all weights."""
    forms = [ring.psi(w) for w in ring.problem.weights]
    return reduce(mul, forms) if forms else ring.table.one()


@dataclass(frozen=True)
class LocalizedRing:
    """The equivariant ring with the weight forms inverted."""

    base: EquivariantRing
    inverted: tuple[int, ...]  # factor indices

    def inverted_factors(self) -> tuple[ExactPolynomial, ...]:
        return tuple(self.base.factors.factors[i] for i in self.inverted)


def symplectic_cohomology(problem: CoulombProblem) -> LocalizedRing:
    """The ball invariant as a localization at every distinct weight form.

    Inverting the diagonal operator and inverting the individual forms give
    the same ring since the operator is their product.
    """
    ring = equivariant_ring(problem)
    inverted = tuple(ring.psi_factor_index(w) for w in problem.distinct_weights())
    return LocalizedRing(ring, inverted)


@lru_cache(maxsize=None)
def section_homomorphism_map(ring: AmbientRing) -> RingMorphism:
    """Evaluation of branch elements on the eta-side Euler section.

    z variables go to the section entries, Cartan variables to eta, mu to
    mu, blowup generators to (entry - 1)/eta; the eta in the denominator
    must cancel, which holds whenever the weights form a representation of
    the group (Weyl-stable list).
    """
    problem = ring.problem
    target = equivariant_ring(problem)
    section = euler_section(problem, target)
    entries = dict(section.entries)
    images: dict[str, FactoredFraction] = {}
    for name in ring.z_names:
        images[name] = entries[name]
    for j, name in enumerate(ring.tau_names):
        images[name] = target.fraction(target.eta(j))
    inverted = {target.psi_factor_index(w) for w in problem.distinct_weights()}
    for k in range(ring.blocks):
        pos = problem.datum.block_coordinate(k)
        entry = entries[ring.z_names[pos]]
        image = (entry - target.factors.one()) / target.fraction(target.eta(pos))
        if any(idx not in inverted for idx, _ in image.denominator):
            raise MorphismError(
                f"section image of {ring.u_names[k]} leaves the localization; "
                "the weight list is not stable under the block reflection"
            )
        images[ring.u_names[k]] = image
    return RingMorphism(ring.table, target.factors, images)


def section_homomorphism(ring: AmbientRing, f: Element) -> FactoredFraction:
    """Image of a branch element in the localized ball model.

    The map needs no ``expand`` first: it sends u to (entry - 1)/eta, the
    image of u's expansion (z - 1)/tau, so both are the same homomorphism
    on the localized branch, and reduced fractions are unique.
    """
    return section_homomorphism_map(ring)(f)


def acceleration_membership(g: FactoredFraction) -> bool:
    """Whether a localized element lies in the image of plain cohomology."""
    return g.is_polynomial


@dataclass(frozen=True)
class DiagramEntry:
    name: str
    image: FactoredFraction
    polynomial: bool


@dataclass(frozen=True)
class DiagramReport:
    entries: tuple[DiagramEntry, ...]
    multiplicative: bool
    passed: bool


def verify_diagram(
    ring: AmbientRing, generators: Sequence[tuple[str, Element]]
) -> DiagramReport:
    """Check that generator images land in plain cohomology, multiplicatively.

    Each generator is evaluated on the section and must come out polynomial;
    on top of that the evaluation must respect products pairwise.  Failures
    are recorded in the report rather than raised, so a generator outside
    the matter subring shows up as a denominator entry.
    """
    named = [(n, f if isinstance(f, FactoredFraction) else ring.fraction(f)) for n, f in generators]
    entries = []
    images: dict[str, FactoredFraction] = {}
    for name, g in named:
        img = section_homomorphism(ring, g)
        images[name] = img
        entries.append(DiagramEntry(name, img, acceleration_membership(img)))
    multiplicative = True
    for i, (n1, g1) in enumerate(named):
        for n2, g2 in named[i:]:
            lhs = section_homomorphism(ring, g1 * g2)
            if lhs != images[n1] * images[n2]:
                multiplicative = False
    passed = multiplicative and all(e.polynomial for e in entries)
    return DiagramReport(tuple(entries), multiplicative, passed)
