"""Coulomb branch presentations, translations, and matter subrings.

The pure branch of a torus is the Laurent polynomial ring on the dual-torus
coordinates with the Cartan coordinates and the mass parameter adjoined.
Each SU(2) factor is handled on the affine blowup chart, which adjoins
u_k = (z_k - 1)/tau_k with the relation tau_k*u_k = z_k - 1 and carries the
Weyl involution z -> 1/z, tau -> -tau, u -> u/z.

A weight list induces the Euler section z_i -> prod_nu (mu + <nu,tau>)^{nu_i}
of the Toda projection.  Translating by it along the group-scheme action is
a rational automorphism of the localized pure branch; the matter branch is
the subring of regular elements whose translate stays regular.  Membership
is decided by a clearing/divisibility criterion in the abelian case and by
ideal membership on the blowup chart otherwise; presentations of the matter
subring are computed as kernels of the generator map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from .errors import AlgebraError, MorphismError, ProblemError
from .fracs import FactoredFraction, FactorSet, factored_sum
from .groebner import (
    GREVLEX,
    Ideal,
    buchberger,
    encode_ring,
    ring_map_kernel,
)
from .morphisms import RingMorphism, identity_morphism
from .poly import ExactPolynomial, VariableTable
from .rootdata import (
    AmbientRing,
    CoulombProblem,
    WeightFormRing,
    ambient_table,
    coordinate_names,
    weyl_generator_morphisms,
)

Element = Union[ExactPolynomial, FactoredFraction]


@dataclass(frozen=True)
class RingPresentation:
    """A ring given by generators-as-variables and a relation ideal."""

    table: VariableTable
    relations: tuple[ExactPolynomial, ...]
    kind: str  # "pure-torus" | "blowup" | "matter-subring"
    ring: Optional[AmbientRing] = None
    weyl: tuple[RingMorphism, ...] = ()
    derived: tuple[tuple[str, FactoredFraction], ...] = ()
    generators: tuple[tuple[str, FactoredFraction], ...] = ()


def _as_fraction(ring: AmbientRing, f: Element) -> FactoredFraction:
    if isinstance(f, ExactPolynomial):
        return ring.fraction(f)
    return f


# ---------------------------------------------------------------------------
# Pure branches and the blowup chart
# ---------------------------------------------------------------------------


def blowup_relations(ring: AmbientRing) -> tuple[ExactPolynomial, ...]:
    """tau_k * u_k - z_k + 1 for each SU(2) block."""
    rels = []
    for k in range(ring.blocks):
        pos = ring.problem.datum.block_coordinate(k)
        rels.append(ring.tau(pos) * ring.u(k) - ring.z(pos) + ring.table.one())
    return tuple(rels)


def pure_branch(problem: CoulombProblem) -> RingPresentation:
    """The massive pure branch; SU(2) factors are presented on the blowup."""
    return blowup_presentation(problem)


def blowup_presentation(problem: CoulombProblem) -> RingPresentation:
    ring = ambient_table(problem)
    if not problem.datum.su2_blocks:
        return RingPresentation(ring.table, (), "pure-torus", ring=ring)
    derived = []
    for k in range(problem.datum.su2_blocks):
        pos = problem.datum.block_coordinate(k)
        v = ring.fraction(ring.u(k)) * ring.fraction(ring.z(pos)) ** -1
        name = "v" if problem.datum.su2_blocks == 1 else f"v{k + 1}"
        derived.append((name, v))
    return RingPresentation(
        ring.table,
        blowup_relations(ring),
        "blowup",
        ring=ring,
        weyl=tuple(weyl_generator_morphisms(ring)),
        derived=tuple(derived),
    )


@lru_cache(maxsize=None)
def expansion_morphism(ring: AmbientRing) -> RingMorphism:
    """Rewrite blowup generators through u_k = (z_k - 1)/tau_k."""
    images = {}
    for k in range(ring.blocks):
        pos = ring.problem.datum.block_coordinate(k)
        tau_idx = ring.tau_factor_index(pos)
        images[ring.u_names[k]] = FactoredFraction(
            ring.factors, ring.z(pos) - ring.table.one(), ((tau_idx, 1),)
        )
    return RingMorphism(ring.table, ring.factors, images)


def expand(ring: AmbientRing, f: Element) -> FactoredFraction:
    """Canonical form of a blowup element inside the localized Laurent ring."""
    return expansion_morphism(ring)(f)


def blowup_equal(ring: AmbientRing, f: Element, g: Element) -> bool:
    """Equality modulo the blowup relations, via the injective expansion."""
    return expand(ring, f) == expand(ring, g)


def to_blowup_polynomial(ring: AmbientRing, f: Element) -> Optional[ExactPolynomial]:
    """Regular form of a localized element on the blowup chart, if any.

    A fraction with only block-tau denominators is regular exactly when,
    after substituting z_k = 1 + tau_k*u_k, the tau powers divide the
    numerator.  A fraction with any other declared denominator is never
    regular; the expansion of the result reproduces the input.
    """
    frac = _as_fraction(ring, f)
    block_tau = ring.block_tau_indices()
    tau_powers: dict[int, int] = {}
    for idx, exp in frac.denominator:
        if idx not in block_tau:
            return None
        tau_powers[idx] = exp
    # The z variables are units of the chart: strip their negative
    # exponents before substituting z_k = 1 + tau_k*u_k, restore them after.
    shifts = tuple(min(e, 0) for e in frac.numerator.min_exponents())
    num = frac.numerator.monomial_shifted(tuple(-e for e in shifts))
    for k in range(ring.blocks):
        pos = ring.problem.datum.block_coordinate(k)
        z_pos = ring.table.index(ring.z_names[pos])
        num = num.assign_polynomial(z_pos, ring.table.one() + ring.tau(pos) * ring.u(k))
    num, left = ring.factors.divide(num, tau_powers)
    return None if left else num.monomial_shifted(shifts)


# ---------------------------------------------------------------------------
# Sections of the Toda projection and translation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectionSpec:
    """Per-z-coordinate entry of a rational section of the Toda projection.

    Entries are units of the target localization and depend only on the
    Cartan coordinates and the mass parameter.
    """

    problem: CoulombProblem
    side: str  # "tau" | "eta"
    target: FactorSet
    entries: tuple[tuple[str, FactoredFraction], ...]

    def __post_init__(self):
        from .fracs import unit_decompose

        for name, entry in self.entries:
            if entry.factors != self.target:
                raise AlgebraError(f"section entry {name} over a different ring")
            if unit_decompose(self.target, entry.numerator) is None:
                raise AlgebraError(f"section entry {name} is not a unit")

    @classmethod
    def _trusted(cls, problem, side, target, entries) -> "SectionSpec":
        """Wrap entries known to be units over ``target``, unchecked."""
        spec = object.__new__(cls)
        spec.__dict__.update(problem=problem, side=side, target=target, entries=entries)
        return spec

    def inverse(self) -> "SectionSpec":
        return SectionSpec(
            self.problem,
            self.side,
            self.target,
            tuple((n, e.inverse()) for n, e in self.entries),
        )

    def product(self, other: "SectionSpec") -> "SectionSpec":
        if other.target != self.target:
            raise AlgebraError("sections over different rings")
        mine = dict(self.entries)
        return SectionSpec(
            self.problem,
            self.side,
            self.target,
            tuple((n, mine[n] * e) for n, e in other.entries),
        )


def euler_section(problem: CoulombProblem, target: WeightFormRing) -> SectionSpec:
    """The section z_i -> prod_nu (mu + <nu, .>)^{nu_i} over a target ring.

    ``target`` is the ambient ring (Cartan side) or the equivariant ring of
    the ball model (eta side).
    """
    side = "tau" if isinstance(target, AmbientRing) else "eta"
    z_names = coordinate_names("z", problem.rank)
    entries = []
    for i in range(problem.rank):
        unit = [int(j == i) for j in range(problem.rank)]
        num, den = _sector_factors(problem, target, unit)
        numerator = target.factors.product(num.items()) or target.table.one()
        # The numerator and denominator forms are disjoint, and distinct
        # forms are distinct primes, so the entry is already reduced, and a
        # product of factor powers is a unit.
        entry = FactoredFraction._reduced(target.factors, numerator, den.items())
        entries.append((z_names[i], entry))
    return SectionSpec._trusted(problem, side, target.factors, tuple(entries))


def translate_by_section(ring: AmbientRing, section: SectionSpec) -> RingMorphism:
    """Translation automorphism of the localized branch along a section.

    z_i is scaled by the section entry; Cartan and mass variables are fixed;
    each blowup generator is carried to the regular form of (z_k*s_k - 1)/tau_k
    on the chart.  A section whose lift needs a denominator outside the
    declared set raises ``MorphismError``.
    """
    if section.side != "tau":
        raise MorphismError("translation needs a Cartan-side section")
    entries = dict(section.entries)
    images: dict[str, FactoredFraction] = {}
    for i, name in enumerate(ring.z_names):
        images[name] = ring.fraction(ring.z(i)) * entries[name]
    for k in range(ring.blocks):
        pos = ring.problem.datum.block_coordinate(k)
        s = entries[ring.z_names[pos]]
        lifted = to_blowup_polynomial(ring, FactoredFraction(
            ring.factors,
            ring.z(pos) * s.numerator - s.denominator_polynomial(),
            ((ring.tau_factor_index(pos), 1),),
        ))
        if lifted is None:
            raise MorphismError(
                f"section entry for {ring.z_names[pos]} does not lift to the blowup chart"
            )
        images[ring.u_names[k]] = FactoredFraction(ring.factors, lifted, s.denominator)
    return RingMorphism(ring.table, ring.factors, images)


@lru_cache(maxsize=None)
def euler_translation(ring: AmbientRing) -> RingMorphism:
    return translate_by_section(ring, euler_section(ring.problem, ring))


# ---------------------------------------------------------------------------
# Weyl action and the Reynolds projector
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def weyl_group(ring: AmbientRing) -> tuple[RingMorphism, ...]:
    """All 2^b signed-permutation morphisms the block involutions generate."""
    generators = weyl_generator_morphisms(ring)
    elements = [identity_morphism(ring.factors)]
    for gen in generators:
        elements += [w.then(gen) for w in elements]
    return tuple(elements)


@lru_cache(maxsize=None)
def _expanded_weyl_group(ring: AmbientRing) -> tuple[RingMorphism, ...]:
    """The composites "expand, then w", one per element w of ``weyl_group``."""
    return tuple(expansion_morphism(ring).then(w) for w in weyl_group(ring))


def reynolds(ring: AmbientRing, f: Element) -> FactoredFraction:
    """Average over the Weyl group, a projector onto invariants: one
    ``factored_sum`` of the terms of f's images under the composites
    "expand, then w", each scaled by 1/|W|."""
    group = _expanded_weyl_group(ring)
    scale = Fraction(1, len(group))
    return factored_sum(ring.factors, [t for w in group for t in w.terms(f, scale)])


# ---------------------------------------------------------------------------
# Matter branch membership
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    translated: Optional[FactoredFraction] = None  # regular translate, when member
    offending: Optional[ExactPolynomial] = None  # first obstructing factor

    def __bool__(self) -> bool:
        return self.member


def _sector_factors(
    problem: CoulombProblem, ring: WeightFormRing, m: Sequence[int]
) -> tuple[dict[int, int], dict[int, int]]:
    """Powers of the weight forms by which translation multiplies z^m.

    Returns (numerator, denominator) powers keyed by the forms' factor
    indices in ``ring``, both positive.
    """
    numerator: dict[int, int] = {}
    denominator: dict[int, int] = {}
    for w in problem.distinct_weights():
        e = sum(a * b for a, b in zip(w, m)) * problem.weights.count(w)
        if e:
            (numerator if e > 0 else denominator)[ring.psi_factor_index(w)] = abs(e)
    return numerator, denominator


def matter_membership(ring: AmbientRing, f: Element) -> MembershipResult:
    """Decide whether ``f`` is regular and its translate stays regular.

    Abelian case: writing f as a sum of z-monomials times Cartan/mass
    coefficients, the translate of each sector is regular exactly when the
    negatively paired weight forms divide the coefficient; the first factor
    in declared order whose power fails is reported.  With SU(2) blocks the
    translate's cleared numerator is tested against the blowup relations
    plus the cleared denominator by a deterministic basis computation, and
    f itself may have only block-tau denominators, as a regular element.
    """
    frac = _as_fraction(ring, f)
    if ring.blocks == 0:
        return _abelian_membership(ring, frac)
    return _blowup_membership(ring, frac)


def _abelian_membership(ring: AmbientRing, frac: FactoredFraction) -> MembershipResult:
    if not frac.is_polynomial:
        idx = frac.denominator[0][0]
        return MembershipResult(False, offending=ring.factors.factors[idx])
    z_positions = [ring.table.index(n) for n in ring.z_names]
    sectors = frac.numerator.sector_split(z_positions)
    translated = ring.table.zero()
    for m in sorted(sectors, reverse=True):
        coeff = sectors[m]
        positive, required = _sector_factors(ring.problem, ring, m)
        for idx in sorted(required):
            coeff, left = ring.factors.divide(coeff, {idx: required[idx]})
            if left:
                return MembershipResult(False, offending=ring.factors.factors[idx])
        shift = [0] * len(ring.table)
        for pos, e in zip(z_positions, m):
            shift[pos] = e
        scale = ring.factors.product(positive.items())
        if scale is not None:
            coeff = coeff * scale
        translated = translated + coeff.monomial_shifted(tuple(shift))
    return MembershipResult(True, translated=ring.fraction(translated))


def _blowup_membership(ring: AmbientRing, frac: FactoredFraction) -> MembershipResult:
    expanded = expand(ring, frac)
    translated = euler_translation(ring)(expanded)
    numerator = translated.numerator
    denominator = translated.denominator_polynomial()
    enc = encode_ring(ring.factors, extra_relations=blowup_relations(ring))
    gens = list(enc.relations) + [enc.encode_polynomial(denominator)]
    basis = buchberger(Ideal(enc.table, tuple(gens)), GREVLEX)
    block_tau = ring.block_tau_indices()
    if basis.contains(enc.encode_polynomial(numerator)):
        regular = to_blowup_polynomial(ring, translated)
        if regular is None:
            raise AlgebraError("membership routes disagree; regular form not found")
        # The element must be regular too.  No denominator but a block tau
        # ever is, and a block-tau power is absorbed exactly when the
        # translate's is: the translation fixes tau_k and, its section
        # entries being units near tau_k = 0, keeps the order along it.
        if all(idx in block_tau for idx, _ in expanded.denominator):
            return MembershipResult(True, translated=ring.fraction(regular))
    # A translate outside the ideal, and an element that is not regular,
    # have a denominator.  Report the translate's first factor that is not
    # a block tau, else its first factor; the element's if it has none.
    powers = translated.denominator or expanded.denominator
    idx, _ = min(powers, key=lambda factor: factor[0] in block_tau)
    return MembershipResult(False, offending=ring.factors.factors[idx])


def translation_regular_by_division(ring: AmbientRing, f: Element) -> bool:
    """Independent check: clear the element and its translate, divide exactly.

    Used as a cross-check of the sector criterion and of the ideal route:
    a member and its translate are regular, and a value is regular exactly
    when its fully reduced form has no denominator (abelian) or only
    block-tau denominators that the chart absorbs (SU(2) blocks).

    The benchmark gate's independent route, in the library only as perfbench/workloads.py imports it.
    """
    expanded = expand(ring, f)
    values = (expanded, euler_translation(ring)(expanded))
    if ring.blocks == 0:
        return all(v.is_polynomial for v in values)
    return all(to_blowup_polynomial(ring, v) is not None for v in values)


# ---------------------------------------------------------------------------
# Matter generators and presentations
# ---------------------------------------------------------------------------


def _grid_name(rank: int, m: tuple[int, ...]) -> str:
    if rank == 1:
        (e,) = m
        if e > 0:
            return "x" if e == 1 else f"x{e}"
        return "y" if e == -1 else f"y{-e}"
    return "g_" + "_".join(str(c) if c >= 0 else f"m{-c}" for c in m)


# One generator, and in a presentation one tag variable, per nonzero grid
# point: window 1 up to rank 3, window 13 at rank 1.  A rank-2 presentation
# over the 8 tags of window 1 already takes up to a minute.
MAX_GRID = 26


def abelian_matter_generators(
    ring: AmbientRing, degree_window: int
) -> list[tuple[str, ExactPolynomial]]:
    """Minimal-clearing generators of the matter subring up to a z-degree bound.

    Returns mu, the Cartan variables, and for every nonzero exponent vector
    m with sup-norm at most the window the element z^m times the exactly
    required weight-form powers.  Every returned element passes membership;
    the list generates all members supported in the window together with
    the Cartan/mass polynomials.
    """
    if ring.blocks:
        raise ProblemError("minimal-clearing generators require an abelian group")
    if degree_window < 1:
        raise ProblemError("degree window must be at least 1")
    problem = ring.problem
    grid_size = (2 * degree_window + 1) ** problem.rank - 1
    if grid_size > MAX_GRID:
        raise ProblemError(
            f"degree window {degree_window} at rank {problem.rank} gives "
            f"{grid_size} grid generators, more than {MAX_GRID}"
        )
    gens: list[tuple[str, ExactPolynomial]] = [("mu", ring.mu())]
    for j, name in enumerate(ring.tau_names):
        gens.append((name, ring.tau(j)))
    grid = sorted(
        itertools.product(range(-degree_window, degree_window + 1), repeat=problem.rank),
        reverse=True,
    )
    z_positions = [ring.table.index(n) for n in ring.z_names]
    for m in grid:
        if all(e == 0 for e in m):
            continue
        _, required = _sector_factors(problem, ring, m)
        clearing = ring.factors.product(required.items()) or ring.table.one()
        shift = [0] * len(ring.table)
        for pos, e in zip(z_positions, m):
            shift[pos] = e
        gens.append((_grid_name(problem.rank, m), clearing.monomial_shifted(tuple(shift))))
    return gens


def _scalar_normalized(frac: FactoredFraction) -> FactoredFraction:
    if frac.is_zero:
        return frac
    _, lead = frac.numerator.leading()
    return frac * (Fraction(1) / lead)


def weyl_symmetrized_generators(
    ring: AmbientRing, generators: Sequence[tuple[str, Element]]
) -> list[tuple[str, FactoredFraction]]:
    """Close a generator list under Reynolds averaging of degree-2 products.

    Invariant generators are kept as they are; non-invariant ones contribute
    their average and the averages of their pairwise products.  A product
    with an invariant factor averages to that factor times an existing
    average, so only pairs of non-invariant generators add anything to the
    generated subalgebra.  Results are deduplicated up to scalar.
    """
    expanded = [(n, expand(ring, g)) for n, g in generators]
    averages = [reynolds(ring, g) for _, g in expanded]
    invariant = {n: a == g for (n, g), a in zip(expanded, averages)}
    out: list[tuple[str, FactoredFraction]] = []
    seen: list[FactoredFraction] = []

    def push(name: str, value: FactoredFraction):
        if value.is_zero or value.numerator.is_constant and value.is_polynomial:
            return
        marker = _scalar_normalized(value)
        if any(marker == s for s in seen):
            return
        seen.append(marker)
        out.append((name, value))

    for (name, _), average in zip(expanded, averages):
        push(name if invariant[name] else f"s_{name}", average)
    for i, (n1, g1) in enumerate(expanded):
        for n2, g2 in expanded[i:]:
            if invariant[n1] or invariant[n2]:
                continue
            push(f"s_{n1}_{n2}", reynolds(ring, g1 * g2))
    return out


def matter_presentation(
    ring: AmbientRing, generators: Sequence[tuple[str, Element]]
) -> RingPresentation:
    """Relations among matter generators, by elimination through the graph.

    Every supplied generator must pass membership; with SU(2) blocks the
    list is first closed under degree-2 Weyl symmetrization and rewritten
    in chart coordinates before the kernel is computed.
    """
    named = [(n, _as_fraction(ring, g)) for n, g in generators]
    for name, g in named:
        res = matter_membership(ring, g)
        if not res:
            from .printing import format_polynomial

            raise AlgebraError(
                f"generator {name} is not in the matter subring"
                + (f" (offending factor {format_polynomial(res.offending)})" if res.offending else "")
            )
    images, ambient = named, ()
    if ring.blocks:
        images = []
        for name, g in weyl_symmetrized_generators(ring, named):
            poly = to_blowup_polynomial(ring, g)
            if poly is None:
                raise AlgebraError(f"symmetrized generator {name} left the chart")
            images.append((name, ring.fraction(poly)))
        ambient = blowup_relations(ring)
    relations = ring_map_kernel(images, ambient_relations=ambient)
    return RingPresentation(
        relations.table,
        relations.generators,
        "matter-subring",
        ring=ring,
        generators=tuple(images),
    )


# ---------------------------------------------------------------------------
# The zero-mass fiber
# ---------------------------------------------------------------------------


def mu_zero_fiber(presentation: RingPresentation) -> RingPresentation:
    """Specialize a presentation to the fiber over mu = 0 and drop mu."""
    table = presentation.table
    if "mu" not in table.names:
        raise AlgebraError("mu is not among the presentation variables")
    pos = table.index("mu")
    names = tuple(n for i, n in enumerate(table.names) if i != pos)
    flags = tuple(f for i, f in enumerate(table.laurent) if i != pos)
    new_table = VariableTable(names, flags)
    relations = []
    for rel in presentation.relations:
        specialized = rel.assign_zero(pos)
        if not specialized.is_zero:
            relations.append(specialized.transfer(new_table))
    return RingPresentation(
        new_table,
        tuple(relations),
        presentation.kind + " at mu=0",
    )
