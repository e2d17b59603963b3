"""Group and representation data for cotangent-type gauge problems.

Supported groups are products of a torus and SU(2) factors.  The maximal
torus is trivialized as (S^1)^r with r = torus_rank + su2_blocks; torus
coordinates come first and each SU(2) block owns the following coordinate.
The representation is recorded by its list of integer weight vectors
(multiplicity by repetition).

A problem induces a localized coordinate ring: invertible coordinates z_i
on the dual torus, Cartan coordinates tau_j, the mass/rotation parameter
mu, one blowup generator u_k per SU(2) block, and the multiplicative set
generated by the tau variables, the mass-shifted weight forms
mu + <nu, tau>, and the z variables.

Convention: the SU(2) root is scaled so the blowup divides by tau itself,
u_k = (z_k - 1) / tau_k.  This choice is reported as ``ROOT_CONVENTION``
metadata next to any printed presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ProblemError
from .fracs import FactoredFraction, FactorSet
from .morphisms import RingMorphism
from .poly import ExactPolynomial, VariableTable

ROOT_CONVENTION = "alpha = tau_k per su2 block; u_k = (z_k - 1)/tau_k"

Weight = tuple[int, ...]


@dataclass(frozen=True)
class RootDatum:
    """A torus times SU(2) factors, described by the two multiplicities."""

    torus_rank: int
    su2_blocks: int

    def __post_init__(self):
        if self.torus_rank < 0 or self.su2_blocks < 0:
            raise ProblemError("torus rank and block count must be nonnegative")
        if self.rank == 0:
            raise ProblemError("the trivial group is not supported")

    @property
    def rank(self) -> int:
        return self.torus_rank + self.su2_blocks

    def block_coordinate(self, block: int) -> int:
        """Index of the torus coordinate owned by SU(2) block ``block``."""
        if not 0 <= block < self.su2_blocks:
            raise IndexError(f"no SU(2) block {block}")
        return self.torus_rank + block


@dataclass(frozen=True)
class CoulombProblem:
    """Root datum together with the weight list of the representation."""

    datum: RootDatum
    weights: tuple[Weight, ...]

    def __post_init__(self):
        for w in self.weights:
            if len(w) != self.datum.rank:
                raise ProblemError(
                    f"weight {w} has length {len(w)}, expected rank {self.datum.rank}"
                )
            if not all(isinstance(c, int) for c in w):
                raise ProblemError(f"weight {w} has non-integer entries")

    @staticmethod
    def make(torus_rank: int, su2_blocks: int, weights: Iterable[Sequence[int]]) -> "CoulombProblem":
        return CoulombProblem(
            RootDatum(torus_rank, su2_blocks),
            tuple(tuple(int(c) for c in w) for w in weights),
        )

    @property
    def rank(self) -> int:
        return self.datum.rank

    def distinct_weights(self) -> list[Weight]:
        seen: list[Weight] = []
        for w in self.weights:
            if w not in seen:
                seen.append(w)
        return seen


def weight_form(
    table: VariableTable, cartan_names: Sequence[str], weight: Weight
) -> ExactPolynomial:
    """Mass-shifted weight pairing mu + <weight, cartan>."""
    coeffs = {"mu": 1}
    for j, c in enumerate(weight):
        if c:
            coeffs[cartan_names[j]] = c
    return table.linear_form(coeffs)


def weight_form_table(
    problem: CoulombProblem, cartan_names: Sequence[str], more: Sequence[tuple[str, bool]] = ()
) -> tuple[VariableTable, FactorSet]:
    """Table and factors of a ring localized at the weight forms of a problem.

    The table lists mu, the Cartan variables, then the ``(name, invertible)``
    entries of ``more``.  The factors are the Cartan variables, the form of
    each distinct weight in first-occurrence order, then the invertible
    variables.  Every form contains mu and no Cartan variable does, and
    distinct weights give distinct forms, so no factor repeats.
    """
    table = VariableTable.make([("mu", False)] + [(n, False) for n in cartan_names] + list(more))
    factors = [table.var(n) for n in cartan_names]
    factors += [weight_form(table, cartan_names, w) for w in problem.distinct_weights()]
    factors += [table.var(n) for n, invertible in more if invertible]
    return table, FactorSet(table, tuple(factors))


class WeightFormRing:
    """Lookups shared by the rings ``weight_form_table`` builds.

    ``cartan_names`` names the variables the weights pair with.
    """

    problem: CoulombProblem
    table: VariableTable
    factors: FactorSet
    cartan_names: tuple[str, ...]

    def mu(self) -> ExactPolynomial:
        return self.table.var("mu")

    def psi(self, weight: Weight) -> ExactPolynomial:
        """Mass-shifted weight pairing mu + <weight, cartan>."""
        return weight_form(self.table, self.cartan_names, weight)

    def psi_factor_index(self, weight: Weight) -> int:
        """Index of psi(weight), laid out as ``weight_form_table`` declares."""
        try:
            return len(self.cartan_names) + self.problem.distinct_weights().index(tuple(weight))
        except ValueError:
            raise KeyError(f"weight {weight} has no declared factor") from None

    def fraction(self, p: ExactPolynomial) -> FactoredFraction:
        return self.factors.from_polynomial(p)


@dataclass(frozen=True)
class AmbientRing(WeightFormRing):
    """Variable table and multiplicative set a problem induces.

    Table significance order: mu, tau variables, blowup u variables, then
    the invertible z variables.  Factors are listed tau first, then the
    distinct weight forms in first-occurrence order, then the z variables.
    """

    problem: CoulombProblem
    table: VariableTable
    factors: FactorSet
    z_names: tuple[str, ...]
    tau_names: tuple[str, ...]
    u_names: tuple[str, ...]

    # -- lookup helpers ---------------------------------------------------

    @property
    def rank(self) -> int:
        return self.problem.rank

    @property
    def blocks(self) -> int:
        return self.problem.datum.su2_blocks

    @property
    def cartan_names(self) -> tuple[str, ...]:
        return self.tau_names

    def z(self, i: int) -> ExactPolynomial:
        return self.table.var(self.z_names[i])

    def tau(self, j: int) -> ExactPolynomial:
        return self.table.var(self.tau_names[j])

    def u(self, k: int) -> ExactPolynomial:
        return self.table.var(self.u_names[k])

    def tau_factor_index(self, j: int) -> int:
        return self.factors.index_of(self.tau(j))

    def block_tau_indices(self) -> set[int]:
        """Factor indices of the Cartan variables owned by SU(2) blocks."""
        datum = self.problem.datum
        return {self.tau_factor_index(datum.block_coordinate(k)) for k in range(self.blocks)}


def coordinate_names(prefix: str, count: int) -> list[str]:
    """z / z1..zr style coordinate naming: bare prefix when there is one."""
    if count == 1:
        return [prefix]
    return [f"{prefix}{i + 1}" for i in range(count)]


def ambient_table(problem: CoulombProblem) -> AmbientRing:
    """Build the ambient localized ring of a problem."""
    r = problem.rank
    b = problem.datum.su2_blocks
    z_names = tuple(coordinate_names("z", r))
    tau_names = tuple(coordinate_names("tau", r))
    u_names = tuple(coordinate_names("u", b))
    more = [(n, False) for n in u_names] + [(n, True) for n in z_names]
    table, factors = weight_form_table(problem, tau_names, more)
    return AmbientRing(
        problem=problem,
        table=table,
        factors=factors,
        z_names=z_names,
        tau_names=tau_names,
        u_names=u_names,
    )


def weyl_generator_morphisms(ring: AmbientRing) -> list[RingMorphism]:
    """One involution per SU(2) block: z -> 1/z, tau -> -tau, u -> u/z."""
    problem = ring.problem
    out: list[RingMorphism] = []
    for k in range(problem.datum.su2_blocks):
        pos = problem.datum.block_coordinate(k)
        zname = ring.z_names[pos]
        images = {}
        z_inv = ring.table.var(zname) ** -1
        images[zname] = ring.fraction(z_inv)
        images[ring.tau_names[pos]] = ring.fraction(-ring.tau(pos))
        images[ring.u_names[k]] = ring.fraction(ring.u(k) * z_inv)
        out.append(RingMorphism(ring.table, ring.factors, images))
    return out
