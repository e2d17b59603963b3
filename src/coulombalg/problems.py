"""Problem files: flat key-value descriptions of a gauge problem.

Format, one statement per line (``#`` starts a comment):

    torus_rank = 1
    su2_blocks = 0
    weight = 1
    weight = -1
    degree_window = 1
    generator x = z*(mu - tau)

``weight`` lines repeat, one integer vector of length rank each;
``generator`` lines optionally override the default generator list used by
presentation-level commands.  Sizes are capped before anything is built:
the rank ``torus_rank + su2_blocks`` by ``MAX_RANK``, the number of weight
lines by ``MAX_WEIGHTS`` and, per coordinate i, the Euler-section degree
``sum |nu_i|`` over the weights by ``MAX_WEIGHT_DEGREE``.  The window is capped
where it becomes a grid (``coulomb.MAX_GRID``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .errors import ProblemError
from .fracs import FactoredFraction
from .parsing import parse_expression
from .rootdata import AmbientRing, CoulombProblem

# Building the ambient ring takes time at least quadratic in the rank.
MAX_RANK = 8
# The ball model's diagonal operator multiplies one weight form per weight
# line, so its degree is the weight count: the same bound as an exponent in
# an expression (parsing.MAX_EXPONENT).
MAX_WEIGHTS = 64
# The Euler section sends z_i to weight forms of total degree sum |nu_i|, and
# the grid generator z^m carries |m_i| times that; at this cap and the grid
# cap, ``generators`` finishes in about a second.
MAX_WEIGHT_DEGREE = 16


@dataclass(frozen=True)
class ProblemFile:
    torus_rank: int
    su2_blocks: int
    weights: tuple[tuple[int, ...], ...]
    degree_window: int = 1
    generator_overrides: tuple[tuple[str, str], ...] = ()

    def problem(self) -> CoulombProblem:
        return CoulombProblem.make(self.torus_rank, self.su2_blocks, self.weights)


def parse_problem_text(text: str) -> ProblemFile:
    torus_rank: Optional[int] = None
    su2_blocks = 0
    weights: list[tuple[int, ...]] = []
    degree_window = 1
    overrides: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProblemError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        try:
            if key == "torus_rank":
                torus_rank = int(value)
            elif key == "su2_blocks":
                su2_blocks = int(value)
            elif key == "weight":
                weights.append(tuple(int(c) for c in value.split()))
            elif key == "degree_window":
                degree_window = int(value)
            elif key.split()[:1] == ["generator"]:
                parts = key.split()
                if len(parts) != 2:
                    raise ProblemError(
                        f"line {lineno}: generator lines read 'generator NAME = expr'"
                    )
                overrides.append((parts[1], value))
            else:
                raise ProblemError(f"line {lineno}: unknown key {key!r}")
        except ValueError:
            raise ProblemError(f"line {lineno}: bad integer in {raw!r}") from None
    if torus_rank is None:
        raise ProblemError("missing torus_rank")
    if torus_rank + su2_blocks > MAX_RANK:
        raise ProblemError(
            f"rank torus_rank + su2_blocks = {torus_rank + su2_blocks} exceeds {MAX_RANK}"
        )
    if len(weights) > MAX_WEIGHTS:
        raise ProblemError(f"{len(weights)} weight lines exceed {MAX_WEIGHTS}")
    if degree_window < 1:
        raise ProblemError("degree_window must be at least 1")
    pf = ProblemFile(
        torus_rank, su2_blocks, tuple(weights), degree_window, tuple(overrides)
    )
    pf.problem()  # validate rank/weight shapes eagerly
    for i in range(torus_rank + su2_blocks):
        degree = sum(abs(w[i]) for w in weights)
        if degree > MAX_WEIGHT_DEGREE:
            raise ProblemError(
                f"Euler-section degree sum |nu_{i + 1}| = {degree} exceeds {MAX_WEIGHT_DEGREE}"
            )
    return pf


def load_problem(path) -> ProblemFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ProblemError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_problem_text(text)


# ---------------------------------------------------------------------------
# Default generator lists
# ---------------------------------------------------------------------------


def _standard_block_weights(problem: CoulombProblem) -> bool:
    """Weight list = one +1/-1 pair on each block coordinate, nothing else."""
    datum = problem.datum
    if datum.su2_blocks == 0:
        return False
    expected: list[tuple[int, ...]] = []
    for k in range(datum.su2_blocks):
        plus = [0] * problem.rank
        plus[datum.block_coordinate(k)] = 1
        expected.append(tuple(plus))
        expected.append(tuple(-c for c in plus))
    return sorted(expected) == sorted(problem.weights)


def standard_block_generators(ring: AmbientRing) -> list[tuple[str, FactoredFraction]]:
    """x = mu*u - z, y = mu*v - 1/z, w = (x - y)/tau per block, plus mu, tau.

    Torus coordinates carry no weight in this situation, so their z and 1/z
    are included as generators too.  Elements are kept in chart coordinates
    (v = u/z as a Laurent monomial times u); equality with other
    representatives is decided by expansion.
    """
    problem = ring.problem
    gens: list[tuple[str, FactoredFraction]] = []
    for i in range(problem.datum.torus_rank):
        name = ring.z_names[i]
        gens.append((name, ring.fraction(ring.z(i))))
        gens.append((name + "_inv", ring.fraction(ring.z(i) ** -1)))
    for k in range(problem.datum.su2_blocks):
        pos = problem.datum.block_coordinate(k)
        suffix = "" if problem.datum.su2_blocks == 1 else str(k + 1)
        mu = ring.fraction(ring.mu())
        z = ring.fraction(ring.z(pos))
        u = ring.fraction(ring.u(k))
        v = u * z ** -1
        x = mu * u - z
        y = mu * v - z ** -1
        w = (x - y) / ring.fraction(ring.tau(pos))
        gens.append((f"x{suffix}", x))
        gens.append((f"y{suffix}", y))
        gens.append((f"w{suffix}", w))
    gens.append(("mu", ring.fraction(ring.mu())))
    for j, name in enumerate(ring.tau_names):
        gens.append((name, ring.fraction(ring.tau(j))))
    return gens


def default_generators(
    ring: AmbientRing, problem_file: Optional[ProblemFile] = None
) -> list[tuple[str, FactoredFraction]]:
    """Generator list for presentation-level commands.

    Overrides from the problem file win.  Otherwise: the minimal-clearing
    list for abelian problems, the standard chart trio per block when the
    weight list is the per-block standard pair, and an error asking for
    explicit generators in every other case.
    """
    if problem_file is not None and problem_file.generator_overrides:
        return [
            (name, parse_expression(expr, ring.factors))
            for name, expr in problem_file.generator_overrides
        ]
    problem = ring.problem
    if problem.datum.su2_blocks == 0:
        degree = problem_file.degree_window if problem_file is not None else 1
        from .coulomb import abelian_matter_generators

        return [(n, ring.fraction(p)) for n, p in abelian_matter_generators(ring, degree)]
    if _standard_block_weights(problem):
        return standard_block_generators(ring)
    raise ProblemError(
        "no default generators for this weight list; add 'generator NAME = expr' lines"
    )


def presentation_order(
    ring: AmbientRing, generators: Sequence[tuple[str, FactoredFraction]]
) -> list[tuple[str, FactoredFraction]]:
    """Non-variable generators first, ambient variables last, order kept."""
    variables: list[tuple[str, FactoredFraction]] = []
    composite: list[tuple[str, FactoredFraction]] = []
    for name, g in generators:
        if g.is_polynomial and len(g.numerator.terms) == 1 and name in ring.table.names:
            variables.append((name, g))
        else:
            composite.append((name, g))
    return composite + variables
