"""Seeded inputs, request handlers and correctness checks of the three workloads.

Every request enters the library through the functions the command-line
interface uses: ``problems.parse_problem_text`` -> ``rootdata.ambient_table``
-> ``parsing.parse_expression`` -> compute -> ``printing.format_element``.
Library functions are looked up on their modules at call time, so the
tracer's wrappers (see ``tracing.py``) are picked up when tracing is on.

Input families and why each bound was chosen are listed in README.md.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from coulombalg import coulomb, groebner, parsing, printing, problems, rootdata, shmodel

# The structure of a query round (problem shapes, exponent vectors,
# operation mix) is drawn from this constant seed; the run seed draws the
# values (coefficients, coordinate symmetries, weight order).  Request costs
# are heavy-tailed, so drawing the structure per run would let a handful of
# tail requests decide ops_per_s; with a shared structure every round
# carries the same tail and only the values change.
SHAPE_SEED = 2305_04387


# ---------------------------------------------------------------------------
# Text forms
# ---------------------------------------------------------------------------


def problem_text(torus_rank: int, su2_blocks: int, weights, degree_window: int = 1) -> str:
    lines = [f"torus_rank = {torus_rank}", f"su2_blocks = {su2_blocks}"]
    lines += ["weight = " + " ".join(str(c) for c in w) for w in weights]
    lines.append(f"degree_window = {degree_window}")
    return "\n".join(lines) + "\n"


def term_text(coeff: Fraction, factors: list[tuple[str, int]]) -> str:
    parts = [str(abs(coeff.numerator))]
    if coeff.denominator != 1:
        parts[0] += f"/{coeff.denominator}"
    for name, exp in factors:
        if exp == 1:
            parts.append(name)
        elif exp > 0:
            parts.append(f"{name}^{exp}")
        elif exp < 0:
            parts.append(f"{name}^({exp})")
    return "*".join(parts)


def sum_text(terms: list[tuple[Fraction, str]]) -> str:
    out = ""
    for coeff, body in terms:
        sign = "-" if coeff < 0 else "+"
        out += (f"{sign} " if out else ("-" if sign == "-" else "")) + body + " "
    return out.strip()


def rand_coeff(rng: random.Random, height: int) -> Fraction:
    """Nonzero rational with numerator and denominator at most ``height``."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, height), rng.randint(1, height))


# ---------------------------------------------------------------------------
# Requests and their outcomes
# ---------------------------------------------------------------------------


@dataclass
class Request:
    """One unit of client work: problem text, operation, expression text."""

    rid: str
    # "abelian-query" (membership and section map), "membership",
    # "weyl-invariants", "map" or "presentation"
    op: str
    problem: str
    expr: str = ""
    member_by_construction: bool = False


@dataclass
class Outcome:
    text: str  # canonical output, as a client would receive it
    ring: object = None
    element: object = None
    value: object = None  # membership result, average, image or presentation
    image: object = None  # section image (abelian-query only)


def _ring_of(req: Request):
    pf = problems.parse_problem_text(req.problem)
    return pf, rootdata.ambient_table(pf.problem())


def _membership_text(result) -> str:
    if result.member:
        return "Member\ntranslate: " + printing.format_element(result.translated)
    text = "NotMember"
    if result.offending is not None:
        text += "\noffending factor: " + printing.format_element(result.offending)
    return text


def serve(req: Request) -> Outcome:
    """Run one request end to end and return its canonical text output."""
    pf, ring = _ring_of(req)
    if req.op == "presentation":
        gens = problems.presentation_order(ring, problems.default_generators(ring, pf))
        pres = coulomb.matter_presentation(ring, gens)
        fiber = coulomb.mu_zero_fiber(pres)
        lines = ["relation: " + printing.format_element(r) for r in pres.relations]
        lines += ["fiber: " + printing.format_element(r) for r in fiber.relations]
        return Outcome("\n".join(lines), ring, None, pres)
    f = parsing.parse_expression(req.expr, ring.factors)
    if req.op == "abelian-query":
        result = coulomb.matter_membership(ring, f)
        image = shmodel.section_homomorphism(ring, f)
        text = _membership_text(result) + "\nimage: " + printing.format_element(image)
        return Outcome(text, ring, f, result, image)
    if req.op == "membership":
        result = coulomb.matter_membership(ring, f)
        return Outcome(_membership_text(result), ring, f, result)
    if req.op == "weyl-invariants":
        value = coulomb.reynolds(ring, f)
        return Outcome("average: " + printing.format_element(value), ring, f, value)
    if req.op == "map":
        image = shmodel.section_homomorphism(ring, f)
        return Outcome("image: " + printing.format_element(image), ring, f, image)
    raise ValueError(f"unknown operation {req.op!r}")


def check(req: Request, out: Outcome) -> Optional[str]:
    """Independent verification of one outcome; returns a reason on failure."""
    ring, f = out.ring, out.element
    if req.op == "presentation":
        pres = out.value
        for rel in pres.relations:
            value = groebner.evaluate_tags(rel, pres.generators)
            if not coulomb.expand(ring, value).is_zero:
                return "relation does not vanish on the generators"
        return None
    if req.op in ("abelian-query", "membership"):
        result = out.value
        if req.member_by_construction and not result.member:
            return "constructed member reported as non-member"
        if coulomb.translation_regular_by_division(ring, f) != result.member:
            return "membership disagrees with the division route"
        if result.member and not result.translated.is_polynomial:
            return "member has a non-polynomial translate"
        if req.op == "abelian-query" and result.member and not out.image.is_polynomial:
            return "member has a non-polynomial section image"
        return None
    if req.op == "weyl-invariants":
        value = out.value
        if coulomb.reynolds(ring, value) != value:
            return "averaging is not idempotent"
        if any(w(value) != value for w in coulomb.weyl_group(ring)):
            return "average is not Weyl-invariant"
        return None
    if req.op == "map":
        member = req.member_by_construction or coulomb.translation_regular_by_division(ring, f)
        if member and not out.value.is_polynomial:
            return "member has a non-polynomial section image"
        return None
    raise ValueError(f"unknown operation {req.op!r}")


# ---------------------------------------------------------------------------
# abelian-query: a fresh abelian problem per request
# ---------------------------------------------------------------------------


def _spanning(rank: int, weights) -> bool:
    if rank == 1:
        return any(w[0] for w in weights)
    return any(a[0] * b[1] - a[1] * b[0] for a, b in itertools.combinations(weights, 2))


def _abelian_shape(rng: random.Random):
    """Rank 1-2; 1-4 spanning weights in [-2,2]; 1-4 terms, z-degree <= 3,
    Cartan/mass degree <= 3 per variable."""
    rank = rng.randint(1, 2)
    while True:
        weights = [
            tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(1, 4))
        ]
        if _spanning(rank, weights):
            break
    terms = [
        (
            tuple(rng.randint(-3, 3) for _ in range(rank)),
            tuple(rng.randint(0, 3) for _ in range(rank + 1)),
        )
        for _ in range(rng.randint(1, 4))
    ]
    return rank, weights, terms


def _abelian_instance(rid: str, shape, rng: random.Random) -> Request:
    """Instantiate a shape: signed coordinate permutation, weight order and
    coefficients (height 10) come from the run seed.  A signed permutation
    maps the family onto itself and leaves the computation's size unchanged."""
    rank, weights, terms = shape
    perm = list(range(rank))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(rank)]

    def move(v):
        out = [0] * rank
        for j, c in enumerate(v):
            out[perm[j]] = signs[j] * c
        return tuple(out)

    weights = [move(w) for w in weights]
    rng.shuffle(weights)
    z_names = rootdata.coordinate_names("z", rank)
    tau_names = rootdata.coordinate_names("tau", rank)
    body = []
    for m, a in terms:
        m = move(m)
        taus = [0] * rank
        for j, e in enumerate(a[:rank]):
            taus[perm[j]] = e
        factors = list(zip(z_names, m)) + list(zip(tau_names, taus)) + [("mu", a[rank])]
        coeff = rand_coeff(rng, 10)
        body.append((coeff, term_text(coeff, factors)))
    return Request(rid, "abelian-query", problem_text(rank, 0, weights), sum_text(body))


def abelian_rounds(seed: int, size: int) -> Iterator[list[Request]]:
    """Rounds of ``size`` requests: every round instantiates the same shapes
    with fresh values, so rounds differ in values, not in cost profile."""
    shapes = random.Random(SHAPE_SEED)
    round_shapes = [_abelian_shape(shapes) for _ in range(size)]
    values = random.Random(seed)
    for r in itertools.count():
        yield [
            _abelian_instance(f"{r}.{i}:abelian-query", shape, values)
            for i, shape in enumerate(round_shapes)
        ]


def abelian_warmup() -> list[Request]:
    text = problem_text(1, 0, [(1,), (-1,)])
    return [Request("w0:abelian-query", "abelian-query", text, "z*mu - z*tau + 1/2*z^(-1)*mu")]


# ---------------------------------------------------------------------------
# su2-chart: three fixed problems, membership / averaging / section map
# ---------------------------------------------------------------------------

SU2_PROBLEMS = (
    problem_text(0, 1, [(1,), (-1,)]),
    problem_text(1, 1, [(0, 1), (0, -1)]),
    problem_text(0, 2, [(1, 0), (-1, 0), (0, 1), (0, -1)]),
)
SU2_OPS = ("membership", "weyl-invariants", "map")


@dataclass(frozen=True)
class ChartProblem:
    text: str
    variables: tuple[tuple[str, bool], ...]  # (name, invertible) in table order
    generators: tuple[tuple[str, str], ...]  # standard block generators, printed


def su2_catalog() -> list[ChartProblem]:
    """Variables and printed standard block generators of each su2-chart
    problem; constructed members are products of these texts."""
    out = []
    for text in SU2_PROBLEMS:
        _, ring = _ring_of(Request("", "", text))
        gens = problems.standard_block_generators(ring)
        out.append(ChartProblem(
            text,
            tuple(zip(ring.table.names, ring.table.laurent)),
            tuple((name, printing.format_element(g)) for name, g in gens),
        ))
    return out


def _su2_shapes(rng: random.Random, catalog: list[ChartProblem]) -> Iterator[tuple]:
    """Rounds of all 18 (problem, operation, element kind) cells in shuffled
    order.  Chart elements: 1-4 terms, z-degree <= 2, other degrees <= 2.
    Constructed members: 1-3 products of 1-3 standard generators."""
    cells = list(itertools.product(range(len(catalog)), SU2_OPS, (False, True)))
    while True:
        rng.shuffle(cells)
        for p, op, member in cells:
            if member:
                # Generator picks as uniform fractions of the generator list.
                body = [
                    [rng.random() for _ in range(rng.randint(1, 3))]
                    for _ in range(rng.randint(1, 3))
                ]
            else:
                body = [
                    [rng.randint(-2, 2) if inv else rng.randint(0, 2)
                     for _, inv in catalog[p].variables]
                    for _ in range(rng.randint(1, 4))
                ]
            yield p, op, member, body


def su2_rounds(seed: int, catalog: list[ChartProblem], size: int) -> Iterator[list[Request]]:
    """Rounds of ``size`` requests over the same shapes with fresh coefficients."""
    round_shapes = list(itertools.islice(_su2_shapes(random.Random(SHAPE_SEED), catalog), size))
    values = random.Random(seed)
    for r in itertools.count():
        yield [_su2_instance(f"{r}.{i}", shape, catalog, values)
               for i, shape in enumerate(round_shapes)]


def _su2_instance(rid: str, shape, catalog: list[ChartProblem], values) -> Request:
    p, op, member, body = shape
    chart = catalog[p]
    terms = []
    if member:
        for picks in body:
            coeff = rand_coeff(values, 6)
            text = term_text(coeff, []) + "".join(
                f"*({chart.generators[int(u * len(chart.generators))][1]})" for u in picks
            )
            terms.append((coeff, text))
    else:
        names = [n for n, _ in chart.variables]
        for exps in body:
            coeff = rand_coeff(values, 8)
            terms.append((coeff, term_text(coeff, list(zip(names, exps)))))
    return Request(f"{rid}:{op}", op, chart.text, sum_text(terms), member)


def su2_warmup(catalog: list[ChartProblem]) -> list[Request]:
    """One small request per problem and operation, filling the per-ring caches."""
    out = []
    for p, chart in enumerate(catalog):
        x = next(g for name, g in chart.generators if name.startswith("x"))
        out += [Request(f"w{p}:{op}", op, chart.text, x, True) for op in SU2_OPS]
    return out


# ---------------------------------------------------------------------------
# presentation: batches of presentation jobs
# ---------------------------------------------------------------------------

# Rank-2 weight lists with entries in {-1,0,1}, window 1, whose job took
# 2.2-3.1 s on the reference machine (2 cores, CPython 3.11).  Of 36 lists
# drawn from that family, 16 finished within 8 s (2.2-6.9 s) and the rest
# took longer, up to 128 s; such a job would not fit in one run.
RANK2_JOBS = (
    ((-1, 0), (0, 1)),
    ((-1, 0), (-1, 1)),
    ((0, 1), (1, 0), (1, 0)),
    ((0, 1), (0, 1), (1, 0)),
    ((0, 1), (0, 1), (1, 0), (1, 0)),
    ((-1, 0), (0, 0), (0, 1), (1, 0)),
)


def presentation_batch(seed: int, index: int, tiny: bool = False) -> list[Request]:
    """Rank-1 jobs (1-4 weights in [-2,2]) three per window 2, 3, 4, then one
    vetted rank-2 job, then SU(2) with the standard weights.  Cheap jobs come
    first so the trace-overhead probe can use them."""
    rng = random.Random(f"{seed}:{index}")
    jobs = []
    windows = (2,) if tiny else (2, 2, 2, 3, 3, 3, 4, 4, 4)
    for window in windows:
        while True:
            weights = [(rng.randint(-2, 2),) for _ in range(rng.randint(1, 4))]
            if _spanning(1, weights):
                break
        jobs.append(problem_text(1, 0, weights, window))
    if not tiny:
        jobs.append(problem_text(2, 0, rng.choice(RANK2_JOBS), 1))
        jobs.append(problem_text(0, 1, [(1,), (-1,)]))
    return [Request(f"{index}.{j}:presentation", "presentation", t) for j, t in enumerate(jobs)]


def presentation_warmup() -> list[Request]:
    return [Request("w0:presentation", "presentation", problem_text(1, 0, [(1,), (-1,)], 1))]
