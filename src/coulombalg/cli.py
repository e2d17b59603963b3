"""Command-line driver.

Subcommands: pure-branch, blowup, weyl-invariants, euler-section, translate,
membership, generators, presentation, mu-zero, seidel, sh, map,
verify-diagram.  Common flags: --problem FILE, --expr STRING, --degree D
(problems without SU(2) blocks), --format text|json, --side tau|eta.

Exit codes: 0 success, 1 mathematical failure (non-membership, diagram
failure), 2 input error.  Output is deterministic: identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import coulomb, shmodel
from .errors import AlgebraError, ExpressionError, MorphismError, ProblemError
from .parsing import parse_expression
from .printing import (
    element_json,
    factors_json,
    format_element,
    format_polynomial,
    table_json,
)
from .problems import ProblemFile, default_generators, load_problem, presentation_order
from .rootdata import ROOT_CONVENTION, ambient_table


class _Context:
    def __init__(self, args):
        self.args = args
        self.problem_file: ProblemFile = load_problem(args.problem)
        self.problem = self.problem_file.problem()
        self.ring = ambient_table(self.problem)
        self.lines: list[str] = []
        self.payload: dict = {
            "command": args.command,
            "problem": {
                "torus_rank": self.problem.datum.torus_rank,
                "su2_blocks": self.problem.datum.su2_blocks,
                "weights": [list(w) for w in self.problem.weights],
            },
            "root_convention": ROOT_CONVENTION,
        }

    def expr(self):
        if not self.args.expr:
            raise ProblemError(f"{self.args.command} requires --expr")
        return parse_expression(self.args.expr, self.ring.factors)

    def say(self, line: str):
        self.lines.append(line)

    def emit(self, code: int) -> int:
        if self.args.format == "json":
            self.payload["exit_code"] = code
            sys.stdout.write(json.dumps(self.payload, indent=2) + "\n")
        else:
            sys.stdout.write("\n".join(self.lines) + "\n" if self.lines else "")
        return code


def _say_relations(ctx: _Context, relations) -> list[str]:
    """Print one line per relation, or that there are none; return their texts."""
    texts = [format_polynomial(r) for r in relations]
    for text in texts:
        ctx.say("relation: " + text)
    if not texts:
        ctx.say("relations: none")
    return texts


def _describe_presentation(ctx: _Context, pres) -> None:
    ctx.say(f"kind: {pres.kind}")
    ctx.say("variables: " + ", ".join(pres.table.names))
    invertible = [n for n, f in zip(pres.table.names, pres.table.laurent) if f]
    if invertible:
        ctx.say("invertible: " + ", ".join(invertible))
    if pres.ring is not None:
        ctx.say("factors: " + ", ".join(factors_json(pres.ring.factors)))
    relations = _say_relations(ctx, pres.relations)
    for name, value in pres.derived:
        ctx.say(f"derived {name} = {format_element(value)}")
    if pres.weyl:
        for w in pres.weyl:
            moved = [
                f"{n} -> {format_element(w.images[n])}"
                for n in pres.table.names
                if w.images[n] != w.target.var(n)
            ]
            ctx.say("weyl generator: " + "; ".join(moved))
    ctx.say(f"convention: {ROOT_CONVENTION}")
    ctx.payload["presentation"] = {
        "kind": pres.kind,
        "table": table_json(pres.table),
        "factors": factors_json(pres.ring.factors) if pres.ring is not None else [],
        "relations": relations,
        "derived": {n: element_json(v) for n, v in pres.derived},
    }


def _cmd_pure_branch(ctx: _Context) -> int:
    _describe_presentation(ctx, coulomb.pure_branch(ctx.problem))
    return 0


def _cmd_blowup(ctx: _Context) -> int:
    _describe_presentation(ctx, coulomb.blowup_presentation(ctx.problem))
    return 0


def _cmd_weyl_invariants(ctx: _Context) -> int:
    value = coulomb.reynolds(ctx.ring, ctx.expr())
    ctx.say("average: " + format_element(value))
    ctx.payload["average"] = element_json(value)
    return 0


def _cmd_euler_section(ctx: _Context) -> int:
    side = ctx.args.side
    target = ctx.ring if side == "tau" else shmodel.equivariant_ring(ctx.problem)
    section = coulomb.euler_section(ctx.problem, target)
    ctx.payload["entries"] = {}
    for name, entry in section.entries:
        ctx.say(f"{name} -> {format_element(entry)}")
        ctx.payload["entries"][name] = element_json(entry)
    return 0


def _cmd_translate(ctx: _Context) -> int:
    morphism = coulomb.euler_translation(ctx.ring)
    if ctx.args.expr:
        value = morphism(coulomb.expand(ctx.ring, ctx.expr()))
        ctx.say("translate: " + format_element(value))
        ctx.payload["translate"] = element_json(value)
        return 0
    ctx.payload["images"] = {}
    for name in ctx.ring.table.names:
        image = morphism.images[name]
        if image != ctx.ring.factors.var(name):
            ctx.say(f"{name} -> {format_element(image)}")
            ctx.payload["images"][name] = element_json(image)
    return 0


def _cmd_membership(ctx: _Context) -> int:
    result = coulomb.matter_membership(ctx.ring, ctx.expr())
    ctx.payload["member"] = result.member
    if result.member:
        ctx.say("Member")
        ctx.say("translate: " + format_element(result.translated))
        ctx.payload["translate"] = element_json(result.translated)
        return 0
    ctx.say("NotMember")
    if result.offending is not None:
        ctx.say("offending factor: " + format_polynomial(result.offending))
        ctx.payload["offending"] = format_polynomial(result.offending)
    return 1


def _generators(ctx: _Context):
    """The file's generators; on abelian problems --degree picks the window."""
    if ctx.args.degree is None:
        return default_generators(ctx.ring, ctx.problem_file)
    if ctx.problem.datum.su2_blocks:
        raise ProblemError("--degree applies only to problems without SU(2) blocks")
    if ctx.problem_file.generator_overrides:
        raise ProblemError("--degree conflicts with the file's generator lines")
    return [
        (n, ctx.ring.fraction(p))
        for n, p in coulomb.abelian_matter_generators(ctx.ring, ctx.args.degree)
    ]


def _cmd_generators(ctx: _Context) -> int:
    ctx.payload["generators"] = {}
    for name, g in _generators(ctx):
        ctx.say(f"{name} = {format_element(g)}")
        ctx.payload["generators"][name] = element_json(g)
    return 0


def _presentation(ctx: _Context):
    return coulomb.matter_presentation(ctx.ring, presentation_order(ctx.ring, _generators(ctx)))


def _cmd_presentation(ctx: _Context) -> int:
    pres = _presentation(ctx)
    ctx.say("generators: " + ", ".join(n for n, _ in pres.generators))
    relations = _say_relations(ctx, pres.relations)
    ctx.payload["generators"] = {n: element_json(g) for n, g in pres.generators}
    ctx.payload["relations"] = relations
    return 0


def _cmd_mu_zero(ctx: _Context) -> int:
    fiber = coulomb.mu_zero_fiber(_presentation(ctx))
    ctx.say("variables: " + ", ".join(fiber.table.names))
    relations = _say_relations(ctx, fiber.relations)
    ctx.payload["table"] = table_json(fiber.table)
    ctx.payload["relations"] = relations
    return 0


def _cmd_seidel(ctx: _Context) -> int:
    ring = shmodel.equivariant_ring(ctx.problem)
    ctx.payload["operators"] = []
    for w in ctx.problem.weights:
        op = shmodel.seidel_operator(ring, w)
        ctx.say(f"weight {list(w)}: {format_polynomial(op)}")
        ctx.payload["operators"].append(
            {"weight": list(w), "operator": format_polynomial(op)}
        )
    diag = shmodel.diagonal_seidel(ring)
    ctx.say("diagonal: " + format_polynomial(diag))
    ctx.payload["diagonal"] = format_polynomial(diag)
    return 0


def _cmd_sh(ctx: _Context) -> int:
    localized = shmodel.symplectic_cohomology(ctx.problem)
    base = localized.base
    ctx.say("variables: " + ", ".join(base.table.names))
    inverted = [format_polynomial(f) for f in localized.inverted_factors()]
    ctx.say("inverted: " + (", ".join(inverted) if inverted else "none"))
    if base.weyl_flagged:
        ctx.say("weyl: eta sign flip per su2 block")
    ctx.payload["table"] = table_json(base.table)
    ctx.payload["inverted"] = inverted
    ctx.payload["weyl_flagged"] = base.weyl_flagged
    return 0


def _cmd_map(ctx: _Context) -> int:
    image = shmodel.section_homomorphism(ctx.ring, ctx.expr())
    in_image = shmodel.acceleration_membership(image)
    ctx.say("image: " + format_element(image))
    ctx.say("in cohomology image: " + ("yes" if in_image else "no"))
    ctx.payload["image"] = element_json(image)
    ctx.payload["in_cohomology_image"] = in_image
    return 0


def _cmd_verify_diagram(ctx: _Context) -> int:
    gens = default_generators(ctx.ring, ctx.problem_file)
    report = shmodel.verify_diagram(ctx.ring, gens)
    ctx.payload["entries"] = []
    for entry in report.entries:
        status = "ok" if entry.polynomial else "denominator"
        ctx.say(f"{entry.name}: {format_element(entry.image)} [{status}]")
        ctx.payload["entries"].append(
            {
                "name": entry.name,
                "image": element_json(entry.image),
                "polynomial": entry.polynomial,
            }
        )
    ctx.say("multiplicative: " + ("yes" if report.multiplicative else "no"))
    ctx.say("diagram: " + ("pass" if report.passed else "fail"))
    ctx.payload["multiplicative"] = report.multiplicative
    ctx.payload["passed"] = report.passed
    return 0 if report.passed else 1


_COMMANDS = {
    "pure-branch": _cmd_pure_branch,
    "blowup": _cmd_blowup,
    "weyl-invariants": _cmd_weyl_invariants,
    "euler-section": _cmd_euler_section,
    "translate": _cmd_translate,
    "membership": _cmd_membership,
    "generators": _cmd_generators,
    "presentation": _cmd_presentation,
    "mu-zero": _cmd_mu_zero,
    "seidel": _cmd_seidel,
    "sh": _cmd_sh,
    "map": _cmd_map,
    "verify-diagram": _cmd_verify_diagram,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coulombalg",
        description="Exact Coulomb branch algebra computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--problem", required=True, help="problem description file")
        p.add_argument("--expr", default=None, help="element expression")
        p.add_argument("--degree", type=int, default=None, help="z-degree window (no SU(2) blocks)")
        p.add_argument("--side", choices=("tau", "eta"), default="tau")
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        ctx = _Context(args)
    except (ProblemError, ExpressionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        code = _COMMANDS[args.command](ctx)
    except (ProblemError, ExpressionError, MorphismError, AlgebraError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return ctx.emit(code)


if __name__ == "__main__":
    raise SystemExit(main())
