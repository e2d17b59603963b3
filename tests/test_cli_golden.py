"""Golden CLI outputs: stdout bytes and exit codes of fixed invocations.

The snapshots in ``golden/cli.json`` were recorded from ``cli.main`` run in
process on the sample problem files.  Any change to the library that alters
a printed relation, fiber, verdict, offending factor or section image shows
up here as a byte difference.  To record them again after an intended
output change, run ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from coulombalg.cli import main

ROOT = Path(__file__).resolve().parents[1]
SNAPSHOTS = Path(__file__).resolve().parent / "golden" / "cli.json"

U1 = "demos/problems/u1_pair.prob"
SU2 = "demos/problems/su2_standard.prob"
EXPR_COMMANDS = ("weyl-invariants", "translate", "membership", "map")
PLAIN_COMMANDS = (
    "pure-branch", "blowup", "euler-section", "translate", "generators",
    "seidel", "sh", "verify-diagram",
)
EXPRESSIONS = {U1: ("z*(mu-tau)", "z", "1/tau"), SU2: ("z*(mu-tau)", "z", "mu*u - z", "1/tau")}


def invocations() -> list[list[str]]:
    out = []
    for fmt in ("text", "json"):
        for problem in (U1, SU2):
            common = ["--problem", problem, "--format", fmt]
            out += [[cmd, *common] for cmd in PLAIN_COMMANDS]
            out.append(["euler-section", *common, "--side", "eta"])
            for cmd in EXPR_COMMANDS:
                out += [[cmd, *common, "--expr", e] for e in EXPRESSIONS[problem]]
        # The SU(2) presentation takes about 25 s; the abelian one is instant.
        common = ["--problem", U1, "--format", fmt]
        out += [["presentation", *common], ["mu-zero", *common]]
        out += [["generators", *common, "--degree", "2"]]
    return out


def run(argv: list[str]) -> tuple[int, str]:
    resolved = [str(ROOT / a) if a.startswith("demos/") else a for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(resolved)
    return code, stdout.getvalue()


def test_cli_output_matches_snapshots():
    snapshots = json.loads(SNAPSHOTS.read_text())
    assert [s["argv"] for s in snapshots] == invocations()
    changed = [
        " ".join(s["argv"])
        for s in snapshots
        if run(s["argv"]) != (s["exit_code"], s["stdout"])
    ]
    assert not changed, changed


if __name__ == "__main__":
    records = []
    for argv in invocations():
        code, stdout = run(argv)
        records.append({"argv": argv, "exit_code": code, "stdout": stdout})
    SNAPSHOTS.parent.mkdir(exist_ok=True)
    SNAPSHOTS.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")
