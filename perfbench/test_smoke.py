"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.  Each
workload runs once untraced and once traced with the same seed; the test
checks the result line against BENCHMARK.json, the digest of canonical
outputs across the two runs, the span file, and the layer separation the
trace should show.  It also checks that the benchmark fails in a
directory holding only BENCHMARK.json and this directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split("digest: ")[1] for line in lines if line.startswith("workload:"))
    return json.loads(lines[-1]), digest


def spans_by_request(workload: str, seed: int) -> dict[str, list[str]]:
    path = ROOT / ".bench_out" / f"trace-{workload}-{seed}.jsonl"
    out = defaultdict(list)
    for line in path.read_text().splitlines():
        span = json.loads(line)
        assert set(span) == {"id", "parent", "request", "name", "start", "end"}
        assert span["end"] >= span["start"]
        out[span["request"]].append(span["name"])
    return out


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_tiny(workload):
    seed = 7
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0.5", "--tiny"]
    plain, plain_digest = result_of(bench(*args, "--trace", "0"))
    traced, traced_digest = result_of(bench(*args, "--trace", "1"))
    assert plain_digest == traced_digest
    for result, section in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])

    spans = spans_by_request(workload, seed)
    calls = traced["metrics"]
    if workload == "abelian-query":
        assert calls["groebner.buchberger.calls"]["value"] == 0
        assert not any("groebner.buchberger" in names for names in spans.values())
    if workload == "su2-chart":
        members = [r for r in spans if r.endswith(":membership")]
        assert members
        assert all("groebner.buchberger" in spans[r] for r in members)
    if workload == "presentation":
        assert calls["groebner.buchberger.calls"]["value"] >= 1


def test_fails_without_library():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "abelian-query", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
