"""Closed-loop benchmark of the coulombalg library.

Usage (from the repository root):

    python3 perfbench/run.py --workload abelian-query --seed 1 --seconds 20 --trace 0

One client sends the next request only after the previous one completes;
everything runs in this process on one core.  With ``--trace 0`` the run
prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run.  Each outcome is checked right after its request, outside the
timed interval.  The last line of standard output is one JSON object; the
lines before it repeat each metric with its unit and sample count.
Workloads, metrics and bounds are described in README.md next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("abelian-query", "su2-chart", "presentation")
# Requests per query round: a multiple of the 18 su2-chart cells, and two
# rounds give more than 200 requests, so more than 20 lie beyond p90.
ROUND_REQUESTS = 108
SETUP_REPEATS = 5


def _import_library():
    """Import the library from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "coulombalg" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no library sources under {src}")
    sys.path.insert(0, str(src))
    import coulombalg

    if Path(coulombalg.__file__).resolve().parent != src / "coulombalg":
        raise SystemExit("benchmark: imported coulombalg from outside the checkout")


class Workload:
    """Inputs of one run: warm-up requests and numbered rounds.

    A query round is ROUND_REQUESTS requests over a fixed list of shapes
    (one op per request); a presentation round is one batch of jobs (the
    batch is the op).  Runs serve whole rounds, so every run measures the
    same mix whatever the machine's speed."""

    def __init__(self, name: str, seed: int, tiny: bool):
        import workloads as w

        self.seed, self.tiny = seed, tiny
        self.op_is_round = name == "presentation"
        self.min_rounds = 1 if tiny or self.op_is_round else 2
        size = 5 if tiny else ROUND_REQUESTS
        self._rounds: list[list] = []
        if name == "abelian-query":
            self.warmup = w.abelian_warmup()
            self._stream = w.abelian_rounds(seed, size)
        elif name == "su2-chart":
            catalog = w.su2_catalog()
            self.warmup = w.su2_warmup(catalog)
            self._stream = w.su2_rounds(seed, catalog, size)
        else:
            self.warmup = w.presentation_warmup()
            self._stream = (w.presentation_batch(seed, i, tiny) for i in itertools.count())
        self.round(0)

    def round(self, index: int) -> list:
        while index >= len(self._rounds):
            self._rounds.append(next(self._stream))
        return self._rounds[index]


def setup(name: str, seed: int, tiny: bool) -> Workload:
    """Import, input generation and warm-up: what a fresh server pays once."""
    _import_library()
    import workloads as w

    work = Workload(name, seed, tiny)
    for req in work.warmup:
        w.serve(req)
    return work


def measure_setup(args) -> list[float]:
    """Wall time of fresh processes that set up and exit, SETUP_REPEATS times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # No timeout: with one, the wait polls and rounds the time to 50 ms.
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


# ---------------------------------------------------------------------------
# Timed loops
# ---------------------------------------------------------------------------


class Served:
    """Latency, check verdict and (for the digest) output text per request.

    Outcomes are checked and dropped one by one, so the process holds one
    request's objects at a time and peak_rss_mb reflects the library."""

    def __init__(self, keep: int, check: bool = True):
        self.keep, self.check = keep, check
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.texts: list[str] = []
        self.peak_rss_mb = 0.0

    def serve(self, req, tracer=None) -> float:
        import workloads as w

        if tracer is not None:
            tracer.begin(req.rid)
        start = time.perf_counter()
        try:
            out, reason = w.serve(req), None
        except Exception:  # keep serving; the failure is counted
            out, reason = None, traceback.format_exc(limit=2).strip().splitlines()[-1]
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
        if out is not None and self.check:
            try:
                reason = w.check(req, out)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            self.failures.append(f"{req.rid}: {reason}")
        if len(self.texts) < self.keep:
            text = out.text if out is not None else f"error: {reason}"
            self.texts.append(f"{req.rid}\n{req.problem}\n{req.expr}\n{text}\n")
        self.latencies.append(latency)
        return latency

    def digest(self) -> str:
        """Hash of the inputs and canonical outputs of the first requests."""
        return hashlib.sha256("".join(self.texts).encode()).hexdigest()[:16]


def run_rounds(work: Workload, seconds: float, tracer=None) -> tuple[Served, list[float]]:
    """Serve whole rounds while the next one is expected to end within
    ``seconds`` of serving time, and at least ``min_rounds``."""
    served, round_times = Served(len(work.round(0))), []
    for index in itertools.count():
        if (len(round_times) >= work.min_rounds
                and sum(round_times) + statistics.median(round_times) > seconds):
            break
        round_times.append(sum(served.serve(req, tracer) for req in work.round(index)))
        if len(round_times) == work.min_rounds:
            # Read after the rounds every run serves, so the figure does not
            # depend on how many more rounds the machine's speed allowed.
            served.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return served, round_times


def probe(work: Workload, seconds: float) -> Served:
    """Untraced, unchecked prefix of the first round, until ``seconds`` of
    serving time (at least one request)."""
    served = Served(0, check=False)
    for req in work.round(0):
        if served.latencies and sum(served.latencies) >= seconds:
            break
        served.serve(req)
    return served


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(p * len(ordered)) - 1))]


def end_to_end(work: Workload, served: Served, round_times, setup_samples) -> dict:
    ops = round_times if work.op_is_round else served.latencies
    unit = "batches" if work.op_is_round else "requests"
    return {
        "ops_per_s": (len(ops) / sum(ops), "1/s", f"{len(ops)} {unit}"),
        "latency_p50_ms": (statistics.median(ops) * 1e3, "ms", f"median of {len(ops)}"),
        "latency_p90_ms": (percentile(ops, 0.9) * 1e3, "ms", f"p90 of {len(ops)}"),
        "makespan_s": (statistics.median(round_times), "s",
                       f"median of {len(round_times)} rounds of {len(work.round(0))}"),
        "setup_s": (statistics.median(setup_samples), "s",
                    f"median of {len(setup_samples)} fresh processes"),
        "peak_rss_mb": (served.peak_rss_mb, "MB",
                        f"high-water resident set at the end of round {work.min_rounds}"),
    }


def per_layer(tracer, items: int, overhead: float) -> dict:
    from tracing import SPANS

    metrics = {}
    for _, _, name in SPANS:
        metrics[f"{name}.calls"] = (tracer.calls[name] / items, "count/op", "")
        metrics[f"{name}.self_s"] = (tracer.self_s[name] / items, "s/op", "")
    c = tracer.counts

    def ratio(num, den):
        return c[num] / den if den else 0.0

    spairs, divisions = c["groebner.spairs"], tracer.calls["poly.exact_divide"]
    metrics["groebner.spair_zero_ratio"] = (
        ratio("groebner.spairs.zero", spairs), "ratio", f"{spairs} S-pairs")
    metrics["groebner.basis_len"] = (
        ratio("groebner.basis_elements", c["groebner.bases"]), "count",
        f"mean over {c['groebner.bases']} bases")
    metrics["poly.exact_divide.none_ratio"] = (
        ratio("poly.exact_divide.none", divisions), "ratio", f"{divisions} divisions")
    for name, (hits, total) in tracer.cache_lookups.items():
        metrics[f"{name}.hit_ratio"] = (hits / total if total else 0.0, "ratio",
                                        f"{hits} hits of {total} lookups")
    metrics["trace.overhead_ratio"] = (overhead, "ratio", "traced over untraced ops/s")
    metrics["trace.items"] = (items, "count", "ops traced")
    return metrics


def traced_run(work: Workload, seconds: float):
    """Untraced probe on the first requests, then the traced run from the
    start of the stream; the probe prefix gives the tracing overhead."""
    import tracing
    import workloads as w

    untraced = probe(work, seconds / 4)
    tracing.clear_caches()
    for req in work.warmup:
        w.serve(req)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        served, round_times = run_rounds(work, seconds, tracer)
    finally:
        tracer.uninstall()
    k = len(untraced.latencies)
    overhead = sum(untraced.latencies) / sum(served.latencies[:k])
    items = len(round_times) if work.op_is_round else len(served.latencies)
    return served, tracer, per_layer(tracer, items, overhead)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: rounds of 5 requests or one small job")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    work = setup(args.workload, args.seed, args.tiny)
    if args.setup_only:
        return 0

    if args.trace:
        served, tracer, metrics = traced_run(work, args.seconds)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}"
              f" ({tracer.dropped} more counted but not written)")
    else:
        setup_samples = measure_setup(args)
        served, round_times = run_rounds(work, args.seconds)
        metrics = end_to_end(work, served, round_times, setup_samples)

    for failure in served.failures[:20]:
        print("FAILED", failure)
    attempted, failed = len(served.latencies), len(served.failures)
    print(f"workload: {args.workload} seed: {args.seed} attempted: {attempted}"
          f" failed: {failed} digest: {served.digest()}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name}: {value:.6g} {unit}" + (f" ({note})" if note else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
