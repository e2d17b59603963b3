"""The benchmark's answers, pinned: round 0 of seed 1 of each workload,
served in-process and hashed the way ``perfbench/run.py`` hashes it
(``Served.digest``), equals the digest that ``run.py --seed 1 --seconds 0``
prints."""

import hashlib

import pytest

from conftest import benchmark_workloads

DIGESTS = {
    "abelian-query": "e8b3a94d277b0819",
    "su2-chart": "6405ba18e029684a",
    "presentation": "ff284e3131aaacb5",
}


def round_zero(workloads, name):
    if name == "abelian-query":
        return next(workloads.abelian_rounds(1, 108))
    if name == "su2-chart":
        return next(workloads.su2_rounds(1, workloads.su2_catalog(), 108))
    return workloads.presentation_batch(1, 0)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_round_zero_digest(name):
    workloads = benchmark_workloads()
    texts = []
    for req in round_zero(workloads, name):
        out = workloads.serve(req)
        texts.append(f"{req.rid}\n{req.problem}\n{req.expr}\n{out.text}\n")
    assert hashlib.sha256("".join(texts).encode()).hexdigest()[:16] == DIGESTS[name]
