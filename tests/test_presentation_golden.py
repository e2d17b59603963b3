"""Golden presentations and an independent check of the elimination bases.

The snapshots in ``golden/presentations.json`` hold the printed relations
and mu = 0 fiber relations of the presentation jobs the benchmark serves:
the SU(2)-standard job, the six vetted rank-2 jobs at window 1 and the nine
rank-1 jobs of the first seed-1 batch (job texts from
``perfbench/workloads.py``).  A reduced Groebner basis is unique for its
order, so any change to the basis computation must reproduce them byte for
byte.  To record them again after an intended output change, run
``PYTHONPATH=src python tests/test_presentation_golden.py``.

``conftest.is_groebner_basis`` re-checks every basis the jobs compute with
the test-side division ``conftest.divide``, which shares no code with
``groebner``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from coulombalg import (
    VariableTable, coulomb, groebner, printing, problems, rootdata,
)
from conftest import benchmark_workloads, is_groebner_basis

SNAPSHOTS = Path(__file__).resolve().parent / "golden" / "presentations.json"
workloads = benchmark_workloads()

SU2_STANDARD = workloads.problem_text(0, 1, [(1,), (-1,)])


def jobs() -> list[tuple[str, str]]:
    out = [("su2-standard", SU2_STANDARD)]
    out += [
        (f"rank2-{i}", workloads.problem_text(2, 0, weights, 1))
        for i, weights in enumerate(workloads.RANK2_JOBS)
    ]
    rank1 = workloads.presentation_batch(1, 0)[:9]
    out += [(f"rank1-{i}", req.problem) for i, req in enumerate(rank1)]
    return out


def present(text: str) -> dict:
    pf = problems.parse_problem_text(text)
    ring = rootdata.ambient_table(pf.problem())
    gens = problems.presentation_order(ring, problems.default_generators(ring, pf))
    pres = coulomb.matter_presentation(ring, gens)
    fiber = coulomb.mu_zero_fiber(pres)
    return {
        "relations": [printing.format_element(r) for r in pres.relations],
        "fiber": [printing.format_element(r) for r in fiber.relations],
    }


@pytest.fixture
def captured_bases(monkeypatch) -> list:
    """Every basis ``groebner.buchberger`` returns while the test runs."""
    bases = []
    real = groebner.buchberger

    def recording(ideal, order):
        gb = real(ideal, order)
        bases.append(gb)
        return gb

    monkeypatch.setattr(groebner, "buchberger", recording)
    return bases


def test_job_list_matches_snapshots():
    snapshots = json.loads(SNAPSHOTS.read_text())
    assert [(s["job"], s["problem"]) for s in snapshots] == jobs()


@pytest.mark.parametrize("job,text", jobs(), ids=[job for job, _ in jobs()])
def test_presentation_matches_snapshot(job, text, captured_bases):
    snapshot = next(s for s in json.loads(SNAPSHOTS.read_text()) if s["job"] == job)
    assert present(text) == {"relations": snapshot["relations"], "fiber": snapshot["fiber"]}
    assert captured_bases
    for gb in captured_bases:
        assert is_groebner_basis(gb)


def test_is_groebner_basis_rejects_non_bases():
    table = VariableTable(("x", "y"), (False, False))
    x, y, one = table.var("x"), table.var("y"), table.one()
    order = groebner.GREVLEX
    # {x^2 - y, x*y - 1}: the S-pair leaves y^2 - x, which neither lead divides.
    not_closed = groebner.GroebnerBasis(table, order, (x * x - y, x * y - one))
    assert not is_groebner_basis(not_closed)
    not_monic = groebner.GroebnerBasis(table, order, (x.scaled(Fraction(2)),))
    assert not is_groebner_basis(not_monic)
    not_reduced = groebner.GroebnerBasis(table, order, (x, x * y - one))
    assert not is_groebner_basis(not_reduced)
    full = groebner.buchberger(groebner.Ideal(table, (x * x - y, x * y - one)), order)
    assert is_groebner_basis(full)


@pytest.fixture
def pair_schedules(monkeypatch) -> list[dict]:
    """S-pairs formed, zero reductions and basis size of every basis computed
    while the test runs, in order, whether ``groebner`` or ``coulomb`` asks."""
    counts: list[dict] = []
    inside = []  # nonempty while a patched buchberger runs
    real_spoly, real_nf = groebner._s_polynomial, groebner.normal_form

    def counted(real_buchberger):
        def buchberger(ideal, order):
            counts.append({"spairs": 0, "zero": 0})
            inside.append(True)
            gb = real_buchberger(ideal, order)
            inside.pop()
            counts[-1]["basis"] = len(gb.basis)
            return gb

        return buchberger

    def s_polynomial(f, g):
        if inside:
            counts[-1]["spairs"] += 1
        return real_spoly(f, g)

    def normal_form(p, basis, order):
        result = real_nf(p, basis, order)
        if inside and result.is_zero:
            counts[-1]["zero"] += 1
        return result

    for module in (groebner, coulomb):
        monkeypatch.setattr(module, "buchberger", counted(module.buchberger))
    monkeypatch.setattr(groebner, "_s_polynomial", s_polynomial)
    monkeypatch.setattr(groebner, "normal_form", normal_form)
    return counts


def test_su2_standard_pair_schedule(pair_schedules):
    """The block-order elimination follows the sugar strategy, keyed by
    ((sugar, lcm key), generator indices).  The counts were recorded when
    sugar replaced the normal strategy there, which formed 397 S-pairs and
    reduced 311 of them to zero for the same 38 elements."""
    present(SU2_STANDARD)
    # The elimination is the last basis a presentation computes; the
    # membership checks of the generators come before it.
    assert pair_schedules[-1] == {"spairs": 219, "zero": 176, "basis": 38}


def test_su2_membership_pair_schedule(pair_schedules, su2_standard):
    """GREVLEX bases keep the normal strategy, keyed by (lcm key, generator
    indices).  The counts of the membership basis for w * x were recorded
    before sugar selection existed; under sugar the same basis forms 24
    S-pairs and reduces 16 of them to zero."""
    gens = dict(problems.standard_block_generators(su2_standard))
    assert coulomb.matter_membership(su2_standard, gens["w"] * gens["x"]).member
    assert pair_schedules == [{"spairs": 15, "zero": 9, "basis": 7}]


def test_benchmark_batch_schedules(pair_schedules, fresh_caches):
    """Batch 0 of the presentation seeds 1-3, served as the benchmark serves
    it on empty caches, summed over every basis computed: S-pairs formed, zero reductions
    and reduced basis elements.  Counting in-process over fixed batches
    compares two versions of the engine on the same work, where a traced
    timed run averages over however many batches fit in its time.  A
    change to pair selection or to the criteria moves these counts; a
    change to reduction alone must leave them."""
    for seed in (1, 2, 3):
        for request in workloads.presentation_batch(seed, 0):
            workloads.serve(request)
    totals = {key: sum(c[key] for c in pair_schedules) for key in ("spairs", "zero", "basis")}
    assert totals == {"spairs": 2767, "zero": 2064, "basis": 785}


if __name__ == "__main__":
    records = []
    for job, text in jobs():
        records.append({"job": job, "problem": text, **present(text)})
    SNAPSHOTS.parent.mkdir(exist_ok=True)
    SNAPSHOTS.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")
