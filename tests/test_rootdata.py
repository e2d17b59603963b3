"""Root data, ambient rings, Weyl generators."""

import json
import random
from pathlib import Path

import pytest

from coulombalg import (
    CoulombProblem,
    ProblemError,
    ambient_table,
    blowup_relations,
    buchberger,
    encode_ring,
    expand,
    format_polynomial,
    parse_problem_text,
    unit_decompose,
    weyl_generator_morphisms,
)
from coulombalg.groebner import GREVLEX, Ideal
from coulombalg.shmodel import equivariant_ring
from conftest import is_weyl_stable, rand_blowup_element, rand_pure_element


def test_u1_ambient(u1_pm1):
    ring = u1_pm1
    assert ring.table.names == ("mu", "tau", "z")
    assert ring.table.laurent == (False, False, True)
    assert [format_polynomial(f) for f in ring.factors.factors] == [
        "tau",
        "mu + tau",
        "mu - tau",
        "z",
    ]


def test_torus2_ambient(torus2):
    assert torus2.table.names == ("mu", "tau1", "tau2", "z1", "z2")
    assert [format_polynomial(f) for f in torus2.factors.factors] == [
        "tau1",
        "tau2",
        "z1",
        "z2",
    ]


def test_su2_ambient(su2_standard):
    ring = su2_standard
    assert ring.table.names == ("mu", "tau", "u", "z")
    names = [format_polynomial(f) for f in ring.factors.factors]
    assert "tau" in names and "mu + tau" in names and "mu - tau" in names


def test_weight_validation():
    with pytest.raises(ProblemError):
        CoulombProblem.make(1, 0, [(1, 2)])
    with pytest.raises(ProblemError):
        CoulombProblem.make(0, 0, [])


def test_weyl_stability_flag():
    assert is_weyl_stable(CoulombProblem.make(0, 1, [(1,), (-1,)]))
    assert not is_weyl_stable(CoulombProblem.make(0, 1, [(1,)]))
    assert is_weyl_stable(CoulombProblem.make(1, 0, [(2,)]))  # no blocks


def test_su2_weyl_generator_images(su2_standard):
    ring = su2_standard
    (w,) = weyl_generator_morphisms(ring)
    assert w.images["z"] == ring.fraction(ring.z(0) ** -1)
    assert w.images["tau"] == ring.fraction(-ring.tau(0))
    assert w.images["u"] == ring.fraction(ring.u(0) * ring.z(0) ** -1)
    assert w.images["mu"] == ring.fraction(ring.mu())


def test_weyl_involution_random(su2_standard):
    ring = su2_standard
    (w,) = weyl_generator_morphisms(ring)
    rng = random.Random(47)
    for _ in range(50):
        f = expand(ring, ring.fraction(rand_blowup_element(rng, ring)))
        assert w(w(f)) == f


def test_weyl_preserves_blowup_relation(su2_standard):
    ring = su2_standard
    (w,) = weyl_generator_morphisms(ring)
    (relation,) = blowup_relations(ring)
    # expansion sends the relation to zero, so its image is zero as well
    assert expand(ring, ring.fraction(relation)).is_zero
    assert w(expand(ring, ring.fraction(relation))).is_zero
    # on the chart: the image reduces to zero against the relation ideal
    enc = encode_ring(ring.factors, extra_relations=blowup_relations(ring))
    gb = buchberger(Ideal(enc.table, enc.relations), GREVLEX)
    image = w.images["tau"] * w.images["u"] - w.images["z"] + 1
    assert gb.reduce(enc.encode(image)).is_zero


def test_factor_set_weyl_stable(su2_standard):
    ring = su2_standard
    (w,) = weyl_generator_morphisms(ring)
    for f in ring.factors.factors:
        image = w(ring.fraction(f))
        assert image.is_polynomial
        assert unit_decompose(ring.factors, image.numerator) is not None


def test_mixed_group_block_acts_only_on_its_coordinates():
    problem = CoulombProblem.make(1, 1, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    ring = ambient_table(problem)
    assert ring.table.names == ("mu", "tau1", "tau2", "u", "z1", "z2")
    (w,) = weyl_generator_morphisms(ring)
    assert w.images["z1"] == ring.fraction(ring.z(0))
    assert w.images["tau1"] == ring.fraction(ring.tau(0))
    assert w.images["z2"] == ring.fraction(ring.z(1) ** -1)
    assert w.images["tau2"] == ring.fraction(-ring.tau(1))
    rng = random.Random(53)
    for _ in range(20):
        f = rand_pure_element(rng, ring, zmax=2, degmax=2)
        assert w(w(ring.fraction(f))) == ring.fraction(f)


def _golden_and_demo_problems() -> list[CoulombProblem]:
    root = Path(__file__).resolve().parents[1]
    texts = [s["problem"] for s in json.loads(
        (root / "tests" / "golden" / "presentations.json").read_text()
    )]
    texts += [p.read_text() for p in sorted((root / "demos" / "problems").glob("*.prob"))]
    return [parse_problem_text(text).problem() for text in texts]


@pytest.mark.parametrize("build", [ambient_table, equivariant_ring], ids=["ambient", "equivariant"])
def test_psi_factor_index_is_the_declared_layout(build):
    problems = _golden_and_demo_problems() + [CoulombProblem.make(1, 0, [(0,), (1,), (0,)])]
    for problem in problems:
        ring = build(problem)
        for w in problem.distinct_weights():
            assert ring.psi_factor_index(w) == ring.factors.index_of(ring.psi(w))
            assert ring.psi_factor_index(list(w)) == ring.psi_factor_index(w)
        with pytest.raises(KeyError, match="no declared factor"):
            ring.psi_factor_index((5,) * problem.rank)
