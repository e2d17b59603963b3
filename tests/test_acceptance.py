"""Acceptance suite: one test per criterion, timed, exact assertions.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import random
import time

from coulombalg import (
    CoulombProblem,
    abelian_matter_generators,
    acceleration_membership,
    ambient_table,
    blowup_equal,
    blowup_presentation,
    buchberger,
    diagonal_seidel,
    encode_ring,
    equivariant_ring,
    euler_section,
    euler_translation,
    expand,
    format_element,
    format_polynomial,
    matter_membership,
    matter_presentation,
    mu_zero_fiber,
    parse_expression,
    reynolds,
    ring_map_kernel,
    section_homomorphism,
    standard_block_generators,
    symplectic_cohomology,
    to_blowup_polynomial,
    translate_by_section,
    verify_diagram,
)
from coulombalg.coulomb import translation_regular_by_division
from coulombalg.groebner import GREVLEX, Ideal
from coulombalg.cli import main as cli_main
from conftest import (
    rand_abelian_problem,
    rand_blowup_element,
    rand_member,
    rand_pure_element,
    set_mu_zero,
)


class _Timer:
    def __init__(self, criterion: str, bound: float):
        self.criterion = criterion
        self.bound = bound

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"[acceptance] {self.criterion}: PASS ({elapsed:.3f}s < {self.bound:.0f}s)")
            assert elapsed < self.bound, f"{self.criterion} exceeded {self.bound}s"
        else:
            print(f"[acceptance] {self.criterion}: FAIL after {elapsed:.3f}s")
        return False


def _u1_ring():
    return ambient_table(CoulombProblem.make(1, 0, [(1,), (-1,)]))


def _su2_ring():
    return ambient_table(CoulombProblem.make(0, 1, [(1,), (-1,)]))


def _u1_generators(ring):
    x = ring.fraction(ring.z(0) * (ring.mu() - ring.tau(0)))
    y = ring.fraction(ring.z(0) ** -1 * (ring.mu() + ring.tau(0)))
    return [
        ("x", x),
        ("y", y),
        ("mu", ring.fraction(ring.mu())),
        ("tau", ring.fraction(ring.tau(0))),
    ]


def test_criterion_1_u1_weight_pair_presentation():
    with _Timer("criterion 1 (weight-pair presentation)", 1.0):
        ring = _u1_ring()
        pres = matter_presentation(ring, _u1_generators(ring))
        t = pres.table
        expected = t.var("x") * t.var("y") - t.var("mu") ** 2 + t.var("tau") ** 2
        assert pres.relations == (expected,)
        assert format_polynomial(pres.relations[0]) == "x*y - mu^2 + tau^2"


def test_criterion_2_su2_blowup_and_weyl():
    with _Timer("criterion 2 (blowup chart and Weyl action)", 1.0):
        ring = _su2_ring()
        pres = blowup_presentation(ring.problem)
        relation = ring.tau(0) * ring.u(0) - (ring.z(0) - 1)
        assert pres.relations == (relation,)
        (w,) = pres.weyl
        assert w.images["z"] == ring.fraction(ring.z(0) ** -1)
        assert w.images["tau"] == ring.fraction(-ring.tau(0))
        assert w.images["u"] == ring.fraction(ring.u(0) * ring.z(0) ** -1)
        # the relation maps into its own ideal
        enc = encode_ring(ring.factors, extra_relations=pres.relations)
        gb = buchberger(Ideal(enc.table, enc.relations), GREVLEX)
        image = w(relation)
        assert image.is_polynomial
        assert gb.reduce(enc.encode_polynomial(image.numerator)).is_zero


def test_criterion_3_su2_standard_generators():
    with _Timer("criterion 3 (standard-representation chart generators)", 5.0):
        ring = _su2_ring()
        gens = dict(standard_block_generators(ring))
        for name in ("x", "y", "w"):
            assert matter_membership(ring, gens[name]).member, name
        u = ring.fraction(ring.u(0))
        v = u * ring.fraction(ring.z(0)) ** -1
        muv = ring.fraction(ring.mu()) * u * v - u - v
        assert to_blowup_polynomial(ring, expand(ring, gens["w"])) is not None
        assert blowup_equal(ring, gens["w"], muv)
        (w,) = blowup_presentation(ring.problem).weyl
        assert w(expand(ring, gens["x"])) == expand(ring, gens["y"])
        assert w(expand(ring, gens["y"])) == expand(ring, gens["x"])
        assert w(expand(ring, gens["w"])) == expand(ring, gens["w"])


def test_criterion_4_seidel_localization_u1():
    with _Timer("criterion 4 (rotation operators and localization)", 1.0):
        ring = _u1_ring()
        er = equivariant_ring(ring.problem)
        assert diagonal_seidel(er) == er.mu() ** 2 - er.eta(0) ** 2
        sh = symplectic_cohomology(ring.problem)
        assert sh.inverted_factors() == (er.mu() + er.eta(0), er.mu() - er.eta(0))
        gens = dict(_u1_generators(ring))
        sx = section_homomorphism(ring, gens["x"])
        sy = section_homomorphism(ring, gens["y"])
        sxy = section_homomorphism(ring, gens["x"] * gens["y"])
        assert sx == er.fraction(er.mu() + er.eta(0))
        assert sy == er.fraction(er.mu() - er.eta(0))
        assert sxy == er.fraction(er.mu() ** 2 - er.eta(0) ** 2)
        for img in (sx, sy, sxy):
            assert acceleration_membership(img)


def test_criterion_5_su2_diagram():
    with _Timer("criterion 5 (block diagram images)", 5.0):
        ring = _su2_ring()
        gens = standard_block_generators(ring)
        report = verify_diagram(ring, gens)
        assert report.passed and report.multiplicative
        images = {e.name: e.image for e in report.entries}
        one = equivariant_ring(ring.problem).factors.one()
        assert images["x"] == one
        assert images["y"] == one
        assert images["w"].is_zero
        for e in report.entries:
            assert e.polynomial, e.name


def test_criterion_6_characterization_elementwise():
    with _Timer("criterion 6 (membership vs section image, 200 elements)", 60.0):
        rng = random.Random(20260810)
        discrepancies = 0
        for _ in range(200):
            problem = rand_abelian_problem(rng)
            ring = ambient_table(problem)
            f = rand_pure_element(rng, ring, max_terms=4, zmax=3, degmax=3, height=10)
            member = matter_membership(ring, f).member
            image_poly = acceleration_membership(section_homomorphism(ring, f))
            if member != image_poly:
                discrepancies += 1
        assert discrepancies == 0


def test_criterion_7_automorphism_and_invariance_suites():
    with _Timer("criterion 7 (automorphism and invariance suites)", 120.0):
        u1 = _u1_ring()
        su2 = _su2_ring()
        rng = random.Random(424242)

        # translation is a ring automorphism: multiplicative, invertible
        eps = euler_translation(u1)
        section = euler_section(u1.problem, u1)
        eps_inv = translate_by_section(u1, section.inverse())
        for _ in range(100):
            f = u1.fraction(rand_pure_element(rng, u1, max_terms=3, zmax=2, degmax=2))
            g = u1.fraction(rand_pure_element(rng, u1, max_terms=3, zmax=2, degmax=2))
            assert eps(f * g) == eps(f) * eps(g)
            assert eps_inv(eps(f)) == f

        # Weyl equivariance of the translation on the chart
        eps2 = euler_translation(su2)
        (w,) = blowup_presentation(su2.problem).weyl
        conjugated = w.then(eps2).then(w)
        for name in su2.table.names:
            assert expand(su2, conjugated.images[name]) == expand(su2, eps2.images[name])
        for _ in range(100):
            f = expand(su2, su2.fraction(rand_blowup_element(rng, su2, max_terms=2)))
            assert conjugated(f) == eps2(f)

        # Reynolds averaging is idempotent and fixes invariants
        for _ in range(100):
            f = su2.fraction(rand_blowup_element(rng, su2, max_terms=3))
            avg = reynolds(su2, f)
            assert reynolds(su2, avg) == avg

        # the member set is a subring
        gens = [(n, u1.fraction(p)) for n, p in abelian_matter_generators(u1, 2)]
        for _ in range(100):
            a = rand_member(rng, u1, gens, size=2)
            b = rand_member(rng, u1, gens, size=2)
            assert matter_membership(u1, a + b).member
            assert matter_membership(u1, a * b).member

        # divisibility criterion agrees with the clearing/division check
        for _ in range(200):
            f = rand_pure_element(rng, u1, zmax=3, degmax=3)
            assert matter_membership(u1, f).member == translation_regular_by_division(u1, f)


def test_criterion_8_mu_zero_fiber():
    with _Timer("criterion 8 (zero-mass fiber)", 1.0):
        ring = _u1_ring()
        gens = _u1_generators(ring)
        pres = matter_presentation(ring, gens)
        fiber = mu_zero_fiber(pres)
        t = fiber.table
        assert fiber.relations == (t.var("x") * t.var("y") + t.var("tau") ** 2,)
        specialized = [(n, ring.fraction(set_mu_zero(g))) for n, g in gens if n != "mu"]
        direct = ring_map_kernel(specialized)
        assert fiber.relations == tuple(r.transfer(t) for r in direct.generators)


def test_criterion_9_roundtrip_and_cli_determinism(capsys, tmp_path):
    with _Timer("criterion 9 (round trips and CLI determinism)", 10.0):
        ring = _u1_ring()
        rng = random.Random(515151)
        from coulombalg import FactoredFraction

        done = 0
        while done < 500:
            num = rand_pure_element(rng, ring, max_terms=4, zmax=3, degmax=3, height=9)
            den = []
            for i in range(3):
                e = rng.randint(0, 2)
                if e:
                    den.append((i, e))
            f = FactoredFraction(ring.factors, num, den)
            assert parse_expression(format_element(f), ring.factors) == f
            done += 1

        path = tmp_path / "u1.prob"
        path.write_text("torus_rank = 1\nsu2_blocks = 0\nweight = 1\nweight = -1\n")
        outputs = []
        for _ in range(2):
            code = cli_main(
                ["presentation", "--problem", str(path), "--format", "json"]
            )
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert payload["relations"] == ["x*y - mu^2 + tau^2"]
