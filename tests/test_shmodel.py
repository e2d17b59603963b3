"""The localized equivariant model of the representation ball."""

import random

import pytest

from coulombalg import (
    CoulombProblem,
    ExactPolynomial,
    FactoredFraction,
    MorphismError,
    acceleration_membership,
    ambient_table,
    diagonal_seidel,
    equivariant_ring,
    expand,
    matter_membership,
    section_homomorphism,
    section_homomorphism_map,
    seidel_operator,
    standard_block_generators,
    symplectic_cohomology,
    verify_diagram,
    weyl_generator_morphisms,
)
from conftest import (
    rand_abelian_problem,
    rand_blowup_element,
    rand_pure_element,
    weyl_eta_morphisms,
)


def test_seidel_operator_values(u1_pm1):
    er = equivariant_ring(u1_pm1.problem)
    assert seidel_operator(er, (1,)) == er.mu() + er.eta(0)
    assert seidel_operator(er, (0,)) == er.mu()
    assert seidel_operator(er, (-1,)) == er.mu() - er.eta(0)


def test_diagonal_seidel_values(u1_pm1):
    er = equivariant_ring(u1_pm1.problem)
    assert diagonal_seidel(er) == er.mu() ** 2 - er.eta(0) ** 2

    single = equivariant_ring(CoulombProblem.make(1, 0, [(1,)]))
    assert diagonal_seidel(single) == single.mu() + single.eta(0)

    empty = equivariant_ring(CoulombProblem.make(1, 0, []))
    assert diagonal_seidel(empty) == empty.table.one()


def test_diagonal_seidel_does_not_multiply_by_one(monkeypatch):
    er = equivariant_ring(CoulombProblem.make(1, 0, [(1,), (-1,), (2,)]))
    products = []
    multiply = ExactPolynomial.__mul__

    def counted(a, b):
        products.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(ExactPolynomial, "__mul__", counted)
    diagonal_seidel(er)
    assert len(products) == 2  # three weight forms
    assert all(er.table.one() not in pair for pair in products)


def test_diagonal_is_product_of_operators():
    problem = CoulombProblem.make(2, 0, [(1, 0), (0, -1), (1, 1)])
    er = equivariant_ring(problem)
    product = er.table.one()
    for w in problem.weights:
        product = product * seidel_operator(er, w)
    assert diagonal_seidel(er) == product


def test_localization_sets(u1_pm1):
    sh = symplectic_cohomology(u1_pm1.problem)
    inv = sh.inverted_factors()
    er = sh.base
    assert inv == (er.mu() + er.eta(0), er.mu() - er.eta(0))

    empty = symplectic_cohomology(CoulombProblem.make(1, 0, []))
    assert empty.inverted == ()

    su2 = symplectic_cohomology(CoulombProblem.make(0, 1, [(1,), (-1,)]))
    assert len(su2.inverted) == 2
    assert su2.base.weyl_flagged


def test_localizing_at_diagonal_equals_localizing_at_factors(u1_pm1):
    # each factor inverts inside the diagonal localization and conversely
    er = equivariant_ring(u1_pm1.problem)
    s_delta = er.fraction(diagonal_seidel(er))
    s_inv = s_delta.inverse()
    for w in u1_pm1.problem.distinct_weights():
        psi = er.fraction(er.psi(w))
        rest = s_delta / psi
        assert rest.is_polynomial
        assert psi * (s_inv * rest.numerator) == er.factors.one()
        assert (psi.inverse() * s_delta).is_polynomial


def test_section_images_u1(u1_pm1):
    ring = u1_pm1
    er = equivariant_ring(ring.problem)
    assert section_homomorphism(ring, ring.tau(0)) == er.fraction(er.eta(0))
    x = ring.z(0) * (ring.mu() - ring.tau(0))
    assert section_homomorphism(ring, x) == er.fraction(er.mu() + er.eta(0))
    y = ring.z(0) ** -1 * (ring.mu() + ring.tau(0))
    assert section_homomorphism(ring, y) == er.fraction(er.mu() - er.eta(0))
    assert section_homomorphism(ring, x * y) == er.fraction(
        er.mu() ** 2 - er.eta(0) ** 2
    )
    z_image = section_homomorphism(ring, ring.z(0))
    assert not z_image.is_polynomial


def test_section_images_su2(su2_standard):
    ring = su2_standard
    gens = dict(standard_block_generators(ring))
    assert section_homomorphism(ring, gens["x"]) == equivariant_ring(ring.problem).factors.one()
    assert section_homomorphism(ring, gens["y"]) == equivariant_ring(ring.problem).factors.one()
    assert section_homomorphism(ring, gens["w"]).is_zero
    er = equivariant_ring(ring.problem)
    u_img = section_homomorphism(ring, ring.u(0))
    assert u_img.numerator == er.table.constant(2)
    assert u_img.denominator == ((er.psi_factor_index((-1,)), 1),)


@pytest.mark.parametrize(
    "torus_rank, weights",
    [(0, [(1,), (-1,)]), (1, [(1, 1), (1, -1), (0, 1), (0, -1)])],
    ids=["su2-standard", "torus-x-su2"],
)
def test_section_map_agrees_with_map_after_expand(torus_rank, weights):
    ring = ambient_table(CoulombProblem.make(torus_rank, 1, weights))
    section_map = section_homomorphism_map(ring)
    tau_idx = ring.tau_factor_index(ring.problem.datum.block_coordinate(0))
    rng = random.Random(61)
    for _ in range(15):
        p = rand_blowup_element(rng, ring, max_terms=3)
        f = FactoredFraction(ring.factors, p, ((tau_idx, rng.randint(0, 2)),))
        assert section_homomorphism(ring, f) == section_map(expand(ring, f))


def test_acceleration_membership(u1_pm1):
    ring = u1_pm1
    er = equivariant_ring(ring.problem)
    assert acceleration_membership(er.fraction(er.mu() + er.eta(0)))
    assert acceleration_membership(er.factors.zero())
    z_image = section_homomorphism(ring, ring.z(0))
    assert not acceleration_membership(z_image)


def test_section_hom_is_ring_hom(u1_pm1):
    ring = u1_pm1
    rng = random.Random(97)
    for _ in range(100):
        f = ring.fraction(rand_pure_element(rng, ring, max_terms=3, zmax=2, degmax=2))
        g = ring.fraction(rand_pure_element(rng, ring, max_terms=3, zmax=2, degmax=2))
        assert section_homomorphism(ring, f * g) == section_homomorphism(
            ring, f
        ) * section_homomorphism(ring, g)
        assert section_homomorphism(ring, f + g) == section_homomorphism(
            ring, f
        ) + section_homomorphism(ring, g)


def test_characterization_on_generic_elements():
    """Membership versus polynomiality of the section image, elementwise.

    Regularity of the translate always forces a polynomial image; the
    converse holds for generic elements of spanning-weight problems, which
    is what this samples.
    """
    rng = random.Random(101)
    checked = 0
    while checked < 200:
        problem = rand_abelian_problem(rng)
        ring = ambient_table(problem)
        f = rand_pure_element(rng, ring, max_terms=4, zmax=3, degmax=3, height=10)
        member = matter_membership(ring, f).member
        image_poly = acceleration_membership(section_homomorphism(ring, f))
        assert member == image_poly
        checked += 1


def test_membership_implies_polynomial_image_always(u1_pm1):
    # one direction is unconditional: regular translates have polynomial images
    ring = u1_pm1
    rng = random.Random(103)
    from coulombalg import abelian_matter_generators
    from conftest import rand_member

    gens = [(n, ring.fraction(p)) for n, p in abelian_matter_generators(ring, 2)]
    for _ in range(50):
        f = rand_member(rng, ring, gens)
        assert acceleration_membership(section_homomorphism(ring, f))


def test_tuned_cancellation_breaks_converse(u1_pm1):
    """A pole-cancelling combination has a polynomial image without membership.

    The element -2*mu*z + (mu - tau)*z^2 translates to something with a
    genuine pole, yet its section image collapses to -(mu + eta).  The
    elementwise equivalence is a generic statement, not an identity.
    """
    ring = u1_pm1
    er = equivariant_ring(ring.problem)
    f = ring.z(0) * ring.mu().scaled(-2) + ring.z(0) ** 2 * (ring.mu() - ring.tau(0))
    assert not matter_membership(ring, f).member
    image = section_homomorphism(ring, f)
    assert image == er.fraction(-(er.mu() + er.eta(0)))
    assert acceleration_membership(image)


def test_weyl_intertwining(su2_standard):
    ring = su2_standard
    (w_eta,) = weyl_eta_morphisms(ring.problem)
    (w,) = weyl_generator_morphisms(ring)
    rng = random.Random(107)
    for _ in range(50):
        f = expand(ring, ring.fraction(rand_blowup_element(rng, ring, max_terms=3)))
        assert section_homomorphism(ring, w(f)) == w_eta(section_homomorphism(ring, f))


def test_section_hom_rejects_unstable_weights():
    problem = CoulombProblem.make(0, 1, [(1,)])
    ring = ambient_table(problem)
    with pytest.raises(MorphismError):
        section_homomorphism_map(ring)


def test_verify_diagram_u1(u1_pm1):
    ring = u1_pm1
    x = ring.fraction(ring.z(0) * (ring.mu() - ring.tau(0)))
    y = ring.fraction(ring.z(0) ** -1 * (ring.mu() + ring.tau(0)))
    gens = [("x", x), ("y", y), ("mu", ring.fraction(ring.mu())), ("tau", ring.fraction(ring.tau(0)))]
    report = verify_diagram(ring, gens)
    assert report.passed and report.multiplicative
    er = equivariant_ring(ring.problem)
    images = {e.name: e.image for e in report.entries}
    assert images["x"] == er.fraction(er.mu() + er.eta(0))
    assert images["y"] == er.fraction(er.mu() - er.eta(0))
    assert images["mu"] == er.fraction(er.mu())
    assert images["tau"] == er.fraction(er.eta(0))


def test_verify_diagram_su2(su2_standard):
    ring = su2_standard
    report = verify_diagram(ring, standard_block_generators(ring))
    assert report.passed
    images = {e.name: e.image for e in report.entries}
    one = equivariant_ring(ring.problem).factors.one()
    assert images["x"] == one and images["y"] == one
    assert images["w"].is_zero


def test_verify_diagram_mixed_group():
    problem = CoulombProblem.make(1, 1, [(0, 1), (0, -1)])
    ring = ambient_table(problem)
    from coulombalg.problems import default_generators

    gens = default_generators(ring)
    report = verify_diagram(ring, gens)
    assert report.passed
    images = {e.name: e.image for e in report.entries}
    er = equivariant_ring(problem)
    assert images["x"] == er.factors.one()
    assert images["w"].is_zero
    assert images["tau1"] == er.fraction(er.eta(0))
    assert images["tau2"] == er.fraction(er.eta(1))


def test_verify_diagram_flags_z(u1_pm1):
    ring = u1_pm1
    report = verify_diagram(ring, [("z", ring.fraction(ring.z(0)))])
    assert not report.passed
    (entry,) = report.entries
    assert entry.name == "z" and not entry.polynomial
    er = equivariant_ring(ring.problem)
    assert entry.image.denominator == ((er.psi_factor_index((-1,)), 1),)
