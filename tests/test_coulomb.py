"""Branch presentations, translations, membership, presentations, fibers."""

import random
from fractions import Fraction

import pytest

from coulombalg import (
    GREVLEX,
    AlgebraError,
    CoulombProblem,
    MorphismError,
    abelian_matter_generators,
    ambient_table,
    Ideal,
    blowup_equal,
    blowup_presentation,
    buchberger,
    euler_section,
    euler_translation,
    evaluate_tags,
    expand,
    format_polynomial,
    matter_membership,
    matter_presentation,
    mu_zero_fiber,
    parse_expression,
    pure_branch,
    reynolds,
    ring_map_kernel,
    standard_block_generators,
    to_blowup_polynomial,
    translate_by_section,
    unit_decompose,
    weyl_group,
)
from coulombalg import coulomb, shmodel
from coulombalg.coulomb import SectionSpec, translation_regular_by_division
from conftest import (
    fixes_variables,
    rand_blowup_element,
    rand_member,
    rand_pure_element,
    section_entry,
    set_mu_zero,
    toda_base_membership,
)


# --- presentations -------------------------------------------------------------


def test_pure_branch_u1(u1_pm1):
    pres = pure_branch(u1_pm1.problem)
    assert pres.kind == "pure-torus"
    assert pres.table.names == ("mu", "tau", "z")
    assert pres.relations == ()


def test_pure_branch_torus2(torus2):
    pres = pure_branch(torus2.problem)
    assert pres.table.names == ("mu", "tau1", "tau2", "z1", "z2")
    assert pres.relations == ()


def test_pure_branch_su2_is_blowup(su2_standard):
    pres = pure_branch(su2_standard.problem)
    assert pres.kind == "blowup"
    assert len(pres.weyl) == 1


def test_blowup_relation(su2_standard):
    pres = blowup_presentation(su2_standard.problem)
    ring = su2_standard
    assert pres.relations == (ring.tau(0) * ring.u(0) - ring.z(0) + ring.table.one(),)
    assert dict(pres.derived)["v"] == ring.fraction(ring.u(0) * ring.z(0) ** -1)


def test_blowup_two_blocks_disjoint():
    problem = CoulombProblem.make(0, 2, [(1, 0), (-1, 0), (0, 1), (0, -1)])
    pres = blowup_presentation(problem)
    assert len(pres.relations) == 2
    used = [r.used_indices() for r in pres.relations]
    assert used[0].isdisjoint(used[1])


# --- Reynolds -------------------------------------------------------------------


def test_reynolds_examples(su2_standard):
    ring = su2_standard
    z = ring.fraction(ring.z(0))
    assert reynolds(ring, z) == (z + z ** -1) * Fraction(1, 2)
    assert reynolds(ring, ring.tau(0)).is_zero
    fixed = ring.fraction(ring.tau(0)) * (z - z ** -1)
    assert reynolds(ring, fixed) == fixed


def test_reynolds_idempotent_and_invariant_valued(su2_standard):
    ring = su2_standard
    (w,) = weyl_group(ring)[1:]
    rng = random.Random(61)
    for _ in range(50):
        f = ring.fraction(rand_blowup_element(rng, ring))
        avg = reynolds(ring, f)
        assert reynolds(ring, avg) == avg
        assert w(avg) == avg


def test_reynolds_trivial_on_torus(u1_pm1):
    ring = u1_pm1
    f = ring.fraction(ring.z(0) * (ring.mu() - ring.tau(0)))
    assert reynolds(ring, f) == f
    assert len(weyl_group(ring)) == 1


def test_expand_fixes_expanded_values(su2_standard):
    # The Weyl averaging of already expanded values skips expand; this is
    # what makes that sound.
    ring = su2_standard
    rng = random.Random(67)
    for _ in range(30):
        value = expand(ring, rand_blowup_element(rng, ring))
        assert expand(ring, value) == value


def test_symmetrized_generators_expand_each_generator_once(su2_standard, monkeypatch):
    ring = su2_standard
    gens = standard_block_generators(ring)
    expected = coulomb.weyl_symmetrized_generators(ring, gens)
    calls = []
    real = coulomb.expand

    def counting(ring, f):
        calls.append(f)
        return real(ring, f)

    monkeypatch.setattr(coulomb, "expand", counting)
    assert coulomb.weyl_symmetrized_generators(ring, gens) == expected
    assert len(calls) == len(gens)


# --- sections and translation ---------------------------------------------------


def test_euler_section_u1(u1_pm1):
    ring = u1_pm1
    section = euler_section(ring.problem, ring)
    entry = section_entry(section, "z")
    assert entry.numerator == ring.mu() + ring.tau(0)
    assert entry.denominator == ((ring.psi_factor_index((-1,)), 1),)


@pytest.mark.parametrize("weights", [
    [(1,), (-1,)], [(0,), (2,), (-1,), (2,)], [(1, 0), (0, 1), (-1, -1)], [(2, -1), (0, 0)],
])
def test_euler_section_entries_are_units(weights):
    """``euler_section`` skips the unit check of the public constructor;
    each entry passes it, and ``SectionSpec`` rebuilt publicly is equal."""
    problem = CoulombProblem.make(len(weights[0]), 0, weights)
    for ring in (ambient_table(problem), shmodel.equivariant_ring(problem)):
        section = euler_section(problem, ring)
        for _, entry in section.entries:
            assert unit_decompose(ring.factors, entry.numerator) is not None
        assert section == SectionSpec(problem, section.side, ring.factors, section.entries)


def test_euler_section_no_weights():
    problem = CoulombProblem.make(1, 0, [])
    ring = ambient_table(problem)
    section = euler_section(problem, ring)
    assert section_entry(section, "z") == ring.factors.one()


def test_euler_section_single_weight():
    problem = CoulombProblem.make(1, 0, [(1,)])
    ring = ambient_table(problem)
    section = euler_section(problem, ring)
    assert section_entry(section, "z") == ring.fraction(ring.mu() + ring.tau(0))


def test_unit_section_translation_is_identity():
    problem = CoulombProblem.make(1, 0, [])
    ring = ambient_table(problem)
    section = euler_section(problem, ring)
    morphism = translate_by_section(ring, section)
    assert fixes_variables(morphism, ring.table.names)


def test_translation_image_u1(u1_pm1):
    ring = u1_pm1
    eps = euler_translation(ring)
    image = eps.images["z"]
    assert image.numerator == ring.z(0) * (ring.mu() + ring.tau(0))
    assert image.denominator == ((ring.psi_factor_index((-1,)), 1),)


def test_translation_composition_is_product_section(u1_pm1):
    ring = u1_pm1
    section = euler_section(ring.problem, ring)
    eps = translate_by_section(ring, section)
    twice = eps.then(eps)
    product = translate_by_section(ring, section.product(section))
    for name in ring.z_names:
        assert twice.images[name] == product.images[name]


def test_translation_invertible(su2_standard):
    ring = su2_standard
    section = euler_section(ring.problem, ring)
    eps = translate_by_section(ring, section)
    eps_inv = translate_by_section(ring, section.inverse())
    rng = random.Random(67)
    for _ in range(100):
        f = expand(ring, ring.fraction(rand_blowup_element(rng, ring, max_terms=3)))
        assert eps_inv(eps(f)) == f


def test_translation_multiplicative(u1_pm1):
    ring = u1_pm1
    eps = euler_translation(ring)
    rng = random.Random(71)
    for _ in range(100):
        f = ring.fraction(rand_pure_element(rng, ring, max_terms=3, zmax=2, degmax=2))
        g = ring.fraction(rand_pure_element(rng, ring, max_terms=3, zmax=2, degmax=2))
        assert eps(f * g) == eps(f) * eps(g)


def test_translation_weyl_equivariant(su2_standard):
    ring = su2_standard
    eps = euler_translation(ring)
    (w,) = blowup_presentation(ring.problem).weyl
    conjugated = w.then(eps).then(w)
    for name in ring.table.names:
        # chart representatives may differ by a relation multiple
        assert expand(ring, conjugated.images[name]) == expand(ring, eps.images[name])


def test_incompatible_section_raises(su2_standard):
    ring = su2_standard
    # z -> mu + tau does not respect z = 1 on the exceptional locus tau = 0
    bad = SectionSpec(
        ring.problem,
        "tau",
        ring.factors,
        (("z", ring.fraction(ring.mu() + ring.tau(0))),),
    )
    with pytest.raises(MorphismError):
        translate_by_section(ring, bad)


def test_section_entry_must_be_unit(u1_pm1):
    ring = u1_pm1
    non_unit = ring.fraction(ring.mu() + ring.tau(0) + 1)
    with pytest.raises(AlgebraError, match="section entry z is not a unit"):
        SectionSpec(ring.problem, "tau", ring.factors, (("z", non_unit),))


# --- membership ------------------------------------------------------------------


def test_membership_x_u1(u1_pm1):
    ring = u1_pm1
    x = ring.z(0) * (ring.mu() - ring.tau(0))
    res = matter_membership(ring, x)
    assert res.member
    assert res.translated == ring.fraction(ring.z(0) * (ring.mu() + ring.tau(0)))


def test_membership_rejects_z(u1_pm1):
    ring = u1_pm1
    res = matter_membership(ring, ring.z(0))
    assert not res.member
    assert res.offending == ring.mu() - ring.tau(0)


def test_membership_w_su2(su2_standard):
    ring = su2_standard
    gens = dict(standard_block_generators(ring))
    res = matter_membership(ring, gens["w"])
    assert res.member
    # w itself reduces to mu*u*v - u - v on the chart
    v = ring.fraction(ring.u(0)) * ring.fraction(ring.z(0)) ** -1
    muv = ring.fraction(ring.mu()) * ring.fraction(ring.u(0)) * v - ring.fraction(ring.u(0)) - v
    assert blowup_equal(ring, gens["w"], muv)
    w_poly = to_blowup_polynomial(ring, expand(ring, gens["w"]))
    assert w_poly is not None
    assert blowup_equal(ring, w_poly, muv)


def test_membership_xy_su2(su2_standard):
    ring = su2_standard
    gens = dict(standard_block_generators(ring))
    for name in ("x", "y"):
        assert matter_membership(ring, gens[name]).member
    assert not matter_membership(ring, ring.fraction(ring.z(0))).member


@pytest.mark.parametrize(
    "text, offending",
    [
        ("1/tau", "tau"),
        ("z/tau", "mu - tau"),
        ("z", "mu - tau"),
        ("u", "mu - tau"),
        ("z*(mu-tau)/(mu+tau)", "mu + tau"),
        ("z^-1*(mu+tau)/(mu-tau)", "mu - tau"),
    ],
)
def test_blowup_offending_factor(su2_standard, text, offending):
    # The first denominator factor of the translate that is not a block tau,
    # else the first one: the translate of z/tau has denominator tau*(mu - tau).
    # The last two are not regular, though their translates z and 1/z are,
    # so the element's own factor is reported.
    ring = su2_standard
    f = parse_expression(text, ring.factors)
    res = matter_membership(ring, f)
    assert not res.member
    assert format_polynomial(res.offending) == offending
    assert not translation_regular_by_division(ring, f)
    if text == "z/tau":
        translated = euler_translation(ring)(expand(ring, f))
        assert translated.denominator[0][0] == ring.tau_factor_index(0)


def test_member_set_closed_under_ring_ops(u1_pm1):
    ring = u1_pm1
    gens = [(n, ring.fraction(p)) for n, p in abelian_matter_generators(ring, 2)]
    rng = random.Random(73)
    for _ in range(40):
        a = rand_member(rng, ring, gens)
        b = rand_member(rng, ring, gens)
        assert matter_membership(ring, a).member
        assert matter_membership(ring, a + b).member
        assert matter_membership(ring, a * b).member


def untranslation(ring):
    """The inverse of the Euler translation.  It sends a regular f to the
    element whose translate is f, which is mostly not regular itself."""
    return translate_by_section(ring, euler_section(ring.problem, ring).inverse())


def test_divisibility_oracle_equivalence(u1_pm1):
    ring = u1_pm1
    rng = random.Random(79)
    untranslate = untranslation(ring)
    rejected = 0
    for _ in range(200):
        f = rand_pure_element(rng, ring, zmax=3, degmax=3)
        assert matter_membership(ring, f).member == translation_regular_by_division(ring, f)
        g = untranslate(f)
        member = matter_membership(ring, g).member
        assert member == translation_regular_by_division(ring, g)
        rejected += not member
    assert rejected >= 150


def test_blowup_routes_agree(su2_standard):
    ring = su2_standard
    rng = random.Random(83)
    gens = standard_block_generators(ring)
    untranslate = untranslation(ring)
    rejected = 0
    for i in range(60):
        if i % 2:
            f = ring.fraction(rand_blowup_element(rng, ring, max_terms=3))
        else:
            f = rand_member(rng, ring, gens, size=2)
        assert matter_membership(ring, f).member == translation_regular_by_division(ring, f)
        if i % 2 == 0:
            # A block-tau denominator: regular exactly when its translate is.
            g = f / ring.fraction(ring.tau(0))
            assert matter_membership(ring, g).member == translation_regular_by_division(ring, g)
            # The translate of g is the member f.
            g = untranslate(f)
            member = matter_membership(ring, g).member
            assert member == translation_regular_by_division(ring, g)
            rejected += not member
    assert rejected >= 15


def test_membership_of_fraction_input(u1_pm1):
    ring = u1_pm1
    f = ring.fraction(ring.z(0)) / ring.fraction(ring.tau(0))
    res = matter_membership(ring, f)
    assert not res.member
    assert res.offending == ring.tau(0)


# --- generators -------------------------------------------------------------------


def test_abelian_generators_u1_pm1(u1_pm1):
    ring = u1_pm1
    gens = dict(abelian_matter_generators(ring, 1))
    assert set(gens) == {"mu", "tau", "x", "y"}
    assert gens["x"] == ring.z(0) * (ring.mu() - ring.tau(0))
    assert gens["y"] == ring.z(0) ** -1 * (ring.mu() + ring.tau(0))


def test_abelian_generators_single_weight():
    ring = ambient_table(CoulombProblem.make(1, 0, [(1,)]))
    gens = dict(abelian_matter_generators(ring, 1))
    assert gens["x"] == ring.z(0)
    assert gens["y"] == ring.z(0) ** -1 * (ring.mu() + ring.tau(0))


def test_abelian_generators_no_weights():
    ring = ambient_table(CoulombProblem.make(1, 0, []))
    gens = dict(abelian_matter_generators(ring, 1))
    assert gens["x"] == ring.z(0)
    assert gens["y"] == ring.z(0) ** -1


def test_all_generators_pass_membership(u1_pm1):
    ring = u1_pm1
    for name, g in abelian_matter_generators(ring, 3):
        assert matter_membership(ring, g).member, name


def test_generators_rank2():
    problem = CoulombProblem.make(2, 0, [(1, -1)])
    ring = ambient_table(problem)
    gens = dict(abelian_matter_generators(ring, 1))
    assert "g_1_m1" in gens and "g_m1_1" in gens
    for name, g in gens.items():
        assert matter_membership(ring, g).member, name


def test_zero_weight_contributes_mu_factor():
    ring = ambient_table(CoulombProblem.make(1, 0, [(0,), (1,)]))
    assert ring.mu() in ring.factors.factors
    # the zero weight never forces clearing
    assert matter_membership(ring, ring.z(0)).member
    res = matter_membership(ring, ring.z(0) ** -1)
    assert not res.member and res.offending == ring.mu() + ring.tau(0)


def test_repeated_weight_doubles_clearing():
    ring = ambient_table(CoulombProblem.make(1, 0, [(1,), (1,)]))
    psi = ring.mu() + ring.tau(0)
    assert matter_membership(ring, ring.z(0) ** -1 * psi ** 2).member
    assert not matter_membership(ring, ring.z(0) ** -1 * psi).member


def test_su2_doubled_weights_lift():
    ring = ambient_table(CoulombProblem.make(0, 1, [(2,), (-2,)]))
    eps = euler_translation(ring)
    lifted = eps.images["u"]
    expected_num = (
        ring.u(0) * (ring.mu() + ring.tau(0).scaled(2)) ** 2 + ring.mu().scaled(8)
    )
    assert lifted.numerator == expected_num
    assert lifted.denominator_polynomial() == (ring.mu() - ring.tau(0).scaled(2)) ** 2
    # the standard-representation generator is not a member of this branch
    assert not matter_membership(ring, ring.mu() * ring.u(0) - ring.z(0)).member


def test_unstable_su2_weights_fail_to_lift():
    ring = ambient_table(CoulombProblem.make(0, 1, [(1,)]))
    with pytest.raises(MorphismError):
        euler_translation(ring)


def test_rank2_presentation_relations_vanish():
    problem = CoulombProblem.make(2, 0, [(1, -1), (-1, 1)])
    ring = ambient_table(problem)
    gens = [(n, ring.fraction(p)) for n, p in abelian_matter_generators(ring, 1)]
    pres = matter_presentation(ring, gens)
    assert pres.relations
    t = pres.table
    # the opposite-sector product relation, with its doubled clearing,
    # lies in the relation ideal
    diff = t.var("mu") ** 2 - (t.var("tau1") - t.var("tau2")) ** 2
    target = t.var("g_1_m1") * t.var("g_m1_1") - diff * diff
    gb = buchberger(Ideal(t, pres.relations), GREVLEX)
    assert gb.contains(target)
    for rel in pres.relations:
        value = evaluate_tags(rel.transfer(t), list(pres.generators))
        assert expand(ring, value).is_zero


# --- presentations of the matter subring ------------------------------------------


def u1_generator_list(ring):
    x = ring.fraction(ring.z(0) * (ring.mu() - ring.tau(0)))
    y = ring.fraction(ring.z(0) ** -1 * (ring.mu() + ring.tau(0)))
    return [
        ("x", x),
        ("y", y),
        ("mu", ring.fraction(ring.mu())),
        ("tau", ring.fraction(ring.tau(0))),
    ]


def test_matter_presentation_u1(u1_pm1):
    ring = u1_pm1
    pres = matter_presentation(ring, u1_generator_list(ring))
    t = pres.table
    expected = t.var("x") * t.var("y") - t.var("mu") ** 2 + t.var("tau") ** 2
    assert pres.relations == (expected,)
    assert format_polynomial(expected) == "x*y - mu^2 + tau^2"


def test_matter_presentation_pure_torus():
    ring = ambient_table(CoulombProblem.make(1, 0, []))
    gens = [
        ("z", ring.fraction(ring.z(0))),
        ("z_inv", ring.fraction(ring.z(0) ** -1)),
        ("mu", ring.fraction(ring.mu())),
        ("tau", ring.fraction(ring.tau(0))),
    ]
    pres = matter_presentation(ring, gens)
    t = pres.table
    assert pres.relations == (t.var("z") * t.var("z_inv") - 1,)


def test_matter_presentation_rejects_non_member(u1_pm1):
    ring = u1_pm1
    with pytest.raises(AlgebraError):
        matter_presentation(ring, [("z", ring.fraction(ring.z(0)))])


def test_matter_presentation_relations_vanish_su2(su2_standard):
    ring = su2_standard
    pres = matter_presentation(ring, standard_block_generators(ring))
    assert pres.table.names[:3] == ("s_x", "w", "mu")
    for rel in pres.relations:
        value = evaluate_tags(rel.transfer(pres.table), list(pres.generators))
        assert expand(ring, value).is_zero
    # the cross term xy = mu*w + 1 appears through the symmetrized tags
    t = pres.table
    assert t.var("w") * t.var("mu") - t.var("s_x_y") + 1 in pres.relations


# --- the mu = 0 fiber ---------------------------------------------------------------


def test_mu_zero_fiber_u1(u1_pm1):
    ring = u1_pm1
    pres = matter_presentation(ring, u1_generator_list(ring))
    fiber = mu_zero_fiber(pres)
    t = fiber.table
    assert t.names == ("x", "y", "tau")
    assert fiber.relations == (t.var("x") * t.var("y") + t.var("tau") ** 2,)


def test_mu_zero_commutes_with_kernel(u1_pm1):
    ring = u1_pm1
    gens = u1_generator_list(ring)
    first = mu_zero_fiber(matter_presentation(ring, gens))
    specialized = [
        (n, ring.fraction(set_mu_zero(g))) for n, g in gens if n != "mu"
    ]
    second = ring_map_kernel(specialized)
    assert first.relations == tuple(
        r.transfer(first.table) for r in second.generators
    )


def test_mu_zero_pure_branch_unchanged(su2_standard):
    pres = blowup_presentation(su2_standard.problem)
    fiber = mu_zero_fiber(pres)
    assert len(fiber.relations) == 1
    assert format_polynomial(fiber.relations[0]) == "tau*u - z + 1"


def test_set_mu_zero_element(u1_pm1):
    ring = u1_pm1
    x = ring.z(0) * (ring.mu() - ring.tau(0))
    assert set_mu_zero(x) == -ring.z(0) * ring.tau(0)


def test_mu_zero_requires_mu(u1_pm1):
    ring = u1_pm1
    pres = matter_presentation(ring, u1_generator_list(ring))
    with pytest.raises(AlgebraError):
        mu_zero_fiber(mu_zero_fiber(pres))


# --- the integrable-system base ------------------------------------------------------


def test_toda_base_su2(su2_standard):
    ring = su2_standard
    assert toda_base_membership(ring, ring.tau(0) ** 2)
    assert not toda_base_membership(ring, ring.tau(0))
    assert not toda_base_membership(ring, ring.z(0))
    assert toda_base_membership(ring, ring.mu() * ring.tau(0) ** 2 + ring.mu())


def test_toda_base_torus(torus2):
    ring = torus2
    assert toda_base_membership(ring, ring.mu() * ring.tau(0))
    assert not toda_base_membership(ring, ring.z(0) * ring.tau(0))
