"""Substitution morphisms and the homomorphism law."""

import random

import pytest

from coulombalg import (
    FactoredFraction,
    FactorSet,
    MorphismError,
    RingMorphism,
    VariableTable,
    ambient_table,
    coulomb,
    fracs,
    identity_morphism,
    load_problem,
    morphisms,
    parse_problem_text,
    shmodel,
)
from coulombalg.fracs import factor_decompose
from conftest import (
    ROOT,
    benchmark_workloads,
    rand_blowup_element,
    rand_coeff,
    rand_polynomial,
    reference_apply,
    reference_apply_fraction,
    reference_weyl_average,
    same_value,
)

SRC = VariableTable.make([("mu", False), ("tau", False), ("z", True)])
mu, tau, z = (SRC.var(n) for n in ("mu", "tau", "z"))
FS = FactorSet(SRC, (tau, mu + tau, mu - tau, z))

ETA = VariableTable.make([("mu", False), ("eta", False)])
emu, eta = ETA.var("mu"), ETA.var("eta")
EFS = FactorSet(ETA, (eta, emu + eta, emu - eta))


def test_identity():
    ident = identity_morphism(FS)
    p = z * (mu - tau) + tau ** 2
    assert ident(p) == FS.from_polynomial(p)


def test_translation_image_of_z():
    scale = FactoredFraction(FS, mu + tau, ((FS.index_of(mu - tau), 1),))
    m = RingMorphism(SRC, FS, {"z": FS.var("z") * scale})
    image = m(z)
    assert image.numerator == z * (mu + tau)
    assert image.denominator == ((FS.index_of(mu - tau), 1),)


def test_unit_maps_to_unit():
    scale = FactoredFraction(FS, mu + tau, ((FS.index_of(mu - tau), 1),))
    m = RingMorphism(SRC, FS, {"z": FS.var("z") * scale})
    assert m(z * z ** -1) == FS.one()


def test_cross_table_substitution_cancels():
    # z -> (mu+eta)/(mu-eta), tau -> eta applied to z*(mu - tau)
    zimg = FactoredFraction(EFS, emu + eta, ((EFS.index_of(emu - eta), 1),))
    m = RingMorphism(SRC, EFS, {"z": zimg, "tau": EFS.from_polynomial(eta)})
    image = m(z * (mu - tau))
    assert image.is_polynomial and image.numerator == emu + eta


def test_homomorphism_law_random():
    rng = random.Random(23)
    scale = FactoredFraction(FS, mu + tau, ((FS.index_of(mu - tau), 1),))
    m = RingMorphism(SRC, FS, {"z": FS.var("z") * scale})
    for _ in range(60):
        p = rand_polynomial(rng, SRC, max_terms=3, max_degree=2, height=5)
        q = rand_polynomial(rng, SRC, max_terms=3, max_degree=2, height=5)
        assert m(p * q) == m(p) * m(q)
        assert m(p + q) == m(p) + m(q)


def test_laurent_image_must_be_unit():
    with pytest.raises(MorphismError):
        RingMorphism(SRC, FS, {"z": FS.zero()})
    with pytest.raises(MorphismError):
        RingMorphism(SRC, FS, {"z": FS.from_polynomial(z - 1)})


def test_laurent_image_errors_name_the_fault():
    with pytest.raises(MorphismError, match="invertible variable 'z' mapped to zero"):
        RingMorphism(SRC, FS, {"z": FS.zero()})
    with pytest.raises(MorphismError, match="image of invertible variable 'z' is not a unit"):
        RingMorphism(SRC, FS, {"z": FS.from_polynomial(mu + 2 * tau)})


def test_denominator_factor_must_stay_in_set():
    # tau -> z - 1 cannot transport a 1/tau denominator, on any call.
    m = RingMorphism(SRC, FS, {"tau": FS.from_polynomial(z - 1)})
    bad = FactoredFraction(FS, z, ((FS.index_of(tau), 1),))
    text = ("denominator factor maps outside the multiplicative set: "
            "numerator is not a unit of the localization; cannot invert")
    for _ in range(2):
        with pytest.raises(MorphismError) as info:
            m(bad)
        assert str(info.value) == text


def test_denominator_factor_mapped_to_zero(u1_pm1):
    # mu -> tau sends the factor mu - tau of a denominator to zero, on any call.
    F = u1_pm1.factors
    m = RingMorphism(u1_pm1.table, F, {"mu": F.var("tau")})
    text = "denominator factor maps outside the multiplicative set: inverting the zero element"
    for _ in range(2):
        with pytest.raises(MorphismError) as info:
            m(F.one() / (F.var("mu") - F.var("tau")))
        assert str(info.value) == text


def test_composition():
    flip = RingMorphism(
        SRC, FS, {"z": FS.var("z") ** -1, "tau": FS.from_polynomial(-tau)}
    )
    both = flip.then(flip)
    p = z * (mu - tau) + z ** -1 * tau
    assert both(p) == FS.from_polynomial(p)


def counted_divisors(monkeypatch) -> list:
    """Record the divisor of every trial division ``FactorSet.divide`` makes
    from now on."""
    divisors = []
    divide = fracs.exact_divide

    def counted(p, d):
        divisors.append(d)
        return divide(p, d)

    monkeypatch.setattr(fracs, "exact_divide", counted)
    return divisors


def test_single_top_term_makes_no_trial_division(monkeypatch):
    # z -> z (mu+tau)/(mu-tau) on z^2 + z: only z^2 reaches (mu-tau)^2, so
    # the sum is prime to mu - tau without a trial.
    scale = FactoredFraction(FS, mu + tau, ((FS.index_of(mu - tau), 1),))
    m = RingMorphism(SRC, FS, {"z": FS.var("z") * scale})
    divisors = counted_divisors(monkeypatch)
    image = m(z ** 2 + z)
    assert divisors == []
    assert image.denominator == ((FS.index_of(mu - tau), 2),)
    assert image == reference_apply(m, z ** 2 + z)


def test_two_top_terms_that_cancel_the_factor_come_out_reduced(monkeypatch):
    # z -> z/(mu-tau) on mu z - tau z: both terms reach (mu-tau)^1, and
    # their sum is (mu - tau) z / (mu - tau) = z.
    m = RingMorphism(SRC, FS, {"z": FactoredFraction(FS, z, ((FS.index_of(mu - tau), 1),))})
    divisors = counted_divisors(monkeypatch)
    image = m(mu * z - tau * z)
    assert divisors == [mu - tau]
    assert image == FS.var("z") and image.denominator == ()


def test_residue_image_inside_a_sum(su2_standard):
    ring = su2_standard
    u, zz, t = ring.u(0), ring.z(0), ring.tau(0)
    p = u ** 2 * zz - 3 * u * t + zz ** -1 + 2 * u
    for m in (coulomb.expansion_morphism(ring), coulomb.euler_translation(ring)):
        image_of_u = m.images[ring.u_names[0]]
        assert factor_decompose(ring.factors, image_of_u.numerator)[3] is not None
        image, expected = m(p), reference_apply(m, p)
        assert image == expected and same_value(image, expected)


def test_term_through_zero_image_drops():
    zimg = FactoredFraction(FS, z, ((FS.index_of(mu - tau), 1),))
    m = RingMorphism(SRC, FS, {"tau": FS.zero(), "z": zimg})
    # The only term with a denominator drops, and with it the denominator.
    assert m(tau * z + mu) == FS.from_polynomial(mu)
    assert m(tau * (mu + tau)) == FS.zero()
    assert m(tau * z ** 2 + mu * z) == reference_apply(m, tau * z ** 2 + mu * z)


def test_factored_route_matches_reference_on_query_workloads(monkeypatch, fresh_caches):
    """Every polynomial and fraction a morphism applies, and every Weyl
    average, over the first seed-1 round of each query workload, checked
    against the term-by-term routes."""
    workloads = benchmark_workloads()
    apply, apply_fraction, reynolds = (
        RingMorphism.apply_polynomial, RingMorphism.apply_fraction, coulomb.reynolds
    )
    checked = {}
    averages = []

    def compared(route, reference):
        def wrapper(self, element):
            value, expected = route(self, element), reference(self, element)
            assert value == expected and same_value(value, expected)
            checked[id(self)] = self
            return value
        return wrapper

    def compared_average(ring, f):
        value = reynolds(ring, f)
        if not isinstance(f, FactoredFraction):
            f = ring.fraction(f)
        expanded = reference_apply_fraction(coulomb.expansion_morphism(ring), f)
        expected = reference_weyl_average(ring, expanded)
        assert value == expected and same_value(value, expected)
        averages.append(value)
        return value

    monkeypatch.setattr(RingMorphism, "apply_polynomial", compared(apply, reference_apply))
    monkeypatch.setattr(
        RingMorphism, "apply_fraction", compared(apply_fraction, reference_apply_fraction)
    )
    monkeypatch.setattr(coulomb, "reynolds", compared_average)
    requests = next(workloads.abelian_rounds(1, 108))
    requests += next(workloads.su2_rounds(1, workloads.su2_catalog(), 108))
    rings = {workloads.serve(req).ring for req in requests}
    kinds = {
        "section map": [shmodel.section_homomorphism_map(r) for r in rings],
        "Euler translation": [coulomb.euler_translation(r) for r in rings],
        "expansion": [coulomb.expansion_morphism(r) for r in rings],
        "Weyl": [w for r in rings for w in coulomb.weyl_group(r)[1:]],
    }
    for kind, morphisms in kinds.items():
        assert any(id(m) in checked for m in morphisms), kind
    assert averages


# ---------------------------------------------------------------------------
# Fractions through every chart morphism, against the reference routes
# ---------------------------------------------------------------------------


def chart_rings():
    """The three su2-chart problems and ``demos/problems/u1_pair.prob``."""
    texts = list(benchmark_workloads().SU2_PROBLEMS)
    problems = [parse_problem_text(t).problem() for t in texts]
    problems.append(load_problem(ROOT / "demos" / "problems" / "u1_pair.prob").problem())
    return [ambient_table(p) for p in problems]


def rand_chart_fraction(rng, ring, i):
    """A chart element over a random product of tau and weight-form factors;
    every fifth one zero or a constant."""
    if i % 5 == 0:
        num = ring.table.constant(0 if i % 10 == 0 else rand_coeff(rng) or 1)
    else:
        num = rand_blowup_element(rng, ring)
    table = ring.table
    denominators = [
        idx for idx, f in enumerate(ring.factors.factors)
        if not any(table.laurent[pos] for pos in ring.factors.variables[idx])
    ]
    powers = [(idx, rng.randint(1, 2)) for idx in rng.sample(denominators, rng.randint(0, 3))]
    return FactoredFraction(ring.factors, num, powers)


def chart_morphisms(ring):
    return [
        ("expansion", coulomb.expansion_morphism(ring)),
        ("Euler translation", coulomb.euler_translation(ring)),
        ("section map", shmodel.section_homomorphism_map(ring)),
        *((f"Weyl {i}", w) for i, w in enumerate(coulomb.weyl_group(ring))),
        *((f"composite {i}", c) for i, c in enumerate(coulomb._expanded_weyl_group(ring))),
    ]


def test_fractions_match_reference_through_chart_morphisms():
    rng = random.Random(31)
    fractions = 0
    for ring in chart_rings():
        morphisms_ = chart_morphisms(ring)
        for i in range(50):
            f = rand_chart_fraction(rng, ring, i)
            fractions += 1
            for kind, m in morphisms_:
                value, expected = m(f), reference_apply_fraction(m, f)
                assert value == expected and same_value(value, expected), (kind, f)
    assert fractions >= 200


def test_weyl_averages_match_reference():
    rng = random.Random(37)
    for ring in chart_rings():
        expansion = coulomb.expansion_morphism(ring)
        for i in range(50):
            f = rand_chart_fraction(rng, ring, i)
            expanded = reference_apply_fraction(expansion, f)
            expected = reference_weyl_average(ring, expanded)
            for value in (coulomb.reynolds(ring, f), coulomb.reynolds(ring, expanded)):
                assert value == expected and same_value(value, expected), f


def test_second_application_makes_no_unit_decomposition(monkeypatch, su2_standard):
    ring = su2_standard
    m = RingMorphism(ring.table, ring.factors, {})  # a fresh, empty record
    f = FactoredFraction(ring.factors, ring.u(0), [(idx, 1) for idx in range(3)])
    calls = []
    decompose = morphisms.unit_decompose

    def counted(factors, p):
        calls.append(p)
        return decompose(factors, p)

    monkeypatch.setattr(morphisms, "unit_decompose", counted)
    first = m(f)
    assert len(calls) == 3
    assert m(f) == first and len(calls) == 3


def test_fraction_over_reordered_factor_set():
    # The record is filled from FS; an element over the same factors in
    # another order must not read FS's indices.
    scale = FactoredFraction(FS, mu + tau, ((FS.index_of(mu - tau), 1),))
    m = RingMorphism(SRC, FS, {"z": FS.var("z") * scale, "tau": FS.from_polynomial(-tau)})
    reordered = FactorSet(SRC, tuple(reversed(FS.factors)))
    num = z * mu + tau ** 2
    powers = ((tau, 1), (mu + tau, 2), (mu - tau, 1))
    f = FactoredFraction(FS, num, [(FS.index_of(d), e) for d, e in powers])
    g = FactoredFraction(reordered, num, [(reordered.index_of(d), e) for d, e in powers])
    for h in (f, g, f, g):
        value, expected = m(h), reference_apply_fraction(m, h)
        assert value == expected and same_value(value, expected)


def test_fractions_through_units_with_denominators_and_monomials():
    # tau -> 3 z^2 tau (mu + tau) / (mu - tau): the image of a 1/tau^e
    # denominator carries a coefficient, a monomial and a denominator.
    image = FactoredFraction(FS, 3 * z ** 2 * tau * (mu + tau), ((FS.index_of(mu - tau), 1),))
    m = RingMorphism(SRC, FS, {"tau": image})
    rng = random.Random(41)
    for _ in range(40):
        num = rand_polynomial(rng, SRC, max_terms=3, max_degree=2, height=5)
        f = FactoredFraction(FS, num, ((FS.index_of(tau), rng.randint(0, 3)),))
        value, expected = m(f), reference_apply_fraction(m, f)
        assert value == expected and same_value(value, expected)
