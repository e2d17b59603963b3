"""Substitution morphisms and the homomorphism law."""

import random

import pytest

from coulombalg import (
    FactoredFraction,
    FactorSet,
    MorphismError,
    RingMorphism,
    VariableTable,
    coulomb,
    fracs,
    identity_morphism,
    shmodel,
)
from coulombalg.fracs import factor_decompose
from conftest import benchmark_workloads, rand_polynomial, reference_apply, same_value

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
    # tau -> z - 1 cannot transport a 1/tau denominator
    m = RingMorphism(SRC, FS, {"tau": FS.from_polynomial(z - 1)})
    bad = FactoredFraction(FS, z, ((FS.index_of(tau), 1),))
    with pytest.raises(MorphismError):
        m(bad)


def test_denominator_factor_mapped_to_zero(u1_pm1):
    # mu -> tau sends the factor mu - tau of a denominator to zero.
    F = u1_pm1.factors
    m = RingMorphism(u1_pm1.table, F, {"mu": F.var("tau")})
    with pytest.raises(MorphismError, match="maps outside the multiplicative set"):
        m(F.one() / (F.var("mu") - F.var("tau")))


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
    """Every polynomial a morphism applies over the first seed-1 round of each
    query workload, checked against the term-by-term route."""
    workloads = benchmark_workloads()
    apply = RingMorphism.apply_polynomial
    checked = {}

    def compared(self, p):
        value, expected = apply(self, p), reference_apply(self, p)
        assert value == expected and same_value(value, expected)
        checked[id(self)] = self
        return value

    monkeypatch.setattr(RingMorphism, "apply_polynomial", compared)
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
