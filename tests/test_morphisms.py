"""Substitution morphisms and the homomorphism law."""

import random

import pytest

from coulombalg import (
    FactoredFraction,
    FactorSet,
    MorphismError,
    RingMorphism,
    VariableTable,
    identity_morphism,
)
from conftest import rand_polynomial

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


def test_composition():
    flip = RingMorphism(
        SRC, FS, {"z": FS.var("z") ** -1, "tau": FS.from_polynomial(-tau)}
    )
    both = flip.then(flip)
    p = z * (mu - tau) + z ** -1 * tau
    assert both(p) == FS.from_polynomial(p)
