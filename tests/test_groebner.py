"""Buchberger bases, normal forms, kernels, subalgebra membership."""

import random
from fractions import Fraction

import pytest

from coulombalg import (
    GREVLEX,
    LEX,
    FactoredFraction,
    FactorSet,
    GroebnerBasis,
    Ideal,
    VariableTable,
    buchberger,
    elimination_order,
    evaluate_tags,
    ring_map_kernel,
)
from conftest import divide, is_groebner_basis, rand_polynomial, subalgebra_membership

# Encoded (Laurent-free) table: z with partner zi, then tau, u, mu.
ENC = VariableTable.make(
    [("z", False), ("zi", False), ("tau", False), ("u", False), ("mu", False)]
)
z, zi, tau, u, mu = (ENC.var(n) for n in ("z", "zi", "tau", "u", "mu"))
PAIRING = z * zi - 1
BLOWUP = tau * u - z + 1


def test_single_generator_already_reduced():
    gb = buchberger(Ideal(ENC, (PAIRING,)), LEX)
    assert gb.basis == (PAIRING,)


def test_blowup_plus_pairing_basis():
    gb = buchberger(Ideal(ENC, (BLOWUP, PAIRING)), GREVLEX)
    assert 2 <= len(gb.basis) <= 3
    assert gb.contains((z - 1) - tau * u)


def test_normal_form_examples():
    gb = buchberger(Ideal(ENC, (PAIRING,)), GREVLEX)
    assert gb.reduce(z ** 2 * zi - z).is_zero

    gb2 = buchberger(Ideal(ENC, (PAIRING, BLOWUP, tau ** 2)), GREVLEX)
    # (z-1)^2 = (tau*u)^2 lies in the ideal
    assert gb2.reduce((z - 1) ** 2).is_zero
    assert not gb2.reduce(z - 1).is_zero
    # confirm under an independent order
    gb2_lex = buchberger(Ideal(ENC, (PAIRING, BLOWUP, tau ** 2)), LEX)
    assert gb2_lex.reduce((z - 1) ** 2).is_zero
    assert not gb2_lex.reduce(z - 1).is_zero


def test_cofactor_tracking_random_members():
    """The test-side division's remainder is the normal form, members or not.

    The remainder modulo a Groebner basis is unique (Cox, Little & O'Shea,
    Prop. 2.6.1), so plain division and ``reduce`` must agree.  Reduction
    divides by each lead coefficient, so a rescaled basis agrees too.
    """
    rng = random.Random(31)
    gens = (PAIRING, BLOWUP, tau ** 2)
    gb = buchberger(Ideal(ENC, gens), GREVLEX)
    rescaled = GroebnerBasis(ENC, GREVLEX, tuple(g.scaled(Fraction(-3, 2)) for g in gb.basis))
    nonzero = 0
    for trial in range(100):
        p = ENC.zero()
        for g in gb.basis:
            p = p + rand_polynomial(rng, ENC, max_terms=2, max_degree=2, height=4) * g
        if trial % 2:
            p = p + rand_polynomial(rng, ENC, max_terms=3, max_degree=2, height=4)
        remainder, cofactors = divide(p, gb.basis, GREVLEX)
        rebuilt = remainder
        for c, g in zip(cofactors, gb.basis):
            rebuilt = rebuilt + c * g
        assert rebuilt == p
        assert remainder == gb.reduce(p) == rescaled.reduce(p)
        assert remainder.is_zero or trial % 2
        nonzero += not remainder.is_zero
    assert nonzero > 25


@pytest.mark.parametrize(
    "order", [GREVLEX, LEX, elimination_order(1)], ids=["grevlex", "lex", "eliminate-1"]
)
def test_integer_reduction_matches_plain_division(order):
    """Reduction runs on integer numerators over one denominator and scales
    the work when a lead's integer coefficient does not divide the term's
    numerator.  Random bases of non-integer, non-monic elements (not
    Groebner bases: division by any sequence is defined) make it scale
    often; ``conftest.divide`` divides over ``Fraction``s, choosing the same
    first dividing lead, and must leave the same remainder."""
    rng = random.Random(20261019)
    table = VariableTable.make([("a", False), ("b", False), ("c", False)])
    nonzero = 0
    for _ in range(60):
        basis, size = [], rng.randint(1, 3)
        while len(basis) < size:
            g = rand_polynomial(rng, table, max_terms=3, max_degree=2, height=6)
            if not g.is_zero and not g.is_constant:
                basis.append(g)
        p = rand_polynomial(rng, table, max_terms=5, max_degree=4, height=6)
        reduced = GroebnerBasis(table, order, tuple(basis)).reduce(p)
        assert reduced == divide(p, basis, order)[0]
        assert all(type(c) is Fraction and c for c in reduced.terms.values())
        nonzero += not reduced.is_zero
    assert nonzero > 20


def test_integer_reduction_fixed_cases():
    table = VariableTable.make([("x", False), ("y", False)])
    x, y = table.var("x"), table.var("y")
    # Each of the three steps divides a numerator by the lead coefficient 2.
    assert GroebnerBasis(table, GREVLEX, (2 * x - 1,)).reduce(x ** 3) == Fraction(1, 8)
    # x**4 leaves for the remainder before the steps on y**3 scale the work
    # and its denominator: dividing it by the final denominator would give
    # x**4 / 8.
    gb = GroebnerBasis(table, GREVLEX, (2 * y - 1,))
    assert gb.reduce(x ** 4 + y ** 3) == x ** 4 + Fraction(1, 8)


def test_two_orders_same_ideal():
    gens = (PAIRING, BLOWUP, tau ** 2 - mu * tau)
    a = buchberger(Ideal(ENC, gens), GREVLEX)
    b = buchberger(Ideal(ENC, gens), LEX)
    for g in a.basis:
        assert b.reduce(g).is_zero
    for g in b.basis:
        assert a.reduce(g).is_zero


@pytest.mark.parametrize(
    "order",
    [elimination_order(1), elimination_order(2), LEX],
    ids=["eliminate-1", "eliminate-2", "lex"],
)
def test_sugar_route_random_ideals(order):
    """Every order but GREVLEX selects pairs by sugar.  Each basis passes the
    test-side check and spans the same ideal as the GREVLEX basis, which
    keeps the normal strategy: plain division reduces each element of one
    basis to zero by the other."""
    rng = random.Random(20261018)
    table = VariableTable.make([("a", False), ("b", False), ("c", False)])
    nontrivial = 0
    for _ in range(20):
        gens = [rand_polynomial(rng, table, max_terms=4, max_degree=2, height=4) for _ in range(3)]
        ideal = Ideal(table, tuple(g for g in gens if not g.is_zero))
        gb, reference = buchberger(ideal, order), buchberger(ideal, GREVLEX)
        assert is_groebner_basis(gb)
        assert all(divide(g, reference.basis, GREVLEX)[0].is_zero for g in gb.basis)
        assert all(divide(g, gb.basis, order)[0].is_zero for g in reference.basis)
        nontrivial += len(gb.basis) > 1
    assert nontrivial > 10


def test_elimination_contains_xy_relation():
    # x - z(mu - tau), y - zi(mu + tau); eliminate z, zi only
    table = VariableTable.make(
        [("z", False), ("zi", False), ("x", False), ("y", False), ("mu", False), ("tau", False)]
    )
    tz, tzi, tx, ty, tmu, ttau = (table.var(n) for n in table.names)
    gens = (tz * tzi - 1, tx - tz * (tmu - ttau), ty - tzi * (tmu + ttau))
    gb = buchberger(Ideal(table, gens), elimination_order(2))
    assert gb.reduce(tx * ty - tmu ** 2 + ttau ** 2).is_zero


def test_determinism():
    gens = (BLOWUP, PAIRING, tau ** 2 - mu * tau)
    a = buchberger(Ideal(ENC, gens), GREVLEX)
    b = buchberger(Ideal(ENC, gens), GREVLEX)
    assert a.basis == b.basis


def test_laurent_exponents_rejected():
    lt = VariableTable.make([("z", True)])
    with pytest.raises(ValueError):
        Ideal(lt, (lt.var("z") ** -1,))


def test_reduce_rejects_laurent_input():
    lt = VariableTable.make([("z", True)])
    gb = buchberger(Ideal(lt, (lt.var("z") - 1,)), GREVLEX)
    assert gb.reduce(lt.var("z") ** 2).is_constant
    with pytest.raises(ValueError, match="Laurent exponents"):
        gb.reduce(lt.var("z") ** -1 + 1)


# --- kernels ----------------------------------------------------------------

SRC = VariableTable.make([("mu", False), ("tau", False), ("z", True)])
smu, stau, sz = (SRC.var(n) for n in ("mu", "tau", "z"))
FS = FactorSet(SRC, (stau, smu + stau, smu - stau, sz))


def test_kernel_weight_pair():
    images = [
        ("x", FS.from_polynomial(sz * (smu - stau))),
        ("y", FS.from_polynomial(sz ** -1 * (smu + stau))),
        ("m", FS.from_polynomial(smu)),
        ("t", FS.from_polynomial(stau)),
    ]
    ideal = ring_map_kernel(images)
    t = ideal.table
    expected = t.var("x") * t.var("y") - t.var("m") ** 2 + t.var("t") ** 2
    assert ideal.generators == (expected,)


def test_kernel_inverse_pair():
    images = [("a", FS.var("z")), ("b", FS.var("z") ** -1)]
    ideal = ring_map_kernel(images)
    t = ideal.table
    assert ideal.generators == (t.var("a") * t.var("b") - 1,)


def test_kernel_symmetric_functions():
    images = [
        ("a", FS.var("z") + FS.var("z") ** -1),
        ("b", FS.from_polynomial(stau) * (FS.var("z") - FS.var("z") ** -1)),
        ("c", FS.from_polynomial(stau * stau)),
    ]
    ideal = ring_map_kernel(images)
    t = ideal.table
    expected = t.var("a") ** 2 * t.var("c") - t.var("b") ** 2 - t.var("c") * 4
    assert ideal.generators == (expected,)


def test_kernel_generators_vanish():
    images = [
        ("x", FS.from_polynomial(sz * (smu - stau))),
        ("y", FS.from_polynomial(sz ** -1 * (smu + stau))),
        ("m", FS.from_polynomial(smu)),
        ("t", FS.from_polynomial(stau)),
    ]
    ideal = ring_map_kernel(images)
    for g in ideal.generators:
        assert evaluate_tags(g, images).is_zero


def test_kernel_with_cleared_denominator():
    # a -> 1/(mu - tau), b -> mu - tau satisfy a*b = 1
    inv = FactoredFraction(FS, SRC.one(), ((FS.index_of(smu - stau), 1),))
    images = [("a", inv), ("b", FS.from_polynomial(smu - stau))]
    ideal = ring_map_kernel(images)
    t = ideal.table
    assert ideal.generators == (t.var("a") * t.var("b") - 1,)


# --- subalgebra membership -----------------------------------------------------


def u1_generators():
    return [
        ("x", FS.from_polynomial(sz * (smu - stau))),
        ("y", FS.from_polynomial(sz ** -1 * (smu + stau))),
        ("mu", FS.from_polynomial(smu)),
        ("tau", FS.from_polynomial(stau)),
    ]


def test_membership_square_of_generator():
    f = FS.from_polynomial((sz * (smu - stau)) ** 2)
    result = subalgebra_membership(f, u1_generators())
    assert result.expressible
    t = result.tag_table
    assert result.witness == t.var("x") ** 2
    assert evaluate_tags(result.witness, u1_generators()) == f


def test_membership_rejects_bare_z():
    result = subalgebra_membership(FS.var("z"), u1_generators())
    assert not result.expressible


def test_membership_blowup_element():
    # w = mu*u*v - u - v with v = u/z, over chart generators including mu
    table = VariableTable.make([("mu", False), ("tau", False), ("u", False), ("z", True)])
    bmu, btau, bu, bz = (table.var(n) for n in ("mu", "tau", "u", "z"))
    fs = FactorSet(table, (btau, bmu + btau, bmu - btau, bz))
    relation = btau * bu - bz + 1
    v = bu * bz ** -1
    w = bmu * bu * v - bu - v
    gens = [
        ("z", fs.var("z")),
        ("z_inv", fs.var("z") ** -1),
        ("tau", fs.from_polynomial(btau)),
        ("u", fs.from_polynomial(bu)),
        ("mu", fs.from_polynomial(bmu)),
    ]
    result = subalgebra_membership(fs.from_polynomial(w), gens, ambient_relations=(relation,))
    assert result.expressible
    assert evaluate_tags(result.witness, gens) == fs.from_polynomial(w)


def test_witness_reevaluates_random():
    rng = random.Random(41)
    gens = u1_generators()
    for _ in range(20):
        # random polynomial in the generators
        f = FS.zero()
        for _ in range(rng.randint(1, 3)):
            term = FS.constant(rng.randint(1, 5))
            for _ in range(rng.randint(1, 3)):
                term = term * gens[rng.randrange(len(gens))][1]
            f = f + term
        result = subalgebra_membership(f, gens)
        assert result.expressible
        assert evaluate_tags(result.witness, gens) == f


MONOMIALS = [
    (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 2), (1, 1, 0), (0, 2, 0),
    (2, 0, 0), (1, 0, 1), (0, 1, 1), (0, 0, 0), (1, 0, 2), (0, 2, 1),
]


@pytest.mark.parametrize(
    "order, expected",
    [
        (LEX, [(2, 0, 0), (1, 1, 0), (1, 0, 2), (1, 0, 1), (1, 0, 0), (0, 2, 1),
               (0, 2, 0), (0, 1, 1), (0, 1, 0), (0, 0, 2), (0, 0, 1), (0, 0, 0)]),
        (GREVLEX, [(0, 2, 1), (1, 0, 2), (2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1),
                   (0, 1, 1), (0, 0, 2), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]),
        (elimination_order(2),
         [(2, 0, 0), (1, 1, 0), (0, 2, 1), (0, 2, 0), (1, 0, 2), (1, 0, 1),
          (1, 0, 0), (0, 1, 1), (0, 1, 0), (0, 0, 2), (0, 0, 1), (0, 0, 0)]),
    ],
    ids=["lex", "grevlex", "eliminate-2"],
)
def test_monomial_order_keys(order, expected):
    assert sorted(MONOMIALS, key=order, reverse=True) == expected
