"""Exact polynomial arithmetic and exact division."""

import random
from fractions import Fraction

import pytest

from coulombalg import ExactPolynomial, VariableTable, exact_divide, poly
from coulombalg.poly import divide_out
from conftest import rand_polynomial

TABLE = VariableTable.make([("mu", False), ("tau", False), ("u", False), ("z", True)])
mu, tau, u, z = (TABLE.var(n) for n in ("mu", "tau", "u", "z"))


def test_difference_of_squares():
    assert (z - 1) * (z + 1) == z * z - 1


def test_addition_cancels():
    assert (mu + tau) + (mu - tau) == mu.scaled(2)


def test_product_of_terms():
    assert (tau * u) * (tau * u) == tau ** 2 * u ** 2


def test_table_mismatch_raises():
    other = VariableTable.make([("a", False)])
    with pytest.raises(Exception):
        mu + other.var("a")


def test_laurent_inverse_cancels():
    assert z * z ** -1 == TABLE.one()


def test_negative_exponent_needs_laurent_flag():
    with pytest.raises(ValueError):
        ExactPolynomial(TABLE, {(0, -1, 0, 0): Fraction(1)})


def test_exact_divide_examples():
    assert exact_divide(z * z - 1, z - 1) == z + 1
    assert exact_divide(mu * mu - tau * tau, mu - tau) == mu + tau
    assert exact_divide((z - 1) * (z + 1), tau) is None


def test_exact_divide_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        exact_divide(z, TABLE.zero())


def test_exact_divide_laurent():
    # the quotient may use negative exponents
    p = (mu + tau) * z ** -2
    assert exact_divide(p, mu + tau) == z ** -2
    assert exact_divide(p, z ** 3) == (mu + tau) * z ** -5


def test_exact_divide_roundtrip_random():
    rng = random.Random(20260810)
    done = 0
    while done < 200:
        q = rand_polynomial(rng, TABLE)
        d = rand_polynomial(rng, TABLE)
        if q.is_zero or d.is_zero:
            continue
        assert exact_divide(q * d, d) == q
        done += 1


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(100):
        a = rand_polynomial(rng, TABLE)
        b = rand_polynomial(rng, TABLE)
        c = rand_polynomial(rng, TABLE)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_sorted_terms_descending():
    p = tau ** 2 - mu ** 2 + z
    monos = [m for m, _ in p.sorted_terms()]
    assert monos == sorted(monos, reverse=True)
    # mu is the most significant variable
    assert monos[0] == (2, 0, 0, 0)


def test_sector_split_groups_by_z():
    p = z * (mu - tau) + z ** -1 * (mu + tau) + mu
    sectors = p.sector_split([TABLE.index("z")])
    assert sectors[(1,)] == mu - tau
    assert sectors[(-1,)] == mu + tau
    assert sectors[(0,)] == mu


def test_assign_zero():
    p = mu * z + tau
    assert p.assign_zero(TABLE.index("mu")) == tau
    with pytest.raises(ZeroDivisionError):
        (z ** -1).assign_zero(TABLE.index("z"))


def test_assign_polynomial():
    p = z ** 2 + tau * z
    image = p.assign_polynomial(TABLE.index("z"), TABLE.one() + tau * u)
    expected = (TABLE.one() + tau * u) ** 2 + tau * (TABLE.one() + tau * u)
    assert image == expected


@pytest.fixture
def division_calls(monkeypatch):
    """Count the trial divisions ``divide_out`` makes."""
    calls = []

    def counted(p, d):
        calls.append(d)
        return exact_divide(p, d)

    monkeypatch.setattr(poly, "exact_divide", counted)
    return calls


def test_divide_out_stops_at_limit(division_calls):
    assert divide_out(tau ** 3 * (mu + 1), tau, 2) == (tau * (mu + 1), 2)
    assert len(division_calls) == 2


def test_divide_out_stops_at_first_failed_division(division_calls):
    assert divide_out(tau ** 3 * (mu + 1), tau, 5) == (mu + 1, 3)
    assert len(division_calls) == 4
    assert divide_out(mu + 1, tau, 2) == (mu + 1, 0)
    assert len(division_calls) == 5


def test_divide_out_without_limit(division_calls):
    assert divide_out(z * (mu - tau) ** 4, mu - tau) == (z, 4)
    assert len(division_calls) == 5


def test_transfer_by_name():
    small = VariableTable.make([("tau", False), ("mu", False)])
    p = mu + tau
    moved = p.transfer(small)
    assert moved == small.var("mu") + small.var("tau")
    with pytest.raises(KeyError):
        (mu + z).transfer(small)


def test_power_negative_monomial_only():
    assert (z ** 2) ** -3 == z ** -6
    with pytest.raises(ValueError):
        (z + 1) ** -1
