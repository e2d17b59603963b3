"""Exact polynomial arithmetic and exact division."""

import random
from fractions import Fraction
from math import gcd

import pytest

from coulombalg import ExactPolynomial, FactorSet, VariableTable, exact_divide, fracs, groebner, poly
from conftest import benchmark_workloads, rand_polynomial, reference_divide

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


FACTORS = FactorSet(TABLE, (tau, mu - tau))


@pytest.fixture
def division_calls(monkeypatch):
    """Record the divisor of each trial division ``FactorSet.divide`` makes."""
    calls = []

    def counted(p, d):
        calls.append(d)
        return exact_divide(p, d)

    monkeypatch.setattr(fracs, "exact_divide", counted)
    return calls


def test_divide_stops_at_limit(division_calls):
    assert FACTORS.divide(tau ** 3 * (mu + 1), {0: 2}) == (tau * (mu + 1), {})
    assert len(division_calls) == 2


def test_divide_stops_at_first_failed_division(division_calls):
    assert FACTORS.divide(tau ** 3 * (mu + tau), {0: 5}) == (mu + tau, {0: 2})
    assert len(division_calls) == 4
    assert FACTORS.divide((mu + tau) * (mu - tau) ** 2, {1: None}) == (mu + tau, {1: -2})
    assert len(division_calls) == 7


def test_divide_without_limit(division_calls):
    assert FACTORS.divide(z * (mu - tau) ** 4 * (mu + 1), {1: None}) == (z * (mu + 1), {1: -4})
    assert len(division_calls) == 4


def test_divide_skips_quotients_without_the_factor_variables(division_calls):
    # Each quotient below has lost a variable of the form, or is a unit
    # monomial, so the trial that would follow each last division could
    # only fail and is not made.
    assert FACTORS.divide(tau ** 3 * (mu + 1), {0: 5}) == (mu + 1, {0: 2})
    assert FACTORS.divide(z * (mu - tau) ** 4, {1: None}) == (z, {1: -4})
    assert len(division_calls) == 7
    # After tau goes, only tau is looked for again: mu - tau still has it.
    division_calls.clear()
    assert FACTORS.divide(tau * (mu - tau), {0: None, 1: None}) == (TABLE.one(), {0: -1, 1: -1})
    assert division_calls == [tau, tau, mu - tau]
    # No declared factor is tried on a polynomial lacking its variables.
    division_calls.clear()
    assert FACTORS.divide(mu + 1, {0: 2, 1: None}) == (mu + 1, {0: 2})
    assert FACTORS.divide(z ** 2, {0: 1, 1: 1}) == (z ** 2, {0: 1, 1: 1})
    assert division_calls == []


def test_transfer_by_name():
    small = VariableTable.make([("tau", False), ("mu", False)])
    p = mu + tau
    moved = p.transfer(small)
    assert moved == small.var("mu") + small.var("tau")
    with pytest.raises(KeyError):
        (mu + z).transfer(small)


def test_power_does_not_multiply_by_one(monkeypatch):
    products = []
    multiply = ExactPolynomial.__mul__

    def counted(a, b):
        products.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(ExactPolynomial, "__mul__", counted)
    assert (mu + 1) ** 0 == TABLE.one() and (mu + 1) ** 1 == mu + 1
    assert (mu + 1) ** 5 == (mu + 1) * (mu + 1) * (mu + 1) * (mu + 1) * (mu + 1)
    products.clear()
    (mu + 1) ** 5
    assert len(products) == 3  # square, fourth power, fourth power times base
    assert all(TABLE.one() not in pair for pair in products)


def test_power_negative_monomial_only():
    assert (z ** 2) ** -3 == z ** -6
    with pytest.raises(ValueError):
        (z + 1) ** -1


# --- the non-divisibility certificate -----------------------------------------

PRIME = 2 ** 61 - 1


def certificate(p, d):
    """``_value_on_zero_set`` on p and d, prepared as ``exact_divide`` prepares them."""
    dividend, _ = poly._integer_terms(p)
    divisor, _ = poly._integer_terms(d)
    content = gcd(*(n for _, n in divisor))
    primitive = [(m, n // content) for m, n in divisor]
    return poly._value_on_zero_set(dividend, primitive, p.table.laurent)


def rand_divisor(rng):
    """A single variable, z - 1, or a linear form with coefficients in [-2, 2]."""
    kind = rng.randrange(4)
    if kind == 0:
        return TABLE.var(rng.choice(("mu", "tau", "u")))
    if kind == 1:
        return z - 1
    while True:
        form = TABLE.linear_form(
            {name: rng.randint(-2, 2) for name in ("mu", "tau", "u")},
            rng.randint(-2, 2) if kind == 3 else 0,
        )
        if not form.is_constant:
            return form


def test_certificate_agrees_with_long_division():
    rng = random.Random(20261018)
    divisible = failed = 0
    while divisible < 150 or failed < 150:
        d = rand_divisor(rng)
        q = rand_polynomial(rng, TABLE)
        if q.is_zero:
            continue
        p = q * d
        if rng.random() < 0.5:
            p = p + rand_polynomial(rng, TABLE)
        if p.is_zero:
            continue
        expected = reference_divide(p, d)
        assert exact_divide(p, d) == expected
        value = certificate(p, d)
        if expected is None:
            assert value, f"failure of {d!r} | {p!r} not decided by the certificate"
            failed += 1
        else:
            assert not value, f"certificate fired on a divisible pair {d!r} | {p!r}"
            divisible += 1


def test_certificate_point_is_off_shared_lines():
    # Both forms vanish at (2c, 3c, 4c) for every c, so a point on that
    # progression cannot tell them apart; the cubed residues can.
    table = VariableTable.make([("mu", False), ("eta1", False), ("eta2", False)])
    mu_, eta1, eta2 = (table.var(n) for n in table.names)
    p = mu_ - 2 * eta1 + eta2
    d = mu_ + 2 * eta1 - 2 * eta2
    for form in (p, d):
        assert sum(c * (mono.index(1) + 2) for mono, c in form.terms.items()) == 0
    assert certificate(p, d)
    assert certificate(d, p)
    assert exact_divide(p, d) is None


@pytest.mark.parametrize(
    "p, d, quotient",
    [
        # a coefficient of p with denominator P: the cleared numerators are integral
        ((mu + tau) * (u + Fraction(1, PRIME)), mu + tau, u + Fraction(1, PRIME)),
        (u + Fraction(1, PRIME), mu + tau, None),
        # the integer content of d is a multiple of P; its primitive part is not
        ((PRIME * mu + PRIME * tau) * (u - 1), PRIME * mu + PRIME * tau, u - 1),
        ((mu + tau) * u + 1, PRIME * mu + PRIME * tau, None),
        # Laurent dividends with negative exponents, evaluated unshifted
        ((mu - 2 * z) * (z ** -3 + tau * z ** -1), mu - 2 * z, z ** -3 + tau * z ** -1),
        (z ** -3 + mu * z ** -1, mu - 2 * z, None),
        ((z - 1) * (mu * z ** -2 + 3), z - 1, mu * z ** -2 + 3),
        (z ** -2 + 1, z - 1, None),
    ],
)
def test_certificate_decides(p, d, quotient):
    value = certificate(p, d)
    assert value is not None and bool(value) == (quotient is None)
    assert exact_divide(p, d) == quotient == reference_divide(p, d)


@pytest.mark.parametrize(
    "p, d, quotient",
    [
        # the pivot coefficient of the primitive integer divisor is a multiple of P
        ((mu + Fraction(1, PRIME) * tau) * z ** -1, mu + Fraction(1, PRIME) * tau, z ** -1),
        (u + 1, mu + Fraction(1, PRIME) * tau, None),
        ((PRIME * mu + tau) * (u + 1), PRIME * mu + tau, u + 1),
        ((PRIME * mu + tau) * z ** -2, 2 * PRIME * mu + 2 * tau, (z ** -2).scaled(Fraction(1, 2))),
        ((PRIME * mu + tau) * (u + 1) + 1, PRIME * mu + tau, None),
        # the Laurent pivot z is zero on the zero set of 2z
        (mu * z ** -1, 2 * z, (mu * z ** -2).scaled(Fraction(1, 2))),
        # not linear
        ((mu * tau - 1) * (u - 2), mu * tau - 1, u - 2),
        (mu * u - 2, mu * tau - 1, None),
    ],
)
def test_certificate_declines(p, d, quotient):
    assert certificate(p, d) is None
    assert exact_divide(p, d) == quotient == reference_divide(p, d)


def test_certificate_decides_every_failure_on_benchmark_stream(monkeypatch, fresh_caches):
    """Every failed division is decided before long division, and no
    succeeding one is, over the 432 requests of the first four seed-1
    abelian-query rounds, 18 su2-chart requests and one tiny presentation
    batch, served on empty caches.  (One round sufficed for a thousand
    decisions until the division loop stopped making trials bound to
    fail; two sufficed until the parser folded monomial products and
    Euler sections skipped the public unit check, which left 793.)"""
    workloads = benchmark_workloads()
    certify = poly._value_on_zero_set
    decided = misses = false_alarms = 0

    def counted(dividend, divisor, laurent):
        nonlocal decided, misses, false_alarms
        value = certify(dividend, divisor, laurent)
        table = VariableTable.make((f"x{i}", flag) for i, flag in enumerate(laurent))
        p, d = (ExactPolynomial(table, dict(terms)) for terms in (dividend, divisor))
        fails = reference_divide(p, d) is None
        decided += bool(value)
        misses += fails and not value
        false_alarms += bool(value) and not fails
        return value

    monkeypatch.setattr(poly, "_value_on_zero_set", counted)
    rounds = workloads.abelian_rounds(1, 108)
    requests = [req for _ in range(4) for req in next(rounds)]
    requests += next(workloads.su2_rounds(1, workloads.su2_catalog(), 18))
    requests += workloads.presentation_batch(1, 0, tiny=True)
    for req in requests:
        workloads.serve(req)
    assert decided > 1000
    assert (misses, false_alarms) == (0, 0)


# --- the integer kernels of * and exact_divide --------------------------------


def reference_mul(a, b):
    """Term-by-term product over Fractions: the reference for ``*``."""
    terms = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            s = terms.get(mono, Fraction(0)) + c1 * c2
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
    return ExactPolynomial(a.table, terms)


def assert_same(result, expected):
    """``result`` is ``expected`` as the public constructor builds it."""
    if expected is None:
        assert result is None
        return
    assert all(type(c) is Fraction and c for c in result.terms.values())
    assert all(type(m) is tuple and len(m) == len(TABLE) for m in result.terms)
    assert result == expected and hash(result) == hash(expected)


# Denominators share factors, so their lcm is not their product.
DENOMINATORS = (1, 2, 3, 4, 6, 9, 12, 18)


def rand_dense(rng):
    """Few monomials in mu, tau and Laurent z, so that products collide and cancel."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        mono = (rng.randint(0, 1), rng.randint(0, 1), 0, rng.randint(-1, 1))
        if rng.random() < 0.05:
            coeff = Fraction(rng.choice((-1, 1)), PRIME)
        else:
            coeff = Fraction(rng.randint(-3, 3), rng.choice(DENOMINATORS))
        terms[mono] = coeff
    return ExactPolynomial(TABLE, terms)


def test_product_agrees_with_reference():
    rng = random.Random(20261019)
    fixed = [
        TABLE.zero(),
        TABLE.one(),
        TABLE.constant(Fraction(-3, 4)),
        mu + Fraction(1, PRIME),
        # mu*tau*u gets 1, then -1 (its sum is zero), then 1 again
        (mu + tau + u, tau * u - mu * u + mu * tau),
    ]
    pairs = [f if isinstance(f, tuple) else (f, rand_dense(rng)) for f in fixed]
    pairs += [(rand_dense(rng), rand_dense(rng)) for _ in range(200)]
    for _ in range(100):  # (a + b) * (a - b): the cross terms cancel
        a, b = rand_dense(rng), rand_dense(rng)
        pairs.append((a + b, a - b))
    cancelled = 0
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            expected = reference_mul(x, y)
            assert_same(x * y, expected)
        cancelled += len(expected.terms) < len({
            tuple(p + q for p, q in zip(m1, m2)) for m1 in a.terms for m2 in b.terms
        })
    assert cancelled > 20


def test_trusted_results_match_checked_construction():
    """Sums, differences, negations, ``scaled``, ``normal_form``'s remainder
    and S-polynomials skip the constructor's checks.  Each result is what
    the checking constructor builds from its terms, with only nonzero
    ``Fraction`` coefficients, and each S-polynomial of two random monic
    elements is also the difference of their checked ``monomial_shifted``
    shifts up to the lcm of the leads."""
    rng = random.Random(20261021)
    results = []
    for _ in range(100):
        a, b = rand_dense(rng), rand_dense(rng)
        c = Fraction(rng.choice((-3, -1, 2)), rng.choice(DENOMINATORS))
        results += [a + b, a - b, a - a, -a, a.scaled(c), a + c, c - a]
    plain = VariableTable.make([("x", False), ("y", False), ("w", False)])
    x, y, w = (plain.var(n) for n in plain.names)
    gb = groebner.buchberger(
        groebner.Ideal(plain, (x * y - w.scaled(Fraction(2, 3)), x * x - y + 1)), groebner.GREVLEX
    )
    remainders = [
        gb.reduce(rand_polynomial(rng, plain, max_terms=5, max_degree=3)) for _ in range(100)
    ]
    assert sum(not r.is_zero for r in remainders) > 50
    s_polynomials = []
    while len(s_polynomials) < 100:
        f, g = (rand_polynomial(rng, plain, max_terms=4, max_degree=3) for _ in range(2))
        if f.is_zero or g.is_zero:
            continue
        ef, eg = (groebner._entry(p, groebner.GREVLEX) for p in (f, g))
        lcm = tuple(max(a, b) for a, b in zip(ef.lead, eg.lead))
        shifted = [
            e.element.monomial_shifted(tuple(a - b for a, b in zip(lcm, e.lead)))
            for e in (ef, eg)
        ]
        assert all(e.element.terms[e.lead] == 1 for e in (ef, eg))
        s = groebner._s_polynomial(ef, eg)
        assert s == shifted[0] - shifted[1]
        s_polynomials.append(s)
    assert sum(not s.is_zero for s in s_polynomials) > 50
    for r in results + remainders + s_polynomials:
        assert all(type(c) is Fraction and c for c in r.terms.values())
        checked = ExactPolynomial(r.table, r.terms)
        assert r == checked and hash(r) == hash(checked)


def rand_quotient(rng):
    q = rand_polynomial(rng, TABLE, max_terms=3, max_degree=2, height=6)
    return q if not q.is_zero else TABLE.constant(rng.choice((1, -2)))


@pytest.mark.parametrize(
    "d",
    [
        # integer content
        2 * mu + 4,
        mu.scaled(Fraction(1, 3)) + Fraction(1, 6),
        6 * tau - 4 * u * z,
        # not linear: the certificate declines and long division decides
        2 * mu ** 2 + 1,
        3 * mu * tau - 2 * u,
        (4 * mu ** 2 + 6 * tau) * z ** -1,
        # a Laurent shift
        (z - 2) * z ** -2,
    ],
)
def test_division_agrees_with_reference(d):
    rng = random.Random(20261020)
    remainders = [TABLE.zero(), mu ** 2 + 1, tau.scaled(Fraction(1, 2)), z ** -1]
    divisible = failed = 0
    for _ in range(40):
        p = rand_quotient(rng) * d + rng.choice(remainders)
        if p.is_zero:
            continue
        expected = reference_divide(p, d)
        assert_same(exact_divide(p, d), expected)
        divisible += expected is not None
        failed += expected is None
    assert divisible and failed


@pytest.mark.parametrize(
    "p",
    [
        mu ** 2 + 1,
        # the first step divides, the second leaves mu^2 + 1
        2 * mu ** 4 + 2 * mu ** 2 + 1,
        (2 * mu ** 2 + 1) * (mu ** 3 - tau * z ** -2) + mu ** 2 + 1,
        ((2 * mu ** 2 + 1) * (mu + tau) + mu ** 2 + 1) * z ** 5,
    ],
)
def test_division_fails_on_a_remainder_partway(p):
    d = 2 * mu ** 2 + 1
    assert certificate(p, d) is None
    assert exact_divide(p, d) is None
    assert reference_divide(p, d) is None


def test_laurent_quotients():
    for q in (z ** -3, (mu - tau.scaled(Fraction(2, 3))) * z ** -2, z ** 4 + z ** -4):
        for d in (2 * z ** 3, 3 * (mu + tau) * z ** -1, (z - 1) * z ** -5):
            assert_same(exact_divide(q * d, d), q)
