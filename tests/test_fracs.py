"""Factored fractions over a declared multiplicative set."""

import random
from fractions import Fraction

import pytest

from coulombalg import (
    CoulombProblem,
    ExactPolynomial,
    FactoredFraction,
    FactorSet,
    ReductionError,
    VariableTable,
    ambient_table,
    fracs,
    matter_membership,
    poly,
    unit_decompose,
)
from conftest import (
    benchmark_workloads,
    rand_polynomial,
    reference_divide,
    reference_sum,
    same_value,
)

TABLE = VariableTable.make([("mu", False), ("tau", False), ("z", True)])
mu, tau, z = (TABLE.var(n) for n in ("mu", "tau", "z"))
FS = FactorSet(TABLE, (tau, mu + tau, mu - tau, z))


def frac(num, den=()):
    return FactoredFraction(FS, num, den)


def idx(p):
    return FS.index_of(p)


def test_reduce_cancels_declared_factor():
    f = frac(z * z - 1, [(idx(z - 1), 1)] if idx(z - 1) is not None else [])
    # z - 1 is not declared here; use a declared linear factor instead
    g = frac((mu + tau) * (mu - tau), [(idx(mu - tau), 1)])
    assert g.is_polynomial and g.numerator == mu + tau


def test_reduce_keeps_unrelated_denominator():
    f = frac(z - 1, [(idx(tau), 1)])
    assert f.denominator == ((idx(tau), 1),)
    assert f.numerator == z - 1


def test_z_denominators_absorb_into_numerator():
    f = frac(mu + tau, [(idx(z), 1)])
    assert f.is_polynomial
    assert f.numerator == (mu + tau) * z ** -1


def test_mul_example():
    u = frac(z - 1, [(idx(tau), 1)])
    v = frac(TABLE.one() - z ** -1, [(idx(tau), 1)])
    product = u * v
    assert product.denominator == ((idx(tau), 2),)
    assert product.numerator == z - 2 + z ** -1
    # same value as (z-1)^2 / (z * tau^2)
    alt = frac((z - 1) * (z - 1) * z ** -1, [(idx(tau), 2)])
    assert product == alt


def test_sub_to_zero():
    u = frac(z - 1, [(idx(tau), 1)])
    assert (u - u).is_zero
    assert (u - u).denominator == ()


def test_add_partial_fractions():
    a = frac(TABLE.one(), [(idx(mu - tau), 1)])
    b = frac(TABLE.one(), [(idx(mu + tau), 1)])
    total = a + b
    assert total.numerator == mu.scaled(2)
    assert dict(total.denominator) == {idx(mu - tau): 1, idx(mu + tau): 1}


def test_sums_do_not_multiply_by_one(monkeypatch):
    products = []
    multiply = ExactPolynomial.__mul__

    def counted(a, b):
        products.append((a, b))
        return multiply(a, b)

    a = frac(mu, [(idx(tau), 1)])
    b = frac(z, [(idx(tau), 1), (idx(mu + tau), 2)])
    monkeypatch.setattr(ExactPolynomial, "__mul__", counted)
    assert same_value(a + b, frac(mu * (mu + tau) ** 2 + z, [(idx(tau), 1), (idx(mu + tau), 2)]))
    assert frac(mu).denominator_polynomial() == TABLE.one()
    assert all(TABLE.one() not in pair for pair in products)


def test_products_do_not_multiply_by_one(monkeypatch):
    products = []
    multiply = ExactPolynomial.__mul__

    def counted(a, b):
        products.append((a, b))
        return multiply(a, b)

    a = frac(mu, [(idx(tau), 1)])
    inv = frac(TABLE.one(), [(idx(mu + tau), 1)])
    expected = frac(mu, [(idx(tau), 1), (idx(mu + tau), 1)]), frac(3 * mu, [(idx(tau), 1)])
    ring = ambient_table(CoulombProblem.make(1, 0, [(1,), (1,), (-1,)]))
    p, image = mu + z * tau, mu + mu * tau
    monkeypatch.setattr(ExactPolynomial, "__mul__", counted)
    assert a * inv == inv * a == expected[0]
    assert FS.one() * FS.one() == FS.one()
    assert a * 3 == expected[1]
    assert len(products) == 1  # mu * 3
    # A power of a numerator of one, and the exponent-0 part of a substitution.
    assert inv ** 3 == frac(TABLE.one(), [(idx(mu + tau), 3)])
    assert p.assign_polynomial(TABLE.index("z"), mu) == image
    assert len(products) == 2  # and tau * mu
    # A sector that fails its divisibility test builds no translation factor:
    # z needs (mu - tau) to divide its coefficient 1 before (mu + tau)^2 is formed.
    assert not matter_membership(ring, ring.z(0)).member
    assert len(products) == 2


def test_field_axioms_random():
    rng = random.Random(11)
    def rand_frac():
        num = rand_polynomial(rng, TABLE, max_terms=3, max_degree=2, height=6)
        den = []
        for i in range(3):  # tau, mu+tau, mu-tau
            e = rng.randint(0, 2)
            if e:
                den.append((i, e))
        return frac(num, den)

    for _ in range(60):
        a, b, c = rand_frac(), rand_frac(), rand_frac()
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)


def test_reduce_idempotent_and_value_preserving():
    rng = random.Random(13)
    for _ in range(60):
        num = rand_polynomial(rng, TABLE, max_terms=3, max_degree=2, height=6)
        den = [(0, rng.randint(0, 2)), (1, rng.randint(0, 2))]
        f = frac(num * (mu + tau), den)
        again = FactoredFraction(FS, f.numerator, f.denominator)
        assert again == f
        # cross-multiplied equality with the unreduced data
        raw_den = TABLE.one()
        for i, e in den:
            raw_den = raw_den * FS.factors[i] ** e
        assert f.numerator * raw_den == num * (mu + tau) * f.denominator_polynomial()


def test_inverse_of_unit():
    f = frac(mu + tau, [(idx(mu - tau), 1)])
    g = f.inverse()
    assert g.numerator == mu - tau
    assert g.denominator == ((idx(mu + tau), 1),)
    assert (f * g) == FS.one()


def test_inverse_rejects_non_unit():
    with pytest.raises(ReductionError):
        frac(z - 1).inverse()


def test_unit_decompose():
    p = (mu + tau) ** 2 * tau * z ** -1 * 3
    coeff, mono, powers = unit_decompose(FS, p)
    assert coeff == 3
    assert mono == TABLE.var_monomial("z") and mono[TABLE.index("z")] == 1 or mono[TABLE.index("z")] == -1
    assert powers == {idx(tau): 1, idx(mu + tau): 2}


def test_division_by_unit_and_exact_fallback():
    a = frac((mu + tau) * (z - 1))
    assert a / frac(mu + tau) == frac(z - 1)
    assert a / frac(z - 1) == frac(mu + tau)  # exact, although z-1 is not a unit
    with pytest.raises(ReductionError):
        frac(TABLE.one()) / frac(z + tau)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        frac(mu) / frac(TABLE.zero())


def test_same_value_cross_check():
    rng = random.Random(17)
    for _ in range(40):
        num = rand_polynomial(rng, TABLE, max_terms=3, max_degree=2, height=5)
        f = frac(num * (mu - tau), [(idx(mu - tau), 2)])
        g = frac(num, [(idx(mu - tau), 1)])
        assert f == g
        assert same_value(f, g)


def test_pow_negative():
    f = frac(mu + tau)
    assert f ** -2 == FS.one() / (f * f)


def test_pow_equals_repeated_product():
    rng = random.Random(23)
    for _ in range(20):
        num = rand_polynomial(rng, TABLE, max_terms=3, max_degree=2, height=5)
        den = [(i, rng.randint(0, 2)) for i in range(len(FS))]
        f = frac(num, den)
        product = FS.one()
        for n in range(5):
            assert f ** n == product
            product = product * f


def test_factor_set_validation():
    with pytest.raises(ValueError):
        FactorSet(TABLE, (tau, tau.scaled(2)))  # proportional pair
    with pytest.raises(ValueError):
        FactorSet(TABLE, (mu * tau,))  # not linear
    with pytest.raises(ValueError):
        FactorSet(TABLE, (-tau,))  # not sign-normalized


# --- the trusted arithmetic paths -------------------------------------------


def raw_operand(rng):
    """(numerator, denominator) before reduction: a random nonzero polynomial
    times a random product of declared factors, over random factor powers."""
    num = TABLE.zero()
    while num.is_zero:
        num = rand_polynomial(rng, TABLE, max_terms=3, max_degree=1, height=6)
    for f in FS.factors:
        num = num * f ** rng.choice((0, 0, 1, 2))
    return num, [(i, rng.randint(0, 2)) for i in range(len(FS))]


def raw_polynomial(den):
    return FS.product(den) or TABLE.one()


def merged(*dens):
    return [pair for den in dens for pair in den]


def total(den):
    return sum(e for _, e in den)


def assert_reduced(x):
    """Positive exponents in index order, no unit factor, and no denominator
    factor dividing the numerator, by long division that shares no code with
    ``fracs``; zero has the empty denominator."""
    indices = [i for i, _ in x.denominator]
    assert indices == sorted(set(indices)) and all(e > 0 for _, e in x.denominator)
    assert idx(z) not in indices
    if x.is_zero:
        assert x.denominator == ()
    for i, _ in x.denominator:
        assert reference_divide(x.numerator, FS.factors[i]) is None


def assert_matches(result, num, den):
    """``result`` is ``num / den`` as the public constructor reduces it."""
    expected = FactoredFraction(FS, num, den)
    assert result == expected and hash(result) == hash(expected)
    assert same_value(result, FactoredFraction._reduced(FS, num, den))
    assert_reduced(result)


def test_trusted_paths_match_full_reduction(monkeypatch):
    """+, -, * and ** on reduced operands give what reducing the unreduced
    result from scratch gives, with only the trial divisions the
    coprimality rules allow: one per cancellation, plus at most one failure
    per factor both sum operands carry to the same exponent, or per product
    factor carried by one denominator only.  Zero operands and sums that
    cancel to zero are among the 200 pairs."""
    trials = 0
    divide = poly.exact_divide

    def counted(p, d):
        nonlocal trials
        trials += 1
        return divide(p, d)

    monkeypatch.setattr(fracs, "exact_divide", counted)
    rng = random.Random(29)
    cancelling_products = cancelling_sums = 0
    for k in range(200):
        na, da = raw_operand(rng)
        if k % 10 == 1:  # the sum cancels to zero
            nb, db = -na, da
        elif k % 3 == 0:  # the sum is x = nx / dx, often with a smaller denominator
            nx, dx = raw_operand(rng)
            if k % 2:
                dx = []
            nb = nx * raw_polynomial(da) - na * raw_polynomial(dx)
            db = merged(da, dx)
        else:
            nb, db = raw_operand(rng)
        if k % 25 == 2:
            na = TABLE.zero()
        if k % 25 == 7:
            nb = TABLE.zero()
        a, b = FactoredFraction(FS, na, da), FactoredFraction(FS, nb, db)
        assert_reduced(a)
        assert_reduced(b)
        pa, pb = raw_polynomial(da), raw_polynomial(db)
        mine, theirs = dict(a.denominator), dict(b.denominator)

        trials = 0
        total_sum = a + b
        lcm = {i: max(mine.get(i, 0), theirs.get(i, 0)) for i in set(mine) | set(theirs)}
        cancelled = total(lcm.items()) - total(total_sum.denominator)
        equal = sum(1 for i, e in mine.items() if theirs.get(i) == e)
        assert trials <= cancelled + equal
        assert_matches(total_sum, na * pb + nb * pa, merged(da, db))
        cancelling_sums += cancelled > 0 and not total_sum.is_zero
        if k % 10 == 1:
            assert total_sum.is_zero and total_sum.denominator == ()

        assert_matches(a - b, na * pb - nb * pa, merged(da, db))

        trials = 0
        product = a * b
        cancelled = total(a.denominator) + total(b.denominator) - total(product.denominator)
        assert trials <= cancelled + len(set(mine) ^ set(theirs))
        assert_matches(product, na * nb, merged(da, db))
        cancelling_products += cancelled > 0

        for n in range(4):
            assert_matches(a ** n, na ** n, [(i, e * n) for i, e in da])

    assert cancelling_products >= 50
    assert cancelling_sums >= 20


def test_trusted_inverse_matches_full_reduction():
    """The inverse of c * z^m * (factor powers) / den, against reducing
    den / (c * z^m * factor powers) from scratch."""
    rng = random.Random(31)
    for _ in range(200):
        coeff = rng.choice((1, -2, Fraction(3, 4)))
        shift = rng.randint(-2, 2)
        powers = [(i, rng.randint(0, 2)) for i in range(3)]
        den = [(i, rng.randint(0, 2)) for i in range(len(FS))]
        num = (z ** shift).scaled(coeff) * raw_polynomial(powers)
        x = FactoredFraction(FS, num, den)
        inverse = x.inverse()
        unreduced = raw_polynomial(den) * (z ** -shift).scaled(1 / Fraction(coeff))
        assert_matches(inverse, unreduced, powers)
        assert x * inverse == FS.one()


def is_unit_monomial(p):
    return len(p.terms) == 1 and not any(next(iter(p.terms))[:2])


def sum_term(rng):
    """A term for ``factored_sum`` and its value: zero, a reduced value, a
    unit monomial over factor powers, or the tuple form (coefficient, Laurent
    monomial, signed factor exponents, residue or None) of such a value times
    powers of factors its denominator lacks."""
    kind = rng.randrange(6)
    if kind == 0:
        return FS.zero(), FS.zero()
    den = [(i, rng.randint(0, 2)) for i in range(3)]
    if kind % 2:
        coeff = rng.choice((1, -3, Fraction(1, 2)))
        x = FactoredFraction(FS, (z ** rng.randint(-2, 2)).scaled(coeff), den)
    else:
        x = FactoredFraction(FS, *raw_operand(rng))
    if kind < 4 or x.is_zero:
        return x, x
    extra = {i: 1 for i in range(3) if i not in dict(x.denominator) and rng.randrange(2)}
    powers = {**{i: -e for i, e in x.denominator}, **extra}
    num = x.numerator * raw_polynomial(extra.items())
    if is_unit_monomial(x.numerator):  # no residue
        (mono, coeff), = x.numerator.terms.items()
        term = (coeff, mono, powers, None)
    else:
        coeff, mono = rng.choice((1, 2, Fraction(-1, 3))), (0, 0, rng.randint(-1, 1))
        term = (coeff, mono, powers, x.numerator)
        num = num.scaled(coeff).monomial_shifted(mono)
    return term, FactoredFraction._reduced(FS, num, x.denominator)


def test_factored_sum_matches_reference(monkeypatch):
    """Seeded sums of 0 to 6 terms against ``reference_sum``: the same value,
    reduced, after only the trial divisions the rule allows.  Each divisor
    is a factor two or more terms carry to the top exponent, and no form is
    tried on a numerator that lacks one of its variables, here or in the
    public constructor's reduction, not even on the quotient of a division
    that succeeded.  Empty sums, sums that cancel to zero, contested
    factors that cancel and unit-monomial results are among the 300 sums."""
    calls = []
    divide = poly.exact_divide

    def counted(p, d):
        assert d.used_indices() <= p.used_indices()
        calls.append(d)
        return divide(p, d)

    monkeypatch.setattr(fracs, "exact_divide", counted)
    rng = random.Random(37)
    seen = dict.fromkeys(("empty", "zero", "cancelled", "unit", "tuple"), 0)
    for k in range(300):
        pairs = [sum_term(rng) for _ in range(rng.randint(0, 6))]
        terms, values = [t for t, _ in pairs], [v for _, v in pairs]
        if values and k % 5 == 1:  # the sum cancels to zero
            negated = -reference_sum(FS, values)
            terms.append(negated)
            values.append(negated)
        elif values and k % 5 == 2:  # the sum is x, often with a smaller denominator
            if k % 10 == 2:
                x = FactoredFraction(FS, *raw_operand(rng))
            else:
                den = [(i, rng.randint(0, 1)) for i in range(3)]
                x = FactoredFraction(FS, z ** rng.randint(-2, 2), den)
            rest = reference_sum(FS, [x, -reference_sum(FS, values)])
            terms.append(rest)
            values.append(rest)
        top, reach = {}, {}
        for v in values:
            for i, e in v.denominator:
                if e > top.get(i, 0):
                    top[i], reach[i] = e, 0
                reach[i] += e == top[i]
        contested = {i for i, n in reach.items() if n > 1}

        calls.clear()
        result = fracs.factored_sum(FS, terms)
        expected = reference_sum(FS, values)
        assert result == expected and same_value(result, expected)
        assert_reduced(result)
        assert {idx(d) for d in calls} <= contested
        seen["empty"] += not terms
        seen["zero"] += bool(terms) and result.is_zero
        seen["cancelled"] += any(dict(result.denominator).get(i, 0) < top[i] for i in contested)
        seen["unit"] += is_unit_monomial(result.numerator) and bool(contested)
        seen["tuple"] += any(isinstance(t, tuple) for t in terms)
    assert min(seen.values()) >= 20, seen


def test_trial_division_counts(monkeypatch, fresh_caches):
    """exact_divide calls and failures over 40 seed-1 abelian-query requests
    and 18 su2-chart requests, served on empty caches.  Before products
    cancelled only across operands and sums tried only factors carried to
    equal exponents, the same requests made 3,490 calls, 3,063 of which
    failed.  Before each morphism inverted its unit images once, when built,
    and Euler-section entries skipped the full reduction, they made 1,387
    calls, 960 of which failed.  Before morphisms applied their images in
    factored form and the factor loops skipped forms with a variable the
    dividend lacks, they made 1,044 calls, 717 of which failed.  Before
    every sum went through one cleared sum and every trial division through
    one loop, they made 905 calls, 555 of which failed.  Before that loop
    screened every division, not only each factor's first, and
    ``coulomb`` divided through it too, they made 895 calls, 545 of which
    failed.  Before the parser folded monomial products into sum terms and
    Euler sections skipped the public unit check, they made 621 calls, 271
    of which failed."""
    workloads = benchmark_workloads()
    calls = failures = 0
    divide = poly.exact_divide

    def counted(p, d):
        nonlocal calls, failures
        calls += 1
        q = divide(p, d)
        failures += q is None
        return q

    requests = next(workloads.abelian_rounds(1, 108))[:40]
    requests += next(workloads.su2_rounds(1, workloads.su2_catalog(), 18))
    monkeypatch.setattr(fracs, "exact_divide", counted)
    for req in requests:
        workloads.serve(req)
    assert (calls, failures) == (426, 171)



KTABLE = VariableTable.make([
    ("mu", False), ("t1", False), ("t2", False), ("t3", False), ("u", False),
    ("z1", True), ("z2", True),
])
kmu, t1, t2, t3, u, z1, z2 = (KTABLE.var(n) for n in KTABLE.names)
# Dense weight forms in three variables with a mass, and a single variable.
# ``u`` and the Laurent variables carry the exponents in the thousands; the
# forms' variables stay at low degree, where the reference's long division
# by a form is quick.
KFS = FactorSet(
    KTABLE, (kmu + t1 + 2 * t2 - 3 * t3, kmu - 2 * t1 + t2 + 5 * t3, 3 * kmu + t1 - t2 - t3, t1)
)
P61 = 2 ** 61 - 1


def kmono(u_exp=0, z1_exp=0, z2_exp=0, coeff=1):
    return KTABLE.monomial((0, 0, 0, 0, u_exp, z1_exp, z2_exp), coeff)


def kernel_term(coeff, shift, extra, num, den):
    """A ``factored_sum`` term for coeff * shift * (num / den) * prod
    f_i^extra_i, with num / den reduced by the public constructor first, and
    that term's value, built through ``ExactPolynomial`` products."""
    x = FactoredFraction(KFS, num, den)
    powers = {**{i: -e for i, e in x.denominator}, **extra}
    value = x.numerator.scaled(coeff).monomial_shifted(shift)
    value = value * (KFS.product(extra.items()) or KTABLE.one())
    return (coeff, shift, powers, x.numerator), FactoredFraction(KFS, value, x.denominator)


def assert_sum_matches(terms, values):
    result = fracs.factored_sum(KFS, terms)
    assert result == reference_sum(KFS, values)
    assert all(type(c) is Fraction and c for c in result.numerator.terms.values())
    return result


def test_packed_sum_edge_cases():
    """``factored_sum`` against ``reference_sum`` where packed monomials need
    wide fields: negative Laurent exponents, exponents in the thousands at
    the top of their field (1024 needs one bit more than 1023), nested
    powers, dense weight forms to powers 20 and more, coefficients over
    2^61 - 1; the empty and one-term sums, and each sum plus its negation,
    which cancels to zero."""
    assert fracs.factored_sum(KFS, []) == KFS.zero()
    unit = KTABLE.unit_monomial()
    shift = kmono(0, -3, 2).leading()[0]
    cases = [
        [kernel_term(Fraction(3, 7), shift, {0: 20}, kmu + t2, [(3, 1)])],
        [
            kernel_term(1, unit, {0: 20}, t3 - 2, [(2, 1), (3, 2)]),
            kernel_term(Fraction(-5, P61), unit, {1: 21}, kmu + 1, [(3, 1)]),
            kernel_term(P61 ** 2, shift, {}, t2 * t3 + 1, [(2, 1)]),
        ],
        [kernel_term(1, unit, {}, kmono(1024), [])],
        [kernel_term(1, unit, {}, kmono(0, -1024), [])],
        [
            kernel_term(1, kmono(0, -1023).leading()[0], {}, kmono(1023, 0, 5), []),
            kernel_term(2, kmono(0, 0, 1024).leading()[0], {3: 1}, kmu + 1, [(0, 1)]),
        ],
        [
            kernel_term(
                Fraction(P61, 3), kmono(0, -2047, 1).leading()[0], {1: 2},
                (kmono(40) ** 50 + t3) * kmono(0, -5) ** 3, [(0, 2)],
            ),
            kernel_term(Fraction(1, P61), unit, {1: 2}, kmono(3000, 1, -4095) * t3, [(0, 1)]),
            kernel_term(-1, unit, {}, kmono(4095, 0, -1) + 1, [(0, 2), (2, 1)]),
        ],
    ]
    for pairs in cases:
        terms, values = [t for t, _ in pairs], [v for _, v in pairs]
        assert_sum_matches(terms, values)
        negated = [(-c, s, p, r) for c, s, p, r in terms]
        result = assert_sum_matches(terms + negated, values + [-v for v in values])
        assert result.is_zero and result.denominator == ()


def test_packed_sum_matches_reference_on_seeded_sums():
    """Seeded sums of 0 to 4 terms mixing the same features: random reduced
    values over random denominators, times powers of factors they lack,
    shifted by Laurent monomials, with exponents up to the thousands and
    coefficients over 2^61 - 1; every fourth sum cancels to zero."""
    rng = random.Random(59)
    cancelled = 0
    for k in range(80):
        pairs = []
        for _ in range(rng.randint(0, 4)):
            big = rng.choice((2, 40, 3000))
            num = KTABLE.zero()
            while num.is_zero:
                num = rand_polynomial(rng, KTABLE, max_terms=3, max_degree=2)
            num = num * kmono(rng.randint(0, big), rng.randint(-big, big), rng.randint(-big, big))
            den = {i: rng.randint(0, 2) for i in range(4)}
            extra = {i: rng.randint(1, 3) for i in range(3) if not den[i] and rng.randrange(2)}
            shift = kmono(0, rng.randint(-big, big), rng.randint(-big, big)).leading()[0]
            coeff = rng.choice((1, -2, Fraction(3, 4), Fraction(P61, 2), Fraction(-1, P61)))
            pairs.append(kernel_term(coeff, shift, extra, num, den.items()))
        terms, values = [t for t, _ in pairs], [v for _, v in pairs]
        if values and k % 4 == 1:
            negated = -reference_sum(KFS, values)
            terms.append(negated)
            values.append(negated)
        result = assert_sum_matches(terms, values)
        cancelled += bool(values) and result.is_zero
    assert cancelled >= 15
