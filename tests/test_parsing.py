"""Expression grammar, canonical printing, round trips."""

import random

import pytest

from coulombalg import (
    ExpressionError,
    ambient_table,
    parse_problem_text,
    FactoredFraction,
    FactorSet,
    VariableTable,
    format_element,
    format_fraction,
    format_polynomial,
    parse_expression,
)
from coulombalg.parsing import MAX_LITERAL_DIGITS
from conftest import benchmark_workloads, rand_polynomial

TABLE = VariableTable.make([("mu", False), ("tau", False), ("z", True)])
mu, tau, z = (TABLE.var(n) for n in ("mu", "tau", "z"))
FS = FactorSet(TABLE, (tau, mu + tau, mu - tau, z))


def test_parse_weight_cleared_generator():
    f = parse_expression("z*(mu - tau)", FS)
    assert f == FS.from_polynomial(z * (mu - tau))


def test_parse_blowup_generator():
    f = parse_expression("(z - 1)/tau", FS)
    assert f.numerator == z - 1
    assert f.denominator == ((0, 1),)


def test_parse_rejects_undeclared_denominator():
    with pytest.raises(ExpressionError):
        parse_expression("1/(z + tau)", FS)


def test_parse_errors():
    with pytest.raises(ExpressionError):
        parse_expression("q + 1", FS)  # unknown variable
    with pytest.raises(ExpressionError):
        parse_expression("z^tau", FS)  # non-integer exponent
    with pytest.raises(ExpressionError):
        parse_expression("z^2^3", FS)  # chained exponent
    with pytest.raises(ExpressionError):
        parse_expression("1/0", FS)
    with pytest.raises(ExpressionError):
        parse_expression("(z + 1", FS)
    with pytest.raises(ExpressionError):
        parse_expression("z $ 2", FS)


def test_exponent_cap():
    assert parse_expression("z^-64", FS) == FS.from_polynomial(z ** -64)
    assert parse_expression("mu^64", FS) == FS.from_polynomial(mu ** 64)
    assert parse_expression("mu^0064", FS) == FS.from_polynomial(mu ** 64)
    for text in ("mu^65", "z^-65", "z^(-65)", "(mu + tau)^100000000", "mu^" + "9" * 5000):
        with pytest.raises(ExpressionError, match="exceeds 64"):
            parse_expression(text, FS)


def test_literal_cap():
    at_cap = "9" * MAX_LITERAL_DIGITS
    assert parse_expression(at_cap + "*z", FS) == FS.from_polynomial(z.scaled(int(at_cap)))
    with pytest.raises(ExpressionError, match=f"more than {MAX_LITERAL_DIGITS} digits"):
        parse_expression("z + 1" + "0" * MAX_LITERAL_DIGITS, FS)


def test_precedence():
    assert parse_expression("-z^2", FS) == FS.from_polynomial(-(z ** 2))
    assert parse_expression("2*z/2", FS) == FS.var("z")
    assert parse_expression("1 + 2*3", FS) == FS.constant(7)
    assert parse_expression("(1 + 2)*3", FS) == FS.constant(9)
    assert parse_expression("z^-1", FS) == FS.from_polynomial(z ** -1)
    assert parse_expression("z^(-2)", FS) == FS.from_polynomial(z ** -2)
    assert parse_expression("3/2*z", FS) == FS.from_polynomial(z.scaled("3/2"))
    assert parse_expression("1 - 2 - 3", FS) == FS.constant(-4)
    assert parse_expression("8/4/2", FS) == FS.constant(1)


def test_parse_inverse_of_declared_linear_form():
    f = parse_expression("(mu - tau)^-1", FS)
    assert f.numerator == TABLE.one()
    assert f.denominator == ((FS.index_of(mu - tau), 1),)


def test_print_examples():
    tag_table = VariableTable.make(
        [("x", False), ("y", False), ("mu", False), ("tau", False)]
    )
    relation = (
        tag_table.var("x") * tag_table.var("y")
        - tag_table.var("mu") ** 2
        + tag_table.var("tau") ** 2
    )
    assert format_polynomial(relation) == "x*y - mu^2 + tau^2"
    assert format_polynomial(TABLE.zero()) == "0"
    f = FactoredFraction(FS, z - 1, ((0, 1),))
    assert format_fraction(f) == "(z - 1) / (tau)"


def test_print_coefficients():
    p = z.scaled("3/2") - mu.scaled(1) + TABLE.constant("1/3")
    assert format_polynomial(p) == "-mu + 3/2*z + 1/3"


def test_roundtrip_random_elements():
    rng = random.Random(109)
    done = 0
    while done < 500:
        num = rand_polynomial(rng, TABLE, max_terms=4, max_degree=3, height=9)
        den = []
        for i in range(3):
            e = rng.randint(0, 2)
            if e:
                den.append((i, e))
        f = FactoredFraction(FS, num, den)
        text = format_element(f)
        assert parse_expression(text, FS) == f
        done += 1


def test_faults_are_reported_in_reading_order():
    with pytest.raises(ExpressionError, match="multiplicative set"):
        parse_expression("1/(z + tau) +", FS)
    with pytest.raises(ExpressionError, match="unknown variable 'q'"):
        parse_expression("q^tau", FS)
    with pytest.raises(ExpressionError, match="unexpected ''"):
        parse_expression("1/(mu + tau) +", FS)
    with pytest.raises(ExpressionError, match="unexpected character '\\$'"):
        parse_expression("1/(z + tau) $", FS)


def _mutate(rng: random.Random, text: str) -> str:
    """One truncation, deletion, insertion, replacement or swap."""
    i = rng.randrange(len(text))
    choice = rng.randrange(5)
    if choice == 0:
        return text[:i]
    if choice == 1:
        return text[:i] + text[i + 1:]
    c = rng.choice("+-*/^()0129zu $")
    if choice == 2:
        return text[:i] + c + text[i:]
    if choice == 3:
        return text[:i] + c + text[i + 1:]
    return text[:i] + text[i + 1:i + 2] + text[i] + text[i + 2:]


def test_fuzz_benchmark_expressions():
    """Mutated and truncated benchmark expression texts either raise
    ExpressionError or give a value that round-trips through its printed
    form."""
    workloads = benchmark_workloads()
    requests = next(workloads.abelian_rounds(1, 108))
    requests += next(workloads.su2_rounds(1, workloads.su2_catalog(), 18))
    rings = {}
    rng = random.Random(1515)
    accepted = rejected = 0
    for _ in range(600):
        req = rng.choice(requests)
        if req.problem not in rings:
            rings[req.problem] = ambient_table(parse_problem_text(req.problem).problem()).factors
        factors = rings[req.problem]
        try:
            value = parse_expression(_mutate(rng, req.expr), factors)
        except ExpressionError:
            rejected += 1
            continue
        assert parse_expression(format_element(value), factors) == value
        accepted += 1
    assert accepted > 100 and rejected > 100
