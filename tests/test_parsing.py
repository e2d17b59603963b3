"""Expression grammar, canonical printing, round trips."""

import random
from fractions import Fraction

import pytest

from coulombalg import (
    CoulombProblem,
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
from conftest import benchmark_workloads, rand_polynomial, reference_parse

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


def test_non_ascii_characters_are_outside_the_grammar():
    """Unicode digits and spaces are not read as ASCII ones."""
    u1 = ambient_table(CoulombProblem.make(1, 0, [(1,), (-1,)])).factors
    with pytest.raises(ExpressionError, match="unexpected character '\u0663' at position 2"):
        parse_expression("z^\u0663*mu + \uff11\uff12", u1)
    with pytest.raises(ExpressionError, match="unexpected character '\uff11' at position 6"):
        parse_expression("z*mu +\uff11\uff12", u1)
    with pytest.raises(ExpressionError, match=r"unexpected character '\\xa0' at position 1"):
        parse_expression("z\xa0", u1)
    assert parse_expression(" z^3*mu\t+ 12\n", u1) == parse_expression("z^3*mu + 12", u1)


def parses_as_reference(text: str, factors: FactorSet) -> bool:
    """The library's value is the reference's, term for term, and fully
    reduced; or both raise the same ExpressionError text.  Returns whether
    the text was accepted."""
    try:
        expected = reference_parse(text, factors)
    except ExpressionError as exc:
        with pytest.raises(ExpressionError) as raised:
            parse_expression(text, factors)
        assert str(raised.value) == str(exc), text
        return False
    value = parse_expression(text, factors)
    assert value == expected, text
    assert format_element(value) == format_element(expected)
    assert all(type(c) is Fraction for c in value.numerator.terms.values())
    assert value == FactoredFraction(factors, value.numerator, value.denominator)
    return True


ZERO_WEIGHT = ambient_table(CoulombProblem.make(1, 0, [(0,), (1,)])).factors

EDGE_CASES = [
    "mu^-1", "tau^-1", "mu^2/mu", "0^-1", "z^-0", "0*z^-1", "1/(2*tau)", "tau/(2*tau)",
    "(mu-tau)/(tau-mu)", "mu*tau^-1*tau", "3/6*z", "--z", "2^65", "z^--1", "q*z^65",
    "1/(z+tau) +", "tau*(1/tau)", "(1/tau)*tau", "mu*(1/mu)*mu", "(1/mu)*mu^2*z^-1",
    "z/z^-2*tau^0/tau", "-2/-4*z", "0/(z+tau)", "z/0", "z/(z-z)", "z/(2*0)", "2*z^-1/z",
    "(z+tau)^-1", "(mu+tau)^-2*(mu+tau)", "1/tau^2*tau*z", "-(z)*-2/3", "mu^0/mu",
    "1/tau/tau*tau", "z*mu - z*mu", "0 - z + 0*mu", "(2)^3*z/(4)", "1/-z",
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases_match_reference(text):
    for factors in (FS, ZERO_WEIGHT):
        parses_as_reference(text, factors)


def test_fuzz_mutations_match_reference():
    """The 600 mutated texts of ``test_fuzz_benchmark_expressions``."""
    workloads = benchmark_workloads()
    requests = next(workloads.abelian_rounds(1, 108))
    requests += next(workloads.su2_rounds(1, workloads.su2_catalog(), 18))
    rings = {}
    rng = random.Random(1515)
    accepted = 0
    for _ in range(600):
        req = rng.choice(requests)
        if req.problem not in rings:
            rings[req.problem] = ambient_table(parse_problem_text(req.problem).problem()).factors
        accepted += parses_as_reference(_mutate(rng, req.expr), rings[req.problem])
    assert 100 < accepted < 500


def test_benchmark_texts_match_reference():
    """The first query round of both workloads, seeds 1-5."""
    workloads = benchmark_workloads()
    catalog = workloads.su2_catalog()
    rings = {}
    for seed in range(1, 6):
        requests = next(workloads.abelian_rounds(seed, 108))
        requests += next(workloads.su2_rounds(seed, catalog, 108))
        for req in requests:
            if req.problem not in rings:
                rings[req.problem] = ambient_table(
                    parse_problem_text(req.problem).problem()
                ).factors
            assert parses_as_reference(req.expr, rings[req.problem])
