"""Problem-file parsing and default generator lists."""

import pytest

from coulombalg import (
    CoulombProblem,
    ProblemError,
    ambient_table,
    default_generators,
    matter_membership,
    parse_problem_text,
)
from coulombalg.problems import MAX_RANK

U1 = "torus_rank = 1\nsu2_blocks = 0\nweight = 1\nweight = -1\n"


def test_parse_full_file():
    text = U1 + "degree_window = 2\ngenerator x = z*(mu - tau)\n# comment\n"
    pf = parse_problem_text(text)
    assert pf.torus_rank == 1 and pf.su2_blocks == 0
    assert pf.weights == ((1,), (-1,))
    assert pf.degree_window == 2
    assert pf.generator_overrides == (("x", "z*(mu - tau)"),)


def test_parse_errors():
    with pytest.raises(ProblemError):
        parse_problem_text("su2_blocks = 1\n")  # missing torus_rank
    with pytest.raises(ProblemError):
        parse_problem_text("torus_rank = one\n")
    with pytest.raises(ProblemError):
        parse_problem_text(U1 + "degree_window = 0\n")
    with pytest.raises(ProblemError):
        parse_problem_text(U1 + "generator = z\n")
    with pytest.raises(ProblemError):
        parse_problem_text(U1 + "flavor = 3\n")
    with pytest.raises(ProblemError):
        parse_problem_text("torus_rank = 1\nweight = 1 2\n")  # wrong length


@pytest.mark.parametrize("torus_rank, su2_blocks", [(8, 0), (5, 3), (9, 0), (6, 3), (100000, 0)])
def test_rank_cap(torus_rank, su2_blocks):
    text = f"torus_rank = {torus_rank}\nsu2_blocks = {su2_blocks}\n"
    if torus_rank + su2_blocks <= MAX_RANK:
        assert parse_problem_text(text).problem().rank == MAX_RANK
    else:
        with pytest.raises(ProblemError, match=f"exceeds {MAX_RANK}"):
            parse_problem_text(text)


def test_generator_key_is_a_whole_word():
    with pytest.raises(ProblemError, match="unknown key 'generatorfoo x'"):
        parse_problem_text(U1 + "generatorfoo x = z\n")
    with pytest.raises(ProblemError, match="unknown key 'generators'"):
        parse_problem_text(U1 + "generators = z\n")


def test_generator_overrides_win():
    pf = parse_problem_text(U1 + "generator a = mu + tau\n")
    ring = ambient_table(pf.problem())
    gens = default_generators(ring, pf)
    assert [n for n, _ in gens] == ["a"]
    assert gens[0][1] == ring.fraction(ring.mu() + ring.tau(0))


def test_default_generators_require_standard_blocks():
    pf = parse_problem_text("torus_rank = 0\nsu2_blocks = 1\nweight = 2\nweight = -2\n")
    ring = ambient_table(pf.problem())
    with pytest.raises(ProblemError):
        default_generators(ring, pf)


def test_mixed_group_defaults_include_torus_coordinates():
    problem = CoulombProblem.make(1, 1, [(0, 1), (0, -1)])
    ring = ambient_table(problem)
    gens = default_generators(ring)
    names = [n for n, _ in gens]
    assert names[:2] == ["z1", "z1_inv"]
    assert {"x", "y", "w", "mu", "tau1", "tau2"} <= set(names)
    for name, g in gens:
        assert matter_membership(ring, g).member, name
