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
from coulombalg.coulomb import MAX_GRID, abelian_matter_generators
from coulombalg.problems import MAX_RANK, MAX_WEIGHT_DEGREE, MAX_WEIGHTS

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


@pytest.mark.parametrize("count", [MAX_WEIGHTS, MAX_WEIGHTS + 1])
def test_weight_count_cap(count):
    text = "torus_rank = 1\n" + "weight = 0\n" * count
    if count <= MAX_WEIGHTS:
        assert len(parse_problem_text(text).weights) == count
    else:
        with pytest.raises(ProblemError, match=f"exceed {MAX_WEIGHTS}"):
            parse_problem_text(text)


@pytest.mark.parametrize("weights, accepted", [
    (["16"], True), (["-16"], True), (["17"], False), (["-17"], False),
    (["8", "-8"], True), (["8", "-9"], False),
    (["16 -16", "0 0"], True), (["16 0", "0 -17"], False), (["10 1", "-7 1"], False),
])
def test_weight_degree_cap(weights, accepted):
    assert MAX_WEIGHT_DEGREE == 16  # the rows sit at the cap and one past it
    rank = len(weights[0].split())
    text = f"torus_rank = {rank}\n" + "".join(f"weight = {w}\n" for w in weights)
    if accepted:
        assert len(parse_problem_text(text).weights) == len(weights)
    else:
        with pytest.raises(ProblemError, match=f"exceeds {MAX_WEIGHT_DEGREE}"):
            parse_problem_text(text)


@pytest.mark.parametrize("rank, window, accepted", [
    (1, 13, True), (1, 14, False), (2, 2, True), (2, 3, False), (3, 1, True), (4, 1, False),
    (1, 100000, False),
])
def test_grid_cap(rank, window, accepted):
    ring = ambient_table(CoulombProblem.make(rank, 0, []))
    if accepted:
        gens = abelian_matter_generators(ring, window)
        assert len(gens) == 1 + rank + (2 * window + 1) ** rank - 1 <= 1 + rank + MAX_GRID
    else:
        with pytest.raises(ProblemError, match=f"more than {MAX_GRID}"):
            abelian_matter_generators(ring, window)


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
