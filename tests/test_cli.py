"""Command-line surface: subcommands, exit codes, determinism."""

import json
from pathlib import Path

import pytest

from coulombalg import ambient_table, parse_expression, parse_problem_text
from coulombalg.cli import main

U1 = "torus_rank = 1\nsu2_blocks = 0\nweight = 1\nweight = -1\n"
SU2 = "torus_rank = 0\nsu2_blocks = 1\nweight = 1\nweight = -1\n"


@pytest.fixture
def u1_file(tmp_path):
    path = tmp_path / "u1.prob"
    path.write_text(U1)
    return str(path)


@pytest.fixture
def su2_file(tmp_path):
    path = tmp_path / "su2.prob"
    path.write_text(SU2)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_membership_member(capsys, u1_file):
    code, out, _ = run(capsys, "membership", "--problem", u1_file, "--expr", "z*(mu-tau)")
    assert code == 0
    assert out.splitlines()[0] == "Member"


def test_membership_non_member(capsys, u1_file, su2_file):
    code, out, _ = run(capsys, "membership", "--problem", u1_file, "--expr", "z")
    assert code == 1
    assert out.splitlines()[0] == "NotMember"
    assert "mu - tau" in out
    # The translate is z, which is regular, but the element is not.
    expr = "z*(mu-tau)/(mu+tau)"
    code, out, _ = run(capsys, "membership", "--problem", su2_file, "--expr", expr)
    assert code == 1
    assert out.splitlines() == ["NotMember", "offending factor: mu + tau"]


def test_input_errors_exit_2(capsys, u1_file, tmp_path):
    code, _, err = run(capsys, "membership", "--problem", u1_file, "--expr", "1/(z+tau)")
    assert code == 2 and "multiplicative" in err
    code, _, err = run(capsys, "membership", "--problem", str(tmp_path / "nope"), "--expr", "z")
    assert code == 2
    bad = tmp_path / "bad.prob"
    bad.write_text("rank = 1\n")
    code, _, err = run(capsys, "membership", "--problem", str(bad), "--expr", "z")
    assert code == 2


def test_two_fault_expression_exits_2(capsys, u1_file):
    code, out, err = run(capsys, "membership", "--problem", u1_file, "--expr", "1/(z+tau) +")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "multiplicative" in err


def test_non_ascii_digits_exit_2(capsys):
    problem = str(Path(__file__).resolve().parents[1] / "demos" / "problems" / "u1_pair.prob")
    expr = "z^\u0663*mu + \uff11\uff12"  # Arabic-Indic three, fullwidth twelve
    code, out, err = run(capsys, "membership", "--problem", problem, "--expr", expr)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "unexpected character '\u0663' at position 2" in err


@pytest.mark.parametrize("expr, accepted", [
    ("mu^64", True), ("z^-64", True), ("mu^65", False), ("z^-65", False),
])
def test_exponent_cap_exits_2(capsys, u1_file, expr, accepted):
    code, _, err = run(capsys, "membership", "--problem", u1_file, "--expr", expr)
    if accepted:
        assert code in (0, 1) and not err
    else:
        assert code == 2 and "exceeds 64" in err


def test_literal_cap_exits_2(capsys, u1_file):
    code, out, err = run(capsys, "membership", "--problem", u1_file, "--expr", "1" + "0" * 5000)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "more than 1000 digits" in err


@pytest.mark.parametrize("torus_rank, accepted", [(8, True), (9, False), (100000, False)])
def test_rank_cap_exits_2(capsys, tmp_path, torus_rank, accepted):
    path = tmp_path / "rank.prob"
    path.write_text(f"torus_rank = {torus_rank}\n")
    code, out, err = run(capsys, "membership", "--problem", str(path), "--expr", "mu")
    if accepted:
        assert (code, out.splitlines()[0], err) == (0, "Member", "")
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "exceeds 8" in err


@pytest.mark.parametrize("lines, accepted", [
    (["weight = 0"] * 64, True), (["weight = 0"] * 65, False),
    (["weight = 16"], True), (["weight = 5000", "weight = -1"], False),
])
def test_weight_caps_exit_2(capsys, tmp_path, lines, accepted):
    path = tmp_path / "weights.prob"
    path.write_text("torus_rank = 1\n" + "".join(line + "\n" for line in lines))
    code, out, err = run(capsys, "generators", "--problem", str(path))
    if accepted:
        assert code == 0 and out and not err
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "exceed" in err


@pytest.mark.parametrize("window, flag, accepted", [
    ("13", None, True), ("14", None, False), ("100000", None, False),
    ("1", "13", True), ("1", "14", False), ("13", "14", False), ("100000", "1", True),
])
def test_grid_cap_exits_2(capsys, tmp_path, window, flag, accepted):
    path = tmp_path / "window.prob"
    path.write_text(U1 + f"degree_window = {window}\n")
    argv = ["generators", "--problem", str(path)] + (["--degree", flag] if flag else [])
    code, out, err = run(capsys, *argv)
    if accepted:
        assert code == 0 and not err
        assert len(out.splitlines()) == 2 + (26 if "13" in (window, flag) else 2)
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "more than 26" in err


def test_non_utf8_problem_file_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.prob"
    path.write_bytes(U1.encode() + "# caf\xe9\n".encode("latin-1"))
    code, out, err = run(capsys, "sh", "--problem", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "UTF-8" in err


@pytest.mark.parametrize("command", ["generators", "presentation", "mu-zero"])
@pytest.mark.parametrize("degree", ["0", "-1"])
def test_degree_below_one_exits_2(capsys, u1_file, command, degree):
    code, out, err = run(capsys, command, "--problem", u1_file, "--degree", degree)
    assert (code, out) == (2, "")
    assert "degree window must be at least 1" in err


@pytest.mark.parametrize("command", ["generators", "presentation", "mu-zero"])
def test_degree_on_su2_problem_exits_2(capsys, su2_file, command):
    code, out, err = run(capsys, command, "--problem", su2_file, "--degree", "3")
    assert (code, out) == (2, "")
    assert err == "error: --degree applies only to problems without SU(2) blocks\n"


@pytest.mark.parametrize("command", ["generators", "presentation", "mu-zero"])
def test_degree_with_generator_lines_exits_2(capsys, tmp_path, command):
    path = tmp_path / "overrides.prob"
    path.write_text(U1 + "generator a = z*(mu - tau)\ngenerator b = z^-1*(mu + tau)\n")
    code, out, err = run(capsys, command, "--problem", str(path), "--degree", "1")
    assert (code, out) == (2, "")
    assert err == "error: --degree conflicts with the file's generator lines\n"


def test_presentation_default_generators(capsys, u1_file):
    code, out, _ = run(capsys, "presentation", "--problem", u1_file)
    assert code == 0
    assert "relation: x*y - mu^2 + tau^2" in out


def test_verify_diagram_su2(capsys, su2_file):
    code, out, _ = run(capsys, "verify-diagram", "--problem", su2_file)
    assert code == 0
    lines = out.splitlines()
    assert "x: 1 [ok]" in lines
    assert "y: 1 [ok]" in lines
    assert "w: 0 [ok]" in lines
    assert "diagram: pass" in lines


def test_generator_override_failure_exits_1(capsys, tmp_path):
    path = tmp_path / "bad_gens.prob"
    path.write_text(U1 + "generator z = z\n")
    code, out, _ = run(capsys, "verify-diagram", "--problem", str(path))
    assert code == 1  # the bad generator becomes a failing report entry
    assert "z: (mu + eta) / (mu - eta) [denominator]" in out
    assert "diagram: fail" in out


def test_generators_use_overrides_on_abelian_problems(capsys, tmp_path):
    path = tmp_path / "u1_override.prob"
    path.write_text(U1 + "generator x = z*(mu - tau)\n")
    code, out, _ = run(capsys, "generators", "--problem", str(path))
    assert code == 0 and out.splitlines() == ["x = mu*z - tau*z"]
    code, out, _ = run(capsys, "presentation", "--problem", str(path))
    assert code == 0 and out.splitlines()[0] == "generators: x"


def test_blowup_description(capsys, su2_file):
    code, out, _ = run(capsys, "blowup", "--problem", su2_file)
    assert code == 0
    assert "relation: tau*u - z + 1" in out
    assert "derived v = u*z^-1" in out


def test_translate_images(capsys, su2_file):
    code, out, _ = run(capsys, "translate", "--problem", su2_file)
    assert code == 0
    assert "z -> (mu*z + tau*z) / (mu - tau)" in out
    assert "u -> (mu*u + tau*u + 2) / (mu - tau)" in out


def test_euler_section_sides(capsys, u1_file):
    code, out, _ = run(capsys, "euler-section", "--problem", u1_file, "--side", "tau")
    assert code == 0 and "z -> (mu + tau) / (mu - tau)" in out
    code, out, _ = run(capsys, "euler-section", "--problem", u1_file, "--side", "eta")
    assert code == 0 and "z -> (mu + eta) / (mu - eta)" in out


def test_seidel_and_sh(capsys, u1_file):
    code, out, _ = run(capsys, "seidel", "--problem", u1_file)
    assert code == 0 and "diagonal: mu^2 - eta^2" in out
    code, out, _ = run(capsys, "sh", "--problem", u1_file)
    assert code == 0 and "inverted: mu + eta, mu - eta" in out


def test_map_and_mu_zero(capsys, u1_file):
    code, out, _ = run(capsys, "map", "--problem", u1_file, "--expr", "z*(mu-tau)")
    assert code == 0 and "image: mu + eta" in out
    code, out, _ = run(capsys, "mu-zero", "--problem", u1_file)
    assert code == 0 and "relation: x*y + tau^2" in out


def test_weyl_invariants_and_pure_branch(capsys, su2_file):
    code, out, _ = run(capsys, "weyl-invariants", "--problem", su2_file, "--expr", "z")
    assert code == 0 and "average: 1/2*z + 1/2*z^-1" in out
    code, out, _ = run(capsys, "pure-branch", "--problem", su2_file)
    assert code == 0 and "kind: blowup" in out


def test_reruns_byte_identical(capsys, u1_file):
    outputs = []
    for _ in range(2):
        _, out, _ = run(
            capsys, "presentation", "--problem", u1_file, "--format", "json"
        )
        outputs.append(out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        _, out, _ = run(capsys, "membership", "--problem", u1_file, "--expr", "z*(mu-tau)")
        outputs.append(out)
    assert outputs[2] == outputs[3]


def test_json_and_text_describe_same_elements(capsys, u1_file):
    _, text_out, _ = run(capsys, "generators", "--problem", u1_file)
    _, json_out, _ = run(capsys, "generators", "--problem", u1_file, "--format", "json")
    payload = json.loads(json_out)
    ring = ambient_table(parse_problem_text(U1).problem())
    text_elements = {}
    for line in text_out.splitlines():
        name, expr = line.split(" = ", 1)
        text_elements[name] = parse_expression(expr, ring.factors)
    for name, data in payload["generators"].items():
        assert parse_expression(data["text"], ring.factors) == text_elements[name]
    assert payload["exit_code"] == 0
