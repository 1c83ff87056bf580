"""Command line interface and exit codes."""

import dataclasses
import itertools
import pathlib
import random
import subprocess
import sys
import time

import pytest

from posicert import cli, driver, ratlin, sdp
from posicert.exact import format_certificate, lift_certificate, parse_certificate
from posicert.gram import build_gram_system, build_reduced_system
from posicert.parsing import MAX_DEGREE, parse_problem

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"


def test_certify_writes_verifiable_certificate(tmp_path, capsys):
    out = tmp_path / "worked.cert"
    code = cli.main(["certify", str(PROBLEMS / "constrained_example.txt"), "--out", str(out)])
    assert code == 0
    assert "exact certificate at n = 0" in capsys.readouterr().out
    assert cli.main(["verify", str(out)]) == 0
    assert "Valid" in capsys.readouterr().out


def test_verify_rejects_corrupted_file(tmp_path, capsys):
    out = tmp_path / "worked.cert"
    assert cli.main(["certify", str(PROBLEMS / "constrained_example.txt"), "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    corrupted = text.replace("3/4", "-3/4")
    assert corrupted != text
    out.write_text(corrupted)
    assert cli.main(["verify", str(out)]) == 1
    assert "Invalid" in capsys.readouterr().out


def test_precheck_blocks_without_force(capsys):
    code = cli.main(["certify", str(PROBLEMS / "motzkin.txt")])
    assert code == 2
    assert "vanishes" in capsys.readouterr().out


def test_force_searches_anyway(tmp_path, capsys):
    code = cli.main(["certify", str(PROBLEMS / "motzkin.txt"), "--force"])
    assert code == 0
    assert "exact certificate at n = 1" in capsys.readouterr().out


def test_negative_counterexample_exit(tmp_path, capsys):
    doc = 'vars = x, y\nf = "x^2 - y^2"\nmode = certify\n'
    problem = tmp_path / "indefinite.txt"
    problem.write_text(doc)
    assert cli.main(["certify", str(problem)]) == 2
    assert "counterexample" in capsys.readouterr().out


def test_input_error_exit(tmp_path, capsys):
    problem = tmp_path / "broken.txt"
    problem.write_text("nonsense = 1\n")
    assert cli.main(["certify", str(problem)]) == 3
    assert cli.main(["certify", str(tmp_path / "missing.txt")]) == 3


def test_odd_power_not_found_exit(capsys):
    code = cli.main(["odd-power", str(PROBLEMS / "stengle.txt"), "--m-max", "1", "--force"])
    assert code == 1
    out = capsys.readouterr().out
    assert "m=1" in out and "margin negative" in out


def test_odd_power_outcome_names_the_certified_power(tmp_path, capsys):
    # f^1 is already a sum of squares: certified at m = 1 (a certificate of f*f^0)
    problem = tmp_path / "circle.txt"
    problem.write_text('vars = x, y\nf = "x^2 + y^2"\nmode = odd-power\nm_max = 3\n')
    assert cli.main(["odd-power", str(problem), "--force"]) == 0
    out = capsys.readouterr().out
    assert "m=1: certified" in out
    assert "outcome: exact certificate at m = 1" in out


def test_epsilon_mode(capsys):
    code = cli.main(["epsilon", str(PROBLEMS / "epsilon_example.txt")])
    assert code == 0
    assert "certified epsilon" in capsys.readouterr().out


def test_check_sos_subcommand(tmp_path, capsys):
    doc = 'f = "x^2 + 2*x*y + 2*y^2 + z^2"\n'
    problem = tmp_path / "sos.txt"
    problem.write_text(doc)
    assert cli.main(["check-sos", str(problem)]) == 0


def test_dump_sdp(tmp_path, capsys):
    out = tmp_path / "dump.txt"
    code = cli.main(["dump-sdp", str(PROBLEMS / "constrained_example.txt"), "--n", "0", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("sdp-dump 1")
    # the basis {x, y} splits into its sign classes, and the x*y row, which
    # only the pair (x, y) reached, is gone
    assert "blocks 1 1 1" in text
    assert text.count("constraint ") == 2


def test_dump_sdp_is_the_face_the_search_solves(capsys):
    # Motzkin times g vanishes at 12 grid points: the search solves the face
    # they cut out of each sign class, 1 + 1 + 1 + 2 generators, not the
    # full basis of 9
    assert cli.main(["dump-sdp", str(PROBLEMS / "motzkin.txt"), "--n", "1"]) == 0
    assert "\nblocks 1 1 1 2\n" in capsys.readouterr().out


CHECK_SOS_WITH_H = 'vars = x, y\nf = "(x^2 - y^2)^2"\nh = ["x*y"]\nmode = check-sos\n'
ZERO_H_MARGIN = 'vars = x, y\nf = "x^2 + y^2"\nh_margin = "0"\nmode = epsilon-margin\n'
SEARCHES = {
    "certify": driver.certify,
    "check-sos": driver.certify,
    "odd-power": driver.odd_power,
    "epsilon-margin": driver.epsilon_margin,
}


def _problem_file(tmp_path, name):
    if name.endswith(".txt"):
        return PROBLEMS / name
    path = tmp_path / "problem.txt"
    path.write_text({"check_sos_with_h": CHECK_SOS_WITH_H, "zero_h_margin": ZERO_H_MARGIN}[name])
    return path


def _first_searched_dump(monkeypatch, spec, exponent):
    """The format_debug_dump of the first SdpProblem the mode's search passes
    to sdp.solve at the scan exponent.  Every solve is stubbed margin
    negative, so the scan goes on to the exponent and solves once at each."""
    solved = []

    def stub(problem, *args, **kwargs):
        solved.append(problem)
        return sdp.SdpSolution(sdp.MARGIN_NEGATIVE, -1.0, [], None, [], 0.0, 0)

    monkeypatch.setattr(driver.sdp, "solve", stub)
    bound = dict(m_max=exponent) if spec.mode == "odd-power" else dict(n_max=exponent)
    report = SEARCHES[spec.mode](dataclasses.replace(spec, **bound))
    last = report.records[-1]
    assert (last.exponent, last.status) == (exponent, driver.MARGIN_NEGATIVE)
    return sdp.format_debug_dump(solved[-1])


@pytest.mark.parametrize(
    "name, exponent",
    [
        ("constrained_example.txt", 0),
        ("constrained_example.txt", 1),
        ("check_sos_with_h", 0),
        ("stengle.txt", 1),
        ("stengle.txt", 3),
        ("epsilon_example.txt", 0),
        ("epsilon_example.txt", 1),
    ],
)
def test_dump_sdp_is_the_first_sdp_the_search_solves(name, exponent, tmp_path, monkeypatch, capsys):
    problem = _problem_file(tmp_path, name)
    assert cli.main(["dump-sdp", str(problem), "--n", str(exponent)]) == 0
    dump = capsys.readouterr().out
    assert dump == _first_searched_dump(monkeypatch, parse_problem(problem.read_text()), exponent)
    if name == "check_sos_with_h":
        assert "\nblocks 1\n" in dump  # one block: check-sos drops h


@pytest.mark.parametrize(
    "name, exponent",
    [
        ("check_sos_with_h", 1),
        ("stengle.txt", 0),
        ("stengle.txt", 2),
        ("zero_h_margin", 0),
        ("constrained_example.txt", -1),
    ],
)
def test_dump_sdp_refuses_an_exponent_the_mode_never_scans(name, exponent, tmp_path, capsys):
    assert cli.main(["dump-sdp", str(_problem_file(tmp_path, name)), "--n", str(exponent)]) == 3
    assert "input error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["check-sos", str(PROBLEMS / "epsilon_example.txt"), "--force"],
        ["dump-sdp", str(PROBLEMS / "constrained_example.txt"), "--n", "0"],
    ],
)
def test_unwritable_out_is_input_error(argv, tmp_path, capsys):
    target = tmp_path / "missing_dir" / "out.txt"
    assert cli.main(argv + ["--out", str(target)]) == 3
    assert "input error:" in capsys.readouterr().err


def test_dump_sdp_without_a_system_is_not_found(tmp_path, capsys):
    # x^4 + x^3 at m = 1: pruning leaves {x^2}, whose square cannot reach x^3
    problem = tmp_path / "odd.txt"
    problem.write_text('vars = x\nf = "x^4 + x^3"\nmode = odd-power\n')
    assert cli.main(["dump-sdp", str(problem), "--n", "1"]) == 1
    reason = "target monomial with exponents (3,) is not achievable by any basis product"
    assert capsys.readouterr().out == f"no system at n = 1: {reason}\n"


# epsilon-margin problems whose stage system is an exact obstruction at every n
EPSILON_OBSTRUCTED = {
    "support": (
        'vars = x, y\nf = "x^2 + y^2"\ng = "x^2 + y^2"\nh_margin = "x^3"\nmode = epsilon-margin\nn_max = 1\n',
        driver.SUPPORT_INFEASIBLE,
        "h^2 support not reachable at this degree",
    ),
    "parity": (
        'vars = x, y\nf = "x^3 + y^3"\ng = "x^2 + y^2"\nh_margin = "x*y"\nmode = epsilon-margin\nn_max = 1\n',
        driver.PARITY_INFEASIBLE,
        "every product block has an odd or negative required basis degree",
    ),
}


@pytest.mark.parametrize("name", EPSILON_OBSTRUCTED)
def test_epsilon_stage_obstruction_is_recorded_without_a_solve(name, tmp_path, monkeypatch, capsys):
    document, status, note = EPSILON_OBSTRUCTED[name]
    problem = tmp_path / f"{name}.txt"
    problem.write_text(document)
    assert cli.main(["dump-sdp", str(problem), "--n", "0"]) == 1
    assert capsys.readouterr().out.startswith(f"no system at n = 0: {note}")

    def no_solve(*args, **kwargs):
        raise AssertionError("an obstructed exponent must not reach the solver")

    monkeypatch.setattr(driver.sdp, "solve", no_solve)
    report = driver.epsilon_margin(parse_problem(document))
    assert report.outcome == driver.OUTCOME_NOT_FOUND and report.certificate is None
    assert [(r.exponent, r.status) for r in report.records] == [(0, status), (1, status)]
    assert all(r.note.startswith(note) for r in report.records)


def test_precheck_without_a_sample_warns(tmp_path, capsys):
    # beyond 6 variables there is no grid, and --samples 0 draws no random point
    problem = tmp_path / "seven.txt"
    problem.write_text('vars = a, b, c, d, e, u, v\nf = "a^2 + b^2 + c^2 + d^2 + e^2 + u^2 + v^2"\n')
    assert cli.main(["check-sos", str(problem), "--samples", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("warning: no point was sampled")
    assert "exact certificate at n = 0" in out


def test_certify_on_a_zero_g_is_refused_before_the_search(tmp_path, capsys):
    # a valid check-sos file; certify would take g^n with n > 0
    problem = tmp_path / "zero_g.txt"
    problem.write_text('vars = x, y\nf = "x^2 + y^2"\ng = "0"\n')
    assert cli.main(["certify", str(problem), "--force"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: g: must be nonzero in certify mode")
    assert captured.out == ""
    assert cli.main(["check-sos", str(problem), "--force"]) == 0


def test_dump_sdp_zero_target_is_input_error(tmp_path, capsys):
    problem = tmp_path / "zero.txt"
    problem.write_text('vars = x, y\nf = "0"\n')
    assert cli.main(["dump-sdp", str(problem), "--n", "0"]) == 3
    assert "input error: target polynomial is zero" in capsys.readouterr().err


def test_degree_cap_is_input_error(tmp_path, capsys):
    problem = tmp_path / "huge.txt"
    problem.write_text('f = "(x+y+1)^120"\n')
    assert cli.main(["check-sos", str(problem)]) == 3
    assert "degree" in capsys.readouterr().err


def test_verify_reads_back_a_lifted_certificate_past_the_degree_cap(tmp_path, capsys):
    out = tmp_path / "perturbed.cert"
    assert cli.main(["certify", str(PROBLEMS / "perturbed_motzkin.txt"), "--force", "--out", str(out)]) == 0
    cert = parse_certificate(out.read_text())
    for _ in range(9):
        cert = lift_certificate(cert)
    degree = max(sq.poly.total_degree() for block in cert.blocks for sq in block.squares)
    assert cert.n == 18 and degree > MAX_DEGREE
    lifted = tmp_path / "lifted.cert"
    lifted.write_text(format_certificate(cert))
    capsys.readouterr()
    assert cli.main(["verify", str(lifted)]) == 0
    assert "Valid" in capsys.readouterr().out


def _circle_certificate(tmp_path, n):
    """x^2 + y^2 = x^2 + y^2 claimed at N = n with g = x^2 + y^2; valid only at n = 0."""
    doc = (
        'vars = x, y\nf = "x^2 + y^2"\ng = "x^2 + y^2"\nh = []\n'
        f'N = {n}\ne = ()\nbasis = [x, y]\nsquares = [(1, "x"), (1, "y")]\n'
    )
    path = tmp_path / f"circle_{n}.cert"
    path.write_text(doc)
    return path


def test_verify_negative_exponent_is_input_error(tmp_path, capsys):
    assert cli.main(["verify", str(_circle_certificate(tmp_path, 0))]) == 0
    capsys.readouterr()
    assert cli.main(["verify", str(_circle_certificate(tmp_path, -1))]) == 3
    assert "N: must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("e = ()", "e = (a)", "e:"),
        ("h = []", "h = []\nmargin = abc", "margin:"),
        ("vars = x, y", "vars = ", "vars:"),
        ("vars = x, y", "vars = x, y, y", "vars: duplicate variable name"),
        ("h = []", "h = []\nmargin = nan", "margin:"),
        ("h = []", "h = []\nmargin = inf", "margin:"),
        ("h = []", "h = []\nmargin = -inf", "margin:"),
        ("h = []", "h = []\ndenominator_bound = 0", "denominator_bound:"),
        ("h = []", "h = []\ndenominator_bound = -5", "denominator_bound:"),
        ("vars = x, y", "vars = x, y\nvars = x, y", "duplicate key 'vars'"),
        ("basis = [x, y]", "basis = [x, y]\nbasis = [x, y]", "duplicate basis in block section"),
        ('g = "x^2 + y^2"\n', "", "missing g"),
        ("e = ()", "e = 0", "e: expected a parenthesized tuple"),
        ('h = []\nN = 0\ne = ()', 'h = ["x"]\nN = 0\ne = (2)', "e: entries must be 0 or 1"),
        ("basis = [x, y]", "basis = [2*x, y]", "basis: '2*x' is not a monomial"),
        ('(1, "x")', '(1, "x", "y")', "squares: expected (weight, \"poly\") pairs"),
        ('(1, "x")', '(1/0, "x")', "squares: invalid rational '1/0'"),
    ],
)
def test_verify_malformed_entry_is_input_error(old, new, key, tmp_path, capsys):
    path = _circle_certificate(tmp_path, 0)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    assert cli.main(["verify", str(path)]) == 3
    assert key in capsys.readouterr().err


def test_verify_product_index_of_the_wrong_length_is_invalid(tmp_path, capsys):
    # a well-formed file whose section index has no entry for its one h
    path = _circle_certificate(tmp_path, 0)
    path.write_text(path.read_text().replace("h = []", 'h = ["x"]'))
    assert cli.main(["verify", str(path)]) == 1
    assert "Invalid: product index () has wrong length" in capsys.readouterr().out


def test_verify_accepts_a_negative_finite_margin(tmp_path, capsys):
    # a borderline solve certifies with t* slightly below zero
    path = _circle_certificate(tmp_path, 0)
    path.write_text(path.read_text().replace("h = []", "h = []\nmargin = -1.25e-09\ndenominator_bound = 1"))
    assert cli.main(["verify", str(path)]) == 0
    assert "Valid" in capsys.readouterr().out


def test_verify_rejects_an_unreachable_degree_before_expanding(tmp_path, capsys):
    # expanding g^3000 takes more than 20 s; its degree alone rules the identity out
    assert cli.main(["verify", str(_circle_certificate(tmp_path, 3000))]) == 1
    out = capsys.readouterr().out
    assert "Invalid" in out and "degree 6002" in out and "at most 2" in out


def _squares_certificate(tmp_path, f, g, n, weight=1):
    """f * g^n = weight * (x^2 + y^2) claimed as a certificate file."""
    doc = (
        f'vars = x, y\nf = "{f}"\ng = "{g}"\nh = []\n'
        f'N = {n}\ne = ()\nbasis = [x, y]\nsquares = [({weight}, "x"), ({weight}, "y")]\n'
    )
    path = tmp_path / f"squares_{n}.cert"
    path.write_text(doc)
    return path


def test_verify_reports_a_coefficient_too_long_to_print(tmp_path, capsys):
    # 2^20000 cannot equal the squares' 1: the power is named, not expanded
    assert cli.main(["verify", str(_squares_certificate(tmp_path, "x^2 + y^2", "2", 20000))]) == 1
    out = capsys.readouterr().out
    assert "coefficient mismatch at monomial x^2: target has (2)^20000 * 1, squares give 1" in out
    # 2^200 against 2^200 + 1 passes that bound; both sides have 61 digits
    assert cli.main(["verify", str(_squares_certificate(tmp_path, "x^2 + y^2", "2", 200, 2**200 + 1))]) == 1
    out = capsys.readouterr().out
    assert "coefficient mismatch at monomial x^2: target has <61 digits>, squares give <61 digits>" in out


@pytest.mark.parametrize(
    "f, g, n",
    [("0", "x^2 + y^2", 3000), ("x^2 + y^2", "2", 10**8)],
    ids=["zero_f", "constant_g"],
)
def test_verify_does_not_expand_g_power_in_vain(f, g, n, tmp_path, capsys):
    # expanding g^N would take about 30 s (zero f) and 53 s (constant g)
    start = time.perf_counter()
    assert cli.main(["verify", str(_squares_certificate(tmp_path, f, g, n))]) == 1
    assert time.perf_counter() - start < 2.0
    assert "Invalid: coefficient mismatch at monomial x^2" in capsys.readouterr().out


@pytest.mark.parametrize("g, weight", [("2", 16), ("1/2", "1/16")])
def test_verify_accepts_a_constant_g_power(g, weight, tmp_path, capsys):
    assert cli.main(["verify", str(_squares_certificate(tmp_path, "x^2 + y^2", g, 4, weight))]) == 0
    assert "Valid" in capsys.readouterr().out


def test_negative_samples_is_input_error(capsys):
    code = cli.main(["check-sos", str(PROBLEMS / "constrained_example.txt"), "--samples", "-5"])
    assert code == 3
    assert "--samples must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_tol_outside_unit_interval_is_input_error(tol, capsys):
    # rejected before the precheck: no --force, and nothing reaches stdout
    code = cli.main(["certify", str(PROBLEMS / "motzkin.txt"), f"--tol={tol}"])
    assert code == 3
    captured = capsys.readouterr()
    assert "--tol must be a finite number in (0, 1)" in captured.err
    assert captured.out == ""


def test_n_max_flag_overrides(capsys):
    code = cli.main(["certify", str(PROBLEMS / "motzkin.txt"), "--force", "--n-max", "0"])
    assert code == 1  # not found up to 0: the n = 1 certificate is out of reach
    assert "not found up to n = 0" in capsys.readouterr().out


def test_huge_n_max_scans_lazily(capsys):
    # the scan stops at its first certificate, so a bound of 10^18 costs nothing
    code = cli.main(["certify", str(PROBLEMS / "motzkin.txt"), "--force", "--n-max", str(10**18)])
    assert code == 0
    assert "exact certificate at n = 1" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["dump-sdp", str(PROBLEMS / "motzkin.txt"), "--n", "1"],
        ["certify", str(PROBLEMS / "motzkin.txt"), "--force"],
    ],
)
def test_dense_tensor_over_budget_is_input_error(argv, monkeypatch, capsys):
    # Motzkin's tensors take 128 bytes at n = 0 (blocks 1 1 1 1, 4 rows)
    # and 336 at n = 1 (blocks 1 1 1 2, 6 rows)
    monkeypatch.setattr(driver, "SDP_TENSOR_BYTES", 100)
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert "input error: system too large for the dense SDP" in err
    assert "block sizes [" in err


def test_split_system_fits_a_budget_its_unsplit_system_exceeds(monkeypatch, capsys):
    # perturbed Motzkin has no grid zero, so at n = 0 the search solves its
    # pruned basis split into sign classes; the guard reads the split sizes
    spec = parse_problem((PROBLEMS / "perturbed_motzkin.txt").read_text())
    split = build_reduced_system(spec.f, spec.g, 0, (), spec.grading)
    unsplit = build_gram_system(spec.f, spec.g, 0, (), spec.grading)
    assert [unsplit.block_dim(0)] == [sum(split.block_dim(b) for b in split.active_indices)] == [10]

    def tensor_bytes(system):
        return 8 * len(system.independent) * sum(system.block_dim(b) ** 2 for b in system.active_indices)

    monkeypatch.setattr(driver, "SDP_TENSOR_BYTES", tensor_bytes(split))
    assert tensor_bytes(unsplit) > driver.SDP_TENSOR_BYTES
    with pytest.raises(ValueError, match="too large for the dense SDP"):
        driver.system_to_sdp(unsplit)
    assert cli.main(["certify", str(PROBLEMS / "perturbed_motzkin.txt"), "--force"]) == 0
    assert "exact certificate at n = 0" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, budget, sizes",
    [
        # the smallest n the real budget refuses before assembly; m is at least 351
        pytest.param(
            ["dump-sdp", str(PROBLEMS / "perturbed_motzkin.txt"), "--n", "47"],
            None,
            "[351, 325, 325, 325], at least 351",
            id="perturbed_motzkin_n47",
        ),
        # the epsilon stage's unsplit system, under a budget below its 8*4*4^2 bytes
        pytest.param(
            ["dump-sdp", str(PROBLEMS / "epsilon_example.txt"), "--n", "1"], 100, "[4], at least 4", id="epsilon_stage"
        ),
    ],
)
def test_oversized_system_is_refused_before_assembly(argv, budget, sizes, monkeypatch, capsys):
    def row_reduce(*args):
        raise AssertionError("a system over the budget was assembled")

    monkeypatch.setattr(ratlin, "row_reduce", row_reduce)
    if budget is not None:
        monkeypatch.setattr(driver, "SDP_TENSOR_BYTES", budget)
    assert cli.main(argv) == 3
    assert f"input error: system too large for the dense SDP: block sizes {sizes} rows" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, document",
    [
        pytest.param("constrained_example", (PROBLEMS / "constrained_example.txt").read_text(), id="constrained"),
        pytest.param(
            "square_h", 'vars = x, y\nf = "(x^2 - y^2)^2"\nh = ["x^2 - y^2"]\nmode = certify\nn_max = 1\n', id="square_h"
        ),
    ],
)
def test_sign_classes_merge_into_one_certificate_block(name, document, tmp_path):
    # the search solves one block per sign class; the certificate holds one
    # section per product index and verifies in a separate process
    spec = parse_problem(document)
    system, _ = driver.exponent_system(spec, 0)
    indices = [system.blocks[b].product_index for b in system.active_indices]
    assert len(indices) > len(set(indices))  # some product index has several classes
    report = driver.certify(spec)
    text = format_certificate(report.certificate)
    assert text.count("\ne = (") == len(set(indices)) == len(report.certificate.blocks)
    assert [block.product_index for block in report.certificate.blocks] == sorted(set(indices))
    parsed = parse_certificate(text)
    assert format_certificate(parsed) == text
    assert [block.squares for block in parsed.blocks] == [block.squares for block in report.certificate.blocks]
    path = tmp_path / f"{name}.cert"
    path.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "posicert.cli", "verify", str(path)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Valid" in proc.stdout


def _stall_sos_document(label: str) -> str:
    """Four squares of dense ternary cubics, integer coefficients in [-3, 3]
    drawn from ``random.Random(label)`` by exponent, left unexpanded."""
    rng = random.Random(label)
    squares = []
    for _ in range(4):
        coeffs = {e: rng.randint(-3, 3) for e in itertools.product(range(4), repeat=3) if sum(e) <= 3}
        terms = []
        for exps, c in coeffs.items():
            if c:
                mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", exps) if e)
                terms.append(f"{c}*{mono}" if mono else str(c))
        squares.append("(" + " + ".join(terms).replace("+ -", "- ") + ")^2")
    return f'vars = x, y, z\nf = "{" + ".join(squares)}"\nmode = check-sos\n'


@pytest.mark.parametrize("label", ["stall:106", "stall:148"])
def test_check_sos_writes_a_certificate_that_verifies_in_a_separate_process(label, tmp_path, capsys):
    # rounding each Gram entry to its own best denominator gave these
    # certificates a weight of over 4300 digits, too long for str() to print
    problem, out = tmp_path / "sos.txt", tmp_path / "sos.cert"
    problem.write_text(_stall_sos_document(label))
    assert cli.main(["check-sos", str(problem), "--force", "--out", str(out)]) == 0
    assert "exact certificate at n = 0" in capsys.readouterr().out
    proc = subprocess.run(
        [sys.executable, "-m", "posicert.cli", "verify", str(out)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Valid" in proc.stdout


def test_odd_power_precheck_ignores_g(tmp_path, capsys):
    # odd-power searches f^m alone, so a g that changes sign is no counterexample
    problem = tmp_path / "odd_g.txt"
    problem.write_text('vars = x, y\nf = "x^2 + y^2"\ng = "x"\nmode = odd-power\nm_max = 1\n')
    assert cli.main(["odd-power", str(problem)]) == 0
    assert "outcome: exact certificate at m = 1" in capsys.readouterr().out


def test_check_sos_precheck_keeps_points_off_the_constraint_set(tmp_path, capsys):
    # check-sos searches without constraints: f(0, 1) = -2 is a counterexample
    # although x^2 - 4*y^2 is negative there
    problem = tmp_path / "sos_h.txt"
    problem.write_text('vars = x, y\nf = "x^2 - 2*y^2"\nh = ["x^2 - 4*y^2"]\nmode = check-sos\n')
    assert cli.main(["check-sos", str(problem)]) == 2
    assert "counterexample: f = " in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["certify", str(PROBLEMS / "motzkin.txt"), "--n-max", "x"], ["certify"]])
def test_malformed_command_line_is_input_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 3
    assert "usage: posicert certify" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["certify", "--help"])
    assert exc.value.code == 0


def test_odd_power_undecided_outcome(capsys):
    code = cli.main(["odd-power", str(PROBLEMS / "stengle.txt"), "--m-max", "3", "--force"])
    assert code == 1
    assert "outcome: unknown (undecided at m in [3])" in capsys.readouterr().out


def test_zero_h_margin_is_rejected(tmp_path, capsys):
    problem = tmp_path / "eps0.txt"
    problem.write_text('vars = x, y\nf = "x^2 + y^2"\ng = "x^2 + y^2"\nh_margin = "0"\nmode = epsilon-margin\n')
    assert cli.main(["epsilon", str(problem)]) == 3
    captured = capsys.readouterr()
    assert "input error: h_margin" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("force", [[], ["--force"]])
def test_epsilon_without_h_margin_is_refused_before_the_precheck(force, monkeypatch, capsys):
    # motzkin.txt has no h_margin; its zeros would stop the precheck with exit 2
    monkeypatch.setattr(cli, "positivity_precheck", None)  # any sampling would raise
    assert cli.main(["epsilon", str(PROBLEMS / "motzkin.txt"), *force]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: h_margin: required")
    assert captured.out == ""


@pytest.mark.parametrize("limit, ladder", [(1000, (100, 1000)), (50, (50,)), (10**4, (100, 10**4))])
def test_denominator_ladder_from_flag(limit, ladder):
    assert cli._bounds_from_flag(limit) == ladder


def test_denom_bound_flag_sets_the_last_rung(tmp_path, capsys):
    # a margin of 1/1000: the first rung (100) fails, the flag's 5000 certifies
    problem = tmp_path / "perturbed.txt"
    problem.write_text(
        'vars = x, y, z\nf = "(x^4*y^2 + x^2*y^4 + z^6 - 3*x^2*y^2*z^2 + 1/1000*(x^2 + y^2 + z^2)^3)'
        '*(x^2 + y^2 + z^2)"\nmode = check-sos\n'
    )
    out = tmp_path / "perturbed.cert"
    argv = ["check-sos", str(problem), "--denom-bound", "5000", "--force", "--out", str(out)]
    assert cli.main(argv) == 0
    record = capsys.readouterr().out.splitlines()[1]
    assert record.startswith("  n=0: certified") and record.endswith("rounding attempts=2")
    assert "denominator_bound = 5000\n" in out.read_text()
    assert cli.main(argv[:2] + ["--denom-bound", "0"]) == 3
    assert "input error: --denom-bound must be positive" in capsys.readouterr().err


def test_numerical_failure_exit(monkeypatch, capsys):
    def broken(problem, *args, **kwargs):
        return sdp.SdpSolution(
            status=sdp.NUMERICAL_FAILURE, t_star=float("nan"), x_blocks=[], y=None, s_blocks=[], gap=float("inf"), iterations=0
        )

    monkeypatch.setattr(driver.sdp, "solve", broken)
    assert cli.main(["certify", str(PROBLEMS / "perturbed_motzkin.txt"), "--force"]) == 4
    assert "numerical failure" in capsys.readouterr().err
