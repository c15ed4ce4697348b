"""Command-line interface: exit codes, JSON contracts, determinism."""

from __future__ import annotations

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qsylv
import qsylv.cli as cli_module
import qsylv.errors as errors_module
import qsylv.svd as svd_module
from qsylv import (
    EquationKind,
    GenSylvesterProblem,
    OutOfRange,
    PairSolution,
    QMatrix,
    Quaternion,
    apply_lhs,
)
from qsylv.cli import main
from qsylv.golden import example_pair, example_star
from qsylv.jsonio import dumps, loads, write_json
from qsylv.sampling import SplitMix64, planted_rank_matrix, random_matrix

from conftest import q, qm


def run_cli(argv, capsys):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def pair_files(tmp_path):
    """The bundled consistent worked example, written out as JSON files."""
    prob = example_pair().problem
    paths = {}
    for name in ("a1", "b1", "a2", "b2", "c"):
        path = str(tmp_path / f"{name}.json")
        write_json(path, getattr(prob, name).to_json())
        paths[name] = path
    return paths


@pytest.fixture
def star_files(tmp_path):
    prob = example_star().problem
    a_path = str(tmp_path / "a.json")
    c_path = str(tmp_path / "c.json")
    write_json(a_path, prob.a1.to_json())
    write_json(c_path, prob.c.to_json())
    return a_path, c_path


# -- exit codes -------------------------------------------------------------------


def test_usage_error_exits_64(capsys):
    code, _, _ = run_cli(["no-such-command"], capsys)
    assert code == 64
    code, _, _ = run_cli(["solve"], capsys)  # missing required arguments
    assert code == 64
    code, _, _ = run_cli(["solve", "--kind", "bogus", "--c", "x.json"], capsys)
    assert code == 64


def test_missing_file_exits_66(capsys, tmp_path):
    code, _, err = run_cli(
        ["solve", "--kind", "lyapunov-star", "--a1", str(tmp_path / "no.json"),
         "--c", str(tmp_path / "no2.json")],
        capsys,
    )
    assert code == 66
    assert "error" in err


def test_malformed_json_exits_66(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, _ = run_cli(
        ["solve", "--kind", "lyapunov-star", "--a1", str(bad), "--c", str(bad)],
        capsys,
    )
    assert code == 66


@pytest.mark.parametrize("where", ["out", "out-dir"])
def test_unwritable_output_exits_66(where, capsys, tmp_path):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    if where == "out":
        target = ["--out", str(tmp_path / "missing_dir" / "x.json")]
    else:
        target = ["--out-dir", str(blocker / "sub")]
    code, out, err = run_cli(["gen", "--kind", "sylvester", "--seed", "1", *target], capsys)
    assert code == 66
    assert out == "" and err.startswith("qsylv: error: cannot write")


def test_gen_out_and_out_dir_together_are_a_usage_error(capsys, tmp_path):
    out, out_dir = tmp_path / "a.json", tmp_path / "d"
    code, _, err = run_cli(["gen", "--kind", "sylvester", "--seed", "1", "--out", str(out),
                            "--out-dir", str(out_dir)], capsys)
    assert code == 64
    assert "not allowed with argument" in err
    assert not out.exists() and not out_dir.exists()


@pytest.mark.parametrize("content", [
    pytest.param(None, id="missing"),
    pytest.param(b"\xff\xfe", id="not-utf-8"),
    pytest.param(b'{"rows": 1,\n}', id="malformed-json"),
    pytest.param(b'{"rows": 1, "cols": 1}', id="no-data"),
    pytest.param(b'{"rows": 1, "cols": 1, "data": [[[NaN, 0, 0, 0]]]}', id="non-finite"),
])
@pytest.mark.parametrize("slot", ["a1", "c"])
def test_every_input_error_names_its_file_once(slot, content, capsys, pair_files, tmp_path):
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_bytes(content)
    argv = ["check", "--kind", "gen-sylvester"]
    for name in ("a1", "b1", "a2", "b2", "c"):
        argv += [f"--{name}", str(bad) if name == slot else pair_files[name]]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (66, "")
    assert err.startswith(f"qsylv: error: {bad}: ") and err.count("\n") == 1
    assert err.count(str(bad)) == 1 and err.count("bad.json") == 1


def test_dimension_clash_exits_64(capsys, tmp_path):
    a = tmp_path / "a.json"
    c = tmp_path / "c.json"
    write_json(str(a), QMatrix.zeros(3, 2).to_json())
    write_json(str(c), QMatrix.zeros(2, 2).to_json())  # wrong row count
    code, _, _ = run_cli(
        ["solve", "--kind", "lyapunov-star", "--a1", str(a), "--c", str(c)], capsys
    )
    assert code == 64


def _documented_exit_codes() -> set[int]:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Exit codes:", 1)[1].split("\n\n", 1)[0]
    return {int(code) for code in re.findall(r"`(\d+)`", paragraph)}


_ERRORS = [value for value in vars(errors_module).values()
           if isinstance(value, type) and issubclass(value, errors_module.QsylvError)]
_ERRORS.append(OSError)  # output that cannot be written


@pytest.mark.parametrize("error", _ERRORS, ids=lambda cls: cls.__name__)
def test_every_error_exits_with_a_documented_code(error, capsys, monkeypatch):
    def raising(args):
        raise error("boom")

    monkeypatch.setattr(cli_module, "_cmd_selftest", raising)
    code, out, err = run_cli(["selftest"], capsys)
    expected = {errors_module.ParseError: 66, errors_module.DimensionMismatch: 64,
                errors_module.InvalidSize: 64, errors_module.Inconsistent: 2, OSError: 66}
    assert code == expected.get(error, 1)
    documented = _documented_exit_codes()
    assert documented == {0, 1, 2, 3, 64, 66}
    assert code in documented
    what = "cannot write: " if error is OSError else ""
    assert (out, err) == ("", f"qsylv: error: {what}boom\n")


def test_numeric_error_exits_1(capsys, tmp_path):
    rect = tmp_path / "rect.json"
    write_json(str(rect), QMatrix.zeros(3, 2).to_json())
    code, _, _ = run_cli(["det", "--in", str(rect), "--kind", "rdet"], capsys)
    assert code == 1


def test_non_finite_input_is_refused_by_the_api_and_the_cli(capsys, tmp_path):
    for bad in (float("nan"), float("inf"), q(1.0, 0.0, -float("inf"))):
        with pytest.raises(OutOfRange):
            QMatrix.from_rows([[bad, 1.0], [2.0, 3.0]])
    path = tmp_path / "nan.json"
    for token in ("NaN", "Infinity", "1e400"):
        path.write_text(
            '{"rows": 2, "cols": 2, "data": [[[%s, 0, 0, 0], [1, 0, 0, 0]],'
            ' [[2, 0, 0, 0], [3, 0, 0, 0]]]}' % token
        )
        code, out, err = run_cli(["mpinv", "--in", str(path)], capsys)
        assert code == 66 and out == "" and "finite" in err


@pytest.mark.parametrize("content", [
    pytest.param(b'{"rows": 1, "cols": 1, "data": [[[1' + b"0" * 400 + b', 0, 0, 0]]]}',
                 id="integer-beyond-float-range"),
    pytest.param(b'{"rows": 1, "cols": 1, "data": [[[1' + b"0" * 5000 + b', 0, 0, 0]]]}',
                 id="integer-over-4300-digits"),
    pytest.param(b"[" * 100000 + b"]" * 100000, id="nesting-past-recursion-limit"),
    pytest.param(b"\xff\xfe{}", id="not-utf-8"),
])
def test_unrepresentable_json_exits_66(content, capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run_cli(["mpinv", "--in", str(path)], capsys)
    assert code == 66 and out == ""
    assert err.startswith("qsylv: error: ") and len(err) < 400


@pytest.mark.parametrize("dims", [("true", "true"), ("1", "true"), ("false", "1")],
                         ids=["both", "cols", "rows"])
def test_boolean_matrix_dimensions_exit_66(dims, capsys, tmp_path):
    # True == 1 and isinstance(True, int) hold, but a JSON boolean is no size
    path = tmp_path / "bool.json"
    path.write_text('{"rows": %s, "cols": %s, "data": [[[2, 0, 0, 0]]]}' % dims)
    code, out, err = run_cli(["mpinv", "--in", str(path)], capsys)
    assert code == 66 and out == ""
    assert "'rows'/'cols' must be positive integers" in err


@pytest.mark.parametrize("max_dim, message", [
    ("0", "must be >= 1, got 0"), ("-1", "must be >= 1, got -1"),
    ("2x", "must be an integer, got '2x'")])
def test_gen_max_dim_must_be_a_positive_integer(max_dim, message, capsys):
    code, out, err = run_cli(["gen", "--kind", "two-left", "--max-dim", max_dim], capsys)
    assert code == 64 and out == ""
    assert f"largest matrix dimension {message}" in err


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
@pytest.mark.parametrize("command", [["check"], ["solve", "--method", "direct"]],
                         ids=["check", "solve-direct"])
def test_tolerance_must_be_finite_and_non_negative(command, tol, capsys, tmp_path):
    # an inconsistent instance: an infinite tolerance would call it consistent
    out_dir = tmp_path / "two-left"
    code, _, _ = run_cli(["gen", "--kind", "two-left", "--seed", "3", "--inconsistent",
                          "--out-dir", str(out_dir)], capsys)
    assert code == 0
    argv = command + ["--kind", "two-left", "--tol", tol]
    for slot in ("a1", "a2", "c"):
        argv += [f"--{slot}", str(out_dir / f"{slot}.json")]
    code, out, err = run_cli(argv, capsys)
    assert code == 64 and out == ""
    assert "tolerance must be finite and >= 0" in err


@pytest.mark.parametrize("tol", ["1e-8", "0"])
@pytest.mark.parametrize("command", [["check"], ["solve", "--method", "direct"],
                                     ["solve", "--method", "both", "--force"]],
                         ids=["check", "solve-direct", "solve-both"])
def test_an_overflowing_norm_of_c_exits_1(command, tol, capsys, tmp_path):
    # every entry of c is finite, but |c| is not: no check can be made against it
    big = q(1e308, 1e308, 1e308, 1e308)
    argv = command + ["--kind", "two-left", "--tol", tol]
    for slot, value in (("a1", qm([[q(1)], [q(0)]])), ("a2", qm([[q(1)], [q(0)]])),
                        ("c", qm([[big], [big]]))):
        path = str(tmp_path / f"{slot}.json")
        write_json(path, value.to_json())
        argv += [f"--{slot}", path]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (1, "", "qsylv: error: |c| overflows the float range\n")


@pytest.mark.parametrize("command", [["check"], ["solve", "--method", "direct"],
                                     ["solve", "--method", "both", "--force"]],
                         ids=["check", "solve-direct", "solve-both-force"])
def test_like_kind_outside_b_equal_to_ctranspose_a_exits_1(command, capsys, tmp_path):
    # a planted c = a x + ctranspose(x) b with b != ctranspose(a) lies outside
    # the domain of the kind's formula: it is refused, not called inconsistent
    rng = SplitMix64(81)
    a, b, x = random_matrix(rng, 3, 2), random_matrix(rng, 2, 3), random_matrix(rng, 2, 3)
    argv = command + ["--kind", "lyapunov-like"]
    for slot, value in (("a1", a), ("b2", b), ("c", a @ x + x.H @ b)):
        path = str(tmp_path / f"{slot}.json")
        write_json(path, value.to_json())
        argv += [f"--{slot}", path]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("qsylv: error: kind 'lyapunov-like' is solved only for "
                          "b = ctranspose(a); mismatch norm ")


# -- solve / check ----------------------------------------------------------------


def test_solve_consistent_pair_exits_0(capsys, pair_files):
    code, out, _ = run_cli(
        ["solve", "--kind", "gen-sylvester",
         "--a1", pair_files["a1"], "--b1", pair_files["b1"],
         "--a2", pair_files["a2"], "--b2", pair_files["b2"],
         "--c", pair_files["c"]],
        capsys,
    )
    assert code == 0
    doc = loads(out)
    assert set(doc) == {"x1", "x2", "report"}
    x1 = QMatrix.from_json(doc["x1"])
    expected = example_pair().expected_x1
    assert (x1 - expected).fro_norm() <= 1e-9
    assert doc["report"]["consistent"] is True
    assert doc["report"]["residual_norm"] <= 1e-9


def test_solve_inconsistent_star_exits_2_with_null_solution(capsys, star_files):
    a_path, c_path = star_files
    code, out, _ = run_cli(
        ["solve", "--kind", "lyapunov-star", "--a1", a_path, "--c", c_path], capsys
    )
    assert code == 2
    doc = loads(out)
    assert doc["x1"] is None
    assert doc["report"]["consistent"] is False


def test_solve_force_returns_representative_but_still_exits_2(capsys, star_files):
    a_path, c_path = star_files
    code, out, _ = run_cli(
        ["solve", "--kind", "lyapunov-star", "--a1", a_path, "--c", c_path, "--force"],
        capsys,
    )
    assert code == 2
    doc = loads(out)
    assert doc["x1"] is not None
    assert doc["report"]["residual_norm"] == pytest.approx(1.5, abs=1e-9)


def test_check_reports_without_solving(capsys, pair_files):
    code, out, _ = run_cli(
        ["check", "--kind", "gen-sylvester",
         "--a1", pair_files["a1"], "--b1", pair_files["b1"],
         "--a2", pair_files["a2"], "--b2", pair_files["b2"],
         "--c", pair_files["c"]],
        capsys,
    )
    assert code == 0
    doc = loads(out)
    assert set(doc) == {"report"}
    assert doc["report"]["consistent"] is True
    assert doc["report"]["method"] == "check"


def test_check_inconsistent_exits_2(capsys, star_files):
    a_path, c_path = star_files
    code, out, _ = run_cli(
        ["check", "--kind", "lyapunov-star", "--a1", a_path, "--c", c_path], capsys
    )
    assert code == 2
    assert loads(out)["report"]["consistent"] is False


def test_solve_method_selection(capsys, pair_files):
    outputs = {}
    for method in ("direct", "cramer", "both"):
        code, out, _ = run_cli(
            ["solve", "--kind", "gen-sylvester",
             "--a1", pair_files["a1"], "--b1", pair_files["b1"],
             "--a2", pair_files["a2"], "--b2", pair_files["b2"],
             "--c", pair_files["c"], "--method", method],
            capsys,
        )
        assert code == 0
        outputs[method] = loads(out)
    both_checks = {c["name"] for c in outputs["both"]["report"]["checks"]}
    assert "methods_agree" in both_checks
    x_direct = QMatrix.from_json(outputs["direct"]["x1"])
    x_cramer = QMatrix.from_json(outputs["cramer"]["x1"])
    assert (x_direct - x_cramer).fro_norm() <= 1e-8


# -- exit code 3: a consistent instance whose solution fails its own check --------


def _solve_argv(prob: GenSylvesterProblem, tmp_path, method: str) -> list[str]:
    """``solve --method method`` on ``prob``, its matrices written into ``tmp_path``."""
    argv = ["solve", "--kind", prob.kind.cli_name, "--method", method]
    for name in prob.kind.required_slots:
        path = str(tmp_path / f"{name}.json")
        write_json(path, getattr(prob, name).to_json())
        argv += [f"--{name}", path]
    return argv


def _spread(rng: SplitMix64, rows: int, exponent: float) -> QMatrix:
    """``x @ diag(10^(-exponent*i/4), i = 0..4) @ y`` with ``x`` rows x 5 and ``y`` 5 x 5."""
    x, y = random_matrix(rng, rows, 5), random_matrix(rng, 5, 5)
    d = QMatrix.from_rows([[Quaternion(10.0 ** (-exponent * i / 4) if i == j else 0.0)
                            for j in range(5)] for i in range(5)])
    return x @ d @ y


def _planted(kind: EquationKind, slots: dict, x1: QMatrix, x2: QMatrix) -> GenSylvesterProblem:
    """The instance of ``kind`` with coefficients ``slots`` that ``(x1, x2)`` solves."""
    zero_c = QMatrix.zeros(slots["a1"].rows, slots["b2"].cols)
    template = GenSylvesterProblem.build(kind, c=zero_c, **slots)
    return GenSylvesterProblem.build(kind, c=apply_lhs(template, PairSolution(x1, x2)), **slots)


def _report_checks(out: str) -> dict:
    return {c["name"]: c for c in loads(out)["report"]["checks"]}


@pytest.mark.parametrize("seed, exponent", [(s, 6) for s in range(2000, 2010)] + [(2002, 8)])
def test_sylvester_with_spread_a1_exits_3_on_its_residual(seed, exponent, capsys, tmp_path):
    # the true m = (i - a1 pinv(a1)) is 0, but at a diagonal spread of 1e6
    # the verdict is "consistent" while the direct solution misses c by about |c|
    rng = SplitMix64(seed)
    a1 = _spread(rng, 5, exponent)
    b2 = random_matrix(rng, 5, 5)
    prob = _planted(EquationKind.SYLVESTER, {"a1": a1, "b2": b2},
                    random_matrix(rng, 5, 5), random_matrix(rng, 5, 5))
    code, out, _ = run_cli(_solve_argv(prob, tmp_path, "direct"), capsys)
    assert code == 3
    doc = loads(out)
    assert doc["report"]["consistent"] is True and doc["x1"] is not None
    check = _report_checks(out)["solution_residual"]
    assert check["passed"] is False
    assert check["residual"] == doc["report"]["residual_norm"] > 0.5 * prob.c.fro_norm()


@pytest.mark.parametrize("k", [6, 7, 8])
def test_kappa_probe_solves_never_exit_0_on_a_failed_check(k, capsys, tmp_path):
    # gen-sylvester with a1 of spread 10^k, kappa(a1) up to 5e8: the routes
    # disagree on every instance the gate passes, and most direct solutions
    # miss c by far more than tol * |c|
    direct_codes = []
    for seed in range(10):
        rng = SplitMix64(1000 + seed)
        a1 = _spread(rng, 6, k)
        slots = {"a1": a1, "b1": random_matrix(rng, 5, 6), "a2": random_matrix(rng, 6, 4),
                 "b2": random_matrix(rng, 4, 6)}
        prob = _planted(EquationKind.GEN_SYLVESTER, slots,
                        random_matrix(rng, 5, 5), random_matrix(rng, 4, 4))
        code, _, _ = run_cli(_solve_argv(prob, tmp_path, "both"), capsys)
        assert code in (2, 3), seed
        code, out, _ = run_cli(_solve_argv(prob, tmp_path, "direct"), capsys)
        if code != 2:
            passed = _report_checks(out)["solution_residual"]["passed"]
            assert code == (0 if passed else 3), seed
            direct_codes.append(code)
    assert 3 in direct_codes


def test_no_consistent_generated_instance_exits_3(capsys, tmp_path):
    codes = []
    for kind in EquationKind:
        for seed in range(10):
            out_dir = tmp_path / f"{kind.cli_name}-{seed}"
            code, _, _ = run_cli(["gen", "--kind", kind.cli_name, "--seed", str(seed),
                                  "--max-dim", "3", "--out-dir", str(out_dir)], capsys)
            assert code == 0
            argv = ["solve", "--kind", kind.cli_name]
            for name in kind.required_slots:
                argv += [f"--{name}", str(out_dir / f"{name}.json")]
            code, out, _ = run_cli(argv, capsys)
            checks = _report_checks(out)
            assert checks["solution_residual"]["passed"] and checks["methods_agree"]["passed"]
            codes.append(code)
    assert codes == [0] * 100


# -- mpinv / det ------------------------------------------------------------------


def test_mpinv_both_methods_agree(capsys, pair_files):
    code, out, _ = run_cli(["mpinv", "--in", pair_files["a1"]], capsys)
    assert code == 0
    doc = loads(out)
    assert set(doc) == {"pinv", "rank", "method", "agreement"}
    assert doc["rank"] == 1  # the bundled example's first coefficient is rank-1
    assert doc["agreement"] <= 1e-9
    pinv = QMatrix.from_json(doc["pinv"])
    a1 = example_pair().problem.a1
    assert (a1 @ pinv @ a1 - a1).fro_norm() <= 1e-9


def test_mpinv_single_method_has_no_agreement(capsys, pair_files):
    code, out, _ = run_cli(
        ["mpinv", "--in", pair_files["a1"], "--method", "cramer"], capsys
    )
    assert code == 0
    doc = loads(out)
    assert "agreement" not in doc
    assert doc["method"].startswith("cramer")


def test_det_hermitian_gram(capsys, tmp_path):
    # Hermitian matrix with known real determinant 2
    h = qm([[q(6), q(y=4)], [q(y=-4), q(3)]])
    path = str(tmp_path / "h.json")
    write_json(path, h.to_json())
    code, out, _ = run_cli(["det", "--in", path, "--kind", "hdet", "--verify"], capsys)
    assert code == 0
    assert loads(out) == [2.0, 0.0, 0.0, 0.0]
    for kind, index in (("rdet", "1"), ("rdet", "2"), ("cdet", "1"), ("cdet", "2")):
        code, out, _ = run_cli(
            ["det", "--in", path, "--kind", kind, "--index", index], capsys
        )
        assert code == 0
        assert loads(out) == [2.0, 0.0, 0.0, 0.0]


def test_det_anchored_values_differ_on_general_input(capsys, tmp_path):
    m = qm([[q(x=1), q(y=1)], [q(z=1), q(1)]])
    path = str(tmp_path / "m.json")
    write_json(path, m.to_json())
    values = {}
    for kind in ("rdet", "cdet"):
        for index in ("1", "2"):
            code, out, _ = run_cli(
                ["det", "--in", path, "--kind", kind, "--index", index], capsys
            )
            assert code == 0
            values[(kind, index)] = tuple(loads(out))
    assert values[("rdet", "1")] != values[("rdet", "2")]


def test_det_non_hermitian_hdet_exits_1(capsys, tmp_path):
    m = qm([[q(x=1), q(y=1)], [q(z=1), q(1)]])
    path = str(tmp_path / "m.json")
    write_json(path, m.to_json())
    code, _, err = run_cli(["det", "--in", path, "--kind", "hdet"], capsys)
    assert code == 1


@pytest.mark.parametrize("kind, what", [("rdet", "determinant"), ("cdet", "determinant"),
                                        ("hdet", "hdet")])
def test_det_of_a_non_square_matrix_exits_1_in_its_own_name(kind, what, capsys, tmp_path):
    path = str(tmp_path / "rect.json")
    write_json(path, QMatrix.zeros(3, 2).to_json())
    code, out, err = run_cli(["det", "--in", path, "--kind", kind], capsys)
    assert (code, out) == (1, "")
    assert err == f"qsylv: error: {what} requires a square matrix, got (3, 2)\n"


@pytest.mark.parametrize("kind", ["rdet", "cdet", "hdet"])
def test_det_overflow_exits_1_with_a_message(capsys, tmp_path, kind):
    path = str(tmp_path / "huge.json")
    write_json(path, qm([[q(1e200), q()], [q(), q(1e200)]]).to_json())
    code, out, err = run_cli(["det", "--in", path, "--kind", kind], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("qsylv: error:") and "overflows" in err


@pytest.mark.parametrize("kind", ["rdet", "cdet", "hdet"])
def test_det_underflow_exits_1_but_a_tiny_singular_matrix_reads_0(capsys, tmp_path, kind):
    path = str(tmp_path / "tiny.json")
    write_json(path, qm([[q(1e-200), q()], [q(), q(1e-200)]]).to_json())
    code, out, err = run_cli(["det", "--in", path, "--kind", kind], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("qsylv: error:") and "underflows" in err
    write_json(path, qm([[q(1e-300), q(1e-300)], [q(1e-300), q(1e-300)]]).to_json())
    code, out, _ = run_cli(["det", "--in", path, "--kind", kind], capsys)
    assert code == 0
    assert loads(out) == [0.0, 0.0, 0.0, 0.0]


# -- selftest / gen ---------------------------------------------------------------


def test_selftest_passes(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("golden checks passed")


def test_gen_is_deterministic_and_loadable(capsys, tmp_path):
    code, out1, _ = run_cli(["gen", "--kind", "stein", "--seed", "42"], capsys)
    assert code == 0
    code, out2, _ = run_cli(["gen", "--kind", "stein", "--seed", "42"], capsys)
    assert out1 == out2  # byte-identical
    doc = loads(out1)
    assert doc["kind"] == "stein"
    assert doc["seed"] == 42
    assert doc["consistent_by_construction"] is True
    for name, payload in doc["matrices"].items():
        QMatrix.from_json(payload)  # parses cleanly


def test_gen_out_dir_files_solve_consistently(capsys, tmp_path):
    out_dir = tmp_path / "inst"
    code, _, _ = run_cli(
        ["gen", "--kind", "two-right", "--seed", "5", "--out-dir", str(out_dir)],
        capsys,
    )
    assert code == 0
    argv = ["solve", "--kind", "two-right", "--c", str(out_dir / "c.json")]
    for slot in ("b1", "b2"):
        argv += [f"--{slot}", str(out_dir / f"{slot}.json")]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert loads(out)["report"]["consistent"] is True


def test_gen_inconsistent_instances_fail_check(capsys, tmp_path):
    out_dir = tmp_path / "bad"
    code, _, _ = run_cli(
        ["gen", "--kind", "gen-sylvester", "--seed", "3", "--inconsistent",
         "--out-dir", str(out_dir)],
        capsys,
    )
    assert code == 0
    doc = loads((out_dir / "instance.json").read_text())
    assert doc["consistent_by_construction"] is False
    argv = ["check", "--kind", "gen-sylvester", "--c", str(out_dir / "c.json")]
    for slot in ("a1", "b1", "a2", "b2"):
        argv += [f"--{slot}", str(out_dir / f"{slot}.json")]
    code, out, _ = run_cli(argv, capsys)
    assert code == 2


@pytest.mark.parametrize(
    "kind",
    [k for k in EquationKind if k.is_two_term and k is not EquationKind.STEIN],
    ids=lambda k: k.cli_name,
)
def test_gen_inconsistent_retries_until_the_instance_is_perturbable(capsys, tmp_path, kind):
    for seed in range(10):
        out_dir = tmp_path / f"{kind.cli_name}-{seed}"
        code, _, err = run_cli(
            ["gen", "--kind", kind.cli_name, "--seed", str(seed), "--inconsistent",
             "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 0, (seed, err)
        argv = ["check", "--kind", kind.cli_name]
        for slot in kind.required_slots:
            argv += [f"--{slot}", str(out_dir / f"{slot}.json")]
        code, out, _ = run_cli(argv, capsys)
        assert code == 2, seed
        assert loads(out)["report"]["consistent"] is False


def test_gen_inconsistent_stein_has_no_instance(capsys):
    code, out, err = run_cli(["gen", "--kind", "stein", "--seed", "0", "--inconsistent"], capsys)
    assert code == 1 and out == ""
    assert "no inconsistent right-hand side exists" in err


def test_svd_non_convergence_exits_1(capsys, tmp_path, monkeypatch):
    path = str(tmp_path / "a.json")
    write_json(path, random_matrix(SplitMix64(79), 3, 3).to_json())
    monkeypatch.setattr(svd_module, "_MAX_SWEEPS", 1)
    code, out, err = run_cli(["mpinv", "--in", path, "--method", "oracle"], capsys)
    assert code == 1 and out == ""
    assert "did not converge" in err
    # Diagonal coefficients embed to orthogonal columns, so their own SVDs
    # converge in one sweep; the batch of rank-criteria stacks does not.
    slots = {
        "a1": qm([[q(2, 1, 0, 1), q(0)], [q(0), q(0, 3, 1, 0)], [q(0), q(0)]]),
        "a2": qm([[q(0)], [q(0)], [q(1, 0, 2, 0)]]),
        "c": random_matrix(SplitMix64(80), 3, 2),
    }
    argv = ["check", "--kind", "two-left"]
    for name, mat in slots.items():
        write_json(str(tmp_path / f"{name}.json"), mat.to_json())
        argv += [f"--{name}", str(tmp_path / f"{name}.json")]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert "Jacobi SVD of 4 matrices did not converge" in err


def test_mpinv_cramer_of_an_identity_takes_no_jacobi_pass(capsys, tmp_path, monkeypatch,
                                                          jacobi_log):
    path = str(tmp_path / "eye.json")
    write_json(path, QMatrix.identity(4).to_json())
    argv = ["mpinv", "--in", path, "--method", "cramer"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err, jacobi_log.passes) == (0, "", 0)
    with monkeypatch.context() as patch:
        patch.setattr(QMatrix, "is_identity", lambda self: False)
        assert run_cli(argv, capsys) == (0, out, "")  # the computed route prints the same
    assert jacobi_log.batches == [[(8, 8)]]


def test_mpinv_both_decomposes_its_input_once(capsys, tmp_path, jacobi_log):
    # the determinantal factor takes the rank the oracle's factor pass decided
    path = str(tmp_path / "a.json")
    write_json(path, random_matrix(SplitMix64(90), 4, 3).to_json())
    code, out, err = run_cli(["mpinv", "--in", path], capsys)
    assert (code, err, loads(out)["rank"]) == (0, "", 3)
    assert jacobi_log.batches == [[(8, 6)]]


def test_mpinv_of_tiny_and_huge_scalars(capsys, tmp_path):
    path = str(tmp_path / "a.json")
    for value in (1e-200, 1e200):
        write_json(path, qm([[q(value)]]).to_json())
        code, out, _ = run_cli(["mpinv", "--in", path], capsys)
        doc = loads(out)
        assert code == 0 and doc["rank"] == 1 and doc["agreement"] == 0.0
        assert abs(doc["pinv"]["data"][0][0][0] * value - 1.0) <= 1e-15
    # a pseudoinverse beyond the float range is a numeric failure, not a zero
    write_json(path, qm([[q(1e-310)]]).to_json())
    code, out, err = run_cli(["mpinv", "--in", path], capsys)
    assert code == 1 and out == "" and "overflows" in err


def test_determinant_cap_binds_only_the_cramer_route(capsys, tmp_path):
    rng = SplitMix64(77)
    slots = {
        "a1": planted_rank_matrix(rng, 6, 5, 5),
        "b1": planted_rank_matrix(rng, 5, 6, 5),
        "a2": planted_rank_matrix(rng, 6, 4, 4),
        "b2": planted_rank_matrix(rng, 4, 6, 4),
    }
    template = GenSylvesterProblem.build(
        EquationKind.GEN_SYLVESTER, c=QMatrix.zeros(6, 6), **slots
    )
    planted = PairSolution(random_matrix(rng, 5, 5), random_matrix(rng, 4, 4))
    slots["c"] = apply_lhs(template, planted)
    files = ["--kind", "gen-sylvester"]
    for name, mat in slots.items():
        path = str(tmp_path / f"{name}.json")
        write_json(path, mat.to_json())
        files += [f"--{name}", path]
    capped = [*files, "--max-det-dim", "3"]
    code, out, _ = run_cli(["check", *capped], capsys)
    assert code == 0 and loads(out)["report"]["consistent"] is True
    code, out, _ = run_cli(["solve", "--method", "direct", *capped], capsys)
    assert code == 0 and loads(out)["report"]["consistent"] is True
    code, _, err = run_cli(["solve", "--method", "cramer", *capped], capsys)
    assert code == 1 and "exceeds cap 3" in err
    code, _, _ = run_cli(["check", *files, "--max-det-dim", "0"], capsys)
    assert code == 64


# -- output contracts -------------------------------------------------------------


def test_output_floats_are_always_json_floats(capsys, pair_files):
    code, out, _ = run_cli(
        ["solve", "--kind", "gen-sylvester",
         "--a1", pair_files["a1"], "--b1", pair_files["b1"],
         "--a2", pair_files["a2"], "--b2", pair_files["b2"],
         "--c", pair_files["c"]],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    for row in doc["x1"]["data"]:
        for entry in row:
            assert all(isinstance(component, float) for component in entry)


def test_solution_doc_round_trips_byte_exactly(capsys, pair_files):
    argv = ["solve", "--kind", "gen-sylvester",
            "--a1", pair_files["a1"], "--b1", pair_files["b1"],
            "--a2", pair_files["a2"], "--b2", pair_files["b2"],
            "--c", pair_files["c"]]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert dumps(loads(out)) + "\n" == out


def test_out_flag_writes_file(capsys, pair_files, tmp_path):
    target = tmp_path / "sol.json"
    code, out, _ = run_cli(
        ["solve", "--kind", "gen-sylvester",
         "--a1", pair_files["a1"], "--b1", pair_files["b1"],
         "--a2", pair_files["a2"], "--b2", pair_files["b2"],
         "--c", pair_files["c"], "--out", str(target)],
        capsys,
    )
    assert code == 0
    assert target.exists()
    loads(target.read_text())


def test_exports_resolve_and_removed_options_are_usage_errors(capsys, pair_files):
    missing = [name for name in qsylv.__all__ if not hasattr(qsylv, name)]
    assert missing == []
    assert "IndexSubset" not in qsylv.__all__
    assert "enumerate_subsets" not in qsylv.__all__
    argv = ["solve", "--kind", "gen-sylvester", "--c", pair_files["c"]]
    for name in ("a1", "b1", "a2", "b2"):
        argv += [f"--{name}", pair_files[name]]
    code, out, err = run_cli(argv + ["--form", "row"], capsys)
    assert code == 64
    assert out == "" and "--form" in err


def _src_env() -> dict:
    """The environment of a new interpreter that imports ``qsylv`` from this tree."""
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    env_path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=env_path)


def _fresh_process(code: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports ``qsylv`` from this tree."""
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=_src_env())


def _modules_loaded_by(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code of the CLI on ``argv`` in a new interpreter, and the qsylv modules it loaded."""
    code = ("import sys; from qsylv.cli import main; status = main(sys.argv[1:]); "
            "print(status, *sorted(m for m in sys.modules if m.startswith('qsylv')))")
    proc = _fresh_process(code, *argv)
    status, *modules = proc.stdout.split()
    return int(status), set(modules)


def _problem_argv(files: dict, tmp_path) -> list[str]:
    argv = ["--kind", "gen-sylvester", "--out", str(tmp_path / "out.json")]
    for name in ("a1", "b1", "a2", "b2", "c"):
        argv += [f"--{name}", files[name]]
    return argv


@pytest.mark.parametrize("command", [["check"], ["solve", "--method", "direct"],
                                     ["mpinv", "--method", "oracle", "--max-det-dim", "3"]],
                         ids=["check", "solve-direct", "mpinv-oracle"])
def test_pseudoinverse_commands_load_no_determinant_engine(command, pair_files, tmp_path):
    if command[0] == "mpinv":
        argv = command + ["--in", pair_files["a1"], "--out", str(tmp_path / "out.json")]
    else:
        argv = command + _problem_argv(pair_files, tmp_path)
    status, modules = _modules_loaded_by(argv)
    assert status == 0
    assert "qsylv.solvers" in modules
    assert modules.isdisjoint({"qsylv.rcdet", "qsylv.golden", "qsylv.sampling"})


def test_solve_both_loads_the_determinant_engine(pair_files, tmp_path):
    status, modules = _modules_loaded_by(
        ["solve", "--method", "both"] + _problem_argv(pair_files, tmp_path))
    assert status == 0
    assert "qsylv.rcdet" in modules


def test_every_export_is_listed_and_binds_on_star_import():
    code = ("import qsylv; listed = set(dir(qsylv)) >= set(qsylv.__all__); "
            "names = {}; exec('from qsylv import *', names); "
            "print(listed, all(n in names for n in qsylv.__all__))")
    assert _fresh_process(code).stdout.split() == ["True", "True"]


@pytest.mark.parametrize("command", [["check"], ["solve", "--method", "direct"],
                                     ["solve", "--method", "both"]],
                         ids=["check", "solve-direct", "solve-both"])
def test_zero_det_dim_cap_is_a_usage_error(command, capsys, pair_files, tmp_path):
    argv = command + _problem_argv(pair_files, tmp_path) + ["--max-det-dim", "0"]
    code, out, err = run_cli(argv, capsys)
    assert code == 64 and out == ""
    assert "determinant dimension cap must be >= 1" in err


# -- the process entry: python -m qsylv.cli and the console script -------------


def _gen_argv(capsys, tmp_path, command: list[str], *flags: str) -> list[str]:
    """``command`` on a ``qsylv gen`` gen-sylvester instance written into ``tmp_path``."""
    out_dir = tmp_path / "inst"
    code, _, _ = run_cli(["gen", "--kind", "gen-sylvester", "--seed", "3", *flags,
                          "--out-dir", str(out_dir)], capsys)
    assert code == 0
    argv = [*command, "--kind", "gen-sylvester", "--c", str(out_dir / "c.json")]
    for slot in ("a1", "b1", "a2", "b2"):
        argv += [f"--{slot}", str(out_dir / f"{slot}.json")]
    return argv


def _assert_process_matches_main(argv: list[str], expected: int, capsys) -> None:
    """``python -m qsylv.cli`` and an in-process ``main`` exit alike and print the same bytes."""
    proc = subprocess.run([sys.executable, "-m", "qsylv.cli", *argv], capture_output=True,
                          env=_src_env())
    code, out, _ = run_cli(argv, capsys)
    assert (proc.returncode, code) == (expected, expected), proc.stderr
    assert proc.stdout == out.encode()


@pytest.mark.parametrize("command, flags, expected", [
    (["check"], (), 0),
    (["check"], ("--inconsistent",), 2),
    (["solve", "--method", "direct"], (), 0),
    (["check", "--unknown-flag"], (), 64),
], ids=["check-consistent", "check-perturbed", "solve-direct", "unknown-flag"])
def test_process_exit_codes_and_output_match_main(command, flags, expected, capsys, tmp_path):
    argv = _gen_argv(capsys, tmp_path, command, *flags)
    _assert_process_matches_main(argv, expected, capsys)


def test_process_missing_file_exits_66(capsys, tmp_path):
    argv = ["check", "--kind", "lyapunov-star", "--a1", str(tmp_path / "no.json"),
            "--c", str(tmp_path / "no.json")]
    _assert_process_matches_main(argv, 66, capsys)


def _assert_unwritable_stdout_exits_66(argv: list[str], stdout) -> None:
    # a buffered stdout keeps what a failed flush could not write, and the
    # interpreter's shutdown flush tries it again: test that path, not the
    # unbuffered one where each write fails at once
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, "-m", "qsylv.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env)
    assert proc.returncode == 66, proc.stderr
    assert proc.stderr.startswith("qsylv: error: cannot write") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def _det_identity_argv(tmp_path) -> list[str]:
    """``det`` on a 2 x 2 identity: output far smaller than one stdout buffer."""
    path = str(tmp_path / "identity.json")
    write_json(path, QMatrix.identity(2).to_json())
    return ["det", "--kind", "rdet", "--in", path]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["det", "check"])
def test_stdout_on_a_full_disk_exits_66(command, capsys, tmp_path):
    if command == "det":
        argv = _det_identity_argv(tmp_path)
    else:
        argv = _gen_argv(capsys, tmp_path, [command])
    with open("/dev/full", "w") as full:
        _assert_unwritable_stdout_exits_66(argv, full)


@pytest.mark.parametrize("command", ["det", "gen"])
def test_stdout_on_a_closed_pipe_exits_66(command, tmp_path):
    # det's output stays in the buffer until the flush; gen's is written through
    if command == "det":
        argv = _det_identity_argv(tmp_path)
    else:
        argv = ["gen", "--kind", "sylvester", "--max-dim", "80"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        _assert_unwritable_stdout_exits_66(argv, write_end)
    finally:
        os.close(write_end)


def test_main_leaves_the_collector_unfrozen(capsys, pair_files, tmp_path):
    # only the process entry (run) freezes, right before it exits
    code, _, _ = run_cli(["check"] + _problem_argv(pair_files, tmp_path), capsys)
    assert code == 0
    assert gc.get_freeze_count() == 0


def test_console_script_targets_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"qsylv": "qsylv.cli:run"}


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qsylv.cli", "selftest"],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0
    assert "golden checks passed" in proc.stdout
