"""Command-line interface: exit codes, JSON contracts, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import qsylv.svd as svd_module
from qsylv import (
    EquationKind,
    GenSylvesterProblem,
    OutOfRange,
    PairSolution,
    QMatrix,
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


def test_dimension_clash_exits_64(capsys, tmp_path):
    a = tmp_path / "a.json"
    c = tmp_path / "c.json"
    write_json(str(a), QMatrix.zeros(3, 2).to_json())
    write_json(str(c), QMatrix.zeros(2, 2).to_json())  # wrong row count
    code, _, _ = run_cli(
        ["solve", "--kind", "lyapunov-star", "--a1", str(a), "--c", str(c)], capsys
    )
    assert code == 64


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


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qsylv.cli", "selftest"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "golden checks passed" in proc.stdout
