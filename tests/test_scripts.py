"""The bundled scripts, run as a user runs them, and the benchmark's tracer."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsylv.solvers as solvers_module
from qsylv import EquationKind

ROOT = Path(__file__).resolve().parent.parent


def _env(**extra) -> dict:
    env_path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=env_path, **extra)


def test_worked_examples_pass_by_both_routes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_worked_examples.py")],
        capture_output=True,
        text=True,
        env=_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "22/22 golden checks passed"


def test_sweep_lines_do_not_depend_on_the_hash_seed():
    per_kind_lines = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "method_agreement_sweep.py"), "--per-kind", "1"],
            capture_output=True,
            text=True,
            env=_env(PYTHONHASHSEED=hash_seed),
        )
        assert proc.returncode == 0, proc.stderr
        per_kind_lines.append([line for line in proc.stdout.splitlines() if "(n=1)" in line])
    assert len(per_kind_lines[0]) == len(EquationKind)
    assert per_kind_lines[0] == per_kind_lines[1]


def test_output_digest_does_not_depend_on_the_hash_seed_or_scratch_directory():
    outputs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "output_digest.py"),
             "--seeds", "1", "--max-dims", "2"],
            capture_output=True,
            text=True,
            env=_env(PYTHONHASHSEED=hash_seed),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    rows = [line.split() for line in outputs[0].splitlines()]
    assert [row[0] for row in rows] == [
        "gen", "check", "solve-direct", "solve-cramer", "solve-both", "mpinv", "det",
        "general", "verdicts", "values"]
    assert all(int(row[1]) > 0 and len(row[2]) == 64 for row in rows)
    assert outputs[0] == outputs[1]


def test_kappa_probe_prints_one_row_per_spread():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "kappa_probe.py"), "--seeds", "2", "--ks", "0", "2"],
        capture_output=True,
        text=True,
        env=_env(),
    )
    assert proc.returncode == 0, proc.stderr
    header, rule, *rows = proc.stdout.splitlines()
    assert header.startswith("| k | `r_m` seen |") and rule.count("|") == 7
    cells = [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]
    assert [row[:4] for row in cells] == [["0", "1", "0/2", "2/2"], ["2", "1", "0/2", "2/2"]]
    # at k = 0 both routes solve the well-conditioned probe to near eps, and
    # at k = 2 (kappa(a1) about 5e2) the Cramer route solves it too
    assert max(float(cells[0][4]), float(cells[0][5])) <= 1e-10
    assert float(cells[1][5]) <= 1e-9


def test_cli_startup_times_every_tree_it_is_given():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cli_startup.py"), "--rounds", "2",
         "--max-dim", "2", str(ROOT), str(ROOT)],
        capture_output=True,
        text=True,
        env=_env(PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    blocks = proc.stdout.split("tree ")[1:]
    assert len(blocks) == 2
    for block in blocks:
        lines = block.splitlines()
        assert lines[0] == str(ROOT)
        assert [line.split()[0] for line in lines[1:]] == [
            "check", "solve-direct", "qsylv", "PYTHONDONTWRITEBYTECODE='1'"]
        assert all("median" in line for line in lines[1:4])


def test_benchmark_tracer_finds_every_function_its_metrics_rest_on(monkeypatch):
    # a traced name that is gone turns up in ``absent`` and its per-layer
    # metrics are dropped, so a rename must fail here rather than in a benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    assert tracer.absent == []
    assert {f"mpinv.MpResult.proj_{x}" for x in "pqlr"} <= set(tracer.wrapped)
    # the benchmark reads derive_aux misses off its cache
    assert callable(solvers_module.derive_aux.cache_info)


def _refuse_constant(name: str):
    raise ValueError(f"non-finite number {name} in a benchmark result")


@pytest.mark.parametrize("workload", ["sweep", "dense", "cli-screen"])
def test_traced_benchmark_run_ends_with_a_strict_json_result(workload):
    # a traced run that exits 0 must still end with its result line, with
    # every function it traces present and exactly the declared metrics
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=str(ROOT),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1], parse_constant=_refuse_constant)
    assert result["correct"] is True and result["failed"] == 0
    run = json.loads(next(line for line in lines if line.startswith("run "))[4:],
                     parse_constant=_refuse_constant)
    assert run["absent"] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    assert len(declared) == 30
    assert sorted(result["metrics"]) == sorted(metric["name"] for metric in declared)
