"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the repo root."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: The workload and metric names later changes cite; BENCHMARK.json must use them.
WORKLOAD_NAMES = {"sweep", "dense", "cli-screen"}
E2E_NAMES = {"setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "failed_share",
             "route_gap_digits", "residual_digits", "peak_rss_mb"}
LAYER_NAMES = {
    "quaternion.mul_calls", "quaternion.add_calls",
    "qmatrix.mmul_calls", "qmatrix.rank_calls", "qmatrix.embed_calls", "qmatrix.self_s",
    "svd.calls", "svd.max_dim", "svd.self_s",
    "rcdet.expansions", "rcdet.terms", "rcdet.max_dim", "rcdet.bordered_calls",
    "rcdet.minor_sum_calls", "rcdet.self_s",
    "mpinv.oracle_calls", "mpinv.proj_cramer_calls", "mpinv.self_s",
    "solvers.check_s", "solvers.derive_aux_s", "solvers.derive_aux_misses", "solvers.cramer_s",
    "solvers.self_s",
    "jsonio.self_s", "jsonio.bytes_out",
    "cli.import_s", "cli.process_s", "cli.self_s",
    "trace.overhead_share", "trace.unattributed_share",
}


def first_instances(cls, seed: int, count: int = 6) -> str:
    load = cls(seed, ROOT / ".perfbench_work" / "unused")
    return gen.digest(load.instance(k) for k in range(count))


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_digest_follows_the_seed(cls):
    assert first_instances(cls, 7) == first_instances(cls, 7)
    assert first_instances(cls, 7) != first_instances(cls, 8)


def test_splitmix_matches_reference_and_block_draws():
    rng = gen.SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    scalar, block = gen.SplitMix64(99), gen.SplitMix64(99)
    expected = [((scalar.next_u64() >> 11) * 2.0 ** -53) * 2.0 - 1.0 for _ in range(5)]
    assert block.uniform_signed(5).tolist() == expected
    assert block.state == scalar.state


def test_planted_instances_solve_and_perturbed_ones_do_not():
    for k, (kind, _) in enumerate(gen.KINDS):
        inst = gen.consistent_instance(*gen.streams(3, "t", k, k), kind, 1, 4)
        assert (inst.lhs(inst.x1, inst.x2) - inst.c).norm() <= 1e-12 * (1 + inst.c.norm())
    bad = gen.inconsistent_instance(*gen.streams(3, "t", 0, 0), "two-left", 2, 5)
    assert not bad.consistent
    # the perturbation is orthogonal to the range, so c keeps a far-away component
    basis = gen.range_complement(bad)
    assert np.linalg.norm(basis.T @ bad.c.real_vector()) > 0.5
    stein = gen.inconsistent_instance(*gen.streams(3, "t", 1, 1), "stein", 2, 5, tries=2)
    assert stein.consistent  # x1 is free, so every right-hand side is solvable


def test_dense_ranks_alternate():
    def rank(mat):
        embedded = np.block([[mat.p, mat.q], [-mat.q.conj(), mat.p.conj()]])
        return np.linalg.matrix_rank(embedded) // 2

    full = gen.dense_instance(gen.stream(1, "t", 0), deficient=False)
    short = gen.dense_instance(gen.stream(1, "t", 1), deficient=True)
    assert [rank(full.coeffs[n]) for n in ("a1", "b1", "a2", "b2")] == [5, 5, 4, 4]
    assert [rank(short.coeffs[n]) for n in ("a1", "b1", "a2", "b2")] == [4, 4, 3, 3]


def test_timed_stein_instances_avoid_the_false_verdict_and_the_probe_does_not():
    from qsylv import solvers

    def b2_rank_short(inst):
        b2 = inst.coeffs["b2"]
        embedded = np.block([[b2.p, b2.q], [-b2.q.conj(), b2.p.conj()]])
        return np.linalg.matrix_rank(embedded) // 2 < b2.shape[1]

    sweep = workloads.Sweep(5, ROOT / ".perfbench_work" / "unused")
    timed = [sweep.instance(k) for k in range(3, 100, 10)]
    assert {inst.kind for inst in timed} == {"stein"}
    assert not any(b2_rank_short(inst) for inst in timed)
    for inst in timed[:3]:
        solvers.solve(workloads.to_problem(inst), method="both")  # no Inconsistent
    probe = workloads.SteinProbe(5, ROOT / ".perfbench_work" / "unused")
    short = [inst for inst in map(probe.instance, range(probe.pool)) if b2_rank_short(inst)]
    assert short  # the probe keeps the rank-short case the timed workloads avoid


def test_stopwatch_scales_each_segment_by_its_own_probes():
    import speed

    log = speed.SpeedLog()
    watch = speed.Stopwatch(log)
    # two segments: probes beside the first read nominal, beside the second twice as slow
    watch.segments = [(0.0, 1.0), (10.0, 11.0)]
    log.stamps = [-0.01, 1.01, 9.99, 11.01]
    log.values = [speed.NOMINAL_PROBE_S] * 2 + [2 * speed.NOMINAL_PROBE_S] * 2
    assert watch.total() == pytest.approx(1.5)


def test_self_time_of_a_synthetic_nest():
    # id, parent, name, start, end
    spans = [
        [0, -1, "solvers.solve", 0.0, 10.0],
        [1, 0, "mpinv.mp_oracle", 1.0, 4.0],
        [2, 1, "svd.svd", 2.0, 3.0],
        [3, 0, "rcdet.rdet", 5.0, 9.0],
        [4, 3, "rcdet.rdet", 6.0, 7.0],
        [5, 3, "qmatrix.mmul", 6.5, 8.0],  # overlaps its sibling: covered once
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])
    assert [s[0] for s in tracing.outermost(spans, {"rcdet.rdet"})] == [3]
    assert [s[0] for s in tracing.outermost(spans, {"svd.svd", "mpinv.mp_oracle"})] == [1]


def test_tracer_wraps_every_binding_and_restores_it():
    import qsylv.mpinv as mpinv
    import qsylv.qmatrix as qmatrix
    from qsylv import QMatrix

    original = qmatrix.mmul
    tracer = tracing.Tracer()
    assert tracer.absent == []
    a = QMatrix.from_rows([[1.0, 2.0], [3.0, 4.0]])
    tracer.enable()
    try:
        assert mpinv.mmul is qmatrix.mmul is not original
        mpinv.gram_left(a)
    finally:
        tracer.disable()
    assert mpinv.mmul is qmatrix.mmul is original
    names = [s[2] for s in tracer.spans]
    assert names[0] == "mpinv.gram_left" and "qmatrix.mmul" in names
    assert all(s[1] == 0 for s in tracer.spans if s[2] == "qmatrix.mmul")


def test_scalar_counter_counts_a_product():
    from qsylv import QMatrix

    counter = tracing.ScalarCounter()
    a = QMatrix.from_rows([[1.0, 2.0], [3.0, 4.0]])
    counter.enable()
    try:
        a @ a
    finally:
        counter.disable()
    assert counter.counts == {"mul": 8, "add": 4}


def test_benchmark_json_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = ([w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"]]
             + [m["name"] for m in spec["per_layer"]])
    assert all(pattern.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == WORKLOAD_NAMES
    # failed_share can be 0, so it is reported as attempted/failed, not as a metric
    assert {m["name"] for m in spec["end_to_end"]} == E2E_NAMES - {"failed_share"}
    assert {m["name"] for m in spec["per_layer"]} == LAYER_NAMES
    for metric in spec["end_to_end"]:
        assert run.E2E_UNITS[metric["name"]] == metric["unit"]
    for metric in spec["per_layer"]:
        assert run.LAYER_UNITS[metric["name"]] == metric["unit"]
