"""Acceptance criteria: one test per criterion, each recording a summary line.

Every test computes a single boolean verdict plus a human-readable detail
string, records it for the terminal summary (``CRITERION n: PASS/FAIL``),
and then asserts it.  Tolerances and instance counts are pinned here and
must not be loosened.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from qsylv import (
    EquationKind,
    cdet,
    check_consistency,
    fro_norm,
    mp_cramer,
    mp_oracle,
    rdet,
    solve,
    solve_general,
)
from qsylv.golden import example_pair, example_star, max_abs_diff
from qsylv.mpinv import gram_left, hermitize, proj_q_cramer
from qsylv.rcdet import hdet
from qsylv.sampling import (
    SplitMix64,
    make_consistent_instance,
    make_inconsistent_instance,
    planted_rank_matrix,
    random_free_params,
    random_matrix,
)
from qsylv.solvers import derive_aux

from conftest import penrose_residuals, record_criterion

ALL_KINDS = list(EquationKind)


def criterion(number: int):
    """Record the verdict line even when the test body raises."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                ok, detail = fn()
            except Exception as exc:  # noqa: BLE001 - verdict must be recorded
                record_criterion(number, False, f"exception: {exc!r}")
                raise
            record_criterion(number, ok, detail)
            assert ok, detail

        return run

    return wrap


@criterion(1)
def test_criterion_1_pair_example_both_routes():
    t0 = time.perf_counter()
    ex = example_pair()
    report = check_consistency(ex.problem)
    sol_d, rep_d = solve(ex.problem, method="direct")
    sol_c, rep_c = solve(ex.problem, method="cramer")
    dev = max(
        max_abs_diff(sol_d.x1, ex.expected_x1),
        max_abs_diff(sol_d.x2, ex.expected_x2),
        max_abs_diff(sol_c.x1, ex.expected_x1),
        max_abs_diff(sol_c.x2, ex.expected_x2),
    )
    res = max(rep_d.residual_norm, rep_c.residual_norm)
    elapsed = time.perf_counter() - t0
    ok = report.consistent and dev <= 1e-9 and res < 1e-9 and elapsed < 1.0
    detail = (
        f"deviation {dev:.2e} (tol 1e-9), residual {res:.2e}, "
        f"consistent={report.consistent}, {elapsed:.3f}s (limit 1s)"
    )
    return ok, detail


@criterion(2)
def test_criterion_2_star_example_both_routes_and_intermediates():
    ex = example_star()
    a = ex.problem.a1
    # the instance is deliberately inconsistent (kernel-side projection of
    # the right-hand side is nonzero), so solving requires force; the
    # criterion pins the returned representative and the intermediates
    sol_d, _ = solve(ex.problem, method="direct", force=True)
    sol_c, _ = solve(ex.problem, method="cramer", force=True)
    devs = [max_abs_diff(sol_d.x1, ex.expected_x1), max_abs_diff(sol_c.x1, ex.expected_x1)]
    expected = dict(ex.intermediates)
    pinv_devs = [
        max_abs_diff(mp_cramer(a, side="left").pinv, expected["pinv_a"]),
        max_abs_diff(mp_cramer(a, side="right").pinv, expected["pinv_a"]),
        max_abs_diff(mp_oracle(a).pinv, expected["pinv_a"]),
    ]
    proj_dev = max_abs_diff(proj_q_cramer(a), expected["proj_q_a"])
    det_value = hdet(gram_left(a), verify=True)
    det_dev = abs(det_value - expected["gram_det"])
    worst = max(devs + pinv_devs + [proj_dev, det_dev])
    ok = worst <= 1e-9
    detail = (
        f"solution deviation {max(devs):.2e}, pinv {max(pinv_devs):.2e}, "
        f"projector {proj_dev:.2e}, gram det {det_value!r} (all tol 1e-9)"
    )
    return ok, detail


@criterion(3)
def test_criterion_3_penrose_property_suite():
    t0 = time.perf_counter()
    worst_penrose = 0.0
    worst_pair = 0.0
    count = 0
    for case in range(200):
        rng = SplitMix64(300_000 + case)
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        r = rng.randint(0, min(rows, cols))
        a = planted_rank_matrix(rng, rows, cols, r)
        candidates = [
            mp_cramer(a, side="left").pinv,
            mp_cramer(a, side="right").pinv,
            mp_oracle(a).pinv,
        ]
        for x in candidates:
            worst_penrose = max(worst_penrose, max(penrose_residuals(a, x)))
        for i, u in enumerate(candidates):
            for v in candidates[i + 1:]:
                worst_pair = max(worst_pair, fro_norm(u - v))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst_penrose <= 1e-9 and worst_pair <= 1e-8 and elapsed < 30.0
    detail = (
        f"{count} matrices: worst Penrose residual {worst_penrose:.2e} (tol 1e-9), "
        f"worst route disagreement {worst_pair:.2e} (tol 1e-8), {elapsed:.1f}s (limit 30s)"
    )
    return ok, detail


@criterion(4)
def test_criterion_4_hermitian_determinant_consistency():
    worst_rel_spread = 0.0
    worst_imag = 0.0
    worst_classical = 0.0
    classical_checked = 0
    for case in range(200):
        rng = SplitMix64(400_000 + case)
        n = 1 + case % 4
        complex_only = case % 2 == 0
        base = random_matrix(rng, n, n, complex_only=complex_only)
        h = hermitize(base)
        values = [rdet(h, i) for i in range(1, n + 1)]
        values += [cdet(h, j) for j in range(1, n + 1)]
        ref = values[0].w
        scale = 1.0 + abs(ref)
        spread = max(abs(u - v) for u in values for v in values)
        worst_rel_spread = max(worst_rel_spread, spread / scale)
        imag = max(max(abs(v.x), abs(v.y), abs(v.z)) for v in values)
        worst_imag = max(worst_imag, imag)
        if complex_only:
            cplx = np.array(
                [[complex(h[i, j].w, h[i, j].x) for j in range(n)] for i in range(n)]
            )
            oracle = np.linalg.det(cplx).real
            worst_classical = max(worst_classical, abs(ref - oracle))
            classical_checked += 1
    ok = worst_rel_spread <= 1e-10 and worst_imag <= 1e-10 and worst_classical <= 1e-10
    detail = (
        f"200 matrices: anchored spread {worst_rel_spread:.2e}·(1+|det|), "
        f"imaginary parts {worst_imag:.2e}, classical-det gap {worst_classical:.2e} "
        f"on {classical_checked} complex cases (tol 1e-10)"
    )
    return ok, detail


@criterion(5)
def test_criterion_5_method_equivalence_all_kinds():
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_res = 0.0
    count = 0
    for kind_index, kind in enumerate(ALL_KINDS):
        max_dim = 3 if kind is EquationKind.GEN_SYLVESTER else 4
        for case in range(30):
            rng = SplitMix64(500_000 + 1_000 * kind_index + case)
            prob, _ = make_consistent_instance(rng, kind, max_dim=max_dim)
            sol_d, rep_d = solve(prob, method="direct")
            sol_c, rep_c = solve(prob, method="cramer")
            gap = max_abs_diff(sol_d.x1, sol_c.x1)
            if sol_d.x2 is not None:
                gap = max(gap, max_abs_diff(sol_d.x2, sol_c.x2))
            worst_gap = max(worst_gap, gap)
            scale = fro_norm(prob.c)
            worst_res = max(
                worst_res, rep_d.residual_norm / scale, rep_c.residual_norm / scale
            )
            count += 1
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-8 and worst_res <= 1e-8
    detail = (
        f"{count} instances over {len(ALL_KINDS)} kinds: route gap {worst_gap:.2e} "
        f"(tol 1e-8), residual {worst_res:.2e}·|c| (tol 1e-8), {elapsed:.1f}s"
    )
    return ok, detail


@criterion(6)
def test_criterion_6_consistency_criteria_equivalence():
    projector_names = ("r_m_r_a1_c", "r_a1_c_l_b2", "c_l_b1_l_n", "r_a2_c_l_b1")
    rank_names = ("rank_cols", "rank_rows", "rank_block_a1_b2", "rank_block_a2_b1")

    def verdict_pair(report):
        by_name = {c.name: c.passed for c in report.checks}
        return (
            all(by_name[n] for n in projector_names),
            all(by_name[n] for n in rank_names),
        )

    matches = 0
    total = 0
    for case in range(50):
        rng = SplitMix64(600_000 + case)
        prob, _ = make_consistent_instance(rng, EquationKind.GEN_SYLVESTER, max_dim=3)
        p, r = verdict_pair(check_consistency(prob))
        matches += p == r
        total += 1
        bad = make_inconsistent_instance(rng, EquationKind.GEN_SYLVESTER, max_dim=3)
        p2, r2 = verdict_pair(check_consistency(bad))
        matches += p2 == r2
        total += 1
    ok = matches == total == 100
    detail = f"projector and rank verdicts agree on {matches}/{total} instances (need 100/100)"
    return ok, detail


@criterion(7)
def test_criterion_7_general_solution_closure():
    worst = 0.0
    count = 0
    for kind_index, kind in enumerate(ALL_KINDS):
        for case in range(50):
            rng = SplitMix64(700_000 + 1_000 * kind_index + case)
            prob, _ = make_consistent_instance(rng, kind, max_dim=3)
            free = random_free_params(rng, prob, scale=1.5)
            _, report = solve_general(prob, free)
            scale = fro_norm(prob.c)
            worst = max(worst, report.residual_norm / scale)
            count += 1
    ok = worst <= 1e-8
    detail = (
        f"{count} instances ({len(ALL_KINDS)} kinds x 50) with nonzero free blocks: "
        f"worst residual {worst:.2e}·|c| (tol 1e-8)"
    )
    return ok, detail


@criterion(8)
def test_criterion_8_reverse_order_and_simplification_identities():
    worst_reverse = 0.0
    for case in range(100):
        rng = SplitMix64(800_000 + case)
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        a = mp_oracle(random_matrix(rng, m, n)).proj_p()  # Hermitian idempotent, n x n
        b = random_matrix(rng, k, n)
        ba_pinv = mp_oracle(b @ a).pinv
        worst_reverse = max(worst_reverse, fro_norm(a @ ba_pinv - ba_pinv))
        b2 = random_matrix(rng, n, k)
        ab_pinv = mp_oracle(a @ b2).pinv
        worst_reverse = max(worst_reverse, fro_norm(ab_pinv @ a - ab_pinv))

    worst_simpl = 0.0
    for case in range(100):
        rng = SplitMix64(810_000 + case)
        prob, _ = make_consistent_instance(rng, EquationKind.GEN_SYLVESTER, max_dim=3)
        aux = derive_aux(prob)
        worst_simpl = max(
            worst_simpl,
            fro_norm(aux.m.pinv @ aux.a1.proj_r() - aux.m.pinv),
            fro_norm(aux.b1.proj_l() @ aux.n.pinv - aux.n.pinv),
            fro_norm(aux.m.proj_l() @ aux.s.pinv - aux.s.pinv),
        )
    ok = worst_reverse <= 1e-9 and worst_simpl <= 1e-9
    detail = (
        f"100+100 instances: reverse-order deviation {worst_reverse:.2e}, "
        f"derived-block simplification deviation {worst_simpl:.2e} (tol 1e-9)"
    )
    return ok, detail
