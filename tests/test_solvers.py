"""Equation kinds, consistency checks, both solver routes, general solutions."""

from __future__ import annotations

import pytest

from qsylv import (
    ConstraintViolated,
    DimensionMismatch,
    EquationKind,
    FreeParams,
    GenSylvesterProblem,
    Inconsistent,
    InvalidSize,
    PairSolution,
    QMatrix,
    QsylvError,
    apply_lhs,
    check_consistency,
    cramer_axb,
    ctranspose,
    derive_aux,
    free_param_shapes,
    fro_norm,
    residual,
    solve,
    solve_cramer,
    solve_direct,
    solve_general,
)
from qsylv.qmatrix import scale_pow2
from qsylv.sampling import (
    SplitMix64,
    make_consistent_instance,
    make_inconsistent_instance,
    perturb_inconsistent,
    planted_rank_matrix,
    random_free_params,
    random_matrix,
)

from conftest import assert_matrix_close, max_entry_diff, q, qm

ALL_KINDS = list(EquationKind)
TWO_TERM_KINDS = [k for k in ALL_KINDS if k.is_two_term]


# -- problem construction ---------------------------------------------------------


def test_kind_cli_names_round_trip():
    for kind in ALL_KINDS:
        assert EquationKind.from_cli_name(kind.cli_name) is kind
    from qsylv import InvalidSize

    with pytest.raises(InvalidSize):
        EquationKind.from_cli_name("nope")


def test_build_requires_declared_slots():
    c = QMatrix.identity(2)
    with pytest.raises(DimensionMismatch):
        GenSylvesterProblem.build(EquationKind.GEN_SYLVESTER, c=c)  # all slots missing
    with pytest.raises(DimensionMismatch):
        GenSylvesterProblem.build(  # b1 is not a slot of the one-left kind
            EquationKind.ONE_LEFT,
            a1=QMatrix.identity(2),
            a2=QMatrix.identity(2),
            b2=QMatrix.identity(2),
            b1=QMatrix.identity(2),
            c=c,
        )


def test_identity_fills_for_omitted_sides():
    rng = SplitMix64(61)
    a1 = random_matrix(rng, 3, 2)
    b1 = random_matrix(rng, 2, 2)
    c = random_matrix(rng, 3, 2)
    prob = GenSylvesterProblem.build(EquationKind.SYLVESTER, a1=a1, b2=b1, c=c)
    assert prob.b1 == QMatrix.identity(2)  # omitted right side of term 1
    assert prob.a2 == QMatrix.identity(3)  # omitted left side of term 2
    sol = PairSolution(random_matrix(rng, 2, 2), random_matrix(rng, 3, 2))
    direct = a1 @ sol.x1 + sol.x2 @ b1
    assert_matrix_close(apply_lhs(prob, sol), direct, 1e-13)


def test_two_term_dimension_validation():
    with pytest.raises(DimensionMismatch):
        GenSylvesterProblem.build(
            EquationKind.GEN_SYLVESTER,
            a1=QMatrix.zeros(3, 2),
            b1=QMatrix.zeros(2, 2),
            a2=QMatrix.zeros(2, 2),  # wrong row count
            b2=QMatrix.zeros(2, 2),
            c=QMatrix.zeros(3, 2),
        )


def test_conjugate_transpose_kinds_validate_shapes():
    a = QMatrix.zeros(3, 2)
    with pytest.raises(DimensionMismatch):
        GenSylvesterProblem.build(
            EquationKind.LYAPUNOV_STAR, a1=a, c=QMatrix.zeros(3, 2)
        )  # rhs must be square
    prob = GenSylvesterProblem.build(
        EquationKind.LYAPUNOV_STAR, a1=a, c=QMatrix.zeros(3, 3)
    )
    assert prob.x1_shape == (2, 3)
    assert prob.x2_shape is None


def test_apply_lhs_conjugate_transpose_kinds():
    rng = SplitMix64(62)
    a = random_matrix(rng, 3, 2)
    x = random_matrix(rng, 2, 3)
    star = GenSylvesterProblem.build(
        EquationKind.LYAPUNOV_STAR, a1=a, c=QMatrix.zeros(3, 3)
    )
    expected = a @ x + ctranspose(x) @ ctranspose(a)
    assert_matrix_close(apply_lhs(star, PairSolution(x)), expected, 1e-13)

    b = random_matrix(rng, 2, 3)
    like = GenSylvesterProblem.build(
        EquationKind.LYAPUNOV_LIKE, a1=a, b2=b, c=QMatrix.zeros(3, 3)
    )
    expected2 = a @ x + ctranspose(x) @ b
    assert_matrix_close(apply_lhs(like, PairSolution(x)), expected2, 1e-13)


# -- consistency checking ---------------------------------------------------------


def test_consistent_instances_pass_all_gates():
    for kind in ALL_KINDS:
        rng = SplitMix64(6300 + ALL_KINDS.index(kind))
        prob, _ = make_consistent_instance(rng, kind, max_dim=3)
        report = check_consistency(prob)
        assert report.consistent, (kind, [(c.name, c.passed) for c in report.checks])


def test_perturbed_instances_fail_gates():
    rng = SplitMix64(64)
    bad = make_inconsistent_instance(rng, EquationKind.GEN_SYLVESTER, max_dim=3)
    report = check_consistency(bad)
    assert not report.consistent


def test_verdict_holds_iff_the_forced_representative_solves():
    rng = SplitMix64(68)
    cases = []
    for kind in ALL_KINDS:
        for _ in range(5):
            prob, _ = make_consistent_instance(rng, kind, max_dim=3)
            cases.append(prob)
            if kind.is_two_term:
                try:
                    cases.append(perturb_inconsistent(rng, prob))
                except InvalidSize:  # the coefficients span the whole space
                    pass
    # Stein with b2 short of full rank: x1 = c, x2 = 0 solves every instance
    for _ in range(5):
        slots = {"a2": random_matrix(rng, 3, 2), "b2": planted_rank_matrix(rng, 2, 3, 1)}
        template = GenSylvesterProblem.build(EquationKind.STEIN, c=QMatrix.zeros(3, 3), **slots)
        planted = PairSolution(random_matrix(rng, 3, 3), random_matrix(rng, 2, 2))
        cases.append(GenSylvesterProblem.build(
            EquationKind.STEIN, c=apply_lhs(template, planted), **slots))
    verdicts = []
    for prob in cases:
        _, report = solve_direct(prob, force=True)
        solves = report.residual_norm <= 1e-8 * (1.0 + prob.c.fro_norm())
        assert check_consistency(prob).consistent == solves, (prob.kind, report.residual_norm)
        verdicts.append(solves)
    assert any(verdicts) and not all(verdicts)


def test_projector_and_rank_criteria_are_both_reported():
    rng = SplitMix64(65)
    prob, _ = make_consistent_instance(rng, EquationKind.GEN_SYLVESTER, max_dim=3)
    names = {c.name for c in check_consistency(prob).checks}
    assert {
        "r_m_r_a1_c",
        "r_a1_c_l_b2",
        "c_l_b1_l_n",
        "r_a2_c_l_b1",
        "rank_cols",
        "rank_rows",
        "rank_block_a1_b2",
        "rank_block_a2_b1",
        "criteria_agree",
    } <= names


def test_solving_inconsistent_raises_with_report_attached():
    rng = SplitMix64(66)
    bad = make_inconsistent_instance(rng, EquationKind.GEN_SYLVESTER, max_dim=3)
    with pytest.raises(Inconsistent) as err:
        solve_direct(bad)
    assert err.value.report is not None
    assert not err.value.report.consistent
    # force bypasses the gate but the report still says inconsistent
    sol, report = solve_direct(bad, force=True)
    assert not report.consistent
    assert report.residual_norm > 0.1


def test_star_kind_requires_hermitian_rhs():
    rng = SplitMix64(67)
    a = random_matrix(rng, 3, 2)
    c = random_matrix(rng, 3, 3)  # generically not Hermitian
    prob = GenSylvesterProblem.build(EquationKind.LYAPUNOV_STAR, a1=a, c=c)
    report = check_consistency(prob)
    byname = {chk.name: chk for chk in report.checks}
    assert not byname["rhs_hermitian"].passed
    assert not report.consistent


# -- the two solver routes --------------------------------------------------------


def test_routes_agree_on_every_kind():
    for kind in ALL_KINDS:
        rng = SplitMix64(6800 + ALL_KINDS.index(kind))
        max_dim = 3 if kind is EquationKind.GEN_SYLVESTER else 4
        prob, _ = make_consistent_instance(rng, kind, max_dim=max_dim)
        sol_d, rep_d = solve_direct(prob)
        sol_c, rep_c = solve_cramer(prob)
        assert max_entry_diff(sol_d.x1, sol_c.x1) <= 1e-8
        if sol_d.x2 is not None:
            assert max_entry_diff(sol_d.x2, sol_c.x2) <= 1e-8
        scale = 1e-8 * (1.0 + fro_norm(prob.c))
        assert rep_d.residual_norm <= scale
        assert rep_c.residual_norm <= scale
        assert rep_d.method == "direct" and rep_c.method == "cramer"


def test_cramer_row_and_column_forms_agree():
    rng = SplitMix64(69)
    prob, _ = make_consistent_instance(rng, EquationKind.GEN_SYLVESTER, max_dim=3)
    sol_col, _ = solve_cramer(prob, form="column")
    sol_row, _ = solve_cramer(prob, form="row")
    assert max_entry_diff(sol_col.x1, sol_row.x1) <= 1e-9
    assert max_entry_diff(sol_col.x2, sol_row.x2) <= 1e-9


def test_solve_both_adds_agreement_check():
    rng = SplitMix64(70)
    prob, _ = make_consistent_instance(rng, EquationKind.SYLVESTER, max_dim=3)
    sol, report = solve(prob, method="both")
    agree = report.check("methods_agree")
    assert agree is not None and agree.passed
    assert report.method == "cramer"


def test_report_serializes_to_plain_json_types():
    rng = SplitMix64(71)
    prob, _ = make_consistent_instance(rng, EquationKind.ONE_LEFT, max_dim=3)
    _, report = solve(prob, method="both")
    doc = report.to_json_dict()
    assert isinstance(doc["consistent"], bool)
    assert isinstance(doc["residual_norm"], float)
    assert doc["method"] in {"direct", "cramer", "general", "check"}
    for item in doc["checks"]:
        assert set(item) == {"name", "passed", "residual"}
    assert isinstance(doc["provenance"], dict)
    assert all(
        isinstance(k, str) and isinstance(v, str) for k, v in doc["provenance"].items()
    )


def test_cramer_axb_matches_pinv_sandwich():
    rng = SplitMix64(72)
    a = random_matrix(rng, 3, 2)
    b = random_matrix(rng, 2, 3)
    x_plant = random_matrix(rng, 2, 2)
    c = a @ x_plant @ b
    from qsylv import mp_oracle

    x_mp = mp_oracle(a).pinv @ c @ mp_oracle(b).pinv
    for form in ("column", "row"):
        x_det = cramer_axb(a, c, b, form=form)
        assert max_entry_diff(x_det, x_mp) <= 1e-9


def test_planted_solution_is_recovered_at_full_rank():
    # with an invertible first coefficient and a vanished second term the
    # first unknown is unique, so both routes must recover the plant exactly
    rng = SplitMix64(73)
    a = random_matrix(rng, 2, 2)
    x_plant = random_matrix(rng, 2, 2)
    c = a @ x_plant
    prob = GenSylvesterProblem.build(
        EquationKind.ONE_LEFT, a1=a, a2=QMatrix.zeros(2, 2), b2=QMatrix.zeros(2, 2), c=c
    )
    sol, _ = solve_direct(prob)
    assert max_entry_diff(sol.x1, x_plant) <= 1e-8
    assert sol.x2.fro_norm() <= 1e-10
    sol_c, _ = solve_cramer(prob)
    assert max_entry_diff(sol_c.x1, x_plant) <= 1e-8


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.cli_name)
def test_solving_at_extreme_power_of_two_scales(kind):
    # every coefficient and the right-hand side scaled by 2**k: Gram matrices
    # of the unscaled coefficients would overflow (k = 700) or underflow (-700)
    for seed in (3, 4):
        problem, _ = make_consistent_instance(SplitMix64(seed), kind)
        for k in (700, -700):
            slots = {name: scale_pow2(getattr(problem, name), k)
                     for name in kind.required_slots if name != "c"}
            scaled = GenSylvesterProblem.build(kind, c=scale_pow2(problem.c, k), **slots)
            try:
                _, report = solve(scaled, method="both")
            except QsylvError:
                continue
            assert report.residual_norm <= 1e-8 * (1.0 + scaled.c.fro_norm())


def test_derive_aux_is_cached_per_problem():
    rng = SplitMix64(74)
    prob, _ = make_consistent_instance(rng, EquationKind.GEN_SYLVESTER, max_dim=3)
    assert derive_aux(prob) is derive_aux(prob)


def test_residual_matches_definition():
    rng = SplitMix64(75)
    prob, planted = make_consistent_instance(rng, EquationKind.TWO_LEFT, max_dim=3)
    assert residual(prob, planted) == pytest.approx(
        fro_norm(apply_lhs(prob, planted) - prob.c)
    )
    assert residual(prob, planted) <= 1e-10 * (1 + fro_norm(prob.c))


# -- general solutions ------------------------------------------------------------


def test_general_solution_with_zero_free_params_is_the_partial_solution():
    for kind in ALL_KINDS:
        rng = SplitMix64(7600 + ALL_KINDS.index(kind))
        prob, _ = make_consistent_instance(rng, kind, max_dim=3)
        sol0, _ = solve_general(prob, FreeParams())
        sol_d, _ = solve_direct(prob)
        assert max_entry_diff(sol0.x1, sol_d.x1) <= 1e-12
        if sol0.x2 is not None:
            assert max_entry_diff(sol0.x2, sol_d.x2) <= 1e-12


def test_general_solution_stays_exact_for_random_free_params():
    for kind in ALL_KINDS:
        rng = SplitMix64(7700 + ALL_KINDS.index(kind))
        prob, _ = make_consistent_instance(rng, kind, max_dim=3)
        free = random_free_params(rng, prob, scale=2.0)
        sol, report = solve_general(prob, free)
        assert report.residual_norm <= 1e-8 * (1 + fro_norm(prob.c)), kind
        assert report.method == "general"


def test_general_solution_varies_with_free_params():
    rng = SplitMix64(78)
    prob, _ = make_consistent_instance(rng, EquationKind.SYLVESTER, max_dim=3)
    free = random_free_params(rng, prob, scale=1.0)
    sol0, _ = solve_general(prob, FreeParams())
    sol1, _ = solve_general(prob, free)
    moved = max_entry_diff(sol0.x1, sol1.x1)
    if sol0.x2 is not None:
        moved = max(moved, max_entry_diff(sol0.x2, sol1.x2))
    assert moved > 1e-6  # the family is nontrivial for this instance


def test_free_param_shapes_match_consumed_blocks():
    rng = SplitMix64(79)
    prob, _ = make_consistent_instance(rng, EquationKind.GEN_SYLVESTER, max_dim=3)
    shapes = free_param_shapes(prob)
    assert set(shapes) == {"u", "v", "z", "w"}
    free = random_free_params(rng, prob)
    for name, (rows, cols) in shapes.items():
        block = getattr(free, name)
        assert block.shape == (rows, cols)


def test_star_kind_constraint_block_must_be_compatible():
    rng = SplitMix64(80)
    prob, _ = make_consistent_instance(rng, EquationKind.LYAPUNOV_STAR, max_dim=3)
    n = prob.x1_shape[0]
    skew = random_matrix(rng, n, n)
    skew = (skew - skew.H) / 2.0  # exactly compatible
    sol, report = solve_general(prob, FreeParams(y=random_matrix(rng, *prob.x1_shape), zc=skew))
    assert report.residual_norm <= 1e-8 * (1 + fro_norm(prob.c))
    sym = random_matrix(rng, n, n)
    sym = (sym + sym.H) / 2.0 + QMatrix.identity(n)  # maximally incompatible
    with pytest.raises(ConstraintViolated):
        solve_general(prob, FreeParams(zc=sym))


def test_like_kind_free_family_needs_matching_sides():
    rng = SplitMix64(81)
    # build a like-kind instance whose second coefficient is NOT the
    # conjugate transpose of the first: the parametric family has no
    # guarantee, so nonzero free parameters must be refused
    a = random_matrix(rng, 3, 2)
    b = random_matrix(rng, 2, 3)
    x = random_matrix(rng, 2, 3)
    c = a @ x + ctranspose(x) @ b
    prob = GenSylvesterProblem.build(EquationKind.LYAPUNOV_LIKE, a1=a, b2=b, c=c)
    with pytest.raises(ConstraintViolated):
        solve_general(
            prob, FreeParams(y=random_matrix(rng, 2, 3)), force=True
        )
