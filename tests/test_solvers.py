"""Equation kinds, consistency checks, both solver routes, general solutions."""

from __future__ import annotations

from functools import partial

import pytest

from qsylv import (
    AuxData,
    CheckResult,
    ConstraintViolated,
    DEFAULT_TOL,
    DimensionMismatch,
    EquationKind,
    FreeParams,
    GenSylvesterProblem,
    Inconsistent,
    InvalidSize,
    MpResult,
    OutOfRange,
    PairSolution,
    QMatrix,
    QsylvError,
    SolveReport,
    apply_lhs,
    check_consistency,
    ctranspose,
    derive_aux,
    free_param_shapes,
    fro_norm,
    residual,
    solve,
    solve_general,
)
import qsylv.solvers as solvers_module
from qsylv.jsonio import dumps
from qsylv.qmatrix import scale_pow2
from qsylv.sampling import (
    SplitMix64,
    make_consistent_instance,
    make_inconsistent_instance,
    perturb_inconsistent,
    planted_rank_matrix,
    random_free_params,
    random_hermitian,
    random_matrix,
)
from qsylv.solvers import cramer_ax, cramer_axb

from conftest import assert_matrix_close, max_entry_diff, q, qm

ALL_KINDS = list(EquationKind)
TWO_TERM_KINDS = [k for k in ALL_KINDS if k.is_two_term]
# the two-term kinds that omit a coefficient, which then holds an identity
IDENTITY_KINDS = [k for k in TWO_TERM_KINDS if k is not EquationKind.GEN_SYLVESTER]


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


def _zero_slots(kind, grow=None, axis=0):
    """Zero matrices for every slot of ``kind``, one distinct size per letter;
    slot ``grow`` gets one more row (``axis`` 0) or column (``axis`` 1)."""
    sizes = {letter: 2 + i for i, letter in enumerate("mnrspq")}
    slots = {}
    for name, letters in kind.slot_shapes.items():
        shape = [sizes[letter] for letter in letters]
        if name == grow:
            shape[axis] += 1
        slots[name] = QMatrix.zeros(*shape)
    return slots


@pytest.mark.parametrize("kind, name, axis", [
    pytest.param(kind, name, axis, id=f"{kind.cli_name}-{name}-{('rows', 'cols')[axis]}")
    for kind in ALL_KINDS for name in kind.slot_shapes for axis in (0, 1)
])
def test_every_slot_size_is_validated(kind, name, axis):
    GenSylvesterProblem.build(kind, **_zero_slots(kind))
    slots = _zero_slots(kind, grow=name, axis=axis)
    letter = kind.slot_shapes[name][axis]
    if "".join(kind.slot_shapes.values()).count(letter) > 1:
        with pytest.raises(DimensionMismatch):
            GenSylvesterProblem.build(kind, **slots)
        return
    # a size no other slot shares is free: an unknown takes it on
    prob = GenSylvesterProblem.build(kind, **slots)
    x2 = QMatrix.zeros(*prob.x2_shape) if prob.x2_shape else None
    assert apply_lhs(prob, PairSolution(QMatrix.zeros(*prob.x1_shape), x2)).shape == prob.c.shape


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.cli_name)
def test_every_missing_slot_is_refused(kind):
    for name in kind.required_slots:
        if name == "c":
            continue
        slots = _zero_slots(kind)
        del slots[name]
        with pytest.raises(DimensionMismatch, match="requires"):
            GenSylvesterProblem.build(kind, **slots)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.cli_name)
def test_every_foreign_slot_is_refused(kind):
    for name in {"a1", "b1", "a2", "b2"} - set(kind.slot_shapes):
        slots = _zero_slots(kind)
        slots[name] = QMatrix.zeros(slots["c"].rows, slots["c"].rows)
        with pytest.raises(DimensionMismatch, match="does not take"):
            GenSylvesterProblem.build(kind, **slots)


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
        _, report = solve(prob, method="direct", force=True)
        solves = report.residual_norm <= 1e-8 * prob.c.fro_norm()
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
        solve(bad, method="direct")
    assert err.value.report is not None
    assert not err.value.report.consistent
    # force bypasses the gate but the report still says inconsistent
    sol, report = solve(bad, method="direct", force=True)
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
        sol_d, rep_d = solve(prob, method="direct")
        sol_c, rep_c = solve(prob, method="cramer")
        assert max_entry_diff(sol_d.x1, sol_c.x1) <= 1e-8
        if sol_d.x2 is not None:
            assert max_entry_diff(sol_d.x2, sol_c.x2) <= 1e-8
        scale = 1e-8 * (1.0 + fro_norm(prob.c))
        assert rep_d.residual_norm <= scale
        assert rep_c.residual_norm <= scale
        assert rep_d.method == "direct" and rep_c.method == "cramer"


def test_solve_both_adds_agreement_check():
    rng = SplitMix64(70)
    prob, _ = make_consistent_instance(rng, EquationKind.SYLVESTER, max_dim=3)
    sol, report = solve(prob, method="both")
    agree = report.check("methods_agree")
    assert agree is not None and agree.passed
    assert report.method == "cramer"


def test_unknown_method_is_refused_before_any_svd(jacobi_log):
    rng = SplitMix64(70)
    prob, _ = make_consistent_instance(rng, EquationKind.GEN_SYLVESTER, max_dim=3)
    derive_aux.cache_clear()
    with pytest.raises(InvalidSize, match="bogus"):
        solve(prob, method="bogus")
    assert jacobi_log.members == 0
    solve(prob, method="direct")
    assert jacobi_log.members  # the counter does see the gate's SVDs


@pytest.mark.parametrize("run", [
    pytest.param(lambda prob: solve(prob, method="direct"), id="direct"),
    pytest.param(lambda prob: solve(prob, method="cramer"), id="cramer"),
    pytest.param(lambda prob: solve(prob, method="both"), id="both"),
    pytest.param(lambda prob: solve_general(prob), id="general"),
])
def test_every_solve_report_ends_with_its_solution_residual(run):
    for kind in ALL_KINDS:
        rng = SplitMix64(7000 + ALL_KINDS.index(kind))
        prob, _ = make_consistent_instance(rng, kind, max_dim=3)
        sol, report = run(prob)
        last = report.checks[-1]
        assert last.name == "solution_residual"
        assert last.residual == report.residual_norm == residual(prob, sol)
        assert last.passed, kind


def test_solution_residual_fails_when_the_solution_does_not_solve():
    # forced past the gate, the representative of an inconsistent instance
    # misses c by far more than tol * |c|
    rng = SplitMix64(66)
    bad = make_inconsistent_instance(rng, EquationKind.GEN_SYLVESTER, max_dim=3)
    _, report = solve(bad, method="direct", force=True)
    check = report.check("solution_residual")
    assert not check.passed
    assert check.residual > 1e-8 * bad.c.fro_norm()


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
    assert max_entry_diff(cramer_axb(a, c, b), x_mp) <= 1e-9


@pytest.mark.parametrize("full_rank", [True, False], ids=["full-rank", "rank-deficient"])
@pytest.mark.parametrize("given_rank", [False, True], ids=["ra-decided", "ra-given"])
def test_cramer_ax_is_the_left_factor_times_c(full_rank, given_rank):
    from qsylv import mp_cramer, mp_oracle

    rng = SplitMix64(74)
    a = random_matrix(rng, 4, 3) if full_rank else planted_rank_matrix(rng, 4, 3, 2)
    c = random_matrix(rng, 4, 2)
    oracle = mp_oracle(a)
    assert oracle.rank_used == (3 if full_rank else 2)
    ra = oracle.rank_used if given_rank else None
    got = cramer_ax(a, c, ra)
    assert got._pair.tobytes() == (mp_cramer(a, "left", ra).pinv @ c)._pair.tobytes()
    want = oracle.pinv @ c
    assert (got - want).fro_norm() <= 1e-10 * want.fro_norm()


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
    sol, _ = solve(prob, method="direct")
    assert max_entry_diff(sol.x1, x_plant) <= 1e-8
    assert sol.x2.fro_norm() <= 1e-10
    sol_c, _ = solve(prob, method="cramer")
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
            assert report.residual_norm <= 1e-8 * scaled.c.fro_norm()


# Exponents of (a1, b1, a2, b2, c); a kind's identity-filled slots keep
# exponent 0, and the conjugate-transpose kinds scale b like a.
SCALINGS = [(3, -5, 7, 2, 11), (600,) * 5, (-600,) * 5, (-200, 450, 300, -350, 100)]


def _rescaled(problem, exponents):
    shapes = problem.kind.slot_shapes
    k = {name: e if name in shapes else 0 for name, e in zip(("a1", "b1", "a2", "b2", "c"), exponents)}
    if not problem.kind.is_two_term:
        k["b2"] = k["a1"]
    slots = {name: scale_pow2(getattr(problem, name), k[name]) for name in shapes}
    return GenSylvesterProblem.build(problem.kind, **slots), k


def _outcome(problem):
    """Verdict, each check's ``passed``, ranks and both routes' solutions."""
    direct, _ = solve(problem, method="direct", force=True)
    sol, report = solve(problem, method="both", force=True)
    passed = tuple((c.name, c.passed) for c in report.checks)
    return report.consistent, passed, derive_aux(problem).ranks, direct, sol


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.cli_name)
def test_results_rescale_exactly_under_power_of_two_scaling(kind):
    for seed in (0, 1):
        problem, _ = make_consistent_instance(SplitMix64(seed), kind)
        cases = [problem]
        if kind.is_two_term and kind is not EquationKind.STEIN:
            cases.append(make_inconsistent_instance(SplitMix64(seed), kind))
        for case in cases:
            verdict, passed, ranks, direct, cramer = _outcome(case)
            for exponents in SCALINGS:
                scaled, k = _rescaled(case, exponents)
                got = _outcome(scaled)
                assert got[:3] == (verdict, passed, ranks), (seed, exponents)
                for want, sol in zip((direct, cramer), got[3:]):
                    assert sol.x1 == scale_pow2(want.x1, k["c"] - k["a1"] - k["b1"])
                    if want.x2 is not None:
                        assert sol.x2 == scale_pow2(want.x2, k["c"] - k["a2"] - k["b2"])


def _as_gen_sylvester(problem):
    """The same equation with its identities written out: the general path."""
    slots = {name: getattr(problem, name) for name in ("a1", "b1", "a2", "b2", "c")}
    return GenSylvesterProblem.build(EquationKind.GEN_SYLVESTER, **slots)


def _solve_doc(problem, method):
    sol, report = solve(problem, method=method, force=True)
    return dumps([sol.x1.to_json(), sol.x2.to_json(), report.to_json_dict()])


@pytest.mark.parametrize("kind", IDENTITY_KINDS, ids=lambda k: k.cli_name)
def test_identity_filled_kinds_match_their_general_form_bit_for_bit(kind, monkeypatch):
    # A kind and its general form both take the identity shortcuts.  With
    # identities not recognised, the general form computes the SVDs,
    # coefficient passes and rank criteria they skip, and gives the same bytes.
    methods = ("direct", "cramer", "both")
    for seed in range(10):
        cases = [make_consistent_instance(SplitMix64(seed), kind, max_dim=4)[0]]
        if kind is not EquationKind.STEIN:
            cases.append(make_inconsistent_instance(SplitMix64(seed), kind, max_dim=4))
        for case in cases:
            general = _as_gen_sylvester(case)
            ranks = derive_aux(case).ranks
            docs = [_solve_doc(case, method) for method in methods]
            assert derive_aux(general).ranks == ranks, seed
            assert [_solve_doc(general, method) for method in methods] == docs, seed
            with monkeypatch.context() as patch:
                patch.setattr(QMatrix, "is_identity", lambda self: False)
                derive_aux.cache_clear()
                assert derive_aux(general).ranks == ranks, seed
                assert [_solve_doc(general, method) for method in methods] == docs, seed
            derive_aux.cache_clear()


# Decompositions, coefficient passes and batched Jacobi passes of one
# solve(method="both") of the seed-3, max_dim-4 instance: an exact identity
# (an identity-filled slot, or two-right's s = a2 L_m) takes neither a
# decomposition nor a coefficient pass, a derived matrix that is exactly zero
# takes no decomposition, and the rank criteria of the gate share one Jacobi
# pass.  The pseudoinverses of one level of derive_aux share a pass per tall
# shape, and the Cramer route builds one factor per matrix.  Posed as
# gen-sylvester with its identities written out, a kind does the same work.
WORK_PER_SOLVE = {
    EquationKind.GEN_SYLVESTER: (13, 7, 8),
    EquationKind.ONE_LEFT: (9, 4, 5),
    EquationKind.ONE_RIGHT: (9, 4, 6),
    EquationKind.STEIN: (5, 3, 4),
    EquationKind.SYLVESTER: (5, 4, 5),
    EquationKind.SYLVESTER_MIRROR: (5, 4, 5),
    EquationKind.TWO_LEFT: (8, 3, 4),
    EquationKind.TWO_RIGHT: (7, 3, 4),
    EquationKind.LYAPUNOV_LIKE: (1, 1, 1),
    EquationKind.LYAPUNOV_STAR: (1, 1, 1),
}


@pytest.mark.parametrize("kind, general", [
    *(pytest.param(kind, False, id=kind.cli_name) for kind in ALL_KINDS),
    *(pytest.param(kind, True, id=f"{kind.cli_name}-as-gen-sylvester") for kind in IDENTITY_KINDS),
])
def test_identity_slots_take_no_svd_or_coefficient_pass(kind, general, coeff_passes, jacobi_log):
    prob, _ = make_consistent_instance(SplitMix64(3), kind, max_dim=4)
    if general:
        prob = _as_gen_sylvester(prob)
    derive_aux.cache_clear()
    solve(prob, method="both", force=True)
    assert (jacobi_log.members, len(coeff_passes), jacobi_log.passes) == WORK_PER_SOLVE[kind]


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0])
def test_tolerance_must_be_finite_and_non_negative(tol):
    prob = make_inconsistent_instance(SplitMix64(3), EquationKind.TWO_LEFT)
    with pytest.raises(InvalidSize):
        check_consistency(prob, tol)
    for method in ("direct", "cramer", "both"):
        with pytest.raises(InvalidSize):
            solve(prob, method=method, tol=tol)
    with pytest.raises(InvalidSize):
        solve_general(prob, tol=tol)


def _records():
    m = QMatrix.from_rows([[1.0, 2.0]])
    one = QMatrix.identity(1)
    pairs = [
        (GenSylvesterProblem.build(EquationKind.TWO_LEFT, a1=one, a2=one, c=one),
         "GenSylvesterProblem(kind=<EquationKind.TWO_LEFT: 'two-left'>, a1=QMatrix(1x1), "
         "b1=QMatrix(1x1), a2=QMatrix(1x1), b2=QMatrix(1x1), c=QMatrix(1x1))"),
        (FreeParams(u=m), "FreeParams(u=QMatrix(1x2), v=None, z=None, w=None, y=None, zc=None)"),
        (PairSolution(m), "PairSolution(x1=QMatrix(1x2), x2=None)"),
        (CheckResult("rank_cols", True, 0.0),
         "CheckResult(name='rank_cols', passed=True, residual=0.0)"),
        (SolveReport(True, (CheckResult("r", False, 1.5),), 0.25, "check", (("x1", "f"),)),
         "SolveReport(consistent=True, checks=(CheckResult(name='r', passed=False, "
         "residual=1.5),), residual_norm=0.25, method='check', provenance=(('x1', 'f'),))"),
        (AuxData(MpResult(m, "oracle", 1, m)),
         "AuxData(a1=MpResult(pinv=QMatrix(1x2), method='oracle', rank_used=1, a=QMatrix(1x2)), "
         "b1=None, a2=None, b2=None, m=None, n=None, s=None)"),
        (MpResult(m, "oracle", 1, m),
         "MpResult(pinv=QMatrix(1x2), method='oracle', rank_used=1, a=QMatrix(1x2))"),
    ]
    return [pytest.param(record, text, id=type(record).__name__) for record, text in pairs]


@pytest.mark.parametrize("record, text", _records())
def test_records_are_immutable_and_keep_their_repr(record, text):
    # the repr texts keep the form of the frozen dataclasses the records once
    # were; AuxData and MpResult show their current fields
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("kind", TWO_TERM_KINDS, ids=lambda k: k.cli_name)
def test_derived_matrices_are_read_off_the_slot_records_bit_for_bit(kind):
    for seed in range(5):
        prob, _ = make_consistent_instance(SplitMix64(seed), kind, max_dim=4)
        aux = derive_aux(prob)
        for record, expected in (
            (aux.m, aux.a1.proj_r() @ prob.a2),
            (aux.n, prob.b2 @ aux.b1.proj_l()),
            (aux.s, prob.a2 @ aux.m.proj_l()),
        ):
            assert record.a._pair.tobytes() == expected._pair.tobytes(), seed


def test_lyapunov_kinds_rank_only_the_slots_they_have():
    # ranks are (a1, b1, a2, b2, m, n, s); both kinds rank a alone, since
    # lyapunov-like's b is ctranspose(a)
    for kind, present in ((EquationKind.LYAPUNOV_LIKE, {0}), (EquationKind.LYAPUNOV_STAR, {0})):
        prob, _ = make_consistent_instance(SplitMix64(7), kind, max_dim=4)
        ranks = derive_aux(prob).ranks
        assert len(ranks) == 7
        for slot, r in enumerate(ranks):
            assert (r is None) == (slot not in present), (kind, ranks)


def test_equal_problems_hash_alike_and_share_one_derive_aux_entry():
    rng = SplitMix64(73)
    rows = {name: random_matrix(rng, 3, 3).entries for name in ("a1", "b1", "a2", "b2", "c")}

    def build():
        mats = {name: QMatrix.from_rows(value) for name, value in rows.items()}
        return GenSylvesterProblem.build(EquationKind.GEN_SYLVESTER, **mats)

    first, second = build(), build()
    assert first is not second and first.c is not second.c
    assert first == second and hash(first) == hash(second)
    derive_aux.cache_clear()
    aux = derive_aux(first)
    assert derive_aux(second) is aux
    info = derive_aux.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_derive_aux_is_cached_per_problem():
    rng = SplitMix64(74)
    prob, _ = make_consistent_instance(rng, EquationKind.GEN_SYLVESTER, max_dim=3)
    assert derive_aux(prob) is derive_aux(prob)


@pytest.mark.parametrize("kind, slots", [
    (EquationKind.LYAPUNOV_LIKE, ("a1", "b2")),
    (EquationKind.LYAPUNOV_STAR, ("a1",)),
])
def test_lyapunov_kinds_take_one_svd_per_coefficient(kind, slots, jacobi_log):
    # gate, both routes and the shared ranks all read the one derive_aux entry,
    # which decomposes a alone: lyapunov-like's b is ctranspose(a)
    rng = SplitMix64(76)
    a = random_matrix(rng, 3, 3)
    given = {"a1": a, "b2": a.H}
    prob = GenSylvesterProblem.build(kind, c=random_matrix(rng, 3, 3),
                                     **{name: given[name] for name in slots})
    derive_aux.cache_clear()
    solve(prob, method="both", force=True)
    assert jacobi_log.batches == [[(6, 6)]]


@pytest.mark.parametrize("run", [
    pytest.param(lambda prob: solve(prob, method="direct"), id="direct"),
    pytest.param(lambda prob: solve(prob, method="both"), id="both"),
    pytest.param(lambda prob: solve_general(prob), id="general"),
])
def test_lyapunov_like_direct_solution_is_formed_once_per_solve(run, monkeypatch):
    # the gate forms no solution and the direct route forms one; the Cramer
    # route evaluates the same formula on its own mp_cramer record
    prob, _ = make_consistent_instance(SplitMix64(77), EquationKind.LYAPUNOV_LIKE, max_dim=3)
    calls = []
    original = solvers_module._lyap

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(solvers_module, "_lyap", counting)
    derive_aux.cache_clear()
    run(prob)
    assert sum(not record.method.startswith("cramer_") for record, *_ in calls) == 1


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.cli_name)
def test_cramer_route_takes_only_ranks_from_derive_aux(kind, monkeypatch, jacobi_log):
    # with derive_aux cached the Cramer route decomposes nothing: every record
    # it builds is a determinantal inverse at the rank derive_aux decided
    prob, _ = make_consistent_instance(SplitMix64(3), kind, max_dim=4)
    derive_aux.cache_clear()
    aux = derive_aux(prob)
    built, records = [], solvers_module._records
    monkeypatch.setattr(solvers_module, "_records",
                        lambda *args: built.append(records(*args)) or built[-1])
    jacobi_log.batches.clear()
    solvers_module._partial(prob, "cramer")
    assert jacobi_log.passes == 0
    (cramer,) = built
    for slot in AuxData._fields:
        record, decided = getattr(cramer, slot), getattr(aux, slot)
        assert (record is None) == (decided is None), slot
        if record is not None:
            assert isinstance(record, MpResult), slot
            assert record.method in ("cramer_left", "cramer_right"), slot
            assert record.rank_used == decided.rank_used, slot


def _overflowing_c() -> GenSylvesterProblem:
    """A two-left instance whose finite ``c`` has an infinite norm."""
    big = q(1e308, 1e308, 1e308, 1e308)
    a = qm([[q(1)], [q(0)]])
    return GenSylvesterProblem.build(EquationKind.TWO_LEFT, a1=a, a2=a, c=qm([[big], [big]]))


def _overflowing_x() -> GenSylvesterProblem:
    """A two-left instance with a finite ``|c|`` whose solution ``x1 = 2 c`` has
    an infinite norm; its residual is 0."""
    half = QMatrix.identity(2) * 0.5
    c = QMatrix.from_rows([[0.6e308, 0.6e308], [0.6e308, 0.6e308]])
    return GenSylvesterProblem.build(EquationKind.TWO_LEFT, a1=half, a2=half, c=c)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.0])
def test_an_overflowing_norm_raises_rather_than_passing_every_check(tol):
    # every entry is finite, but a comparison with tol * inf (or with
    # 0 * inf = nan) tests nothing
    prob = _overflowing_c()
    with pytest.raises(OutOfRange, match=r"\|c\| overflows"):
        check_consistency(prob, tol)
    for method in ("direct", "cramer", "both"):
        with pytest.raises(OutOfRange, match=r"\|c\| overflows"):
            solve(prob, method=method, tol=tol, force=True)
    with pytest.raises(OutOfRange, match=r"\|c\| overflows"):
        solve_general(prob, tol=tol, force=True)
    # methods_agree compares with tol * |x|; a route alone still solves
    prob = _overflowing_x()
    with pytest.raises(OutOfRange, match=r"\|x\| overflows"):
        solve(prob, method="both", tol=tol)
    sol, report = solve(prob, method="direct", tol=tol)
    assert report.check("solution_residual") == CheckResult("solution_residual", True, 0.0)
    assert sol.x1.fro_norm() == float("inf")


def test_the_constraint_budget_of_a_huge_a_is_checked_or_raises_out_of_range():
    # |a|^2 overflows, but |a|^2 |zc| = 1.3e301 does not: the check still runs
    rng = SplitMix64(5)
    a = random_matrix(rng, 2, 2) * 1e155
    x = random_matrix(rng, 2, 2) * 1e-10
    prob = GenSylvesterProblem.build(EquationKind.LYAPUNOV_STAR, a1=a, c=a @ x + x.H @ a.H)
    zc = random_matrix(rng, 2, 2) * 1e-10
    with pytest.raises(ConstraintViolated):
        solve_general(prob, FreeParams(zc=zc), force=True)
    sol, _ = solve_general(prob, FreeParams(zc=zc - zc.H), force=True)
    assert sol.x1.shape == (2, 2)
    # a budget of tol * inf would accept any zc
    with pytest.raises(OutOfRange, match=r"\|a\|\^2 \|zc\| overflows"):
        solve_general(prob, FreeParams(zc=(zc - zc.H) * 1e10), force=True)


def test_an_overflowing_norm_of_b_raises_rather_than_passing_the_domain_test():
    # b is 5 % away from ctranspose(a), but |b| overflows, and
    # mismatch > tol * |b| would then accept it
    big = 1e308
    a = qm([[q(big, big, big, big)]])
    b = qm([[q(big, -big, -big, -0.9 * big)]])
    prob = GenSylvesterProblem.build(EquationKind.LYAPUNOV_LIKE, a1=a, b2=b,
                                     c=QMatrix.identity(1))
    with pytest.raises(OutOfRange, match=r"\|b\| overflows"):
        check_consistency(prob)


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
        sol_d, _ = solve(prob, method="direct")
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


def _planted_like_instances_off_the_domain():
    """Planted ``c = a x + ctranspose(x) b`` with ``b`` drawn apart from ``a``,
    so ``b != ctranspose(a)``: seed 81's 3x2 ``a``, then seeds 5000-5019 with
    planted-rank ``a`` and ``b``, ``m, n <= 4``."""
    rng = SplitMix64(81)
    a, b, x = random_matrix(rng, 3, 2), random_matrix(rng, 2, 3), random_matrix(rng, 2, 3)
    yield GenSylvesterProblem.build(EquationKind.LYAPUNOV_LIKE, a1=a, b2=b,
                                    c=a @ x + ctranspose(x) @ b)
    for seed in range(5000, 5020):
        rng = SplitMix64(seed)
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = planted_rank_matrix(rng, m, n, rng.randint(1, min(m, n)))
        b = planted_rank_matrix(rng, n, m, rng.randint(1, min(m, n)))
        x = random_matrix(rng, n, m)
        yield GenSylvesterProblem.build(EquationKind.LYAPUNOV_LIKE, a1=a, b2=b,
                                        c=a @ x + ctranspose(x) @ b)


@pytest.mark.parametrize("run", [
    pytest.param(check_consistency, id="check"),
    *(pytest.param(partial(solve, method=method, force=force),
                   id=f"solve-{method}{'-force' * force}")
      for method in ("direct", "cramer", "both") for force in (False, True)),
    pytest.param(partial(solve_general, free=FreeParams(), force=True), id="general-force"),
    pytest.param(lambda prob: solve_general(
        prob, FreeParams(y=random_matrix(SplitMix64(82), *prob.x1_shape)), force=True),
        id="general-y-force"),
])
def test_like_kind_free_family_needs_matching_sides(run):
    # a like-kind instance whose second coefficient is NOT the conjugate
    # transpose of the first lies outside the domain of pinv(a) c (i - Q_a/2):
    # neither that solution nor the parametric family holds there, so every
    # entry point refuses it, with or without free blocks, and no planted
    # solution is called inconsistent
    for prob in _planted_like_instances_off_the_domain():
        with pytest.raises(ConstraintViolated, match=r"b = ctranspose\(a\)"):
            run(prob)


@pytest.mark.parametrize("rhs", ["planted", "random", "hermitian"])
def test_like_kind_with_b_equal_to_ctranspose_a_gets_the_star_verdict(rhs):
    # the fact that lets one branch serve both conjugate-transpose kinds
    verdicts = []
    for seed in range(5100, 5140):
        rng = SplitMix64(seed)
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = planted_rank_matrix(rng, m, n, rng.randint(1, min(m, n)))
        if rhs == "planted":
            x = random_matrix(rng, n, m)
            c = a @ x + ctranspose(x) @ ctranspose(a)
        elif rhs == "random":
            c = random_matrix(rng, m, m)
        else:
            c = random_hermitian(rng, m)
        like = GenSylvesterProblem.build(EquationKind.LYAPUNOV_LIKE, a1=a, b2=ctranspose(a), c=c)
        star = GenSylvesterProblem.build(EquationKind.LYAPUNOV_STAR, a1=a, c=c)
        verdict = check_consistency(star).consistent
        assert check_consistency(like).consistent == verdict, seed
        verdicts.append(verdict)
    # planted: all consistent; random: none (c is not Hermitian); Hermitian:
    # consistent exactly where R_a c R_a vanishes, which covers both verdicts
    assert {"planted": {True}, "random": {False}, "hermitian": {True, False}}[rhs] == set(verdicts)
