"""Pseudoinverse routes (entrywise determinantal vs embedded-SVD) and projectors."""

from __future__ import annotations

import numpy as np
import pytest

import qsylv.mpinv as mpinv_module
import qsylv.qmatrix as qmatrix_module
import qsylv.rcdet as rcdet_module
import qsylv.svd as svd_module
from qsylv import (
    EquationKind,
    GenSylvesterProblem,
    MpResult,
    QMatrix,
    derive_aux,
    is_hermitian,
    mp_cramer,
    mp_oracle,
    mp_oracles,
    rank,
)
from qsylv.mpinv import (
    gram_left,
    gram_right,
    hermitize,
    proj_p_cramer,
    proj_q_cramer,
)
from qsylv.qmatrix import complex_embed, complex_unembed, scale_pow2
from qsylv.sampling import SplitMix64, planted_rank_matrix, random_matrix
from qsylv.svd import pinv_from_svd, rank_cutoff

from conftest import assert_matrix_close, max_entry_diff, penrose_residuals, q, qm

TOL = 1e-9

# The four projectors of an MpResult, P = pinv a, Q = a pinv, L = I - P, R = I - Q,
# each with its complement.
PROJECTORS = {"proj_p": "proj_l", "proj_q": "proj_r", "proj_l": "proj_p", "proj_r": "proj_q"}


def _penrose_max(a: QMatrix, x: QMatrix) -> float:
    return max(penrose_residuals(a, x))


def _records(a: QMatrix) -> list[MpResult]:
    """The pseudoinverse records of ``a`` from the oracle and from both Cramer sides."""
    return [mp_oracle(a), mp_cramer(a, side="left"), mp_cramer(a, side="right")]


def _identity_slot() -> MpResult:
    """The record of an identity-filled slot: ``a1`` of a ``stein`` problem."""
    rng = SplitMix64(52)
    problem = GenSylvesterProblem.build(
        EquationKind.STEIN, a2=random_matrix(rng, 3, 2), b2=random_matrix(rng, 2, 3),
        c=random_matrix(rng, 3, 3),
    )
    record = derive_aux(problem).a1
    assert record.method == "identity"
    return record


def test_penrose_properties_on_planted_ranks():
    rng = SplitMix64(41)
    for case in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        r = rng.randint(0, min(rows, cols))
        a = planted_rank_matrix(rng, rows, cols, r)
        xs = {
            "cramer-left": mp_cramer(a, side="left").pinv,
            "cramer-right": mp_cramer(a, side="right").pinv,
            "oracle": mp_oracle(a).pinv,
        }
        for label, x in xs.items():
            assert x.shape == (cols, rows)
            assert _penrose_max(a, x) <= TOL, (case, label)
        pairs = list(xs.values())
        for u in pairs:
            for v in pairs:
                assert max_entry_diff(u, v) <= 1e-8, case


def test_rank_zero_gives_zero_pinv():
    a = QMatrix.zeros(3, 2)
    for result in (mp_cramer(a), mp_oracle(a)):
        assert result.pinv == QMatrix.zeros(2, 3)
        assert result.rank_used == 0


def test_rank_zero_records_take_no_product_and_no_coefficient_pass(monkeypatch):
    rng = SplitMix64(53)
    cases = [(QMatrix.zeros(3, 2), None), (QMatrix.zeros(2, 4), 0),
             (random_matrix(rng, 3, 2), 0), (random_matrix(rng, 2, 4), 0)]
    calls = []

    def counted(module, name):
        engine = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or engine(*args))

    for module, name in ((qmatrix_module, "mmul"), (mpinv_module, "mmul"),
                         (rcdet_module, "cdet_coeffs"), (rcdet_module, "rdet_coeffs")):
        counted(module, name)
    for a, r in cases:
        for side in ("left", "right", None):
            method = f"cramer_{side or ('left' if a.cols <= a.rows else 'right')}"
            assert mp_cramer(a, side, r) == (QMatrix.zeros(a.cols, a.rows), method, 0, a)
    assert calls == []


def test_zero_matrices_take_no_svd_and_match_the_svd_route(monkeypatch):
    signed = np.zeros((3, 2, 4))
    signed[::2, :, 1::2] = -0.0
    zeros = [QMatrix.zeros(1, 1), QMatrix.zeros(2, 3), QMatrix.from_array(signed)]
    by_svd = []
    for a in zeros:
        e = complex_embed(a)
        u, s, vh = svd_module.svd(e)
        by_svd.append(complex_unembed(pinv_from_svd(u, s, vh, rank_cutoff(e.shape, s)),
                                      a.cols, a.rows))

    def refuse(mats, vectors):
        raise AssertionError("a zero matrix reached the SVD")

    monkeypatch.setattr(svd_module, "_jacobi", refuse)
    for a, expected in zip(zeros, by_svd):
        result = mp_oracles([a], [1.0])[0]
        assert result.rank_used == 0 and rank(a) == 0
        assert result.pinv.shape == (a.cols, a.rows)
        assert result.pinv._pair.tobytes() == expected._pair.tobytes()


def _computed(monkeypatch, build):
    """``build()`` with identities not recognised: the SVD and coefficient pass run."""
    with monkeypatch.context() as patch:
        patch.setattr(QMatrix, "is_identity", lambda self: False)
        return build()


def test_identities_take_no_svd_and_match_the_svd_route(monkeypatch):
    for n in range(1, 6):
        eye = QMatrix.from_rows(QMatrix.identity(n).entries)
        for floor in (0.0, 1e-10 * n ** 0.5, 0.999):
            computed = _computed(monkeypatch, lambda: mp_oracles([eye], [floor])[0])
            shortcut = mp_oracles([eye], [floor])[0]
            assert (computed.method, shortcut.method) == ("oracle", "identity")
            assert shortcut.rank_used == computed.rank_used == n
            assert shortcut.pinv._pair.tobytes() == computed.pinv._pair.tobytes()
        # at a floor of 1 the prescaled singular values 1/2 fall under it
        assert mp_oracles([eye], [1.0])[0] == (QMatrix.zeros(n, n), "oracle", 0, eye)


# What a pseudoinverse record answers, given a probe ``x`` with ``a.rows`` rows
# and a probe ``y`` with ``a.cols`` columns: products and the four projectors.
ANSWERS = {
    "pinv": lambda f, x, y: f.pinv,
    "pinv @ x": lambda f, x, y: f.pinv @ x,
    "y @ pinv": lambda f, x, y: y @ f.pinv,
    **{name: (lambda f, x, y, name=name: getattr(f, name)()) for name in PROJECTORS},
}


def test_identity_factors_take_no_pass_and_match_its_products(monkeypatch, coeff_passes):
    rng = SplitMix64(52)
    for n in range(1, 6):
        eye = QMatrix.identity(n)
        x = random_matrix(rng, n, n)
        for side in ("left", "right", None):
            for r in (None, n):
                coeff_passes.clear()
                computed = _computed(monkeypatch, lambda: mp_cramer(eye, side, r))
                assert len(coeff_passes) == 1
                shortcut = mp_cramer(eye, side, r)
                assert len(coeff_passes) == 1  # the shortcut took none
                assert shortcut.method == computed.method == f"cramer_{side or 'left'}"
                assert shortcut.rank_used == computed.rank_used == n
                for answer in ANSWERS.values():
                    shortcut_bytes = answer(shortcut, x, x)._pair.tobytes()
                    assert shortcut_bytes == answer(computed, x, x)._pair.tobytes()
        if n > 1:  # a rank override below the size reads the pass
            coeff_passes.clear()
            mp_cramer(eye, "left", n - 1)
            assert len(coeff_passes) == 1


def test_rank_used_matches_planted_rank():
    rng = SplitMix64(42)
    for r in (0, 1, 2):
        a = planted_rank_matrix(rng, 3, 3, r)
        assert mp_cramer(a).rank_used == r
        assert mp_oracle(a).rank_used == r


def test_default_side_prefers_smaller_gram():
    tall = planted_rank_matrix(SplitMix64(43), 4, 2, 2)
    wide = planted_rank_matrix(SplitMix64(44), 2, 4, 2)
    assert mp_cramer(tall).method.endswith("left")
    assert mp_cramer(wide).method.endswith("right")


def test_oracle_takes_one_svd(jacobi_log):
    a = planted_rank_matrix(SplitMix64(45), 4, 2, 1)
    result = mp_oracle(a)
    assert jacobi_log.batches == [[(8, 4)]]
    assert result.rank_used == 1


def test_batched_oracles_equal_per_member_oracles(jacobi_log):
    rng = SplitMix64(46)
    a = random_matrix(rng, 3, 2)
    mats = [a, random_matrix(rng, 2, 3), planted_rank_matrix(rng, 3, 2, 1), QMatrix.zeros(3, 2),
            QMatrix.identity(2), QMatrix.identity(3), scale_pow2(a, -600), random_matrix(rng, 1, 1),
            a @ planted_rank_matrix(rng, 2, 2, 1) + scale_pow2(random_matrix(rng, 3, 2), -40)]
    floors = [0.0, 1e-10, 0.0, 1.0, 0.5, 1.0, 0.0, 2.0, 1e-10]
    batch = mp_oracles(mats, floors)
    # one pass per tall shape: the 3x2 and 2x3 members, the 3x3 identity (at a
    # floor of 1 it is decomposed) and the 1x1 member
    assert [sorted(b) for b in jacobi_log.batches] == [[(4, 6), (6, 4), (6, 4), (6, 4), (6, 4)],
                                                        [(6, 6)], [(2, 2)]]
    alone = [mp_oracles([m], [f])[0] for m, f in zip(mats, floors)]
    assert [r.method for r in batch] == ["oracle"] * 4 + ["identity"] + ["oracle"] * 4
    assert [r.rank_used for r in batch] == [2, 2, 1, 0, 2, 0, 2, 0, 1]
    for got, want in zip(batch, alone):
        assert (got.method, got.rank_used, got.a) == (want.method, want.rank_used, want.a)
        assert got.pinv._pair.tobytes() == want.pinv._pair.tobytes()
    assert mp_oracles(mats[:2]) == [mp_oracle(m) for m in mats[:2]]
    with pytest.raises(ValueError):
        mp_oracles(mats[:2], [0.0])


def test_oracle_rank_is_the_rank_decision():
    rng = SplitMix64(47)
    for case in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = planted_rank_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)))
        # a floor far below every nonzero singular value leaves the decision
        for floor in (0.0, 1e-10):
            assert mp_oracles([a], [floor])[0].rank_used == rank(a), case
    # a floor above the smaller singular value drops it
    diag = qm([[q(2.0), q(0)], [q(0), q(1e-3)]])
    assert mp_oracles([diag], [1e-2])[0].rank_used == 1
    assert mp_oracle(diag).rank_used == rank(diag) == 2


def test_pinv_scales_exactly_under_power_of_two_scaling():
    # pinv(2**k a) = 2**-k pinv(a): both routes prescale, so tiny and huge
    # inputs keep their rank and scale back bit for bit
    rng = SplitMix64(48)
    routes = {
        "cramer-left": lambda m, floor: mp_cramer(m, side="left"),
        "cramer-right": lambda m, floor: mp_cramer(m, side="right"),
        "oracle": lambda m, floor: mp_oracles([m], [floor])[0],
    }
    for case in range(6):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = planted_rank_matrix(rng, rows, cols, rng.randint(1, min(rows, cols)))
        floor = 1e-10 * case
        for label, route in routes.items():
            base = route(a, floor)
            for k in (-600, -300, 300, 600):
                scaled = route(scale_pow2(a, k), 2.0 ** k * floor)
                assert scaled.rank_used == base.rank_used, (case, label, k)
                assert scale_pow2(scaled.pinv, k) == base.pinv, (case, label, k)


def test_tiny_and_huge_scalars_invert():
    for value in (1e-200, 1e200):
        a = qm([[q(value)]])
        for result in (mp_cramer(a), mp_oracle(a)):
            assert result.rank_used == 1
            assert abs(result.pinv[0, 0].w * value - 1.0) <= 1e-15


@pytest.mark.parametrize("name", PROJECTORS)
def test_projectors_are_hermitian_idempotent(name):
    rng = SplitMix64(46)
    records = [_identity_slot()]
    for _ in range(10):
        records += _records(planted_rank_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 1))
    for record in records:
        p = getattr(record, name)()
        assert is_hermitian(p, 1e-9), record.method
        assert_matrix_close(p @ p, p, 1e-9)


@pytest.mark.parametrize("name", PROJECTORS)
def test_projector_complements(name):
    a = planted_rank_matrix(SplitMix64(47), 3, 2, 1)
    for record in [*_records(a), _identity_slot()]:
        p = getattr(record, name)()
        total = p + getattr(record, PROJECTORS[name])()
        assert_matrix_close(total, QMatrix.identity(p.rows), 1e-12)


def test_determinantal_projectors_match_oracle_route():
    rng = SplitMix64(48)
    for _ in range(10):
        a = planted_rank_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 1)
        oracle = mp_oracle(a)
        assert_matrix_close(proj_p_cramer(a), oracle.proj_p(), 1e-9)
        assert_matrix_close(proj_q_cramer(a), oracle.proj_q(), 1e-9)


def _interface_inputs() -> list:
    rng = SplitMix64(53)
    return [
        pytest.param(planted_rank_matrix(rng, 4, 2, 2), "left", id="tall"),
        pytest.param(planted_rank_matrix(rng, 2, 4, 2), "right", id="wide"),
        pytest.param(random_matrix(rng, 3, 3), "left", id="square"),
        pytest.param(planted_rank_matrix(rng, 3, 4, 2), "right", id="rank-deficient"),
        pytest.param(QMatrix.zeros(3, 2), "left", id="zero"),
        pytest.param(QMatrix.identity(3), "left", id="identity"),
    ]


@pytest.mark.parametrize("a, default_side", _interface_inputs())
def test_determinantal_factors_answer_what_the_oracle_answers(a, default_side):
    # the determinantal inverse on either side, or on the smaller Gram (ties go
    # left), gives every product and projector the SVD route gives
    rng = SplitMix64(54)
    x, y = random_matrix(rng, a.rows, 2), random_matrix(rng, 2, a.cols)
    oracle = mp_oracle(a)
    assert mp_cramer(a).method == f"cramer_{default_side}"
    for side in ("left", "right", None):
        record = mp_cramer(a, side)
        for name, answer in ANSWERS.items():
            assert_matrix_close(answer(record, x, y), answer(oracle, x, y), 1e-9)


def test_determinantal_projector_has_trace_rank():
    # denom is read off the coefficients that form the inverse, so tr P = r up to rounding
    rng = SplitMix64(51)
    for _ in range(12):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(1, min(rows, cols))
        a = planted_rank_matrix(rng, rows, cols, r)
        for side in ("left", "right"):
            record = mp_cramer(a, side, r)
            for projector in (record.proj_p(), record.proj_q()):
                assert abs(projector.trace().w - r) <= 1e-12 * r, (rows, cols, r, side)


# What vanishes for each projector of ``a``: L and R annihilate ``a`` from the
# right and from the left, and P and Q fix it there.
_ANNIHILATED = {
    "proj_p": lambda a, p: a @ p - a,
    "proj_q": lambda a, p: p @ a - a,
    "proj_l": lambda a, p: a @ p,
    "proj_r": lambda a, p: p @ a,
}


@pytest.mark.parametrize("name", PROJECTORS)
def test_projectors_annihilate_as_expected(name):
    a = planted_rank_matrix(SplitMix64(49), 4, 3, 2)
    for record in [*_records(a), _identity_slot()]:
        p = getattr(record, name)()
        assert _ANNIHILATED[name](record.a, p).fro_norm() <= 1e-9, record.method


def test_grams_are_hermitian():
    a = random_matrix(SplitMix64(50), 3, 2)
    gl = gram_left(a)
    gr = gram_right(a)
    assert gl.shape == (2, 2) and gr.shape == (3, 3)
    assert is_hermitian(gl, 0.0)
    assert is_hermitian(gr, 0.0)
    assert hermitize(gl) == gl


def test_identity_and_scalar_cases():
    eye = QMatrix.identity(3)
    assert_matrix_close(mp_cramer(eye).pinv, eye, 1e-12)
    one = qm([[q(0, 2, 0, 0)]])  # 2i, pinv = -i/2
    assert_matrix_close(mp_cramer(one).pinv, qm([[q(0, -0.5, 0, 0)]]), 1e-12)


def test_pinv_of_pinv_returns_original():
    a = planted_rank_matrix(SplitMix64(51), 3, 2, 2)
    x = mp_oracle(a).pinv
    assert_matrix_close(mp_oracle(x).pinv, a, 1e-8)
