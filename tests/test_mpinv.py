"""Pseudoinverse routes (entrywise determinantal vs embedded-SVD) and projectors."""

from __future__ import annotations

import qsylv.mpinv as mpinv
from qsylv import QMatrix, mp_cramer, mp_oracle, proj_p, proj_q, rank
from qsylv.mpinv import (
    DetPinv,
    gram_left,
    gram_right,
    hermitize,
    penrose_residuals,
    proj_p_cramer,
    proj_q_cramer,
)
from qsylv.qmatrix import scale_pow2
from qsylv.sampling import SplitMix64, planted_rank_matrix, random_matrix

from conftest import assert_matrix_close, max_entry_diff, q, qm

TOL = 1e-9


def _penrose_max(a: QMatrix, x: QMatrix) -> float:
    return max(penrose_residuals(a, x))


def proj_l(a: QMatrix) -> QMatrix:
    """``I - pinv(a) @ a``: the projector onto the null space of ``a``."""
    return QMatrix.identity(a.cols) - proj_p(a)


def proj_r(a: QMatrix) -> QMatrix:
    """``I - a @ pinv(a)``: the projector onto the left null space of ``a``."""
    return QMatrix.identity(a.rows) - proj_q(a)


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


def test_oracle_takes_one_svd(monkeypatch):
    calls = []
    real_svd = mpinv.svd

    def counting_svd(a):
        calls.append(a.shape)
        return real_svd(a)

    monkeypatch.setattr(mpinv, "svd", counting_svd)
    a = planted_rank_matrix(SplitMix64(45), 4, 2, 1)
    result = mp_oracle(a)
    assert calls == [(8, 4)]
    assert result.rank_used == 1


def test_oracle_rank_is_the_rank_decision():
    rng = SplitMix64(47)
    for case in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a = planted_rank_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)))
        for floor in (0.0, 1e-10):
            assert mp_oracle(a, rank_floor=floor).rank_used == rank(a, floor), case
    # a floor above the smaller singular value drops it from both decisions
    diag = qm([[q(2.0), q(0)], [q(0), q(1e-3)]])
    assert mp_oracle(diag, rank_floor=1e-2).rank_used == rank(diag, 1e-2) == 1
    assert mp_oracle(diag).rank_used == rank(diag) == 2


def test_pinv_scales_exactly_under_power_of_two_scaling():
    # pinv(2**k a) = 2**-k pinv(a): both routes prescale, so tiny and huge
    # inputs keep their rank and scale back bit for bit
    rng = SplitMix64(48)
    routes = {
        "cramer-left": lambda m, floor: mp_cramer(m, side="left", rank_floor=floor),
        "cramer-right": lambda m, floor: mp_cramer(m, side="right", rank_floor=floor),
        "oracle": lambda m, floor: mp_oracle(m, rank_floor=floor),
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


def test_projectors_are_hermitian_idempotent():
    rng = SplitMix64(46)
    for _ in range(10):
        a = planted_rank_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 1)
        for maker in (proj_p, proj_q, proj_l, proj_r):
            p = maker(a)
            assert p.is_hermitian(1e-9)
            assert_matrix_close(p @ p, p, 1e-9)


def test_projector_complements():
    a = planted_rank_matrix(SplitMix64(47), 3, 2, 1)
    n, m = a.cols, a.rows
    assert_matrix_close(proj_p(a) + proj_l(a), QMatrix.identity(n), 1e-12)
    assert_matrix_close(proj_q(a) + proj_r(a), QMatrix.identity(m), 1e-12)


def test_determinantal_projectors_match_oracle_route():
    rng = SplitMix64(48)
    for _ in range(10):
        a = planted_rank_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), 1)
        assert_matrix_close(proj_p_cramer(a), proj_p(a), 1e-9)
        assert_matrix_close(proj_q_cramer(a), proj_q(a), 1e-9)


def test_determinantal_projector_has_trace_rank():
    # denom is read off the coefficients the projector uses, so tr P = r up to rounding
    rng = SplitMix64(51)
    for _ in range(12):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(1, min(rows, cols))
        a = planted_rank_matrix(rng, rows, cols, r)
        for side in ("left", "right"):
            trace = DetPinv.of(a, side, r).projector().trace()
            assert abs(trace.w - r) <= 1e-12 * r, (rows, cols, r, side)


def test_projectors_annihilate_as_expected():
    a = planted_rank_matrix(SplitMix64(49), 4, 3, 2)
    assert (proj_r(a) @ a).fro_norm() <= 1e-9
    assert (a @ proj_l(a)).fro_norm() <= 1e-9


def test_grams_are_hermitian():
    a = random_matrix(SplitMix64(50), 3, 2)
    gl = gram_left(a)
    gr = gram_right(a)
    assert gl.shape == (2, 2) and gr.shape == (3, 3)
    assert gl.is_hermitian(0.0)
    assert gr.is_hermitian(0.0)
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
