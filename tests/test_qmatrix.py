"""Quaternion matrix container, complex embedding, and the in-repo SVD.

``numpy.linalg`` appears here only as an independent oracle for singular
values, ranks, and classical determinants; the library itself never calls it.
"""

from __future__ import annotations

import numpy as np
import pytest

import qsylv.svd as svd_module
from qsylv import (
    DimensionMismatch,
    NotConverged,
    ParseError,
    QMatrix,
    Quaternion,
    block2x2,
    complex_embed,
    complex_unembed,
    ctranspose,
    fro_norm,
    hstack,
    rank,
    vstack,
)
from qsylv.qmatrix import pow2_exponent, scale_pow2
from qsylv.sampling import SplitMix64, planted_rank_matrix, random_hermitian, random_matrix
from qsylv.svd import (
    _rounds,
    default_threshold,
    pinv_from_svd,
    rank_cutoff,
    singular_values,
    svd,
)

from conftest import assert_matrix_close, q, qm


def _np_embed(a: QMatrix) -> np.ndarray:
    """Independent complex-pair embedding used to cross-check the library's."""
    m, n = a.shape
    a1 = np.zeros((m, n), dtype=complex)
    a2 = np.zeros((m, n), dtype=complex)
    for i in range(m):
        for j in range(n):
            e = a[i, j]
            a1[i, j] = complex(e.w, e.x)
            a2[i, j] = complex(e.y, e.z)
    return np.block([[a1, a2], [-a2.conj(), a1.conj()]])


def test_construction_and_accessors():
    a = qm([[q(1), q(x=2)], [q(y=3), q(z=4)]])
    assert a.shape == (2, 2)
    assert a[0, 1] == q(x=2)
    assert a.row(1) == (q(y=3), q(z=4))
    assert a.col(0) == (q(1), q(y=3))
    assert a.entries[1][1] == q(z=4)


def test_rejects_ragged_and_empty():
    with pytest.raises(DimensionMismatch):
        QMatrix.from_rows([[q(1), q(2)], [q(3)]])
    with pytest.raises(DimensionMismatch):
        QMatrix.from_rows([])


def test_is_immutable():
    a = QMatrix.identity(2)
    with pytest.raises(AttributeError):
        a._rows = 3
    assert isinstance(a.entries, tuple)
    assert isinstance(a.entries[0], tuple)


def test_add_sub_scalar_ops():
    a = qm([[q(1), q(x=1)]])
    b = qm([[q(0, 0, 1), q(z=1)]])
    assert a + b == qm([[q(1, 0, 1), q(0, 1, 0, 1)]])
    assert a - b == qm([[q(1, 0, -1), q(0, 1, 0, -1)]])
    assert -a == qm([[q(-1), q(x=-1)]])
    assert a * 2 == qm([[q(2), q(x=2)]])
    assert 2 * a == qm([[q(2), q(x=2)]])
    assert a / 2 == qm([[q(0.5), q(x=0.5)]])


def test_scalar_sides_differ_for_quaternion_scalars():
    from qsylv import scalar_lmul, scalar_rmul

    a = qm([[q(y=1)]])  # j
    s = q(x=1)  # i
    assert scalar_lmul(s, a) == qm([[q(z=1)]])  # i*j = k
    assert scalar_rmul(a, s) == qm([[q(z=-1)]])  # j*i = -k


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        QMatrix.zeros(2, 3) @ QMatrix.zeros(2, 3)
    with pytest.raises(DimensionMismatch):
        QMatrix.zeros(2, 3) + QMatrix.zeros(3, 2)


def test_matmul_respects_factor_order():
    a = qm([[q(x=1)]])
    b = qm([[q(y=1)]])
    assert a @ b == qm([[q(z=1)]])
    assert b @ a == qm([[q(z=-1)]])


def test_matmul_associativity_seeded():
    rng = SplitMix64(11)
    for _ in range(10):
        a = random_matrix(rng, 2, 3)
        b = random_matrix(rng, 3, 2)
        c = random_matrix(rng, 2, 2)
        assert_matrix_close((a @ b) @ c, a @ (b @ c), 1e-12)


def test_ctranspose_reverses_products():
    rng = SplitMix64(12)
    for _ in range(10):
        a = random_matrix(rng, 2, 3)
        b = random_matrix(rng, 3, 4)
        assert_matrix_close(ctranspose(a @ b), ctranspose(b) @ ctranspose(a), 1e-12)
        assert ctranspose(ctranspose(a)) == a
        assert (a.H) == ctranspose(a)


def test_embedding_is_a_homomorphism():
    rng = SplitMix64(13)
    for _ in range(8):
        a = random_matrix(rng, 3, 2)
        b = random_matrix(rng, 2, 4)
        lhs = np.asarray(complex_embed(a @ b))
        rhs = np.asarray(complex_embed(a)) @ np.asarray(complex_embed(b))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        # and matches the independently coded embedding
        assert np.max(np.abs(np.asarray(complex_embed(a)) - _np_embed(a))) == 0.0


def test_unembed_inverts_embed():
    rng = SplitMix64(14)
    a = random_matrix(rng, 3, 2)
    assert complex_unembed(complex_embed(a), 3, 2) == a


def test_fro_norm_matches_definition():
    a = qm([[q(1, 1, 1, 1), q(2)]])
    assert fro_norm(a) == pytest.approx(np.sqrt(8.0))
    assert a.fro_norm() == fro_norm(a)


def test_rank_on_planted_matrices():
    rng = SplitMix64(15)
    for rows, cols in [(1, 1), (2, 3), (3, 3), (4, 2), (4, 4)]:
        for r in range(0, min(rows, cols) + 1):
            a = planted_rank_matrix(rng, rows, cols, r)
            assert rank(a) == r, (rows, cols, r)
            # oracle: embedded rank must be exactly doubled
            emb_rank = np.linalg.matrix_rank(_np_embed(a), tol=1e-10)
            assert emb_rank == 2 * r


def test_rank_floor_suppresses_noise():
    noise = qm([[q(1e-13), q(0)], [q(0), q(1e-14)]])
    assert rank(noise) == 2  # relative threshold keeps pure noise
    assert rank(noise, floor=1e-10) == 0  # absolute floor removes it


def test_singular_values_match_numpy_oracle():
    rng = SplitMix64(16)
    for rows, cols in [(1, 1), (2, 2), (3, 2), (2, 4), (4, 4)]:
        a = random_matrix(rng, rows, cols)
        ours = singular_values(np.asarray(complex_embed(a)))
        oracle = np.linalg.svd(_np_embed(a), compute_uv=False)
        assert np.max(np.abs(np.sort(ours)[::-1] - oracle)) <= 1e-10 * (1 + oracle[0])


def test_complex_pinv_matches_numpy_oracle():
    rng = SplitMix64(17)
    for rows, cols in [(2, 2), (3, 2), (2, 4)]:
        a = np.asarray(complex_embed(random_matrix(rng, rows, cols)))
        u, s, vh = svd(a)
        ours = pinv_from_svd(u, s, vh, rank_cutoff(a.shape, s))
        oracle = np.linalg.pinv(a)
        assert np.max(np.abs(ours - oracle)) <= 1e-10 * (1 + np.abs(oracle).max())


def test_svd_reports_a_sweep_limit_reached(monkeypatch):
    a = np.asarray(complex_embed(random_matrix(SplitMix64(18), 3, 3)))
    svd(a)  # converges within the default limit
    monkeypatch.setattr(svd_module, "_MAX_SWEEPS", 1)
    with pytest.raises(NotConverged):
        svd(a)


def test_svd_converges_on_rank_deficient_input():
    # zero rows and a rank deficiency leave rounding-noise columns; rotating
    # them on toward underflow once inflated the other singular values
    rng = SplitMix64(73)
    a = random_matrix(rng, 2, 2)
    c = a @ random_matrix(rng, 2, 2)
    cases = [block2x2(a, c, QMatrix.zeros(2, 2), QMatrix.zeros(2, 2))]
    cases += [planted_rank_matrix(rng, 4, 4, r) for r in (1, 2, 3)]
    for m in cases:
        ours = singular_values(np.asarray(complex_embed(m)))
        oracle = np.linalg.svd(_np_embed(m), compute_uv=False)
        assert np.max(np.abs(ours - oracle)) <= 1e-12 * oracle[0]


def test_round_robin_schedule_visits_every_pair_once_per_sweep():
    for n in range(1, 10):
        seen = []
        for p, q in _rounds(n):
            assert (p < q).all()
            assert len(set(p) | set(q)) == 2 * len(p)  # disjoint pairs in a round
            seen += zip(p.tolist(), q.tolist())
        assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def test_svd_matches_numpy_on_odd_wide_deficient_and_scaled_input():
    rng = np.random.default_rng(20)

    def draw(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    base = draw(6, 5)
    cases = [draw(7, 5), draw(9, 9), draw(4, 1), draw(1, 1), draw(3, 7), draw(6, 3) @ draw(3, 5)]
    cases += [np.ldexp(base.real, k) + 1j * np.ldexp(base.imag, k) for k in (-600, 600)]
    for a in cases:
        u, s, vh = svd(a)
        oracle = np.linalg.svd(a, compute_uv=False)
        assert np.max(np.abs(s - oracle)) <= 1e-13 * oracle[0]
        assert np.max(np.abs((u * s) @ vh - a)) <= 1e-13 * oracle[0]
        assert np.max(np.abs(vh @ vh.conj().T - np.eye(vh.shape[0]))) <= 1e-13


def test_equal_matrices_hash_alike():
    a = qm([[q(0.0, -0.0), q(1.5)], [q(z=-0.0), q(-2.0, 0.0, 0.25)]])
    b = qm([[q(-0.0, 0.0), q(1.5)], [q(), q(-2.0, 0.0, 0.25)]])
    assert a == b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    c = random_matrix(SplitMix64(21), 3, 2)
    assert ctranspose(ctranspose(c)) == c and hash(ctranspose(ctranspose(c))) == hash(c)
    assert a != ctranspose(a) and qm([[q(1), q(2)]]) != qm([[q(1)], [q(2)]])


def test_rank_is_invariant_under_power_of_two_scaling():
    rng = SplitMix64(19)
    for r in (0, 1, 2, 3):
        a = planted_rank_matrix(rng, 3, 4, r)
        for k in (-600, -300, 300, 600):
            assert rank(scale_pow2(a, k)) == r
    diag = qm([[q(2.0), q(0)], [q(0), q(1e-3)]])
    for k in (-600, -300, 300, 600):
        assert rank(scale_pow2(diag, k), floor=2.0 ** k * 1e-2) == 1
    assert rank(qm([[q(1e-200)]])) == rank(qm([[q(1e200)]])) == 1


def test_pow2_exponent_normalizes_the_largest_component():
    assert pow2_exponent(QMatrix.zeros(2, 2)) == 0
    assert pow2_exponent(qm([[q(0.5)]])) == 0
    assert pow2_exponent(qm([[q(1.0)]])) == -1
    a = qm([[q(0.1, -3.0), q(z=1e-9)]])
    assert pow2_exponent(a) == -2
    assert scale_pow2(a, -2) == qm([[q(0.025, -0.75), q(z=2.5e-10)]])


def test_default_threshold_scales_with_dimensions():
    small = default_threshold((2, 2), 1.0)
    large = default_threshold((8, 2), 1.0)
    assert large > small > 0


def test_hermitian_detection():
    rng = SplitMix64(18)
    h = random_hermitian(rng, 3)
    assert h.is_hermitian(1e-12)
    g = h + qm([[q(x=1e-3) if (i, j) == (0, 1) else q() for j in range(3)] for i in range(3)])
    assert not g.is_hermitian(1e-6)


def test_stacking_and_blocks():
    a = QMatrix.identity(2)
    b = QMatrix.zeros(2, 1)
    wide = hstack([a, b])
    assert wide.shape == (2, 3)
    assert wide[0, 0] == q(1) and wide[0, 2] == q()
    tall = vstack([a, QMatrix.zeros(1, 2)])
    assert tall.shape == (3, 2)
    blk = block2x2(a, b, QMatrix.zeros(1, 2), QMatrix.zeros(1, 1))
    assert blk.shape == (3, 3)
    assert blk[1, 1] == q(1) and blk[2, 2] == q()


def test_replace_and_submatrix():
    a = qm([[q(1), q(2)], [q(3), q(4)]])
    assert a.replace_col(1, [q(9), q(8)]) == qm([[q(1), q(9)], [q(3), q(8)]])
    assert a.replace_row(0, [q(7), q(6)]) == qm([[q(7), q(6)], [q(3), q(4)]])
    assert a.submatrix([1], [0, 1]) == qm([[q(3), q(4)]])


def test_json_round_trip():
    rng = SplitMix64(19)
    a = random_matrix(rng, 2, 3)
    assert QMatrix.from_json(a.to_json()) == a


@pytest.mark.parametrize(
    "payload",
    [
        None,
        {"rows": 2, "cols": 1},
        {"rows": 2, "cols": 1, "data": [[[1, 0, 0, 0]]]},
        {"rows": 1, "cols": 1, "data": [[[1, 0, 0]]]},
        {"rows": 0, "cols": 1, "data": []},
    ],
)
def test_from_json_rejects_malformed(payload):
    with pytest.raises(ParseError):
        QMatrix.from_json(payload)
