"""Anchored noncommutative determinants, principal minor sums, bordered sums."""

from __future__ import annotations

import numpy as np
import pytest

from qsylv import (
    DimensionTooLarge,
    InvalidSize,
    NotHermitian,
    NotSquare,
    QMatrix,
    cdet,
    det_dim_cap,
    enumerate_subsets,
    hdet,
    max_det_dim,
    principal_minor_sum,
    rdet,
)
from qsylv.mpinv import gram_left
from qsylv.rcdet import bordered_cdet_sum, bordered_rdet_sum
from qsylv.sampling import SplitMix64, random_hermitian, random_matrix, random_quaternion

from conftest import q, qm


def _rand_square(rng: SplitMix64, n: int) -> QMatrix:
    return random_matrix(rng, n, n)


def test_one_by_one_determinants_are_the_entry():
    a = qm([[q(2, 3, 5, 7)]])
    assert rdet(a, 1) == q(2, 3, 5, 7)
    assert cdet(a, 1) == q(2, 3, 5, 7)


def test_two_by_two_anchored_formulas():
    rng = SplitMix64(21)
    for _ in range(20):
        a, b = random_quaternion(rng), random_quaternion(rng)
        c, d = random_quaternion(rng), random_quaternion(rng)
        m = qm([[a, b], [c, d]])
        assert rdet(m, 1) == a * d - b * c
        assert rdet(m, 2) == d * a - c * b
        assert cdet(m, 1) == d * a - b * c
        assert cdet(m, 2) == a * d - c * b


def test_real_matrices_reduce_to_classical_determinant():
    rng = SplitMix64(22)
    for n in (2, 3, 4):
        real = np.array([[rng.uniform_signed() for _ in range(n)] for _ in range(n)])
        m = qm([[q(real[i, j]) for j in range(n)] for i in range(n)])
        oracle = float(np.linalg.det(real))
        for anchor in range(1, n + 1):
            for value in (rdet(m, anchor), cdet(m, anchor)):
                assert value.w == pytest.approx(oracle, abs=1e-10, rel=1e-9)
                assert max(abs(value.x), abs(value.y), abs(value.z)) <= 1e-12


def test_complex_hermitian_matches_classical_determinant():
    rng = SplitMix64(23)
    for n in (2, 3, 4):
        base = random_matrix(rng, n, n, complex_only=True)
        h = gram_left(base)  # Hermitian with zero j,k parts
        cplx = np.array(
            [[complex(h[i, j].w, h[i, j].x) for j in range(n)] for i in range(n)]
        )
        oracle = np.linalg.det(cplx)
        assert abs(oracle.imag) <= 1e-9 * (1 + abs(oracle))
        value = hdet(h)
        assert value == pytest.approx(oracle.real, abs=1e-10 * (1 + abs(oracle)))


def test_hermitian_determinants_agree_across_all_anchors():
    rng = SplitMix64(24)
    for n in (1, 2, 3, 4):
        h = random_hermitian(rng, n)
        values = [rdet(h, i) for i in range(1, n + 1)]
        values += [cdet(h, j) for j in range(1, n + 1)]
        spread = max(abs(u - v) for u in values for v in values)
        assert spread <= 1e-10 * (1 + abs(values[0]))
        for v in values:
            assert max(abs(v.x), abs(v.y), abs(v.z)) <= 1e-10 * (1 + abs(v))


def test_hdet_verify_mode_cross_checks_every_anchor():
    rng = SplitMix64(25)
    h = random_hermitian(rng, 3)
    assert hdet(h, verify=True) == pytest.approx(hdet(h))


def test_hdet_rejects_non_hermitian():
    m = qm([[q(1), q(x=1)], [q(x=1), q(1)]])  # symmetric but not Hermitian
    with pytest.raises(NotHermitian):
        hdet(m)


def test_determinants_require_square_input():
    with pytest.raises(NotSquare):
        rdet(QMatrix.zeros(2, 3), 1)
    with pytest.raises(NotSquare):
        cdet(QMatrix.zeros(3, 2), 1)


def test_anchor_out_of_range():
    a = QMatrix.identity(2)
    with pytest.raises(InvalidSize):
        rdet(a, 0)
    with pytest.raises(InvalidSize):
        cdet(a, 3)


def test_dimension_cap_default_and_context():
    assert max_det_dim() == 7
    with pytest.raises(DimensionTooLarge):
        rdet(QMatrix.identity(8), 1)
    with det_dim_cap(3):
        assert max_det_dim() == 3
        with pytest.raises(DimensionTooLarge):
            rdet(QMatrix.identity(4), 1)
        assert rdet(QMatrix.identity(3), 1) == q(1)
    assert max_det_dim() == 7
    with pytest.raises(InvalidSize):
        with det_dim_cap(0):
            pass
    assert max_det_dim() == 7


def test_identity_and_diagonal():
    assert rdet(QMatrix.identity(4), 2) == q(1)
    d = qm([
        [q(2), q(), q()],
        [q(), q(3), q()],
        [q(), q(), q(4)],
    ])
    for anchor in (1, 2, 3):
        assert rdet(d, anchor) == q(24)
        assert cdet(d, anchor) == q(24)


def test_subset_enumeration_is_lexicographic_and_anchored():
    subs = enumerate_subsets(4, 2, anchor=3)
    tuples = [s.indices for s in subs]
    assert tuples == [(1, 3), (2, 3), (3, 4)]
    assert all(3 in t for t in tuples)
    full = enumerate_subsets(3, 3, anchor=1)
    assert [s.indices for s in full] == [(1, 2, 3)]


def test_principal_minor_sum_conventions():
    rng = SplitMix64(26)
    h = random_hermitian(rng, 3)
    assert principal_minor_sum(h, 0) == 1.0
    assert principal_minor_sum(h, 3) == pytest.approx(hdet(h))
    # r=1 is the trace
    trace = sum(h[i, i].w for i in range(3))
    assert principal_minor_sum(h, 1) == pytest.approx(trace)
    with pytest.raises(InvalidSize):
        principal_minor_sum(h, 4)


def test_bordered_sums_reduce_to_plain_determinants_at_full_rank():
    rng = SplitMix64(27)
    h = random_hermitian(rng, 3)
    d = [random_quaternion(rng) for _ in range(3)]
    for i in (1, 2, 3):
        expected = cdet(h.replace_col(i - 1, d), i)
        got = bordered_cdet_sum(h, i, d, 3)
        assert abs(got - expected) <= 1e-12 * (1 + abs(expected))
        expected_r = rdet(h.replace_row(i - 1, d), i)
        got_r = bordered_rdet_sum(h, i, d, 3)
        assert abs(got_r - expected_r) <= 1e-12 * (1 + abs(expected_r))


def test_bordered_cdet_sum_is_right_linear_in_the_vector():
    rng = SplitMix64(28)
    h = random_hermitian(rng, 3)
    d1 = [random_quaternion(rng) for _ in range(3)]
    d2 = [random_quaternion(rng) for _ in range(3)]
    s = random_quaternion(rng)
    for r in (1, 2, 3):
        combo = [u * s + v for u, v in zip(d1, d2)]
        lhs = bordered_cdet_sum(h, 2, combo, r)
        rhs = bordered_cdet_sum(h, 2, d1, r) * s + bordered_cdet_sum(h, 2, d2, r)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_bordered_rdet_sum_is_left_linear_in_the_vector():
    rng = SplitMix64(29)
    h = random_hermitian(rng, 3)
    d1 = [random_quaternion(rng) for _ in range(3)]
    d2 = [random_quaternion(rng) for _ in range(3)]
    s = random_quaternion(rng)
    for r in (1, 2, 3):
        combo = [s * u + v for u, v in zip(d1, d2)]
        lhs = bordered_rdet_sum(h, 2, combo, r)
        rhs = s * bordered_rdet_sum(h, 2, d1, r) + bordered_rdet_sum(h, 2, d2, r)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_bordered_sum_validates_inputs():
    from qsylv import DimensionMismatch

    h = QMatrix.identity(3)
    with pytest.raises(DimensionMismatch):
        bordered_cdet_sum(h, 1, [q(1)] * 2, 1)  # wrong vector length
    with pytest.raises(InvalidSize):
        bordered_cdet_sum(h, 4, [q(1)] * 3, 1)  # bad index
    with pytest.raises(InvalidSize):
        bordered_cdet_sum(h, 1, [q(1)] * 3, 4)  # r > n
