"""Anchored noncommutative determinants, principal minor sums, bordered sums."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

import qsylv.rcdet as rcdet_module
import rcdet_reference as ref
from qsylv import (
    DimensionTooLarge,
    InvalidSize,
    NotHermitian,
    NotSquare,
    QMatrix,
    OutOfRange,
    Quaternion,
    cdet,
    det_dim_cap,
    hdet,
    max_det_dim,
    rdet,
)
from qsylv.mpinv import gram_left, mp_cramer
from qsylv.qmatrix import complex_embed, quat_array, scale_pow2
from qsylv.rcdet import (
    bordered_cdet_sum,
    bordered_rdet_sum,
    cdet_coeffs,
    principal_minor_sum,
    rdet_coeffs,
)
from qsylv.sampling import SplitMix64, random_hermitian, random_matrix, random_quaternion

from conftest import q, qm


def _rand_square(rng: SplitMix64, n: int) -> QMatrix:
    return random_matrix(rng, n, n)


def _close(got, expected) -> bool:
    return abs(got - expected) <= 1e-12 * (1 + abs(expected))


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
        # bordered at full size: the same formulas with the border replaced
        u, v = random_quaternion(rng), random_quaternion(rng)
        assert _close(bordered_cdet_sum(m, 1, [u, v], 2), d * u - b * v)
        assert _close(bordered_cdet_sum(m, 2, [u, v], 2), a * v - c * u)
        assert _close(bordered_rdet_sum(m, 1, [u, v], 2), u * d - v * c)
        assert _close(bordered_rdet_sum(m, 2, [u, v], 2), v * a - u * b)


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


@pytest.mark.parametrize("exponent", [-300, -40, 0, 40, 300])
def test_hermitian_checks_and_values_are_scale_free(exponent):
    def scaled(m):
        return scale_pow2(m, exponent)

    for m in (qm([[q(1), q(1)], [q(), q(2)]]), qm([[q(1), q(x=1)], [q(x=1), q(2)]])):
        for fn in (hdet, lambda a: hdet(a, verify=True), lambda a: principal_minor_sum(a, 1)):
            with pytest.raises(NotHermitian):
                fn(scaled(m))
    rng = SplitMix64(36)
    for n in (1, 2, 3):
        h = random_hermitian(rng, n)
        assert hdet(scaled(h)) == math.ldexp(hdet(h), exponent * n)
        assert hdet(scaled(h), verify=True) == math.ldexp(hdet(h, verify=True), exponent * n)
        for r in range(n + 1):
            expected = math.ldexp(principal_minor_sum(h, r), exponent * r)
            assert principal_minor_sum(scaled(h), r) == expected


@pytest.mark.parametrize(
    "call, passes",
    [
        (lambda a, h: rdet(a, 2), 1),
        (lambda a, h: cdet(a, 3), 1),
        (lambda a, h: hdet(h), 1),
        (lambda a, h: hdet(h, verify=True), 2),
        (lambda a, h: principal_minor_sum(h, 2), 1),
        (lambda a, h: mp_cramer(a, "left", 3), 1),
        (lambda a, h: mp_cramer(a, "right", 3), 1),
    ],
    ids=["rdet", "cdet", "hdet", "hdet-verify", "minor-sum", "mp-cramer-left", "mp-cramer-right"],
)
def test_every_determinant_quantity_is_one_coefficient_pass(coeff_passes, call, passes):
    rng = SplitMix64(37)
    a, h = _rand_square(rng, 4), random_hermitian(rng, 4)
    call(a, h)
    assert len(coeff_passes) == passes


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
    subs = ref.enumerate_subsets(4, 2, anchor=3)
    tuples = [s.indices for s in subs]
    assert tuples == [(1, 3), (2, 3), (3, 4)]
    assert all(3 in t for t in tuples)
    full = ref.enumerate_subsets(3, 3, anchor=1)
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
        expected = cdet(ref.bordered(h, range(3), i - 1, d, "col"), i)
        got = bordered_cdet_sum(h, i, d, 3)
        assert abs(got - expected) <= 1e-12 * (1 + abs(expected))
        expected_r = rdet(ref.bordered(h, range(3), i - 1, d, "row"), i)
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


# -- the coefficient engine against the brute-force reference ----------------------


@pytest.mark.parametrize("hermitian", [False, True], ids=["random", "hermitian"])
def test_engine_matches_the_brute_force_reference(hermitian):
    rng = SplitMix64(30 + hermitian)
    for n in range(1, 6):
        h = random_hermitian(rng, n) if hermitian else _rand_square(rng, n)
        for anchor in range(1, n + 1):
            assert _close(rdet(h, anchor), ref.rdet(h, anchor))
            assert _close(cdet(h, anchor), ref.cdet(h, anchor))
        for r in range(0, n + 1):
            if hermitian:
                assert _close(principal_minor_sum(h, r), ref.principal_minor_sum(h, r))
            d = [random_quaternion(rng) for _ in range(n)]
            for anchor in range(1, n + 1):
                expected_c = ref.bordered_cdet_sum(h, anchor, d, r)
                expected_r = ref.bordered_rdet_sum(h, anchor, d, r)
                assert _close(bordered_cdet_sum(h, anchor, d, r), expected_c)
                assert _close(bordered_rdet_sum(h, anchor, d, r), expected_r)


def test_conjugate_transpose_swaps_row_and_column_determinants():
    """Kyrchei's lemma: ``rdet_i(A*) = conj(cdet_i(A))`` and, for the coefficient
    matrices, ``rdet_coeffs(h, r) = cdet_coeffs(h*, r)*``, on non-Hermitian input."""
    rng = SplitMix64(36)
    for n in range(1, 7):
        for _ in range(3):
            a = _rand_square(rng, n)
            for i in range(1, n + 1):
                expected = cdet(a, i).conjugate()
                assert abs(rdet(a.H, i) - expected) <= 1e-13 * (1 + abs(expected))
            for r in range(n + 1):
                expected = quat_array(cdet_coeffs(a.H, r).H)
                gap = np.linalg.norm(quat_array(rdet_coeffs(a, r)) - expected, axis=-1)
                assert (gap <= 1e-13 * (1 + np.linalg.norm(expected, axis=-1))).all(), (n, r)


def test_coefficient_products_give_every_bordered_sum():
    rng = SplitMix64(32)
    h = random_hermitian(rng, 4)
    cols = random_matrix(rng, 4, 3)
    rows = random_matrix(rng, 3, 4)
    for r in range(0, 5):
        by_cols = cdet_coeffs(h, r) @ cols
        by_rows = rows @ rdet_coeffs(h, r)
        for i in range(4):
            for j in range(3):
                col = [entry[j] for entry in cols.entries]
                assert _close(by_cols[i, j], ref.bordered_cdet_sum(h, i + 1, col, r))
                assert _close(by_rows[j, i], ref.bordered_rdet_sum(h, i + 1, rows.entries[j], r))


def test_principal_minor_sums_are_elementary_symmetric_eigenvalue_sums():
    # numpy.linalg as an oracle: each eigenvalue of a Hermitian H appears twice
    # in the spectrum of its complex embedding, and the r x r principal minors
    # sum to the r-th elementary symmetric polynomial of the eigenvalues
    rng = SplitMix64(33)
    for n in range(1, 7):
        h = random_hermitian(rng, n)
        eig = np.linalg.eigvalsh(np.asarray(complex_embed(h)))[::2]
        signed = np.poly(eig)
        bound = np.poly(-np.abs(eig))
        for r in range(0, n + 1):
            expected = (-1) ** r * signed[r]
            assert abs(principal_minor_sum(h, r) - expected) <= 1e-12 * (1 + bound[r])


def test_cap_bounds_the_expansion_size_not_the_matrix():
    rng = SplitMix64(34)
    h = random_hermitian(rng, 8)
    d = [random_quaternion(rng) for _ in range(8)]
    assert _close(bordered_cdet_sum(h, 3, d, 2), ref.bordered_cdet_sum(h, 3, d, 2))
    eig = np.linalg.eigvalsh(np.asarray(complex_embed(h)))[::2]
    e7 = -np.poly(eig)[7]
    assert abs(principal_minor_sum(h, 7) - e7) <= 1e-12 * (1 + np.poly(-np.abs(eig))[7])
    for fn in (cdet_coeffs, rdet_coeffs, principal_minor_sum):
        with pytest.raises(DimensionTooLarge):
            fn(h, 8)
    with det_dim_cap(3):
        with pytest.raises(DimensionTooLarge):
            cdet_coeffs(h, 4)
        with pytest.raises(DimensionTooLarge):
            bordered_rdet_sum(h, 1, d, 4)
    with pytest.raises(NotHermitian):
        principal_minor_sum(_rand_square(rng, 3), 2)
    with pytest.raises(NotSquare):
        cdet_coeffs(QMatrix.zeros(2, 3), 1)
    with pytest.raises(InvalidSize):
        rdet_coeffs(h, 9)


def test_split_passes_give_the_same_coefficients(monkeypatch):
    rng = SplitMix64(35)
    h = _rand_square(rng, 5)
    whole = [cdet_coeffs(h, 3), rdet_coeffs(h, 4), rdet(h, 2)]
    monkeypatch.setattr(rcdet_module, "_PASS_FACTORS", 7)
    assert [cdet_coeffs(h, 3), rdet_coeffs(h, 4), rdet(h, 2)] == whole


def test_a_seven_by_seven_pass_stays_within_twelve_megabytes():
    h = random_hermitian(SplitMix64(36), 7)
    whole = cdet_coeffs(h, 7)  # builds the term table, which stays cached
    tracemalloc.start()
    try:
        assert cdet_coeffs(h, 7) == whole
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


def _kappa_probe_a1(k: float, rank: int) -> QMatrix:
    """The κ-probe ``a1`` of seed 0 (``scripts/kappa_probe.py``),
    ``X diag(10^(-k i/4), i = 0..4) Y``, with the diagonal cut to its first
    ``rank`` entries."""
    rng = SplitMix64(1000)
    x, y = random_matrix(rng, 6, 5), random_matrix(rng, 5, 5)
    d = QMatrix.from_rows([[Quaternion(10.0 ** (-k * i / 4) if i == j < rank else 0.0)
                            for j in range(5)] for i in range(5)])
    return x @ d @ y


def _mp_norm(comps) -> mpmath.mpf:
    return mpmath.sqrt(sum(c * c for c in comps))


@pytest.mark.parametrize("k, ranks", [(0, [5]), (2, [5]), (4, [5]), (2, [4]), (None, range(1, 6))],
                         ids=["kappa-0", "kappa-2", "kappa-4", "kappa-2-rank-4", "random-5x5"])
def test_coefficients_are_their_60_digit_terms_rounded_once(k, ranks):
    # the Gram matrices the Cramer route expands, at subset size rank(a1),
    # whose terms cancel to far below their own size as k grows; and a
    # non-Hermitian matrix, where R is no conjugate of C, at every size
    if k is None:
        h = _rand_square(SplitMix64(41), 5)
    else:
        h = gram_left(_kappa_probe_a1(k, ranks[0]))
    for rank in ranks:
        for coeffs, flavor in ((cdet_coeffs, "col"), (rdet_coeffs, "row")):
            want = ref.coefficients_mp(h, rank, flavor)
            got = coeffs(h, rank).entries
            with mpmath.workdps(60):
                size = max(_mp_norm(entry) for row in want for entry in row)
                gap = max(_mp_norm([mpmath.mpf(g) - w for g, w in zip((e.w, e.x, e.y, e.z), entry)])
                          for got_row, row in zip(got, want) for e, entry in zip(got_row, row))
                assert gap <= 2 * np.finfo(np.float64).eps * size, (rank, flavor, float(gap / size))


def test_term_tables_are_built_on_first_use_only():
    code = (
        "import qsylv, qsylv.cli, qsylv.rcdet as r; "
        "print(r._term_table.cache_info().currsize); "
        "a = qsylv.QMatrix.from_rows([[1, 2, 0], [0, 1, 3], [4, 0, 1]]); "
        "qsylv.rdet(a, 1), qsylv.cdet(a, 1); "
        "print(r._term_table.cache_info().currsize)"
    )
    src_dir = str(Path(__file__).resolve().parent.parent / "src")
    env_path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=env_path),
        check=True,
    )
    # none at import; one per size r, shared by rdet and cdet
    assert proc.stdout.split() == ["0", "1"]


@pytest.mark.parametrize("flavor", ["col"])
def test_term_tables_match_the_reference_cycle_form(flavor):
    for r in range(1, 8):
        got = rcdet_module._term_table(r)
        expected = ref.term_table(r, flavor)
        for table, want in zip(got, expected):
            assert table.dtype == want.dtype and np.array_equal(table, want), (r, flavor)


def test_overflowing_determinants_raise_out_of_range():
    huge = qm([[q(1e200), q()], [q(), q(1e200)]])
    for fn in (lambda: rdet(huge, 1), lambda: cdet(huge, 2), lambda: hdet(huge),
               lambda: principal_minor_sum(huge, 2)):
        with pytest.raises(OutOfRange):
            fn()
    # each product stays finite here, but the sum of the two terms overflows
    big = qm([[q(1e154), q(-1e154)], [q(1e154), q(1e154)]])
    with pytest.raises(OutOfRange):
        rdet(big, 1)


def test_an_underflowing_minor_sum_raises_out_of_range():
    # rdet, cdet and hdet are covered through the CLI's det command
    with pytest.raises(OutOfRange, match="underflows"):
        principal_minor_sum(qm([[q(1e-200), q()], [q(), q(1e-200)]]), 2)
    assert principal_minor_sum(qm([[q(1e-300), q(1e-300)], [q(1e-300), q(1e-300)]]), 2) == 0.0


def test_coefficient_matrices_raise_out_of_range_instead_of_reading_0():
    # every coefficient of 1e-120 * I_4 at r = 4 is 0 or about 1e-360
    tiny, ones = QMatrix.identity(4) * 1e-120, [q(1.0)] * 4
    for fn in (lambda: cdet_coeffs(tiny, 4), lambda: rdet_coeffs(tiny, 4),
               lambda: bordered_cdet_sum(tiny, 1, ones, 4),
               lambda: bordered_rdet_sum(tiny, 1, ones, 4)):
        with pytest.raises(OutOfRange, match="coefficient underflows"):
            fn()
    with pytest.raises(OutOfRange, match="coefficient overflows"):
        cdet_coeffs(QMatrix.identity(4) * 1e120, 4)
    # in range, the off-diagonal coefficients are structurally zero and read 0
    for coeffs in (cdet_coeffs(QMatrix.identity(4) * 1e-60, 4),
                   rdet_coeffs(QMatrix.identity(4) * 1e-60, 4)):
        comps = quat_array(coeffs)
        assert np.count_nonzero(comps) == 4
        assert np.allclose(comps[range(4), range(4), 0], 1e-180, rtol=1e-14, atol=0.0)
    assert bordered_cdet_sum(tiny, 1, ones, 1) == q(1.0)
