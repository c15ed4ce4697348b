"""Quaternion matrix container, complex embedding, and the in-repo SVD.

``numpy.linalg`` appears here only as an independent oracle for singular
values, ranks, and classical determinants; the library itself never calls it.
"""

from __future__ import annotations

import importlib
import math
import pickle
import warnings
from pathlib import Path

import numpy as np
import pytest

import qsylv.svd as svd_module
from qsylv import (
    DimensionMismatch,
    EquationKind,
    GenSylvesterProblem,
    NotConverged,
    OutOfRange,
    ParseError,
    QMatrix,
    Quaternion,
    block2x2,
    check_consistency,
    complex_embed,
    complex_unembed,
    ctranspose,
    fro_norm,
    hstack,
    is_hermitian,
    rank,
    vstack,
)
from qsylv.mpinv import mp_oracles
from qsylv.qmatrix import embedded_rank, pow2_exponent, quat_array, ranks, scale_pow2
from qsylv.sampling import SplitMix64, planted_rank_matrix, random_hermitian, random_matrix
from qsylv.solvers import derive_aux
from qsylv.svd import (
    _rounds,
    default_threshold,
    pinv_from_svd,
    rank_cutoff,
    spectra,
    svd,
    svds,
)

from conftest import assert_matrix_close, jacobi_sweeps, q, qm


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
    assert a.entries == ((q(1), q(x=2)), (q(y=3), q(z=4)))


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


def test_identity_is_one_shared_read_only_matrix_per_size():
    ident = QMatrix.identity(3)
    assert QMatrix.identity(3) is ident
    assert QMatrix.identity(2) is not ident
    assert not ident._pair.flags.writeable
    with pytest.raises(ValueError):
        ident._pair[0, 0, 1] = 1.0


def test_is_identity_is_an_exact_comparison():
    for n in (1, 2, 5):
        assert QMatrix.identity(n).is_identity()
        assert QMatrix.from_rows(QMatrix.identity(n).entries).is_identity()
    # -0.0 counts as zero, as in is_zero
    assert qm([[q(1, -0.0), q(-0.0)], [q(z=-0.0), q(1)]]).is_identity()
    for other in (
        QMatrix.identity(3) * 2.0,
        QMatrix.identity(3) * (1.0 + 2.0 ** -52),
        QMatrix.identity(2) + qm([[q(), q(1e-300)], [q(), q()]]),
        qm([[q(1, x=1e-300)]]),
        qm([[q(0.0)]]),
        qm([[q(1), q(0)]]),
        QMatrix.zeros(2, 2),
        -QMatrix.identity(2),
    ):
        assert not other.is_identity()


def test_add_sub_scalar_ops():
    a = qm([[q(1), q(x=1)]])
    b = qm([[q(0, 0, 1), q(z=1)]])
    assert a + b == qm([[q(1, 0, 1), q(0, 1, 0, 1)]])
    assert a - b == qm([[q(1, 0, -1), q(0, 1, 0, -1)]])
    assert -a == qm([[q(-1), q(x=-1)]])
    assert a * 2 == qm([[q(2), q(x=2)]])
    assert 2 * a == qm([[q(2), q(x=2)]])
    assert a / 2 == qm([[q(0.5), q(x=0.5)]])


def test_real_scalars_scale_components_bit_for_bit():
    a = qm([[q(-0.0, -1.0, 0.0, -0.0), q(0.1, -0.0, 3.0, 5e-324)],
            [q(-0.0, 0.0, -0.0, 0.0), q(-7.0, 0.3, -0.0, 1e-300)]])
    want = (a / 2.0)._pair.tobytes()
    assert (a * 0.5)._pair.tobytes() == want
    assert (0.5 * a)._pair.tobytes() == want
    assert np.signbit((a * 0.5)._pair.view(np.float64)).tolist() == \
        np.signbit(a._pair.view(np.float64)).tolist()


def test_scalar_sides_differ_for_quaternion_scalars():
    from qsylv import scalar_lmul, scalar_rmul

    a = qm([[q(y=1)]])  # j
    s = q(x=1)  # i
    assert scalar_lmul(s, a) == qm([[q(z=1)]])  # i*j = k
    assert scalar_rmul(a, s) == qm([[q(z=-1)]])  # j*i = -k


@pytest.mark.parametrize("op", [
    pytest.param(lambda a: a @ a, id="matmul"),
    pytest.param(lambda a: a * 1e200, id="scalar-right"),
    pytest.param(lambda a: 1e200 * a, id="scalar-left"),
    pytest.param(lambda a: a / 1e-200, id="divide"),
    pytest.param(lambda a: a * 1e108 + a * 1e108, id="add"),
    pytest.param(lambda a: a * 1e108 - a * -1e108, id="subtract"),
])
def test_overflow_raises_out_of_range_without_a_numpy_warning(op):
    a = QMatrix.from_rows([[1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange):
            op(a)


# -- kernel pin: the array kernels against the formulas they replaced ------------


def _ref_pair_product(a1, a2, b1, b2, product):
    return np.stack(
        (product(a1, b1) - product(a2, np.conj(b2)), product(a1, b2) + product(a2, np.conj(b1)))
    )


def _ref_embed(a1, a2):
    return np.block([[a1, a2], [-a2.conj(), a1.conj()]])


def _ref_unembed(e, rows, cols):
    a1 = 0.5 * (e[:rows, :cols] + np.conj(e[rows:, cols:]))
    a2 = 0.5 * (e[:rows, cols:] - np.conj(e[rows:, :cols]))
    return np.stack((a1, a2))


def _signed_zero_matrix(rng, rows, cols):
    """A random matrix about a third of whose components are +0.0 or -0.0."""
    values = rng.standard_normal((rows, cols, 4))
    zeroed = rng.random(values.shape) < 1 / 3
    values[zeroed] = np.where(rng.random(values.shape) < 0.5, 0.0, -0.0)[zeroed]
    return QMatrix.from_array(values)


def _assert_fresh(result: QMatrix, *operands: QMatrix) -> None:
    assert not result._pair.flags.writeable
    for operand in operands:
        assert not np.shares_memory(result._pair, operand._pair)


@pytest.mark.parametrize("m, k, n", [(1, 1, 1), (2, 3, 1), (1, 4, 2), (3, 2, 5), (6, 5, 6),
                                     (6, 5, 3)])
def test_kernels_match_the_stack_and_block_formulas_bit_for_bit(m, k, n):
    from qsylv import scalar_lmul, scalar_rmul

    rng = np.random.default_rng(1000 * m + 100 * k + n)
    draws = [(_signed_zero_matrix(rng, m, k), _signed_zero_matrix(rng, k, n)) for _ in range(4)]
    draws.append((QMatrix.from_array(np.full((m, k, 4), -0.0)), _signed_zero_matrix(rng, k, n)))
    for a, b in draws:
        product = a @ b
        assert product._pair.tobytes() == _ref_pair_product(*a._pair, *b._pair, np.matmul).tobytes()
        _assert_fresh(product, a, b)
        star = ctranspose(a)
        assert star._pair.tobytes() == np.stack((a._pair[0].conj().T, -a._pair[1].T)).tobytes()
        _assert_fresh(star, a)
        e = complex_embed(a)
        assert e.tobytes() == _ref_embed(*a._pair).tobytes()
        assert not np.shares_memory(e, a._pair)
        wide = complex_embed(_signed_zero_matrix(rng, m, k)) + complex_embed(a)
        back = complex_unembed(wide, m, k)
        assert back._pair.tobytes() == _ref_unembed(wide, m, k).tobytes()
        assert not back._pair.flags.writeable and not np.shares_memory(back._pair, wide)
        for s in (Quaternion(0.5, -0.0, 2.0, -1.5), Quaternion(-0.0)):
            pair = (complex(s.w, s.x), complex(s.y, s.z))
            left, right = scalar_lmul(s, a), scalar_rmul(a, s)
            assert left._pair.tobytes() == _ref_pair_product(*pair, *a._pair, np.multiply).tobytes()
            assert right._pair.tobytes() == _ref_pair_product(*a._pair, *pair, np.multiply).tobytes()
            _assert_fresh(left, a)
            _assert_fresh(right, a)


def test_kernel_overflow_raises_out_of_range_without_a_numpy_warning():
    huge = QMatrix.from_array(np.full((6, 5, 4), 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange):
            huge @ ctranspose(huge)
        with pytest.raises(OutOfRange):
            huge * Quaternion(0.0, 1e200)
        with pytest.raises(OutOfRange):
            Quaternion(0.0, 0.0, 1e200) * huge
        with pytest.raises(OutOfRange):
            complex_unembed(np.full((12, 10), 1.5e308 + 0j), 6, 5)


def test_jacobi_identity_is_cached_read_only_and_left_intact():
    ident = svd_module._identity(4)
    assert svd_module._identity(4) is ident and not ident.flags.writeable
    plan = _rounds(4)
    kept = [flat.copy() for flat in plan]
    assert _rounds(4) is plan
    assert all(not flat.flags.writeable for flat in plan)
    rng = SplitMix64(22)
    for rows in (2, 4, 6):
        svd(np.asarray(complex_embed(random_matrix(rng, rows, 2))))
        svd(np.asarray(complex_embed(planted_rank_matrix(rng, rows, 2, 1))))
        ranks([random_matrix(rng, rows, 2), random_matrix(rng, rows, 1),
               planted_rank_matrix(rng, rows, 2, 1)])
    assert svd_module._identity(4) is ident and not ident.flags.writeable
    assert ident.tobytes() == np.eye(4, dtype=np.complex128).tobytes()
    with pytest.raises(ValueError):
        ident[0, 1] = 1.0
    assert _rounds(4) is plan
    assert [flat.tobytes() for flat in plan] == [flat.tobytes() for flat in kept]
    with pytest.raises(ValueError):
        plan[0][0, 0] = 1


def test_a_batch_pairs_every_member_on_the_rounds_of_its_padded_size(monkeypatch):
    size, seen = 4, []
    batch_rounds = svd_module._batch_rounds

    def kept(size, negligible):
        seen.append((size, negligible.copy(), batch_rounds(size, negligible)))
        return seen[-1][2]

    monkeypatch.setattr(svd_module, "_batch_rounds", kept)
    rng = np.random.default_rng(263)
    svd_module._jacobi([rng.standard_normal((5, n)) + 0j for n in (4, 1, 3, 4)], False)
    [(padded, negligible, rounds)] = seen
    assert padded == size and len(rounds) == len(_rounds(size))
    for (*flat, neg), offsets in zip(rounds, _rounds(size)):
        pairs = offsets.shape[1]
        for i in range(4):
            member = slice(i * pairs, (i + 1) * pairs)
            assert all((got[member] == want + i * size * size).all()
                       for got, want in zip(flat, offsets))
            assert (neg[member] == negligible[i]).all()


class _CountedRounds(list):
    """A batch schedule that counts the rounds a pass reads and, from read
    ``block + 1`` on, marks every pair negligible, so those rounds rotate nothing."""

    def __init__(self, rounds, block):
        super().__init__(rounds)
        self.reads, self.block = 0, block

    def __getitem__(self, i):
        self.reads += 1
        *flat, neg = super().__getitem__(i)
        return (*flat, np.full_like(neg, np.inf) if self.reads > self.block else neg)

    def __iter__(self):
        return (self[i] for i in range(len(self)))


@pytest.mark.parametrize("vectors", [False, True])
def test_a_pass_stops_one_idle_cycle_after_its_last_rotation(monkeypatch, vectors):
    rng = np.random.default_rng(268)
    mats = [rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5)) for _ in range(2)]
    if not vectors:
        # a zero member's values all meet its cutoff of 0, so its rank is
        # never certain and the values-only pass ends by the idle rule too
        mats.append(np.zeros((6, 5)))
    batch_rounds = svd_module._batch_rounds

    def run(block):
        schedules = []

        def counted(size, negligible):
            schedules.append(_CountedRounds(batch_rounds(size, negligible), block))
            return schedules[-1]

        monkeypatch.setattr(svd_module, "_batch_rounds", counted)
        out = svd_module._jacobi(mats, vectors)
        [schedule] = schedules
        return schedule.reads, len(schedule), pickle.dumps(out)

    reads, cycle, whole = run(math.inf)
    assert reads % cycle  # the pass stops inside a sweep, not at its end
    # the last cycle of rounds it reads rotates nothing ...
    assert run(reads - cycle) == (reads, cycle, whole)
    # ... and the round before it rotates
    assert run(reads - cycle - 1)[2] != whole


def test_a_padded_column_never_rotates():
    rng = np.random.default_rng(264)

    def draw(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    zero_cols = np.hstack([draw(5, 2), np.zeros((5, 2))])
    mats = [draw(5, 4), draw(3, 2), draw(5, 1), draw(2, 4), draw(6, 3), zero_cols]
    for a, (u, s, vh) in zip(mats, svd_module._jacobi(mats, True)):
        assert np.max(np.abs((u * s) @ vh - a)) <= 1e-13 * np.linalg.norm(a)
        assert np.max(np.abs(vh @ vh.conj().T - np.eye(len(vh)))) <= 1e-13
    # columns 2 and 3 of the last member are zero, as padding is: their part
    # of V is still exactly the identity
    vh = svd_module._jacobi(mats, True)[-1][2]
    assert (vh[2:] == np.eye(4)[2:]).all() and (vh[:2, 2:] == 0).all()


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
    assert mp_oracles([noise], [1e-10])[0].rank_used == 0  # absolute floor removes it


def _criteria_corpus(rng: SplitMix64) -> list[QMatrix]:
    """The stacks and blocks of the four rank criteria of one random
    gen-sylvester shape, with a rank-deficient ``a2``."""
    m, n, p, r, q_, s = (rng.randint(1, 4) for _ in range(6))
    a1, b1, b2, c = (random_matrix(rng, *shape) for shape in ((m, n), (r, s), (q_, s), (m, s)))
    a2 = planted_rank_matrix(rng, m, p, min(m, p) - 1)
    return [
        hstack([a1, a2, c]), hstack([a1, a2]), vstack([b1, b2, c]), vstack([b1, b2]),
        block2x2(a1, c, QMatrix.zeros(q_, n), b2), block2x2(a2, c, QMatrix.zeros(r, p), b1),
    ]


def _certified_brackets(mats) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per member of one values-only ``svd._jacobi`` pass over ``mats``: its
    singular values and the low and high ends of the brackets the pass
    certified them to, all descending and in the member's units.  A pass
    that ends converged rather than certain brackets each value by itself."""
    checks, certain = [], svd_module._ranks_certain

    def record(gram, negligible, cutoff_factor):
        checks.append((gram, negligible, certain(gram, negligible, cutoff_factor)))
        return checks[-1][2]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(svd_module, "_ranks_certain", record)
        values = svd_module._jacobi(mats, False)
    if not (checks and checks[-1][2]):
        return [(s, s, s) for s in values]
    low, high = svd_module._brackets(*checks[-1][:2])
    out = []
    for i, (a, s) in enumerate(zip(mats, values)):
        n, k = min(np.shape(a)), svd_module.pow2_exponent(np.asarray(a, dtype=complex))
        out.append((s, *(np.ldexp(-np.sort(-ends[i, :n]), -k) for ends in (low, high))))
    return out


def _assert_brackets_hold(mats) -> None:
    """Each value of the values-only pass over ``mats``, and each value
    ``np.linalg.svd`` gives, lies in the pass's certified bracket, widened for
    the oracle by 64 eps sigma_max (the rounding of both preconditioning QRs)."""
    for a, (s, low, high) in zip(mats, _certified_brackets(mats)):
        oracle = np.linalg.svd(a, compute_uv=False)
        slack = 64 * np.finfo(float).eps * oracle[0]
        assert (low <= s).all() and (s <= high).all()
        assert (low - slack <= oracle).all() and (oracle <= high + slack).all()


def test_batched_ranks_equal_per_matrix_ranks():
    rng = SplitMix64(31)
    deficient = 0
    for _ in range(50):
        mats = _criteria_corpus(rng)
        deficient += sum(rank(x) < min(x.shape) for x in mats)
        one = random_matrix(rng, 1, 1)
        # members 2**1200 apart in one batch: neither the prescale nor the
        # negligible-column threshold of one member reaches another
        mats += [QMatrix.zeros(3, 2), one, scale_pow2(mats[0], 600), scale_pow2(mats[4], -600),
                 scale_pow2(one, -600)]
        expected = [rank(x) for x in mats]
        assert ranks(mats) == expected
        # a batched value is good to the bracket its pass certified it to
        _assert_brackets_hold([np.asarray(complex_embed(x)) for x in mats if not x.is_zero()])
        assert expected[6:] == [0, 1, expected[0], expected[4], 1]
    assert deficient >= 40  # 46 of the 300 stacks and blocks are rank-deficient
    assert ranks([]) == [] and ranks([QMatrix.zeros(2, 2)]) == [0]


def test_a_batch_of_zero_matrices_takes_no_jacobi_pass(monkeypatch):
    def refuse(mats, vectors):
        raise AssertionError("a zero matrix took a decomposition")

    monkeypatch.setattr(svd_module, "_jacobi", refuse)
    assert ranks([QMatrix.zeros(2, 3), QMatrix.zeros(1, 1)]) == [0, 0]
    assert rank(QMatrix.zeros(4, 4)) == 0


def test_every_matrix_owns_its_array():
    m = qm([[q(1, 2, 3, -0.0), q(0.5)], [q(-0.0, 1), q(2, 0, 0, 1)]])
    made = {
        "from_rows": m,
        "from_json": QMatrix.from_json(m.to_json()),
        "from_array": QMatrix.from_array(np.arange(24.0).reshape(2, 3, 4)),
        "* 0.5": m * 0.5,
        "/ 2": m / 2,
        "scale_pow2": scale_pow2(m, 3),
    }
    for name, x in made.items():
        assert x._pair.base is None, name
    # the components, signed zeros included, are where they were
    assert QMatrix.from_array(quat_array(m)) == m
    assert np.signbit(quat_array(made["from_json"])).tolist() == np.signbit(quat_array(m)).tolist()
    assert np.signbit(quat_array(made["* 0.5"])).tolist() == np.signbit(quat_array(m)).tolist()


def test_singular_values_match_numpy_oracle():
    rng = SplitMix64(16)
    for rows, cols in [(1, 1), (2, 2), (3, 2), (2, 4), (4, 4)]:
        a = random_matrix(rng, rows, cols)
        [(_, ours, _)] = svds([np.asarray(complex_embed(a))])
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
        [(_, ours, _)] = svds([np.asarray(complex_embed(m))])
        oracle = np.linalg.svd(_np_embed(m), compute_uv=False)
        assert np.max(np.abs(ours - oracle)) <= 1e-12 * oracle[0]


@pytest.mark.parametrize("shape", [(7, 5), (5, 7)], ids=["7x5", "5x7"])
@pytest.mark.parametrize("decompose", [spectra, svds], ids=["spectra", "svds"])
def test_values_only_pass_names_its_input_shape_when_it_stops(monkeypatch, decompose, shape):
    # the values-only pass decomposes the 5x5 triangle of a 7x5 input, and
    # both passes decompose a wide input's 7x5 conjugate transpose; the
    # message and the negligible-column threshold stay the input's
    rng = np.random.default_rng(74)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    decompose([a])  # converges within the default limit
    monkeypatch.setattr(svd_module, "_MAX_SWEEPS", 1)
    with pytest.raises(NotConverged, match=rf"Jacobi SVD of a {shape[0]}x{shape[1]} matrix "
                                           r"did not converge in 1 "):
        decompose([a])


def _dense_problem(seed: int, cut: int) -> GenSylvesterProblem:
    """A consistent gen-sylvester instance of the benchmark's dense shape
    (``c`` 6x6, ``a1`` 6x5, ``a2`` 6x4), every coefficient ``cut`` ranks short."""
    rng = SplitMix64(seed)
    a1 = planted_rank_matrix(rng, 6, 5, 5 - cut)
    b1 = planted_rank_matrix(rng, 5, 6, 5 - cut)
    a2 = planted_rank_matrix(rng, 6, 4, 4 - cut)
    b2 = planted_rank_matrix(rng, 4, 6, 4 - cut)
    c = a1 @ random_matrix(rng, 5, 5) @ b1 + a2 @ random_matrix(rng, 4, 4) @ b2
    return GenSylvesterProblem.build(EquationKind.GEN_SYLVESTER, a1=a1, b1=b1, a2=a2, b2=b2, c=c)


def _batches(monkeypatch, run, vectors: bool) -> list[list[np.ndarray]]:
    """The members of every Jacobi pass ``run()`` makes that forms factors
    (``vectors``) or not, in call order; ``derive_aux`` starts and ends with
    an empty cache."""
    batches, jacobi = [], svd_module._jacobi

    def record(mats, with_vectors):
        if with_vectors == vectors:
            batches.append(list(mats))
        return jacobi(mats, with_vectors)

    with monkeypatch.context() as patch:
        patch.setattr(svd_module, "_jacobi", record)
        derive_aux.cache_clear()
        run()
    derive_aux.cache_clear()
    return batches


def _gate_batch(monkeypatch, problem: GenSylvesterProblem) -> list[np.ndarray]:
    """The embedded members of the values-only pass that decides the rank
    criteria of :func:`check_consistency`."""
    (batch,) = _batches(monkeypatch, lambda: check_consistency(problem), False)
    return batch


def test_dense_rank_batches_certify_in_five_sweeps_or_fewer(monkeypatch):
    # the columns of R2* (R1* = Q2 R2, A = Q1 R1) start nearly orthogonal,
    # and the pass stops once every rank is certain; run to convergence it
    # took 8, 7, 7, 7, 7 and 7 sweeps, and on the raw padded stacks 9 or 10
    sweeps = []
    for seed in range(6):
        batch = _gate_batch(monkeypatch, _dense_problem(seed, int(seed % 3 == 1)))
        assert [a.shape for a in batch] == [(12, 30), (12, 18), (30, 12), (18, 12),
                                            (20, 22), (22, 20)]
        sweeps.append(jacobi_sweeps(batch, False))
    assert sweeps == [4, 4, 5, 4, 4, 4]


def test_dense_factor_passes_rotate_preconditioned_triangles(monkeypatch):
    # derive_aux's factor passes, one per tall shape of each level of its
    # records, rotate R2* (R1* = Q2 R2, A = Q1 R1); on the raw stacks they
    # took 29, 30, 29, 30, 27 and 30 sweeps in all
    sweeps = []
    for seed in range(6):
        problem = _dense_problem(seed, int(seed % 3 == 1))
        groups = _batches(monkeypatch, lambda: derive_aux(problem), True)
        sweeps.append(sum(jacobi_sweeps(group, True) for group in groups))
    assert sweeps == [21, 16, 23, 20, 15, 23]


def test_values_only_ranks_match_the_factor_pass(monkeypatch, jacobi_log):
    # the gate's stacks and blocks at full rank, one rank short and with two
    # zero rows in a1, a2 and c, plus members scaled 2**1200 apart
    zero_rows = qm([[q(float(i == j and i not in (1, 4))) for j in range(6)] for i in range(6)])
    stacks = []
    for seed, cut in ((40, 0), (41, 1)):
        problem = _dense_problem(seed, cut)
        stacks += _gate_batch(monkeypatch, problem)
        slots = {name: zero_rows @ getattr(problem, name) for name in ("a1", "a2", "c")}
        stacks += _gate_batch(monkeypatch, GenSylvesterProblem.build(
            EquationKind.GEN_SYLVESTER, b1=problem.b1, b2=problem.b2, **slots))
    mats = [complex_unembed(e, e.shape[0] // 2, e.shape[1] // 2) for e in stacks]
    mats += [scale_pow2(x, k) for x, k in zip(mats[:12], (600, -600) * 6)]
    jacobi_log.batches.clear()
    got = ranks(mats)
    assert jacobi_log.passes == 1
    embedded = [np.asarray(complex_embed(x)) for x in mats]
    expected = [embedded_rank(s, rank_cutoff(e.shape, s))
                for e, (_, s, _) in zip(embedded, svds(embedded))]
    assert got == expected
    _assert_brackets_hold(embedded)
    assert sum(r < min(x.shape) for r, x in zip(got, mats)) >= 8


def test_certified_ranks_equal_converged_ranks(monkeypatch):
    # the kappa probe's gate stacks at every spread of its table (at k = 6..8
    # the rank family sits near its cutoff), and planted ranks with members
    # 2**1200 apart: every rank the values-only pass certifies is the rank a
    # factor pass reads off its converged values
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    probe = importlib.import_module("kappa_probe")
    batches = [_gate_batch(monkeypatch, probe.probe_instance(seed, k))
               for k in (0, 2, 4, 6, 7, 8) for seed in range(3)]
    rng = SplitMix64(76)
    planted = [planted_rank_matrix(rng, m, n, r)
               for m, n in ((6, 4), (5, 7), (8, 8)) for r in range(1, min(m, n) + 1)]
    planted += [scale_pow2(x, k) for x, k in zip(planted, (600, -600) * len(planted))]
    batches.append([np.asarray(complex_embed(x)) for x in planted])
    verdicts, certain = [], svd_module._ranks_certain

    def record(*args):
        verdicts.append(certain(*args))
        return verdicts[-1]

    monkeypatch.setattr(svd_module, "_ranks_certain", record)
    stopped = 0
    for batch in batches:
        verdicts.clear()
        got = [embedded_rank(s, rank_cutoff(e.shape, s)) for e, s in zip(batch, spectra(batch))]
        stopped += bool(verdicts and verdicts[-1])
        assert got == [embedded_rank(s, rank_cutoff(e.shape, s))
                       for e, (_, s, _) in zip(batch, svds(batch))]
    assert stopped == len(batches)


def _near_cutoff_member(seed: int, rel: float) -> np.ndarray:
    """The embedding of ``B diag(1, 1e-3, 1e-6, 1e-9, g, 1e-17)``, ``B`` a
    random 6x6 quaternion matrix and ``g`` tuned so that the fifth singular
    value of a factor pass is ``(1 + rel)`` times the cutoff.  The columns are
    graded, so the pass finds even that value to high relative accuracy; the
    last one leaves a negligible column in ``W``."""
    b, g = random_matrix(SplitMix64(seed), 6, 6), [1.0, 1e-3, 1e-6, 1e-9, 1e-14, 1e-17]
    for _ in range(3):
        e = np.asarray(complex_embed(b @ QMatrix.from_rows(
            [[g[i] if i == j else 0.0 for j in range(6)] for i in range(6)])))
        [(_, s, _)] = svds([e])
        g[4] *= (1 + rel) * rank_cutoff(e.shape, s) / s[8]
    return e


@pytest.mark.parametrize("rel", [1e-6, -1e-6], ids=["above", "below"])
def test_a_value_at_the_cutoff_runs_the_rank_pass_to_convergence(monkeypatch, rel):
    # the value is decided only once its bracket is 1e-6 wide, which the
    # negligible column's eta (about 6000 times that) never allows: the pass
    # takes the sweeps of a pass that ignores certainty, and reads the rank
    e = _near_cutoff_member(3, rel)
    [(_, s, _)] = svds([e])
    assert abs(s[8] / rank_cutoff(e.shape, s) - 1 - rel) <= 1e-7
    assert ranks([complex_unembed(e, 6, 6)]) == [5 if rel > 0 else 4]
    certified = jacobi_sweeps([e], False)
    monkeypatch.setattr(svd_module, "_ranks_certain", lambda *args: False)
    assert certified == jacobi_sweeps([e], False) == 6


def test_brackets_hold_the_singular_values_and_both_terms_are_sharp():
    def brackets(w, level):
        low, high = svd_module._brackets((w.conj().T @ w)[None], np.array([level]))
        return -np.sort(-low[0]), -np.sort(-high[0]), np.linalg.svd(w, compute_uv=False)

    # six unit columns at pairwise cosine c: Gram I + c (J - I), whose top
    # eigenvalue 1 + 5c meets the bound (k - 1) max|cos| on the 2-norm of E
    c = 1e-3
    low, high, sigma = brackets(
        np.linalg.cholesky((1 - c) * np.eye(6, dtype=complex) + c).conj().T, 0.0)
    assert (low <= sigma).all() and (sigma <= high).all()
    assert high[0] - sigma[0] <= 1e-14
    # a column of norm 0.1 under the negligible level, parallel to a unit
    # one: it stands for the value 0, which its eta of 0.1 just reaches
    low, high, sigma = brackets(np.array([[1.0, 0.1], [0.0, 0.0]], dtype=complex), 0.02)
    assert (low <= sigma).all() and (sigma <= high).all()
    assert sigma[1] - low[1] <= 1e-15


def test_round_robin_schedule_visits_every_pair_once_per_sweep():
    for n in range(1, 10):
        seen = []
        for pp, qp, pq, qq in _rounds(n):
            p, q = divmod(pq, n)
            assert (pp == p * (n + 1)).all() and (qq == q * (n + 1)).all()
            assert (qp == q * n + p).all() and (p < q).all()
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


def _svd_batch_corpus():
    """Members of one svds call: the first nine share the tall shape 6x4."""
    rng = np.random.default_rng(23)

    def draw(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    base, zero_rows = draw(6, 4), draw(6, 4)
    zero_rows[[1, 4]] = 0.0
    # a diagonal quaternion matrix embeds to orthogonal columns, with -0.0
    # entries, so it converges in its first sweep while the others rotate on
    diag = np.asarray(complex_embed(qm([[q(2, 1, 0, 1), q()], [q(), q(0, 3, 1, 0)], [q(), q()]])))
    quat = np.asarray(complex_embed(planted_rank_matrix(SplitMix64(23), 3, 2, 1)))
    tall = [base, draw(4, 6), zero_rows, draw(6, 2) @ draw(2, 4), diag, quat,
            np.ldexp(base.real, 600) + 1j * np.ldexp(base.imag, 600),
            np.ldexp(base.real, -600) + 1j * np.ldexp(base.imag, -600), np.ascontiguousarray(diag.T)]
    return tall + [draw(1, 1), np.zeros((1, 1), dtype=complex), draw(1, 1) * 2.0 ** -600]


def test_svds_gives_each_member_the_bytes_of_its_lone_svd(jacobi_log):
    mats = _svd_batch_corpus()
    batch = svds(mats)
    # one pass per tall shape, none padded
    assert jacobi_log.batches == [[a.shape for a in mats[:9]], [(1, 1)] * 3]
    for a, factors in zip(mats, batch):
        for got, alone in zip(factors, svd(a)):
            assert got.shape == alone.shape
            assert got.tobytes() == alone.tobytes()  # signed zeros included
    assert svds([]) == [] and jacobi_log.passes == 2 + len(mats)


def test_svds_raises_when_a_member_passes_the_sweep_limit(monkeypatch):
    corpus = _svd_batch_corpus()
    base, diag = corpus[0], corpus[4]
    monkeypatch.setattr(svd_module, "_MAX_SWEEPS", 1)
    ones = svds([diag, diag.conj().T])  # orthogonal columns converge in one sweep
    assert [s.tolist() for _, s, _ in ones] == [svd(diag)[1].tolist()] * 2
    with pytest.raises(NotConverged, match="2 matrices"):
        svds([diag, base])


def test_ranks_read_an_identity_off_its_size(monkeypatch, jacobi_log):
    mats = [QMatrix.identity(3), QMatrix.from_rows(QMatrix.identity(2).entries),
            QMatrix.zeros(2, 2), qm([[q(1), q(-0.0)], [q(z=-0.0), q(1)]])]
    assert ranks(mats) == [3, 2, 0, 2] and rank(QMatrix.identity(5)) == 5
    assert jacobi_log.passes == 0
    with monkeypatch.context() as patch:
        patch.setattr(QMatrix, "is_identity", lambda self: False)
        assert ranks(mats) == [3, 2, 0, 2] and rank(QMatrix.identity(5)) == 5
    assert jacobi_log.passes == 2


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
        assert mp_oracles([scale_pow2(diag, k)], [2.0 ** k * 1e-2])[0].rank_used == 1
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
    assert is_hermitian(h, 1e-12)
    g = h + qm([[q(x=1e-3) if (i, j) == (0, 1) else q() for j in range(3)] for i in range(3)])
    assert not is_hermitian(g, 1e-6)


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
