"""Seeded generators: PRNG reference stream, planted structure, perturbations."""

from __future__ import annotations

import hashlib

import pytest

import qsylv.sampling as sampling_module
from qsylv import (
    EquationKind,
    GenSylvesterProblem,
    InvalidSize,
    check_consistency,
    fro_norm,
    is_hermitian,
    rank,
    residual,
)
from qsylv.qmatrix import quat_array
from qsylv.sampling import (
    SplitMix64,
    make_consistent_instance,
    make_inconsistent_instance,
    perturb_inconsistent,
    planted_rank_matrix,
    random_free_params,
    random_hermitian,
    random_matrix,
    random_quaternion,
)


def test_splitmix64_reference_stream():
    # first outputs of the widely published splitmix64 sequence for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_same_seed_same_stream():
    a = SplitMix64(123456789)
    b = SplitMix64(123456789)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_uniform_and_randint_ranges():
    rng = SplitMix64(7)
    for _ in range(200):
        u = rng.uniform()
        assert 0.0 <= u < 1.0
        s = rng.uniform_signed()
        assert -1.0 <= s < 1.0
        n = rng.randint(2, 5)
        assert 2 <= n <= 5
    assert rng.randint(3, 3) == 3


def test_random_quaternion_flavors():
    rng = SplitMix64(8)
    full = random_quaternion(rng)
    assert any(abs(v) > 0 for v in (full.w, full.x, full.y, full.z))
    cplx = random_quaternion(rng, complex_only=True)
    assert cplx.y == 0.0 and cplx.z == 0.0


def test_planted_rank_is_exact():
    rng = SplitMix64(9)
    for rows, cols, r in [(3, 3, 0), (3, 3, 2), (4, 2, 1), (2, 4, 2)]:
        a = planted_rank_matrix(rng, rows, cols, r)
        assert a.shape == (rows, cols)
        assert rank(a) == r


def test_random_hermitian_is_hermitian():
    rng = SplitMix64(10)
    h = random_hermitian(rng, 4)
    assert is_hermitian(h, 1e-14)


def test_consistent_instances_have_tiny_planted_residual():
    for kind in EquationKind:
        rng = SplitMix64(1100 + list(EquationKind).index(kind))
        prob, planted = make_consistent_instance(rng, kind, max_dim=3)
        assert prob.kind is kind
        assert residual(prob, planted) <= 1e-10 * (1 + fro_norm(prob.c))
        assert check_consistency(prob).consistent


def test_inconsistent_instances_are_flagged():
    for seed in range(5):
        rng = SplitMix64(1200 + seed)
        bad = make_inconsistent_instance(rng, EquationKind.GEN_SYLVESTER, max_dim=3)
        assert not check_consistency(bad).consistent


@pytest.mark.parametrize(
    "kind",
    [EquationKind.STEIN, EquationKind.LYAPUNOV_LIKE, EquationKind.LYAPUNOV_STAR],
    ids=lambda k: k.cli_name,
)
def test_unperturbable_kinds_are_refused_before_drawing(kind, monkeypatch):
    draws = []
    draw = sampling_module.make_consistent_instance
    monkeypatch.setattr(sampling_module, "make_consistent_instance",
                        lambda *args: draws.append(args) or draw(*args))
    with pytest.raises(InvalidSize, match="no inconsistent right-hand side exists"):
        make_inconsistent_instance(SplitMix64(0), kind, 3)
    assert len(draws) == 0


def test_free_params_have_constraint_compatible_blocks():
    rng = SplitMix64(13)
    prob, _ = make_consistent_instance(rng, EquationKind.LYAPUNOV_STAR, max_dim=3)
    free = random_free_params(rng, prob)
    zc = free.zc
    assert zc is not None
    assert (zc + zc.H).fro_norm() <= 1e-14  # anti-Hermitian exactly


def test_generation_is_reproducible():
    p1, s1 = make_consistent_instance(SplitMix64(99), EquationKind.STEIN, max_dim=3)
    p2, s2 = make_consistent_instance(SplitMix64(99), EquationKind.STEIN, max_dim=3)
    assert p1.c == p2.c and p1.a2 == p2.a2 and p1.b2 == p2.b2
    assert s1.x1 == s2.x1


# sha256 over the instances that test_generation_is_pinned_bit_for_bit draws:
# the consistent ones, recorded while each kind still drew its sizes in a
# hand-written branch, and the inconsistent ones, re-pinned when the Jacobi SVD
# took its second QR step (their perturbations read mp_oracle projectors, so
# they move with the SVD's rounding)
CONSISTENT_DIGEST = "265d59707d885cf4b0d512cfd0237e5a095912559dc20a2dc7aa5bb58b0c35e8"
INCONSISTENT_DIGEST = "bea42dd77206a5437b08452f44842a7d8885ece4161522b3503b4bb8d1dc591d"


def test_generation_is_pinned_bit_for_bit():
    # consistent instances of every kind and inconsistent ones of every kind
    # that has them, seeds 0-9, at two size limits
    perturbable = [k for k in EquationKind if k.is_two_term and k is not EquationKind.STEIN]
    consistent, inconsistent = hashlib.sha256(), hashlib.sha256()
    for kind in EquationKind:
        for max_dim in (3, 5):
            for seed in range(10):
                problem, planted = make_consistent_instance(SplitMix64(seed), kind, max_dim)
                mats = [(consistent, mat) for mat in (problem.a1, problem.b1, problem.a2,
                                                      problem.b2, problem.c, planted.x1, planted.x2)]
                if kind in perturbable:
                    bad = make_inconsistent_instance(SplitMix64(seed), kind, max_dim)
                    mats += [(inconsistent, mat) for mat in (bad.a1, bad.b1, bad.a2, bad.b2, bad.c)]
                for digest, mat in mats:
                    digest.update(b"-" if mat is None
                                  else repr(mat.shape).encode() + quat_array(mat).tobytes())
    assert consistent.hexdigest() == CONSISTENT_DIGEST
    assert inconsistent.hexdigest() == INCONSISTENT_DIGEST


@pytest.mark.parametrize("a_cols, decompositions", [(1, 1), (3, 2)],
                         ids=["first-accepted", "second-accepted"])
def test_perturbation_directions_are_built_one_at_a_time(a_cols, decompositions, jacobi_log):
    # [a1 a2] spans all 3 rows only when a_cols is 3; [b1; b2] never spans the
    # 3 columns, so the second direction is always accepted
    rng = SplitMix64(91)
    slots = {"a1": random_matrix(rng, 3, a_cols), "a2": random_matrix(rng, 3, a_cols),
             "b1": random_matrix(rng, 1, 3), "b2": random_matrix(rng, 1, 3)}
    prob = GenSylvesterProblem.build(EquationKind.GEN_SYLVESTER,
                                     c=random_matrix(rng, 3, 3), **slots)
    perturbed = perturb_inconsistent(SplitMix64(92), prob)
    assert jacobi_log.members == decompositions
    assert not check_consistency(perturbed).consistent
