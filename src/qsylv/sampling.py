"""Deterministic sampling of quaternion matrices and equation instances.

Everything here is driven by :class:`SplitMix64`, a tiny 64-bit PRNG with a
fixed, platform-independent output sequence, so that test suites and the
``gen`` subcommand reproduce bit-identical instances for a given seed.

Instance generators plant a known solution and synthesize the right-hand
side from it, so the produced problems are consistent by construction;
:func:`perturb_inconsistent` then pushes the right-hand side out of the
solvable set along a direction that both the projector and the rank
criteria can see.
"""

from __future__ import annotations

from typing import Optional

from .errors import InvalidSize
from .mpinv import mp_oracle, mp_oracles
from .qmatrix import QMatrix, ctranspose, hstack, vstack
from .quaternion import Quaternion
from .solvers import (
    EquationKind,
    FreeParams,
    GenSylvesterProblem,
    PairSolution,
    apply_lhs,
    free_param_shapes,
)

#: Most consistent draws :func:`make_inconsistent_instance` tries to perturb.
MAX_DRAWS = 32


class SplitMix64:
    """splitmix64 sequence generator (deterministic across platforms)."""

    _MASK = (1 << 64) - 1
    _GAMMA = 0x9E3779B97F4A7C15

    def __init__(self, seed: int):
        self._state = seed & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + self._GAMMA) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform_signed(self) -> float:
        """Uniform float in [-1, 1)."""
        return 2.0 * self.uniform() - 1.0

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise InvalidSize(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        # rejection sampling keeps the draw unbiased
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            draw = self.next_u64()
            if draw < limit:
                return lo + draw % span


def random_quaternion(rng: SplitMix64, scale: float = 1.0, complex_only: bool = False) -> Quaternion:
    w = rng.uniform_signed() * scale
    x = rng.uniform_signed() * scale
    if complex_only:
        return Quaternion(w, x, 0.0, 0.0)
    y = rng.uniform_signed() * scale
    z = rng.uniform_signed() * scale
    return Quaternion(w, x, y, z)


def random_matrix(
    rng: SplitMix64,
    rows: int,
    cols: int,
    scale: float = 1.0,
    complex_only: bool = False,
) -> QMatrix:
    return QMatrix.from_rows([
        [random_quaternion(rng, scale, complex_only) for _ in range(cols)]
        for _ in range(rows)
    ])


def planted_rank_matrix(rng: SplitMix64, rows: int, cols: int, r: int) -> QMatrix:
    """A ``rows x cols`` matrix of rank exactly ``r`` (almost surely)."""
    if not 0 <= r <= min(rows, cols):
        raise InvalidSize(f"rank {r} out of range for shape ({rows}, {cols})")
    if r == 0:
        return QMatrix.zeros(rows, cols)
    return random_matrix(rng, rows, r) @ random_matrix(rng, r, cols)


def random_hermitian(rng: SplitMix64, n: int, scale: float = 1.0, complex_only: bool = False) -> QMatrix:
    b = random_matrix(rng, n, n, scale, complex_only)
    return (b + b.H) / 2.0


# -- equation instances ---------------------------------------------------------


def _coefficient(rng: SplitMix64, rows: int, cols: int) -> QMatrix:
    r = rng.randint(1, min(rows, cols))
    return planted_rank_matrix(rng, rows, cols, r)


def _make_slots(rng: SplitMix64, kind: EquationKind, max_dim: int) -> tuple[dict, int, int]:
    """Random coefficient slots for ``kind``; returns (slots, c_rows, c_cols).

    Draws the size ``m`` of ``c``'s rows first, then each new dimension letter
    of :attr:`EquationKind.slot_shapes` in slot order, then the coefficients
    in slot order.  ``lyapunov-like`` takes ``b = ctranspose(a)``.
    """
    shapes = kind.slot_shapes
    sizes = {"m": rng.randint(1, max_dim)}
    for letter in "".join(shapes.values()):
        if letter not in sizes:
            sizes[letter] = rng.randint(1, max_dim)
    slots = {}
    for name, (rows, cols) in shapes.items():
        if name == "c":
            continue
        if kind is EquationKind.LYAPUNOV_LIKE and name == "b2":
            slots[name] = ctranspose(slots["a1"])
        else:
            slots[name] = _coefficient(rng, sizes[rows], sizes[cols])
    c_rows, c_cols = shapes["c"]
    return slots, sizes[c_rows], sizes[c_cols]


def make_consistent_instance(
    rng: SplitMix64,
    kind: EquationKind,
    max_dim: int = 3,
) -> tuple[GenSylvesterProblem, PairSolution]:
    """A consistent random instance with its planted solution."""
    slots, c_rows, c_cols = _make_slots(rng, kind, max_dim)
    template = GenSylvesterProblem.build(kind, c=QMatrix.zeros(c_rows, c_cols), **slots)
    x1 = random_matrix(rng, *template.x1_shape)
    x2 = None
    if template.x2_shape is not None:
        x2 = random_matrix(rng, *template.x2_shape)
    sol = PairSolution(x1, x2)
    c = apply_lhs(template, sol)
    problem = GenSylvesterProblem.build(kind, c=c, **slots)
    return problem, sol


def perturb_inconsistent(rng: SplitMix64, problem: GenSylvesterProblem) -> GenSylvesterProblem:
    """Push the right-hand side of a two-term problem out of the solvable set.

    Tries, in order, perturbation directions that are invisible to none of
    the criteria: the complement of the column span of ``[a1 a2]``, the
    complement of the row span of ``[b1; b2]``, and the two mixed
    one-sided complements.  The accepted direction is rescaled to the size
    of the right-hand side so the violation is far above tolerance.
    """
    if not problem.kind.is_two_term:
        raise InvalidSize("inconsistent perturbations apply to two-term kinds")
    a1, b1, a2, b2, c = problem.a1, problem.b1, problem.a2, problem.b2, problem.c
    g = random_matrix(rng, c.rows, c.cols)

    def candidates():
        # built one at a time, so the pseudoinverses of a rejected direction
        # are never formed
        yield mp_oracle(hstack([a1, a2])).proj_r() @ g
        yield g @ mp_oracle(vstack([b1, b2])).proj_l()
        for a, b in ((a1, b2), (a2, b1)):
            left, right = mp_oracles([a, b])
            yield left.proj_r() @ g @ right.proj_l()

    for e in candidates():
        norm = e.fro_norm()
        if norm > 1e-8:
            scaled = e * ((1.0 + c.fro_norm()) / norm)
            return GenSylvesterProblem(
                problem.kind, problem.a1, problem.b1, problem.a2, problem.b2,
                problem.c + scaled,
            )
    raise InvalidSize(
        "coefficients span the full space; no inconsistent right-hand side exists"
    )


def make_inconsistent_instance(
    rng: SplitMix64,
    kind: EquationKind,
    max_dim: int = 3,
) -> GenSylvesterProblem:
    """A random instance guaranteed inconsistent, by perturbing a consistent one.

    Draws fresh consistent instances until one admits an inconsistent
    perturbation (a draw whose coefficients span the full space admits none),
    so the result is deterministic in ``rng`` but may consume several draws.
    A kind that no draw can perturb is refused before drawing: only two-term
    kinds are perturbed, and with an identity ``a1`` and ``b1`` (``stein``)
    every direction is in the span of the coefficients.
    """
    if not kind.is_two_term or not {"a1", "b1"} & kind.slot_shapes.keys():
        raise InvalidSize(f"kind {kind.cli_name!r} cannot be perturbed: "
                          "no inconsistent right-hand side exists among its perturbations")
    reason = None
    for _ in range(MAX_DRAWS):
        problem, _ = make_consistent_instance(rng, kind, max_dim)
        try:
            return perturb_inconsistent(rng, problem)
        except InvalidSize as exc:
            reason = exc
    raise InvalidSize(f"no perturbable instance found in {MAX_DRAWS} draws: {reason}")


def random_free_params(
    rng: SplitMix64,
    problem: GenSylvesterProblem,
    scale: float = 1.0,
) -> FreeParams:
    """Random free blocks of the right shapes; ``zc`` is made anti-Hermitian
    so its constraint holds exactly."""
    kwargs = {}
    for name, (rows, cols) in free_param_shapes(problem).items():
        mat = random_matrix(rng, rows, cols, scale)
        if name == "zc":
            mat = (mat - mat.H) / 2.0
        kwargs[name] = mat
    return FreeParams(**kwargs)
