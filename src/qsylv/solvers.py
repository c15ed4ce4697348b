"""Solvers for two-sided pairs of quaternion matrix equations.

The flagship equation is ``a1 @ x1 @ b1 + a2 @ x2 @ b2 = c`` over the
quaternions.  Eight special cases (captured by :class:`EquationKind`) arise by
fixing some coefficients to identities; two more variants couple ``x`` with its
conjugate transpose (``a @ x + ctranspose(x) @ b = c`` and
``a @ x + ctranspose(x) @ ctranspose(a) = rhs``).

Every kind is solved by two independent routes:

- :func:`solve_direct` multiplies Moore-Penrose pseudoinverses (computed via
  the complex embedding) into closed-form expressions;
- :func:`solve_cramer` evaluates the same expressions through noncommutative
  bordered minor sums, all entries of one factor at once as a product with a
  coefficient matrix of a Gram matrix; it never forms a pseudoinverse on its
  main path (orthogonal projector factors are evaluated determinantally too).

Both return the same canonical particular solution, so agreement between them
cross-verifies each.  :func:`solve_general` adds the homogeneous family driven
by free parameter blocks.  :func:`check_consistency` evaluates projector-based
solvability criteria alongside independent rank-based criteria and flags any
disagreement between the two families.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

from .errors import (
    ConstraintViolated,
    DimensionMismatch,
    Inconsistent,
    InvalidSize,
)
from .mpinv import DetPinv, mp_oracle, proj_p_cramer, proj_q_cramer
from .qmatrix import (
    QMatrix,
    block2x2,
    ctranspose,
    hstack,
    rank,
    vstack,
)

DEFAULT_TOL = 1e-8

# Derived matrices (m, n, s below) are built from projector products, so a
# matrix that is exactly zero in exact arithmetic arrives as pure rounding
# noise around machine epsilon.  A relative singular-value threshold cannot
# detect that (the noise is its own largest singular value), so their rank
# decisions use an absolute floor scaled to the originating coefficient.
DERIVED_RANK_FLOOR = 1e-10


class EquationKind(Enum):
    """The supported equation shapes, named by their command-line spelling."""

    GEN_SYLVESTER = "gen-sylvester"          # a1 x1 b1 + a2 x2 b2 = c
    ONE_LEFT = "one-left"                    # a1 x1      + a2 x2 b2 = c
    ONE_RIGHT = "one-right"                  #    x1 b1   + a2 x2 b2 = c
    STEIN = "stein"                          #    x1      + a2 x2 b2 = c
    SYLVESTER = "sylvester"                  # a1 x1      +    x2 b2 = c
    SYLVESTER_MIRROR = "sylvester-mirror"    #    x1 b1   + a2 x2    = c
    TWO_LEFT = "two-left"                    # a1 x1      + a2 x2    = c
    TWO_RIGHT = "two-right"                  #    x1 b1   +    x2 b2 = c
    LYAPUNOV_LIKE = "lyapunov-like"          # a x + ctranspose(x) b = c
    LYAPUNOV_STAR = "lyapunov-star"          # a x + ctranspose(x) ctranspose(a) = rhs

    @property
    def cli_name(self) -> str:
        return self.value

    @classmethod
    def from_cli_name(cls, name: str) -> "EquationKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise InvalidSize(f"unknown equation kind {name!r}")

    @property
    def required_slots(self) -> tuple[str, ...]:
        return _REQUIRED_SLOTS[self]

    @property
    def is_two_term(self) -> bool:
        return self not in (EquationKind.LYAPUNOV_LIKE, EquationKind.LYAPUNOV_STAR)


_REQUIRED_SLOTS = {
    EquationKind.GEN_SYLVESTER: ("a1", "b1", "a2", "b2", "c"),
    EquationKind.ONE_LEFT: ("a1", "a2", "b2", "c"),
    EquationKind.ONE_RIGHT: ("b1", "a2", "b2", "c"),
    EquationKind.STEIN: ("a2", "b2", "c"),
    EquationKind.SYLVESTER: ("a1", "b2", "c"),
    EquationKind.SYLVESTER_MIRROR: ("b1", "a2", "c"),
    EquationKind.TWO_LEFT: ("a1", "a2", "c"),
    EquationKind.TWO_RIGHT: ("b1", "b2", "c"),
    EquationKind.LYAPUNOV_LIKE: ("a1", "b2", "c"),
    EquationKind.LYAPUNOV_STAR: ("a1", "c"),
}


@dataclass(frozen=True, slots=True)
class GenSylvesterProblem:
    """A fully validated equation instance.

    For the two-term kinds all four coefficient slots are populated
    (identity-filled where the kind omits them); the conjugate-transpose kinds
    keep unused slots as ``None``.  Use :meth:`build` rather than the raw
    constructor so dimensions are checked and identities are filled in.
    """

    kind: EquationKind
    a1: Optional[QMatrix]
    b1: Optional[QMatrix]
    a2: Optional[QMatrix]
    b2: Optional[QMatrix]
    c: QMatrix

    @classmethod
    def build(
        cls,
        kind: EquationKind,
        *,
        a1: Optional[QMatrix] = None,
        b1: Optional[QMatrix] = None,
        a2: Optional[QMatrix] = None,
        b2: Optional[QMatrix] = None,
        c: QMatrix,
    ) -> "GenSylvesterProblem":
        given = {"a1": a1, "b1": b1, "a2": a2, "b2": b2}
        for name in kind.required_slots:
            if name != "c" and given[name] is None:
                raise DimensionMismatch(f"kind {kind.cli_name!r} requires matrix {name!r}")
        for name, value in given.items():
            if value is not None and name not in kind.required_slots:
                raise DimensionMismatch(f"kind {kind.cli_name!r} does not take matrix {name!r}")
        m, s = c.rows, c.cols

        if kind is EquationKind.LYAPUNOV_STAR:
            if m != s:
                raise DimensionMismatch(f"right-hand side must be square, got {c.shape}")
            if a1.rows != m:
                raise DimensionMismatch(f"a has {a1.rows} rows, expected {m}")
            return cls(kind, a1, None, None, None, c)

        if kind is EquationKind.LYAPUNOV_LIKE:
            if m != s:
                raise DimensionMismatch(f"right-hand side must be square, got {c.shape}")
            if a1.rows != m:
                raise DimensionMismatch(f"a has {a1.rows} rows, expected {m}")
            if b2.cols != m:
                raise DimensionMismatch(f"b has {b2.cols} columns, expected {m}")
            if b2.rows != a1.cols:
                raise DimensionMismatch(
                    f"a is {a1.shape} and b is {b2.shape}: inner sizes must match"
                )
            return cls(kind, a1, None, None, b2, c)

        a1e = a1 if a1 is not None else QMatrix.identity(m)
        a2e = a2 if a2 is not None else QMatrix.identity(m)
        b1e = b1 if b1 is not None else QMatrix.identity(s)
        b2e = b2 if b2 is not None else QMatrix.identity(s)
        if a1e.rows != m:
            raise DimensionMismatch(f"a1 has {a1e.rows} rows, expected {m}")
        if a2e.rows != m:
            raise DimensionMismatch(f"a2 has {a2e.rows} rows, expected {m}")
        if b1e.cols != s:
            raise DimensionMismatch(f"b1 has {b1e.cols} columns, expected {s}")
        if b2e.cols != s:
            raise DimensionMismatch(f"b2 has {b2e.cols} columns, expected {s}")
        return cls(kind, a1e, b1e, a2e, b2e, c)

    @property
    def x1_shape(self) -> tuple[int, int]:
        if self.kind.is_two_term:
            return (self.a1.cols, self.b1.rows)
        return (self.a1.cols, self.c.cols)

    @property
    def x2_shape(self) -> Optional[tuple[int, int]]:
        if self.kind.is_two_term:
            return (self.a2.cols, self.b2.rows)
        return None


@dataclass(frozen=True, slots=True)
class FreeParams:
    """Free parameter blocks for :func:`solve_general`.

    ``u``/``z`` perturb ``x1``, ``v``/``w`` perturb ``x2`` (two-term kinds);
    ``y``/``zc`` drive the conjugate-transpose kinds, where ``zc`` must
    satisfy ``a @ (zc + ctranspose(zc)) @ ctranspose(a) = 0``.
    """

    u: Optional[QMatrix] = None
    v: Optional[QMatrix] = None
    z: Optional[QMatrix] = None
    w: Optional[QMatrix] = None
    y: Optional[QMatrix] = None
    zc: Optional[QMatrix] = None


@dataclass(frozen=True, slots=True)
class PairSolution:
    """The solution pair; ``x2`` is ``None`` for single-unknown kinds."""

    x1: QMatrix
    x2: Optional[QMatrix] = None


@dataclass(frozen=True, slots=True)
class CheckResult:
    name: str
    passed: bool
    residual: float


@dataclass(frozen=True, slots=True)
class SolveReport:
    """Outcome summary: verdict, per-criterion results, and provenance."""

    consistent: bool
    checks: tuple[CheckResult, ...]
    residual_norm: float
    method: str
    provenance: tuple[tuple[str, str], ...] = ()

    def check(self, name: str) -> CheckResult:
        for entry in self.checks:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return {
            "consistent": self.consistent,
            "checks": [
                {"name": c.name, "passed": c.passed, "residual": c.residual}
                for c in self.checks
            ],
            "residual_norm": self.residual_norm,
            "method": self.method,
            "provenance": {key: value for key, value in self.provenance},
        }


@dataclass(frozen=True, slots=True)
class AuxData:
    """Pseudoinverse-route data of the two-term kinds, and the shared ranks.

    ``m = (i - a1 pinv(a1)) a2``, ``n = b2 (i - pinv(b1) b1)`` and
    ``s = a2 (i - pinv(m) m)``.  Each rank is read off the same SVD as the
    matching pseudoinverse and is the only thing the determinantal route
    takes from here, so both routes agree on every rank decision.  That
    route rebuilds ``m``, ``n`` and ``s`` from determinantal projectors
    itself, so building this data evaluates no determinant.
    """

    r_a1: int
    r_b1: int
    r_a2: int
    r_b2: int
    r_m: int
    r_n: int
    r_s: int
    a1_pinv: QMatrix
    b1_pinv: QMatrix
    a2_pinv: QMatrix
    b2_pinv: QMatrix
    m_mat: QMatrix
    n_mat: QMatrix
    s_mat: QMatrix
    m_pinv: QMatrix
    n_pinv: QMatrix
    s_pinv: QMatrix

    @property
    def ranks(self) -> tuple[int, int, int, int, int, int, int]:
        return (self.r_a1, self.r_b1, self.r_a2, self.r_b2, self.r_m, self.r_n, self.r_s)


@lru_cache(maxsize=16)
def derive_aux(problem: GenSylvesterProblem) -> AuxData:
    """Derived matrices, pseudoinverses and shared ranks for two-term kinds.

    Cached so that the gate, both routes and the general solution of one
    problem share one derivation.  An entry holds a few dozen kilobytes of
    matrices for a 6x6 problem, so the cache keeps only the last 16 problems.
    """
    if not problem.kind.is_two_term:
        raise InvalidSize("derive_aux applies to the two-term equation kinds")
    a1, b1, a2, b2 = problem.a1, problem.b1, problem.a2, problem.b2
    a1_mp, b1_mp, a2_mp, b2_mp = mp_oracle(a1), mp_oracle(b1), mp_oracle(a2), mp_oracle(b2)
    floor_a = DERIVED_RANK_FLOOR * (1.0 + a2.fro_norm())
    floor_b = DERIVED_RANK_FLOOR * (1.0 + b2.fro_norm())
    m_mat = (QMatrix.identity(a1.rows) - a1 @ a1_mp.pinv) @ a2
    n_mat = b2 @ (QMatrix.identity(b1.cols) - b1_mp.pinv @ b1)
    m_mp = mp_oracle(m_mat, rank_floor=floor_a)
    n_mp = mp_oracle(n_mat, rank_floor=floor_b)
    s_mat = a2 @ (QMatrix.identity(a2.cols) - m_mp.pinv @ m_mat)
    s_mp = mp_oracle(s_mat, rank_floor=floor_a)
    return AuxData(
        r_a1=a1_mp.rank_used, r_b1=b1_mp.rank_used, r_a2=a2_mp.rank_used,
        r_b2=b2_mp.rank_used, r_m=m_mp.rank_used, r_n=n_mp.rank_used, r_s=s_mp.rank_used,
        a1_pinv=a1_mp.pinv, b1_pinv=b1_mp.pinv, a2_pinv=a2_mp.pinv, b2_pinv=b2_mp.pinv,
        m_mat=m_mat, n_mat=n_mat, s_mat=s_mat,
        m_pinv=m_mp.pinv, n_pinv=n_mp.pinv, s_pinv=s_mp.pinv,
    )


# -- residuals -----------------------------------------------------------------


def apply_lhs(problem: GenSylvesterProblem, sol: PairSolution) -> QMatrix:
    """Evaluate the left-hand side of the equation at a candidate solution."""
    if problem.kind.is_two_term:
        if sol.x2 is None:
            raise DimensionMismatch("two-term kinds need both x1 and x2")
        return problem.a1 @ sol.x1 @ problem.b1 + problem.a2 @ sol.x2 @ problem.b2
    if problem.kind is EquationKind.LYAPUNOV_LIKE:
        return problem.a1 @ sol.x1 + ctranspose(sol.x1) @ problem.b2
    return problem.a1 @ sol.x1 + ctranspose(sol.x1) @ ctranspose(problem.a1)


def residual(problem: GenSylvesterProblem, sol: PairSolution) -> float:
    """Frobenius norm of ``lhs(sol) - c``."""
    return (apply_lhs(problem, sol) - problem.c).fro_norm()


# -- consistency ---------------------------------------------------------------


def check_consistency(problem: GenSylvesterProblem, tol: float = DEFAULT_TOL) -> SolveReport:
    """Evaluate solvability criteria.

    Every two-term kind, the identity-filled ones included, gets four
    projector criteria and four independent rank criteria; the verdict is
    driven by the projector family, and a ``criteria_agree`` entry records
    whether the two families concur.  The conjugate-transpose kinds check
    their own compatibility conditions.  Only pseudoinverse-route data is
    used, so no determinant is evaluated and the determinant cap never
    applies here.
    """
    tol_c = tol * (1.0 + problem.c.fro_norm())
    checks: list[CheckResult] = []

    if problem.kind.is_two_term:
        aux = derive_aux(problem)
        a1, b1, a2, b2, c = problem.a1, problem.b1, problem.a2, problem.b2, problem.c
        m_rows, s_cols = c.rows, c.cols
        ident_m = QMatrix.identity(m_rows)
        ident_s = QMatrix.identity(s_cols)
        r_a1_proj = ident_m - a1 @ aux.a1_pinv
        r_a2_proj = ident_m - a2 @ aux.a2_pinv
        r_m_proj = ident_m - aux.m_mat @ aux.m_pinv
        l_b1_proj = ident_s - aux.b1_pinv @ b1
        l_b2_proj = ident_s - aux.b2_pinv @ b2
        l_n_proj = ident_s - aux.n_pinv @ aux.n_mat

        projector_residuals = (
            ("r_m_r_a1_c", (r_m_proj @ r_a1_proj @ c).fro_norm()),
            ("r_a1_c_l_b2", (r_a1_proj @ c @ l_b2_proj).fro_norm()),
            ("c_l_b1_l_n", (c @ l_b1_proj @ l_n_proj).fro_norm()),
            ("r_a2_c_l_b1", (r_a2_proj @ c @ l_b1_proj).fro_norm()),
        )
        for name, res in projector_residuals:
            checks.append(CheckResult(name, res <= tol_c, res))
        consistent = all(res <= tol_c for _, res in projector_residuals)

        rank_pairs = (
            ("rank_cols", rank(hstack([a1, a2, c])), rank(hstack([a1, a2]))),
            ("rank_rows", rank(vstack([b1, b2, c])), rank(vstack([b1, b2]))),
            (
                "rank_block_a1_b2",
                rank(block2x2(a1, c, QMatrix.zeros(b2.rows, a1.cols), b2)),
                aux.r_a1 + aux.r_b2,
            ),
            (
                "rank_block_a2_b1",
                rank(block2x2(a2, c, QMatrix.zeros(b1.rows, a2.cols), b1)),
                aux.r_a2 + aux.r_b1,
            ),
        )
        ranks_ok = True
        for name, lhs, rhs in rank_pairs:
            ok = lhs == rhs
            ranks_ok = ranks_ok and ok
            checks.append(CheckResult(name, ok, float(abs(lhs - rhs))))
        checks.append(CheckResult("criteria_agree", consistent == ranks_ok,
                                  0.0 if consistent == ranks_ok else 1.0))
        residual_norm = max(res for _, res in projector_residuals)
        return SolveReport(consistent, tuple(checks), residual_norm, "check")

    if problem.kind is EquationKind.LYAPUNOV_LIKE:
        sol = PairSolution(_direct_lyap_like(problem))
        res0 = residual(problem, sol)
        checks.append(CheckResult("partial_solves", res0 <= tol_c, res0))
        a, b = problem.a1, problem.b2
        r_a_proj = QMatrix.identity(a.rows) - a @ mp_oracle(a).pinv
        l_b_proj = QMatrix.identity(b.cols) - mp_oracle(b).pinv @ b
        res_range = (r_a_proj @ problem.c @ l_b_proj).fro_norm()
        checks.append(CheckResult("r_a_c_l_b_info", res_range <= tol_c, res_range))
        return SolveReport(res0 <= tol_c, tuple(checks), res0, "check")

    # conjugate-transpose kind with coefficient pair (a, ctranspose(a))
    a, rhs = problem.a1, problem.c
    herm_res = (rhs - rhs.H).fro_norm()
    herm_ok = herm_res <= tol_c
    checks.append(CheckResult("rhs_hermitian", herm_ok, herm_res))
    r_a_proj = QMatrix.identity(a.rows) - a @ mp_oracle(a).pinv
    outer_res = (r_a_proj @ rhs @ r_a_proj).fro_norm()
    outer_ok = outer_res <= tol_c
    checks.append(CheckResult("r_a_rhs_r_a", outer_ok, outer_res))
    consistent = herm_ok and outer_ok
    return SolveReport(consistent, tuple(checks), max(herm_res, outer_res), "check")


# -- direct (pseudoinverse-product) route ---------------------------------------


def _direct_two_term(problem: GenSylvesterProblem, aux: AuxData) -> tuple[QMatrix, QMatrix]:
    a2, b2, c = problem.a2, problem.b2, problem.c
    a1p, b1p = aux.a1_pinv, aux.b1_pinv
    a2p, b2p = aux.a2_pinv, aux.b2_pinv
    mp_, np_, sp_ = aux.m_pinv, aux.n_pinv, aux.s_pinv
    p_s = sp_ @ aux.s_mat
    x1 = (
        a1p @ c @ b1p
        - a1p @ a2 @ mp_ @ c @ b1p
        - a1p @ aux.s_mat @ a2p @ c @ np_ @ b2 @ b1p
    )
    x2 = mp_ @ c @ b2p + p_s @ a2p @ c @ np_
    return x1, x2


def _direct_lyap_like(problem: GenSylvesterProblem) -> QMatrix:
    a, b, c = problem.a1, problem.b2, problem.c
    a_pinv = mp_oracle(a).pinv
    b_pinv = mp_oracle(b).pinv
    p_b = b_pinv @ b
    half = QMatrix.identity(a.rows) - p_b * 0.5
    return a_pinv @ c @ half


def _direct_lyap_star(problem: GenSylvesterProblem) -> QMatrix:
    a, rhs = problem.a1, problem.c
    a_pinv = mp_oracle(a).pinv
    q_a = a @ a_pinv
    half = QMatrix.identity(a.rows) - q_a * 0.5
    return a_pinv @ rhs @ half


_DIRECT_PROVENANCE_TWO_TERM = (
    ("x1", "pinv(a1) c pinv(b1) - pinv(a1) a2 pinv(m) c pinv(b1)"
           " - pinv(a1) s pinv(a2) c pinv(n) b2 pinv(b1)"),
    ("x2", "pinv(m) c pinv(b2) + proj_p(s) pinv(a2) c pinv(n)"),
    ("m", "(i - a1 pinv(a1)) a2"),
    ("n", "b2 (i - pinv(b1) b1)"),
    ("s", "a2 (i - pinv(m) m)"),
)


def _partial_direct(problem: GenSylvesterProblem) -> tuple[PairSolution, tuple[tuple[str, str], ...]]:
    if problem.kind.is_two_term:
        aux = derive_aux(problem)
        x1, x2 = _direct_two_term(problem, aux)
        return PairSolution(x1, x2), _DIRECT_PROVENANCE_TWO_TERM
    if problem.kind is EquationKind.LYAPUNOV_LIKE:
        x = _direct_lyap_like(problem)
        return PairSolution(x), (("x1", "pinv(a) c (i - proj_p(b)/2)"),)
    x = _direct_lyap_star(problem)
    return PairSolution(x), (("x1", "pinv(a) rhs (i - proj_q(a)/2)"),)


# -- Cramer (determinantal) route ------------------------------------------------


def _axb(left: DetPinv, c: QMatrix, right: DetPinv, form: str) -> QMatrix:
    """``pinv(a) @ c @ pinv(b)`` from the factored inverses of ``a`` and ``b``."""
    if form == "column":
        return left.apply(right.apply(c))
    return right.apply(left.apply(c))


def cramer_axb(
    a: QMatrix,
    c: QMatrix,
    b: QMatrix,
    form: str = "column",
    ra: Optional[int] = None,
    rb: Optional[int] = None,
) -> QMatrix:
    """Determinantal evaluation of ``pinv(a) @ c @ pinv(b)``.

    With ``C = cdet_coeffs(a* a, ra)`` and ``R = rdet_coeffs(b b*, rb)``,
    ``form="column"`` resolves the right factor first (``C @ (a* @ ((c @
    b*) @ R))``: bordered row sums over the Gram matrix of ``b``, then
    bordered column sums over that of ``a``) and ``form="row"`` the left one
    (``((C @ (a* @ c)) @ b*) @ R``).  Each factor is divided by its
    principal-minor sum; both forms produce the same value.
    """
    if a.rows != c.rows:
        raise DimensionMismatch(f"a has {a.rows} rows but c has {c.rows}")
    if b.cols != c.cols:
        raise DimensionMismatch(f"b has {b.cols} columns but c has {c.cols}")
    if form not in ("column", "row"):
        raise InvalidSize(f"form must be 'column' or 'row', got {form!r}")
    return _axb(DetPinv.of(a, "left", ra), c, DetPinv.of(b, "right", rb), form)


def cramer_ax(a: QMatrix, c: QMatrix, ra: Optional[int] = None) -> QMatrix:
    """Determinantal evaluation of ``pinv(a) @ c``: ``C @ (a* c) / denom``
    with ``C = cdet_coeffs(a* a, ra)``."""
    if a.rows != c.rows:
        raise DimensionMismatch(f"a has {a.rows} rows but c has {c.rows}")
    return DetPinv.of(a, "left", ra).apply(c)


def _cramer_two_term(problem: GenSylvesterProblem, aux: AuxData, form: str) -> tuple[QMatrix, QMatrix]:
    a1, b1, a2, b2, c = problem.a1, problem.b1, problem.a2, problem.b2, problem.c
    r1, rb1, r3, r4, r5, r6, r7 = aux.ranks
    # each (matrix, side, rank) factor is built once and shared by its products
    a1_left, a1_right = DetPinv.of(a1, "left", r1), DetPinv.of(a1, "right", r1)
    b1_left, b1_right = DetPinv.of(b1, "left", rb1), DetPinv.of(b1, "right", rb1)

    m_det = (QMatrix.identity(a1.rows) - a1_right.projector()) @ a2
    n_det = b2 @ (QMatrix.identity(b1.cols) - b1_left.projector())
    m_left = DetPinv.of(m_det, "left", r5)
    s_det = a2 @ (QMatrix.identity(a2.cols) - m_left.projector())

    x11 = _axb(a1_left, c, b1_right, form)

    inner12 = _axb(m_left, c, b1_right, form)
    x12 = a1_left.apply(a2 @ inner12)

    eta = _axb(DetPinv.of(a2, "left", r3), c, DetPinv.of(n_det, "right", r6), form)
    x13 = _axb(a1_left, s_det @ eta @ b2, b1_right, form)

    x1 = x11 - x12 - x13

    x21 = _axb(m_left, c, DetPinv.of(b2, "right", r4), form)
    x22 = DetPinv.of(s_det, "left", r7).projector() @ eta
    x2 = x21 + x22
    return x1, x2


_CRAMER_PROVENANCE_TWO_TERM = (
    ("x1", "axb(a1, c, b1) - ax(a1, a2 axb(m, c, b1))"
           " - axb(a1, s axb(a2, c, n) b2, b1)"),
    ("x2", "axb(m, c, b2) + proj_p(s) axb(a2, c, n)"),
    ("m", "(i - proj_q(a1)) a2"),
    ("n", "b2 (i - proj_p(b1))"),
    ("s", "a2 (i - proj_p(m))"),
    ("route", "bordered minor sums; projectors evaluated determinantally"),
)


def _partial_cramer(problem: GenSylvesterProblem, form: str) -> tuple[PairSolution, tuple[tuple[str, str], ...]]:
    if problem.kind.is_two_term:
        aux = derive_aux(problem)
        x1, x2 = _cramer_two_term(problem, aux, form)
        return PairSolution(x1, x2), _CRAMER_PROVENANCE_TWO_TERM
    # The direct route's halved terms c proj_p(b) and rhs proj_q(a), with the
    # projectors evaluated determinantally: they are scale-free, so no
    # intermediate product grows with the square of the coefficients.
    a, c = problem.a1, problem.c
    if problem.kind is EquationKind.LYAPUNOV_LIKE:
        proj, formula = proj_p_cramer(problem.b2), "ax(a, c (i - proj_p(b)/2))"
    else:
        proj, formula = proj_q_cramer(a), "ax(a, rhs (i - proj_q(a)/2))"
    x = cramer_ax(a, c @ (QMatrix.identity(c.cols) - proj * 0.5))
    return PairSolution(x), (("x1", formula), ("route", "bordered minor sums"))


# -- public solver entry points ---------------------------------------------------


def _gate(problem: GenSylvesterProblem, tol: float, force: bool) -> SolveReport:
    base = check_consistency(problem, tol)
    if not base.consistent and not force:
        raise Inconsistent(
            f"equation kind {problem.kind.cli_name!r} failed its consistency criteria",
            report=base,
        )
    return base


def _finish(
    problem: GenSylvesterProblem,
    sol: PairSolution,
    base: SolveReport,
    method: str,
    provenance: tuple[tuple[str, str], ...],
    extra_checks: tuple[CheckResult, ...] = (),
) -> tuple[PairSolution, SolveReport]:
    res = residual(problem, sol)
    report = SolveReport(
        consistent=base.consistent,
        checks=base.checks + extra_checks,
        residual_norm=res,
        method=method,
        provenance=provenance,
    )
    return sol, report


def solve_direct(
    problem: GenSylvesterProblem,
    tol: float = DEFAULT_TOL,
    force: bool = False,
) -> tuple[PairSolution, SolveReport]:
    """Canonical particular solution via pseudoinverse products."""
    base = _gate(problem, tol, force)
    sol, prov = _partial_direct(problem)
    return _finish(problem, sol, base, "direct", prov)


def solve_cramer(
    problem: GenSylvesterProblem,
    tol: float = DEFAULT_TOL,
    force: bool = False,
    form: str = "column",
) -> tuple[PairSolution, SolveReport]:
    """The same canonical particular solution, evaluated determinantally."""
    if form not in ("column", "row"):
        raise InvalidSize(f"form must be 'column' or 'row', got {form!r}")
    base = _gate(problem, tol, force)
    sol, prov = _partial_cramer(problem, form)
    return _finish(problem, sol, base, "cramer", prov + (("form", form),))


def _free_shapes(problem: GenSylvesterProblem) -> dict[str, tuple[int, int]]:
    if problem.kind.is_two_term:
        return {
            "u": problem.x1_shape,
            "z": problem.x1_shape,
            "v": problem.x2_shape,
            "w": problem.x2_shape,
        }
    n = problem.a1.cols
    return {"y": problem.x1_shape, "zc": (n, n)}


def _check_free(problem: GenSylvesterProblem, free: FreeParams) -> dict[str, Optional[QMatrix]]:
    shapes = _free_shapes(problem)
    supplied = {
        "u": free.u, "v": free.v, "z": free.z, "w": free.w, "y": free.y, "zc": free.zc,
    }
    for name, value in supplied.items():
        if value is None:
            continue
        if name not in shapes:
            raise DimensionMismatch(
                f"free parameter {name!r} does not apply to kind {problem.kind.cli_name!r}"
            )
        if value.shape != shapes[name]:
            raise DimensionMismatch(
                f"free parameter {name!r} has shape {value.shape}, expected {shapes[name]}"
            )
    return {name: supplied.get(name) for name in shapes}


def free_param_shapes(problem: GenSylvesterProblem) -> dict[str, tuple[int, int]]:
    """Expected shapes of the free parameter blocks for this problem."""
    return dict(_free_shapes(problem))


def solve_general(
    problem: GenSylvesterProblem,
    free: Optional[FreeParams] = None,
    tol: float = DEFAULT_TOL,
    force: bool = False,
) -> tuple[PairSolution, SolveReport]:
    """Particular solution plus the homogeneous family at the given free blocks.

    With all free blocks absent this coincides with :func:`solve_direct`.
    Every choice of free blocks yields another exact solution of a consistent
    equation.  For the conjugate-transpose kinds the ``zc`` block must satisfy
    ``a (zc + ctranspose(zc)) ctranspose(a) = 0``; the pair-coefficient kind
    additionally requires ``b = ctranspose(a)`` before accepting nonzero free
    blocks, as the homogeneous family is only valid there.
    """
    free = free or FreeParams()
    blocks = _check_free(problem, free)
    base = _gate(problem, tol, force)

    if problem.kind.is_two_term:
        aux = derive_aux(problem)
        x1, x2 = _direct_two_term(problem, aux)
        n_dim, r_dim = problem.x1_shape
        p_dim, q_dim = problem.x2_shape
        u = blocks["u"] or QMatrix.zeros(n_dim, r_dim)
        z = blocks["z"] or QMatrix.zeros(n_dim, r_dim)
        v = blocks["v"] or QMatrix.zeros(p_dim, q_dim)
        w = blocks["w"] or QMatrix.zeros(p_dim, q_dim)
        l_a1 = QMatrix.identity(n_dim) - aux.a1_pinv @ problem.a1
        r_b1 = QMatrix.identity(r_dim) - problem.b1 @ aux.b1_pinv
        l_m = QMatrix.identity(p_dim) - aux.m_pinv @ aux.m_mat
        p_s = aux.s_pinv @ aux.s_mat
        q_n = aux.n_mat @ aux.n_pinv
        r_n = QMatrix.identity(q_dim) - q_n
        r_b2 = QMatrix.identity(q_dim) - problem.b2 @ aux.b2_pinv
        x1 = (
            x1
            - aux.a1_pinv @ aux.s_mat @ v @ r_n @ problem.b2 @ aux.b1_pinv
            + l_a1 @ u
            + z @ r_b1
        )
        x2 = x2 + l_m @ (v - p_s @ v @ q_n) + w @ r_b2
        sol = PairSolution(x1, x2)
        prov = _DIRECT_PROVENANCE_TWO_TERM + (
            ("family", "x1 += -pinv(a1) s v (i - proj_q(n)) b2 pinv(b1) + (i - proj_p(a1)) u"
                       " + z (i - proj_q(b1)); x2 += (i - proj_p(m)) (v - proj_p(s) v proj_q(n))"
                       " + w (i - proj_q(b2))"),
        )
        return _finish(problem, sol, base, "general", prov)

    a = problem.a1
    n_dim = a.cols
    y = blocks["y"]
    zc = blocks["zc"]
    nonzero_free = any(
        block is not None and block.fro_norm() > 0.0 for block in (y, zc)
    )
    if problem.kind is EquationKind.LYAPUNOV_LIKE:
        mismatch = (problem.b2 - a.H).fro_norm()
        if nonzero_free and mismatch > tol * (1.0 + problem.b2.fro_norm()):
            raise ConstraintViolated(
                "the homogeneous family for this kind requires b = ctranspose(a); "
                f"mismatch norm {mismatch:.3e}"
            )
        x0 = _direct_lyap_like(problem)
    else:
        x0 = _direct_lyap_star(problem)
    if zc is not None:
        sym = a @ (zc + zc.H) @ a.H
        sym_norm = sym.fro_norm()
        budget = tol * (1.0 + a.fro_norm() ** 2 * zc.fro_norm())
        if sym_norm > budget:
            raise ConstraintViolated(
                f"zc violates a (zc + ctranspose(zc)) ctranspose(a) = 0: norm {sym_norm:.3e}"
            )
    a_pinv = mp_oracle(a).pinv
    l_a = QMatrix.identity(n_dim) - a_pinv @ a
    p_a = a_pinv @ a
    x = x0
    if y is not None:
        x = x + l_a @ y
    if zc is not None:
        x = x + p_a @ zc @ a.H
    sol = PairSolution(x)
    prov = (
        ("x1", "partial + (i - proj_p(a)) y + proj_p(a) zc ctranspose(a)"),
        ("constraint", "a (zc + ctranspose(zc)) ctranspose(a) = 0"),
    )
    return _finish(problem, sol, base, "general", prov)


def solve(
    problem: GenSylvesterProblem,
    method: str = "both",
    tol: float = DEFAULT_TOL,
    force: bool = False,
    form: str = "column",
) -> tuple[PairSolution, SolveReport]:
    """Top-level solve: ``method`` is ``"direct"``, ``"cramer"`` or ``"both"``.

    ``"both"`` runs the two routes, records their agreement as an extra check
    (``methods_agree``), and returns the determinantal result.
    """
    if method == "direct":
        return solve_direct(problem, tol, force)
    if method == "cramer":
        return solve_cramer(problem, tol, force, form)
    if method != "both":
        raise InvalidSize(f"method must be 'direct', 'cramer' or 'both', got {method!r}")
    base = _gate(problem, tol, force)
    sol_d, _ = _partial_direct(problem)
    sol_c, prov = _partial_cramer(problem, form)
    diff = (sol_c.x1 - sol_d.x1).fro_norm()
    scale = sol_d.x1.fro_norm()
    if sol_d.x2 is not None:
        diff = max(diff, (sol_c.x2 - sol_d.x2).fro_norm())
        scale += sol_d.x2.fro_norm()
    agree = diff <= tol * (1.0 + scale)
    extra = (CheckResult("methods_agree", agree, diff),)
    return _finish(problem, sol_c, base, "cramer", prov + (("form", form),), extra)
