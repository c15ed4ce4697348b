"""Solvers for two-sided pairs of quaternion matrix equations.

The flagship equation is ``a1 @ x1 @ b1 + a2 @ x2 @ b2 = c`` over the
quaternions.  Eight special cases (captured by :class:`EquationKind`) arise by
fixing some coefficients to identities; two more variants couple ``x`` with its
conjugate transpose (``a @ x + ctranspose(x) @ b = c`` and
``a @ x + ctranspose(x) @ ctranspose(a) = rhs``).  The first is solved only
where it is the second, ``b = ctranspose(a)``, so both share one formula;
elsewhere :func:`check_consistency`, and so every solve, raises
:class:`~qsylv.errors.ConstraintViolated`.

Every kind is solved by two independent routes, both through :func:`solve`.
Each solution formula is written once, over one
:class:`~qsylv.mpinv.MpResult` per matrix (:class:`AuxData`), and each route
supplies its own records:

- ``method="direct"`` multiplies the Moore-Penrose pseudoinverses of
  :func:`derive_aux`, computed via the complex embedding;
- ``method="cramer"`` forms each pseudoinverse determinantally with
  :func:`~qsylv.mpinv.mp_cramer`, all bordered minor sums of a Gram matrix at
  once as a product with one coefficient matrix.  It builds its own derived
  matrices from its own projectors, forms no SVD pseudoinverse and takes only
  ranks from the other route.

Both return the same canonical particular solution, so agreement between them
(``method="both"``) cross-verifies each.  :func:`solve_general` adds the
homogeneous family driven by free parameter blocks.  :func:`check_consistency`
evaluates projector-based solvability criteria alongside independent
rank-based criteria and flags any disagreement between the two families.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .errors import (
    ConstraintViolated,
    DimensionMismatch,
    Inconsistent,
    InvalidSize,
    OutOfRange,
)
from .mpinv import MpResult, mp_cramer, mp_oracles
from .qmatrix import (
    QMatrix,
    block2x2,
    ctranspose,
    hstack,
    pow2_exponent,
    ranks,
    scale_pow2,
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
    def slot_shapes(self) -> dict[str, str]:
        """Each slot of this kind, ``c`` last, with its two dimension letters."""
        return _SHAPES[self]

    @property
    def required_slots(self) -> tuple[str, ...]:
        return tuple(_SHAPES[self])

    @property
    def is_two_term(self) -> bool:
        return self not in (EquationKind.LYAPUNOV_LIKE, EquationKind.LYAPUNOV_STAR)


# The slots of each kind and their shapes.  A shape is two dimension letters,
# rows then columns; a letter names one size that every slot using it shares.
_SHAPES = {
    EquationKind.GEN_SYLVESTER: {"a1": "mn", "b1": "rs", "a2": "mp", "b2": "qs", "c": "ms"},
    EquationKind.ONE_LEFT: {"a1": "mn", "a2": "mp", "b2": "qs", "c": "ms"},
    EquationKind.ONE_RIGHT: {"b1": "rs", "a2": "mp", "b2": "qs", "c": "ms"},
    EquationKind.STEIN: {"a2": "mp", "b2": "qs", "c": "ms"},
    EquationKind.SYLVESTER: {"a1": "mn", "b2": "qs", "c": "ms"},
    EquationKind.SYLVESTER_MIRROR: {"b1": "rs", "a2": "mp", "c": "ms"},
    EquationKind.TWO_LEFT: {"a1": "mn", "a2": "mp", "c": "ms"},
    EquationKind.TWO_RIGHT: {"b1": "rs", "b2": "qs", "c": "ms"},
    EquationKind.LYAPUNOV_LIKE: {"a1": "mn", "b2": "nm", "c": "mm"},
    EquationKind.LYAPUNOV_STAR: {"a1": "mn", "c": "mm"},
}


# The records below are NamedTuples rather than frozen dataclasses: creating a
# dataclass generates and compiles its methods, about ten times the cost of a
# NamedTuple class, and every CLI process pays that at import.  A record is
# therefore also a tuple, so ``x1, x2 = sol`` works.
class GenSylvesterProblem(NamedTuple):
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
        shapes = kind.slot_shapes
        for name, value in given.items():
            if value is None and name in shapes:
                raise DimensionMismatch(f"kind {kind.cli_name!r} requires matrix {name!r}")
            if value is not None and name not in shapes:
                raise DimensionMismatch(f"kind {kind.cli_name!r} does not take matrix {name!r}")
        given["c"] = c
        sizes: dict[str, int] = {}
        for name in ("c", *shapes):  # c first: a clash is reported against its sizes
            for letter, size, axis in zip(shapes[name], given[name].shape, ("rows", "columns")):
                if sizes.setdefault(letter, size) != size:
                    raise DimensionMismatch(f"{name} has {size} {axis}, expected {sizes[letter]}")
        if not kind.is_two_term:
            return cls(kind, a1, None, None, b2, c)
        m, s = c.shape
        return cls(
            kind,
            a1 if a1 is not None else QMatrix.identity(m),
            b1 if b1 is not None else QMatrix.identity(s),
            a2 if a2 is not None else QMatrix.identity(m),
            b2 if b2 is not None else QMatrix.identity(s),
            c,
        )

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


class FreeParams(NamedTuple):
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


class PairSolution(NamedTuple):
    """The solution pair; ``x2`` is ``None`` for single-unknown kinds."""

    x1: QMatrix
    x2: Optional[QMatrix] = None


class CheckResult(NamedTuple):
    name: str
    passed: bool
    residual: float


class SolveReport(NamedTuple):
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


class AuxData(NamedTuple):
    """One route's pseudoinverse records of one problem, one per matrix.

    Each record is an :class:`~qsylv.mpinv.MpResult`, whose ``method`` names
    the route that made it, so each solution formula is written once over
    these fields.  Every kind gets ``a1`` (the ``a`` of the conjugate-transpose
    kinds, whose formula needs no other record).  The two-term kinds also get
    ``b1``, ``a2``, ``b2``, ``m = R_a1 a2``, ``n = b2 L_b1`` and ``s = a2
    L_m``, built from the route's own projectors.  Fields a kind has no use
    for are ``None``.

    :func:`derive_aux` fills it with :func:`~qsylv.mpinv.mp_oracles` records.
    The Cramer route fills its own with :func:`~qsylv.mpinv.mp_cramer` records
    at those records' ranks, the only thing the routes share.
    """

    a1: MpResult
    b1: Optional[MpResult] = None
    a2: Optional[MpResult] = None
    b2: Optional[MpResult] = None
    m: Optional[MpResult] = None
    n: Optional[MpResult] = None
    s: Optional[MpResult] = None

    @property
    def ranks(self) -> tuple[Optional[int], ...]:
        """The two-term ranks ``(a1, b1, a2, b2, m, n, s)``; ``None`` where absent."""
        return tuple(None if mp is None else mp.rank_used for mp in self)


def _records(problem: GenSylvesterProblem, factors: Callable[[dict], list]) -> AuxData:
    """The factor records of ``problem``, built level by level.

    ``factors`` maps ``{slot: matrix}`` to one record per matrix, in order.
    The two-term kinds take three levels: the coefficients, then ``m`` and
    ``n``, which need the projectors of ``a1`` and ``b1``, then ``s``, which
    needs that of ``m``.
    """
    if not problem.kind.is_two_term:
        return AuxData(*factors({"a1": problem.a1}))
    a1, b1, a2, b2 = factors({"a1": problem.a1, "b1": problem.b1,
                              "a2": problem.a2, "b2": problem.b2})
    m, n = factors({"m": a1.proj_r() @ problem.a2, "n": problem.b2 @ b1.proj_l()})
    (s,) = factors({"s": problem.a2 @ m.proj_l()})
    return AuxData(a1, b1, a2, b2, m, n, s)


@lru_cache(maxsize=1)
def derive_aux(problem: GenSylvesterProblem) -> AuxData:
    """Derived matrices, pseudoinverses and shared ranks of ``problem``.

    Cached so that the gate, both routes and the general solution of one
    problem share one derivation.  Those calls come with no other problem in
    between: every hit is of the problem derived last, in 20 s runs of the
    benchmark's ``sweep`` and ``dense`` workloads (4344 and 842 hits), in the
    CLI commands and :func:`solve_general` calls of
    ``scripts/output_digest.py`` (4320) and in ``qsylv selftest`` (9).  So
    the cache keeps that one problem.

    Each level of :func:`_records` is one :func:`~qsylv.mpinv.mp_oracles`
    call, whose SVDs are decomposed together; ``m``, ``n`` and ``s`` are
    ranked against ``DERIVED_RANK_FLOOR`` times their coefficient's norm.
    """
    floors = {}
    if problem.kind.is_two_term:
        floor_a = DERIVED_RANK_FLOOR * problem.a2.fro_norm()
        floors = {"m": floor_a, "n": DERIVED_RANK_FLOOR * problem.b2.fro_norm(), "s": floor_a}
    return _records(problem, lambda mats: mp_oracles(
        list(mats.values()), [floors.get(slot, 0.0) for slot in mats]))


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


def _finite(value: float, what: str) -> float:
    """``value``, a norm or residual that a check compares; :class:`OutOfRange`
    when it overflowed, since a comparison with infinity tests nothing."""
    if not math.isfinite(value):
        raise OutOfRange(f"{what} overflows the float range")
    return value


# -- consistency ---------------------------------------------------------------


def check_consistency(problem: GenSylvesterProblem, tol: float = DEFAULT_TOL) -> SolveReport:
    """Evaluate solvability criteria.

    Every two-term kind, the identity-filled ones included, gets four
    projector criteria and four independent rank criteria; the verdict is
    driven by the projector family, and a ``criteria_agree`` entry records
    whether the two families concur.  The conjugate-transpose kinds check
    the compatibility conditions of ``a x + ctranspose(x) ctranspose(a) =
    rhs``; a ``lyapunov-like`` instance is first refused with
    :class:`ConstraintViolated` unless ``|b - ctranspose(a)| <= tol * |b|``,
    the domain of that formula.  Residuals are compared with
    ``tol * |c|``, so rescaling the coefficients and ``c`` leaves the verdict;
    ``tol`` must be finite and non-negative, and :class:`OutOfRange` is raised
    when ``|c|`` or a residual overflows the float range.  Only
    pseudoinverse-route data is used, so no determinant is evaluated and the
    determinant cap never applies here.  The rank criteria read the sizes where exact identity
    coefficients decide them; every other stack and block they need is
    decided by one :func:`~qsylv.qmatrix.ranks` call: one batched Jacobi pass
    over the conjugate transposes of their Householder ``R`` factors.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidSize(f"tolerance must be finite and >= 0, got {tol!r}")
    if problem.kind is EquationKind.LYAPUNOV_LIKE:
        mismatch = (problem.b2 - problem.a1.H).fro_norm()
        if mismatch > tol * _finite(problem.b2.fro_norm(), "|b|"):
            raise ConstraintViolated(
                "kind 'lyapunov-like' is solved only for b = ctranspose(a); "
                f"mismatch norm {mismatch:.3e}"
            )
    tol_c = tol * _finite(problem.c.fro_norm(), "|c|")
    checks: list[CheckResult] = []
    aux = derive_aux(problem)

    if problem.kind.is_two_term:
        c = problem.c
        m_rows, s_cols = c.rows, c.cols
        r_a1, l_b1 = aux.a1.proj_r(), aux.b1.proj_l()
        projector_residuals = (
            ("r_m_r_a1_c", (aux.m.proj_r() @ r_a1 @ c).fro_norm()),
            ("r_a1_c_l_b2", (r_a1 @ c @ aux.b2.proj_l()).fro_norm()),
            ("c_l_b1_l_n", (c @ l_b1 @ aux.n.proj_l()).fro_norm()),
            ("r_a2_c_l_b1", (aux.a2.proj_r() @ c @ l_b1).fro_norm()),
        )
        for name, res in projector_residuals:
            checks.append(CheckResult(name, _finite(res, name) <= tol_c, res))
        consistent = all(res <= tol_c for _, res in projector_residuals)

        # Each block is first scaled to unit size by a power of two.  That is
        # exact and keeps every rank below, and it lets no coefficient's scale
        # hide another block under the rank cutoff.  An identity coefficient
        # decides a stack it spans (every singular value of the scaled stack
        # is then at least 1/2, far above the cutoff), and so do two identity
        # diagonal blocks; those ranks are read off the sizes.  The stacks and
        # blocks left are decided together, by one batched Jacobi pass on
        # their Householder triangles.
        slots = (problem.a1, problem.b1, problem.a2, problem.b2, c)
        i_a1, i_b1, i_a2, i_b2 = (x.is_identity() for x in slots[:4])
        a1, b1, a2, b2, c = (scale_pow2(x, pow2_exponent(x)) for x in slots)
        # ranks read off the sizes, and the matrices the batch decides
        sized: dict[str, int] = {}
        pending: dict[str, QMatrix] = {}
        if i_a1 or i_a2:
            sized["cols_c"] = sized["cols"] = m_rows
        else:
            pending["cols_c"], pending["cols"] = hstack([a1, a2, c]), hstack([a1, a2])
        if i_b1 or i_b2:
            sized["rows_c"] = sized["rows"] = s_cols
        else:
            pending["rows_c"], pending["rows"] = vstack([b1, b2, c]), vstack([b1, b2])
        for key, a, b, spanned in (("a1_b2", a1, b2, i_a1 and i_b2),
                                   ("a2_b1", a2, b1, i_a2 and i_b1)):
            if spanned:
                sized[key] = m_rows + s_cols
            else:
                pending[key] = block2x2(a, c, QMatrix.zeros(b.rows, a.cols), b)
        r = sized | dict(zip(pending, ranks(list(pending.values()))))
        rank_pairs = (
            ("rank_cols", r["cols_c"], r["cols"]),
            ("rank_rows", r["rows_c"], r["rows"]),
            ("rank_block_a1_b2", r["a1_b2"], aux.a1.rank_used + aux.b2.rank_used),
            ("rank_block_a2_b1", r["a2_b1"], aux.a2.rank_used + aux.b1.rank_used),
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

    # conjugate-transpose kinds, with coefficient pair (a, ctranspose(a))
    rhs = problem.c
    herm_res = _finite((rhs - rhs.H).fro_norm(), "rhs_hermitian")
    herm_ok = herm_res <= tol_c
    checks.append(CheckResult("rhs_hermitian", herm_ok, herm_res))
    r_a_proj = aux.a1.proj_r()
    outer_res = _finite((r_a_proj @ rhs @ r_a_proj).fro_norm(), "r_a_rhs_r_a")
    outer_ok = outer_res <= tol_c
    checks.append(CheckResult("r_a_rhs_r_a", outer_ok, outer_res))
    consistent = herm_ok and outer_ok
    return SolveReport(consistent, tuple(checks), max(herm_res, outer_res), "check")


# -- the solution formulas, on either route's records -----------------------------


def _pair(problem: GenSylvesterProblem, f: AuxData) -> PairSolution:
    """The paper's two-term solution on the records ``f``, with ``eta =
    pinv(a2) c pinv(n)``: ``x1 = pinv(a1) (c - a2 pinv(m) c - s eta b2)
    pinv(b1)``, which applies ``a1`` and ``b1`` once each, and ``x2 =
    pinv(m) c pinv(b2) + P_s eta``.  Every right factor is applied first."""
    a2, b2, c = problem.a2, problem.b2, problem.c
    eta = f.a2.pinv @ (c @ f.n.pinv)
    inner = c - a2 @ (f.m.pinv @ c) - f.s.a @ eta @ b2
    x1 = f.a1.pinv @ (inner @ f.b1.pinv)
    x2 = f.m.pinv @ (c @ f.b2.pinv) + f.s.proj_p() @ eta
    return PairSolution(x1, x2)


def _lyap(a: MpResult, c: QMatrix) -> QMatrix:
    """``pinv(a) c (i - Q_a/2)`` on the record ``a``, the particular solution
    of both conjugate-transpose kinds."""
    return (a.pinv @ c) @ (QMatrix.identity(c.cols) - a.proj_q() * 0.5)


_FORMULAS = {
    "two-term": (
        ("x1", "pinv(a1) (c - a2 pinv(m) c - s eta b2) pinv(b1)"),
        ("x2", "pinv(m) c pinv(b2) + proj_p(s) eta"),
        ("eta", "pinv(a2) c pinv(n)"),
        ("m", "(i - proj_q(a1)) a2"),
        ("n", "b2 (i - proj_p(b1))"),
        ("s", "a2 (i - proj_p(m))"),
    ),
    "conjugate-transpose": (("x1", "pinv(a) rhs (i - proj_q(a)/2)"),),
}


def _partial(problem: GenSylvesterProblem,
             method: str) -> tuple[PairSolution, tuple[tuple[str, str], ...]]:
    """The particular solution by ``method``, ``"direct"`` or ``"cramer"``: the
    latter forms each pseudoinverse with :func:`~qsylv.mpinv.mp_cramer`, at the
    rank :func:`derive_aux` decided for it."""
    aux = derive_aux(problem)
    if method == "direct":
        f, route = aux, ()
    else:
        f = _records(problem, lambda mats: [mp_cramer(x, r=getattr(aux, slot).rank_used)
                                            for slot, x in mats.items()])
        route = (("route", "bordered minor sums; projectors evaluated determinantally"),)
    if problem.kind.is_two_term:
        return _pair(problem, f), _FORMULAS["two-term"] + route
    return PairSolution(_lyap(f.a1, problem.c)), _FORMULAS["conjugate-transpose"] + route


# -- determinantal products off the solve path ----------------------------------


def cramer_axb(a: QMatrix, c: QMatrix, b: QMatrix,
               ra: Optional[int] = None, rb: Optional[int] = None) -> QMatrix:
    """Determinantal ``pinv(a) @ c @ pinv(b)``, the right factor first."""
    return mp_cramer(a, "left", ra).pinv @ (c @ mp_cramer(b, "right", rb).pinv)


def cramer_ax(a: QMatrix, c: QMatrix, ra: Optional[int] = None) -> QMatrix:
    """Determinantal ``pinv(a) @ c``."""
    return mp_cramer(a, "left", ra).pinv @ c


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
    tol: float,
    extra_checks: tuple[CheckResult, ...] = (),
) -> tuple[PairSolution, SolveReport]:
    """The report of a solve: the gate's checks, then ``extra_checks``, then
    ``solution_residual``, which passes when ``|lhs(sol) - c| <= tol * |c|``."""
    res = _finite(residual(problem, sol), "solution_residual")
    own = CheckResult("solution_residual", res <= tol * problem.c.fro_norm(), res)
    report = SolveReport(
        consistent=base.consistent,
        checks=base.checks + extra_checks + (own,),
        residual_norm=res,
        method=method,
        provenance=provenance,
    )
    return sol, report


def free_param_shapes(problem: GenSylvesterProblem) -> dict[str, tuple[int, int]]:
    """Expected shapes of the free parameter blocks for this problem."""
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
    shapes = free_param_shapes(problem)
    supplied = free._asdict()
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
    return {name: supplied[name] for name in shapes}


def solve_general(
    problem: GenSylvesterProblem,
    free: Optional[FreeParams] = None,
    tol: float = DEFAULT_TOL,
    force: bool = False,
) -> tuple[PairSolution, SolveReport]:
    """Particular solution plus the homogeneous family at the given free blocks.

    With all free blocks absent this coincides with
    ``solve(problem, method="direct")``.
    Every choice of free blocks yields another exact solution of a consistent
    equation.  For the conjugate-transpose kinds the ``zc`` block must satisfy
    ``a (zc + ctranspose(zc)) ctranspose(a) = 0``.  The gate refuses a
    ``lyapunov-like`` instance with ``b != ctranspose(a)`` with
    :class:`ConstraintViolated`, so one family serves both kinds.  The ``zc``
    check compares with ``tol * |a|^2 |zc|``; :class:`OutOfRange` is raised
    when ``|a|^2 |zc|`` overflows the float range.
    """
    free = free or FreeParams()
    blocks = _check_free(problem, free)
    base = _gate(problem, tol, force)

    aux = derive_aux(problem)
    (x1, x2), prov = _partial(problem, "direct")
    if problem.kind.is_two_term:
        n_dim, r_dim = problem.x1_shape
        p_dim, q_dim = problem.x2_shape
        u = blocks["u"] or QMatrix.zeros(n_dim, r_dim)
        z = blocks["z"] or QMatrix.zeros(n_dim, r_dim)
        v = blocks["v"] or QMatrix.zeros(p_dim, q_dim)
        w = blocks["w"] or QMatrix.zeros(p_dim, q_dim)
        x1 = (
            x1
            - aux.a1.pinv @ aux.s.a @ v @ aux.n.proj_r() @ problem.b2 @ aux.b1.pinv
            + aux.a1.proj_l() @ u
            + z @ aux.b1.proj_r()
        )
        x2 = (x2 + aux.m.proj_l() @ (v - aux.s.proj_p() @ v @ aux.n.proj_q())
              + w @ aux.b2.proj_r())
        sol = PairSolution(x1, x2)
        prov = prov + (
            ("family", "x1 += -pinv(a1) s v (i - proj_q(n)) b2 pinv(b1) + (i - proj_p(a1)) u"
                       " + z (i - proj_q(b1)); x2 += (i - proj_p(m)) (v - proj_p(s) v proj_q(n))"
                       " + w (i - proj_q(b2))"),
        )
        return _finish(problem, sol, base, "general", prov, tol)

    a = problem.a1
    y = blocks["y"]
    zc = blocks["zc"]
    if zc is not None:
        sym = a @ (zc + zc.H) @ a.H
        sym_norm = sym.fro_norm()
        a_norm = a.fro_norm()  # |a| (|a| |zc|) overflows only when the budget does
        budget = tol * _finite(a_norm * (a_norm * zc.fro_norm()), "|a|^2 |zc|")
        if sym_norm > budget:
            raise ConstraintViolated(
                f"zc violates a (zc + ctranspose(zc)) ctranspose(a) = 0: norm {sym_norm:.3e}"
            )
    x = x1
    if y is not None:
        x = x + aux.a1.proj_l() @ y
    if zc is not None:
        x = x + aux.a1.proj_p() @ zc @ a.H
    sol = PairSolution(x)
    prov = (
        ("x1", "partial + (i - proj_p(a)) y + proj_p(a) zc ctranspose(a)"),
        ("constraint", "a (zc + ctranspose(zc)) ctranspose(a) = 0"),
    )
    return _finish(problem, sol, base, "general", prov, tol)


def solve(
    problem: GenSylvesterProblem,
    method: str = "both",
    tol: float = DEFAULT_TOL,
    force: bool = False,
) -> tuple[PairSolution, SolveReport]:
    """The canonical particular solution, by one route or both.

    ``method="direct"`` multiplies pseudoinverses, ``"cramer"`` evaluates the
    same solution determinantally, and ``"both"`` runs the two routes, records
    their agreement as an extra check (``methods_agree``), and returns the
    determinantal result.  ``method`` is checked before the consistency gate.
    Every report ends with a ``solution_residual`` check of the returned
    solution against ``tol * |c|``.  A residual, or the ``methods_agree``
    scale ``|x|``, that overflows the float range raises :class:`OutOfRange`.
    """
    if method not in ("direct", "cramer", "both"):
        raise InvalidSize(f"method must be 'direct', 'cramer' or 'both', got {method!r}")
    base = _gate(problem, tol, force)
    if method != "both":
        sol, prov = _partial(problem, method)
        return _finish(problem, sol, base, method, prov, tol)
    sol_d, _ = _partial(problem, "direct")
    sol_c, prov = _partial(problem, "cramer")
    diff = (sol_c.x1 - sol_d.x1).fro_norm()
    scale = sol_d.x1.fro_norm()
    if sol_d.x2 is not None:
        diff = max(diff, (sol_c.x2 - sol_d.x2).fro_norm())
        scale += sol_d.x2.fro_norm()
    agree = _finite(diff, "methods_agree") <= tol * _finite(scale, "|x|")
    extra = (CheckResult("methods_agree", agree, diff),)
    return _finish(problem, sol_c, base, "cramer", prov, tol, extra)
