"""Curated worked examples with exact expected values.

Both examples have closed-form solutions whose components are small
rationals, so they double as end-to-end self-tests: every solver route must
reproduce the expected matrices to tight tolerance, including intermediate
quantities (pseudoinverses, projectors, Gram determinants).

``selftest`` runs the whole battery and returns one (name, ok, detail) row
per check; ``print_selftest`` prints that table, as the command-line
``selftest`` subcommand and ``scripts/run_worked_examples.py`` do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .mpinv import gram_left, mp_cramer, mp_oracle, proj_q_cramer
from .qmatrix import QMatrix
from .quaternion import Quaternion
from .rcdet import hdet
from .solvers import (
    EquationKind,
    GenSylvesterProblem,
    PairSolution,
    check_consistency,
    derive_aux,
    residual,
    solve,
)

GOLDEN_TOL = 1e-9


def q(w: float = 0.0, x: float = 0.0, y: float = 0.0, z: float = 0.0) -> Quaternion:
    return Quaternion(w, x, y, z)


def qm(rows: Sequence[Sequence[Quaternion]]) -> QMatrix:
    return QMatrix.from_rows([list(row) for row in rows])


@dataclass(frozen=True)
class WorkedExample:
    name: str
    problem: GenSylvesterProblem
    expected_x1: QMatrix
    expected_x2: Optional[QMatrix]
    # (label, quantity, expected) rows checked by selftest: ``quantity()``
    # computes the value that must match ``expected``, a matrix within
    # GOLDEN_TOL, a float within 1e-10 relative, or anything else exactly
    intermediates: tuple[tuple[str, Callable[[], object], object], ...]
    # Whether the consistency checks should report success, and the exact
    # residual of the expected solution (0.0 for a consistent instance).
    expected_consistent: bool = True
    expected_residual: float = 0.0


def example_pair() -> WorkedExample:
    """A rank-deficient two-sided pair equation with an exact 1/8-grid solution."""
    one, qi, qj, qk = q(1), q(x=1), q(y=1), q(z=1)
    a1 = qm([[qi, one], [-one, qi], [qk, -qj]])
    a2 = qm([[one], [qi], [qj]])
    b1 = qm([[qi], [qk]])
    b2 = qm([[qj], [-qi]])
    c = qm([[one], [qi], [q(y=2)]])
    problem = GenSylvesterProblem.build(
        EquationKind.GEN_SYLVESTER, a1=a1, b1=b1, a2=a2, b2=b2, c=c
    )
    expected_x1 = qm([
        [q(0.125), q(y=0.125)],
        [q(x=0.125), q(z=0.125)],
    ])
    expected_x2 = qm([[q(y=-0.75), q(x=0.75)]])
    sixth = 1.0 / 6.0
    third = 1.0 / 3.0
    a1_pinv = qm([
        [q(x=-sixth), q(-sixth), q(z=-sixth)],
        [q(sixth), q(x=-sixth), q(y=sixth)],
    ])
    m_mat = qm([[q(2 * third)], [q(x=2 * third)], [q(y=4 * third)]])
    m_pinv = qm([[q(0.25), q(x=-0.25), q(y=-0.5)]])
    b1_pinv = qm([[q(x=-0.5), q(z=-0.5)]])
    b2_pinv = qm([[q(y=-0.5), q(x=0.5)]])
    return WorkedExample(
        name="pair",
        problem=problem,
        expected_x1=expected_x1,
        expected_x2=expected_x2,
        intermediates=(
            ("pinv_a1", lambda: mp_cramer(a1).pinv, a1_pinv),
            ("pinv_a1_oracle", lambda: mp_oracle(a1).pinv, a1_pinv),
            ("m", lambda: derive_aux(problem).m.a, m_mat),
            ("pinv_m", lambda: derive_aux(problem).m.pinv, m_pinv),
            ("pinv_b1", lambda: derive_aux(problem).b1.pinv, b1_pinv),
            ("pinv_b2", lambda: derive_aux(problem).b2.pinv, b2_pinv),
            ("ranks", lambda: derive_aux(problem).ranks, (1, 1, 1, 1, 1, 0, 0)),
        ),
    )


def example_star() -> WorkedExample:
    """A conjugate-transpose equation with an exact 1/8-grid representative.

    The instance is deliberately inconsistent: the kernel-side projection of
    the right-hand side is nonzero, with Frobenius norm exactly 3/2.  Both
    solver routes must still return the same exact representative (the
    minimal formula applied verbatim), the consistency checks must flag the
    instance, and the residual of that representative is exactly 3/2.
    """
    one, qi, qj, qk, two = q(1), q(x=1), q(y=1), q(z=1), q(2)
    a = qm([[two, qj], [-qk, qi], [qi, qk]])
    rhs = qm([
        [two, qj, -qk],
        [-qj, one, qi],
        [qk, -qi, two],
    ])
    problem = GenSylvesterProblem.build(EquationKind.LYAPUNOV_STAR, a1=a, c=rhs)
    expected_x = qm([
        [q(1, -0.25, -0.25, 0), q(0.5, 0.25, 0.75, -0.125), q(0.25, 0.625, -0.5, -0.75)],
        [q(0.5, 0, 1, 0.5), q(-0.75, -0.25, 1, -0.25), q(1, -0.75, 0.25, -1.25)],
    ])
    a_pinv = qm([
        [q(1), q(z=-0.5), q(x=0.5)],
        [q(y=1), q(x=-1), q(z=-1)],
    ])
    q_a = qm([
        [q(1), q(), q()],
        [q(), q(0.5), q(y=0.5)],
        [q(), q(y=-0.5), q(0.5)],
    ])
    return WorkedExample(
        name="star",
        problem=problem,
        expected_x1=expected_x,
        expected_x2=None,
        intermediates=(
            ("pinv_a_left", lambda: mp_cramer(a, side="left").pinv, a_pinv),
            ("pinv_a_right", lambda: mp_cramer(a, side="right").pinv, a_pinv),
            ("pinv_a_oracle", lambda: mp_oracle(a).pinv, a_pinv),
            ("proj_q_a", lambda: proj_q_cramer(a), q_a),
            ("gram_det", lambda: hdet(gram_left(a), verify=True), 2.0),
        ),
        expected_consistent=False,
        expected_residual=1.5,
    )


def max_abs_diff(a: QMatrix, b: QMatrix) -> float:
    delta = a - b
    return max(abs(entry) for row in delta.entries for entry in row)


def _close(a: QMatrix, b: QMatrix) -> tuple[bool, str]:
    diff = max_abs_diff(a, b)
    return diff <= GOLDEN_TOL, f"max entry deviation {diff:.3e}"


def _matches(label: str, actual: object, expected: object) -> tuple[bool, str]:
    """Whether an intermediate quantity matches its expected value, and a detail."""
    if isinstance(expected, QMatrix):
        return _close(actual, expected)
    if isinstance(expected, float):
        return abs(actual - expected) <= 1e-10 * (1.0 + abs(expected)), f"value {actual!r}"
    return actual == expected, f"{label} {actual}"


def _check_solution(
    rows: list[tuple[str, bool, str]],
    label: str,
    example: WorkedExample,
    sol: PairSolution,
) -> None:
    ok1, d1 = _close(sol.x1, example.expected_x1)
    if example.expected_x2 is not None:
        ok2, d2 = _close(sol.x2, example.expected_x2)
        rows.append((label, ok1 and ok2, f"x1: {d1}; x2: {d2}"))
    else:
        rows.append((label, ok1, d1))
    res = residual(example.problem, sol)
    res_ok = abs(res - example.expected_residual) <= GOLDEN_TOL
    rows.append((f"{label}/residual", res_ok, f"residual {res:.3e}"))


def selftest() -> list[tuple[str, bool, str]]:
    """Run every golden check, within :data:`GOLDEN_TOL`; each row is
    (name, passed, detail)."""
    rows: list[tuple[str, bool, str]] = []
    for example in (example_pair(), example_star()):
        name = example.name
        force = not example.expected_consistent
        report = check_consistency(example.problem)
        rows.append((
            f"{name}/consistent",
            report.consistent == example.expected_consistent,
            "; ".join(f"{c.name}={c.residual:.1e}" for c in report.checks),
        ))
        for method in ("direct", "cramer"):
            sol, _ = solve(example.problem, method=method, force=force)
            _check_solution(rows, f"{name}/{method}", example, sol)
        for label, quantity, expected in example.intermediates:
            rows.append((f"{name}/{label}", *_matches(label, quantity(), expected)))
    return rows


def print_selftest() -> int:
    """Print :func:`selftest` as a PASS/FAIL table; returns the number of failures."""
    rows = selftest()
    width = max(len(name) for name, _, _ in rows)
    failures = 0
    for name, ok, detail in rows:
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name.ljust(width)}  {detail}")
    print(f"{len(rows) - failures}/{len(rows)} golden checks passed")
    return failures

