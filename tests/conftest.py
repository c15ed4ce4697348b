"""Shared test helpers and the acceptance-criteria summary hook.

The acceptance tests in ``test_acceptance.py`` record one verdict per
criterion through :func:`record_criterion`; after the run, the terminal
summary prints one ``CRITERION n: PASS/FAIL`` line per recorded verdict so
the acceptance status is readable at a glance regardless of how the
individual tests fared.
"""

from __future__ import annotations

import numpy as np
import pytest

import qsylv.rcdet as rcdet_module
import qsylv.svd as svd_module
from qsylv import QMatrix, Quaternion
from qsylv.errors import NotConverged
from qsylv.qmatrix import ctranspose, mmul

ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[number] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {number}: {verdict} - {detail}")


# -- work counters ----------------------------------------------------------------


class JacobiLog:
    """The member shapes of every batched Jacobi pass, in call order."""

    def __init__(self) -> None:
        self.batches: list[list[tuple[int, int]]] = []

    @property
    def passes(self) -> int:
        return len(self.batches)

    @property
    def members(self) -> int:
        """Decompositions: one per member of each pass."""
        return sum(map(len, self.batches))

    @property
    def shapes(self) -> list[tuple[int, int]]:
        return [shape for batch in self.batches for shape in batch]


@pytest.fixture
def jacobi_log(monkeypatch) -> JacobiLog:
    """Records every call of ``svd._jacobi``, which every decomposition and
    every rank batch goes through."""
    log, jacobi = JacobiLog(), svd_module._jacobi

    def counted(mats, vectors):
        log.batches.append([np.shape(a) for a in mats])
        return jacobi(mats, vectors)

    monkeypatch.setattr(svd_module, "_jacobi", counted)
    return log


def jacobi_sweeps(mats, vectors: bool) -> int:
    """The fewest sweeps with which one ``svd._jacobi`` pass over ``mats``
    ends: the smallest ``_MAX_SWEEPS`` that raises no
    :class:`~qsylv.errors.NotConverged`, found by bisecting the patched limit
    below its default.  A factor pass ends by converging, at the first
    round that rotates nothing while no pair of its Gram matrix would; a
    rank pass (``vectors`` false) by certifying its ranks at the start of
    that sweep, or else by converging."""
    low, high = 0, svd_module._MAX_SWEEPS  # fails at low, converges at high
    svd_module._jacobi(mats, vectors)
    with pytest.MonkeyPatch.context() as patch:
        while high - low > 1:
            mid = (low + high) // 2
            patch.setattr(svd_module, "_MAX_SWEEPS", mid)
            try:
                svd_module._jacobi(mats, vectors)
            except NotConverged:
                low = mid
            else:
                high = mid
    return high


@pytest.fixture
def coeff_passes(monkeypatch) -> list:
    """Records the arguments of every call of ``rcdet._local_coeffs``, the one
    coefficient pass every determinant quantity goes through."""
    calls, engine = [], rcdet_module._local_coeffs

    def counted(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(rcdet_module, "_local_coeffs", counted)
    return calls


# -- assertion helpers shared across test modules --------------------------------


def q(w: float = 0.0, x: float = 0.0, y: float = 0.0, z: float = 0.0) -> Quaternion:
    return Quaternion(w, x, y, z)


def qm(rows) -> QMatrix:
    return QMatrix.from_rows([list(r) for r in rows])


def max_entry_diff(a: QMatrix, b: QMatrix) -> float:
    delta = a - b
    return max(abs(entry) for row in delta.entries for entry in row)


def assert_matrix_close(a: QMatrix, b: QMatrix, tol: float = 1e-12) -> None:
    assert a.shape == b.shape, f"shape {a.shape} != {b.shape}"
    diff = max_entry_diff(a, b)
    assert diff <= tol, f"max entry deviation {diff:.3e} > {tol:.1e}"


def penrose_residuals(a: QMatrix, x: QMatrix) -> tuple[float, float, float, float]:
    """Frobenius norms of the four Penrose identity residuals for ``x ~ pinv(a)``."""
    axa = mmul(mmul(a, x), a)
    xax = mmul(mmul(x, a), x)
    ax = mmul(a, x)
    xa = mmul(x, a)
    return (
        (axa - a).fro_norm(),
        (xax - x).fro_norm(),
        (ax - ctranspose(ax)).fro_norm(),
        (xa - ctranspose(xa)).fro_norm(),
    )
