#!/usr/bin/env python3
"""Sweep seeded random instances of every equation kind through both solver
routes and report the worst entrywise disagreement and residual per kind.

The closed-form route multiplies pseudoinverses; the entrywise route evaluates
quotients of bordered determinant sums.  They are independent implementations
of the same solution representative, so their agreement on random instances is
a strong end-to-end check of both.  Exits nonzero if any kind exceeds the
tolerance.
"""

from __future__ import annotations

import argparse
import sys
import time

from qsylv import EquationKind, fro_norm, solve
from qsylv.golden import max_abs_diff
from qsylv.sampling import SplitMix64, make_consistent_instance


def sweep_kind(kind: EquationKind, per_kind: int, max_dim: int, seed: int):
    worst_gap = 0.0
    worst_res = 0.0
    kind_index = list(EquationKind).index(kind)
    for case in range(per_kind):
        rng = SplitMix64(seed + 1_000_003 * kind_index + case)
        prob, _ = make_consistent_instance(rng, kind, max_dim=max_dim)
        sol_d, rep_d = solve(prob, method="direct")
        sol_c, rep_c = solve(prob, method="cramer")
        gap = max_abs_diff(sol_d.x1, sol_c.x1)
        if sol_d.x2 is not None:
            gap = max(gap, max_abs_diff(sol_d.x2, sol_c.x2))
        worst_gap = max(worst_gap, gap)
        scale = 1.0 + fro_norm(prob.c)
        worst_res = max(worst_res, rep_d.residual_norm / scale, rep_c.residual_norm / scale)
    return worst_gap, worst_res


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--per-kind", type=int, default=30, help="instances per kind")
    parser.add_argument("--max-dim", type=int, default=3, help="largest matrix dimension")
    parser.add_argument("--seed", type=int, default=0, help="base seed for the sweep")
    parser.add_argument("--tol", type=float, default=1e-8, help="allowed disagreement")
    args = parser.parse_args(argv)

    width = max(len(kind.cli_name) for kind in EquationKind)
    failures = 0
    t0 = time.perf_counter()
    for kind in EquationKind:
        gap, res = sweep_kind(kind, args.per_kind, args.max_dim, args.seed)
        ok = gap <= args.tol and res <= args.tol
        failures += not ok
        verdict = "PASS" if ok else "FAIL"
        print(f"{verdict}  {kind.cli_name.ljust(width)}  "
              f"route gap {gap:.3e}  residual {res:.3e}·(1+|c|)  (n={args.per_kind})")
    elapsed = time.perf_counter() - t0
    print(f"{len(list(EquationKind)) - failures}/{len(list(EquationKind))} kinds "
          f"within {args.tol:g} in {elapsed:.1f}s")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
