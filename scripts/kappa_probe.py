#!/usr/bin/env python3
"""Print the κ-probe table: how both routes fare as ``a1`` grows ill-conditioned.

The probe is ``gen-sylvester`` with ``a1 = X diag(10^(-k i/4), i = 0..4) Y``,
so κ(a1) runs from about 2e1 at ``k = 0`` to about 5e8 at ``k = 8``.  For
seed ``s`` every matrix is drawn from ``SplitMix64(1000 + s)``: ``X`` 6x5 and
``Y`` 5x5, then ``b1`` 5x6, ``a2`` 6x4 and ``b2`` 4x6, then a planted
solution ``x1`` 5x5, ``x2`` 4x4 whose left-hand side is ``c``.  Every
instance is consistent and its true ``rank(m)`` is 1.

One row per ``k``, over the seeds:

- the ranks of ``m`` the program decided;
- how many instances the gate calls inconsistent (each one is wrong);
- how many pass ``methods_agree`` in ``solve(method="both", force=True)``;
- the worst ``|lhs(x) - c| / |c|`` of each route's forced solution.

    PYTHONPATH=src python3 scripts/kappa_probe.py
"""

from __future__ import annotations

import argparse
import sys

from qsylv import (
    EquationKind,
    GenSylvesterProblem,
    PairSolution,
    QMatrix,
    Quaternion,
    apply_lhs,
    check_consistency,
    derive_aux,
    solve,
)
from qsylv.sampling import SplitMix64, random_matrix


def probe_instance(seed: int, k: float) -> GenSylvesterProblem:
    """The κ-probe instance of ``seed`` with ``a1``'s diagonal spread ``10^k``."""
    rng = SplitMix64(1000 + seed)
    x, y = random_matrix(rng, 6, 5), random_matrix(rng, 5, 5)
    d = QMatrix.from_rows([[Quaternion(10.0 ** (-k * i / 4) if i == j else 0.0)
                            for j in range(5)] for i in range(5)])
    slots = {"a1": x @ d @ y, "b1": random_matrix(rng, 5, 6),
             "a2": random_matrix(rng, 6, 4), "b2": random_matrix(rng, 4, 6)}
    x1, x2 = random_matrix(rng, 5, 5), random_matrix(rng, 4, 4)
    template = GenSylvesterProblem.build(EquationKind.GEN_SYLVESTER,
                                         c=QMatrix.zeros(6, 6), **slots)
    c = apply_lhs(template, PairSolution(x1, x2))
    return GenSylvesterProblem.build(EquationKind.GEN_SYLVESTER, c=c, **slots)


def probe_row(k: float, seeds: int) -> str:
    ranks_m, refused, agreed = set(), 0, 0
    worst = {"direct": 0.0, "cramer": 0.0}
    for seed in range(seeds):
        prob = probe_instance(seed, k)
        ranks_m.add(derive_aux(prob).m.rank_used)
        refused += not check_consistency(prob).consistent
        _, report = solve(prob, method="both", force=True)
        agreed += report.check("methods_agree").passed
        for method in worst:
            _, report = solve(prob, method=method, force=True)
            worst[method] = max(worst[method], report.residual_norm / prob.c.fro_norm())
    seen = ", ".join(map(str, sorted(ranks_m)))
    return (f"| {k:g} | {seen} | {refused}/{seeds} | {agreed}/{seeds} "
            f"| {worst['direct']:.1e} | {worst['cramer']:.1e} |")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="instances per row (seeds 0..N-1)")
    parser.add_argument("--ks", type=float, nargs="+", default=[0, 2, 4, 6, 7, 8],
                        help="spread exponents, one row each")
    args = parser.parse_args(argv)
    print("| k | `r_m` seen | false \"inconsistent\" | `methods_agree` "
          "| worst direct residual / \\|c\\| | worst Cramer residual / \\|c\\| |")
    print("| - | - | - | - | - | - |")
    for k in args.ks:
        print(probe_row(k, args.seeds), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
