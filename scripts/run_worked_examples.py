#!/usr/bin/env python3
"""Run the bundled worked examples and print every check as PASS/FAIL.

Shows the solved matrices entrywise so the values can be inspected by hand,
then runs the full golden battery (both solver routes and the
pseudoinverse/projector/determinant intermediates) and exits nonzero if any
row fails.  ``qsylv selftest`` prints the battery alone.
"""

from __future__ import annotations

import argparse
import sys

from qsylv import Quaternion, solve
from qsylv.golden import example_pair, example_star, print_selftest


def fmt_quaternion(value: Quaternion) -> str:
    parts = []
    for comp, unit in ((value.w, ""), (value.x, "i"), (value.y, "j"), (value.z, "k")):
        if abs(comp) < 1e-12 and parts:
            continue
        sign = "-" if comp < 0 else ("+" if parts else "")
        mag = abs(comp)
        token = f"{mag:g}{unit}" if (unit == "" or mag != 1) else unit
        parts.append(f"{sign}{token}")
    return " ".join(parts) if parts else "0"


def print_matrix(label: str, matrix) -> None:
    print(f"  {label} =")
    widths = [
        max(len(fmt_quaternion(matrix[i, j])) for i in range(matrix.rows))
        for j in range(matrix.cols)
    ]
    for i in range(matrix.rows):
        cells = [fmt_quaternion(matrix[i, j]).rjust(widths[j]) for j in range(matrix.cols)]
        print("    [ " + " | ".join(cells) + " ]")


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    for example in (example_pair(), example_star()):
        force = not example.expected_consistent
        print(f"example {example.name!r} "
              f"({'consistent' if example.expected_consistent else 'inconsistent by design'})")
        sol_d, rep_d = solve(example.problem, method="direct", force=force)
        sol_c, rep_c = solve(example.problem, method="cramer", force=force)
        print_matrix("x1 (closed-form route)", sol_d.x1)
        print_matrix("x1 (entrywise route)  ", sol_c.x1)
        if sol_d.x2 is not None:
            print_matrix("x2 (closed-form route)", sol_d.x2)
            print_matrix("x2 (entrywise route)  ", sol_c.x2)
        print(f"  residual: direct {rep_d.residual_norm:.3e}, "
              f"cramer {rep_c.residual_norm:.3e}")
        print()
    return 1 if print_selftest() else 0


if __name__ == "__main__":
    sys.exit(main())
