"""Command-line interface.

Subcommands:

- ``solve``: solve an equation from matrix files, by either or both routes;
- ``check``: evaluate consistency criteria only;
- ``mpinv``: Moore-Penrose inverse of a matrix file;
- ``det``: anchored row/column determinant or Hermitian determinant;
- ``selftest``: run the golden worked examples and print a pass/fail table;
- ``gen``: deterministically generate a random instance (with planted
  solution, or perturbed to be inconsistent).

Exit codes: 0 success (and, for solve/check, the instance is consistent);
2 the instance failed its consistency criteria; 3 (solve only) the instance
is consistent but the solution it exhibits fails its own check,
``solution_residual`` or ``methods_agree``; 1 numeric failure, or a
``lyapunov-like`` instance outside its formula's domain ``b =
ctranspose(a)``; 64 usage error; 66 unreadable or unparsable input file.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from contextlib import nullcontext
from typing import Optional

from . import jsonio
from .errors import (
    DimensionMismatch,
    Inconsistent,
    InvalidSize,
    ParseError,
    QsylvError,
)
from .qmatrix import QMatrix
from .quaternion import Quaternion
from .solvers import DEFAULT_TOL, EquationKind, GenSylvesterProblem, check_consistency, solve

_KIND_NAMES = tuple(kind.cli_name for kind in EquationKind)
_SLOT_NAMES = ("a1", "b1", "a2", "b2")

# The exit code of each error type; an error takes the entry of the nearest
# class in its method resolution order.
_EXIT_CODES = {ParseError: 66, DimensionMismatch: 64, InvalidSize: 64, Inconsistent: 2,
               QsylvError: 1}

# The checks a solve makes of the solution it exhibits: a consistent instance
# whose solution fails one of them exits 3.
_SOLUTION_CHECKS = ("solution_residual", "methods_agree")


class _Exit(Exception):
    """Internal: unwind to main() with a message and exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors by default, which would
    # collide with "2 = inconsistent instance"; route usage errors to 64.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _load_matrix(path: str) -> QMatrix:
    data = jsonio.read_json(path)
    try:
        return QMatrix.from_json(data)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _emit(doc, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(jsonio.dumps(doc) + "\n")
        return
    try:
        jsonio.write_json(out, doc)
    except OSError as exc:
        raise _Exit(66, f"cannot write {out}: {exc}")


def _build_problem(args) -> GenSylvesterProblem:
    kind = EquationKind.from_cli_name(args.kind)
    slots = {}
    for name in _SLOT_NAMES:
        path = getattr(args, name)
        if path is not None:
            slots[name] = _load_matrix(path)
    return GenSylvesterProblem.build(kind, c=_load_matrix(args.c), **slots)


def _add_problem_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True, choices=_KIND_NAMES,
                        help="equation kind")
    for name in _SLOT_NAMES:
        parser.add_argument(f"--{name}", metavar="FILE",
                            help=f"matrix file for coefficient {name}")
    parser.add_argument("--c", metavar="FILE", required=True,
                        help="matrix file for the right-hand side")
    parser.add_argument("--tol", type=_tol, default=DEFAULT_TOL,
                        help="consistency tolerance, relative to |c|")
    _add_det_dim_arg(parser)


def _tol(text: str) -> float:
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text}")
    return tol


def _at_least_one(text: str, what: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"{what} must be >= 1, got {n}")
    return n


def _det_dim(text: str) -> int:
    return _at_least_one(text, "determinant dimension cap")


def _max_dim(text: str) -> int:
    return _at_least_one(text, "largest matrix dimension")


def _add_det_dim_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-det-dim", type=_det_dim,
                        help="largest determinant expansion dimension")


def _det_cap(n: Optional[int]):
    """A ``det_dim_cap(n)`` block, which loads the determinant engine, or no
    block for ``None``: the engine's default cap then applies."""
    if n is None:
        return nullcontext()
    from .rcdet import det_dim_cap
    return det_dim_cap(n)


def _solution_doc(sol, report) -> dict:
    return {
        "x1": sol.x1.to_json() if sol is not None else None,
        "x2": sol.x2.to_json() if sol is not None and sol.x2 is not None else None,
        "report": report.to_json_dict(),
    }


def _cmd_solve(args) -> int:
    with _det_cap(None if args.method == "direct" else args.max_det_dim):
        problem = _build_problem(args)
        try:
            sol, report = solve(problem, method=args.method, tol=args.tol, force=args.force)
        except Inconsistent as exc:
            _emit(_solution_doc(None, exc.report), args.out)
            return 2
    _emit(_solution_doc(sol, report), args.out)
    if not report.consistent:
        return 2
    return 3 if any(not c.passed for c in report.checks if c.name in _SOLUTION_CHECKS) else 0


def _cmd_check(args) -> int:
    # the consistency criteria evaluate no determinant, so no cap applies
    report = check_consistency(_build_problem(args), tol=args.tol)
    _emit({"report": report.to_json_dict()}, args.out)
    return 0 if report.consistent else 2


def _cmd_mpinv(args) -> int:
    from .mpinv import mp_cramer, mp_oracle
    with _det_cap(None if args.method == "oracle" else args.max_det_dim):
        mat = _load_matrix(getattr(args, "in"))
        # "both" decomposes once: the factor takes the oracle's rank decision
        oracle = None if args.method == "cramer" else mp_oracle(mat)
        r = None if oracle is None else oracle.rank_used
        result = oracle if args.method == "oracle" else mp_cramer(mat, side=args.side, r=r)
        doc = {"pinv": result.pinv.to_json(), "rank": result.rank_used, "method": result.method}
        if args.method == "both":
            doc["agreement"] = (result.pinv - oracle.pinv).fro_norm()
    _emit(doc, args.out)
    return 0


def _cmd_det(args) -> int:
    from .rcdet import cdet, hdet, rdet
    with _det_cap(args.max_det_dim):
        mat = _load_matrix(getattr(args, "in"))
        if args.kind == "hdet":
            value = Quaternion(hdet(mat, verify=args.verify))
        elif args.kind == "rdet":
            value = rdet(mat, args.index)
        else:
            value = cdet(mat, args.index)
    _emit(value.to_json(), args.out)
    return 0


def _cmd_selftest(args) -> int:
    from .golden import print_selftest
    return 1 if print_selftest() else 0


def _cmd_gen(args) -> int:
    from .sampling import SplitMix64, make_consistent_instance, make_inconsistent_instance
    kind = EquationKind.from_cli_name(args.kind)
    rng = SplitMix64(args.seed)
    try:
        if args.inconsistent:
            problem, planted = make_inconsistent_instance(rng, kind, args.max_dim), None
        else:
            problem, planted = make_consistent_instance(rng, kind, max_dim=args.max_dim)
    except InvalidSize as exc:
        raise _Exit(1, str(exc))
    matrices = {name: getattr(problem, name).to_json() for name in kind.required_slots}
    doc = {
        "kind": kind.cli_name,
        "seed": args.seed,
        "consistent_by_construction": planted is not None,
        "matrices": matrices,
        "planted": None if planted is None else {
            "x1": planted.x1.to_json(),
            "x2": planted.x2.to_json() if planted.x2 is not None else None,
        },
    }
    if args.out_dir is not None:
        try:
            os.makedirs(args.out_dir, exist_ok=True)
            for name, payload in matrices.items():
                jsonio.write_json(os.path.join(args.out_dir, f"{name}.json"), payload)
            jsonio.write_json(os.path.join(args.out_dir, "instance.json"), doc)
        except OSError as exc:
            raise _Exit(66, f"cannot write into {args.out_dir}: {exc}")
        return 0
    _emit(doc, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qsylv",
                     description="quaternion two-sided matrix equation toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="solve an equation from matrix files")
    _add_problem_args(p_solve)
    p_solve.add_argument("--method", choices=("direct", "cramer", "both"),
                         default="both", help="solution route")
    p_solve.add_argument("--force", action="store_true",
                         help="compute a candidate even if inconsistent")
    p_solve.add_argument("--out", metavar="FILE", help="write JSON here instead of stdout")
    p_solve.set_defaults(func=_cmd_solve)

    p_check = sub.add_parser("check", help="evaluate consistency criteria only")
    _add_problem_args(p_check)
    p_check.add_argument("--out", metavar="FILE")
    p_check.set_defaults(func=_cmd_check)

    p_mpinv = sub.add_parser("mpinv", help="Moore-Penrose inverse of a matrix file")
    p_mpinv.add_argument("--in", metavar="FILE", required=True, help="input matrix file")
    p_mpinv.add_argument("--method", choices=("cramer", "oracle", "both"),
                         default="both")
    p_mpinv.add_argument("--side", choices=("left", "right"), default=None,
                         help="which Gram matrix the determinantal route uses")
    _add_det_dim_arg(p_mpinv)
    p_mpinv.add_argument("--out", metavar="FILE")
    p_mpinv.set_defaults(func=_cmd_mpinv)

    p_det = sub.add_parser("det", help="noncommutative determinant of a square matrix")
    p_det.add_argument("--kind", choices=("rdet", "cdet", "hdet"), required=True)
    p_det.add_argument("--index", type=int, default=1,
                       help="anchor row/column (1-based; ignored for hdet)")
    p_det.add_argument("--verify", action="store_true",
                       help="for hdet: expand all anchors and cross-check")
    p_det.add_argument("--in", metavar="FILE", required=True)
    _add_det_dim_arg(p_det)
    p_det.add_argument("--out", metavar="FILE")
    p_det.set_defaults(func=_cmd_det)

    p_self = sub.add_parser("selftest", help="run the golden worked examples")
    p_self.set_defaults(func=_cmd_selftest)

    p_gen = sub.add_parser("gen", help="generate a deterministic random instance")
    p_gen.add_argument("--kind", choices=_KIND_NAMES, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--max-dim", type=_max_dim, default=3,
                       help="largest matrix dimension to draw")
    p_gen.add_argument("--inconsistent", action="store_true",
                       help="perturb the right-hand side out of the solvable set")
    p_gen.add_argument("--out", metavar="FILE")
    p_gen.add_argument("--out-dir", metavar="DIR",
                       help="write one matrix file per coefficient plus instance.json")
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_Exit, QsylvError) as exc:
        sys.stderr.write(f"qsylv: error: {exc}\n")
        if isinstance(exc, _Exit):
            return exc.code
        return next(_EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in _EXIT_CODES)


def run() -> None:
    """Process entry of the ``qsylv`` console script and ``python -m qsylv.cli``.

    Runs :func:`main` on the command line and exits with its code.  Before
    exiting it freezes the collector (``gc.freeze``), so interpreter shutdown
    does not walk every NumPy and qsylv object in full collection passes.
    ``main`` itself never freezes: in-process callers keep a normal collector.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
