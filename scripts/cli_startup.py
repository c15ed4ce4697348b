#!/usr/bin/env python3
"""Time whole ``qsylv`` CLI processes, comparing any number of source trees.

Each tree is a checkout whose package lives in ``TREE/src/qsylv``.  The
script generates one instance with the first tree's ``qsylv gen``, then, for
every round, runs ``python -m qsylv.cli check`` and ``solve --method direct``
on it in a fresh process per tree, rotating the tree order from round to
round so no tree always goes first.  Every child runs on one CPU (the lowest
this process may use) with ``OPENBLAS_NUM_THREADS=1``.

Per tree it prints the median and quartiles of whole-process wall time per
command, the median over rounds of the ``-X importtime`` self times of the
``qsylv.*`` modules in ``import qsylv.cli`` (NumPy's import is left out), and
the value of ``PYTHONDONTWRITEBYTECODE`` the children see: without bytecode
caches every import compiles its module again.  Compare a change with its
parent from the repository root:

    python3 scripts/cli_startup.py --rounds 20 . ../parent
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SLOTS = ("a1", "b1", "a2", "b2")


def child_env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")


def cli(tree: Path, args: list[str], cwd: str, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-m", "qsylv.cli", *args],
                          capture_output=True, text=True, env=child_env(tree), cwd=cwd)


def problem_args(kind: str, where: str) -> list[str]:
    args = ["--kind", kind, "--c", os.path.join(where, "c.json")]
    for name in SLOTS:
        path = os.path.join(where, f"{name}.json")
        if os.path.exists(path):
            args += [f"--{name}", path]
    return args


def qsylv_import_ms(tree: Path, cwd: str) -> float:
    """Sum of the ``qsylv.*`` modules' self import times of ``import qsylv.cli``, in ms."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qsylv.cli"],
                          capture_output=True, text=True, env=child_env(tree), cwd=cwd,
                          check=True)
    total_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "qsylv" or name.startswith("qsylv."):
            total_us += int(self_us)
    return total_us / 1000.0


def spread(values: list[float]) -> str:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return f"median {med:7.1f} ms  [{q1:.1f} - {q3:.1f}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, default=[ROOT],
                        help="checkout roots to compare (default: this one)")
    parser.add_argument("--rounds", type=int, default=10, help="processes per tree and command")
    parser.add_argument("--kind", default="gen-sylvester", help="equation kind to generate")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated instance")
    parser.add_argument("--max-dim", type=int, default=4, help="largest matrix dimension")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / "src" / "qsylv" / "__init__.py").is_file():
            parser.error(f"no qsylv sources under {tree / 'src'}")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    commands = {"check": ["check"], "solve-direct": ["solve", "--method", "direct"]}
    times = {(t, name): [] for t in range(len(trees)) for name in commands}
    imports = {t: [] for t in range(len(trees))}
    with tempfile.TemporaryDirectory(prefix="qsylv-startup-") as scratch:
        where = os.path.join(scratch, "instance")
        gen = cli(trees[0], ["gen", "--kind", args.kind, "--seed", str(args.seed),
                             "--max-dim", str(args.max_dim), "--out-dir", where], scratch)
        if gen.returncode != 0:
            sys.stderr.write(gen.stderr)
            return 1
        problem = problem_args(args.kind, where)
        for rnd in range(args.rounds):
            shift = rnd % len(trees)
            for t in [*range(shift, len(trees)), *range(shift)]:
                for name, command in commands.items():
                    start = perf_counter()
                    proc = cli(trees[t], [*command, *problem], scratch)
                    elapsed = perf_counter() - start
                    if proc.returncode not in (0, 2):
                        sys.stderr.write(f"{trees[t]}: {name} exited {proc.returncode}\n"
                                         f"{proc.stderr}")
                        return 1
                    times[t, name].append(1000.0 * elapsed)
                imports[t].append(qsylv_import_ms(trees[t], scratch))

    no_bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE", "")
    print(f"{args.kind} seed {args.seed} max-dim {args.max_dim}, {args.rounds} rounds, "
          f"CPU {min(os.sched_getaffinity(0))}")
    for t, tree in enumerate(trees):
        print(f"tree {tree}")
        for name in commands:
            print(f"  {name:<14} {spread(times[t, name])}")
        print(f"  {'qsylv import':<14} median {statistics.median(imports[t]):7.1f} ms"
              "  (-X importtime self, qsylv.* only)")
        print(f"  PYTHONDONTWRITEBYTECODE={no_bytecode!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
