#!/usr/bin/env python3
"""Fingerprint the CLI's output, one sha256 per command family.

For every equation kind, seed and ``--max-dim`` of the grid, plain and
``--inconsistent``, this runs ``qsylv gen --out-dir`` and then, on each
generated instance:

- ``check``;
- ``solve --method direct|cramer|both``, each with and without ``--force``;
- ``mpinv`` on each matrix file;
- ``det --kind rdet`` and ``det --kind cdet`` on each square matrix file,
  and ``det --kind hdet`` on each one that is exactly Hermitian.

``gen`` writes files, not stdout, so its family also covers each
``instance.json``, which holds every generated matrix.  The ``general``
family covers :func:`qsylv.solve_general`, which no command reaches: its
JSON, or the error it raised, on each generated instance with no free blocks
and with ``random_free_params`` seeded by the instance's seed, each with and
without ``force``.  The ``verdicts`` family covers every ``check`` and
``solve`` command again, by its arguments, its exit code, its report's
``consistent`` and each check's name and pass flag, with no float: a change
that moves outputs only by rounding leaves it as it was.  The ``values``
family covers every command, every ``instance.json`` and every ``general``
document again, with each JSON document parsed and each of its floats
written as ``float.hex()``: a change that moves only the text of floats
leaves it as it was.

Every command runs in-process through :func:`qsylv.cli.main`.  A family's
digest covers, per command and in order, its arguments (with the scratch
directory left out), its exit code, its stdout and its stderr.  Two commits
with the same digests print the same bytes on the whole grid; compare them
with one command:

    PYTHONPATH=src python3 scripts/output_digest.py
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile

from qsylv import (
    EquationKind,
    FreeParams,
    GenSylvesterProblem,
    QMatrix,
    QsylvError,
    solve_general,
)
from qsylv.cli import _solution_doc
from qsylv.cli import main as qsylv_main
from qsylv.jsonio import dumps, loads, read_json
from qsylv.qmatrix import is_hermitian
from qsylv.sampling import SplitMix64, random_free_params

FAMILIES = ("gen", "check", "solve-direct", "solve-cramer", "solve-both", "mpinv", "det",
            "general", "verdicts", "values")


class Digests:
    """One running sha256 and command count per family."""

    def __init__(self, scratch: str):
        self.scratch = scratch
        self.hashes = {family: hashlib.sha256() for family in FAMILIES}
        self.counts = dict.fromkeys(FAMILIES, 0)

    def run(self, family: str, argv: list[str]) -> int:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = qsylv_main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code
        self.record(family, [*argv, str(code), out.getvalue(), err.getvalue()])
        self.record("values", [*argv, str(code), values(out.getvalue()), err.getvalue()])
        if family == "check" or family.startswith("solve-"):
            self.record("verdicts", [*argv, str(code), *verdicts(out.getvalue())])
        return code

    def record(self, family: str, texts: list[str]) -> None:
        record = "\0".join(texts).replace(self.scratch, "")
        self.hashes[family].update(record.encode() + b"\1")
        self.counts[family] += 1


def verdicts(stdout: str) -> list[str]:
    """The verdict and each check's name and pass flag of the report a
    ``check`` or ``solve`` command printed; nothing when it printed none."""
    if not stdout:
        return []
    report = loads(stdout)["report"]
    return [f"consistent={report['consistent']}",
            *(f"{check['name']}={check['passed']}" for check in report["checks"])]


def values(text: str) -> str:
    """The JSON document ``text`` with each float written as ``float.hex()``;
    an empty text stays empty."""
    return json.dumps(_hex_floats(loads(text))) if text else ""


def _hex_floats(obj):
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, list):
        return [_hex_floats(item) for item in obj]
    if isinstance(obj, dict):
        return {key: _hex_floats(item) for key, item in obj.items()}
    return obj


def digest_instance(d: Digests, kind: EquationKind, seed: int, max_dim: int,
                    inconsistent: bool) -> None:
    label = f"{kind.cli_name}-{seed}-{max_dim}{'-inconsistent' * inconsistent}"
    where = os.path.join(d.scratch, label)
    argv = ["gen", "--kind", kind.cli_name, "--seed", str(seed), "--max-dim", str(max_dim),
            "--out-dir", where]
    if d.run("gen", argv + ["--inconsistent"] * inconsistent) != 0:
        return
    with open(os.path.join(where, "instance.json"), encoding="utf-8") as handle:
        instance = handle.read()
    d.record("gen", [instance])
    d.record("values", [values(instance)])
    slots = [name for name in kind.required_slots if name != "c"]
    problem = ["--kind", kind.cli_name, "--c", os.path.join(where, "c.json")]
    for name in slots:
        problem += [f"--{name}", os.path.join(where, f"{name}.json")]
    d.run("check", ["check", *problem])
    for method in ("direct", "cramer", "both"):
        for force in ([], ["--force"]):
            d.run(f"solve-{method}", ["solve", *problem, "--method", method, *force])
    for name in [*slots, "c"]:
        path = os.path.join(where, f"{name}.json")
        d.run("mpinv", ["mpinv", "--in", path])
        mat = QMatrix.from_json(read_json(path))
        if mat.rows == mat.cols:
            for det_kind in ["rdet", "cdet"] + ["hdet"] * is_hermitian(mat):
                d.run("det", ["det", "--kind", det_kind, "--in", path])
    digest_general(d, label, kind, seed, where)


def digest_general(d: Digests, label: str, kind: EquationKind, seed: int, where: str) -> None:
    """``solve_general`` on the instance ``qsylv gen`` wrote into ``where``."""
    mats = {name: QMatrix.from_json(read_json(os.path.join(where, f"{name}.json")))
            for name in kind.required_slots}
    problem = GenSylvesterProblem.build(kind, **mats)
    for blocks, free in (("none", FreeParams()),
                         ("random", random_free_params(SplitMix64(seed), problem))):
        for force in (False, True):
            try:
                text = dumps(_solution_doc(*solve_general(problem, free, force=force)))
                parsed = values(text)
            except QsylvError as exc:
                text = parsed = f"{type(exc).__name__}: {exc}"
            d.record("general", [label, blocks, f"force={force}", text])
            d.record("values", [label, blocks, f"force={force}", parsed])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 0 .. SEEDS-1")
    parser.add_argument("--max-dims", type=int, nargs="+", default=[3, 5],
                        help="the --max-dim values of the grid")
    parser.add_argument("--kinds", nargs="+", default=[k.cli_name for k in EquationKind],
                        choices=[k.cli_name for k in EquationKind], help="equation kinds")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="qsylv-digest-") as scratch:
        d = Digests(scratch)
        for name in args.kinds:
            kind = EquationKind.from_cli_name(name)
            for seed in range(args.seeds):
                for max_dim in args.max_dims:
                    for inconsistent in (False, True):
                        digest_instance(d, kind, seed, max_dim, inconsistent)
    for family in FAMILIES:
        print(f"{family:<13} {d.counts[family]:>5}  {d.hashes[family].hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
