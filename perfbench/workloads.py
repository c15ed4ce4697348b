"""The three workloads, their ops and the per-op correctness gate.

Each workload is driven by one caller in a closed loop: the next op starts
when the previous one has returned.

- ``sweep``: ``solve(problem, method="both")`` on a fresh consistent instance;
  the kinds cycle through all ten equation kinds and every dimension is drawn
  from 1..4.  Tiny matrices, so per-call overhead in ``quaternion``/``qmatrix``
  and the Jacobi SVD dominate; determinant expansions stay at n <= 4.
- ``dense``: the same call on a gen-sylvester instance with ``c`` 6x6,
  ``a1`` 6x5, ``b1`` 5x6, ``a2`` 6x4, ``b2`` 4x6.  Ranks cycle full,
  one-deficient, full, so both rank branches run while the median stays
  inside the full-rank cluster.  Anchored expansions (up to 5x5, as no Gram
  rank exceeds 5) and the bordered and principal-minor sums dominate.
- ``cli-screen``: one ``python -m qsylv.cli`` process per op, alternating
  ``check`` and ``solve --method direct`` on JSON files written during set-up;
  two-term kinds, dims 2..5, half made inconsistent where the kind allows it.
  Start-up, import and ``jsonio`` dominate.

An op fails when it raises, when its verdict or exit code contradicts how
the instance was built, when ``methods_agree`` fails, or when its residual
exceeds ``TOL * (1 + |c|)``.  Failed ops are never retried, and any failed op
makes the whole run incorrect.

The workloads' Stein instances take a ``b2`` of full column rank, since the
program calls a consistent Stein instance inconsistent whenever
``c L_b2 != 0``, a known defect.  :class:`SteinProbe` runs that case apart
from the timed ops, on every run, and reports how many such verdicts it saw.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

import gen
import speed

#: The program's default consistency tolerance, fixed here so the gate does
#: not move if the program's default does.
TOL = 1e-8

#: Warm-up instances come from this seed whatever the run's seed, so every
#: run's set-up does the same warm-up work and ``setup_s`` does not move with
#: the inputs' values.
WARM_SEED = 0



@dataclass
class Outcome:
    status: str                       # ok, raised, refused, disagree, wrong, false_accept
    label: str                        # kind, plus the command on cli-screen
    gap: Optional[float] = None       # route gap relative to 1 + |x|
    residual: Optional[float] = None  # residual relative to 1 + |c|
    rss_kb: int = 0
    solution: Optional[tuple] = None  # (x1, x2) a CLI solve printed


def qarray_of(mat) -> gen.QArray:
    """A program ``QMatrix`` (or its JSON document) as a complex pair."""
    if isinstance(mat, dict):
        return gen.QArray.from_components(mat["data"])
    return gen.QArray.from_components([[[e.w, e.x, e.y, e.z] for e in row] for row in mat.entries])


def solution_gap(a1, a2, b1, b2) -> float:
    """``methods_agree``'s distance: the larger Frobenius gap of ``x1``, ``x2``."""
    gap = (a1 - b1).norm()
    if a2 is not None:
        gap = max(gap, (a2 - b2).norm())
    return gap


def residual_share(inst: gen.Instance, x1: gen.QArray, x2: Optional[gen.QArray]) -> float:
    return (inst.lhs(x1, x2) - inst.c).norm() / (1.0 + inst.c.norm())


def to_problem(inst: gen.Instance):
    """Hand ``inst`` to the program through ``QMatrix.from_rows``."""
    q = importlib.import_module("qsylv")
    slots = {name: q.QMatrix.from_rows(gen.to_rows(mat, q.Quaternion))
             for name, mat in inst.coeffs.items()}
    return q.GenSylvesterProblem.build(q.EquationKind.from_cli_name(inst.kind),
                                       c=q.QMatrix.from_rows(gen.to_rows(inst.c, q.Quaternion)),
                                       **slots)


class Workload:
    """Instances, set-up and ops of one workload.

    ``pool`` instances are generated during set-up (and the input digest is
    taken over them); later ones are generated on demand, outside op timing.
    The mix of shapes and op types repeats every ``period`` ops, and timing
    statistics use whole periods only.  Accuracy metrics use the ops with
    index below ``accuracy_ops``.  Neither then depends on how many ops a run
    gets through.
    """

    name = ""
    period = 1
    pool = 0
    warm = 0
    accuracy_ops = 0
    trace_ops = 0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.instances: list[gen.Instance] = []

    def make(self, k: int, tag: str, seed: int) -> gen.Instance:
        raise NotImplementedError

    def instance(self, k: int) -> gen.Instance:
        while len(self.instances) <= k:
            self.instances.append(self.make(len(self.instances), self.name, self.seed))
        return self.instances[k]

    def setup(self, watch: speed.Stopwatch) -> str:
        """Generate the pool, hand it to the program, warm up; returns the digest.

        ``watch`` ticks after each instance and each warm-up op, so machine
        speed is probed between steps.
        """
        raise NotImplementedError

    def run_op(self, k: int) -> tuple[float, Outcome]:
        raise NotImplementedError


class InProcess(Workload):
    """``solve(problem, method="both")`` called in this process."""

    def setup(self, watch: speed.Stopwatch) -> str:
        self.solvers = importlib.import_module("qsylv.solvers")
        self.errors = importlib.import_module("qsylv.errors")
        self.problems: list = []
        for k in range(self.pool):
            self.problem(k)
            watch.tick()
        for k in range(self.warm):
            self.attempt(to_problem(self.make(k, f"{self.name}-warm", WARM_SEED)))
            watch.tick()
        return gen.digest(self.instances[: self.pool])

    def problem(self, k: int):
        while len(self.problems) <= k:
            self.problems.append(to_problem(self.instance(len(self.problems))))
        return self.problems[k]

    def attempt(self, problem):
        """``solve(problem, method="both")``: what it returned, or what it raised."""
        try:
            return self.solvers.solve(problem, method="both")
        except Exception as exc:  # the gate classifies it
            return exc

    def call(self, k: int):
        """The op itself."""
        return self.attempt(self.problems[k])

    def prepare(self, k: int) -> None:
        self.problem(k)

    def run_op(self, k: int) -> tuple[float, Outcome]:
        self.prepare(k)
        start = perf_counter()
        result = self.call(k)
        elapsed = perf_counter() - start
        return elapsed, self.judge_call(k, result)

    def warm_in_process(self) -> None:
        """Set-up already ran the warm-up ops in this process."""

    def judge_call(self, k: int, result) -> Outcome:
        inst = self.instances[k]
        if isinstance(result, self.errors.Inconsistent):
            return Outcome("refused", inst.kind)
        if isinstance(result, Exception):
            return Outcome("raised", f"{inst.kind}:{type(result).__name__}")
        sol, report = result
        x1 = qarray_of(sol.x1)
        x2 = qarray_of(sol.x2) if sol.x2 is not None else None
        res = residual_share(inst, x1, x2)
        agree = next(c for c in report.checks if c.name == "methods_agree")
        size = np.sqrt(x1.norm() ** 2 + (x2.norm() ** 2 if x2 is not None else 0.0))
        gap = agree.residual / (1.0 + size)
        if res > TOL:
            status = "wrong"
        elif not agree.passed:
            status = "disagree"
        else:
            status = "ok"
        return Outcome(status, inst.kind, gap, res)


class Sweep(InProcess):
    name = "sweep"
    period = 100
    pool = 1024
    warm = 20
    accuracy_ops = 200
    trace_ops = 20

    def make(self, k: int, tag: str, seed: int) -> gen.Instance:
        kind = gen.KINDS[k % len(gen.KINDS)][0]
        shapes = gen.streams(seed, tag, k, k % self.period)
        return gen.consistent_instance(*shapes, kind, 1, 4)


class Dense(InProcess):
    name = "dense"
    period = 3
    pool = 48
    warm = 2
    accuracy_ops = 24
    trace_ops = 3

    def make(self, k: int, tag: str, seed: int) -> gen.Instance:
        return gen.dense_instance(gen.stream(seed, tag, k), deficient=k % 3 == 1)


class SteinProbe(InProcess):
    """Consistent Stein instances whose ``b2`` has random rank, dims 1..4.

    When ``b2`` lacks full column rank the program calls most of them
    inconsistent, though ``x1 = c, x2 = 0`` solves every one.  The probe runs
    after the timed ops, untimed and outside the gate, so the defect shows on
    every run without counting as failed ops; a fix moves its count to 0.
    """

    name = "stein-probe"
    pool = 20

    def make(self, k: int, tag: str, seed: int) -> gen.Instance:
        return gen.consistent_instance(*gen.streams(seed, tag, k, k), "stein", 1, 4,
                                       stein_full_b2=False)

    def false_verdicts(self) -> int:
        """How many of the ``pool`` instances the program calls inconsistent."""
        self.solvers = importlib.import_module("qsylv.solvers")
        self.errors = importlib.import_module("qsylv.errors")
        self.problems = []
        return sum(self.judge_call(k, self.attempt(self.problem(k))).status == "refused"
                   for k in range(self.pool))


class CliScreen(Workload):
    """One CLI process per op, one process at a time.

    The op mix repeats every 32 ops: 8 kinds, each with ``check`` and
    ``solve`` on a consistent and on a perturbed right-hand side.
    """

    name = "cli-screen"
    period = 32
    pool = 160
    warm = 2
    accuracy_ops = 48
    trace_ops = 8
    route_gap_ops = 12

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.root = Path(__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.paths: list[dict] = []

    def make(self, k: int, tag: str, seed: int) -> gen.Instance:
        kind = gen.TWO_TERM_KINDS[(k // 4) % len(gen.TWO_TERM_KINDS)]
        shapes = gen.streams(seed, tag, k, k % self.period)
        if (k // 2) % 2:
            return gen.inconsistent_instance(*shapes, kind, 2, 5)
        return gen.consistent_instance(*shapes, kind, 2, 5)

    def files(self, k: int) -> dict:
        while len(self.paths) <= k:
            t = len(self.paths)
            self.paths.append(gen.write_instance(self.instance(t), str(self.workdir / f"op{t}")))
        return self.paths[k]

    def argv(self, k: int, inst: Optional[gen.Instance] = None,
             paths: Optional[dict] = None) -> list[str]:
        """Op ``k`` runs ``check`` when ``k`` is even, else ``solve --method direct``."""
        inst = inst or self.instance(k)
        paths = paths or self.files(k)
        args = ["check" if k % 2 == 0 else "solve", "--kind", inst.kind]
        for name, path in paths.items():
            args += [f"--{name}", path]
        if k % 2:
            args += ["--method", "direct"]
        return args

    def setup(self, watch: speed.Stopwatch) -> str:
        for k in range(self.pool):
            self.instance(k)
            watch.tick()
        warm = [self.make(k, f"{self.name}-warm", WARM_SEED) for k in range(self.warm)]
        # Writing the files is the benchmark's own work, not the program's, and
        # on ext4 mounted with ``discard`` (2-vCPU Xeon VM) it grew from 0.09 s
        # to 0.6 s over a dozen consecutive runs: it is left out of set-up time.
        with watch.untimed():
            for k in range(self.pool):
                self.files(k)
            self.warm_args = [
                self.argv(k, inst, gen.write_instance(inst, str(self.workdir / f"warm{k}")))
                for k, inst in enumerate(warm)]
        for args in self.warm_args:
            self.spawn(args)
            watch.tick()
        return gen.digest(self.instances[: self.pool])

    def spawn(self, args: list[str]) -> tuple[float, int, bytes, int]:
        """Run one CLI process; returns (seconds, exit code, stdout, max RSS in KiB)."""
        with open(self.workdir / "stderr.txt", "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "qsylv.cli", *args],
                                    stdout=subprocess.PIPE, stderr=err, env=self.env,
                                    cwd=str(self.root))
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, out, usage.ru_maxrss

    def run_op(self, k: int) -> tuple[float, Outcome]:
        args = self.argv(k)
        elapsed, code, out, rss = self.spawn(args)
        outcome = self.judge(k, code, out)
        outcome.rss_kb = rss
        return elapsed, outcome

    def judge(self, k: int, code: int, out: bytes) -> Outcome:
        inst = self.instance(k)
        cmd = "check" if k % 2 == 0 else "solve"
        label = f"{inst.kind}:{cmd}"
        if code not in (0, 2):
            return Outcome("raised", f"{label}:exit{code}")
        if code == 2 and inst.consistent:
            return Outcome("refused", label)
        if code == 0 and not inst.consistent:
            return Outcome("false_accept", label)
        try:
            doc = json.loads(out)
        except ValueError:
            return Outcome("wrong", f"{label}:unparsable")
        if doc["report"]["consistent"] != inst.consistent:
            return Outcome("wrong", f"{label}:report")
        if cmd == "check":
            return Outcome("ok", label)
        if not inst.consistent:
            return Outcome("ok" if doc["x1"] is None else "wrong", label)
        x1 = qarray_of(doc["x1"])
        x2 = qarray_of(doc["x2"]) if doc["x2"] is not None else None
        res = residual_share(inst, x1, x2)
        return Outcome("ok" if res <= TOL else "wrong", label, residual=res, solution=(x1, x2))

    def route_gaps(self, outcomes: list[Outcome]) -> list[float]:
        """Gap between the first ``route_gap_ops`` correct CLI ``solve
        --method direct`` answers and the program's Cramer route on the same
        instances, run in this process after the timed ops."""
        solvers = importlib.import_module("qsylv.solvers")
        picked = [(k, o.solution) for k, o in enumerate(outcomes)
                  if o.status == "ok" and o.solution is not None][: self.route_gap_ops]
        gaps = []
        for k, (x1, x2) in picked:
            sol, _ = solvers.solve(to_problem(self.instance(k)), method="cramer")
            size = np.sqrt(x1.norm() ** 2 + x2.norm() ** 2)
            gaps.append(solution_gap(x1, x2, qarray_of(sol.x1), qarray_of(sol.x2)) / (1.0 + size))
        return gaps

    # -- in-process replay, for the traced run --------------------------------

    def prepare(self, k: int) -> None:
        self.files(k)

    def replay(self, args: list[str]):
        """``qsylv.cli.main`` on ``args`` in this process: (exit code, stdout)."""
        cli = importlib.import_module("qsylv.cli")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
        return code, out.getvalue().encode()

    def call(self, k: int):
        return self.replay(self.argv(k))

    def judge_call(self, k: int, result) -> Outcome:
        return self.judge(k, *result)

    def warm_in_process(self) -> None:
        """Replay the warm-up ops in this process before the traced ones."""
        for k in range(self.warm):
            self.replay(self.warm_args[k])


WORKLOADS = {"sweep": Sweep, "dense": Dense, "cli-screen": CliScreen}
