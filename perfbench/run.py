#!/usr/bin/env python3
"""Benchmark of qsylv: the ``sweep``, ``dense`` and ``cli-screen`` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is a separate run that wraps every layer's public functions
(see ``tracing.py``) and reports per-layer numbers per op.  Either way every
metric is printed by name with its unit, followed by one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Every run also solves the instances of ``workloads.SteinProbe`` after its
ops, untimed, and prints how many the program wrongly calls inconsistent (a
known defect; the timed workloads keep clear of it).

Exit status: 0 when the run completed; 1 when an op failed (the result line
is still printed, with ``"correct": false``); 2 when the program's sources
are not next to the benchmark.
"""

import os

# BLAS reads its thread count when numpy loads; one thread keeps the closed
# loop measuring the program rather than the scheduler.  Children inherit it.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up is repeated in this many processes in all (this one included) and
#: the median reported: over ten seeds one set-up alone spread by up to 0.19
#: of its median (quartile distance), the median of three by under 0.1.
SETUP_SAMPLES = 3
#: Seconds of speed probes taken before each set-up.
SETUP_PROBE_S = 0.05
IMPORT_SAMPLES = 5
#: Accuracy digits come from this quantile of the per-op errors in the
#: accuracy window: the single worst op swung the figure by two digits
#: between seeds, the 90th percentile by a fraction of one.
ACCURACY_QUANTILE = 0.9

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "route_gap_digits": "digits", "residual_digits": "digits", "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "quaternion.mul_calls": "count", "quaternion.add_calls": "count",
    "qmatrix.mmul_calls": "count", "qmatrix.rank_calls": "count",
    "qmatrix.embed_calls": "count", "qmatrix.self_s": "s",
    "svd.calls": "count", "svd.max_dim": "count", "svd.self_s": "s",
    "rcdet.expansions": "count", "rcdet.terms": "count", "rcdet.max_dim": "count",
    "rcdet.bordered_calls": "count", "rcdet.minor_sum_calls": "count", "rcdet.self_s": "s",
    "mpinv.oracle_calls": "count", "mpinv.proj_cramer_calls": "count", "mpinv.self_s": "s",
    "solvers.check_s": "s", "solvers.derive_aux_s": "s", "solvers.derive_aux_misses": "count",
    "solvers.cramer_s": "s", "solvers.self_s": "s",
    "jsonio.self_s": "s", "jsonio.bytes_out": "B",
    "cli.import_s": "s", "cli.process_s": "s", "cli.self_s": "s",
    "trace.overhead_share": "ratio", "trace.unattributed_share": "ratio",
}


def digits(worst: float) -> float:
    """Accuracy as correct digits: ``-log10`` of a relative error, capped at 20."""
    return -math.log10(max(worst, 1e-20))


def percentile(values: list[float], share: float) -> float:
    """Linear-interpolated percentile of ``values`` (``share`` in [0, 1])."""
    ordered = sorted(values)
    pos = share * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def machine() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "pinned_to": sorted(os.sched_getaffinity(0)), "cpu": model,
    }


def timed_setup(args, workdir: Path):
    """Set up in this process, from before numpy and qsylv are imported.

    Returns the workload, the input digest, and the set-up time at nominal
    speed, from speed probes taken between its steps (see ``speed.Stopwatch``).
    """
    sys.path.insert(0, str(HERE))
    import speed

    log = speed.SpeedLog()
    log.sample(SETUP_PROBE_S)
    watch = speed.Stopwatch(log)
    sys.path.insert(0, str(SRC))
    import workloads

    watch.tick()
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    digest = workload.setup(watch)
    return workload, digest, watch.stop()


def child_setups(args) -> list[float]:
    """Set-up times of fresh processes, one at a time, so import-time work shows."""
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, check=True, cwd=str(ROOT),
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


# -- untraced run: end-to-end metrics --------------------------------------------


def measure(workload, seconds: float) -> tuple[dict, list, dict]:
    """Run ops back to back for ``seconds``.

    Speed probes run between ops, and each op's time is expressed at nominal
    speed with the probes taken around it (see ``speed.py``).  The unadjusted figures
    are printed alongside.
    """
    import speed
    import workloads

    log = speed.SpeedLog()
    log.sample(0.0)
    raw, spans, outcomes = [], [], []
    start = perf_counter()
    while perf_counter() - start < seconds:
        begin = perf_counter()
        elapsed, outcome = workload.run_op(len(raw))
        spans.append((begin, perf_counter()))
        log.sample(speed.PROBE_SHARE * elapsed)
        raw.append(elapsed)
        outcomes.append(outcome)
    used = len(raw) - len(raw) % workload.period if len(raw) >= workload.period else len(raw)
    raw = raw[:used]
    latencies = [t * log.factor(*span) for t, span in zip(raw, spans)]
    window = outcomes[: workload.accuracy_ops]
    p90 = percentile(latencies, 0.90)
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000.0 * percentile(latencies, 0.50),
        "latency_p90_ms": 1000.0 * p90,
    }
    residuals = [o.residual for o in window if o.residual is not None]
    if isinstance(workload, workloads.CliScreen):
        metrics["peak_rss_mb"] = max(o.rss_kb for o in outcomes) / 1024.0
        gaps = workload.route_gaps(window)
    else:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gaps = [o.gap for o in window if o.gap is not None]
    metrics["route_gap_digits"] = digits(percentile(gaps, ACCURACY_QUANTILE))
    metrics["residual_digits"] = digits(percentile(residuals, ACCURACY_QUANTILE))
    info = {"ops": len(outcomes), "timed_ops": used,
            "samples_beyond_p90": sum(t > p90 for t in latencies),
            "accuracy_ops": len(window), "speed_factor": log.factor(),
            "worst_digits": {"route_gap": digits(max(gaps)), "residual": digits(max(residuals))},
            "unadjusted": {"ops_per_s": len(raw) / sum(raw),
                           "latency_p50_ms": 1000.0 * percentile(raw, 0.50),
                           "latency_p90_ms": 1000.0 * percentile(raw, 0.90)}}
    return metrics, outcomes, info


# -- traced run: per-layer metrics -----------------------------------------------


def fresh_import_seconds(samples: int) -> list[float]:
    """Time ``import qsylv.cli`` in fresh interpreters, one at a time."""
    code = ("import time; t = time.perf_counter(); import qsylv.cli; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return [float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 check=True, env=env, cwd=str(ROOT)).stdout)
            for _ in range(samples)]


def traced_run(workload, seconds: float) -> tuple[dict, list, dict]:
    """Per-op layer numbers over the first ``trace_ops`` instances.

    Repetition 0 runs each op traced on its fresh instance (call counts and
    ``derive_aux`` misses come from it), then untraced; a counting pass gives
    the scalar quaternion counts.  Further repetitions, each op preceded by a
    cleared ``derive_aux`` cache, refine the times until ``seconds`` pass.
    Times are expressed at nominal speed like the untraced run's.
    """
    import importlib

    import speed
    import tracing
    import workloads

    aux = importlib.import_module("qsylv.solvers").derive_aux
    clear = getattr(aux, "cache_clear", lambda: None)
    cache_info = getattr(aux, "cache_info", None)
    tracer = tracing.Tracer()
    counter = tracing.ScalarCounter()
    block = range(workload.trace_ops)
    for k in block:
        workload.prepare(k)
    workload.warm_in_process()

    def timed(k: int):
        start = perf_counter()
        result = workload.call(k)
        return perf_counter() - start, result

    outcomes, traced, plain, roots, passes = [], [], [], 0.0, []
    log = speed.SpeedLog()
    misses = 0
    start = perf_counter()
    rep = 0
    while rep == 0 or perf_counter() - start < seconds:
        tracer.reset()
        for k in block:
            if rep % 2:
                clear()
                plain.append(timed(k)[0])
            if rep:
                clear()
            before = cache_info().misses if cache_info else 0
            tracer.op = k
            tracer.enable()
            try:
                elapsed, result = timed(k)
            finally:
                tracer.disable()
            traced.append(elapsed)
            if rep == 0:
                misses += (cache_info().misses - before) if cache_info else 0
                outcomes.append(workload.judge_call(k, result))
            if rep % 2 == 0:
                clear()
                plain.append(timed(k)[0])
            log.sample(speed.PROBE_SHARE * elapsed)
        passes.append(tracing.span_summary(tracer.spans, len(block)))
        roots += sum(s[4] - s[3] for s in tracer.spans if s[1] < 0)
        if rep == 0:
            clear()
            counter.enable()
            try:
                for k in block:
                    clear()
                    workload.call(k)
            finally:
                counter.disable()
        rep += 1
    clear()

    first = passes[0]
    metrics = {name: (statistics.fmean(p[name] for p in passes) if name.endswith("_s")
                      else first[name]) for name in first}
    metrics["quaternion.mul_calls"] = counter.counts["mul"] / len(block)
    metrics["quaternion.add_calls"] = counter.counts["add"] / len(block)
    if cache_info:
        metrics["solvers.derive_aux_misses"] = misses / len(block)
    metrics["cli.import_s"] = statistics.median(fresh_import_seconds(IMPORT_SAMPLES))
    if isinstance(workload, workloads.CliScreen):
        metrics["cli.process_s"] = statistics.median(
            workload.spawn(workload.argv(k))[0] for k in block)
    else:
        metrics["cli.process_s"] = 0.0
    scale = log.factor()
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] *= scale
    metrics["trace.overhead_share"] = sum(traced) / sum(plain) - 1.0
    metrics["trace.unattributed_share"] = 1.0 - roots / sum(traced)
    absent = set(tracer.absent)
    for name, sources in tracing.METRIC_SOURCES.items():
        if name in metrics and absent.issuperset(sources):
            del metrics[name]
    layers_present = {name.split(".")[0] for name in tracer.wrapped}
    for name in list(metrics):
        if name.endswith(".self_s") and name.split(".")[0] not in layers_present:
            del metrics[name]
    info = {"ops": len(block), "repetitions": rep, "speed_factor": scale,
            "wrapped_functions": len(tracer.wrapped), "absent": sorted(absent)}
    return metrics, outcomes, info


# -- reporting --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "dense", "cli-screen"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up seconds (used for set-up samples)")
    args = parser.parse_args(argv)

    if not (SRC / "qsylv" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program sources at {SRC / 'qsylv'}; "
                         "run from a checkout of the repository\n")
        return 2
    # One CPU for this process and every child, so the speed probe and the ops
    # it adjusts run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            print(repr(timed_setup(args, workdir)[2]))
            return 0
        workload, digest, setup_here = timed_setup(args, workdir)
        if args.trace:
            metrics, outcomes, info = traced_run(workload, args.seconds)
            units = LAYER_UNITS
        else:
            metrics, outcomes, info = measure(workload, args.seconds)
            # after the timed ops, so the samples lie tens of seconds apart and
            # a slow spell of the host does not reach all of them
            setups = [setup_here] + child_setups(args)
            metrics["setup_s"] = statistics.median(setups)
            info["setup_samples_s"] = setups
            units = E2E_UNITS
        import workloads

        probe = workloads.SteinProbe(args.seed, workdir)
        stein_false = probe.false_verdicts()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures: dict[str, int] = {}
    for outcome in outcomes:
        if outcome.status != "ok":
            key = f"{outcome.status}:{outcome.label}"
            failures[key] = failures.get(key, 0) + 1
    failed = sum(failures.values())
    print(f"perfbench {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"inputs sha256 {digest} ({workload.pool} instances)")
    print("machine " + json.dumps(machine()))
    print("run " + json.dumps(info))
    print("failures " + json.dumps(dict(sorted(failures.items()))))
    print(f"known defect: {stein_false} of {probe.pool} consistent Stein instances "
          "with b2 of random rank called inconsistent (untimed probe, not in failed)")
    print(f"{'failed_share':28s} {failed / len(outcomes):.6g} ratio")
    for name in units:
        if name in metrics:
            print(f"{name:28s} {metrics[name]:.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
