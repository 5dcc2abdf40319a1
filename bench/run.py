"""groupsobolev benchmark: one workload per process, one caller, closed loop.

Run from the repository root; the library is imported from ./src:

    python3 bench/run.py --workload transform-su2 --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): verify-default, transform-su2, transform-circle.
Each operation starts after the previous one has finished and been checked.

``--trace 0`` measures the end-to-end metrics with tracing off. Their times
are calibrated (see calibrate.py): the host's speed swings by up to half over
seconds to minutes, so each measured call is scaled by the speed of a fixed
reference slice timed around and during it. The wall-clock figures are
printed beside them as ``wall.*``.

- ``setup_s``: median over fresh processes of importing groupsobolev and
  building the workload's groups;
- ``op_p50_ms``: median latency of one operation (a full verify run, or one
  transform round trip);
- ``ops_per_s``: operations completed per second of operation time;
- ``selftest_s``: median time of orthogonality_selftest on the workload's groups;
- ``peak_rss_mb``: peak resident set size of this process.

``--trace 1`` runs the workload's fixed trace unit alternately untraced and
traced until the time is up, and reports per-layer self times and call
counts (medians over the traced units), the traced wall time, the tracing
overhead and the computed group sizes. Spans and counts go to
``.bench_out/trace-<workload>.json``, never into the verification report.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. A checkout without ``src/groupsobolev`` exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("verify-default", "transform-su2", "transform-circle")

#: One caller runs one operation at a time, so BLAS gets one thread: on a
#: shared machine extra threads add contention noise, not throughput.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 7
MIN_OPS = 3
MIN_SELFTESTS = 3
SELFTEST_SHARE = 0.2  # of the timed phase
SELFTEST_BATCH_S = 0.05
SELF_TIME_SLACK_S = 1e-3

#: Span metrics whose span encloses other layers; the suffix says the figure
#: excludes them.
ENCLOSING = ("verify.run_suite", "cli.main", "bench.harness")
CALL_METRICS = (
    "groups.irrep_matrices",
    "transform.forward_transform",
    "transform.synthesize",
    "transform.e_norm",
    "sobolev.h_s_norm",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "python": sys.version.split()[0],
    }


def attempt(tally, fn, *args):
    """Call ``fn``; an exception counts as a failed operation."""
    try:
        return fn(*args)
    except Exception as exc:  # keep measuring; the failure is reported
        tally.record([f"{type(exc).__name__}: {exc}"])
        return None


def setup_probe(specs) -> float:
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), json.dumps(specs)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup_sample(specs, cal) -> tuple[float, float]:
    """(calibrated, wall) seconds of one fresh-process set-up. The child runs
    while this process waits, so the slices are taken just before and after."""
    probe, start, end, _ = cal.measure(setup_probe, specs, sample=False)
    return cal.calibrated(probe, start, end), probe


def selftest_sample(wl, cal, reps: int) -> tuple[list[str], tuple[float, float]]:
    """Failures and (calibrated, wall) seconds per self-test, over ``reps``
    back-to-back self-tests."""

    def batch():
        return [f for _ in range(reps) for f in wl.selftest()]

    failures, start, end, wall = cal.measure(batch)
    return failures, (cal.calibrated(wall, start, end) / reps, wall / reps)


def checked_op(wl, i: int, tally, latencies: list, cal) -> None:
    """One operation; its (calibrated, wall) latency is kept if it completed,
    and its check runs outside the latency."""
    measured = attempt(tally, cal.measure, wl.run_op, i)
    if measured is not None:
        out, start, end, wall = measured
        latencies.append((cal.calibrated(wall, start, end), wall))
        tally.record(wl.check_op(out))


def timed_phase(wl, seconds: float, tally, cal):
    """Closed loop for ``seconds``: operations, with set-up probes (evenly
    spaced) and orthogonality self-tests (a fixed share of the time)
    interleaved. The self-tests are one checked operation in the tally, so
    that thousands of fast ones do not dilute the error rate of the operations.
    Returns (op latencies, self-test times, set-up times), each a list of
    (calibrated, wall) seconds."""
    lat, selftests, setups = [], [], []
    # Self-tests of tiny groups take well under a millisecond; they are
    # timed in batches of at least SELFTEST_BATCH_S.
    selftest_failures = wl.selftest()  # the first one warms caches
    t0 = perf_counter()
    selftest_failures = selftest_failures or wl.selftest()
    reps = max(1, math.ceil(SELFTEST_BATCH_S / (perf_counter() - t0)))
    start = perf_counter()
    ops, in_selftests = 0, 0.0
    while True:
        elapsed = perf_counter() - start
        over = elapsed >= seconds
        if len(setups) < SETUP_PROBES * (min(1.0, elapsed / seconds) if seconds > 0 else 1.0):
            setups.append(setup_sample(wl.specs, cal))
        elif in_selftests < SELFTEST_SHARE * elapsed or (over and len(selftests) < MIN_SELFTESTS):
            t0 = perf_counter()
            failures, sample = selftest_sample(wl, cal, reps)
            in_selftests += perf_counter() - t0
            selftests.append(sample)
            selftest_failures = selftest_failures or failures
        elif not over or ops < MIN_OPS:
            ops += 1
            checked_op(wl, ops, tally, lat, cal)
        else:
            tally.record(selftest_failures)
            return lat, selftests, setups


def end_to_end(wl, seconds: float, tally) -> tuple[dict, dict]:
    from calibrate import NOMINAL_SLICE_S, Calibrator

    cal = Calibrator()
    setup_probe(wl.specs)  # discarded: it compiles bytecode and warms the file cache
    wl.build()
    checked_op(wl, 0, tally, [], cal)  # warm-up, checked but not timed
    lat, selftests, setups = timed_phase(wl, seconds, tally, cal)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat_ms = [1000.0 * c for c, _ in lat]

    def med(samples, k):
        return statistics.median(x[k] for x in samples) if samples else 0.0

    metrics = {
        "setup_s": (med(setups, 0), "s", len(setups)),
        "op_p50_ms": (statistics.median(lat_ms) if lat else 0.0, "ms", len(lat)),
        "ops_per_s": (len(lat) / sum(c for c, _ in lat) if lat else 0.0, "1/s", len(lat)),
        "selftest_s": (med(selftests, 0), "s", len(selftests)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    # The same figures in wall-clock time, and the host's slowness, for reading
    # beside the calibrated ones.
    extra = {
        "wall.setup_s": (med(setups, 1), "s", len(setups)),
        "wall.op_p50_ms": (1000.0 * med(lat, 1), "ms", len(lat)),
        "wall.ops_per_s": (len(lat) / sum(w for _, w in lat) if lat else 0.0, "1/s", len(lat)),
        "wall.selftest_s": (med(selftests, 1), "s", len(selftests)),
        "calibration.slowness_p50": (
            statistics.median(cal.durations) / NOMINAL_SLICE_S,
            "ratio",
            len(cal.durations),
        ),
    }
    if len(lat) >= 100:  # at least ten samples beyond the 90th percentile
        extra["op_p90_ms"] = (statistics.quantiles(lat_ms, n=10)[8], "ms", len(lat))
    return metrics, extra


def layer_metrics(tracer, wall: float) -> dict:
    from tracing import SPANS

    summary = tracer.summary()
    out = {}
    for name in (*SPANS, "bench.harness"):
        key = f"{name}_self_s" if name in ENCLOSING else f"{name}_s"
        out[key] = (summary.get(name, {}).get("self_s", 0.0), "s")
    for name in CALL_METRICS:
        out[f"{name}_calls"] = (tracer.calls.get(name, 0), "count")
    out["trace.wall_s"] = (wall, "s")
    return out


def size_metrics(wl) -> dict:
    from sizing import stack_mb, stack_shape

    shapes = [stack_shape(spec) for spec in wl.specs]
    return {
        "groups.node_count": (sum(n for n, _ in shapes), "count"),
        "groups.coeff_count": (sum(k for _, k in shapes), "count"),
        "groups.node_stack_mb_computed": (sum(stack_mb(s) for s in wl.specs), "MB"),
        "verify.records": (wl.records, "count"),
    }


def per_layer(wl, seconds: float, tally, env: dict) -> tuple[dict, dict]:
    from calibrate import Calibrator
    from tracing import Tracer, instrumented

    wl.build()
    checked_op(wl, 0, tally, [], Calibrator())  # warm-up
    untraced, traced = [], []

    def untraced_unit():
        start = perf_counter()
        wl.trace_unit(tally)
        untraced.append(perf_counter() - start)

    def traced_unit():
        tracer = Tracer()
        with instrumented(tracer):
            start = perf_counter()
            with tracer.span("bench.harness"):
                wl.trace_unit(tally)
            wall = perf_counter() - start
        own = float(tracer.self_times().sum())
        ok = abs(own - wall) <= SELF_TIME_SLACK_S
        tally.record([] if ok else [f"self times add up to {own:.6f} s, traced wall {wall:.6f} s"])
        traced.append((tracer, wall, own))

    # Pairs alternate which pass goes first, so neither always runs on a
    # freshly warmed process.
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        first, second = (untraced_unit, traced_unit) if len(traced) % 2 == 0 else (traced_unit, untraced_unit)
        first()
        second()

    # median_low keeps each figure an observed value, and counts whole.
    reps = [layer_metrics(tracer, wall) for tracer, wall, _ in traced]
    metrics = {
        key: (statistics.median_low(rep[key][0] for rep in reps), unit)
        for key, (_, unit) in reps[0].items()
    }
    overhead = statistics.median(w for _, w, _ in traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics.update(size_metrics(wl))
    metrics = {k: (v, unit, len(reps)) for k, (v, unit) in metrics.items()}

    last, wall, own = traced[-1]
    side = OUT / f"trace-{wl.name}.json"
    side.write_text(
        json.dumps(
            {
                "env": env,
                "workload": wl.name,
                "untraced_wall_s": untraced,
                "traced_wall_s": [w for _, w, _ in traced],
                "self_time_sum_s": [o for _, _, o in traced],
                "tracing_overhead_s": overhead,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
                "last_unit": {"summary": last.summary(), **last.to_json()},
            }
        )
        + "\n"
    )
    extra = {"trace.self_time_sum_s": (own, "s", 1)}
    print(f"trace: wrote {side.relative_to(ROOT)}")
    return metrics, extra


def result_json(tally, metrics: dict) -> dict:
    return {
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "groupsobolev" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    from sizing import MemoryBudgetError, check_budget
    from workloads import Tally, make_workload

    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"work-{os.getpid()}"
    wl = make_workload(args.workload, args.seed, scratch)
    try:
        check_budget(wl.specs)
    except MemoryBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = run_environment(args.seed)
    print("env " + json.dumps(env))
    tally = Tally()
    try:
        if args.trace:
            metrics, extra = per_layer(wl, args.seconds, tally, env)
        else:
            metrics, extra = end_to_end(wl, args.seconds, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for name, (value, unit, n) in {**metrics, **extra}.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"metric error_rate = {error_rate:.6g} ratio (n={tally.attempted})")
    for message in tally.messages:
        print(f"FAILED: {message}")
    result = result_json(tally, metrics)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
