"""Tests of the benchmark itself: its gate can fail, its guard refuses, its
trace adds up. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import groupsobolev as gs  # noqa: E402
from groupsobolev import sobolev, transform, verify  # noqa: E402

import run  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from sizing import MemoryBudgetError, check_budget, stack_mb  # noqa: E402
from tracing import Tracer, instrumented  # noqa: E402
from workloads import Tally, TransformRoundTrip, VerifyDefault, build_checked  # noqa: E402

SMALL_SU2 = {"kind": "su2", "band": 2}


@pytest.fixture
def roundtrip():
    wl = TransformRoundTrip("transform-small", SMALL_SU2, seed=3)
    wl.build()
    return wl


def test_memory_guard_refuses_before_building(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("the guard must refuse before any group is built")

    monkeypatch.setattr(gs, "make_group", no_build)
    spec = {"kind": "su2", "band": 25}
    assert stack_mb(spec) > 150_000  # about 200 GB of node stacks
    with pytest.raises(MemoryBudgetError, match="refusing to build"):
        check_budget([spec])
    assert check_budget([{"kind": "su2", "band": 6}]) < 100


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "cyclic", "n": 12},
        {"kind": "s3"},
        {"kind": "circle", "band": 16},
        {"kind": "su2", "band": 2},
        {"kind": "su2", "band": 1.5, "half_integers": True},
    ],
)
def test_size_estimate_matches_built_group(spec):
    build_checked(spec)  # raises when the estimate and the build disagree


def test_roundtrip_gate_catches_one_perturbed_sample(roundtrip):
    out = roundtrip.run_op(0)
    assert roundtrip.check_op(out) == []
    out.back[5, 1] += 1e-6
    assert any("round-trip error" in f for f in roundtrip.check_op(out))


def test_corrupted_operations_are_counted_and_reported(roundtrip):
    clean = roundtrip.run_op

    def corrupted(i):
        out = clean(i)
        out.back[0, 0] += 1e-3
        return out

    roundtrip.run_op = corrupted
    tally = Tally()
    latencies, _, _ = run.timed_phase(roundtrip, 0.0, tally, Calibrator())
    assert len(latencies) == run.MIN_OPS
    assert tally.attempted == run.MIN_OPS + 1  # and one for the self-tests
    assert tally.failed == run.MIN_OPS
    result = run.result_json(tally, {"op_p50_ms": (1.0, "ms", 3)})
    assert result["correct"] is False
    assert result["failed"] == run.MIN_OPS


def test_calibrator_takes_its_slices_out_of_the_wall_time():
    cal = Calibrator()

    def busy(seconds):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            pass

    _, start, end, wall = cal.measure(busy, 0.35)
    inside = [d for s, d in zip(cal.starts, cal.durations) if start <= s <= end]
    assert inside  # the timer took slices during the call
    assert len(cal.durations) == len(inside) + 2  # and one just before, one just after
    assert wall == pytest.approx(end - start - sum(inside), abs=1e-9)
    assert cal.calibrated(wall, start, end) == pytest.approx(wall / cal.factor(start, end))

    def fails():
        raise RuntimeError("op failed")

    with pytest.raises(RuntimeError):
        cal.measure(fails)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_verify_gate_fails_on_tamper_and_on_changed_reports(tmp_path):
    wl = VerifyDefault(seed=5, out_dir=tmp_path)
    assert wl.check_op(wl.run_op(0)) == []
    assert wl.records == 27663

    report = tmp_path / "verification_report.csv"
    report.write_text(report.read_text().replace("true", "True", 1))
    assert any("differ" in f for f in wl.check_op(0))

    wl.argv.append("--tamper")
    assert wl.check_op(wl.run_op(1)) == ["verify exited with code 1"]


def test_trace_self_times_add_up_and_wrappers_are_removed(roundtrip):
    originals = (gs.synthesize, transform.synthesize, verify.h_s_norm, sobolev.h_s_norm)
    tracer = Tracer()
    tally = Tally()
    with instrumented(tracer):
        assert verify.h_s_norm is not originals[2]
        with tracer.span("bench.harness"):
            roundtrip.trace_unit(tally)
    assert (gs.synthesize, transform.synthesize, verify.h_s_norm, sobolev.h_s_norm) == originals
    assert tally.failed == 0

    summary = tracer.summary()
    root = summary["bench.harness"]["total_s"]
    assert sum(row["self_s"] for row in summary.values()) == pytest.approx(root, rel=1e-9)
    assert summary["transform.forward_transform"]["calls"] == roundtrip.TRACE_OPS
    assert tracer.calls["sobolev.h_s_norm"] == 4 * roundtrip.TRACE_OPS
    # The stack build inside make_group is part of the build, not pointwise evaluation.
    assert summary["groups.make_group"]["calls"] == 1
    assert "groups.irrep_matrices" not in summary


def test_metric_names_match_benchmark_json(roundtrip):
    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    tally = Tally()
    metrics, _ = run.end_to_end(roundtrip, 0.0, tally)
    assert tally.failed == 0
    assert {m["name"] for m in declared["end_to_end"]} == set(metrics)
    assert all(value > 0 for value, _, _ in metrics.values())

    tracer = Tracer()
    with instrumented(tracer), tracer.span("bench.harness"):
        roundtrip.trace_unit(tally)
    layers = {**run.layer_metrics(tracer, 1.0), "trace.overhead_s": 0, **run.size_metrics(roundtrip)}
    assert {m["name"] for m in declared["per_layer"]} == set(layers)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name, (_, unit, *rest) in {**metrics, **run.size_metrics(roundtrip)}.items():
        assert units[name] == unit, name
