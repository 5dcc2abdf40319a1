"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria groups are Z_12, S3, circle(16), and su2(4); the inequality
suite runs the bundled default configuration.
"""

import json
import math
import time

import numpy as np
import pytest

import groupsobolev as gs
from groupsobolev.cli import main as cli_main
from groupsobolev.verify import DEFAULT_CONFIG, run_suite

ACCEPTANCE_SPECS = (
    {"kind": "cyclic", "n": 12},
    {"kind": "s3"},
    {"kind": "circle", "band": 16},
    {"kind": "su2", "band": 4},
)

SEEDS_PER_GROUP = 50

SMALL_CLI_CONFIG = {
    "groups": [{"kind": "cyclic", "n": 6}, {"kind": "circle", "band": 3}, {"kind": "su2", "band": 1}],
    "m": 2,
    "batch_size": 10,
    "seed": 31,
    "vector_checks": 100,
    "continuity_pairs": 30,
    "sup_extra_samples": 100,
}


def _emit(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def groups():
    return [gs.make_group(dict(spec)) for spec in ACCEPTANCE_SPECS]


@pytest.fixture(scope="module")
def batches(groups):
    """Seeded coefficient batches with node samples, shared by criteria 2-3."""
    out = {}
    for g in groups:
        items = []
        for seed in range(SEEDS_PER_GROUP):
            coeffs = gs.random_band_limited(seed, g, m=3)
            items.append((coeffs, gs.synthesize(coeffs, g)))
        out[g.name] = items
    return out


def test_criterion_1_orthogonality_selftest(groups):
    start = time.perf_counter()
    worst = {}
    for g in groups:
        report = gs.orthogonality_selftest(g)
        worst[g.name] = report.max_deviation
    elapsed = time.perf_counter() - start
    ok = all(dev <= 1e-9 for dev in worst.values()) and elapsed < 10.0
    detail = ", ".join(f"{name} dev={dev:.2e}" for name, dev in worst.items())
    _emit("criterion 1 (Schur orthogonality)", ok, f"{detail}; {elapsed:.2f}s")


def test_criterion_2_plancherel(groups, batches):
    worst = 0.0
    for g in groups:
        for coeffs, samples in batches[g.name]:
            l2 = math.sqrt(float((g.quadrature.weights * gs.e_norm(samples, 2.0) ** 2).sum()))
            gap = abs(gs.s_p_norm(coeffs, 2.0) - l2) / (1.0 + l2)
            worst = max(worst, gap)
    _emit(
        "criterion 2 (Plancherel)",
        worst <= 1e-9,
        f"max relative isometry gap {worst:.2e} over {SEEDS_PER_GROUP} seeds/group",
    )


def test_criterion_3_round_trip(groups, batches):
    worst = 0.0
    for g in groups:
        for coeffs, samples in batches[g.name]:
            back = gs.forward_transform(gs.VectorFunction.from_samples(samples), g)
            resampled = gs.synthesize(back, g)
            sup = float(gs.e_norm(samples, 2.0).max())
            err = float(np.abs(resampled - samples).max()) / (1.0 + sup)
            worst = max(worst, err)
    _emit(
        "criterion 3 (round trip)",
        worst <= 1e-9,
        f"max relative node error {worst:.2e} over {SEEDS_PER_GROUP} seeds/group",
    )


REQUIRED_CHECKS = (
    "monotone_embedding",
    "l2_embedding",
    "sup_embedding",
    "block_norm_comparison",
    "hausdorff_young",
    "lq_embedding",
    "lq_embedding_chain",
    "continuity_modulus",
    "vector_norm_decreasing",
    "vector_norm_dimension_bound",
)


def test_criterion_4_inequality_suite():
    start = time.perf_counter()
    report = run_suite(DEFAULT_CONFIG)
    elapsed = time.perf_counter() - start
    counts = report.counts()
    missing = [name for name in REQUIRED_CHECKS if counts.get(name, 0) == 0]
    ok = report.all_pass and not missing and elapsed < 60.0
    _emit(
        "criterion 4 (inequality suite)",
        ok,
        f"{len(report.records)} records, {len(report.failures())} failures, "
        f"missing={missing}, {elapsed:.1f}s",
    )


def test_criterion_5_hand_oracles():
    # Independent 2-point transform on Z_2, fixed before wiring to the API:
    # averages of f against the characters (1, 1) and (1, -1).
    z2 = gs.make_group("cyclic", n=2)
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(20):
        samples = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
        coeffs = gs.forward_transform(gs.VectorFunction.from_samples(samples), z2)
        hand0 = (samples[0] + samples[1]) / 2.0
        hand1 = (samples[0] - samples[1]) / 2.0
        worst = max(worst, float(np.abs(coeffs.block(0)[0, 0] - hand0).max()))
        worst = max(worst, float(np.abs(coeffs.block(1)[0, 0] - hand1).max()))
    ok = worst <= 1e-15

    # Z_4 worked examples against the plain 4-point sum oracle.
    z4 = gs.make_group("cyclic", n=4)
    x = np.arange(4)
    v = np.array([0.3 - 0.1j, 1.5j])
    samples = np.exp(2j * math.pi * x / 4)[:, None] * v[None, :]
    coeffs = gs.forward_transform(gs.VectorFunction.from_samples(samples), z4)
    oracle = {
        k: sum(np.exp(-2j * math.pi * k * xx / 4) * samples[xx] for xx in range(4)) / 4.0
        for k in range(4)
    }
    z4_gap = max(float(np.abs(coeffs.block(k)[0, 0] - oracle[k]).max()) for k in range(4))
    ok = ok and z4_gap <= 1e-14
    assert np.abs(coeffs.block(1)[0, 0] - v).max() <= 1e-14

    _emit(
        "criterion 5 (hand oracles)",
        ok,
        f"Z_2 two-point gap {worst:.2e}, Z_4 brute-force gap {z4_gap:.2e}",
    )


def test_criterion_6_constant_formulas():
    # each value recomputed by an independent direct-sum loop first
    def series(dims_weights, s):
        return sum(d**3 / (1.0 + w * w) ** s for d, w in dims_weights)

    z2 = gs.make_group("cyclic", n=2)
    w_z2 = gs.weights_from_table({0: 0.0, 1: 1.0}, z2.window)
    oracle_c = math.sqrt(series([(1, 0.0), (1, 1.0)], 1.0))
    got_c = gs.embedding_constant_C(w_z2, 1.0, z2.window).value

    su2 = gs.make_group("su2", band=1)
    w_su2 = gs.su2_weights()
    oracle_su2 = math.sqrt(series([(1, 0.0), (3, math.sqrt(2.0))], 2.0))
    got_su2 = gs.embedding_constant_C(w_su2, 2.0, su2.window).value

    oracle_lq = series([(1, 0.0), (1, 1.0)], 2.0) ** 0.25
    got_lq = gs.lq_bound_constant(w_z2, 2.0, 1.0, z2.window)

    checks = [
        ("sqrt(1.5)", oracle_c, got_c, math.sqrt(1.5)),
        ("2", oracle_su2, got_su2, 2.0),
        ("1.0574", oracle_lq, got_lq, 1.0573712634405641),
    ]
    ok = all(
        abs(oracle - got) <= 1e-9 and abs(got - frozen) <= 1e-9
        for _, oracle, got, frozen in checks
    )
    detail = ", ".join(f"{name}: {got!r}" for name, _, got, _ in checks)
    _emit("criterion 6 (constant formulas)", ok, detail)


def test_criterion_7_tamper_self_test(tmp_path):
    cfgpath = tmp_path / "config.json"
    cfgpath.write_text(json.dumps(SMALL_CLI_CONFIG))
    out = tmp_path / "report"
    code = cli_main(
        ["verify", "--config", str(cfgpath), "--out", str(out), "--quiet", "--tamper"]
    )
    report = json.loads((out / "verification_report.json").read_text())
    failures = report["summary"]["failure_count"]
    ok = code == 1 and failures >= 1
    _emit(
        "criterion 7 (tamper self-test)",
        ok,
        f"exit code {code}, {failures} failing records after halving every rhs",
    )


def test_criterion_8_determinism(tmp_path):
    cfgpath = tmp_path / "config.json"
    cfgpath.write_text(json.dumps(SMALL_CLI_CONFIG))
    outs = (tmp_path / "run1", tmp_path / "run2")
    codes = [
        cli_main(["verify", "--config", str(cfgpath), "--out", str(out), "--quiet"])
        for out in outs
    ]
    reports = [json.loads((out / "verification_report.json").read_text()) for out in outs]
    for rep in reports:
        rep["metadata"].pop("generated_at")
    csv_equal = (
        (outs[0] / "verification_report.csv").read_bytes()
        == (outs[1] / "verification_report.csv").read_bytes()
    )
    ok = codes == [0, 0] and reports[0] == reports[1] and csv_equal
    _emit(
        "criterion 8 (determinism)",
        ok,
        f"exit codes {codes}, JSON identical modulo timestamp: {reports[0] == reports[1]}, "
        f"CSV identical: {csv_equal}",
    )
