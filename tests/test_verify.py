import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupsobolev as gs
from groupsobolev.transform import dump_json
from groupsobolev.verify import RunConfig, resolve_weights

SMALL_CONFIG = {
    "groups": [
        {"kind": "cyclic", "n": 4},
        {"kind": "s3"},
        {"kind": "circle", "band": 2},
        {"kind": "su2", "band": 1},
    ],
    "m": 2,
    "batch_size": 3,
    "seed": 99,
    "vector_checks": 50,
    "continuity_pairs": 20,
    "sup_extra_samples": 100,
    "block_check_stride": 1,
}


# ---------------------------------------------------------------------------
# vector norm comparison


def test_vector_norm_comparison_ones():
    recs = gs.check_vector_norm_comparison(np.array([1.0, 1.0]), 1.0, 2.0)
    dec = next(r for r in recs if r.name == "vector_norm_decreasing")
    bound = next(r for r in recs if r.name == "vector_norm_dimension_bound")
    assert abs(dec.lhs - math.sqrt(2.0)) <= 1e-12 and dec.rhs == 2.0
    assert bound.lhs == 2.0 and abs(bound.rhs - 2.0) <= 1e-12
    assert dec.passed and bound.passed
    assert abs(bound.slack) <= 1e-12  # equality case on the right


def test_vector_norm_comparison_single_entry():
    recs = gs.check_vector_norm_comparison(np.array([0.0, 2.0j, 0.0]), 1.3, 4.0)
    dec = next(r for r in recs if r.name == "vector_norm_decreasing")
    bound = next(r for r in recs if r.name == "vector_norm_dimension_bound")
    assert abs(dec.slack) <= 1e-12 and dec.passed  # p and q norms coincide
    assert bound.passed and bound.slack > 0.0


def test_vector_norm_comparison_rejects_bad_exponents():
    with pytest.raises(ValueError):
        gs.check_vector_norm_comparison(np.ones(3), 2.0, 1.5)


@settings(max_examples=150, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=-50, max_value=50), st.floats(min_value=-50, max_value=50)
        ),
        min_size=1,
        max_size=16,
    ),
    p=st.floats(min_value=1.0, max_value=8.0),
    gap=st.floats(min_value=0.0, max_value=8.0),
    use_inf=st.booleans(),
)
def test_vector_norm_comparison_property(data, p, gap, use_inf):
    x = np.array([re + 1j * im for re, im in data])
    q = math.inf if use_inf else p + gap
    for record in gs.check_vector_norm_comparison(x, p, q):
        assert record.passed, record


# ---------------------------------------------------------------------------
# block comparison


def test_block_comparison_scalar_blocks_are_equalities(z4):
    coeffs = gs.random_band_limited(0, z4, m=2)
    for record in gs.check_block_comparison(coeffs, 1.0, 2.0):
        assert record.passed and abs(record.slack) <= record.tol


def test_block_comparison_single_entry(su2_2):
    v = np.array([1.0, 2.0])
    block = np.zeros((3, 3, 2), dtype=complex)
    block[0, 1] = v
    coeffs = gs.FourierCoefficients(su2_2.window, 2, {1.0: block})
    record = next(
        r
        for r in gs.check_block_comparison(coeffs, 1.0, 2.0)
        if r.context["block"] == "1.0"
    )
    # lhs = |v|, rhs = 9^(1/2) |v|
    assert abs(record.lhs - gs.e_norm(v, 2.0)) <= 1e-12
    assert abs(record.rhs - 3.0 * gs.e_norm(v, 2.0)) <= 1e-12
    assert record.passed


def test_block_comparison_random_batches(su2_2):
    for seed in range(10):
        coeffs = gs.random_band_limited(seed, su2_2, m=3)
        for p, q in ((1.0, 2.0), (4.0 / 3.0, 2.0), (1.5, math.inf)):
            assert all(r.passed for r in gs.check_block_comparison(coeffs, p, q))


# ---------------------------------------------------------------------------
# embeddings


def test_monotone_embedding_zero_weights_equality(z12):
    coeffs = gs.random_band_limited(1, z12, m=2)
    record = gs.check_monotone_embedding(coeffs, gs.zero_weights(z12.window), 1.0, 2.0)
    assert record.passed and abs(record.slack) <= record.tol


def test_monotone_embedding_single_block_values(z4):
    v = np.array([1.0, 1.0, 1.0, 1.0])  # |v| = 2
    coeffs = gs.FourierCoefficients(z4.window, 4, {1: v.reshape(1, 1, 4)})
    weights = gs.weights_from_table({0: 0.0, 1: 1.0, 2: 0.0, 3: 0.0}, z4.window)
    record = gs.check_monotone_embedding(coeffs, weights, 1.0, 2.0)
    assert abs(record.lhs - math.sqrt(2.0) * 2.0) <= 1e-12
    assert abs(record.rhs - 2.0 * 2.0) <= 1e-12
    assert record.passed


def test_monotone_embedding_batches(any_group):
    weights = gs.canonical_weights(any_group)
    for seed in range(20):
        coeffs = gs.random_band_limited(seed, any_group, m=3)
        for s, t in ((0.0, 0.5), (0.5, 1.0), (1.0, 2.0), (1.0, 3.0)):
            assert gs.check_monotone_embedding(coeffs, weights, s, t).passed


def test_monotone_embedding_rejects_bad_orders(z4):
    coeffs = gs.random_band_limited(0, z4, m=1)
    with pytest.raises(ValueError):
        gs.check_monotone_embedding(coeffs, gs.zero_weights(z4.window), 2.0, 1.0)


def test_l2_embedding_zero_order_is_equality(su2_2):
    coeffs = gs.random_band_limited(2, su2_2, m=3)
    record = gs.check_l2_embedding(coeffs, gs.canonical_weights(su2_2), 0.0, su2_2)
    assert record.passed and abs(record.slack) <= record.tol


def test_l2_embedding_requires_hilbert_target(su2_2):
    coeffs = gs.random_band_limited(2, su2_2, m=3, p_E=3.0)
    with pytest.raises(ValueError):
        gs.check_l2_embedding(coeffs, gs.canonical_weights(su2_2), 1.0, su2_2)


def test_l2_embedding_batches(any_group):
    weights = gs.canonical_weights(any_group)
    for seed in range(20):
        coeffs = gs.random_band_limited(seed, any_group, m=3)
        for s in (0.0, 0.5, 1.0, 2.0):
            assert gs.check_l2_embedding(coeffs, weights, s, any_group).passed


def test_sup_embedding_constant_function(z4):
    f = gs.VectorFunction.constant(z4, np.array([2.0, 1.0]))
    record = gs.check_sup_embedding(f.coefficients, gs.zero_weights(z4.window), 1.0, z4)
    assert record.context["constant"] >= 1.0
    assert record.passed


def test_sup_embedding_batches(any_group):
    weights = gs.canonical_weights(any_group)
    for seed in range(10):
        coeffs = gs.random_band_limited(seed, any_group, m=3)
        for s in (0.0, 1.0, 2.0):
            assert gs.check_sup_embedding(coeffs, weights, s, any_group).passed


def test_hausdorff_young_single_character_equality(circle2):
    v = np.array([1.0, -2.0j])
    coeffs = gs.FourierCoefficients(circle2.window, 2, {1: v.reshape(1, 1, 2)})
    record = gs.check_hausdorff_young(coeffs, circle2, 4.0 / 3.0)
    assert abs(record.lhs - gs.e_norm(v, 2.0)) <= 1e-9
    assert abs(record.rhs - gs.e_norm(v, 2.0)) <= 1e-12
    assert record.passed


def test_hausdorff_young_constant_equality(su2_2):
    f = gs.VectorFunction.constant(su2_2, np.array([1.0, 1.0j]))
    record = gs.check_hausdorff_young(f.coefficients, su2_2, 1.5)
    assert record.passed and abs(record.slack) <= record.tol


def test_hausdorff_young_alpha_validation(z4):
    coeffs = gs.random_band_limited(0, z4, m=1)
    for alpha in (1.0, 2.0, 2.5, 0.5):
        with pytest.raises(ValueError):
            gs.check_hausdorff_young(coeffs, z4, alpha)


def test_hausdorff_young_batches(any_group):
    for seed in range(20):
        coeffs = gs.random_band_limited(seed, any_group, m=3)
        record = gs.check_hausdorff_young(coeffs, any_group, 4.0 / 3.0)
        assert record.passed and not record.hypothesis_sensitive


def test_hausdorff_young_flags_exotic_targets(z4):
    coeffs = gs.random_band_limited(0, z4, m=2, p_E=4.0)
    record = gs.check_hausdorff_young(coeffs, z4, 4.0 / 3.0)
    assert record.hypothesis_sensitive


def test_lq_embedding_constant_function(z4):
    f = gs.VectorFunction.constant(z4, np.array([1.0]))
    records = gs.check_lq_embedding(
        f.coefficients, gs.zero_weights(z4.window), 1.0, 2.0, z4
    )
    assert [r.name for r in records] == ["lq_embedding", "lq_embedding_chain"]
    assert all(r.passed for r in records)


def test_lq_embedding_single_block(z4):
    v = np.array([2.0, 1.0j])
    coeffs = gs.FourierCoefficients(z4.window, 2, {1: v.reshape(1, 1, 2)})
    records = gs.check_lq_embedding(coeffs, gs.zero_weights(z4.window), 1.0, 2.0, z4)
    assert all(r.passed for r in records)


def test_lq_embedding_batches(su2_2, circle16):
    for group in (su2_2, circle16):
        weights = gs.canonical_weights(group)
        for seed in range(10):
            coeffs = gs.random_band_limited(seed, group, m=3)
            for s, t in ((1.0, 2.0), (1.0, 3.0), (0.5, 2.0)):
                records = gs.check_lq_embedding(coeffs, weights, s, t, group)
                assert all(r.passed for r in records)


def test_continuity_modulus_records(su2_2):
    records = gs.check_continuity_modulus(su2_2, 1.0, pair_budget=500, seed=3)
    assert len(records) == 500
    assert all(r.passed for r in records)


def test_continuity_modulus_characters_are_tight(circle2):
    records = gs.check_continuity_modulus(circle2, 1, pair_budget=50, seed=1)
    for r in records:
        assert r.passed and abs(r.slack) <= 1e-12


# ---------------------------------------------------------------------------
# scale invariance of verdicts


def test_verdicts_scale_invariant(su2_2):
    weights = gs.canonical_weights(su2_2)
    coeffs = gs.random_band_limited(7, su2_2, m=3)
    scaled = 10.0 * coeffs

    def verdicts(c):
        out = [gs.check_monotone_embedding(c, weights, 1.0, 2.0).passed]
        out.append(gs.check_l2_embedding(c, weights, 1.0, su2_2).passed)
        out.append(gs.check_sup_embedding(c, weights, 1.0, su2_2).passed)
        out.append(gs.check_hausdorff_young(c, su2_2, 1.5).passed)
        out.extend(r.passed for r in gs.check_lq_embedding(c, weights, 1.0, 2.0, su2_2))
        out.extend(r.passed for r in gs.check_block_comparison(c, 1.0, 2.0))
        return out

    assert verdicts(coeffs) == verdicts(scaled)


# ---------------------------------------------------------------------------
# suite


def test_run_suite_empty_groups_passes():
    report = gs.run_suite(
        {"groups": [], "vector_checks": 0, "continuity_pairs": 0, "batch_size": 1}
    )
    assert report.records == []
    assert report.all_pass


def test_run_suite_small_config_all_pass():
    report = gs.run_suite(SMALL_CONFIG)
    assert report.all_pass
    counts = report.counts()
    for name in (
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
    ):
        assert counts.get(name, 0) > 0, name


def test_run_suite_deterministic():
    a = gs.run_suite(SMALL_CONFIG)
    b = gs.run_suite(SMALL_CONFIG)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())
    assert a.to_csv_text() == b.to_csv_text()


def test_run_suite_tamper_hook_fails():
    report = gs.run_suite({**SMALL_CONFIG, "tamper": True})
    assert not report.all_pass
    assert len(report.failures()) >= 1
    assert all(r.context.get("tampered") for r in report.records)


def test_report_csv_shape():
    report = gs.run_suite({**SMALL_CONFIG, "batch_size": 1, "vector_checks": 2})
    lines = report.to_csv_text().splitlines()
    assert lines[0] == "name,group,seed,lhs,rhs,slack,tol,pass"
    assert len(lines) == len(report.records) + 1
    assert all(line.endswith(("true", "false")) for line in lines[1:])


def test_report_summary_fields():
    report = gs.run_suite({**SMALL_CONFIG, "batch_size": 1, "vector_checks": 2})
    summary = report.summary()
    assert summary["all_pass"] is True
    assert summary["record_count"] == len(report.records)
    assert set(summary["min_slack"]) == set(summary["records_per_check"])


def test_min_slack_reports_nan():
    def record(slack):
        return gs.InequalityRecord("x", "-", -1, 0.0, slack, slack, 1e-12, bool(slack >= -1e-12))

    for slacks in ([1.0, math.nan, 0.5], [math.nan, 2.0], [0.5, 0.25]):
        report = gs.VerificationReport([record(s) for s in slacks], {})
        got = report.min_slack()["x"]
        if any(math.isnan(s) for s in slacks):
            assert math.isnan(got)
        else:
            assert got == min(slacks)


def test_infinite_exponent_is_strict_json():
    x = np.array([3.0, 4.0j])
    for rec in gs.check_vector_norm_comparison(x, 1.5, math.inf):
        assert rec.context["q"] == "inf"
    coeffs = gs.random_band_limited(0, gs.make_group("cyclic", n=3), m=1)
    for rec in gs.check_block_comparison(coeffs, 1.0, math.inf):
        assert rec.context["q"] == "inf" and rec.passed
    report = gs.run_suite({**SMALL_CONFIG, "batch_size": 1, "vector_checks": 60})
    assert any(r.context.get("q") == "inf" for r in report.records)
    json.loads(dump_json(report.to_json_dict()))


def _load_compare_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
    spec = importlib.util.spec_from_file_location("compare_reports", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reports_script():
    compare = _load_compare_script().compare
    old = gs.run_suite({**SMALL_CONFIG, "batch_size": 1, "vector_checks": 60}).to_json_dict()
    problems, stats = compare(old, json.loads(dump_json(old)))
    assert problems == [] and sum(n for n, _ in stats.values()) == len(old["records"])

    # the bare-token spelling of an infinite exponent compares equal
    legacy = json.loads(json.dumps(old).replace('"q": "inf"', '"q": Infinity'))
    assert compare(legacy, old)[0] == []

    nudged = json.loads(dump_json(old))
    rec = nudged["records"][0]
    rec["lhs"] += 2.0 * rec["tol"]
    assert any("of tol" in p for p in compare(old, nudged)[0])
    flipped = json.loads(dump_json(old))
    flipped["records"][1]["pass"] = not flipped["records"][1]["pass"]
    assert any("pass" in p for p in compare(old, flipped)[0])


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields.*bogus"):
        RunConfig.from_dict({"groups": [], "bogus": 1})


def test_config_rejects_bad_st_pairs():
    with pytest.raises(ValueError, match="t > s > 0"):
        RunConfig.from_dict({"groups": [], "st_pairs": [[2.0, 1.0]]})


def test_config_rejects_bad_batch():
    with pytest.raises(ValueError, match="batch_size"):
        RunConfig.from_dict({"groups": [], "batch_size": 0})


def test_config_rejects_bad_group_entries():
    with pytest.raises(ValueError, match="kind"):
        RunConfig.from_dict({"groups": [{"n": 4}]})


def test_config_rejects_bad_weights_shape():
    with pytest.raises(ValueError, match="weights"):
        RunConfig.from_dict({"groups": [{"kind": "s3"}], "weights": ["zero", "zero"]})


def test_config_accepts_inf_p_E():
    cfg = RunConfig.from_dict({"groups": [], "p_E": "inf"})
    assert math.isinf(cfg.p_E)


def test_resolve_weights_variants(su2_2):
    assert resolve_weights("canonical", 0, su2_2).name == "sqrt-laplacian"
    assert resolve_weights("zero", 0, su2_2).name == "zero"
    table = {"0.0": 0.0, "1.0": 1.0, "2.0": 5.0}
    ws = resolve_weights([table], 0, su2_2)
    assert ws.value(2.0) == 5.0
    with pytest.raises(ValueError, match="not a window label"):
        resolve_weights([{"7.0": 1.0}], 0, su2_2)


def test_suite_with_exotic_p_E_marks_hypothesis_sensitive():
    cfg = {
        **SMALL_CONFIG,
        "groups": [{"kind": "cyclic", "n": 4}],
        "p_E": 4.0,
        "batch_size": 2,
        "vector_checks": 0,
        "continuity_pairs": 0,
    }
    report = gs.run_suite(cfg)
    hy = [r for r in report.records if r.name == "hausdorff_young"]
    assert hy and all(r.hypothesis_sensitive for r in hy)
    # failures among hypothesis-sensitive records do not fail the suite
    assert report.all_pass


def test_block_comparison_matches_per_block_loop(su2_2):
    coeffs = gs.random_band_limited(3, su2_2, m=2, p_E=3.0)
    for p, q in ((1.0, 2.0), (1.5, 4.0), (1.2, math.inf)):
        records = gs.check_block_comparison(coeffs, p, q)
        for rec, label, d in zip(records, su2_2.window.labels, su2_2.window.dims):
            norms = gs.e_norm(coeffs.block(label), 3.0).reshape(-1)
            lhs = (norms**p).sum() ** (1.0 / p)
            norm_q = norms.max() if math.isinf(q) else (norms**q).sum() ** (1.0 / q)
            rhs = (d * d) ** (1.0 / p - (0.0 if math.isinf(q) else 1.0 / q)) * norm_q
            assert abs(rec.lhs - lhs) <= 1e-12 * lhs and abs(rec.rhs - rhs) <= 1e-12 * rhs
