import csv
import importlib.util
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupsobolev as gs
from groupsobolev import cli, sobolev, transform, verify
from groupsobolev.transform import dump_json
from groupsobolev.verify import (
    CSV_COLUMNS,
    RecordTable,
    RunConfig,
    _table,
    resolve_weights,
)


def _derive_seed(*parts: int) -> int:
    """The oracle of the suite's seeds: numpy's first SeedSequence word of ``parts``."""
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


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


def _one_chunk_per_record(records) -> RecordTable:
    """``records`` as a table that holds each of them, tol included, in a chunk of its own."""
    tables = [_table(r.name, r.lhs, r.rhs, 0.0, [r.seed], [r.context], group=r.group) for r in records]
    floats = [np.array([[r.lhs], [r.rhs], [r.tol]]) for r in records]
    return RecordTable([replace(t.chunks[0], floats=f) for t, f in zip(tables, floats)])


#: The report order: records grouped by name, then group, by a stable sort.
REPORT_ORDER = attrgetter("name", "group")

#: A two-name check's order: all records of one name, then the other's.
BY_NAME = attrgetter("name")


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


def test_a_batched_vector_call_gives_the_records_of_single_calls():
    rng = np.random.default_rng(3)
    vectors = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in (1, 5, 16, 3, 1)]
    ps, qs = [1.0, 1.7, 2.0, 3.5, 2.5], [2.0, math.inf, 2.0, 6.0, math.inf]
    nth = lambda value, i: value[i] if isinstance(value, list) else value
    cases = [
        (ps, qs, {"seed": [10, 11, 12, 13, 14], "context": [{"index": i} for i in range(5)]}),
        (1.5, qs, {"seed": 7, "context": {"k": "shared"}}),  # shared p, seed and context
        (ps, math.inf, {}),
    ]
    names = ["vector_norm_decreasing"] * 5 + ["vector_norm_dimension_bound"] * 5
    for p, q, kw in cases:
        batch = gs.check_vector_norm_comparison(vectors, p, q, **kw)
        assert [r.name for r in batch] == names
        singles = []
        for i, x in enumerate(vectors):
            one = {k: nth(v, i) for k, v in kw.items()}
            singles += gs.check_vector_norm_comparison(x, nth(p, i), nth(q, i), **one)
        singles.sort(key=BY_NAME)
        assert [r.name for r in batch] == [r.name for r in singles]
        assert [(r.lhs, r.rhs, r.tol, r.seed) for r in batch] == [
            (r.lhs, r.rhs, r.tol, r.seed) for r in singles
        ]
        assert [list(r.context.items()) for r in batch] == [
            list(r.context.items()) for r in singles
        ]
    assert [r.context["n"] for r in batch] == [1, 5, 16, 3, 1] * 2
    # a list of numbers is one vector, not a batch
    assert [r.context["n"] for r in gs.check_vector_norm_comparison([3.0, 4.0], 1.0, 2.0)] == [2, 2]


def test_batched_vector_norms_equal_e_norm_bit_for_bit():
    rng = np.random.default_rng(16)
    vecs = [rng.standard_normal(n) + 1j * rng.standard_normal(n) for n in range(1, 17) for _ in range(5)]
    exponents = (1.0, 1.7, 2.0, 3.5, math.inf)
    mixed = [exponents[i % 5] for i in range(len(vecs))]  # every exponent at every length
    for ps in [[p] * len(vecs) for p in exponents] + [mixed]:
        expected = [float(gs.e_norm(vec, p)) for vec, p in zip(vecs, ps)]
        assert verify._vector_norms(vecs, ps).tolist() == expected


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_batched_vector_norms_scale_as_e_norm_does():
    # power sums that underflow, overflow, vanish or compute, in one batch of length 2
    vecs = [np.array(v) for v in ([0.5, 0.5], [3.0, 1.0], [0.0, 0.0], [1e-300, 2e-300], [1.0, 2.0])]
    vecs += [np.array(v) for v in ([1e200, 1e200], [1e-170, 1e-170], [math.inf, 1.0])]
    vecs += [np.array([math.inf, 1e200])]
    for p in (1100.0, 3.0, 1e308, 2.0, 1.0):
        expected = [float(gs.e_norm(vec, p)) for vec in vecs]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify._vector_norms(vecs, [p] * len(vecs)).tolist() == expected
    assert verify._vector_norms(vecs[:2], [1100.0] * 2)[1] == 3.0
    assert verify._vector_norms(vecs[-4:], [2.0] * 4).tolist() == [
        1e200 * math.sqrt(2), 1e-170 * math.sqrt(2), math.inf, math.inf]


def test_an_empty_vector_list_is_an_empty_batch():
    for q in (2.0, math.inf):
        assert len(gs.check_vector_norm_comparison([], 1.0, q)) == 0


def test_a_vector_without_entries_is_refused():
    for x in (np.array([]), [np.ones(2), np.array([])], [[1.0], []]):
        with pytest.raises(ValueError, match="a vector needs at least one entry"):
            gs.check_vector_norm_comparison(x, 1.0, math.inf)


def test_a_tuple_of_vectors_is_a_batch_and_an_array_of_more_axes_is_refused():
    as_list = gs.check_vector_norm_comparison([np.ones(4)] * 3, 1.0, 2.0)
    as_tuple = gs.check_vector_norm_comparison((np.ones(4),) * 3, 1.0, 2.0)
    assert len(as_tuple) == 6 and list(as_tuple) == list(as_list)
    assert {r.context["n"] for r in as_tuple} == {4}
    for x in (np.ones((3, 4)), [np.ones((3, 4))]):
        with pytest.raises(ValueError, match=r"one axis, got shape \(3, 4\)$"):
            gs.check_vector_norm_comparison(x, 1.0, 2.0)


def test_a_batched_vector_call_refuses_bad_lengths_and_exponents():
    vectors = [np.ones(2), np.ones(3), np.ones(1)]
    with pytest.raises(ValueError, match="a batch of 3 needs"):
        gs.check_vector_norm_comparison(vectors, [1.0, 2.0], 3.0)
    with pytest.raises(ValueError, match="a batch of 3 needs"):
        gs.check_vector_norm_comparison(vectors, 1.0, 3.0, seed=[1, 2, 3, 4])
    with pytest.raises(ValueError, match=r"got p=3\.0, q=2\.0$"):
        gs.check_vector_norm_comparison(vectors, [1.0, 3.0, 0.5], [2.0, 2.0, 0.7])


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


@pytest.mark.parametrize("factor", [1e-170, 1e170])
def test_block_comparison_scales_a_block_sum_out_of_the_float_range(su2_1, factor):
    # |C|^2 of the draw is below the smallest normal float or above the largest: unscaled, the
    # norms read 0.0 or inf; in a batch, the function whose sums compute keeps its bits
    coeffs = gs.random_band_limited(0, su2_1, 2)
    plain = gs.check_block_comparison(coeffs, 1.5, 2.0)
    scaled = gs.check_block_comparison(factor * coeffs, 1.5, 2.0)
    for small, big in zip(scaled, plain):
        for got, want in ((small.lhs, big.lhs), (small.rhs, big.rhs)):
            assert abs(got - factor * want) <= 1e-12 * factor * want
    both = np.stack([coeffs.packed, factor * coeffs.packed])
    batch = gs.check_block_comparison(gs.FourierCoefficients(su2_1.window, 2, packed=both), 1.5, 2.0)
    assert [(r.lhs, r.rhs) for r in batch] == [(r.lhs, r.rhs) for r in [*plain, *scaled]]


@pytest.mark.parametrize("value, shared", [
    (7, True), (np.int64(7), True), (np.array(7), True), ({"batch": 0}, True), (None, True),
    ([1, 2, 3], False), ((1, 2, 3), False), (range(1, 4), False), (np.array([1, 2, 3]), False),
])
def test_fan_out_tells_a_shared_value_from_one_per_function_by_type(value, shared):
    (got,) = verify._fan_out((3,), seed=value)
    assert got == ([value] * 3 if shared else [1, 2, 3])
    if not shared:
        with pytest.raises(ValueError, match="a batch of 4 needs 4 seeds"):
            verify._fan_out((4,), seed=value)


# ---------------------------------------------------------------------------
# homogeneity: each inequality is homogeneous of degree 1, so lambda f gets f's verdict


def _homogeneous_checks(coeffs, vectors, group, weights) -> dict:
    """Each homogeneous check's table on the batch ``coeffs`` and on ``vectors``."""
    blocks = [gs.check_block_comparison(coeffs, p, q) for p, q in ((1.0, 2.0), (1.5, math.inf))]
    return {
        "vector": gs.check_vector_norm_comparison(vectors, [1.0, 1.5, 2.0], [2.0, 3.0, math.inf]),
        "block": RecordTable.concat(blocks),
        "monotone": gs.check_monotone_embedding(coeffs, weights, 0.5, 1.0),
        "l2": gs.check_l2_embedding(coeffs, weights, 1.0, group),
        "sup": gs.check_sup_embedding(coeffs, weights, 2.0, group, 20),
        "hausdorff_young": gs.check_hausdorff_young(coeffs, group, 1.5),
        "lq": gs.check_lq_embedding(coeffs, weights, 1.0, 2.0, group),
    }


def test_a_records_tol_is_its_class_times_the_smaller_side():
    lhs, rhs = [1.0, 2.0, 0.0, 1.0 + 5e-13, 1.0 + 2e-12], [2.0, 1.0, 0.0, 1.0, 1.0]
    table = _table("x", lhs, rhs, 1e-12, [-1] * 5, [{}] * 5)
    assert table.floats[3].tolist() == [1e-12, 1e-12, 0.0, 1e-12, 1e-12]
    assert table.passed.tolist() == [True, False, True, True, False]  # lhs <= (1 + 1e-12) rhs


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [2.0**-560, 2.0**560])  # powers of 2 scale exactly
@pytest.mark.parametrize("name", ["z12", "s3", "circle16", "su2_2"])
def test_a_scaled_function_gets_the_same_verdict_and_fails_under_tamper(request, name, scale):
    # a tolerance with an absolute floor passes every tampered record of a 2^-560 draw
    group = request.getfixturevalue(name)
    weights = gs.canonical_weights(group)
    # three draws, and a kernel of blocks (1 + w^2)^(-2) I e: its sup is near the s = 2 bound,
    # so that on every group the sup check fails under tamper
    kernel = {label: (1.0 + weights.value(label) ** 2) ** -2.0 * np.eye(d)[:, :, None] * [1.0, 0.5j]
              for label, d in zip(group.window.labels, group.window.dims)}
    kernel = gs.FourierCoefficients(group.window, 2, kernel).packed
    coeffs = gs.random_band_limited([1, 2, 3], group, 2)
    coeffs = gs.FourierCoefficients(group.window, 2, packed=[*coeffs.packed, kernel])
    vectors = [np.random.default_rng(n).standard_normal(n) for n in (1, 4, 9)]
    plain = _homogeneous_checks(coeffs, vectors, group, weights)
    scaled = _homogeneous_checks(scale * coeffs, [scale * v for v in vectors], group, weights)
    for check, table in scaled.items():
        assert len(table) == len(plain[check]) > 0, check
        for got, want in zip(table, plain[check]):
            for g, w in ((got.lhs, want.lhs), (got.rhs, want.rhs), (got.tol, want.tol)):
                assert abs(g - scale * w) <= 1e-12 * scale * w, (check, got, want)
            assert got.passed == want.passed, (check, got, want)
        for run in (plain[check], table):
            assert not run.tampered().passed.all(), check


# ---------------------------------------------------------------------------
# embeddings


def test_monotone_embedding_zero_weights_equality(z12):
    coeffs = gs.random_band_limited(1, z12, m=2)
    (record,) = gs.check_monotone_embedding(coeffs, gs.zero_weights(), 1.0, 2.0)
    assert record.passed and abs(record.slack) <= record.tol


def test_monotone_embedding_single_block_values(z4):
    v = np.array([1.0, 1.0, 1.0, 1.0])  # |v| = 2
    coeffs = gs.FourierCoefficients(z4.window, 4, {1: v.reshape(1, 1, 4)})
    weights = gs.weights_from_table({0: 0.0, 1: 1.0, 2: 0.0, 3: 0.0}, z4.window)
    (record,) = gs.check_monotone_embedding(coeffs, weights, 1.0, 2.0)
    assert abs(record.lhs - math.sqrt(2.0) * 2.0) <= 1e-12
    assert abs(record.rhs - 2.0 * 2.0) <= 1e-12
    assert record.passed


def test_monotone_embedding_batches(any_group):
    weights = gs.canonical_weights(any_group)
    for seed in range(20):
        coeffs = gs.random_band_limited(seed, any_group, m=3)
        for s, t in ((0.0, 0.5), (0.5, 1.0), (1.0, 2.0), (1.0, 3.0)):
            (record,) = gs.check_monotone_embedding(coeffs, weights, s, t)
            assert record.passed


def test_monotone_embedding_rejects_bad_orders(z4):
    coeffs = gs.random_band_limited(0, z4, m=1)
    with pytest.raises(ValueError):
        gs.check_monotone_embedding(coeffs, gs.zero_weights(), 2.0, 1.0)


def test_l2_embedding_zero_order_is_equality(su2_2):
    coeffs = gs.random_band_limited(2, su2_2, m=3)
    (record,) = gs.check_l2_embedding(coeffs, gs.canonical_weights(su2_2), 0.0, su2_2)
    assert record.passed and abs(record.slack) <= record.tol


def test_l2_embedding_batches(any_group):
    weights = gs.canonical_weights(any_group)
    for seed in range(20):
        coeffs = gs.random_band_limited(seed, any_group, m=3)
        for s in (0.0, 0.5, 1.0, 2.0):
            (record,) = gs.check_l2_embedding(coeffs, weights, s, any_group)
            assert record.passed


def test_sup_embedding_constant_function(z4, constant):
    coeffs = constant(z4, np.array([2.0, 1.0]))
    (record,) = gs.check_sup_embedding(coeffs, gs.zero_weights(), 1.0, z4)
    assert record.context["constant"] >= 1.0
    assert record.passed


def test_sup_embedding_records_carry_the_constant_verdict(circle16):
    weights = gs.canonical_weights(circle16)
    coeffs = gs.random_band_limited(3, circle16, m=2)
    for s, verdict in ((0.0, "diverging"), (0.5, "diverging"), (2.0, "summable")):
        (record,) = gs.check_sup_embedding(coeffs, weights, s, circle16, context={"batch": 0})
        assert list(record.context) == ["batch", "constant_verdict", "s", "constant"]
        assert record.context["constant_verdict"] == verdict


def test_sup_embedding_batches(any_group):
    weights = gs.canonical_weights(any_group)
    for seed in range(10):
        coeffs = gs.random_band_limited(seed, any_group, m=3)
        for s in (0.0, 1.0, 2.0):
            (record,) = gs.check_sup_embedding(coeffs, weights, s, any_group)
            assert record.passed


def test_hausdorff_young_single_character_equality(circle2):
    v = np.array([1.0, -2.0j])
    coeffs = gs.FourierCoefficients(circle2.window, 2, {1: v.reshape(1, 1, 2)})
    (record,) = gs.check_hausdorff_young(coeffs, circle2, 4.0 / 3.0)
    assert abs(record.lhs - gs.e_norm(v, 2.0)) <= 1e-9
    assert abs(record.rhs - gs.e_norm(v, 2.0)) <= 1e-12
    assert record.passed


def test_hausdorff_young_constant_equality(su2_2, constant):
    (record,) = gs.check_hausdorff_young(constant(su2_2, np.array([1.0, 1.0j])), su2_2, 1.5)
    assert record.passed and abs(record.slack) <= record.tol


def test_hausdorff_young_alpha_validation(z4):
    coeffs = gs.random_band_limited(0, z4, m=1)
    for alpha in (1.0, 2.0, 2.5, 0.5):
        with pytest.raises(ValueError):
            gs.check_hausdorff_young(coeffs, z4, alpha)


def test_hausdorff_young_batches(any_group):
    for seed in range(20):
        coeffs = gs.random_band_limited(seed, any_group, m=3)
        (record,) = gs.check_hausdorff_young(coeffs, any_group, 4.0 / 3.0)
        assert record.passed


def test_lq_embedding_constant_function(z4, constant):
    records = gs.check_lq_embedding(constant(z4, np.array([1.0])), gs.zero_weights(), 1.0, 2.0, z4)
    assert [r.name for r in records] == ["lq_embedding", "lq_embedding_chain"]
    assert all(r.passed for r in records)


def test_lq_embedding_single_block(z4):
    v = np.array([2.0, 1.0j])
    coeffs = gs.FourierCoefficients(z4.window, 2, {1: v.reshape(1, 1, 2)})
    records = gs.check_lq_embedding(coeffs, gs.zero_weights(), 1.0, 2.0, z4)
    assert all(r.passed for r in records)


def test_lq_embedding_records_carry_the_series_verdict(su2_2, circle16, z4):
    cases = [
        (su2_2, 1.0, 2.0, "diverging"),  # sum (2l+1)^3 (1 + l(l+1))^(-t) needs t > 2
        (su2_2, 1.0, 3.0, "summable"),
        (circle16, 0.5, 2.0, "summable"),
        (z4, 1.0, 2.0, "summable"),
    ]
    for group, s, t, verdict in cases:
        weights = gs.canonical_weights(group)
        coeffs = gs.random_band_limited(1, group, m=2)
        records = gs.check_lq_embedding(coeffs, weights, s, t, group)
        assert gs.embedding_constant_C(weights, t, group.window).verdict == verdict
        assert [r.context["constant_verdict"] for r in records] == [verdict, verdict]


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


def test_continuity_modulus_refuses_a_seed_that_is_no_integer():
    for bad in (1.5, "7"):
        with pytest.raises(ValueError, match=f"seed needs an integer, got {re.escape(repr(bad))}$"):
            gs.check_continuity_modulus(gs.make_group("cyclic", n=4), 1, pair_budget=3, seed=bad)


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
        out = [r.passed for r in gs.check_monotone_embedding(c, weights, 1.0, 2.0)]
        out.extend(r.passed for r in gs.check_l2_embedding(c, weights, 1.0, su2_2))
        out.extend(r.passed for r in gs.check_sup_embedding(c, weights, 1.0, su2_2))
        out.extend(r.passed for r in gs.check_hausdorff_young(c, su2_2, 1.5))
        out.extend(r.passed for r in gs.check_lq_embedding(c, weights, 1.0, 2.0, su2_2))
        out.extend(r.passed for r in gs.check_block_comparison(c, 1.0, 2.0))
        return out

    assert verdicts(coeffs) == verdicts(scaled)


# ---------------------------------------------------------------------------
# suite


def test_importing_the_package_leaves_the_harness_unloaded_until_a_name_of_it_is_used(tmp_path):
    script = """
import sys
import groupsobolev as gs
from groupsobolev import cli
out = sys.argv[1]
for argv in (["constants"], ["spectra", "--group", "su2:2"],  # as every command but verify
             ["norms", "--coefficients", out + "/spectra_su2_2.json"]):
    assert cli.main([*argv, "--out", out, "--quiet"]) == 0
    assert "groupsobolev.verify" not in sys.modules, argv
assert {"run_suite", "DEFAULT_CONFIG", "check_lq_embedding", "verify"} <= set(dir(gs))
assert "groupsobolev.verify" not in sys.modules
from groupsobolev import run_suite
assert run_suite is sys.modules["groupsobolev.verify"].run_suite
assert all(getattr(gs, name) is not None for name in gs.__all__)
assert gs.verify.DEFAULT_CONFIG is gs.DEFAULT_CONFIG
"""
    src = str(Path(gs.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gs.no_such_name


def test_each_public_name_is_listed_once_and_the_package_exports_them_all():
    from groupsobolev import _HARNESS, groups, sobolev, transform

    names = [*groups.__all__, *transform.__all__, *sobolev.__all__, *_HARNESS]
    assert len(names) == len(set(names))
    assert gs.__all__ == sorted({*names, "groups", "transform", "sobolev"})
    assert all(hasattr(gs, name) for name in gs.__all__)


def test_run_suite_empty_groups_passes():
    report = gs.run_suite(
        {"groups": [], "vector_checks": 0, "continuity_pairs": 0, "batch_size": 1}
    )
    assert list(report.records) == []
    assert report.all_pass


def test_run_suite_without_groups_runs_the_default_groups():
    report = gs.run_suite(
        {
            "batch_size": 1,
            "vector_checks": 0,
            "continuity_pairs": 0,
            "sup_extra_samples": 0,
            "block_check_stride": 0,
            "s_values": [1.0],
            "st_pairs": [],
        }
    )
    assert report.metadata["config"]["groups"] == gs.DEFAULT_CONFIG["groups"]
    names = {r.group for r in report.records}
    assert names == {"cyclic(12)", "s3", "circle(16)", "su2(2)"}


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


def test_default_run_synthesizes_once_per_group(monkeypatch):
    """Every check of a group shares one synthesis at the nodes. A group
    with a continuum of elements adds one probe, synthesized in slices of
    ``_PROBE_SLICE`` elements; a finite group's nodes are every element, so
    it is not probed. No other evaluation happens off the nodes."""
    off_nodes, at_nodes = [], []
    evaluate, synthesize = gs.GroupSpec.packed_matrices, transform.synthesize

    def counting_evaluation(self, elements):
        if elements is not self.quadrature.nodes:
            off_nodes.append(self.name)
        return evaluate(self, elements)

    def counting_synthesis(coeffs, group, elements=None):
        if elements is None:
            at_nodes.append(group.name)
        return synthesize(coeffs, group, elements)

    monkeypatch.setattr(gs.GroupSpec, "packed_matrices", counting_evaluation)
    monkeypatch.setattr(transform, "synthesize", counting_synthesis)
    report = gs.run_suite({**gs.DEFAULT_CONFIG, "batch_size": 4, "vector_checks": 0})
    names = ["cyclic(12)", "s3", "circle(16)", "su2(2)"]
    slices = -(-gs.DEFAULT_CONFIG["sup_extra_samples"] // sobolev._PROBE_SLICE)
    assert slices == 8
    probed = ["circle(16)", "su2(2)"]
    assert off_nodes == [name for name in probed for _ in range(slices)] and at_nodes == names
    assert report.counts()["sup_embedding"] == 4 * 4 * len(gs.DEFAULT_CONFIG["s_values"])


def test_default_shaped_run_computes_each_norm_once(monkeypatch):
    """The checks of a group share each Sobolev norm per s and each
    Lebesgue lhs per exponent: the H^s norm is computed once per (group, s),
    20 times and not 84, and the L^p norm once per (group, p), 20 times and not 40."""
    h_s, lebesgue = [], []
    sobolev_entries, lebesgue_norm = gs.WeightSequence.sobolev_entries, sobolev._lebesgue

    def counting_sobolev_entries(weights, window, s):  # read once per H^s computation
        h_s.append((window, s))
        return sobolev_entries(weights, window, s)

    def counting_lebesgue(norms, group, p):  # called once per L^p computation
        lebesgue.append((group.name, p))
        return lebesgue_norm(norms, group, p)

    monkeypatch.setattr(gs.WeightSequence, "sobolev_entries", counting_sobolev_entries)
    monkeypatch.setattr(sobolev, "_lebesgue", counting_lebesgue)
    cfg = RunConfig()
    report = gs.run_suite({**gs.DEFAULT_CONFIG, "batch_size": 20, "vector_checks": 0})
    groups = [gs.make_group(dict(spec)) for spec in cfg.groups]
    orders = {*cfg.s_values, *(x for pair in cfg.st_pairs for x in pair)}
    assert set(h_s) == {(g.window, s) for g in groups for s in orders} and len(h_s) == 20
    # Hausdorff-Young's a / (a - 1) and Lq's 2t / (t - s) differ in the last bit at (1, 2)
    params = [gs.exponents(s, t) for s, t in cfg.st_pairs]
    ps = {2.0, *(e.alpha / (e.alpha - 1.0) for e in params), *(e.alpha_prime for e in params)}
    assert sorted(lebesgue) == sorted({(g.name, p) for g in groups for p in ps}) and len(ps) == 5
    assert report.counts()["lq_embedding"] == 20 * len(groups) * len(cfg.st_pairs)


def test_report_text_has_one_record_per_line():
    report = gs.run_suite({**SMALL_CONFIG, "batch_size": 1, "vector_checks": 60})
    report.metadata["generated_at"] = "2026-01-01T00:00:00+00:00"
    text = "".join(report.json_parts())
    assert json.loads(text) == json.loads(dump_json(report.to_json_dict()))
    lines = text.splitlines()
    assert f'    "record_count": {len(report.records)},' in lines
    assert '    "generated_at": "2026-01-01T00:00:00+00:00"' in lines
    start = lines.index('  "records": [')
    assert lines[start + len(report.records) + 1 :] == ["  ]", "}"]
    for line, record in zip(lines[start + 1 :], report.records):
        assert json.loads(line.strip().rstrip(",")) == record.to_dict()
    assert text.endswith("\n") and dump_json(report.to_json_dict()).endswith("\n")


def test_report_text_without_records_is_json():
    report = gs.VerificationReport(RecordTable(), {"package": "groupsobolev"})
    assert json.loads("".join(report.json_parts())) == report.to_json_dict()


def test_report_text_refuses_nan():
    def report(lhs, context):
        return gs.VerificationReport(_table("x", lhs, 1.0, 1e-12, [-1], [context]), {})

    assert json.loads("".join(report(0.5, {"alpha": 1.5}).json_parts()))
    for lhs, context in ((0.5, {"alpha": math.nan}), (math.nan, {}), (math.inf, {})):
        with pytest.raises(ValueError, match="JSON compliant"):
            "".join(report(lhs, context).json_parts())


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


def test_verify_streams_the_csv_by_run(tmp_path, monkeypatch):
    """``cmd_verify`` writes ``csv_parts``, never the whole ``to_csv_text``,
    and the pieces join to it: plain, tampered and for an empty table."""
    def whole_text(self):
        raise AssertionError("the CSV report is built as one string")

    report = gs.run_suite(SMALL_CONFIG)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    monkeypatch.setattr(gs.VerificationReport, "to_csv_text", whole_text)
    assert cli.main(["verify", "--config", str(config), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert (tmp_path / "o" / "verification_report.csv").read_text() == _csv_oracle(report.records)
    monkeypatch.undo()
    for table in (report.records, report.records.tampered(), RecordTable()):
        streamed = gs.VerificationReport(table, {})
        assert "".join(streamed.csv_parts()) == streamed.to_csv_text() == _csv_oracle(table)


def test_report_summary_fields():
    report = gs.run_suite({**SMALL_CONFIG, "batch_size": 1, "vector_checks": 2})
    summary = report.summary()
    assert list(summary) == ["all_pass", "record_count", "failure_count", "min_slack", "records_per_check"]
    assert summary["all_pass"] is True
    assert summary["record_count"] == len(report.records)
    assert set(summary["min_slack"]) == set(summary["records_per_check"])


def test_min_slack_reports_nan():
    for slacks in ([1.0, math.nan, 0.5], [math.nan, 2.0], [0.5, 0.25]):
        table = _table("x", 0.0, slacks, 1e-12, [-1] * len(slacks), [{}] * len(slacks))
        report = gs.VerificationReport(table, {})
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
    assert any("exceeds tol" in p for p in compare(old, nudged)[0])

    # a trivial irrep's continuity records have lhs = rhs = tol = 0: 0/0 counts as 0
    zero = next(i for i, r in enumerate(old["records"]) if r["tol"] == 0.0)
    assert old["records"][zero]["name"] == "continuity_modulus" and stats["continuity_modulus"][1] < 1.0
    nudged = json.loads(dump_json(old))
    nudged["records"][zero]["rhs"] = 5e-324
    assert [p for p in compare(old, nudged)[0] if "exceeds tol 0.0" in p]
    assert compare(old, nudged)[1]["continuity_modulus"][1] == math.inf
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


# ---------------------------------------------------------------------------
# target norms E = l^p_m: the checks through l^2_m carry K = m^|1/p_E - 1/2|


def _hilbert_counterexample(name, z2, z12):
    """Coefficients at p_E = 1 on which the constant-1 Hausdorff-Young bound
    fails: on Z_12 with m = 12, f = sum_k chi_k e_k (lhs 12, constant-1 rhs
    12^(2/3) = 5.24 at alpha = 3/2); on Z_2 with m = 2, f = ((1, 1), (1, -1))
    (lhs 2, constant-1 rhs 2^(2/3) = 1.587)."""
    if name == "cyclic(12)":
        blocks = {label: np.eye(12)[k].reshape(1, 1, 12) for k, label in enumerate(z12.window.labels)}
        return z12, gs.FourierCoefficients(z12.window, 12, blocks, p_E=1.0)
    f = gs.VectorFunction.from_samples(np.array([[1.0, 1.0], [1.0, -1.0]]), p_E=1.0)
    return z2, gs.forward_transform(f, z2)


@pytest.mark.parametrize(
    "name, lhs, plain_rhs",
    [("cyclic(12)", 12.0, 12 ** (2 / 3)), ("cyclic(2)", 2.0, 2 ** (2 / 3))],
    ids=["cyclic(12)", "cyclic(2)"],
)
def test_hausdorff_young_off_l2_needs_the_hilbert_factor(name, lhs, plain_rhs, z2, z12, monkeypatch):
    group, coeffs = _hilbert_counterexample(name, z2, z12)
    check = lambda: gs.check_hausdorff_young(coeffs, group, 1.5)
    (record,) = check()
    assert abs(record.lhs - lhs) <= 1e-12 * lhs
    assert abs(record.rhs - math.sqrt(coeffs.m) * plain_rhs) <= 1e-12 * record.rhs
    assert record.passed
    (tampered,) = check().tampered()
    assert not tampered.passed
    monkeypatch.setattr(verify, "_hilbert_factor", lambda coeffs: 1.0)
    (plain,) = check()
    assert abs(plain.rhs - plain_rhs) <= 1e-12 * plain_rhs and not plain.passed


@pytest.mark.parametrize("name", ["cyclic(12)", "cyclic(2)"])
def test_l2_embedding_attains_the_hilbert_factor(name, z2, z12, monkeypatch):
    # |f(x)|_1 = m everywhere and each coefficient is a unit vector, so
    # lhs = m = sqrt(m) * |f|_(H^0): equality with K = sqrt(m)
    group, coeffs = _hilbert_counterexample(name, z2, z12)
    check = lambda: gs.check_l2_embedding(coeffs, gs.zero_weights(), 0.0, group)
    (record,) = check()
    assert record.passed and abs(record.lhs - coeffs.m) <= 1e-12 * coeffs.m
    assert abs(record.slack) <= record.tol
    (tampered,) = check().tampered()
    assert not tampered.passed
    monkeypatch.setattr(verify, "_hilbert_factor", lambda coeffs: 1.0)
    (plain,) = check()
    assert not plain.passed


def test_lq_embedding_constant_carries_the_hilbert_factor(su2_2):
    coeffs = gs.random_band_limited(4, su2_2, m=3, p_E=1.0)
    weights = gs.canonical_weights(su2_2)
    lq, chain = gs.check_lq_embedding(coeffs, weights, 1.0, 3.0, su2_2)
    factor = 3 ** 0.5
    assert lq.context["constant"] == factor * chain.context["constant"]
    assert chain.context["constant"] == gs.lq_bound_constant(weights, 3.0, 1.0, su2_2.window)
    norm = gs.h_s_norm(coeffs, weights, 1.0)
    assert lq.rhs == lq.context["constant"] * norm and chain.rhs == chain.context["constant"] * norm


@pytest.mark.parametrize("p_E", [1.0, 3.0, "inf"])
def test_suite_passes_for_every_target_norm(p_E):
    report = gs.run_suite({**SMALL_CONFIG, "p_E": p_E})
    counts = report.counts()
    groups, batch = len(SMALL_CONFIG["groups"]), SMALL_CONFIG["batch_size"]
    assert counts["l2_embedding"] == groups * len(RunConfig().s_values) * batch
    assert counts["hausdorff_young"] > 0 and report.all_pass
    assert not gs.run_suite({**SMALL_CONFIG, "p_E": p_E, "tamper": True}).all_pass


def test_block_comparison_matches_per_block_loop(su2_2, s3, su2_1h):
    # s3's blocks hold 1, 1 and 4 entries, su2_1h's 1, 4 and 9: most are zero-padded
    for group in (su2_2, s3, su2_1h):
        coeffs = gs.random_band_limited(3, group, m=2, p_E=3.0)
        for p, q in ((1.0, 2.0), (1.5, 4.0), (1.2, math.inf)):
            records = gs.check_block_comparison(coeffs, p, q)
            assert len(records) == len(group.window.labels)
            for rec, label, d in zip(records, group.window.labels, group.window.dims):
                norms = gs.e_norm(coeffs.block(label), 3.0).reshape(-1)
                lhs = (norms**p).sum() ** (1.0 / p)
                norm_q = norms.max() if math.isinf(q) else (norms**q).sum() ** (1.0 / q)
                rhs = (d * d) ** (1.0 / p - (0.0 if math.isinf(q) else 1.0 / q)) * norm_q
                assert abs(rec.lhs - lhs) <= 1e-12 * lhs and abs(rec.rhs - rhs) <= 1e-12 * rhs


# ---------------------------------------------------------------------------
# batches: one call on B functions gives the records of B single calls


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.name, g.group, g.seed, g.context, g.passed) == (w.name, w.group, w.seed, w.context, w.passed)
        assert abs(g.lhs - w.lhs) <= 1e-12 * abs(w.lhs)
        assert abs(g.rhs - w.rhs) <= 1e-12 * abs(w.rhs)


def _coefficient_check(name, group):
    """One coefficient check with fixed parameters, as f(coeffs, seed=, context=)."""
    weights = gs.canonical_weights(group)
    return {
        "monotone": lambda c, **kw: gs.check_monotone_embedding(
            c, weights, 0.5, 2.0, group=group.name, **kw
        ),
        "l2": lambda c, **kw: gs.check_l2_embedding(c, weights, 1.0, group, **kw),
        "sup": lambda c, **kw: gs.check_sup_embedding(c, weights, 1.0, group, 50, (3, 7, 1), **kw),
        "hausdorff_young": lambda c, **kw: gs.check_hausdorff_young(c, group, 1.5, **kw),
        "lq": lambda c, **kw: gs.check_lq_embedding(c, weights, 1.0, 2.0, group, **kw),
        "block": lambda c, **kw: gs.check_block_comparison(c, 1.2, 3.0, group=group.name, **kw),
    }[name]


@pytest.mark.parametrize("check", ["monotone", "l2", "sup", "hausdorff_young", "lq", "block"])
def test_batch_gives_the_records_of_single_calls(any_group, check):
    run = _coefficient_check(check, any_group)
    seeds = [11, 12, 13, 14, 15]
    contexts = [{"batch": b} for b in range(5)]
    singles = [gs.random_band_limited(fseed, any_group, m=2) for fseed in seeds]
    packed = np.stack([c.packed for c in singles])
    batch = gs.FourierCoefficients(any_group.window, 2, packed=packed)
    want = []
    for coeffs, fseed, ctx in zip(singles, seeds, contexts):
        want += run(coeffs, seed=fseed, context=ctx)
    _assert_same_records(run(batch, seed=seeds, context=contexts), sorted(want, key=BY_NAME))


def test_batch_needs_one_seed_and_context_per_function(z4):
    """Every coefficient check fans a batch out alike: a seed list of another length is
    refused, and a scalar seed and a dict context are shared by every function."""
    batch = gs.FourierCoefficients(z4.window, 1, packed=np.ones((3, 4, 1)))
    for check in ("monotone", "l2", "sup", "hausdorff_young", "lq", "block"):
        run = _coefficient_check(check, z4)
        with pytest.raises(ValueError, match="3 seeds and 3 contexts"):
            run(batch, seed=[1, 2])
        shared = run(batch, seed=9, context={"k": 1})
        assert len(shared) >= 3 and len(shared) % 3 == 0, check
        assert {(r.seed, r.context["k"]) for r in shared} == {(9, 1)}, check


def test_an_empty_batch_gives_no_records(z4, su2_2):
    for group in (z4, su2_2):
        empty = gs.FourierCoefficients(group.window, 2, packed=np.zeros((0, group.window.size, 2)))
        for check in ("monotone", "l2", "sup", "hausdorff_young", "lq", "block"):
            assert len(_coefficient_check(check, group)(empty, seed=[], context=[])) == 0, check


def test_a_batch_refuses_contexts_with_different_key_sets(z4):
    batch = gs.FourierCoefficients(z4.window, 1, packed=np.ones((2, 4, 1)))
    cases = [
        ([{"batch": 0}, {"k": 1}], r"\[\('batch',\), \('k',\)\]"),
        ([{"a": 0, "b": 1}, {"b": 1, "a": 0}], r"\[\('a', 'b'\), \('b', 'a'\)\]"),
        ([{"batch": 0}, {}], r"\[\('batch',\), \(\)\]"),
    ]
    for contexts, key_sets in cases:
        with pytest.raises(ValueError, match="need one key set, got " + key_sets):
            gs.check_hausdorff_young(batch, z4, 1.5, seed=[1, 2], context=contexts)
    with pytest.raises(ValueError, match="need one key set"):
        gs.check_vector_norm_comparison([np.ones(2), np.ones(3)], 1.0, 2.0, context=cases[0][0])


def _suite_one_function_at_a_time(config):
    """The records of run_suite, built by calling the public checks on one
    function at a time in the suite's loop order (parameter, then function)
    and grouped by name, then group, by a stable sort."""
    cfg = RunConfig.from_dict(dict(config))
    records = []
    rng_vec = np.random.default_rng(np.random.SeedSequence((cfg.seed, 101)))
    for idx in range(cfg.vector_checks):
        n = int(rng_vec.integers(1, cfg.vector_max_dim + 1))
        x = rng_vec.standard_normal(n) + 1j * rng_vec.standard_normal(n)
        p = float(1.0 + 3.0 * rng_vec.random())
        q = math.inf if rng_vec.random() < 0.1 else p + float(3.0 * rng_vec.random())
        records += gs.check_vector_norm_comparison(x, p, q, seed=cfg.seed, context={"index": idx})
    s_sorted = sorted(cfg.s_values)
    monotone_pairs = [(a, b) for a, b in zip(s_sorted, s_sorted[1:]) if b > a]
    for s, t in cfg.st_pairs:
        if (s, t) not in monotone_pairs:
            monotone_pairs.append((s, t))
    alphas = []
    for s, t in cfg.st_pairs:
        if gs.exponents(s, t).alpha not in alphas:
            alphas.append(gs.exponents(s, t).alpha)
    pq_pairs = [(1.0, 2.0)] + [(a, 2.0) for a in alphas]

    for gi, gspec in enumerate(cfg.groups):
        group = gs.make_group(dict(gspec))
        weights = resolve_weights(cfg.weights, gi, group)
        budget = max(1, cfg.continuity_pairs // len(group.window.labels))
        for li, label in enumerate(group.window.labels):
            lseed = _derive_seed(cfg.seed, 11, gi, li)
            records += gs.check_continuity_modulus(group, label, budget, seed=lseed)
        fseeds = [_derive_seed(cfg.seed, gi, b) for b in range(cfg.batch_size)]
        functions = [
            (gs.random_band_limited(fseed, group, cfg.m, p_E=cfg.p_E), fseed, b)
            for b, fseed in enumerate(fseeds)
        ]
        for s, t in monotone_pairs:
            for coeffs, fseed, b in functions:
                records += gs.check_monotone_embedding(
                    coeffs, weights, s, t, group=group.name, seed=fseed, context={"batch": b}
                )
        for s in cfg.s_values:
            verdict = gs.embedding_constant_C(weights, s, group.window).verdict
            probe = (cfg.seed, 7, gi)
            extra = cfg.sup_extra_samples
            for coeffs, fseed, b in functions:
                records += gs.check_l2_embedding(
                    coeffs, weights, s, group, seed=fseed, context={"batch": b}
                )
                records += gs.check_sup_embedding(
                    coeffs, weights, s, group, extra, probe, seed=fseed,
                    context={"batch": b, "constant_verdict": verdict},
                )
        for alpha in alphas:
            for coeffs, fseed, b in functions:
                records += gs.check_hausdorff_young(
                    coeffs, group, alpha, seed=fseed, context={"batch": b}
                )
        for s, t in cfg.st_pairs:
            for coeffs, fseed, b in functions:
                records += gs.check_lq_embedding(
                    coeffs, weights, s, t, group, seed=fseed, context={"batch": b}
                )
        for p, q in pq_pairs:
            for coeffs, fseed, b in functions[:: cfg.block_check_stride]:
                records += gs.check_block_comparison(
                    coeffs, p, q, group=group.name, seed=fseed, context={"batch": b}
                )
    return sorted(records, key=REPORT_ORDER)


def test_run_suite_matches_checks_called_one_function_at_a_time():
    config = {**SMALL_CONFIG, "block_check_stride": 2}
    report = gs.run_suite(config)
    _assert_same_records(report.records, _suite_one_function_at_a_time(config))


# ---------------------------------------------------------------------------
# the record table: order, replay, escaping


def test_table_order_matches_the_sort_key_oracle(z4):
    """Records of the suite, tampered and not, and of public checks with
    other context key sets, as built and shuffled into one chunk per record:
    ordered() groups them by name, then group, and keeps each group's
    records in the table's order, across chunks as within one; on the
    suite's table that order is the checks' own (parameter, then batch).
    Contexts with "%" in keys and values included; the JSON lines of them
    all are json.JSONEncoder's."""
    report = gs.run_suite({**SMALL_CONFIG, "vector_checks": 20})
    tampered = gs.run_suite({**SMALL_CONFIG, "vector_checks": 20, "tamper": True})
    weights = gs.canonical_weights(z4)
    seeds = [_derive_seed(SMALL_CONFIG["seed"], 0, b) for b in range(3)]
    singles = [gs.random_band_limited(s, z4, 2) for s in seeds]
    batch = gs.FourierCoefficients(z4.window, 2, packed=np.stack([c.packed for c in singles]))
    contexts = [{"batch": b} for b in range(3)]
    sup = lambda coeffs, s, **kw: gs.check_sup_embedding(coeffs, weights, s, z4, 20, **kw)
    vec = lambda p, q, sizes: gs.check_vector_norm_comparison(
        [np.arange(1.0, n + 1) for n in sizes], p, q, seed=seeds[0], context={"index": 1}
    )
    # "%" in a shared key and value and in a key and values that vary by record
    percent = [{"batch": b, "%k": "5%s", "a%": f"{b}%%"} for b in range(3)]
    mixed_keys = [{"batch": 0}, {"batch": 1, "k": 2}, {"q": 1}]
    tables = [
        report.records,
        tampered.records,
        sup(batch, 1.0, seed=seeds, context=[{"batch": b, "zz": 1} for b in range(3)]),
        sup(batch, 1.0, seed=seeds, context=[{"batch": b, "zz": [0, 2, 0][b]} for b in range(3)]),
        sup(batch, 0.5, seed=seeds, context=[{"a": b, "batch": b} for b in range(3)]),
        # one key set per call: single functions whose contexts differ in their keys
        *(
            sup(one, 2.0, seed=fseed, context=ctx)
            for one, fseed, ctx in zip(singles, seeds, mixed_keys)
        ),
        sup(singles[1], 1.0, seed=seeds[1], context={"batch": 1.0}),
        gs.check_hausdorff_young(batch, z4, 1.5, seed=seeds[0], context={"batch": 0}),
        gs.check_block_comparison(batch, 1.0, 2.0, group=z4.name, seed=seeds, context=contexts),
        gs.check_continuity_modulus(z4, 1, 3, seed=seeds[2], context={"batch": 2}),
        vec([1.5, 1.5, 2.0], [2.0, math.inf, 2.0], [9, 9, 10]),
        vec([1.5, 1.25], [2.5, math.inf], [9, 10]),
        sup(batch, 1.0, seed=seeds, context=percent),
    ]
    table = RecordTable.concat(tables)
    assert list(table.ordered()) == sorted([r for t in tables for r in t], key=REPORT_ORDER)
    rows = list(table)
    random.Random(1).shuffle(rows)
    assert list(_one_chunk_per_record(rows).ordered()) == sorted(rows, key=REPORT_ORDER)
    report_of_all = gs.VerificationReport(table.ordered(), {})
    lines = "".join(report_of_all.json_parts()).splitlines()
    start = lines.index('  "records": [')
    got = [line.strip().rstrip(",") for line in lines[start + 1 : start + 1 + len(table)]]
    assert got == [json.JSONEncoder().encode(r.to_dict()) for r in report_of_all.records]
    for run in (report, tampered):
        assert list(run.records) == sorted(run.records, key=REPORT_ORDER)
        sup_s3 = [(r.context["s"], r.context["batch"]) for r in run.records
                  if r.name == "sup_embedding" and r.group == "s3"]
        batches = range(SMALL_CONFIG["batch_size"])
        assert sup_s3 == [(s, b) for s in RunConfig().s_values for b in batches]


def test_indexing_finds_the_record_that_iteration_gives(z4):
    """table[i] is list(table)[i] for every i from -len to len - 1, so at
    every chunk boundary, with an empty batch among the parts (its table
    holds no chunk); one past either end is an IndexError."""
    weights = gs.canonical_weights(z4)
    batch = gs.random_band_limited([3, 4], z4, 2)
    empty = gs.FourierCoefficients(z4.window, 2, packed=np.zeros((0, z4.window.size, 2)))
    lq = lambda coeffs, seeds: gs.check_lq_embedding(coeffs, weights, 1.0, 2.0, z4, seed=seeds)
    parts = [
        gs.check_hausdorff_young(batch, z4, 1.5, seed=[3, 4]),
        lq(empty, []),
        lq(batch, [3, 4]),
        gs.check_vector_norm_comparison([np.ones(1)], 1.0, 2.0),
    ]
    assert parts[1].chunks == []
    table = RecordTable.concat(parts)
    records, n = list(table), len(table)
    assert (n, len(table.chunks)) == (8, 5) and len(records) == n
    assert [table[i] for i in range(-n, n)] == records * 2
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            table[i]
    with pytest.raises(IndexError):
        RecordTable()[0]


def test_numpy_integer_seeds_are_written_as_python_ints():
    table = gs.check_vector_norm_comparison([np.ones(2)] * 2, 1.0, 2.0, seed=np.arange(2))
    assert [(type(r.seed), r.seed) for r in table] == [(int, 0), (int, 1)] * 2
    report = gs.VerificationReport(table, {})
    assert [r["seed"] for r in json.loads("".join(report.json_parts()))["records"]] == [0, 1, 0, 1]
    assert report.to_csv_text().splitlines()[1].split(",")[2] == "0"
    for bad in (1.5, "7", None, np.float64(2.0)):
        with pytest.raises(ValueError, match=f"seed needs an integer, got {re.escape(repr(bad))}$"):
            gs.check_vector_norm_comparison(np.ones(2), 1.0, 2.0, seed=bad)


@pytest.mark.parametrize("check", ["monotone", "l2", "sup", "hausdorff_young", "lq", "block"])
@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "cyclic", "n": 12},
        {"kind": "s3"},
        {"kind": "circle", "band": 16},
        {"kind": "su2", "band": 2},
    ],
)
def test_one_function_replays_its_batch_records_bit_for_bit(spec, check):
    group = gs.make_group(dict(spec))
    run = _coefficient_check(check, group)
    singles = [gs.random_band_limited(fseed, group, m=3) for fseed in range(20)]
    batch = gs.FourierCoefficients(group.window, 3, packed=np.stack([c.packed for c in singles]))
    table = run(batch, seed=list(range(20)), context=[{"batch": b} for b in range(20)])
    for b, coeffs in enumerate(singles):
        replayed = run(coeffs, seed=b, context={"batch": b})
        batched = [r for r in table if r.context["batch"] == b]
        assert [(r.lhs, r.rhs) for r in replayed] == [(r.lhs, r.rhs) for r in batched]


@pytest.mark.parametrize("p_E", [2.0, 1.0, "inf"])
@pytest.mark.parametrize("spec", [{"kind": "circle", "band": 16}, {"kind": "su2", "band": 2}])
def test_sup_records_of_a_default_size_batch_replay_bit_for_bit(spec, p_E):
    """The sup probe synthesizes a batch of 200, the default run's, in one
    product per slice of elements; each function alone gets the same lhs and
    rhs, bit for bit, and the probe, not the nodes, sets some of them."""
    group, p_E = gs.make_group(dict(spec)), float(p_E)
    weights = gs.canonical_weights(group)
    singles = [gs.random_band_limited(fseed, group, 3, p_E) for fseed in range(200)]
    packed = np.stack([c.packed for c in singles])
    batch = gs.FourierCoefficients(group.window, 3, p_E=p_E, packed=packed)

    def run(coeffs, seed):
        return gs.check_sup_embedding(coeffs, weights, 1.0, group, 1000, (1729, 7, 0), seed=seed)

    table = run(batch, list(range(200)))
    assert (np.array([r.lhs for r in table]) > sobolev.probed_sup(batch, group)).any()
    for b, coeffs in enumerate(singles):
        (replayed,) = run(coeffs, b)
        assert (replayed.lhs, replayed.rhs) == (table[b].lhs, table[b].rhs), b


def _rendered(table) -> tuple[list, str]:
    """The JSON record lines and the CSV text of a report of ``table``."""
    report = gs.VerificationReport(table, {})
    lines = "".join(report.json_parts()).splitlines()
    start = lines.index('  "records": [')
    assert lines[start + 1 + len(table) :] == ["  ]", "}"]
    return [line.strip().rstrip(",") for line in lines[start + 1 : -2]], report.to_csv_text()


def _csv_oracle(records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        floats = [repr(v) for v in (r.lhs, r.rhs, r.slack, r.tol)]
        writer.writerow([r.name, r.group, r.seed, *floats, str(r.passed).lower()])
    return buf.getvalue()


def test_reports_render_rows_in_any_order_as_the_per_record_oracle(z4):
    """Both renderers write a table chunk by chunk; as built, and with the
    records shuffled into one chunk each, every record reads as
    json.JSONEncoder and csv.writer write it alone."""
    weights = gs.canonical_weights(z4)
    batch = gs.random_band_limited([3, 4, 5], z4, 2)
    values = [(0.1, 1, 2.5), (-0.0, 2.0, "inf"), (1e300, 3, 5e-324)]
    contexts = [{"x": x, "mixed": m, "flag": x < 0, "q": q} for x, m, q in values]
    table = RecordTable.concat([
        gs.run_suite({**SMALL_CONFIG, "vector_checks": 10}).records,
        gs.check_sup_embedding(batch, weights, 1.0, z4, 20, seed=[3, 4, 5], context=contexts),
        gs.check_block_comparison(batch, 1.0, 2.0, group=z4.name, seed=7, context={"r": 0.25}),
    ])
    shuffled = list(table)
    random.Random(0).shuffle(shuffled)
    orders = {"as built": table, "one chunk per record": _one_chunk_per_record(shuffled)}
    for order, rows in orders.items():
        json_lines, csv_text = _rendered(rows)
        assert json_lines == [json.JSONEncoder().encode(r.to_dict()) for r in rows], order
        assert csv_text == _csv_oracle(rows), order
    for empty in (RecordTable(), gs.check_vector_norm_comparison([], 1.0, 2.0)):
        report = gs.VerificationReport(empty, {})
        assert json.loads("".join(report.json_parts())) == report.to_json_dict()
        assert report.to_csv_text() == _csv_oracle([])
    # a NaN or inf among a column's finite floats is still refused
    for bad in (math.nan, math.inf):
        refused = _table("x", 0.5, 1.0, 1e-12, [1, 2, 3], [{"a": 1.5}, {"a": bad}, {"a": 2.5}])
        with pytest.raises(ValueError, match="JSON compliant"):
            "".join(gs.VerificationReport(refused, {}).json_parts())
        kept = [_table("x", 0.5, 1.0, 1e-12, [s], [{"a": a}]) for s, a in ((1, 1.5), (3, 2.5))]
        assert _rendered(RecordTable.concat(kept))[0][1].endswith('"context": {"a": 2.5}}')
        assert gs.VerificationReport(refused, {}).to_csv_text() == _csv_oracle(refused)


def test_a_vector_batch_texts_the_contexts_of_each_pair_once(monkeypatch):
    """The two chunks of a vector batch share their context columns, so the
    JSON report texts them once; a tampered table shares nothing and texts
    each chunk. Both render as json.dumps writes each record."""
    vectors = [np.arange(1.0, n + 1) for n in (1, 2, 3, 2)]
    contexts = [{"index": i, "tag": "x"} for i in range(4)]
    table = gs.check_vector_norm_comparison(
        vectors, [1.0, 1.5, 2.0, 3.0], [2.0, 2.0, math.inf, 3.0], seed=5, context=contexts
    )
    calls, texts = [], verify._Chunk.texts
    monkeypatch.setattr(verify._Chunk, "texts", lambda c, *a: calls.append(c.name) or texts(c, *a))
    for rows in (table, table.tampered()):
        assert _rendered(rows)[0] == [json.dumps(r.to_dict()) for r in rows]
    assert calls == ["vector_norm_decreasing"] * 2 + ["vector_norm_dimension_bound"]


def test_a_context_column_keeps_the_text_of_each_value_apart_from_its_equals():
    """0.0 == -0.0 and 1 == True == 1.0, but each keeps its own text in a
    context column, with floats among the values and without; a repeated
    label reads alike. Both render as json.dumps writes each record."""
    values = [0.0, -0.0, 1, True, 1.0, "label", "label", 1, True, -0.0]
    for column in (values, [v for v in values if type(v) is not float]):
        table = _table("x", 0.5, 1.0, 1e-12, range(len(column)), [{"v": v} for v in column])
        assert _rendered(table)[0] == [json.dumps(r.to_dict()) for r in table]


def test_a_suite_report_texts_the_batch_column_of_each_group_once(monkeypatch):
    """run_suite hands every check of a group one batch column, and a report
    texts each column object once, however many chunks hold it."""
    config = {**SMALL_CONFIG, "groups": SMALL_CONFIG["groups"][2:], "vector_checks": 3}
    report = gs.run_suite(config)
    texted, texts = [], verify._texts
    monkeypatch.setattr(verify, "_texts", lambda v, encode: texted.append(id(v)) or texts(v, encode))
    "".join(report.json_parts())
    batch = {}  # group -> ids of the batch columns of its chunks, the strided block ones aside
    for c in report.records.chunks:
        if "batch" in c.columns and c.name != "block_norm_comparison":
            batch.setdefault(c.group, set()).add(id(c.columns["batch"]))
    assert sorted(map(len, batch.values())) == [1, 1]
    assert [texted.count(i) for ids in batch.values() for i in ids] == [1, 1]
    assert len(texted) == len(set(texted))


def test_reports_escape_a_group_name_as_csv_and_json_do():
    name = 'Z2, "odd" \u2202'
    source = {
        "name": name,
        "order": 2,
        "mult_table": [[0, 1], [1, 0]],
        "irreps": [{"label": "sign", "dim": 1, "matrices": [[[[1.0, 0.0]]], [[[-1.0, 0.0]]]]}],
    }
    config = {**SMALL_CONFIG, "groups": [{"kind": "custom", "source": source}], "vector_checks": 3}
    report = gs.run_suite(config)
    assert {r.group for r in report.records} == {name, "-"}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.records:
        floats = [repr(v) for v in (r.lhs, r.rhs, r.slack, r.tol)]
        writer.writerow([r.name, r.group, r.seed, *floats, str(r.passed).lower()])
    assert report.to_csv_text() == buf.getvalue()
    assert '"Z2, ""odd"" \u2202"' in buf.getvalue()
    lines = "".join(report.json_parts()).splitlines()
    start = lines.index('  "records": [')
    got = [line.strip().rstrip(",") for line in lines[start + 1 : start + 1 + len(report.records)]]
    assert got == [json.JSONEncoder().encode(r.to_dict()) for r in report.records]
    assert any("\\u2202" in line for line in got)


def test_a_seed_beyond_64_bits_reaches_the_vector_records():
    seed = 2**70
    config = {**SMALL_CONFIG, "groups": [], "seed": seed, "vector_checks": 5}
    report = gs.run_suite(config)
    assert len(report.records) == 10 and all(r.seed == seed for r in report.records)
    assert "".join(report.json_parts()).count(f'"seed": {seed}, ') == 10
    assert report.to_csv_text().count(f",{seed},") == 10


def test_a_seed_of_three_words_seeds_every_function_and_label_as_numpy_does():
    seed = 2**64 + 1  # (seed, gi, b) is five entropy words, (seed, 11, gi, li) six
    report = gs.run_suite({**SMALL_CONFIG, "seed": seed, "vector_checks": 5})
    want = {}
    for gi, spec in enumerate(SMALL_CONFIG["groups"]):
        group = gs.make_group(dict(spec))
        want |= {(group.name, b): _derive_seed(seed, gi, b) for b in range(3)}
        want |= {(group.name, transform.label_key(label)): _derive_seed(seed, 11, gi, li)
                 for li, label in enumerate(group.window.labels)}
    got = {(r.group, r.context["block"] if r.name == "continuity_modulus" else r.context["batch"]): r.seed
           for r in report.records if r.group != "-"}
    assert got == want
