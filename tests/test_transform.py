import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupsobolev as gs
from groupsobolev import transform
from groupsobolev.groups import ORTHOGONALITY_TOL, _little_d_matrix, _su2_axes
from groupsobolev.transform import (
    _entry_norms,
    _node_norms,
    atomic_write_text,
    coefficients_from_json,
    coefficients_to_json,
    dump_json,
    e_norm,
    node_samples,
    window_from_json,
)
from groupsobolev.sobolev import probed_sup
from groupsobolev.verify import QUADRATURE_TOL


# ---------------------------------------------------------------------------
# independent oracles, written before wiring them to the library


def z2_two_point_transform(f0, f1):
    """Hand 2-point transform on Z_2: averages against the two characters."""
    return (f0 + f1) / 2.0, (f0 - f1) / 2.0


def z4_brute_force(samples):
    """Plain 4-point sums against conj of the characters of Z_4."""
    out = []
    for k in range(4):
        acc = 0.0
        for x in range(4):
            acc += np.exp(-2j * math.pi * k * x / 4.0) * samples[x]
        out.append(acc / 4.0)
    return out


# frozen output of z4_brute_force on this input, computed by hand
Z4_INPUT = np.array([1.0 + 0.0j, 2.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j])
Z4_COEFFS = np.array([0.5 + 0.25j, 0.25 - 1.0j, 0.0 + 0.25j, 0.25 + 0.5j])


def test_z4_oracle_reproduces_frozen_values():
    got = z4_brute_force(Z4_INPUT)
    assert np.abs(np.array(got) - Z4_COEFFS).max() <= 1e-15


def test_forward_matches_z4_oracle(z4):
    f = gs.VectorFunction.from_samples(Z4_INPUT)
    coeffs = gs.forward_transform(f, z4)
    for k in range(4):
        assert abs(coeffs.block(k)[0, 0, 0] - Z4_COEFFS[k]) <= 1e-15
    rng = np.random.default_rng(1)
    other = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    coeffs = gs.forward_transform(gs.VectorFunction.from_samples(other), z4)
    oracle = z4_brute_force(other)
    for k in range(4):
        assert abs(coeffs.block(k)[0, 0, 0] - oracle[k]) <= 1e-14


def test_forward_matches_z2_hand_transform(z2):
    rng = np.random.default_rng(2)
    for m in (1, 3):
        samples = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
        coeffs = gs.forward_transform(gs.VectorFunction.from_samples(samples), z2)
        c0, c1 = z2_two_point_transform(samples[0], samples[1])
        assert np.abs(coeffs.block(0)[0, 0] - c0).max() <= 1e-15
        assert np.abs(coeffs.block(1)[0, 0] - c1).max() <= 1e-15


# ---------------------------------------------------------------------------
# worked forward examples


def test_constant_function_pairs_with_trivial_only(z4):
    v = np.array([1.0, 2.0j])
    samples = np.tile(v, (4, 1))
    coeffs = gs.forward_transform(gs.VectorFunction.from_samples(samples), z4)
    assert np.abs(coeffs.block(0)[0, 0] - v).max() <= 1e-15
    for k in (1, 2, 3):
        assert np.abs(coeffs.block(k)).max() <= 1e-15


def test_forward_character_times_vector(z4):
    v = np.array([1.0 + 1.0j, -2.0])
    x = np.arange(4)
    samples = np.exp(2j * math.pi * x / 4)[:, None] * v[None, :]
    coeffs = gs.forward_transform(gs.VectorFunction.from_samples(samples), z4)
    assert np.abs(coeffs.block(1)[0, 0] - v).max() <= 1e-14
    for k in (0, 2, 3):
        assert np.abs(coeffs.block(k)).max() <= 1e-14


def test_forward_su2_matrix_coefficient(su2_1h):
    # f = u_{1,1} of the spin-1/2 block times v; its only nonzero
    # coefficient is that entry, scaled by 1/d = 1/2.
    v = np.array([2.0, 1.0j, -1.0])
    u11 = su2_1h.irrep_matrices(0.5, su2_1h.quadrature.nodes)[:, 0, 0]
    samples = u11[:, None] * v[None, :]
    coeffs = gs.forward_transform(gs.VectorFunction.from_samples(samples), su2_1h)
    block = coeffs.block(0.5)
    assert np.abs(block[0, 0] - v / 2.0).max() <= 1e-12
    zeroed = block.copy()
    zeroed[0, 0] = 0.0
    assert np.abs(zeroed).max() <= 1e-12
    for label in (0.0, 1.0):
        assert np.abs(coeffs.block(label)).max() <= 1e-12


# ---------------------------------------------------------------------------
# inversion


def test_inverse_of_zero_is_zero(z4):
    assert np.abs(gs.synthesize(gs.FourierCoefficients(z4.window, 2), z4)).max() == 0.0


def test_inverse_single_block_is_character(z4):
    v = np.array([3.0, -1.0j])
    coeffs = gs.FourierCoefficients(z4.window, 2, {1: v.reshape(1, 1, 2)})
    x = np.arange(4)
    expected = np.exp(2j * math.pi * x / 4)[:, None] * v[None, :]
    assert np.abs(gs.synthesize(coeffs, z4) - expected).max() <= 1e-14


def test_round_trip_band_limited(any_group):
    for seed in range(5):
        coeffs = gs.random_band_limited(seed, any_group, m=3)
        samples = gs.synthesize(coeffs, any_group)
        back = gs.forward_transform(gs.VectorFunction.from_samples(samples), any_group)
        resampled = gs.synthesize(back, any_group)
        sup = gs.e_norm(samples, 2.0).max()
        assert np.abs(resampled - samples).max() <= 1e-9 * (1.0 + sup)
        assert np.abs(coeffs.packed - back.packed).max() <= 1e-9 * (1.0 + np.abs(coeffs.packed).max())


def test_plancherel(any_group):
    for seed in range(5):
        coeffs = gs.random_band_limited(seed, any_group, m=3)
        samples = gs.synthesize(coeffs, any_group)
        l2 = math.sqrt(float((any_group.quadrature.weights * gs.e_norm(samples, 2.0) ** 2).sum()))
        assert abs(gs.s_p_norm(coeffs, 2.0) - l2) <= 1e-9 * (1.0 + l2)


def test_linearity(any_group):
    rng = np.random.default_rng(9)
    n = any_group.node_count
    f = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    h = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    a, b = 1.7 - 0.3j, -2.2 + 1.1j
    combo = gs.forward_transform(gs.VectorFunction.from_samples(a * f + b * h), any_group)
    parts = a * gs.forward_transform(gs.VectorFunction.from_samples(f), any_group) + b * gs.forward_transform(
        gs.VectorFunction.from_samples(h), any_group
    )
    scale = max(np.abs(combo.packed).max(), 1.0)
    assert np.abs(combo.packed - parts.packed).max() <= 1e-12 * scale


def test_zero_function_maps_to_exact_zero(z12):
    samples = np.zeros((z12.node_count, 3), dtype=complex)
    coeffs = gs.forward_transform(gs.VectorFunction.from_samples(samples), z12)
    for k in z12.window.labels:
        assert np.abs(coeffs.block(k)).max() == 0.0


def test_synthesize_window_mismatch(z4, z12):
    coeffs = gs.random_band_limited(0, z4, m=1)
    with pytest.raises(ValueError):
        gs.synthesize(coeffs, z12)
    with pytest.raises(ValueError):
        gs.synthesize(coeffs, z12, elements=[0, 1])


# ---------------------------------------------------------------------------
# properties over random groups and bands

GROUP_SPECS = st.one_of(
    st.integers(1, 64).map(lambda n: ("cyclic", n, False)),
    st.integers(0, 64).map(lambda band: ("circle", band, False)),
    st.integers(0, 3).map(lambda band: ("su2", band, False)),
    st.integers(0, 6).map(lambda k: ("su2", k / 2, True)),
)


@functools.lru_cache(maxsize=32)
def group_of(kind, size, half):
    if kind == "cyclic":
        return gs.make_group(kind, n=size)
    if kind == "circle":
        return gs.make_group(kind, band=size)
    return gs.make_group(kind, band=size, half_integers=half)


@settings(max_examples=15, deadline=None)
@given(spec=GROUP_SPECS, seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3))
def test_round_trip_and_plancherel_property(spec, seed, m):
    group = group_of(*spec)
    coeffs = gs.random_band_limited(seed, group, m=m)
    samples = gs.synthesize(coeffs, group)
    back = gs.forward_transform(gs.VectorFunction.from_samples(samples), group)
    assert np.abs(coeffs.packed - back.packed).max() <= QUADRATURE_TOL * (1.0 + np.abs(coeffs.packed).max())
    l2 = math.sqrt(float((group.quadrature.weights * gs.e_norm(samples, 2.0) ** 2).sum()))
    assert abs(gs.s_p_norm(coeffs, 2.0) - l2) <= QUADRATURE_TOL * (1.0 + l2)


@settings(max_examples=15, deadline=None)
@given(spec=GROUP_SPECS)
def test_orthogonality_selftest_property(spec):
    report = gs.orthogonality_selftest(group_of(*spec))
    assert report.passed and report.max_deviation <= ORTHOGONALITY_TOL


# ---------------------------------------------------------------------------
# spectral norms


def test_s_p_norm_single_entry_trivial_block(z4):
    v = np.array([3.0, 4.0])  # |v|_2 = 5
    coeffs = gs.FourierCoefficients(z4.window, 2, {0: v.reshape(1, 1, 2)})
    assert abs(gs.s_p_norm(coeffs, 2.0) - 5.0) <= 1e-12
    assert abs(gs.s_p_norm(coeffs, 1.0) - 5.0) <= 1e-12


def test_s_p_norm_dimension_weight(su2_2):
    v = np.array([3.0, 4.0])
    block = np.zeros((3, 3, 2), dtype=complex)
    block[1, 2] = v
    coeffs = gs.FourierCoefficients(su2_2.window, 2, {1.0: block})
    assert abs(gs.s_p_norm(coeffs, 2.0) - math.sqrt(3.0) * 5.0) <= 1e-12
    assert abs(gs.s_p_norm(coeffs, math.inf) - 5.0) <= 1e-12


def test_s_p_norm_rejects_small_p(z4):
    coeffs = gs.random_band_limited(0, z4, m=1)
    with pytest.raises(ValueError):
        gs.s_p_norm(coeffs, 0.5)


@settings(max_examples=40, deadline=None)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    p=st.floats(min_value=1.0, max_value=6.0),
    seed=st.integers(min_value=0, max_value=50),
)
def test_s_p_norm_homogeneous(scale, p, seed):
    group = gs.make_group("cyclic", n=6)
    coeffs = gs.random_band_limited(seed, group, m=2)
    lhs = gs.s_p_norm(scale * coeffs, p)
    rhs = scale * gs.s_p_norm(coeffs, p)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)


# ---------------------------------------------------------------------------
# random coefficients


def test_random_band_limited_deterministic(su2_2):
    a = gs.random_band_limited(123, su2_2, m=3)
    b = gs.random_band_limited(123, su2_2, m=3)
    assert np.array_equal(a.packed, b.packed)
    c = gs.random_band_limited(124, su2_2, m=3)
    assert not np.array_equal(a.packed, c.packed)


#: sha256 of random_band_limited(2024, group, 3).packed.tobytes() as drawn
#: label by label, two standard_normal calls per block. The single draw of
#: 2 K m normals must reproduce that stream bit for bit.
STREAM_DIGESTS = {
    "cyclic(12)": "c15a085dbd2cd3a78d72cffcf73b779f51b00b6f913ec17fd51be031e87a4429",
    "circle(16)": "228c2eb320ab0a7e16649f72d4f26ad559fd354bbbde2cafe6b9bd656b1e3a37",
    "su2(2)": "527265828886eb1ecaf062ee5a918a9ad54ad85ce8b84b3d43b6005c546f4177",
    "su2(1.5,half)": "42c689e62a03ce7389ff53ac59a28d5e2d06d9ece83835b05e0a17165709b0d5",
}
DRAW_SPECS = [
    {"kind": "cyclic", "n": 12},
    {"kind": "circle", "band": 16},
    {"kind": "su2", "band": 2},
    {"kind": "su2", "band": 1.5, "half_integers": True},
]


@pytest.mark.parametrize("spec", DRAW_SPECS)
@pytest.mark.parametrize("law", ["gaussian"])  # the draws' one law, named in the ids
def test_random_band_limited_stream_is_pinned(spec, law):
    group = gs.make_group(spec)
    coeffs = gs.random_band_limited(2024, group, 3)
    assert hashlib.sha256(coeffs.packed.tobytes()).hexdigest() == STREAM_DIGESTS[group.name]


def test_random_band_limited_reads_each_block_row_major_real_then_imaginary(su2_2):
    m = 2
    coeffs = gs.random_band_limited(9, su2_2, m)
    normals = np.random.default_rng(9).standard_normal(2 * su2_2.window.size * m)
    start = 0
    for label, d in zip(su2_2.window.labels, su2_2.window.dims):
        real, imag = normals[start : start + 2 * d * d * m].reshape(2, d, d, m)
        assert np.array_equal(coeffs.block(label), real + 1j * imag)
        start += 2 * d * d * m


@pytest.mark.parametrize("spec", DRAW_SPECS)
@pytest.mark.parametrize("law", ["gaussian"])
def test_random_band_limited_batch_stacks_the_single_draws_bit_for_bit(spec, law):
    group, seeds = gs.make_group(spec), [2024, 0, 2**63 + 5, 2024]
    draw = functools.partial(gs.random_band_limited, group=group, m=3, p_E=1.0)
    batch = draw(seeds)
    assert batch.packed.flags.c_contiguous and batch.p_E == 1.0
    assert batch.packed.tobytes() == np.stack([draw(seed).packed for seed in seeds]).tobytes()
    assert draw(np.array(seeds[:1])).packed.shape == (1, group.window.size, 3)


def _default_rng_draw(seed, group, m):
    """The oracle of a draw: numpy's default_rng(seed) normals, read block by block, each
    block's real parts first, then its imaginary ones."""
    normals = np.random.default_rng(seed).standard_normal(2 * group.window.size * m)
    blocks, start = {}, 0
    for label, d in zip(group.window.labels, group.window.dims):
        real, imag = normals[start : start + 2 * d * d * m].reshape(2, d, d, m)
        blocks[label], start = real + 1j * imag, start + 2 * d * d * m
    return gs.FourierCoefficients(group.window, m, blocks).packed


def test_seed_words_equal_numpy_seed_sequence_states():
    rng = np.random.default_rng(0)
    sizes = rng.integers(1, 8, 2000)
    rows = [rng.integers(0, 2**32, k, dtype=np.uint32) for k in sizes]
    for i, row in enumerate(rows[:600]):  # the extreme words, at every position
        row[i % len(row)] = [0, 2**32 - 1][i % 2]
    for n in (1, 8):
        want = np.array([np.random.SeedSequence(row).generate_state(n) for row in rows])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the uint32 arithmetic wraps without a warning
            for k in range(1, 8):  # an (N, k) uint32 array
                at = np.flatnonzero(sizes == k)
                got = transform._seed_words(np.array([rows[i] for i in at]), n)
                assert got.dtype == np.uint32 and np.array_equal(got, want[at])
            # tuples of Python ints of every length in one call
            assert np.array_equal(transform._seed_words([tuple(row.tolist()) for row in rows], n), want)


# seeds of 1, 2 and 3 words; numpy integers and a bool are read as the ints they hold
WIDE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**70, np.int64(5), np.uint64(7), np.int8(3), True]


def test_random_band_limited_equals_default_rng_draws_at_every_seed_width(su2_2):
    want = [_default_rng_draw(seed, su2_2, 2) for seed in WIDE_SEEDS]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, packed in zip(WIDE_SEEDS, want):
            assert gs.random_band_limited(seed, su2_2, 2).packed.tobytes() == packed.tobytes()
        batch = gs.random_band_limited(WIDE_SEEDS, su2_2, 2)  # every width in one batch
    assert batch.packed.tobytes() == np.stack(want).tobytes()


@pytest.mark.parametrize("seed", [1.5, "7", -1, [3, -1], [0, 2.0], None])
def test_random_band_limited_refuses_a_seed_that_is_no_non_negative_integer(z4, seed):
    bad = seed[-1] if isinstance(seed, list) else seed
    with pytest.raises(ValueError, match=re.escape(f"non-negative integer, got {bad!r}")):
        gs.random_band_limited(seed, z4, 2)


def test_numpy_random_is_loaded_by_the_first_draw_not_by_import_or_group_builds():
    script = """
import sys
import groupsobolev as gs
from groupsobolev.config import DEFAULT_CONFIG
groups = [gs.make_group(dict(spec)) for spec in DEFAULT_CONFIG["groups"]]
assert "numpy.random" not in sys.modules
gs.random_band_limited(1, groups[0], 2)
assert "numpy.random" in sys.modules
"""
    src = str(Path(gs.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# kept node samples and probes


def test_packed_is_a_read_only_copy_of_the_callers_array(su2_2):
    mine = gs.random_band_limited(4, su2_2, m=2).packed.copy()
    coeffs = gs.FourierCoefficients(su2_2.window, 2, packed=mine)
    assert not np.shares_memory(coeffs.packed, mine) and mine.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        coeffs.packed[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        coeffs.block(1.0)[0, 0] = 1.0


def test_node_samples_are_kept_read_only_and_never_stale(any_group):
    mine = gs.random_band_limited(5, any_group, m=3).packed.copy()
    coeffs = gs.FourierCoefficients(any_group.window, 3, packed=mine)
    samples = node_samples(coeffs, any_group)
    assert not samples.flags.writeable
    fresh = _synthesize_by_label(coeffs, any_group)
    assert np.abs(samples - fresh).max() <= 1e-12 * (1.0 + float(np.abs(fresh).max()))
    direct = gs.synthesize(coeffs, any_group)
    assert np.array_equal(samples, direct)
    mine[...] = 0.0  # the caller's array is not the coefficients' own
    again = node_samples(coeffs, any_group)
    assert again is samples and np.array_equal(again, direct)
    assert gs.synthesize(coeffs, any_group).flags.writeable  # synthesize returns a new array


def test_entry_and_node_norms_are_kept_read_only(any_group):
    coeffs = gs.random_band_limited([1, 2, 3], any_group, m=3, p_E=3.0)
    entries, nodes = _entry_norms(coeffs), _node_norms(coeffs, any_group)
    computed = (e_norm(coeffs.packed, 3.0), e_norm(node_samples(coeffs, any_group), 3.0))
    for kept, direct in zip((entries, nodes), computed):
        assert np.array_equal(kept, direct) and not kept.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 0] = 1.0
    assert _entry_norms(coeffs) is entries and _node_norms(coeffs, any_group) is nodes


@pytest.mark.parametrize("p_E", [2.0, 1.0, 3.0, math.inf])
@pytest.mark.parametrize("name", ["z12", "s3", "circle16", "su2_2", "su2_1h"])
def test_node_norms_of_a_batch_in_slices_keep_every_bit(name, p_E, request, monkeypatch):
    """A batch of 70 is synthesized in three slices of at most 32 functions'
    samples, and each function's node norms are bit-equal to those of one
    synthesis of the whole batch; no samples are kept. An empty batch and a
    single function go through whole, and a function above the slice size
    is a slice of its own."""
    group, slices, synthesize = request.getfixturevalue(name), [], transform.synthesize

    def counted(coeffs, group):
        slices.append(len(coeffs.packed))
        return synthesize(coeffs, group)

    monkeypatch.setattr(transform, "_NODE_SLICE_BYTES", 32 * group.node_count * 3 * 16)
    monkeypatch.setattr(transform, "synthesize", counted)
    batch = gs.random_band_limited(list(range(70)), group, m=3, p_E=p_E)
    norms = _node_norms(batch, group)
    assert slices == [32, 32, 6]
    assert np.array_equal(norms, e_norm(synthesize(batch, group), p_E))
    assert norms.shape == (70, group.node_count) and ("samples", group) not in batch._memo
    empty = gs.random_band_limited([], group, m=3, p_E=p_E)
    assert _node_norms(empty, group).shape == (0, group.node_count)
    single = gs.random_band_limited(69, group, m=3, p_E=p_E)
    assert np.array_equal(_node_norms(single, group), e_norm(gs.synthesize(single, group), p_E))
    assert np.array_equal(_node_norms(single, group), norms[69])
    monkeypatch.setattr(transform, "_NODE_SLICE_BYTES", 1)  # below one function's samples
    slices.clear()
    assert np.array_equal(_node_norms(gs.random_band_limited([0, 1, 2], group, m=3, p_E=p_E), group), norms[:3])
    assert slices == [1, 1, 1]


def test_lebesgue_norm_of_a_batch_holds_no_sample_batch(su2_4):
    """The L^2 norm of a fresh batch of 200 on su2(4) peaks below the size of
    its (200, nodes, 3) complex samples, which it never holds at once."""
    batch = gs.random_band_limited(list(range(200)), su2_4, m=3)
    sample_batch = 200 * su2_4.node_count * 3 * 16
    tracemalloc.start()
    try:
        gs.lebesgue_norm(batch, su2_4, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sample_batch


def test_node_samples_are_kept_per_group(z12):
    other = gs.make_group("cyclic", n=12)  # the same window, a different group object
    coeffs = gs.random_band_limited(6, z12, m=2)
    assert node_samples(coeffs, other) is not node_samples(coeffs, z12)
    assert np.array_equal(node_samples(coeffs, other), node_samples(coeffs, z12))


def test_probe_is_kept_per_group_seed_count_and_target_norm(su2_2):
    coeffs = gs.random_band_limited(7, su2_2, m=3)
    in_l1 = gs.FourierCoefficients(su2_2.window, 3, p_E=1.0, packed=coeffs.packed)
    # node samples of zero, so that the probe alone sets the max
    nodes = su2_2.node_count
    quiet = dataclasses.replace(su2_2, synthesis=lambda w: np.zeros((*w.shape[:-2], nodes, w.shape[-1])))
    # the same window, other probe elements
    other = dataclasses.replace(
        quiet, random_elements=lambda rng, n: su2_2.random_elements(rng, 2 * n)[n:])
    values = set()
    for kept, group, seed, count in [
        (coeffs, quiet, 1, 50),
        (coeffs, quiet, 2, 50),
        (coeffs, quiet, 1, 60),
        (in_l1, quiet, 1, 50),
        (coeffs, other, 1, 50),
        (coeffs, quiet, (1, 2), 50),
    ]:
        unkept = gs.FourierCoefficients(su2_2.window, 3, p_E=kept.p_E, packed=coeffs.packed)
        expected = probed_sup(unkept, group, count, seed)
        assert probed_sup(kept, group, count, seed) == expected
        assert probed_sup(kept, group, count, seed) == expected
        values.add(expected)
    assert len(values) == 6


# ---------------------------------------------------------------------------
# VectorFunction plumbing


def test_forward_of_spectral_function_samples_first(su2_1h):
    coeffs = gs.random_band_limited(21, su2_1h, m=2)
    f = gs.VectorFunction.from_samples(node_samples(coeffs, su2_1h))
    back = gs.forward_transform(f, su2_1h)
    assert np.abs(coeffs.packed - back.packed).max() <= 1e-12 * (1.0 + np.abs(coeffs.packed).max())


def test_serialization_round_trip_with_inf_target_norm(z4):
    coeffs = gs.random_band_limited(2, z4, m=2, p_E=math.inf)
    data = coefficients_to_json(coeffs)
    assert data["p_E"] == "inf"
    back = coefficients_from_json(json.loads(dump_json(data)), z4)
    assert math.isinf(back.p_E)
    assert np.array_equal(coeffs.packed, back.packed)


def test_sampled_length_validation(z4):
    f = gs.VectorFunction.from_samples(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        f.sample(z4)


def test_constant_vector_function(circle2, constant):
    v = np.array([1.0, -2.0j])
    coeffs = constant(circle2, v)
    assert np.abs(gs.synthesize(coeffs, circle2) - v).max() <= 1e-15
    vals = gs.synthesize(coeffs, circle2, elements=[0.1, 2.5])
    assert np.abs(vals - v).max() <= 1e-15


def test_one_dimensional_samples_promoted():
    f = gs.VectorFunction.from_samples(np.ones(4))
    assert f.m == 1 and f.values.shape == (4, 1)


def test_e_norm_values():
    v = np.array([3.0, -4.0j])
    assert gs.e_norm(v, 2.0) == 5.0
    assert gs.e_norm(v, 1.0) == 7.0
    assert gs.e_norm(v, math.inf) == 4.0
    got = gs.e_norm(v, 3.0)
    assert abs(got - (27.0 + 64.0) ** (1.0 / 3.0)) <= 1e-12


def test_e_norm_at_two_is_within_its_rounding_of_an_fsum_reference_and_a_batch_its_rows():
    rng = np.random.default_rng(21)
    for m in (1, 3, 12):
        x = rng.standard_normal((20, 50, m)) + 1j * rng.standard_normal((20, 50, m))
        x *= 10.0 ** rng.integers(-150, 150, (20, 50, 1))
        norms = e_norm(x)
        for i in range(20):
            assert np.array_equal(norms[i], e_norm(x[i]))
        # 2m rounded squares summed: (2m - 1) u on the sum, half that after the root,
        # and a rounding each for the root and the reference; u = 2^-53
        for vec, got in zip(x.reshape(-1, m).tolist(), norms.ravel()):
            ref = math.sqrt(math.fsum(v * v for z in vec for v in (z.real, z.imag)))
            assert abs(got - ref) <= (m + 2) * 2.0**-53 * ref


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_e_norm_scales_a_power_sum_that_underflows_or_overflows():
    assert abs(gs.e_norm([0.5, 0.5], 1100) - 0.5 * 2.0 ** (1 / 1100)) <= 1e-15
    assert gs.e_norm([3.0, 1.0], 1100) == 3.0  # (1/3)^1100 is below every float
    assert gs.e_norm(np.array([[1e-200, 0.0], [0.0, 0.0]]), 3.0).tolist() == [1e-200, 0.0]
    # at p = 2 only a total that overflows or underflows is redone, scaled
    assert gs.e_norm([1e200, 1e200j]) == 1e200 * math.sqrt(2)
    tiny = np.array([[1e-170, 1e-170], [3.0, 4.0]])
    assert gs.e_norm(tiny).tolist() == [1e-170 * math.sqrt(2), 5.0]
    assert gs.e_norm([1.7e308, 1.7e308]) == math.inf  # the norm itself is above every float
    # an inf entry gives inf and a nan entry nan, row by row, at every p
    for p in (1.0, 2.0, 3.0):
        assert gs.e_norm([[math.inf, 1.0], [3.0, 4.0]], p)[0] == math.inf
        assert math.isnan(gs.e_norm([math.nan, 1.0], p))
    finite_row = gs.e_norm([[1.0, 1.0], [1.0, 2.0]], 3.0)[1]
    assert gs.e_norm([[math.inf, 1.0], [1.0, 2.0]], 3.0)[1] == finite_row
    # only the scaled rows are raised to p again, so a row kept as it is overflows nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gs.e_norm([[math.inf, 1e200], [1e-200, 0.0]], 3.0).tolist() == [math.inf, 1e-200]
        root2 = 1e-170 * math.sqrt(2)
        assert gs.e_norm([[math.inf, 1e200], [1e-170, 1e-170]]).tolist() == [math.inf, root2]
        assert gs.e_norm([[0.0, 0.0], [1e-170, 1e-170]]).tolist() == [0.0, root2]
    with pytest.MonkeyPatch.context() as mp:  # an all-zero vector keeps p = 2 on the einsum
        mp.setattr("groupsobolev.transform._power_sum", None)
        assert gs.e_norm(np.array([[0.0, 0.0], [3.0, 4.0j]])).tolist() == [0.0, 5.0]
    # a sum that computes keeps the bits of the plain sum, rooted by numpy's power
    v = np.random.default_rng(4).standard_normal(7) + 1j
    for p in (1.0, 1.5, 3.0, 40.0):
        assert gs.e_norm(v, p) == np.power((np.abs(v) ** p).sum(), 1.0 / p)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_e_norm_of_one_vector_is_a_python_float(p):
    for vec in ([3.0, 4.0], [1e-170, 1e-170]):  # the plain sum and, at p = 2 and 3, the scaled one
        assert type(e_norm(vec, p)) is float
    assert type(e_norm([[3.0, 4.0], [1e-170, 1e-170]], p)) is np.ndarray


def test_e_norm_of_one_row_has_the_bits_of_that_row_in_a_batch():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((5000, 3)) + 1j * rng.standard_normal((5000, 3))
    for p in (1.5, 3.0, 400.0, math.inf):
        assert e_norm(rows, p).tolist() == [float(e_norm(row, p)) for row in rows]


# ---------------------------------------------------------------------------
# serialization


def test_serialization_round_trip_bit_exact(any_group):
    coeffs = gs.random_band_limited(11, any_group, m=2)
    data = coefficients_to_json(coeffs)
    text = dump_json(data)
    back = coefficients_from_json(json.loads(text), any_group)
    assert hash(window_from_json(data)) == hash(any_group.window)
    for label in any_group.window.labels:
        assert np.array_equal(coeffs.block(label), back.block(label))
    assert dump_json(coefficients_to_json(back)) == text


def test_serialization_drops_zero_blocks(z4, constant):
    data = coefficients_to_json(constant(z4, np.array([1.0, 2.0])))
    assert list(data["blocks"]) == ["0"]


@pytest.mark.parametrize("p_E", [math.nan, 0.5])
def test_coefficients_refuse_a_target_exponent_below_one(z4, p_E):
    with pytest.raises(ValueError, match="p_E must be >= 1"):
        gs.FourierCoefficients(z4.window, 1, p_E=p_E)


@pytest.mark.parametrize("p_E", [math.nan, 0.5, "nan", "abc", True, [2]])
def test_coefficient_file_refuses_a_bad_target_exponent(z4, p_E):
    data = coefficients_to_json(gs.random_band_limited(0, z4, m=1))
    with pytest.raises(ValueError, match="p_E"):
        coefficients_from_json({**data, "p_E": p_E}, z4)


@pytest.mark.parametrize("m", [2.7, 2.0, True, "2"])
def test_coefficient_file_refuses_a_non_integer_m(z4, m):
    data = coefficients_to_json(gs.random_band_limited(0, z4, m=2))
    with pytest.raises(ValueError, match="'m' needs an integer"):
        coefficients_from_json({**data, "m": m}, z4)


def test_serialization_window_mismatch(z4, z12):
    coeffs = gs.random_band_limited(0, z4, m=1)
    data = coefficients_to_json(coeffs)
    with pytest.raises(ValueError):
        coefficients_from_json(data, z12)


def test_coefficient_file_refuses_an_unknown_block_key(z4):
    data = coefficients_to_json(gs.random_band_limited(0, z4, m=1))
    data["blocks"]["7"] = data["blocks"]["0"]
    with pytest.raises(ValueError, match="unknown block key '7'"):
        coefficients_from_json(data, z4)


def test_save_and_load_files(tmp_path, su2_1h):
    coeffs = gs.random_band_limited(3, su2_1h, m=2)
    path = tmp_path / "c.json"
    gs.save_coefficients(path, coeffs)
    back = gs.load_coefficients(path, su2_1h)
    assert np.array_equal(coeffs.packed, back.packed)


def test_atomic_write_creates_parents(tmp_path):
    target = tmp_path / "deep" / "dir" / "x.txt"
    atomic_write_text(target, "payload")
    assert target.read_text() == "payload"
    assert not list(target.parent.glob("*.tmp"))


def test_atomic_write_gives_the_mode_of_a_plain_open(tmp_path):
    umask = os.umask(0o022)
    try:
        atomic_write_text(tmp_path / "x.txt", "payload")
    finally:
        os.umask(umask)
    assert stat.S_IMODE((tmp_path / "x.txt").stat().st_mode) == 0o644


def test_a_failed_atomic_write_leaves_the_target_and_no_temporary_file(tmp_path):
    target = tmp_path / "x.txt"
    target.write_text("old")

    def parts():
        yield "new, "
        raise RuntimeError("the writer failed")

    with pytest.raises(RuntimeError, match="the writer failed"):
        atomic_write_text(target, parts())
    assert target.read_text() == "old" and [p.name for p in tmp_path.iterdir()] == ["x.txt"]


def test_coefficient_arithmetic_window_guard(z4, z12):
    a = gs.random_band_limited(0, z4, m=1)
    b = gs.random_band_limited(0, z12, m=1)
    with pytest.raises(ValueError):
        _ = a + b


def test_block_shape_validation(z4):
    with pytest.raises(ValueError):
        gs.FourierCoefficients(z4.window, 2, {0: np.zeros((1, 1, 3))})
    with pytest.raises(KeyError):
        gs.FourierCoefficients(z4.window, 2, {9: np.zeros((1, 1, 2))})


# ---------------------------------------------------------------------------
# packed coefficient layout


def _custom_s3():
    """S3 reloaded through the custom JSON loader (labels become strings)."""
    s3 = gs.make_group("s3")
    order = s3.node_count
    irreps = [
        {
            "label": label,
            "dim": d,
            "matrices": [
                [[[z.real, z.imag] for z in row] for row in mat]
                for mat in s3.irrep_matrices(label, s3.quadrature.nodes)
            ],
        }
        for label, d in zip(s3.window.labels, s3.window.dims)
    ]
    table = [[s3.multiply(x, y) for y in range(order)] for x in range(order)]
    return gs.make_group("custom", source={"order": order, "mult_table": table, "irreps": irreps})


@pytest.fixture(scope="module")
def custom_s3():
    return _custom_s3()


LAYOUT_KINDS = ("z12", "s3", "circle16", "su2_2", "su2_1h", "custom_s3")


def test_blocks_are_views_of_packed(any_group):
    coeffs = gs.random_band_limited(4, any_group, m=3)
    assert coeffs.packed.shape == (sum(d * d for d in any_group.window.dims), 3)
    for label in any_group.window.labels:
        assert np.shares_memory(coeffs.block(label), coeffs.packed)


def test_coefficients_from_blocks_equal_forward_transform(any_group):
    rng = np.random.default_rng(5)
    n = any_group.node_count
    samples = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    coeffs = gs.forward_transform(gs.VectorFunction.from_samples(samples), any_group)
    blocks = {label: coeffs.block(label).copy() for label in any_group.window.labels}
    rebuilt = gs.FourierCoefficients(any_group.window, 2, blocks)
    assert np.array_equal(rebuilt.packed, coeffs.packed)


def test_packed_row_pairs_with_matrix_coefficient(su2_2):
    # block entry [i, j] pairs with u_{i+1, j+1}: a single nonzero entry
    # synthesizes to d * u_{i+1, j+1} at every node.
    block = np.zeros((3, 3, 1), dtype=complex)
    block[0, 2, 0] = 1.0
    coeffs = gs.FourierCoefficients(su2_2.window, 1, {1.0: block})
    u13 = np.array([gs.matrix_coefficient(su2_2, 1.0, 1, 3, x) for x in su2_2.quadrature.nodes])
    assert np.abs(gs.synthesize(coeffs, su2_2)[:, 0] - 3.0 * u13).max() <= 1e-13


@pytest.mark.parametrize("name", LAYOUT_KINDS)
def test_synthesis_paths_agree(name, request):
    group = request.getfixturevalue(name)
    coeffs = gs.random_band_limited(6, group, m=2)
    nodes = group.quadrature.nodes
    at_nodes = gs.synthesize(coeffs, group)
    scale = 1.0 + float(np.abs(at_nodes).max())
    assert np.abs(gs.synthesize(coeffs, group, elements=nodes) - at_nodes).max() <= 1e-12 * scale


def test_off_node_synthesis_at_zero_elements(any_group):
    none = any_group.random_elements(np.random.default_rng(0), 0)
    one, batch = (gs.random_band_limited(seed, any_group, m=3) for seed in (5, [5, 6]))
    assert gs.synthesize(one, any_group, elements=none).shape == (0, 3)
    assert gs.synthesize(batch, any_group, elements=none).shape == (2, 0, 3)


@pytest.mark.parametrize("name", LAYOUT_KINDS)
def test_off_node_synthesis_of_a_batch_of_200_is_bit_equal_to_each_function(name, request):
    """A default-size batch is synthesized off the nodes in one product; each
    function's values are those of its own synthesis, bit for bit."""
    group = request.getfixturevalue(name)
    batch = gs.random_band_limited(list(range(200)), group, m=3)
    els = group.random_elements(np.random.default_rng(3), 256)
    values = gs.synthesize(batch, group, elements=els)
    assert values.shape == (200, 256, 3)
    for b in range(200):
        single = gs.synthesize(gs.random_band_limited(b, group, m=3), group, elements=els)
        assert np.array_equal(values[b], single), b


@pytest.mark.parametrize("name", LAYOUT_KINDS)
def test_batch_views_synthesis_and_norms_match_single_functions(name, request):
    group = request.getfixturevalue(name)
    singles = [gs.random_band_limited(seed, group, m=2, p_E=3.0) for seed in range(4)]
    packed = np.stack([c.packed for c in singles])
    batch = gs.FourierCoefficients(group.window, 2, p_E=3.0, packed=packed)
    weights = gs.canonical_weights(group)
    els = group.random_elements(np.random.default_rng(2), 9)
    at_nodes = gs.synthesize(batch, group)
    off_nodes = gs.synthesize(batch, group, elements=els)
    assert at_nodes.shape == (4, group.node_count, 2) and off_nodes.shape == (4, 9, 2)
    for i, coeffs in enumerate(singles):
        for label in group.window.labels:
            assert np.array_equal(batch.block(label)[i], coeffs.block(label))
        scale = 1.0 + float(np.abs(at_nodes[i]).max())
        assert np.abs(at_nodes[i] - gs.synthesize(coeffs, group)).max() <= 1e-12 * scale
        single_off = gs.synthesize(coeffs, group, elements=els)
        assert np.abs(off_nodes[i] - single_off).max() <= 1e-12 * scale
        # the norms of a batch are bit-equal to those of its single functions
        for p in (1.0, 1.5, 2.0, math.inf):
            assert gs.s_p_norm(batch, p)[i] == gs.s_p_norm(coeffs, p)
        assert gs.h_s_norm(batch, weights, 1.0)[i] == gs.h_s_norm(coeffs, weights, 1.0)


def test_batch_shape_rules(z4):
    with pytest.raises(ValueError, match="one function"):
        gs.FourierCoefficients(z4.window, 1, packed=np.ones((2, 2, 4, 1)))
    with pytest.raises(ValueError, match="shape"):
        gs.FourierCoefficients(z4.window, 1, packed=np.ones((2, 3, 1)))
    batch = gs.FourierCoefficients(z4.window, 1, packed=np.ones((2, 4, 1)))
    with pytest.raises(ValueError, match="not a batch"):
        coefficients_to_json(batch)


@pytest.mark.parametrize("name", LAYOUT_KINDS)
def test_h0_norm_is_bit_equal_to_s2_norm(name, request):
    group = request.getfixturevalue(name)
    for p_E in (2.0, 3.0, math.inf):
        coeffs = gs.random_band_limited(8, group, m=3, p_E=p_E)
        for weights in (gs.canonical_weights(group), gs.zero_weights()):
            assert gs.h_s_norm(coeffs, weights, 0.0) == gs.s_p_norm(coeffs, 2.0)


def test_off_node_constant_evaluates_trivial_irrep_only(su2_2, constant):
    coeffs = constant(su2_2, np.array([1.0, 2.0j]))
    vals = gs.synthesize(coeffs, su2_2, elements=su2_2.random_elements(np.random.default_rng(0), 5))
    assert np.abs(vals - np.array([1.0, 2.0j])).max() <= 1e-15


# ---------------------------------------------------------------------------
# non-finite values are refused


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_coefficients_reject_non_finite(z4, bad):
    with pytest.raises(ValueError, match="finite"):
        gs.FourierCoefficients(z4.window, 1, {2: np.full((1, 1, 1), bad)})
    samples = np.zeros((4, 1), dtype=complex)
    samples[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        gs.forward_transform(gs.VectorFunction.from_samples(samples), z4)
    with pytest.raises(ValueError, match="finite"):
        _ = math.inf * gs.random_band_limited(0, z4, m=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_samples_reject_non_finite(z4, bad):
    samples = np.zeros((4, 2), dtype=complex)
    samples[3, 1] = bad
    with pytest.raises(ValueError, match="samples must be finite"):
        gs.l_p_norm(gs.VectorFunction.from_samples(samples), z4, 2.0)


def test_dump_json_rejects_non_finite():
    assert dump_json({"x": 1.5}) == '{\n  "x": 1.5\n}\n'
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            dump_json({"x": bad})


# ---------------------------------------------------------------------------
# per-label loops kept as references for the packed paths


def _forward_by_label(samples, group):
    w, nodes = group.quadrature.weights, group.quadrature.nodes
    return {
        label: np.einsum(
            "k,kji,...km->...ijm", w, group.irrep_matrices(label, nodes).conj(), samples, optimize=True
        )
        for label in group.window.labels
    }


def _synthesize_by_label(coeffs, group):
    out = np.zeros((*coeffs.packed.shape[:-2], group.node_count, coeffs.m), dtype=complex)
    for label, d in zip(group.window.labels, group.window.dims):
        stack = group.irrep_matrices(label, group.quadrature.nodes)
        out += d * np.einsum("...ijm,kji->...km", coeffs.block(label), stack, optimize=True)
    return out


def _s_p_by_label(coeffs, p, level=lambda label: 1.0):
    return sum(
        d * level(label) * float((gs.e_norm(coeffs.block(label), coeffs.p_E) ** p).sum())
        for label, d in zip(coeffs.window.labels, coeffs.window.dims)
    ) ** (1.0 / p)


#: Groups beyond the layout fixtures whose node transforms are checked against
#: the per-label loops: FFT edge cases and the separable SU(2) path.
ORACLE_SPECS = (
    {"kind": "circle", "band": 0},
    {"kind": "circle", "band": 1},
    {"kind": "circle", "band": 64},
    {"kind": "cyclic", "n": 1},
    {"kind": "cyclic", "n": 2},
    {"kind": "su2", "band": 0},
    {"kind": "su2", "band": 6},
    {"kind": "su2", "band": 8},
    {"kind": "su2", "band": 0.5, "half_integers": True},
    {"kind": "su2", "band": 2.5, "half_integers": True},
)


def _spec_id(spec):
    return "-".join(map(str, spec.values())) if isinstance(spec, dict) else spec


@pytest.mark.parametrize("name", [*LAYOUT_KINDS, *ORACLE_SPECS], ids=_spec_id)
def test_packed_paths_match_per_label_loops(name, request):
    group = request.getfixturevalue(name) if isinstance(name, str) else gs.make_group(name)
    coeffs = gs.random_band_limited(12, group, m=3, p_E=3.0)
    samples = _synthesize_by_label(coeffs, group)
    scale = 1.0 + float(np.abs(samples).max())
    assert np.abs(gs.synthesize(coeffs, group) - samples).max() <= 1e-12 * scale
    packed = gs.forward_transform(gs.VectorFunction.from_samples(samples), group)
    for label, block in _forward_by_label(samples, group).items():
        assert np.abs(packed.block(label) - block).max() <= 1e-12 * scale
    # a (B, N, m) batch, through both node transforms of the group
    singles = [gs.random_band_limited(seed, group, m=3) for seed in (1, 2)]
    batch = gs.FourierCoefficients(group.window, 3, packed=np.stack([c.packed for c in singles]))
    samples = _synthesize_by_label(batch, group)
    scale = 1.0 + float(np.abs(samples).max())
    assert np.abs(gs.synthesize(batch, group) - samples).max() <= 1e-12 * scale
    packed = group.analysis(samples)
    assert packed.shape == (2, group.window.size, 3)
    for label, block in _forward_by_label(samples, group).items():
        assert np.abs(group.window.block_view(packed, label) - block).max() <= 1e-12 * scale
    weights = gs.canonical_weights(group)
    for p in (1.0, 1.5, 2.0, 4.0):
        ref = _s_p_by_label(coeffs, p)
        assert abs(gs.s_p_norm(coeffs, p) - ref) <= 1e-12 * ref
    for s in (0.5, 2.0):
        ref = _s_p_by_label(coeffs, 2.0, lambda label: (1.0 + weights.value(label) ** 2) ** s)
        assert abs(gs.h_s_norm(coeffs, weights, s) - ref) <= 1e-12 * ref


def _per_spin_einsum_transforms(group):
    """SU(2) node transforms on the group's Euler grid with beta as one einsum per spin
    against that spin's d-tables: the separable transform before its beta tables, the
    oracle of the batched products."""
    window, half = group.window, group.window.half_integers
    step = 0.5 if half else 1.0
    n_a, n_b, n_c, period = _su2_axes(window.band, half)
    alphas, gammas = 2.0 * math.pi * np.arange(n_a) / n_a, period * np.arange(n_c) / n_c
    t, wt = np.polynomial.legendre.leggauss(n_b)
    betas, w_beta = np.arccos(t), wt / 2.0 / (n_a * n_c)
    ms = window.band - step * np.arange(round(2 * window.band / step) + 1)
    e_alpha, e_gamma = np.exp(-1j * np.outer(alphas, ms)), np.exp(-1j * np.outer(gammas, ms))
    n_m, spins = len(ms), []
    for ell, d in zip(window.labels, window.dims):
        start = round((window.band - ell) / step)
        m_rows = slice(start, n_m - start, round(1 / step))
        spins.append((window.columns(ell), d, m_rows, _little_d_matrix(ell, betas)))

    def analysis(samples):
        *lead, _, m = samples.shape
        g = np.matmul(e_alpha.conj().T, samples.reshape(-1, n_a, n_b * n_c * m))
        g = (g.reshape(-1, n_c * m) @ np.kron(e_gamma.conj(), np.eye(m))).reshape(-1, n_m, n_b, n_m, m)
        blocks = [
            np.einsum("b,bij,Libje->Lije", w_beta, d_b, g[:, r, :, r]).reshape(len(g), d * d, m)
            for _, d, r, d_b in spins
        ]
        return np.concatenate(blocks, axis=1).reshape(*lead, window.size, m)

    def synthesis(packed):
        *lead, _, m = packed.shape
        p = packed.reshape(-1, window.size, m)
        g = np.zeros((len(p), n_m, n_b, n_m, m), dtype=complex)
        for cols, d, r, d_b in spins:
            g[:, r, :, r] += np.einsum("bij,Lije->Libje", d_b, p[:, cols].reshape(len(p), d, d, m))
        g = g.reshape(-1, n_m * m) @ np.kron(e_gamma.T, np.eye(m))
        f = np.matmul(e_alpha, g.reshape(len(p), n_m, n_b * n_c * m))
        return f.reshape(*lead, n_a * n_b * n_c, m)

    return analysis, synthesis


SU2_ORACLE_SPECS = (
    *({"kind": "su2", "band": b} for b in range(7)),
    *({"kind": "su2", "band": b / 2, "half_integers": True} for b in range(1, 6)),
    {"kind": "su2", "band": 16},
)


@pytest.mark.parametrize("spec", SU2_ORACLE_SPECS, ids=_spec_id)
def test_su2_node_transforms_match_the_per_spin_einsum_oracle(spec):
    group = gs.make_group(spec)
    analysis, synthesis = _per_spin_einsum_transforms(group)
    rng = np.random.default_rng(3)
    for m in (1, 3):
        packed = gs.random_band_limited(5, group, m).packed
        samples = rng.standard_normal((group.node_count, m)) + 1j * rng.standard_normal((group.node_count, m))
        for new, old, x in ((group.synthesis, synthesis, packed), (group.analysis, analysis, samples)):
            ref = old(x)
            assert np.abs(new(x) - ref).max() <= 1e-14 * (1.0 + np.abs(ref).max())


@pytest.mark.parametrize("spec", [{"kind": "su2", "band": 6}, {"kind": "su2", "band": 2.5, "half_integers": True}], ids=_spec_id)
def test_su2_node_transforms_of_a_batch_equal_its_single_functions_bit_for_bit(spec):
    group = gs.make_group(spec)
    packed = gs.random_band_limited(list(range(20)), group, 3).packed
    samples = group.synthesis(packed)
    back = group.analysis(samples)
    for i in range(20):
        assert np.array_equal(samples[i], group.synthesis(packed[i]))
        assert np.array_equal(back[i], group.analysis(samples[i]))


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "circle", "band": 4096},
        {"kind": "su2", "band": 12},
        {"kind": "su2", "band": 16},
        {"kind": "su2", "band": 32},
    ],
    ids=_spec_id,
)
def test_large_groups_round_trip_at_1e_12_without_a_node_matrix(spec):
    # dense, these would need node matrices of 2.1 GB, 2.9 GB, 15 GB and 842 GB
    group = gs.make_group(spec)
    coeffs = gs.random_band_limited(1, group, m=2)
    samples = gs.synthesize(coeffs, group)
    back = gs.forward_transform(gs.VectorFunction.from_samples(samples), group)
    assert np.abs(coeffs.packed - back.packed).max() <= 1e-12 * (1.0 + np.abs(coeffs.packed).max())
    resampled = gs.synthesize(back, group)
    assert np.abs(resampled - samples).max() <= 1e-12 * (1.0 + float(np.abs(samples).max()))
    report = gs.orthogonality_selftest(group)
    assert report.passed and report.max_deviation <= ORTHOGONALITY_TOL
    assert not hasattr(group, "node_matrix")
