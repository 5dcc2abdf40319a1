import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import groupsobolev as gs
from groupsobolev.transform import (
    atomic_write_text,
    coefficients_from_json,
    coefficients_to_json,
    dump_json,
)


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
    u11 = su2_1h.node_stack(0.5)[:, 0, 0]
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
    f = gs.inverse_transform(gs.zero_coefficients(z4, m=2), z4)
    assert np.abs(f.sample(z4)).max() == 0.0


def test_inverse_single_block_is_character(z4):
    v = np.array([3.0, -1.0j])
    coeffs = gs.FourierCoefficients(z4.window, 2, {1: v.reshape(1, 1, 2)})
    f = gs.inverse_transform(coeffs, z4)
    x = np.arange(4)
    expected = np.exp(2j * math.pi * x / 4)[:, None] * v[None, :]
    assert np.abs(f.sample(z4) - expected).max() <= 1e-14


def test_round_trip_band_limited(any_group):
    for seed in range(5):
        coeffs = gs.random_band_limited(seed, any_group, m=3)
        samples = gs.synthesize(coeffs, any_group)
        back = gs.forward_transform(gs.VectorFunction.from_samples(samples), any_group)
        resampled = gs.synthesize(back, any_group)
        sup = gs.e_norm(samples, 2.0).max()
        assert np.abs(resampled - samples).max() <= 1e-9 * (1.0 + sup)
        assert coeffs.max_difference(back) <= 1e-9 * (1.0 + coeffs.max_abs())


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
    scale = max(combo.max_abs(), 1.0)
    assert combo.max_difference(parts) <= 1e-12 * scale


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
        gs.inverse_transform(coeffs, z12)


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
    assert a.max_difference(b) == 0.0
    c = gs.random_band_limited(124, su2_2, m=3)
    assert a.max_difference(c) > 0.0


def test_random_band_limited_zero_law(su2_2):
    coeffs = gs.random_band_limited(5, su2_2, m=2, amplitude="zero")
    assert coeffs.max_abs() == 0.0


def test_random_band_limited_callable_amplitude(su2_2):
    base = gs.random_band_limited(7, su2_2, m=2)
    scaled = gs.random_band_limited(7, su2_2, m=2, amplitude=lambda label, d: 0.0 if label else 1.0)
    assert np.array_equal(scaled.block(0.0), base.block(0.0))
    assert np.abs(scaled.block(1.0)).max() == 0.0


# ---------------------------------------------------------------------------
# VectorFunction plumbing


def test_forward_of_spectral_function_samples_first(su2_1h):
    coeffs = gs.random_band_limited(21, su2_1h, m=2)
    f = gs.VectorFunction.from_coefficients(coeffs)
    back = gs.forward_transform(f, su2_1h)
    assert coeffs.max_difference(back) <= 1e-12 * (1.0 + coeffs.max_abs())


def test_serialization_round_trip_with_inf_target_norm(z4):
    coeffs = gs.random_band_limited(2, z4, m=2, p_E=math.inf)
    data = coefficients_to_json(coeffs)
    assert data["p_E"] == "inf"
    back = coefficients_from_json(json.loads(dump_json(data)), z4)
    assert math.isinf(back.p_E)
    assert coeffs.max_difference(back) == 0.0


def test_sampled_length_validation(z4):
    f = gs.VectorFunction.from_samples(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        f.sample(z4)


def test_evaluate_requires_spectral(z4):
    f = gs.VectorFunction.from_samples(np.zeros((4, 1)))
    with pytest.raises(ValueError):
        f.evaluate(z4, [0])


def test_constant_vector_function(circle2):
    v = np.array([1.0, -2.0j])
    f = gs.VectorFunction.constant(circle2, v)
    assert np.abs(f.sample(circle2) - v).max() <= 1e-15
    vals = f.evaluate(circle2, [0.1, 2.5])
    assert np.abs(vals - v).max() <= 1e-15


def test_one_dimensional_samples_promoted():
    f = gs.VectorFunction.from_samples(np.ones(4))
    assert f.m == 1 and f.values.shape == (4, 1)


def test_exactly_one_representation():
    with pytest.raises(ValueError):
        gs.VectorFunction(m=1)


def test_e_norm_values():
    v = np.array([3.0, -4.0j])
    assert gs.e_norm(v, 2.0) == 5.0
    assert gs.e_norm(v, 1.0) == 7.0
    assert gs.e_norm(v, math.inf) == 4.0
    got = gs.e_norm(v, 3.0)
    assert abs(got - (27.0 + 64.0) ** (1.0 / 3.0)) <= 1e-12


# ---------------------------------------------------------------------------
# serialization


def test_serialization_round_trip_bit_exact(any_group):
    coeffs = gs.random_band_limited(11, any_group, m=2)
    data = coefficients_to_json(coeffs)
    text = dump_json(data)
    back = coefficients_from_json(json.loads(text), any_group)
    for label in any_group.window.labels:
        assert np.array_equal(coeffs.block(label), back.block(label))
    assert dump_json(coefficients_to_json(back)) == text


def test_serialization_drops_zero_blocks(z4):
    f = gs.VectorFunction.constant(z4, np.array([1.0, 2.0]))
    data = coefficients_to_json(f.coefficients)
    assert list(data["blocks"]) == ["0"]


def test_serialization_window_mismatch(z4, z12):
    coeffs = gs.random_band_limited(0, z4, m=1)
    data = coefficients_to_json(coeffs)
    with pytest.raises(ValueError):
        coefficients_from_json(data, z12)


def test_save_and_load_files(tmp_path, su2_1h):
    coeffs = gs.random_band_limited(3, su2_1h, m=2)
    path = tmp_path / "c.json"
    gs.save_coefficients(path, coeffs)
    back = gs.load_coefficients(path, su2_1h)
    assert coeffs.max_difference(back) == 0.0


def test_atomic_write_creates_parents(tmp_path):
    target = tmp_path / "deep" / "dir" / "x.txt"
    atomic_write_text(target, "payload")
    assert target.read_text() == "payload"
    assert not list(target.parent.glob("*.tmp"))


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
                [[[z.real, z.imag] for z in row] for row in mat] for mat in s3.node_stack(label)
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
        assert np.shares_memory(coeffs.blocks[label], coeffs.packed)
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
    probe = group.packed_matrices(nodes)
    assert np.abs(gs.synthesize(coeffs, group, probe=probe) - at_nodes).max() <= 1e-12 * scale
    els = group.random_elements(np.random.default_rng(7), 25)
    off = gs.synthesize(coeffs, group, elements=els)
    via_probe = gs.synthesize(coeffs, group, probe=group.packed_matrices(els))
    assert np.abs(off - via_probe).max() <= 1e-12 * scale


@pytest.mark.parametrize("name", LAYOUT_KINDS)
def test_h0_norm_is_bit_equal_to_s2_norm(name, request):
    group = request.getfixturevalue(name)
    for p_E in (2.0, 3.0, math.inf):
        coeffs = gs.random_band_limited(8, group, m=3, p_E=p_E)
        for weights in (gs.canonical_weights(group), gs.zero_weights(group.window)):
            assert gs.h_s_norm(coeffs, weights, 0.0) == gs.s_p_norm(coeffs, 2.0)


def test_off_node_constant_evaluates_trivial_irrep_only(su2_2, monkeypatch):
    seen = []
    original = gs.GroupSpec.irrep_matrices

    def recording(self, label, elements):
        seen.append(label)
        return original(self, label, elements)

    monkeypatch.setattr(gs.GroupSpec, "irrep_matrices", recording)
    f = gs.VectorFunction.constant(su2_2, np.array([1.0, 2.0j]))
    vals = f.evaluate(su2_2, su2_2.random_elements(np.random.default_rng(0), 5))
    assert seen == [su2_2.window.trivial]
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


def test_dump_json_rejects_non_finite():
    assert dump_json({"x": 1.5}) == '{\n  "x": 1.5\n}\n'
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            dump_json({"x": bad})


# ---------------------------------------------------------------------------
# per-label loops kept as references for the packed paths


def _forward_by_label(samples, group):
    w = group.quadrature.weights
    return {
        label: np.einsum("k,kji,km->ijm", w, group.node_stack(label).conj(), samples)
        for label in group.window.labels
    }


def _synthesize_by_label(coeffs, group):
    out = np.zeros((group.node_count, coeffs.m), dtype=complex)
    for label, d in zip(group.window.labels, group.window.dims):
        out += d * np.einsum("ijm,kji->km", coeffs.block(label), group.node_stack(label))
    return out


def _s_p_by_label(coeffs, p, level=lambda label: 1.0):
    return sum(
        d * level(label) * float((gs.e_norm(coeffs.block(label), coeffs.p_E) ** p).sum())
        for label, d in zip(coeffs.window.labels, coeffs.window.dims)
    ) ** (1.0 / p)


@pytest.mark.parametrize("name", LAYOUT_KINDS)
def test_packed_paths_match_per_label_loops(name, request):
    group = request.getfixturevalue(name)
    coeffs = gs.random_band_limited(12, group, m=3, p_E=3.0)
    samples = _synthesize_by_label(coeffs, group)
    scale = 1.0 + float(np.abs(samples).max())
    assert np.abs(gs.synthesize(coeffs, group) - samples).max() <= 1e-12 * scale
    packed = gs.forward_transform(gs.VectorFunction.from_samples(samples), group)
    for label, block in _forward_by_label(samples, group).items():
        assert np.abs(packed.block(label) - block).max() <= 1e-12 * scale
    weights = gs.canonical_weights(group)
    for p in (1.0, 1.5, 2.0, 4.0):
        ref = _s_p_by_label(coeffs, p)
        assert abs(gs.s_p_norm(coeffs, p) - ref) <= 1e-12 * ref
    for s in (0.5, 2.0):
        ref = _s_p_by_label(coeffs, 2.0, lambda label: (1.0 + weights.value(label) ** 2) ** s)
        assert abs(gs.h_s_norm(coeffs, weights, s) - ref) <= 1e-12 * ref
