import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

import groupsobolev as gs
from groupsobolev import sobolev


def direct_series_sum(dims_and_weights, s):
    """Independent oracle for the series sum d^3 (1 + w^2)^(-s)."""
    total = 0.0
    for d, w in dims_and_weights:
        total += d**3 / (1.0 + w * w) ** s
    return total


# frozen constants, first computed with direct_series_sum by hand:
#   Z_2 with weights (0, 1), s=1: 1 + 1/2 = 1.5, sqrt -> 1.224744871391589
#   Z_2 with weights (0, 1), t=2, s=1: (1 + 1/4)^(1/4) -> 1.0573712634405641
#   SU(2) bands {0, 1}, sqrt-laplacian weights, s=2: 1 + 27/9 = 4, sqrt -> 2
FROZEN_C_Z2 = 1.224744871391589
FROZEN_LQ_Z2 = 1.0573712634405641
FROZEN_C_SU2 = 2.0


# ---------------------------------------------------------------------------
# Sobolev norm


def test_h_s_norm_trivial_block_is_flat_in_s(z4):
    v = np.array([1.0, 2.0j])
    coeffs = gs.FourierCoefficients(z4.window, 2, {0: v.reshape(1, 1, 2)})
    weights = gs.zero_weights()
    for s in (0.0, 0.7, 2.0, 5.0):
        assert abs(gs.h_s_norm(coeffs, weights, s) - math.sqrt(5.0)) <= 1e-12


def test_h_s_norm_single_weighted_block(z4):
    v = np.array([3.0, 4.0])  # |v| = 5
    coeffs = gs.FourierCoefficients(z4.window, 2, {1: v.reshape(1, 1, 2)})
    weights = gs.weights_from_table({0: 0.0, 1: 1.0, 2: 0.0, 3: 0.0}, z4.window)
    assert abs(gs.h_s_norm(coeffs, weights, 2.0) - 10.0) <= 1e-12  # (1+1)^2 * 25 -> 100


def test_h_s_norm_at_zero_equals_spectral_norm(any_group):
    weights = gs.canonical_weights(any_group)
    for seed in range(3):
        coeffs = gs.random_band_limited(seed, any_group, m=3)
        assert gs.h_s_norm(coeffs, weights, 0.0) == gs.s_p_norm(coeffs, 2.0)


def test_h_s_norm_errors(z4):
    coeffs = gs.random_band_limited(0, z4, m=1)
    with pytest.raises(ValueError):
        gs.h_s_norm(coeffs, gs.zero_weights(), -1.0)
    partial = gs.WeightSequence("partial", {0: 0.0, 1: 0.0})
    with pytest.raises(KeyError, match="2"):
        gs.h_s_norm(coeffs, partial, 1.0)


def test_h_s_norm_is_kept_per_weights_and_order(su2_2, monkeypatch):
    batch = gs.random_band_limited([1, 2, 3], su2_2, m=2)
    weights, other = gs.canonical_weights(su2_2), gs.canonical_weights(su2_2)
    first = gs.h_s_norm(batch, weights, 1.5)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0
    monkeypatch.setattr(sobolev, "weighted_spectral_norm", lambda *a: pytest.fail("recomputed"))
    assert gs.h_s_norm(batch, weights, 1.5) is first
    one = gs.FourierCoefficients(su2_2.window, 2, packed=batch.packed[0])
    with pytest.raises(pytest.fail.Exception):  # another weights object, another key
        gs.h_s_norm(batch, other, 1.5)
    with pytest.raises(pytest.fail.Exception):  # another order
        gs.h_s_norm(batch, weights, 2.0)
    with pytest.raises(pytest.fail.Exception):  # other coefficients
        gs.h_s_norm(one, weights, 1.5)


CIRCLES = [{"kind": "circle", "band": 4}, {"kind": "circle", "band": 16}]
SU2S = [{"kind": "su2", "band": 2}, {"kind": "su2", "band": 1.5, "half_integers": True}]


@pytest.mark.parametrize("make, formula, specs", [
    (gs.circle_weights, lambda n: float(abs(n)), CIRCLES),
    (gs.su2_weights, lambda l: math.sqrt(l * (l + 1.0)), SU2S),
])
def test_one_builtin_weights_object_serves_every_window(make, formula, specs):
    # the same object on two windows, each entry d (1 + w^2)^s from the label's formula
    weights = make()
    for spec in specs:
        window = gs.make_group(spec).window
        for s in (0.0, 0.5, 1.0, 3.0):
            w = np.array([formula(label) for label in window.labels])
            squares = [d * d for d in window.dims]
            expected = np.repeat(window.dims, squares) * np.repeat((1.0 + w * w) ** s, squares)
            got = weights.sobolev_entries(window, s)
            assert got.shape == (window.size,) and np.array_equal(got, expected)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_h_s_norm_scales_an_overflowing_weight(circle16):
    # (1 + 16^2)^130 is past the largest float, but the norm of a unit draw, about 257^65, is not;
    # a norm past every float (s = 400) would read inf, and pass any check, so it is refused
    coeffs = gs.random_band_limited(0, circle16, m=2)
    moduli = gs.e_norm(coeffs.packed).tolist()  # one entry per label, all of dim 1
    for s in (120.0, 130.0):
        logs = [s * math.log1p(n * n) + 2.0 * math.log(a) for n, a in zip(circle16.window.labels, moduli)]
        top = max(logs)
        want = math.exp(0.5 * (top + math.log(math.fsum(math.exp(x - top) for x in logs))))
        assert abs(gs.h_s_norm(coeffs, gs.canonical_weights(circle16), s) - want) <= 1e-12 * want
    with pytest.raises(ValueError, match="s=400 .* circle window of band 16"):
        gs.h_s_norm(coeffs, gs.canonical_weights(circle16), 400.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s", [130.0, 140.0, 300.0])
def test_h_s_norm_of_a_constant_ignores_the_overflowing_weights(circle16, s):
    # the weights past n = 0 overflow, or underflow once divided by the largest: the norm is |c0|
    c0 = np.array([3.0 - 4.0j, 12.0])
    coeffs = gs.FourierCoefficients(circle16.window, 2, {0: c0[None, None, :]})
    assert gs.h_s_norm(coeffs, gs.canonical_weights(circle16), s) == 13.0


def test_h_s_norm_monotone_in_s(su2_2):
    weights = gs.canonical_weights(su2_2)
    for seed in range(5):
        coeffs = gs.random_band_limited(seed, su2_2, m=2)
        values = [gs.h_s_norm(coeffs, weights, s) for s in (0.0, 0.5, 1.0, 2.0, 3.5)]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    s=st.floats(min_value=0.0, max_value=4.0),
    seed=st.integers(min_value=0, max_value=30),
)
def test_h_s_norm_homogeneous(scale, s, seed):
    group = gs.make_group("cyclic", n=5)
    weights = gs.zero_weights()
    coeffs = gs.random_band_limited(seed, group, m=2)
    lhs = gs.h_s_norm(scale * coeffs, weights, s)
    rhs = scale * gs.h_s_norm(coeffs, weights, s)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)


# ---------------------------------------------------------------------------
# Lebesgue and sup norms


def test_l_p_norm_constant(any_group, constant):
    v = np.array([1.0, -2.0j, 0.5])
    f = gs.VectorFunction.from_samples(gs.node_samples(constant(any_group, v), any_group))
    for p in (1.0, 2.0, 3.5):
        assert abs(gs.l_p_norm(f, any_group, p) - gs.e_norm(v, 2.0)) <= 1e-12


def test_l_p_norm_unimodular_character(circle16):
    u = circle16.irrep_matrices(1, circle16.quadrature.nodes)[:, 0, 0]
    f = gs.VectorFunction.from_samples(u)
    assert abs(gs.l_p_norm(f, circle16, 2.0) - 1.0) <= 1e-12


def test_l_p_norm_matches_plancherel(su2_2):
    for seed in range(5):
        coeffs = gs.random_band_limited(seed, su2_2, m=3)
        l2 = gs.lebesgue_norm(coeffs, su2_2, 2.0)
        assert abs(l2 - gs.s_p_norm(coeffs, 2.0)) <= 1e-9 * (1.0 + l2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lebesgue_norm_scales_a_power_sum_past_the_float_range(su2_2, constant):
    # |f| = 52.7 everywhere: its L^202 norm is 52.7, though 52.7^202 is past the largest float,
    # and |f| = 1e-3 gives 1e-3 at p = 300, though 1e-900 is below the smallest
    for value, p in ((52.7, 150.0), (52.7, 202.0), (1e-3, 300.0)):
        assert abs(gs.lebesgue_norm(constant(su2_2, [value]), su2_2, p) - value) <= 1e-12 * value


def test_lebesgue_norm_refuses_a_norm_that_overflows(circle2):
    # the samples of 1e308 in blocks 0 and 1 overflow, and so does every L^p norm of them
    big = np.full((1, 1, 1), 1e308)
    coeffs = gs.FourierCoefficients(circle2.window, 1, {0: big, 1: big})
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"p=3 overflows on circle\(2\)"):
        gs.lebesgue_norm(coeffs, circle2, 3.0)


def scaled_fsum_norm(moduli, p, weights=None) -> float:
    """Independent oracle: M (fsum w (a/M)^p)^(1/p) with M = max a, 0 for an all-zero vector."""
    top = max(moduli)
    if top == 0.0:
        return 0.0
    weights = [1.0] * len(moduli) if weights is None else weights
    return top * math.fsum(w * (a / top) ** p for a, w in zip(moduli, weights)) ** (1.0 / p)


def assert_close(got, want, rel):
    """|got - want| <= rel * want entrywise; ``rel`` is one bound or one per entry."""
    rel = np.broadcast_to(rel, np.shape(want)).ravel().tolist()
    for g, w, r in zip(np.ravel(got).tolist(), np.ravel(want).tolist(), rel):
        assert abs(g - w) <= r * w, (g, w)


#: exponents over [1, 1e308], by value, by decade and at 2
EXPONENTS = st.one_of(st.just(2.0), st.floats(1.0, 1e308), st.floats(0.0, 308.0).map(lambda e: 10.0**e))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    name=st.sampled_from(["z4", "s3", "circle2", "su2_1"]),
    shape=st.tuples(st.integers(1, 2), st.integers(1, 3)),
    decades=st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    p=EXPONENTS,
    p_E=EXPONENTS,
    s=st.floats(0.0, 3.0),
)
def test_norms_match_a_scaled_fsum_over_the_float_range(
    z4, s3, circle2, su2_1, name, shape, decades, zeros, seed, p, p_E, s
):
    # moduli spread log-uniformly over the decades, some entries zero: every plain power sum
    # here may underflow or overflow, and each norm must still match the oracle
    group, (batch, m) = {"z4": z4, "s3": s3, "circle2": circle2, "su2_1": su2_1}[name], shape
    rng = np.random.default_rng(seed)
    size = (batch, group.window.size, m)
    values = 10.0 ** rng.uniform(min(decades), max(decades), size) * np.exp(2j * np.pi * rng.random(size))
    if zeros:
        values[rng.random(size) < 0.3] = 0.0
    coeffs = gs.FourierCoefficients(group.window, m, p_E=p_E, packed=values)

    def e_norms(rows):
        return [scaled_fsum_norm(row, p_E) for row in np.abs(rows).reshape(-1, m).tolist()]

    entries = np.reshape(e_norms(values), (batch, -1))
    # e_norm keeps the plain root t^(1/p_E) wherever the sum computes, so that reports keep their
    # bits; rounding 1/p_E moves it by up to 2^-53 |ln t| / p_E <= 2^-53 (|ln max a| + ln m)
    tops = np.abs(values).max(axis=-1)
    plain = 2.0**-53 * (np.abs(np.log(np.where(tops > 0.0, tops, 1.0))) + math.log(m))
    assert_close(gs.e_norm(values, p_E), entries, 1e-14 + plain)
    dims = group.window.entry_dims.tolist()
    assert_close(gs.s_p_norm(coeffs, p), [scaled_fsum_norm(e, p, dims) for e in entries.tolist()], 1e-12)
    weights = gs.canonical_weights(group).sobolev_entries(group.window, s).tolist()
    want = [scaled_fsum_norm(e, 2.0, weights) for e in entries.tolist()]
    assert_close(gs.h_s_norm(coeffs, gs.canonical_weights(group), s), want, 1e-12)
    nodes = np.reshape(e_norms(gs.node_samples(coeffs, group)), (batch, -1)).tolist()
    quadrature = group.quadrature.weights.tolist()
    want = [scaled_fsum_norm(row, p, quadrature) for row in nodes]
    assert_close(gs.lebesgue_norm(coeffs, group, p), want, 1e-12)


def test_l_p_norm_rejects_bad_p(z4):
    f = gs.VectorFunction.from_samples(np.ones(4))
    with pytest.raises(ValueError):
        gs.l_p_norm(f, z4, 0.5)
    with pytest.raises(ValueError):
        gs.l_p_norm(f, z4, math.inf)


@pytest.mark.parametrize(
    "norm, bad",
    [("lebesgue_norm", math.inf), ("lebesgue_norm", -1.0), ("lebesgue_norm", 0.0),
     ("lebesgue_norm", math.nan), ("s_p_norm", math.nan), ("h_s_norm", math.nan),
     ("embedding_constant_C", math.nan), ("lebesgue_norm_target", 0.5),
     ("lebesgue_norm_target", 0.0), ("lebesgue_norm_target", -1.0), ("lebesgue_norm_target", math.nan)],
)
def test_exponent_guards_refuse_bad_values(norm, bad):
    group = gs.make_group("circle", band=4)
    coeffs, weights = gs.random_band_limited(1, group, m=2), gs.canonical_weights(group)
    call = {
        "lebesgue_norm": lambda: gs.lebesgue_norm(coeffs, group, bad),
        # the coefficients refuse the target exponent p_E that the norm would read
        "lebesgue_norm_target": lambda: gs.lebesgue_norm(
            gs.FourierCoefficients(group.window, 2, p_E=bad, packed=coeffs.packed), group, 2.0),
        "s_p_norm": lambda: gs.s_p_norm(coeffs, bad),
        "h_s_norm": lambda: gs.h_s_norm(coeffs, weights, bad),
        "embedding_constant_C": lambda: gs.embedding_constant_C(weights, bad, group.window),
    }[norm]
    with pytest.raises(ValueError, match=f"got {bad}"):
        call()


@pytest.mark.parametrize("p_E", [0.5, 0.0, math.nan])
def test_sampled_function_rejects_quasi_norm_target(z4, p_E):
    with pytest.raises(ValueError, match="p_E"):
        gs.VectorFunction.from_samples(np.ones((4, 2)), p_E=p_E)


def test_sup_norm_constant(z4, constant):
    assert gs.probed_sup(constant(z4, np.array([3.0, 4.0])), z4, extra_samples=1000) == 5.0


def test_sup_norm_exact_on_finite_group(z12):
    rng = np.random.default_rng(4)
    samples = rng.standard_normal((12, 1)) + 1j * rng.standard_normal((12, 1))
    coeffs = gs.forward_transform(gs.VectorFunction.from_samples(samples), z12)
    got = gs.probed_sup(coeffs, z12, extra_samples=1000)
    assert abs(got - np.abs(samples).max()) <= 1e-12 * np.abs(samples).max()


@pytest.mark.parametrize("name", ["z12", "s3"])
def test_finite_group_sup_is_the_exact_node_max_and_draws_nothing(name, request):
    group = request.getfixturevalue(name)
    never = dataclasses.replace(
        group, random_elements=lambda rng, n: pytest.fail("probe elements drawn"))
    coeffs = gs.random_band_limited([1, 2, 3], never, m=2)
    exact = gs.e_norm(gs.synthesize(coeffs, never), 2.0).max(axis=-1)
    assert np.array_equal(gs.probed_sup(coeffs, never, extra_samples=1000, seed=5), exact)


def test_sup_norm_circle_crest(circle2):
    # f(x) = 1 + e^{ix} peaks at 2; the node grid contains the peak.
    blocks = {0: np.ones((1, 1, 1), dtype=complex), 1: np.ones((1, 1, 1), dtype=complex)}
    got = gs.probed_sup(gs.FourierCoefficients(circle2.window, 1, blocks), circle2, extra_samples=1000)
    assert 2.0 - 1e-3 <= got <= 2.0 + 1e-12


def test_sup_norm_without_extra_samples_uses_nodes_only(su2_2):
    coeffs = gs.random_band_limited(6, su2_2, m=2)
    nodes_only = gs.probed_sup(coeffs, su2_2)
    assert nodes_only == float(gs.e_norm(gs.synthesize(coeffs, su2_2), 2.0).max())


def test_sup_norm_is_lower_bound(su2_2):
    coeffs = gs.random_band_limited(8, su2_2, m=2)
    sparse = gs.probed_sup(coeffs, su2_2, extra_samples=10)
    dense = gs.probed_sup(coeffs, su2_2, extra_samples=3000)
    assert sparse <= dense + 1e-12


# ---------------------------------------------------------------------------
# embedding constants


def test_embedding_constant_z2_zero_weights(z2):
    est = gs.embedding_constant_C(gs.zero_weights(), 3.0, z2.window)
    assert abs(est.value - math.sqrt(2.0)) <= 1e-12
    assert est.verdict == "summable" and est.upper == est.value


def test_embedding_constant_z2_table(z2):
    weights = gs.weights_from_table({0: 0.0, 1: 1.0}, z2.window)
    oracle = math.sqrt(direct_series_sum([(1, 0.0), (1, 1.0)], 1.0))
    est = gs.embedding_constant_C(weights, 1.0, z2.window)
    assert abs(oracle - FROZEN_C_Z2) <= 1e-9
    assert abs(est.value - FROZEN_C_Z2) <= 1e-9


def test_embedding_constant_su2(su2_1):
    weights = gs.su2_weights()
    oracle = math.sqrt(direct_series_sum([(1, 0.0), (3, math.sqrt(2.0))], 2.0))
    est = gs.embedding_constant_C(weights, 2.0, su2_1.window)
    assert abs(oracle - FROZEN_C_SU2) <= 1e-9
    assert abs(est.value - FROZEN_C_SU2) <= 1e-9


def test_embedding_constant_nonincreasing_in_s(su2_2):
    weights = gs.canonical_weights(su2_2)
    values = [
        gs.embedding_constant_C(weights, s, su2_2.window).value for s in (0.0, 0.5, 1.0, 2.0, 4.0)
    ]
    for hi, lo in zip(values, values[1:]):
        assert lo <= hi + 1e-12


def test_embedding_constant_rejects_negative_order(z2):
    with pytest.raises(ValueError):
        gs.embedding_constant_C(gs.zero_weights(), -0.5, z2.window)


def test_lq_bound_constant_z2(z2):
    weights = gs.weights_from_table({0: 0.0, 1: 1.0}, z2.window)
    oracle = direct_series_sum([(1, 0.0), (1, 1.0)], 2.0) ** (1.0 / 4.0)
    got = gs.lq_bound_constant(weights, 2.0, 1.0, z2.window)
    assert abs(oracle - FROZEN_LQ_Z2) <= 1e-9
    assert abs(got - FROZEN_LQ_Z2) <= 1e-9


def test_lq_bound_trivial_window():
    group = gs.make_group("circle", band=0)
    got = gs.lq_bound_constant(gs.zero_weights(), 2.0, 1.0, group.window)
    assert abs(got - 1.0) <= 1e-15


def test_lq_bound_matches_embedding_constant_power(su2_2):
    weights = gs.canonical_weights(su2_2)
    s, t = 1.0, 2.5
    lhs = gs.lq_bound_constant(weights, t, s, su2_2.window)
    rhs = gs.embedding_constant_C(weights, t, su2_2.window).value ** (s / t)
    assert abs(lhs - rhs) <= 1e-12


def test_lq_bound_rejects_bad_orders(z2):
    weights = gs.zero_weights()
    with pytest.raises(ValueError):
        gs.lq_bound_constant(weights, 1.0, 1.0, z2.window)
    with pytest.raises(ValueError):
        gs.lq_bound_constant(weights, 2.0, 0.0, z2.window)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_lq_bound_refuses_a_non_finite_t_as_exponents_does(su2_2, t):
    # at t = inf the window sum keeps only the trivial label, raised to s/(2t) = 0
    with pytest.raises(ValueError, match="need a finite t > s > 0") as refused:
        gs.lq_bound_constant(gs.canonical_weights(su2_2), t, 1.0, su2_2.window)
    with pytest.raises(ValueError) as exponents_refused:
        gs.exponents(1.0, t)
    assert str(refused.value) == str(exponents_refused.value)


# ---------------------------------------------------------------------------
# exponents


def test_exponents_examples():
    p = gs.exponents(1.0, 2.0)
    assert abs(p.alpha - 4.0 / 3.0) <= 1e-15 and abs(p.alpha_prime - 4.0) <= 1e-15
    p = gs.exponents(1.0, 3.0)
    assert abs(p.alpha - 1.5) <= 1e-15 and abs(p.alpha_prime - 3.0) <= 1e-15


@settings(max_examples=100, deadline=None)
@given(
    s=st.floats(min_value=1e-3, max_value=50.0),
    gap=st.floats(min_value=1e-3, max_value=50.0),
)
def test_exponents_conjugate_identity(s, gap):
    p = gs.exponents(s, s + gap)
    assert abs(1.0 / p.alpha + 1.0 / p.alpha_prime - 1.0) <= 1e-12
    assert 1.0 < p.alpha < 2.0 < p.alpha_prime


def test_exponents_rejects_bad_pairs():
    with pytest.raises(ValueError):
        gs.exponents(2.0, 2.0)
    with pytest.raises(ValueError):
        gs.exponents(0.0, 2.0)
    with pytest.raises(ValueError, match="t=inf"):
        gs.exponents(1.0, math.inf)


@pytest.mark.parametrize("s, t", [(1.0, 1e300), (1e-300, 1.0), (1.0, 1e308)])
def test_exponents_refuse_a_pair_whose_floats_leave_the_range(s, t):
    # alpha rounds to 2, or 2t overflows: refused by name, not by an AssertionError
    with pytest.raises(ValueError, match=re.escape(f"s={s}, t={t}")):
        gs.exponents(s, t)


# ---------------------------------------------------------------------------
# series verdicts and tail bounds

DIRECT_TERMS = 10**6


def circle_window(band):
    labels = (0, *(sign * b for b in range(1, band + 1) for sign in (-1, 1)))
    return gs.DualWindow("circle", band, labels, (1,) * len(labels), 0)


def su2_window(band, half=False):
    step = 0.5 if half else 1.0
    ells = tuple(k * step for k in range(int(round(band / step)) + 1))
    dims = tuple(int(round(2 * ell)) + 1 for ell in ells)
    return gs.DualWindow("su2", float(band), ells, dims, 0.0, half)


def direct_su2_tail(band, step, s, count=DIRECT_TERMS):
    ell = band + step * np.arange(1, count + 1)
    return float(((2 * ell + 1) ** 3 * (1 + ell * (ell + 1)) ** (-s)).sum())


def direct_circle_tail(band, s, count=DIRECT_TERMS):
    """2 * sum of (1 + n^2)^(-s) over band < n <= count."""
    n = np.arange(band + 1, count + 1, dtype=float)
    return float(2.0 * ((1 + n * n) ** (-s)).sum())


def verdict(weights, s, window):
    return gs.embedding_constant_C(weights, s, window).verdict


def test_summability_zero_weights_on_su2_diverges(su2_2, circle16):
    for group in (su2_2, circle16):
        for s in (0.0, 3.0, 50.0):
            est = gs.embedding_constant_C(gs.zero_weights(), s, group.window)
            assert est.verdict == "diverging" and est.upper == math.inf


def test_summability_su2_canonical_decays(su2_2):
    weights = gs.su2_weights()
    for s in (3.0, 4.0):
        est = gs.embedding_constant_C(weights, s, su2_2.window)
        assert est.verdict == "summable" and est.value < est.upper < math.inf
    for s in (0.0, 1.5, 2.0):
        assert verdict(weights, s, su2_2.window) == "diverging"


def test_verdicts_at_the_boundary_orders(circle16, su2_2):
    su2_half = gs.make_group("su2", band=2, half_integers=True)
    for group, s in ((circle16, 0.5), (su2_2, 2.0), (su2_half, 2.0)):
        weights = gs.canonical_weights(group)
        assert verdict(weights, s, group.window) == "diverging", group.name
        est = gs.embedding_constant_C(weights, s + 1e-3, group.window)
        assert est.verdict == "summable", group.name
        assert est.value < est.upper < math.inf


def test_summability_su2_s4_term_decay_rate():
    # past band 20 the terms behave like 8/l^5, and the tail bound like
    # 2/20^4 within about ten percent of the tail itself
    window = su2_window(20)
    direct = direct_su2_tail(20.0, 1.0, 4.0)
    bound = gs.embedding_constant_C(gs.su2_weights(), 4.0, window)
    tail = bound.upper**2 - bound.value**2
    assert direct <= tail <= 1.2 * direct


def test_summability_finite_dual(z12, s3, z2):
    for group in (z12, s3, z2):
        for weights in (gs.zero_weights(), gs.canonical_weights(group)):
            for s in (0.0, 1.0):
                est = gs.embedding_constant_C(weights, s, group.window)
                assert est.verdict == "summable" and est.upper == est.value


def test_summability_table_weights_stay_in_window(circle16):
    table = {n: float(abs(n)) for n in circle16.window.labels}
    weights = gs.weights_from_table(table, circle16.window)
    for s in (0.5, 1.0, 5.0):
        est = gs.embedding_constant_C(weights, s, circle16.window)
        assert est.verdict == "undecided" and est.upper == math.inf
        assert est.value == gs.embedding_constant_C(gs.circle_weights(), s, circle16.window).value


def test_summability_circle_canonical_probes(circle16):
    weights = gs.circle_weights()
    est = gs.embedding_constant_C(weights, 1.0, circle16.window)
    assert est.verdict == "summable"
    # the closed form reaches past band 16: 2 * 16^(1 - 2s) / (2s - 1) = 2/16
    assert abs(est.upper**2 - est.value**2 - 2.0 / 16) <= 1e-12


def test_summability_partial_sums_monotone():
    # as the window grows the interval [value, upper] can only shrink
    ladders = [
        [(circle_window(b), gs.circle_weights) for b in range(0, 21)],
        [(su2_window(b), gs.su2_weights) for b in range(0, 7)],
        [(su2_window(k / 2, half=True), gs.su2_weights) for k in range(0, 13)],
    ]
    for ladder in ladders:
        for s in (2.5, 4.0):
            ests = [gs.embedding_constant_C(make(), s, w) for w, make in ladder]
            for small, big in zip(ests, ests[1:]):
                assert small.value <= big.value
                assert big.upper <= small.upper * (1.0 + 1e-12)


@pytest.mark.parametrize("band", [0, 1, 16, 512])
def test_circle_tail_bound_encloses_the_tail(band):
    tail = sobolev._TAIL_BOUNDS["circle", sobolev._abs_frequency]
    for s in (0.5 + 1e-3, 0.75, 1.0, 2.0, 5.0):
        bound = tail(s, circle_window(band))
        direct = direct_circle_tail(band, s)
        assert math.isfinite(bound) and bound >= direct
        # every term past the direct sum is at most n^(-2s): Hurwitz zeta
        assert bound >= direct + 2.0 * zeta(2.0 * s, DIRECT_TERMS + 1)


@pytest.mark.parametrize(
    "band, half",
    [(0, False), (1, False), (2, False), (6, False), (0, True), (0.5, True), (1, True), (2, True), (6, True)],
)
def test_su2_tail_bound_encloses_the_tail(band, half):
    tail = sobolev._TAIL_BOUNDS["su2", sobolev._sqrt_laplacian]
    for s in (2.0 + 1e-3, 2.5, 3.0, 4.0, 8.0):
        bound = tail(s, su2_window(band, half))
        direct = direct_su2_tail(float(band), 0.5 if half else 1.0, s)
        assert math.isfinite(bound) and bound >= direct


# ---------------------------------------------------------------------------
# weight sequences


def test_canonical_weights_dispatch(z12, circle16, su2_2, s3):
    assert gs.canonical_weights(z12).name == "zero"
    assert gs.canonical_weights(s3).name == "zero"
    w = gs.canonical_weights(circle16)
    assert w.name == "abs-frequency" and w.value(-3) == 3.0
    w = gs.canonical_weights(su2_2)
    assert w.name == "sqrt-laplacian"
    assert abs(w.value(2.0) - math.sqrt(6.0)) <= 1e-15


def test_weights_from_table_validation(z4):
    for bad in (-1.0, math.inf, math.nan, 10**400, None, True, "1.5", [1.0]):
        message = f"weight for 0 must be a finite number >= 0, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            gs.weights_from_table({1: 0.0, 0: bad, 2: 0.0, 3: 0.0}, z4.window)
    assert gs.weights_from_table({0: 0, 1: np.float64(1.5), 2: 2, 3: 0.0}, z4.window).value(1) == 1.5
    with pytest.raises(ValueError, match="missing"):
        gs.weights_from_table({0: 0.0}, z4.window)


def test_weight_sequence_missing_label_raises():
    ws = gs.WeightSequence("partial", {0: 1.0})
    with pytest.raises(KeyError):
        ws.value(1)
