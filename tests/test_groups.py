import dataclasses
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import groupsobolev as gs
from groupsobolev import groups
from groupsobolev.groups import ORTHOGONALITY_TOL, SU2_MAX_SPIN, _su2_euler_from_matrix

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# windows and quadrature rules


def test_cyclic4_window_and_rule(z4):
    assert z4.window.labels == (0, 1, 2, 3)
    assert z4.window.dims == (1, 1, 1, 1)
    assert z4.window.trivial == 0
    assert z4.node_count == 4
    np.testing.assert_allclose(z4.quadrature.weights, 0.25)


def test_circle_window(circle2):
    assert set(circle2.window.labels) == {-2, -1, 0, 1, 2}
    assert circle2.node_count == 9  # uniform grid, >= 2*(2*band)+1 points
    assert abs(circle2.quadrature.weights.sum() - 1.0) < 1e-12


def test_su2_windows(su2_1, su2_1h):
    assert su2_1.window.labels == (0.0, 1.0)
    assert su2_1.window.dims == (1, 3)
    assert su2_1h.window.labels == (0.0, 0.5, 1.0)
    assert su2_1h.window.dims == (1, 2, 3)


def test_su2_band_validation():
    with pytest.raises(ValueError):
        gs.make_group("su2", band=1.5)
    g = gs.make_group("su2", band=1.5, half_integers=True)
    assert 1.5 in g.window.labels


def test_weights_sum_and_nonnegative(any_group):
    w = any_group.quadrature.weights
    assert w.min() >= 0
    assert abs(w.sum() - 1.0) < 1e-12


def test_make_group_errors():
    with pytest.raises(ValueError):
        gs.make_group("frobnicate")
    with pytest.raises(ValueError):
        gs.make_group("cyclic", n=0)
    with pytest.raises(ValueError):
        gs.make_group("circle", band=-1)
    with pytest.raises(ValueError):
        gs.make_group("su2", band=-2)
    with pytest.raises(ValueError, match="requires parameter"):
        gs.make_group("cyclic")
    with pytest.raises(ValueError, match="unexpected parameters"):
        gs.make_group("circle", band=2, typo=1)
    with pytest.raises(ValueError, match="kind"):
        gs.make_group({"n": 4})


def test_make_group_degenerate_bands():
    for spec in ({"kind": "circle", "band": 0}, {"kind": "su2", "band": 0}):
        g = gs.make_group(spec)
        assert g.window.labels == (g.window.trivial,)
        assert gs.orthogonality_selftest(g).passed


def test_group_from_window(any_group):
    rebuilt = gs.make_group(any_group.window)
    assert rebuilt.window == any_group.window
    nodes, weights = any_group.quadrature.nodes, any_group.quadrature.weights
    assert np.array_equal(rebuilt.quadrature.nodes, nodes)
    assert np.array_equal(rebuilt.quadrature.weights, weights)
    assert np.array_equal(rebuilt.packed_matrices(nodes), any_group.packed_matrices(nodes))


@pytest.mark.parametrize(
    "band, refusal",
    [
        (40.0, r"spin 40 is above SU2_MAX_SPIN = 32"),
        (SU2_MAX_SPIN + 1, r"spin 33 is above SU2_MAX_SPIN = 32"),
    ],
)
def test_refused_su2_build_allocates_no_quadrature_grid(band, refusal):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=refusal):
            gs.make_group("su2", band=band)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "spec, name",
    [
        ({"kind": "circle", "band": 2.7}, "band"),
        ({"kind": "circle", "band": "16"}, "band"),
        ({"kind": "circle", "band": math.inf}, "band"),
        ({"kind": "cyclic", "n": 2.5}, "n"),
        ({"kind": "cyclic", "n": True}, "n"),
        ({"kind": "su2", "band": 1, "half_integers": "false"}, "half_integers"),
        ({"kind": "su2", "band": 0.7, "half_integers": True}, "band"),
        ({"kind": "su2", "band": None}, "band"),
    ],
)
def test_group_parameters_are_checked_not_coerced(spec, name):
    with pytest.raises(ValueError, match=rf"group parameter '{name}' needs .*, got {spec[name]!r}"):
        gs.make_group(spec)


def test_integral_float_group_parameters_are_accepted():
    assert gs.make_group({"kind": "circle", "band": 16.0}).name == "circle(16)"
    assert gs.make_group({"kind": "cyclic", "n": 4.0}).name == "cyclic(4)"
    assert gs.make_group({"kind": "su2", "band": 1.5, "half_integers": True}).name == "su2(1.5,half)"


def test_make_group_from_window_needs_a_built_in_kind():
    custom = gs.make_group("custom", source=_z3_custom(include_trivial=True))
    with pytest.raises(ValueError, match="source"):
        gs.make_group(custom.window)


# ---------------------------------------------------------------------------
# irrep evaluators


def test_trivial_irrep_is_one(any_group):
    rng = np.random.default_rng(3)
    els = any_group.random_elements(rng, 50)
    mats = any_group.irrep_matrices(any_group.window.trivial, els)
    assert np.abs(mats - 1.0).max() == 0.0


def test_identity_matrices(any_group):
    for label in any_group.window.labels:
        mat = gs.irrep_matrix(any_group, label, any_group.identity)
        assert np.abs(mat - np.eye(any_group.window.dim_of(label))).max() <= 1e-12


def test_z4_character_values(z4):
    assert abs(gs.irrep_matrix(z4, 1, 1)[0, 0] - 1j) <= 1e-12
    assert abs(gs.irrep_matrix(z4, 2, 1)[0, 0] + 1.0) <= 1e-12


def test_unitarity_on_random_elements(any_group):
    rng = np.random.default_rng(11)
    els = any_group.random_elements(rng, 1000)
    for label in any_group.window.labels:
        mats = any_group.irrep_matrices(label, els)
        gram = np.einsum("nij,nkj->nik", mats, mats.conj())
        dev = np.abs(gram - np.eye(any_group.window.dim_of(label))).max()
        assert dev <= 1e-10, (any_group.name, label, dev)


def test_homomorphism_on_sampled_pairs(any_group):
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = any_group.random_elements(rng, 1)[0]
        y = any_group.random_elements(rng, 1)[0]
        xy = any_group.multiply(x, y)
        for label in any_group.window.labels:
            lhs = gs.irrep_matrix(any_group, label, xy)
            rhs = gs.irrep_matrix(any_group, label, x) @ gs.irrep_matrix(any_group, label, y)
            assert np.abs(lhs - rhs).max() <= 1e-9


def test_coefficient_modulus_bounded(any_group):
    rng = np.random.default_rng(7)
    els = any_group.random_elements(rng, 500)
    for label in any_group.window.labels:
        mats = any_group.irrep_matrices(label, els)
        assert np.abs(mats).max() <= 1.0 + 1e-12


def test_s3_standard_characters(s3):
    # trace multiset of the 2-dim irrep over S3: identity 2, 3-cycles -1,
    # transpositions 0
    traces = sorted(
        round(gs.irrep_matrix(s3, "standard", x).trace().real, 9) for x in range(6)
    )
    assert traces == [-1.0, -1.0, 0.0, 0.0, 0.0, 2.0]
    signs = {complex(gs.irrep_matrix(s3, "sign", x)[0, 0]) for x in range(6)}
    assert signs == {1 + 0j, -1 + 0j}


# ---------------------------------------------------------------------------
# matrix coefficients


def test_matrix_coefficient_identity_is_delta(su2_2):
    for label in su2_2.window.labels:
        d = su2_2.window.dim_of(label)
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                u = gs.matrix_coefficient(su2_2, label, i, j, su2_2.identity)
                assert abs(u - (1.0 if i == j else 0.0)) <= 1e-12


def test_matrix_coefficient_circle_convention(circle2):
    x = 0.618
    u = gs.matrix_coefficient(circle2, 1, 1, 1, x)
    assert abs(u - np.exp(1j * x)) <= 1e-12


def test_matrix_coefficient_is_ji_entry(su2_2):
    rng = np.random.default_rng(2)
    x = su2_2.random_elements(rng, 1)[0]
    mat = gs.irrep_matrix(su2_2, 1.0, x)
    for i in range(1, 4):
        for j in range(1, 4):
            assert gs.matrix_coefficient(su2_2, 1.0, i, j, x) == mat[j - 1, i - 1]


def test_matrix_coefficient_index_errors(z4):
    with pytest.raises(ValueError):
        gs.matrix_coefficient(z4, 1, 0, 1, 0)
    with pytest.raises(ValueError):
        gs.matrix_coefficient(z4, 1, 1, 2, 0)
    with pytest.raises(KeyError):
        gs.matrix_coefficient(z4, 9, 1, 1, 0)


# ---------------------------------------------------------------------------
# SU(2) element machinery


def test_su2_element_matrix_invariants(su2_2):
    rng = np.random.default_rng(13)
    els = su2_2.random_elements(rng, 300)
    for x in els:
        u = gs.su2_element_matrix(x)
        assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-12
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12
        alpha, beta, gamma = x
        assert 0 <= alpha < TWO_PI and 0 <= beta <= math.pi and 0 <= gamma < 2 * TWO_PI


def test_su2_euler_extraction_round_trip(su2_2):
    rng = np.random.default_rng(17)
    for _ in range(500):
        x = su2_2.random_elements(rng, 1)[0]
        u = gs.su2_element_matrix(x)
        e = _su2_euler_from_matrix(u)
        assert np.abs(gs.su2_element_matrix(e) - u).max() <= 1e-12
        assert 0 <= e[0] < TWO_PI and 0 <= e[1] <= math.pi and 0 <= e[2] < 2 * TWO_PI


def test_su2_euler_extraction_degenerate_cases():
    for x in [(0.0, 0.0, 0.0), (1.0, 0.0, 2.0), (0.5, math.pi, 5.0)]:
        u = gs.su2_element_matrix(x)
        e = _su2_euler_from_matrix(u)
        assert np.abs(gs.su2_element_matrix(e) - u).max() <= 1e-12


def test_su2_defining_representation(su2_1h):
    rng = np.random.default_rng(19)
    for _ in range(100):
        x = su2_1h.random_elements(rng, 1)[0]
        dev = np.abs(gs.irrep_matrix(su2_1h, 0.5, x) - gs.su2_element_matrix(x)).max()
        assert dev <= 1e-12


def test_su2_multiply_matches_matrix_product(su2_2):
    rng = np.random.default_rng(23)
    for _ in range(200):
        x, y = su2_2.random_elements(rng, 1)[0], su2_2.random_elements(rng, 1)[0]
        lhs = gs.su2_element_matrix(su2_2.multiply(x, y))
        rhs = gs.su2_element_matrix(x) @ gs.su2_element_matrix(y)
        assert np.abs(lhs - rhs).max() <= 1e-12


# ---------------------------------------------------------------------------
# rotation-matrix oracles


def _angular_momentum_matrices(ell):
    """Spin matrices in the descending-m basis, for the exponential oracle."""
    dim = int(round(2 * ell)) + 1
    m = ell - np.arange(dim)
    jz = np.diag(m.astype(complex))
    jp = np.zeros((dim, dim), dtype=complex)
    for b in range(1, dim):
        jp[b - 1, b] = math.sqrt(ell * (ell + 1) - m[b] * (m[b] + 1))
    jy = (jp - jp.conj().T) / 2j
    return jz, jy


@pytest.mark.parametrize("ell", [0.5, 1.0, 1.5, 2.0, 7.5, 12.0, 24.5, 25.0])
def test_wigner_matrix_against_exponential_oracle(ell):
    jz, jy = _angular_momentum_matrices(ell)
    rng = np.random.default_rng(29)
    for _ in range(25):
        a, b, c = rng.uniform(0, TWO_PI), rng.uniform(0, math.pi), rng.uniform(0, 2 * TWO_PI)
        oracle = (
            scipy.linalg.expm(-1j * a * jz)
            @ scipy.linalg.expm(-1j * b * jy)
            @ scipy.linalg.expm(-1j * c * jz)
        )
        ours = gs.wigner_d_matrix(ell, [(a, b, c)])[0]
        assert np.abs(ours - oracle).max() <= 1e-10


def test_wigner_d1_closed_form():
    rng = np.random.default_rng(31)
    betas = np.concatenate([[0.7], rng.uniform(0, math.pi, 20)])
    got = gs.wigner_d_matrix(1.0, [(0.0, b, 0.0) for b in betas])
    for k, b in enumerate(betas):
        cb, sb = math.cos(b), math.sin(b)
        expected = np.array(
            [
                [(1 + cb) / 2, -sb / math.sqrt(2), (1 - cb) / 2],
                [sb / math.sqrt(2), cb, -sb / math.sqrt(2)],
                [(1 - cb) / 2, sb / math.sqrt(2), (1 + cb) / 2],
            ]
        )
        assert np.abs(got[k] - expected).max() <= 1e-13


def test_wigner_matrices_share_the_d_matrix_of_a_repeated_beta():
    rng = np.random.default_rng(8)
    betas = rng.uniform(0.0, math.pi, 3)
    eulers = np.stack(
        [rng.uniform(0.0, TWO_PI, 12), np.repeat(betas, 4), rng.uniform(0.0, 2 * TWO_PI, 12)], -1
    )
    for ell in (0.5, 2.0, 3.5):
        together = gs.wigner_d_matrix(ell, eulers)
        alone = np.concatenate([gs.wigner_d_matrix(ell, e[None]) for e in eulers])
        assert np.abs(together - alone).max() <= 1e-14


EULER_TRIPLES = st.tuples(
    st.floats(0.0, TWO_PI, exclude_max=True),
    st.floats(0.0, math.pi),
    st.floats(0.0, 2 * TWO_PI, exclude_max=True),
)


@settings(max_examples=60, deadline=None)
@given(two_ell=st.integers(min_value=0, max_value=50), x=EULER_TRIPLES, y=EULER_TRIPLES)
def test_wigner_matrices_are_a_unitary_representation(su2_1h, two_ell, x, y):
    ell = two_ell / 2.0
    dx, dy, dxy = gs.wigner_d_matrix(ell, [x, y, su2_1h.multiply(x, y)])
    assert np.abs(dxy - dx @ dy).max() <= 1e-9
    assert np.abs(dx @ dx.conj().T - np.eye(two_ell + 1)).max() <= 1e-12


def test_wigner_refuses_spin_above_the_limit():
    with pytest.raises(ValueError, match=r"spin 32.5 is above SU2_MAX_SPIN = 32"):
        gs.wigner_d_matrix(SU2_MAX_SPIN + 0.5, [(0.3, 1.1, 2.0)])


@pytest.mark.parametrize("spin", [0.3, -0.5, -1.0, math.nan])
def test_wigner_refuses_a_spin_that_is_not_a_nonnegative_half_integer(spin):
    with pytest.raises(ValueError, match=f"spin {spin:g} is not a nonnegative multiple of 1/2"):
        gs.wigner_d_matrix(spin, [(0.3, 1.1, 2.0)])


@pytest.mark.parametrize("eulers", [[0.1, 0.2], np.zeros((4, 2)), np.zeros((2, 4))])
def test_wigner_refuses_elements_that_are_not_euler_triples(eulers):
    with pytest.raises(ValueError, match="Euler triples"):
        gs.wigner_d_matrix(1.0, eulers)


def test_wigner_at_the_spin_limit_is_unitary():
    betas = np.linspace(0.0, math.pi, 2001)
    eulers = np.stack([np.full_like(betas, 0.3), betas, np.full_like(betas, 2.0)], axis=-1)
    mats = gs.wigner_d_matrix(SU2_MAX_SPIN, eulers)
    deviation = np.abs(mats @ mats.conj().swapaxes(1, 2) - np.eye(mats.shape[1])).max()
    assert deviation <= ORTHOGONALITY_TOL


@pytest.mark.parametrize("ell", [0.5, 1.0, 2.0])
def test_wigner_normalization_by_quadrature_oracle(ell):
    # Schur normalization of each matrix entry, checked with an
    # independent dense Simpson rule: int |d_{ab}(beta)|^2 sin(beta)/2
    # over [0, pi] must equal 1/(2*ell+1).
    betas = np.linspace(0.0, math.pi, 2001)
    mats = gs.wigner_d_matrix(ell, [(0.0, b, 0.0) for b in betas]).real
    dim = int(round(2 * ell)) + 1
    for a in range(dim):
        for b in range(dim):
            integrand = mats[:, a, b] ** 2 * np.sin(betas) / 2.0
            val = scipy.integrate.simpson(integrand, x=betas)
            assert abs(val - 1.0 / (2 * ell + 1)) <= 1e-9


# ---------------------------------------------------------------------------
# orthogonality self-test


def test_selftest_exact_finite_groups(z4, z12, s3):
    for g in (z4, z12, s3):
        rep = gs.orthogonality_selftest(g)
        assert rep.passed and rep.max_deviation <= 1e-12


def test_selftest_circle(circle2):
    rep = gs.orthogonality_selftest(circle2)
    assert rep.passed and rep.max_deviation <= 1e-12


def test_selftest_su2(su2_2, su2_1h):
    for g in (su2_2, su2_1h):
        rep = gs.orthogonality_selftest(g)
        assert rep.passed and rep.max_deviation <= 1e-9


def _dense_deviation(group):
    """max |u^H W u - I/d| of the node matrix u, the window's coefficients at every node."""
    u = group.packed_matrices(group.quadrature.nodes)
    gram = u.conj().T @ (group.quadrature.weights[:, None] * u)
    return float(np.abs(gram - np.diag(1.0 / group.window.entry_dims)).max())


#: The dense Gram's own rounding: on the correct grids below it reads up to 1.8e-15
#: (su2(1)), where the self-test's smaller sums read 4.4e-16.
DENSE_ROUNDING = 1e-14

ORACLE_GROUPS = (
    *({"kind": "su2", "band": band} for band in range(5)),
    *({"kind": "su2", "band": band / 2, "half_integers": True} for band in range(1, 6)),
    {"kind": "circle", "band": 16},
    {"kind": "cyclic", "n": 12},
)


@pytest.mark.parametrize("spec", ORACLE_GROUPS, ids=lambda spec: gs.make_group(spec).name)
def test_selftest_never_under_reports_the_dense_gram(spec):
    group = gs.make_group(spec)
    report, dense = gs.orthogonality_selftest(group), _dense_deviation(group)
    assert report.pairs_checked == group.window.size**2
    assert report.max_deviation >= dense - DENSE_ROUNDING
    assert max(report.max_deviation, dense) <= 1e-13


def _su2_axes_with(change):
    axes = groups._su2_axes
    return lambda band, half: change(*axes(band, half))


@pytest.mark.parametrize(
    "spec, sizing, replacement",
    [
        # beta one Gauss node short: the Gram's beta integrands are polynomials of degree
        # l + l' <= 2B in cos(beta), so it needs B + 1 of the 2B + 1 nodes the grid has
        (
            {"kind": "su2", "band": 6},
            "_su2_axes",
            _su2_axes_with(lambda a, b, c, p: (a, (b - 1) // 2, c, p)),
        ),
        # half-integer spins with gamma over 2 pi
        (
            {"kind": "su2", "band": 2.5, "half_integers": True},
            "_su2_axes",
            _su2_axes_with(lambda a, b, c, p: (a, b, c, TWO_PI)),
        ),
        # alpha or gamma grids of 12 nodes at band 6
        ({"kind": "su2", "band": 6}, "_su2_axes", _su2_axes_with(lambda a, b, c, p: (12, b, c, p))),
        ({"kind": "su2", "band": 6}, "_su2_axes", _su2_axes_with(lambda a, b, c, p: (a, b, 12, p))),
        # a circle grid of 2B nodes
        ({"kind": "circle", "band": 16}, "_circle_node_count", lambda band: 2 * band),
    ],
    ids=["beta-short", "half-gamma-2pi", "alpha-12", "gamma-12", "circle-2B"],
)
def test_selftest_fails_on_a_grid_too_small(monkeypatch, spec, sizing, replacement):
    monkeypatch.setattr(groups, sizing, replacement)
    group = gs.make_group(spec)
    report = gs.orthogonality_selftest(group)
    assert not report.passed and report.max_deviation > 1e-3
    assert report.max_deviation >= _dense_deviation(group) - DENSE_ROUNDING


#: (coarse, fine): each coarse window inside the fine one.
FOUR_FOLD_CASES = [
    ({"kind": "su2", "band": 2}, {"kind": "su2", "band": 4}),
    ({"kind": "su2", "band": 1.5, "half_integers": True}, {"kind": "su2", "band": 3, "half_integers": True}),
    ({"kind": "circle", "band": 16}, {"kind": "circle", "band": 32}),
]


def _l4_gap(coarse_spec, fine_spec) -> float:
    """Largest relative gap between the L^4 norms of three draws on the coarse
    grid and on the fine one, with the draws padded into the fine window."""
    coarse, fine = gs.make_group(coarse_spec), gs.make_group(fine_spec)
    gaps = []
    for seed in range(3):
        c = gs.random_band_limited(seed, coarse, m=2)
        padded = gs.FourierCoefficients(fine.window, 2, {l: c.block(l) for l in coarse.window.labels})
        a, b = (gs.lebesgue_norm(x, g, 4.0) for x, g in ((c, coarse), (padded, fine)))
        gaps.append(abs(a - b) / b)
    return max(gaps)


@pytest.mark.parametrize("coarse, fine", FOUR_FOLD_CASES, ids=["su2-2", "su2-1.5-half", "circle-16"])
def test_grids_integrate_products_of_four_window_coefficients(coarse, fine):
    # |f|_E^4 at p_E = 2 is a sum of products of four window coefficients
    assert _l4_gap(coarse, fine) <= 1e-13


@pytest.mark.parametrize("coarse, fine", FOUR_FOLD_CASES, ids=["su2-2", "su2-1.5-half", "circle-16"])
def test_two_fold_grids_pass_schur_but_miss_the_l4_norm(monkeypatch, coarse, fine):
    two_fold = _su2_axes_with(lambda a, b, c, p: (a // 2, (b + 1) // 2, c // 2, p))
    monkeypatch.setattr(groups, "_su2_axes", two_fold)
    monkeypatch.setattr(groups, "_circle_node_count", lambda band: 2 * band + 1)
    assert gs.orthogonality_selftest(gs.make_group(coarse)).max_deviation <= 1e-13
    assert _l4_gap(coarse, fine) > 1e-4


def _copied(ell, eulers):
    return groups.wigner_d_matrix(ell, eulers)


def _halved(ell, eulers):
    return 0.5 * groups.wigner_d_matrix(ell, eulers)


def _top_spin_gamma_flipped(ell, eulers):
    flipped = np.asarray(eulers, dtype=float) * np.array([1.0, 1.0, -1.0 if ell == 2 else 1.0])
    return groups.wigner_d_matrix(ell, flipped)


@pytest.mark.parametrize("evaluator", [_halved, _top_spin_gamma_flipped], ids=["halved", "gamma"])
def test_selftest_fails_on_an_evaluator_apart_from_the_tables(su2_2, evaluator):
    # SU(2)'s Gram comes from the transforms' tables; the evaluator is tied to them at nodes
    drifted = dataclasses.replace(su2_2, _matrices=evaluator)
    report = gs.orthogonality_selftest(drifted)
    assert not report.passed and report.max_deviation > 1e-3
    same = dataclasses.replace(su2_2, _matrices=_copied)
    assert gs.orthogonality_selftest(same).max_deviation <= 1e-13
    assert gs.orthogonality_selftest(su2_2).max_deviation <= 1e-13


def test_entry_difference_bounded_by_operator_norm(su2_2):
    rng = np.random.default_rng(37)
    for label in su2_2.window.labels:
        xs = su2_2.random_elements(rng, 200)
        ys = su2_2.random_elements(rng, 200)
        diff = su2_2.irrep_matrices(label, xs) - su2_2.irrep_matrices(label, ys)
        entry = np.abs(diff).max(axis=(1, 2))
        op = np.linalg.svd(diff, compute_uv=False)[:, 0]
        assert (entry <= op + 1e-10).all()


# ---------------------------------------------------------------------------
# packed coefficient matrices; at the quadrature nodes, the node matrix


def test_node_matrix_shape_and_read_only(any_group):
    # no group holds a node matrix: each call builds the caller's own copy
    nodes = any_group.quadrature.nodes
    u = any_group.packed_matrices(nodes)
    assert u.shape == (any_group.node_count, any_group.window.size)
    assert any_group.window.offsets[-1] == sum(d * d for d in any_group.window.dims)
    before = u.copy()
    u[...] = 0.0
    assert np.array_equal(any_group.packed_matrices(nodes), before)


def test_node_stack_is_view_of_node_matrix(any_group):
    nodes = any_group.quadrature.nodes
    u = any_group.packed_matrices(nodes)
    for label, d in zip(any_group.window.labels, any_group.window.dims):
        stack = u[:, any_group.window.columns(label)].reshape(-1, d, d)
        assert stack.shape == (any_group.node_count, d, d)
        assert np.shares_memory(stack, u)
        assert np.array_equal(stack, any_group.irrep_matrices(label, nodes))


def test_packed_matrices_follow_window_columns(any_group):
    # column a*d + b of a label is its matrix entry (a, b), at random elements and at the nodes
    nodes = any_group.quadrature.nodes
    for els in (any_group.random_elements(np.random.default_rng(3), 7), nodes):
        packed = any_group.packed_matrices(els)
        for label, d in zip(any_group.window.labels, any_group.window.dims):
            cols = packed[:, any_group.window.columns(label)]
            assert np.array_equal(cols, any_group.irrep_matrices(label, els).reshape(len(els), d * d))


@pytest.mark.parametrize("bad", [1.7, -0.5, math.nan, math.inf, "1"])
def test_finite_groups_refuse_non_integral_elements(s3, z12, bad):
    for group, label in ((s3, "standard"), (z12, 5)):
        with pytest.raises(ValueError, match="element indices must be integers"):
            group.irrep_matrices(label, [0, bad])
        with pytest.raises(ValueError, match="element indices must be integers"):
            group.multiply(bad, 0)
        with pytest.raises(ValueError, match="element indices must be integers"):
            group.multiply(1, bad)


def test_finite_groups_take_integral_floats_and_refuse_foreign_indices(s3):
    whole = s3.irrep_matrices("standard", [1.0, 2.0])
    assert np.array_equal(whole, s3.irrep_matrices("standard", [1, 2]))
    assert s3.multiply(2.0, np.int64(3)) == s3.multiply(2, 3)
    for x, y in ((-1, 0), (0, 6)):
        with pytest.raises(ValueError, match="out of range"):
            s3.multiply(x, y)


@pytest.mark.parametrize(
    "labels, dims, trivial, message",
    [
        ((0, 1, 1), (1, 1, 1), 0, "labels must be distinct"),
        ((0, 1), (1, 1), 2, "trivial representation must be in the window"),
        ((0, 1), (1,), 0, "labels and dims must be parallel"),
    ],
)
def test_dual_window_refuses_an_inconsistent_description(labels, dims, trivial, message):
    with pytest.raises(ValueError, match=message):
        gs.DualWindow("cyclic", 1, labels, dims, trivial)


@pytest.mark.parametrize(
    "nodes, weights, message",
    [
        (np.arange(3), np.full(2, 0.5), "equal length"),
        (np.arange(2), np.full((2, 1), 0.5), "equal length"),
        (np.arange(2), np.array([1.5, -0.5]), "nonnegative"),
        (np.arange(2), np.full(2, 0.4), "sum to 1"),
    ],
)
def test_quadrature_rule_refuses_inconsistent_nodes_and_weights(nodes, weights, message):
    with pytest.raises(ValueError, match=message):
        gs.QuadratureRule(nodes, weights)


def test_window_index_rejects_foreign_labels(su2_2):
    assert su2_2.window.index(1) == su2_2.window.index(1.0) == 1
    for label in (7.0, "x", [1.0]):
        with pytest.raises(KeyError):
            su2_2.window.index(label)


# ---------------------------------------------------------------------------
# custom finite groups


def _z3_custom(include_trivial: bool) -> dict:
    order = 3
    table = [[(i + j) % order for j in range(order)] for i in range(order)]

    def character(k):
        return [
            [[[math.cos(TWO_PI * k * x / order), math.sin(TWO_PI * k * x / order)]]]
            for x in range(order)
        ]

    irreps = [{"label": f"chi{k}", "dim": 1, "matrices": character(k)} for k in range(1, order)]
    if include_trivial:
        irreps.insert(0, {"label": "chi0", "dim": 1, "matrices": character(0)})
    return {"order": order, "mult_table": table, "irreps": irreps}


def test_custom_group_loads_and_passes():
    g = gs.make_group("custom", source=_z3_custom(include_trivial=True))
    assert g.node_count == 3
    assert g.window.trivial == "chi0"
    assert gs.orthogonality_selftest(g).passed


def test_custom_group_auto_adds_trivial():
    g = gs.make_group("custom", source=_z3_custom(include_trivial=False))
    assert g.window.trivial == "trivial"
    assert set(g.window.labels) == {"trivial", "chi1", "chi2"}
    assert gs.orthogonality_selftest(g).passed


def test_custom_group_from_file(tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(_z3_custom(include_trivial=True)))
    g = gs.make_group("custom", source=path)
    assert g.node_count == 3


@pytest.mark.parametrize("name", ["z4", "s3", "circle2", "su2_1", "custom_z3"])
def test_the_sup_probe_and_the_constant_tail_agree_on_which_groups_are_finite(name, request):
    """``probed_sup`` draws elements off the nodes exactly when ``embedding_constant_C``
    bounds a tail past the window: both read ``groups.FINITE_KINDS``."""
    if name == "custom_z3":
        group = gs.make_group("custom", source=_z3_custom(include_trivial=True))
    else:
        group = request.getfixturevalue(name)
    drawn = []

    def draw(rng, count):
        drawn.append(count)
        return group.random_elements(rng, count)

    gs.probed_sup(gs.random_band_limited(0, group, m=2),
                  dataclasses.replace(group, random_elements=draw), 50, 0)
    estimate = gs.embedding_constant_C(gs.canonical_weights(group), 3.0, group.window)
    assert bool(drawn) == (estimate.upper != estimate.value) == (name in ("circle2", "su2_1"))


def test_custom_group_rejects_nonunitary():
    data = _z3_custom(include_trivial=True)
    data["irreps"][1]["matrices"][2][0][0] = [1.5, 0.0]
    with pytest.raises(ValueError, match=r"chi1.*element 2.*not unitary"):
        gs.make_group("custom", source=data)


def test_custom_group_rejects_broken_homomorphism():
    data = _z3_custom(include_trivial=True)
    # still unitary, but no longer multiplicative
    data["irreps"][1]["matrices"][1][0][0] = [math.cos(0.3), math.sin(0.3)]
    with pytest.raises(ValueError, match="homomorphism"):
        gs.make_group("custom", source=data)


def test_custom_group_rejects_equivalent_duplicates():
    data = _z3_custom(include_trivial=True)
    clone = json.loads(json.dumps(data["irreps"][1]))
    clone["label"] = "chi1_copy"
    data["irreps"].append(clone)
    with pytest.raises(ValueError, match="orthogonality"):
        gs.make_group("custom", source=data)


def test_custom_group_rejects_non_latin_square():
    data = _z3_custom(include_trivial=True)
    data["mult_table"][1] = [1, 1, 0]
    with pytest.raises(ValueError, match="Latin square"):
        gs.make_group("custom", source=data)


def test_custom_group_rejects_non_associative_table():
    # a loop of order 5: a Latin square with identity 0, but 1 * 1 = 0 has no
    # place in a group of order 5
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="not associative at"):
        gs.make_group("custom", source={"order": 5, "mult_table": table, "irreps": []})


def test_custom_group_rejects_incomplete_irreps():
    data = _z3_custom(include_trivial=True)
    del data["irreps"][2]
    with pytest.raises(ValueError, match=r"incomplete.* 2, but the group order is 3"):
        gs.make_group("custom", source=data)


def test_custom_group_above_order_32_loads():
    order = 40
    x = np.arange(order)
    chars = np.exp(2j * math.pi * np.outer(x, x) / order)
    irreps = [
        {"label": f"chi{k}", "dim": 1, "matrices": [[[[z.real, z.imag]]] for z in chars[k]]}
        for k in range(order)
    ]
    table = ((x[:, None] + x[None, :]) % order).tolist()
    g = gs.make_group("custom", source={"order": order, "mult_table": table, "irreps": irreps})
    assert g.window.size == order
    assert gs.orthogonality_selftest(g).passed


def test_equal_windows_hash_equal():
    a, b = (gs.make_group("circle", band=512).window for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)


def test_a_window_pickled_under_another_hash_seed_keeps_its_cache_entry():
    # string labels hash differently under another PYTHONHASHSEED: a hash kept on the pickled
    # window would disagree with the one of an equal window built here
    script = """
import json, pickle, sys
import groupsobolev as gs
window = gs.make_group("custom", source=json.loads(sys.argv[1])).window
hash(window), window.index("chi1"), window.offsets
sys.stdout.buffer.write(pickle.dumps(window))
"""
    data = _z3_custom(include_trivial=True)
    src = str(Path(gs.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script, json.dumps(data)], capture_output=True,
                          env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "1"})
    assert done.returncode == 0, done.stderr
    window, group = pickle.loads(done.stdout), gs.make_group("custom", source=data)
    assert window == group.window and hash(window) == hash(group.window)
    weights = gs.canonical_weights(group)
    assert weights.sobolev_entries(window, 1.0) is weights.sobolev_entries(group.window, 1.0)


def _relabel(data, index, label):
    data["irreps"][index]["label"] = label
    return data


def _redim(data, dim):
    return {**data, "irreps": [{**data["irreps"][0], "dim": dim}]}


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda data: {**data, "order": 0}, "order must be >= 1"),
        (lambda data: {**data, "mult_table": [[0, 1, 2]] * 2}, "mult_table must be 3x3"),
        (lambda data: {**data, "mult_table": [[0, 1, 3], [1, 2, 0], [2, 0, 1]]}, "must index elements"),
        (lambda data: _redim(data, 2), "irrep 'chi1' needs 3 matrices of shape 2x2"),
        (lambda data: _relabel(data, 1, "chi1"), "duplicate irrep label 'chi1'"),
        (lambda data: _relabel(data, 0, "trivial"), "label 'trivial' is taken by a non-trivial irrep"),
        (lambda data: 5, "source needs a mapping or its JSON file, got int"),
        (lambda data: {**data, "order": "3"}, "'custom' group parameter 'order' needs an integer, got '3'"),
        (lambda data: _redim(data, 1.5), "'custom' group parameter 'dim' needs an integer, got 1.5"),
    ],
    ids=["order-0", "table-shape", "table-entry", "matrix-shape", "duplicate", "trivial-taken",
         "source", "order", "dim"],
)
def test_custom_group_refuses_a_malformed_description(edit, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        gs.make_group("custom", source=edit(_z3_custom(include_trivial=False)))


def test_custom_group_shape_errors():
    data = _z3_custom(include_trivial=True)
    data["mult_table"] = [[0, 1], [1, 0]]
    with pytest.raises(ValueError, match="mult_table"):
        gs.make_group("custom", source=data)
