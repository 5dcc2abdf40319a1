import json
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import groupsobolev as gs
from groupsobolev.groups import _su2_euler_from_matrix

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
    rebuilt = gs.group_from_window(any_group.window)
    assert rebuilt.window == any_group.window


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
        assert np.abs(mat - np.eye(any_group.dim_of(label))).max() <= 1e-12


def test_z4_character_values(z4):
    assert abs(gs.irrep_matrix(z4, 1, 1)[0, 0] - 1j) <= 1e-12
    assert abs(gs.irrep_matrix(z4, 2, 1)[0, 0] + 1.0) <= 1e-12


def test_unitarity_on_random_elements(any_group):
    rng = np.random.default_rng(11)
    els = any_group.random_elements(rng, 1000)
    for label in any_group.window.labels:
        mats = any_group.irrep_matrices(label, els)
        gram = np.einsum("nij,nkj->nik", mats, mats.conj())
        dev = np.abs(gram - np.eye(any_group.dim_of(label))).max()
        assert dev <= 1e-10, (any_group.name, label, dev)


def test_homomorphism_on_sampled_pairs(any_group):
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = any_group.random_element(rng)
        y = any_group.random_element(rng)
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
        d = su2_2.dim_of(label)
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
    x = su2_2.random_element(rng)
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
        x = su2_2.random_element(rng)
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
        x = su2_1h.random_element(rng)
        dev = np.abs(gs.irrep_matrix(su2_1h, 0.5, x) - gs.su2_element_matrix(x)).max()
        assert dev <= 1e-12


def test_su2_multiply_matches_matrix_product(su2_2):
    rng = np.random.default_rng(23)
    for _ in range(200):
        x, y = su2_2.random_element(rng), su2_2.random_element(rng)
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


@pytest.mark.parametrize("ell", [0.5, 1.0, 1.5, 2.0])
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


def test_selftest_subsampling(circle16):
    full = gs.orthogonality_selftest(circle16)
    sub = gs.orthogonality_selftest(circle16, max_pairs=100)
    assert sub.pairs_checked <= 100 < full.pairs_checked
    assert sub.passed


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
# packed node matrix


def test_node_matrix_shape_and_read_only(any_group):
    u = any_group.node_matrix
    assert u.shape == (any_group.node_count, sum(d * d for d in any_group.window.dims))
    assert not u.flags.writeable
    assert any_group.window.offsets[-1] == any_group.window.size == u.shape[1]


def test_node_stack_is_view_of_node_matrix(any_group):
    u = any_group.node_matrix
    nodes = any_group.quadrature.nodes
    for label, d in zip(any_group.window.labels, any_group.window.dims):
        stack = any_group.node_stack(label)
        assert stack.shape == (any_group.node_count, d, d)
        assert np.shares_memory(stack, u)
        assert np.array_equal(stack, any_group.irrep_matrices(label, nodes))


def test_packed_matrices_follow_window_columns(any_group):
    els = any_group.random_elements(np.random.default_rng(3), 7)
    packed = any_group.packed_matrices(els)
    for label, d in zip(any_group.window.labels, any_group.window.dims):
        cols = packed[:, any_group.window.columns(label)]
        assert np.array_equal(cols, any_group.irrep_matrices(label, els).reshape(7, d * d))
    last = any_group.window.labels[-1]
    subset = any_group.packed_matrices(els, [last])
    assert np.array_equal(subset, packed[:, any_group.window.columns(last)])


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
    assert g.order == 3
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
    assert g.order == 3


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


def test_custom_group_shape_errors():
    data = _z3_custom(include_trivial=True)
    data["mult_table"] = [[0, 1], [1, 0]]
    with pytest.raises(ValueError, match="mult_table"):
        gs.make_group("custom", source=data)
