"""Translation equivariance: a metamorphic oracle that ties the group law to synthesis.

Right translation R_y f = f(. y) changes each block B of f's coefficients by
the unitary pi(y), over the block's first axis: B -> pi(y) B. Synthesizing
the translated blocks at x must then give f at multiply(x, y).
"""

import dataclasses

import numpy as np
import pytest

import groupsobolev as gs

#: largest synthesis gap between R_y f at x and f at x y, relative to max |f| at the nodes
TRANSLATION_TOL = 1e-13


@pytest.fixture(scope="module")
def su2_15h():
    return gs.make_group("su2", band=1.5, half_integers=True)


def translated(coeffs, group, y):
    """The coefficients of R_y f: each block B as pi(y) B."""
    blocks = {label: np.einsum("ik,kjm->ijm", gs.irrep_matrix(group, label, y), coeffs.block(label))
              for label in group.window.labels}
    return gs.FourierCoefficients(group.window, coeffs.m, blocks, coeffs.p_E)


def translation_gap(group, draws=5, points=10, seed=0) -> float:
    """max |synthesis of R_y f at x - f(x y)| / max |f| at the nodes, over ``draws`` Haar y
    and ``points`` Haar x each, for one seeded band-limited f with m = 2."""
    rng = np.random.default_rng(seed)
    coeffs = gs.random_band_limited(seed, group, m=2)
    scale, gap = float(np.abs(gs.synthesize(coeffs, group)).max()), 0.0
    for y in group.random_elements(rng, draws):
        xs = group.random_elements(rng, points)
        left = gs.synthesize(translated(coeffs, group, y), group, elements=xs)
        right = gs.synthesize(coeffs, group, elements=np.array([group.multiply(x, y) for x in xs]))
        gap = max(gap, float(np.abs(left - right).max()))
    return gap / scale


@pytest.mark.parametrize("name", ["z12", "s3", "circle16", "su2_2", "su2_15h"])
def test_synthesis_of_a_right_translate_is_the_function_at_the_product(name, request):
    assert translation_gap(request.getfixturevalue(name)) <= TRANSLATION_TOL


def test_the_oracle_fails_transposed_irrep_tables(s3):
    # the transposes are still unitary, but pi(x y)^T = pi(y)^T pi(x)^T: an anti-homomorphism
    mutant = dataclasses.replace(
        s3, _matrices=lambda label, elements: s3._matrices(label, elements).swapaxes(-1, -2))
    assert translation_gap(mutant) > TRANSLATION_TOL


def test_the_oracle_fails_a_group_law_with_its_arguments_swapped(su2_2):
    mutant = dataclasses.replace(su2_2, multiply=lambda x, y: su2_2.multiply(y, x))
    assert translation_gap(mutant) > TRANSLATION_TOL
