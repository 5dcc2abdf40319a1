"""Concrete compact groups: irreps, matrix coefficients, Haar quadrature.

Built-in groups are the cyclic groups Z_n, the symmetric group S3, the
circle, and SU(2); additional finite groups can be loaded from a JSON
description (multiplication table plus unitary irrep matrices).

Every group bundles a truncated unitary dual (the "window"), one
vectorized irrep evaluator, and a quadrature rule for the normalized Haar
measure; ``make_group`` is the one way to build it.
The rule is sized so that products of any four window matrix coefficients
integrate exactly, so the L^4 norm of a band-limited function is exact (the
Lq check's alpha' = 4 at (s, t) = (1, 2), Hausdorff-Young's at alpha = 4/3).
Products of two already make the Schur orthogonality relations

    quad( u_{ij}^sigma * conj(u_{kl}^tau) ) = delta * delta * delta / d_sigma

hold at quadrature precision. ``orthogonality_selftest`` checks this
directly rather than trusting the sizing argument, from the tables the node
transforms hold: no group keeps its (nodes, K) node matrix.

Conventions: inner products are linear in the first argument, the irrep
basis is the standard coordinate basis, so the matrix coefficient
u_{ij}(x) (1-based i, j) is the (j, i) entry of the irrep matrix. SU(2)
elements are ZYZ Euler triples (alpha, beta, gamma) with alpha in
[0, 2*pi), beta in [0, pi], gamma in [0, 4*pi); the spin-1/2 matrix of
the triple is the group element itself.
"""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import permutations
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = [
    "DualWindow",
    "GroupSpec",
    "OrthogonalityReport",
    "QuadratureRule",
    "irrep_matrix",
    "make_group",
    "matrix_coefficient",
    "orthogonality_selftest",
    "su2_element_matrix",
    "wigner_d_matrix",
]

#: Largest acceptable deviation from exact Schur orthogonality.
ORTHOGONALITY_TOL = 1e-9

#: Largest SU(2) spin accepted: the largest band whose round trip (1e-12) and Schur
#: self-test (1e-9) are tested. Its Euler grid has 1.1 million nodes.
SU2_MAX_SPIN = 32.0

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# rotation matrices for SU(2)


def _little_d_matrix(ell: float, beta: np.ndarray) -> np.ndarray:
    """Real d-matrices of spin ``ell`` at angles ``beta``, shape (n, d, d),
    rows and columns indexed by m = ell, ell-1, ..., -ell.

    d(beta) = exp(-i beta J_y) with J_y = V diag(lam) V^H diagonalised once:
    one row of exp(-i beta lam) per angle times the table V[a, k] conj(V[b, k])
    (the Fourier-series method of Trapani & Navaza, Acta Cryst. A62, 2006).
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    dim = int(round(2 * ell)) + 1
    m = ell - np.arange(1, dim)  # J_+ takes m = ell - a to m + 1, row a - 1
    ladder = np.sqrt((ell - m) * (ell + m + 1)) / 2j
    lam, v = np.linalg.eigh(np.diag(ladder, 1) - np.diag(ladder, -1))
    table = np.einsum("ak,bk->kab", v, v.conj()).reshape(dim, dim * dim)
    return (np.exp(-1j * np.outer(beta, lam)) @ table).real.reshape(beta.size, dim, dim)


def _check_spin(ell: float) -> None:
    if not (ell >= 0 and float(2 * ell).is_integer()):
        raise ValueError(f"spin {ell:g} is not a nonnegative multiple of 1/2")
    if ell > SU2_MAX_SPIN:
        raise ValueError(
            f"spin {ell:g} is above SU2_MAX_SPIN = {SU2_MAX_SPIN:g}, the largest band whose "
            f"transforms and orthogonality self-test are tested"
        )


def wigner_d_matrix(ell: float, eulers: np.ndarray) -> np.ndarray:
    """Unitary rotation matrices D^ell at Euler triples, shape (n, d, d).

    D(alpha, beta, gamma) = exp(-i m' alpha) d^ell(beta) exp(-i m gamma)
    with row/column order m = ell, ell-1, ..., -ell; refused for a spin
    that is negative, not a multiple of 1/2, or above ``SU2_MAX_SPIN``.
    """
    _check_spin(ell)
    e = np.atleast_2d(np.asarray(eulers, dtype=float))
    if e.shape[-1] != 3:
        raise ValueError("SU(2) elements are Euler triples (alpha, beta, gamma)")
    alpha, beta, gamma = e[:, 0], e[:, 1], e[:, 2]
    m = ell - np.arange(int(round(2 * ell)) + 1)
    d = np.exp(-1j * np.outer(alpha, m))[:, :, None] * _little_d_matrix(ell, beta)
    return d * np.exp(-1j * np.outer(gamma, m))[:, None, :]


def su2_element_matrix(x) -> np.ndarray:
    """2x2 special-unitary matrix of the Euler triple ``x``.

    Built directly from half-angle formulas, independently of the
    generic rotation-matrix evaluator; coincides with spin 1/2.
    """
    alpha, beta, gamma = (float(v) for v in np.asarray(x, dtype=float))
    cb, sb = math.cos(beta / 2.0), math.sin(beta / 2.0)
    a = np.exp(-0.5j * (alpha + gamma)) * cb
    b = -np.exp(-0.5j * (alpha - gamma)) * sb
    return np.array([[a, b], [-np.conj(b), np.conj(a)]])


def _su2_euler_from_matrix(u: np.ndarray) -> tuple[float, float, float]:
    """Invert ``su2_element_matrix`` up to the identification of charts."""
    a, b = complex(u[0, 0]), complex(u[0, 1])
    beta = 2.0 * math.atan2(abs(b), abs(a))
    if abs(b) < 1e-14:
        return 0.0, 0.0, (-2.0 * np.angle(a)) % FOUR_PI
    if abs(a) < 1e-14:
        return 0.0, math.pi, (2.0 * np.angle(-b)) % FOUR_PI
    p = np.angle(a)  # -(alpha+gamma)/2
    q = np.angle(-b)  # -(alpha-gamma)/2
    alpha_raw = -(p + q)
    gamma_raw = q - p
    shift = math.floor(alpha_raw / TWO_PI)
    alpha = alpha_raw - TWO_PI * shift
    gamma = (gamma_raw - TWO_PI * shift) % FOUR_PI
    return alpha, beta, gamma


# ---------------------------------------------------------------------------
# core containers


@dataclass(frozen=True)
class DualWindow:
    """Ordered, truncated list of irrep labels with their dimensions."""

    kind: str
    band: float | int | None
    labels: tuple
    dims: tuple[int, ...]
    trivial: Any
    half_integers: bool = False

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("dual window labels must be distinct")
        if self.trivial not in self.labels:
            raise ValueError("the trivial representation must be in the window")
        if len(self.dims) != len(self.labels):
            raise ValueError("labels and dims must be parallel")

    def __hash__(self) -> int:  # O(1), and no state to pickle: equal windows agree in any process
        return hash((self.kind, self.band, len(self.labels)))

    @cached_property
    def _positions(self) -> dict:
        return {label: i for i, label in enumerate(self.labels)}

    def index(self, label) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):
            raise KeyError(f"label {label!r} is not in the dual window") from None

    def dim_of(self, label) -> int:
        return self.dims[self.index(label)]

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """First packed column of each label, then K = sum d^2. The packed
        layout puts u_{b+1, a+1} of a label in its column a*d + b."""
        return (0, *np.cumsum([d * d for d in self.dims]).tolist())

    @property
    def size(self) -> int:
        return self.offsets[-1]

    def columns(self, label) -> slice:
        i = self.index(label)
        return slice(self.offsets[i], self.offsets[i + 1])

    def entry_values(self, per_label) -> np.ndarray:
        """Spread one value per label over that label's d^2 packed entries."""
        return np.repeat(np.asarray(per_label, dtype=float), [d * d for d in self.dims])

    @cached_property
    def entry_dims(self) -> np.ndarray:
        out = self.entry_values(self.dims)
        out.flags.writeable = False
        return out

    def block_view(self, packed: np.ndarray, label) -> np.ndarray:
        """(d, d, m) view of one label's rows of a packed (K, m) array, or
        (B, d, d, m) of a packed batch (B, K, m).

        Entry [i, j] pairs with u_{i+1, j+1}, which is packed row j*d + i.
        """
        d = self.dim_of(label)
        rows = packed[..., self.columns(label), :]
        return rows.reshape(*rows.shape[:-2], d, d, -1).swapaxes(-3, -2)

    @cached_property
    def row_major_position(self) -> np.ndarray:
        """Position of each packed row when the blocks are read one label after
        another, each in row-major order as ``block_view(...).ravel()``; read-only."""
        rows = np.arange(self.size)[:, None]
        out = np.argsort(np.concatenate([self.block_view(rows, l).ravel() for l in self.labels]))
        out.flags.writeable = False
        return out


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Haar quadrature: nodes (one element per row) and weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 1 or len(self.nodes) != self.weights.size:
            raise ValueError("nodes and weights must have equal length")
        if np.any(self.weights < 0):
            raise ValueError("quadrature weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """A compact group: its window, a Haar quadrature rule and one evaluator.

    ``_matrices(label, elements)`` returns one window irrep's matrices at a batch of
    elements, a new (n, d, d) array; ``packed_matrices`` puts the window's side by side. The
    node transforms ``analysis`` and ``synthesis`` take samples (..., nodes, m) to
    packed rows (..., K, m), quad(conj(u_c) * f), and rows P back to sum_c u_c * P[c].
    ``multiply(x, y)`` is the product of two elements, and ``random_elements(rng, count)``
    a Haar-distributed sample of ``count`` elements, one per row.
    ``schur_deviation(group)`` bounds max |quad(conj(u_c) * u_c') - delta_cc' / d_c| over
    all K^2 pairs of the tables the node transforms hold from above, up to rounding;
    on SU(2), whose tables are not its evaluator, it also reports the evaluator's
    largest distance from them at three grid nodes.
    """

    kind: str
    name: str
    window: DualWindow
    quadrature: QuadratureRule
    identity: Any
    order: int | None
    _matrices: Callable[[Any, np.ndarray], np.ndarray]
    multiply: Callable[[Any, Any], Any]
    random_elements: Callable[[np.random.Generator, int], np.ndarray]
    analysis: Callable[[np.ndarray], np.ndarray]
    synthesis: Callable[[np.ndarray], np.ndarray]
    schur_deviation: Callable[[GroupSpec], float]

    def irrep_matrices(self, label, elements) -> np.ndarray:
        """Matrices of the window irrep ``label`` at a batch of elements,
        shape (n, d, d); KeyError for a label outside the window."""
        self.window.index(label)
        return self._matrices(label, elements)

    def packed_matrices(self, elements) -> np.ndarray:
        """Coefficients of the window at the elements in packed column order,
        shape (n, K): column a*d + b of a label is its matrix entry (a, b)."""
        n = np.size(elements) // np.size(self.identity)
        return np.concatenate(
            [self.irrep_matrices(l, elements).reshape(n, d * d)
             for l, d in zip(self.window.labels, self.window.dims)], axis=1)

    @property
    def node_count(self) -> int:
        return self.quadrature.weights.size

    def __repr__(self) -> str:  # keep dataclass noise out of test output
        return f"GroupSpec({self.name})"


# ---------------------------------------------------------------------------
# builders


def _finite_group(
    kind: str,
    name: str,
    mult_table: np.ndarray,
    irrep_tables: dict,
    band: float | int,
    trivial_label,
    transforms: dict,
) -> GroupSpec:
    order = mult_table.shape[0]
    nodes = np.arange(order)
    weights = np.full(order, 1.0 / order)

    identity = None
    for e in range(order):
        if np.array_equal(mult_table[e], nodes) and np.array_equal(mult_table[:, e], nodes):
            identity = e
            break
    if identity is None:
        raise ValueError(f"{name}: multiplication table has no identity element")

    def indices(elements) -> np.ndarray:
        idx = np.atleast_1d(np.asarray(elements))
        if idx.dtype.kind not in "iu":
            if idx.dtype.kind != "f" or not np.isfinite(idx).all() or (idx % 1).any():
                raise ValueError(f"{name}: element indices must be integers, got {elements!r}")
            idx = idx.astype(int)
        if idx.min(initial=0) < 0 or idx.max(initial=0) >= order:
            raise ValueError(f"{name}: element index out of range 0..{order - 1}")
        return idx

    window = DualWindow(
        kind=kind,
        band=band,
        labels=tuple(irrep_tables),
        dims=tuple(t.shape[1] for t in irrep_tables.values()),
        trivial=trivial_label,
    )

    def multiply(x, y):
        return int(mult_table[indices(x), indices(y)].item())

    return GroupSpec(
        kind=kind,
        name=name,
        window=window,
        quadrature=QuadratureRule(nodes, weights),
        identity=identity,
        order=order,
        _matrices=lambda label, elements: irrep_tables[label][indices(elements)],
        multiply=multiply,
        random_elements=lambda rng, count: rng.integers(0, order, size=count),
        **transforms,
    )


def _dense_transforms(irrep_tables: dict) -> dict:
    """Node transforms of a finite group as products with its irrep tables, (order, K),
    and its Schur deviation from their Gram u^H W u."""
    tables = [t.reshape(len(t), -1) for t in irrep_tables.values()]
    u = np.concatenate(tables, axis=1)
    w = np.full((len(u), 1), 1.0 / len(u))

    def schur_deviation(group):
        gram = u.conj().T @ (w * u)
        return float(np.abs(gram - np.diag(1.0 / group.window.entry_dims)).max())

    return dict(
        analysis=lambda f: np.conj(u.T @ np.conj(w * f)),
        synthesis=lambda p: u @ p,
        schur_deviation=schur_deviation,
    )


def _fft_transforms(freqs, n: int) -> dict:
    """Node transforms of the characters x -> exp(2 pi i k x / n) at n equally weighted
    nodes (Z_n, or the circle at 2 pi x / n): one FFT, frequency k at index k mod n."""
    freqs = np.asarray(freqs)
    rows = np.mod(freqs, n)

    def analysis(samples):
        return np.fft.fft(samples, axis=-2, norm="forward")[..., rows, :]

    def synthesis(packed):
        full = np.zeros((*packed.shape[:-2], packed.shape[-1], n), dtype=complex)
        full[..., rows] = np.swapaxes(packed, -1, -2)
        return np.ascontiguousarray(np.swapaxes(np.fft.ifft(full, norm="forward"), -1, -2))

    def schur_deviation(group):
        # The Gram quad(conj(u_j) u_k) depends on k - j alone, so the columns of the lowest
        # and the highest frequency hold every entry: the analysis of those two characters.
        ends = (freqs.min(), freqs.max())
        chars = [group._matrices(k, group.quadrature.nodes).reshape(-1, 1) for k in ends]
        gram = analysis(np.concatenate(chars, axis=1))
        return float(np.abs(gram - np.equal.outer(freqs, ends)).max())

    return dict(analysis=analysis, synthesis=synthesis, schur_deviation=schur_deviation)


def _make_cyclic(n: int) -> GroupSpec:
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    x = np.arange(n)
    table = (x[:, None] + x[None, :]) % n
    irrep_tables = {}
    for k in range(n):
        chars = np.exp(2j * math.pi * k * x / n)
        irrep_tables[k] = chars.reshape(n, 1, 1)
    transforms = _fft_transforms(x, n)
    return _finite_group("cyclic", f"cyclic({n})", table, irrep_tables, n - 1, 0, transforms)


def _perm_sign(p: tuple) -> int:
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return -1 if inv % 2 else 1


def _make_s3() -> GroupSpec:
    perms = list(permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    table = np.zeros((order, order), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            comp = tuple(p[q[k]] for k in range(3))
            table[i, j] = idx[comp]

    # 2-dim irrep: permutation action restricted to the sum-zero plane,
    # expressed in an orthonormal basis of that plane.
    basis = np.array(
        [
            [1.0 / math.sqrt(2), 1.0 / math.sqrt(6)],
            [-1.0 / math.sqrt(2), 1.0 / math.sqrt(6)],
            [0.0, -2.0 / math.sqrt(6)],
        ]
    )
    trivial = np.ones((order, 1, 1), dtype=complex)
    sign = np.array([_perm_sign(p) for p in perms], dtype=complex).reshape(order, 1, 1)
    standard = np.zeros((order, 2, 2), dtype=complex)
    for i, p in enumerate(perms):
        pmat = np.zeros((3, 3))
        for j in range(3):
            pmat[p[j], j] = 1.0
        standard[i] = basis.T @ pmat @ basis
    tables = {"trivial": trivial, "sign": sign, "standard": standard}
    return _finite_group("s3", "s3", table, tables, 2, "trivial", _dense_transforms(tables))


def _circle_node_count(band: int) -> int:
    """Equally spaced nodes exact for trigonometric degree <= 4 * band: products of
    any four window characters."""
    return 4 * band + 1


def _su2_axes(band: float, half_integers: bool) -> tuple[int, int, int, float]:
    """(n_alpha, n_beta, n_gamma, gamma period) of the Euler grid that integrates the
    product of any four window coefficients exactly; half-integer spins need gamma
    over 4 pi."""
    n_gamma = math.ceil((8 if half_integers else 4) * band + 2)
    gamma_period = FOUR_PI if half_integers else TWO_PI
    return math.ceil(4 * band + 2), math.ceil(2 * band + 1), n_gamma, gamma_period


def _make_circle(band: int) -> GroupSpec:
    if band < 0:
        raise ValueError("circle band limit must be >= 0")
    band = int(band)
    npts = _circle_node_count(band)
    nodes = TWO_PI * np.arange(npts) / npts
    weights = np.full(npts, 1.0 / npts)

    labels = [0]
    for b in range(1, band + 1):
        labels.extend([-b, b])

    window = DualWindow(
        kind="circle",
        band=band,
        labels=tuple(labels),
        dims=(1,) * len(labels),
        trivial=0,
    )

    return GroupSpec(
        kind="circle",
        name=f"circle({band})",
        window=window,
        quadrature=QuadratureRule(nodes, weights),
        identity=0.0,
        order=None,
        _matrices=lambda freq, x: np.exp(1j * freq * np.asarray(x, dtype=float).reshape(-1, 1, 1)),
        multiply=lambda x, y: (float(x) + float(y)) % TWO_PI,
        random_elements=lambda rng, count: rng.uniform(0.0, TWO_PI, size=count),
        **_fft_transforms(window.labels, npts),
    )


def _make_su2(band: float, half_integers: bool = False) -> GroupSpec:
    if band < 0:
        raise ValueError("SU(2) band limit must be >= 0")
    band = float(band)
    step = 0.5 if half_integers else 1.0
    if not half_integers and abs(band - round(band)) > 1e-12:
        raise ValueError("non-integer SU(2) band requires half_integers=True")
    _check_spin(band)
    ells = [k * step for k in range(int(round(band / step)) + 1)]
    window = DualWindow(
        kind="su2",
        band=band,
        labels=tuple(ells),
        dims=tuple(int(round(2 * e)) + 1 for e in ells),
        trivial=0.0,
        half_integers=half_integers,
    )
    name = f"su2({band:g},half)" if half_integers else f"su2({band:g})"

    n_alpha, n_beta, n_gamma, gamma_period = _su2_axes(band, half_integers)
    alphas = TWO_PI * np.arange(n_alpha) / n_alpha
    t, wt = np.polynomial.legendre.leggauss(n_beta)
    betas = np.arccos(t)
    wbeta = wt / 2.0
    gammas = gamma_period * np.arange(n_gamma) / n_gamma

    mesh = np.meshgrid(alphas, betas, gammas, indexing="ij")
    nodes = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    weights = np.einsum(
        "a,b,c->abc",
        np.full(n_alpha, 1.0 / n_alpha),
        wbeta,
        np.full(n_gamma, 1.0 / n_gamma),
    ).reshape(-1)

    def multiply(x, y):
        return _su2_euler_from_matrix(su2_element_matrix(x) @ su2_element_matrix(y))

    def random_elements(rng, count):
        alpha = rng.uniform(0.0, TWO_PI, size=count)
        beta = np.arccos(rng.uniform(-1.0, 1.0, size=count))
        gamma = rng.uniform(0.0, FOUR_PI, size=count)
        return np.stack([alpha, beta, gamma], axis=-1)

    return GroupSpec(
        kind="su2",
        name=name,
        window=window,
        quadrature=QuadratureRule(nodes, weights),
        identity=(0.0, 0.0, 0.0),
        order=None,
        _matrices=wigner_d_matrix,
        multiply=multiply,
        random_elements=random_elements,
        **_su2_transforms(window, step, alphas, betas, wbeta, gammas),
    )


def _su2_transforms(window, step, alphas, betas, wbeta, gammas) -> dict:
    """Node transforms separable on the Euler grid (Kostelec & Rockmore, 2008):
    D(a, b, c)[m', m] is exp(-i m' a) d(b)[m', m] exp(-i m c), so alpha and gamma
    are products with exponentials over the window's distinct m (gamma's kron the
    identity on the vector axis, built once per m, which spares a layout copy). Beta is
    one batched product per parity class of m with a real table t[m', m, spin, beta] of
    d^spin(beta)[m', m], 0 where spin < max(|m'|, |m|): one GEMM per (m', m) on the values
    as float pairs. ``rows`` puts each packed row in the flat (class, m', m, spin) output."""
    ms = window.band - step * np.arange(round(2 * window.band / step) + 1)
    e_alpha, e_gamma = np.exp(-1j * np.outer(alphas, ms)), np.exp(-1j * np.outer(gammas, ms))
    w_beta = wbeta / (len(alphas) * len(gammas))  # the quadrature weight of a node
    n_a, n_b, n_c, n_m = len(alphas), len(betas), len(gammas), len(ms)
    stride = round(1 / step)  # a spin's m', m: every stride-th of ms, in one class
    classes, spins, rows, size = [], [], np.zeros(window.size, dtype=int), 0
    starts = [round((window.band - ell) / step) for ell in window.labels]
    for p in range(stride):
        held = [(ell, d, r) for ell, d, r in zip(window.labels, window.dims, starts) if r % stride == p]
        t = np.zeros((n := len(range(p, n_m, stride)), n, len(held), n_b))
        for s, (ell, d, r) in enumerate(held):
            i, (a, b) = r // stride, np.divmod(np.arange(d * d), d)
            t[i : i + d, i : i + d, s] = _little_d_matrix(ell, betas).transpose(1, 2, 0)
            rows[window.columns(ell)] = size + ((i + a) * n + i + b) * len(held) + s
            spins.append((ell, slice(r, n_m - r, stride), t[i : i + d, i : i + d, s]))
        classes.append((np.s_[p::stride], t, slice(size, size := size + t[..., 0].size)))

    @cache
    def gamma_factors(m):  # of analysis and of synthesis
        return np.kron(e_gamma.conj(), np.eye(m)), np.kron(e_gamma.T, np.eye(m))

    def analysis(samples):
        *lead, _, m = samples.shape
        g = np.matmul(e_alpha.conj().T, samples.reshape(-1, n_a, n_b * n_c * m))  # (L, m', b, c, e)
        g = g.reshape(-1, n_c * m) @ gamma_factors(m)[0]
        g = (g.reshape(-1, n_m, n_b, n_m, m) * w_beta[:, None, None]).view(float)  # (L, m', b, m, 2e)
        out = [np.matmul(t, g.swapaxes(2, 3)[:, c, c]).reshape(len(g), -1, 2 * m) for c, t, _ in classes]
        return np.concatenate(out, axis=1).view(complex)[:, rows].reshape(*lead, window.size, m)

    def synthesis(packed):
        *lead, _, m = packed.shape
        p = packed.reshape(-1, window.size, m)
        flat = np.zeros((len(p), size, m), dtype=complex)
        flat[:, rows] = p
        g = np.zeros((len(p), n_m, n_b, n_m, 2 * m))  # (L, m', b, m, 2e): e as float pairs
        for c, t, span in classes:
            x = flat.view(float)[:, span].reshape(len(p), *t.shape[:3], 2 * m)
            np.matmul(t.swapaxes(-1, -2), x, out=g.swapaxes(2, 3)[:, c, c])
        g = g.view(complex).reshape(-1, n_m * m) @ gamma_factors(m)[1]  # (L, m', b, c, e)
        f = np.matmul(e_alpha, g.reshape(len(p), n_m, n_b * n_c * m))  # (L, a, b, c, e)
        return f.reshape(*lead, n_a * n_b * n_c, m)

    drift = {}  # evaluator -> evaluator_drift(group), computed once per evaluator

    def evaluator_drift(group):
        # The tables bound the Gram, and the evaluator is tied to them at three grid nodes,
        # (a, b, c) a quarter, a half and three quarters along each axis: O(K) each.
        a, b, c = (np.arange(1, 4) * n // 4 for n in (n_a, n_b, n_c))
        eulers = np.stack([alphas[a], betas[b], gammas[c]], axis=-1)
        distances = []
        for ell, r, d_b in spins:
            tables = e_alpha[a, r, None] * d_b[..., b].transpose(2, 0, 1) * e_gamma[c, None, r]
            distances.append(np.abs(group._matrices(ell, eulers) - tables).max())
        return max(distances)

    def schur_deviation(group):
        # The Gram of c = (l, m', m) and c' = (l', n', n) is A[m', n'] B[c, c'] C[m, n]: A and C
        # of the alpha and gamma exponentials, B of the d-tables over beta. Entries with
        # (m', m) = (n', n) are computed, one Gram over the spins holding (m', m); any other is
        # at most |A[m', n']| |C[m, n]| max_c B[c, c] (Cauchy-Schwarz), per pair of classes.
        inv_d = np.bincount(rows, 1.0 / window.entry_dims, size)  # 1/d at each held (m', m, spin)
        a, c = (np.abs(e.conj().T @ e) for e in (e_alpha, e_gamma))
        a_off, c_off = a - np.diag(a.diagonal()), c - np.diag(c.diagonal())
        worst, b_diag, ac = [], [], []
        for p, (cls, t, span) in enumerate(classes):
            for blk in (np.s_[p::stride, q::stride] for q in range(stride)):
                ac += [a_off[blk].max(initial=0) * c[blk].max(initial=0)]
                ac += [a[blk].max(initial=0) * c_off[blk].max(initial=0)]
            k = np.arange(t.shape[2])
            gram = t @ (w_beta * t).swapaxes(-1, -2)  # (m', m, l, l'): B at each (m', m)
            b_diag.append(gram[..., k, k].max(initial=0))
            gram *= np.multiply.outer(a.diagonal(), c.diagonal())[cls, cls, None, None]
            gram[..., k, k] -= inv_d[span].reshape(t.shape[:3])
            worst.append(np.abs(gram).max(initial=0))
        if group._matrices not in drift:
            drift[group._matrices] = evaluator_drift(group)
        return float(np.max([np.max(worst), np.max(ac) * np.max(b_diag), drift[group._matrices]]))

    return dict(analysis=analysis, synthesis=synthesis, schur_deviation=schur_deviation)


# ---------------------------------------------------------------------------
# custom finite groups from JSON


def _make_custom(source) -> GroupSpec:
    """Finite group from {order, mult_table, irreps: [{label, dim, matrices}]}.

    ``matrices`` lists one dim x dim complex matrix per element, entries
    as [re, im] pairs. Before the group is returned, the table is checked
    to be a Latin square and associative, and the irreps to be unitary,
    homomorphisms, Schur orthogonal and complete (sum of d^2 = order).
    Associativity and the homomorphism property are checked on every tuple
    up to order 32 and on 200 seeded tuples above that.
    """
    data = json.loads(Path(source).read_text()) if isinstance(source, (str, Path)) else source
    if not isinstance(data, Mapping):
        raise ValueError(f"custom group: source needs a mapping or its JSON file, got {type(data).__name__}")
    order = int(_whole("custom", "order", data["order"]))
    if order < 1:
        raise ValueError("custom group: order must be >= 1")
    table = np.asarray(data["mult_table"], dtype=object)
    if table.shape != (order, order):
        raise ValueError(f"custom group: mult_table must be {order}x{order}")
    table = np.array([_whole("custom", "mult_table", x) for x in table.flat], int).reshape(table.shape)
    if table.min() < 0 or table.max() >= order:
        raise ValueError("custom group: mult_table entries must index elements")
    ids = np.arange(order)
    if not ((np.sort(table, axis=0) == ids[:, None]).all() and (np.sort(table, axis=1) == ids).all()):
        raise ValueError(
            "custom group: mult_table is not a Latin square (an element repeats in a row or column)"
        )
    i, j, k = _index_tuples(order, 3)
    if (bad := np.flatnonzero(table[table[i, j], k] != table[i, table[j, k]])).size:
        t = bad[0]
        raise ValueError(f"custom group: mult_table is not associative at ({i[t]}, {j[t]}, {k[t]})")

    irreps, name = data.get("irreps", []), data.get("name", f"custom({order})")
    if not (isinstance(irreps, (list, tuple)) and all(isinstance(x, Mapping) for x in irreps)):
        raise ValueError(f"custom group: irreps needs a list of objects, got {irreps!r}")
    if not isinstance(name, str):
        raise ValueError(f"custom group: name needs a string, got {name!r}")
    tables: dict[str, np.ndarray] = {}
    for spec in irreps:
        label = str(spec["label"])
        dim = int(_whole("custom", "dim", spec["dim"]))
        raw = np.asarray(spec["matrices"], dtype=float)
        if raw.shape != (order, dim, dim, 2):
            raise ValueError(
                f"custom group: irrep {label!r} needs {order} matrices of "
                f"shape {dim}x{dim} with [re, im] entries"
            )
        mats = raw[..., 0] + 1j * raw[..., 1]
        dev = np.abs(mats @ mats.conj().swapaxes(1, 2) - np.eye(dim)).max(axis=(1, 2))
        if (bad := np.flatnonzero(dev > 1e-10)).size:
            x = bad[0]
            raise ValueError(
                f"custom group: irrep {label!r} matrix at element {x} is "
                f"not unitary (deviation {dev[x]:.3e})"
            )
        if label in tables:
            raise ValueError(f"custom group: duplicate irrep label {label!r}")
        tables[label] = mats

    i, j = _index_tuples(order, 2)
    for label, mats in tables.items():
        dev = np.abs(mats[table[i, j]] - mats[i] @ mats[j]).max(axis=(1, 2))
        if (bad := np.flatnonzero(dev > 1e-9)).size:
            t = bad[0]
            raise ValueError(
                f"custom group: irrep {label!r} fails the homomorphism "
                f"check at pair ({i[t]}, {j[t]}) (deviation {dev[t]:.3e})"
            )

    trivial_label = None
    for label, mats in tables.items():
        if mats.shape[1] == 1 and np.abs(mats - 1.0).max() <= 1e-12:
            trivial_label = label
            break
    if trivial_label is None:
        if "trivial" in tables:
            raise ValueError(
                "custom group: label 'trivial' is taken by a non-trivial irrep"
            )
        trivial_label = "trivial"
        tables = {trivial_label: np.ones((order, 1, 1), dtype=complex), **tables}

    group = _finite_group(
        "custom",
        name,
        table,
        tables,
        band=len(tables) - 1,
        trivial_label=trivial_label,
        transforms=_dense_transforms(tables),
    )
    report = orthogonality_selftest(group)
    if not report.passed:
        raise ValueError(
            "custom group: supplied irreps violate Schur orthogonality "
            f"(max deviation {report.max_deviation:.3e}); check that they are "
            "irreducible and pairwise inequivalent"
        )
    if group.window.size != order:
        raise ValueError(
            f"custom group: the irreps are incomplete: their sum of d^2 is "
            f"{group.window.size}, but the group order is {order}"
        )
    return group


def _index_tuples(order: int, arity: int) -> np.ndarray:
    """Element index tuples as rows of an (arity, count) array: every tuple
    up to order 32, else 200 seeded ones."""
    if order <= 32:
        return np.indices((order,) * arity).reshape(arity, -1)
    return np.random.default_rng(0).integers(0, order, size=(arity, 200))


# ---------------------------------------------------------------------------
# public operations


def make_group(kind, **params) -> GroupSpec:
    """Build a group from a kind string, a {"kind": ..., ...} mapping, or
    the ``DualWindow`` of a built-in group (as stored in coefficient files).

    Kinds: cyclic(n), s3, circle(band), su2(band, half_integers),
    custom(source=path or dict).
    """
    if isinstance(kind, DualWindow):
        window, kind = kind, {"kind": kind.kind}
        if window.kind == "cyclic":
            kind["n"] = int(window.band) + 1
        elif window.kind in ("circle", "su2"):
            kind["band"] = window.band
        if window.half_integers:
            kind["half_integers"] = True
    if isinstance(kind, dict):
        params = {**kind, **params}
        if "kind" not in params:
            raise ValueError("group spec mapping needs a 'kind' entry")
        kind = params.pop("kind")
    if kind == "cyclic":
        group = _make_cyclic(int(_whole(kind, "n", _take(kind, params, "n"))))
    elif kind == "s3":
        group = _make_s3()
    elif kind == "circle":
        group = _make_circle(int(_whole(kind, "band", _take(kind, params, "band"))))
    elif kind == "su2":
        half = params.pop("half_integers", False)
        if not isinstance(half, bool):
            raise ValueError(f"{kind!r} group parameter 'half_integers' needs a bool, got {half!r}")
        group = _make_su2(float(_whole(kind, "band", _take(kind, params, "band"), 0.5)), half)
    elif kind == "custom":
        group = _make_custom(_take(kind, params, "source"))
    else:
        raise ValueError(f"unsupported group kind {kind!r}")
    if params:
        raise ValueError(f"unexpected parameters for {kind!r} group: {sorted(params)}")
    return group


def _whole(kind, name, value, unit: float = 1.0):
    """``value`` if it is a whole number of ``unit``s (16.0 counts as 16);
    a bool, a non-number or any other value is refused, naming the parameter."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        if float(value / unit).is_integer():
            return value
    what = "an integer" if unit == 1 else f"a multiple of {unit:g}"
    raise ValueError(f"{kind!r} group parameter {name!r} needs {what}, got {value!r}")


def _take(kind, params, name):
    try:
        return params.pop(name)
    except KeyError:
        raise ValueError(f"{kind!r} group requires parameter {name!r}") from None


def irrep_matrix(group: GroupSpec, label, x) -> np.ndarray:
    """Unitary matrix of irrep ``label`` at the element ``x``."""
    arr = np.asarray(x)
    return group.irrep_matrices(label, arr[None, ...] if arr.ndim <= 1 else arr)[0]


def matrix_coefficient(group: GroupSpec, label, i: int, j: int, x) -> complex:
    """Matrix coefficient u_{ij}(x) with 1-based indices.

    With the standard basis this is the (j, i) entry of the irrep matrix;
    its modulus never exceeds 1.
    """
    d = group.window.dim_of(label)
    if not (1 <= i <= d and 1 <= j <= d):
        raise ValueError(f"coefficient indices must lie in 1..{d}, got ({i}, {j})")
    return complex(irrep_matrix(group, label, x)[j - 1, i - 1])


@dataclass(frozen=True)
class OrthogonalityReport:
    max_deviation: float
    tolerance: float
    passed: bool
    pairs_checked: int


def orthogonality_selftest(group: GroupSpec) -> OrthogonalityReport:
    """Quadrature check of Schur orthogonality over the whole window.

    Compares all K^2 pairings quad(u * conj(u')) with the exact values delta/d
    through ``group.schur_deviation``, which works from the node transforms'
    tables and, up to rounding, never reports less than the dense Gram of those
    tables would; on SU(2) it also ties the evaluator to them at three nodes.
    """
    deviation, tol = group.schur_deviation(group), ORTHOGONALITY_TOL
    return OrthogonalityReport(deviation, tol, deviation <= tol, group.window.size**2)
