"""Concrete compact groups: irreps, matrix coefficients, Haar quadrature.

Built-in groups are the cyclic groups Z_n, the symmetric group S3, the
circle, and SU(2); additional finite groups can be loaded from a JSON
description (multiplication table plus unitary irrep matrices).

Every group bundles a truncated unitary dual (the "window"), vectorized
irrep evaluators, and a quadrature rule for the normalized Haar measure.
The rule is sized so that products of any two window matrix coefficients
integrate exactly, which makes the Schur orthogonality relations

    quad( u_{ij}^sigma * conj(u_{kl}^tau) ) = delta * delta * delta / d_sigma

hold at quadrature precision. ``orthogonality_selftest`` checks this
directly rather than trusting the sizing argument.

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
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = [
    "DualWindow",
    "GroupSpec",
    "Irrep",
    "OrthogonalityReport",
    "QuadratureRule",
    "group_from_window",
    "irrep_matrix",
    "make_group",
    "matrix_coefficient",
    "orthogonality_selftest",
    "su2_element_matrix",
    "wigner_d_matrix",
]

#: Largest acceptable deviation from exact Schur orthogonality.
ORTHOGONALITY_TOL = 1e-9

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# rotation matrices for SU(2)


def _little_d_matrix(ell: float, beta: np.ndarray) -> np.ndarray:
    """Real d-matrices of spin ``ell`` at angles ``beta``, shape (n, d, d).

    Rows and columns are indexed by m = ell, ell-1, ..., -ell. Uses the
    explicit factorial sum, valid for integer and half-integer spin.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    two_j = int(round(2 * ell))
    dim = two_j + 1
    c = np.cos(beta / 2.0)
    s = np.sin(beta / 2.0)
    fact = math.factorial
    out = np.zeros((beta.size, dim, dim))
    for a in range(dim):  # row: m' = ell - a, doubled value two_j - 2a
        two_mp = two_j - 2 * a
        for b in range(dim):  # col: m = ell - b
            two_m = two_j - 2 * b
            mp_minus_m = (two_mp - two_m) // 2
            pref = math.sqrt(
                fact((two_j + two_mp) // 2)
                * fact((two_j - two_mp) // 2)
                * fact((two_j + two_m) // 2)
                * fact((two_j - two_m) // 2)
            )
            k_min = max(0, -mp_minus_m)
            k_max = min((two_j + two_m) // 2, (two_j - two_mp) // 2)
            acc = np.zeros_like(beta)
            for k in range(k_min, k_max + 1):
                denom = (
                    fact((two_j + two_m) // 2 - k)
                    * fact(k)
                    * fact(mp_minus_m + k)
                    * fact((two_j - two_mp) // 2 - k)
                )
                sign = -1.0 if (mp_minus_m + k) % 2 else 1.0
                acc = acc + (sign / denom) * c ** (two_j - mp_minus_m - 2 * k) * s ** (
                    mp_minus_m + 2 * k
                )
            out[:, a, b] = pref * acc
    return out


def wigner_d_matrix(ell: float, eulers: np.ndarray) -> np.ndarray:
    """Unitary rotation matrices D^ell at Euler triples, shape (n, d, d).

    D(alpha, beta, gamma) = exp(-i m' alpha) d^ell(beta) exp(-i m gamma)
    with row/column order m = ell, ell-1, ..., -ell.
    """
    e = np.atleast_2d(np.asarray(eulers, dtype=float))
    if e.shape[-1] != 3:
        raise ValueError("SU(2) elements are Euler triples (alpha, beta, gamma)")
    alpha, beta, gamma = e[:, 0], e[:, 1], e[:, 2]
    two_j = int(round(2 * ell))
    m = ell - np.arange(two_j + 1)
    d = _little_d_matrix(ell, beta)
    pa = np.exp(-1j * np.outer(alpha, m))
    pg = np.exp(-1j * np.outer(gamma, m))
    return pa[:, :, None] * d * pg[:, None, :]


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
class Irrep:
    """One irreducible unitary representation with a vectorized evaluator."""

    label: Any
    dim: int
    _matrices: Callable[[np.ndarray], np.ndarray]

    def matrices(self, elements) -> np.ndarray:
        """Evaluate at a batch of group elements; returns (n, dim, dim)."""
        out = self._matrices(elements)
        return np.ascontiguousarray(out, dtype=complex)

    def matrix(self, x) -> np.ndarray:
        return self.matrices(_single(x))[0]


def _single(x) -> np.ndarray:
    arr = np.asarray(x)
    return arr[None, ...] if arr.ndim <= 1 else arr


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
        """(d, d, m) view of one label's rows of a packed (K, m) array.

        Entry [i, j] pairs with u_{i+1, j+1}, which is packed row j*d + i.
        """
        d = self.dim_of(label)
        return packed[self.columns(label)].reshape(d, d, -1).swapaxes(0, 1)

    def band_of(self, label) -> float:
        """Band parameter of one label (frequency, spin, or table index)."""
        if self.kind == "circle":
            return float(abs(label))
        if self.kind == "su2":
            return float(label)
        if self.kind == "cyclic":
            return float(label)
        return float(self.index(label))


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

    @property
    def node_count(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """A compact group bundled with its window, irreps, and quadrature."""

    kind: str
    name: str
    window: DualWindow
    quadrature: QuadratureRule
    irreps: dict
    identity: Any
    order: int | None
    _multiply: Callable[[Any, Any], Any]
    _sampler: Callable[[np.random.Generator, int], np.ndarray]
    #: all window coefficients at the nodes, (nodes, K) in packed order, read-only
    node_matrix: np.ndarray | None = None

    def irrep(self, label) -> Irrep:
        try:
            return self.irreps[label]
        except KeyError:
            raise KeyError(f"unknown irrep label {label!r} for {self.name}") from None

    def irrep_matrices(self, label, elements) -> np.ndarray:
        return self.irrep(label).matrices(elements)

    def node_stack(self, label) -> np.ndarray:
        """Irrep matrices at all quadrature nodes; shape (n, d, d), a view."""
        d = self.dim_of(label)
        return self.node_matrix[:, self.window.columns(label)].reshape(-1, d, d)

    def packed_matrices(self, elements, labels=None) -> np.ndarray:
        """Coefficients of ``labels`` (default: the window) at the elements in
        packed column order, shape (n, sum d^2); column-major, so that each
        label's columns are filled contiguously."""
        labels = self.window.labels if labels is None else labels
        out, col = None, 0
        for label in labels:
            mats = self.irrep_matrices(label, elements)
            n, d = mats.shape[:2]
            if out is None:
                k = sum(self.dim_of(l) ** 2 for l in labels)
                out = np.empty((n, k), dtype=complex, order="F")
            out[:, col : col + d * d] = mats.reshape(n, d * d)
            col += d * d
        return out

    def multiply(self, x, y):
        return self._multiply(x, y)

    def random_elements(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Haar-distributed sample of ``count`` elements, one per row."""
        return self._sampler(rng, count)

    def random_element(self, rng: np.random.Generator):
        el = self.random_elements(rng, 1)[0]
        return el if np.ndim(el) else el.item()

    @property
    def node_count(self) -> int:
        return self.quadrature.node_count

    def dim_of(self, label) -> int:
        return self.window.dim_of(label)

    def __repr__(self) -> str:  # keep dataclass noise out of test output
        return f"GroupSpec({self.name})"


def _precompute_stacks(group: GroupSpec) -> None:
    matrix = group.packed_matrices(group.quadrature.nodes)
    matrix.flags.writeable = False
    object.__setattr__(group, "node_matrix", matrix)


# ---------------------------------------------------------------------------
# builders


def _finite_group(
    kind: str,
    name: str,
    mult_table: np.ndarray,
    irrep_tables: dict,
    band: float | int,
    trivial_label,
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

    def make_eval(table: np.ndarray):
        def evaluate(elements):
            idx = np.atleast_1d(np.asarray(elements, dtype=int))
            if idx.min(initial=0) < 0 or idx.max(initial=0) >= order:
                raise ValueError(f"{name}: element index out of range 0..{order - 1}")
            return table[idx]

        return evaluate

    irreps = {
        label: Irrep(label, table.shape[1], make_eval(table))
        for label, table in irrep_tables.items()
    }
    window = DualWindow(
        kind=kind,
        band=band,
        labels=tuple(irrep_tables),
        dims=tuple(t.shape[1] for t in irrep_tables.values()),
        trivial=trivial_label,
    )

    def multiply(x, y):
        return int(mult_table[int(x), int(y)])

    def sampler(rng, count):
        return rng.integers(0, order, size=count)

    group = GroupSpec(
        kind=kind,
        name=name,
        window=window,
        quadrature=QuadratureRule(nodes, weights),
        irreps=irreps,
        identity=identity,
        order=order,
        _multiply=multiply,
        _sampler=sampler,
    )
    _precompute_stacks(group)
    return group


def _make_cyclic(n: int) -> GroupSpec:
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    x = np.arange(n)
    table = (x[:, None] + x[None, :]) % n
    irrep_tables = {}
    for k in range(n):
        chars = np.exp(2j * math.pi * k * x / n)
        irrep_tables[k] = chars.reshape(n, 1, 1)
    return _finite_group("cyclic", f"cyclic({n})", table, irrep_tables, band=n - 1, trivial_label=0)


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
    return _finite_group("s3", "s3", table, tables, band=2, trivial_label="trivial")


def _make_circle(band: int) -> GroupSpec:
    if band < 0:
        raise ValueError("circle band limit must be >= 0")
    band = int(band)
    npts = 4 * band + 1  # exact for trig degree <= 4*band
    nodes = TWO_PI * np.arange(npts) / npts
    weights = np.full(npts, 1.0 / npts)

    labels = [0]
    for b in range(1, band + 1):
        labels.extend([-b, b])

    def make_eval(freq: int):
        def evaluate(elements):
            x = np.atleast_1d(np.asarray(elements, dtype=float))
            return np.exp(1j * freq * x).reshape(-1, 1, 1)

        return evaluate

    irreps = {n: Irrep(n, 1, make_eval(n)) for n in labels}
    window = DualWindow(
        kind="circle",
        band=band,
        labels=tuple(labels),
        dims=(1,) * len(labels),
        trivial=0,
    )

    group = GroupSpec(
        kind="circle",
        name=f"circle({band})",
        window=window,
        quadrature=QuadratureRule(nodes, weights),
        irreps=irreps,
        identity=0.0,
        order=None,
        _multiply=lambda x, y: (float(x) + float(y)) % TWO_PI,
        _sampler=lambda rng, count: rng.uniform(0.0, TWO_PI, size=count),
    )
    _precompute_stacks(group)
    return group


def _make_su2(band: float, half_integers: bool = False) -> GroupSpec:
    if band < 0:
        raise ValueError("SU(2) band limit must be >= 0")
    band = float(band)
    step = 0.5 if half_integers else 1.0
    if not half_integers and abs(band - round(band)) > 1e-12:
        raise ValueError("non-integer SU(2) band requires half_integers=True")
    ells = [k * step for k in range(int(round(band / step)) + 1)]

    n_alpha = math.ceil(4 * band + 2)
    n_beta = math.ceil(2 * band + 1)
    gamma_period = FOUR_PI if half_integers else TWO_PI
    n_gamma = math.ceil((8 if half_integers else 4) * band + 2)

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

    irreps = {
        ell: Irrep(ell, int(round(2 * ell)) + 1, (lambda e, _l=ell: wigner_d_matrix(_l, e)))
        for ell in ells
    }
    window = DualWindow(
        kind="su2",
        band=band,
        labels=tuple(ells),
        dims=tuple(int(round(2 * e)) + 1 for e in ells),
        trivial=0.0,
        half_integers=half_integers,
    )

    def multiply(x, y):
        return _su2_euler_from_matrix(su2_element_matrix(x) @ su2_element_matrix(y))

    def sampler(rng, count):
        alpha = rng.uniform(0.0, TWO_PI, size=count)
        beta = np.arccos(rng.uniform(-1.0, 1.0, size=count))
        gamma = rng.uniform(0.0, FOUR_PI, size=count)
        return np.stack([alpha, beta, gamma], axis=-1)

    name = f"su2({band:g},half)" if half_integers else f"su2({band:g})"
    group = GroupSpec(
        kind="su2",
        name=name,
        window=window,
        quadrature=QuadratureRule(nodes, weights),
        irreps=irreps,
        identity=(0.0, 0.0, 0.0),
        order=None,
        _multiply=multiply,
        _sampler=sampler,
    )
    _precompute_stacks(group)
    return group


# ---------------------------------------------------------------------------
# custom finite groups from JSON


def _make_custom(source) -> GroupSpec:
    """Finite group from {order, mult_table, irreps: [{label, dim, matrices}]}.

    ``matrices`` lists one dim x dim complex matrix per element, entries
    as [re, im] pairs. The table is validated (unitarity, homomorphism
    spot checks, Schur orthogonality) before the group is returned.
    """
    if isinstance(source, (str, Path)):
        data = json.loads(Path(source).read_text())
    else:
        data = dict(source)

    order = int(data["order"])
    if order < 1:
        raise ValueError("custom group: order must be >= 1")
    table = np.asarray(data["mult_table"], dtype=int)
    if table.shape != (order, order):
        raise ValueError(f"custom group: mult_table must be {order}x{order}")
    if table.min() < 0 or table.max() >= order:
        raise ValueError("custom group: mult_table entries must index elements")

    tables: dict[str, np.ndarray] = {}
    for spec in data.get("irreps", []):
        label = str(spec["label"])
        dim = int(spec["dim"])
        raw = np.asarray(spec["matrices"], dtype=float)
        if raw.shape != (order, dim, dim, 2):
            raise ValueError(
                f"custom group: irrep {label!r} needs {order} matrices of "
                f"shape {dim}x{dim} with [re, im] entries"
            )
        mats = raw[..., 0] + 1j * raw[..., 1]
        eye = np.eye(dim)
        for x in range(order):
            dev = np.abs(mats[x] @ mats[x].conj().T - eye).max()
            if dev > 1e-10:
                raise ValueError(
                    f"custom group: irrep {label!r} matrix at element {x} is "
                    f"not unitary (deviation {dev:.3e})"
                )
        if label in tables:
            raise ValueError(f"custom group: duplicate irrep label {label!r}")
        tables[label] = mats

    # Homomorphism spot checks on the supplied matrices.
    rng = np.random.default_rng(0)
    if order <= 32:
        pairs = [(i, j) for i in range(order) for j in range(order)]
    else:
        pairs = list(zip(rng.integers(0, order, 200), rng.integers(0, order, 200)))
    for label, mats in tables.items():
        for i, j in pairs:
            dev = np.abs(mats[table[i, j]] - mats[i] @ mats[j]).max()
            if dev > 1e-9:
                raise ValueError(
                    f"custom group: irrep {label!r} fails the homomorphism "
                    f"check at pair ({i}, {j}) (deviation {dev:.3e})"
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
        str(data.get("name", f"custom({order})")),
        table,
        tables,
        band=len(tables) - 1,
        trivial_label=trivial_label,
    )
    report = orthogonality_selftest(group)
    if not report.passed:
        raise ValueError(
            "custom group: supplied irreps violate Schur orthogonality "
            f"(max deviation {report.max_deviation:.3e}); check that they are "
            "irreducible and pairwise inequivalent"
        )
    return group


# ---------------------------------------------------------------------------
# public operations


def make_group(kind, **params) -> GroupSpec:
    """Build a group from a kind string or a {"kind": ..., ...} mapping.

    Kinds: cyclic(n), s3, circle(band), su2(band, half_integers),
    custom(source=path or dict).
    """
    if isinstance(kind, dict):
        params = {**kind, **params}
        if "kind" not in params:
            raise ValueError("group spec mapping needs a 'kind' entry")
        kind = params.pop("kind")
    if kind == "cyclic":
        group = _make_cyclic(int(_take(kind, params, "n")))
    elif kind == "s3":
        group = _make_s3()
    elif kind == "circle":
        group = _make_circle(int(_take(kind, params, "band")))
    elif kind == "su2":
        group = _make_su2(
            float(_take(kind, params, "band")), bool(params.pop("half_integers", False))
        )
    elif kind == "custom":
        group = _make_custom(_take(kind, params, "source"))
    else:
        raise ValueError(f"unsupported group kind {kind!r}")
    if params:
        raise ValueError(f"unexpected parameters for {kind!r} group: {sorted(params)}")
    return group


def _take(kind, params, name):
    try:
        return params.pop(name)
    except KeyError:
        raise ValueError(f"{kind!r} group requires parameter {name!r}") from None


def group_from_window(window: DualWindow) -> GroupSpec:
    """Rebuild a built-in group matching a serialized dual window."""
    if window.kind == "cyclic":
        return _make_cyclic(int(window.band) + 1)
    if window.kind == "s3":
        return _make_s3()
    if window.kind == "circle":
        return _make_circle(int(window.band))
    if window.kind == "su2":
        return _make_su2(float(window.band), window.half_integers)
    raise ValueError(f"cannot rebuild a {window.kind!r} group from its window alone")


def irrep_matrix(group: GroupSpec, label, x) -> np.ndarray:
    """Unitary matrix of irrep ``label`` at the element ``x``."""
    return group.irrep(label).matrix(x)


def matrix_coefficient(group: GroupSpec, label, i: int, j: int, x) -> complex:
    """Matrix coefficient u_{ij}(x) with 1-based indices.

    With the standard basis this is the (j, i) entry of the irrep matrix;
    its modulus never exceeds 1.
    """
    d = group.dim_of(label)
    if not (1 <= i <= d and 1 <= j <= d):
        raise ValueError(f"coefficient indices must lie in 1..{d}, got ({i}, {j})")
    return complex(irrep_matrix(group, label, x)[j - 1, i - 1])


@dataclass(frozen=True)
class OrthogonalityReport:
    max_deviation: float
    tolerance: float
    passed: bool
    pairs_checked: int


def _coefficient_columns(group: GroupSpec) -> tuple[np.ndarray, np.ndarray]:
    """All window coefficients as columns over the nodes, plus the target Gram."""
    return group.node_matrix, np.diag(1.0 / group.window.entry_dims)


def orthogonality_selftest(
    group: GroupSpec,
    tol: float = ORTHOGONALITY_TOL,
    max_pairs: int | None = None,
    seed: int = 0,
) -> OrthogonalityReport:
    """Quadrature check of Schur orthogonality over the whole window.

    Computes all pairings quad(u * conj(u')) and compares them with the
    exact values delta/d. ``max_pairs`` optionally subsamples coefficient
    pairs for very large windows.
    """
    u, expected = _coefficient_columns(group)
    k = u.shape[1]
    if max_pairs is not None and k * k > max_pairs:
        keep = max(2, math.isqrt(max_pairs))
        idx = np.sort(np.random.default_rng(seed).choice(k, size=min(k, keep), replace=False))
        u = u[:, idx]
        expected = expected[np.ix_(idx, idx)]
    gram = u.conj().T @ (group.quadrature.weights[:, None] * u)
    deviation = float(np.abs(gram - expected).max())
    return OrthogonalityReport(
        max_deviation=deviation,
        tolerance=tol,
        passed=deviation <= tol,
        pairs_checked=u.shape[1] ** 2,
    )
