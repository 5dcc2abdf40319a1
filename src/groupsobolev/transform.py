"""Fourier analysis of vector-valued functions on compact groups.

Functions take values in E = C^m with a selectable l^p norm (``p_E``,
default 2). The forward transform of a function sampled on the group's
quadrature nodes is the family of blocks

    C_sigma[i][j] = quad( conj(u_ij(x)) * f(x) ),   0-based i, j,

one (d, d, m) array per window irrep, all stored in one packed (K, m)
array (K = sum of d^2) whose rows follow the packed columns of
``GroupSpec.packed_matrices``; the reconstruction series

    f(x) = sum_sigma d_sigma sum_ij C_sigma[i][j] * u_ij(x)

is a finite sum over the window, so band-limited functions round-trip to
quadrature precision and the p = 2 spectral norm matches the quadrature
L2 norm (Plancherel). The transform and synthesis are the group's node
transforms (see groups.py), and the spectral norms one weighted reduction.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .groups import DualWindow, GroupSpec

__all__ = [
    "FourierCoefficients",
    "VectorFunction",
    "coefficients_from_json",
    "coefficients_to_json",
    "e_norm",
    "forward_transform",
    "label_key",
    "load_coefficients",
    "node_samples",
    "random_band_limited",
    "s_p_norm",
    "save_coefficients",
    "synthesize",
    "weighted_spectral_norm",
]


def e_norm(values, p: float = 2.0, axis: int = -1) -> np.ndarray:
    """l^p norm of complex vectors along ``axis``; ``p`` may be inf."""
    values = np.moveaxis(np.asarray(values), axis, -1)
    if p == 2.0:  # sum of re^2 + im^2: one contraction over the float view, no |a| temporary
        x = np.ascontiguousarray(values, complex if np.iscomplexobj(values) else float).view(float)
        return np.sqrt(np.einsum("...i,...i->...", x, x))
    if math.isinf(p):
        return np.abs(values).max(axis=-1)
    total, scale = _power_sum(np.abs(values), p)
    return scale * total ** (1.0 / p)


def _power_sum(a, p):
    """(sum (a/M)^p over the last axis of moduli ``a``, M) with M = max a where the plain sum
    is not finite, or below the smallest normal float while M > 0, else 1, so that a sum that
    computes keeps its bits; the l^p norm is M sum^(1/p). ``p``: a float, or (..., 1) per vector."""
    with np.errstate(over="ignore"):
        total = (a**p).sum(axis=-1)
    top = a.max(axis=-1, initial=0.0)
    scale = np.where(~np.isfinite(total) | (total < np.finfo(float).tiny) & (top > 0), top, 1.0)
    return ((a / scale[..., None]) ** p).sum(axis=-1) if (scale != 1).any() else total, scale


def label_key(label) -> str:
    """Stable string key for an irrep label (JSON block keys)."""
    return str(label)


class FourierCoefficients:
    """Coefficients over the window, packed into one (K, m) array, or a
    batch of B functions packed into one (B, K, m) array.

    ``packed`` holds K = sum of d^2 rows in the column order of the group's
    ``packed_matrices``. ``blocks[label]`` and ``block(label)`` are (d, d, m) views
    of it, (B, d, d, m) for a batch: entry [i, j] is the E-vector paired
    with the matrix coefficient u_{i+1, j+1}. Labels missing from
    ``blocks`` at construction are zero.

    ``packed`` is a read-only copy of the array passed in, so what is derived
    from it, such as the node samples and the E-norms, is computed once and kept (``memo``).
    """

    def __init__(self, window: DualWindow, m: int, blocks: dict | None = None,
                 p_E: float = 2.0, *, packed: np.ndarray | None = None):
        if m < 1:
            raise ValueError("target dimension m must be >= 1")
        if not p_E >= 1:
            raise ValueError(f"p_E must be >= 1, got {p_E!r}")
        if packed is None:
            packed = np.zeros((window.size, m), dtype=complex)
            for label, block in (blocks or {}).items():
                view = window.block_view(packed, label)  # KeyError for foreign labels
                arr = np.asarray(block, dtype=complex)
                if arr.shape != view.shape:
                    raise ValueError(
                        f"block {label!r} must have shape {view.shape}, got {arr.shape}"
                    )
                view[...] = arr
        elif (packed := np.array(packed, dtype=complex)).shape[-2:] != (window.size, m):
            raise ValueError(f"packed coefficients must have shape (K, m) = ({window.size}, {m})")
        elif packed.ndim > 3:
            raise ValueError("packed coefficients hold one function (K, m) or a batch (B, K, m)")
        if not np.isfinite(packed).all():
            raise ValueError("Fourier coefficients must be finite")
        packed.flags.writeable = False
        self.window, self.m, self.p_E, self.packed = window, m, p_E, packed
        self._memo: dict = {}

    def memo(self, key, compute) -> np.ndarray:
        """``compute()`` on the first call with ``key``, then the kept value; read-only."""
        if (value := self._memo.get(key)) is None:
            value = self._memo[key] = np.asarray(compute())
            value.flags.writeable = False
        return value

    @cached_property
    def blocks(self) -> dict:
        return {label: self.block(label) for label in self.window.labels}

    def block(self, label) -> np.ndarray:
        return self.window.block_view(self.packed, label)

    def _binary(self, other, op):
        if not isinstance(other, FourierCoefficients):
            return NotImplemented
        if self.window != other.window or self.m != other.m:
            raise ValueError("coefficient families live on different windows")
        packed = op(self.packed, other.packed)
        return FourierCoefficients(self.window, self.m, p_E=self.p_E, packed=packed)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return FourierCoefficients(self.window, self.m, p_E=self.p_E, packed=scalar * self.packed)

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return float(np.abs(self.packed).max())

    def max_difference(self, other: "FourierCoefficients") -> float:
        diff = self - other
        return diff.max_abs()


@dataclass(frozen=True, eq=False)
class VectorFunction:
    """E-valued function on a group by its samples at the quadrature nodes,
    an (nodes, m) array; its spectral form is ``forward_transform``."""

    values: np.ndarray
    p_E: float = 2.0

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=complex)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError("samples must have shape (nodes, m)")
        if not np.isfinite(arr).all():
            raise ValueError("function samples must be finite")
        if not self.p_E >= 1:
            raise ValueError(f"p_E must be >= 1, got {self.p_E!r}")
        object.__setattr__(self, "values", np.ascontiguousarray(arr))

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_samples(cls, values, p_E: float = 2.0) -> "VectorFunction":
        return cls(values, p_E)

    def sample(self, group: GroupSpec) -> np.ndarray:
        """Values at the quadrature nodes, shape (nodes, m)."""
        if self.values.shape[0] != group.node_count:
            raise ValueError(
                f"sampled function has {self.values.shape[0]} values but the "
                f"rule has {group.node_count} nodes"
            )
        return self.values


def synthesize(coeffs: FourierCoefficients, group: GroupSpec, elements=None) -> np.ndarray:
    """Evaluate the reconstruction series; returns (n, m) values, (B, n, m)
    for a batch.

    Evaluates at the quadrature nodes by default (the group's node synthesis),
    at ``elements`` otherwise (their packed matrices times the weighted rows).
    """
    if coeffs.window != group.window:
        raise ValueError("coefficient window does not match the group")
    weighted = group.window.entry_dims[:, None] * coeffs.packed
    if elements is None:
        return group.synthesis(weighted)
    return group.packed_matrices(elements) @ weighted


def node_samples(coeffs: FourierCoefficients, group: GroupSpec) -> np.ndarray:
    """``synthesize(coeffs, group)`` at the nodes, computed once per group
    and kept on ``coeffs``; read-only."""
    return coeffs.memo(("samples", group), lambda: synthesize(coeffs, group))


def _node_norms(coeffs: FourierCoefficients, group: GroupSpec) -> np.ndarray:
    """|f(x_k)|_E at the nodes, (n,) or (B, n), kept on ``coeffs`` per group; read-only."""
    return coeffs.memo(("node_norms", group), lambda: e_norm(node_samples(coeffs, group), coeffs.p_E))


def _entry_norms(coeffs: FourierCoefficients) -> np.ndarray:
    """|P[c]|_E per packed row, (K,) or (B, K), kept on ``coeffs``; read-only."""
    return coeffs.memo("entry_norms", lambda: e_norm(coeffs.packed, coeffs.p_E))


def forward_transform(f: VectorFunction, group: GroupSpec) -> FourierCoefficients:
    """Coefficients of ``f`` via quadrature against conj(u_ij), by node analysis."""
    packed = group.analysis(f.sample(group))
    return FourierCoefficients(group.window, f.m, p_E=f.p_E, packed=packed)


def _per_function(values) -> float | np.ndarray:
    """A float for one function, the array of one value per function for a batch."""
    return float(values) if np.ndim(values) == 0 else values


def _pth_root(total, p: float) -> float | np.ndarray:
    """total ** (1/p) per function through the scalar power: numpy's array
    power can differ from it in the last bit, and a batch must not."""
    roots = [t ** (1.0 / p) for t in np.ravel(total).tolist()]
    return _per_function(np.reshape(roots, np.shape(total)))


def weighted_spectral_norm(coeffs: FourierCoefficients, entry_weights, p: float):
    """(sum_c entry_weights[c] * |P[c]|_E^p)^(1/p) over the packed rows P;
    one value per function of a batch."""
    return _pth_root((entry_weights * _entry_norms(coeffs) ** p).sum(axis=-1), p)


def s_p_norm(coeffs: FourierCoefficients, p: float) -> float | np.ndarray:
    """Spectral norm (sum_sigma d_sigma sum_ij |C|_E^p)^(1/p), a float, or
    one value per function of a batch.

    ``p = inf`` is the unweighted max of the entry norms, for diagnostics.
    """
    if not p >= 1:
        raise ValueError(f"spectral norm requires p >= 1, got {p}")
    if math.isinf(p):
        return _per_function(_entry_norms(coeffs).max(axis=-1))
    return weighted_spectral_norm(coeffs, coeffs.window.entry_dims, p)


def random_band_limited(
    seed: int | Sequence[int],
    group: GroupSpec,
    m: int,
    amplitude: str | Callable[[Any, int], float] = "gaussian",
    p_E: float = 2.0,
) -> FourierCoefficients:
    """Seeded random coefficients, one complex-Gaussian draw per entry.

    ``seed`` is one seed, or a sequence of B ints, always read as the batch
    (B, K, m) of their single draws. ``amplitude`` is "gaussian" (unit scale),
    "zero", or a callable (label, dim) -> scale applied per block. Per seed,
    the 2 K m normals are drawn at once and read label by label, each block
    (d, d, m) in row-major order, its real parts first, then its imaginary ones.
    """
    window = group.window
    seeds = list(seed) if np.ndim(seed) else [seed]
    draws = np.zeros((len(seeds), 2 * window.size, m))
    if amplitude != "zero":
        for row, s in zip(draws, seeds):
            np.random.default_rng(s).standard_normal(out=row)
    scales = [1.0 if amplitude in ("gaussian", "zero") else float(amplitude(l, d))
              for l, d in zip(window.labels, window.dims)]
    real = window.row_major_position + window.entry_values(window.offsets[:-1]).astype(int)
    draw = draws[:, real] + 1j * draws[:, real + window.entry_dims.astype(int) ** 2]
    packed = window.entry_values(scales)[:, None] * draw
    # C order: a batch's reductions then sum as each function's own do
    packed = np.ascontiguousarray(packed if np.ndim(seed) else packed[0])
    return FourierCoefficients(window, m, p_E=p_E, packed=packed)


# ---------------------------------------------------------------------------
# serialization


def window_from_json(data: dict) -> DualWindow:
    return DualWindow(
        kind=data["kind"],
        band=data["band"],
        labels=tuple(data["labels"]),
        dims=tuple(int(d) for d in data["dims"]),
        trivial=data["trivial"],
        half_integers=bool(data.get("half_integers", False)),
    )


def coefficients_to_json(coeffs: FourierCoefficients) -> dict:
    """JSON-safe dict; floats keep full precision, zero blocks are dropped."""
    if coeffs.packed.ndim != 2:
        raise ValueError("a coefficient file holds one function, not a batch")
    blocks = {}
    for label in coeffs.window.labels:
        arr = coeffs.block(label)
        if not arr.any():
            continue
        blocks[label_key(label)] = [
            [[[z.real, z.imag] for z in arr[i, j]] for j in range(arr.shape[1])]
            for i in range(arr.shape[0])
        ]
    return {
        "window": asdict(coeffs.window),
        "m": coeffs.m,
        "p_E": "inf" if math.isinf(coeffs.p_E) else coeffs.p_E,
        "blocks": blocks,
    }


def coefficients_from_json(data: dict, group: GroupSpec) -> FourierCoefficients:
    window = window_from_json(data["window"])
    if window != group.window:
        raise ValueError("coefficient file window does not match the group")
    m, p_E = data["m"], data.get("p_E", 2.0)
    if isinstance(m, bool) or not isinstance(m, int):
        raise ValueError(f"coefficient file field 'm' needs an integer, got {m!r}")
    if p_E != "inf" and (isinstance(p_E, bool) or not isinstance(p_E, (int, float))):
        raise ValueError(f"coefficient file field 'p_E' needs a number or 'inf', got {p_E!r}")
    p_E = math.inf if p_E == "inf" else float(p_E)
    by_key = {label_key(l): l for l in group.window.labels}
    blocks = {}
    for key, nested in data["blocks"].items():
        if key not in by_key:
            raise ValueError(f"coefficient file has unknown block key {key!r}")
        raw = np.asarray(nested, dtype=float)
        blocks[by_key[key]] = raw[..., 0] + 1j * raw[..., 1]
    return FourierCoefficients(group.window, m, blocks, p_E)


def dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


def atomic_write_text(path, text) -> None:
    """Write ``text``, a str or an iterable of them, via a temp file in the
    target directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_coefficients(path, coeffs: FourierCoefficients) -> None:
    atomic_write_text(path, dump_json(coefficients_to_json(coeffs)))


def load_coefficients(path, group: GroupSpec) -> FourierCoefficients:
    return coefficients_from_json(json.loads(Path(path).read_text()), group)
