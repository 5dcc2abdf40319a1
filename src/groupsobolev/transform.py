"""Fourier analysis of vector-valued functions on compact groups.

Functions take values in E = C^m with a selectable l^p norm (``p_E``,
default 2). The forward transform of a function sampled on the group's
quadrature nodes is the family of blocks

    C_sigma[i][j] = quad( conj(u_ij(x)) * f(x) ),   0-based i, j,

one (d, d, m) array per window irrep, all stored in one packed (K, m)
array (K = sum of d^2) whose rows follow the columns of the group's
(nodes, K) node matrix; the reconstruction series

    f(x) = sum_sigma d_sigma sum_ij C_sigma[i][j] * u_ij(x)

is a finite sum over the window, so band-limited functions round-trip to
quadrature precision and the p = 2 spectral norm matches the quadrature
L2 norm (Plancherel). The transform and synthesis are one matmul each
against the node matrix, and the spectral norms one weighted reduction.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .groups import DualWindow, GroupSpec

__all__ = [
    "FourierCoefficients",
    "VectorFunction",
    "coefficients_from_json",
    "coefficients_to_json",
    "e_norm",
    "forward_transform",
    "inverse_transform",
    "label_key",
    "load_coefficients",
    "random_band_limited",
    "s_p_norm",
    "save_coefficients",
    "synthesize",
    "weighted_spectral_norm",
    "zero_coefficients",
]


def e_norm(values, p: float = 2.0, axis: int = -1) -> np.ndarray:
    """l^p norm of complex vectors along ``axis``; ``p`` may be inf."""
    a = np.abs(np.asarray(values))
    if math.isinf(p):
        return a.max(axis=axis)
    if p == 2.0:
        return np.sqrt((a * a).sum(axis=axis))
    return (a**p).sum(axis=axis) ** (1.0 / p)


def label_key(label) -> str:
    """Stable string key for an irrep label (JSON block keys)."""
    return str(label)


class FourierCoefficients:
    """Coefficients over the window, packed into one (K, m) array.

    ``packed`` holds K = sum of d^2 rows in the column order of the group's
    node matrix. ``blocks[label]`` and ``block(label)`` are (d, d, m) views
    of it: entry [i, j] is the E-vector paired with the matrix coefficient
    u_{i+1, j+1}. Labels missing from ``blocks`` at construction are zero.
    """

    def __init__(self, window: DualWindow, m: int, blocks: dict | None = None,
                 p_E: float = 2.0, *, packed: np.ndarray | None = None):
        if m < 1:
            raise ValueError("target dimension m must be >= 1")
        if p_E < 1:
            raise ValueError("p_E must be >= 1")
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
        elif (packed := np.asarray(packed, dtype=complex)).shape != (window.size, m):
            raise ValueError(f"packed coefficients must have shape ({window.size}, {m})")
        if not np.isfinite(packed).all():
            raise ValueError("Fourier coefficients must be finite")
        self.window, self.m, self.p_E, self.packed = window, m, p_E, packed

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


def zero_coefficients(group: GroupSpec, m: int, p_E: float = 2.0) -> FourierCoefficients:
    return FourierCoefficients(group.window, m, p_E=p_E)


@dataclass(frozen=True, eq=False)
class VectorFunction:
    """E-valued function on a group: node samples or a spectral form.

    Sampled functions are arrays aligned with the quadrature nodes;
    spectral functions wrap coefficients and can be evaluated anywhere.
    """

    m: int
    p_E: float = 2.0
    values: np.ndarray | None = None
    coefficients: FourierCoefficients | None = None

    def __post_init__(self):
        if (self.values is None) == (self.coefficients is None):
            raise ValueError("provide exactly one of samples or coefficients")
        if self.values is not None:
            arr = np.asarray(self.values, dtype=complex)
            if arr.ndim == 1:
                arr = arr[:, None]
            if arr.ndim != 2 or arr.shape[1] != self.m:
                raise ValueError(f"samples must have shape (nodes, {self.m})")
            object.__setattr__(self, "values", np.ascontiguousarray(arr))
        else:
            if self.coefficients.m != self.m:
                raise ValueError("coefficient target dimension disagrees with m")

    @classmethod
    def from_samples(cls, values, p_E: float = 2.0) -> "VectorFunction":
        arr = np.asarray(values, dtype=complex)
        m = 1 if arr.ndim == 1 else arr.shape[1]
        return cls(m=m, p_E=p_E, values=arr)

    @classmethod
    def from_coefficients(cls, coeffs: FourierCoefficients, p_E: float | None = None) -> "VectorFunction":
        return cls(m=coeffs.m, p_E=coeffs.p_E if p_E is None else p_E, coefficients=coeffs)

    @classmethod
    def constant(cls, group: GroupSpec, value, p_E: float = 2.0) -> "VectorFunction":
        """Constant function, represented spectrally by its trivial block."""
        v = np.atleast_1d(np.asarray(value, dtype=complex))
        coeffs = FourierCoefficients(
            group.window, v.size, {group.window.trivial: v.reshape(1, 1, -1)}, p_E
        )
        return cls.from_coefficients(coeffs)

    def sample(self, group: GroupSpec) -> np.ndarray:
        """Values at the quadrature nodes, shape (nodes, m)."""
        if self.values is not None:
            if self.values.shape[0] != group.node_count:
                raise ValueError(
                    f"sampled function has {self.values.shape[0]} values but the "
                    f"rule has {group.node_count} nodes"
                )
            return self.values
        return synthesize(self.coefficients, group)

    def evaluate(self, group: GroupSpec, elements) -> np.ndarray:
        """Values at arbitrary elements; requires the spectral form."""
        if self.coefficients is None:
            raise ValueError("only spectral functions can be evaluated off the nodes")
        return synthesize(self.coefficients, group, elements=elements)


def synthesize(
    coeffs: FourierCoefficients,
    group: GroupSpec,
    elements=None,
    probe: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate the reconstruction series; returns (n, m) values.

    Evaluates at the quadrature nodes by default, at ``elements``
    otherwise (only the irreps whose blocks are nonzero). ``probe`` may
    supply a packed (n, K) matrix from ``GroupSpec.packed_matrices``
    (overrides ``elements``; used to amortize repeated probes).
    """
    window = group.window
    if coeffs.window != window:
        raise ValueError("coefficient window does not match the group")
    weighted = window.entry_dims[:, None] * coeffs.packed
    if probe is not None:
        return probe @ weighted
    if elements is None:
        return group.node_matrix @ weighted
    live = [l for l in window.labels if coeffs.packed[window.columns(l)].any()]
    live = live or [window.trivial]
    rows = np.r_[tuple(window.columns(l) for l in live)]
    return group.packed_matrices(elements, live) @ weighted[rows]


def forward_transform(f: VectorFunction, group: GroupSpec) -> FourierCoefficients:
    """Coefficients of ``f`` via quadrature against conj(u_ij), as one matmul."""
    samples = f.sample(group)
    packed = group.node_matrix.T @ np.conj(group.quadrature.weights[:, None] * samples)
    np.conjugate(packed, out=packed)
    return FourierCoefficients(group.window, f.m, p_E=f.p_E, packed=packed)


def inverse_transform(coeffs: FourierCoefficients, group: GroupSpec) -> VectorFunction:
    """Spectral function evaluating the finite reconstruction series."""
    if coeffs.window != group.window:
        raise ValueError("coefficient window does not match the group")
    return VectorFunction.from_coefficients(coeffs)


def weighted_spectral_norm(coeffs: FourierCoefficients, entry_weights, p: float) -> float:
    """(sum_c entry_weights[c] * |P[c]|_E^p)^(1/p) over the packed rows P."""
    return float((entry_weights * e_norm(coeffs.packed, coeffs.p_E) ** p).sum()) ** (1.0 / p)


def s_p_norm(coeffs: FourierCoefficients, p: float) -> float:
    """Spectral norm (sum_sigma d_sigma sum_ij |C|_E^p)^(1/p).

    ``p = inf`` is the unweighted max of the entry norms, for diagnostics.
    """
    if p < 1:
        raise ValueError("spectral norm requires p >= 1")
    if math.isinf(p):
        return float(e_norm(coeffs.packed, coeffs.p_E).max())
    return weighted_spectral_norm(coeffs, coeffs.window.entry_dims, p)


def random_band_limited(
    seed: int,
    group: GroupSpec,
    m: int,
    amplitude: str | Callable[[Any, int], float] = "gaussian",
    p_E: float = 2.0,
) -> FourierCoefficients:
    """Seeded random coefficients, one complex-Gaussian draw per entry.

    ``amplitude`` is "gaussian" (unit scale), "zero", or a callable
    (label, dim) -> scale applied per block. Deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    window = group.window
    packed = np.zeros((window.size, m), dtype=complex)
    if amplitude != "zero":
        for label, d in zip(window.labels, window.dims):
            scale = 1.0 if amplitude == "gaussian" else float(amplitude(label, d))
            draw = rng.standard_normal((d, d, m)) + 1j * rng.standard_normal((d, d, m))
            window.block_view(packed, label)[...] = scale * draw
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
    p_raw = data.get("p_E", 2.0)
    p_E = math.inf if p_raw == "inf" else float(p_raw)
    by_key = {label_key(l): l for l in group.window.labels}
    blocks = {}
    for key, nested in data["blocks"].items():
        if key not in by_key:
            raise ValueError(f"coefficient file has unknown block key {key!r}")
        raw = np.asarray(nested, dtype=float)
        blocks[by_key[key]] = raw[..., 0] + 1j * raw[..., 1]
    return FourierCoefficients(group.window, int(data["m"]), blocks, p_E)


def dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_coefficients(path, coeffs: FourierCoefficients) -> None:
    atomic_write_text(path, dump_json(coefficients_to_json(coeffs)))


def load_coefficients(path, group: GroupSpec) -> FourierCoefficients:
    return coefficients_from_json(json.loads(Path(path).read_text()), group)
