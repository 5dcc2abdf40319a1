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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

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
]

_PROBE_SLICE = 128  # Haar elements per synthesis of the sup probe; bounds its temporaries
_NODE_SLICE_BYTES = 2**21  # node samples per synthesis of a batch's node norms, one function at least


def e_norm(values, p: float = 2.0) -> float | np.ndarray:
    """l^p norm of complex vectors along the last axis, a float for one vector; ``p`` may be inf."""
    values = np.asarray(values)
    if p != 2.0:
        return _pth_root(np.abs(values), p)
    # sum of re^2 + im^2: one contraction over the float view, no |a| temporary
    x = np.ascontiguousarray(values, complex if np.iscomplexobj(values) else float).view(float)
    total = np.einsum("...i,...i->...", x, x)
    low = (total < np.finfo(float).tiny).ravel()  # scaled, unless all its entries are zero
    if total.max(initial=0.0) < np.inf and not (
        low.any() and x.reshape(low.size, -1).compress(low, axis=0).any()
    ):
        return _per_function(np.sqrt(total))
    with np.errstate(over="ignore"):  # a norm above every float is inf
        total, scale = _power_sum(np.abs(values), 2.0, total)
        return _per_function(scale * np.sqrt(total))


def _power_sum(a, p, total, weights=1.0):
    """(sum w (a/M)^p over the last axis of moduli ``a``, weights ``w`` along it, M) from the plain
    sum ``total`` (inf where it overflows): M = max a where 0 < M < inf and ``total`` is not finite
    or below the smallest normal float, else 1, so a sum that computes keeps its bits and an inf or
    nan entry stays. ``p``: float or (..., 1)."""
    top = a.max(axis=-1, initial=0.0)
    scaled = (~np.isfinite(total) | (total < np.finfo(float).tiny)) & (0 < top) & (top < np.inf)
    if scaled.any():  # only the scaled rows are raised to p again
        total, p_at = np.array(total, float), p if np.ndim(p) == 0 else p[scaled]
        total[scaled] = (weights * (a[scaled] / top[scaled, None]) ** p_at).sum(axis=-1)
    return total, np.where(scaled, top, 1.0)


def _block_norms(a, window: DualWindow, p: float) -> np.ndarray:
    """``_pth_root`` of each window block of the last axis of moduli ``a``, (..., blocks): over
    the blocks zero-padded to max(d)^2 entries, which add nothing to a sum or a maximum."""
    block = window.entry_values(range(len(window.dims))).astype(int)
    padded = np.zeros((*a.shape[:-1], len(window.dims), max(window.dims) ** 2))
    padded[..., block, np.arange(window.size) - np.take(window.offsets, block)] = a
    return _pth_root(padded, p)


def label_key(label) -> str:
    """Stable string key for an irrep label (JSON block keys)."""
    return str(label)


class FourierCoefficients:
    """Coefficients over the window, packed into one (K, m) array, or a
    batch of B functions packed into one (B, K, m) array.

    ``packed`` holds K = sum of d^2 rows in the column order of the group's
    ``packed_matrices``. ``block(label)`` is a (d, d, m) view of it, (B, d, d, m)
    for a batch: entry [i, j] is the E-vector paired with the matrix coefficient
    u_{i+1, j+1}. Labels missing from ``blocks`` at construction are zero.

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
        if not np.isfinite(packed.ravel().view(float)).all():  # one pass over re and im
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
        if not np.isfinite(arr.ravel().view(float)).all():  # one pass over re and im
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
    at ``elements`` otherwise: one product for the batch, its (B*m, K) weighted
    rows times the elements' (n, K) packed matrices transposed, returned as the
    (..., n, m) view. Row by row, a batch keeps its single functions' bits; the
    column form (n, K) @ (K, B*m) does not.
    """
    if coeffs.window != group.window:
        raise ValueError("coefficient window does not match the group")
    dims = group.window.entry_dims
    if elements is None:
        return group.synthesis(dims[:, None] * coeffs.packed)
    matrices = group.packed_matrices(elements)  # len(matrices), not -1, reshapes an empty batch
    values = (coeffs.packed.swapaxes(-1, -2) * dims).reshape(-1, dims.size) @ matrices.T
    return values.reshape(*coeffs.packed.shape[:-2], coeffs.m, len(matrices)).swapaxes(-1, -2)


def node_samples(coeffs: FourierCoefficients, group: GroupSpec) -> np.ndarray:
    """The node synthesis, kept on ``coeffs`` per group (``_node_norms`` keeps none); read-only."""
    return coeffs.memo(("samples", group), lambda: synthesize(coeffs, group))


def _node_norms(coeffs: FourierCoefficients, group: GroupSpec) -> np.ndarray:
    """|f(x_k)|_E at the nodes, (n,) or (B, n), kept on ``coeffs`` per group; read-only. A batch is
    synthesized in slices of ``_NODE_SLICE_BYTES`` of samples, each function keeping its bits."""
    def compute(batch=coeffs.packed):  # a batch (B, K, m) in slices, one function (K, m) whole
        step = max(1, _NODE_SLICE_BYTES // (16 * group.node_count * coeffs.m))  # functions per slice
        slices = np.split(batch, range(step, len(batch), step)) if batch.ndim == 3 else []
        parts = [FourierCoefficients(coeffs.window, coeffs.m, packed=x) for x in slices] or [coeffs]
        return np.concatenate([e_norm(synthesize(x, group), coeffs.p_E) for x in parts])

    return coeffs.memo(("node_norms", group), compute)


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


def _pth_root(a, p, weights=1.0) -> float | np.ndarray:
    """(sum w a^p)^(1/p) over the last axis of moduli ``a``, max a where p = inf; ``p`` a float
    or one per row, (..., 1). A sum not finite or normal is scaled as ``_power_sum`` scales it,
    the others keep their bits. Every root is numpy's power, which gives a row the same bits
    alone as in a batch. A float for one row."""
    if isinstance(p, np.ndarray) and (top := np.isinf(p[..., 0])).any():  # rows at p = inf
        rest = _pth_root(a, np.where(top[..., None], 1.0, p), weights)
        return np.where(top, a.max(axis=-1), rest)
    if not isinstance(p, np.ndarray) and math.isinf(p):
        return _per_function(a.max(axis=-1))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow: inf; inf * 0: nan
        total, scale = (weights * a**p).sum(axis=-1), 1.0
        if total.ndim == 0 and 2.0**-1022 <= total < math.inf:  # one row that needs no scaling
            return float(np.power(total, 1.0 / p))
        if not ((2.0**-1022 <= total) & (total < math.inf)).all():  # a sum not normal and finite
            total, scale = _power_sum(a, p, total, weights)
        return _per_function(scale * np.power(total[..., None], 1.0 / p)[..., 0])


def s_p_norm(coeffs: FourierCoefficients, p: float) -> float | np.ndarray:
    """Spectral norm (sum_sigma d_sigma sum_ij |C|_E^p)^(1/p), a float, or
    one value per function of a batch.

    ``p = inf`` is the unweighted max of the entry norms, for diagnostics.
    """
    if not p >= 1:
        raise ValueError(f"spectral norm requires p >= 1, got {p}")
    return _pth_root(_entry_norms(coeffs), p, coeffs.window.entry_dims)


def _seed_words(rows, n_words: int) -> np.ndarray:
    """``np.random.SeedSequence(row).generate_state(n_words)`` of each row of ints, (N, n_words)
    uint32: numpy's pool mixing (O'Neill's seed_seq) at once over all rows of a word count."""
    def hashmix(v, mult=0x931E8875):  # generate_state's step too, with its own h and mult
        nonlocal h
        v, h = v ^ h, h * mult & 0xFFFFFFFF
        return (v := v * h) ^ v >> 16  # uint32 arrays wrap mod 2^32 without a warning

    if bad := [x for row in rows for x in row if not isinstance(x, (int, np.integer)) or x < 0]:
        raise ValueError(f"a seed needs a non-negative integer, got {bad[0]!r}")
    rows = [[x >> s & 0xFFFFFFFF for x in map(int, r) for s in range(0, x.bit_length() or 1, 32)]
            for r in rows]  # numpy's words of an int: little-endian uint32, 0 one zero word
    out = np.empty((len(rows), n_words), np.uint32)
    for k in set(map(len, rows)):
        at = [i for i, row in enumerate(rows) if len(row) == k]
        h, words = 0x43B0D7E5, [*np.array([rows[i] for i in at], np.uint32).T]
        pool = [hashmix(words[i] if i < k else 0 * words[0]) for i in range(4)] + words[4:]
        for src, dst in [(s, d) for s in range(len(pool)) for d in range(4) if s != d]:
            r = pool[dst] * 0xCA01F9DD - hashmix(pool[src]) * 0x4973F715
            pool[dst] = r ^ r >> 16
        h = 0x8B51F9DD
        out[at] = np.stack([hashmix(pool[i % 4], 0x58F38DED) for i in range(n_words)], axis=-1)
    return out


class _HeldWords(np.ndarray):
    """uint32 words that are their own seed sequence: ``generate_state`` gives them back."""

    def generate_state(self, n_words, dtype=np.uint32):
        return self.view(dtype)[:n_words]


def random_band_limited(
    seed: int | Sequence[int],
    group: GroupSpec,
    m: int,
    p_E: float = 2.0,
) -> FourierCoefficients:
    """Seeded random coefficients, one standard complex-Gaussian draw per entry.

    ``seed`` is one non-negative int, or a sequence of B, always read as the batch (B, K, m)
    of their single draws. Per seed, the 2 K m normals of ``np.random.default_rng(seed)`` are
    drawn at once and read label by label, each block (d, d, m) in row-major order, its real
    parts first, then its imaginary ones; the seeds' generator states come from one pass.
    """
    window = group.window
    seeds = list(seed) if np.ndim(seed) else [seed]
    draws = np.zeros((len(seeds), 2 * window.size, m))
    np.random.bit_generator.ISeedSequence.register(_HeldWords)  # here: import loads no numpy.random
    for row, words in zip(draws, _seed_words([(s,) for s in seeds], 8).view(_HeldWords)):
        np.random.Generator(np.random.PCG64(words)).standard_normal(out=row)
    real = window.row_major_position + window.entry_values(window.offsets[:-1]).astype(int)
    packed = draws[:, real] + 1j * draws[:, real + window.entry_dims.astype(int) ** 2]
    # C order: a batch's reductions then sum as each function's own do
    packed = np.ascontiguousarray(packed if np.ndim(seed) else packed[0])
    return FourierCoefficients(window, m, p_E=p_E, packed=packed)


# ---------------------------------------------------------------------------
# serialization


def _json_field(data, key: str, kind=dict):
    """``data[key]``, a ``kind`` (dict or (list, tuple)), else a ValueError naming ``key``."""
    if not isinstance(value := data.get(key) if isinstance(data, dict) else None, kind):
        what = "an object" if kind is dict else "a list"
        raise ValueError(f"coefficient file field {key!r} needs {what}, got {value!r}")
    return value


def window_from_json(data: dict) -> DualWindow:
    window = _json_field(data, "window")
    return DualWindow(
        kind=window["kind"],
        band=window["band"],
        labels=tuple(_json_field(window, "labels", (list, tuple))),
        dims=tuple(int(d) for d in _json_field(window, "dims", (list, tuple))),
        trivial=window["trivial"],
        half_integers=bool(window.get("half_integers", False)),
    )


def coefficients_to_json(coeffs: FourierCoefficients) -> dict:
    """JSON-safe dict; floats keep full precision, zero blocks are dropped."""
    if coeffs.packed.ndim != 2:
        raise ValueError("a coefficient file holds one function, not a batch")
    blocks = {}
    for label in coeffs.window.labels:
        if (arr := coeffs.block(label)).any():  # [re, im] per entry
            blocks[label_key(label)] = arr.view(float).reshape(*arr.shape, 2).tolist()
    return {
        "window": asdict(coeffs.window),
        "m": coeffs.m,
        "p_E": "inf" if math.isinf(coeffs.p_E) else coeffs.p_E,
        "blocks": blocks,
    }


def coefficients_from_json(data: dict, group: GroupSpec) -> FourierCoefficients:
    window = window_from_json(data)
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
    for key, nested in _json_field(data, "blocks").items():
        if key not in by_key:
            raise ValueError(f"coefficient file has unknown block key {key!r}")
        raw = np.asarray(nested, dtype=float)
        blocks[by_key[key]] = raw[..., 0] + 1j * raw[..., 1]
    return FourierCoefficients(group.window, m, blocks, p_E)


def dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


def atomic_write_text(path, text) -> None:
    """Write ``text``, a str or an iterable of them, via a temp file in the
    target directory, then rename; the file has the mode a plain ``open`` gives."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x")  # 0o666 less the umask
    try:
        with fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_coefficients(path, coeffs: FourierCoefficients) -> None:
    atomic_write_text(path, dump_json(coefficients_to_json(coeffs)))


def load_coefficients(path, group: GroupSpec) -> FourierCoefficients:
    return coefficients_from_json(json.loads(Path(path).read_text()), group)
