"""Weighted spectral Sobolev norms, Lebesgue/sup norms, and the explicit
constants of the embedding inequalities.

A weight sequence maps irrep labels to nonnegative reals; the order-s
norm rescales each coefficient block by (1 + weight^2)^(s/2) before the
p = 2 spectral norm. Built-in weights: zero, |n| on the circle, and
sqrt(l(l+1)) on SU(2) (square roots of Laplacian eigenvalues).

The sup-norm constant rests on the series sum d^3 (1 + w^2)^(-s) over the
whole unitary dual. For the built-in weights it is decided exactly ("summable"
or "diverging"), and the part past the window is bounded in closed form by the
integral test; custom weight tables on an unbounded dual stay "undecided".
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .groups import FINITE_KINDS, DualWindow, GroupSpec
from .transform import _PROBE_SLICE, FourierCoefficients, VectorFunction, e_norm, synthesize
from .transform import _entry_norms, _node_norms, _per_function, _pth_root

__all__ = [
    "ConstantEstimate",
    "SobolevParams",
    "WeightSequence",
    "canonical_weights",
    "circle_weights",
    "embedding_constant_C",
    "exponents",
    "h_s_norm",
    "l_p_norm",
    "lebesgue_norm",
    "lq_bound_constant",
    "probed_sup",
    "su2_weights",
    "weights_from_table",
    "zero_weights",
]


@dataclass(frozen=True, eq=False)
class WeightSequence:
    """Nonnegative weight per irrep label, from ``table``, else from ``formula``.

    A built-in sequence is its formula alone, so it covers every window and
    the series behind the sup-norm constant is decided over the whole dual;
    a table-only sequence is restricted to its window. Sequences hash by
    identity, the key under which ``h_s_norm`` keeps its value per s.
    """

    name: str
    table: dict
    formula: Callable[[Any], float] | None = None
    _sobolev_entries: dict = field(default_factory=dict, init=False, repr=False)

    def value(self, label) -> float:
        if label in self.table:
            return self.table[label]
        if self.formula is not None:
            return float(self.formula(label))
        raise KeyError(f"no weight defined for irrep label {label!r}")

    def missing(self, window: DualWindow) -> list:
        if self.formula is not None:
            return []
        return [l for l in window.labels if l not in self.table]

    def sobolev_entries(self, window: DualWindow, s: float) -> np.ndarray:
        """d * (1 + w^2)^s per packed entry of ``window``, cached per (window, s)."""
        vec = self._sobolev_entries.get((window, s))
        if vec is None:
            if missing := self.missing(window):
                raise KeyError(f"no weight defined for window labels {missing}")
            w = np.array([self.value(l) for l in window.labels])
            with np.errstate(over="ignore"):  # h_s_norm weighs the moduli instead
                vec = window.entry_dims * window.entry_values((1.0 + w * w) ** s)
            vec.flags.writeable = False
            self._sobolev_entries[(window, s)] = vec
        return vec


def _zero(label) -> float:
    return 0.0


def _abs_frequency(n) -> float:
    return float(abs(n))


def _sqrt_laplacian(ell) -> float:
    return math.sqrt(ell * (ell + 1.0))


def zero_weights() -> WeightSequence:
    return WeightSequence("zero", {}, _zero)


def circle_weights() -> WeightSequence:
    return WeightSequence("abs-frequency", {}, _abs_frequency)


def su2_weights() -> WeightSequence:
    return WeightSequence("sqrt-laplacian", {}, _sqrt_laplacian)


def weights_from_table(table: dict, window: DualWindow) -> WeightSequence:
    """A weight for every label of ``window``, each a finite real number >= 0 (not a bool)."""
    clean = {}
    for label, value in table.items():
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (number and 0 <= value <= sys.float_info.max):
            raise ValueError(f"weight for {label!r} must be a finite number >= 0, got {value!r}")
        clean[label] = float(value)
    ws = WeightSequence("table", clean)
    if missing := ws.missing(window):
        raise ValueError(f"weight table is missing labels: {missing}")
    return ws


def canonical_weights(group: GroupSpec) -> WeightSequence:
    """Default weights per group kind; zero on finite groups."""
    return {"circle": circle_weights, "su2": su2_weights}.get(group.window.kind, zero_weights)()


# ---------------------------------------------------------------------------
# norms


def h_s_norm(coeffs: FourierCoefficients, weights: WeightSequence, s: float) -> float | np.ndarray:
    """Order-s Sobolev norm: entrywise d (1 + w^2)^s weighting of the square;
    one value per function of a batch, as a read-only array computed once
    per (weights, s) and kept on ``coeffs``.

    Reduces bit-for-bit to the p = 2 spectral norm at s = 0. A row whose weight or sum overflows
    sums the terms sqrt(d (1 + w^2)^s) |C|_E, scaled by the largest; one past every float is a
    ValueError.
    """
    if not s >= 0:
        raise ValueError(f"Sobolev order s must be >= 0, got {s}")

    def compute():
        norm = _pth_root(_entry_norms(coeffs), 2.0, weights.sobolev_entries(coeffs.window, s))
        if np.isfinite(norm).all():
            return norm
        with np.errstate(invalid="ignore"):  # an inf weight times a zero modulus weighs 0
            moduli, half = _entry_norms(coeffs), weights.sobolev_entries(coeffs.window, s / 2)
            terms = np.where(moduli > 0, half / np.sqrt(coeffs.window.entry_dims) * moduli, 0.0)
        return _per_function(np.where(np.isfinite(norm), norm, _pth_root(terms, 2.0)))

    norm = coeffs.memo(("h_s_norm", weights, s), compute)
    if not np.isfinite(norm).all():
        raise ValueError(f"the order s={s:g} Sobolev norm overflows on the {coeffs.window.kind} "
                         f"window of band {coeffs.window.band}")
    return _per_function(norm)


def lebesgue_norm(coeffs: FourierCoefficients, group: GroupSpec, p: float) -> float | np.ndarray:
    """Quadrature Lebesgue norm (sum_k w_k |f(x_k)|_E^p)^(1/p), finite p, over the nodes; one
    value per function of a batch, kept on ``coeffs`` per (group, p). Exact only up to quadrature
    error when |f|^p is not band-limited; a ValueError when the norm overflows a float."""
    return _per_function(coeffs.memo(("lebesgue_norm", group, p), lambda: _lebesgue(
        _node_norms(coeffs, group), group, p)))


def _lebesgue(norms: np.ndarray, group: GroupSpec, p: float) -> float | np.ndarray:
    """The L^p norm from the E-norms |f(x_k)|_E at the nodes, (n,) or (B, n)."""
    if not (p >= 1 and math.isfinite(p)):
        raise ValueError(f"Lebesgue norm requires finite p >= 1, got {p}")
    norm = _pth_root(norms, p, group.quadrature.weights)
    if not np.isfinite(norm).all():
        raise ValueError(f"the L^p norm at p={p:g} overflows on {group.name}")
    return norm


def l_p_norm(f: VectorFunction, group: GroupSpec, p: float) -> float:
    """The L^p norm of ``f``'s node samples, as ``lebesgue_norm`` computes it."""
    return _lebesgue(e_norm(f.sample(group), f.p_E), group, p)


def probed_sup(coeffs: FourierCoefficients, group: GroupSpec, extra_samples: int = 0, seed=0):
    """Max of |f|_E over the nodes and ``extra_samples`` Haar elements drawn
    from ``seed`` (an int or a tuple of ints), one value per function of a
    batch, kept on ``coeffs``: exact on a finite group, whose nodes are every
    element; elsewhere a lower bound, which can pass a violated inequality."""
    best = _node_norms(coeffs, group).max(axis=-1)
    if extra_samples > 0 and group.window.kind not in FINITE_KINDS:

        def probe():
            els = group.random_elements(np.random.default_rng(seed), extra_samples)
            parts = np.split(els, range(_PROBE_SLICE, extra_samples, _PROBE_SLICE))
            sups = [e_norm(synthesize(coeffs, group, x), coeffs.p_E).max(axis=-1) for x in parts]
            return np.max(sups, axis=0)

        best = np.maximum(best, coeffs.memo(("sup_probe", group, seed, extra_samples), probe))
    return _per_function(best)


# ---------------------------------------------------------------------------
# embedding constants and series verdicts


@dataclass(frozen=True)
class SobolevParams:
    """A two-index pair (s, t) with its conjugate Lebesgue exponents."""

    s: float
    t: float
    alpha: float
    alpha_prime: float


def exponents(s: float, t: float) -> SobolevParams:
    """Exponents alpha = 2t/(s+t) and alpha' = 2t/(t-s) for t > s > 0; a ValueError
    naming (s, t) refuses a pair whose floats round out of (1, 2) or (2, inf)."""
    alpha, alpha_prime = (2.0 * t / (s + t), 2.0 * t / (t - s)) if t > s > 0 else (math.nan,) * 2
    if not 1.0 < alpha < 2.0 < alpha_prime < math.inf:
        raise ValueError(f"need a finite t > s > 0 with alpha = 2t/(s+t) in (1, 2) and "
                         f"alpha' = 2t/(t-s) in (2, inf) as floats, got s={s}, t={t}")
    return SobolevParams(s=float(s), t=float(t), alpha=alpha, alpha_prime=alpha_prime)


def _series_sum(weights: WeightSequence, s: float, members) -> float:
    """Sum of d^3 (1 + w^2)^(-s) over (label, d) pairs."""
    terms = ((d, weights.value(l)) for l, d in members)
    return sum(d**3 * (1.0 + w * w) ** (-s) for d, w in terms)


def _integral_tail(term, integral, band: float, step: float) -> float:
    """Bound on the sum of term(x) over x = band + step, band + 2 step, ...

    The terms up to x = 1 are added one by one; the rest are at most
    integral(start) / step, with integral(start) the integral of the term
    from start = max(band, 1) on, which needs the term nonincreasing there.
    """
    total, x, start = 0.0, band + step, max(band, 1.0)
    while x <= start:
        total += term(x)
        x += step
    return total + integral(start) / step


def _circle_tail(s: float, window: DualWindow) -> float:
    """Sum over |n| > band of (1 + n^2)^(-s): finite iff s > 1/2, bounded
    through (1 + x^2)^(-s) <= x^(-2s) by 2 B^(1-2s) / (2s - 1) past B >= 1."""
    if s <= 0.5:
        return math.inf
    return _integral_tail(
        lambda n: 2.0 * (1.0 + n * n) ** (-s),
        lambda b: 2.0 * b ** (1.0 - 2.0 * s) / (2.0 * s - 1.0),
        float(window.band),
        1.0,
    )


def _su2_tail(s: float, window: DualWindow) -> float:
    """Sum over spins past the band of (2l+1)^3 (1 + l(l+1))^(-s): finite
    iff s > 2. With u = l^2 + l + 1, (2l+1)^2 = 4u - 3 and (2l+1) dl = du,
    so the integral from l = B is 4 u_B^(2-s)/(s-2) - 3 u_B^(1-s)/(s-1).
    The term falls once u >= 3s/(4s - 6), so from l = 1 for every s > 2."""
    if s <= 2.0:
        return math.inf

    def integral(ell):
        u = ell * ell + ell + 1.0
        return 4.0 * u ** (2.0 - s) / (s - 2.0) - 3.0 * u ** (1.0 - s) / (s - 1.0)

    return _integral_tail(
        lambda ell: (2.0 * ell + 1.0) ** 3 * (1.0 + ell * (ell + 1.0)) ** (-s),
        integral,
        float(window.band),
        0.5 if window.half_integers else 1.0,
    )


def _diverges(s: float, window: DualWindow) -> float:
    return math.inf


#: Tail bound past the window per (window kind, weight formula); finite groups
#: have no tail, and any other pair on an unbounded dual is undecided.
_TAIL_BOUNDS = {
    ("circle", _abs_frequency): _circle_tail,
    ("su2", _sqrt_laplacian): _su2_tail,
    ("circle", _zero): _diverges,
    ("su2", _zero): _diverges,
}


@dataclass(frozen=True)
class ConstantEstimate:
    """Sup-norm constant of the window and of the whole dual.

    ``value`` is the window constant. When ``verdict`` is "summable", the
    full-series constant lies in [value, upper]; for "diverging" and
    "undecided" ``upper`` is infinite.
    """

    value: float
    upper: float
    verdict: str


def embedding_constant_C(weights: WeightSequence, s: float, window: DualWindow) -> ConstantEstimate:
    """sqrt(sum over the window of d^3 (1 + w^2)^(-s)), with the verdict on
    the series over the whole dual and sqrt(window sum + tail bound)."""
    if not s >= 0:
        raise ValueError(f"Sobolev order s must be >= 0, got {s}")
    total = _series_sum(weights, s, zip(window.labels, window.dims))
    if window.kind in FINITE_KINDS:
        tail = 0.0
    elif (bound := _TAIL_BOUNDS.get((window.kind, weights.formula))) is None:
        return ConstantEstimate(math.sqrt(total), math.inf, "undecided")
    else:
        tail = bound(s, window)
    verdict = "summable" if math.isfinite(tail) else "diverging"
    return ConstantEstimate(math.sqrt(total), math.sqrt(total + tail), verdict)


def lq_bound_constant(
    weights: WeightSequence, t: float, s: float, window: DualWindow
) -> float:
    """(sum over the window of d^3 (1 + w^2)^(-t))^(s/(2t)) for a finite t > s > 0."""
    exponents(s, t)  # refuses any other pair
    total = _series_sum(weights, t, zip(window.labels, window.dims))
    return total ** (s / (2.0 * t))
