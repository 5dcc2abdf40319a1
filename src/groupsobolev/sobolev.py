"""Weighted spectral Sobolev norms, Lebesgue/sup norms, and the explicit
constants of the embedding inequalities.

A weight sequence maps irrep labels to nonnegative reals; the order-s
norm rescales each coefficient block by (1 + weight^2)^(s/2) before the
p = 2 spectral norm. Built-in weights: zero, |n| on the circle, and
sqrt(l(l+1)) on SU(2) (square roots of Laplacian eigenvalues).

Series diagnostics (``summability_check``) only ever report "plausibly
summable" or "diverging"; a finite window cannot decide an infinite sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .groups import DualWindow, GroupSpec
from .transform import FourierCoefficients, VectorFunction, e_norm, synthesize
from .transform import weighted_spectral_norm

__all__ = [
    "ConstantEstimate",
    "SobolevParams",
    "SummabilityReport",
    "WeightSequence",
    "canonical_weights",
    "circle_weights",
    "embedding_constant_C",
    "exponents",
    "h_s_norm",
    "l_p_norm",
    "lq_bound_constant",
    "summability_check",
    "sup_norm",
    "su2_weights",
    "weights_from_table",
    "zero_weights",
]


@dataclass(frozen=True)
class WeightSequence:
    """Nonnegative weight per irrep label, with an optional closed form.

    The closed form (``formula``) lets diagnostics probe bands beyond the
    window; table-only sequences are restricted to their window.
    """

    name: str
    table: dict
    formula: Callable[[Any], float] | None = None
    _sobolev_entries: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def value(self, label) -> float:
        if label in self.table:
            return self.table[label]
        if self.formula is not None:
            return float(self.formula(label))
        raise KeyError(f"no weight defined for irrep label {label!r}")

    def covers(self, window: DualWindow) -> bool:
        return not self.missing(window)

    def missing(self, window: DualWindow) -> list:
        if self.formula is not None:
            return []
        return [l for l in window.labels if l not in self.table]

    def sobolev_entries(self, window: DualWindow, s: float) -> np.ndarray:
        """d * (1 + w^2)^s per packed entry of ``window``, cached per (window, s)."""
        vec = self._sobolev_entries.get((window, s))
        if vec is None:
            missing = self.missing(window)
            if missing:
                raise KeyError(f"no weight defined for window labels {missing}")
            w = np.array([self.value(l) for l in window.labels])
            vec = window.entry_dims * window.entry_values((1.0 + w * w) ** s)
            vec.flags.writeable = False
            self._sobolev_entries[(window, s)] = vec
        return vec


def _table_for(window: DualWindow, formula) -> dict:
    return {label: float(formula(label)) for label in window.labels}


def zero_weights(window: DualWindow) -> WeightSequence:
    return WeightSequence("zero", _table_for(window, lambda _: 0.0), lambda _: 0.0)


def circle_weights(window: DualWindow) -> WeightSequence:
    formula = lambda n: float(abs(n))
    return WeightSequence("abs-frequency", _table_for(window, formula), formula)


def su2_weights(window: DualWindow) -> WeightSequence:
    formula = lambda ell: math.sqrt(ell * (ell + 1.0))
    return WeightSequence("sqrt-laplacian", _table_for(window, formula), formula)


def weights_from_table(table: dict, window: DualWindow | None = None) -> WeightSequence:
    clean = {}
    for label, value in table.items():
        value = float(value)
        if not (value >= 0.0 and math.isfinite(value)):
            raise ValueError(f"weight for {label!r} must be finite and >= 0, got {value}")
        clean[label] = value
    ws = WeightSequence("table", clean)
    if window is not None and not ws.covers(window):
        raise ValueError(f"weight table is missing labels: {ws.missing(window)}")
    return ws


def canonical_weights(group: GroupSpec) -> WeightSequence:
    """Default weights per group kind; zero on finite groups."""
    if group.kind == "circle":
        return circle_weights(group.window)
    if group.kind == "su2":
        return su2_weights(group.window)
    return zero_weights(group.window)


# ---------------------------------------------------------------------------
# norms


def h_s_norm(coeffs: FourierCoefficients, weights: WeightSequence, s: float) -> float:
    """Order-s Sobolev norm: entrywise d (1 + w^2)^s weighting of the square.

    Reduces bit-for-bit to the p = 2 spectral norm at s = 0.
    """
    if s < 0:
        raise ValueError("Sobolev order s must be >= 0")
    return weighted_spectral_norm(coeffs, weights.sobolev_entries(coeffs.window, s), 2.0)


def lebesgue_norm(samples, group: GroupSpec, p_E: float, p: float) -> float:
    """Quadrature Lebesgue norm (sum_k w_k |f(x_k)|_E^p)^(1/p) of node samples."""
    vals = e_norm(samples, p_E)
    return float((group.quadrature.weights * vals**p).sum() ** (1.0 / p))


def l_p_norm(f: VectorFunction, group: GroupSpec, p: float) -> float:
    """Quadrature Lebesgue norm (sum_k w_k |f(x_k)|_E^p)^(1/p), finite p.

    Exact only up to quadrature error when |f|^p is not band-limited.
    """
    if not (p >= 1 and math.isfinite(p)):
        raise ValueError("Lebesgue norm requires finite p >= 1")
    return lebesgue_norm(f.sample(group), group, f.p_E, p)


def probed_sup(
    samples, p_E: float, coeffs=None, group=None, extra_samples=0, seed=0, probe_values=None
) -> float:
    """Max of |f|_E over the node samples and the probe values.

    Without ``probe_values``, spectral ``coeffs`` are probed at
    ``extra_samples`` Haar-random elements drawn from ``seed``.
    """
    best = float(e_norm(samples, p_E).max())
    if probe_values is None and coeffs is not None and extra_samples > 0:
        els = group.random_elements(np.random.default_rng(seed), extra_samples)
        probe_values = synthesize(coeffs, group, elements=els)
    if probe_values is not None:
        best = max(best, float(e_norm(probe_values, p_E).max()))
    return best


def sup_norm(
    f: VectorFunction,
    group: GroupSpec,
    extra_samples: int = 1000,
    seed: int = 0,
) -> float:
    """Max of |f|_E over the nodes plus pseudorandom extra elements.

    A lower bound on the true sup; sampled functions use the nodes only.
    """
    return probed_sup(f.sample(group), f.p_E, f.coefficients, group, extra_samples, seed)


# ---------------------------------------------------------------------------
# embedding constants and series diagnostics

FINITE_KINDS = ("cyclic", "s3", "custom")


@dataclass(frozen=True)
class SobolevParams:
    """A two-index pair (s, t) with its conjugate Lebesgue exponents."""

    s: float
    t: float
    alpha: float
    alpha_prime: float


def exponents(s: float, t: float) -> SobolevParams:
    """Exponents alpha = 2t/(s+t) and alpha' = 2t/(t-s) for t > s > 0."""
    if not t > s > 0:
        raise ValueError(f"need t > s > 0, got s={s}, t={t}")
    alpha = 2.0 * t / (s + t)
    alpha_prime = 2.0 * t / (t - s)
    if abs(1.0 / alpha + 1.0 / alpha_prime - 1.0) > 1e-12:
        raise AssertionError("conjugate exponent identity violated")
    if not (1.0 < alpha < 2.0 < alpha_prime):
        raise AssertionError("exponents left the expected range")
    return SobolevParams(s=float(s), t=float(t), alpha=alpha, alpha_prime=alpha_prime)


def _series_sum(weights: WeightSequence, s: float, members) -> float:
    """Sum of d^3 (1 + w^2)^(-s) over (label, d) pairs."""
    terms = ((d, weights.value(l)) for l, d in members)
    return sum(d**3 * (1.0 + w * w) ** (-s) for d, w in terms)


def _window_bands(window: DualWindow) -> list[tuple[float, list[tuple[Any, int]]]]:
    """Window labels grouped by band parameter, in increasing band order."""
    grouped: dict[float, list[tuple[Any, int]]] = {}
    for label, dim in zip(window.labels, window.dims):
        grouped.setdefault(window.band_of(label), []).append((label, dim))
    return sorted(grouped.items())


def _extension_bands(window: DualWindow, upto: float):
    """Bands past the window for kinds with an unbounded dual."""
    if window.kind == "circle":
        b = int(window.band) + 1
        while b <= upto:
            yield float(b), [(-b, 1), (b, 1)]
            b += 1
    elif window.kind == "su2":
        step = 0.5 if window.half_integers else 1.0
        ell = float(window.band) + step
        while ell <= upto:
            yield ell, [(ell, int(round(2 * ell)) + 1)]
            ell += step


@dataclass(frozen=True)
class SummabilityReport:
    bands: tuple
    terms: tuple
    partial_sums: tuple
    tail_ratios: tuple
    verdict: str
    finite_dual: bool
    probed_beyond_window: bool


def summability_check(
    weights: WeightSequence,
    s: float,
    window: DualWindow,
    probe_limit: float = 20.0,
) -> SummabilityReport:
    """Partial-sum and term-growth diagnostic for sum d^3 (1 + w^2)^(-s).

    Terms are grouped by band. For the circle and SU(2) the probe extends
    past the window (up to ``probe_limit``) when the weights have a
    closed form. Verdict: "plausibly summable" if the tail terms decay,
    "diverging" if they grow or stay of constant order. Heuristic only.
    """
    band_terms: list[tuple[float, float]] = []
    for band, members in _window_bands(window):
        band_terms.append((band, _series_sum(weights, s, members)))
    probed = False
    finite_dual = window.kind in FINITE_KINDS
    if not finite_dual and weights.formula is not None:
        for band, members in _extension_bands(window, probe_limit):
            band_terms.append((band, _series_sum(weights, s, members)))
            probed = True

    bands = tuple(b for b, _ in band_terms)
    terms = tuple(t for _, t in band_terms)
    sums = tuple(np.cumsum(terms).tolist())
    ratios = tuple(terms[i + 1] / terms[i] for i in range(len(terms) - 1))
    if finite_dual:
        verdict = "plausibly summable"
    else:
        tail = ratios[-min(5, len(ratios)) :] if ratios else ()
        decaying = bool(tail) and all(r < 1.0 - 1e-3 for r in tail)
        verdict = "plausibly summable" if decaying else "diverging"
    return SummabilityReport(
        bands=bands,
        terms=terms,
        partial_sums=sums,
        tail_ratios=ratios,
        verdict=verdict,
        finite_dual=finite_dual,
        probed_beyond_window=probed,
    )


@dataclass(frozen=True)
class ConstantEstimate:
    """Window partial sum for the sup-norm constant, with a series verdict."""

    value: float
    verdict: str
    diverging: bool

    def __float__(self) -> float:
        return self.value


def embedding_constant_C(
    weights: WeightSequence,
    s: float,
    window: DualWindow,
    probe_limit: float = 20.0,
) -> ConstantEstimate:
    """sqrt(sum over the window of d^3 (1 + w^2)^(-s)), flagged by the
    summability verdict of the underlying series."""
    if s < 0:
        raise ValueError("Sobolev order s must be >= 0")
    total = _series_sum(weights, s, zip(window.labels, window.dims))
    report = summability_check(weights, s, window, probe_limit)
    return ConstantEstimate(
        value=math.sqrt(total),
        verdict=report.verdict,
        diverging=report.verdict == "diverging",
    )


def lq_bound_constant(
    weights: WeightSequence, t: float, s: float, window: DualWindow
) -> float:
    """(sum over the window of d^3 (1 + w^2)^(-t))^(s/(2t)) for t > s > 0."""
    if not t > s > 0:
        raise ValueError(f"need t > s > 0, got s={s}, t={t}")
    total = _series_sum(weights, t, zip(window.labels, window.dims))
    return total ** (s / (2.0 * t))
