"""Property-test harness for the embedding inequalities.

Each check computes one inequality instance and records lhs, rhs,
slack = rhs - lhs, and a pass flag (slack >= -tol). ``run_suite`` runs
batches of seeded random band-limited functions through every check on
every configured group and aggregates a deterministic report.

Tolerance classes: 1e-12 (algebraic identities), 1e-9 (quantities the
quadrature computes exactly), 1e-6 (Lebesgue norms of non-band-limited
integrands on the smaller side).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any

import numpy as np

from . import __version__
from .groups import GroupSpec, make_group
from .sobolev import (
    WeightSequence,
    canonical_weights,
    embedding_constant_C,
    exponents,
    h_s_norm,
    lebesgue_norm,
    lq_bound_constant,
    probed_sup,
    zero_weights,
    weights_from_table,
)
from .transform import (
    FourierCoefficients,
    e_norm,
    label_key,
    random_band_limited,
    s_p_norm,
    synthesize,
)

__all__ = [
    "DEFAULT_CONFIG",
    "InequalityRecord",
    "RunConfig",
    "VerificationReport",
    "check_block_comparison",
    "check_continuity_modulus",
    "check_hausdorff_young",
    "check_l2_embedding",
    "check_lq_embedding",
    "check_monotone_embedding",
    "check_sup_embedding",
    "check_vector_norm_comparison",
    "run_suite",
]

ALGEBRAIC_TOL = 1e-12
QUADRATURE_TOL = 1e-9
LEBESGUE_TOL = 1e-6
CONTINUITY_TOL = 1e-10

CSV_COLUMNS = ("name", "group", "seed", "lhs", "rhs", "slack", "tol", "pass")


@dataclass(frozen=True)
class InequalityRecord:
    name: str
    group: str
    seed: int
    lhs: float
    rhs: float
    slack: float
    tol: float
    passed: bool
    context: dict = field(default_factory=dict)
    hypothesis_sensitive: bool = False

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "group": self.group,
            "seed": self.seed,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tol": self.tol,
            "pass": self.passed,
            "context": self.context,
        }
        if self.hypothesis_sensitive:
            out["hypothesis_sensitive"] = True
        return out

    def to_row(self) -> list:
        return [
            self.name,
            self.group,
            self.seed,
            repr(self.lhs),
            repr(self.rhs),
            repr(self.slack),
            repr(self.tol),
            str(self.passed).lower(),
        ]


def _record(
    name: str,
    lhs: float,
    rhs: float,
    tol: float,
    *,
    group: str = "-",
    seed: int = -1,
    context: dict | None = None,
    hypothesis_sensitive: bool = False,
) -> InequalityRecord:
    lhs, rhs, tol = float(lhs), float(rhs), float(tol)
    slack = rhs - lhs
    return InequalityRecord(
        name=name,
        group=group,
        seed=seed,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        tol=tol,
        passed=bool(slack >= -tol),
        context=dict(context or {}),
        hypothesis_sensitive=hypothesis_sensitive,
    )


def _exponent(p: float):
    """Exponent as a report value; reports are strict JSON, so inf is "inf"."""
    return "inf" if math.isinf(p) else p


# ---------------------------------------------------------------------------
# individual checks


def check_vector_norm_comparison(
    x, p: float, q: float, *, group: str = "-", seed: int = -1, context: dict | None = None
) -> list[InequalityRecord]:
    """|x|_q <= |x|_p and |x|_p <= n^(1/p - 1/q) |x|_q for 1 <= p <= q."""
    if not (1 <= p <= q):
        raise ValueError(f"need 1 <= p <= q, got p={p}, q={q}")
    vec = np.asarray(x, dtype=complex).reshape(-1)
    norm_p = float(e_norm(vec, p))
    norm_q = float(e_norm(vec, q))
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    factor = vec.size ** (1.0 / p - inv_q)
    tol = ALGEBRAIC_TOL * (1.0 + norm_p)
    ctx = {**(context or {}), "p": p, "q": _exponent(q), "n": vec.size}
    return [
        _record("vector_norm_decreasing", norm_q, norm_p, tol, group=group, seed=seed, context=ctx),
        _record(
            "vector_norm_dimension_bound",
            norm_p,
            factor * norm_q,
            tol,
            group=group,
            seed=seed,
            context=ctx,
        ),
    ]


def check_block_comparison(
    coeffs: FourierCoefficients,
    p: float,
    q: float,
    *,
    group: str = "-",
    seed: int = -1,
    context: dict | None = None,
) -> list[InequalityRecord]:
    """Per-block (sum |C|^p)^(1/p) <= (d^2)^(1/p - 1/q) (sum |C|^q)^(1/q)."""
    if not (1 <= p <= q):
        raise ValueError(f"need 1 <= p <= q, got p={p}, q={q}")
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    starts = coeffs.window.offsets[:-1]
    entry_norms = e_norm(coeffs.packed, coeffs.p_E)
    lhs_all = np.add.reduceat(entry_norms**p, starts) ** (1.0 / p)
    if math.isinf(q):
        norm_q_all = np.maximum.reduceat(entry_norms, starts)
    else:
        norm_q_all = np.add.reduceat(entry_norms**q, starts) ** (1.0 / q)
    records = []
    for label, d, lhs, norm_q in zip(coeffs.window.labels, coeffs.window.dims, lhs_all, norm_q_all):
        rhs = (d * d) ** (1.0 / p - inv_q) * float(norm_q)
        tol = ALGEBRAIC_TOL * (1.0 + rhs)
        ctx = {**(context or {}), "p": p, "q": _exponent(q), "block": label_key(label)}
        records.append(
            _record("block_norm_comparison", lhs, rhs, tol, group=group, seed=seed, context=ctx)
        )
    return records


def check_monotone_embedding(
    coeffs: FourierCoefficients,
    weights: WeightSequence,
    s: float,
    t: float,
    *,
    group: str = "-",
    seed: int = -1,
    context: dict | None = None,
) -> InequalityRecord:
    """Order monotonicity of the Sobolev norms: |f|_(H^s) <= |f|_(H^t)."""
    if not t > s >= 0:
        raise ValueError(f"need t > s >= 0, got s={s}, t={t}")
    lhs = h_s_norm(coeffs, weights, s)
    rhs = h_s_norm(coeffs, weights, t)
    tol = ALGEBRAIC_TOL * (1.0 + rhs)
    ctx = {**(context or {}), "s": s, "t": t}
    return _record("monotone_embedding", lhs, rhs, tol, group=group, seed=seed, context=ctx)


def check_l2_embedding(
    coeffs: FourierCoefficients,
    weights: WeightSequence,
    s: float,
    group: GroupSpec,
    samples: np.ndarray | None = None,
    *,
    seed: int = -1,
    context: dict | None = None,
) -> InequalityRecord:
    """Quadrature L2 norm of the synthesized function <= |f|_(H^s)."""
    if coeffs.p_E != 2.0:
        raise ValueError("the L2 embedding check rests on Plancherel and needs p_E = 2")
    if samples is None:
        samples = synthesize(coeffs, group)
    lhs = lebesgue_norm(samples, group, 2.0, 2.0)
    rhs = h_s_norm(coeffs, weights, s)
    tol = QUADRATURE_TOL * (1.0 + rhs)
    ctx = {**(context or {}), "s": s}
    return _record("l2_embedding", lhs, rhs, tol, group=group.name, seed=seed, context=ctx)


def check_sup_embedding(
    coeffs: FourierCoefficients,
    weights: WeightSequence,
    s: float,
    group: GroupSpec,
    samples: np.ndarray | None = None,
    probe_values: np.ndarray | None = None,
    extra_samples: int = 1000,
    probe_seed: int = 0,
    constant: float | None = None,
    *,
    seed: int = -1,
    context: dict | None = None,
) -> InequalityRecord:
    """Sampled sup of |f|_E <= C * |f|_(H^s) with the window constant C.

    The lhs is a lower bound on the true sup, so underestimation can only
    weaken the test, never fake a pass of a violated inequality.
    """
    if samples is None:
        samples = synthesize(coeffs, group)
    sup_val = probed_sup(
        samples, coeffs.p_E, coeffs, group, extra_samples, probe_seed, probe_values
    )
    if constant is None:
        constant = embedding_constant_C(weights, s, group.window).value
    rhs = constant * h_s_norm(coeffs, weights, s)
    tol = QUADRATURE_TOL * (1.0 + rhs)
    ctx = {**(context or {}), "s": s, "constant": constant}
    return _record("sup_embedding", sup_val, rhs, tol, group=group.name, seed=seed, context=ctx)


def check_hausdorff_young(
    coeffs: FourierCoefficients,
    group: GroupSpec,
    alpha: float,
    samples: np.ndarray | None = None,
    *,
    seed: int = -1,
    context: dict | None = None,
) -> InequalityRecord:
    """|f|_(L^a') <= |spectrum|_(S_a) for 1 < a < 2, a' the conjugate."""
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"need 1 < alpha < 2, got {alpha}")
    alpha_prime = alpha / (alpha - 1.0)
    if samples is None:
        samples = synthesize(coeffs, group)
    lhs = lebesgue_norm(samples, group, coeffs.p_E, alpha_prime)
    rhs = s_p_norm(coeffs, alpha)
    tol = LEBESGUE_TOL * (1.0 + rhs)
    ctx = {**(context or {}), "alpha": alpha, "alpha_prime": alpha_prime}
    return _record(
        "hausdorff_young",
        lhs,
        rhs,
        tol,
        group=group.name,
        seed=seed,
        context=ctx,
        hypothesis_sensitive=coeffs.p_E != 2.0,
    )


def check_lq_embedding(
    coeffs: FourierCoefficients,
    weights: WeightSequence,
    s: float,
    t: float,
    group: GroupSpec,
    samples: np.ndarray | None = None,
    *,
    seed: int = -1,
    context: dict | None = None,
) -> list[InequalityRecord]:
    """Lebesgue embedding |f|_(L^a') <= K |f|_(H^s), plus the spectral
    chain |spectrum|_(S_a) <= K |f|_(H^s) that the proof routes through."""
    params = exponents(s, t)
    bound = lq_bound_constant(weights, t, s, group.window)
    rhs = bound * h_s_norm(coeffs, weights, s)
    if samples is None:
        samples = synthesize(coeffs, group)
    lhs_lp = lebesgue_norm(samples, group, coeffs.p_E, params.alpha_prime)
    lhs_chain = s_p_norm(coeffs, params.alpha)
    ctx = {
        **(context or {}),
        "s": s,
        "t": t,
        "alpha": params.alpha,
        "alpha_prime": params.alpha_prime,
        "constant": bound,
    }
    checks = (
        ("lq_embedding", lhs_lp, LEBESGUE_TOL),
        ("lq_embedding_chain", lhs_chain, QUADRATURE_TOL),
    )
    return [
        _record(name, lhs, rhs, tol * (1.0 + rhs), group=group.name, seed=seed, context=ctx)
        for name, lhs, tol in checks
    ]


def check_continuity_modulus(
    group: GroupSpec,
    label,
    pair_budget: int = 500,
    seed: int = 0,
    *,
    context: dict | None = None,
) -> list[InequalityRecord]:
    """|u_ij(x) - u_ij(a)| <= |irrep(x) - irrep(a)|_op for random pairs."""
    rng = np.random.default_rng(seed)
    xs = group.random_elements(rng, pair_budget)
    ys = group.random_elements(rng, pair_budget)
    diff = group.irrep_matrices(label, xs) - group.irrep_matrices(label, ys)
    entry_max = np.abs(diff).max(axis=(1, 2))
    op_norm = np.linalg.svd(diff, compute_uv=False)[:, 0]
    records = []
    for k in range(pair_budget):
        ctx = {**(context or {}), "block": label_key(label), "pair": k}
        records.append(
            _record(
                "continuity_modulus",
                entry_max[k],
                op_norm[k],
                CONTINUITY_TOL,
                group=group.name,
                seed=seed,
                context=ctx,
            )
        )
    return records


# ---------------------------------------------------------------------------
# suite configuration


@dataclass
class RunConfig:
    """Validated suite configuration; DEFAULT_CONFIG shows the shape."""

    groups: list
    m: int = 3
    p_E: float = 2.0
    weights: Any = "canonical"
    s_values: list = field(default_factory=lambda: [0.0, 0.5, 1.0, 2.0])
    st_pairs: list = field(default_factory=lambda: [[1.0, 2.0], [1.0, 3.0], [0.5, 2.0]])
    batch_size: int = 200
    seed: int = 1729
    vector_checks: int = 2000
    vector_max_dim: int = 16
    continuity_pairs: int = 500
    sup_extra_samples: int = 1000
    block_check_stride: int = 10
    p_values: list = field(default_factory=lambda: [1.0, 2.0])
    tamper: bool = False
    out_dir: str = "out"
    formats: list = field(default_factory=lambda: ["json", "csv"])
    quiet: bool = False

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        allowed = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - allowed)
        if unknown:
            raise ValueError(
                f"unknown config fields {unknown}; allowed fields are {sorted(allowed)}"
            )
        if data.get("p_E") == "inf":
            data = {**data, "p_E": math.inf}
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if not isinstance(self.groups, (list, tuple)):
            raise ValueError("config field 'groups' must be a list of group specs")
        for g in self.groups:
            if not isinstance(g, dict) or "kind" not in g:
                raise ValueError(f"each group spec needs a 'kind' field, got {g!r}")
        if self.m < 1:
            raise ValueError("config field 'm' must be >= 1")
        if not self.p_E >= 1:
            raise ValueError("config field 'p_E' must be >= 1")
        if self.batch_size < 1:
            raise ValueError("config field 'batch_size' must be >= 1")
        for s in self.s_values:
            if s < 0:
                raise ValueError(f"s values must be >= 0, got {s}")
        for pair in self.st_pairs:
            if len(pair) != 2 or not pair[1] > pair[0] > 0:
                raise ValueError(f"st_pairs entries need t > s > 0, got {pair!r}")
        for p in self.p_values:
            if p < 1:
                raise ValueError(f"p values must be >= 1, got {p}")
        bad = [f for f in self.formats if f not in ("json", "csv")]
        if bad:
            raise ValueError(f"unknown output formats {bad}; use 'json' and/or 'csv'")
        if self.weights not in ("canonical", "zero"):
            if not isinstance(self.weights, (list, tuple)) or len(self.weights) != len(self.groups):
                raise ValueError(
                    "config field 'weights' must be 'canonical', 'zero', or a list "
                    "with one entry per group"
                )

    #: fields that only steer presentation, not the verification content
    OUTPUT_FIELDS = ("out_dir", "formats", "quiet")

    def to_json_dict(self) -> dict:
        out = {}
        for f in fields(self):
            if f.name in self.OUTPUT_FIELDS:
                continue
            value = getattr(self, f.name)
            if f.name == "p_E" and isinstance(value, float) and math.isinf(value):
                value = "inf"
            if f.name == "st_pairs":
                value = [list(p) for p in value]
            out[f.name] = value
        return out


#: The bundled default (acceptance) configuration as a plain dict.
DEFAULT_CONFIG = asdict(
    RunConfig(
        groups=[
            {"kind": "cyclic", "n": 12},
            {"kind": "s3"},
            {"kind": "circle", "band": 16},
            {"kind": "su2", "band": 2, "half_integers": False},
        ]
    )
)


def resolve_weights(spec, index: int, group: GroupSpec) -> WeightSequence:
    if isinstance(spec, (list, tuple)):
        spec = spec[index]
    if spec == "canonical":
        return canonical_weights(group)
    if spec == "zero":
        return zero_weights(group.window)
    if isinstance(spec, dict):
        by_key = {label_key(l): l for l in group.window.labels}
        table = {}
        for key, value in spec.items():
            if str(key) not in by_key:
                raise ValueError(f"weight table key {key!r} is not a window label of {group.name}")
            table[by_key[str(key)]] = value
        return weights_from_table(table, group.window)
    raise ValueError(f"invalid weight selection {spec!r}")


def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# report


@dataclass
class VerificationReport:
    records: list
    metadata: dict

    @property
    def all_pass(self) -> bool:
        return all(r.passed or r.hypothesis_sensitive for r in self.records)

    def failures(self) -> list:
        return [r for r in self.records if not r.passed and not r.hypothesis_sensitive]

    def min_slack(self) -> dict:
        """Smallest slack per check; NaN when any of its records has NaN slack."""
        out: dict[str, float] = {}
        for r in self.records:
            if r.name not in out or r.slack < out[r.name] or math.isnan(r.slack):
                out[r.name] = r.slack
        return {k: out[k] for k in sorted(out)}

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.name] = out.get(r.name, 0) + 1
        return {k: out[k] for k in sorted(out)}

    def summary(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "record_count": len(self.records),
            "failure_count": len(self.failures()),
            "hypothesis_sensitive_count": sum(1 for r in self.records if r.hypothesis_sensitive),
            "min_slack": self.min_slack(),
            "records_per_check": self.counts(),
        }

    def to_json_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "summary": self.summary(),
            "records": [r.to_dict() for r in self.records],
        }

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in self.records:
            writer.writerow(r.to_row())
        return buf.getvalue()


def _tampered(record: InequalityRecord) -> InequalityRecord:
    rhs = record.rhs * 0.5
    slack = rhs - record.lhs
    return replace(
        record,
        rhs=rhs,
        slack=slack,
        passed=bool(slack >= -record.tol),
        context={**record.context, "tampered": True},
    )


def _sort_key(record: InequalityRecord):
    ctx = record.context
    return (
        record.name,
        record.group,
        record.seed,
        ctx.get("batch", -1),
        ctx.get("index", -1),
        str(ctx.get("block", "")),
        ctx.get("pair", -1),
        repr(sorted(ctx.items(), key=lambda kv: kv[0])),
    )


def run_suite(config) -> VerificationReport:
    """Run every check on the configured groups; deterministic in the seeds."""
    cfg = config if isinstance(config, RunConfig) else RunConfig.from_dict(dict(config))
    cfg.validate()
    records: list[InequalityRecord] = []

    rng_vec = np.random.default_rng(np.random.SeedSequence((cfg.seed, 101)))
    for idx in range(cfg.vector_checks):
        n = int(rng_vec.integers(1, cfg.vector_max_dim + 1))
        x = rng_vec.standard_normal(n) + 1j * rng_vec.standard_normal(n)
        p = float(1.0 + 3.0 * rng_vec.random())
        q = math.inf if rng_vec.random() < 0.1 else p + float(3.0 * rng_vec.random())
        records.extend(
            check_vector_norm_comparison(x, p, q, seed=cfg.seed, context={"index": idx})
        )

    s_sorted = sorted(cfg.s_values)
    monotone_pairs = [(a, b) for a, b in zip(s_sorted, s_sorted[1:]) if b > a]
    for pair in cfg.st_pairs:
        pair = (float(pair[0]), float(pair[1]))
        if pair not in monotone_pairs:
            monotone_pairs.append(pair)
    alphas = []
    for s, t in cfg.st_pairs:
        a = exponents(s, t).alpha
        if a not in alphas:
            alphas.append(a)
    pq_pairs = [(1.0, 2.0)] + [(a, 2.0) for a in alphas if a != 1.0]

    for gi, gspec in enumerate(cfg.groups):
        group = make_group(dict(gspec))
        weights = resolve_weights(cfg.weights, gi, group)
        constants = {s: embedding_constant_C(weights, s, group.window) for s in cfg.s_values}

        probe = None
        if cfg.sup_extra_samples > 0:
            probe_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 7, gi)))
            probe = group.packed_matrices(group.random_elements(probe_rng, cfg.sup_extra_samples))

        if cfg.continuity_pairs > 0:
            budget = max(1, cfg.continuity_pairs // len(group.window.labels))
            for li, label in enumerate(group.window.labels):
                records.extend(
                    check_continuity_modulus(
                        group, label, budget, seed=_derive_seed(cfg.seed, 11, gi, li)
                    )
                )

        for b in range(cfg.batch_size):
            fseed = _derive_seed(cfg.seed, gi, b)
            coeffs = random_band_limited(fseed, group, cfg.m, p_E=cfg.p_E)
            samples = synthesize(coeffs, group)
            probe_vals = None if probe is None else synthesize(coeffs, group, probe=probe)
            ctx = {"batch": b}

            for s, t in monotone_pairs:
                records.append(
                    check_monotone_embedding(
                        coeffs, weights, s, t, group=group.name, seed=fseed, context=ctx
                    )
                )
            for s in cfg.s_values:
                if cfg.p_E == 2.0:
                    records.append(
                        check_l2_embedding(
                            coeffs, weights, s, group, samples=samples, seed=fseed, context=ctx
                        )
                    )
                records.append(
                    check_sup_embedding(
                        coeffs,
                        weights,
                        s,
                        group,
                        samples=samples,
                        probe_values=probe_vals,
                        extra_samples=cfg.sup_extra_samples,
                        constant=constants[s].value,
                        seed=fseed,
                        context={**ctx, "constant_verdict": constants[s].verdict},
                    )
                )
            for alpha in alphas:
                records.append(
                    check_hausdorff_young(
                        coeffs, group, alpha, samples=samples, seed=fseed, context=ctx
                    )
                )
            for s, t in cfg.st_pairs:
                records.extend(
                    check_lq_embedding(
                        coeffs, weights, s, t, group, samples=samples, seed=fseed, context=ctx
                    )
                )
            if cfg.block_check_stride and b % cfg.block_check_stride == 0:
                for p, q in pq_pairs:
                    records.extend(
                        check_block_comparison(
                            coeffs, p, q, group=group.name, seed=fseed, context=ctx
                        )
                    )

    if cfg.tamper:
        records = [_tampered(r) for r in records]
    records.sort(key=_sort_key)

    metadata = {
        "package": "groupsobolev",
        "version": __version__,
        "config": cfg.to_json_dict(),
        "tamper": cfg.tamper,
    }
    return VerificationReport(records=records, metadata=metadata)
