"""Property-test harness for the embedding inequalities.

Each check computes one inequality instance per function and records lhs,
rhs, slack = rhs - lhs, and a pass flag (slack >= -tol). A check takes one
function, packed (K, m), and returns its record (or its list of records),
or a batch, packed (B, K, m), with one seed and one context per function,
and returns the records of all functions in one list, function after
function; it computes its samples, probe values and constants once per
call. ``run_suite`` draws each configured group's batch of seeded random
band-limited functions, runs every check on it once per parameter, and
aggregates a deterministic report.

Tolerance classes: 1e-12 (algebraic identities), 1e-9 (quantities the
quadrature computes exactly), 1e-6 (Lebesgue norms of non-band-limited
integrands on the smaller side).
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
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
    node_samples,
    random_band_limited,
    s_p_norm,
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


def _records(
    name: str,
    lhs,
    rhs,
    tol,
    seeds: list,
    contexts: list,
    extra: dict | None = None,
    *,
    group: str = "-",
    hypothesis_sensitive: bool = False,
) -> list[InequalityRecord]:
    """One record per (seed, context) pair, its context extended by ``extra``;
    lhs, rhs and tol hold one value per pair or one for all."""
    n = len(seeds)
    columns = (np.broadcast_to(np.asarray(v, dtype=float), (n,)).tolist() for v in (lhs, rhs, tol))
    return [
        InequalityRecord(
            name=name,
            group=group,
            seed=sd,
            lhs=a,
            rhs=b,
            slack=b - a,
            tol=t,
            passed=bool(b - a >= -t),
            context={**(ctx or {}), **(extra or {})},
            hypothesis_sensitive=hypothesis_sensitive,
        )
        for a, b, t, sd, ctx in zip(*columns, seeds, contexts)
    ]


def _fan_out(coeffs: FourierCoefficients, seed, context) -> tuple[list, list]:
    """Seeds and contexts, one per function: a batch takes a sequence of each
    (a single seed or context is shared), one function a seed and a context."""
    if coeffs.packed.ndim == 2:
        return [seed], [context]
    n = len(coeffs.packed)
    seeds = [seed] * n if np.ndim(seed) == 0 else list(seed)
    contexts = [context] * n if context is None or isinstance(context, dict) else list(context)
    if len(seeds) != n or len(contexts) != n:
        raise ValueError(f"a batch of {n} functions needs {n} seeds and {n} contexts")
    return seeds, contexts


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
    args = ([seed], [context], {"p": p, "q": _exponent(q), "n": vec.size})
    return _records("vector_norm_decreasing", norm_q, norm_p, tol, *args, group=group) + _records(
        "vector_norm_dimension_bound", norm_p, factor * norm_q, tol, *args, group=group
    )


def check_block_comparison(
    coeffs: FourierCoefficients,
    p: float,
    q: float,
    *,
    group: str = "-",
    seed: int = -1,
    context: dict | None = None,
) -> list[InequalityRecord]:
    """Per-block (sum |C|^p)^(1/p) <= (d^2)^(1/p - 1/q) (sum |C|^q)^(1/q);
    one record per block, function after function for a batch."""
    if not (1 <= p <= q):
        raise ValueError(f"need 1 <= p <= q, got p={p}, q={q}")
    seeds, contexts = _fan_out(coeffs, seed, context)
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    starts = coeffs.window.offsets[:-1]
    entry_norms = e_norm(coeffs.packed, coeffs.p_E).reshape(len(seeds), -1)
    lhs = np.add.reduceat(entry_norms**p, starts, axis=-1).ravel() ** (1.0 / p)
    if math.isinf(q):
        norm_q = np.maximum.reduceat(entry_norms, starts, axis=-1)
    else:
        norm_q = np.add.reduceat(entry_norms**q, starts, axis=-1) ** (1.0 / q)
    factors = np.array([(d * d) ** (1.0 / p - inv_q) for d in coeffs.window.dims])
    rhs = (factors * norm_q).ravel()
    tol = ALGEBRAIC_TOL * (1.0 + rhs)
    blocks = [label_key(label) for label in coeffs.window.labels]
    pq = {"p": p, "q": _exponent(q)}
    contexts = [{**(ctx or {}), **pq, "block": block} for ctx in contexts for block in blocks]
    seeds = [fseed for fseed in seeds for _ in blocks]
    return _records("block_norm_comparison", lhs, rhs, tol, seeds, contexts, group=group)


def check_monotone_embedding(
    coeffs: FourierCoefficients,
    weights: WeightSequence,
    s: float,
    t: float,
    *,
    group: str = "-",
    seed: int = -1,
    context: dict | None = None,
) -> InequalityRecord | list[InequalityRecord]:
    """Order monotonicity of the Sobolev norms: |f|_(H^s) <= |f|_(H^t)."""
    if not t > s >= 0:
        raise ValueError(f"need t > s >= 0, got s={s}, t={t}")
    seeds, contexts = _fan_out(coeffs, seed, context)
    lhs = h_s_norm(coeffs, weights, s)
    rhs = h_s_norm(coeffs, weights, t)
    tol = ALGEBRAIC_TOL * (1.0 + rhs)
    extra = {"s": s, "t": t}
    records = _records("monotone_embedding", lhs, rhs, tol, seeds, contexts, extra, group=group)
    return records if coeffs.packed.ndim == 3 else records[0]


def check_l2_embedding(
    coeffs: FourierCoefficients,
    weights: WeightSequence,
    s: float,
    group: GroupSpec,
    *,
    seed: int = -1,
    context: dict | None = None,
) -> InequalityRecord | list[InequalityRecord]:
    """Quadrature L2 norm of the synthesized function <= |f|_(H^s)."""
    if coeffs.p_E != 2.0:
        raise ValueError("the L2 embedding check rests on Plancherel and needs p_E = 2")
    seeds, contexts = _fan_out(coeffs, seed, context)
    lhs = lebesgue_norm(node_samples(coeffs, group), group, 2.0, 2.0)
    rhs = h_s_norm(coeffs, weights, s)
    tol = QUADRATURE_TOL * (1.0 + rhs)
    records = _records("l2_embedding", lhs, rhs, tol, seeds, contexts, {"s": s}, group=group.name)
    return records if coeffs.packed.ndim == 3 else records[0]


def check_sup_embedding(
    coeffs: FourierCoefficients,
    weights: WeightSequence,
    s: float,
    group: GroupSpec,
    extra_samples: int = 1000,
    probe_seed: int | tuple = 0,
    *,
    seed: int = -1,
    context: dict | None = None,
) -> InequalityRecord | list[InequalityRecord]:
    """Sampled sup of |f|_E <= C * |f|_(H^s) with the window constant C.

    The lhs is a lower bound on the true sup, so underestimation can only
    weaken the test, never fake a pass of a violated inequality. The sup
    is probed at ``extra_samples`` elements drawn from ``probe_seed``, the
    same elements for every function of a batch. Each record carries the
    verdict on the series behind C over the whole dual as ``constant_verdict``.
    """
    seeds, contexts = _fan_out(coeffs, seed, context)
    samples = node_samples(coeffs, group)
    lhs = probed_sup(samples, coeffs.p_E, coeffs, group, extra_samples, probe_seed)
    estimate = embedding_constant_C(weights, s, group.window)
    rhs = estimate.value * h_s_norm(coeffs, weights, s)
    tol = QUADRATURE_TOL * (1.0 + rhs)
    extra = {"constant_verdict": estimate.verdict, "s": s, "constant": estimate.value}
    records = _records("sup_embedding", lhs, rhs, tol, seeds, contexts, extra, group=group.name)
    return records if coeffs.packed.ndim == 3 else records[0]


def check_hausdorff_young(
    coeffs: FourierCoefficients,
    group: GroupSpec,
    alpha: float,
    *,
    seed: int = -1,
    context: dict | None = None,
) -> InequalityRecord | list[InequalityRecord]:
    """|f|_(L^a') <= |spectrum|_(S_a) for 1 < a < 2, a' the conjugate."""
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"need 1 < alpha < 2, got {alpha}")
    seeds, contexts = _fan_out(coeffs, seed, context)
    alpha_prime = alpha / (alpha - 1.0)
    lhs = lebesgue_norm(node_samples(coeffs, group), group, coeffs.p_E, alpha_prime)
    rhs = s_p_norm(coeffs, alpha)
    tol = LEBESGUE_TOL * (1.0 + rhs)
    extra = {"alpha": alpha, "alpha_prime": alpha_prime}
    kw = {"group": group.name, "hypothesis_sensitive": coeffs.p_E != 2.0}
    records = _records("hausdorff_young", lhs, rhs, tol, seeds, contexts, extra, **kw)
    return records if coeffs.packed.ndim == 3 else records[0]


def check_lq_embedding(
    coeffs: FourierCoefficients,
    weights: WeightSequence,
    s: float,
    t: float,
    group: GroupSpec,
    *,
    seed: int = -1,
    context: dict | None = None,
) -> list[InequalityRecord]:
    """Lebesgue embedding |f|_(L^a') <= K |f|_(H^s), plus the spectral
    chain |spectrum|_(S_a) <= K |f|_(H^s) that the proof routes through;
    two records per function, function after function for a batch. Each
    record carries the verdict on the series sum d^3 (1 + w^2)^(-t) behind
    K over the whole dual as ``constant_verdict``."""
    params = exponents(s, t)
    seeds, contexts = _fan_out(coeffs, seed, context)
    bound = lq_bound_constant(weights, t, s, group.window)
    verdict = embedding_constant_C(weights, t, group.window).verdict
    rhs = bound * h_s_norm(coeffs, weights, s)
    lhs_lp = lebesgue_norm(node_samples(coeffs, group), group, coeffs.p_E, params.alpha_prime)
    lhs_chain = s_p_norm(coeffs, params.alpha)
    extra = {
        "s": s,
        "t": t,
        "alpha": params.alpha,
        "alpha_prime": params.alpha_prime,
        "constant": bound,
        "constant_verdict": verdict,
    }
    args = (seeds, contexts, extra)
    lq_tol, chain_tol = LEBESGUE_TOL * (1.0 + rhs), QUADRATURE_TOL * (1.0 + rhs)
    lq = _records("lq_embedding", lhs_lp, rhs, lq_tol, *args, group=group.name)
    chain = _records("lq_embedding_chain", lhs_chain, rhs, chain_tol, *args, group=group.name)
    return [r for pair in zip(lq, chain) for r in pair]


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
    block = label_key(label)
    contexts = [{**(context or {}), "block": block, "pair": k} for k in range(pair_budget)]
    seeds = [seed] * pair_budget
    return _records(
        "continuity_modulus", entry_max, op_norm, CONTINUITY_TOL, seeds, contexts, group=group.name
    )


# ---------------------------------------------------------------------------
# suite configuration


@dataclass
class RunConfig:
    """Validated suite configuration; DEFAULT_CONFIG shows the shape."""

    groups: list = field(
        default_factory=lambda: [
            {"kind": "cyclic", "n": 12},
            {"kind": "s3"},
            {"kind": "circle", "band": 16},
            {"kind": "su2", "band": 2, "half_integers": False},
        ]
    )
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
        for name, least in self.INTEGER_FIELDS.items():
            v = getattr(self, name)
            if not (_is_number(v, numbers.Integral) and v >= least):
                raise ValueError(f"config field {name!r} needs an integer >= {least}, got {v!r}")
        if not (_is_number(self.p_E) and self.p_E >= 1):
            raise ValueError(f"config field 'p_E' needs a number >= 1 or 'inf', got {self.p_E!r}")
        for name in ("tamper", "quiet"):
            if not isinstance(v := getattr(self, name), bool):
                raise ValueError(f"config field {name!r} needs true or false, got {v!r}")
        for name in ("s_values", "p_values", "st_pairs", "formats"):
            if not isinstance(v := getattr(self, name), (list, tuple)):
                raise ValueError(f"config field {name!r} needs a list, got {v!r}")
        for name, least in (("s_values", 0), ("p_values", 1)):
            for v in getattr(self, name):
                if not (_is_number(v) and v >= least):
                    raise ValueError(f"config field {name!r} needs numbers >= {least}, got {v!r}")
        for pair in self.st_pairs:
            ok = isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_is_number, pair))
            if not (ok and pair[1] > pair[0] > 0):
                raise ValueError(f"config field 'st_pairs' entries need t > s > 0, got {pair!r}")
        bad = [f for f in self.formats if f not in ("json", "csv")]
        if bad:
            raise ValueError(f"unknown output formats {bad}; use 'json' and/or 'csv'")
        if self.weights not in ("canonical", "zero"):
            if not isinstance(self.weights, (list, tuple)) or len(self.weights) != len(self.groups):
                raise ValueError(
                    "config field 'weights' must be 'canonical', 'zero', or a list "
                    "with one entry per group"
                )

    #: integer fields and the least value each admits
    INTEGER_FIELDS = {
        "m": 1,
        "batch_size": 1,
        "seed": 0,
        "vector_checks": 0,
        "vector_max_dim": 1,
        "continuity_pairs": 0,
        "sup_extra_samples": 0,
        "block_check_stride": 0,
    }

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
DEFAULT_CONFIG = asdict(RunConfig())


def _is_number(value, kind=numbers.Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


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

    def to_json_text(self) -> str:
        """``to_json_dict`` as strict JSON: metadata and summary indented by
        two, then one record per line through the C encoder."""
        data = self.to_json_dict()
        records = map(json.JSONEncoder(allow_nan=False).encode, data.pop("records"))
        head = json.dumps(data, indent=2, allow_nan=False)[:-2]  # drops the closing "\n}"
        return head + ',\n  "records": [\n    ' + ",\n    ".join(records) + "\n  ]\n}\n"

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
        records += check_vector_norm_comparison(x, p, q, seed=cfg.seed, context={"index": idx})

    s_sorted = sorted(cfg.s_values)
    adjacent = [(a, b) for a, b in zip(s_sorted, s_sorted[1:]) if b > a]
    monotone_pairs = dict.fromkeys(adjacent + [(float(s), float(t)) for s, t in cfg.st_pairs])
    alphas = dict.fromkeys(exponents(s, t).alpha for s, t in cfg.st_pairs)
    pq_pairs = [(1.0, 2.0)] + [(a, 2.0) for a in alphas if a != 1.0]

    for gi, gspec in enumerate(cfg.groups):
        group = make_group(dict(gspec))
        weights = resolve_weights(cfg.weights, gi, group)
        probe = (cfg.seed, 7, gi)  # seeds the sup probe elements

        if cfg.continuity_pairs > 0:
            budget = max(1, cfg.continuity_pairs // len(group.window.labels))
            for li, label in enumerate(group.window.labels):
                label_seed = _derive_seed(cfg.seed, 11, gi, li)
                records += check_continuity_modulus(group, label, budget, seed=label_seed)

        seeds = [_derive_seed(cfg.seed, gi, b) for b in range(cfg.batch_size)]
        contexts = [{"batch": b} for b in range(cfg.batch_size)]
        draws = [random_band_limited(fseed, group, cfg.m, p_E=cfg.p_E).packed for fseed in seeds]
        coeffs = FourierCoefficients(group.window, cfg.m, p_E=cfg.p_E, packed=np.stack(draws))
        batch = {"seed": seeds, "context": contexts}

        for s, t in monotone_pairs:
            records += check_monotone_embedding(coeffs, weights, s, t, group=group.name, **batch)
        for s in cfg.s_values:
            if cfg.p_E == 2.0:
                records += check_l2_embedding(coeffs, weights, s, group, **batch)
            records += check_sup_embedding(
                coeffs, weights, s, group, cfg.sup_extra_samples, probe, **batch
            )
        for alpha in alphas:
            records += check_hausdorff_young(coeffs, group, alpha, **batch)
        for s, t in cfg.st_pairs:
            records += check_lq_embedding(coeffs, weights, s, t, group, **batch)
        if cfg.block_check_stride:
            step = slice(None, None, cfg.block_check_stride)
            strided = FourierCoefficients(
                group.window, cfg.m, p_E=cfg.p_E, packed=coeffs.packed[step]
            )
            for p, q in pq_pairs:
                records += check_block_comparison(
                    strided, p, q, group=group.name, seed=seeds[step], context=contexts[step]
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
