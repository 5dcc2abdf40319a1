"""Property-test harness for the embedding inequalities.

Each check computes one inequality instance per function and records lhs,
rhs, slack = rhs - lhs, and a pass flag (slack >= -tol). A check takes a
batch, packed (B, K, m), with one seed and one context per function, or one
function, packed (K, m), as a batch of one. It returns the records of all
functions in one RecordTable, function after function (a check of two
names returns one name's records, then the other's), and reads the node
samples and E-norms that the batch's coefficients keep. The vector check
takes a list of vectors, or one vector, in the same way. ``run_suite`` draws
each configured group's batch of seeded random band-limited functions, runs
every check on it once per parameter, and aggregates a deterministic report
from the checks' tables; every record counts toward its verdict.

For E = l^p_m, the L2, Hausdorff-Young and Lq checks go through l^2_m, so
their rhs carries K = m^|1/p_E - 1/2| from comparing the two norms on both
sides (K = 1.0 at p_E = 2); the others hold for any Banach E as they stand.

Tolerance classes: 1e-12 (algebraic identities), 1e-9 (quantities the
quadrature computes exactly), 1e-6 (Lebesgue norms of non-band-limited
integrands on the smaller side). A record of class cls has tol
cls * min(lhs, rhs) and passes iff lhs <= (1 + cls) rhs, so scaling a
function by any factor scales lhs, rhs and tol alike and keeps the verdict.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import _HARNESS, __version__
from .config import DEFAULT_CONFIG, RunConfig, resolve_weights
from .groups import GroupSpec, make_group
from .sobolev import (
    WeightSequence,
    embedding_constant_C,
    exponents,
    h_s_norm,
    lebesgue_norm,
    lq_bound_constant,
    probed_sup,
)
from .transform import (
    FourierCoefficients,
    _block_norms,
    _entry_norms,
    _pth_root,
    _seed_words,
    e_norm,
    label_key,
    random_band_limited,
    s_p_norm,
)

__all__ = [name for name in _HARNESS if name != "verify"]

ALGEBRAIC_TOL = 1e-12
QUADRATURE_TOL = 1e-9
LEBESGUE_TOL = 1e-6

CSV_COLUMNS = ("name", "group", "seed", "lhs", "rhs", "slack", "tol", "pass")

_JSON = json.JSONEncoder(allow_nan=False).encode


@dataclass(frozen=True)
class InequalityRecord:
    """One record, as indexing or iterating a RecordTable makes it."""

    name: str
    group: str
    seed: int
    lhs: float
    rhs: float
    slack: float
    tol: float
    passed: bool
    context: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "group": self.group, "seed": self.seed, "lhs": self.lhs,
                "rhs": self.rhs, "slack": self.slack, "tol": self.tol, "pass": self.passed,
                "context": self.context}


def _texts(values, encode) -> list:
    """Each value's text: ``__repr__`` for an exact int or a finite float, else ``encode``."""
    if set(map(type, values)) <= {int}:
        return list(map(int.__repr__, values))
    return [float.__repr__(v) if type(v) is float and math.isfinite(v) else encode(v)
            for v in values]


def _csv_fields(*values) -> str:
    """``values`` as ``csv.writer`` writes them in one row, without the line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(values)
    return buf.getvalue()[:-1]


@dataclass(frozen=True)
class _Chunk:
    """Records of one check call that share name, group and context keys:
    record i has ``floats[:, i]`` as lhs, rhs and tol, and its context maps
    each of ``keys``, in order, to ``columns[k][i]`` where k has a column and
    to ``shared[k]`` elsewhere."""

    name: str
    group: str
    seeds: list
    floats: np.ndarray
    keys: tuple
    shared: dict
    columns: dict

    def context(self, i: int) -> dict:
        return {k: self.columns[k][i] if k in self.columns else self.shared[k] for k in self.keys}

    def record(self, i: int) -> InequalityRecord:
        lhs, rhs, tol = self.floats[:, i].tolist()
        return InequalityRecord(self.name, self.group, self.seeds[i], lhs, rhs, rhs - lhs, tol,
                                rhs - lhs >= -tol, self.context(i))

    def texts(self) -> list:
        """The records' JSON contexts, each ending its line; shared items encoded once."""
        parts, values = [], []
        for k in self.keys:
            if k in self.columns:
                before, _, after = _JSON({k: 0})[1:-1].rpartition("0")
                parts.append(before.replace("%", "%%") + "%s" + after)
                values.append(_texts(self.columns[k], _JSON))
            else:
                parts.append(_JSON({k: self.shared[k]})[1:-1].replace("%", "%%"))
        template = "{" + ", ".join(parts) + "}}"
        return [template % row for row in (zip(*values) if values else [()] * len(self.seeds))]


class RecordTable(Sequence):
    """Records held column by column in ``chunks`` (none empty): the table's
    records are the chunks' records, one chunk after another. Indexing and
    iteration build each ``InequalityRecord`` when it is asked for."""

    def __init__(self, chunks=()):
        self.chunks = list(chunks)

    @classmethod
    def concat(cls, tables) -> RecordTable:
        return cls([c for t in tables for c in t.chunks])

    def __len__(self) -> int:
        return int(self.starts[-1])

    def __getitem__(self, i: int) -> InequalityRecord:
        i = range(len(self))[operator.index(i)]
        c = int(np.searchsorted(self.starts, i, side="right")) - 1
        return self.chunks[c].record(i - int(self.starts[c]))

    def __iter__(self) -> Iterator[InequalityRecord]:
        for c in self.chunks:
            yield from map(c.record, range(len(c.seeds)))

    @cached_property
    def starts(self) -> np.ndarray:
        return np.cumsum([0] + [len(c.seeds) for c in self.chunks])

    @cached_property
    def floats(self) -> np.ndarray:
        """lhs, rhs, slack and tol of the records, shape (4, len(self))."""
        lhs, rhs, tol = np.concatenate([np.empty((3, 0))] + [c.floats for c in self.chunks], axis=1)
        return np.stack([lhs, rhs, rhs - lhs, tol])

    slack = property(lambda self: self.floats[2])
    passed = property(lambda self: self.floats[2] >= -self.floats[3])

    def name_codes(self) -> tuple[list, np.ndarray]:
        """The check names in ascending order, and each record's index into them."""
        names = sorted({c.name for c in self.chunks})
        codes = np.array([names.index(c.name) for c in self.chunks], dtype=np.intp)
        return names, np.repeat(codes, np.diff(self.starts))

    def tampered(self) -> RecordTable:
        """Every rhs halved and ``"tampered": True`` in every context."""
        chunks = [replace(c, floats=c.floats * [[1.0], [0.5], [1.0]],
                          keys=tuple(dict.fromkeys([*c.keys, "tampered"])),
                          shared={**c.shared, "tampered": True},
                          columns={k: v for k, v in c.columns.items() if k != "tampered"})
                  for c in self.chunks]
        return RecordTable(chunks)

    def ordered(self) -> RecordTable:
        """The chunks grouped by (name, group) by a stable sort, each group in table order."""
        return RecordTable(sorted(self.chunks, key=operator.attrgetter("name", "group")))

    @cached_property
    def texts(self) -> list:
        """seed, lhs, rhs, slack and tol of all the chunks' records as
        ``int.__repr__`` and ``float.__repr__`` write them, each distinct value
        once, and pass as "true" or "false": the texts of both report formats."""
        bits, inverse = np.unique(self.floats.view(np.int64), return_inverse=True)
        reprs = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
        passed = np.array(["false", "true"], dtype=object)[self.passed * 1]
        seeds = [s for c in self.chunks for s in c.seeds]
        texted = {s: int.__repr__(s) for s in set(seeds)}
        seeds = [texted[s] for s in seeds]
        return [seeds, *reprs[inverse].reshape(4, -1).tolist(), passed.tolist()]

    def _runs(self) -> Iterator[tuple]:
        """Each chunk with its records' texts."""
        bounds = self.starts.tolist()
        for c, i, j in zip(self.chunks, bounds, bounds[1:]):
            yield c, [t[i:j] for t in self.texts]

    def json_runs(self) -> Iterator[str]:
        """Each chunk's records as ``json.JSONEncoder(allow_nan=False)`` writes
        their ``to_dict()``, one chunk at a time, its lines joined by ",\\n    "."""
        if not np.isfinite(self.floats).all():
            raise ValueError("Out of range float values are not JSON compliant")
        shares = contexts = None
        for c, texts in self._runs():
            # a chunk with the previous one's context columns and items reuses its texts
            if shares != (shares := (id(c.columns), id(c.shared), c.keys, len(c.seeds))):
                contexts = c.texts()
            head = f'{{"name": {_JSON(c.name)}, "group": {_JSON(c.group)}, "seed": '
            lines = zip(*texts, contexts)
            yield ",\n    ".join([f'{head}{s}, "lhs": {a}, "rhs": {b}, "slack": {d}, "tol": {t}, '
                                  f'"pass": {p}, "context": {x}' for s, a, b, d, t, p, x in lines])

    def csv_runs(self) -> Iterator[str]:
        """Each chunk's records as ``csv.writer`` writes their CSV_COLUMNS
        fields, one chunk at a time, its lines joined by "\\n"."""
        for c, texts in self._runs():
            head = _csv_fields(c.name, c.group, "")
            lines = zip(*texts)
            yield "\n".join([f"{head}{s},{a},{b},{d},{t},{p}" for s, a, b, d, t, p in lines])


def _table(
    name: str, lhs, rhs, cls: float, seeds: list, contexts: list, extra: dict | None = None,
    columns: dict | None = None, *, group: str = "-"
) -> RecordTable:
    """The records of one check call, one per (seed, context) pair, the i-th
    with its seed as a Python int and the context ``{**context, **extra}``
    plus each key k of ``columns`` mapped to ``columns[k][i]``; lhs and rhs
    hold one value per pair or one for all; tol is ``cls * min(lhs, rhs)``."""
    extra, columns, seeds = extra or {}, columns or {}, _int_seeds(seeds)
    floats = np.empty((3, len(seeds)))
    floats[0], floats[1] = lhs, rhs
    floats[2] = cls * np.minimum(floats[0], floats[1])
    contexts = [ctx or {} for ctx in contexts] if None in contexts else contexts
    key_sets = dict.fromkeys(map(tuple, contexts))
    if len(key_sets) > 1:
        raise ValueError(f"the contexts of one check call need one key set, got {list(key_sets)}")
    first = contexts[0] if contexts else {}
    shared = {k: v for k, v in extra.items() if k not in columns}
    varying = {k: [ctx[k] for ctx in contexts] for k in first if k not in shared}
    varying |= {k: list(v) for k, v in columns.items()}
    keys = tuple(dict.fromkeys([*first, *extra, *columns]))
    chunk = _Chunk(name, group, seeds, floats, keys, shared, varying)
    return RecordTable([chunk] if seeds else [])


def _int_seeds(seeds) -> list:
    """``seeds`` as Python ints; a ValueError names the first that is not an integer."""
    try:
        return list(map(operator.index, seeds))
    except TypeError:
        bad = next(s for s in seeds if not isinstance(s, numbers.Integral))
        raise ValueError(f"a record's seed needs an integer, got {bad!r}") from None


def _fan_out(shape: tuple, **values) -> list:
    """Each keyword's value as a list of one entry per function or vector:
    for a batch, ``shape`` (n,), n entries in a list, tuple, range or ndarray of ndim >= 1,
    or one value that all share; one function or vector, ``shape`` (), is a batch of one."""
    (n,) = shape or (1,)
    out = [list(v) if isinstance(v, (list, tuple, range)) or isinstance(v, np.ndarray) and v.ndim
           else [v] * n for v in values.values()]
    if any(len(v) != n for v in out):
        raise ValueError(f"a batch of {n} needs " + " and ".join(f"{n} {k}s" for k in values))
    return out


def _exponent(p: float):
    """Exponent as a report value; reports are strict JSON, so inf is "inf"."""
    return "inf" if math.isinf(p) else p


def _vector_norms(vecs: list, ps: list) -> np.ndarray:
    """``float(e_norm(vec, p))`` per vector, from one (count, n) array per length n."""
    out, sizes, ps = np.empty(len(vecs)), np.array([v.size for v in vecs]), np.array(ps, float)
    for n in set(sizes.tolist()):
        at = np.flatnonzero(sizes == n)
        x, p = np.array([vecs[i] for i in at]), ps[at]
        two = p == 2.0
        out[at[two]] = e_norm(x[two])
        out[at[~two]] = _pth_root(np.abs(x[~two]), p[~two, None])
    return out


def _hilbert_factor(coeffs: FourierCoefficients) -> float:
    """K = m^|1/p_E - 1/2| (1/inf = 0): an l^2_m inequality's factor for E = l^p_m."""
    return coeffs.m ** abs(1.0 / coeffs.p_E - 0.5)


# ---------------------------------------------------------------------------
# individual checks


def check_vector_norm_comparison(
    x, p, q, *, group: str = "-", seed=-1, context=None
) -> RecordTable:
    """|x|_q <= |x|_p and |x|_p <= n^(1/p - 1/q) |x|_q for 1 <= p <= q.

    ``x`` is one vector, or a batch: a list of vectors of any lengths, with
    one p, q, seed and context per vector (a single value is shared); an
    empty list is an empty batch. Two records per vector: all the
    decreasing records, then all the dimension-bound ones, each vector
    after vector."""
    batch = isinstance(x, list) and (not x or any(np.ndim(v) for v in x))
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in (x if batch else [x])]
    if any(vec.size == 0 for vec in vecs):
        raise ValueError("a vector needs at least one entry")
    ps, qs, seeds, contexts = _fan_out((len(vecs),), p=p, q=q, seed=seed, context=context)
    for p, q in zip(ps, qs):
        if not (1 <= p <= q):
            raise ValueError(f"need 1 <= p <= q, got p={p}, q={q}")
    norm_p, norm_q = _vector_norms(vecs, ps), _vector_norms(vecs, qs)
    factor = np.array([vec.size ** (1.0 / p - 1.0 / q) for vec, p, q in zip(vecs, ps, qs)])
    columns = {"p": ps, "q": list(map(_exponent, qs)), "n": [vec.size for vec in vecs]}
    args = (ALGEBRAIC_TOL, seeds, contexts, None, columns)
    dec = _table("vector_norm_decreasing", norm_q, norm_p, *args, group=group)
    # one seeds, columns and shared object for the pair: a report texts each context once
    bound = _table("vector_norm_dimension_bound", norm_p, factor * norm_q, ALGEBRAIC_TOL, seeds,
                   [{}] * len(seeds), group=group)
    return RecordTable(dec.chunks + [replace(d, name=b.name, floats=b.floats)
                                     for d, b in zip(dec.chunks, bound.chunks)])


def check_block_comparison(
    coeffs: FourierCoefficients,
    p: float,
    q: float,
    *,
    group: str = "-",
    seed: int = -1,
    context: dict | None = None,
) -> RecordTable:
    """Per-block (sum |C|^p)^(1/p) <= (d^2)^(1/p - 1/q) (sum |C|^q)^(1/q);
    one record per block, function after function for a batch."""
    if not (1 <= p <= q):
        raise ValueError(f"need 1 <= p <= q, got p={p}, q={q}")
    seeds, contexts = _fan_out(coeffs.packed.shape[:-2], seed=seed, context=context)
    entry_norms = _entry_norms(coeffs).reshape(len(seeds), coeffs.window.size)
    lhs = _block_norms(entry_norms, coeffs.window, p).ravel()
    factors = np.array([(d * d) ** (1.0 / p - 1.0 / q) for d in coeffs.window.dims])
    rhs = (factors * _block_norms(entry_norms, coeffs.window, q)).ravel()
    blocks = [label_key(label) for label in coeffs.window.labels]
    columns = {"block": blocks * len(seeds)}
    seeds = [fseed for fseed in seeds for _ in blocks]
    contexts = [ctx for ctx in contexts for _ in blocks]
    args = (seeds, contexts, {"p": p, "q": _exponent(q)}, columns)
    return _table("block_norm_comparison", lhs, rhs, ALGEBRAIC_TOL, *args, group=group)


def check_monotone_embedding(
    coeffs: FourierCoefficients,
    weights: WeightSequence,
    s: float,
    t: float,
    *,
    group: str = "-",
    seed: int = -1,
    context: dict | None = None,
) -> RecordTable:
    """Order monotonicity of the Sobolev norms: |f|_(H^s) <= |f|_(H^t)."""
    if not t > s >= 0:
        raise ValueError(f"need t > s >= 0, got s={s}, t={t}")
    seeds, contexts = _fan_out(coeffs.packed.shape[:-2], seed=seed, context=context)
    lhs, rhs = h_s_norm(coeffs, weights, s), h_s_norm(coeffs, weights, t)
    args = (seeds, contexts, {"s": s, "t": t})
    return _table("monotone_embedding", lhs, rhs, ALGEBRAIC_TOL, *args, group=group)


def check_l2_embedding(
    coeffs: FourierCoefficients,
    weights: WeightSequence,
    s: float,
    group: GroupSpec,
    *,
    seed: int = -1,
    context: dict | None = None,
) -> RecordTable:
    """Quadrature L2 norm of the synthesized function <= K |f|_(H^s)."""
    seeds, contexts = _fan_out(coeffs.packed.shape[:-2], seed=seed, context=context)
    lhs = lebesgue_norm(coeffs, group, 2.0)
    rhs = _hilbert_factor(coeffs) * h_s_norm(coeffs, weights, s)
    args = (seeds, contexts, {"s": s})
    return _table("l2_embedding", lhs, rhs, QUADRATURE_TOL, *args, group=group.name)


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
) -> RecordTable:
    """Sampled sup of |f|_E <= C * |f|_(H^s) with the window constant C.

    The lhs is ``probed_sup``, exact on a finite group. Elsewhere it is a
    lower bound from the nodes and ``extra_samples`` elements drawn from
    ``probe_seed``, the same for every function of a batch: it can fake a
    pass of a violated inequality, and only a failure is certain. Each record
    carries the verdict on the series behind C over the whole dual as
    ``constant_verdict``.
    """
    seeds, contexts = _fan_out(coeffs.packed.shape[:-2], seed=seed, context=context)
    lhs = probed_sup(coeffs, group, extra_samples, probe_seed)
    estimate = embedding_constant_C(weights, s, group.window)
    rhs = estimate.value * h_s_norm(coeffs, weights, s)
    extra = {"constant_verdict": estimate.verdict, "s": s, "constant": estimate.value}
    args = (seeds, contexts, extra)
    return _table("sup_embedding", lhs, rhs, QUADRATURE_TOL, *args, group=group.name)


def check_hausdorff_young(
    coeffs: FourierCoefficients,
    group: GroupSpec,
    alpha: float,
    *,
    seed: int = -1,
    context: dict | None = None,
) -> RecordTable:
    """|f|_(L^a') <= K |spectrum|_(S_a) for 1 < a < 2, a' the conjugate."""
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"need 1 < alpha < 2, got {alpha}")
    seeds, contexts = _fan_out(coeffs.packed.shape[:-2], seed=seed, context=context)
    alpha_prime = alpha / (alpha - 1.0)
    lhs = lebesgue_norm(coeffs, group, alpha_prime)
    rhs = _hilbert_factor(coeffs) * s_p_norm(coeffs, alpha)
    args = (seeds, contexts, {"alpha": alpha, "alpha_prime": alpha_prime})
    return _table("hausdorff_young", lhs, rhs, LEBESGUE_TOL, *args, group=group.name)


def check_lq_embedding(
    coeffs: FourierCoefficients,
    weights: WeightSequence,
    s: float,
    t: float,
    group: GroupSpec,
    *,
    seed: int = -1,
    context: dict | None = None,
) -> RecordTable:
    """Lebesgue embedding |f|_(L^a') <= K B |f|_(H^s), plus the spectral
    chain |spectrum|_(S_a) <= B |f|_(H^s) that the proof routes through, by
    Hoelder on the entry norms for any E; two records per function: all the
    lq_embedding records, then all the chain's, each function after function
    for a batch. Each record carries its constant, K B or B,
    and the verdict on the series sum d^3 (1 + w^2)^(-t) behind B over the
    whole dual as ``constant_verdict``."""
    params = exponents(s, t)
    seeds, contexts = _fan_out(coeffs.packed.shape[:-2], seed=seed, context=context)
    bound = lq_bound_constant(weights, t, s, group.window)
    verdict = embedding_constant_C(weights, t, group.window).verdict
    norm = h_s_norm(coeffs, weights, s)
    lhs_lp = lebesgue_norm(coeffs, group, params.alpha_prime)
    lhs_chain = s_p_norm(coeffs, params.alpha)
    extra = {"s": s, "t": t, "alpha": params.alpha, "alpha_prime": params.alpha_prime,
             "constant": bound, "constant_verdict": verdict}

    def table(name, lhs, cls, shared):
        rhs = shared["constant"] * norm
        return _table(name, lhs, rhs, cls, seeds, contexts, shared, group=group.name)

    lq_extra = {**extra, "constant": _hilbert_factor(coeffs) * bound}
    lq = table("lq_embedding", lhs_lp, LEBESGUE_TOL, lq_extra)
    chain = table("lq_embedding_chain", lhs_chain, QUADRATURE_TOL, extra)
    return RecordTable.concat([lq, chain])


def check_continuity_modulus(
    group: GroupSpec,
    label,
    pair_budget: int = 500,
    seed: int = 0,
    *,
    context: dict | None = None,
) -> RecordTable:
    """|u_ij(x) - u_ij(a)| <= |irrep(x) - irrep(a)|_op for random pairs."""
    rng = np.random.default_rng(_int_seeds([seed])[0])
    xs = group.random_elements(rng, pair_budget)
    ys = group.random_elements(rng, pair_budget)
    diff = group.irrep_matrices(label, xs) - group.irrep_matrices(label, ys)
    entry_max = np.abs(diff).max(axis=(1, 2))
    op_norm = np.linalg.svd(diff, compute_uv=False)[:, 0]
    args = ([seed] * pair_budget, [context] * pair_budget, {"block": label_key(label)})
    columns = {"pair": range(pair_budget)}
    return _table("continuity_modulus", entry_max, op_norm, ALGEBRAIC_TOL, *args, columns,
                  group=group.name)


# ---------------------------------------------------------------------------
# report


@dataclass
class VerificationReport:
    """A run's records, as a RecordTable, and its metadata."""

    records: RecordTable
    metadata: dict

    @property
    def all_pass(self) -> bool:
        return bool(self.records.passed.all())

    def failures(self) -> list:
        return [self.records[i] for i in np.flatnonzero(~self.records.passed).tolist()]

    def min_slack(self) -> dict:
        """Smallest slack per check; NaN when any of its records has NaN slack."""
        return {name: record.slack for name, record in self.tightest().items()}

    def counts(self) -> dict:
        names, codes = self.records.name_codes()
        return dict(zip(names, np.bincount(codes, minlength=len(names)).tolist()))

    def tightest(self) -> dict:
        """Per check, its record of least slack (its first NaN slack, if any)."""
        names, codes = self.records.name_codes()
        slack, out = self.records.slack, {}
        for k, name in enumerate(names):
            at = np.flatnonzero(codes == k)
            out[name] = self.records[int(at[np.argmin(slack[at])])]
        return out

    def summary(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "record_count": len(self.records),
            "failure_count": int((~self.records.passed).sum()),
            "min_slack": self.min_slack(),
            "records_per_check": self.counts(),
        }

    def to_json_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "summary": self.summary(),
            "records": [r.to_dict() for r in self.records],
        }

    def json_parts(self) -> Iterator[str]:
        """``to_json_dict`` as strict JSON in pieces, made as they are asked
        for: metadata and summary indented by two, then one record per line as
        ``json.JSONEncoder`` writes it, one piece per run of records."""
        data = {"metadata": self.metadata, "summary": self.summary()}
        runs = self.records.json_runs()
        # [:-2] drops the closing "\n}"
        yield json.dumps(data, indent=2, allow_nan=False)[:-2] + ',\n  "records": [\n    '
        yield next(runs, "")
        yield from (",\n    " + run for run in runs)
        yield "\n  ]\n}\n"

    def csv_parts(self) -> Iterator[str]:
        """``to_csv_text`` in pieces, made as they are asked for: the header, then one per run."""
        yield ",".join(CSV_COLUMNS)
        yield from ("\n" + run for run in self.records.csv_runs())
        yield "\n"

    def to_csv_text(self) -> str:
        return "".join(self.csv_parts())


def run_suite(config) -> VerificationReport:
    """Run every check on the configured groups; deterministic in the seeds."""
    cfg = config if isinstance(config, RunConfig) else RunConfig.from_dict(dict(config))
    cfg.validate()
    parts: list[RecordTable] = []

    rng_vec = np.random.default_rng(np.random.SeedSequence((cfg.seed, 101)))
    vectors, ps, qs = [], [], []
    for _ in range(cfg.vector_checks):
        n = int(rng_vec.integers(1, cfg.vector_max_dim + 1))
        vectors.append(rng_vec.standard_normal(n) + 1j * rng_vec.standard_normal(n))
        ps.append(p := float(1.0 + 3.0 * rng_vec.random()))
        qs.append(math.inf if rng_vec.random() < 0.1 else p + float(3.0 * rng_vec.random()))
    contexts = [{"index": idx} for idx in range(len(vectors))]
    parts.append(check_vector_norm_comparison(vectors, ps, qs, seed=cfg.seed, context=contexts))

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
            rows = [(cfg.seed, 11, gi, li) for li in range(len(group.window.labels))]
            for label, label_seed in zip(group.window.labels, _seed_words(rows, 1)[:, 0].tolist()):
                parts.append(check_continuity_modulus(group, label, budget, seed=label_seed))

        seeds = _seed_words([(cfg.seed, gi, b) for b in range(cfg.batch_size)], 1)[:, 0].tolist()
        contexts = [{"batch": b} for b in range(cfg.batch_size)]
        coeffs = random_band_limited(seeds, group, cfg.m, p_E=cfg.p_E)
        batch = {"seed": seeds, "context": contexts}

        for s, t in monotone_pairs:
            parts.append(check_monotone_embedding(coeffs, weights, s, t, group=group.name, **batch))
        for s in cfg.s_values:
            parts.append(check_l2_embedding(coeffs, weights, s, group, **batch))
            extra = cfg.sup_extra_samples
            parts.append(check_sup_embedding(coeffs, weights, s, group, extra, probe, **batch))
        for alpha in alphas:
            parts.append(check_hausdorff_young(coeffs, group, alpha, **batch))
        for s, t in cfg.st_pairs:
            parts.append(check_lq_embedding(coeffs, weights, s, t, group, **batch))
        if cfg.block_check_stride:
            step = slice(None, None, cfg.block_check_stride)
            packed = coeffs.packed[step]
            strided = FourierCoefficients(group.window, cfg.m, p_E=cfg.p_E, packed=packed)
            strided_batch = {"group": group.name, "seed": seeds[step], "context": contexts[step]}
            for p, q in pq_pairs:
                parts.append(check_block_comparison(strided, p, q, **strided_batch))

    records = RecordTable.concat(parts)
    if cfg.tamper:
        records = records.tampered()

    metadata = {
        "package": "groupsobolev",
        "version": __version__,
        "config": cfg.to_json_dict(),
        "tamper": cfg.tamper,
    }
    return VerificationReport(records=records.ordered(), metadata=metadata)
