"""The benchmark's workloads: what one operation is, and its correctness gate.

Each workload has the same small surface, used by ``run.py``:

- ``specs``: the group specs it builds, for the memory guard and set-up probe;
- ``build()``: untimed preparation (groups, input pool);
- ``run_op(i)``: one operation, the timed part;
- ``check_op(out)``: list of failure messages for that operation's output;
- ``selftest()``: time-free list of failures of ``orthogonality_selftest``;
- ``trace_unit(tally)``: a fixed amount of work, run once untraced and once
  traced to give per-layer self times and the tracing overhead.

The library is called through module attributes at call time (``gs.synthesize``,
``cli.main``), so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import groupsobolev as gs
from groupsobolev import cli
from groupsobolev.verify import ALGEBRAIC_TOL, QUADRATURE_TOL

from sizing import stack_shape

M = 3
S_VALUES = (0.0, 0.5, 1.0, 2.0)
P_VALUES = (1.0, 2.0)

#: Records per check that the bundled default config implies (27,663 in all);
#: they do not depend on the seed.
DEFAULT_RECORDS_PER_CHECK = {
    "block_norm_comparison": 4080,
    "continuity_modulus": 1983,
    "hausdorff_young": 2400,
    "l2_embedding": 3200,
    "lq_embedding": 2400,
    "lq_embedding_chain": 2400,
    "monotone_embedding": 4000,
    "sup_embedding": 3200,
    "vector_norm_decreasing": 2000,
    "vector_norm_dimension_bound": 2000,
}
DEFAULT_RECORD_COUNT = sum(DEFAULT_RECORDS_PER_CHECK.values())


class Tally:
    """Checked operations attempted and failed, with the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(failures)


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def build_checked(spec: dict):
    """make_group, then confirm the size the memory guard assumed for it."""
    group = gs.make_group(dict(spec))
    nodes, coeffs = stack_shape(spec)
    actual = (group.node_count, sum(d * d for d in group.window.dims))
    if actual != (nodes, coeffs):
        raise RuntimeError(
            f"{group.name}: built {actual} (nodes, sum d^2), the memory guard "
            f"assumed {(nodes, coeffs)}; update bench/sizing.py"
        )
    return group


def selftest_failures(groups) -> list[str]:
    failures = []
    for group in groups:
        report = gs.orthogonality_selftest(group)
        if not report.passed:
            failures.append(
                f"{group.name}: orthogonality self-test deviation "
                f"{report.max_deviation:.3e} > {report.tolerance:.0e}"
            )
    return failures


# ---------------------------------------------------------------------------
# transform round trip


@dataclass
class RoundTrip:
    samples: np.ndarray
    back: np.ndarray
    h_s: list
    s_p: dict
    l2: float


class TransformRoundTrip:
    """forward_transform -> H^s norms -> S_p norms -> synthesize -> L2 norm,
    on a pool of seeded band-limited functions synthesized before timing."""

    POOL = 8
    TRACE_OPS = 16
    records = 0  # verification records written

    def __init__(self, name: str, spec: dict, seed: int):
        self.name = name
        self.specs = [spec]
        self.seed = seed

    def build(self) -> None:
        self.group = build_checked(self.specs[0])
        self.weights = gs.canonical_weights(self.group)
        self.pool = [
            gs.synthesize(gs.random_band_limited(derive_seed(self.seed, i), self.group, M), self.group)
            for i in range(self.POOL)
        ]

    def run_op(self, i: int) -> RoundTrip:
        samples = self.pool[i % self.POOL]
        coeffs = gs.forward_transform(gs.VectorFunction.from_samples(samples), self.group)
        h_s = [gs.h_s_norm(coeffs, self.weights, s) for s in S_VALUES]
        s_p = {p: gs.s_p_norm(coeffs, p) for p in P_VALUES}
        back = gs.synthesize(coeffs, self.group)
        l2 = gs.l_p_norm(gs.VectorFunction.from_samples(back), self.group, 2.0)
        return RoundTrip(samples, back, h_s, s_p, l2)

    def check_op(self, out: RoundTrip) -> list[str]:
        failures = []
        scale = float(np.abs(out.samples).max())
        err = float(np.abs(out.back - out.samples).max())
        if not err <= QUADRATURE_TOL * (1.0 + scale):
            failures.append(f"round-trip error {err:.3e} with max|f| {scale:.3e}")
        norm = out.s_p[2.0]
        if not abs(out.l2 - norm) <= QUADRATURE_TOL * (1.0 + norm):
            failures.append(f"Plancherel: L2 {out.l2!r} vs S_2 {norm!r}")
        if not abs(out.h_s[0] - norm) <= ALGEBRAIC_TOL * norm:
            failures.append(f"H^0 norm {out.h_s[0]!r} differs from S_2 norm {norm!r}")
        return failures

    def selftest(self) -> list[str]:
        return selftest_failures([self.group])

    def trace_unit(self, tally: Tally) -> None:
        self.build()
        for i in range(self.TRACE_OPS):
            tally.record(self.check_op(self.run_op(i)))
        tally.record(self.selftest())


# ---------------------------------------------------------------------------
# verify on the default config

_GENERATED_AT = re.compile(rb'^\s*"generated_at": ')
_RECORD_COUNT = re.compile(rb'^\s*"record_count": (\d+)')


@dataclass
class VerifyOutput:
    json_digest: str
    csv_digest: str
    record_count: int | None
    per_check: dict


class VerifyDefault:
    """``groupsobolev verify`` on the bundled default config, reports written.

    Every operation of a run uses the same seed, so each must write the same
    reports as the first one, byte for byte once ``generated_at`` is removed.
    """

    specs = gs.DEFAULT_CONFIG["groups"]

    def __init__(self, seed: int, out_dir: Path):
        self.name = "verify-default"
        self.out_dir = Path(out_dir)
        self.argv = ["verify", "--quiet", "--seed", str(seed), "--out", str(self.out_dir)]
        self.reference: VerifyOutput | None = None

    def build(self) -> None:
        self.groups = [build_checked(spec) for spec in self.specs]

    def run_op(self, i: int) -> int:
        return cli.main(list(self.argv))

    def _read_reports(self) -> VerifyOutput:
        # Streamed line by line, so the gate adds little to the peak RSS.
        json_hash, record_count = hashlib.sha256(), None
        with open(self.out_dir / "verification_report.json", "rb") as fh:
            for line in fh:
                if _GENERATED_AT.match(line):
                    continue
                json_hash.update(line)
                if record_count is None and (hit := _RECORD_COUNT.match(line)):
                    record_count = int(hit.group(1))
        csv_hash, per_check = hashlib.sha256(), {}
        with open(self.out_dir / "verification_report.csv", "rb") as fh:
            for k, line in enumerate(fh):
                csv_hash.update(line)
                if k:
                    name = line.split(b",", 1)[0].decode()
                    per_check[name] = per_check.get(name, 0) + 1
        return VerifyOutput(
            json_hash.hexdigest(), csv_hash.hexdigest(), record_count, per_check
        )

    def check_op(self, exit_code: int) -> list[str]:
        if exit_code != 0:
            return [f"verify exited with code {exit_code}"]
        try:
            out = self._read_reports()
        except OSError as exc:
            return [f"cannot read the verify reports: {exc}"]
        failures = []
        if out.record_count != DEFAULT_RECORD_COUNT:
            failures.append(f"record_count {out.record_count}, expected {DEFAULT_RECORD_COUNT}")
        if out.per_check != DEFAULT_RECORDS_PER_CHECK:
            failures.append(f"records per check {out.per_check}")
        if self.reference is None:
            self.reference = out
        elif (out.json_digest, out.csv_digest) != (
            self.reference.json_digest,
            self.reference.csv_digest,
        ):
            failures.append("reports differ from the first run with the same seed")
        return failures

    def selftest(self) -> list[str]:
        return selftest_failures(self.groups)

    @property
    def records(self) -> int:
        return self.reference.record_count if self.reference else 0

    def trace_unit(self, tally: Tally) -> None:
        tally.record(self.check_op(self.run_op(0)))


def make_workload(name: str, seed: int, out_dir: Path):
    if name == "verify-default":
        return VerifyDefault(seed, out_dir)
    if name == "transform-su2":
        return TransformRoundTrip(name, {"kind": "su2", "band": 6}, seed)
    if name == "transform-circle":
        return TransformRoundTrip(name, {"kind": "circle", "band": 512}, seed)
    raise ValueError(f"unknown workload {name!r}")
