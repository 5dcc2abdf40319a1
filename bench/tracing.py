"""In-memory span tracer wrapped around the library's public functions.

``instrumented(tracer)`` replaces each function named in ``SPANS`` and
``COUNTS`` with a recording wrapper, in every module of the package that
holds it (``verify`` calls ``h_s_norm`` through its own import, so the name
is patched there too), and restores the originals on exit. The library
itself is not changed.

A span records its name, its parent span and its start and end time. Self
time is a span's length minus the time its child spans cover, so the self
times of all spans under one root add up to the root's length.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "groupsobolev"
MODULES = ("groups", "transform", "sobolev", "verify", "cli")

#: span name -> functions it times, as (module, attribute path)
SPANS = {
    "groups.make_group": [("groups", "make_group")],
    "groups.irrep_matrices": [("groups", "GroupSpec.irrep_matrices")],
    "groups.orthogonality_selftest": [("groups", "orthogonality_selftest")],
    "transform.forward_transform": [("transform", "forward_transform")],
    "transform.synthesize": [("transform", "synthesize")],
    "transform.s_p_norm": [("transform", "s_p_norm")],
    "transform.random_band_limited": [("transform", "random_band_limited")],
    "sobolev.h_s_norm": [("sobolev", "h_s_norm")],
    "sobolev.l_p_norm": [("sobolev", "l_p_norm")],
    "sobolev.embedding_constant_C": [("sobolev", "embedding_constant_C")],
    "sobolev.lq_bound_constant": [("sobolev", "lq_bound_constant")],
    **{
        f"verify.{name}": [("verify", name)]
        for name in (
            "check_vector_norm_comparison",
            "check_block_comparison",
            "check_monotone_embedding",
            "check_l2_embedding",
            "check_sup_embedding",
            "check_hausdorff_young",
            "check_lq_embedding",
            "check_continuity_modulus",
        )
    },
    "verify.run_suite": [("verify", "run_suite")],
    "verify.report_render": [
        ("verify", "VerificationReport.to_json_dict"),
        ("verify", "VerificationReport.to_csv_text"),
        ("transform", "dump_json"),
    ],
    "cli.main": [("cli", "main")],
}

#: Called about 300k times per verify run for microseconds each: counted
#: only, since a span would cost more than the call.
COUNTS = {"transform.e_norm": [("transform", "e_norm")]}

#: The stack build inside a group build evaluates irreps at the nodes; that
#: belongs to the build, so nothing under this span is recorded.
OPAQUE = {"groups.make_group"}


class Tracer:
    """Spans kept in parallel lists; span ids are list indices."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.calls: Counter = Counter()
        self._stack = [-1]
        self._opaque = 0

    @contextlib.contextmanager
    def span(self, name: str, opaque: bool = False):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self.starts.append(perf_counter())
        self._stack.append(idx)
        self._opaque += opaque
        try:
            yield
        finally:
            self._opaque -= opaque
            self._stack.pop()
            self.ends[idx] = perf_counter()

    def wrap(self, name: str, fn, record_span: bool):
        tracer = self
        opaque = name in OPAQUE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._opaque:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            if not record_span:
                return fn(*args, **kwargs)
            with tracer.span(name, opaque):
                return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the durations of its direct children."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=int)
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=dur.size)
        return dur - covered

    def summary(self) -> dict:
        """{span name: {"calls", "total_s", "self_s"}} over every span."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        own = self.self_times()
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += float(dur[i])
            row["self_s"] += float(own[i])
        return out

    def to_json(self) -> dict:
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        return {
            "span_names": names,
            "spans": [
                [i, self.parents[i], index[n], self.starts[i], self.ends[i]]
                for i, n in enumerate(self.names)
            ],
            "span_columns": ["id", "parent", "name", "start_s", "end_s"],
            "calls": dict(sorted(self.calls.items())),
        }


def _patch_targets(tracer: Tracer):
    modules = [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
    ]
    for table, record_span in ((SPANS, True), (COUNTS, False)):
        for name, targets in table.items():
            for module, path in targets:
                owner = importlib.import_module(f"{PACKAGE}.{module}")
                cls_name, _, attr = path.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    yield cls, attr, original, tracer.wrap(name, original, record_span)
                    continue
                original = getattr(owner, attr)
                wrapper = tracer.wrap(name, original, record_span)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            yield mod, key, original, wrapper


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route the package's traced functions through ``tracer`` while open."""
    patched = []
    try:
        for owner, key, original, wrapper in _patch_targets(tracer):
            setattr(owner, key, wrapper)
            patched.append((owner, key, original))
        yield tracer
    finally:
        for owner, key, original in reversed(patched):
            setattr(owner, key, original)
