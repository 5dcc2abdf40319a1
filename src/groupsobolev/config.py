"""The suite configuration: ``RunConfig``, its defaults and the weight selection.

Every command of the command line validates one; only ``verify`` runs the
suite on it, so the harness is kept apart from this module.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Any

from .groups import GroupSpec
from .sobolev import WeightSequence, canonical_weights, exponents, weights_from_table, zero_weights
from .transform import label_key

__all__ = ["DEFAULT_CONFIG", "RunConfig", "resolve_weights"]


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
                if not (_is_number(v) and least <= v <= sys.float_info.max):
                    raise ValueError(
                        f"config field {name!r} needs finite numbers >= {least}, got {v!r}"
                    )
        for pair in self.st_pairs:
            try:
                if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_is_number, pair))):
                    raise ValueError("need two numbers [s, t]")
                exponents(*pair)
            except (ValueError, OverflowError) as exc:  # OverflowError: an int past any float
                raise ValueError(f"config field 'st_pairs' entry {pair!r}: {exc}") from None
        bad = [f for f in self.formats if f not in ("json", "csv")]
        if bad:
            raise ValueError(f"config field 'formats' has unknown formats {bad}; use 'json' and/or 'csv'")
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
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["p_E"] = "inf" if isinstance(self.p_E, float) and math.isinf(self.p_E) else self.p_E
        out["st_pairs"] = [list(pair) for pair in self.st_pairs]
        return {k: v for k, v in out.items() if k not in self.OUTPUT_FIELDS}


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
        return zero_weights()
    if isinstance(spec, dict):
        by_key = {label_key(l): l for l in group.window.labels}
        table = {}
        for key, value in spec.items():
            if str(key) not in by_key:
                raise ValueError(f"weight table key {key!r} is not a window label of {group.name}")
            table[by_key[str(key)]] = value
        return weights_from_table(table, group.window)
    raise ValueError(f"invalid weight selection {spec!r}")
