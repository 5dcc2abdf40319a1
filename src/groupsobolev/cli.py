"""Command-line front end: ``spectra``, ``norms``, ``constants``, ``verify``.

Configuration is a single JSON document; flags override config fields,
which override built-in defaults. The default config path can also come
from the ``GROUPSOBOLEV_CONFIG`` environment variable. Exit codes: 0 success,
1 verification failure, 2 usage or config error, 3 any other error (with its traceback).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import re
import sys
import traceback
from pathlib import Path

import numpy as np

from .groups import make_group
from .sobolev import embedding_constant_C, h_s_norm, lebesgue_norm, lq_bound_constant, probed_sup
from .transform import (
    FourierCoefficients,
    atomic_write_text,
    coefficients_from_json,
    dump_json,
    load_coefficients,
    random_band_limited,
    s_p_norm,
    save_coefficients,
    window_from_json,
)
from .config import DEFAULT_CONFIG, RunConfig, resolve_weights

ENV_CONFIG = "GROUPSOBOLEV_CONFIG"
EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_ERROR = 0, 1, 2, 3

#: Context keys that the tightest-record line of ``verify`` prints.
ROW_KEYS = ("batch", "index", "block", "pair")


def parse_group_arg(text: str) -> dict:
    """Parse compact group specs: cyclic:12, s3, circle:16, su2:2[:half],
    custom:<path>. A part left over is refused; the numbers are read as a
    config's would be, so ``make_group`` judges them (16.0 counts as 16)."""
    head, _, rest = text.partition(":")
    if head == "custom":
        return {"kind": "custom", "source": rest}
    parts = rest.split(":") if rest else []
    half = head == "su2" and parts[1:] == ["half"]
    names = {"cyclic": ["n"], "s3": [], "circle": ["band"], "su2": ["band"]}.get(head)
    if names is None or len(parts) - half != len(names):
        raise ValueError(
            f"cannot parse group spec {text!r}; use cyclic:N, s3, circle:BAND, "
            "su2:BAND[:half] or custom:PATH"
        )
    spec = {"kind": head, **dict(zip(names, map(_number, parts)))}
    return {**spec, "half_integers": True} if half else spec


def _number(text: str):
    """``text`` as an int or a float if it reads as one, else ``text``."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _slug(name: str) -> str:
    return re.sub(r"[^\w.+-]+", "_", name).strip("_")


def _load_config(args) -> RunConfig:
    data = {}
    path = getattr(args, "config", None) or os.environ.get(ENV_CONFIG)
    if path:
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
    merged = {**DEFAULT_CONFIG, **data}
    RunConfig.from_dict(merged)  # the file on its own, so that no flag hides a bad field
    if getattr(args, "seed", None) is not None:
        merged["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        merged["out_dir"] = args.out
    fmt = getattr(args, "format", None)
    if fmt:
        merged["formats"] = ["json", "csv"] if fmt == "both" else [fmt]
    if getattr(args, "quiet", False):
        merged["quiet"] = True
    if getattr(args, "tamper", False):
        merged["tamper"] = True
    return RunConfig.from_dict(merged)


def _emit(cfg: RunConfig, rows: list, filename: str) -> Path:
    out = Path(cfg.out_dir) / filename
    atomic_write_text(out, dump_json(rows))
    if not cfg.quiet:
        for row in rows:
            print(json.dumps(row))
        print(f"wrote {out}", file=sys.stderr)
    return out


def cmd_spectra(args) -> int:
    cfg = _load_config(args)
    gspec = parse_group_arg(args.group) if args.group else dict(cfg.groups[0])
    group = make_group(gspec)
    if args.source == "random":
        coeffs = random_band_limited(cfg.seed, group, cfg.m, p_E=cfg.p_E)
    elif args.source == "constant":
        trivial = {group.window.trivial: np.ones((1, 1, cfg.m))}
        coeffs = FourierCoefficients(group.window, cfg.m, trivial, cfg.p_E)
    else:
        coeffs = load_coefficients(args.source, group)
    out = Path(cfg.out_dir) / f"spectra_{_slug(group.name)}.json"
    save_coefficients(out, coeffs)
    if not cfg.quiet:
        print(json.dumps({"name": "s_2_norm", "value": s_p_norm(coeffs, 2.0)}))
        print(f"wrote {out}", file=sys.stderr)
    return EXIT_OK


def cmd_norms(args) -> int:
    cfg = _load_config(args)
    data = json.loads(Path(args.coefficients).read_text())
    window = window_from_json(data)
    if window.kind == "custom" and not args.group:
        raise ValueError(
            "a custom group cannot be rebuilt from the coefficient file alone; "
            "name its JSON description with --group custom:PATH"
        )
    group = make_group(parse_group_arg(args.group) if args.group else window)
    coeffs = coefficients_from_json(data, group)
    if args.weights:
        table = json.loads(Path(args.weights).read_text())
        weights = resolve_weights([table], 0, group)
    elif isinstance(cfg.weights, str):
        weights = resolve_weights(cfg.weights, 0, group)
    else:
        raise ValueError(
            "config field 'weights' is a per-group list, which cannot be matched to "
            "a coefficient file; pass the weight table with --weights PATH"
        )
    wmeta = {"kind": window.kind, "band": window.band}

    def row(name, value, **params):
        return {"name": name, "value": value, "window": wmeta, "params": params}

    rows = [row("s_p_norm", s_p_norm(coeffs, p), p=p) for p in cfg.p_values]
    for s in cfg.s_values:
        rows.append(row("h_s_norm", h_s_norm(coeffs, weights, s), s=s, weights=weights.name))
    rows.append(row("l2_norm", lebesgue_norm(coeffs, group, 2.0), p=2.0))
    extra, seed = cfg.sup_extra_samples, cfg.seed
    sup = probed_sup(coeffs, group, extra, seed)
    rows.append(row("sup_norm", sup, extra_samples=extra, seed=seed))
    _emit(cfg, rows, f"norms_{_slug(group.name)}.json")
    return EXIT_OK


def cmd_constants(args) -> int:
    cfg = _load_config(args)
    rows = []
    for gi, gspec in enumerate(cfg.groups):
        group = make_group(dict(gspec))
        weights = resolve_weights(cfg.weights, gi, group)
        wmeta = {"kind": group.window.kind, "band": group.window.band}

        def row(name, value, extra, **params):
            return {"name": name, "group": group.name, "value": value, **extra,
                    "window": wmeta, "params": {**params, "weights": weights.name}}

        for s in cfg.s_values:
            est = embedding_constant_C(weights, s, group.window)
            extra = {"upper": "inf" if math.isinf(est.upper) else est.upper, "verdict": est.verdict}
            rows.append(row("embedding_constant_C", est.value, extra, s=s))
        for s, t in cfg.st_pairs:
            # the verdict on the series sum d^3 (1 + w^2)^(-t) behind the constant
            extra = {"verdict": embedding_constant_C(weights, t, group.window).verdict}
            value = lq_bound_constant(weights, t, s, group.window)
            rows.append(row("lq_bound_constant", value, extra, s=s, t=t))
    _emit(cfg, rows, "constants.json")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite  # imported here: no other command loads the harness

    cfg = _load_config(args)
    report = run_suite(cfg)
    report.metadata["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    outdir = Path(cfg.out_dir)
    if "json" in cfg.formats:
        atomic_write_text(outdir / "verification_report.json", report.json_parts())
    if "csv" in cfg.formats:
        atomic_write_text(outdir / "verification_report.csv", report.csv_parts())
    if not cfg.quiet:
        counts, tightest = report.counts(), report.tightest()
        names, codes = report.records.name_codes()
        failed = ~report.records.passed
        for code, name in enumerate(names):
            status = "FAIL" if failed[codes == code].any() else "pass"
            r = tightest[name]
            where = " ".join(f"{k}={r.context[k]}" for k in ROW_KEYS if k in r.context)
            print(
                f"{status} {name}: {counts[name]} records, min slack {r.slack:.3e}, "
                f"tightest group={r.group} seed={r.seed} {where}".rstrip()
            )
        print(
            f"{'PASS' if report.all_pass else 'FAIL'}: "
            f"{len(report.records)} records, {int(failed.sum())} failures"
        )
    return EXIT_OK if report.all_pass else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupsobolev",
        description="Fourier transforms, Sobolev norms, and embedding-inequality "
        "verification on compact groups.",
    )
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help=f"JSON config path (or ${ENV_CONFIG})")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", choices=["json", "csv", "both"], help="report formats")
        p.add_argument("--quiet", action="store_true", help="suppress stdout")

    p = sub.add_parser("spectra", help="compute and store coefficient files")
    common(p)
    p.add_argument("--group", help="group spec, e.g. cyclic:12, circle:16, su2:2")
    p.add_argument(
        "--source",
        default="random",
        help="'random', 'constant', or a coefficient file to round-trip",
    )
    p.set_defaults(func=cmd_spectra)

    p = sub.add_parser("norms", help="norm table for a coefficient file")
    common(p)
    p.add_argument("--coefficients", required=True, help="coefficient JSON file")
    p.add_argument("--group", help="group spec (default: rebuilt from the file)")
    p.add_argument("--weights", help="JSON weight table {label: value}")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("constants", help="embedding constants and series verdicts")
    common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("verify", help="run the inequality suite")
    common(p)
    p.add_argument(
        "--tamper",
        action="store_true",
        help="self-test hook: halve every rhs; the suite must then fail",
    )
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # not a verdict: exit 1 means that an inequality failed
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
