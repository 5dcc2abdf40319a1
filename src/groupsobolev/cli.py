"""Command-line front end: ``spectra``, ``norms``, ``constants``, ``verify``.

Configuration is a single JSON document; flags override config fields,
which override built-in defaults. The default config path can also come
from the ``GROUPSOBOLEV_CONFIG`` environment variable. Exit codes:
0 success, 1 verification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from .groups import group_from_window, make_group
from .sobolev import (
    embedding_constant_C,
    h_s_norm,
    l_p_norm,
    lq_bound_constant,
    summability_check,
    sup_norm,
)
from .transform import (
    VectorFunction,
    atomic_write_text,
    coefficients_from_json,
    dump_json,
    inverse_transform,
    load_coefficients,
    random_band_limited,
    s_p_norm,
    save_coefficients,
    window_from_json,
)
from .verify import DEFAULT_CONFIG, RunConfig, resolve_weights, run_suite

ENV_CONFIG = "GROUPSOBOLEV_CONFIG"
EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


def parse_group_arg(text: str) -> dict:
    """Parse compact group specs: cyclic:12, s3, circle:16, su2:2[:half],
    custom:<path>."""
    head, _, rest = text.partition(":")
    if head == "cyclic":
        return {"kind": "cyclic", "n": int(rest)}
    if head == "s3":
        return {"kind": "s3"}
    if head == "circle":
        return {"kind": "circle", "band": int(rest)}
    if head == "su2":
        parts = rest.split(":")
        spec = {"kind": "su2", "band": float(parts[0])}
        if len(parts) > 1 and parts[1] == "half":
            spec["half_integers"] = True
        return spec
    if head == "custom":
        return {"kind": "custom", "source": rest}
    raise ValueError(f"cannot parse group spec {text!r}")


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
        coeffs = VectorFunction.constant(group, np.ones(cfg.m), p_E=cfg.p_E).coefficients
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
    window = window_from_json(data["window"])
    if args.group:
        group = make_group(parse_group_arg(args.group))
    else:
        group = group_from_window(window)
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
    f = inverse_transform(coeffs, group)
    wmeta = {"kind": window.kind, "band": window.band}

    def row(name, value, **params):
        return {"name": name, "value": value, "window": wmeta, "params": params}

    rows = [row("s_p_norm", s_p_norm(coeffs, p), p=p) for p in cfg.p_values]
    for s in cfg.s_values:
        rows.append(row("h_s_norm", h_s_norm(coeffs, weights, s), s=s, weights=weights.name))
    rows.append(row("l2_norm", l_p_norm(f, group, 2.0), p=2.0))
    extra, seed = cfg.sup_extra_samples, cfg.seed
    sup = sup_norm(f, group, extra_samples=extra, seed=seed)
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
        for s in cfg.s_values:
            est = embedding_constant_C(weights, s, group.window)
            rows.append(
                {
                    "name": "embedding_constant_C",
                    "group": group.name,
                    "value": est.value,
                    "verdict": est.verdict,
                    "window": wmeta,
                    "params": {"s": s, "weights": weights.name},
                }
            )
            rep = summability_check(weights, s, group.window)
            rows.append(
                {
                    "name": "summability",
                    "group": group.name,
                    "value": rep.partial_sums[-1],
                    "verdict": rep.verdict,
                    "window": wmeta,
                    "params": {
                        "s": s,
                        "weights": weights.name,
                        "probed_beyond_window": rep.probed_beyond_window,
                    },
                }
            )
        for s, t in cfg.st_pairs:
            rows.append(
                {
                    "name": "lq_bound_constant",
                    "group": group.name,
                    "value": lq_bound_constant(weights, t, s, group.window),
                    "window": wmeta,
                    "params": {"s": s, "t": t, "weights": weights.name},
                }
            )
    _emit(cfg, rows, "constants.json")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    report = run_suite(cfg)
    report.metadata["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    outdir = Path(cfg.out_dir)
    if "json" in cfg.formats:
        atomic_write_text(outdir / "verification_report.json", dump_json(report.to_json_dict()))
    if "csv" in cfg.formats:
        atomic_write_text(outdir / "verification_report.csv", report.to_csv_text())
    if not cfg.quiet:
        counts = report.counts()
        slacks = report.min_slack()
        fail_names = {r.name for r in report.failures()}
        for name in sorted(counts):
            status = "FAIL" if name in fail_names else "pass"
            print(f"{status} {name}: {counts[name]} records, min slack {slacks[name]:.3e}")
        print(
            f"{'PASS' if report.all_pass else 'FAIL'}: "
            f"{len(report.records)} records, {len(report.failures())} failures"
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


if __name__ == "__main__":
    sys.exit(main())
