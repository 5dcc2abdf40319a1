"""Compare two ``verification_report.json`` files record by record.

    python3 scripts/compare_reports.py OLD_REPORT NEW_REPORT

Records are paired by position: records are in report order, deterministic
across reruns.
A pair matches when it has the same keys, name, group, seed and context,
the same pass flag, and |delta lhs| and |delta rhs| each within the old
record's ``tol``, with no division: a record of tol 0 (lhs = rhs = 0)
matches only one with the same lhs and rhs. Context values are compared
after decoding the strict-JSON spelling "inf" of an infinite exponent, so
a report written with bare ``Infinity`` tokens compares equal to one
written with "inf" strings.
The per-check record counts and failure counts of the summaries must agree.

Prints one line per check (records, worst |delta|/tol, where 0/0 counts as
0) and exits 0 when every record matches, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

IDENTITY_FIELDS = ("name", "group", "seed")
SPECIAL_FLOATS = {"inf": math.inf, "-inf": -math.inf}


def _decode(value):
    if isinstance(value, str):
        return SPECIAL_FLOATS.get(value, value)
    if isinstance(value, dict):
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def compare(old: dict, new: dict) -> tuple[list[str], dict]:
    """Mismatch messages and per-check stats {name: [records, worst ratio]}."""
    problems = []
    for key in ("records_per_check", "failure_count", "all_pass"):
        if old["summary"][key] != new["summary"][key]:
            problems.append(f"summary {key}: {old['summary'][key]} != {new['summary'][key]}")
    if len(old["records"]) != len(new["records"]):
        problems.append(f"record count {len(old['records'])} != {len(new['records'])}")
    stats: dict[str, list] = {}
    for i, (a, b) in enumerate(zip(old["records"], new["records"])):
        where = f"record {i} ({a['name']}, {a['group']}, seed {a['seed']})"
        if set(a) != set(b):
            problems.append(f"{where}: keys {sorted(a)} != {sorted(b)}")
            continue
        if any(a[f] != b[f] for f in IDENTITY_FIELDS) or _decode(a["context"]) != _decode(
            b["context"]
        ):
            problems.append(f"{where}: identity or context differs: {b}")
            continue
        if a["pass"] != b["pass"]:
            problems.append(f"{where}: pass {a['pass']} != {b['pass']}")
        delta = max(abs(a[k] - b[k]) for k in ("lhs", "rhs"))
        if not delta <= a["tol"]:
            problems.append(f"{where}: |delta| {delta!r} exceeds tol {a['tol']!r}")
        ratio = 0.0 if delta == 0 else delta / a["tol"] if a["tol"] else math.inf
        entry = stats.setdefault(a["name"], [0, 0.0])
        entry[0] += 1
        entry[1] = max(entry[1], ratio)
    return problems, stats


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = (_load(p) for p in argv)
    problems, stats = compare(old, new)
    for name in sorted(stats):
        count, worst = stats[name]
        print(f"{name}: {count} records, worst |delta|/tol {worst:.3g}")
    for line in problems[:20]:
        print(f"MISMATCH {line}")
    print(
        f"{'MATCH' if not problems else 'DIFFER'}: {sum(c for c, _ in stats.values())} "
        f"records compared, {len(problems)} mismatches"
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
