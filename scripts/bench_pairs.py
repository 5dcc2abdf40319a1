"""Run the benchmark on two source trees in alternated pairs and record every run.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json

For each workload that the change's ``BENCHMARK.json`` declares and each
pair i (ten, at seeds 201 to 210), runs the benchmark command of that file
with ``--workload W --seed S --seconds T --trace 0`` in both trees, S being
``SEEDS[i]`` and T the file's ``run_seconds``: the parent first when i is
even, the change first when i is odd, one process at a time.

The output file's ``paired_runs`` key is replaced (its other keys are kept).
It holds every run, and per workload and end-to-end metric each side's
median and quartiles, the pairs the change wins by the metric's ``better``
direction (ties count for neither) and the pairs run. A run that fails, or
reports an incorrect operation, stops the script with exit code 1 before
anything is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from bench_trajectory import commit_of, run_once

SEEDS = range(201, 211)  # pair i runs at SEEDS[i]


def summary(runs: list, metrics: list) -> dict:
    """Per metric: each side's median and quartiles, the change's wins and the pairs."""
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        side = {label: [r["metrics"][name] for r in runs if r["label"] == label]
                for label in ("parent", "change")}
        wins = sum(c < p if lower else c > p for p, c in zip(side["parent"], side["change"]))
        out[name] = {
            **{f"{label}_quartiles": statistics.quantiles(v, n=4, method="inclusive")
               for label, v in side.items()},
            **{f"{label}_median": statistics.median(v) for label, v in side.items()},
            "change_wins": wins,
            "pairs": len(side["parent"]),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, type=Path, help="source tree of the parent")
    parser.add_argument("--change", required=True, type=Path, help="source tree of the change")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_*.json file to update")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    workloads = [w["name"] for w in declared["workloads"]]
    runs, env = [], None
    try:
        for workload in workloads:
            for pair, seed in enumerate(SEEDS):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for label in order:
                    env, metrics = run_once(trees[label], declared["command"], workload, seed, seconds)
                    runs.append({"workload": workload, "pair": pair, "seed": seed, "label": label,
                                 "first": label == order[0], "metrics": metrics})
                    print(f"{workload} pair {pair} {label}: {json.dumps(metrics)}", file=sys.stderr)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {
        "command": " ".join(declared["command"]) + f" --workload W --seed S --seconds {seconds} --trace 0",
        "parent": commit_of(trees["parent"]),
        "change": commit_of(trees["change"]),
        "order": "pair i runs the parent first when i is even and the change first when i is odd; "
                 f"seeds {SEEDS[0]} to {SEEDS[-1]}; one process at a time",
        "env": env,
        "summary": {w: summary([r for r in runs if r["workload"] == w], declared["end_to_end"])
                    for w in workloads},
        "runs": runs,
    }
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    args.out.write_text(json.dumps({**data, "paired_runs": record}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
