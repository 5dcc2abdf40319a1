"""Run the benchmark's workloads on one source tree and record their medians.

    python3 scripts/bench_trajectory.py --tree DIR --label NAME --out BENCH_N.json

For each workload that ``DIR/BENCHMARK.json`` declares and each of the seeds
1, 2 and 3, runs the benchmark command of that file (``python3 bench/run.py``)
inside DIR with ``--workload W --seed SEED --seconds S --trace 0``, S being
the file's ``run_seconds``, one process at a time, and keeps the end-to-end
metrics of its result line (the last line of its stdout).

The entry named NAME in the output file is replaced, or appended when there
is none, so that one file holds the before and after of a change. It holds
the tree's git commit (when DIR is a git checkout), the seeds and seconds,
the ``env`` line of the first run, and per workload the median of each
metric over the seeds beside the individual runs. A run that fails, or
reports an incorrect operation, stops the script with exit code 1 before
anything is written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 2, 3)


def run_once(tree: Path, command: list, workload: str, seed: int, seconds: float) -> tuple:
    """(env, metrics) of one benchmark run; raises RuntimeError on failure."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run([*argv, "--trace", "0"], cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    env = next((json.loads(l[4:]) for l in lines if l.startswith("env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if done.returncode != 0 or not result or not result.get("correct"):
        raise RuntimeError(
            f"{workload} seed {seed} failed (exit {done.returncode}):\n{done.stdout}{done.stderr}"
        )
    return env, {name: m["value"] for name, m in result["metrics"].items()}


def commit_of(tree: Path) -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def measure(tree: Path, label: str) -> dict:
    declared = json.loads((tree / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    entry = {"label": label, "commit": commit_of(tree), "seeds": list(SEEDS), "seconds": seconds}
    workloads = {}
    for workload in (w["name"] for w in declared["workloads"]):
        runs = []
        for seed in SEEDS:
            env, metrics = run_once(tree, declared["command"], workload, seed, seconds)
            entry.setdefault("env", env)
            runs.append({"seed": seed, "metrics": metrics})
            print(f"{label} {workload} seed {seed}: {json.dumps(metrics)}", file=sys.stderr)
        names = runs[0]["metrics"]
        median = {n: statistics.median(r["metrics"][n] for r in runs) for n in names}
        workloads[workload] = {"median": median, "runs": runs}
    entry["workloads"] = workloads
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--tree", required=True, type=Path, help="source tree to benchmark")
    parser.add_argument("--label", required=True, help="name of the entry, e.g. parent or change")
    parser.add_argument("--out", required=True, type=Path, help="BENCH_*.json file to update")
    args = parser.parse_args(argv)
    try:
        entry = measure(args.tree.resolve(), args.label)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    data = json.loads(args.out.read_text()) if args.out.exists() else {"entries": []}
    entries = [e for e in data.get("entries", []) if e["label"] != args.label] + [entry]
    args.out.write_text(json.dumps({**data, "entries": entries}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
