"""Run a workload repeatedly and report each metric's spread.

    python3 perfbench/compare.py --workload serve --runs 10
    python3 perfbench/compare.py --workload build --runs 10 --other ../parent

Runs ``perfbench/run.py`` once per seed (``--first-seed`` upwards) from
the root of the source tree this file belongs to, or, with ``--other``,
alternately in this tree and in the other one (each pair swaps which
side goes first; both run this tree's benchmark code).  For every metric
it prints the median, the quartiles and the interquartile spread as a
share of the median against the metric's bound in ``BENCHMARK.json``;
for two trees it adds the ratio of medians and how many pairs each side
won.  Every run's attempted and failed counts and host record follow.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"run failed ({done.returncode}):\n{done.stdout}"
                           f"\n{done.stderr}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with open(ROOT / ".perfbench" / f"compare-{workload}.jsonl", "a") as log:
        log.write(json.dumps({"tree": str(tree), "seed": seed,
                              "stdout": lines}) + "\n")
    result["wall_s"] = time.perf_counter() - started
    result["host"] = next((line for line in lines if line.startswith("host")), "")
    result["steal"] = next((line for line in lines
                            if line.startswith("host: steal")), "")
    unscaled = next((line for line in lines if line.startswith("unscaled: ")), "")
    result["unscaled"] = json.loads(unscaled[len("unscaled: "):]) if unscaled else {}
    return result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--other", type=Path,
                        help="a second source tree to alternate with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: m for m in metrics}
    trees = [ROOT] + ([args.other.resolve()] if args.other else [])

    runs = {tree: [] for tree in trees}
    for index in range(args.runs):
        seed = args.first_seed + index
        order = trees if index % 2 == 0 else trees[::-1]
        for tree in order:
            result = _run(tree, args.workload, seed, seconds, args.trace)
            runs[tree].append(result)
            print(f"[{tree.name}] seed {seed}: correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']} "
                  f"wall {result['wall_s']:.1f} s | {result['steal']}",
                  flush=True)

    for tree in trees:
        print(f"\n== {tree} ({len(runs[tree])} runs of {args.workload})")
        shares = {r["failed"] / r["attempted"] for r in runs[tree]}
        print(f"failed share of attempted: {sorted(shares)}")
        names = runs[tree][0]["metrics"]
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs[tree]]
            unit = runs[tree][0]["metrics"][name]["unit"]
            q1, q2, q3 = _quartiles(values)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = declared.get(name, {}).get("bound")
            verdict = ""
            if bound is not None:
                verdict = ("ok" if spread <= bound / 3 else
                           "within bound" if spread <= bound else "TOO WIDE")
                verdict = f"bound {bound}: {verdict}"
            print(f"{name:28s} median {q2:12.4f} {unit:10s} q1 {q1:12.4f} "
                  f"q3 {q3:12.4f} spread {spread:6.3f} {verdict}")
            print(f"{'':28s} runs {[round(v, 4) for v in values]}")
            raw = [r["unscaled"][name] for r in runs[tree]
                   if name in r["unscaled"]]
            if len(raw) == len(values):
                r1, r2, r3 = _quartiles(raw)
                print(f"{'':28s} unscaled median {r2:.4f} spread "
                      f"{(r3 - r1) / r2:6.3f} runs {[round(v, 4) for v in raw]}")
        for result in runs[tree]:
            print(f"  seed {result['seed']}: {result['host']}")

    if len(trees) == 2:
        base, other = (runs[tree] for tree in trees)
        print(f"\n== {trees[1].name} against {trees[0].name}")
        for name in base[0]["metrics"]:
            better = declared.get(name, {}).get("better", "lower")
            a = [r["metrics"][name]["value"] for r in base]
            b = [r["metrics"][name]["value"] for r in other]
            wins = sum((y < x) if better == "lower" else (y > x)
                       for x, y in zip(a, b))
            print(f"{name:28s} ratio of medians "
                  f"{statistics.median(b) / statistics.median(a):7.4f} "
                  f"({better} is better); {trees[1].name} won {wins} of "
                  f"{len(a)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
