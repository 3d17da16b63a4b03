"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from its
``src`` directory.  ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` wraps the program's layers with spans
and prints the per-layer metrics instead.  Every run works in a fresh
directory under ``.perfbench/`` and removes it when it ends.

Every workload runs one fixed schedule, so that every run does the same
work; each schedule is sized to measure about ``run_seconds`` of
``BENCHMARK.json`` (15 s) at reference speed.  ``--seconds`` is
accepted and logged, and does not change the work.

The result holds every metric ``BENCHMARK.json`` declares for the mode,
in its order.  An end-to-end metric a workload did not measure is a
fault of the benchmark and ends the run without a result; a per-layer
metric of a layer the workload's traced run does not observe reads 0,
and the log names it.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.pin_blas_threads()

WORKLOADS = ("build", "train", "serve", "serve_pool")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="declared length of a run; logged, the "
                             "schedules are fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {root / 'src'}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = root / ".perfbench" / f"work-{args.workload}-{time.time_ns()}"
    work.mkdir(parents=True)
    ctx = common.Context(
        workload=args.workload, root=root, work=work, seed=args.seed,
        seconds=args.seconds, trace=bool(args.trace),
    )
    ctx.log(f"workload {args.workload} seed {args.seed} "
            f"seconds {args.seconds} trace {args.trace}")
    ctx.log(f"host record: {common.host_record()}")
    try:
        if args.workload == "build":
            import build_wl as workload
        elif args.workload == "train":
            import train_wl as workload
        else:
            import serve_wl as workload
        outcome = workload.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ctx.log(f"operations: {outcome.attempted} attempted, {outcome.failed} "
            f"failed; wall {time.perf_counter() - STARTED:.1f} s")
    if not _complete(ctx, outcome, declared):
        return 3
    common.emit(outcome)
    return 0


def _complete(ctx, outcome, declared) -> bool:
    """Put the metrics in the manifest's order; fill unobserved layers."""
    metrics = outcome.metrics
    undeclared = sorted(set(metrics) - {m["name"] for m in declared})
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    units = [m["name"] for m in declared
             if m["name"] in metrics and metrics[m["name"]][1] != m["unit"]]
    if undeclared or units or (missing and not ctx.trace):
        print(f"result does not match BENCHMARK.json: missing {missing}, "
              f"undeclared {undeclared}, other unit {units}", file=sys.stderr)
        return False
    if missing:
        ctx.log(f"not observed in this workload, reported as 0: {missing}")
    outcome.metrics = {
        m["name"]: metrics.get(m["name"], (0.0, m["unit"])) for m in declared
    }
    return True


if __name__ == "__main__":
    sys.exit(main())
