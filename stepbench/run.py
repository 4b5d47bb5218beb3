"""Whole-MD-step benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 stepbench/run.py --workload fe54k-serial --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace
1`` prints the per-layer metrics of a traced run and writes its spans to
``stepbench/out/`` as Chrome/Perfetto trace JSON.  Every run checks the
engine's final forces and energy against the serial kernel.  The last line
of standard output is the result as one JSON object.  Each result is also
appended to ``stepbench/out/results.jsonl``; the ``fe54k-sdc2d-procs2``
run prints its speedup over the latest ``fe54k-serial`` result with the
same seed and length found there.

The program is imported from ``src/`` next to this directory and nowhere
else: without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
RESULTS = os.path.join(OUT, "results.jsonl")

#: the derived speedup row: parallel workload -> its serial baseline
SPEEDUP_BASELINE = {"fe54k-sdc2d-procs2": "fe54k-serial"}


def import_program():
    """Import ``repro`` from this checkout's ``src/`` only."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        print(f"stepbench: cannot import the program: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"stepbench: repro resolved outside {SRC}: {repro.__file__}",
              file=sys.stderr)
        sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def speedup_row(workload: str, seed: int, seconds: float, steps_per_s):
    """``speedup_vs_serial`` against the matching stored serial result."""
    baseline = SPEEDUP_BASELINE.get(workload)
    if baseline is None or not os.path.exists(RESULTS):
        return baseline, None
    serial = None
    with open(RESULTS) as handle:
        for line in handle:
            row = json.loads(line)
            if (row["workload"] == baseline and row["seed"] == seed
                    and row["seconds"] == seconds and row["trace"] == 0
                    and row["correct"]):
                serial = row["metrics"]["steps_per_s"]["value"]
    if serial is None:
        return baseline, None
    return baseline, steps_per_s / serial


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import measure
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"stepbench: unknown workload {args.workload!r}; choices: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    trace_path = None
    if args.trace:
        # one file per workload, overwritten by its next traced run
        trace_path = os.path.join(OUT, f"trace-{workload.name}.json")
    result = measure.run(workload, args.seed, args.seconds,
                         bool(args.trace), trace_path)
    info = result.pop("info")
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in result["metrics"].items()
    }
    result["metrics"] = metrics

    print(f"# workload {workload.name}: {info['system']}, "
          f"{info.get('n_atoms', '?')} atoms, {info['temperature_k']:g} K, "
          f"{info['engine']}, {info['n_workers']} worker(s), seed {args.seed}")
    print(f"# why: {info['why']}")
    print(f"# host: {json.dumps(info['host'])}")
    print(f"# samples: {json.dumps(info.get('samples', {}))}")
    print(f"# check: {json.dumps(info['check'])}")
    if "closure" in info:
        print(f"# closure: {json.dumps(info['closure'])}")
    if "trace_file" in info:
        print(f"# trace: {info['trace_file']} "
              f"({info['trace_events']} events)")
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'failed_frac':48s} {info['failed_frac']:>16.6g} fraction")
    if not args.trace and "steps_per_s" in metrics:
        baseline, speedup = speedup_row(
            workload.name, args.seed, args.seconds,
            metrics["steps_per_s"]["value"])
        if baseline is not None:
            shown = f"{speedup:.4g}" if speedup is not None else (
                f"n/a (no {baseline} result for seed {args.seed})")
            print(f"{'speedup_vs_serial':48s} {shown:>16s} x "
                  f"(steps/s over {baseline}, same atoms and seed)")

    os.makedirs(OUT, exist_ok=True)
    with open(RESULTS, "a") as handle:
        handle.write(json.dumps({
            "workload": workload.name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, **result,
            "host": info["host"],
        }) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
