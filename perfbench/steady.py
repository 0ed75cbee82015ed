"""Steadiness report: do two sets of runs of the same code agree?

Usage (from the root of a source checkout)::

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--seconds S]
                                [--out report.json]

Runs the same code in two sets: ``perfbench/run.py`` ``--runs`` times per
workload and set, each run with its own seed (the first set uses seeds
1 to ``runs``, the second the next ``runs``, so the sets share no inputs).
For every end-to-end metric it prints each set's median and spread — the
distance between the first and third quartile of the runs' values
(``statistics.quantiles(values, n=4)``) as a share of the median — and the
second set's shift against the first, signed so that positive is worse.
Bounds come from ``BENCHMARK.json``.  A metric is flagged ``SPREAD`` when a
set's spread exceeds its bound, ``SHIFT`` when the two sets' medians differ
by more than the bound in either direction, and ``noisy`` when a spread
exceeds a third of the bound.  The exit code is 1 if any ``SPREAD`` or
``SHIFT`` flag is raised or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Sets of runs compared; each set's seeds follow the previous set's.
SETS = 2
FIRST_SEED = 1


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(workload: str, seed: int, seconds: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The provenance line and the result line of one run."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv: List[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    metrics = config["end_to_end"]
    values: Dict[str, List[Dict[str, List[float]]]] = {}
    failures = 0
    for workload in args.workloads.split(","):
        values[workload] = []
        for index in range(SETS):
            collected: Dict[str, List[float]] = {m["name"]: [] for m in metrics}
            for run in range(args.runs):
                seed = FIRST_SEED + index * args.runs + run
                provenance, result = run_once(workload, seed, args.seconds)
                if not result["correct"]:
                    failures += 1
                    print(f"FAILED {workload} seed {seed}: {result['failed']} failed", flush=True)
                    continue
                for name, metric in result["metrics"].items():
                    collected[name].append(metric["value"])
                discover = result["metrics"]["discover_s"]["value"]
                wall = provenance["wall"]
                print(f"  {workload} set {index + 1} seed {seed}: discover_s {discover:.4f} "
                      f"(wall {wall['discover_s']:.4f} s, speed {wall['speed']:.3f})", flush=True)  # fmt: skip
            values[workload].append(collected)

    flagged = False
    print(f"{'workload':24} {'metric':14} {'set':>3} {'median':>12} {'spread':>7} "
          f"{'shift':>7} {'bound':>6} flags")  # fmt: skip
    for workload, sets in values.items():
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            first = None
            for index, collected in enumerate(sets):
                series = collected[name]
                if len(series) < 2:
                    continue
                median, width = statistics.median(series), spread(series)
                flags = []
                if width > bound:
                    flags.append("SPREAD")
                elif width > bound / 3:
                    flags.append("noisy")
                change = None if first is None else worse_by(first, median, metric["better"])
                shift = "" if change is None else f"{change:+.3f}"
                if change is not None and abs(change) > bound:
                    flags.append("SHIFT")
                flagged |= "SPREAD" in flags or "SHIFT" in flags
                first = median if first is None else first
                print(f"{workload:24} {name:14} {index + 1:>3} {median:12.5g} {width:7.3f} "
                      f"{shift:>7} {bound:6.2f} {' '.join(flags)}")  # fmt: skip
    if args.out:
        args.out.write_text(json.dumps(values, indent=1))
    return 1 if flagged or failures else 0


if __name__ == "__main__":
    sys.exit(main())
