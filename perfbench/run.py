"""Run one benchmark workload and print its metrics.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload live-sublog --seed 11 --seconds 45 --trace 0

The workload's inputs are made from ``--seed``; the run repeats them for
``--seconds`` (at least three passes), checks every output against a
reference computed in a child process, and prints as its last line one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
installs the per-layer tracer and reports the per-layer metrics instead.
A line before it records the box and the source revision.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run fails rather than measure some other copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def use_source_tree() -> None:
    """Import the program from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}/repro; run from a full checkout")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def git_revision(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def box_metadata() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "rlimit_nofile": resource.getrlimit(resource.RLIMIT_NOFILE)[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_revision(ROOT),
        "loadavg": os.getloadavg(),
    }


def reference_outputs(workload: str, n: int, seeds: List[int]) -> List[Dict[str, Any]]:
    """Compute the expected outputs in a child process.

    A separate process keeps the reference run's memory out of this
    process's ``peak_rss_mb``.
    """
    command = [sys.executable, str(HERE / "reference.py"), workload, str(n), *map(str, seeds)]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=170)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"reference process exited with {child.returncode}")
    return json.loads(out)


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    traced: bool,
    n: Optional[int] = None,
    expected: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Measure one workload; *n* and *expected* override its size and reference."""
    import workloads
    from calibrate import Calibrator

    workload = workloads.WORKLOADS[workload_name]
    size = n or workload.n
    if expected is None:
        seeds = workloads.instance_seeds(seed, workload.instances)
        expected = reference_outputs(workload_name, size, seeds)
    if traced:
        instances = workloads.measure(workload, seed, seconds, traced, size, expected)
        return workloads.summarize(instances, traced)
    with Calibrator() as calibrator:
        instances = workloads.measure(workload, seed, seconds, traced, size, expected, calibrator)
        return workloads.summarize(instances, traced, calibrator.speed())


def main(argv: Optional[List[str]] = None) -> int:
    use_source_tree()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    meta = box_metadata()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    problems = result.pop("problems")
    wall = result.pop("wall")
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({"box": meta, "workload": args.workload, "seed": args.seed, "wall": wall}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
