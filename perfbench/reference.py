"""Print the expected outputs of a workload's instances as a JSON list.

Usage: ``python3 perfbench/reference.py <workload> <n> <seed> [<seed> ...]``,
one seed per slot of the workload's mix.
``run.py`` starts this as a child process before it measures.
"""

from __future__ import annotations

import json
import sys

from run import use_source_tree


def main(argv: list) -> int:
    use_source_tree()
    import workloads

    name, n, *seeds = argv
    workload = workloads.WORKLOADS[name]
    expected = [
        workloads.reference(workload, int(seed), slot, int(n)) for slot, seed in enumerate(seeds)
    ]
    print(json.dumps(expected))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
