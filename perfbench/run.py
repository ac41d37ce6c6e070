"""rtt-ape benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload eval-split --seed 1 --seconds 8 --trace 0

Generates seeded inputs under ``.perfbench_work/`` in the checkout, runs
the workload through the ``rtt-ape`` CLI in fresh processes (``--trace
0``) or through the library with spans and counters (``--trace 1``),
checks every output, removes its files and prints one JSON line last.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from harness import ROOT, Launcher, require_source_tree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    require_source_tree()

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    # Started first, while this process is small (see launcher.py).
    launcher = Launcher()
    try:
        if args.trace:
            import tracing

            result = tracing.run(args.workload, args.seed, work, launcher)
        else:
            result = workloads.run(args.workload, args.seed, args.seconds, work, launcher)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
