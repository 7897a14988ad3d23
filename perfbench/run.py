"""Run one unitycert benchmark workload and print its metrics.

    python3 perfbench/run.py --workload univariate-exact --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One process, one thread, closed loop: each call into the library
is issued when the previous one has returned.  The run executes every case
once as a warm-up, then keeps executing cases until ``--seconds`` have
passed since the warm-up began and every case has its minimum number of
timed samples; fresh-interpreter set-ups are timed in between.  Every
execution is checked outside its timed region.  See README.md.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced half-run against an untraced half-run and
writes the spans to ``.perfbench/``.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; metric names
and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "unitycert" / "__init__.py").is_file():
        print(f"perfbench: no unitycert sources in {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # One CPU for the run and its set-up interpreters, so that the host-speed
    # probe measures the core that the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import harness
    from cases import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from " + ", ".join(WORKLOADS))
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), started)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
