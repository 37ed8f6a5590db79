#!/usr/bin/env python3
"""auditloop benchmark: one workload, closed loop, one thread.

Run from the repository root:

    python3 bench/run.py --workload paper-default --seed 0 --seconds 20 --trace 0

Each protocol run starts when the previous one ends. `--trace 0` reports the
end-to-end metrics; `--trace 1` reports the per-layer metrics of a traced run
and the tracing overhead. The run's environment and any failures go to a
line before the last; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The same two lines are
kept in `.benchrun/`.

Exit code 2 without a result when the program under `src/` cannot be
imported or SEA_ALLOC_THREADS asks for more than one audit thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

WORKLOADS = ("paper-default", "wide-740", "record-replay")


def _threads_requested() -> int:
    try:
        return int(os.environ.get("SEA_ALLOC_THREADS", "0"))
    except ValueError:
        return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _threads_requested() > 1:
        print("error: SEA_ALLOC_THREADS is above 1; the benchmark runs audits on one thread", file=sys.stderr)
        return 2
    try:
        import harness
    except ImportError as exc:
        print(f"error: cannot import the program from src/: {exc}", file=sys.stderr)
        return 2

    result, details = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    lines = [json.dumps(details, sort_keys=True), json.dumps(result)]
    out = harness.workloads.BENCH_DIR.parent / ".benchrun" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
