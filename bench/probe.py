"""Set-up probe, run as a fresh process by the benchmark.

Usage: python3 bench/probe.py WORKLOAD SHOTS RUN_SEED WORKDIR

Imports the program, readies a run of the workload up to its first cycle
(space, oracle spec, config, LoopDriver; on record-replay also loading the
trace in WORKDIR) and prints the CLOCK_MONOTONIC reading at that point,
then the host speed measured in this process. The parent reads the same
clock just before it starts this process.
"""

import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    workload, shots, run_seed, work = argv
    import workloads

    workloads.ready_driver(workload, workloads.Job(int(shots), int(run_seed)), Path(work))
    ready = time.monotonic()
    from reference import host_speed

    print(repr(ready), repr(host_speed()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
