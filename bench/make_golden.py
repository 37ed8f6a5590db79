#!/usr/bin/env python3
"""Regenerate golden.json: the sha256 of events.jsonl for every job the
benchmark can run (the job pool of each workload).

Run from the repository root, only when a change is meant to alter the
engine's behaviour: python3 bench/make_golden.py
"""

import json
import shutil
import sys

import workloads


def main() -> int:
    work = workloads.BENCH_DIR.parent / ".benchrun" / "golden-work"
    work.mkdir(parents=True, exist_ok=True)
    golden: dict = {}
    try:
        for workload in workloads.SHOTS:
            for job in workloads.pool(workload):
                outcome = workloads.run_job(workload, job, work)
                digest = workloads.sha256(outcome.events[0])
                golden.setdefault(workload, {}).setdefault(str(job.shots), {})[str(job.run_seed)] = digest
            print(f"{workload}: {len(workloads.pool(workload))} digests", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
