#!/usr/bin/env python3
"""Digests of the engine's observable behaviour, for equivalence checks.

Prints one line per run: the sha256 of `events.jsonl` of each default run
(shots 1, 5 and 10 x run seeds 0-9) and of each 740-unit benchmark run (run
seeds 0-2), and the sha256 of the values of each default run's random
baseline of 20 samples. The last line is one combined digest over all of
them. A change that means to keep behaviour prints the same combined digest
as its parent:

    python3 scripts/digests.py                      # in each checkout

The script runs the `src/` of its own checkout, through the benchmark's
workload module.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_workloads():
    """The benchmark's workload module, which imports `auditloop` from this
    checkout's `src/`."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up here
    spec.loader.exec_module(module)
    return module


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_lines():
    """Yield (label, digest) per run, in a fixed order."""
    workloads = load_workloads()
    from auditloop import LoopDriver, default_run_config, run_random_baseline

    def events(config) -> str:
        driver = LoopDriver(config)
        driver.run_full()
        with tempfile.TemporaryDirectory() as tmp:
            return sha256(driver.write_events(Path(tmp) / "events.jsonl").read_bytes())

    for shots in (1, 5, 10):
        for seed in range(10):
            config = default_run_config(shots=shots, run_seed=seed)
            yield f"paper-default shots={shots} seed={seed}", events(config)
            values = run_random_baseline(config, 20)
            yield f"random-baseline shots={shots} seed={seed} samples=20", sha256(values.tobytes())
    for seed in range(3):
        yield f"wide-740 shots=10 seed={seed}", events(workloads.wide_config(seed))


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    combined = hashlib.sha256()
    for label, digest in digest_lines():
        line = f"{digest}  {label}"
        combined.update((line + "\n").encode())
        print(line, flush=True)
    print(f"{combined.hexdigest()}  combined")
    return 0


if __name__ == "__main__":
    sys.exit(main())
