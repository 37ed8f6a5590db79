#!/usr/bin/env python3
"""Digests of the engine's observable behaviour, for equivalence checks.

Prints one line per run: the sha256 of `events.jsonl` of each default run
(shots levels x run seeds) and of each 740-unit benchmark run (run seeds),
and the sha256 of each random baseline's values. The last line is one
combined digest over all of them. A change that means to keep behaviour
prints the same combined digest as its parent:

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


def digest_lines(shots_levels, seeds, wide_seeds, baseline_samples: int):
    """Yield (label, digest) per run, in a fixed order."""
    workloads = load_workloads()
    from auditloop import LoopDriver, default_run_config, run_random_baseline

    def events(config) -> str:
        driver = LoopDriver(config)
        driver.run_full()
        with tempfile.TemporaryDirectory() as tmp:
            return sha256(driver.write_events(Path(tmp) / "events.jsonl").read_bytes())

    for shots in shots_levels:
        for seed in seeds:
            config = default_run_config(shots=shots, run_seed=seed)
            yield f"paper-default shots={shots} seed={seed}", events(config)
            if baseline_samples:
                values = run_random_baseline(config, baseline_samples)
                yield f"random-baseline shots={shots} seed={seed} samples={baseline_samples}", sha256(values.tobytes())
    for seed in wide_seeds:
        yield f"wide-740 shots=10 seed={seed}", events(workloads.wide_config(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--shots", type=int, nargs="+", default=[1, 5, 10], choices=(1, 5, 10))
    parser.add_argument("--seeds", type=int, default=10, help="default runs use run seeds 0..SEEDS-1")
    parser.add_argument("--wide-seeds", type=int, default=3, help="740-unit runs use run seeds 0..WIDE_SEEDS-1")
    parser.add_argument("--baseline-samples", type=int, default=20, help="0 skips the random baselines")
    args = parser.parse_args(argv)

    combined = hashlib.sha256()
    for label, digest in digest_lines(args.shots, range(args.seeds), range(args.wide_seeds), args.baseline_samples):
        line = f"{digest}  {label}"
        combined.update((line + "\n").encode())
        print(line, flush=True)
    print(f"{combined.hexdigest()}  combined")
    return 0


if __name__ == "__main__":
    sys.exit(main())
