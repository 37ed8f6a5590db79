"""Behaviour pin: default runs must reproduce the committed event logs.

`bench/golden.json` holds the sha256 of `events.jsonl` for each default run
(shots 1, 5 and 10 at run seed 0) and for the benchmark's 740-unit run. This
test only reads `bench/`; a change that means to alter the engine's behaviour
regenerates the digests with `python3 bench/make_golden.py` and says so.
`BASELINE_DIGESTS` pins the random baseline, the one budget fill that runs
outside the loop, the same way.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from auditloop import LoopDriver, default_run_config, run_full, run_random_baseline

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text())


def events_digest(driver, tmp_path) -> str:
    return hashlib.sha256(driver.write_events(tmp_path / "events.jsonl").read_bytes()).hexdigest()


@pytest.mark.parametrize("shots", [1, 5, 10])
def test_default_run_events_match_golden_digest(tmp_path, shots):
    _, driver = run_full(default_run_config(shots=shots, run_seed=0))
    assert events_digest(driver, tmp_path) == GOLDEN["paper-default"][str(shots)]["0"]


def test_wide_740_run_events_match_golden_digest(tmp_path):
    # The benchmark's own config, so the two cannot drift apart.
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look the module up here
    spec.loader.exec_module(workloads)
    driver = LoopDriver(workloads.wide_config(0))
    driver.run_full()
    assert events_digest(driver, tmp_path) == GOLDEN["wide-740"]["10"]["0"]


# sha256 of run_random_baseline(default_run_config(shots, 0), 20).tobytes().
BASELINE_DIGESTS = {
    1: "02dfab2cf93fde08d0af3ccdab622274119ba719d33bda48be5e256dfc1e9765",
    5: "674fcc1b519a3fb3d639ca8e1ae953ccfb279cce02b4b27881e12d41e3674df7",
    10: "fbcc7a569c0c88cf8742c92af556529a201d21a2835847ba5f07c3446a52a602",
}


@pytest.mark.parametrize("shots", [1, 5, 10])
def test_random_baseline_values_match_pinned_digest(shots):
    values = run_random_baseline(default_run_config(shots=shots, run_seed=0), 20)
    assert hashlib.sha256(values.tobytes()).hexdigest() == BASELINE_DIGESTS[shots]
