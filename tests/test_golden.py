"""Behaviour pin: default runs must reproduce the committed event logs.

`bench/golden.json` holds the sha256 of `events.jsonl` for each default run
(shots 1, 5 and 10 at run seed 0) and for the benchmark's 740-unit run. This
test only reads `bench/`; a change that means to alter the engine's behaviour
regenerates the digests with `python3 bench/make_golden.py` and says so.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from auditloop import LoopDriver, default_run_config, run_full

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
