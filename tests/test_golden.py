"""Behaviour pin: default runs must reproduce the committed event logs.

`bench/golden.json` holds the sha256 of `events.jsonl` for each default run
(shots 1, 5 and 10 at run seed 0). This test only reads it; a change that
means to alter the engine's behaviour regenerates it with
`python3 bench/make_golden.py` and says so.
"""

import hashlib
import json
from pathlib import Path

import pytest

from auditloop import default_run_config, run_full

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())


@pytest.mark.parametrize("shots", [1, 5, 10])
def test_default_run_events_match_golden_digest(tmp_path, shots):
    _, driver = run_full(default_run_config(shots=shots, run_seed=0))
    events = driver.write_events(tmp_path / "events.jsonl")
    digest = hashlib.sha256(events.read_bytes()).hexdigest()
    assert digest == GOLDEN["paper-default"][str(shots)]["0"]
