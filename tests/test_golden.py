"""Behaviour pin: default runs must reproduce the committed event logs.

`bench/golden.json` holds the sha256 of `events.jsonl` for each default run
(shots 1, 5 and 10 at run seed 0) and for the benchmark's 740-unit run. This
test only reads `bench/`; a change that means to alter the engine's behaviour
regenerates the digests with `python3 bench/make_golden.py` and says so.
`BASELINE_DIGESTS` pins the random baseline, the one budget fill that runs
outside the loop, the same way, and `EXACT_RESOLVE_DIGEST` a small-space run
whose final re-solve is exhaustive.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from dataclasses import replace

import numpy as np
import pytest

from auditloop import (
    AuditSpace,
    BackboneDesc,
    LoopDriver,
    SamplerParams,
    SyntheticOracle,
    TraceRecordingOracle,
    default_oracle_spec,
    default_run_config,
    default_templates,
    run_full,
    replay_trace,
    run_random_baseline,
)
from auditloop.allocator import EXACT_RESOLVE_MAX
from auditloop.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text())

# The benchmark's own configs, so the two cannot drift apart.
_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look the module up here
_spec.loader.exec_module(workloads)


# The numpy version that every pin here, and the combined line that
# `tests/test_scripts.py` pins, was computed under. The digests follow
# numpy's `Generator` streams, which numpy does not freeze across releases,
# so a mismatch names both versions; it still fails.
PINNED_NUMPY = "2.4.6"
NUMPY_NOTE = f"digests pinned under numpy {PINNED_NUMPY}; numpy {np.__version__} is installed"


def events_digest(driver, tmp_path) -> str:
    return hashlib.sha256(driver.write_events(tmp_path / "events.jsonl").read_bytes()).hexdigest()


@pytest.mark.parametrize("shots", [1, 5, 10])
def test_default_run_events_match_golden_digest(tmp_path, shots):
    _, driver = run_full(default_run_config(shots=shots, run_seed=0))
    assert events_digest(driver, tmp_path) == GOLDEN["paper-default"][str(shots)]["0"], NUMPY_NOTE


def test_wide_740_run_events_match_golden_digest(tmp_path):
    driver = LoopDriver(workloads.wide_config(0))
    driver.run_full()
    assert events_digest(driver, tmp_path) == GOLDEN["wide-740"]["10"]["0"], NUMPY_NOTE


# sha256 of run_random_baseline(default_run_config(shots, 0), 20).tobytes().
BASELINE_DIGESTS = {
    1: "02dfab2cf93fde08d0af3ccdab622274119ba719d33bda48be5e256dfc1e9765",
    5: "674fcc1b519a3fb3d639ca8e1ae953ccfb279cce02b4b27881e12d41e3674df7",
    10: "fbcc7a569c0c88cf8742c92af556529a201d21a2835847ba5f07c3446a52a602",
}


@pytest.mark.parametrize("shots", [1, 5, 10])
def test_random_baseline_values_match_pinned_digest(shots):
    values = run_random_baseline(default_run_config(shots=shots, run_seed=0), 20)
    assert hashlib.sha256(values.tobytes()).hexdigest() == BASELINE_DIGESTS[shots], NUMPY_NOTE


# sha256 of `events.jsonl` of the run below. No default or 740-unit run ends
# with few enough positive scores for the exhaustive final re-solve; this one
# ends with exactly `EXACT_RESOLVE_MAX` of them and two units never audited,
# and its optimum scores 616.69 where the swap re-solve reaches 594.17.
EXACT_RESOLVE_DIGEST = "3939ef382a6dfc5923a59338dbbae9d1613058b91caf1c4bd17188f4792a42ed"


def test_small_space_exact_final_resolve_events_match_pinned_digest(tmp_path):
    space = AuditSpace.build(BackboneDesc(1, (48,), 750_000), default_templates())  # 37 units
    config = replace(
        default_run_config(shots=1, run_seed=18),
        space=space,
        oracle_spec=default_oracle_spec(space, shots=1, seed=18),
        sampler=SamplerParams(batch_size=2),
        cycles=30,
    )
    _, driver = run_full(config)
    assert int((driver.scores > 0.0).sum()) == EXACT_RESOLVE_MAX
    assert events_digest(driver, tmp_path) == EXACT_RESOLVE_DIGEST, NUMPY_NOTE


# sha256 of the trace that `run --record-trace` writes for the default
# shots=10 config at run seed 0: one JSON object per query, keys sorted.
TRACE_DIGEST = "c12fd98305984af5973b90edc8cd76142e5f66214c026db32664dda1c9ed2c5a"


def test_recorded_trace_matches_pinned_digest_and_replays_the_golden_events(tmp_path):
    config = default_run_config(shots=10, run_seed=0)
    trace = tmp_path / "trace.jsonl"
    with TraceRecordingOracle(SyntheticOracle(config.oracle_spec), trace) as oracle:
        LoopDriver(config, oracle=oracle).run_full()
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == TRACE_DIGEST, NUMPY_NOTE
    driver = LoopDriver(config, oracle=replay_trace(trace))
    driver.run_full()
    assert events_digest(driver, tmp_path) == GOLDEN["record-replay"]["10"]["0"], NUMPY_NOTE


# sha256 of the `report.json` that `auditloop run` writes for the benchmark's
# replay config (the default shots=10 run at run seed 0).
REPORT_DIGEST = "9b04244b474957ad3b885d8816be5e6f7536f0c435f97f25aab6300f72fb92e5"


def test_cli_run_report_matches_pinned_digest(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workloads.replay_config_doc(0)))
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert hashlib.sha256((tmp_path / "out" / "report.json").read_bytes()).hexdigest() == REPORT_DIGEST, NUMPY_NOTE
    # The config that a report echoes reproduces its run.
    echoed = tmp_path / "echoed.json"
    echoed.write_text(json.dumps(json.loads((tmp_path / "out" / "report.json").read_text())["config"]))
    assert main(["run", "--config", str(echoed), "--out", str(tmp_path / "again"), "--quiet"]) == 0
    events = (tmp_path / "again" / "events.jsonl").read_bytes()
    assert hashlib.sha256(events).hexdigest() == GOLDEN["record-replay"]["10"]["0"], NUMPY_NOTE
    assert hashlib.sha256((tmp_path / "again" / "report.json").read_bytes()).hexdigest() == REPORT_DIGEST, NUMPY_NOTE
