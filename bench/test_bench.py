"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import EntryPoint, Span, Tracer, summarize, uncovered  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_of_hand_built_tree():
    # evaluate [0, 10] holds true_value [1, 4] and [5, 7]; an event [12, 20]
    # holds robust_score [13, 15], and a second, overlapping child [14, 16].
    spans = [
        Span("oracle.evaluate", 0.0, 10.0, -1),
        Span("oracle.true_value", 1.0, 4.0, 0),
        Span("oracle.true_value", 5.0, 7.0, 0),
        Span("tracker.event", 12.0, 20.0, -1),
        Span("tracker.robust_score", 13.0, 15.0, 3),
        Span("tracker.robust_score", 14.0, 16.0, 3),
    ]
    stats = summarize(spans)
    assert stats["oracle.evaluate"].calls == 1
    assert stats["oracle.evaluate"].total_s == pytest.approx(10.0)
    assert stats["oracle.evaluate"].self_s == pytest.approx(5.0)
    assert stats["oracle.true_value"].calls == 2
    assert stats["oracle.true_value"].self_s == pytest.approx(5.0)
    assert stats["tracker.event"].self_s == pytest.approx(5.0)  # the children cover 13..16
    assert stats["tracker.robust_score"].self_s == pytest.approx(4.0)
    assert uncovered(spans, "oracle.evaluate", "oracle.true_value") == pytest.approx(5.0)
    assert uncovered(spans, "oracle.evaluate", "tracker.event") == pytest.approx(10.0)


def test_tracer_nests_restores_and_reports_absent():
    from auditloop import tracker

    original = tracker.UtilityTracker.__dict__["robust_score"]
    points = (
        EntryPoint("tracker.event", "auditloop.tracker", "UtilityTracker.event"),
        EntryPoint("tracker.robust_score", "auditloop.tracker", "UtilityTracker.robust_score"),
        EntryPoint("gone.entry", "auditloop.tracker", "UtilityTracker.no_such_method"),
    )
    unit = tracker.UtilityTracker(0)
    params = tracker.SmoothingParams()
    unit.record_audit(1.0, params, 0)
    with Tracer(points) as tr:
        unit.event(1.0, params, 0)
    assert tracker.UtilityTracker.__dict__["robust_score"] is original
    assert tr.absent == {"gone.entry"}
    assert [s.name for s in tr.spans] == ["tracker.event", "tracker.robust_score"]
    assert tr.spans[1].parent == 0


def test_perturbed_events_count_as_failed(tmp_path, monkeypatch):
    real_run_job = workloads.run_job

    def run_and_perturb(workload, job, work):
        outcome = real_run_job(workload, job, work)
        data = bytearray(outcome.events[0].read_bytes())
        data[len(data) // 2] ^= 1
        outcome.events[0].write_bytes(bytes(data))
        return outcome

    session = harness.Session("paper-default", 0, tmp_path)
    timer = Tracer(harness.CYCLE_TIMER)
    job = workloads.Job(1, 0)
    assert session.run(job, timer) is not None
    monkeypatch.setattr(workloads, "run_job", run_and_perturb)
    assert session.run(job, timer) is None
    assert session.attempted == 2
    assert len(session.failures) == 1
    assert "differ from the golden log" in session.failures[0]


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.SHOTS)


def test_every_job_has_a_golden_digest():
    golden = workloads.load_golden()
    for workload in workloads.SHOTS:
        jobs = {(str(j.shots), str(j.run_seed)) for j in workloads.pool(workload)}
        assert {(shots, seed) for shots, seeds in golden[workload].items() for seed in seeds} == jobs
