"""Measurement loop of the benchmark: warm-up, set-up probes, closed-loop
protocol runs, golden checks, and the metrics of one workload.

Untraced runs wrap only `LoopDriver.run_cycle`, to time each cycle. Traced
runs wrap every entry point in ENTRY_POINTS. With tracing on, each job runs
once untraced and once traced, and the median ratio of the two run times is
the tracing overhead.

Every time reported is at the reference speed of `reference.py`: the host
speed is measured before the first run and after each run, and a run's
times are scaled by the mean of the two measurements around it.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from reference import host_speed
from tracer import EntryPoint, Span, Stat, Tracer, summarize, uncovered

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "run_s_p50": "s",
    "cycle_ms_p50": "ms",
    "cycle_ms_p90": "ms",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per protocol run (averaged over the traced runs) unless the name says
# otherwise: ratios and per-call figures are taken over all traced calls.
PER_LAYER = {
    "tracker.robust_score.calls": "count",
    "tracker.robust_score.self_s": "s",
    "tracker.record_audit.self_s": "s",
    "tracker.event.self_s": "s",
    "tracker.score_reuse_ratio": "ratio",
    "oracle.evaluate.calls": "count",
    "oracle.evaluate.self_s": "s",
    "oracle.true_value.calls": "count",
    "oracle.true_value.self_s": "s",
    "oracle.train_step.self_s": "s",
    "oracle.us_per_eval": "us",
    "oracle.trace_write_s": "s",
    "oracle.replay_trace_s": "s",
    "oracle.trace_bytes": "B",
    "allocator.greedy_allocate.self_s": "s",
    "allocator.apply_hysteresis.self_s": "s",
    "allocator.final_resolve.self_s": "s",
    "fsm.filter_proposals.self_s": "s",
    "sampler.sample_audit_batch.self_s": "s",
    "driver.run_cycle.self_s": "s",
    "driver.final_phase_s": "s",
    "driver.write_events_s": "s",
    "driver.events_bytes": "B",
    "driver.compute_diagnostics_s": "s",
    "space.build_s": "s",
    "cli.main.self_s": "s",
    "bench.trace_overhead_frac": "ratio",
}

# Patched where the caller looks them up: the driver and the CLI import
# functions by name, so those are wrapped in the importing module.
ENTRY_POINTS = (
    EntryPoint("tracker.robust_score", "auditloop.tracker", "UtilityTracker.robust_score"),
    EntryPoint("tracker.record_audit", "auditloop.tracker", "UtilityTracker.record_audit"),
    EntryPoint("tracker.event", "auditloop.tracker", "UtilityTracker.event"),
    EntryPoint("oracle.evaluate", "auditloop.oracle", "SyntheticOracle.evaluate"),
    EntryPoint("oracle.true_value", "auditloop.oracle", "SyntheticOracle.true_value"),
    EntryPoint("oracle.train_step", "auditloop.oracle", "SyntheticOracle.train_step"),
    EntryPoint("oracle.trace_write", "auditloop.oracle", "TraceRecordingOracle.evaluate"),
    EntryPoint("oracle.trace_write", "auditloop.oracle", "TraceRecordingOracle.true_value"),
    EntryPoint("oracle.trace_write", "auditloop.oracle", "TraceRecordingOracle.close"),
    EntryPoint("oracle.replay_trace", "auditloop.cli", "replay_trace"),
    EntryPoint("allocator.greedy_allocate", "auditloop.driver", "greedy_allocate"),
    EntryPoint("allocator.apply_hysteresis", "auditloop.driver", "apply_hysteresis"),
    EntryPoint("allocator.final_resolve", "auditloop.driver", "final_resolve"),
    EntryPoint("fsm.filter_proposals", "auditloop.fsm", "FsmStabilizer.filter_proposals"),
    EntryPoint("sampler.sample_audit_batch", "auditloop.driver", "sample_audit_batch"),
    EntryPoint("driver.run_cycle", "auditloop.driver", "LoopDriver.run_cycle"),
    EntryPoint("driver.run_full", "auditloop.driver", "LoopDriver.run_full"),
    EntryPoint("driver.write_events", "auditloop.driver", "LoopDriver.write_events"),
    EntryPoint("driver.compute_diagnostics", "auditloop.cli", "compute_diagnostics"),
    EntryPoint("space.build", "auditloop.space", "AuditSpace.build"),
    EntryPoint("cli.main", "auditloop.cli", "main"),
)
CYCLE_TIMER = tuple(ep for ep in ENTRY_POINTS if ep.span == "driver.run_cycle")


class Session:
    """Runs jobs of one workload and keeps the tallies of what was attempted."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.golden = workloads.load_golden()
        self.seed = seed
        self.jobs = workloads.jobs(workload, seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.run_seeds: list[list[int]] = []

    def run(self, job: workloads.Job, tracer: Tracer) -> workloads.Outcome | None:
        """One protocol run under `tracer`; None when it failed."""
        self.attempted += 1
        self.run_seeds.append([job.shots, job.run_seed])
        try:
            with tracer:
                outcome = workloads.run_job(self.workload, job, self.work)
            problem = workloads.check(self.workload, job, outcome, self.golden)
        except Exception as exc:  # a failed run is counted, the benchmark goes on
            problem = f"{type(exc).__name__}: {exc}"
        if problem is None:
            return outcome
        self.failures.append(problem)
        return None

    def warm_up(self, tracer: Tracer) -> workloads.Job:
        """One untimed run of the first job; the measured sequence still
        starts with a whole pass."""
        job = next(workloads.jobs(self.workload, self.seed))
        self.run(job, tracer)
        return job

    def probe_setup(self, job: workloads.Job) -> float | None:
        """Seconds from starting a fresh process to its first cycle, at the
        reference speed the probe measured in that process."""
        self.attempted += 1
        cmd = [sys.executable, str(workloads.BENCH_DIR / "probe.py"), self.workload,
               str(job.shots), str(job.run_seed), str(self.work)]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
            if proc.returncode == 0:
                ready, speed = (float(x) for x in proc.stdout.split()[-2:])
                return (ready - start) * speed
            problem = f"set-up probe exited with code {proc.returncode}: {proc.stderr.strip()[-300:]}"
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            problem = f"set-up probe failed: {exc}"
        self.failures.append(problem)
        return None


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(session: Session, seconds: float) -> tuple[dict, dict]:
    timer = Tracer(CYCLE_TIMER)
    first_job = session.warm_up(timer)  # also leaves the files the probes read

    setups = [s for s in (session.probe_setup(first_job) for _ in range(SETUP_PROBES)) if s is not None]
    speed = host_speed()

    # Per job: scaled run seconds, per-cycle seconds and evaluations of each
    # repeat. Each job of the pool then counts once: its run time, and the
    # time at each cycle position, are medians over its repeats, so a burst
    # of host noise within one repeat drops out.
    runs: dict[workloads.Job, list[tuple[float, np.ndarray, int]]] = {}
    raw_run_s: list[float] = []
    start = time.perf_counter()
    while True:
        job = next(session.jobs)
        first_span = len(timer.spans)
        outcome = session.run(job, timer)
        after = host_speed()
        scale = (speed + after) / 2
        speed = after
        if outcome is not None:
            cycles = np.array(timer.durations("driver.run_cycle", first_span)) * scale
            runs.setdefault(job, []).append((outcome.run_s * scale, cycles, outcome.eval_count))
            raw_run_s.append(outcome.run_s)
        del timer.spans[first_span:]
        if time.perf_counter() - start >= seconds:
            break

    run_s = [statistics.median(r[0] for r in repeats) for repeats in runs.values()]
    cycle_s = np.concatenate([np.median([r[1] for r in repeats], axis=0) for repeats in runs.values()] or [[]])
    evals = sum(repeats[0][2] for repeats in runs.values())
    metrics = {
        "setup_s": _median(setups),
        "run_s_p50": _median(run_s),
        "cycle_ms_p50": 1e3 * float(np.percentile(cycle_s, 50)) if cycle_s.size else 0.0,
        "cycle_ms_p90": 1e3 * float(np.percentile(cycle_s, 90)) if cycle_s.size else 0.0,
        "evals_per_s": _ratio(evals, float(cycle_s.sum())),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "runs_timed": len(raw_run_s),
        "jobs_timed": f"{len(runs)} of {len(workloads.pool(session.workload))}",
        "cycle_positions": int(cycle_s.size),
        "raw_run_s_p50": _median(raw_run_s),
        "absent": sorted(timer.absent),
    }
    return metrics, notes


def per_layer(session: Session, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    timer = Tracer(CYCLE_TIMER)
    tracer = Tracer(ENTRY_POINTS)
    session.warm_up(timer)

    overheads: list[float] = []
    traced_speeds: list[float] = []
    traced_runs = 0
    trace_bytes = events_bytes = 0
    speed = host_speed()
    start = time.perf_counter()
    while True:
        job = next(session.jobs)
        plain = session.run(job, timer)
        del timer.spans[:]
        middle = host_speed()
        traced = session.run(job, tracer)
        after = host_speed()
        traced_runs += 1
        traced_speeds.append((middle + after) / 2)
        if traced is not None:
            events_bytes += sum(p.stat().st_size for p in traced.events)
            trace_bytes += traced.trace.stat().st_size if traced.trace else 0
            if plain is not None:
                plain_s = plain.run_s * (speed + middle) / 2
                overheads.append(traced.run_s * traced_speeds[-1] / plain_s - 1.0)
        speed = after
        if time.perf_counter() - start >= seconds:
            break

    spans: list[Span] = tracer.spans
    tracer.write(spans_path)
    scale = _median(traced_speeds)
    metrics = layer_metrics(spans, traced_runs, trace_bytes, events_bytes, scale, _median(overheads))
    absent_layers = sorted({name.split(".")[0] for name in tracer.absent})  # span names are layer.entry
    notes = {"traced_runs": traced_runs, "spans": len(spans), "host_speed": scale, "absent": absent_layers}
    return metrics, notes


def layer_metrics(
    spans: list[Span], runs: int, trace_bytes: int, events_bytes: int, scale: float, overhead: float
) -> dict:
    """Per-layer figures; seconds are multiplied by `scale`, the host speed."""
    stats = summarize(spans)

    def stat(name: str) -> Stat:
        return stats.get(name, Stat())

    def per_run(value: float) -> float:
        return _ratio(value, runs)

    def per_run_s(seconds: float) -> float:
        return _ratio(seconds * scale, runs)

    robust, evaluate, build = stat("tracker.robust_score"), stat("oracle.evaluate"), stat("space.build")
    return {
        "tracker.robust_score.calls": per_run(robust.calls),
        "tracker.robust_score.self_s": per_run_s(robust.self_s),
        "tracker.record_audit.self_s": per_run_s(stat("tracker.record_audit").self_s),
        "tracker.event.self_s": per_run_s(stat("tracker.event").self_s),
        "tracker.score_reuse_ratio": _ratio(stat("tracker.record_audit").calls, robust.calls),
        "oracle.evaluate.calls": per_run(evaluate.calls),
        "oracle.evaluate.self_s": per_run_s(evaluate.self_s),
        "oracle.true_value.calls": per_run(stat("oracle.true_value").calls),
        "oracle.true_value.self_s": per_run_s(stat("oracle.true_value").self_s),
        "oracle.train_step.self_s": per_run_s(stat("oracle.train_step").self_s),
        "oracle.us_per_eval": 1e6 * scale * _ratio(evaluate.total_s, evaluate.calls),
        "oracle.trace_write_s": per_run_s(stat("oracle.trace_write").self_s),
        "oracle.replay_trace_s": per_run_s(stat("oracle.replay_trace").total_s),
        "oracle.trace_bytes": per_run(trace_bytes),
        "allocator.greedy_allocate.self_s": per_run_s(stat("allocator.greedy_allocate").self_s),
        "allocator.apply_hysteresis.self_s": per_run_s(stat("allocator.apply_hysteresis").self_s),
        "allocator.final_resolve.self_s": per_run_s(stat("allocator.final_resolve").self_s),
        "fsm.filter_proposals.self_s": per_run_s(stat("fsm.filter_proposals").self_s),
        "sampler.sample_audit_batch.self_s": per_run_s(stat("sampler.sample_audit_batch").self_s),
        "driver.run_cycle.self_s": per_run_s(stat("driver.run_cycle").self_s),
        "driver.final_phase_s": per_run_s(uncovered(spans, "driver.run_full", "driver.run_cycle")),
        "driver.write_events_s": per_run_s(stat("driver.write_events").total_s),
        "driver.events_bytes": per_run(events_bytes),
        "driver.compute_diagnostics_s": per_run_s(stat("driver.compute_diagnostics").total_s),
        "space.build_s": scale * _ratio(build.total_s, build.calls),
        "cli.main.self_s": per_run_s(stat("cli.main").self_s),
        "bench.trace_overhead_frac": overhead,
    }


def environment(session: Session, seed: int) -> dict:
    return {
        "workload": session.workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "run_seeds": session.run_seeds,
    }


def _git_commit() -> str:
    root = workloads.BENCH_DIR.parent
    env = os.environ | {"GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result, details): the result line's object and what else was seen."""
    out_dir = workloads.BENCH_DIR.parent / ".benchrun"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    session = Session(workload, seed, work)
    try:
        if trace:
            spans_path = out_dir / f"spans-{workload}.jsonl"  # the latest traced run only
            values, notes = per_layer(session, seconds, spans_path)
            units = PER_LAYER
        else:
            values, notes = end_to_end(session, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = environment(session, seed) | notes | {"failures": session.failures[:10]}
    return result, details
