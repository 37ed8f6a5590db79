"""The benchmark's workloads: configs from a seed, one protocol run, checks.

Importing this module puts the checkout's ``src/`` first on ``sys.path`` and
imports the program from there; it raises ImportError when ``src/`` does not
hold the program.

Every workload runs a fixed pool of jobs (shots level, run seed), so each
job has a golden digest of its ``events.jsonl`` in ``golden.json``. The
benchmark seed picks the order of the jobs.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import auditloop  # noqa: E402

if not Path(auditloop.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"auditloop was imported from {auditloop.__file__}, not from {SRC}")

from auditloop import (  # noqa: E402
    AllocatorParams,
    AuditSpace,
    BackboneDesc,
    FsmParams,
    LoopDriver,
    RunConfig,
    SamplerParams,
    SmoothingParams,
    cli,
    default_oracle_spec,
    default_run_config,
    default_templates,
    replay_trace,
)

# Run seeds per workload, each run at every shots level listed. One problem
# instance per workload: run times differ by about half between instances
# (wide-740), which would swamp the bounds, and the host's own noise needs
# many repeats of each job within one benchmark run to average out. The
# benchmark seed orders the jobs.
RUN_SEEDS = {"paper-default": (0,), "wide-740": (0,), "record-replay": (0,)}
SHOTS = {"paper-default": (1, 5, 10), "wide-740": (10,), "record-replay": (10,)}

# wide-740: the default templates over 20 layers (N = 740). The backbone
# grows with the layers so unit costs, and what p_max = 0.2% buys, keep
# their default scale; M = 100 keeps the default M/N. The shots=10 loop step
# budget (12000) is spread over 30 cycles.
WIDE_LAYERS = 20
WIDE_BATCH = 100
WIDE_CYCLES = 30
WIDE_STEPS_PER_CYCLE = 400
WIDE_REFINETUNE = 12000


@dataclass(frozen=True)
class Job:
    shots: int
    run_seed: int


@dataclass
class Outcome:
    """What one protocol run produced; `run_s` is the wall time users wait."""

    run_s: float
    eval_count: int
    events: list[Path]
    budgets: list[float]
    p_max: float
    trace: Path | None = None


def pool(workload: str) -> list[Job]:
    return [Job(shots, seed) for seed in RUN_SEEDS[workload] for shots in SHOTS[workload]]


def jobs(workload: str, seed: int):
    """Endless job sequence: pass after pass over the workload's pool, each
    pass in an order drawn from `seed`."""
    rng = np.random.default_rng(seed)
    todo = pool(workload)
    while True:
        for i in rng.permutation(len(todo)):
            yield todo[i]


def wide_space() -> AuditSpace:
    backbone = BackboneDesc(
        num_layers=WIDE_LAYERS,
        hidden_dims=(48, 96) * (WIDE_LAYERS // 2),
        backbone_param_count=1_500_000 * WIDE_LAYERS // 2,
    )
    return AuditSpace.build(backbone, default_templates())


def wide_config(run_seed: int) -> RunConfig:
    space = wide_space()
    return RunConfig(
        space=space,
        oracle_spec=default_oracle_spec(space, shots=10, seed=run_seed),
        sampler=SamplerParams(batch_size=WIDE_BATCH),
        smoothing=SmoothingParams(),
        allocator=AllocatorParams(),
        fsm=FsmParams(),
        cycles=WIDE_CYCLES,
        steps_per_cycle=WIDE_STEPS_PER_CYCLE,
        refinetune_steps=WIDE_REFINETUNE,
        shots=10,
        run_seed=run_seed,
    )


def replay_config_doc(run_seed: int) -> dict:
    """The default shots=10 run as a CLI config document."""
    return {
        "shots": 10,
        "cycles": 120,
        "steps_per_cycle": 100,
        "refinetune_steps": 12000,
        "sampler": {"batch_size": 10},
        "oracle": {"kind": "default", "seed": run_seed},
        "run_seed": run_seed,
    }


def library_config(workload: str, job: Job) -> RunConfig:
    if workload == "wide-740":
        return wide_config(job.run_seed)
    return default_run_config(shots=job.shots, run_seed=job.run_seed)


def ready_driver(workload: str, job: Job, work: Path) -> LoopDriver:
    """Everything a run does before its first cycle.

    record-replay readies the replay leg, which loads the trace recorded by
    the last run in `work`.
    """
    if workload == "record-replay":
        config = RunConfig.from_json(work / "config.json")
        return LoopDriver(config, oracle=replay_trace(work / "trace.jsonl"))
    return LoopDriver(library_config(workload, job))


def run_job(workload: str, job: Job, work: Path) -> Outcome:
    """One full protocol run; only the run itself is inside `run_s`."""
    if workload == "record-replay":
        return _record_replay(job, work)
    config = library_config(workload, job)
    driver = LoopDriver(config)
    start = time.perf_counter()
    report = driver.run_full()
    run_s = time.perf_counter() - start
    events = driver.write_events(work / "events.jsonl")
    return Outcome(run_s, report.eval_count, [events], [report.budget_used], config.allocator.p_max)


def _record_replay(job: Job, work: Path) -> Outcome:
    config = work / "config.json"
    config.write_text(json.dumps(replay_config_doc(job.run_seed)))
    trace = work / "trace.jsonl"
    legs = (work / "record", work / "replay")
    start = time.perf_counter()
    code = cli.main(
        ["run", "--config", str(config), "--out", str(legs[0]), "--record-trace", str(trace), "--quiet"]
    )
    if code == 0:
        code = cli.main(
            ["replay", "--config", str(config), "--trace", str(trace), "--out", str(legs[1]), "--quiet"]
        )
    run_s = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"auditloop exited with code {code}")
    reports = [json.loads((leg / "report.json").read_text()) for leg in legs]
    return Outcome(
        run_s,
        sum(r["eval_count"] for r in reports),
        [leg / "events.jsonl" for leg in legs],
        [r["budget_used"] for r in reports],
        reports[0]["config"]["allocator"]["p_max"],
        trace=trace,
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def check(workload: str, job: Job, outcome: Outcome, golden: dict) -> str | None:
    """Why the run's outputs are wrong, or None when they are right.

    Every events file of the run must match the golden digest; on
    record-replay that also makes the replayed log byte-identical to the
    recorded one. No committed or final configuration may exceed p_max.
    """
    expected = golden.get(workload, {}).get(str(job.shots), {}).get(str(job.run_seed))
    if expected is None:
        return f"no golden digest for shots={job.shots} run_seed={job.run_seed}"
    for leg, path in enumerate(outcome.events):
        if sha256(path) != expected:
            what = "replayed events differ from the golden log" if leg else "events differ from the golden log"
            return f"{what} (shots={job.shots} run_seed={job.run_seed})"
    if any(b > outcome.p_max for b in outcome.budgets):
        return f"budget {max(outcome.budgets)} exceeds p_max {outcome.p_max}"
    return None
