"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The comparative criteria (6, 7) share one precomputed
sweep over the default synthetic environment.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from auditloop import (
    LoopDriver,
    SyntheticOracle,
    checks,
    default_run_config,
    run_full,
    sweep,
)

SHOTS_LEVELS = (1, 5, 10)
N_SEEDS = 20


def report(name: str, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail}; {elapsed:.1f}s < {budget:.0f}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: runtime {elapsed:.1f}s exceeds {budget}s"


def test_c1_fsm_chatter_bound():
    t0 = time.perf_counter()
    verdicts = [checks.fsm_chatter_exhaustive(12), checks.fsm_chatter_fuzz(runs=100, t_len=10_000)]
    report(
        "C1 fsm-chatter-bound",
        all(v.ok for v in verdicts),
        "; ".join(f"{v.name}: {v.measured} violations" for v in verdicts),
        time.perf_counter() - t0,
        30.0,
    )


def test_c2_ema_variance_bound():
    t0 = time.perf_counter()
    # each check raises if the vectorized recursion disagrees with the engine's table
    verdicts = [checks.ema_variance(beta, replicas=10_000, audits=200, seed=123) for beta in (0.5, 0.9)]
    report(
        "C2 ema-variance-bound",
        all(v.ok for v in verdicts),
        "; ".join(f"{v.name}: var {v.measured:.4f} vs bound {v.bound:.4f}" for v in verdicts)
        + f"; worst ratio {max(v.measured / v.bound for v in verdicts):.3f}",
        time.perf_counter() - t0,
        60.0,
    )


def test_c3_ema_drift_bias_bound():
    t0 = time.perf_counter()
    v = checks.drift_bias(0.9, 0.01, audits=2000)
    report(
        "C3 ema-drift-bias-bound",
        v.ok,
        f"steady-state bias {v.measured:.6f} vs bound {v.bound:.6f}",
        time.perf_counter() - t0,
        5.0,
    )


def test_c4_coverage_bound():
    t0 = time.perf_counter()
    v = checks.coverage_min(60, 6, 2000, seeds=5)
    report(
        "C4 coverage-bound",
        v.ok,
        f"min probe count {v.measured} >= {v.bound:.1f} over 5 seeds x 2000 cycles",
        time.perf_counter() - t0,
        60.0,
    )


def test_c5_allocator_quality():
    t0 = time.perf_counter()
    low, share = checks.allocator_verdicts(checks.allocator_ratios(instances=500, n_max=15, seed=42))
    report(
        "C5 allocator-quality",
        low.ok and share.ok,
        f"{low.name} {low.measured:.3f} >= {low.bound}, {share.name} is {share.measured:.2%} >= {share.bound:.0%}",
        time.perf_counter() - t0,
        60.0,
    )


@pytest.fixture(scope="module")
def comparative_sweep():
    """Final values of the full engine, both ablations, and the random
    baseline on the default synthetic environment: 20 seeds per shots level."""
    t0 = time.perf_counter()
    results = sweep(range(N_SEEDS))
    results["elapsed"] = time.perf_counter() - t0
    return results


def test_c6_selection_beats_random_and_margin_grows(comparative_sweep):
    margins = []
    engine_medians = []
    details = []
    for shots in SHOTS_LEVELS:
        r = comparative_sweep[shots]
        engine = float(np.median(r["full"]))
        rand = float(np.median(r["rand"]))
        engine_medians.append(engine)
        margins.append(engine - rand)
        details.append(f"{shots}-shot {engine:.4f} vs {rand:.4f}")
    strictly_better = all(m > 0 for m in margins)
    non_decreasing = all(margins[i + 1] >= margins[i] for i in range(len(margins) - 1))
    shots_trend = all(
        engine_medians[i + 1] >= engine_medians[i] for i in range(len(engine_medians) - 1)
    )
    report(
        "C6 beats-random-margin-grows",
        strictly_better and non_decreasing and shots_trend,
        "; ".join(details) + f"; margins {['%.4f' % m for m in margins]}",
        comparative_sweep["elapsed"],
        600.0,
    )


def test_c7_ablation_ordering(comparative_sweep):
    ok = True
    details = []
    for shots in SHOTS_LEVELS:
        r = comparative_sweep[shots]
        full = float(np.median(r["full"]))
        nofsm = float(np.median(r["nofsm"]))
        noiqr = float(np.median(r["noiqr"]))
        rand = float(np.median(r["rand"]))
        level_ok = full >= nofsm and full >= noiqr and nofsm >= rand and noiqr >= rand
        ok = ok and level_ok
        details.append(
            f"{shots}-shot full {full:.4f} >= no-fsm {nofsm:.4f}, no-iqr {noiqr:.4f} (>= rand {rand:.4f})"
        )
    report("C7 ablation-ordering", ok, "; ".join(details), comparative_sweep["elapsed"], 600.0)


def test_c8_budget_safety_and_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = default_run_config(shots=1, run_seed=0)
    drivers = [run_full(cfg)[1] for _ in range(3)]
    logs = [d.write_events(tmp_path / f"{k}.jsonl").read_bytes() for k, d in enumerate(drivers)]
    identical = logs[0] == logs[1] == logs[2]
    budget_ok = all(
        rec["allocate"]["total_cost"] <= cfg.allocator.p_max
        for rec in drivers[0].records
        if rec["kind"] == "cycle"
    )
    report(
        "C8 budget-safety-determinism",
        identical and budget_ok,
        f"all {cfg.cycles} cycles within budget {cfg.allocator.p_max}; three serial runs' logs byte-identical",
        time.perf_counter() - t0,
        60.0,
    )


def test_c9_audit_utility_consistency():
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    for seed in (0, 1):
        cfg = default_run_config(shots=1, run_seed=seed)
        cfg = replace(cfg, oracle_spec=replace(cfg.oracle_spec, sigma_val=0.0))
        driver = LoopDriver(cfg)
        driver.run_full()
        # replay the training schedule and compare every logged utility
        oracle = SyntheticOracle(cfg.oracle_spec)
        state = oracle.fresh_state()
        for rec in driver.records:
            if rec["kind"] != "cycle":
                continue
            active = np.zeros(cfg.space.n_units, dtype=bool)
            active[rec["search"]["active"]] = True
            state = oracle.train_step(state, active, cfg.steps_per_cycle)
            for audit in rec["audit"]["audits"]:
                unit = audit["unit_id"]
                cost = cfg.budget.costs[unit]
                with_unit, without = active.copy(), active.copy()
                with_unit[unit], without[unit] = True, False
                expected = (oracle.true_value(state, with_unit) - oracle.true_value(state, without)) / cost
                worst = max(worst, abs(audit["u_raw"] - expected))
                checked += 1
    ok = checked >= 1000 and worst <= 1e-12
    report(
        "C9 audit-utility-consistency",
        ok,
        f"{checked} (config, unit) pairs, max |u - marginal/cost| = {worst:.2e} <= 1e-12",
        time.perf_counter() - t0,
        10.0,
    )
