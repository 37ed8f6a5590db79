"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The comparative criteria (6, 7) share one precomputed
sweep over the default synthetic environment.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from auditloop import (
    LoopDriver,
    SyntheticOracle,
    checks,
    coverage_lower_bound,
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
    violations = checks.fsm_chatter_exhaustive(12, taus=(1, 2, 3))
    violations += checks.fsm_chatter_fuzz(runs=100, t_len=10_000)
    report(
        "C1 fsm-chatter-bound",
        violations == 0,
        f"exhaustive 3x2^12 at T=12 plus 100 fuzzed runs at T=10^4, {violations} violations",
        time.perf_counter() - t0,
        30.0,
    )


def test_c2_ema_variance_bound():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    details = []
    for beta in (0.5, 0.9):
        # raises if the vectorized recursion disagrees with the tracker itself
        measured, _ = checks.ema_variance(beta, replicas=10_000, audits=200, seed=123)
        bound = (1.0 - beta) / (1.0 + beta)
        worst_ratio = max(worst_ratio, measured / bound)
        details.append(f"beta={beta}: var {measured:.4f} vs bound {bound:.4f}")
    report(
        "C2 ema-variance-bound",
        worst_ratio <= 1.1,
        "; ".join(details) + f"; worst ratio {worst_ratio:.3f} <= 1.1",
        time.perf_counter() - t0,
        60.0,
    )


def test_c3_ema_drift_bias_bound():
    t0 = time.perf_counter()
    beta, delta = 0.9, 0.01
    bias, _ = checks.drift_bias(beta, delta, audits=2000)
    limit = 1.05 * delta * beta / (1.0 - beta)
    report(
        "C3 ema-drift-bias-bound",
        bias <= limit,
        f"steady-state bias {bias:.6f} <= {limit:.6f}",
        time.perf_counter() - t0,
        5.0,
    )


def test_c4_coverage_bound():
    t0 = time.perf_counter()
    n, m, eps, cycles = 60, 6, 0.3, 2000
    rho = coverage_lower_bound(n, m, eps)
    bound = rho * cycles - 4.0 * math.sqrt(rho * (1.0 - rho) * cycles)
    worst, _ = checks.coverage_min(n, m, eps, cycles, seeds=5)
    report(
        "C4 coverage-bound",
        worst >= bound,
        f"min probe count {worst} >= {bound:.1f} over 5 seeds x {cycles} cycles",
        time.perf_counter() - t0,
        60.0,
    )


def test_c5_allocator_quality():
    t0 = time.perf_counter()
    ratios = checks.allocator_ratios(instances=500, n_max=15, seed=42)
    ok = ratios.min() >= 0.5 and (ratios >= 0.95).mean() >= 0.90
    report(
        "C5 allocator-quality",
        ok,
        f"min ratio {ratios.min():.3f} >= 0.5, frac>=0.95 is {(ratios >= 0.95).mean():.2%} >= 90%",
        time.perf_counter() - t0,
        60.0,
    )


@pytest.fixture(scope="module")
def comparative_sweep():
    """Final values of the full engine, both ablations, and the random
    baseline on the default synthetic environment: 20 seeds per shots level."""
    t0 = time.perf_counter()
    results = sweep(SHOTS_LEVELS, range(N_SEEDS), random_samples=20)
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
    os.environ.pop("SEA_ALLOC_THREADS", None)
    _, d1 = run_full(cfg)
    _, d2 = run_full(cfg)
    os.environ["SEA_ALLOC_THREADS"] = "8"
    try:
        _, d3 = run_full(cfg)
    finally:
        del os.environ["SEA_ALLOC_THREADS"]
    paths = []
    for name, drv in (("a", d1), ("b", d2), ("c", d3)):
        paths.append(drv.write_events(tmp_path / f"{name}.jsonl"))
    identical = (
        paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    )
    budget_ok = all(
        rec["allocate"]["total_cost"] <= cfg.allocator.p_max
        for rec in d1.records
        if rec["kind"] == "cycle"
    )
    report(
        "C8 budget-safety-determinism",
        identical and budget_ok,
        f"all {cfg.cycles} cycles within budget {cfg.allocator.p_max}; "
        f"serial x2 and 8-thread logs byte-identical",
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
                cost = cfg.space.costs[unit]
                with_unit = active.copy()
                with_unit[unit] = True
                expected = oracle.true_marginal(state, with_unit, unit) / cost
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
