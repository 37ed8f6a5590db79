import json
import math
from dataclasses import replace

import numpy as np
import pytest

from auditloop import (
    AllocatorParams,
    Budget,
    FsmParams,
    LoopDriver,
    OracleSpec,
    RunConfig,
    SamplerParams,
    SmoothingParams,
    SyntheticOracle,
    TraceRecordingOracle,
    compute_diagnostics,
    default_run_config,
    replay_trace,
    run_full,
    run_random_baseline,
    write_diagnostics_csv,
)
from auditloop.driver import DIAGNOSTIC_COLUMNS, default_oracle_spec
from auditloop.errors import BudgetViolation, InvalidParams, MalformedLog
from auditloop.space import AuditSpace, BackboneDesc, Family, Slot, Template, default_space, default_templates
from auditloop.tracker import WINDOW
from test_tracker import ReferenceTracker


def tiny_config(**overrides):
    """12-unit space with an additive synthetic surface, quick to run."""
    from auditloop.space import Topology

    backbone = BackboneDesc(1, (16,), 200_000)
    templates = [
        Template(Family.LORA, topo, r, Slot.ATTENTION)
        for topo in (Topology.SA, Topology.PA)
        for r in (2, 4, 8)
    ] + [
        Template(Family.ADAPTFORMER, topo, d, Slot.FEEDFORWARD)
        for topo in (Topology.SA, Topology.PA)
        for d in (4, 8, 16)
    ]
    space = AuditSpace.build(backbone, templates)
    rng = np.random.default_rng(11)
    spec = OracleSpec(
        base_score=0.4,
        mu_inf=tuple(rng.uniform(-0.02, 0.08, space.n_units)),
        kappa=tuple(rng.uniform(100.0, 400.0, space.n_units)),
        sigma_val=0.02,
        warm_floor=0.3,
        seed=5,
    )
    base = dict(
        space=space,
        oracle_spec=spec,
        sampler=SamplerParams(batch_size=4),
        smoothing=SmoothingParams(),
        allocator=AllocatorParams(p_max=0.002, mu_eff=0.02),
        fsm=FsmParams(),
        cycles=25,
        steps_per_cycle=80,
        refinetune_steps=2000,
        shots=1,
        run_seed=3,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.mark.parametrize("config", [tiny_config, default_run_config], ids=["exact-resolve", "swap-resolve"])
def test_a_run_builds_one_budget(monkeypatch, config):
    # The config builds its Budget when it is checked. Every cycle's greedy
    # proposal, hysteresis and FSM commit, the final re-solve and, at 12
    # units, the regret curve's optimum take that one: none builds its own.
    built, init = [], Budget.__init__
    monkeypatch.setattr(Budget, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    cfg = config()
    report = LoopDriver(cfg).run_full()
    assert len(built) == 1
    assert (report.regret_curve is not None) == (config is tiny_config)


def test_a_set_at_exactly_the_budget_fits_but_its_logged_float_cost_raises():
    # 64 + 32 of 200,000 parameters is exactly p_max = 0.00048 of them, so
    # the integer rule admits both units on from the start. The float costs
    # add to 0.00048000000000000007, and the driver's check on that logged
    # cost stops the run at its first commit.
    from auditloop.space import Topology

    backbone = BackboneDesc(1, (16,), 200_000)
    templates = [Template(Family.LORA, Topology.SA, 2, Slot.ATTENTION),
                 Template(Family.AFFINE_LN, Topology.NONE, 0, Slot.NORM)]
    space = AuditSpace(backbone, [replace(u, gate=True) for u in AuditSpace.build(backbone, templates).units])
    cfg = tiny_config(space=space, oracle_spec=default_oracle_spec(space, seed=3), sampler=SamplerParams(batch_size=1),
                      allocator=AllocatorParams(p_max=0.00048), cycles=3)
    assert space.counts == (64, 32) and cfg.budget.capacity == 96 and cfg.budget.fits(space.initial_gates())
    with pytest.raises(BudgetViolation, match=r"^cycle 0: committed cost 0\.00048000000000000007 exceeds 0\.00048$"):
        run_full(cfg)


def test_eval_count_is_one_plus_batch_per_cycle():
    cfg = tiny_config()
    report, _ = run_full(cfg)
    assert report.eval_count == cfg.cycles * (1 + cfg.sampler.batch_size)


def test_budget_safety_every_cycle():
    cfg = tiny_config()
    _, driver = run_full(cfg)
    for rec in driver.records:
        if rec["kind"] == "cycle":
            assert rec["allocate"]["total_cost"] <= cfg.allocator.p_max


def test_determinism_same_seed_byte_identical(tmp_path):
    cfg = tiny_config()
    _, d1 = run_full(cfg)
    _, d2 = run_full(cfg)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    d1.write_events(p1)
    d2.write_events(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seeds_differ():
    r1, _ = run_full(tiny_config(run_seed=1))
    r2, _ = run_full(tiny_config(run_seed=2))
    assert r1.value_curve != r2.value_curve


def test_table_equals_per_unit_tracker_replay():
    # Replaying each cycle's audit records into one plain-Python reference
    # filter per unit must reproduce the driver's table bit for bit.
    cfg = tiny_config(cycles=15)
    driver = LoopDriver(cfg)
    refs = [ReferenceTracker() for _ in range(driver.space.n_units)]
    for cycle in range(cfg.cycles):
        record = driver.run_cycle(cycle)
        for ev in record["audit"]["audits"]:
            refs[ev["unit_id"]].record(ev["u_raw"], cfg.smoothing.beta)
        assert np.array_equal(driver.probe_counts, [r.probe_count for r in refs])
        assert np.array_equal(driver.scores, [r.score(cfg.smoothing.lambda_s) for r in refs])
        assert np.array_equal(driver.table.ema, [r.ema for r in refs], equal_nan=True)
    assert driver.probe_counts.max() > WINDOW  # the ring buffer wrapped


def test_audit_utility_sign_conventions():
    # full config 0.80, toggled 0.75, cost 0.002: utility 25.0
    cfg = tiny_config()
    driver = LoopDriver(cfg)
    assert math.isclose((0.80 - 0.75) / 0.002, 25.0)
    driver.gates[:] = False
    _, utils = driver._audit_utilities([0])
    # inactive unit: activation marginal, positive when turning it on helps
    spec = cfg.oracle_spec
    assert (utils[0] > 0) == (spec.mu_inf[0] * spec.warm_floor > 0)


def test_chatter_bound_on_run():
    cfg = tiny_config(cycles=30)
    report, _ = run_full(cfg)
    assert report.max_unit_flips <= 30 // cfg.fsm.tau_act


def test_no_commit_cycle_leaves_gates_and_tc():
    cfg = tiny_config()
    driver = LoopDriver(cfg)
    rec0 = driver.run_cycle(0)
    # vote threshold 3 means the first cycle can never commit
    assert rec0["fsm"]["commits"] == []
    assert rec0["fsm"]["t_c"] == 0
    assert not driver.gates.any()


def test_infeasible_budget_yields_empty_selection():
    cfg = tiny_config(allocator=AllocatorParams(p_max=1e-6, mu_eff=0.0), cycles=6)
    report, _ = run_full(cfg)
    assert not report.final_gates.any()
    assert report.final_value == cfg.oracle_spec.base_score


def test_two_phase_purity():
    # the final value depends only on the selected set and refinetune budget
    cfg = tiny_config()
    report, driver = run_full(cfg)
    oracle = SyntheticOracle(cfg.oracle_spec)
    state = oracle.fresh_state()
    state = oracle.train_step(state, report.final_gates, cfg.refinetune_steps)
    assert math.isclose(report.final_value, oracle.true_value(state, report.final_gates), abs_tol=1e-12)


def test_eligibility_requires_an_audit():
    # No unit is proposed, committed or finally selected before its first
    # audit. One audit per cycle over 12 units: units are committed while
    # others are still unaudited, and some are never audited.
    _, driver = run_full(tiny_config(sampler=SamplerParams(batch_size=1), cycles=8))
    audited: set[int] = set()
    commits_before_full_coverage = 0
    for r in driver.records[:-1]:
        audited |= set(r["audit"]["batch"])
        alloc = r["allocate"]
        assert set(r["search"]["active"]) | set(alloc["proposed_on"]) | set(alloc["accepted_on"]) <= audited
        commits_before_full_coverage += bool(alloc["accepted_on"]) and len(audited) < driver.space.n_units
    assert set(driver.records[-1]["final_on_ids"]) <= audited < set(range(driver.space.n_units))
    assert commits_before_full_coverage > 0


def test_regret_curve_present_for_small_space():
    cfg = tiny_config()
    report, _ = run_full(cfg)
    assert report.regret_curve is not None
    assert len(report.regret_curve) == cfg.cycles
    assert all(r >= -1e-9 for r in report.regret_curve)


def test_regret_shrinks_over_the_run_median_over_seeds():
    diffs = []
    for seed in range(5):
        report, _ = run_full(tiny_config(run_seed=seed))
        diffs.append(report.regret_curve[-1] - report.regret_curve[0])
    assert np.median(diffs) <= 0.0


def test_zero_refinetune_steps_still_train_the_regret_horizon_and_baseline_one_step():
    """The regret horizon and each random baseline train for the loop's steps
    plus max(1, refinetune_steps), so 0 and 1 re-finetune steps share both."""
    zero, one = tiny_config(refinetune_steps=0), tiny_config(refinetune_steps=1)
    (report_zero, _), (report_one, _) = run_full(zero), run_full(one)
    assert report_zero.regret_curve is not None
    assert report_zero.regret_curve == report_one.regret_curve
    assert np.array_equal(run_random_baseline(zero, 4), run_random_baseline(one, 4))


def test_global_chatter_count_stays_within_bound_at_90_cycles():
    cfg = tiny_config(cycles=90)
    report, _ = run_full(cfg)
    assert report.t_c <= 90 // cfg.fsm.tau_act


def test_random_baseline_respects_budget_and_determinism():
    cfg = tiny_config()
    v1 = run_random_baseline(cfg, 8)
    v2 = run_random_baseline(cfg, 8)
    assert np.array_equal(v1, v2)
    assert v1.shape == (8,)


def test_random_baseline_degenerate_budget():
    cfg = tiny_config(allocator=AllocatorParams(p_max=1e-6, mu_eff=0.0))
    vals = run_random_baseline(cfg, 5)
    assert np.allclose(vals, cfg.oracle_spec.base_score)


def test_random_baseline_single_feasible_unit():
    # Units 0 and 3 (LoRA SA and PA at rank 2) both hold 64 parameters; with
    # unit 3 grown to 128 and a budget of 100 parameters, unit 0 is the one
    # unit that fits, so every random order fills to it alone.
    space = tiny_config().space
    units = list(space.units)
    units[3] = replace(units[3], params=128)
    cfg = tiny_config(space=AuditSpace(space.backbone, units), allocator=AllocatorParams(p_max=0.0005, mu_eff=0.0))
    assert cfg.budget.capacity == 100
    assert np.flatnonzero(cfg.budget.counts <= cfg.budget.capacity).tolist() == [0]
    vals = run_random_baseline(cfg, 6)
    assert len(set(np.round(vals, 12))) == 1


# -- diagnostics ---------------------------------------------------------------


def test_diagnostics_roundtrip(tmp_path):
    cfg = tiny_config()
    report, driver = run_full(cfg)
    path = driver.write_events(tmp_path / "events.jsonl")
    diag = compute_diagnostics(path, n_units=cfg.space.n_units)
    assert diag["eval_count"] == report.eval_count
    assert diag["t_c"] == report.t_c
    assert np.array_equal(diag["coverage"], report.probe_counts)
    assert int(diag["coverage"].sum()) == cfg.cycles * cfg.sampler.batch_size
    csv_path = write_diagnostics_csv(diag, tmp_path / "diag.csv")
    header = csv_path.read_text().splitlines()[0]
    assert header == ",".join(DIAGNOSTIC_COLUMNS)
    assert len(csv_path.read_text().splitlines()) == cfg.cycles + 1


def test_diagnostics_of_a_log_with_its_last_cycle_first_equal_those_in_order():
    # Curves, evaluation total and last cycle all read in cycle order,
    # whatever the order of the log's lines.
    cfg = tiny_config(cycles=5)
    report, driver = run_full(cfg)
    *cycles, final = driver.records
    ordered = compute_diagnostics(driver.records, cfg.space.n_units)
    moved = compute_diagnostics([cycles[-1], *cycles[:-1], final], cfg.space.n_units)
    assert (ordered["eval_count"], ordered["last_cycle"]) == (report.eval_count, 4)
    assert moved.pop("coverage").tolist() == ordered.pop("coverage").tolist()
    assert moved == ordered


def test_diagnostics_malformed_log(tmp_path):
    bad = tmp_path / "events.jsonl"
    bad.write_text("{}\n")
    with pytest.raises(MalformedLog):
        compute_diagnostics(bad, 3)
    with pytest.raises(MalformedLog):
        compute_diagnostics([{"kind": "cycle", "cycle": 0}], 3)
    # "10" sorts before "9": a string cycle number would put the curves out of order.
    for number in ("9", 9.5, True):
        with pytest.raises(MalformedLog, match="cycle number that is not an integer"):
            compute_diagnostics([CYCLES[0] | {"cycle": number}, CYCLES[1] | {"cycle": 10}], 3)


AUDIT = {"audit": {"batch": [0, 1]}, "value": 0.5, "fsm": {"t_c": 0}}
CYCLES = [{"kind": "cycle", "cycle": t, "eval_count": 3 * (t + 1), **AUDIT} for t in range(2)]
FINAL = {"kind": "final", "final_gates": "010", "final_on_ids": [1], "final_value": 0.5, "budget_used": 0.1}


def test_diagnostics_count_units_never_audited():
    # The config's unit count, not the log, sizes the coverage, so unit 2,
    # never audited, holds coverage at 0 with or without the final record:
    # a log cut before it reads as the whole run's does.
    diag = compute_diagnostics(CYCLES + [FINAL], 3)
    assert diag["coverage"].tolist() == [2, 2, 0]
    assert (diag["final_value"], diag["budget_used"], diag["final_on_ids"]) == (0.5, 0.1, [1])
    cut = compute_diagnostics(CYCLES, 3)
    assert diag["coverage_min_curve"] == cut["coverage_min_curve"] == [0, 0]
    assert cut["final_value"] is cut["budget_used"] is cut["final_on_ids"] is None


@pytest.mark.parametrize(
    "records, n_units, match",
    [
        (CYCLES + [CYCLES[0] | {"cycle": 2, "audit": {"batch": [0, 3]}}], 3, "cycle 2 audits unit 3, not one of the 3"),
        (CYCLES + [CYCLES[0] | {"cycle": 2, "audit": {"batch": [-1]}}], 3, "cycle 2 audits unit -1"),
        (CYCLES + [CYCLES[0] | {"cycle": 2, "audit": {"batch": [True]}}], 3, "cycle 2 audits unit True"),
        (CYCLES + [FINAL], 2, "final record holds 3 gates for the config's 2 units"),
        (CYCLES + [FINAL], 4, "final record holds 3 gates for the config's 4 units"),
        (CYCLES + [FINAL | {"final_on_ids": [0]}], 3, "final_on_ids are not the units its final_gates switch on"),
    ],
    ids=["audited-id-past-the-end", "negative-audited-id", "bool-audited-id", "fewer-units", "more-units",
         "on-ids-disagree"],
)
def test_diagnostics_reject_a_log_of_another_space(records, n_units, match):
    with pytest.raises(MalformedLog, match=match):
        compute_diagnostics(records, n_units)


def test_record_and_replay_identical_event_log(tmp_path):
    cfg = tiny_config(cycles=10)
    inner = SyntheticOracle(cfg.oracle_spec)
    with TraceRecordingOracle(inner, tmp_path / "trace.jsonl") as rec:
        _, original = run_full(cfg, oracle=rec)
    _, replayed = run_full(cfg, oracle=replay_trace(tmp_path / "trace.jsonl"))
    p1, p2 = tmp_path / "orig.jsonl", tmp_path / "replay.jsonl"
    original.write_events(p1)
    replayed.write_events(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_events_is_one_sort_keys_dumps_line_per_record(tmp_path):
    # The default shots=10 run logs non-empty votes and ends with a final record.
    _, driver = run_full(default_run_config(shots=10))
    assert driver.records[-1]["kind"] == "final"
    assert any(r["fsm"]["votes"] for r in driver.records[:-1])
    expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in driver.records)
    assert driver.write_events(tmp_path / "events.jsonl").read_text() == expected

    # Every dict is built in sorted key order, so the encoder's sort finds it sorted.
    def dicts(doc):
        if isinstance(doc, dict):
            yield doc
            doc = list(doc.values())
        if isinstance(doc, list):
            for item in doc:
                yield from dicts(item)

    assert all(list(d) == sorted(d) for d in dicts(driver.records))


# -- config plumbing -----------------------------------------------------------


def test_config_validation():
    with pytest.raises(InvalidParams):
        tiny_config(cycles=0)
    cfg = tiny_config()
    with pytest.raises(InvalidParams):
        replace(cfg, oracle_spec=default_oracle_spec(AuditSpace.build(
            BackboneDesc(1, (8,), 10_000),
            [Template(Family.AFFINE_LN, __import__("auditloop").Topology.NONE, 0, Slot.NORM)],
        )))


def test_config_json_roundtrip():
    cfg = default_run_config(shots=1, run_seed=4)
    doc = cfg.to_json()
    # The document as JSON text reads back to the same config.
    assert RunConfig.from_json(json.loads(json.dumps(doc))).to_json() == doc
    loaded = RunConfig.from_json(doc)
    assert loaded.run_seed == 4
    assert loaded.space.n_units == cfg.space.n_units
    assert loaded.oracle_spec == cfg.oracle_spec
    r1, _ = run_full(cfg)
    r2, _ = run_full(loaded)
    assert r1.final_value == r2.final_value


def per_unit_mu_inf_and_kappa(space, shots, seed):
    """`default_oracle_spec`'s `mu_inf` and `kappa` with one scalar
    `rng.normal` draw per unit, in a loop over the units."""
    rng = np.random.default_rng([seed, 0x5EED])
    site_keys = sorted({(u.layer, u.slot) for u in space.units}, key=lambda k: (k[0], k[1].value))
    quality = {k: rng.uniform(-0.3, 0.15) if rng.random() < 0.6 else rng.uniform(0.4, 1.0) for k in site_keys}
    max_size = {Family.LORA: 16, Family.ADAPTFORMER: 32, Family.AFFINE_LN: 1}
    mu_inf = np.empty(space.n_units)
    for u in space.units:
        size_factor = (max(1, u.size) / max_size[u.family]) ** 0.3
        mu_inf[u.id] = 0.05 * quality[(u.layer, u.slot)] * size_factor * abs(rng.normal(1.0, 0.25))
    return mu_inf, rng.uniform(300.0, 900.0, size=space.n_units)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("wide", [False, True], ids=["default-space", "wide-740-space"])
def test_default_oracle_spec_draws_as_a_per_unit_loop(seed, wide):
    space = default_space() if not wide else AuditSpace.build(
        BackboneDesc(num_layers=20, hidden_dims=(48, 96) * 10, backbone_param_count=15_000_000), default_templates())
    assert space.n_units == (740 if wide else 74)
    spec = default_oracle_spec(space, shots=10, seed=seed)
    mu_inf, kappa = per_unit_mu_inf_and_kappa(space, 10, seed)
    assert np.array(spec.mu_inf).tobytes() == mu_inf.tobytes()
    assert np.array(spec.kappa).tobytes() == kappa.tobytes()


def test_default_config_shots_mapping():
    for shots, steps in ((1, 6000), (5, 8000), (10, 12000)):
        cfg = default_run_config(shots=shots)
        assert cfg.cycles * cfg.steps_per_cycle == steps
    with pytest.raises(InvalidParams):
        default_run_config(shots=3)
