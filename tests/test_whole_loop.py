"""One property test over whole runs of small configs at their edges.

Tier-1 runs a fixed set of examples (`derandomize=True`). A long randomized
run draws fresh ones, and no stored example is replayed first:

    AUDITLOOP_FUZZ=3000 python -m pytest tests/test_whole_loop.py
"""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from auditloop import allocator, fsm
from auditloop import (
    AllocatorParams,
    FsmParams,
    LoopDriver,
    RunConfig,
    SamplerParams,
    SmoothingParams,
    SyntheticOracle,
    TraceRecordingOracle,
    compute_diagnostics,
    gate_cost,
    replay_trace,
)
from auditloop.driver import default_oracle_spec
from auditloop.errors import MalformedLog, read_json_lines
from auditloop.space import AuditSpace, BackboneDesc, default_templates

FUZZ = int(os.environ.get("AUDITLOOP_FUZZ", "0"))


@st.composite
def configs(draw):
    layers = draw(st.integers(1, 3))
    dims = draw(st.lists(st.sampled_from([8, 16, 48, 96]), min_size=layers, max_size=layers))
    templates = default_templates()
    picks = draw(st.lists(st.integers(0, len(templates) - 1), min_size=1, max_size=5, unique=True))
    space = AuditSpace.build(BackboneDesc(layers, tuple(dims), 200_000), [templates[i] for i in sorted(picks)])
    n, costs = space.n_units, allocator.Budget(space.counts, 200_000, 1.0).costs
    # Below the cheapest unit nothing fits; 1.0 fits everything.
    p_max = draw(st.sampled_from([float(costs.min()) / 2, float(costs.sum()) / 3, 1.0]))
    shots, seed = draw(st.sampled_from([1, 5, 10])), draw(st.integers(0, 2**16))
    return RunConfig(
        space=space,
        oracle_spec=default_oracle_spec(space, shots, seed),
        # Past n the batch is capped at n, and the exploration pool can empty
        # before the slots run out.
        sampler=SamplerParams(batch_size=draw(st.integers(1, n + 3))),
        smoothing=SmoothingParams(lambda_s=draw(st.sampled_from([0.0, 0.5]))),
        allocator=AllocatorParams(p_max=p_max, mu_eff=draw(st.sampled_from([0.0, 0.02]))),
        fsm=FsmParams(tau_act=draw(st.integers(1, 4))),
        cycles=draw(st.integers(1, 12)),
        steps_per_cycle=draw(st.integers(1, 200)),
        refinetune_steps=0,
        shots=shots,
        run_seed=seed,
    )


@settings(
    deadline=None,
    derandomize=not FUZZ,
    database=None,
    max_examples=FUZZ or 100,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=configs())
def test_whole_runs_keep_budget_score_replay_and_log_invariants(config):
    costs, p_max = config.budget.costs, config.allocator.p_max
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # The recorder must be closed, as `cmd_run` closes it, or the trace is empty.
        with TraceRecordingOracle(SyntheticOracle(config.oracle_spec), tmp / "trace.jsonl") as oracle:
            driver = LoopDriver(config, oracle=oracle)
            report = driver.run_full()
        events = driver.write_events(tmp / "events.jsonl")

        cycles = [r for r in driver.records if r["kind"] == "cycle"]
        assert len(cycles) == config.cycles
        assert all(r["allocate"]["total_cost"] <= p_max for r in cycles)
        final = report.final_gates
        assert np.all(driver.scores[final] > 0.0)
        assert gate_cost(final, costs) <= p_max
        # Every committed set and the final one also fit the budget's integer
        # rule, and each logged cost is the float sum of its set's costs.
        budget, gates = config.budget, config.space.initial_gates()
        for r in cycles:
            gates[r["fsm"]["commits"]] ^= True
            assert budget.fits(gates) and r["allocate"]["total_cost"] == gate_cost(gates, costs), r["cycle"]
        assert budget.fits(final) and report.budget_used == gate_cost(final, costs)

        replayed = LoopDriver(config, oracle=replay_trace(tmp / "trace.jsonl"))
        replayed.run_full()
        assert replayed.write_events(tmp / "replayed.jsonl").read_bytes() == events.read_bytes()

        # Each cycle's value from the log alone: a fresh oracle trains the
        # cycle's active set and scores the gates after its commits.
        fresh = SyntheticOracle(config.oracle_spec)
        state = fresh.fresh_state()
        records = [r for _, r in read_json_lines(events, MalformedLog, "event log")]
        for r in [r for r in records if r["kind"] == "cycle"]:
            gates = np.zeros(config.space.n_units, dtype=bool)
            gates[r["search"]["active"]] = True
            state = fresh.train_step(state, gates, r["search"]["steps"])
            gates[r["fsm"]["commits"]] ^= True
            assert fresh.true_value(state, gates) == r["value"], r["cycle"]

        diag = compute_diagnostics(records, config.space.n_units)
        assert diag["last_cycle"] == config.cycles - 1
        assert diag["final_value"] == report.final_value
        assert diag["final_on_ids"] == np.flatnonzero(report.final_gates).tolist()
        assert diag["eval_count"] == report.eval_count


@settings(
    deadline=None,
    derandomize=not FUZZ,
    database=None,
    max_examples=FUZZ or 40,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(config=configs())
def test_orders_that_greedy_and_the_fsm_fill_pass_the_public_checks(config):
    # Greedy and the FSM call the unchecked `_fill`, as their orders are valid
    # by construction. With the checked public `fill` in its place, every
    # order must be unit ids, off in the gates and each once, and the run
    # must log the same records.
    core, calls = allocator._fill, []

    def checked(gates, order, budget):
        calls.append(len(order))
        with pytest.MonkeyPatch.context() as inside:
            inside.setattr(allocator, "_fill", core)
            return allocator.fill(gates, order, budget)

    unchecked = LoopDriver(config)
    unchecked.run_full()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(allocator, "_fill", checked)
        m.setattr(fsm, "_fill", checked)
        driver = LoopDriver(config)
        driver.run_full()
    assert len(calls) >= config.cycles  # at least the greedy proposal of each cycle
    assert driver.records == unchecked.records
