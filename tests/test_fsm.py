import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auditloop import FsmParams, FsmStabilizer, checks
from auditloop.errors import InvalidParams, LengthMismatch


def run_single_unit(proposals, tau):
    fsm = FsmStabilizer(1, tau_act=tau)
    gates = np.array([False])
    history = []
    for p in proposals:
        gates = fsm.filter_proposals(gates, np.array([p]))
        history.append(bool(gates[0]))
    return fsm, history


def test_commit_at_tau_consecutive_votes():
    fsm, history = run_single_unit([True, True], tau=2)
    assert history == [False, True]
    assert fsm.change_cycles == 1


def test_reset_on_inconsistent_proposal():
    fsm, history = run_single_unit([True, False, True], tau=2)
    assert history == [False, False, False]
    assert fsm.change_cycles == 0


def test_tau_one_is_identity():
    proposals = [True, False, True, True, False]
    fsm, history = run_single_unit(proposals, tau=1)
    assert history == proposals


def test_params_validation():
    with pytest.raises(InvalidParams):
        FsmParams(tau_act=0)
    with pytest.raises(InvalidParams):
        FsmStabilizer(0)
    with pytest.raises(LengthMismatch):
        FsmStabilizer(2).filter_proposals(np.array([True]), np.array([True]))


def test_chatter_bound_exhaustive_small():
    # every proposal sequence of length 8, per-unit flips <= floor(T / tau)
    assert checks.fsm_chatter_exhaustive(8, taus=(1, 2, 3)) == 0


def test_consistent_pressure_always_commits():
    for tau in (1, 2, 3, 5):
        fsm = FsmStabilizer(1, tau_act=tau)
        gates = np.array([False])
        for _ in range(tau):
            gates = fsm.filter_proposals(gates, np.array([True]))
        assert gates[0]


def test_counters_never_reach_tau_without_commit():
    rng = np.random.default_rng(0)
    fsm = FsmStabilizer(6, tau_act=3)
    gates = np.zeros(6, dtype=bool)
    for _ in range(200):
        proposed = rng.random(6) < 0.5
        gates = fsm.filter_proposals(gates, proposed)
        assert np.all(fsm.act_counts < 3)


def test_tc_increments_at_most_once_per_cycle():
    fsm = FsmStabilizer(4, tau_act=1)
    gates = np.zeros(4, dtype=bool)
    new = fsm.filter_proposals(gates, np.array([True, True, True, False]))
    assert new.sum() == 3
    assert fsm.change_cycles == 1


def test_budget_recheck_trims_commits_by_density():
    # both units mature simultaneously; only the denser one fits the budget
    fsm = FsmStabilizer(2, tau_act=1)
    gates = np.zeros(2, dtype=bool)
    scores = np.array([4.0, 3.0])
    costs = np.array([1e-3, 1e-3])
    out = fsm.filter_proposals(gates, np.ones(2, bool), scores=scores, costs=costs, p_max=1e-3)
    assert list(out) == [True, False]
    # rejected commit resets its counter
    assert fsm.act_counts[1] == 0 and fsm.act_pending[1] == -1


@settings(deadline=None, max_examples=60)
@given(
    tau=st.integers(1, 3),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_chatter_bound_fuzz(tau, n, seed):
    rng = np.random.default_rng(seed)
    t_len = 300
    fsm = FsmStabilizer(n, tau_act=tau)
    gates = np.zeros(n, dtype=bool)
    for _ in range(t_len):
        gates = fsm.filter_proposals(gates, rng.random(n) < 0.5)
    assert int(fsm.unit_flips.max()) <= t_len // tau


def test_vote_summary_shape():
    fsm = FsmStabilizer(3, tau_act=3)
    gates = np.zeros(3, dtype=bool)
    fsm.filter_proposals(gates, np.array([True, False, False]))
    assert fsm.vote_summary() == [{"unit": 0, "counter": 1, "pending": True}]
