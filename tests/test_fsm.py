import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auditloop import Budget, FsmParams, FsmStabilizer, checks
from auditloop.errors import InvalidParams, LengthMismatch


def unbounded(n):
    """Budget arguments under which all n units fit at once: unit scores and
    costs, and a budget of n."""
    return {"scores": np.ones(n), "budget": Budget.from_costs(np.ones(n), float(n))}


def run_single_unit(proposals, tau):
    fsm = FsmStabilizer(1, tau_act=tau)
    gates = np.array([False])
    history = []
    for p in proposals:
        gates = fsm.filter_proposals(gates, np.array([p]), **unbounded(1))
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
        FsmStabilizer(2).filter_proposals(np.array([True]), np.array([True]), **unbounded(2))
    # A score vector or budget of another length is refused, whether or not a vote is ready.
    for n_scores, n_costs in ((5, 3), (2, 3), (3, 2), (3, 4)):
        with pytest.raises(LengthMismatch):
            FsmStabilizer(3, 1).filter_proposals(
                np.zeros(3, bool), np.ones(3, bool), scores=np.ones(n_scores),
                budget=Budget.from_costs(np.ones(n_costs), 5.0),
            )


def test_stabilizer_checks_tau_and_budget_arguments():
    with pytest.raises(InvalidParams, match="tau_act"):
        FsmStabilizer(2, tau_act=2.5)
    with pytest.raises(TypeError, match="keyword-only"):
        FsmStabilizer(2).filter_proposals(np.zeros(2, bool), np.zeros(2, bool))


def test_chatter_bound_exhaustive_small():
    # every proposal sequence of length 8, per-unit flips <= floor(T / tau)
    assert checks.fsm_chatter_exhaustive(8).ok


def test_consistent_pressure_always_commits():
    for tau in (1, 2, 3, 5):
        fsm = FsmStabilizer(1, tau_act=tau)
        gates = np.array([False])
        for _ in range(tau):
            gates = fsm.filter_proposals(gates, np.array([True]), **unbounded(1))
        assert gates[0]


def test_counters_never_reach_tau_without_commit():
    rng = np.random.default_rng(0)
    fsm = FsmStabilizer(6, tau_act=3)
    gates = np.zeros(6, dtype=bool)
    for _ in range(200):
        proposed = rng.random(6) < 0.5
        gates = fsm.filter_proposals(gates, proposed, **unbounded(6))
        assert np.all(fsm.act_counts < 3)


def test_tc_increments_at_most_once_per_cycle():
    fsm = FsmStabilizer(4, tau_act=1)
    gates = np.zeros(4, dtype=bool)
    new = fsm.filter_proposals(gates, np.array([True, True, True, False]), **unbounded(4))
    assert new.sum() == 3
    assert fsm.change_cycles == 1


def test_budget_recheck_trims_commits_by_density():
    # both units mature simultaneously; only the denser one fits the budget
    fsm = FsmStabilizer(2, tau_act=1)
    gates = np.zeros(2, dtype=bool)
    scores = np.array([4.0, 3.0])
    out = fsm.filter_proposals(gates, np.ones(2, bool), scores=scores, budget=Budget.from_costs([1e-3, 1e-3], 1e-3))
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
    proposals = np.random.default_rng(seed).random((300, n)) < 0.5
    assert int(checks._flips(tau, proposals).max()) <= 300 // tau


@settings(deadline=None, max_examples=100)
@given(
    tau=st.integers(1, 3),
    widths=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    t_len=st.integers(1, 40),
    seed=st.integers(0, 2**31 - 1),
)
def test_stacked_stabilizer_flips_equal_separate_runs(tau, widths, t_len, seed):
    # The chatter checks run many runs, each under a budget that all of its
    # units fit, as the column blocks of one stabilizer; that is sound only
    # if no column sees another.
    rng = np.random.default_rng(seed)
    runs = [rng.random((t_len, w)) < 0.5 for w in widths]
    separate = []
    for proposals in runs:
        fsm = FsmStabilizer(proposals.shape[1], tau_act=tau)
        gates = np.zeros(proposals.shape[1], dtype=bool)
        for proposed in proposals:
            gates = fsm.filter_proposals(gates, proposed, **unbounded(proposals.shape[1]))
        separate.append(fsm.unit_flips)
    assert np.array_equal(checks._flips(tau, np.hstack(runs)), np.concatenate(separate))


def test_vote_summary_shape():
    fsm = FsmStabilizer(3, tau_act=3)
    gates = np.zeros(3, dtype=bool)
    fsm.filter_proposals(gates, np.array([True, False, False]), **unbounded(3))
    assert fsm.vote_summary() == [{"unit": 0, "counter": 1, "pending": True}]


class ListFsm:
    """Plain-Python reference: the vote counters as per-unit lists, walked
    unit by unit. Ready activations sort by descending density, then lower
    cost, then lower id, as `allocator._density_order` orders them."""

    def __init__(self, n_units, tau_act):
        self.n_units = n_units
        self.tau_act = tau_act
        self.counts = [0] * n_units
        self.pending = [-1] * n_units  # -1 none, else 0/1
        self.flips = [0] * n_units
        self.change_cycles = 0

    def filter_proposals(self, current, proposed, *, scores, budget):
        costs = budget.costs
        cur = current.tolist()
        prop = proposed.tolist()
        counts, pending = self.counts, self.pending
        deactivations, activations = [], []
        for i in range(self.n_units):
            p = prop[i]
            if p == cur[i]:
                counts[i] = 0
                pending[i] = -1
                continue
            vote = 1 if p else 0
            if pending[i] == vote:
                counts[i] += 1
            else:
                pending[i] = vote
                counts[i] = 1
            if counts[i] >= self.tau_act:
                (activations if p else deactivations).append(i)

        committed = current.copy()
        committed_ids = deactivations[:]
        for i in deactivations:
            committed[i] = False

        activations.sort(key=lambda i: (-(scores[i] / costs[i]), costs[i], i))
        for i in activations:
            trial = committed.copy()
            trial[i] = True
            if not budget.fits(trial):
                counts[i] = 0
                pending[i] = -1
                continue
            committed = trial
            committed_ids.append(i)

        for i in committed_ids:
            counts[i] = 0
            pending[i] = -1
            self.flips[i] += 1
        if committed_ids:
            self.change_cycles += 1
        return committed

    def vote_summary(self):
        return [
            {"unit": i, "counter": self.counts[i], "pending": bool(self.pending[i])}
            for i in range(self.n_units)
            if self.counts[i] > 0
        ]


def gate_lists(n):
    return st.lists(st.booleans(), min_size=n, max_size=n).map(lambda g: np.array(g, dtype=bool))


@settings(deadline=None, max_examples=150)
@given(data=st.data(), n=st.integers(1, 8), tau=st.integers(1, 3), budget=st.booleans())
def test_array_fsm_matches_list_reference(data, n, tau, budget):
    # Small value sets make density ties between units of different cost.
    # While votes are pending, one step in three proposes the current gates,
    # which must reset every vote.
    costs = np.array(data.draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 1.0]), min_size=n, max_size=n)))
    scores = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.1, 0.2, 0.5, 1.0]), min_size=n, max_size=n)))
    p_max = data.draw(st.sampled_from([0.3, 0.6, 1.0, 2.0]))
    kwargs = {"scores": scores, "budget": Budget.from_costs(costs, p_max)} if budget else unbounded(n)
    fsm, ref = FsmStabilizer(n, tau_act=tau), ListFsm(n, tau)
    gates = data.draw(gate_lists(n))
    for _ in range(data.draw(st.integers(1, 25))):
        quiet = fsm.act_counts.any() and data.draw(st.sampled_from([False, False, True]))
        proposed = gates.copy() if quiet else data.draw(gate_lists(n))
        out = fsm.filter_proposals(gates, proposed, **kwargs)
        expected = ref.filter_proposals(gates, proposed, **kwargs)
        assert np.array_equal(out, expected)
        assert out is not gates
        assert fsm.act_counts.tolist() == ref.counts
        assert fsm.act_pending.tolist() == ref.pending
        assert fsm.unit_flips.tolist() == ref.flips
        assert fsm.change_cycles == ref.change_cycles
        assert fsm.vote_summary() == ref.vote_summary()
        gates = out
