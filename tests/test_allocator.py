import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auditloop import (
    AllocationProposal,
    AllocatorParams,
    apply_hysteresis,
    brute_force_optimum,
    final_resolve,
    gate_cost,
    greedy_allocate,
    swap_resolve,
)
from auditloop.allocator import EXACT_RESOLVE_MAX, fill
from auditloop.errors import InvalidParams, LengthMismatch, NonPositiveCost, TooLarge

E3 = 1e-3


def all_true(n):
    return np.ones(n, dtype=bool)


def test_param_validation():
    with pytest.raises(InvalidParams):
        AllocatorParams(p_max=0.0)
    with pytest.raises(InvalidParams):
        AllocatorParams(mu_eff=-1.0)


def test_greedy_density_with_tie_break():
    # densities (3.0, 3.0, 2.5); tie breaks to the cheaper unit 1; {1,2} is optimal
    r = np.array([9.0, 6.0, 5.0])
    c = np.array([3 * E3, 2 * E3, 2 * E3])
    prop = greedy_allocate(r, c, all_true(3), 4 * E3)
    assert list(prop.gates) == [False, True, True]
    assert np.isclose(prop.total_cost, 4 * E3)
    assert prop.total_score == 11.0
    exact = brute_force_optimum(r, c, all_true(3), 4 * E3)
    assert exact.total_score == prop.total_score


def test_greedy_negative_guard():
    prop = greedy_allocate([-1.0, -2.0], [E3, E3], all_true(2), 1.0)
    assert not prop.gates.any()
    assert prop.total_score == 0.0


def test_greedy_singleton():
    prop = greedy_allocate([5.0], [2 * E3], all_true(1), 2 * E3)
    assert list(prop.gates) == [True]


def test_greedy_skips_oversized_then_continues():
    r = np.array([10.0, 4.0, 3.0])
    c = np.array([5 * E3, 4 * E3, 1 * E3])
    prop = greedy_allocate(r, c, all_true(3), 6 * E3)
    # takes unit 0 (density 2.0), skips unit 1 (doesn't fit), takes unit 2
    assert list(prop.gates) == [True, False, True]


def test_greedy_respects_eligibility():
    r = np.array([10.0, 1.0])
    c = np.array([E3, E3])
    eligible = np.array([False, True])
    prop = greedy_allocate(r, c, eligible, 1.0)
    assert list(prop.gates) == [False, True]


def test_greedy_errors():
    with pytest.raises(LengthMismatch):
        greedy_allocate([1.0], [E3, E3], all_true(2), 1.0)
    with pytest.raises(NonPositiveCost):
        greedy_allocate([1.0, 1.0], [E3, 0.0], all_true(2), 1.0)


# -- hysteresis ---------------------------------------------------------------


@settings(deadline=None, max_examples=200)
@given(data=st.data(), n=st.integers(1, 12))
def test_fill_is_the_plain_add_while_it_fits_loop(data, n):
    # Costs with inexact sums; the budget is the cost of a drawn superset of
    # the start mask, so units that fit exactly are common.
    costs = np.array(data.draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0]), min_size=n, max_size=n)))
    start = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    target = start | np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    p_max = gate_cost(target, costs) + data.draw(st.sampled_from([0.0, 0.05, 0.5]))
    order = [i for i in data.draw(st.permutations(range(n))) if not start[i]]

    expected, expected_rejected = start.copy(), []
    for i in order:
        trial = expected.copy()
        trial[i] = True
        if gate_cost(trial, costs) <= p_max:
            expected = trial
        else:
            expected_rejected.append(i)

    before = start.copy()
    gates, rejected = fill(start, np.array(order, dtype=np.int64), costs, p_max)
    assert np.array_equal(start, before)
    assert np.array_equal(gates, expected)
    assert rejected == expected_rejected
    assert gate_cost(gates, costs) <= p_max
    assert set(rejected) == set(order) - set(np.flatnonzero(gates & ~start).tolist())


@pytest.mark.parametrize(
    "start, order",
    [([True, False, False], [1, 0]), ([False, False, False], [1, 2, 1])],
    ids=["unit-already-on", "unit-repeated"],
)
def test_fill_requires_each_unit_of_order_off_and_once(start, order):
    # The running total counts each unit of `order` once, from off.
    with pytest.raises(InvalidParams):
        fill(np.array(start), np.array(order), np.array([0.1, 0.2, 0.3]), 10.0)


def make_proposal(gates, scores, costs):
    gates = np.asarray(gates, dtype=bool)
    return AllocationProposal(
        gates=gates,
        total_cost=gate_cost(gates, np.asarray(costs, float)),
        total_score=float(np.asarray(scores, float)[gates].sum()),
    )


def test_replacement_below_margin_keeps_incumbent():
    scores = np.array([0.50, 0.52])
    costs = np.array([E3, E3])
    current = np.array([True, False])
    prop = make_proposal([False, True], scores, costs)
    out = apply_hysteresis(current, prop, scores, costs, E3, mu_eff=0.05)
    assert list(out) == [True, False]


def test_replacement_above_margin_adopts_newcomer():
    scores = np.array([0.50, 0.56])
    costs = np.array([E3, E3])
    current = np.array([True, False])
    prop = make_proposal([False, True], scores, costs)
    out = apply_hysteresis(current, prop, scores, costs, E3, mu_eff=0.05)
    assert list(out) == [False, True]


def test_zero_margin_is_identity_on_swap():
    scores = np.array([0.50, 0.52])
    costs = np.array([E3, E3])
    current = np.array([True, False])
    prop = make_proposal([False, True], scores, costs)
    out = apply_hysteresis(current, prop, scores, costs, E3, mu_eff=0.0)
    assert list(out) == list(prop.gates)


def test_pure_activation_passes_through():
    scores = np.array([0.5, 0.9])
    costs = np.array([E3, E3])
    current = np.array([True, False])
    prop = make_proposal([True, True], scores, costs)
    out = apply_hysteresis(current, prop, scores, costs, 2 * E3, mu_eff=10.0)
    assert list(out) == [True, True]


def test_pure_deactivation_of_harmful_unit_passes_through():
    scores = np.array([-0.5, 0.9])
    costs = np.array([E3, E3])
    current = np.array([True, True])
    prop = make_proposal([False, True], scores, costs)
    out = apply_hysteresis(current, prop, scores, costs, 2 * E3, mu_eff=10.0)
    assert list(out) == [False, True]


def test_multi_eviction_requires_sum_margin():
    # newcomer must beat the sum of both displaced incumbents
    scores = np.array([2.0, 2.0, 3.0])
    costs = np.array([1.5 * E3, 1.5 * E3, 3 * E3])
    current = np.array([True, True, False])
    prop = make_proposal([False, False, True], scores, costs)
    out = apply_hysteresis(current, prop, scores, costs, 3 * E3, mu_eff=0.0)
    assert list(out) == [True, True, False]  # 3.0 < 2.0 + 2.0: rejected
    scores2 = np.array([2.0, 2.0, 4.5])
    prop2 = make_proposal([False, False, True], scores2, costs)
    out2 = apply_hysteresis(current, prop2, scores2, costs, 3 * E3, mu_eff=0.0)
    assert list(out2) == [False, False, True]


@settings(deadline=None, max_examples=200)
@given(
    n=st.integers(1, 10),
    seed=st.integers(0, 2**31 - 1),
)
def test_hysteresis_budget_safety_and_score_safety(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(-0.2, 1.0, n)
    costs = np.exp(rng.uniform(np.log(1e-4), np.log(3e-3), n))
    p_max = float(rng.uniform(costs.min(), costs.sum()))
    # current: a random feasible set
    current = np.zeros(n, dtype=bool)
    for i in rng.permutation(n):
        current[i] = True
        if gate_cost(current, costs) > p_max:
            current[i] = False
    prop = greedy_allocate(scores, costs, np.ones(n, bool), p_max)
    out = apply_hysteresis(current, prop, scores, costs, p_max, mu_eff=0.0)
    assert gate_cost(out, costs) <= p_max
    # with zero margin the output never scores below keeping the current set
    assert scores[out].sum() >= scores[current].sum() - 1e-12


def plain_hysteresis(current, prop, scores, costs, p_max, mu_eff):
    """The margin guard with `gate_cost` on every trial mask."""
    gates = current.copy()
    evictable = []
    for j in np.flatnonzero(current & ~prop):
        if scores[j] <= 0.0:
            gates[j] = False
        else:
            evictable.append(int(j))
    evictable.sort(key=lambda j: (scores[j], j))
    adds = np.flatnonzero(prop & ~current)
    dens = scores[adds] / costs[adds]
    for k in adds[np.lexsort((adds, costs[adds], -dens))]:
        trial = gates.copy()
        trial[k] = True
        if gate_cost(trial, costs) <= p_max:
            gates = trial
            continue
        needed = []
        for j in evictable:
            needed.append(j)
            trial[j] = False
            if gate_cost(trial, costs) <= p_max:
                break
        if gate_cost(trial, costs) > p_max:
            continue
        if scores[k] - sum(scores[j] for j in needed) > mu_eff:
            gates = trial
            for j in needed:
                evictable.remove(j)
    return gates


@settings(deadline=None, max_examples=300)
@given(data=st.data(), n=st.integers(1, 12))
def test_hysteresis_running_total_decides_as_gate_cost(data, n):
    # Costs with inexact sums and a budget equal to the cost of a drawn
    # mask, so trials that fit exactly, or miss by one rounding, are common.
    def masks():
        return st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)

    costs = np.array(data.draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0]), min_size=n, max_size=n)))
    scores = np.array(data.draw(st.lists(st.sampled_from([-0.1, 0.0, 0.2, 0.3, 0.5, 1.0]), min_size=n, max_size=n)))
    current, prop_gates = data.draw(masks()), data.draw(masks())
    p_max = gate_cost(data.draw(masks()), costs) + data.draw(st.sampled_from([0.0, 1e-17, -1e-17, 0.05]))
    mu_eff = data.draw(st.sampled_from([0.0, 0.1, 0.5]))
    out = apply_hysteresis(current, make_proposal(prop_gates, scores, costs), scores, costs, p_max, mu_eff)
    assert np.array_equal(out, plain_hysteresis(current, prop_gates, scores, costs, p_max, mu_eff))


# -- final re-solve ----------------------------------------------------------


def test_final_resolve_swap_improves_over_greedy():
    r = np.array([8.0, 9.0])
    c = np.array([4 * E3, 5 * E3])
    for resolve in (final_resolve, swap_resolve):
        prop = resolve(r, c, all_true(2), 5 * E3)
        assert list(prop.gates) == [False, True]
        assert prop.total_score == 9.0
    exact = brute_force_optimum(r, c, all_true(2), 5 * E3)
    assert exact.total_score == prop.total_score


def test_final_resolve_greedy_already_optimal():
    r = np.array([10.0, 6.0, 6.0])
    c = np.array([5 * E3, 3 * E3, 3 * E3])
    for resolve in (final_resolve, swap_resolve):
        prop = resolve(r, c, all_true(3), 6 * E3)
        assert list(prop.gates) == [False, True, True]
        assert prop.total_score == 12.0
    exact = brute_force_optimum(r, c, all_true(3), 6 * E3)
    assert exact.total_score == prop.total_score


def test_final_resolve_uses_best_singleton():
    # greedy by density picks the two cheap units (score 5), but one big unit scores 8
    r = np.array([8.0, 3.0, 2.0])
    c = np.array([5 * E3, 1 * E3, 1 * E3])
    for resolve in (final_resolve, swap_resolve):
        assert resolve(r, c, all_true(3), 5 * E3).total_score >= 8.0


@pytest.mark.parametrize("n_positive", [EXACT_RESOLVE_MAX, EXACT_RESOLVE_MAX + 1])
def test_final_resolve_exact_up_to_cap_then_swap(n_positive):
    # the exact regime counts eligible units with positive scores only
    rng = np.random.default_rng(n_positive)
    scores = np.concatenate([rng.uniform(0.1, 1.0, n_positive), [0.0, -0.5, 0.7]])
    costs = np.exp(rng.uniform(np.log(1e-4), np.log(5e-3), scores.size))
    eligible = np.ones(scores.size, dtype=bool)
    eligible[-1] = False
    p_max = float(costs.sum() / 3)
    prop = final_resolve(scores, costs, eligible, p_max)
    if n_positive <= EXACT_RESOLVE_MAX:
        ref = brute_force_optimum(scores, costs, eligible & (scores > 0.0), p_max)
    else:
        ref = swap_resolve(scores, costs, eligible, p_max)
    assert np.array_equal(prop.gates, ref.gates)
    assert not prop.gates[-3:].any()


def plain_swap_resolve(scores, costs, eligible, p_max):
    """`swap_resolve` with the swap pass as a nested loop over (selected,
    outside) pairs and `gate_cost` on every trial mask."""
    gates = greedy_allocate(scores, costs, eligible, p_max).gates.copy()
    singles = [i for i in range(scores.size) if eligible[i] and scores[i] > 0.0 and costs[i] <= p_max]
    if singles:
        s = min(singles, key=lambda i: (-scores[i], costs[i], i))
        if scores[s] > scores[gates].sum():
            gates = np.zeros_like(gates)
            gates[s] = True
    while True:
        selected = np.flatnonzero(gates)
        outside = np.flatnonzero(eligible & ~gates)
        best_gain = 0.0
        best_pair = None
        for s in selected:
            for u in outside:
                gain = scores[u] - scores[s]
                if gain <= best_gain:
                    continue
                trial = gates.copy()
                trial[s] = False
                trial[u] = True
                if gate_cost(trial, costs) <= p_max:
                    best_gain = gain
                    best_pair = (s, u)
        if best_pair is None:
            return gates
        gates[best_pair[0]] = False
        gates[best_pair[1]] = True


@st.composite
def swap_instances(draw):
    """Scores from a small set, so equal gains are common; ineligible units
    with a high or a NaN score; a budget equal to the cost of a drawn mask,
    so swaps that fit exactly, or miss by one rounding, are common."""
    n = draw(st.integers(1, 12))

    def draw_array(values):
        return np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))

    costs = draw_array([0.1, 0.2, 0.3, 0.7, 1.0])
    eligible = draw_array([True, True, True, False])
    scores = np.where(eligible, draw_array([-0.1, 0.0, 0.2, 0.3, 0.5, 1.0]), draw_array([np.nan, 5.0]))
    p_max = gate_cost(draw_array([True, False]), costs) + draw(st.sampled_from([0.0, 1e-17, -1e-17]))
    return scores, costs, eligible, p_max


# Random instances rarely reach a tie that the order of the swap candidates
# decides; in these two, breaking ties by outside id first ends elsewhere.
@example(instance=(
    np.array([0.3, 1.0, 0.0, 0.5, 1.0, 0.5, 1.0]),
    np.array([0.1, 0.7, 1.0, 0.2, 0.7, 0.3, 0.7]),
    np.ones(7, dtype=bool),
    1.7999999999999998,
))
@example(instance=(
    np.array([0.3, -0.1, 0.5, 0.5, 0.5, 0.0, np.nan, 0.5, 0.3, 0.5, np.nan]),
    np.array([0.2, 1.0, 0.7, 0.1, 0.7, 0.2, 0.7, 1.0, 0.3, 0.7, 0.3]),
    np.array([True] * 6 + [False] + [True] * 3 + [False]),
    1.7999999999999998,
))
@settings(deadline=None, max_examples=300)
@given(instance=swap_instances())
def test_swap_resolve_matches_nested_loop_reference(instance):
    prop = swap_resolve(*instance)
    assert np.array_equal(prop.gates, plain_swap_resolve(*instance))


def test_exact_resolve_decides_feasibility_by_gate_cost():
    # eight costs of 0.1: the subset sums add them to 0.7999999999999999, the
    # canonical budget check to 0.8, which exceeds this budget
    costs = np.full(8, 0.1)
    scores = np.linspace(1.0, 2.0, 8)
    p_max = 0.7999999999999999
    assert gate_cost(all_true(8), costs) > p_max
    for resolve in (final_resolve, brute_force_optimum):
        prop = resolve(scores, costs, all_true(8), p_max)
        assert prop.total_cost == gate_cost(prop.gates, costs) <= p_max
        assert list(prop.gates) == [False] + [True] * 7


# -- brute force oracle -------------------------------------------------------


def test_brute_force_empty_cases():
    prop = brute_force_optimum([-1.0, 0.0], [E3, E3], all_true(2), 1.0)
    assert not prop.gates.any() and prop.total_score == 0.0
    prop = brute_force_optimum([5.0], [2 * E3], all_true(1), 1 * E3)
    assert not prop.gates.any()


def test_brute_force_cap():
    n = 21
    with pytest.raises(TooLarge):
        brute_force_optimum(np.ones(n), np.full(n, E3), all_true(n), 1.0)


def test_brute_force_matches_itertools_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        scores = rng.uniform(0, 1, n)
        costs = np.exp(rng.uniform(np.log(1e-4), np.log(3e-3), n))
        p_max = float(rng.uniform(costs.min(), costs.sum()))
        best = 0.0
        for kset in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n + 1)
        ):
            mask = np.zeros(n, bool)
            mask[list(kset)] = True
            if gate_cost(mask, costs) <= p_max:
                best = max(best, scores[mask].sum())
        prop = brute_force_optimum(scores, costs, all_true(n), p_max)
        assert np.isclose(prop.total_score, best)


# -- properties ---------------------------------------------------------------


@settings(deadline=None, max_examples=150)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**31 - 1))
def test_half_approximation_guarantee(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0, 1, n)
    costs = np.exp(rng.uniform(np.log(1e-4), np.log(5e-3), n))
    p_max = float(rng.uniform(costs.min(), costs.sum()))
    exact = brute_force_optimum(scores, costs, all_true(n), p_max)
    for resolve in (final_resolve, swap_resolve):
        approx = resolve(scores, costs, all_true(n), p_max)
        if exact.total_score > 0:
            assert approx.total_score >= 0.5 * exact.total_score
        assert gate_cost(approx.gates, costs) <= p_max


@settings(deadline=None, max_examples=100)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**31 - 1))
@example(n=10, seed=3633)
@example(n=9, seed=8060126)
def test_budget_monotonicity(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0, 1, n)
    costs = np.exp(rng.uniform(np.log(1e-4), np.log(5e-3), n))
    budgets = np.sort(rng.uniform(costs.min(), costs.sum(), 4))
    values = [final_resolve(scores, costs, all_true(n), b).total_score for b in budgets]
    assert all(values[i + 1] >= values[i] - 1e-12 for i in range(3))


@settings(deadline=None, max_examples=100)
@given(n=st.integers(1, 10), t=st.floats(0.01, 50.0), seed=st.integers(0, 2**31 - 1))
def test_score_scale_invariance_of_selection(n, t, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0, 1, n)
    costs = np.exp(rng.uniform(np.log(1e-4), np.log(5e-3), n))
    p_max = float(rng.uniform(costs.min(), costs.sum()))
    base_g = greedy_allocate(scores, costs, all_true(n), p_max)
    scaled_g = greedy_allocate(scores * t, costs, all_true(n), p_max)
    assert np.array_equal(base_g.gates, scaled_g.gates)
    for resolve in (final_resolve, swap_resolve):
        base_f = resolve(scores, costs, all_true(n), p_max)
        scaled_f = resolve(scores * t, costs, all_true(n), p_max)
        assert np.array_equal(base_f.gates, scaled_f.gates)
