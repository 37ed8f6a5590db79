import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auditloop import (
    AllocatorParams,
    apply_hysteresis,
    brute_force_optimum,
    final_resolve,
    gate_cost,
    greedy_allocate,
    swap_resolve,
)
from auditloop.allocator import EXACT_RESOLVE_MAX, _Budget, fill
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
    gates = greedy_allocate(r, c, 4 * E3)
    assert list(gates) == [False, True, True]
    assert np.isclose(gate_cost(gates, c), 4 * E3)
    assert r[gates].sum() == 11.0
    assert r[brute_force_optimum(r, c, all_true(3), 4 * E3)].sum() == 11.0


def test_greedy_negative_guard():
    assert not greedy_allocate([-1.0, -2.0], [E3, E3], 1.0).any()


def test_greedy_singleton():
    assert list(greedy_allocate([5.0], [2 * E3], 2 * E3)) == [True]


def test_greedy_skips_oversized_then_continues():
    r = np.array([10.0, 4.0, 3.0])
    c = np.array([5 * E3, 4 * E3, 1 * E3])
    # takes unit 0 (density 2.0), skips unit 1 (doesn't fit), takes unit 2
    assert list(greedy_allocate(r, c, 6 * E3)) == [True, False, True]


def test_greedy_leaves_zero_score_units_off():
    # 0.0 is the score of a unit the engine has not audited yet
    assert list(greedy_allocate([0.0, 1.0, 0.0], [E3, E3, E3], 1.0)) == [False, True, False]


def test_greedy_errors():
    with pytest.raises(LengthMismatch):
        greedy_allocate([1.0], [E3, E3], 1.0)
    with pytest.raises(NonPositiveCost):
        greedy_allocate([1.0, 1.0], [E3, 0.0], 1.0)
    with pytest.raises(InvalidParams):
        greedy_allocate([1.0, np.nan], [E3, E3], 1.0)


SOLVERS = {
    "greedy": lambda s, c: greedy_allocate(s, c, 0.5),
    "hysteresis": lambda s, c: apply_hysteresis([False, False], [True, True], s, c, 0.5, 0.0),
    "final": lambda s, c: final_resolve(s, c, 0.5),
    "swap": lambda s, c: swap_resolve(s, c, 0.5),
    "brute-force": lambda s, c: brute_force_optimum(s, c, [True, True], 0.5),
}


@pytest.mark.parametrize("cost", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("solve", SOLVERS.values(), ids=SOLVERS.keys())
def test_solvers_reject_non_finite_costs(solve, cost):
    # A NaN cost passes a `costs <= 0` test, and an infinite one makes the budget band infinite.
    with pytest.raises(NonPositiveCost):
        solve([1.0, 2.0], [cost, 0.1])


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
    "start, order, costs, p_max, error, match",
    [
        ([True, False, False], [1, 0], [0.1, 0.2, 0.3], 10.0, InvalidParams, "unit 0 is already on"),
        ([False, False, False], [1, 2, 1], [0.1, 0.2, 0.3], 10.0, InvalidParams, "unit 1 appears twice"),
        # The first 2 does not fit, so the repeat never meets a unit that is on.
        ([False, False, False], [2, 0, 2], [0.1, 0.2, 5.0], 1.0, InvalidParams, "unit 2 appears twice"),
        # -1 would index unit 2 a second time.
        ([False, False, False], [-1, 2], [0.1, 0.2, 0.3], 10.0, InvalidParams, "unit -1 is not a unit id"),
        ([False, False, False], [5], [0.1, 0.2, 0.3], 1.0, InvalidParams, "unit 5 is not a unit id"),
        ([False, False, False], [0], [0.1, 0.2], 1.0, LengthMismatch, "one entry per unit"),
        ([False, False, False], [0], [0.1, 0.2, 0.3, 0.4], 1.0, LengthMismatch, "one entry per unit"),
    ],
    ids=["unit-already-on", "unit-repeated", "rejected-unit-repeated", "negative-unit-id", "unit-id-past-the-end",
         "short-costs", "long-costs"],
)
def test_fill_requires_each_unit_of_order_off_and_once(start, order, costs, p_max, error, match):
    # The running total counts each unit of `order` once, from off, at its own cost.
    with pytest.raises(error, match=match):
        fill(np.array(start), np.array(order), np.array(costs), p_max)


def test_fill_of_an_empty_order_returns_a_copy_of_gates():
    # The FSM calls `fill` on every ready vote, even when no ready vote is an activation.
    start = np.array([True, False, True])
    gates, rejected = fill(start, np.array([], dtype=np.intp), np.array([0.1, 0.2, 0.3]), 0.5)
    assert np.array_equal(gates, start) and gates is not start
    assert rejected == []
    with pytest.raises(LengthMismatch, match="one entry per unit"):
        fill(start, [], np.array([0.1, 0.2]), 0.5)


def fill_without_stop(gates, order, costs, p_max):
    """`fill` as a loop that asks `_Budget.fits` about every unit of `order`."""
    gates, costs = np.array(gates, dtype=bool), np.asarray(costs, dtype=float)
    budget, total, rejected = _Budget(costs, p_max), gate_cost(gates, costs), []
    for i in order:
        trial = gates.copy()
        trial[i] = True
        if budget.fits(total + float(costs[i]), lambda _: trial):
            gates, total = trial, total + float(costs[i])
        else:
            rejected.append(i)
    return gates, rejected


def assert_fill_matches_the_loop_without_stop(start, order, costs, p_max):
    gates, rejected = fill(start, np.array(order, dtype=np.intp), costs, p_max)
    want_gates, want_rejected = fill_without_stop(start, order, costs, p_max)
    assert np.array_equal(gates, want_gates)
    assert rejected == want_rejected


@settings(deadline=None, max_examples=300)
@given(data=st.data(), n=st.integers(1, 40))
def test_fill_stops_early_only_where_every_later_unit_is_rejected(data, n):
    # Tie-heavy costs, and budgets at a drawn subset's cost, a few ulps
    # either side of it (inside the band), or well clear of it.
    costs = np.array(data.draw(st.lists(st.sampled_from([1e-3, 0.1, 0.2, 0.3, 0.7, 1.0, 1.0 / 3]), min_size=n,
                                        max_size=n)))
    start = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    target = start | np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    ulps = data.draw(st.sampled_from([0, 1, -1, 4, -4, 10**6, -(10**6)]))
    p_max = max(gate_cost(target, costs) * (1.0 + ulps * np.finfo(float).eps), 1e-12)
    order = [i for i in data.draw(st.permutations(range(n))) if not start[i]]
    assert_fill_matches_the_loop_without_stop(start, order, costs, p_max)


@pytest.mark.parametrize("order", list(itertools.permutations(range(4))), ids=str)
@pytest.mark.parametrize("costs", [[0.1, 0.2, 0.3, 0.7], [0.3, 0.2, 0.1, 0.7]], ids=["0.1-first", "0.3-first"])
def test_fill_with_running_totals_inside_the_band(costs, order):
    # 0.1 + 0.2 + 0.3 is 0.6000000000000001 in one order and 0.6 in another,
    # both inside the band, where gate_cost decides: it keeps all three only
    # when unit 0 costs 0.3. The 0.7 is rejected at each place in the order.
    assert_fill_matches_the_loop_without_stop(np.zeros(4, bool), list(order), np.array(costs), 0.6)
    gates, rejected = fill(np.zeros(4, bool), np.array(order), np.array(costs), 0.6)
    assert 3 in rejected and len(rejected) == (1 if costs[0] == 0.3 else 2)


def test_fill_keeps_a_cheap_unit_after_expensive_rejections():
    costs = np.array([0.5, 0.9, 0.8, 0.05, 0.7])
    gates, rejected = fill(np.zeros(5, bool), np.arange(5), costs, 0.6)
    assert gates.nonzero()[0].tolist() == [0, 3] and rejected == [1, 2, 4]
    assert_fill_matches_the_loop_without_stop(np.zeros(5, bool), list(range(5)), costs, 0.6)


def test_fill_rejects_the_rest_of_order_in_one_step(monkeypatch):
    # Once the first unit fills the budget, no later unit is tried one by one.
    calls = []
    fits = _Budget.fits
    monkeypatch.setattr(_Budget, "fits", lambda self, *args: calls.append(args[0]) or fits(self, *args))
    gates, rejected = fill(np.zeros(1000, bool), np.arange(1000), np.ones(1000), 1.0)
    assert gates.nonzero()[0].tolist() == [0] and rejected == list(range(1, 1000))
    assert calls == [1.0, 2.0]


def test_replacement_below_margin_keeps_incumbent():
    scores = np.array([0.50, 0.52])
    costs = np.array([E3, E3])
    current = np.array([True, False])
    prop = np.array([False, True])
    out = apply_hysteresis(current, prop, scores, costs, E3, mu_eff=0.05)
    assert list(out) == [True, False]


def test_replacement_above_margin_adopts_newcomer():
    scores = np.array([0.50, 0.56])
    costs = np.array([E3, E3])
    current = np.array([True, False])
    prop = np.array([False, True])
    out = apply_hysteresis(current, prop, scores, costs, E3, mu_eff=0.05)
    assert list(out) == [False, True]


def test_zero_margin_is_identity_on_swap():
    scores = np.array([0.50, 0.52])
    costs = np.array([E3, E3])
    current = np.array([True, False])
    prop = np.array([False, True])
    out = apply_hysteresis(current, prop, scores, costs, E3, mu_eff=0.0)
    assert list(out) == list(prop)


def test_pure_activation_passes_through():
    scores = np.array([0.5, 0.9])
    costs = np.array([E3, E3])
    current = np.array([True, False])
    prop = np.array([True, True])
    out = apply_hysteresis(current, prop, scores, costs, 2 * E3, mu_eff=10.0)
    assert list(out) == [True, True]


def test_pure_deactivation_of_harmful_unit_passes_through():
    scores = np.array([-0.5, 0.9])
    costs = np.array([E3, E3])
    current = np.array([True, True])
    prop = np.array([False, True])
    out = apply_hysteresis(current, prop, scores, costs, 2 * E3, mu_eff=10.0)
    assert list(out) == [False, True]


def test_multi_eviction_requires_sum_margin():
    # newcomer must beat the sum of both displaced incumbents
    scores = np.array([2.0, 2.0, 3.0])
    costs = np.array([1.5 * E3, 1.5 * E3, 3 * E3])
    current = np.array([True, True, False])
    prop = np.array([False, False, True])
    out = apply_hysteresis(current, prop, scores, costs, 3 * E3, mu_eff=0.0)
    assert list(out) == [True, True, False]  # 3.0 < 2.0 + 2.0: rejected
    scores2 = np.array([2.0, 2.0, 4.5])
    out2 = apply_hysteresis(current, prop, scores2, costs, 3 * E3, mu_eff=0.0)
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
    prop = greedy_allocate(scores, costs, p_max)
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
    out = apply_hysteresis(current, prop_gates, scores, costs, p_max, mu_eff)
    assert np.array_equal(out, plain_hysteresis(current, prop_gates, scores, costs, p_max, mu_eff))


# -- final re-solve ----------------------------------------------------------


def test_final_resolve_swap_improves_over_greedy():
    r = np.array([8.0, 9.0])
    c = np.array([4 * E3, 5 * E3])
    for resolve in (final_resolve, swap_resolve):
        gates = resolve(r, c, 5 * E3)
        assert list(gates) == [False, True]
        assert r[gates].sum() == 9.0
    assert r[brute_force_optimum(r, c, all_true(2), 5 * E3)].sum() == 9.0


def test_final_resolve_greedy_already_optimal():
    r = np.array([10.0, 6.0, 6.0])
    c = np.array([5 * E3, 3 * E3, 3 * E3])
    for resolve in (final_resolve, swap_resolve):
        gates = resolve(r, c, 6 * E3)
        assert list(gates) == [False, True, True]
        assert r[gates].sum() == 12.0
    assert r[brute_force_optimum(r, c, all_true(3), 6 * E3)].sum() == 12.0


def test_final_resolve_uses_best_singleton():
    # greedy by density picks the two cheap units (score 5), but one big unit scores 8
    r = np.array([8.0, 3.0, 2.0])
    c = np.array([5 * E3, 1 * E3, 1 * E3])
    for resolve in (final_resolve, swap_resolve):
        assert r[resolve(r, c, 5 * E3)].sum() >= 8.0


@pytest.mark.parametrize("n_positive", [EXACT_RESOLVE_MAX, EXACT_RESOLVE_MAX + 1])
def test_final_resolve_exact_up_to_cap_then_swap(n_positive):
    # the exact regime counts units with positive scores only
    rng = np.random.default_rng(n_positive)
    scores = np.concatenate([rng.uniform(0.1, 1.0, n_positive), [0.0, -0.5]])
    costs = np.exp(rng.uniform(np.log(1e-4), np.log(5e-3), scores.size))
    p_max = float(costs.sum() / 3)
    gates = final_resolve(scores, costs, p_max)
    if n_positive <= EXACT_RESOLVE_MAX:
        ref = brute_force_optimum(scores, costs, scores > 0.0, p_max)
    else:
        ref = swap_resolve(scores, costs, p_max)
    assert np.array_equal(gates, ref)
    assert not gates[-2:].any()


def plain_swap_resolve(scores, costs, p_max):
    """`swap_resolve` with the swap pass as a nested loop over (selected,
    outside) pairs and `gate_cost` on every trial mask."""
    gates = greedy_allocate(scores, costs, p_max).copy()
    singles = [i for i in range(scores.size) if scores[i] > 0.0 and costs[i] <= p_max]
    if singles:
        s = min(singles, key=lambda i: (-scores[i], costs[i], i))
        if scores[s] > scores[gates].sum():
            gates = np.zeros_like(gates)
            gates[s] = True
    while True:
        selected = np.flatnonzero(gates)
        outside = np.flatnonzero(~gates)
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
    """Scores from a small set, so equal gains are common, with zero and
    negative scores among them; a budget equal to the cost of a drawn mask,
    so swaps that fit exactly, or miss by one rounding, are common."""
    n = draw(st.integers(1, 12))

    def draw_array(values):
        return np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))

    costs = draw_array([0.1, 0.2, 0.3, 0.7, 1.0])
    scores = draw_array([-0.1, 0.0, 0.2, 0.3, 0.5, 1.0])
    p_max = gate_cost(draw_array([True, False]), costs) + draw(st.sampled_from([0.0, 1e-17, -1e-17]))
    return scores, costs, p_max


# Random instances rarely reach a tie that the order of the swap candidates
# decides; in these two, breaking ties by outside id first ends elsewhere.
@example(instance=(
    np.array([0.3, 1.0, 0.0, 0.5, 1.0, 0.5, 1.0]),
    np.array([0.1, 0.7, 1.0, 0.2, 0.7, 0.3, 0.7]),
    1.7999999999999998,
))
@example(instance=(
    np.array([0.3, -0.1, 0.5, 0.5, 0.5, 0.0, 0.0, 0.5, 0.3, 0.5, 0.0]),
    np.array([0.2, 1.0, 0.7, 0.1, 0.7, 0.2, 0.7, 1.0, 0.3, 0.7, 0.3]),
    1.7999999999999998,
))
@settings(deadline=None, max_examples=300)
@given(instance=swap_instances())
def test_swap_resolve_matches_nested_loop_reference(instance):
    assert np.array_equal(swap_resolve(*instance), plain_swap_resolve(*instance))


def test_exact_resolve_decides_feasibility_by_gate_cost():
    # eight costs of 0.1: the subset sums add them to 0.7999999999999999, the
    # canonical budget check to 0.8, which exceeds this budget
    costs = np.full(8, 0.1)
    scores = np.linspace(1.0, 2.0, 8)
    p_max = 0.7999999999999999
    assert gate_cost(all_true(8), costs) > p_max
    for gates in (final_resolve(scores, costs, p_max), brute_force_optimum(scores, costs, all_true(8), p_max)):
        assert gate_cost(gates, costs) <= p_max
        assert list(gates) == [False] + [True] * 7


# -- brute force oracle -------------------------------------------------------


def test_brute_force_empty_cases():
    assert not brute_force_optimum([-1.0, 0.0], [E3, E3], all_true(2), 1.0).any()
    assert not brute_force_optimum([5.0], [2 * E3], all_true(1), 1 * E3).any()


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
        assert np.isclose(scores[brute_force_optimum(scores, costs, all_true(n), p_max)].sum(), best)


# -- properties ---------------------------------------------------------------


@settings(deadline=None, max_examples=150)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**31 - 1))
def test_half_approximation_guarantee(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0, 1, n)
    costs = np.exp(rng.uniform(np.log(1e-4), np.log(5e-3), n))
    p_max = float(rng.uniform(costs.min(), costs.sum()))
    exact = scores[brute_force_optimum(scores, costs, all_true(n), p_max)].sum()
    for resolve in (final_resolve, swap_resolve):
        approx = resolve(scores, costs, p_max)
        if exact > 0:
            assert scores[approx].sum() >= 0.5 * exact
        assert gate_cost(approx, costs) <= p_max


@settings(deadline=None, max_examples=100)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**31 - 1))
@example(n=10, seed=3633)
@example(n=9, seed=8060126)
def test_budget_monotonicity(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0, 1, n)
    costs = np.exp(rng.uniform(np.log(1e-4), np.log(5e-3), n))
    budgets = np.sort(rng.uniform(costs.min(), costs.sum(), 4))
    values = [scores[final_resolve(scores, costs, b)].sum() for b in budgets]
    assert all(values[i + 1] >= values[i] - 1e-12 for i in range(3))


@settings(deadline=None, max_examples=100)
@given(n=st.integers(1, 10), t=st.floats(0.01, 50.0), seed=st.integers(0, 2**31 - 1))
def test_score_scale_invariance_of_selection(n, t, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0, 1, n)
    costs = np.exp(rng.uniform(np.log(1e-4), np.log(5e-3), n))
    p_max = float(rng.uniform(costs.min(), costs.sum()))
    for solve in (greedy_allocate, final_resolve, swap_resolve):
        assert np.array_equal(solve(scores, costs, p_max), solve(scores * t, costs, p_max))
