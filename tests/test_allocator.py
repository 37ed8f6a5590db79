import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auditloop import (
    AllocatorParams,
    Budget,
    apply_hysteresis,
    brute_force_optimum,
    final_resolve,
    gate_cost,
    greedy_allocate,
    swap_resolve,
)
from auditloop.allocator import EXACT_RESOLVE_MAX, _fill, fill
from auditloop.errors import InvalidParams, LengthMismatch, NonPositiveCost, TooLarge

E3 = 1e-3
B = Budget.from_costs


def all_true(n):
    return np.ones(n, dtype=bool)


def test_param_validation():
    with pytest.raises(InvalidParams):
        AllocatorParams(p_max=0.0)
    with pytest.raises(InvalidParams):
        AllocatorParams(mu_eff=-1.0)


def test_budget_counts_each_cost_at_its_exact_value():
    # 0.1 is 3602879701896397 / 2**55 and 0.25 is 2**53 / 2**55, so they sum
    # to 12610078956637389 / 2**55. Float addition rounds that to 0.35, which
    # is 12610078956637388 / 2**55: the pair fits 0.35 in float, but not exactly.
    budget = B([0.1, 0.25], 0.35)
    assert budget.counts.tolist() == [3602879701896397, 2**53] and budget.costs.tolist() == [0.1, 0.25]
    assert budget.capacity == 12610078956637388
    assert 0.1 + 0.25 == 0.35 and not budget.fits([True, True])
    # The capacity is capped at the total count, and counts must fit an int64.
    assert Budget([3, 4], 10, 1e300).capacity == 7
    with pytest.raises(InvalidParams, match="past an int64"):
        Budget([2**62, 2**62], 1, 1.0)
    with pytest.raises(NonPositiveCost):
        Budget([3, 0], 10, 0.5)


def test_greedy_density_with_tie_break():
    # densities (3.0, 3.0, 2.5); tie breaks to the cheaper unit 1; {1,2} is optimal
    r = np.array([9.0, 6.0, 5.0])
    c = np.array([3 * E3, 2 * E3, 2 * E3])
    gates = greedy_allocate(r, B(c, 4 * E3))
    assert list(gates) == [False, True, True]
    assert np.isclose(gate_cost(gates, c), 4 * E3)
    assert r[gates].sum() == 11.0
    assert r[brute_force_optimum(r, B(c, 4 * E3), all_true(3))].sum() == 11.0


def test_greedy_negative_guard():
    assert not greedy_allocate([-1.0, -2.0], B([E3, E3], 1.0)).any()


def test_greedy_singleton():
    assert list(greedy_allocate([5.0], B([2 * E3], 2 * E3))) == [True]


def test_greedy_skips_oversized_then_continues():
    r = np.array([10.0, 4.0, 3.0])
    c = np.array([5 * E3, 4 * E3, 1 * E3])
    # takes unit 0 (density 2.0), skips unit 1 (doesn't fit), takes unit 2
    assert list(greedy_allocate(r, B(c, 6 * E3))) == [True, False, True]


def test_greedy_leaves_zero_score_units_off():
    # 0.0 is the score of a unit the engine has not audited yet
    assert list(greedy_allocate([0.0, 1.0, 0.0], B([E3, E3, E3], 1.0))) == [False, True, False]


def test_greedy_errors():
    with pytest.raises(LengthMismatch):
        greedy_allocate([1.0], B([E3, E3], 1.0))
    with pytest.raises(NonPositiveCost):
        greedy_allocate([1.0, 1.0], B([E3, 0.0], 1.0))
    with pytest.raises(InvalidParams):
        greedy_allocate([1.0, np.nan], B([E3, E3], 1.0))


SOLVERS = {
    "greedy": lambda s, c: greedy_allocate(s, B(c, 0.5)),
    "hysteresis": lambda s, c: apply_hysteresis([False, False], [True, True], s, B(c, 0.5), 0.0),
    "final": lambda s, c: final_resolve(s, B(c, 0.5)),
    "swap": lambda s, c: swap_resolve(s, B(c, 0.5)),
    "brute-force": lambda s, c: brute_force_optimum(s, B(c, 0.5), [True, True]),
}


@pytest.mark.parametrize("cost", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("solve", SOLVERS.values(), ids=SOLVERS.keys())
def test_solvers_reject_non_finite_costs(solve, cost):
    # Every solver takes a Budget, which checks the costs once, when it is
    # built: a NaN cost passes a `costs <= 0` test and has no integer count.
    with pytest.raises(NonPositiveCost):
        solve([1.0, 2.0], [cost, 0.1])


# -- fill and hysteresis --------------------------------------------------------


def plain_fits(gates, counts, capacity):
    return sum(c for c, g in zip(counts, gates) if g) <= capacity


def plain_fill(gates, order, counts, capacity):
    """The add-while-it-fits loop on Python ints, with no early stop."""
    gates, rejected = list(gates), []
    for i in order:
        gates[i] = True
        if not plain_fits(gates, counts, capacity):
            gates[i] = False
            rejected.append(i)
    return gates, rejected


def plain_hysteresis(current, prop, scores, counts, costs, capacity, mu_eff):
    """The margin guard on Python ints, testing every trial set in full."""
    gates = list(current)
    evictable = []
    for j in range(len(gates)):
        if current[j] and not prop[j]:
            if scores[j] <= 0.0:
                gates[j] = False
            else:
                evictable.append(j)
    evictable.sort(key=lambda j: (scores[j], j))
    adds = [k for k in range(len(gates)) if prop[k] and not current[k]]
    for k in sorted(adds, key=lambda k: (-(scores[k] / costs[k]), costs[k], k)):
        trial = gates.copy()
        trial[k] = True
        if plain_fits(trial, counts, capacity):
            gates = trial
            continue
        needed = []
        for j in evictable:
            needed.append(j)
            trial[j] = False
            if plain_fits(trial, counts, capacity):
                break
        if not plain_fits(trial, counts, capacity):
            continue
        if scores[k] - sum(scores[j] for j in needed) > mu_eff:
            gates = trial
            for j in needed:
                evictable.remove(j)
    return gates


@st.composite
def integer_instances(draw, max_n=12):
    """Tie-heavy counts, scores with zero and negative ones among them, and a
    capacity at the count of a drawn set, or one either side of it; the scale
    is a power of two, so p_max = capacity / scale is exact."""
    n = draw(st.integers(1, max_n))

    def draw_list(values):
        return draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))

    counts = draw_list([1, 2, 3, 3, 5, 8])
    scores = np.array(draw_list([-0.1, 0.0, 0.2, 0.3, 0.5, 1.0]))
    target = draw_list([True, False])
    capacity = max(0, sum(c for c, g in zip(counts, target) if g) + draw(st.sampled_from([-1, 0, 1])))
    budget = Budget(counts, 64, capacity / 64)
    assert budget.capacity == min(capacity, sum(counts))
    return scores, budget


def draw_masks(data, n, k):
    return (np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))) for _ in range(k))


@settings(deadline=None, max_examples=200)
@given(instance=integer_instances(), data=st.data())
def test_fill_is_the_plain_add_while_it_fits_loop(instance, data):
    # `fill` adds each unit of `order` while the integer total fits, as the
    # plain loop does, and leaves its input mask as it was.
    scores, budget = instance
    n = scores.size
    (start,) = draw_masks(data, n, 1)
    order = [i for i in data.draw(st.permutations(range(n))) if not start[i]]
    before = start.copy()
    gates, rejected = fill(start, np.array(order, dtype=np.intp), budget)
    assert np.array_equal(start, before)
    assert (gates.tolist(), rejected) == plain_fill(start, order, budget.counts.tolist(), budget.capacity)
    assert budget.fits(gates) or not budget.fits(start)
    assert set(rejected) == set(order) - set(np.flatnonzero(gates & ~start).tolist())

    # Greedy is the same loop over the positive-score units in density order.
    costs = budget.costs.tolist()
    dens = sorted((i for i in range(n) if scores[i] > 0.0), key=lambda i: (-(scores[i] / costs[i]), costs[i], i))
    greedy = greedy_allocate(scores, budget)
    assert greedy.tolist() == plain_fill([False] * n, dens, budget.counts.tolist(), budget.capacity)[0]
    assert budget.fits(greedy)


@settings(deadline=None, max_examples=300)
@given(instance=integer_instances(max_n=40), data=st.data())
def test_fill_matches_the_plain_loop_where_room_runs_out_part_way(instance, data):
    # Orders of up to 40 units, with tie-heavy counts and a capacity at a
    # drawn set's count or one either side of it, so orders whose room runs
    # out part-way are common: `fill` keeps and rejects as the plain loop does.
    scores, budget = instance
    n = scores.size
    (start,) = draw_masks(data, n, 1)
    order = [i for i in data.draw(st.permutations(range(n))) if not start[i]]
    gates, rejected = fill(start, np.array(order, dtype=np.intp), budget)
    assert (gates.tolist(), rejected) == plain_fill(start, order, budget.counts.tolist(), budget.capacity)


def one_pass_fill(gates, order, counts, capacity):
    """One walk over the order that keeps each unit whose count fits the room
    left, with no early stop; also returns whether a stop after a kept unit
    that leaves less room than the smallest count would skip part of it."""
    gates, rejected = list(gates), []
    room = capacity - sum(c for c, g in zip(counts, gates) if g)
    stops = False
    for pos, i in enumerate(order):
        if counts[i] <= room:
            gates[i] = True
            room -= counts[i]
            stops |= room < min(counts) and pos < len(order) - 1
        else:
            rejected.append(i)
    return gates, rejected, stops


@st.composite
def fill_instances(draw):
    """Counts, a capacity of at most their sum, a start mask and an order of
    the units off in it; small capacities and large smallest counts make the
    room drop below the smallest count part-way through many orders."""
    n = draw(st.integers(1, 30))
    low = draw(st.integers(1, 20))
    counts = draw(st.lists(st.integers(low, low + draw(st.integers(0, 40))), min_size=n, max_size=n))
    capacity = draw(st.integers(0, sum(counts)))
    start = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    order = [i for i in draw(st.permutations(range(n))) if not start[i]]
    return counts, capacity, start, order


def test_fill_stop_keeps_the_gates_and_rejections_of_the_one_pass_walk():
    stops = []

    @settings(deadline=None, max_examples=400)
    @given(instance=fill_instances())
    def check(instance):
        counts, capacity, start, order = instance
        budget = Budget(counts, 1 << 40, capacity / (1 << 40))
        assert budget.capacity == capacity and budget.smallest == min(counts)
        gates, rejected = _fill(np.array(start), np.array(order, dtype=np.intp), budget)
        want_gates, want_rejected, stop = one_pass_fill(start, order, counts, capacity)
        assert (gates.tolist(), rejected) == (want_gates, want_rejected)
        stops.append(stop)

    check()
    assert any(stops) and not all(stops)


@settings(deadline=None, max_examples=300)
@given(instance=integer_instances(), data=st.data())
def test_hysteresis_matches_the_plain_integer_loop(instance, data):
    # `apply_hysteresis` equals `plain_hysteresis`, its loop on Python-int
    # counts, with trials that fit exactly or miss by one count common, and
    # keeps a set within the budget unless the current set is over it. One
    # proposal in four is the current gates or only drops of them, which take
    # the early return for a proposal without activations.
    scores, budget = instance
    current, prop = draw_masks(data, scores.size, 2)
    kind = data.draw(st.sampled_from(["free"] * 6 + ["same", "drops"]))
    if kind == "same":
        prop = current.copy()
    elif kind == "drops":
        prop &= current
    mu_eff = data.draw(st.sampled_from([0.0, 0.1, 0.5]))
    out = apply_hysteresis(current, prop, scores, budget, mu_eff)
    counts, costs = budget.counts.tolist(), budget.costs.tolist()
    assert out.tolist() == plain_hysteresis(current, prop, scores, counts, costs, budget.capacity, mu_eff)
    assert budget.fits(out) or not budget.fits(current)
    assert out is not current


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
        ([False, False, False], [0], [0.1, 0.2], 1.0, LengthMismatch, "one count per unit"),
        ([False, False, False], [0], [0.1, 0.2, 0.3, 0.4], 1.0, LengthMismatch, "one count per unit"),
    ],
    ids=["unit-already-on", "unit-repeated", "rejected-unit-repeated", "negative-unit-id", "unit-id-past-the-end",
         "short-costs", "long-costs"],
)
def test_fill_requires_each_unit_of_order_off_and_once(start, order, costs, p_max, error, match):
    # The running total counts each unit of `order` once, from off, at its own count.
    with pytest.raises(error, match=match):
        fill(np.array(start), np.array(order), B(costs, p_max))


def test_fill_of_an_empty_order_returns_a_copy_of_gates():
    # The FSM fills on every ready vote, even when no ready vote is an activation.
    start = np.array([True, False, True])
    gates, rejected = fill(start, np.array([], dtype=np.intp), B([0.1, 0.2, 0.3], 0.5))
    assert np.array_equal(gates, start) and gates is not start
    assert rejected == []
    with pytest.raises(LengthMismatch, match="one count per unit"):
        fill(start, [], B([0.1, 0.2], 0.5))


@pytest.mark.parametrize("order", list(itertools.permutations(range(4))), ids=str)
@pytest.mark.parametrize("costs", [[0.1, 0.2, 0.3, 0.7], [0.3, 0.2, 0.1, 0.7]], ids=["0.1-first", "0.3-first"])
def test_fill_with_running_totals_inside_the_band(costs, order):
    # Totals within rounding of p_max: 0.1 + 0.2 + 0.3 adds to
    # 0.6000000000000001 in one float order and to 0.6 in another. The budget
    # counts the floats' exact values, at which the three sum past 0.6, so in
    # every order `fill` rejects the third of them, as it does the 0.7.
    budget = B(costs, 0.6)
    gates, rejected = fill(np.zeros(4, bool), np.array(order), budget)
    third = [i for i in order if i != 3][2]
    assert rejected == [i for i in order if i in (3, third)]
    assert budget.fits(gates) and not budget.fits([True, True, True, False])


def test_fill_keeps_a_cheap_unit_after_expensive_rejections():
    budget = B([0.5, 0.9, 0.8, 0.05, 0.7], 0.6)
    gates, rejected = fill(np.zeros(5, bool), np.arange(5), budget)
    assert gates.nonzero()[0].tolist() == [0, 3] and rejected == [1, 2, 4]
    assert (gates.tolist(), rejected) == plain_fill([False] * 5, range(5), budget.counts.tolist(), budget.capacity)


def test_replacement_below_margin_keeps_incumbent():
    scores = np.array([0.50, 0.52])
    costs = np.array([E3, E3])
    current = np.array([True, False])
    prop = np.array([False, True])
    out = apply_hysteresis(current, prop, scores, B(costs, E3), mu_eff=0.05)
    assert list(out) == [True, False]


def test_replacement_above_margin_adopts_newcomer():
    scores = np.array([0.50, 0.56])
    costs = np.array([E3, E3])
    current = np.array([True, False])
    prop = np.array([False, True])
    out = apply_hysteresis(current, prop, scores, B(costs, E3), mu_eff=0.05)
    assert list(out) == [False, True]


def test_zero_margin_is_identity_on_swap():
    scores = np.array([0.50, 0.52])
    costs = np.array([E3, E3])
    current = np.array([True, False])
    prop = np.array([False, True])
    out = apply_hysteresis(current, prop, scores, B(costs, E3), mu_eff=0.0)
    assert list(out) == list(prop)


def test_pure_activation_passes_through():
    scores = np.array([0.5, 0.9])
    costs = np.array([E3, E3])
    current = np.array([True, False])
    prop = np.array([True, True])
    out = apply_hysteresis(current, prop, scores, B(costs, 2 * E3), mu_eff=10.0)
    assert list(out) == [True, True]


def test_pure_deactivation_of_harmful_unit_passes_through():
    scores = np.array([-0.5, 0.9])
    costs = np.array([E3, E3])
    current = np.array([True, True])
    prop = np.array([False, True])
    out = apply_hysteresis(current, prop, scores, B(costs, 2 * E3), mu_eff=10.0)
    assert list(out) == [False, True]


def test_multi_eviction_requires_sum_margin():
    # newcomer must beat the sum of both displaced incumbents
    scores = np.array([2.0, 2.0, 3.0])
    costs = np.array([1.5 * E3, 1.5 * E3, 3 * E3])
    current = np.array([True, True, False])
    prop = np.array([False, False, True])
    out = apply_hysteresis(current, prop, scores, B(costs, 3 * E3), mu_eff=0.0)
    assert list(out) == [True, True, False]  # 3.0 < 2.0 + 2.0: rejected
    scores2 = np.array([2.0, 2.0, 4.5])
    out2 = apply_hysteresis(current, prop, scores2, B(costs, 3 * E3), mu_eff=0.0)
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
    budget = B(costs, float(rng.uniform(costs.min(), costs.sum())))
    # current: a random feasible set
    current = np.zeros(n, dtype=bool)
    for i in rng.permutation(n):
        current[i] = True
        if not budget.fits(current):
            current[i] = False
    prop = greedy_allocate(scores, budget)
    out = apply_hysteresis(current, prop, scores, budget, mu_eff=0.0)
    assert budget.fits(out)
    # with zero margin the output never scores below keeping the current set
    assert scores[out].sum() >= scores[current].sum() - 1e-12


# -- final re-solve ----------------------------------------------------------


def test_final_resolve_swap_improves_over_greedy():
    r = np.array([8.0, 9.0])
    c = np.array([4 * E3, 5 * E3])
    for resolve in (final_resolve, swap_resolve):
        gates = resolve(r, B(c, 5 * E3))
        assert list(gates) == [False, True]
        assert r[gates].sum() == 9.0
    assert r[brute_force_optimum(r, B(c, 5 * E3), all_true(2))].sum() == 9.0


def test_final_resolve_greedy_already_optimal():
    r = np.array([10.0, 6.0, 6.0])
    c = np.array([5 * E3, 3 * E3, 3 * E3])
    for resolve in (final_resolve, swap_resolve):
        gates = resolve(r, B(c, 6 * E3))
        assert list(gates) == [False, True, True]
        assert r[gates].sum() == 12.0
    assert r[brute_force_optimum(r, B(c, 6 * E3), all_true(3))].sum() == 12.0


def test_final_resolve_uses_best_singleton():
    # greedy by density picks the two cheap units (score 5), but one big unit scores 8
    r = np.array([8.0, 3.0, 2.0])
    c = np.array([5 * E3, 1 * E3, 1 * E3])
    for resolve in (final_resolve, swap_resolve):
        assert r[resolve(r, B(c, 5 * E3))].sum() >= 8.0


@pytest.mark.parametrize("n_positive", [EXACT_RESOLVE_MAX, EXACT_RESOLVE_MAX + 1])
def test_final_resolve_exact_up_to_cap_then_swap(n_positive):
    # the exact regime counts units with positive scores only
    rng = np.random.default_rng(n_positive)
    scores = np.concatenate([rng.uniform(0.1, 1.0, n_positive), [0.0, -0.5]])
    costs = np.exp(rng.uniform(np.log(1e-4), np.log(5e-3), scores.size))
    budget = B(costs, float(costs.sum() / 3))
    gates = final_resolve(scores, budget)
    if n_positive <= EXACT_RESOLVE_MAX:
        ref = brute_force_optimum(scores, budget, scores > 0.0)
    else:
        ref = swap_resolve(scores, budget)
    assert np.array_equal(gates, ref)
    assert not gates[-2:].any()


def plain_swap_resolve(scores, budget):
    """`swap_resolve` with the swap pass as a nested loop over (selected,
    outside) pairs and the budget's rule on every trial mask."""
    gates = greedy_allocate(scores, budget).copy()
    counts, costs = budget.counts.tolist(), budget.costs
    singles = [i for i in range(scores.size) if scores[i] > 0.0 and counts[i] <= budget.capacity]
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
                if budget.fits(trial):
                    best_gain = gain
                    best_pair = (s, u)
        if best_pair is None:
            return gates
        gates[best_pair[0]] = False
        gates[best_pair[1]] = True


# Random instances rarely reach a tie that the order of the swap candidates
# decides; in these two, breaking ties by outside id first ends elsewhere
# ({0, 1} and {0, 2} in place of {2, 3} and {3, 4}).
@example(instance=(np.array([0.75, 0.75, 0.5, 1.0]), Budget([2, 2, 1, 3], 64, 4 / 64)))
@example(instance=(np.array([0.5, 0.0, 0.5, 0.75, 0.25]), Budget([5, 1, 5, 8, 2], 64, 11 / 64)))
@settings(deadline=None, max_examples=300)
@given(instance=integer_instances())
def test_swap_resolve_matches_nested_loop_reference(instance):
    assert np.array_equal(swap_resolve(*instance), plain_swap_resolve(*instance))


def test_exact_resolvers_keep_seven_of_eight_tenths_that_sum_past_the_budget():
    # eight costs of 0.1: float subset sums add them to 0.7999999999999999,
    # `gate_cost` to 0.8; at their exact values, which the budget counts,
    # they sum past this budget, so `final_resolve` and `brute_force_optimum`
    # both keep seven
    costs = np.full(8, 0.1)
    scores = np.linspace(1.0, 2.0, 8)
    p_max = 0.7999999999999999
    budget = B(costs, p_max)
    assert gate_cost(all_true(8), costs) > p_max and not budget.fits(all_true(8))
    for gates in (final_resolve(scores, budget), brute_force_optimum(scores, budget, all_true(8))):
        assert gate_cost(gates, costs) <= p_max
        assert list(gates) == [False] + [True] * 7


# -- brute force oracle -------------------------------------------------------


def test_brute_force_empty_cases():
    assert not brute_force_optimum([-1.0, 0.0], B([E3, E3], 1.0), all_true(2)).any()
    assert not brute_force_optimum([5.0], B([2 * E3], 1 * E3), all_true(1)).any()


def test_brute_force_cap():
    n = 21
    with pytest.raises(TooLarge):
        brute_force_optimum(np.ones(n), B(np.full(n, E3), 1.0), all_true(n))


def test_brute_force_matches_itertools_enumeration():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        scores = rng.uniform(0, 1, n)
        costs = np.exp(rng.uniform(np.log(1e-4), np.log(3e-3), n))
        budget = B(costs, float(rng.uniform(costs.min(), costs.sum())))
        best = 0.0
        for kset in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(n + 1)
        ):
            mask = np.zeros(n, bool)
            mask[list(kset)] = True
            if budget.fits(mask):
                best = max(best, scores[mask].sum())
        assert np.isclose(scores[brute_force_optimum(scores, budget, all_true(n))].sum(), best)


# -- properties ---------------------------------------------------------------


@settings(deadline=None, max_examples=150)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**31 - 1))
def test_half_approximation_guarantee(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0, 1, n)
    costs = np.exp(rng.uniform(np.log(1e-4), np.log(5e-3), n))
    budget = B(costs, float(rng.uniform(costs.min(), costs.sum())))
    exact = scores[brute_force_optimum(scores, budget, all_true(n))].sum()
    for resolve in (final_resolve, swap_resolve):
        approx = resolve(scores, budget)
        if exact > 0:
            assert scores[approx].sum() >= 0.5 * exact
        assert budget.fits(approx)


@settings(deadline=None, max_examples=100)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**31 - 1))
@example(n=10, seed=3633)
@example(n=9, seed=8060126)
def test_budget_monotonicity(n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0, 1, n)
    costs = np.exp(rng.uniform(np.log(1e-4), np.log(5e-3), n))
    budgets = np.sort(rng.uniform(costs.min(), costs.sum(), 4))
    values = [scores[final_resolve(scores, B(costs, b))].sum() for b in budgets]
    assert all(values[i + 1] >= values[i] - 1e-12 for i in range(3))


@settings(deadline=None, max_examples=100)
@given(n=st.integers(1, 10), t=st.floats(0.01, 50.0), seed=st.integers(0, 2**31 - 1))
def test_score_scale_invariance_of_selection(n, t, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(0, 1, n)
    costs = np.exp(rng.uniform(np.log(1e-4), np.log(5e-3), n))
    budget = B(costs, float(rng.uniform(costs.min(), costs.sum())))
    for solve in (greedy_allocate, final_resolve, swap_resolve):
        assert np.array_equal(solve(scores, budget), solve(scores * t, budget))
