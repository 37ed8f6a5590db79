"""Budgeted unit selection.

Every solver takes scores and a `Budget`, returns a boolean gate vector, and
switches on only units with positive scores: a unit that the engine has not
audited yet scores 0.0, so it stays off.

Greedy density knapsack with a replacement-hysteresis guard for the online
loop, a guard-free final re-solve, and an exhaustive optimum. The final
re-solve is exact while at most `EXACT_RESOLVE_MAX` units have positive
scores; above that it falls back to `swap_resolve` (density greedy, best
singleton, then best-improvement single swaps).

`fill` is the one add-while-it-fits loop: the greedy knapsack, the FSM's
commit of ready activations and the random baseline each pass it their own
start mask and unit order. It walks the order once, and stops at the first
kept unit that leaves less room than the budget's smallest count: no later
unit can fit, so the rest of the order is rejected in one slice. On the
740-unit benchmark run the greedy fill stops after about a quarter of its
order; on the default 74-unit space it never stops early.

A unit's cost is its integer parameter count over the backbone's P, so a set
fits the budget when its counts sum to at most the capacity floor(p_max·P):
every allocator step decides fit by this one exact integer compare. The
driver raises `BudgetViolation` when `gate_cost`, the float costs summed,
reads above p_max, which a set that fits can do by an ulp: 64 + 32 of
200,000 parameters is exactly 0.00048 of them, 0.00032 + 0.00016 reads more.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, LengthMismatch, NonPositiveCost, TooLarge, check_number


@dataclass(frozen=True)
class AllocatorParams:
    """Budget as a backbone-parameter fraction; replacement margin in score units (Δvalue per budget fraction)."""

    p_max: float = 0.002
    mu_eff: float = 0.02

    def __post_init__(self) -> None:
        check_number("p_max", self.p_max, "(0, 1]")
        check_number("mu_eff", self.mu_eff, "[0, inf)")


def gate_cost(gates: np.ndarray, costs: np.ndarray) -> float:
    """Canonical cost of a gate vector (ascending-id summation order)."""
    return float(costs[np.asarray(gates, dtype=bool)].sum())


class Budget:
    """One run's budget: unit i has the integer parameter count `counts[i]`
    out of `scale`, and a set of units fits when its counts sum to at most
    `capacity`, floor(p_max·scale). `costs[i]`, the one float cost of unit
    i, is `counts[i] / scale` and orders units by density; `smallest` is the
    least count (0 with no units). The counts are checked here, once: each is
    positive, and their total, which caps the capacity, fits an int64."""

    def __init__(self, counts, scale: int, p_max: float):
        counts = [operator.index(c) for c in counts]
        if any(c < 1 for c in counts):
            raise NonPositiveCost("every unit's parameter count must be positive")
        if (total := sum(counts)) >= 1 << 63:
            raise InvalidParams(f"unit parameter counts sum to {total}, past an int64")
        num, den = check_number("p_max", p_max, "[0, inf)").as_integer_ratio()
        self.counts = np.array(counts, dtype=np.int64)
        self.costs = np.array([c / scale for c in counts], dtype=float)
        self.capacity = min(num * operator.index(scale) // den, total)
        self.smallest = min(counts, default=0)

    @classmethod
    def from_costs(cls, costs, p_max: float) -> "Budget":
        """The budget of float `costs` at their exact values: each is an
        integer over a power of two (`float.as_integer_ratio`), and the
        largest of those powers is the scale. For instances given as float
        costs; a run's budget takes its space's parameter counts."""
        costs = np.asarray(costs, dtype=float)
        if costs.ndim != 1 or not ((costs > 0.0) & (costs < np.inf)).all():
            raise NonPositiveCost("unit costs must be a vector of positive finite numbers")
        ratios = [c.as_integer_ratio() for c in costs.tolist()]
        scale = max((den for _, den in ratios), default=1)
        return cls([num * (scale // den) for num, den in ratios], scale, p_max)

    def fits(self, gates) -> bool:
        return int(self.counts[np.asarray(gates, dtype=bool)].sum()) <= self.capacity


def fill(gates, order, budget: Budget) -> tuple[np.ndarray, list[int]]:
    """Switch on each unit of `order` in turn, keeping it only while the set
    fits `budget`. Returns a new gate vector and the units of `order` that did
    not fit; `gates` itself is left as it is. Every unit of `order` must be a
    unit id, off in `gates`, and appear once."""
    gates = np.array(gates, dtype=bool)
    order = np.asarray(order, dtype=np.intp)
    if budget.counts.shape != gates.shape:
        raise LengthMismatch("fill: the budget must have one count per unit")
    if order.size:
        ids = np.sort(order)
        if not (0 <= ids[0] and ids[-1] < gates.size):
            raise InvalidParams(f"fill: unit {ids[0] if ids[0] < 0 else ids[-1]} is not a unit id")
        if (on := gates[order]).any():
            raise InvalidParams(f"fill: unit {order[on][0]} is already on")
        if (twice := ids[1:][ids[1:] == ids[:-1]]).size:
            raise InvalidParams(f"fill: unit {twice[0]} appears twice in order")
    return _fill(gates, order, budget)


def _fill(gates: np.ndarray, order: np.ndarray, budget: Budget) -> tuple[np.ndarray, list[int]]:
    """`fill` without its checks, switching units on in `gates` itself, for
    callers whose orders are valid by construction: one pass over `order`
    keeps each unit whose count fits the room left and rejects the rest.
    Once a kept unit leaves less room than the budget's smallest count, no
    later unit can fit, so the rest of the order is rejected in one slice."""
    if not order.size:
        return gates, []
    room = budget.capacity - int(budget.counts[gates].sum())
    ids, smallest = order.tolist(), budget.smallest
    kept, rejected = [], []
    for i, count in zip(ids, budget.counts[order].tolist()):
        if count <= room:
            kept.append(i)
            room -= count
            if room < smallest:
                rejected += ids[len(kept) + len(rejected) :]  # the units after i
                break
        else:
            rejected.append(i)
    gates[kept] = True
    return gates, rejected


def _validate(scores, budget: Budget) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    if scores.shape != budget.counts.shape:
        raise LengthMismatch("scores must be a vector with one entry per unit of the budget")
    if not np.isfinite(scores).all():
        raise InvalidParams("scores must be finite")
    return scores


def _density_order(ids: np.ndarray, scores: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Descending score density; ties to lower cost, then lower id."""
    dens = scores[ids] / costs[ids]
    return ids[np.lexsort((ids, costs[ids], -dens))]


def greedy_allocate(scores, budget: Budget) -> np.ndarray:
    """Activate units in descending density while they fit the budget.

    Units with non-positive scores are never activated, even under slack:
    measured utilities can be negative and a harmful unit never helps the
    objective.
    """
    scores = _validate(scores, budget)
    order = _density_order((scores > 0.0).nonzero()[0], scores, budget.costs)
    return _fill(np.zeros(scores.size, dtype=bool), order, budget)[0]


def apply_hysteresis(current, proposed, scores, budget: Budget, mu_eff: float) -> np.ndarray:
    """Filter freshly proposed gates against the currently committed gates.

    Activations that fit the budget without evicting anyone pass through, as
    do deactivations of units with non-positive scores. An activation that
    needs budget freed by dropping active units is a replacement: it is kept
    only when the newcomer's score beats the sum of the displaced scores by
    more than mu_eff, otherwise the incumbents are retained and the newcomer
    discarded. A proposal without activations (the current gates, or fewer)
    returns right after the harmful drops, before any eviction order is built.
    """
    scores = _validate(scores, budget)
    current = np.asarray(current, dtype=bool)
    prop = np.asarray(proposed, dtype=bool)
    if current.shape != prop.shape or current.shape != scores.shape:
        raise LengthMismatch("gate vectors must match the score vector length")

    gates = current.copy()
    drops = (current & ~prop).nonzero()[0]
    adds = (prop & ~current).nonzero()[0]

    # Worthless or harmful drops deactivate unconditionally; the others are
    # evicted lowest score first, ties to the lower id.
    harmful = scores[drops] <= 0.0
    gates[drops[harmful]] = False
    if not adds.size:
        return gates
    held = drops[~harmful]
    evictable = held[np.lexsort((held, scores[held]))].tolist()
    freed_by = dict(zip(held.tolist(), budget.counts[held].tolist()))

    room = budget.capacity - int(budget.counts[gates].sum())
    order = _density_order(adds, scores, budget.costs)
    for k, count in zip(order.tolist(), budget.counts[order].tolist()):
        if count <= room:
            gates[k] = True
            room -= count
            continue
        needed, freed = [], room
        for j in evictable:
            needed.append(j)
            freed += freed_by[j]
            if count <= freed:
                break
        if count > freed:
            continue  # infeasible even after every allowed eviction
        if scores[k] - sum(scores[j] for j in needed) > mu_eff:
            gates[k], gates[needed], room = True, False, freed - count
            for j in needed:
                evictable.remove(j)
    return gates


# Largest unit count any exhaustive 2^n enumeration accepts.
ENUMERATION_MAX = 20

# `brute_force_optimum` takes a median 3.2 ms at 16 units and 47 ms at 20
# (15 random instances each; 2-core Xeon VM, Python 3.11, numpy 2.4). A whole
# paper-default run takes 0.037 s (run_s_p50, BENCH_31.json).
EXACT_RESOLVE_MAX = 16


def final_resolve(scores, budget: Budget) -> np.ndarray:
    """Guard-free re-solve. With at most `EXACT_RESOLVE_MAX` units of positive
    score it returns `brute_force_optimum` over those units, whose score never
    falls as the budget grows; above that, `swap_resolve`."""
    scores = _validate(scores, budget)
    positive = scores > 0.0
    if np.count_nonzero(positive) <= EXACT_RESOLVE_MAX:
        return brute_force_optimum(scores, budget, positive)
    return swap_resolve(scores, budget)


def swap_resolve(scores, budget: Budget) -> np.ndarray:
    """Density greedy vs. best feasible singleton, then best-improvement
    single-swap passes until no swap raises the score. At least half the
    optimum, but not monotone in the budget.

    Each pass scores every (selected, outside) pair at once and swaps the
    pair of largest gain that fits; among equal gains, the lowest selected
    id, then the lowest outside id (`np.argmax` in row-major order)."""
    scores = _validate(scores, budget)
    counts, costs = budget.counts, budget.costs
    gates = greedy_allocate(scores, budget)
    singles = np.flatnonzero((scores > 0.0) & (counts <= budget.capacity))
    if singles.size:
        s = singles[np.lexsort((singles, costs[singles], -scores[singles]))[0]]
        if scores[s] > scores[gates].sum():
            gates = np.arange(scores.size) == s

    while True:
        selected = np.flatnonzero(gates)
        outside = np.flatnonzero(~gates)
        gain = scores[outside] - scores[selected][:, None]
        rows, cols = np.nonzero(gain > 0.0)
        drop, add = selected[rows], outside[cols]
        ok = counts[add] - counts[drop] <= budget.capacity - int(counts[gates].sum())
        if not ok.any():
            break
        best_pair = np.argmax(np.where(ok, gain[rows, cols], -np.inf))
        gates[drop[best_pair]], gates[add[best_pair]] = False, True
    return gates


def subset_sums(n_bits: int, terms, dtype=float) -> np.ndarray:
    """Sum over each of the 2^n_bits subsets, shared with the synthetic
    oracle's exact optimum: entry `mask` adds the value of every (bit, value)
    pair in `terms` whose bit is set in `mask`, in the order of `terms`."""
    out = np.zeros(1 << n_bits, dtype=dtype)
    for b, value in terms:
        out.reshape(-1, 1 << (b + 1))[:, 1 << b :] += value
    return out


def best_subset(sub_scores, budget: Budget, ids, n: int) -> np.ndarray:
    """Gate vector of the best subset within the budget; bit b of a
    subset index stands for unit `ids[b]` of `n`. Ties break to the lower
    parameter count, then to the lexicographically smallest gate tuple."""
    ids = np.asarray(ids, dtype=np.intp)
    sub_counts = subset_sums(ids.size, enumerate(budget.counts[ids].tolist()), np.int64)
    cand = np.flatnonzero(sub_counts <= budget.capacity)  # never empty: the empty set fits
    cand = cand[sub_scores[cand] == sub_scores[cand].max()]
    cand = cand[sub_counts[cand] == sub_counts[cand].min()]

    def to_gates(mask: int) -> tuple[bool, ...]:
        g = np.zeros(n, dtype=bool)
        g[ids] = mask >> np.arange(ids.size) & 1
        return tuple(g)

    return np.array(min(to_gates(c) for c in cand.tolist()), dtype=bool)


def brute_force_optimum(scores, budget: Budget, units) -> np.ndarray:
    """Gates of the maximum selected-score sum under the budget over subsets
    of the units that the mask `units` marks; ties break as in
    `best_subset`. Capped at `ENUMERATION_MAX` marked units."""
    scores = _validate(scores, budget)
    units = np.asarray(units, dtype=bool)
    if units.shape != scores.shape:
        raise LengthMismatch("the unit mask must match the score vector length")
    idx = np.flatnonzero(units)
    if idx.size > ENUMERATION_MAX:
        raise TooLarge(f"{idx.size} units exceed the enumeration cap of {ENUMERATION_MAX}")
    return best_subset(subset_sums(idx.size, enumerate(scores[idx])), budget, idx, scores.size)
