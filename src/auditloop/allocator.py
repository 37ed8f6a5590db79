"""Budgeted unit selection.

Every solver takes scores, unit costs and a budget, returns a boolean gate
vector, and switches on only units with positive scores: a unit that the
engine has not audited yet scores 0.0, so it stays off.

Greedy density knapsack with a replacement-hysteresis guard for the online
loop, a guard-free final re-solve, and an exhaustive optimum. The final
re-solve is exact while at most `EXACT_RESOLVE_MAX` units have positive
scores; above that it falls back to `swap_resolve` (density greedy, best
singleton, then best-improvement single swaps).

`fill` is the one add-while-it-fits loop: the greedy knapsack, the FSM's
commit of ready activations and the random baseline each pass it their own
start mask and unit order.

A set fits the budget when `gate_cost`, its costs summed in ascending-id
order, is at most `p_max`, so every module agrees bit-for-bit on
feasibility. Every allocator step decides this through `_Budget.fits` from
an approximate total: one `gate_cost` or subset sum, off by at most
N·eps·sum(costs), plus at most 2·N cost additions and subtractions, each off
by at most eps·sum(costs). The total and the candidate's own `gate_cost`
thus differ by at most 4·N·eps·sum(costs), so a total more than the band
`8·N·eps·sum(costs)` away from `p_max` decides as `gate_cost` would; only
inside the band is `gate_cost` summed.
"""

from __future__ import annotations

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


_EPS = float(np.finfo(float).eps)


class _Budget:
    """The one budget decision for unit costs `costs` and budget `p_max`; the
    module docstring argues its band."""

    def __init__(self, costs: np.ndarray, p_max: float):
        self.costs, self.p_max = costs, p_max
        self.band = float(8 * costs.size * _EPS * costs.sum())  # a Python float is faster here

    def over(self, approx: float) -> bool:
        """Whether approximate total `approx` is past the band above `p_max`, so cannot fit."""
        return approx - self.p_max > self.band

    def fits(self, approx, mask_of):
        """`approx <= p_max` for a float or per entry of a 1-D array, except
        that within the band the `gate_cost` of `mask_of(i)`, candidate i's
        gate vector, decides (i = 0 for a float)."""
        if isinstance(approx, float):  # Python scalars are faster here
            if self.over(approx) or self.p_max - approx > self.band:
                return approx <= self.p_max
            return gate_cost(mask_of(0), self.costs) <= self.p_max
        ok = approx <= self.p_max
        for i in (np.abs(approx - self.p_max) <= self.band).nonzero()[0].tolist():  # too close to call
            ok[i] = gate_cost(mask_of(i), self.costs) <= self.p_max
        return ok


def fill(gates, order, costs, p_max: float) -> tuple[np.ndarray, list[int]]:
    """Switch on each unit of `order` in turn, keeping it only while
    `gate_cost` stays within `p_max`. Returns a new gate vector and the units
    of `order` that did not fit; `gates` itself is left as it is. Every unit
    of `order` must be a unit id, off in `gates`, and appear once. The
    approximate total is a running one: `gate_cost` of `gates` plus each kept
    unit's cost. At a rejection, if the total plus the least cost left is
    `_Budget.over`, the rest of `order` is rejected in one step: float addition
    is monotone and a rejection leaves the total as it is."""
    gates = np.array(gates, dtype=bool)
    costs = np.asarray(costs, dtype=float)
    order = np.asarray(order, dtype=np.intp)
    if costs.shape != gates.shape:
        raise LengthMismatch("fill: costs must have one entry per unit")
    if not order.size:
        return gates, []
    ids = np.sort(order)
    if not (0 <= ids[0] and ids[-1] < gates.size):
        raise InvalidParams(f"fill: unit {ids[0] if ids[0] < 0 else ids[-1]} is not a unit id")
    if (on := gates[order]).any():
        raise InvalidParams(f"fill: unit {order[on][0]} is already on")
    if (twice := ids[1:][ids[1:] == ids[:-1]]).size:
        raise InvalidParams(f"fill: unit {twice[0]} appears twice in order")
    budget = _Budget(costs, p_max)
    total = gate_cost(gates, costs)
    kept: list[int] = []  # the accepted units, then the unit under test while it is tried
    trial = lambda _: gates | (np.bincount(kept, minlength=gates.size) > 0)  # built only in the band
    rejected: list[int] = []
    units, unit_costs = order.tolist(), costs[order]
    least = np.minimum.accumulate(unit_costs[::-1])[::-1].tolist()  # least cost from each position on
    for j, (i, cost) in enumerate(zip(units, unit_costs.tolist())):  # Python scalars are faster here
        kept.append(i)
        if budget.fits(total + cost, trial):
            total += cost
            continue
        rejected.append(kept.pop())
        if budget.over(total + least[j]):  # nor can any later unit fit
            rejected += units[j + 1 :]
            break
    gates[kept] = True
    return gates, rejected


def _validate(scores, costs) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=float)
    costs = np.asarray(costs, dtype=float)
    if scores.shape != costs.shape or scores.ndim != 1:
        raise LengthMismatch("scores and costs must be 1-D vectors of equal length")
    if not ((costs > 0.0) & (costs < np.inf)).all():
        raise NonPositiveCost("all unit costs must be positive and finite")
    if not np.isfinite(scores).all():
        raise InvalidParams("scores must be finite")
    return scores, costs


def _density_order(ids: np.ndarray, scores: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Descending score density; ties to lower cost, then lower id."""
    dens = scores[ids] / costs[ids]
    return ids[np.lexsort((ids, costs[ids], -dens))]


def greedy_allocate(scores, costs, p_max: float) -> np.ndarray:
    """Activate units in descending density while they fit the budget.

    Units with non-positive scores are never activated, even under slack:
    measured utilities can be negative and a harmful unit never helps the
    objective.
    """
    scores, costs = _validate(scores, costs)
    order = _density_order((scores > 0.0).nonzero()[0], scores, costs)
    return fill(np.zeros(scores.size, dtype=bool), order, costs, p_max)[0]


def apply_hysteresis(current, proposed, scores, costs, p_max: float, mu_eff: float) -> np.ndarray:
    """Filter freshly proposed gates against the currently committed gates.

    Activations that fit the budget without evicting anyone pass through, as
    do deactivations of units with non-positive scores. An activation that
    needs budget freed by dropping active units is a replacement: it is kept
    only when the newcomer's score beats the sum of the displaced scores by
    more than mu_eff, otherwise the incumbents are retained and the newcomer
    discarded.
    """
    scores, costs = _validate(scores, costs)
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
    held = drops[~harmful]
    evictable = held[np.lexsort((held, scores[held]))].tolist()

    # The approximate total: `gate_cost` of `gates` plus the adds and evictions since.
    budget = _Budget(costs, p_max)
    total = gate_cost(gates, costs)
    for k in _density_order(adds, scores, costs).tolist():
        trial = gates.copy()
        trial[k] = True
        running = total + costs[k]
        ok = budget.fits(running, lambda _: trial)
        if ok:
            gates, total = trial, running
            continue
        needed: list[int] = []
        for j in evictable:
            needed.append(j)
            trial[j] = False
            running -= costs[j]
            ok = budget.fits(running, lambda _: trial)
            if ok:
                break
        if not ok:
            continue  # infeasible even after every allowed eviction
        if scores[k] - sum(scores[j] for j in needed) > mu_eff:
            gates, total = trial, running
            for j in needed:
                evictable.remove(j)
    return gates


# Largest unit count any exhaustive 2^n enumeration accepts.
ENUMERATION_MAX = 20

# Exhaustive search takes about 3 ms at 16 units and 50 ms at 20 (2-core VM,
# numpy 2.4), against about 0.1 s for a whole default run.
EXACT_RESOLVE_MAX = 16


def final_resolve(scores, costs, p_max: float) -> np.ndarray:
    """Guard-free re-solve. With at most `EXACT_RESOLVE_MAX` units of positive
    score it returns `brute_force_optimum` over those units, whose score never
    falls as the budget grows; above that, `swap_resolve`."""
    scores, costs = _validate(scores, costs)
    positive = scores > 0.0
    if np.count_nonzero(positive) <= EXACT_RESOLVE_MAX:
        return brute_force_optimum(scores, costs, positive, p_max)
    return swap_resolve(scores, costs, p_max)


def swap_resolve(scores, costs, p_max: float) -> np.ndarray:
    """Density greedy vs. best feasible singleton, then best-improvement
    single-swap passes until no swap raises the score. At least half the
    optimum, but not monotone in the budget.

    Each pass scores every (selected, outside) pair at once and swaps the
    pair of largest gain that fits; among equal gains, the lowest selected
    id, then the lowest outside id (`np.argmax` in row-major order)."""
    scores, costs = _validate(scores, costs)
    gates = greedy_allocate(scores, costs, p_max)
    singles = np.flatnonzero((scores > 0.0) & (costs <= p_max))
    if singles.size:
        s = singles[np.lexsort((singles, costs[singles], -scores[singles]))[0]]
        if scores[s] > scores[gates].sum():
            gates = np.arange(scores.size) == s

    budget = _Budget(costs, p_max)
    while True:
        selected = np.flatnonzero(gates)
        outside = np.flatnonzero(~gates)
        gain = scores[outside] - scores[selected][:, None]
        rows, cols = np.nonzero(gain > 0.0)
        drop, add = selected[rows], outside[cols]

        def swapped(i: int) -> np.ndarray:
            trial = gates.copy()
            trial[drop[i]], trial[add[i]] = False, True
            return trial

        ok = budget.fits(gate_cost(gates, costs) - costs[drop] + costs[add], swapped)
        if not ok.any():
            break
        best_pair = np.argmax(np.where(ok, gain[rows, cols], -np.inf))
        gates[drop[best_pair]], gates[add[best_pair]] = False, True
    return gates


def subset_sums(n_bits: int, terms) -> np.ndarray:
    """Sum over each of the 2^n_bits subsets, shared with the synthetic
    oracle's exact optimum: entry `mask` adds the value of every (bit, value)
    pair in `terms` whose bit is set in `mask`, in the order of `terms`."""
    out = np.zeros(1 << n_bits)
    for b, value in terms:
        out.reshape(-1, 1 << (b + 1))[:, 1 << b :] += value
    return out


def best_subset(sub_scores, sub_costs, costs, p_max: float, ids, n: int) -> np.ndarray:
    """Gate vector of the best subset within the budget; bit b of a
    subset index stands for unit `ids[b]` of `n`. Ties break to lower total
    cost, then to the lexicographically smallest gate tuple.

    `sub_costs` adds the costs in another order than `gate_cost`, so it is the
    approximate total: a subset more than the budget band over `p_max` never
    fits, and `_Budget.fits` decides for the best of the rest."""
    budget = _Budget(costs, p_max)
    maybe = sub_costs <= p_max + budget.band

    def to_gates(mask: int) -> tuple[bool, ...]:
        g = np.zeros(n, dtype=bool)
        g[ids] = mask >> np.arange(len(ids)) & 1
        return tuple(g)

    while True:
        cand = np.flatnonzero(maybe)  # never empty: the empty set fits
        cand = cand[sub_scores[cand] == sub_scores[cand].max()]
        cand = cand[sub_costs[cand] == sub_costs[cand].min()]
        fits = cand[budget.fits(sub_costs[cand], lambda i: to_gates(cand[i]))]
        if fits.size:
            return np.array(min(to_gates(c) for c in fits.tolist()), dtype=bool)
        maybe[cand] = False


def brute_force_optimum(scores, costs, units, p_max: float) -> np.ndarray:
    """Gates of the maximum selected-score sum under the budget over subsets
    of the units that the mask `units` marks; ties break as in
    `best_subset`. Capped at `ENUMERATION_MAX` marked units."""
    scores, costs = _validate(scores, costs)
    units = np.asarray(units, dtype=bool)
    if units.shape != scores.shape:
        raise LengthMismatch("the unit mask must match the score vector length")
    idx = np.flatnonzero(units)
    if idx.size > ENUMERATION_MAX:
        raise TooLarge(f"{idx.size} units exceed the enumeration cap of {ENUMERATION_MAX}")
    sub_scores = subset_sums(idx.size, enumerate(scores[idx]))
    sub_costs = subset_sums(idx.size, enumerate(costs[idx]))
    return best_subset(sub_scores, sub_costs, costs, p_max, idx, scores.size)
