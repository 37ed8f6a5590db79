"""Budgeted unit selection.

Greedy density knapsack with a replacement-hysteresis guard for the online
loop, a guard-free final re-solve, and an exhaustive optimum. The final
re-solve is exact while at most `EXACT_RESOLVE_MAX` eligible units have
positive scores; above that it falls back to `swap_resolve` (density greedy,
best singleton, then best-improvement single swaps).

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

from .errors import InvalidParams, LengthMismatch, NonPositiveCost, TooLarge, check_finite


@dataclass(frozen=True)
class AllocatorParams:
    """Budget as a backbone-parameter fraction and the replacement margin."""

    p_max: float = 0.002
    mu_eff: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 < self.p_max <= 1.0:
            raise InvalidParams("p_max must lie in (0, 1]")
        check_finite("mu_eff", self.mu_eff)
        if self.mu_eff < 0.0:
            raise InvalidParams("mu_eff must be non-negative")


@dataclass(frozen=True, eq=False)
class AllocationProposal:
    gates: np.ndarray
    total_cost: float
    total_score: float


def gate_cost(gates: np.ndarray, costs: np.ndarray) -> float:
    """Canonical cost of a gate vector (ascending-id summation order)."""
    return float(costs[np.asarray(gates, dtype=bool)].sum())


class _Budget:
    """The one budget decision for unit costs `costs` and budget `p_max`; the
    module docstring argues its band."""

    def __init__(self, costs: np.ndarray, p_max: float):
        self.costs, self.p_max = costs, p_max
        self.band = float(8 * costs.size * np.finfo(float).eps * costs.sum())  # a Python float is faster here

    def fits(self, approx, mask_of):
        """`approx <= p_max` for a float or per entry of a 1-D array, except
        that within the band the `gate_cost` of `mask_of(i)`, candidate i's
        gate vector, decides (i = 0 for a float)."""
        if isinstance(approx, float):  # Python scalars are faster here
            if abs(approx - self.p_max) > self.band:
                return approx <= self.p_max
            return gate_cost(mask_of(0), self.costs) <= self.p_max
        ok = approx <= self.p_max
        for i in np.flatnonzero(np.abs(approx - self.p_max) <= self.band).tolist():  # too close to call
            ok[i] = gate_cost(mask_of(i), self.costs) <= self.p_max
        return ok


def fill(gates, order, costs, p_max: float) -> tuple[np.ndarray, list[int]]:
    """Switch on each unit of `order` in turn, keeping it only while
    `gate_cost` stays within `p_max`. Returns a new gate vector and the units
    of `order` that did not fit; `gates` itself is left as it is. Every unit
    of `order` must be off in `gates` and appear once. The approximate total
    is a running one: `gate_cost` of `gates` plus each kept unit's cost."""
    gates = np.array(gates, dtype=bool)
    costs = np.asarray(costs, dtype=float)
    order = np.asarray(order, dtype=np.intp)
    fits = _Budget(costs, p_max).fits
    trial = lambda _: gates  # the unit under test is switched on in place
    total = gate_cost(gates, costs)
    rejected: list[int] = []
    for i, cost in zip(order.tolist(), costs[order].tolist()):  # Python scalars are faster here
        if gates[i]:
            raise InvalidParams(f"fill: unit {i} is already on")
        gates[i] = True
        if fits(total + cost, trial):
            total += cost
        else:
            gates[i] = False
            rejected.append(i)
    return gates, rejected


def _validate(scores, costs, eligible) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=float)
    costs = np.asarray(costs, dtype=float)
    eligible = np.asarray(eligible, dtype=bool)
    if not (scores.shape == costs.shape == eligible.shape) or scores.ndim != 1:
        raise LengthMismatch("scores, costs and eligible must be 1-D vectors of equal length")
    if np.any(costs <= 0.0):
        raise NonPositiveCost("all unit costs must be positive")
    if not np.all(np.isfinite(scores[eligible])):
        raise InvalidParams("eligible units must have finite scores")
    return scores, costs, eligible


def _density_order(ids: np.ndarray, scores: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Descending score density; ties to lower cost, then lower id."""
    dens = scores[ids] / costs[ids]
    return ids[np.lexsort((ids, costs[ids], -dens))]


def _proposal(gates: np.ndarray, scores: np.ndarray, costs: np.ndarray) -> AllocationProposal:
    return AllocationProposal(gates, gate_cost(gates, costs), float(scores[gates].sum()))


def greedy_allocate(scores, costs, eligible, p_max: float) -> AllocationProposal:
    """Activate eligible units in descending density while they fit the budget.

    Units with non-positive scores are never activated, even under slack:
    measured utilities can be negative and a harmful unit never helps the
    objective.
    """
    scores, costs, eligible = _validate(scores, costs, eligible)
    order = _density_order(np.flatnonzero(eligible & (scores > 0.0)), scores, costs)
    gates, _ = fill(np.zeros(scores.size, dtype=bool), order, costs, p_max)
    return _proposal(gates, scores, costs)


def apply_hysteresis(
    current, proposal: AllocationProposal, scores, costs, p_max: float, mu_eff: float
) -> np.ndarray:
    """Filter a fresh proposal against the currently committed gates.

    Activations that fit the budget without evicting anyone pass through, as
    do deactivations of units with non-positive scores. An activation that
    needs budget freed by dropping active units is a replacement: it is kept
    only when the newcomer's score beats the sum of the displaced scores by
    more than mu_eff, otherwise the incumbents are retained and the newcomer
    discarded.
    """
    scores, costs, _ = _validate(scores, costs, np.ones_like(np.asarray(costs), dtype=bool))
    current = np.asarray(current, dtype=bool)
    prop = np.asarray(proposal.gates, dtype=bool)
    if current.shape != prop.shape or current.shape != scores.shape:
        raise LengthMismatch("gate vectors must match the score vector length")

    gates = current.copy()
    drops = np.flatnonzero(current & ~prop)
    adds = np.flatnonzero(prop & ~current)

    # Worthless or harmful drops deactivate unconditionally.
    evictable: list[int] = []
    for j in drops:
        if scores[j] <= 0.0:
            gates[j] = False
        else:
            evictable.append(int(j))
    evictable.sort(key=lambda j: (scores[j], j))

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


def final_resolve(scores, costs, eligible, p_max: float) -> AllocationProposal:
    """Guard-free re-solve. With at most `EXACT_RESOLVE_MAX` eligible units of
    positive score it returns `brute_force_optimum` over those units, whose
    score never falls as the budget grows; above that, `swap_resolve`."""
    scores, costs, eligible = _validate(scores, costs, eligible)
    positive = eligible & (scores > 0.0)
    if np.count_nonzero(positive) <= EXACT_RESOLVE_MAX:
        return brute_force_optimum(scores, costs, positive, p_max)
    return swap_resolve(scores, costs, eligible, p_max)


def swap_resolve(scores, costs, eligible, p_max: float) -> AllocationProposal:
    """Density greedy vs. best feasible singleton, then best-improvement
    single-swap passes until no swap raises the score. At least half the
    optimum, but not monotone in the budget.

    Each pass scores every (selected, outside) pair at once and swaps the
    pair of largest gain that fits; among equal gains, the lowest selected
    id, then the lowest outside id (`np.argmax` in row-major order)."""
    scores, costs, eligible = _validate(scores, costs, eligible)
    gates = greedy_allocate(scores, costs, eligible, p_max).gates
    singles = np.flatnonzero(eligible & (scores > 0.0) & (costs <= p_max))
    if singles.size:
        s = singles[np.lexsort((singles, costs[singles], -scores[singles]))[0]]
        if scores[s] > scores[gates].sum():
            gates = np.arange(scores.size) == s

    budget = _Budget(costs, p_max)
    while True:
        selected = np.flatnonzero(gates)
        outside = np.flatnonzero(eligible & ~gates)
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
    return _proposal(gates, scores, costs)


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


def brute_force_optimum(scores, costs, eligible, p_max: float) -> AllocationProposal:
    """Exhaustive maximum of the selected-score sum under the budget; ties
    break as in `best_subset`. Capped at `ENUMERATION_MAX` eligible units."""
    scores, costs, eligible = _validate(scores, costs, eligible)
    idx = np.flatnonzero(eligible)
    if idx.size > ENUMERATION_MAX:
        raise TooLarge(f"{idx.size} eligible units exceed the enumeration cap of {ENUMERATION_MAX}")
    sub_scores = subset_sums(idx.size, enumerate(scores[idx]))
    sub_costs = subset_sums(idx.size, enumerate(costs[idx]))
    gates = best_subset(sub_scores, sub_costs, costs, p_max, idx, scores.size)
    return _proposal(gates, scores, costs)
