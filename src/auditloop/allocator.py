"""Budgeted unit selection.

Greedy density knapsack with a replacement-hysteresis guard for the online
loop, a guard-free final re-solve, and an exhaustive optimum. The final
re-solve is exact while at most `EXACT_RESOLVE_MAX` eligible units have
positive scores; above that it falls back to `swap_resolve` (density greedy,
best singleton, then best-improvement single swaps).

`fill` is the one add-while-it-fits loop: the greedy knapsack, the FSM's
commit of ready activations and the random baseline each pass it their own
start mask and unit order. All budget checks sum costs over the gate mask in
ascending-id order (`gate_cost`) so that every module agrees bit-for-bit on
feasibility. `fill` keeps a running total and calls `gate_cost` only when
that total lies within `4·N·eps·p_max` of the budget, the band where the
two sums could disagree, so it decides exactly as `gate_cost` does.
`apply_hysteresis` does the same with a band widened for its evictions.
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


def fill(gates, order, costs, p_max: float) -> tuple[np.ndarray, list[int]]:
    """Switch on each unit of `order` in turn, keeping it only while
    `gate_cost` stays within `p_max`. Returns a new gate vector and the units
    of `order` that did not fit; `gates` itself is left as it is. Every unit
    of `order` must be off in `gates` and appear once.

    A running total decides the clear cases. Two sums of the same k positive
    costs in different orders differ by less than 2·k·eps of their value, so
    a total more than `4·N·eps·p_max` below or above `p_max` decides as
    `gate_cost` would; only inside that band does `gate_cost` judge."""
    gates = np.array(gates, dtype=bool)
    costs = np.asarray(costs, dtype=float)
    order = np.asarray(order, dtype=np.intp)
    band = 4 * costs.size * np.finfo(float).eps * p_max
    total = gate_cost(gates, costs)
    rejected: list[int] = []
    for i, cost in zip(order.tolist(), costs[order].tolist()):  # Python scalars are faster here
        if gates[i]:
            raise InvalidParams(f"fill: unit {i} is already on")
        gates[i] = True
        trial = total + cost
        if abs(trial - p_max) <= band:  # too close to call
            trial = gate_cost(gates, costs)
        if trial <= p_max:
            total = trial
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
    if ids.size == 0:
        return ids
    dens = scores[ids] / costs[ids]
    return ids[np.lexsort((ids, costs[ids], -dens))]


def _proposal(gates: np.ndarray, scores: np.ndarray, costs: np.ndarray) -> AllocationProposal:
    return AllocationProposal(
        gates=gates,
        total_cost=gate_cost(gates, costs),
        total_score=float(scores[gates].sum()),
    )


def greedy_allocate(scores, costs, eligible, p_max: float) -> AllocationProposal:
    """Activate eligible units in descending density while they fit the budget.

    Units with non-positive scores are never activated, even under slack:
    measured utilities can be negative and a harmful unit never helps the
    objective.
    """
    scores, costs, eligible = _validate(scores, costs, eligible)
    candidates = np.flatnonzero(eligible & (scores > 0.0))
    order = _density_order(candidates, scores, costs)
    gates, _ = fill(np.zeros(scores.size, dtype=bool), order, costs, p_max)
    return _proposal(gates, scores, costs)


def apply_hysteresis(
    current,
    proposal: AllocationProposal,
    scores,
    costs,
    p_max: float,
    mu_eff: float,
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

    # As in `fill`, a running total decides the clear cases. Every running
    # sum here stems from one pairwise `gate_cost` followed by at most 2·N
    # additions and subtractions of costs, each rounding by at most eps times
    # the sum of all costs; `gate_cost` judges only inside that band.
    band = 8 * costs.size * np.finfo(float).eps * float(costs.sum())
    total = gate_cost(gates, costs)

    def fits(mask: np.ndarray, running: float) -> tuple[bool, float]:
        if abs(running - p_max) <= band:  # too close to call
            running = gate_cost(mask, costs)
        return running <= p_max, running

    for k in _density_order(adds, scores, costs).tolist():
        trial = gates.copy()
        trial[k] = True
        ok, running = fits(trial, total + costs[k])
        if ok:
            gates, total = trial, running
            continue
        needed: list[int] = []
        for j in evictable:
            needed.append(j)
            trial[j] = False
            ok, running = fits(trial, running - costs[j])
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
    optimum, but not monotone in the budget."""
    scores, costs, eligible = _validate(scores, costs, eligible)
    best = greedy_allocate(scores, costs, eligible, p_max)

    singles = np.flatnonzero(eligible & (scores > 0.0) & (costs <= p_max))
    if singles.size:
        order = np.lexsort((singles, costs[singles], -scores[singles]))
        s = int(singles[order[0]])
        single_gates = np.zeros_like(best.gates)
        single_gates[s] = True
        single = _proposal(single_gates, scores, costs)
        if single.total_score > best.total_score:
            best = single

    gates = best.gates.copy()
    while True:
        selected = np.flatnonzero(gates)
        outside = np.flatnonzero(eligible & ~gates)
        best_gain = 0.0
        best_pair: tuple[int, int] | None = None
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
                    best_pair = (int(s), int(u))
        if best_pair is None:
            break
        gates[best_pair[0]] = False
        gates[best_pair[1]] = True
    return _proposal(gates, scores, costs)


def subset_sums(n_bits: int, terms) -> np.ndarray:
    """Sum over each of the 2^n_bits subsets, shared with the synthetic
    oracle's exact optimum: entry `mask` adds the value of every (bit, value)
    pair in `terms` whose bit is set in `mask`, in the order of `terms`."""
    out = np.zeros(1 << n_bits)
    for b, value in terms:
        out.reshape(-1, 1 << (b + 1))[:, 1 << b :] += value
    return out


def best_subset(
    sub_scores, sub_costs, costs, p_max: float, ids, n: int
) -> tuple[np.ndarray, float]:
    """Gate vector and score of the best subset within the budget; bit b of a
    subset index stands for unit `ids[b]` of `n`. Ties break to lower total
    cost, then to the lexicographically smallest gate tuple.

    `sub_costs` adds the costs in another order than `gate_cost`, so it only
    shortlists subsets; a subset fits when its `gate_cost` over `costs` does,
    as in every other budget check."""
    # Any order of summing k positive costs is within a relative (k - 1) * eps
    # of the exact sum, so this slack keeps every subset that fits.
    maybe = sub_costs <= p_max * (1.0 + 4 * len(ids) * np.finfo(float).eps)

    def to_gates(mask: int) -> tuple[bool, ...]:
        g = np.zeros(n, dtype=bool)
        for b, unit in enumerate(ids):
            g[unit] = bool(mask >> b & 1)
        return tuple(g)

    while True:
        cand = np.flatnonzero(maybe)  # never empty: the empty set fits
        cand = cand[sub_scores[cand] == sub_scores[cand].max()]
        cand = cand[sub_costs[cand] == sub_costs[cand].min()]
        fits = [(to_gates(c), c) for c in cand.tolist()]
        fits = [(g, c) for g, c in fits if gate_cost(g, costs) <= p_max]
        if fits:
            gates, winner = min(fits)
            return np.array(gates, dtype=bool), float(sub_scores[winner])
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
    gates, _ = best_subset(sub_scores, sub_costs, costs, p_max, idx, scores.size)
    return _proposal(gates, scores, costs)
