"""Audit mini-batch selection: epsilon exploration plus active/inactive strata."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, check_count, check_number


@dataclass(frozen=True)
class SamplerParams:
    """Batch size M, active-stratum share, and exploration rate.

    epsilon = 0 is rejected: without exploration, initially inactive units
    are never audited and the coverage guarantee is void.
    """

    batch_size: int
    active_fraction: float = 0.3
    epsilon: float = 0.3

    def __post_init__(self) -> None:
        check_count("batch_size", self.batch_size, 1)
        check_number("active_fraction", self.active_fraction, "[0, 1]")
        check_number("epsilon", self.epsilon, "(0, 1]")


def coverage_lower_bound(n_units: int, batch_size: int, epsilon: float) -> float:
    """Guaranteed minimum per-cycle audit probability of any unit: eps*M/N."""
    check_count("batch_size", batch_size, 1, n_units)
    check_number("epsilon", epsilon, "(0, 1]")
    return epsilon * batch_size / n_units


def least_probed_quartile(probe_counts: np.ndarray) -> np.ndarray:
    """Ids of the least-probed quarter of units, ties broken by id."""
    probe_counts = np.asarray(probe_counts)
    return np.argsort(probe_counts, kind="stable")[: max(1, -(-probe_counts.size // 4))]


def stratified_fill(
    k: int,
    active_fraction: float,
    active_pool: np.ndarray | list[int],
    inactive_pool: np.ndarray | list[int],
    rng: np.random.Generator,
) -> list[int]:
    """Draw k ids without replacement: round(active_fraction*k) from the active
    pool and the rest from the inactive pool, spilling over when a stratum is
    short. Drawing positions and indexing the pool gives the same ids as
    `choice` on the pool itself, list or int array."""
    n_active = min(len(active_pool), int(round(active_fraction * k)))
    n_inactive = min(len(inactive_pool), k - n_active)
    n_active = min(len(active_pool), k - n_inactive)
    picks: list[int] = []
    if n_active:
        picks += np.asarray(active_pool)[rng.choice(len(active_pool), n_active, replace=False)].tolist()
    if n_inactive:
        picks += np.asarray(inactive_pool)[rng.choice(len(inactive_pool), n_inactive, replace=False)].tolist()
    return picks


def sample_audit_batch(
    gates: np.ndarray,
    probe_counts: np.ndarray,
    params: SamplerParams,
    rng: np.random.Generator,
) -> tuple[list[int], list[int]]:
    """Select the audit batch for one cycle.

    Each of the M slots explores with probability epsilon, drawing uniformly
    from the least-probed quartile; remaining slots are split between active
    and inactive strata. Returns (sorted batch ids, sorted exploration ids);
    the batch has no duplicates and size min(M, N).
    """
    gates = np.asarray(gates, dtype=bool)
    probe_counts = np.asarray(probe_counts)
    n = gates.size
    if n < 1:
        raise InvalidParams("need at least one unit")
    if probe_counts.size != n:
        raise InvalidParams("gates and probe_counts must have equal length")

    target = min(params.batch_size, n)
    chosen: list[int] = []
    # The quartile minus the ids explored so far, in quartile order.
    pool = least_probed_quartile(probe_counts).tolist()

    for _ in range(params.batch_size):
        if len(chosen) >= target:
            break
        if rng.random() < params.epsilon and pool:
            chosen.append(pool.pop(int(rng.integers(len(pool)))))
    exploration = list(chosen)

    k = target - len(chosen)
    if k > 0:
        free = np.ones(n, dtype=bool)
        free[chosen] = False
        active_pool = (gates & free).nonzero()[0]
        inactive_pool = (~gates & free).nonzero()[0]
        chosen.extend(stratified_fill(k, params.active_fraction, active_pool, inactive_pool, rng))

    return sorted(chosen), sorted(exploration)
