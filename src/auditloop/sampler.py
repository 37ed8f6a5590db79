"""Audit mini-batch selection: exploration at rate `EPSILON`, which the coverage
bound rests on, plus strata of `ACTIVE_FRACTION` active and the rest inactive."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, check_count

ACTIVE_FRACTION = 0.3
EPSILON = 0.3


@dataclass(frozen=True)
class SamplerParams:
    """Batch size M."""

    batch_size: int

    def __post_init__(self) -> None:
        check_count("batch_size", self.batch_size, 1)


def coverage_lower_bound(n_units: int, batch_size: int) -> float:
    """Guaranteed minimum per-cycle audit probability of any unit: EPSILON*M/N."""
    check_count("batch_size", batch_size, 1, n_units)
    return EPSILON * batch_size / n_units


def least_probed_quartile(probe_counts: np.ndarray) -> np.ndarray:
    """Ids of the least-probed quarter of units, ties broken by id."""
    probe_counts = np.asarray(probe_counts)
    return np.argsort(probe_counts, kind="stable")[: max(1, -(-probe_counts.size // 4))]


def stratified_fill(
    k: int,
    active_pool: np.ndarray | list[int],
    inactive_pool: np.ndarray | list[int],
    rng: np.random.Generator,
) -> list[int]:
    """Draw k ids without replacement: round(ACTIVE_FRACTION*k) from the active
    pool and the rest from the inactive pool, spilling over when a stratum is
    short. Drawing positions and indexing the pool gives the same ids as
    `choice` on the pool itself, list or int array."""
    n_active = min(len(active_pool), int(round(ACTIVE_FRACTION * k)))
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

    Each of the M slots explores with probability EPSILON, drawing uniformly
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

    random, integers = rng.random, rng.integers
    for _ in range(params.batch_size):
        if len(chosen) >= target:
            break
        if random() < EPSILON and pool:
            chosen.append(pool.pop(int(integers(len(pool)))))
    exploration = list(chosen)

    k = target - len(chosen)
    if k > 0:
        free = np.ones(n, dtype=bool)
        free[chosen] = False
        active_pool = (gates & free).nonzero()[0]
        inactive_pool = (~gates & free).nonzero()[0]
        chosen.extend(stratified_fill(k, active_pool, inactive_pool, rng))

    return sorted(chosen), sorted(exploration)
