"""Audit mini-batch selection: exploration at rate `EPSILON`, which the coverage
bound rests on, plus strata of `ACTIVE_FRACTION` active and the rest inactive.

Each exploration slot draws one `random()` and, when it explores, one
`integers(len(pool))`. `_explore` makes the same draws from the generator's
raw PCG64 outputs, read in chunks, and leaves the generator in the same
state; its chunks hold at most N outputs and its expected work grows with N,
not M, since one `advance` skips the uniforms of the slots left once the
pool is empty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, check_count

ACTIVE_FRACTION = 0.3
EPSILON = 0.3
# A uniform (r >> 11) * 2**-53 is below EPSILON exactly when the output r is
# below this.
_EXPLORE_BELOW = math.ceil(EPSILON * 2**53) << 11


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
    # The quartile minus the ids explored so far, in quartile order.
    pool = least_probed_quartile(probe_counts).tolist()
    chosen = _explore(pool, params.batch_size, target, rng)
    exploration = list(chosen)

    k = target - len(chosen)
    if k > 0:
        free = np.ones(n, dtype=bool)
        free[chosen] = False
        active_pool = (gates & free).nonzero()[0]
        inactive_pool = (~gates & free).nonzero()[0]
        chosen.extend(stratified_fill(k, active_pool, inactive_pool, rng))

    return sorted(chosen), sorted(exploration)


def _explore(pool: list[int], slots: int, target: int, rng: np.random.Generator) -> list[int]:
    """The exploration picks: each slot, until `target` ids are chosen,
    draws a uniform and, below EPSILON, pops a uniform position of the pool
    while it lasts. The draws are those of `rng.random()` and
    `rng.integers(len(pool))`, made from the raw outputs of its PCG64
    generator, which is left with the state, `has_uint32` and `uinteger`
    that those calls leave.

    A uniform is `(r >> 11) * 2**-53`. `integers(n)` for n >= 2 takes a
    32-bit value, the buffered one if the generator holds one, else the low
    half of the next output, whose high half it buffers, and applies
    Lemire's bounded rule; `integers(1)` draws nothing. Outputs are drawn in
    chunks that the slots left are sure to use, so none is left over at the
    end; once the pool is empty, every slot left draws only its uniform, and
    one `advance` skips those not yet drawn."""
    bit_generator = rng.bit_generator
    entry = bit_generator.state
    has_uint32, uinteger = buffer = entry["has_uint32"], entry["uinteger"]
    chosen: list[int] = []
    raws: list[int] = []
    at = 0

    def draw() -> list[int]:
        # Each slot left until the target uses at least one output.
        return bit_generator.random_raw(min(slots - slot, target - len(chosen))).tolist()

    for slot in range(slots):
        if len(chosen) >= target:
            break
        if not pool:
            bit_generator.advance(slots - slot - (len(raws) - at))
            buffer = (0, 0)
            break
        if at == len(raws):
            raws, at = draw(), 0
        at += 1
        if raws[at - 1] >= _EXPLORE_BELOW:
            continue
        n = len(pool)
        if n == 1:
            chosen.append(pool.pop())
            continue
        while True:
            if has_uint32:
                x, has_uint32 = uinteger, 0
            else:
                if at == len(raws):
                    raws, at = draw(), 0
                r, at = raws[at], at + 1
                x, has_uint32, uinteger = r & 0xFFFFFFFF, 1, r >> 32
            m = x * n
            # Lemire's rule: draw again while the low word is below
            # (2**32 - n) % n, which numpy checks only below n.
            if (m & 0xFFFFFFFF) >= n or (m & 0xFFFFFFFF) >= (0x100000000 - n) % n:
                break
        chosen.append(pool.pop(m >> 32))
    if (has_uint32, uinteger) != buffer:
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = has_uint32, uinteger
        bit_generator.state = state
    return chosen
