"""Vote-counter hysteresis gating structural changes between cycles.

The vote state of all N units lives in three int64 arrays (`act_counts`,
`act_pending`, `unit_flips`) and one proposal updates it with array
expressions; ready activations commit through `allocator._fill`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocator import Budget, _density_order, _fill
from .errors import LengthMismatch, check_count


@dataclass(frozen=True)
class FsmParams:
    tau_act: int = 3

    def __post_init__(self) -> None:
        check_count("tau_act", self.tau_act, 1)


class FsmStabilizer:
    """Per-unit vote counters; a change commits after tau consecutive votes.

    With tau_act = 1 every proposal commits immediately. `act_counts` holds
    each unit's consecutive votes, `act_pending` the direction voted for (-1
    none, 0 off, 1 on) and `unit_flips` its committed gate changes.
    `change_cycles` (the chatter count) increments by at most one per
    filtering call.
    """

    def __init__(self, n_units: int, tau_act: int = 3):
        check_count("n_units", n_units, 1)
        check_count("tau_act", tau_act, 1)
        self.n_units = n_units
        self.tau_act = tau_act
        self.act_counts = np.zeros(n_units, dtype=np.int64)
        self.act_pending = np.full(n_units, -1, dtype=np.int64)
        self.unit_flips = np.zeros(n_units, dtype=np.int64)
        self.change_cycles = 0

    def filter_proposals(
        self,
        current: np.ndarray,
        proposed: np.ndarray,
        *,
        scores: np.ndarray,
        budget: Budget,
    ) -> np.ndarray:
        """Update votes with one proposal vector and return the committed gates.

        Consistent votes accumulate; inconsistent or agreeing proposals reset
        the counter. Ready deactivations commit, then ready activations commit
        in descending density of `scores` over costs while they fit `budget`;
        an activation that does not fit resets its counter. A proposal equal
        to `current` resets every counter and returns a copy of `current`,
        the state the full update reaches for it.
        """
        current = np.asarray(current, dtype=bool)
        proposed = np.asarray(proposed, dtype=bool)
        s = np.asarray(scores, dtype=float)
        if not current.shape == proposed.shape == s.shape == budget.counts.shape == (self.n_units,):
            raise LengthMismatch("gate and score vectors and the budget must have the tracked unit count")

        counts, pending = self.act_counts, self.act_pending
        differs = proposed != current
        if not differs.any():
            counts[:] = 0
            pending[:] = -1
            return current.copy()
        # A vote that repeats the pending one adds to its count, a vote in a
        # new direction starts at one, and no vote resets the count.
        counts[(pending != proposed) | ~differs] = 0
        counts += differs
        pending[:] = -1
        pending[differs] = proposed[differs]
        ready = counts >= self.tau_act
        committed = current.copy()
        if not ready.any():
            return committed

        # A ready vote is spent whether its change commits or does not fit.
        counts[ready] = 0
        pending[ready] = -1
        committed[ready & ~proposed] = False
        committed, rejected = _fill(committed, _density_order((ready & proposed).nonzero()[0], s, budget.costs), budget)
        ready[rejected] = False
        self.unit_flips[ready] += 1
        if ready.any():
            self.change_cycles += 1
        return committed

    def vote_summary(self) -> list[dict]:
        """Non-zero activity votes as log records: {unit, counter, pending}."""
        units = self.act_counts.nonzero()[0]
        return [
            {"counter": n, "pending": bool(p), "unit": i}
            for i, n, p in zip(units.tolist(), self.act_counts[units].tolist(), self.act_pending[units].tolist())
        ]
