"""Vote-counter hysteresis gating structural changes between cycles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocator import gate_cost
from .errors import InvalidParams, LengthMismatch, check_count


@dataclass(frozen=True)
class FsmParams:
    tau_act: int = 3

    def __post_init__(self) -> None:
        check_count("tau_act", self.tau_act, 1)


class FsmStabilizer:
    """Per-unit vote counters; a change commits after tau consecutive votes.

    With tau_act = 1 every proposal commits immediately. `change_cycles` (the
    chatter count) increments by at most one per filtering call, and
    `unit_flips` tracks committed gate changes per unit.
    """

    def __init__(self, n_units: int, tau_act: int = 3):
        if n_units < 1:
            raise InvalidParams("need at least one unit")
        if tau_act < 1:
            raise InvalidParams("vote threshold must be at least 1")
        self.n_units = n_units
        self.tau_act = tau_act
        self._counts = [0] * n_units
        self._pending = [-1] * n_units  # -1 none, else 0/1
        self._flips = [0] * n_units
        self.change_cycles = 0

    @property
    def act_counts(self) -> np.ndarray:
        return np.array(self._counts, dtype=np.int64)

    @property
    def act_pending(self) -> np.ndarray:
        return np.array(self._pending, dtype=np.int64)

    @property
    def unit_flips(self) -> np.ndarray:
        return np.array(self._flips, dtype=np.int64)

    def filter_proposals(
        self,
        current: np.ndarray,
        proposed: np.ndarray,
        *,
        scores: np.ndarray | None = None,
        costs: np.ndarray | None = None,
        p_max: float | None = None,
    ) -> np.ndarray:
        """Update votes with one proposal vector and return the committed gates.

        Consistent votes accumulate; inconsistent or agreeing proposals reset
        the counter. Ready deactivations always commit; ready activations
        commit in descending density order while the budget holds (when
        costs/p_max are supplied), and a budget-rejected activation resets its
        counter.
        """
        current = np.asarray(current, dtype=bool)
        proposed = np.asarray(proposed, dtype=bool)
        if current.shape != proposed.shape or current.size != self.n_units:
            raise LengthMismatch("gate vectors must have the tracked unit count")

        cur = current.tolist()
        prop = proposed.tolist()
        counts, pending = self._counts, self._pending
        deactivations: list[int] = []
        activations: list[int] = []
        for i in range(self.n_units):
            p = prop[i]
            if p == cur[i]:
                counts[i] = 0
                pending[i] = -1
                continue
            vote = 1 if p else 0
            if pending[i] == vote:
                counts[i] += 1
            else:
                pending[i] = vote
                counts[i] = 1
            if counts[i] >= self.tau_act:
                (activations if p else deactivations).append(i)

        committed = current.copy()
        committed_ids = deactivations[:]
        for i in deactivations:
            committed[i] = False

        if activations:
            if scores is not None and costs is not None:
                s = np.asarray(scores, dtype=float)
                c = np.asarray(costs, dtype=float)
                activations.sort(key=lambda i: (-(s[i] / c[i]), i))
            for i in activations:
                if costs is not None and p_max is not None:
                    trial = committed.copy()
                    trial[i] = True
                    if gate_cost(trial, costs) > p_max:
                        counts[i] = 0
                        pending[i] = -1
                        continue
                    committed = trial
                else:
                    committed[i] = True
                committed_ids.append(i)

        for i in committed_ids:
            counts[i] = 0
            pending[i] = -1
            self._flips[i] += 1
        if committed_ids:
            self.change_cycles += 1
        return committed

    def vote_summary(self) -> list[dict]:
        """Non-zero activity votes as log records: {unit, counter, pending}."""
        return [
            {"unit": i, "counter": self._counts[i], "pending": bool(self._pending[i])}
            for i in range(self.n_units)
            if self._counts[i] > 0
        ]
