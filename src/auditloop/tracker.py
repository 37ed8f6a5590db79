"""Utility smoothing: EMA of raw audits plus a windowed robust score.

`UtilityTable` holds the state of all N units in arrays and folds one whole
audit batch per call; the engine uses it. `UtilityTracker` is the same
filter for one unit. Both go through `ema_step` and `robust_scores`, so they
agree bit for bit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParams, NeverAudited, NonFiniteUtility, check_count, check_finite


@dataclass(frozen=True)
class SmoothingParams:
    """EMA decay and IQR shrinkage weight for the two-stage utility filter."""

    beta: float = 0.9
    lambda_s: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise InvalidParams("beta must lie in (0, 1)")
        check_finite("lambda_s", self.lambda_s)
        if self.lambda_s < 0.0:
            raise InvalidParams("lambda_s must be non-negative")


def _check_window(window: int) -> None:
    check_count("history window", window, 3)
    if window > 5:
        raise InvalidParams("history window must lie in [3, 5]")


def ema_step(ema, u, beta: float):
    """One EMA update, (1 - beta) * u + beta * ema, on floats or arrays."""
    return (1.0 - beta) * u + beta * ema


def robust_scores(h: np.ndarray, lambda_s: float) -> np.ndarray:
    """Per row of `h` (k histories of one length L): median - lambda_s * IQR,
    with linearly interpolated quartiles; a one-value history scores itself.
    Median and quartiles do not depend on the order within a row."""
    if h.shape[1] == 1:
        return h[:, 0].copy()
    med = np.median(h, axis=1)
    q25, q75 = np.quantile(h, [0.25, 0.75], axis=1)
    return med - lambda_s * (q75 - q25)


def audit_event(
    cycle: int, unit_id: int, u_raw: float, ema: float, score: float, probe_count: int
) -> dict:
    """Log record for one audit: {cycle, unit_id, u_raw, ema, score, probe_count}."""
    return {
        "cycle": cycle,
        "unit_id": unit_id,
        "u_raw": float(u_raw),
        "ema": ema,
        "score": score,
        "probe_count": probe_count,
    }


class UtilityTable:
    """Smoothed utility state of N units in arrays.

    `ema[N]` (NaN until the first audit), `hist[N, window]` a ring buffer of
    the last `window` smoothed values, `probe_count[N]`, and `score[N]`, each
    unit's robust score as of its latest audit (0.0 until then).
    """

    def __init__(self, n_units: int, window: int = 5):
        _check_window(window)
        self.window = window
        self.ema = np.full(n_units, math.nan)
        self.hist = np.full((n_units, window), math.nan)
        self.probe_count = np.zeros(n_units, dtype=np.int64)
        self.score = np.zeros(n_units)

    def record(
        self, units: Sequence[int], u_raw: Sequence[float], params: SmoothingParams, cycle: int
    ) -> list[dict]:
        """Fold one raw utility per unit into the EMA, history and score of
        distinct `units` and return their audit records. A unit's first audit
        seeds its EMA directly (no zero-init bias). Nothing changes unless the
        whole batch is valid."""
        units = np.asarray(units, dtype=np.intp)
        u = np.asarray(u_raw, dtype=float)
        n = self.ema.size
        if units.ndim != 1 or u.shape != units.shape:
            raise InvalidParams("units and u_raw must be 1-D and of equal length")
        if units.size and not (0 <= units.min() and units.max() < n):
            raise InvalidParams(f"unit ids must lie in [0, {n})")
        if np.unique(units).size != units.size:
            raise InvalidParams("a batch must not repeat a unit")
        bad = np.flatnonzero(~np.isfinite(u))
        if bad.size:
            k = bad[0]
            raise NonFiniteUtility(f"unit {units[k]}: raw utility {float(u[k])!r} is not finite")

        count = self.probe_count[units]
        ema = np.where(count == 0, u, ema_step(self.ema[units], u, params.beta))
        self.ema[units] = ema
        self.hist[units, count % self.window] = ema
        count += 1
        self.probe_count[units] = count

        lengths = np.minimum(count, self.window)
        for length in np.unique(lengths):
            rows = units[lengths == length]
            self.score[rows] = robust_scores(self.hist[rows, :length], params.lambda_s)
        return [
            audit_event(cycle, *rec)
            for rec in zip(
                units.tolist(), u.tolist(), ema.tolist(), self.score[units].tolist(), count.tolist()
            )
        ]


class UtilityTracker:
    """Smoothed utility state for one unit.

    The history window stores the last `window` smoothed values (not raw
    audits); the robust score is median(history) - lambda_s * IQR(history)
    with linearly interpolated quartiles.
    """

    __slots__ = ("unit_id", "window", "ema", "history", "probe_count", "last_audit_cycle")

    def __init__(self, unit_id: int, window: int = 5):
        _check_window(window)
        self.unit_id = unit_id
        self.window = window
        self.ema = math.nan
        self.history: deque[float] = deque(maxlen=window)
        self.probe_count = 0
        self.last_audit_cycle = -1

    def record_audit(self, u_raw: float, params: SmoothingParams, cycle: int) -> None:
        """Fold one raw audit utility into the EMA and history window.

        The first observation seeds the EMA directly (no zero-init bias).
        """
        u = float(u_raw)
        if not math.isfinite(u):
            raise NonFiniteUtility(f"unit {self.unit_id}: raw utility {u_raw!r} is not finite")
        self.ema = u if self.probe_count == 0 else ema_step(self.ema, u, params.beta)
        self.history.append(self.ema)
        self.probe_count += 1
        self.last_audit_cycle = cycle

    def robust_score(self, params: SmoothingParams) -> float:
        if self.probe_count == 0:
            raise NeverAudited(f"unit {self.unit_id} has no audits; treat as score-unknown")
        h = np.array(self.history, dtype=float)
        return float(robust_scores(h[None, :], params.lambda_s)[0])

    def event(self, u_raw: float, params: SmoothingParams, cycle: int) -> dict:
        """Log record for one audit: {cycle, unit_id, u_raw, ema, score, probe_count}."""
        return audit_event(
            cycle, self.unit_id, u_raw, self.ema, self.robust_score(params), self.probe_count
        )
