"""Utility smoothing: EMA of raw audits plus a windowed robust score.

`UtilityTable` holds the state of all N units in arrays and folds one whole
audit batch per call; it is the one filter. `UtilityTracker` is a view of
one unit as the only row of its own table.

`robust_scores(h, lambda_s, lengths)` scores rows of different history
lengths in one pass: row i holds `lengths[i]` values and NaN in its other
slots. It sorts the rows once (NaN sorts last) and picks the median and the
quartile neighbours from per-length index and weight tables, so it equals
`np.median` and `np.quantile` (numpy's default 'linear' method, Hyndman &
Fan 1996 method 7) on each row's values bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParams, NeverAudited, NonFiniteUtility, check_number


@dataclass(frozen=True)
class SmoothingParams:
    """EMA decay and IQR shrinkage weight for the two-stage utility filter."""

    beta: float = 0.9
    lambda_s: float = 0.5

    def __post_init__(self) -> None:
        check_number("beta", self.beta, "(0, 1)")
        check_number("lambda_s", self.lambda_s, "[0, inf)")


# The robust score's history length: each unit keeps its last WINDOW EMA values.
WINDOW = 5


def _pick_tables(max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Per history length n (row n; row 0 unused), as numpy places them:
    the sorted positions of the median pair (columns 0-1) and, per quartile
    q in (0.25, 0.75), of its neighbours a <= b and of the one it is read
    from (columns 2-4 and 5-7), and each quartile's signed weight.

    numpy's 'linear' quantile lerps a + (b - a)·t, or b - (b - a)·(1 - t)
    when t >= 0.5; both are `from + (b - a)·weight` with the weight t or
    -(1 - t), which is the same float operation."""
    pos = np.zeros((max_len + 1, 8), dtype=np.intp)
    weight = np.zeros((max_len + 1, 2))
    for n in range(1, max_len + 1):
        pos[n, :2] = ((n - 1) // 2, n // 2)
        for j, q in enumerate((0.25, 0.75)):
            virtual = (n - 1) * q
            a = math.floor(virtual)
            b = min(a + 1, n - 1)
            t = virtual - a
            pos[n, 2 + 3 * j : 5 + 3 * j] = (a, b, b if t >= 0.5 else a)
            weight[n, j] = -(1 - t) if t >= 0.5 else t
    return pos, weight


_PICKS, _WEIGHTS = _pick_tables(WINDOW)
# Whether numpy's median of n values is the mean of a middle pair, per length n.
_EVEN = np.arange(WINDOW + 1) % 2 == 0


def robust_scores(h: np.ndarray, lambda_s: float, lengths) -> np.ndarray:
    """Per row of `h`: median - lambda_s * IQR of the row's history, with
    linearly interpolated quartiles; a one-value history scores itself.

    Row i holds `lengths[i]` (1 to `h.shape[1]`) values and NaN in its other
    slots. Rows have at most `WINDOW` slots. Median and quartiles do not
    depend on the order within a row."""
    s = np.sort(h, axis=1)
    n = np.asarray(lengths)
    # Each row's picks are read from the flat sorted array, offset by the
    # row's start, where a length above a narrow row's width would read the
    # next row.
    if s.shape[1] < WINDOW and n.max(initial=0) > s.shape[1]:
        raise InvalidParams(f"a history length exceeds the {s.shape[1]} slots of a row")
    v = s.take(_PICKS.take(n, 0) + np.arange(0, s.size, s.shape[1])[:, None])
    med = np.where(_EVEN.take(n), (v[:, 0] + v[:, 1]) / 2, v[:, 0])
    q = v[:, 4::3] + (v[:, 3::3] - v[:, 2::3]) * _WEIGHTS.take(n, 0)
    return med - lambda_s * (q[:, 1] - q[:, 0])


class UtilityTable:
    """Smoothed utility state of N units in arrays: the EMA of raw audits,
    then median - lambda_s * IQR over the last `WINDOW` EMA values.

    `ema[N]` (NaN until the first audit), `hist[N, WINDOW]` a ring buffer of
    the last `WINDOW` smoothed values, `probe_count[N]`, and `score[N]`, each
    unit's robust score as of its latest audit. A unit's score is 0.0 until
    then, and the allocator never switches on a unit that scores 0.0.
    """

    def __init__(self, n_units: int):
        self.ema = np.full(n_units, math.nan)
        self.hist = np.full((n_units, WINDOW), math.nan)
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
        ids = np.sort(units)
        if ids.size and not (0 <= ids[0] and ids[-1] < n):
            raise InvalidParams(f"unit ids must lie in [0, {n})")
        if (ids[1:] == ids[:-1]).any():
            raise InvalidParams("a batch must not repeat a unit")
        if not np.isfinite(u).all():
            k = np.flatnonzero(~np.isfinite(u))[0]
            raise NonFiniteUtility(f"unit {units[k]}: raw utility {float(u[k])!r} is not finite")

        count = self.probe_count[units]
        ema = np.where(count == 0, u, (1.0 - params.beta) * u + params.beta * self.ema[units])
        self.ema[units] = ema
        self.hist[units, count % WINDOW] = ema
        count += 1
        self.probe_count[units] = count

        score = robust_scores(self.hist[units], params.lambda_s, np.minimum(count, WINDOW))
        self.score[units] = score
        return [
            {"cycle": cycle, "unit_id": i, "u_raw": x, "ema": e, "score": r, "probe_count": c}
            for i, x, e, r, c in zip(units.tolist(), u.tolist(), ema.tolist(), score.tolist(), count.tolist())
        ]


class UtilityTracker:
    """One unit's smoothed utility: a view of the only row of a one-unit
    `UtilityTable`, which holds all of its state."""

    def __init__(self, unit_id: int):
        self.unit_id = unit_id
        self.table = UtilityTable(1)

    def record_audit(self, u_raw: float, params: SmoothingParams, cycle: int) -> None:
        """Fold one raw audit utility into the row (errors name it unit 0)."""
        self.table.record([0], [u_raw], params, cycle)

    def robust_score(self, params: SmoothingParams) -> float:
        """The row's robust score with `params.lambda_s`."""
        count = int(self.table.probe_count[0])
        if count == 0:
            raise NeverAudited(f"unit {self.unit_id} has no audits; treat as score-unknown")
        return float(robust_scores(self.table.hist, params.lambda_s, [min(count, WINDOW)])[0])

    def event(self, u_raw: float, params: SmoothingParams, cycle: int) -> dict:
        """Log record for one audit: {cycle, unit_id, u_raw, ema, score, probe_count}."""
        return {"cycle": cycle, "unit_id": self.unit_id, "u_raw": float(u_raw), "ema": float(self.table.ema[0]),
                "score": self.robust_score(params), "probe_count": int(self.table.probe_count[0])}
