import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auditloop import SmoothingParams, UtilityTable, UtilityTracker, checks
from auditloop.errors import InvalidParams, NeverAudited, NonFiniteUtility
from auditloop.tracker import WINDOW, robust_scores

P = SmoothingParams()


class ReferenceTracker:
    """One unit's filter in plain Python, the reference for `UtilityTable`:
    a deque of the last `WINDOW` EMA values, scored with `np.median` and
    `np.quantile`."""

    def __init__(self):
        self.ema, self.history, self.probe_count = math.nan, deque(maxlen=WINDOW), 0

    def record(self, u, beta):
        self.ema = u if self.probe_count == 0 else (1.0 - beta) * u + beta * self.ema
        self.history.append(self.ema)
        self.probe_count += 1

    def score(self, lambda_s):
        """The robust score, 0.0 before the first audit as in the table."""
        if not self.probe_count:
            return 0.0
        q25, q75 = np.quantile(self.history, [0.25, 0.75])
        return float(np.median(self.history) - lambda_s * (q75 - q25))


def make_table(values, params=P):
    """A one-unit table that audited `values` in order."""
    table = UtilityTable(1)
    for t, v in enumerate(values):
        table.record([0], [v], params, t)
    return table


def test_first_audit_seeds_ema():
    table = make_table([0.8])
    assert table.ema[0] == 0.8 == table.score[0]
    assert np.array_equal(table.hist[0], [0.8] + [math.nan] * 4, equal_nan=True)
    assert table.probe_count[0] == 1


def test_ema_recursion():
    assert math.isclose(make_table([0.5, 1.0]).ema[0], 0.1 * 1.0 + 0.9 * 0.5)


def test_history_fifo_eviction():
    # the sixth value overwrites the oldest of the first five smoothed values
    five, six = make_table([1, 2, 3, 4, 5]), make_table([1, 2, 3, 4, 5, 6])
    assert six.probe_count[0] == 6
    assert sorted(six.hist[0]) == sorted([*five.hist[0, 1:], six.ema[0]])


def test_nonfinite_rejected():
    tr = UtilityTracker(0)
    with pytest.raises(NonFiniteUtility):
        tr.record_audit(float("nan"), P, 0)
    with pytest.raises(NonFiniteUtility):
        tr.record_audit(float("inf"), P, 0)


def test_never_audited_is_an_error_not_zero():
    tr = UtilityTracker(0)
    with pytest.raises(NeverAudited):
        tr.robust_score(P)


def test_smoothing_param_bounds():
    with pytest.raises(InvalidParams):
        SmoothingParams(beta=1.0)
    with pytest.raises(InvalidParams):
        SmoothingParams(beta=0.0)
    with pytest.raises(InvalidParams):
        SmoothingParams(lambda_s=-0.1)


def test_robust_score_hand_computed():
    # history [0.5, 0.7, 0.9]: median 0.7, q25 0.6, q75 0.8, iqr 0.2
    assert math.isclose(robust_scores(np.array([[0.5, 0.7, 0.9]]), 0.5, [3])[0], 0.7 - 0.1)


def test_robust_score_single_sample():
    assert make_table([0.4], SmoothingParams(lambda_s=7.0)).score[0] == 0.4


def test_robust_score_constant_history():
    h = np.array([[0.3, 0.3, 0.3, 0.3, math.nan]])
    assert math.isclose(robust_scores(h, 3.0, [4])[0], 0.3)


# Plain floats, and rounded ones that tie often.
history_values = st.one_of(
    st.floats(-100, 100), st.floats(-3, 3).map(lambda x: round(x, 1)), st.integers(-2, 2).map(lambda k: k / 4)
)


@st.composite
def padded_histories(draw):
    """Rows of one window (3 to 5 slots), each with 1 to window values, some
    constant, in random slots; NaN fills the others."""
    window = draw(st.integers(3, 5))
    rows, lengths = [], []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.integers(1, window))
        if draw(st.booleans()):
            values = [draw(history_values)] * n
        else:
            values = draw(st.lists(history_values, min_size=n, max_size=n))
        row = np.full(window, math.nan)
        row[draw(st.permutations(range(window)))[:n]] = values
        rows.append(row)
        lengths.append(n)
    return np.array(rows), lengths


@pytest.mark.parametrize("lengths", [[4, 1], [1, 4]])
def test_robust_scores_reject_a_length_above_the_row_width(lengths):
    # A row of 3 slots cannot hold 4 values; the picks must not run into the next row.
    h = np.array([[0.1, 0.2, 0.3], [0.4, math.nan, math.nan]])
    with pytest.raises(InvalidParams):
        robust_scores(h, 0.5, lengths)


@settings(max_examples=300, deadline=None)
@given(padded_histories(), st.one_of(st.just(0.0), st.just(0.5), st.floats(0, 5)))
def test_robust_scores_equal_numpy_per_length(histories, lambda_s):
    h, lengths = histories
    expected = []
    for row in h:
        values = row[~np.isnan(row)][None, :]
        q25, q75 = np.quantile(values, [0.25, 0.75], axis=1)
        expected.append(float((np.median(values, axis=1) - lambda_s * (q75 - q25))[0]))
    assert np.array_equal(robust_scores(h, lambda_s, lengths), expected)


vals = st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=12)


@given(vals)
def test_score_never_exceeds_median(values):
    table = make_table(values)
    assert table.score[0] <= np.nanmedian(table.hist[0]) + 1e-12


@given(vals, st.floats(-50, 50, allow_nan=False))
def test_shift_equivariance(values, k):
    base = make_table(values)
    shifted = make_table([v + k for v in values])
    assert math.isclose(shifted.ema[0], base.ema[0] + k, abs_tol=1e-9)
    assert math.isclose(shifted.score[0], base.score[0] + k, abs_tol=1e-9)


@given(vals, st.floats(0.01, 50))
def test_scale_equivariance(values, t):
    base = make_table(values)
    scaled = make_table([v * t for v in values])
    assert math.isclose(scaled.ema[0], base.ema[0] * t, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(scaled.score[0], base.score[0] * t, rel_tol=1e-9, abs_tol=1e-9)


@settings(deadline=None)
@given(st.floats(0.2, 0.95), st.integers(0, 2**31 - 1))
def test_variance_shrinks_below_raw_noise(beta, seed):
    table = make_table(np.random.default_rng(seed).standard_normal(50), SmoothingParams(beta=beta))
    assert math.isfinite(table.ema[0])


def test_ema_variance_bound_quick():
    assert checks.ema_variance(0.9, replicas=3000, audits=150, seed=7).ok


def test_drift_bias_bound_quick():
    assert checks.drift_bias(0.9, 0.01, audits=400).ok


def test_event_record_shape():
    tr = UtilityTracker(3)
    tr.record_audit(1.5, P, 9)
    ev = tr.event(1.5, P, 9)
    assert ev == {
        "cycle": 9,
        "unit_id": 3,
        "u_raw": 1.5,
        "ema": 1.5,
        "score": 1.5,
        "probe_count": 1,
    }
    # Once the ring buffer wraps, the view still scores its row as the table does.
    for t, u in enumerate([0.2, -1.0, 3.0, 0.5, 2.0, 1.0], start=10):
        tr.record_audit(u, P, t)
    assert tr.robust_score(P) == tr.table.score[0]


def table_state(table):
    return [a.copy() for a in (table.ema, table.hist, table.probe_count, table.score)]


@pytest.mark.parametrize(
    "units, u_raw, error",
    [
        ([2, 3, 1], [0.2, float("nan"), float("inf")], NonFiniteUtility),
        ([1, 1], [0.1, 0.2], InvalidParams),
        ([1, 2], [0.1], InvalidParams),
        ([4], [0.1], InvalidParams),
        ([-1], [0.1], InvalidParams),
    ],
    ids=["non-finite", "repeated-unit", "length-mismatch", "id-too-large", "negative-id"],
)
def test_table_rejects_bad_batch_and_changes_nothing(units, u_raw, error):
    table = UtilityTable(4)
    table.record([0, 1], [0.5, 1.0], P, 0)
    before = table_state(table)
    with pytest.raises(error, match="unit 3" if error is NonFiniteUtility else None):
        table.record(units, u_raw, P, 1)
    for old, new in zip(before, table_state(table)):
        assert np.array_equal(old, new, equal_nan=True)


@settings(deadline=None, max_examples=200)
@given(
    st.floats(0.05, 0.95),
    st.floats(0.0, 5.0),
    st.lists(
        st.lists(st.tuples(st.integers(0, 5), st.floats(-100, 100)), unique_by=lambda a: a[0]),
        max_size=12,
    ),
)
def test_table_equals_per_unit_tracker_replays(beta, lambda_s, batches):
    # Up to 12 batches of distinct units: every history length 1..12 occurs.
    params = SmoothingParams(beta=beta, lambda_s=lambda_s)
    table = UtilityTable(6)
    refs = [ReferenceTracker() for _ in range(6)]
    for cycle, batch in enumerate(batches):
        units = [unit for unit, _ in batch]
        u_raw = [u for _, u in batch]
        events = table.record(units, u_raw, params, cycle)
        for unit, u in batch:
            refs[unit].record(u, beta)
        assert events == [
            {"cycle": cycle, "unit_id": unit, "u_raw": u, "ema": refs[unit].ema,
             "score": refs[unit].score(lambda_s), "probe_count": refs[unit].probe_count}
            for unit, u in batch
        ]
        assert np.array_equal(table.probe_count, [r.probe_count for r in refs])
        assert np.array_equal(table.ema, [r.ema for r in refs], equal_nan=True)
        assert np.array_equal(table.score, [r.score(lambda_s) for r in refs])
