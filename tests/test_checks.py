"""Pins each bound and tolerance in `auditloop.checks` to hand-computed
numbers, so a changed formula or a loosened tolerance fails here."""

from functools import partial

import numpy as np
import pytest

from auditloop import checks

BELOW, ABOVE = 1 - 1e-9, 1 + 1e-9


@pytest.mark.parametrize(
    "verdict, bound, passing, failing",
    [
        # (1 - b) / (1 + b) and d * b / (1 - b), passing up to 10% and 5% over them
        (partial(checks.ema_variance_verdict, 0.5), 1 / 3, 1.1 / 3 * BELOW, 1.1 / 3 * ABOVE),
        (partial(checks.ema_variance_verdict, 0.9), 0.0526, 0.11 / 1.9 * BELOW, 0.11 / 1.9 * ABOVE),
        (partial(checks.drift_bias_verdict, 0.9, 0.01), 0.09, 0.0945 * BELOW, 0.0945 * ABOVE),
        # rho = 0.03: 60 - 4 * sqrt(58.2) = 29.484, with no slack
        (partial(checks.coverage_verdict, 60, 6, 0.3, 2000), 29.484, 30, 29),
        # least ratio 0.5; share of ratios >= 0.95 (0.95 counts, 0.9499999 does not) 0.9
        (lambda x: checks.allocator_verdicts(np.array([x, 1.0]))[0], 0.5, 0.5, np.nextafter(0.5, 0.0)),
        (lambda x: checks.allocator_verdicts(np.where(np.arange(100) < round(100 * x), 0.95, 0.9499999))[1], 0.9, 0.9, 0.89),
    ],
    ids=["ema-variance-0.5", "ema-variance-0.9", "drift-bias", "coverage", "min-ratio", "share"],
)
def test_rule_bound_and_tolerance_edge(verdict, bound, passing, failing):
    assert verdict(passing).bound == pytest.approx(bound, abs=5e-4)
    assert verdict(passing).ok and not verdict(failing).ok

