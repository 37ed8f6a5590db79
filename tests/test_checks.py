"""Pins each bound and tolerance in `auditloop.checks` to hand-computed
numbers, so a changed formula or a loosened tolerance fails here."""

from functools import partial

import numpy as np
import pytest

from auditloop import checks
from auditloop.errors import InvalidParams

BELOW, ABOVE = 1 - 1e-9, 1 + 1e-9


@pytest.mark.parametrize(
    "verdict, bound, passing, failing",
    [
        # (1 - b) / (1 + b), passing within 10% either way, and d * b / (1 - b),
        # passing within 5% either way
        (partial(checks.ema_variance_verdict, 0.5), 1 / 3, 1.1 / 3 * BELOW, 1.1 / 3 * ABOVE),
        (partial(checks.ema_variance_verdict, 0.5), 1 / 3, 0.9 / 3 * ABOVE, 0.9 / 3 * BELOW),
        (partial(checks.ema_variance_verdict, 0.9), 0.0526, 0.11 / 1.9 * BELOW, 0.11 / 1.9 * ABOVE),
        (partial(checks.ema_variance_verdict, 0.9), 0.0526, 0.09 / 1.9 * ABOVE, 0.09 / 1.9 * BELOW),
        (partial(checks.drift_bias_verdict, 0.9, 0.01), 0.09, 0.0945 * BELOW, 0.0945 * ABOVE),
        (partial(checks.drift_bias_verdict, 0.9, 0.01), 0.09, 0.0855 * ABOVE, 0.0855 * BELOW),
        # rho = 0.03: 60 - 4 * sqrt(58.2) = 29.484, with no slack
        (partial(checks.coverage_verdict, 60, 6, 2000), 29.484, 30, 29),
        # least ratio 0.5; share of ratios >= 0.95 (0.95 counts, 0.9499999 does not) 0.9
        (lambda x: checks.allocator_verdicts(np.array([x, 1.0]))[0], 0.5, 0.5, np.nextafter(0.5, 0.0)),
        (lambda x: checks.allocator_verdicts(np.where(np.arange(100) < round(100 * x), 0.95, 0.9499999))[1], 0.9, 0.9, 0.89),
    ],
    ids=[
        "ema-variance-0.5", "ema-variance-0.5-low", "ema-variance-0.9", "ema-variance-0.9-low",
        "drift-bias", "drift-bias-low", "coverage", "min-ratio", "share",
    ],
)
def test_rule_bound_and_tolerance_edge(verdict, bound, passing, failing):
    assert verdict(passing).bound == pytest.approx(bound, abs=5e-4)
    assert verdict(passing).ok and not verdict(failing).ok



def test_ema_variance_needs_replicas_for_its_tolerance():
    # 3 * sqrt(2 / (R - 1)) <= 0.1 from R = 1,801: two replicas once passed
    # beta = 0.5 with a variance of 0.011 against 0.333.
    with pytest.raises(InvalidParams, match="at least 1801"):
        checks.ema_variance(0.5, replicas=1800, audits=20, seed=0)
    assert checks.ema_variance(0.5, replicas=1801, audits=20, seed=0).bound == pytest.approx(1 / 3)


def test_drift_bias_needs_audits_for_its_tolerance():
    # The bias reaches (1 - 0.9^(A - 1)) of its bound after A audits, within
    # 5% from A = 30: one audit once passed with a bias of 0.0.
    with pytest.raises(InvalidParams, match="at least 30"):
        checks.drift_bias(0.9, 0.01, 29)
    assert checks.drift_bias(0.9, 0.01, 30).ok


@pytest.mark.parametrize(
    "check, line",
    [
        # rho = 0.03: rho * T - 4 * sqrt(rho * (1 - rho) * T) > 0 only for T > 16 * (1 - rho) / rho = 517.3
        (lambda: checks.coverage_min(60, 6, 517, 1), "at least 518"),
        (lambda: checks.coverage_min(60, 6, 0, 1), "at least 518"),
        (lambda: checks.ema_variance(0.5, replicas=0, audits=20, seed=0), "at least 1801"),
        (lambda: checks.allocator_ratios(0, 15, 0), "instances must be at least 1"),
        (lambda: checks.allocator_ratios(-1, 15, 0), "instances must be at least 1"),
        (lambda: checks.allocator_ratios(5, 0, 0), "n-max must be at least 1"),
        # the exhaustive optimum enumerates at most ENUMERATION_MAX = 20 units
        (lambda: checks.allocator_ratios(5, 21, 0), "n-max must be at most 20"),
        (lambda: checks.allocator_ratios(5, 15, -1), "seed must be at least 0"),
    ],
    ids=["coverage-cycles-517", "coverage-cycles-0", "ema-replicas-0", "allocator-instances-0", "allocator-instances--1",
         "allocator-n-max-0", "allocator-n-max-21", "allocator-seed--1"],
)
def test_size_at_which_a_check_cannot_judge_raises(check, line):
    with pytest.raises(InvalidParams, match=line):
        check()


@pytest.mark.parametrize("delta", [0.0, -0.01])
def test_drift_bias_needs_a_positive_drift(delta):
    # A zero drift once passed with bound 0.0 and measured 0.0; under a
    # negative one the bound is negative, so even a correct EMA would fail.
    with pytest.raises(InvalidParams, match="must be positive"):
        checks.drift_bias(0.9, delta, 30)


def test_chatter_checks_count_the_columns_that_can_fail():
    # A unit flips at most once a step, so at tau = 1 it cannot exceed T flips:
    # at CHATTER_TAUS (1, 2, 3) two thirds of the 3 x 2^12 exhaustive columns can fail.
    assert checks.fsm_chatter_exhaustive(12).name == "fsm-chatter T=12 8192/12288 can fail"
    # Run r draws its tau first, so which runs can fail does not depend on T.
    assert checks.fsm_chatter_fuzz(100, 10).name == "fsm-chatter fuzz T=10 75/100 can fail"
