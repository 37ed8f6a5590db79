"""Measuring loops behind the engine's stated bounds.

`auditloop verify-bounds`, `auditloop bench-alloc` and the acceptance suite
all measure through these functions. Each takes its sizes and seeds
explicitly and returns what it measured, with the bound (without tolerance)
where there is one; the caller owns the tolerance and the pass rule.
"""

from __future__ import annotations

import math

import numpy as np

from .allocator import brute_force_optimum, swap_resolve
from .errors import AuditLoopError
from .fsm import FsmStabilizer
from .sampler import SamplerParams, coverage_lower_bound, sample_audit_batch
from .tracker import SmoothingParams, UtilityTracker


def _flips(tau: int, proposals: np.ndarray) -> np.ndarray:
    """Committed flips per unit of a budget-free stabilizer fed the rows of
    `proposals` (T x units). Without a budget no unit's votes depend on
    another's, so each column runs as it would alone."""
    fsm = FsmStabilizer(proposals.shape[1], tau_act=tau)
    gates = np.zeros(proposals.shape[1], dtype=bool)
    for proposed in proposals:
        gates = fsm.filter_proposals(gates, proposed)
    return fsm.unit_flips


def fsm_chatter_exhaustive(t_len: int, taus=(1, 2, 3)) -> int:
    """Chatter-bound violations (some unit flips more than floor(T / tau)
    times) over every one-unit proposal sequence of length `t_len`, for each
    tau. Column `mask` of one stabilizer per tau proposes bit t of `mask` at
    step t."""
    masks = np.arange(1 << t_len)
    proposals = (masks >> np.arange(t_len)[:, None] & 1).astype(bool)
    return sum(int(np.count_nonzero(_flips(tau, proposals) > t_len // tau)) for tau in taus)


def fsm_chatter_fuzz(runs: int, t_len: int) -> int:
    """Chatter-bound violations over `runs` random runs of length `t_len`.
    Run r seeds its generator with r and draws tau in 1..3, 1..4 units and
    fair-coin proposals. The runs that share a tau run as the column blocks
    of one stabilizer."""
    by_tau: dict[int, list[np.ndarray]] = {}
    for run in range(runs):
        rng = np.random.default_rng(run)
        tau = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        by_tau.setdefault(tau, []).append(rng.random((t_len, n)) < 0.5)
    violations = 0
    for tau, blocks in by_tau.items():
        starts = np.cumsum([0] + [b.shape[1] for b in blocks[:-1]])
        worst = np.maximum.reduceat(_flips(tau, np.hstack(blocks)), starts)
        violations += int(np.count_nonzero(worst > t_len // tau))
    return violations


def ema_variance(beta: float, replicas: int, audits: int, seed: int) -> tuple[float, float]:
    """(EMA variance across replicas after `audits` unit-variance audits,
    bound (1 - beta) / (1 + beta)). Raises if replica 0 replayed through a
    `UtilityTracker` disagrees with the vectorized recursion by over 1e-12."""
    params = SmoothingParams(beta=beta)
    noise = np.random.default_rng(seed).standard_normal((replicas, audits))
    ema = noise[:, 0].copy()
    for t in range(1, audits):
        ema = (1.0 - beta) * noise[:, t] + beta * ema
    tracker = UtilityTracker(0)
    for t in range(audits):
        tracker.record_audit(noise[0, t], params, t)
    if not math.isclose(tracker.ema, ema[0], rel_tol=0.0, abs_tol=1e-12):
        raise AuditLoopError("tracker EMA disagrees with the vectorized recursion")
    return float(ema.var()), (1.0 - beta) / (1.0 + beta)


def drift_bias(beta: float, delta: float, audits: int) -> tuple[float, float]:
    """(|EMA - mu| after `audits` audits of mu_t = delta * t, steady-state
    bound delta * beta / (1 - beta))."""
    params = SmoothingParams(beta=beta)
    tracker = UtilityTracker(0)
    mu = 0.0
    for t in range(audits):
        mu = delta * t
        tracker.record_audit(mu, params, t)
    return abs(tracker.ema - mu), delta * beta / (1.0 - beta)


def coverage_min(n: int, m: int, eps: float, cycles: int, seeds: int) -> tuple[int, float]:
    """(least probe count of any unit over `seeds` runs, bound
    rho * T - 4 * sqrt(rho * (1 - rho) * T) with rho = eps * M / N).
    The gates stay frozen with the first third of the units active; run s
    seeds cycle t with (s, t)."""
    rho = coverage_lower_bound(n, m, eps)
    bound = rho * cycles - 4.0 * math.sqrt(rho * (1.0 - rho) * cycles)
    params = SamplerParams(batch_size=m, epsilon=eps)
    gates = np.zeros(n, dtype=bool)
    gates[: n // 3] = True
    worst = []
    for seed in range(seeds):
        probes = np.zeros(n, dtype=np.int64)
        for cycle in range(cycles):
            batch, _ = sample_audit_batch(gates, probes, params, np.random.default_rng([seed, cycle]))
            probes[batch] += 1
        worst.append(int(probes.min()))
    return min(worst), bound


def allocator_ratios(instances: int, n_max: int, seed: int) -> np.ndarray:
    """`swap_resolve` score over the exhaustive optimum (1.0 where that is
    not positive) on random instances: 1..n_max units, scores uniform in
    [0, 1), costs log-uniform in [1e-4, 5e-3], budget uniform between the
    cheapest unit and the total cost."""
    rng = np.random.default_rng(seed)
    ratios = np.empty(instances)
    for k in range(instances):
        n = int(rng.integers(1, n_max + 1))
        scores = rng.uniform(0.0, 1.0, n)
        costs = np.exp(rng.uniform(np.log(1e-4), np.log(5e-3), n))
        p_max = float(rng.uniform(costs.min(), costs.sum()))
        eligible = np.ones(n, dtype=bool)
        approx = swap_resolve(scores, costs, eligible, p_max)
        exact = brute_force_optimum(scores, costs, eligible, p_max)
        ratios[k] = 1.0 if exact.total_score <= 0.0 else approx.total_score / exact.total_score
    return ratios
