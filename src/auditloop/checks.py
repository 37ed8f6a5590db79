"""The engine's stated bounds: each one's measuring loop and pass rule.

`auditloop verify-bounds` and the acceptance suite only choose sizes and
seeds. A check returns a `Verdict` with its tolerance applied, and raises
`InvalidParams` at sizes it cannot judge (a coverage bound that is not
positive, too few EMA replicas or drift audits for its tolerance, a drift
that is not positive, allocator instances beyond the exhaustive cap). Each
`*_verdict` function holds one bound and its pass rule. The chatter checks
(the exhaustive one at each of `CHATTER_TAUS`) pass on no violations of
floor(T / tau) flips per unit, and their names count the columns or runs
that can violate it: a unit flips at most once a step, so at tau 1 none can.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .allocator import ENUMERATION_MAX, Budget, brute_force_optimum, swap_resolve
from .errors import AuditLoopError, InvalidParams, check_count
from .fsm import FsmStabilizer
from .sampler import EPSILON, SamplerParams, coverage_lower_bound, sample_audit_batch
from .tracker import SmoothingParams, UtilityTable


CHATTER_TAUS = (1, 2, 3)


class Verdict(NamedTuple):
    """A check's bound, what it measured, and whether that passes its rule."""

    name: str
    bound: float
    measured: float
    ok: bool


def ema_variance_verdict(beta: float, measured: float) -> Verdict:
    """Steady-state Var(EMA) of unit-variance noise, within 10% either way:
    the bound is the exact stationary variance, so far below it is a defect
    too."""
    bound = (1.0 - beta) / (1.0 + beta)
    return Verdict(f"ema-variance beta={beta}", bound, measured, abs(measured / bound - 1.0) <= 0.1)


def drift_bias_verdict(beta: float, delta: float, measured: float) -> Verdict:
    """Steady-state |EMA - mu| under a drift of delta per audit, within 5%
    either way: the bound is the exact limit, so far below it is a defect."""
    bound = delta * beta / (1.0 - beta)
    return Verdict(f"ema-drift-bias beta={beta} delta={delta}", bound, measured, abs(measured - bound) <= 0.05 * bound)


def coverage_verdict(n: int, m: int, cycles: int, measured: int) -> Verdict:
    """Binomial lower bound on any unit's probe count, rho = EPSILON * M / N."""
    rho = coverage_lower_bound(n, m)
    bound = rho * cycles - 4.0 * math.sqrt(rho * (1.0 - rho) * cycles)
    return Verdict(f"coverage N={n} M={m} eps={EPSILON}", bound, measured, measured >= bound)


def allocator_verdicts(ratios: np.ndarray) -> tuple[Verdict, Verdict]:
    """A 1/2-approximation, within 5% of the optimum on 90% of instances."""
    worst, share = float(ratios.min()), float((ratios >= 0.95).mean())
    return Verdict("min ratio", 0.5, worst, worst >= 0.5), Verdict("frac>=0.95", 0.9, share, share >= 0.9)


def _flips(tau: int, proposals: np.ndarray) -> np.ndarray:
    """Committed flips per unit of a stabilizer fed the rows of `proposals`
    (T x units), on the engine's budgeted commit path with unit costs and a
    budget of one per unit. Every unit fits at once, so no unit's votes
    depend on another's and each column runs as it would alone."""
    n = proposals.shape[1]
    fsm, ones, budget = FsmStabilizer(n, tau_act=tau), np.ones(n), Budget([1] * n, 1, float(n))
    gates = np.zeros(n, dtype=bool)
    for proposed in proposals:
        gates = fsm.filter_proposals(gates, proposed, scores=ones, budget=budget)
    return fsm.unit_flips


def fsm_chatter_exhaustive(t_len: int) -> Verdict:
    """Chatter-bound violations (some unit flips more than floor(T / tau)
    times) over every one-unit proposal sequence of length `t_len`, for each
    tau of `CHATTER_TAUS`. Column `mask` of one stabilizer per tau proposes
    bit t of `mask` at step t."""
    masks = np.arange(1 << t_len)
    proposals = (masks >> np.arange(t_len)[:, None] & 1).astype(bool)
    violations = sum(int(np.count_nonzero(_flips(tau, proposals) > t_len // tau)) for tau in CHATTER_TAUS)
    name = f"fsm-chatter T={t_len} {sum(t > 1 for t in CHATTER_TAUS) << t_len}/{len(CHATTER_TAUS) << t_len} can fail"
    return Verdict(name, 0.0, violations, violations == 0)


def fsm_chatter_fuzz(runs: int, t_len: int) -> Verdict:
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
    can_fail = sum(len(blocks) for tau, blocks in by_tau.items() if tau > 1)
    return Verdict(f"fsm-chatter fuzz T={t_len} {can_fail}/{runs} can fail", 0.0, violations, violations == 0)


def _table_ema(values, beta: float) -> float:
    """EMA after auditing `values` in order through the engine's table."""
    params, table = SmoothingParams(beta=beta), UtilityTable(1)
    for t, u in enumerate(values):
        table.record([0], [u], params, t)
    return float(table.ema[0])


def ema_variance(beta: float, replicas: int, audits: int, seed: int) -> Verdict:
    """EMA variance across `replicas` after `audits` unit-variance audits.
    A variance estimate from R replicas has a relative standard error of
    about sqrt(2 / (R - 1)); the 10% tolerance is 3 of them from R = 1,801.
    Raises if replica 0 audited through a `UtilityTable` disagrees with the
    vectorized recursion by over 1e-12."""
    check_count("replicas (for a 10% variance tolerance)", replicas, 1801)
    noise = np.random.default_rng(seed).standard_normal((replicas, audits))
    ema = noise[:, 0].copy()
    for t in range(1, audits):
        ema = (1.0 - beta) * noise[:, t] + beta * ema
    if not math.isclose(_table_ema(noise[0], beta), ema[0], rel_tol=0.0, abs_tol=1e-12):
        raise AuditLoopError("UtilityTable EMA disagrees with the vectorized recursion")
    return ema_variance_verdict(beta, float(ema.var()))


def drift_bias(beta: float, delta: float, audits: int) -> Verdict:
    """|EMA - mu| after `audits` audits of mu_t = delta * t. The bias is
    bound * (1 - beta^(audits - 1)), within 5% from 30 audits at beta = 0.9.
    Without a positive drift there is no bias that the check could miss."""
    if not delta > 0.0:
        raise InvalidParams(f"drift delta must be positive, not {delta}")
    check_count("audits (for a 5% bias tolerance)", audits, math.ceil(1.0 + math.log(0.05) / math.log(beta)))
    bias = abs(_table_ema(delta * np.arange(audits), beta) - delta * (audits - 1))
    return drift_bias_verdict(beta, delta, bias)


def coverage_probes(n: int, m: int, cycles: int, seed: int) -> np.ndarray:
    """Probe counts after `cycles` batches with the gates frozen and the
    first third of the units active; cycle t draws with (seed, t)."""
    params = SamplerParams(batch_size=m)
    gates = np.arange(n) < n // 3
    probes = np.zeros(n, dtype=np.int64)
    for cycle in range(cycles):
        batch, _ = sample_audit_batch(gates, probes, params, np.random.default_rng([seed, cycle]))
        probes[batch] += 1
    return probes


def coverage_min(n: int, m: int, cycles: int, seeds: int) -> Verdict:
    """Least probe count of any unit over `seeds` runs of `coverage_probes`.
    The bound is positive, so the check can fail, only for
    T > 16 * (1 - rho) / rho."""
    rho = coverage_lower_bound(n, m)
    check_count("cycles (for a positive coverage bound)", cycles, math.floor(16.0 * (1.0 - rho) / rho) + 1)
    worst = min(int(coverage_probes(n, m, cycles, s).min()) for s in range(seeds))
    return coverage_verdict(n, m, cycles, worst)


def allocator_ratios(instances: int, n_max: int, seed: int) -> np.ndarray:
    """`swap_resolve` score over the exhaustive optimum (1.0 where that is
    not positive) on random instances: 1..n_max units, scores uniform in
    [0, 1), costs log-uniform in [1e-4, 5e-3], budget uniform between the
    cheapest unit and the total cost.

    C5 and `verify-bounds` use n_max = 15, so they measure `swap_resolve` on
    instances of at most 15 units; the engine runs it only above
    `EXACT_RESOLVE_MAX` = 16 positive scores, as every default run does."""
    check_count("instances", instances, 1)
    check_count("n-max", n_max, 1, ENUMERATION_MAX)
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    ratios = np.empty(instances)
    for k in range(instances):
        n = int(rng.integers(1, n_max + 1))
        scores = rng.uniform(0.0, 1.0, n)
        costs = np.exp(rng.uniform(np.log(1e-4), np.log(5e-3), n))
        budget = Budget.from_costs(costs, float(rng.uniform(costs.min(), costs.sum())))
        approx = scores[swap_resolve(scores, budget)].sum()
        exact = scores[brute_force_optimum(scores, budget, np.ones(n, dtype=bool))].sum()
        ratios[k] = 1.0 if exact <= 0.0 else approx / exact
    return ratios
