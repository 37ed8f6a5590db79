"""Full two-phase protocol: T search-audit-allocate cycles, then a guard-free
re-solve and a from-scratch re-finetune of the selected units."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .allocator import (
    ENUMERATION_MAX,
    AllocatorParams,
    apply_hysteresis,
    fill,
    final_resolve,
    gate_cost,
    greedy_allocate,
)
from .errors import BudgetViolation, InvalidParams, MalformedLog, check_count
from .fsm import FsmParams, FsmStabilizer
from .oracle import KeyedStreams, OracleSpec, SyntheticOracle, gates_to_bits
from .sampler import SamplerParams, sample_audit_batch
from .space import AuditSpace, Family, default_space
from .tracker import SmoothingParams, UtilityTable

_STREAM_SAMPLER = 0x5A17
_STREAM_BASELINE = 0xBA5E

# Total loop training steps per few-shot supervision level.
SHOTS_TOTAL_STEPS = {1: 6000, 5: 8000, 10: 12000}


@dataclass(frozen=True)
class RunConfig:
    space: AuditSpace
    oracle_spec: OracleSpec
    sampler: SamplerParams
    smoothing: SmoothingParams
    allocator: AllocatorParams
    fsm: FsmParams
    cycles: int
    steps_per_cycle: int
    refinetune_steps: int
    shots: int = 1
    run_seed: int = 0
    window: int = 5

    def __post_init__(self) -> None:
        for name in ("cycles", "steps_per_cycle", "shots"):
            check_count(name, getattr(self, name), 1)
        for name in ("refinetune_steps", "run_seed"):
            check_count(name, getattr(self, name), 0)
        if self.oracle_spec.n_units != self.space.n_units:
            raise InvalidParams("oracle spec and audit space disagree on the unit count")

    @property
    def total_loop_steps(self) -> int:
        return self.cycles * self.steps_per_cycle

    @classmethod
    def from_json(cls, doc: dict | str | Path) -> "RunConfig":
        if isinstance(doc, (str, Path)):
            doc = json.loads(Path(doc).read_text())
        if not isinstance(doc, dict):
            raise InvalidParams(f"run config must be a JSON object, not {type(doc).__name__}")
        try:
            space_doc = doc.get("space")
            space = default_space() if space_doc in (None, "default") else AuditSpace.from_json(space_doc)
            shots = doc.get("shots", 1)
            oracle_doc = doc.get("oracle", {"kind": "default"})
            if oracle_doc.get("kind", "synthetic") == "default":
                spec = default_oracle_spec(space, shots=shots, seed=oracle_doc.get("seed", 0))
            else:
                spec = OracleSpec.from_json(oracle_doc)
            config = cls(
                space=space,
                oracle_spec=spec,
                sampler=SamplerParams(**doc.get("sampler", {"batch_size": 6})),
                smoothing=SmoothingParams(**doc.get("smoothing", {})),
                allocator=AllocatorParams(**doc.get("allocator", {})),
                # Older configs may carry tau_rank, the threshold of a
                # rank-change vote this engine does not have; ignore it.
                fsm=FsmParams(**{k: v for k, v in doc.get("fsm", {}).items() if k != "tau_rank"}),
                cycles=doc["cycles"],
                steps_per_cycle=doc["steps_per_cycle"],
                refinetune_steps=doc.get("refinetune_steps", 0),
                shots=shots,
                run_seed=doc.get("run_seed", 0),
                window=doc.get("window", 5),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InvalidParams(f"malformed run config: {exc}") from exc
        # By default the re-finetune gets the loop's whole step budget.
        return config if "refinetune_steps" in doc else replace(config, refinetune_steps=config.total_loop_steps)

    def to_json(self) -> dict:
        return {
            "space": self.space.to_json(),
            "oracle": self.oracle_spec.to_json(),
            "sampler": {
                "batch_size": self.sampler.batch_size,
                "active_fraction": self.sampler.active_fraction,
                "epsilon": self.sampler.epsilon,
            },
            "smoothing": {"beta": self.smoothing.beta, "lambda_s": self.smoothing.lambda_s},
            "allocator": {"p_max": self.allocator.p_max, "mu_eff": self.allocator.mu_eff},
            "fsm": {"tau_act": self.fsm.tau_act},
            "cycles": self.cycles,
            "steps_per_cycle": self.steps_per_cycle,
            "refinetune_steps": self.refinetune_steps,
            "shots": self.shots,
            "run_seed": self.run_seed,
            "window": self.window,
        }


@dataclass(frozen=True)
class RunReport:
    final_gates: np.ndarray
    final_value: float
    final_score: float
    budget_used: float
    t_c: int
    max_unit_flips: int
    probe_counts: np.ndarray
    value_curve: list[float]
    regret_curve: list[float] | None
    eval_count: int

    def to_json(self) -> dict:
        return {
            "final_gates": gates_to_bits(self.final_gates),
            "final_on_ids": [int(i) for i in np.flatnonzero(self.final_gates)],
            "final_value": self.final_value,
            "final_score": self.final_score,
            "budget_used": self.budget_used,
            "t_c": self.t_c,
            "max_unit_flips": self.max_unit_flips,
            "probe_counts": [int(c) for c in self.probe_counts],
            "value_curve": self.value_curve,
            "regret_curve": self.regret_curve,
            "eval_count": self.eval_count,
        }


class LoopDriver:
    """Runs the online selection loop against an evaluation oracle.

    All randomness is derived from (run_seed, cycle) for the sampler and from
    (oracle seed, call index) for evaluations, so a run's event log is a
    deterministic function of its config.

    `scores` and `probe_counts` hold each unit's robust score and audit count
    as of its latest audit; a unit's score changes only when it is audited.
    Never-audited units keep a 0.0 placeholder and are ineligible for
    allocation.
    """

    def __init__(self, config: RunConfig, oracle=None):
        self.config = config
        self.space = config.space
        self.oracle = oracle if oracle is not None else SyntheticOracle(config.oracle_spec)
        n = self.space.n_units
        self.gates = self.space.initial_gates()
        self.table = UtilityTable(n, config.window)
        self.fsm = FsmStabilizer(n, config.fsm.tau_act)
        self.training = self.oracle.fresh_state()
        self.eval_count = 0
        self.records: list[dict] = []
        self._sampler_streams = KeyedStreams(config.run_seed, _STREAM_SAMPLER)

    @property
    def scores(self) -> np.ndarray:
        return self.table.score

    @property
    def probe_counts(self) -> np.ndarray:
        return self.table.probe_count

    # -- helpers -----------------------------------------------------------

    def _audit_utilities(self, batch: Sequence[int]) -> tuple[float, list[float]]:
        """One shared full-configuration evaluation plus one toggle per unit.

        An active unit is toggled off (its removal marginal); an inactive one
        is toggled on (its activation marginal). The full configuration takes
        call index `eval_count` and the toggle at batch position p takes
        `eval_count + 1 + p`.
        """
        full, toggle_scores = self.oracle.evaluate_toggles(
            self.training, self.gates, batch, self.eval_count
        )
        self.eval_count += 1 + len(batch)

        utilities: list[float] = []
        for unit, toggled_score in zip(batch, toggle_scores):
            if self.gates[unit]:
                delta = full - toggled_score
            else:
                delta = toggled_score - full
            utilities.append(delta / self.space.costs[unit])
        return full, utilities

    # -- protocol ----------------------------------------------------------

    def run_cycle(self, cycle: int) -> dict:
        cfg = self.config
        costs = self.space.costs
        p_max = cfg.allocator.p_max

        # Search: train the active set.
        self.training = self.oracle.train_step(self.training, self.gates, cfg.steps_per_cycle)
        active_before = [int(i) for i in np.flatnonzero(self.gates)]

        # Audit: sample, toggle, record.
        rng = self._sampler_streams(cycle)
        batch, exploration = sample_audit_batch(self.gates, self.probe_counts, cfg.sampler, rng)
        full_value, utilities = self._audit_utilities(batch)
        audit_events = self.table.record(batch, utilities, cfg.smoothing, cycle)

        # Allocate: greedy proposal, hysteresis, FSM commit.
        scores, eligible = self.scores, self.probe_counts >= 1
        proposal = greedy_allocate(scores, costs, eligible, p_max)
        guarded = apply_hysteresis(self.gates, proposal, scores, costs, p_max, cfg.allocator.mu_eff)
        committed = self.fsm.filter_proposals(
            self.gates, guarded, scores=scores, costs=costs, p_max=p_max
        )
        prev = self.gates
        self.gates = committed
        budget_used = gate_cost(committed, costs)
        if budget_used > p_max:
            raise BudgetViolation(f"cycle {cycle}: committed cost {budget_used} exceeds {p_max}")

        record = {
            "kind": "cycle",
            "cycle": cycle,
            "search": {"steps": cfg.steps_per_cycle, "active": active_before},
            "audit": {
                "batch": batch,
                "exploration_slots": exploration,
                "full_value": full_value,
                "audits": audit_events,
            },
            "allocate": {
                "proposed_on": [int(i) for i in np.flatnonzero(proposal.gates & ~prev)],
                "proposed_off": [int(i) for i in np.flatnonzero(prev & ~proposal.gates)],
                "accepted_on": [int(i) for i in np.flatnonzero(committed & ~prev)],
                "accepted_off": [int(i) for i in np.flatnonzero(prev & ~committed)],
                "total_cost": budget_used,
                "total_score": float(scores[committed].sum()),
            },
            "fsm": {
                "votes": self.fsm.vote_summary(),
                "commits": [int(i) for i in np.flatnonzero(committed != prev)],
                "t_c": self.fsm.change_cycles,
            },
            "value": self.oracle.true_value(self.training, committed),
            "eval_count": self.eval_count,
        }
        self.records.append(record)
        return record

    def run_full(self) -> RunReport:
        cfg = self.config
        for cycle in range(cfg.cycles):
            self.run_cycle(cycle)

        final = final_resolve(self.scores, self.space.costs, self.probe_counts >= 1, cfg.allocator.p_max)

        # Re-finetune from scratch: the final value carries no exploratory state.
        self.training = self.oracle.fresh_state()
        if cfg.refinetune_steps > 0 and final.gates.any():
            self.training = self.oracle.train_step(self.training, final.gates, cfg.refinetune_steps)
        final_value = self.oracle.true_value(self.training, final.gates)

        value_curve = [r["value"] for r in self.records]
        regret_curve = None
        if self.space.n_units <= ENUMERATION_MAX and isinstance(self.oracle, SyntheticOracle):
            horizon = self.oracle.fresh_state()
            horizon = self.oracle.train_step(
                horizon, np.ones(self.space.n_units, dtype=bool), cfg.total_loop_steps + max(1, cfg.refinetune_steps)
            )
            _, opt_value = self.oracle.oracle_optimum(horizon, self.space.costs, cfg.allocator.p_max)
            regret_curve = [opt_value - v for v in value_curve]

        self.records.append(
            {
                "kind": "final",
                "final_gates": gates_to_bits(final.gates),
                "final_on_ids": [int(i) for i in np.flatnonzero(final.gates)],
                "final_value": final_value,
                "final_score": final.total_score,
                "budget_used": final.total_cost,
                "t_c": self.fsm.change_cycles,
                "eval_count": self.eval_count,
            }
        )
        return RunReport(
            final_gates=final.gates,
            final_value=final_value,
            final_score=final.total_score,
            budget_used=final.total_cost,
            t_c=self.fsm.change_cycles,
            max_unit_flips=int(self.fsm.unit_flips.max()),
            probe_counts=self.probe_counts.copy(),
            value_curve=value_curve,
            regret_curve=regret_curve,
            eval_count=self.eval_count,
        )

    def write_events(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return path


def run_full(config: RunConfig, oracle=None) -> tuple[RunReport, LoopDriver]:
    driver = LoopDriver(config, oracle=oracle)
    report = driver.run_full()
    return report, driver


def run_random_baseline(config: RunConfig, n_samples: int, oracle=None) -> np.ndarray:
    """Final noise-free values of random budget-filling configurations.

    Each sample activates units in a random order while the budget holds and
    trains them for the engine's total step budget (loop plus re-finetune).
    """
    check_count("n_samples", n_samples, 1)
    oracle = oracle if oracle is not None else SyntheticOracle(config.oracle_spec)
    n, costs = config.space.n_units, config.space.costs
    total_steps = config.total_loop_steps + max(1, config.refinetune_steps)
    values = np.empty(n_samples)
    streams = KeyedStreams(config.run_seed, _STREAM_BASELINE)
    for s in range(n_samples):
        gates, _ = fill(np.zeros(n, dtype=bool), streams(s).permutation(n), costs, config.allocator.p_max)
        state = oracle.fresh_state()
        if gates.any():
            state = oracle.train_step(state, gates, total_steps)
        values[s] = oracle.true_value(state, gates)
    return values


def sweep(shots_levels: Sequence[int], seeds: Sequence[int], random_samples: int) -> dict:
    """Per shots level, arrays over the default instances of `seeds`: final
    values of the full engine ("full"), the no-FSM (tau_act = 1) and no-IQR
    (lambda_s = 0) ablations ("nofsm", "noiqr"), the median of
    `random_samples` random budget-filling configurations ("rand"), and the
    full engine's committed-change count ("t_c")."""
    results = {}
    for shots in shots_levels:
        rows: dict[str, list] = {k: [] for k in ("full", "nofsm", "noiqr", "rand", "t_c")}
        for seed in seeds:
            cfg = default_run_config(shots=shots, run_seed=seed)
            report, _ = run_full(cfg)
            rows["full"].append(report.final_value)
            rows["t_c"].append(report.t_c)
            rows["nofsm"].append(run_full(replace(cfg, fsm=FsmParams(tau_act=1)))[0].final_value)
            no_iqr = replace(cfg, smoothing=replace(cfg.smoothing, lambda_s=0.0))
            rows["noiqr"].append(run_full(no_iqr)[0].final_value)
            rows["rand"].append(float(np.median(run_random_baseline(cfg, random_samples))))
        results[shots] = {k: np.array(v) for k, v in rows.items()}
    return results


DIAGNOSTIC_COLUMNS = ("cycle", "value", "regret", "t_c", "coverage_min")


def compute_diagnostics(records: list[dict] | str | Path, *, n_units: int | None = None) -> dict:
    """Coverage, chatter count, regret curve and evaluation totals from a log,
    plus the last cycle index and the final record's `final_value` (None
    when the log has no final record).

    Regret is measured against the best noise-free value seen during the run.
    """
    if not isinstance(records, list):
        path = Path(records)
        try:
            records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
        except (OSError, json.JSONDecodeError) as exc:
            raise MalformedLog(f"cannot parse event log: {exc}") from exc

    if not all(isinstance(r, dict) for r in records):
        raise MalformedLog("event log holds a line that is not a JSON object")
    cycles = [r for r in records if r.get("kind") == "cycle"]
    finals = [r for r in records if r.get("kind") == "final"]
    if not cycles:
        raise MalformedLog("event log contains no cycle records")
    try:
        if n_units is None:
            n_units = 1 + max(max(r["audit"]["batch"], default=0) for r in cycles)
        coverage = np.zeros(n_units, dtype=np.int64)
        values: list[float] = []
        t_c_curve: list[int] = []
        coverage_min: list[int] = []
        for r in sorted(cycles, key=lambda r: r["cycle"]):
            for unit in r["audit"]["batch"]:
                coverage[unit] += 1
            values.append(float(r["value"]))
            t_c_curve.append(int(r["fsm"]["t_c"]))
            coverage_min.append(int(coverage.min()))
        eval_count = int(cycles[-1]["eval_count"])
        last_cycle = max(int(r["cycle"]) for r in cycles)
        final_value = float(finals[-1]["final_value"]) if finals else None
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise MalformedLog(f"event log record missing field: {exc}") from exc

    best = max(values)
    regret = [best - v for v in values]
    return {
        "coverage": coverage,
        "t_c": t_c_curve[-1],
        "value_curve": values,
        "regret_curve": regret,
        "t_c_curve": t_c_curve,
        "coverage_min_curve": coverage_min,
        "eval_count": eval_count,
        "last_cycle": last_cycle,
        "final_value": final_value,
    }


def write_diagnostics_csv(diag: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DIAGNOSTIC_COLUMNS)
        for t in range(len(diag["value_curve"])):
            writer.writerow(
                [
                    t,
                    repr(diag["value_curve"][t]),
                    repr(diag["regret_curve"][t]),
                    diag["t_c_curve"][t],
                    diag["coverage_min_curve"][t],
                ]
            )
    return path


# -- default experiment ----------------------------------------------------


def default_oracle_spec(space: AuditSpace, shots: int = 1, seed: int = 0) -> OracleSpec:
    """Synthetic ground truth for a space.

    Insertion sites are bimodal: most carry near-zero, slightly harmful
    adapters, a minority are genuinely strong. Per-unit asymptotes scale
    sublinearly with adapter size, saturate within a few hundred steps, and
    same-site same-family units share a concave redundancy group. Evaluation
    noise shrinks with supervision but keeps a floor, so utility estimates
    stay noisy enough at every shots level that robust smoothing and vote
    hysteresis have work to do.
    """
    check_count("shots", shots, 1)
    check_count("oracle seed", seed, 0)
    rng = np.random.default_rng([seed, 0x5EED])
    n = space.n_units

    site_keys = sorted({(u.layer, u.slot) for u in space.units}, key=lambda k: (k[0], k[1].value))
    site_quality = {}
    for key in site_keys:
        if rng.random() < 0.6:
            site_quality[key] = rng.uniform(-0.3, 0.15)
        else:
            site_quality[key] = rng.uniform(0.4, 1.0)

    max_size = {Family.LORA: 16, Family.ADAPTFORMER: 32, Family.AFFINE_LN: 1}
    mu_inf = np.empty(n)
    for u in space.units:
        size = max(1, u.kind.size)
        size_factor = (size / max_size[u.kind.family]) ** 0.3
        mu_inf[u.id] = 0.05 * site_quality[(u.layer, u.slot)] * size_factor * abs(rng.normal(1.0, 0.25))
    kappa = rng.uniform(300.0, 900.0, size=n)

    group_map: dict[tuple, list[int]] = {}
    for u in space.units:
        group_map.setdefault((u.layer, u.slot, u.kind.family), []).append(u.id)
    groups = tuple(tuple(sorted(g)) for _, g in sorted(group_map.items(), key=lambda kv: kv[1][0]))
    gammas = tuple(0.45 if len(g) > 1 else 1.0 for g in groups)

    return OracleSpec(
        base_score=0.45,
        mu_inf=tuple(mu_inf),
        kappa=tuple(kappa),
        drift=0.0,
        sigma_val=0.05 + 0.015 / shots,
        groups=groups,
        gammas=gammas,
        warm_floor=0.5,
        seed=seed,
    )


def default_run_config(shots: int = 1, run_seed: int = 0) -> RunConfig:
    """Desk-scale preset: 74-unit space, budget 0.2%, step budget per shots.

    The synthetic ground truth is seeded from `run_seed`, so a multi-seed
    sweep samples fresh problem instances rather than replaying one.
    """
    if shots not in SHOTS_TOTAL_STEPS:
        raise InvalidParams(f"shots must be one of {sorted(SHOTS_TOTAL_STEPS)}")
    space = default_space()
    steps_per_cycle = 100
    cycles = SHOTS_TOTAL_STEPS[shots] // steps_per_cycle
    return RunConfig(
        space=space,
        oracle_spec=default_oracle_spec(space, shots=shots, seed=run_seed),
        sampler=SamplerParams(batch_size=10),
        smoothing=SmoothingParams(),
        allocator=AllocatorParams(),
        fsm=FsmParams(),
        cycles=cycles,
        steps_per_cycle=steps_per_cycle,
        refinetune_steps=SHOTS_TOTAL_STEPS[shots],
        shots=shots,
        run_seed=run_seed,
    )
