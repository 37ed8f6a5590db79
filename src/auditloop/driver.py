"""Full two-phase protocol: T search-audit-allocate cycles, then a guard-free
re-solve and a from-scratch re-finetune of the selected units."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .allocator import (
    ENUMERATION_MAX,
    AllocatorParams,
    Budget,
    apply_hysteresis,
    fill,
    final_resolve,
    gate_cost,
    greedy_allocate,
)
from .errors import BudgetViolation, InvalidParams, MalformedLog, check_count, check_keys, read_doc
from .fsm import FsmParams, FsmStabilizer
from .oracle import KeyedStreams, OracleSpec, SyntheticOracle, gates_to_bits
from .sampler import SamplerParams, sample_audit_batch
from .space import AuditSpace, Family, default_space
from .tracker import SmoothingParams, UtilityTable

_STREAM_SAMPLER = 0x5A17
_STREAM_BASELINE = 0xBA5E

# Total loop training steps per few-shot supervision level.
SHOTS_TOTAL_STEPS = {1: 6000, 5: 8000, 10: 12000}
# The most steps one training call takes: the largest count a float holds exactly.
MAX_STEPS = 2**53


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
    refinetune_steps: int | None = None
    shots: int = 1
    run_seed: int = 0

    def __post_init__(self) -> None:
        for name, maximum in (("cycles", None), ("steps_per_cycle", MAX_STEPS), ("shots", None)):
            check_count(name, getattr(self, name), 1, maximum)
        check_count("cycles * steps_per_cycle", self.total_loop_steps, 1, MAX_STEPS)
        if self.refinetune_steps is None:
            # By default the re-finetune gets the loop's whole step budget.
            object.__setattr__(self, "refinetune_steps", self.total_loop_steps)
        for name, maximum in (("refinetune_steps", MAX_STEPS), ("run_seed", None)):
            check_count(name, getattr(self, name), 0, maximum)
        if self.oracle_spec.n_units != self.space.n_units:
            raise InvalidParams("oracle spec and audit space disagree on the unit count")
        if not self.budget.fits(gates := self.space.initial_gates()):
            held, capacity = int(self.budget.counts[gates].sum()), self.budget.capacity
            raise InvalidParams(f"initial gates hold {held} parameters, over the {capacity} that "
                                f"p_max {self.allocator.p_max} allows")

    @property
    def total_loop_steps(self) -> int:
        return self.cycles * self.steps_per_cycle

    @cached_property
    def budget(self) -> Budget:
        """The space's parameter counts under `p_max` of the backbone's, built once."""
        return Budget(self.space.counts, self.space.backbone.backbone_param_count, self.allocator.p_max)

    @classmethod
    def from_json(cls, doc: dict | str | Path) -> "RunConfig":
        """A run config from its JSON document or the path of a file holding
        one: `to_json`'s keys, each optional except `cycles` and `steps_per_cycle`.
        A key its object does not know, a nested document that is not an object
        or a bad value raises InvalidParams; an unreadable file its OSError."""
        if isinstance(doc, (str, Path)):
            doc = json.loads(Path(doc).read_text())
        check_keys("run config", doc, {f.name for f in fields(cls)} - {"oracle_spec"} | {"oracle"},
                   required=("cycles", "steps_per_cycle"))
        space_doc, oracle_doc = doc.get("space", "default"), doc.get("oracle", {"kind": "default"})
        if space_doc != "default" and not isinstance(space_doc, dict):
            raise InvalidParams('space must be a JSON object or "default"')
        kind = oracle_doc.get("kind", "synthetic") if isinstance(oracle_doc, dict) else "synthetic"
        try:
            space = default_space() if space_doc == "default" else AuditSpace.from_json(space_doc)
            if kind == "default":
                seed = check_keys("default oracle", oracle_doc, ("kind", "seed")).get("seed", 0)
                spec = default_oracle_spec(space, shots=doc.get("shots", cls.shots), seed=seed)
            elif kind == "synthetic":
                spec = read_doc(OracleSpec, "oracle", oracle_doc, ignored=("kind",))
            else:
                raise InvalidParams(f'oracle kind must be "default" or "synthetic", not {kind!r}')
            objects = {
                "space": space,
                "oracle_spec": spec,
                "sampler": read_doc(SamplerParams, "sampler", doc.get("sampler", {"batch_size": 6})),
                "smoothing": read_doc(SmoothingParams, "smoothing", doc.get("smoothing", {})),
                "allocator": read_doc(AllocatorParams, "allocator", doc.get("allocator", {})),
                "fsm": read_doc(FsmParams, "fsm", doc.get("fsm", {})),
            }
            # Every other key names a scalar field.
            return cls(**{key: value for key, value in doc.items() if key != "oracle"} | objects)
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidParams(f"malformed run config: {exc}") from exc

    def to_json(self) -> dict:
        """The document `from_json` reads back: each field under its name,
        `oracle_spec` under `oracle`, the space as its own `to_json` writes
        it and the other objects as `asdict` does."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc |= {name: asdict(value) for name, value in doc.items() if is_dataclass(value)}
        doc["space"], doc["oracle"] = self.space.to_json(), doc.pop("oracle_spec")
        return doc


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
        """Each field under its name, arrays as JSON lists and the final gates
        as a bitstring, plus `final_on_ids`, the ids of the final set."""
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "final_gates": gates_to_bits(self.final_gates),
            "final_on_ids": [int(i) for i in np.flatnonzero(self.final_gates)],
            "probe_counts": [int(c) for c in self.probe_counts],
        }


class LoopDriver:
    """Runs the online selection loop against an evaluation oracle.

    All randomness is derived from (run_seed, cycle) for the sampler and from
    (oracle seed, call index) for evaluations, so a run's event log is a
    deterministic function of its config.

    `scores` and `probe_counts` hold each unit's robust score and audit count
    as of its latest audit; a unit's score changes only when it is audited.
    A never-audited unit scores 0.0, and the allocator switches on only units
    with positive scores, so no unit is selected before its first audit.
    """

    def __init__(self, config: RunConfig, oracle=None):
        self.config = config
        self.space = config.space
        self.oracle = oracle if oracle is not None else SyntheticOracle(config.oracle_spec)
        n = self.space.n_units
        self.gates = self.space.initial_gates()
        self.table = UtilityTable(n)
        self.fsm = FsmStabilizer(n, config.fsm.tau_act)
        self.budget = config.budget
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

    def _audit_utilities(self, batch: Sequence[int]) -> tuple[float, np.ndarray]:
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
        idx, toggled = np.array(batch, dtype=np.intp), np.array(toggle_scores, dtype=float)
        return full, np.where(self.gates[idx], full - toggled, toggled - full) / self.budget.costs[idx]

    # -- protocol ----------------------------------------------------------

    def run_cycle(self, cycle: int) -> dict:
        cfg = self.config
        budget, p_max = self.budget, cfg.allocator.p_max

        # Search: train the active set.
        self.training = self.oracle.train_step(self.training, self.gates, cfg.steps_per_cycle)
        active_before = self.gates.nonzero()[0].tolist()

        # Audit: sample, toggle, record.
        rng = self._sampler_streams(cycle)
        batch, exploration = sample_audit_batch(self.gates, self.probe_counts, cfg.sampler, rng)
        full_value, utilities = self._audit_utilities(batch)
        audit_events = self.table.record(batch, utilities, cfg.smoothing, cycle)

        # Allocate: greedy proposal, hysteresis, FSM commit.
        scores = self.scores
        proposed = greedy_allocate(scores, budget)
        guarded = apply_hysteresis(self.gates, proposed, scores, budget, cfg.allocator.mu_eff)
        committed = self.fsm.filter_proposals(self.gates, guarded, scores=scores, budget=budget)
        prev = self.gates
        self.gates = committed
        budget_used = gate_cost(committed, budget.costs)
        if budget_used > p_max:
            raise BudgetViolation(f"cycle {cycle}: committed cost {budget_used} exceeds {p_max}")

        # Every dict of the log is built in sorted key order, so the
        # encoder's `sort_keys` pass in `write_events` finds it sorted.
        record = {
            "allocate": {
                "accepted_off": (prev & ~committed).nonzero()[0].tolist(),
                "accepted_on": (committed & ~prev).nonzero()[0].tolist(),
                "proposed_off": (prev & ~proposed).nonzero()[0].tolist(),
                "proposed_on": (proposed & ~prev).nonzero()[0].tolist(),
                "total_cost": budget_used,
                "total_score": float(scores[committed].sum()),
            },
            "audit": {
                "audits": audit_events,
                "batch": batch,
                "exploration_slots": exploration,
                "full_value": full_value,
            },
            "cycle": cycle,
            "eval_count": self.eval_count,
            "fsm": {
                "commits": (committed != prev).nonzero()[0].tolist(),
                "t_c": self.fsm.change_cycles,
                "votes": self.fsm.vote_summary(),
            },
            "kind": "cycle",
            "search": {"active": active_before, "steps": cfg.steps_per_cycle},
            "value": self.oracle.true_value(self.training, committed),
        }
        self.records.append(record)
        return record

    def run_full(self) -> RunReport:
        cfg = self.config
        for cycle in range(cfg.cycles):
            self.run_cycle(cycle)

        final = final_resolve(self.scores, self.budget)

        # Re-finetune from scratch: the final value carries no exploratory state.
        self.training = self.oracle.fresh_state()
        if cfg.refinetune_steps > 0 and final.any():
            self.training = self.oracle.train_step(self.training, final, cfg.refinetune_steps)
        final_value = self.oracle.true_value(self.training, final)

        value_curve = [r["value"] for r in self.records]
        regret_curve = None
        if self.space.n_units <= ENUMERATION_MAX and hasattr(self.oracle, "oracle_optimum"):
            horizon = self.oracle.fresh_state()
            horizon = self.oracle.train_step(
                horizon, np.ones(self.space.n_units, dtype=bool), cfg.total_loop_steps + max(1, cfg.refinetune_steps)
            )
            _, opt_value = self.oracle.oracle_optimum(horizon, self.budget)
            regret_curve = [opt_value - v for v in value_curve]

        report = RunReport(
            final_gates=final,
            final_value=final_value,
            final_score=float(self.scores[final].sum()),
            budget_used=gate_cost(final, self.budget.costs),
            t_c=self.fsm.change_cycles,
            max_unit_flips=int(self.fsm.unit_flips.max()),
            probe_counts=self.probe_counts.copy(),
            value_curve=value_curve,
            regret_curve=regret_curve,
            eval_count=self.eval_count,
        )
        summary = report.to_json()
        keys = ("budget_used", "eval_count", "final_gates", "final_on_ids", "final_score", "final_value")
        self.records.append({key: summary[key] for key in keys} | {"kind": "final", "t_c": summary["t_c"]})
        return report

    def write_events(self, path: str | Path) -> Path:
        """One line of `json.dumps(record, sort_keys=True)` per record, encoded
        by one encoder and written in one call that streams the lines, so no
        copy of the whole log is held."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        encode = json.JSONEncoder(sort_keys=True).encode
        with path.open("w") as fh:
            fh.writelines(f"{encode(rec)}\n" for rec in self.records)
        return path


def run_full(config: RunConfig, oracle=None) -> tuple[RunReport, LoopDriver]:
    driver = LoopDriver(config, oracle=oracle)
    report = driver.run_full()
    return report, driver


def run_random_baseline(config: RunConfig, n_samples: int) -> np.ndarray:
    """Final noise-free values of random budget-filling configurations.

    Each sample activates units in a random order while the budget holds and
    trains them for the engine's total step budget (loop plus re-finetune).
    """
    check_count("n_samples", n_samples, 1)
    oracle = SyntheticOracle(config.oracle_spec)
    n, budget = config.space.n_units, config.budget
    total_steps = config.total_loop_steps + max(1, config.refinetune_steps)
    values = np.empty(n_samples)
    streams = KeyedStreams(config.run_seed, _STREAM_BASELINE)
    for s in range(n_samples):
        gates, _ = fill(np.zeros(n, dtype=bool), streams(s).permutation(n), budget)
        state = oracle.fresh_state()
        if gates.any():
            state = oracle.train_step(state, gates, total_steps)
        values[s] = oracle.true_value(state, gates)
    return values


def sweep(seeds: Sequence[int]) -> dict:
    """Per shots level of `SHOTS_TOTAL_STEPS`, arrays over the default
    instances of `seeds`: final values of the full engine ("full"), the
    no-FSM (tau_act = 1) and no-IQR (lambda_s = 0) ablations ("nofsm",
    "noiqr"), the median of 20 random budget-filling configurations
    ("rand"), and the full engine's committed-change count ("t_c")."""
    results = {}
    for shots in SHOTS_TOTAL_STEPS:
        rows: dict[str, list] = {k: [] for k in ("full", "nofsm", "noiqr", "rand", "t_c")}
        for seed in seeds:
            cfg = default_run_config(shots=shots, run_seed=seed)
            report, _ = run_full(cfg)
            rows["full"].append(report.final_value)
            rows["t_c"].append(report.t_c)
            rows["nofsm"].append(run_full(replace(cfg, fsm=FsmParams(tau_act=1)))[0].final_value)
            no_iqr = replace(cfg, smoothing=replace(cfg.smoothing, lambda_s=0.0))
            rows["noiqr"].append(run_full(no_iqr)[0].final_value)
            rows["rand"].append(float(np.median(run_random_baseline(cfg, 20))))
        results[shots] = {k: np.array(v) for k, v in rows.items()}
    return results


DIAGNOSTIC_COLUMNS = ("cycle", "value", "regret", "t_c", "coverage_min")


def compute_diagnostics(records: list[dict] | str | Path, n_units: int, p_max: float | None = None) -> dict:
    """Coverage, chatter count and regret curve from the log of a run over
    `n_units` units, in cycle order whatever the order of its lines, plus the
    last cycle's index and evaluation total and the final record's
    `final_value`, `budget_used` and `final_on_ids` (each None when the log
    has no final record).

    Regret is measured against the best noise-free value seen during the run.
    A log that audits a unit outside `0..n_units-1`, or whose final record
    does not hold one gate per unit, is not a log of this run: MalformedLog.
    Given `p_max`, a log with a cycle `total_cost` above it is not a log of a
    run under that budget, since a run raises before it logs such a cycle:
    BudgetViolation names the first such cycle.
    """
    if not isinstance(records, list):
        # A log that cannot be read raises its OSError; one that is not UTF-8
        # JSON lines is malformed, and names its first bad line.
        path, records = Path(records), []
        try:
            lines = path.read_text().splitlines()
        except UnicodeDecodeError as exc:
            raise MalformedLog(f"cannot parse event log: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise MalformedLog(f"{path}:{lineno}: cannot parse event log: {exc}") from exc

    if not all(isinstance(r, dict) for r in records):
        raise MalformedLog("event log holds a line that is not a JSON object")
    cycles = [r for r in records if r.get("kind") == "cycle"]
    finals = [r for r in records if r.get("kind") == "final"]
    if not cycles:
        raise MalformedLog("event log contains no cycle records")
    try:
        coverage = np.zeros(n_units, dtype=np.int64)
        values: list[float] = []
        t_c_curve: list[int] = []
        coverage_min: list[int] = []
        if not all(type(r["cycle"]) is int for r in cycles):
            raise MalformedLog("event log holds a cycle number that is not an integer")
        cycles.sort(key=lambda r: r["cycle"])
        for r in cycles:
            for unit in r["audit"]["batch"]:
                if isinstance(unit, bool) or not 0 <= unit < n_units:  # numpy reads True as every unit
                    raise MalformedLog(f"cycle {r['cycle']} audits unit {unit}, not one of the {n_units} units")
                coverage[unit] += 1
            values.append(float(r["value"]))
            t_c_curve.append(int(r["fsm"]["t_c"]))
            coverage_min.append(int(coverage.min()))
        costs = [float(r["allocate"]["total_cost"]) for r in cycles] if p_max is not None else []
        eval_count = int(cycles[-1]["eval_count"])
        last_cycle = cycles[-1]["cycle"]
        final_value = budget_used = on_ids = None
        if finals:
            final = finals[-1]
            if len(gates := final["final_gates"]) != n_units:
                raise MalformedLog(f"final record holds {len(gates)} gates for the config's {n_units} units")
            on_ids = [int(i) for i in final["final_on_ids"]]
            if on_ids != [i for i, g in enumerate(gates) if g == "1"]:
                raise MalformedLog("final record's final_on_ids are not the units its final_gates switch on")
            final_value, budget_used = float(final["final_value"]), float(final["budget_used"])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise MalformedLog(f"event log record missing field: {exc}") from exc

    for r, cost in zip(cycles, costs):
        if cost > p_max:
            raise BudgetViolation(f"cycle {r['cycle']} logs total_cost {cost!r}, above the config's p_max {p_max}")
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
        "budget_used": budget_used,
        "final_on_ids": on_ids,
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
    quality = np.array([site_quality[(u.layer, u.slot)] for u in space.units])
    size_factor = np.array([(max(1, u.size) / max_size[u.family]) ** 0.3 for u in space.units])
    # One draw per unit in id order (the space's list order), as one array
    # draw; numpy draws it element by element as it draws scalars.
    mu_inf = 0.05 * quality * size_factor * np.abs(rng.normal(1.0, 0.25, size=n))
    group_map: dict[tuple, list[int]] = {}
    for u in space.units:
        group_map.setdefault((u.layer, u.slot, u.family), []).append(u.id)
    kappa = rng.uniform(300.0, 900.0, size=n)
    groups = tuple(tuple(sorted(g)) for _, g in sorted(group_map.items(), key=lambda kv: kv[1][0]))
    gammas = tuple(0.45 if len(g) > 1 else 1.0 for g in groups)

    return OracleSpec(
        base_score=0.45,
        mu_inf=tuple(mu_inf),
        kappa=tuple(kappa),
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
        shots=shots,
        run_seed=run_seed,
    )
