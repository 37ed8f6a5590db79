"""Command-line surface: run experiments, replay traces, verify bounds,
benchmark the allocator, and emit plot-ready reports.

Exit codes: 0 success, 1 runtime error or bound violation, 2 usage/config
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, checks
from .allocator import ENUMERATION_MAX
from .driver import (
    LoopDriver,
    RunConfig,
    compute_diagnostics,
    run_random_baseline,
    write_diagnostics_csv,
)
from .errors import AuditLoopError, InvalidParams, check_count
from .oracle import SyntheticOracle, TraceRecordingOracle, replay_trace

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _load_config(path: str, seed_override: int | None) -> RunConfig:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    config = RunConfig.from_json(json.loads(p.read_text()))
    return config if seed_override is None else replace(config, run_seed=seed_override)


def _write_outputs(driver: LoopDriver, report, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    driver.write_events(out_dir / "events.jsonl")
    diag = compute_diagnostics(driver.records, n_units=driver.space.n_units)
    write_diagnostics_csv(diag, out_dir / "diagnostics.csv")
    doc = report.to_json() | {"events_path": "events.jsonl", "config": driver.config.to_json()}
    (out_dir / "report.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cmd_run(args) -> int:
    config = _load_config(args.config, args.seed)
    inner = SyntheticOracle(config.oracle_spec)
    recording = TraceRecordingOracle(inner, args.record_trace) if args.record_trace else nullcontext(inner)
    # The trace is closed, and so flushed, even when the run raises.
    with recording as oracle:
        driver = LoopDriver(config, oracle=oracle)
        report = driver.run_full()
    _write_outputs(driver, report, Path(args.out))
    if not args.quiet:
        print(f"final value {report.final_value:.4f}  budget {report.budget_used:.6f}  t_c {report.t_c}")
        print(f"wrote report.json, events.jsonl, diagnostics.csv to {args.out}")
    return EXIT_OK


def cmd_replay(args) -> int:
    config = _load_config(args.config, args.seed)
    oracle = replay_trace(args.trace)
    driver = LoopDriver(config, oracle=oracle)
    report = driver.run_full()
    _write_outputs(driver, report, Path(args.out))
    if not args.quiet:
        print(f"replayed {args.trace}: final value {report.final_value:.4f}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    config = _load_config(args.config, args.seed)
    values = run_random_baseline(config, args.samples)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "samples": args.samples,
        "values": [float(v) for v in values],
        "median": float(np.median(values)),
        "best": float(values.max()),
        "worst": float(values.min()),
    }
    (out_dir / "baseline.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    if not args.quiet:
        print(f"random baseline over {args.samples} configurations: median {doc['median']:.4f}")
    return EXIT_OK


def cmd_verify_bounds(args) -> int:
    # One replica has no variance and zero cycles no coverage bound to miss.
    check_count("--replicas", args.replicas, 2)
    check_count("--cycles", args.cycles, 1)
    rows = []

    for beta in (0.5, 0.9):
        measured, bound = checks.ema_variance(beta, args.replicas, 200, seed=0)
        rows.append((f"ema-variance beta={beta}", bound, measured, measured <= 1.1 * bound))

    measured, bound = checks.drift_bias(0.9, 0.01, 500)
    rows.append(("ema-drift-bias beta=0.9 delta=0.01", bound, measured, measured <= 1.05 * bound))

    violations = checks.fsm_chatter_exhaustive(12)
    rows.append(("fsm-chatter exhaustive T=12", 0.0, float(violations), violations == 0))

    worst, bound = checks.coverage_min(60, 6, 0.3, args.cycles, seeds=5)
    rows.append(("coverage N=60 M=6 eps=0.3", bound, float(worst), worst >= bound))

    all_ok = all(r[3] for r in rows)
    if not args.quiet:
        print(f"{'check':<38}{'bound':>12}{'measured':>12}  status")
        for name, bound, measured, ok in rows:
            print(f"{name:<38}{bound:>12.4f}{measured:>12.4f}  {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_RUNTIME


def cmd_bench_alloc(args) -> int:
    check_count("--instances", args.instances, 1)
    check_count("--n-max", args.n_max, 1)
    if args.n_max > ENUMERATION_MAX:
        raise InvalidParams(f"--n-max must be at most the enumeration cap of {ENUMERATION_MAX}")
    check_count("--seed", args.seed, 0)
    ratios = checks.allocator_ratios(args.instances, args.n_max, args.seed)
    stats = {
        "min": float(ratios.min()),
        "p10": float(np.quantile(ratios, 0.10)),
        "median": float(np.median(ratios)),
        "frac>=0.95": float((ratios >= 0.95).mean()),
    }
    if not args.quiet:
        print(f"{args.instances} instances, n <= {args.n_max}")
        for key, val in stats.items():
            print(f"  {key:<10} {val:.4f}")
    return EXIT_OK if stats["min"] >= 0.5 else EXIT_RUNTIME


def cmd_report(args) -> int:
    diag = compute_diagnostics(args.events)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_diagnostics_csv(diag, out_dir / "diagnostics.csv")
    if not args.quiet:
        if diag["final_value"] is None:
            final = f"no final record: log ends after cycle {diag['last_cycle']}"
        else:
            final = f"final value {diag['final_value']:.4f}"
        print(
            f"cycles {len(diag['value_curve'])}  {final}  "
            f"t_c {diag['t_c']}  min coverage {int(diag['coverage'].min())}  "
            f"evaluations {diag['eval_count']}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="auditloop", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="run-config JSON path")
        p.add_argument("--out", default="out", help="output directory (created if absent)")
        p.add_argument("--seed", type=int, default=None, help="override run_seed")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("run", help="execute the full search-audit-allocate protocol")
    common(p)
    p.add_argument("--record-trace", default=None, help="record every oracle query to this JSONL file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("baseline", help="random configurations at matched budget")
    common(p)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("replay", help="re-run the engine against a recorded trace")
    common(p)
    p.add_argument("--trace", required=True, help="trace JSONL recorded by `run --record-trace`")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("verify-bounds", help="check estimator, chatter and coverage bounds")
    p.add_argument("--replicas", type=int, default=10_000)
    p.add_argument("--cycles", type=int, default=2000)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("bench-alloc", help="swap re-solve (used above the exact cap) vs. exhaustive optimum on random instances")
    p.add_argument("--instances", type=int, default=500)
    p.add_argument("--n-max", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_bench_alloc)

    p = sub.add_parser("report", help="recompute diagnostics from an event log")
    p.add_argument("--events", required=True, help="events.jsonl path")
    p.add_argument("--out", default="out")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (FileNotFoundError, InvalidParams, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AuditLoopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
