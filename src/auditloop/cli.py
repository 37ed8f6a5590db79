"""Command-line surface: run experiments, replay traces, verify bounds and
explain a run from its config and event log.

A run's settings come only from its config file, and `verify-bounds` runs
every check at fixed sizes and seeds. Exit codes: 0 success, 1 runtime error
or bound violation, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import __version__, checks
from .driver import (
    LoopDriver,
    RunConfig,
    compute_diagnostics,
    run_random_baseline,
    write_diagnostics_csv,
)
from .errors import AuditLoopError, InvalidParams
from .oracle import SyntheticOracle, TraceRecordingOracle, replay_trace

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _out_dir(path: str) -> Path:
    """The `--out` directory, made before any run so that a bad path fails first."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_outputs(driver: LoopDriver, report, out_dir: Path) -> None:
    driver.write_events(out_dir / "events.jsonl")
    diag = compute_diagnostics(driver.records, n_units=driver.space.n_units)
    write_diagnostics_csv(diag, out_dir / "diagnostics.csv")
    doc = report.to_json() | {"events_path": "events.jsonl", "config": driver.config.to_json()}
    (out_dir / "report.json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def cmd_run(args) -> int:
    config = RunConfig.from_json(args.config)
    out_dir = _out_dir(args.out)
    inner = SyntheticOracle(config.oracle_spec)
    recording = TraceRecordingOracle(inner, args.record_trace) if args.record_trace else nullcontext(inner)
    # The trace is closed, and so flushed, even when the run raises.
    with recording as oracle:
        driver = LoopDriver(config, oracle=oracle)
        report = driver.run_full()
    _write_outputs(driver, report, out_dir)
    if not args.quiet:
        print(f"final value {report.final_value:.4f}  budget {report.budget_used:.6f}  t_c {report.t_c}")
        print(f"wrote report.json, events.jsonl, diagnostics.csv to {args.out}")
    return EXIT_OK


def cmd_replay(args) -> int:
    config = RunConfig.from_json(args.config)
    out_dir = _out_dir(args.out)
    oracle = replay_trace(args.trace)
    driver = LoopDriver(config, oracle=oracle)
    report = driver.run_full()
    oracle.check_used_up()
    _write_outputs(driver, report, out_dir)
    if not args.quiet:
        print(f"replayed {args.trace}: final value {report.final_value:.4f}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    config = RunConfig.from_json(args.config)
    out_dir = _out_dir(args.out)
    values = run_random_baseline(config, args.samples)
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
    verdicts = [
        *(checks.ema_variance(beta, 10_000, 200, seed=0) for beta in (0.5, 0.9)),
        checks.drift_bias(0.9, 0.01, 500),
        checks.fsm_chatter_exhaustive(12),
        checks.coverage_min(60, 6, 2000, seeds=5),
        *checks.allocator_verdicts(checks.allocator_ratios(500, 15, seed=0)),
    ]
    if not args.quiet:
        print(f"{'check':<38}{'bound':>12}{'measured':>12}  status")
        for v in verdicts:
            print(f"{v.name:<38}{v.bound:>12.4f}{v.measured:>12.4f}  {'PASS' if v.ok else 'FAIL'}")
    return EXIT_OK if all(v.ok for v in verdicts) else EXIT_RUNTIME


def cmd_report(args) -> int:
    config = RunConfig.from_json(args.config)
    out_dir = _out_dir(args.out)
    diag = compute_diagnostics(args.events, config.space.n_units, p_max=config.allocator.p_max)
    write_diagnostics_csv(diag, out_dir / "diagnostics.csv")
    if args.quiet:
        return EXIT_OK
    if diag["final_value"] is None:
        final = f"no final record: log ends after cycle {diag['last_cycle']}"
    else:
        final = f"final value {diag['final_value']:.4f}  budget {diag['budget_used']:.6f} of {config.allocator.p_max}"
    print(
        f"cycles {len(diag['value_curve'])}  {final}  "
        f"t_c {diag['t_c']}  min coverage {int(diag['coverage'].min())}  "
        f"evaluations {diag['eval_count']}"
    )
    if diag["final_on_ids"] is not None:
        print(f"selected units ({len(diag['final_on_ids'])}):")
        for u in (config.space.units[i] for i in diag["final_on_ids"]):
            print(f"  {u.id:>3}  layer {u.layer}  {u.slot.value:<11} {u.family.value:<11} "
                  f"{u.topology.value:<4} size {u.size:<3} cost {config.budget.costs[u.id]:.6f}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """One line, as for every other bad input, in place of argparse's usage and message."""
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="auditloop", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run-config JSON path")
        p.add_argument("--out", default="out", help="output directory (created if absent)")
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

    p = sub.add_parser("verify-bounds", help="check estimator, chatter, coverage and allocator bounds")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("report", help="recompute diagnostics from a run's config and event log")
    common(p)
    p.add_argument("--events", required=True, help="events.jsonl path")
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
    except (OSError, InvalidParams, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AuditLoopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
