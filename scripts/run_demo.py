#!/usr/bin/env python3
"""Run the default desk-scale experiment once and print the report summary."""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from auditloop import compute_diagnostics, default_run_config, run_full, write_diagnostics_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", type=int, default=1, choices=(1, 5, 10))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=Path("out/demo"))
    args = parser.parse_args()

    cfg = default_run_config(shots=args.shots, run_seed=args.seed)
    report, driver = run_full(cfg)

    args.out.mkdir(parents=True, exist_ok=True)
    driver.write_events(args.out / "events.jsonl")
    diag = compute_diagnostics(driver.records, n_units=cfg.space.n_units)
    write_diagnostics_csv(diag, args.out / "diagnostics.csv")

    on_ids = np.flatnonzero(report.final_gates)
    print(f"shots={args.shots} seed={args.seed}: {cfg.cycles} cycles, "
          f"{report.eval_count} oracle evaluations")
    print(f"final value {report.final_value:.4f} (base {cfg.oracle_spec.base_score})")
    print(f"budget used {report.budget_used:.6f} of {cfg.allocator.p_max}")
    print(f"committed-change cycles {report.t_c}, max per-unit flips {report.max_unit_flips}")
    print(f"selected units ({len(on_ids)}):")
    for uid in on_ids:
        u = cfg.space.units[uid]
        print(f"  {uid:>3}  layer {u.layer}  {u.slot.value:<11} "
              f"{u.family.value:<11} {u.topology.value:<4} size {u.size:<3} "
              f"cost {u.cost:.6f}")
    print(f"wrote events.jsonl and diagnostics.csv to {args.out}")


if __name__ == "__main__":
    main()
