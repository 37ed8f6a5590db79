#!/usr/bin/env python3
"""Comparative sweep over the shots levels on fresh default instances.

Per level, the median final value of the full engine, of its two ablations
(no-FSM: vote threshold 1, every proposal commits immediately; no-IQR:
dispersion penalty removed from the robust score) and of random
budget-filling configurations at matched budget, plus the full engine's
median committed-change count t_c. The selection margin over random should
be positive at every level and widen as supervision grows.
"""

from __future__ import annotations

import argparse

import numpy as np

from auditloop import sweep

COLUMNS = {"full": "full", "nofsm": "no-fsm", "noiqr": "no-iqr", "rand": "random"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20, help="run seeds 0..SEEDS-1")
    args = parser.parse_args()

    results = sweep(range(args.seeds))

    header = "".join(f"{label:>10}" for label in COLUMNS.values())
    print(f"{'shots':>6}{header}{'margin':>10}{'t_c(full)':>11}  seeds={args.seeds}")
    margins = []
    for shots, rows in results.items():
        med = {c: float(np.median(rows[c])) for c in COLUMNS}
        margins.append(med["full"] - med["rand"])
        print(f"{shots:>6}" + "".join(f"{med[c]:>10.4f}" for c in COLUMNS)
              + f"{margins[-1]:>10.4f}{np.median(rows['t_c']):>11.0f}")
    widening = all(margins[i + 1] >= margins[i] for i in range(len(margins) - 1))
    print(f"margin positive everywhere: {all(m > 0 for m in margins)}; non-decreasing: {widening}")


if __name__ == "__main__":
    main()
