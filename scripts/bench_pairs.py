#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written to BENCH_<label>.json.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 \\
        --label 23 --claim "wide-740 cycle_ms_p50 goes down: ..."

For every workload that the change's BENCHMARK.json lists, the script runs
`python3 bench/run.py --trace 0` in each checkout for that file's
`run_seconds`, the same on both sides, in alternating pairs:
pair i uses benchmark seed 1 + i and runs the parent first when i is even.
Before the first pair it runs `scripts/digests.py` once in each checkout.
BENCH_<label>.json at the root of this checkout holds the claim, stated
before the first run, each checkout's combined digest line, both output
lines of every run, and per workload and end-to-end metric each side's
quartiles and the pairs in which the change reads better. The file is
rewritten after each pair, so it always agrees with the runs it holds; an
existing file is never overwritten. A pair in which a side's result line
reads `correct: false` or `failed > 0` is written, and then the script
exits 1 with one line naming the workload, the pair and the side: the
other runs would time a program that is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> list[dict]:
    """The two output lines of one benchmark run, parsed: details, then result."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {done.returncode}: {done.stderr.strip()}")
    return [json.loads(line) for line in done.stdout.splitlines()[-2:]]


def combined_digest(checkout: Path) -> str:
    """The last line of `scripts/digests.py` in the checkout: the digest of
    every `events.jsonl` it writes, which a change that keeps the output
    bytes leaves as it is."""
    cmd = [sys.executable, "scripts/digests.py"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout.splitlines()[-1]


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload of at least two pairs, and per metric: each side's
    quartiles, and the pairs in which the change reads better."""
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == workload]
        if len(pairs) < 2:
            continue
        summary[workload] = {}
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            parent, change = ([r[side][1]["metrics"][name]["value"] for r in pairs] for side in ("parent", "change"))
            summary[workload][name] = {
                "parent_q1_median_q3": statistics.quantiles(parent, n=4, method="exclusive"),
                "change_q1_median_q3": statistics.quantiles(change, n=4, method="exclusive"),
                "change_better_pairs": sum(c > p if higher else c < p for p, c in zip(parent, change)),
                "pairs": len(pairs),
            }
    return summary


def layout(doc: dict) -> str:
    """The document in `BENCH_21.json`'s layout: one line per top-level field,
    per summary cell and per run."""
    head = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in doc.items() if k not in ("summary_trace0", "runs")]
    workloads = [
        f"  {json.dumps(w)}: {{\n" + ",\n".join(f"   {json.dumps(m)}: {json.dumps(c)}" for m, c in cells.items()) + "\n  }"
        for w, cells in doc["summary_trace0"].items()
    ]
    summary = ' "summary_trace0": {' + ("\n" + ",\n".join(workloads) + "\n }" if workloads else "}")
    runs = ' "runs": [' + ("\n" + ",\n".join(f"  {json.dumps(r)}" for r in doc["runs"]) + "\n ]" if doc["runs"] else "]")
    return "{\n" + ",\n".join(head + [summary, runs]) + "\n}\n"


def host() -> str:
    model = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), model)
    cores = len(os.sched_getaffinity(0))
    return f"{cores}-core {model}, Python {platform.python_version()}, numpy {np.__version__}"


def git_commit(checkout: Path) -> str | None:
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--claim", required=True, help="what the runs must show, stated before them")
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads, seconds = [w["name"] for w in benchmark["workloads"]], benchmark["run_seconds"]
    doc = {
        "what": (
            f"bench/run.py --trace 0 runs of every workload, parent and change in alternating pairs (pair i runs the "
            f"parent first when i is even), each for {seconds:g} s; pair i uses benchmark seed 1 + i. The summary "
            "gives each side's quartiles and the pairs in which the change reads better (higher only for metrics "
            "where higher is better). Each run holds the command's two output lines, parsed: details, then result."
        ),
        "host": host(),
        "parent_commit": git_commit(args.parent),
        "change_commit": git_commit(args.change),
        "claim": args.claim,
        "parent_digests": None,
        "change_digests": None,
        "summary_trace0": {},
        "runs": [],
    }
    out = ROOT / f"BENCH_{args.label}.json"
    try:
        with out.open("x") as fh:
            fh.write(layout(doc))
    except FileExistsError:
        print(f"error: {out} exists; it is never overwritten", file=sys.stderr)
        return 2

    for side in ("parent", "change"):
        doc[f"{side}_digests"] = combined_digest(getattr(args, side))
    out.write_text(layout(doc))
    print(f"digests: parent {doc['parent_digests']}, change {doc['change_digests']}", flush=True)

    for workload in workloads:
        for pair in range(args.pairs):
            run = {"workload": workload, "trace": 0, "pair": pair, "seed": 1 + pair,
                   "first": "parent" if pair % 2 == 0 else "change"}
            sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in sides:
                run[side] = run_bench(getattr(args, side), workload, run["seed"], seconds)
            doc["runs"].append(run)
            doc["summary_trace0"] = summarize(doc["runs"], benchmark["end_to_end"])
            out.write_text(layout(doc))
            wrong = [side for side in sides if not run[side][1]["correct"] or run[side][1]["failed"] > 0]
            if wrong:
                print(f"error: {workload} pair {pair}: the {' and '.join(wrong)} run failed its checks; "
                      f"{out.name} holds it", file=sys.stderr)
                return 1
            print(f"{workload} pair {pair}: done", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
