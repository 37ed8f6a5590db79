"""Smoke tests: the example scripts run end to end and exit 0."""

import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [["sweep.py", "--seeds", "1"]], ids=["sweep"])
def test_script_exits_0(tmp_path, argv):
    run_script(tmp_path, argv)


def run_script(tmp_path, argv) -> str:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    cmd = [sys.executable, str(ROOT / "scripts" / argv[0])] + [a.format(tmp=tmp_path) for a in argv[1:]]
    result = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.fixture(scope="module")
def digest_lines(tmp_path_factory):
    # One run of `scripts/digests.py` (about 2 s), shared by the two tests below.
    out = run_script(tmp_path_factory.mktemp("digests"), ["digests.py"])
    return [line.split("  ", 1) for line in out.splitlines()]


def test_digests_prints_the_golden_digest_and_a_combined_one(digest_lines):
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    assert digest_lines[0] == [golden["paper-default"]["1"]["0"], "paper-default shots=1 seed=0"]
    runs = [f"shots={shots} seed={seed}" for shots in (1, 5, 10) for seed in range(10)]
    assert [label for _, label in digest_lines] == [
        label for run in runs for label in (f"paper-default {run}", f"random-baseline {run} samples=20")
    ] + [f"wide-740 shots=10 seed={seed}" for seed in range(3)] + ["combined"]
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest, _ in digest_lines)


def test_digests_with_its_defaults_prints_the_combined_golden_digest(digest_lines):
    # Every default run, random baseline and 740-unit run in one line: a
    # change that means to keep the engine's output keeps this digest.
    assert digest_lines[-1] == ["c4c8da5ede9e6b03f3f90125116dddec6b69f8694e8bd8bcba276d870947c5f1", "combined"]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_summary_recomputes_from_its_runs(path):
    # Each cell: quartiles of the parent's and the change's trace 0 runs, and
    # the pairs in which the change reads better (higher only for evals_per_s).
    doc = json.loads(path.read_text())
    for workload, cells in doc["summary_trace0"].items():
        runs = [r for r in doc["runs"] if r["workload"] == workload and r["trace"] == 0]
        for name, cell in cells.items():
            parent, change = ([r[side][1]["metrics"][name]["value"] for r in runs] for side in ("parent", "change"))
            better = sum(c > p if name == "evals_per_s" else c < p for p, c in zip(parent, change))
            assert cell == {
                "parent_q1_median_q3": statistics.quantiles(parent, n=4, method="exclusive"),
                "change_q1_median_q3": statistics.quantiles(change, n=4, method="exclusive"),
                "change_better_pairs": better,
                "pairs": len(runs),
            }, (workload, name)


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_claim_opens_with_a_workload_and_metric_that_its_summary_reports(path):
    # "<workload> <metric> goes down: ...": a mistyped name would leave the
    # claim without the cell that judges it.
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = json.loads(path.read_text())
    workload, metric = doc["claim"].split()[:2]
    assert workload in [w["name"] for w in benchmark["workloads"]], doc["claim"]
    assert metric in [m["name"] for m in benchmark["end_to_end"]], doc["claim"]
    assert metric in doc["summary_trace0"].get(workload, {}), (workload, metric)


FAKE_RUN = """import argparse, json
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
side = 0.9 if "change" in __file__ else 1.0
metrics = {m: {"value": side * (1 + int(a.seed)) * (1 if m == "evals_per_s" else 2), "unit": "s"}
           for m in ("setup_s", "run_s_p50", "cycle_ms_p50", "cycle_ms_p90", "evals_per_s", "peak_rss_mb")}
print(json.dumps({"workload": a.workload, "seed": int(a.seed), "seconds": float(a.seconds), "trace": a.trace}))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}))
"""


FAKE_DIGESTS = """print("0123  paper-default shots=1 seed=0")
print(("ab" if "change" in __file__ else "cd") + "  combined")
"""


def test_bench_pairs_writes_a_summary_that_recomputes_and_never_overwrites(tmp_path):
    # Fake checkouts whose benchmark prints a fixed result per seed: the
    # change reads 10% lower on every metric. Their digest scripts print
    # different combined lines.
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    benchmark["workloads"], benchmark["run_seconds"] = benchmark["workloads"][:2], 7
    for side in ("parent", "change"):
        for folder in ("bench", "scripts"):
            (tmp_path / side / folder).mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(FAKE_RUN)
        (tmp_path / side / "scripts" / "digests.py").write_text(FAKE_DIGESTS)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(benchmark))
    (tmp_path / "scripts").mkdir()
    script = tmp_path / "scripts" / "bench_pairs.py"
    script.write_text((ROOT / "scripts" / "bench_pairs.py").read_text())
    argv = [sys.executable, str(script), "parent", "change", "--pairs", "3", "--label", "t",
            "--claim", "the change reads lower"]
    assert subprocess.run(argv, cwd=tmp_path, capture_output=True, timeout=120).returncode == 0

    text = (tmp_path / "BENCH_t.json").read_text()
    doc = json.loads(text)
    assert doc["claim"] == "the change reads lower"
    assert (doc["parent_digests"], doc["change_digests"]) == ("cd  combined", "ab  combined")
    assert sum(line.startswith('  {"workload": ') for line in text.splitlines()) == 6  # a line per run
    names = [w["name"] for w in benchmark["workloads"]]
    assert [(r["workload"], r["pair"], r["seed"], r["first"]) for r in doc["runs"]] == [
        (w, i, 1 + i, "parent" if i % 2 == 0 else "change") for w in names for i in range(3)
    ]
    assert all(r[side][0]["seed"] == r["seed"] for r in doc["runs"] for side in ("parent", "change"))
    assert {r[side][0]["seconds"] for r in doc["runs"] for side in ("parent", "change")} == {benchmark["run_seconds"]}
    cells = doc["summary_trace0"][names[0]]
    assert cells["cycle_ms_p50"]["change_better_pairs"] == 3 and cells["evals_per_s"]["change_better_pairs"] == 0
    test_bench_summary_recomputes_from_its_runs(tmp_path / "BENCH_t.json")

    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and "never overwritten" in done.stderr
    assert json.loads((tmp_path / "BENCH_t.json").read_text()) == doc
