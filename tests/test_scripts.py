"""Smoke tests: the example scripts run end to end and exit 0."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [["run_demo.py", "--out", "{tmp}/demo"], ["sweep.py", "--seeds", "1"]],
    ids=["run_demo", "sweep"],
)
def test_script_exits_0(tmp_path, argv):
    run_script(tmp_path, argv)


def run_script(tmp_path, argv) -> str:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    cmd = [sys.executable, str(ROOT / "scripts" / argv[0])] + [a.format(tmp=tmp_path) for a in argv[1:]]
    result = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_digests_prints_the_golden_digest_and_a_combined_one(tmp_path):
    argv = ["digests.py", "--shots", "1", "--seeds", "1", "--wide-seeds", "0", "--baseline-samples", "2"]
    lines = [line.split("  ", 1) for line in run_script(tmp_path, argv).splitlines()]
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    assert [label for _, label in lines] == [
        "paper-default shots=1 seed=0", "random-baseline shots=1 seed=0 samples=2", "combined"
    ]
    assert lines[0][0] == golden["paper-default"]["1"]["0"]
    assert all(len(digest) == 64 for digest, _ in lines)
