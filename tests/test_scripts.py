"""Smoke tests: the example scripts run end to end and exit 0."""

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
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    cmd = [sys.executable, str(ROOT / "scripts" / argv[0])] + [a.format(tmp=tmp_path) for a in argv[1:]]
    result = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
