"""Smoke runs of the example scripts under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_scripts_run():
    demo = run_script("waterbirds_demo.py", "--per-class", "200")
    assert demo.returncode == 0, demo.stderr
    assert demo.stdout.strip().splitlines()[-1].endswith("imbalanced cliques: 0")
    bench = run_script("benchmark.py", "--records", "400", "--k-max", "2")
    assert bench.returncode == 0, bench.stderr
    assert "gen s" in bench.stdout.splitlines()[0]
