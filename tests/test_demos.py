"""Smoke test of the quick demos: each runs as a script and prints something.
The verification suites have no demo: `coevo check` runs them, and
tests/test_harness.py pins every check's result.

The two sweep demos (`error_threshold_sweep.py`, `runtime_scaling_sweep.py`)
take several seconds each and are left out.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_demo(demo):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", f"{demo}.py")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "demo", ["bilinear_game_tour", "level_machinery_tour", "single_run_walkthrough"])
def test_demo_runs(demo):
    assert run_demo(demo).strip()

