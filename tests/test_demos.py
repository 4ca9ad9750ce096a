"""Smoke test of the demos: each script runs under `-W error` and prints
something, and each spec file parses and builds every cell's run config.
The verification suites have no demo: `coevo check` runs them, and
tests/test_harness.py pins every check's result.

The two sweeps are spec files, not scripts: `coevo threshold --config
demos/error_threshold.spec` and `coevo sweep --config
demos/runtime_scaling.spec` run them.  They take several seconds each, so
here they are only parsed.
"""

import os
import subprocess
import sys

import pytest

from coevo import harness

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_demo(demo):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = os.path.join(ROOT, "demos", f"{demo}.py")
    done = subprocess.run([sys.executable, "-W", "error", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


@pytest.mark.parametrize(
    "demo", ["bilinear_game_tour", "level_machinery_tour", "single_run_walkthrough"])
def test_demo_runs(demo):
    assert run_demo(demo).strip()


SWEEP_SPECS = {
    "error_threshold": harness.ExperimentSpec(
        kind="error-threshold", n=(60,), lam=(60,), chi=(0.05, 0.2, 0.5, 0.7, 1.0, 1.4),
        alpha=(1.0,), beta=(0.05,), epsilon=(0.1,), trials=10, master_seed=606, budget=5000,
        target="singleton"),
    "runtime_scaling": harness.ExperimentSpec(
        kind="runtime-scaling", n=(20, 30, 45, 65), lam=(40,), chi=("auto",), delta=0.01,
        alpha=(0.9,), beta=(0.05,), epsilon=(0.1,), trials=15, master_seed=909, budget="pilot"),
}


@pytest.mark.parametrize("name", SWEEP_SPECS)
def test_sweep_spec_builds_every_cell(name):
    spec = harness.parse_spec_file(os.path.join(ROOT, "demos", f"{name}.spec"))
    assert spec == SWEEP_SPECS[name]  # no out: --out chooses the output prefix
    for cell in harness.resolve_cells(spec):  # the configs `coevo` builds before its first run
        harness._cell_config(cell, spec, 0, 1)
