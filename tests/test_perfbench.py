"""The traced benchmark still measures every layer of this tree.

perfbench's tracer replaces named functions of the `coevo` modules (among
them `harness.run_trial`, `harness.current_level`, `harness.write_series`,
`harness.experiment_trajectory` and `pdcoea.bilinear_target`) and looks them
up again at call time.  A name that is renamed, or a caller that bypasses
it, leaves a layer without spans, which the benchmark reports as a null
metric.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["threshold", "trajectory", "checks"])
def test_traced_workload_measures_every_layer(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--scale", "tiny", "--seconds", "1", "--trace", "1", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    nulls = [name for name, metric in result["metrics"].items() if metric["value"] is None]
    assert nulls == []
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    if workload == "trajectory":
        assert metrics["levels.current_level_calls"] > 0
    if workload == "checks":
        # checks/interactions_per_s divides the product-space engine steps
        # (4000 at lambda = 20) by the wall time, so their count is fixed
        assert metrics["pdcoea.generations"] == 4000
