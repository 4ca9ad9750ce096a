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

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_trajectory_workload_measures_every_layer():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "trajectory",
         "--scale", "tiny", "--seconds", "1", "--trace", "1", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=240)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    nulls = [name for name, metric in result["metrics"].items() if metric["value"] is None]
    assert nulls == []
    assert result["metrics"]["levels.current_level_calls"]["value"] > 0
