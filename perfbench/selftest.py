"""Fast self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload: the result line's JSON schema, that its metric
names and units are those of BENCHMARK.json (end-to-end untraced, per-layer
traced), and, from the written spans, that no child span leaves its parent
and no parent's children outlast it.  Then checks that a deliberately
failing law check (the `fault` scale, where the singleton target is hit even
above the error threshold) fails every operation and the exit code, and that
the benchmark refuses to run without the library sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, "--seed", "1", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(lines) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    return result


def check_metrics(result, declared, workload, trace):
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared], (workload, trace, list(metrics))
    for m in declared:
        entry = metrics[m["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == m["unit"], (m, entry)
        value = entry["value"]
        assert isinstance(value, (int, float)), (workload, m["name"], value)
        if not trace:
            assert value > 0, (workload, m["name"], value)


def check_nesting(path):
    spans = np.load(path)
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    dur = end - start
    assert (dur >= 0).all()
    has = parent >= 0
    assert (start[has] >= start[parent[has]]).all() and (end[has] <= end[parent[has]]).all()
    children = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    assert (children <= dur + 1e-9).all(), "child spans outlast their parent"
    return int(dur.size)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines, err = bench("--workload", workload, "--trace", str(trace),
                                     "--scale", "tiny")
            assert code == 0, (workload, trace, err)
            result = result_of(lines)
            assert result["correct"] and result["failed"] == 0, (workload, result)
            check_metrics(result, declared["per_layer" if trace else "end_to_end"],
                          workload, trace)
        spans = check_nesting(os.path.join(ROOT, ".perfbench_out", f"{workload}-tiny-s1",
                                           "spans.npz"))
        print(f"ok {workload}: schema, names and units; {spans} spans nest")

    code, lines, _ = bench("--workload", "threshold", "--trace", "0", "--scale", "fault")
    result = result_of(lines)
    assert code != 0 and not result["correct"], result
    assert result["failed"] == result["attempted"], result
    print(f"ok fault: failed_frac = {result['failed']}/{result['attempted']}, exit {code}")

    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, lines, _ = bench("--workload", "threshold", "--trace", "0", cwd=bare,
                           script=os.path.join(bare, os.path.basename(HERE), "run.py"))
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    shutil.rmtree(bare)
    print(f"ok bare directory: exit {code}, no result printed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
