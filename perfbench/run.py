"""The coevo benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload threshold --seed 1 --seconds 36 --trace 0

A workload is split into parts (sweeps: CLI invocations through
`coevo.cli.main` with `--workers 1`, each on a seed derived from `--seed`;
`checks`: the registered check calls).  Measuring children (child.py), each a
fresh single-process Python, run rounds of every part for a slice of about
8 s, timing each part on its own; children are started one after another
until `--seconds` have passed (at least two).  Set-up-only children, four
first and one after every measuring child, measure start-up alone.

Every time is rescaled to one machine speed with the reference kernel of
speed.py, timed around and inside each part, because the shared machine this
was built on changes speed by itself for minutes at a time.  `--trace 0`
reports the end-to-end metrics from the untraced children: `wall_s` is the
sum over the parts of each part's median normalised time in the run;
set-up time and peak memory are medians too.  `--trace 1` alternates
untraced children and traced ones (one round each) and reports per-layer
metrics (medians over the traced ones) plus the tracing overhead.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every check passed and no operation
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import LAYER_METRICS  # noqa: E402
from workloads import SCALES, WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("interactions_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
OVERHEAD = ("trace.overhead_s", "s")
SETUP_PROBES = 4     # set-up-only children before the first measuring child
SLICE_S = 8.0        # how long one measuring child runs rounds
MIN_RUNS = 2
DEADLINE_S = 170.0   # the whole invocation must end within 180 s


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, out_dir, deadline, until=0.0, traced=False, setup_only=False) -> dict:
    """Run one child to completion; a crash or timeout becomes {'crashed': reason}."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--out", out_dir,
           "--until", repr(until)]
    cmd += ["--trace"] if traced else []
    cmd += ["--setup-only"] if setup_only else []
    started = now()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(now())], cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        return {"crashed": "timed out", "traced": traced, "elapsed": now() - started}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        return {"crashed": f"exit {proc.returncode}: " + " | ".join(tail), "traced": traced,
                "elapsed": now() - started}
    result = json.loads(lines[-1])
    result.update(traced=traced, elapsed=now() - started)
    return result


def median(values):
    return statistics.median(values) if values else None


def round_totals(run, key="norms") -> list:
    """Time of each complete round (every part succeeded) of one child."""
    times = run[key]
    if not times or not all(times):
        return []
    return [sum(ts) for ts in zip(*times)]


def summarise(args, probes, runs) -> tuple:
    """(correct, attempted, failed, end-to-end values and samples, per-layer values, notes)."""
    notes = []
    planned = max((p.get("planned", 0) for p in probes + runs), default=0) or 1
    done = [r for r in runs if "crashed" not in r]
    attempted = sum(r["operations"] if "crashed" not in r else planned for r in runs)
    failed = sum(planned for r in runs if "crashed" in r)
    for r in runs:
        if "crashed" in r:
            notes.append(f"run crashed ({r['crashed']})")
        notes += r.get("problems", [])
    parts = max((r["parts"] for r in done), default=0)
    consistent = True
    for part in range(parts):
        digests = {r["digests"][part] for r in done} - {None}
        if len(digests) > 1:
            consistent = False
            notes.append(f"part {part}: same-seed children wrote {len(digests)} distinct outputs")
    correct = bool(done) and not any(r["problems"] for r in done) and consistent
    if not correct:
        failed = attempted

    plain = [r for r in done if not r["traced"]]
    per_part = [[t for r in plain for t in r["norms"][part]] for part in range(parts)]
    wall_s = (sum(median(ts) for ts in per_part)
              if plain and all(per_part) else None)
    work = sum(plain[0]["interactions"]) if plain else 0
    totals = [t for r in plain for t in round_totals(r)]
    setups = [p["setup_norm_s"] for p in probes + done]
    rss = [r["peak_rss_mb"] for r in plain]
    e2e = {
        "wall_s": (wall_s, totals),
        "interactions_per_s": (work / wall_s if wall_s else None, [work / t for t in totals]),
        "setup_s": (median(setups), setups),
        "peak_rss_mb": (median(rss), rss),
    }
    raw = {
        "raw wall_s (round)": [t for r in plain for t in round_totals(r, "walls")],
        "raw setup_s": [p["setup_s"] for p in probes + done],
    }
    layers = {}
    if args.trace:
        traced = [r for r in done if r["traced"]]
        for metric, _, _ in LAYER_METRICS:
            values = [r["layers"][metric] for r in traced]
            layers[metric] = None if not values or None in values else median(values)
        traced_totals = [t for r in traced for t in round_totals(r)]
        layers[OVERHEAD[0]] = (median(traced_totals) - median(e2e["wall_s"][1])
                               if traced_totals and e2e["wall_s"][1] else None)
        missing = [m for m, v in layers.items() if v is None]
        if missing:
            notes.append("missing layer metrics (layer expected busy, no spans): "
                         + ", ".join(missing))
    return correct, attempted, failed, e2e, raw, layers, notes


def report(args, correct, attempted, failed, e2e, raw, layers, notes) -> dict:
    """Print the human-readable table; return the metrics for the JSON line."""
    print(f"workload {args.workload}  seed {args.seed}  scale {args.scale}  "
          f"trace {args.trace}")
    print(f"{'metric':40s} {'unit':6s} {'value':>12s} {'median':>12s} {'min':>12s} "
          f"{'max':>12s}  n")
    for name, unit in END_TO_END:
        value, v = e2e[name]
        if value is not None and v:
            print(f"{name:40s} {unit:6s} {value:12.6g} {median(v):12.6g} {min(v):12.6g} "
                  f"{max(v):12.6g}  {len(v)}")
    for name, v in raw.items():
        if v:
            print(f"{name:40s} {'s':6s} {'':12s} {median(v):12.6g} {min(v):12.6g} "
                  f"{max(v):12.6g}  {len(v)}")
    print(f"{'failed_frac':40s} {'ratio':6s} {failed / attempted:12.6g}  "
          f"({failed} of {attempted} operations)")
    metrics = {}
    if args.trace:
        for name, unit in [(m, u) for m, u, _ in LAYER_METRICS] + [OVERHEAD]:
            value = layers[name]
            shown = "MISSING" if value is None else f"{value:12.6g}"
            print(f"{name:40s} {unit:6s} {shown:>12s}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, unit in END_TO_END:
            metrics[name] = {"value": e2e[name][0], "unit": unit}
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    print("correct" if correct else "INCORRECT")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="workload sizes; only the self-test uses another than full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload not in SCALES[args.scale]:
        parser.error(f"scale {args.scale!r} has no workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "coevo", "__init__.py")):
        print(f"perfbench: no coevo sources under {os.path.join(ROOT, 'src')}; run it from "
              "a checkout of the repository", file=sys.stderr)
        return 2

    start = now()
    deadline, measure_end = start + DEADLINE_S, start + args.seconds
    out_dir = os.path.join(ROOT, ".perfbench_out", f"{args.workload}-{args.scale}-s{args.seed}")
    probes = [spawn(args, out_dir, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
    runs = [p for p in probes if "crashed" in p]
    longest, children = 0.0, 0
    while not any("crashed" in p for p in probes[:SETUP_PROBES]):
        # measuring children alternate untraced/traced in trace mode
        traced = bool(args.trace) and children % 2 == 1
        children += 1
        until = min(now() + SLICE_S, measure_end)
        runs.append(spawn(args, out_dir, deadline, until=until, traced=traced))
        longest = max(longest, runs[-1]["elapsed"])
        probe = spawn(args, out_dir, deadline, setup_only=True)
        probes.append(probe)
        if "crashed" in probe:
            runs.append(probe)
        if children >= MIN_RUNS and now() >= measure_end:
            break
        if now() + 1.5 * longest > deadline:
            break

    with open(os.path.join(out_dir, "children.json"), "w", encoding="utf-8") as fh:
        json.dump({"probes": probes, "runs": runs}, fh)
    correct, attempted, failed, e2e, raw, layers, notes = summarise(args, probes, runs)
    metrics = report(args, correct, attempted, failed, e2e, raw, layers, notes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
