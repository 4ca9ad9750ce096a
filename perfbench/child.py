"""One measuring process of a run, fresh, so that set-up time and peak memory
belong to it alone.  Started by run.py, which passes the monotonic clock
reading taken just before the process was spawned.  After set-up it runs
rounds, each executing every part of the workload once and timing each part
on its own, with the reference kernel of speed.py around and inside it,
until the next round would end past `--until` (at least one round; a traced
process runs exactly one).  Prints one JSON object as its
last line of standard output.

    python3 perfbench/child.py --workload W --seed S --scale full --out DIR --t0 T
                               --until U [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def count_engine_interactions(harness, tally):
    """Count-only hook (no clock reads) on the engine step the check suites
    call, so `checks` has an interaction count; adds lambda per generation."""
    step = harness.step_generation

    def counted(pops, dist, rng):
        tally[0] += pops.lam
        return step(pops, dist, rng)

    harness.step_generation = counted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--until", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import coevo
    import coevo.cli
    import coevo.harness
    if not os.path.abspath(coevo.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported coevo from {coevo.__file__}, not from {SRC}")
    import speed
    import workloads

    workload = workloads.Workload(args.workload, args.seed, args.scale, args.out)
    workload.prepare(coevo.harness)
    engine = [0]
    if workload.name == "checks":
        count_engine_interactions(coevo.harness, engine)
    setup_s = now() - args.t0
    planned = workloads.planned_operations(workload)
    result = {"setup_s": setup_s, "setup_norm_s": speed.normalised_setup_s(setup_s),
              "parts": workload.parts, "planned": planned * workload.parts}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    cli_main, tracer = coevo.cli.main, None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        cli_main = tracer.install(coevo, workload)

    walls = [[] for _ in range(workload.parts)]
    norms = [[] for _ in range(workload.parts)]   # the same times at reference speed
    digests = [None] * workload.parts
    work = [0] * workload.parts
    problems, operations, rounds = [], 0, 0
    while True:
        round_start = now()
        for part in range(workload.parts):
            engine[0] = 0
            with speed.Sampler() as timing:
                outcome = workload.execute(part, cli_main)
            found = workloads.verify(workload, part, outcome, coevo)
            if found:
                problems += [f"part {part}: {p}" for p in found]
                operations += planned
                continue
            walls[part].append(timing.wall_s)
            norms[part].append(timing.normalised_s)
            operations += workloads.operations(workload, part, outcome)
            digest = workloads.digest(workload, part, outcome)
            if digests[part] not in (None, digest):
                problems.append(f"part {part}: repeats with one seed wrote different outputs")
            digests[part] = digest
            work[part] = (engine[0] if workload.name == "checks"
                          else workloads.interactions(workload, part))
        rounds += 1
        if tracer is not None or now() + (now() - round_start) > args.until:
            break

    result.update(
        rounds=rounds,
        walls=walls,
        norms=norms,
        interactions=work,
        digests=digests,
        operations=operations,
        problems=problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(workload.name)
        tracer.write(os.path.join(args.out, "spans.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
