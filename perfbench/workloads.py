"""Workload definitions: the specs the benchmark generates, how one run of a
workload is executed, and the law-level checks its outputs must pass.

Every sweep workload goes through the user path, `coevo.cli.main`, with
`--workers 1`, split into parts: one spec file, and one CLI invocation, per
part, each on its own seed derived from the workload seed.  The `checks`
workload calls the functions registered in `coevo.harness.CHECK_SUITES` (the
ones `coevo check` runs), passing the workload seed to those that take one,
because the `check` subcommand has no seed flag; each call is one part.

The checks below are laws, not stored bytes: a later engine that draws its
random numbers in another order produces different rows that must still
satisfy them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import inspect
import io
import os

WORKLOADS = ("threshold", "trajectory", "checks")

# Spec keys per workload and scale, plus "parts": a workload is split into
# that many short parts (sweeps: one CLI invocation each, on its own seed
# derived from the workload seed; `checks`: one part per registered check
# call), which a run repeats round-robin.  "full" is what the benchmark
# measures; "tiny" and "fault" exist for the self-test (fault makes the
# threshold law fail on purpose: at n=8 the singleton target is hit even at
# chi=1.4).
SCALES = {
    "full": {
        "threshold": {"n": "100", "lambda": "100", "chi": "0.05,0.7,1.4", "alpha": "1.0",
                      "beta": "0.05", "epsilon": "0.1", "trials": "1", "budget": "1500",
                      "target": "singleton", "parts": 2},
        "trajectory": {"n": "50", "lambda": "100", "chi": "auto", "delta": "0.01",
                       "alpha": "0.9", "beta": "0.05", "epsilon": "0.1", "trials": "4",
                       "budget": "pilot", "target": "bilinear", "parts": 2},
        "checks": {},
    },
    "tiny": {
        "threshold": {"n": "16", "lambda": "20", "chi": "0.05,0.7,1.4", "alpha": "1.0",
                      "beta": "0.05", "epsilon": "0.1", "trials": "2", "budget": "400",
                      "target": "singleton", "parts": 1},
        "trajectory": {"n": "20", "lambda": "20", "chi": "auto", "delta": "0.01",
                       "alpha": "0.9", "beta": "0.05", "epsilon": "0.1", "trials": "2",
                       "budget": "pilot", "target": "bilinear", "parts": 1},
        "checks": {},
    },
    "fault": {
        "threshold": {"n": "8", "lambda": "10", "chi": "0.05,1.4", "alpha": "1.0",
                      "beta": "0.25", "epsilon": "0.125", "trials": "3", "budget": "2000",
                      "target": "singleton", "parts": 1},
    },
}

KIND = {"threshold": "error-threshold", "trajectory": "trajectory"}


class Workload:
    """One workload at one seed and scale, with its output location.

    `parts` is the number of parts; `execute(k, cli_main)` runs part k.
    """

    def __init__(self, name: str, seed: int, scale: str, out_dir: str):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        if name not in SCALES.get(scale, {}):
            raise ValueError(f"workload {name!r} has no {scale!r} scale")
        self.name = name
        self.seed = int(seed)
        self.params = {k: v for k, v in SCALES[scale][name].items() if k != "parts"}
        self.parts = SCALES[scale][name].get("parts", 0)
        self.out_dir = out_dir
        self.plan = []

    def prefix(self, part: int) -> str:
        return os.path.join(self.out_dir, f"part{part}", "result")

    def spec_path(self, part: int) -> str:
        return os.path.join(self.out_dir, f"part{part}", "spec.txt")

    def prepare(self, harness):
        """Set-up: write one spec file per part (sweeps) or plan the check calls."""
        os.makedirs(self.out_dir, exist_ok=True)
        if self.name == "checks":
            seed = self.seed * 1000
            for suite, fns in harness.CHECK_SUITES.items():
                for fn in fns:
                    takes_seed = "seed" in inspect.signature(fn).parameters
                    self.plan.append((suite, fn, {"seed": seed} if takes_seed else {}))
            self.parts = len(self.plan)
            return
        for part in range(self.parts):
            os.makedirs(os.path.dirname(self.spec_path(part)), exist_ok=True)
            lines = [f"kind = {KIND[self.name]}"]
            lines += [f"{key} = {value}" for key, value in self.params.items()]
            lines += [f"seed = {self.seed * self.parts + part}", f"out = {self.prefix(part)}"]
            with open(self.spec_path(part), "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")

    def argv(self, part: int) -> list:
        return [self.name, "--config", self.spec_path(part), "--workers", "1"]

    def execute(self, part: int, cli_main):
        """The timed part: one CLI invocation, or one check call (a list of results)."""
        if self.name == "checks":
            _, fn, kwargs = self.plan[part]
            out = fn(**kwargs)
            return out if isinstance(out, list) else [out]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_main(self.argv(part))


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------

def read_rows(path: str) -> list:
    """Result CSV rows as dicts of strings (header comment lines skipped)."""
    with open(path, encoding="utf-8") as fh:
        body = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(body))


def digest(workload: Workload, part: int, outcome) -> str:
    """sha256 of everything one part wrote, minus the wall_ms column.

    Repeats of a part within one run must agree on it; its value is never
    compared with stored bytes.
    """
    h = hashlib.sha256()
    if workload.name == "checks":
        for res in outcome:
            h.update(f"{res.name}|{res.passed}|{res.detail}\n".encode())
        return h.hexdigest()
    suffixes = [".csv", ".aggregates.json"]
    if workload.name == "trajectory":
        suffixes.append(".series.csv")
    for suffix in suffixes:
        with open(workload.prefix(part) + suffix, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if suffix == ".csv":
            head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
            drop = lines[head].split(",").index("wall_ms")
            lines[head:] = [",".join(c for i, c in enumerate(line.split(",")) if i != drop)
                            for line in lines[head:]]
        h.update(suffix.encode() + b"\0" + "\n".join(lines).encode() + b"\0")
    return h.hexdigest()


def operations(workload: Workload, part: int, outcome) -> int:
    """Operations one part performed: measured trials, or check results."""
    if workload.name == "checks":
        return len(outcome)
    return len(read_rows(workload.prefix(part) + ".csv"))


def planned_operations(workload: Workload) -> int:
    """Operations one part should perform (after `prepare`), counted as failed
    when it crashes.  On `checks` it is 1, a lower bound: one check call can
    return several results."""
    p = workload.params
    if workload.name == "checks":
        return 1
    cells = 1
    for key in ("n", "lambda", "chi", "alpha", "beta", "epsilon"):
        cells *= len(p[key].split(","))
    return cells * int(p["trials"])


def interactions(workload: Workload, part: int) -> int:
    """Sum of T_interactions over one part's measured trial rows (pilots excluded)."""
    return sum(int(row["T_interactions"]) for row in read_rows(workload.prefix(part) + ".csv"))


# ---------------------------------------------------------------------------
# Law-level checks (acceptance criteria 08 and 10), per part
# ---------------------------------------------------------------------------

def _cells(rows, key):
    groups = {}
    for row in rows:
        groups.setdefault(float(row[key]), []).append(row)
    return dict(sorted(groups.items()))


def _common(rows, expected_rows) -> list:
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} result rows, expected {expected_rows}")
    for row in rows:
        lam, gens, T = int(row["lambda"]), int(row["generations"]), int(row["T_interactions"])
        if T % lam or T != gens * lam:
            problems.append(f"trial {row['trial']}: T={T} is not generations*lambda={gens}*{lam}")
    return problems


def check_threshold(workload: Workload, part: int) -> list:
    rows = read_rows(workload.prefix(part) + ".csv")
    problems = _common(rows, planned_operations(workload))
    rates = {chi: sum(r["hit"] == "1" for r in g) / len(g) for chi, g in _cells(rows, "chi").items()}
    chis = list(rates)
    if rates.get(0.05, 0.0) < 0.9:
        problems.append(f"rate(0.05)={rates.get(0.05)} < 0.9")
    if rates.get(1.4, 1.0) != 0.0:
        problems.append(f"rate(1.4)={rates.get(1.4)} != 0")
    if any(rates[a] < rates[b] for a, b in zip(chis, chis[1:])):
        problems.append(f"success rate increases with chi: {rates}")
    return problems


def check_trajectory(workload: Workload, part: int, levels_for) -> list:
    rows = read_rows(workload.prefix(part) + ".csv")
    problems = _common(rows, planned_operations(workload))
    with open(workload.prefix(part) + ".series.csv", encoding="utf-8") as fh:
        series = list(csv.DictReader(fh))
    by_trial = {}
    for s in series:
        by_trial.setdefault((s["n"], s["trial"]), []).append(s)
    for row in rows:
        if row["hit"] != "1":
            problems.append(f"trial {row['trial']} did not hit")
        trail = by_trial.get((row["n"], row["trial"]), [])
        if len(trail) != int(row["generations"]) + 1:
            problems.append(f"trial {row['trial']}: {len(trail)} series rows for "
                            f"{row['generations']} generations")
            continue
        m = levels_for(int(row["n"]), float(row["alpha"]), float(row["beta"]), float(row["epsilon"]))
        levels = [int(s["current_level"]) for s in trail]
        phases = [int(s["phase"]) for s in trail]
        if [int(s["generation"]) for s in trail] != list(range(len(trail))):
            problems.append(f"trial {row['trial']}: generations are not 0..t")
        if min(levels) < 1 or max(levels) > m:
            problems.append(f"trial {row['trial']}: level outside [1, {m}]")
        if set(phases) - {1, 2} or any(a > b for a, b in zip(phases, phases[1:])):
            problems.append(f"trial {row['trial']}: phase goes back or leaves {{1, 2}}")
    return problems


def check_results(outcome) -> list:
    return [f"{res.name} failed: {res.detail}" for res in outcome if not res.passed]


def verify(workload: Workload, part: int, outcome, coevo) -> list:
    """All law-level problems of one part's run; an empty list means it passed."""
    if workload.name == "checks":
        return check_results(outcome)
    if outcome != 0:
        return [f"coevo {workload.name} exited with {outcome}"]
    if workload.name == "threshold":
        return check_threshold(workload, part)

    def levels_for(n, alpha, beta, epsilon):
        params = coevo.BilinearParams(n=n, alpha=alpha, beta=beta, epsilon=epsilon)
        return coevo.build_bilinear_levels(params).m

    return check_trajectory(workload, part, levels_for)
