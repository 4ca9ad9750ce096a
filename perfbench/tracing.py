"""Outside-in span tracing of coevo's layers.

`Tracer.install` replaces public entry points of `coevo.core`, `coevo.bilinear`,
`coevo.pdcoea`, `coevo.levels`, `coevo.theory`, `coevo.harness` and
`coevo.cli` with timing wrappers, at the module attribute where each caller
looks them up (for example `coevo.harness.run_trial`, which the harness calls,
rather than `coevo.pdcoea.run_trial`).  No library source is edited.

Spans live in memory as parallel arrays (name, start, end, parent, trial id)
and are written out once the run ends.  A span's self time is its duration
minus the durations of its child spans; the code is single-threaded, so
children never overlap and their sum is the covered part of the parent.
"""

from __future__ import annotations

import functools
import os
from array import array
from collections import Counter

import numpy as np

from speed import program_clock

# Span names of the layers, and the per-layer metrics derived from them.
STEP = "pdcoea.step_generation"
TRIAL = "pdcoea.run_trial"
DOMINANCE = "bilinear.dominance"
BILINEAR_TARGET = "bilinear.target"
SINGLETON_TARGET = "pdcoea.singleton_target"
POPULATION = "core.population"
POPCOUNT = "core.popcount"
CURRENT_LEVEL = "levels.current_level"
EXACT_ORACLE = "levels.exact_oracle"
VALIDATOR = "levels.validator"
THEORY_CHECKS = "theory.checks"
PILOT = "harness.pilot"
PERSIST = "harness.persist"
CLI = "cli.main"
SCALAR_DOMINANCE = "bilinear.scalar_dominance_calls"
BYTES_WRITTEN = "harness.bytes_written"

# Layers that must record spans on a workload.  A metric of such a layer with
# no spans is reported missing (null), never 0; other idle layers read 0.
EXPECTED_BUSY = {
    "threshold": {STEP, TRIAL, DOMINANCE, SINGLETON_TARGET, POPULATION, PERSIST, CLI},
    "trajectory": {STEP, TRIAL, DOMINANCE, BILINEAR_TARGET, POPULATION, CURRENT_LEVEL,
                   PILOT, PERSIST, CLI},
    "checks": {STEP, DOMINANCE, POPULATION, EXACT_ORACLE, VALIDATOR, THEORY_CHECKS,
               SCALAR_DOMINANCE},
}

# The ROADMAP's per-generation table was measured at these chi on `threshold`.
ROADMAP_CHIS = (0.05, 0.7, 1.4)

# (metric, unit, layer it needs): the per-layer metrics, in report order.
LAYER_METRICS = (
    ("pdcoea.generations", "count", STEP),
    ("pdcoea.trials", "count", TRIAL),
    ("pdcoea.step_self_us_per_gen", "us", STEP),
    ("bilinear.dominance_evals", "count", DOMINANCE),
    ("bilinear.dominance_us_per_gen", "us", DOMINANCE),
    ("bilinear.target_us_per_gen", "us", BILINEAR_TARGET),
    ("pdcoea.singleton_target_us_per_gen", "us", SINGLETON_TARGET),
    ("core.population_builds", "count", POPULATION),
    ("core.population_us_per_gen", "us", POPULATION),
    ("pdcoea.trial_loop_self_us_per_gen", "us", TRIAL),
    ("levels.current_level_calls", "count", CURRENT_LEVEL),
    ("levels.current_level_us_per_call", "us", CURRENT_LEVEL),
    ("levels.exact_oracle_s", "s", EXACT_ORACLE),
    ("levels.validator_s", "s", VALIDATOR),
    ("theory.checks_s", "s", THEORY_CHECKS),
    ("bilinear.scalar_dominance_calls", "count", SCALAR_DOMINANCE),
    ("harness.pilot_s", "s", PILOT),
    ("harness.pilot_share", "ratio", PILOT),
    ("harness.persist_s", "s", PERSIST),
    ("harness.bytes_written", "bytes", PERSIST),
    ("cli.self_ms", "ms", CLI),
) + tuple(
    (f"pdcoea.step_us_per_gen.chi{chi:g}", "us", STEP) for chi in ROADMAP_CHIS
)


class Tracer:
    """In-memory span recorder, installed into coevo before a run starts."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trial = array("i")
        self.counts = Counter()
        self.trial_chi = []       # chi of each trial id, in run order
        self._stack = []
        self._trial = -1

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, count=None, after=None):
        """`fn` timed as span `name`.

        `count(*args)` adds to counts[name] before the call; `after(result)`
        runs once the span is closed, so its cost is outside the span.
        """
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = program_clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                self.counts[name] += count(*args)
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.trial.append(self._trial)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                self._stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def counter(self, name, fn):
        """`fn` with a call count only: too cheap and too frequent for spans."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _factory(self, name, factory):
        """A predicate factory whose predicates are timed as span `name`."""

        @functools.wraps(factory)
        def make(*args, **kwargs):
            return self.wrap(name, factory(*args, **kwargs))

        return make

    def _trial_wrapper(self, run_trial):
        """run_trial as a span that opens a new trial id for its children."""
        timed = self.wrap(TRIAL, run_trial)

        @functools.wraps(run_trial)
        def wrapper(cfg, *args, **kwargs):
            outer = self._trial
            self._trial = len(self.trial_chi)
            self.trial_chi.append(float(cfg.chi))
            try:
                return timed(cfg, *args, **kwargs)
            finally:
                self._trial = outer

        return wrapper

    def _bytes(self, result):
        paths = (result,) if isinstance(result, str) else result
        self.counts[BYTES_WRITTEN] += sum(os.path.getsize(p) for p in paths)

    def install(self, coevo, workload):
        """Wrap every traced entry point; returns the traced `cli.main`.

        `workload` (a `workloads.Workload`) has its check plan wrapped too,
        since the benchmark itself is the caller of the check suites.
        """
        core, bilinear, pdcoea, harness, cli = (
            coevo.core, coevo.bilinear, coevo.pdcoea, coevo.harness, coevo.cli)
        pdcoea.step_generation = self.wrap(STEP, pdcoea.step_generation)
        harness.step_generation = self.wrap(STEP, harness.step_generation)
        harness.run_trial = self._trial_wrapper(harness.run_trial)
        population = pdcoea.Population
        pdcoea.Population = type(population.__name__, (population,), {
            "__slots__": (), "__init__": self.wrap(POPULATION, population.__init__)})
        core.popcount_rows = self.wrap(POPCOUNT, core.popcount_rows)
        game = bilinear.BilinearGame
        game.dominates_counts = self.wrap(DOMINANCE, game.dominates_counts,
                                          count=lambda _game, cx1, *_: np.size(cx1))
        pdcoea.bilinear_target = self._factory(BILINEAR_TARGET, pdcoea.bilinear_target)
        harness.singleton_target = self._factory(SINGLETON_TARGET, harness.singleton_target)
        harness.current_level = self.wrap(CURRENT_LEVEL, harness.current_level)
        for fname in ("half_prob_conditionals", "check_growth_lemmas", "_psel_counts"):
            setattr(harness, fname, self.wrap(EXACT_ORACLE, getattr(harness, fname)))
        harness.validate_level_function = self.wrap(VALIDATOR, harness.validate_level_function)
        for fname in ("dominates", "dominates_by_onecounts"):
            setattr(harness, fname, self.counter(SCALAR_DOMINANCE, getattr(harness, fname)))
        harness.pilot_budget = self.wrap(PILOT, harness.pilot_budget)
        harness.run_experiment = self.wrap("harness.run_experiment", harness.run_experiment)
        for fname in ("experiment_error_threshold", "experiment_trajectory"):
            setattr(harness, fname, self.wrap("harness.experiment", getattr(harness, fname)))
        harness.parse_spec_file = self.wrap("harness.parse_spec", harness.parse_spec_file)
        harness.ResultTable.write = self.wrap(PERSIST, harness.ResultTable.write, after=self._bytes)
        harness.write_series = self.wrap(PERSIST, harness.write_series, after=self._bytes)
        if workload.name == "checks":
            workload.plan = [
                (suite, self.wrap(THEORY_CHECKS if fn.__module__ == "coevo.theory"
                                  else f"harness.check.{suite}", fn), kwargs)
                for suite, fn, kwargs in workload.plan
            ]
        return self.wrap(CLI, cli.main)

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, start, end, parent index, trial id."""
        return (np.asarray(self.name, dtype=np.int64), np.asarray(self.start),
                np.asarray(self.end), np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.trial, dtype=np.int64))

    def self_times(self):
        """(duration, self time) per span."""
        _, start, end, parent, _ = self.arrays()
        dur = end - start
        has = parent >= 0
        return dur, dur - np.bincount(parent[has], weights=dur[has], minlength=dur.size)

    def write(self, path: str):
        name, start, end, parent, trial = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, start=start, end=end,
                            parent=parent, trial=trial, trial_chi=np.array(self.trial_chi))

    def layer_metrics(self, workload: str) -> dict:
        """Per-layer metrics of one traced run, per LAYER_METRICS.

        Times are divided by the run's generation count; a metric whose layer
        is expected busy on `workload` but recorded nothing is None.
        """
        name, _, _, parent, trial = self.arrays()
        dur, self_t = self.self_times()

        def mask(layer):
            return name == self._ids.get(layer, -1)

        gens = int(mask(STEP).sum())

        def per_gen_us(seconds):
            return seconds / gens * 1e6 if gens else 0.0

        trial_spans = np.flatnonzero(mask(TRIAL))
        pilot_trials = set()
        for idx in trial_spans:
            up = parent[idx]
            while up >= 0 and name[up] != self._ids.get(PILOT, -1):
                up = parent[up]
            if up >= 0:
                pilot_trials.add(int(trial[idx]))
        step_trials = trial[mask(STEP)]
        pilot_gens = int(np.isin(step_trials, list(pilot_trials)).sum()) if pilot_trials else 0
        level_calls = int(mask(CURRENT_LEVEL).sum())

        values = {
            "pdcoea.generations": gens,
            "pdcoea.trials": int(trial_spans.size),
            "pdcoea.step_self_us_per_gen": per_gen_us(self_t[mask(STEP)].sum()),
            "bilinear.dominance_evals": int(self.counts[DOMINANCE]),
            "bilinear.dominance_us_per_gen": per_gen_us(self_t[mask(DOMINANCE)].sum()),
            "bilinear.target_us_per_gen": per_gen_us(self_t[mask(BILINEAR_TARGET)].sum()),
            "pdcoea.singleton_target_us_per_gen": per_gen_us(self_t[mask(SINGLETON_TARGET)].sum()),
            "core.population_builds": int(mask(POPULATION).sum()),
            "core.population_us_per_gen": per_gen_us(dur[mask(POPULATION)].sum()),
            "pdcoea.trial_loop_self_us_per_gen": per_gen_us(self_t[mask(TRIAL)].sum()),
            "levels.current_level_calls": level_calls,
            "levels.current_level_us_per_call":
                dur[mask(CURRENT_LEVEL)].sum() / level_calls * 1e6 if level_calls else 0.0,
            "levels.exact_oracle_s": float(dur[mask(EXACT_ORACLE)].sum()),
            "levels.validator_s": float(dur[mask(VALIDATOR)].sum()),
            "theory.checks_s": float(dur[mask(THEORY_CHECKS)].sum()),
            "bilinear.scalar_dominance_calls": int(self.counts[SCALAR_DOMINANCE]),
            "harness.pilot_s": float(dur[mask(PILOT)].sum()),
            "harness.pilot_share": pilot_gens / gens if gens else 0.0,
            "harness.persist_s": float(dur[mask(PERSIST)].sum()),
            "harness.bytes_written": int(self.counts[BYTES_WRITTEN]),
            "cli.self_ms": float(self_t[mask(CLI)].sum() * 1e3),
        }
        chis = np.asarray(self.trial_chi)
        for chi in ROADMAP_CHIS:
            key = f"pdcoea.step_us_per_gen.chi{chi:g}"
            if workload != "threshold":
                values[key] = 0.0
                continue
            in_cell = np.flatnonzero(np.isclose(chis, chi)) if chis.size else np.array([], int)
            steps = mask(STEP) & np.isin(trial, in_cell)
            values[key] = float(dur[steps].sum() / steps.sum() * 1e6) if steps.any() else None

        busy = EXPECTED_BUSY[workload]
        recorded = {layer for layer in busy if mask(layer).any() or self.counts[layer]}
        for metric, _, layer in LAYER_METRICS:
            if layer in busy and layer not in recorded:
                values[metric] = None
        return {k: (float(v) if v is not None else None) for k, v in values.items()}
