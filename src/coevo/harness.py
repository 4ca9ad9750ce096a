"""Experiment orchestration and verification suites.

Experiments are driven by a flat ExperimentSpec (parameter grids, trial
count, master seed, budget rule) and produce a ResultTable whose rows are
canonically sorted, so output is byte-identical regardless of worker count.
Every work unit (cell, trial) draws its seed from the master seed and its
global unit index, which makes sweeps reproducible and embarrassingly
parallel.

Persistence: UTF-8 CSV with a '#'-prefixed header block (spec echo, master
seed, schema version) plus a JSON sidecar holding per-cell aggregates.  The
wall_ms column is the only field exempt from determinism.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product, repeat

import numpy as np

from . import theory
from .bilinear import (
    BilinearGame,
    BilinearParams,
    dominates,  # not called here: perfbench's tracer looks both scalar routes up on harness
    dominates_by_onecounts,
    intransitivity_witness,
    payoff_by_onecounts,
    _dominates_by_payoffs,
    _one_counts,
)
from .core import _is_int, _is_number, derive_seed, spawn_stream
from .levels import (
    LevelFunctionParams,
    build_bilinear_levels,
    check_growth_lemmas,
    current_level,
    eta_window,
    half_prob_conditionals,  # not called here: perfbench's tracer wraps it on harness
    reference_g1_g2,
    validate_level_function,
    _half_prob_counts,
    _psel_counts,
)
from .pdcoea import (
    RECORD_BLOCK,
    PdcoeaConfig,
    PdcoeaDistribution,
    _ReadAhead,
    _start_state,
    run_trial,
    run_trials,
    singleton_target,
    step_generation,
    trajectory_columns,
)
from .theory import CheckResult

SCHEMA_VERSION = 1
GAMMA0_DEFAULT = 9.0 / 25.0
PILOT_STREAM_OFFSET = 1_000_000_007  # pilot seeds never collide with trial units
PILOTS = 10
PILOT_CAP_FACTOR = 200
PILOT_MIN_HITS = 6  # with fewer, a censored pilot would sit at the median of the PILOTS runs
# Largest generations * lambda a budget may resolve to: above 2**53 the float
# arithmetic of a "bound:<factor>" budget is no longer exact, and no run could finish.
MAX_INTERACTIONS = 2 ** 53

CELL_COLUMNS = ("n", "lambda", "chi", "alpha", "beta", "epsilon", "r")
CSV_COLUMNS = (
    "kind", "n", "lambda", "chi", "alpha", "beta", "epsilon", "delta", "r",
    "trial", "seed", "hit", "T_interactions", "generations", "wall_ms",
)

# spec-file key -> ExperimentSpec field of every grid
SPEC_GRIDS = {"n": "n", "lambda": "lam", "chi": "chi", "alpha": "alpha",
              "beta": "beta", "epsilon": "epsilon", "r": "r"}

EXPERIMENT_KINDS = ("sweep", "runtime-scaling", "error-threshold", "trajectory", "bound-table")


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """Grid experiment description; every cell is fully determined by the
    spec plus its cell and trial indices."""

    kind: str
    n: tuple = (100,)
    lam: tuple = (100,)
    chi: tuple = ("auto",)        # floats, or "auto" = recipe chi at `delta`
    alpha: tuple = (0.9,)
    beta: tuple = (0.05,)
    epsilon: tuple = (0.1,)
    r: tuple = (1.0,)
    delta: float = 0.01           # slack used when chi = "auto"
    trials: int = 10
    master_seed: int = 1
    budget: object = "pilot"      # generations, "pilot", or "bound:<factor>"
    target: str = "bilinear"      # "bilinear" or "singleton"
    gamma0: float = GAMMA0_DEFAULT
    out: str | None = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; "
                             f"choose from {', '.join(EXPERIMENT_KINDS)}")
        if not _is_int(self.trials) or self.trials < 1:
            raise ValueError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not _is_int(self.master_seed):
            raise ValueError(f"seed must be an integer, got {self.master_seed!r}")
        if not _is_number(self.delta) or not math.isfinite(self.delta):
            raise ValueError(f"delta must be a finite number, got {self.delta!r}")
        if self.target not in ("bilinear", "singleton"):
            raise ValueError(f"unknown target {self.target!r}")
        if not _is_number(self.gamma0) or not 0.0 < self.gamma0 < 1.0:
            raise ValueError(f"gamma0 must be a number in (0, 1), got {self.gamma0!r}")
        if self.out is not None and not (isinstance(self.out, str) and self.out.strip()):
            raise ValueError(f"out must be an output prefix (non-blank text) or None, "
                             f"got {self.out!r}")
        for key, attr in SPEC_GRIDS.items():
            _check_grid(key, getattr(self, attr))
        # Python floats: a numpy float's repr (numpy >= 2) would reach the CSV
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "gamma0", float(self.gamma0))
        object.__setattr__(self, "budget", _check_budget(self.budget))


def _check_grid(key: str, values) -> None:
    """Grid values are finite numbers (chi may be "auto"), so no NaN or
    infinity reaches a run or a JSON file; n and lambda are whole numbers, so
    `n = 20.7` is rejected rather than run as n = 20, and r, the budget's
    confidence factor, is positive."""
    for value in values:
        if key == "chi" and value == "auto":
            continue
        if not _is_number(value) or not math.isfinite(value):
            expected = "a finite number or 'auto'" if key == "chi" else "a finite number"
            raise ValueError(f"{key} must be {expected}, got {value!r}")
        if key in ("n", "lambda") and value != int(value):
            raise ValueError(f"{key} must be a whole number, got {value!r}")
        if key == "r" and value <= 0:
            raise ValueError(f"r must be positive, got {value!r}")


def _check_budget(budget):
    """A positive generation count (integral floats such as 1e3 accepted),
    "pilot" or "bound:<positive factor>"; rejected before any run starts."""
    if budget == "pilot":
        return budget
    if isinstance(budget, str) and budget.startswith("bound:"):
        factor = _parse_value(budget.split(":", 1)[1])
        if _is_number(factor) and 0 < factor < math.inf:
            return budget
    elif _is_number(budget) and 0 < budget < math.inf and budget == int(budget):
        return int(budget)
    raise ValueError(f"budget must be a positive whole number of generations, 'pilot' "
                     f"or 'bound:<positive factor>', got {budget!r}")


@dataclass(frozen=True)
class Cell:
    n: int
    lam: int
    chi: float
    alpha: float
    beta: float
    epsilon: float
    r: float
    delta: float | None  # slack behind an "auto" chi, None for explicit chi

    @property
    def game(self) -> BilinearParams:
        return BilinearParams(n=self.n, alpha=self.alpha, beta=self.beta, epsilon=self.epsilon)

    def columns(self) -> dict:
        """The cell's CELL_COLUMNS values (delta only explains an "auto" chi)."""
        return dict(zip(CELL_COLUMNS, (self.n, self.lam, self.chi, self.alpha, self.beta,
                                       self.epsilon, self.r)))


def resolve_cells(spec: ExperimentSpec) -> list[Cell]:
    cells = []
    for n, lam, chi, alpha, beta, eps, r in product(
        spec.n, spec.lam, spec.chi, spec.alpha, spec.beta, spec.epsilon, spec.r
    ):
        if chi == "auto":
            cells.append(Cell(int(n), int(lam), theory.recipe_mutation_rate(spec.delta),
                              float(alpha), float(beta), float(eps), float(r), spec.delta))
        else:
            cells.append(Cell(int(n), int(lam), float(chi),
                              float(alpha), float(beta), float(eps), float(r), None))
    seen = set()
    for cell in cells:
        key = tuple(cell.columns().values())
        if key in seen:  # two runs of one cell would merge into one aggregate
            raise ValueError("grid values must be distinct; repeated cell " + ", ".join(
                f"{col}={value}" for col, value in cell.columns().items()))
        seen.add(key)
    return cells


def _parse_value(text: str):
    text = text.strip()
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_spec_file(path: str) -> ExperimentSpec:
    """Flat key = value format; comma lists give grids, '#' starts a comment.

    Keys: kind, n, lambda, chi, delta, alpha, beta, epsilon, r, trials,
    seed, budget, target, gamma0, out (read as text); each at most once.
    """
    scalars = {"kind": "kind", "delta": "delta", "trials": "trials", "seed": "master_seed",
               "budget": "budget", "target": "target", "gamma0": "gamma0", "out": "out"}
    kwargs, seen = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in seen:
                raise ValueError(f"{path}:{lineno}: key {key!r} already set on line {seen[key]}")
            seen[key] = lineno
            if key in SPEC_GRIDS:
                kwargs[SPEC_GRIDS[key]] = tuple(_parse_value(v) for v in value.split(","))
            elif key in scalars:  # an output prefix is text, whatever it looks like
                kwargs[scalars[key]] = value if key == "out" else _parse_value(value)
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    if "kind" not in kwargs:
        raise ValueError(f"{path}: spec must set 'kind'")
    return ExperimentSpec(**kwargs)


# ---------------------------------------------------------------------------
# Result tables
# ---------------------------------------------------------------------------

@dataclass
class ResultTable:
    spec: ExperimentSpec
    rows: list = field(default_factory=list)   # dicts keyed by CSV_COLUMNS
    extra: dict = field(default_factory=dict)  # experiment summaries for the sidecar

    def sort(self):
        self.rows.sort(key=lambda row: (*(row[col] for col in CELL_COLUMNS), row["trial"]))

    def aggregates(self) -> list[dict]:
        """Per-cell success rate and hit-time quantiles, recomputable from rows.

        Censored trials contribute to the success rate and censoring count
        only, never to the hit-time quantiles.
        """
        groups: dict[tuple, list[dict]] = {}
        for row in self.rows:
            groups.setdefault(tuple(row[col] for col in CELL_COLUMNS), []).append(row)
        out = []
        for key in sorted(groups):
            rows = groups[key]
            hits = [r["T_interactions"] for r in rows if r["hit"]]
            agg = dict(zip(CELL_COLUMNS, key))
            agg.update(
                trials=len(rows),
                hits=len(hits),
                censored=len(rows) - len(hits),
                success_rate=len(hits) / len(rows),
                median_T=float(np.median(hits)) if hits else None,
                q25_T=float(np.quantile(hits, 0.25)) if hits else None,
                q75_T=float(np.quantile(hits, 0.75)) if hits else None,
            )
            out.append(agg)
        return out

    def _spec_json(self) -> str:
        return json.dumps(self.spec.__dict__, sort_keys=True, default=str)

    def to_csv(self) -> str:
        return "".join([
            f"# coevo-results schema={SCHEMA_VERSION}\n",
            f"# master_seed={self.spec.master_seed}\n",
            f"# spec={self._spec_json()}\n",
            _csv_line(CSV_COLUMNS),
            *(_csv_line(row[col] for col in CSV_COLUMNS) for row in self.rows),
        ])

    def write(self, prefix: str) -> tuple[str, str]:
        """Write `<prefix>.csv` and the `<prefix>.aggregates.json` sidecar."""
        csv_path = prefix + ".csv"
        json_path = prefix + ".aggregates.json"
        with _create(csv_path) as fh:
            fh.write(self.to_csv())
        _write_json(json_path, {
            "schema": SCHEMA_VERSION,
            "spec": json.loads(self._spec_json()),
            "aggregates": self.aggregates(),
            **self.extra,
        })
        return csv_path, json_path


def _create(path: str):
    """Open `path` for writing as UTF-8 text, creating its directory first."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    return open(path, "w", encoding="utf-8")


def _csv_line(values) -> str:
    """One CSV line: None is empty, a bool is 1/0, a float is its repr and
    anything else its str (so a float cell reads back to the same value)."""
    cells = []
    for value in values:
        if value is None:
            cells.append("")
        elif isinstance(value, bool):
            cells.append("1" if value else "0")
        elif isinstance(value, float):
            cells.append(repr(value))
        else:
            cells.append(str(value))
    return ",".join(cells) + "\n"


def _write_json(path: str, obj) -> None:
    """Write `obj` to `path` as indented JSON with sorted keys and a final newline."""
    with _create(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

def _target_for(kind: str, n: int):
    if kind == "bilinear":
        return None
    # The reachable singleton: predators are driven toward the all-zeros
    # genome and prey toward all-ones, both of which are unique strings.
    return singleton_target(0, n, n)


def _cell_config(cell: Cell, spec: ExperimentSpec, seed: int, budget: int) -> PdcoeaConfig:
    return PdcoeaConfig(lam=cell.lam, chi=cell.chi, seed=seed, budget_generations=budget,
                        game=cell.game, target=_target_for(spec.target, cell.n))


class PilotError(RuntimeError):
    """Too few pilot runs of a cell hit for a pilot budget to be meaningful."""


def pilot_budget(cell: Cell, spec: ExperimentSpec, cell_index: int) -> int:
    """Budget procedure: 10x the median of PILOTS pilot hit times, censored runs ranked last.

    Pilot runs use a generous cap of PILOT_CAP_FACTOR * n generations and
    draw their seeds from a reserved stream block, so they never share
    randomness with the measured trials.  They run together (`run_trials`),
    each on its own stream, so the budget is the one they would give run
    one after another.  Raises PilotError if fewer than PILOT_MIN_HITS
    pilots hit, since a median of censored values would not be meaningful.
    """
    cap = PILOT_CAP_FACTOR * cell.n
    base = _cell_config(cell, spec, 0, cap)
    first = PILOT_STREAM_OFFSET + cell_index * PILOTS
    records = run_trials([replace(base, seed=derive_seed(spec.master_seed, first + i))
                          for i in range(PILOTS)])
    hit_gens = [record.generations_run for record in records if record.hit]
    if len(hit_gens) < PILOT_MIN_HITS:
        raise PilotError(
            f"pilot procedure failed for cell {cell}: only {len(hit_gens)}/{PILOTS} "
            f"pilots hit within {cap} generations"
        )
    median = np.median(hit_gens + [math.inf] * (PILOTS - len(hit_gens)))
    return max(1, int(math.ceil(10.0 * float(median))))


def _solvable_budget(cell: Cell) -> theory.BoundValue:
    """Closed-form solvable-regime interaction budget of one cell (slack from chi)."""
    return theory.solvable_regime_budget(cell.n, cell.lam, cell.chi, cell.alpha, cell.beta,
                                         cell.epsilon, cell.r)


def _budget_for(cell: Cell, spec: ExperimentSpec, cell_index: int) -> int:
    """The cell's budget in generations; a ValueError if generations * lambda exceed
    MAX_INTERACTIONS."""
    budget = spec.budget
    if isinstance(budget, int):
        generations = budget
    elif budget == "pilot":
        generations = pilot_budget(cell, spec, cell_index)
    else:
        generations = float(budget.split(":", 1)[1]) * _solvable_budget(cell).value / cell.lam
        if math.isfinite(generations):
            generations = max(1, math.ceil(generations))
    if not generations * cell.lam <= MAX_INTERACTIONS:
        raise ValueError(f"budget {budget!r} gives {generations:.6g} generations for cell {cell}; "
                         f"generations * lambda may not exceed MAX_INTERACTIONS = 2**53")
    return generations


def _result_row(spec: ExperimentSpec, cell: Cell, trial: int, record) -> dict:
    return {
        "kind": spec.kind, **cell.columns(), "delta": cell.delta, "trial": trial,
        "seed": record.seed, "hit": record.hit, "T_interactions": record.T_interactions,
        "generations": record.generations_run, "wall_ms": record.wall_ms,
    }


def _run_unit(args):
    spec, cell, trial, seed, budget = args
    cfg = _cell_config(cell, spec, seed, budget)
    return cell, trial, run_trial(cfg, record=spec.kind == "trajectory")


def _run_units(spec: ExperimentSpec, workers: int):
    """Yield (cell, trial, record) for every unit of `spec`, in plan order,
    one at a time; a trajectory experiment's records carry their one-counts.

    Every cell's config is built (and so validated) before the first pilot
    runs, and every cell's budget is resolved before the first trial runs;
    with several workers, each cell's budget (its pilot batch) is pool work
    too.  Unit (cell_index, trial) gets seed derive_seed(master_seed,
    cell_index * trials + trial), so the records are the same for any
    worker count and any scheduling order.
    """
    cells = resolve_cells(spec)
    for cell in cells:
        _cell_config(cell, spec, 0, 1)
    pool = contextlib.nullcontext()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported only when a pool runs
        pool = ProcessPoolExecutor(max_workers=workers)
    with pool:
        run = pool.map if workers > 1 else map
        budgets = list(run(_budget_for, cells, repeat(spec), range(len(cells))))
        yield from run(_run_unit, [
            (spec, cell, trial, derive_seed(spec.master_seed, ci * spec.trials + trial), budget)
            for ci, (cell, budget) in enumerate(zip(cells, budgets))
            for trial in range(spec.trials)])


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ResultTable:
    """Execute all cells x trials; rows come back canonically sorted and are
    identical for any worker count."""
    table = ResultTable(spec, [_result_row(spec, *unit) for unit in _run_units(spec, workers)])
    table.sort()
    return table


# ---------------------------------------------------------------------------
# Named experiments
# ---------------------------------------------------------------------------

def experiment_error_threshold(spec: ExperimentSpec, workers: int = 1):
    """Success-rate-vs-chi curve with an empirical transition summary.

    The mutation-rate grid should straddle ln 2; above the threshold the
    exact-pair target needs time exponential in n, so desk-scale budgets see
    the success rate collapse to zero.
    """
    table = run_experiment(spec, workers=workers)
    aggs = table.aggregates()
    # the curve reads the cells that share every other cell column with the
    # first aggregate, as the scaling fits do; aggregates come sorted by chi there
    curve = [{"chi": a["chi"], "success_rate": a["success_rate"]} for a in aggs
             if all(a[c] == aggs[0][c] for c in CELL_COLUMNS if c != "chi")]
    nonzero = [pt["chi"] for pt in curve if pt["success_rate"] > 0]
    zero = [pt["chi"] for pt in curve if pt["success_rate"] == 0]
    summary = {
        "curve": curve,
        "last_nonzero_chi": max(nonzero) if nonzero else None,
        "first_zero_chi": min(zero) if zero else None,
        "ln2_reference": math.log(2.0),
    }
    table.extra["threshold_summary"] = summary
    return table, summary


def experiment_runtime_scaling(spec: ExperimentSpec, workers: int = 1):
    """Median hit time against n (and against lambda when swept).

    Reports log-log slope estimates plus the closed-form budget reference for
    each cell; censored trials never enter the medians.
    """
    table = run_experiment(spec, workers=workers)
    aggs = table.aggregates()

    def slope(points):
        if len(points) < 2 or any(p[1] is None for p in points):
            return None
        xs = np.log([p[0] for p in points])
        ys = np.log([p[1] for p in points])
        return float(np.polyfit(xs, ys, 1)[0])

    # each fit reads the cells that share every other cell column with the
    # first aggregate; aggregates come sorted, so its points are in order
    fits = {}
    for col in ("n", "lambda"):
        if len({a[col] for a in aggs}) > 1:
            pts = [(a[col], a["median_T"]) for a in aggs
                   if all(a[c] == aggs[0][c] for c in CELL_COLUMNS if c != col)]
            fits[f"slope_T_vs_{col}"] = slope(pts)

    references = []
    for agg in aggs:
        cell = Cell(*(agg[col] for col in CELL_COLUMNS), delta=None)
        try:
            ref = _solvable_budget(cell).value
        except ValueError:
            ref = None
        references.append({**{k: agg[k] for k in ("n", "lambda", "chi")},
                           "budget_reference_interactions": ref})
    summary = {"fits": fits, "references": references}
    table.extra["scaling_summary"] = summary
    return table, summary


SERIES_COLUMNS = (
    "n", "lambda", "chi", "trial", "generation", "pred_mean", "prey_mean",
    "p0", "q0", "prey_in_s0", "current_level", "phase",
)


def experiment_trajectory(spec: ExperimentSpec, workers: int = 1):
    """Per-generation population series with level and phase annotation.

    Phase 2 starts at the first generation where the predator fraction below
    beta*n reaches gamma0.  Every trial records its one-counts; its series
    rows, levels and phases come from `trajectory_columns` and
    `current_level` over RECORD_BLOCK generations at a time, and the output
    is identical for any worker count.  Every cell's level sequence is built
    before the first run, so a cell without one fails before any work.
    """
    table = ResultTable(spec=spec)
    series = []
    levels = {cell: build_bilinear_levels(cell.game) for cell in resolve_cells(spec)}
    for cell, trial, record in _run_units(spec, workers):
        table.rows.append(_result_row(spec, cell, trial, record))
        game = cell.game
        reached = False  # phase 2 began in an earlier block
        for start in range(0, len(record.counts), RECORD_BLOCK):
            block = record.counts[start:start + RECORD_BLOCK]
            cx, cy = block[:, 0], block[:, 1]
            rows = trajectory_columns(cx, cy, game, range(start, start + len(block)))
            phase = 1 + (np.logical_or.accumulate(rows.p0 >= spec.gamma0) | reached)
            reached = bool(phase[-1] == 2)
            series.extend(zip(
                repeat(cell.n), repeat(cell.lam), repeat(cell.chi), repeat(trial), rows.generation,
                rows.pred_mean.tolist(), rows.prey_mean.tolist(), rows.p0.tolist(),
                rows.q0.tolist(), rows.prey_in_s0.tolist(),
                current_level(cx, cy, levels[cell], spec.gamma0).tolist(), phase.tolist()))
    table.sort()
    table.extra["series_columns"] = list(SERIES_COLUMNS)
    return table, series


def experiment_bound_table(spec: ExperimentSpec):
    """Closed-form budget references for every grid cell (no runs).

    Each row carries the recipe mutation rate's implied slack, the
    interaction budget with its term breakdown, and the error-threshold
    reference for the cell's slack when it is in range.
    """
    rows = []
    for cell in resolve_cells(spec):
        row = cell.columns()
        try:
            bound = _solvable_budget(cell)
            row.update(budget_interactions=bound.value, budget_generations=bound.value / cell.lam,
                       slack=bound.terms["delta"], pop_term=bound.terms["pop_term"],
                       mutation_term=bound.terms["mutation_term"])
        except ValueError as exc:
            row.update(budget_interactions=None, note=str(exc))
        rows.append(row)
    if spec.out:
        _write_json(spec.out + ".bounds.json", rows)
    return rows


def write_series(series, path: str):
    with _create(path) as fh:
        fh.write(_csv_line(SERIES_COLUMNS))
        fh.writelines(_csv_line(row) for row in series)
    return path


# ---------------------------------------------------------------------------
# Check suites
# ---------------------------------------------------------------------------

DOMINANCE_CHECK_GAMES = ((0.4, 0.6), (0.9, 0.05), (0.0, 1.0))

# Hypothesis-satisfying one-count populations for the exact growth checks
# (n=10, alpha=0.4, beta=0.6); found by search, verified by the exact law.
GROWTH_CHECK_CONFIGS = {
    15: dict(pred=(2, 2, 2, 7, 7, 7), prey=(3, 3, 2, 1, 1, 0), k=0, l=2,
             delta1=Fraction(2, 5)),
    16: dict(pred=(0, 1, 2, 3, 4, 5), prey=(3, 2, 0, 0, 0, 0), k=0, l=1,
             rho=Fraction(1, 2)),
    17: dict(pred=(2, 2, 2, 7, 7, 7), prey=(3, 3, 2, 1, 1, 0), k=0, l=2),
    18: dict(pred=(2, 2, 2, 7, 7, 7), prey=(3, 3, 2, 1, 1, 0), k=0, l=2),
    19: dict(pred=(2, 5, 7, 8, 9, 9), prey=(5, 4, 3, 2, 1, 0), k=2, l=0,
             rho=Fraction(1, 10)),
}


def check_dominance_equivalence() -> CheckResult:
    """Exhaustive agreement of the payoff route and the one-count route.

    All 11^4 one-count quadruples at n=10 for each of DOMINANCE_CHECK_GAMES,
    on broadcast int64 grids.
    """
    n = 10
    c = np.arange(n + 1)
    grids = np.meshgrid(c, c, c, c, indexing="ij")
    mismatches = 0
    for alpha, beta in DOMINANCE_CHECK_GAMES:
        params = BilinearParams(n=n, alpha=alpha, beta=beta, epsilon=1.0 / n)
        by_payoffs = _dominates_by_payoffs(*grids, params)
        mismatches += int((by_payoffs != BilinearGame(params).dominates_counts(*grids)).sum())
    return CheckResult(
        "dominance-equivalence",
        mismatches == 0,
        f"{len(DOMINANCE_CHECK_GAMES) * c.size ** 4} quadruples verified across "
        f"{len(DOMINANCE_CHECK_GAMES)} games, {mismatches} mismatches",
    )


def check_dominance_structure() -> CheckResult:
    """Reflexivity and antisymmetry over all 11^4 one-count quadruples:
    every pair dominates itself, and two pairs dominate each other only
    when all four payoffs tie."""
    n = 10
    params = BilinearParams(n=n, alpha=0.4, beta=0.6, epsilon=0.1)
    c = np.arange(n + 1)
    cx1, cy1, cx2, cy2 = np.meshgrid(c, c, c, c, indexing="ij")
    game = BilinearGame(params)
    mutual = game.dominates_counts(cx1, cy1, cx2, cy2) & game.dominates_counts(cx2, cy2, cx1, cy1)
    g11 = payoff_by_onecounts(cx1, cy1, params)
    tie = np.all([payoff_by_onecounts(x, y, params) == g11
                  for x, y in ((cx1, cy2), (cx2, cy1), (cx2, cy2))], axis=0)
    bad = int((~mutual[c[:, None], c[None, :], c[:, None], c[None, :]]).sum())
    bad += int((mutual & ~tie).sum())
    return CheckResult("dominance-structure", bad == 0,
                       f"{(n + 1) ** 2} pairs and {(n + 1) ** 4} quadruples, {bad} violations")


def check_intransitivity() -> CheckResult:
    params = BilinearParams(n=20, alpha=0.4, beta=0.6, epsilon=0.05)
    cycle = intransitivity_witness(params)
    if cycle is None:
        return CheckResult("intransitivity", False, "no 4-cycle found")
    ok = _verify_cycle(cycle, params)
    return CheckResult("intransitivity", ok, f"cycle {cycle}" if ok else f"invalid cycle {cycle}")


def _verify_cycle(cycle, params: BilinearParams) -> bool:
    dom = lambda a, b: dominates_by_onecounts(a[0], a[1], b[0], b[1], params)
    a, b, c, d = cycle
    chain = dom(a, b) and dom(b, c) and dom(c, d) and dom(d, a)
    chords = dom(a, c) or dom(c, a) or dom(b, d) or dom(d, b)
    return chain and not chords and len({a, b, c, d}) == 4


def check_half_probabilities(seed: int = theory.DEFAULT_CHECK_SEED) -> CheckResult:
    """Exact conditional dominance probabilities >= 1/2 on 100 random
    populations of lambda = 6 at n = 10, checked and counted as one block."""
    params = BilinearParams(n=10, alpha=0.4, beta=0.6, epsilon=0.1)
    draws = spawn_stream(seed, 1).integers(0, 11, size=(100, 2, 6))  # each state's cx, then cy
    cx, cy = (side.reshape(100, 6)
              for side in _one_counts(draws[:, 0].ravel(), draws[:, 1].ravel(), params.n))
    dominating, drawn = _half_prob_counts(cx, cy, params)
    evaluated = int((drawn > 0).sum())
    violations = int((2 * dominating < drawn).sum())  # below 1/2; never a null event
    return CheckResult(
        "half-probabilities", violations == 0,
        f"{evaluated} non-null conditionals over 100 populations, {violations} below 1/2",
    )


def check_growth_suite() -> CheckResult:
    params = BilinearParams(n=10, alpha=0.4, beta=0.6, epsilon=0.1)
    lines = []
    ok = True
    for case, cfg in sorted(GROWTH_CHECK_CONFIGS.items()):
        report = check_growth_lemmas(
            case, cfg["pred"], cfg["prey"], params, k=cfg["k"], l=cfg["l"],
            delta1=cfg.get("delta1"), rho=cfg.get("rho"),
        )
        good = report.hypotheses_met and report.passed
        ok &= good
        lines.append(
            f"case {case}: ratio={float(report.ratio):.4f} bound={float(report.bound):.4f}"
            if report.hypotheses_met else f"case {case}: hypotheses unmet ({report.note})"
        )
    return CheckResult("growth-inequalities", ok, "; ".join(lines))


def check_level_functions() -> CheckResult:
    """Reference potential validates; a count-increasing function does not;
    the closed-form cap g(0,1) < 3*eta*lambda^2*m/z_* holds across the sweep.
    The detail names each sweep configuration that fails, and how."""
    lines = []
    for lam in (15, 20, 28):
        for m in (3, 6, 10):
            for pattern in ("flat", "rising", "mixed"):
                z = _z_pattern(pattern, m)
                for delta in (0.3, 0.8):
                    lo, hi = eta_window(delta, lam)
                    params = LevelFunctionParams(eta=(lo + hi) / 2, phi=0.5, z=z, lam=lam, m=m)
                    g1, g2 = reference_g1_g2(params)
                    where = f"lambda={lam} m={m} z={pattern} delta={delta}"
                    if not validate_level_function(lambda k, j: g1(k, j) + g2(k, j), lam, m):
                        lines.append(f"{where}: validator rejected the reference potential")
                    if lam > 44.0 / 3.0 and lam * lam > 44.0 / (3.0 * delta):
                        cap = 3.0 * params.eta * lam * lam * m / min(z)
                        if not g1(0, 1) + g2(0, 1) < cap:
                            lines.append(f"{where}: g(0,1) not below the cap {cap:.6g}")
    counterexample = validate_level_function(lambda k, j: k, 5, 4)
    ok = not lines and not counterexample
    lines.append("monotone counterexample rejected" if not counterexample else "counterexample accepted!")
    return CheckResult("level-functions", ok, "; ".join(lines))


def _z_pattern(pattern: str, m: int) -> tuple:
    if pattern == "flat":
        return tuple([0.5] * (m - 1))
    if pattern == "rising":
        return tuple((i + 1) / m for i in range(m - 1))
    return tuple(0.1 + 0.8 * ((i * 7) % (m + 1)) / (m + 1) for i in range(m - 1))


def check_product_space(seed: int = theory.DEFAULT_CHECK_SEED) -> CheckResult:
    """Exact product-occupancy drift and upgrade bounds, and an engine cross-check.

    At chi = 0 an offspring pair is the selected pair, so from one fixed
    population (n = 10, lambda = 20) the counts X' of offspring predators in
    A and Y' of offspring prey in B follow `theory.occupancy_law` of the
    exact selection cells.  With p = P(x in A), q = P(y in B), z = p*q,
    gamma = z/(1+delta) and Z' = X'*Y', exact sums verify

      1. E[Z'] >= lambda*(lambda-1)*(1+delta)*gamma,
      2. E[exp(-eta Z')] <= exp(-eta*lambda*(gamma*lambda-1)) at the admissible eta,
      3. P(Z' < lambda*(gamma*lambda-1)) is below its exponential cap, and
      4. 1/r < 3/(z*(lambda-1)) + 1 for r = P(X' > 0, Y' > 0).

    The engine's (X', Y') over 4000 steps on stream `seed` must fit the law:
    Pearson's statistic over the cells expected at least 5 times, plus one
    pooled bin, is at most dof + 6*sqrt(2*dof).
    """
    n, lam, reps = 10, 20, 4000
    params = BilinearParams(n=n, alpha=0.4, beta=0.6, epsilon=0.1)
    cx, cy = np.repeat([2, 7], 10), np.repeat([3, 2, 1, 0], [7, 6, 4, 3])
    in_a = lambda c: c < params.beta_n          # predators in R0
    in_b = lambda c: c < 2                       # prey below 2 ones
    p = _psel_counts(cx, cy, params, pred_x=in_a)
    q = _psel_counts(cx, cy, params, pred_y=in_b)
    p11 = _psel_counts(cx, cy, params, pred_x=in_a, pred_y=in_b)  # both in A and in B
    law = theory.occupancy_law(np.array([[1 - p - q + p11, q - p11], [p - p11, p11]], float), lam)
    z_vals = np.outer(np.arange(lam + 1), np.arange(lam + 1))
    delta, delta1, z = 0.2, 0.1, float(p * q)
    gamma, eta = z / (1.0 + delta), (1.0 - (1.0 + delta) ** -0.5) / lam

    mean_z, bound1 = (law * z_vals).sum(), lam * (lam - 1) * (1.0 + delta) * gamma
    mgf, bound2 = (law * np.exp(-eta * z_vals)).sum(), math.exp(-eta * lam * (gamma * lam - 1.0))
    tail = law[z_vals < lam * (gamma * lam - 1.0)].sum()
    bound3 = math.exp(-delta1 * gamma * lam * (1.0 - math.sqrt((1.0 + delta1) / (1.0 + delta))))
    inv_r, bound4 = 1.0 / law[1:, 1:].sum(), 3.0 / (z * (lam - 1)) + 1.0
    slack = theory._FLOAT_SLACK  # bounds 1 to 3 are not strict
    ok = (mean_z >= bound1 - slack and mgf <= bound2 + slack and tail <= bound3 + slack
          and inv_r < bound4)

    pops = _start_state(n, cx, cy)
    dist = PdcoeaDistribution(params, chi=0.0)
    rng = _ReadAhead([spawn_stream(seed, 2)], lam)
    states = np.empty((reps, 2 * lam), dtype=np.int64)  # one row per step, predators first
    for i in range(reps):
        states[i] = step_generation(pops, dist, rng).flat
    pred, prey = states[:, :lam], states[:, lam:]
    seen = np.bincount(in_a(pred).sum(axis=1) * (lam + 1) + in_b(prey).sum(axis=1),
                       minlength=law.size)
    expected = reps * law.ravel()
    kept = expected >= 5.0
    seen, expected = (np.append(v[kept], v[~kept].sum()) for v in (seen, expected))
    stat, dof = float(((seen - expected) ** 2 / expected).sum()), int(kept.sum())
    limit = dof + 6.0 * math.sqrt(2.0 * dof)
    return CheckResult(
        "product-space", ok and stat <= limit,
        f"E[Z']={mean_z:.2f} vs {bound1:.2f}; mgf={mgf:.4f} vs {bound2:.4f}; "
        f"tail={tail:.4f} vs {bound3:.4f}; 1/r={inv_r:.4f} vs {bound4:.4f}; "
        f"engine chi2={stat:.1f} on {dof} dof (limit {limit:.1f})")


CHECK_SUITES = {
    "dominance": (check_dominance_equivalence, check_dominance_structure),
    "intransitivity": (check_intransitivity,),
    "half-prob": (check_half_probabilities,),
    "growth": (check_growth_suite,),
    "levels": (check_level_functions,),
    "inequalities": (theory.check_sqrt_bound, theory.check_exp_lower_bound,
                     theory.check_product_mgf),
    "product-state": (check_product_space,),
}


def run_checks(suite: str = "all") -> list[CheckResult]:
    if suite == "all":
        names = list(CHECK_SUITES)
    elif suite in CHECK_SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown check suite {suite!r}; choose from {sorted(CHECK_SUITES)} or 'all'")
    return [fn() for name in names for fn in CHECK_SUITES[name]]
