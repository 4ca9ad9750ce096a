"""Command-line front end.

Subcommands: run (single trial), sweep (experiment from a config file, any
kind), threshold / trajectory (sweep with the kind forced), bound
(calculators), check (verification suites).

Exit codes: 0 success, 1 usage error, 2 check-suite failure, 3 I/O error,
4 pilot failure (too few pilot runs of a `budget = pilot` cell hit).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import harness, theory
from .bilinear import BilinearParams
from .pdcoea import PdcoeaConfig, TrajectoryRow, run_trial, trajectory_columns


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _add_run(sub):
    p = sub.add_parser("run", help="run one seeded trial and print its record")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--chi", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.9)
    p.add_argument("--beta", type=float, default=0.05)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--budget", type=int, required=True, help="generation budget")
    p.add_argument("--target", choices=("bilinear", "singleton"), default="bilinear")
    p.add_argument("--json", action="store_true", help="dump the full record as JSON")


def _cmd_run(args) -> int:
    game = BilinearParams(n=args.n, alpha=args.alpha, beta=args.beta, epsilon=args.epsilon)
    cfg = PdcoeaConfig(lam=args.lam, chi=args.chi, seed=args.seed, budget_generations=args.budget,
                       game=game, target=harness._target_for(args.target, args.n))
    record = run_trial(cfg, record=True)
    counts = record.counts
    columns = trajectory_columns(counts[:, 0], counts[:, 1], game, range(len(counts)))
    if args.json:
        payload = {
            "hit": record.hit,
            "T_interactions": record.T_interactions,
            "generations_run": record.generations_run,
            "seed": record.seed,
            "trajectory": [list(map(float, row)) for row in zip(*columns)],
            "wall_ms": record.wall_ms,
        }
        print(json.dumps(payload))
        return 0
    print(f"hit = {record.hit}")
    print(f"T_interactions = {record.T_interactions}")
    print(f"generations_run = {record.generations_run}")
    print(f"seed = {record.seed}")
    for label, t in (("initial", 0), ("final", -1)):
        row = TrajectoryRow._make(column[t] for column in columns)
        print(
            f"{label}: gen={row.generation} "
            f"pred_mean={row.pred_mean:.3f} prey_mean={row.prey_mean:.3f} "
            f"p0={row.p0:.4f} q0={row.q0:.4f} prey_in_s0={row.prey_in_s0}"
        )
    print(f"wall_ms = {record.wall_ms:.3f}")
    return 0


def _worker_count(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number >= 1, got {text!r}")
    return int(text)


def _add_experiment(sub, name, help_text):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--config", required=True, help="flat key=value spec file")
    p.add_argument("--out", default=None, help="output prefix (overrides the spec)")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=_worker_count, default=1,
                   help="worker processes, at least 1 (the output is the same for any count)")


def _load_spec(args, kind=None) -> harness.ExperimentSpec:
    spec = harness.parse_spec_file(args.config)
    given = {"kind": kind, "out": args.out, "trials": args.trials, "master_seed": args.seed}
    overrides = {key: value for key, value in given.items() if value is not None}
    return replace(spec, **overrides) if overrides else spec


def _write_table(table) -> None:
    if table.spec.out:
        csv_path, json_path = table.write(table.spec.out)
        print(f"wrote {csv_path}")
        print(f"wrote {json_path}")


def _cmd_sweep_with_spec(spec, workers) -> int:
    if spec.kind == "bound-table":
        for row in harness.experiment_bound_table(spec):
            print(json.dumps(row, sort_keys=True))
        return 0
    if spec.kind == "error-threshold":
        table, summary = harness.experiment_error_threshold(spec, workers=workers)
        print(json.dumps(summary, indent=2, sort_keys=True))
    elif spec.kind == "runtime-scaling":
        table, summary = harness.experiment_runtime_scaling(spec, workers=workers)
        print(json.dumps(summary, indent=2, sort_keys=True))
    elif spec.kind == "trajectory":
        table, series = harness.experiment_trajectory(spec, workers=workers)
        if spec.out:
            print(f"wrote {harness.write_series(series, spec.out + '.series.csv')}")
    else:
        table = harness.run_experiment(spec, workers=workers)
    aggs = table.aggregates()
    # a game column the grid varies is named, so that no two cells' lines read alike
    varied = [col for col in ("alpha", "beta", "epsilon", "r") if len({a[col] for a in aggs}) > 1]
    for agg in aggs:
        print(
            f"cell n={agg['n']} lambda={agg['lambda']} chi={agg['chi']:.6g}"
            + "".join(f" {col}={agg[col]:.6g}" for col in varied)
            + f": success {agg['hits']}/{agg['trials']}"
            + (f", median T = {agg['median_T']:.0f}" if agg["median_T"] is not None else "")
        )
    _write_table(table)
    return 0


def _add_bound(sub):
    p = sub.add_parser("bound", help="print a calculator value with its term breakdown")
    p.add_argument("--theorem", choices=("3", "9", "chi", "threshold"), required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--lambda", dest="lam", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--z", type=str, help="comma list of per-level floors")
    p.add_argument("--cpp", type=float, default=theory.C_PP)
    p.add_argument("--n", type=int)
    p.add_argument("--chi", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--r", type=float, default=1.0)


def _require(args, names):
    missing = [name for name in names if getattr(args, name) is None]
    if missing:
        raise UsageError(f"bound --theorem {args.theorem} requires --" + ", --".join(missing))


def _cmd_bound(args) -> int:
    if args.theorem == "chi":
        _require(args, ("delta",))
        print(f"chi = {theory.recipe_mutation_rate(args.delta)!r}")
        return 0
    if args.theorem == "threshold":
        _require(args, ("delta",))
        print(f"error_threshold = {theory.error_threshold(args.delta)!r}")
        return 0
    if args.theorem == "3":
        _require(args, ("m", "lam", "delta"))
        try:
            z = tuple(float(v) for v in args.z.split(",")) if args.z else ()
        except ValueError:
            raise ValueError(f"--z must be a comma list of numbers, got {args.z!r}") from None
        bound = theory.level_process_bound(args.m, args.lam, args.delta, z, args.cpp)
    else:
        _require(args, ("lam", "n", "alpha", "beta", "epsilon"))
        chi = args.chi if args.chi is not None else theory.recipe_mutation_rate(
            0.01 if args.delta is None else args.delta)
        bound = theory.solvable_regime_budget(args.n, args.lam, chi, args.alpha, args.beta,
                                              args.epsilon, args.r, args.cpp)
    print(f"value = {bound.value!r}")
    print(f"prefactor = {bound.prefactor!r}")
    for name, term in bound.terms.items():
        print(f"{name} = {term!r}")
    return 0


def _cmd_check(args) -> int:
    """Print one `[PASS|FAIL] name: detail` line per check result; 0 if all passed, else 2."""
    results = [res for suite in args.suite or ["all"] for res in harness.run_checks(suite)]
    for res in results:
        print(f"[{'PASS' if res.passed else 'FAIL'}] {res.name}: {res.detail}")
    return 0 if all(res.passed for res in results) else 2


def main(argv=None) -> int:
    parser = _Parser(prog="coevo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run(sub)
    _add_experiment(sub, "sweep", "run the experiment described by a config file")
    _add_experiment(sub, "threshold", "error-threshold experiment (kind forced)")
    _add_experiment(sub, "trajectory", "trajectory experiment (kind forced)")
    _add_bound(sub)
    p = sub.add_parser("check", help="run verification suites")
    p.add_argument("--suite", action="append",
                   help=f"suite name ({', '.join(sorted(harness.CHECK_SUITES))}); repeatable")

    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep_with_spec(_load_spec(args), args.workers)
        if args.command in ("threshold", "trajectory"):
            kind = {"threshold": "error-threshold", "trajectory": "trajectory"}[args.command]
            return _cmd_sweep_with_spec(_load_spec(args, kind=kind), args.workers)
        if args.command == "bound":
            return _cmd_bound(args)
        if args.command == "check":
            return _cmd_check(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except harness.PilotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
