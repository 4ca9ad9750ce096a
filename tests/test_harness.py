import csv
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from coevo import BilinearParams, PdcoeaConfig, harness, pdcoea, run_trial
from coevo.cli import main
from coevo.core import derive_seed
from coevo.harness import (
    ExperimentSpec,
    experiment_error_threshold,
    experiment_runtime_scaling,
    experiment_trajectory,
    parse_spec_file,
    pilot_budget,
    resolve_cells,
    run_checks,
    run_experiment,
    write_series,
)
from coevo.pdcoea import trajectory_columns


def tiny_spec(**kw):
    base = dict(
        kind="runtime-scaling", n=(15,), lam=(10,), chi=(0.5,), alpha=(0.9,),
        beta=(0.05,), epsilon=(0.2,), trials=2, master_seed=77, budget=300,
    )
    base.update(kw)
    return ExperimentSpec(**base)


def strip_wall(csv_text):
    lines = []
    for line in csv_text.splitlines():
        if line.startswith("#") or line.startswith("kind,"):
            lines.append(line)
        else:
            lines.append(",".join(line.split(",")[:-1]))
    return "\n".join(lines)


class TestSpecParsing:
    def test_round_trip_file(self, tmp_path):
        cfg = tmp_path / "spec.txt"
        cfg.write_text(
            "# scaling sweep\n"
            "kind = runtime-scaling\n"
            "n = 30,50,80\n"
            "lambda = 100\n"
            "chi = auto\n"
            "delta = 0.01\n"
            "alpha = 0.9\n"
            "beta = 0.05\n"
            "epsilon = 0.1\n"
            "trials = 30   # per cell\n"
            "seed = 4242\n"
            "budget = pilot\n"
        )
        spec = parse_spec_file(str(cfg))
        assert spec.kind == "runtime-scaling"
        assert spec.n == (30, 50, 80) and spec.lam == (100,)
        assert spec.chi == ("auto",) and spec.delta == 0.01
        assert spec.trials == 30 and spec.master_seed == 4242
        assert spec.budget == "pilot"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("kind = runtime-scaling\nwat = 3\n")
        with pytest.raises(ValueError):
            parse_spec_file(str(cfg))

    def test_repeated_key_rejected(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args, **kw: calls.append(args))
        cfg = tmp_path / "twice.txt"
        cfg.write_text("kind = sweep\nn = 10\nlambda = 4\nn = 12\nbudget = 5\n")
        with pytest.raises(ValueError, match=r"twice.txt:4: key 'n' already set on line 2"):
            parse_spec_file(str(cfg))
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "key 'n'" in capsys.readouterr().err and calls == []

    def test_kind_required(self, tmp_path):
        cfg = tmp_path / "nokind.txt"
        cfg.write_text("n = 10\n")
        with pytest.raises(ValueError):
            parse_spec_file(str(cfg))

    def test_integral_float_budget_is_a_generation_count(self, tmp_path):
        cfg = tmp_path / "spec.txt"
        cfg.write_text("kind = runtime-scaling\nn = 15\nlambda = 10\nchi = 0.5\nbudget = 1e2\n")
        spec = parse_spec_file(str(cfg))
        assert spec.budget == 100 and isinstance(spec.budget, int)
        assert run_experiment(replace(spec, trials=1)).rows[0]["generations"] <= 100

    @pytest.mark.parametrize("value", ["12.5", "0", "-3", "0.0", "inf", "bound:x", "bound:-1"])
    def test_bad_budget_rejected_at_parse(self, tmp_path, value):
        cfg = tmp_path / "spec.txt"
        cfg.write_text(f"kind = runtime-scaling\nbudget = {value}\n")
        with pytest.raises(ValueError, match="budget"):
            parse_spec_file(str(cfg))

    @pytest.mark.parametrize("lines, key, at_parse", [
        pytest.param("gamma0 = 1.5", "gamma0", True, id="1.5"),
        pytest.param("gamma0 = 0", "gamma0", True, id="0"),
        pytest.param("gamma0 = abc", "gamma0", True, id="abc"),
        pytest.param("trials = x", "trials", True, id="trials-x"),
        pytest.param("trials = 2.5", "trials", True, id="trials-2.5"),
        pytest.param("seed = x", "seed", True, id="seed-x"),
        pytest.param("seed = 2.5", "seed", True, id="seed-2.5"),
        pytest.param("delta = abc", "delta", True, id="delta-abc"),
        # NaN would reach the sidecar and the CSV header, which then are not valid JSON
        pytest.param("chi = 0.4\ndelta = nan", "delta", True, id="delta-nan"),
        pytest.param("chi = 0.4\ndelta = inf", "delta", True, id="delta-inf"),
        pytest.param("epsilon = nan", "epsilon", True, id="epsilon-nan"),
        pytest.param("epsilon = inf", "epsilon", True, id="epsilon-inf"),
        pytest.param("alpha = nan", "alpha", True, id="alpha-nan"),
        # the first cell is valid, so its pilots would run before chi = 25 > n = 20
        pytest.param("n = 20,30\nchi = 0.4,25", "chi", False, id="chi-above-n"),
        pytest.param("beta = 0.05,1.5", "beta", False, id="beta-above-1"),
        # a valid config, but no closed-form budget: the first cell's trials would run
        pytest.param("chi = auto,0.3\nbudget = bound:1e-6", "chi", False, id="chi-without-bound"),
        # no level sequence: the series need one, so no pilot or trial may run first
        pytest.param("n = 100\nlambda = 100\nalpha = 0\nbudget = 3000", "alpha < epsilon", False,
                     id="no-levels-fixed-budget"),
        pytest.param("alpha = 0.05\nepsilon = 0.1", "alpha < epsilon", False,
                     id="no-levels-pilot-budget"),
    ])
    def test_bad_gamma0_fails_before_any_run(self, tmp_path, monkeypatch, capsys,
                                             lines, key, at_parse):
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args, **kw: calls.append(args))
        monkeypatch.setattr(harness, "run_trials", lambda *args, **kw: calls.append(args))
        cfg = tmp_path / "traj.txt"
        keys = {"kind": "trajectory", "n": "20", "lambda": "20", "chi": "auto", "budget": "pilot",
                **dict(line.split(" = ") for line in lines.split("\n"))}
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
        if at_parse:
            with pytest.raises(ValueError, match=key):
                parse_spec_file(str(cfg))
        assert main(["trajectory", "--config", str(cfg)]) == 1
        assert key in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("field, value", [
        ("trials", True), ("trials", 2.5), ("master_seed", False), ("master_seed", "7"),
        ("delta", None), ("delta", True), ("out", 5), ("out", True), ("out", ""),
        ("out", "  "),
    ])
    def test_non_numeric_scalars_rejected(self, field, value):
        key = "seed" if field == "master_seed" else field
        with pytest.raises(ValueError, match=key):
            tiny_spec(**{field: value})

    def test_numeric_out_is_an_output_prefix(self, tmp_path, monkeypatch, capsys):
        # `out = 5` names the files 5.csv and 5.aggregates.json
        cfg = tmp_path / "spec.txt"
        cfg.write_text("kind = sweep\nn = 10\nlambda = 4\nchi = 0.5\nbudget = 5\n"
                       "trials = 1\nout = 5\n")
        assert parse_spec_file(str(cfg)).out == "5"
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--config", str(cfg)]) == 0
        assert "wrote 5.csv" in capsys.readouterr().out
        assert (tmp_path / "5.csv").is_file() and (tmp_path / "5.aggregates.json").is_file()

    def test_empty_out_fails_before_any_run(self, tmp_path, monkeypatch, capsys):
        # an empty `out =` line asks for output under no name: exit 1, nothing run
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args, **kw: calls.append(args))
        monkeypatch.setattr(harness, "run_trials", lambda *args, **kw: calls.append(args))
        cfg = tmp_path / "spec.txt"
        cfg.write_text("kind = sweep\nn = 10\nlambda = 4\nchi = 0.5\nbudget = 5\n"
                       "trials = 1\nout =\n")
        with pytest.raises(ValueError, match="out"):
            parse_spec_file(str(cfg))
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert "out" in err and out == ""
        assert calls == [] and sorted(p.name for p in tmp_path.iterdir()) == ["spec.txt"]

    def test_unknown_kind_lists_the_kinds(self):
        with pytest.raises(ValueError, match="sweep, runtime-scaling"):
            tiny_spec(kind="scalingg")
        assert tiny_spec(kind="sweep").kind == "sweep"

    def test_auto_chi_resolution(self):
        spec = tiny_spec(chi=("auto",), delta=0.01)
        cell = resolve_cells(spec)[0]
        assert cell.chi == pytest.approx(0.0070736, abs=1e-6)
        assert cell.delta == 0.01

    def test_explicit_chi_keeps_delta_blank(self):
        cell = resolve_cells(tiny_spec(chi=(0.5,)))[0]
        assert cell.delta is None


class TestRunExperiment:
    def test_single_unit_reduces_to_run_trial(self):
        spec = tiny_spec(trials=1)
        table = run_experiment(spec)
        assert len(table.rows) == 1
        row = table.rows[0]
        cfg = PdcoeaConfig(
            lam=10, chi=0.5, seed=derive_seed(77, 0), budget_generations=300,
            game=BilinearParams(n=15, alpha=0.9, beta=0.05, epsilon=0.2),
        )
        record = run_trial(cfg)
        assert row["hit"] == record.hit
        assert row["T_interactions"] == record.T_interactions
        assert row["generations"] == record.generations_run
        assert row["seed"] == record.seed

    def test_row_count_and_aggregates(self):
        spec = tiny_spec(n=(15, 20), trials=3)
        table = run_experiment(spec)
        assert len(table.rows) == 6
        aggs = table.aggregates()
        assert len(aggs) == 2
        assert all(a["trials"] == 3 for a in aggs)
        assert all(a["hits"] + a["censored"] == 3 for a in aggs)

    def test_deterministic_output(self):
        a = run_experiment(tiny_spec(trials=3)).to_csv()
        b = run_experiment(tiny_spec(trials=3)).to_csv()
        assert strip_wall(a) == strip_wall(b)

    def test_numpy_float_delta_writes_a_plain_float(self):
        # under numpy >= 2 a numpy float's repr is "np.float64(0.01)"
        spec = tiny_spec(chi=("auto",), delta=np.float64(0.01), gamma0=np.float64(0.36))
        assert type(spec.delta) is float and type(spec.gamma0) is float
        text = run_experiment(spec).to_csv()
        rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
        assert [row["delta"] for row in rows] == ["0.01", "0.01"]
        plain = run_experiment(tiny_spec(chi=("auto",), delta=0.01, gamma0=0.36)).to_csv()
        assert strip_wall(text) == strip_wall(plain)

    def test_worker_count_does_not_change_output(self):
        spec = tiny_spec(n=(15, 20), trials=2)
        serial = run_experiment(spec, workers=1).to_csv()
        parallel = run_experiment(spec, workers=2).to_csv()
        assert strip_wall(serial) == strip_wall(parallel)

    def test_csv_round_trip_and_sidecar(self, tmp_path):
        spec = tiny_spec(trials=3, out=str(tmp_path / "res" / "tiny"))
        table = run_experiment(spec)
        csv_path, json_path = table.write(spec.out)
        with open(csv_path) as fh:
            lines = fh.read().splitlines()
        header = [line for line in lines if line.startswith("#")]
        rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
        assert any("schema=1" in line for line in header)
        assert any("master_seed=77" in line for line in header)
        assert len(rows) == len(table.rows)
        sidecar = json.loads(Path(json_path).read_text())
        # aggregates recomputable from raw rows
        hits = [int(r["T_interactions"]) for r in rows if r["hit"] == "1"]
        agg = sidecar["aggregates"][0]
        assert agg["hits"] == len(hits)
        assert agg["success_rate"] == len(hits) / len(rows)
        if hits:
            assert agg["median_T"] == float(np.median(hits))

    def test_budget_rule_bound_factor(self):
        spec = tiny_spec(chi=("auto",), delta=0.01, budget="bound:1e-9")
        cells = resolve_cells(spec)
        table = run_experiment(spec)
        assert len(table.rows) == spec.trials

    def test_budget_ceiling_is_exact(self):
        # generations * lambda may reach MAX_INTERACTIONS = 2**53 but not pass it
        fits = 2 ** 53 // 4
        cell = resolve_cells(tiny_spec(lam=(4,)))[0]
        assert harness._budget_for(cell, tiny_spec(lam=(4,), budget=fits), 0) == fits
        with pytest.raises(ValueError, match="MAX_INTERACTIONS"):
            harness._budget_for(cell, tiny_spec(lam=(4,), budget=fits + 1), 0)

    def test_unknown_budget_rule(self):
        with pytest.raises(ValueError):
            run_experiment(tiny_spec(budget="whenever"))

    def test_censored_trials_excluded_from_quantiles(self):
        # beta = 0 empties the target region: everything censors
        table = run_experiment(tiny_spec(beta=(0.0,), budget=5, trials=4))
        agg = table.aggregates()[0]
        assert agg["censored"] == 4 and agg["success_rate"] == 0.0
        assert agg["median_T"] is None and agg["q25_T"] is None


class TestPilot:
    def test_pilot_budget_deterministic(self):
        spec = tiny_spec(chi=("auto",), delta=0.01, budget="pilot")
        cell = resolve_cells(spec)[0]
        a = pilot_budget(cell, spec, 0)
        b = pilot_budget(cell, spec, 0)
        assert a == b > 0

    @pytest.mark.parametrize("hits, budget", [
        ([100, 200, 300, 400, 500, 600, 700], 5500),    # 3 censored runs rank last
        ([100, 200, 300, 400, 500, 600], 5500),   # the fewest hits allowed
        ([50] * 5 + [150] * 5, 1000),
    ])
    def test_pilot_median_ranks_censored_runs_last(self, monkeypatch, hits, budget):
        outcomes = [(True, g) for g in hits] + [(False, 3000)] * (10 - len(hits))

        def stub(cfgs):
            assert len(cfgs) == len(outcomes)
            return [SimpleNamespace(hit=hit, generations_run=gens) for hit, gens in outcomes]

        monkeypatch.setattr(harness, "run_trials", stub)
        spec = tiny_spec(budget="pilot")
        assert pilot_budget(resolve_cells(spec)[0], spec, 0) == budget

    @pytest.mark.parametrize("seed, budget", [
        (1, 5765), (2, 5945), (3, 5880), (4, 5885), (5, 5870)])
    def test_pilot_budget_golden(self, seed, budget):
        # the benchmark's full-scale trajectory cell; the budgets were recorded
        # when the pilots still ran one after another through run_trial
        spec = ExperimentSpec(kind="trajectory", n=(50,), lam=(100,), chi=("auto",),
                              alpha=(0.9,), beta=(0.05,), epsilon=(0.1,), delta=0.01,
                              trials=4, master_seed=seed, budget="pilot")
        assert pilot_budget(resolve_cells(spec)[0], spec, 0) == budget

    def test_wrong_selection_changes_the_pilot_budget(self, monkeypatch):
        # the pilots select through the engine's dominance call, so keeping the
        # first drawn pair always (uniform selection) reaches them too
        spec = tiny_spec(beta=(0.2,), budget="pilot")
        cell = resolve_cells(spec)[0]
        assert pilot_budget(cell, spec, 0) == 330
        monkeypatch.setattr(pdcoea.BilinearGame, "dominates_counts",
                            lambda self, cx1, *_: np.ones(len(cx1), dtype=bool))
        assert pilot_budget(cell, spec, 0) == 2345

    def test_pilot_failure_raises(self):
        # impossible target (beta = 0 empties R0): pilots cannot hit
        spec = tiny_spec(n=(5,), lam=(2,), beta=(0.0,), budget="pilot")
        cell = resolve_cells(spec)[0]
        with pytest.raises(harness.PilotError, match="only 0/10 pilots hit within 1000 "):
            pilot_budget(cell, spec, 0)


class TestNamedExperiments:
    def test_trajectory_without_levels_fails_before_any_run(self, monkeypatch):
        def no_run(*args, **kw):
            raise AssertionError("a unit ran")

        monkeypatch.setattr(harness, "_run_units", no_run)
        spec = tiny_spec(kind="trajectory", n=(100,), lam=(100,), alpha=(0.0,), budget=3000)
        with pytest.raises(ValueError, match="alpha < epsilon"):
            experiment_trajectory(spec)

    def test_error_threshold_curve(self):
        spec = ExperimentSpec(
            kind="error-threshold", n=(20,), lam=(20,), chi=(0.1, 2.0),
            alpha=(1.0,), beta=(0.05,), epsilon=(0.1,), trials=3,
            master_seed=9, budget=500, target="singleton",
        )
        table, summary = experiment_error_threshold(spec)
        curve = {pt["chi"]: pt["success_rate"] for pt in summary["curve"]}
        assert curve[0.1] > curve[2.0] == 0.0
        assert summary["first_zero_chi"] == 2.0
        assert summary["ln2_reference"] == pytest.approx(math.log(2))

    def test_runtime_scaling_summary(self):
        spec = ExperimentSpec(
            kind="runtime-scaling", n=(15, 30), lam=(20,), chi=("auto",), delta=0.01,
            alpha=(0.9,), beta=(0.05,), epsilon=(0.2,), trials=3, master_seed=9,
            budget="pilot",
        )
        table, summary = experiment_runtime_scaling(spec)
        assert "slope_T_vs_n" in summary["fits"]
        assert len(summary["references"]) == 2
        for agg in table.aggregates():
            for row in table.rows:
                assert row["T_interactions"] % row["lambda"] == 0

    def test_trajectory_series(self, tmp_path):
        spec = ExperimentSpec(
            kind="trajectory", n=(20,), lam=(20,), chi=("auto",), delta=0.01,
            alpha=(0.9,), beta=(0.05,), epsilon=(0.2,), trials=2,
            master_seed=9, budget=4000,
        )
        table, series = experiment_trajectory(spec)
        assert all(len(row) == 12 for row in series)
        # phase is monotone 1 -> 2 within each trial
        by_trial = {}
        for row in series:
            by_trial.setdefault(row[3], []).append(row)
        for rows in by_trial.values():
            phases = [r[-1] for r in rows]
            assert all(a <= b for a, b in zip(phases, phases[1:]))
            assert phases[0] == 1 and phases[-1] == 2
        path = write_series(series, str(tmp_path / "series.csv"))
        lines = Path(path).read_text().splitlines()
        assert len(lines) == len(series) + 1

    # sha256 of the series CSV, recorded when each generation's row and level
    # were still computed one state at a time: the trajectory spec that
    # perfbench measures at full scale (n=50, lambda=100, pilot budgets) at
    # two seeds, and a fixed budget of 1000 generations (n=20, lambda=10, more
    # than three blocks of generations) where trial 1 hits and the rest censor
    SERIES_GOLDEN = {
        (50, 100, "pilot", 2): "6fe7906949b0b4cc0357290c4a376b45a69935ccf8ab960a33ecb58c33b35c9f",
        (50, 100, "pilot", 3): "f6fb895781b88dd0cbc40a435193d110dfaaee80fd3eb7d691a8ebf578188e2c",
        (20, 10, 1000, 7): "f76cd9df88739e2b9b53aa2d62ef6b36ff6854292ba53057c8429c3dc4d7de70",
    }

    @pytest.mark.parametrize("n, lam, budget, seed", list(SERIES_GOLDEN))
    def test_series_bytes_unchanged(self, tmp_path, n, lam, budget, seed):
        spec = ExperimentSpec(
            kind="trajectory", n=(n,), lam=(lam,), chi=("auto",), delta=0.01, alpha=(0.9,),
            beta=(0.05,), epsilon=(0.1,), trials=4, master_seed=seed, budget=budget)
        table, series = experiment_trajectory(spec)
        if budget == 1000:
            assert [row["hit"] for row in sorted(table.rows, key=lambda r: r["trial"])] == [
                False, True, False, False]
        with open(write_series(series, str(tmp_path / "series.csv")), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == self.SERIES_GOLDEN[n, lam, budget, seed]

    def test_hit_run_ends_inside_target(self):
        spec = ExperimentSpec(
            kind="trajectory", n=(20,), lam=(20,), chi=("auto",), delta=0.01,
            alpha=(0.9,), beta=(0.05,), epsilon=(0.2,), trials=2,
            master_seed=9, budget=4000,
        )
        table, series = experiment_trajectory(spec)
        params = BilinearParams(n=20, alpha=0.9, beta=0.05, epsilon=0.2)
        for row in table.rows:
            if row["hit"]:
                final = [s for s in series if s[3] == row["trial"]][-1]
                p0, q0 = final[7], final[8]
                assert p0 > 0


class TestFullFlipMutation:
    def test_complement_rate_never_hits_singleton(self):
        # chi = n complements every offspring bit; reaching a fixed pair then
        # requires improbable initial adjacency, so no run succeeds
        spec = ExperimentSpec(
            kind="error-threshold", n=(50,), lam=(20,), chi=(50.0,),
            alpha=(1.0,), beta=(0.1,), epsilon=(0.1,), trials=5,
            master_seed=13, budget=300, target="singleton",
        )
        table, summary = experiment_error_threshold(spec)
        assert summary["curve"][0]["success_rate"] == 0.0


class TestPhaseOneDescent:
    def test_predator_mean_collapses_by_the_hit(self):
        # at the hit the predator mean sits far below beta*n + init_mean/2
        spec = ExperimentSpec(
            kind="runtime-scaling", n=(50,), lam=(50,), chi=("auto",), delta=0.01,
            alpha=(0.9,), beta=(0.05,), epsilon=(0.1,), trials=10,
            master_seed=303, budget="pilot",
        )
        cell = resolve_cells(spec)[0]
        budget = pilot_budget(cell, spec, 0)
        game = BilinearParams(n=50, alpha=0.9, beta=0.05, epsilon=0.1)
        descended = 0
        hits = 0
        for trial in range(spec.trials):
            cfg = PdcoeaConfig(
                lam=50, chi=cell.chi, seed=derive_seed(303, trial),
                budget_generations=budget, game=game)
            record = run_trial(cfg, record=True)
            if not record.hit:
                continue
            hits += 1
            counts = record.counts[[0, -1]]
            first, last = trajectory_columns(counts[:, 0], counts[:, 1], game, 0).pred_mean
            descended += last < game.beta_n + first / 2
        assert hits >= 9
        assert descended / hits >= 0.9


class TestAnalyticKinds:
    def test_bound_table_kind(self, tmp_path):
        from coevo.harness import experiment_bound_table

        spec = ExperimentSpec(
            kind="bound-table", n=(50, 100), lam=(100,), chi=("auto",), delta=0.01,
            alpha=(0.9,), beta=(0.05,), epsilon=(0.1,), out=str(tmp_path / "b"))
        rows = experiment_bound_table(spec)
        assert len(rows) == 2
        assert all(r["budget_interactions"] > 0 for r in rows)
        assert rows[0]["budget_interactions"] < rows[1]["budget_interactions"]
        assert (tmp_path / "b.bounds.json").exists()


class TestCheckRegistry:
    def test_fast_suites_pass(self):
        for suite in ("dominance", "intransitivity", "half-prob", "growth", "levels"):
            results = run_checks(suite)
            assert results and all(r.passed for r in results), (suite, results)

    def test_product_state_suite(self):
        results = run_checks("product-state")
        assert all(r.passed for r in results), results

    @pytest.mark.parametrize("seed", [1000 * k for k in range(1, 21)])
    def test_product_space_passes_benchmark_seeds(self, seed):
        # the seeds the `checks` benchmark workload passes, one per run
        result = harness.check_product_space(seed)
        assert result.passed, result.detail

    @pytest.mark.parametrize("check, seed", [("check_product_space", 2.5),
                                             ("check_half_probabilities", 20260808.7)])
    def test_check_seed_must_be_an_int(self, check, seed):
        # a truncated seed would report another seed's result as this one's
        with pytest.raises(ValueError, match="seed and index must be integers"):
            getattr(harness, check)(seed=seed)

    def test_product_space_steps_through_step_generation(self, monkeypatch):
        # the `checks` benchmark counts the engine's interactions on
        # harness.step_generation: one call per generation, lambda = 20 each
        lams, step = [], harness.step_generation

        def counted(pops, dist, rng):
            lams.append(pops.lam)
            return step(pops, dist, rng)

        monkeypatch.setattr(harness, "step_generation", counted)
        assert harness.check_product_space().passed
        assert len(lams) == 4000 and set(lams) == {20}

    def test_product_space_flags_a_wrong_selection(self, monkeypatch):
        # keeping the first drawn pair always is uniform selection: the exact
        # sums read the selection law and still hold, the engine's (X', Y')
        # do not fit them
        monkeypatch.setattr(pdcoea.BilinearGame, "dominates_counts",
                            lambda self, cx1, *_: np.ones(len(cx1), dtype=bool))
        result = harness.check_product_space()
        assert not result.passed
        exact, engine = result.detail.split("; engine ")
        assert exact == GOLDEN_CHECKS[-1].split("|")[2].split("; engine ")[0]
        stat, limit = float(engine.split()[0][5:]), float(engine.split()[-1][:-1])
        assert stat > limit

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_checks("nope")

    @pytest.mark.parametrize("verdict, violations", [(True, 14641 - 341), (False, 121)])
    def test_dominance_structure_flags_a_broken_relation(self, monkeypatch, verdict, violations):
        # an always-true relation breaks antisymmetry on every quadruple but
        # the 341 whose four payoffs tie; an always-false one breaks
        # reflexivity on all 121 pairs
        monkeypatch.setattr(harness.BilinearGame, "dominates_counts",
                            lambda self, cx1, *_: np.full(np.shape(cx1), verdict))
        result = harness.check_dominance_structure()
        assert not result.passed
        assert result.detail.endswith(f"{violations} violations")

    def test_dominance_equivalence_flags_lost_ties(self, monkeypatch):
        # a factored form that loses ties (> for >=) disagrees with the exact
        # payoff route, at least on every reflexive quadruple
        import coevo.bilinear as bilinear

        def strict(cx1, cy1, cx2, cy2, params, signs=None):
            return (((cx1 - params.beta_n) * (cy2 - cy1) > 0)
                    & ((cy1 - params.alpha_n) * (cx1 - cx2) > 0))

        monkeypatch.setattr(bilinear, "_dominates_counts_arrays", strict)
        result = harness.check_dominance_equivalence()
        mismatches = int(result.detail.rsplit(", ", 1)[1].split()[0])
        assert not result.passed and mismatches >= 3 * 121

    def test_level_functions_name_each_failing_configuration(self, monkeypatch):
        # a validator that rejects every lambda = 20 sweep entry: 3 m x 3 z
        # patterns x 2 deltas fail, each named; the counterexample still reads
        validate = harness.validate_level_function
        monkeypatch.setattr(harness, "validate_level_function",
                            lambda g, lam, m: lam != 20 and validate(g, lam, m))
        result = harness.check_level_functions()
        assert not result.passed
        failures = result.detail.split("; ")
        assert failures[0] == "lambda=20 m=3 z=flat delta=0.3: validator rejected the reference potential"
        assert len(failures) == 18 + 1 and failures[-1] == "monotone counterexample rejected"
        assert all(line.startswith("lambda=20 ") for line in failures[:-1])

    def test_golden_check_output(self):
        # every registered check at its default seed
        got = [f"{r.name}|{r.passed}|{r.detail}" for r in run_checks("all")]
        assert got == GOLDEN_CHECKS


GOLDEN_CHECKS = [
    "dominance-equivalence|True|43923 quadruples verified across 3 games, 0 mismatches",
    "dominance-structure|True|121 pairs and 14641 quadruples, 0 violations",
    "intransitivity|True|cycle ((9, 5), (12, 5), (13, 8), (9, 9))",
    "half-probabilities|True|388 non-null conditionals over 100 populations, 0 below 1/2",
    "growth-inequalities|True|case 15: ratio=1.4844 bound=1.1000; case 16: ratio=1.3889 "
    "bound=1.0529; case 17: ratio=1.3194 bound=1.2500; case 18: ratio=1.1250 bound=1.0625; "
    "case 19: ratio=1.1898 bound=1.0500",
    "level-functions|True|monotone counterexample rejected",
    "sqrt-sandwich|True|1000000 grid points, 0 violations",
    "exp-lower-bound|True|8020 comparisons, 0 violations",
    "product-mgf|True|lam=20 p=0.9 q=0.9 z=0.5: exact=0.0332803 bound=0.117272; "
    "lam=10 p=0.8 q=0.9 z=0.4: exact=0.170151 bound=0.361109; "
    "lam=30 p=0.7 q=0.8 z=0.3: exact=0.0138844 bound=0.0895754; "
    "lam=15 p=0.95 q=0.6 z=0.4: exact=0.261534 bound=0.377663",
    "product-space|True|E[Z']=76.27 vs 73.45; mgf=0.7222 vs 0.8240; tail=0.1113 vs 0.9864; "
    "1/r=1.0010 vs 1.8169; engine chi2=87.3 on 91 dof (limit 171.9)",
]
