import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from coevo.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_wall_lines(text):
    return "\n".join(
        line for line in text.splitlines()
        if not line.startswith("wall_ms") and "wall" not in line.split(",")[-1:]
    )


class TestBound:
    def test_generic_bound_passthrough(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--theorem", "3", "--m", "3", "--lambda", "10",
            "--delta", "1.0", "--z", "0.5,0.25", "--cpp", "2.0")
        assert code == 0
        assert "value = 7920.0" in out
        assert "level_term" in out and "upgrade_term" in out

    def test_solvable_budget_passthrough(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--theorem", "9", "--n", "100", "--lambda", "100",
            "--delta", "0.01", "--alpha", "0.9", "--beta", "0.05", "--epsilon", "0.1")
        assert code == 0
        assert "value =" in out and "mutation_term" in out

    def test_solvable_budget_ignores_delta_with_explicit_chi(self, capsys):
        # the budget's slack comes from chi, so --delta is read only for a
        # recipe chi and is not range-checked otherwise
        argv = ["bound", "--theorem", "9", "--n", "100", "--lambda", "100", "--chi", "0.005",
                "--alpha", "0.9", "--beta", "0.05", "--epsilon", "0.1"]
        code, out, err = run_cli(capsys, *argv, "--delta", "5")
        assert code == 0, err
        assert out == run_cli(capsys, *argv, "--delta", "0.01")[1] == run_cli(capsys, *argv)[1]

    def test_solvable_budget_rejects_zero_delta(self, capsys):
        # a recipe chi at --delta 0 is rejected like `--theorem chi --delta 0`,
        # not priced at the default slack 0.01
        argv = ["bound", "--theorem", "9", "--n", "100", "--lambda", "100",
                "--alpha", "0.9", "--beta", "0.05", "--epsilon", "0.1"]
        code, out, err = run_cli(capsys, *argv, "--delta", "0")
        assert code == 1 and "error" in err and out == ""
        assert run_cli(capsys, "bound", "--theorem", "chi", "--delta", "0")[0] == 1
        assert run_cli(capsys, *argv)[1] == run_cli(capsys, *argv, "--delta", "0.01")[1]

    def test_bound_table_ignores_delta_with_explicit_chi(self, capsys, tmp_path):
        def rows(delta):
            path = tmp_path / f"bounds_{delta}.txt"
            path.write_text("kind = bound-table\nn = 50,100\nlambda = 20\nchi = 0.005\n"
                            "alpha = 0.9\nbeta = 0.05\nepsilon = 0.1\n"
                            f"delta = {delta}\n")
            code, out, err = run_cli(capsys, "sweep", "--config", str(path))
            assert code == 0, err
            return [json.loads(line) for line in out.splitlines()]

        at_zero = rows(0)
        assert len(at_zero) == 2
        assert all(row["budget_interactions"] is not None for row in at_zero)
        assert at_zero == rows(0.01)

    @pytest.mark.parametrize("flag, value, message", [
        ("--r", "-2", "r must be positive"), ("--r", "0", "r must be positive"),
        ("--n", "0", "n and lambda must be positive"), ("--chi", "-0.1", "chi must be positive"),
        ("--chi", "0", "chi must be positive"), ("--cpp", "nan", "c'' must exceed 1"),
    ])
    def test_solvable_budget_rejects_out_of_range_inputs(self, capsys, flag, value, message):
        # these once printed a negative, zero or NaN budget and exited 0, or
        # (chi = 0) a ZeroDivisionError traceback
        code, out, err = run_cli(
            capsys, "bound", "--theorem", "9", "--n", "100", "--lambda", "100", "--chi", "0.005",
            "--alpha", "0.9", "--beta", "0.05", "--epsilon", "0.1", flag, value)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("flags, term", [
        (("--theorem", "9", "--n", "10", "--chi", "1e-307", "--alpha", "0.9", "--beta", "0.05",
          "--epsilon", "0.2"), "mutation_term"),
        (("--theorem", "3", "--m", "2", "--delta", "1e-320", "--z", "0.5"), "prefactor"),
        (("--theorem", "3", "--m", "2", "--delta", "0.5", "--z", "1e-320"), "upgrade_term"),
    ])
    def test_overflowing_bound_is_an_error(self, capsys, flags, term):
        # finite inputs whose bound overflows once printed `value = inf` and exited 0
        code, out, err = run_cli(capsys, "bound", "--lambda", "4", *flags)
        assert code == 1 and out == ""
        assert err.startswith(f"error: the bound overflows: {term} = inf")

    @pytest.mark.parametrize("flags, term", [
        (("--theorem", "9", "--n", "10", "--chi", "0.005", "--alpha", "0.9", "--beta", "0.05",
          "--epsilon", "0.2"), "pop_term"),
        (("--theorem", "3", "--m", "2", "--delta", "0.5", "--z", "0.5"), "level_term"),
    ])
    def test_huge_integer_lambda_is_an_error(self, capsys, flags, term):
        # a lambda too large for a float once ended in an OverflowError traceback
        code, out, err = run_cli(capsys, "bound", "--lambda", "1" + "0" * 160, *flags)
        assert code == 1 and out == ""
        assert err.startswith(f"error: the bound overflows: {term} = inf")

    def test_bound_table_notes_an_overflowing_bound(self, capsys, tmp_path):
        # the row used to carry `Infinity`, which is not JSON
        path = tmp_path / "bounds.txt"
        path.write_text("kind = bound-table\nn = 10\nlambda = 4\nchi = 1e-307\n"
                        f"alpha = 0.9\nbeta = 0.05\nepsilon = 0.2\nout = {tmp_path / 'bt'}\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 0, err

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        with open(tmp_path / "bt.bounds.json") as fh:
            (row,) = json.load(fh, parse_constant=reject)
        assert row["budget_interactions"] is None
        assert row["note"] == "the bound overflows: mutation_term = inf on these inputs"

    @pytest.mark.parametrize("z", ["abc", "0.5,"])
    def test_unparsable_z_names_the_flag(self, capsys, z):
        code, out, err = run_cli(capsys, "bound", "--theorem", "3", "--m", "2", "--lambda", "4",
                                 "--delta", "0.5", "--z", z)
        assert code == 1 and out == ""
        assert err == f"error: --z must be a comma list of numbers, got {z!r}\n"

    def test_bound_table_notes_nonpositive_chi(self, capsys, tmp_path):
        # a bound-table row with chi = 0 is priced as None with the reason,
        # like a chi beyond the recipe range, rather than ending the table
        path = tmp_path / "bounds.txt"
        path.write_text("kind = bound-table\nn = 50\nlambda = 20\nchi = 0,0.005\n"
                        "alpha = 0.9\nbeta = 0.05\nepsilon = 0.1\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 0, err
        zero, positive = (json.loads(line) for line in out.splitlines())
        assert zero["budget_interactions"] is None
        assert zero["note"] == "chi must be positive, got 0.0"
        assert positive["budget_interactions"] > 0

    def test_chi_and_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--theorem", "chi", "--delta", "0.01")
        assert code == 0 and "chi = " in out
        code, out, _ = run_cli(capsys, "bound", "--theorem", "threshold", "--delta", "0.25")
        assert code == 0 and "error_threshold" in out

    def test_missing_argument_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--theorem", "3", "--m", "3")
        assert code == 1 and "requires" in err

    def test_invalid_value_reported(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--theorem", "chi", "--delta", "0.5")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("flags, field", [
        (("--theorem", "9", "--r", "inf"), "r must be positive and finite"),
        (("--theorem", "9", "--cpp", "inf"), "c'' must exceed 1 and be finite"),
        (("--theorem", "3", "--cpp", "inf"), "c'' must exceed 1 and be finite"),
        (("--theorem", "3", "--z", "inf"), "z_i must be in (0, 1]"),
        (("--theorem", "3", "--z", "2.5"), "z_i must be in (0, 1]"),
    ])
    def test_out_of_range_calculator_inputs_are_errors(self, capsys, flags, field):
        # these once printed `value = inf` (or a bound for a floor above 1)
        # and exited 0
        code, out, err = run_cli(
            capsys, "bound", *flags, "--m", "2", "--lambda", "4", "--delta", "0.5",
            "--n", "10", "--chi", "0.005", "--alpha", "0.9", "--beta", "0.05", "--epsilon", "0.2")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and field in err


class TestRun:
    def test_deterministic_stdout_modulo_wall(self, capsys):
        argv = ["run", "--n", "20", "--lambda", "10", "--chi", "0.5",
                "--alpha", "0.9", "--beta", "0.05", "--epsilon", "0.2",
                "--seed", "7", "--budget", "200"]
        code1, out1, _ = run_cli(capsys, *argv)
        code2, out2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        assert strip_wall_lines(out1) == strip_wall_lines(out2)
        assert "T_interactions" in out1
        assert "initial: gen=0 " in out1 and "final: gen=" in out1

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--n", "15", "--lambda", "8", "--chi", "0.5",
            "--alpha", "0.9", "--beta", "0.05", "--epsilon", "0.2",
            "--seed", "3", "--budget", "100", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"hit", "T_interactions", "generations_run", "trajectory"}
        assert payload["T_interactions"] % 8 == 0
        rows = payload["trajectory"]
        assert len(rows) == payload["generations_run"] + payload["hit"]
        assert all(len(row) == 10 for row in rows)
        assert [row[0] for row in rows] == list(range(len(rows)))

    @pytest.mark.parametrize("beta, epsilon", [("0.5", "inf"), ("0.5", "nan"), ("0.05", "nan")])
    def test_non_finite_epsilon_is_usage_error(self, capsys, beta, epsilon):
        code, out, err = run_cli(capsys, "run", "--n", "10", "--lambda", "4", "--chi", "0.5",
                                 "--beta", beta, "--epsilon", epsilon, "--budget", "5")
        assert code == 1 and out == ""
        assert err.startswith("error: epsilon must be finite") and "Traceback" not in err


class TestCheck:
    def test_dominance_suite_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--suite", "dominance")
        assert code == 0
        assert "[PASS] dominance-equivalence" in out
        assert "quadruples verified" in out

    def test_multiple_suites(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--suite", "intransitivity", "--suite", "growth")
        assert code == 0
        assert "[PASS] intransitivity" in out and "[PASS] growth-inequalities" in out

    def test_failed_check_exits_two(self, capsys, monkeypatch):
        from coevo import harness
        from coevo.theory import CheckResult

        monkeypatch.setitem(
            harness.CHECK_SUITES, "dominance",
            (lambda: CheckResult("dominance-equivalence", False, "forced failure"),))
        code, out, _ = run_cli(capsys, "check", "--suite", "dominance")
        assert code == 2 and "[FAIL]" in out


class TestSweepAndPlots:
    def write_spec(self, tmp_path, kind="runtime-scaling", **extra):
        keys = {"kind": kind, "n": 15, "lambda": 10, "chi": 0.5, "alpha": 0.9, "beta": 0.05,
                "epsilon": 0.2, "trials": 2, "seed": 77, "budget": 300, **extra}
        path = tmp_path / "spec.txt"
        path.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
        return str(path)

    def test_sweep_writes_outputs(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        out_prefix = str(tmp_path / "results" / "tiny")
        code, out, _ = run_cli(capsys, "sweep", "--config", spec, "--out", out_prefix)
        assert code == 0
        assert (tmp_path / "results" / "tiny.csv").exists()
        assert (tmp_path / "results" / "tiny.aggregates.json").exists()
        assert "success" in out

    def test_sweep_deterministic_csv(self, capsys, tmp_path):
        # the same invocation repeated: byte-identical except wall_ms
        spec = self.write_spec(tmp_path)
        out = str(tmp_path / "a")

        def strip(path):
            lines = Path(path + ".csv").read_text().splitlines()
            return [",".join(l.split(",")[:-1]) if not l.startswith("#") else l for l in lines]

        assert run_cli(capsys, "sweep", "--config", spec, "--out", out)[0] == 0
        first = strip(out)
        assert run_cli(capsys, "sweep", "--config", spec, "--out", out)[0] == 0
        assert strip(out) == first

    def test_sweep_kind_with_trials_and_seed_overrides(self, capsys, tmp_path):
        # kind = sweep runs the plain grid; --trials and --seed replace the
        # spec's values, so the rows equal those of a spec file that sets them
        def rows(prefix):
            lines = Path(prefix + ".csv").read_text().splitlines()
            return [",".join(l.split(",")[:-1]) for l in lines if not l.startswith("#")]

        spec = self.write_spec(tmp_path, kind="sweep")
        overridden = str(tmp_path / "overridden")
        code, out, err = run_cli(capsys, "sweep", "--config", spec, "--trials", "3",
                                 "--seed", "5", "--out", overridden)
        assert code == 0, err
        assert out.startswith("cell n=15 lambda=10 chi=0.5: success ")
        spec = self.write_spec(tmp_path, kind="sweep", trials=3, seed=5)
        direct = str(tmp_path / "direct")
        assert run_cli(capsys, "sweep", "--config", spec, "--out", direct)[0] == 0
        assert len(rows(overridden)) == 1 + 3
        assert all(row.startswith("sweep,") for row in rows(overridden)[1:])
        assert rows(overridden) == rows(direct)

    def test_lemma_checks_kind_is_unknown(self, capsys, tmp_path, monkeypatch):
        # the check suites have one route, `coevo check`; the spec kind that
        # repeated it is rejected before any check runs
        from coevo import harness

        calls = []
        monkeypatch.setattr(harness, "run_checks", lambda *args: calls.append(args))
        path = tmp_path / "checks.txt"
        path.write_text("kind = lemma-checks\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path),
                                 "--out", str(tmp_path / "report"))
        assert code == 1 and out == "" and calls == []
        assert err.startswith("error: unknown experiment kind 'lemma-checks'; choose from ")
        assert "Traceback" not in err and not list(tmp_path.glob("report*"))

    def test_scaling_fits_over_a_chi_grid(self, capsys, tmp_path):
        # the chi = 1.0, n = 20 cell censors every run, so it has no median;
        # the n fit reads only the cells that share chi (and every other
        # column) with the first cell, here chi = 0.3
        spec = self.write_spec(tmp_path, n="10,14,20", **{"lambda": 8}, chi="0.3,1.0", beta=0.1,
                               trials=4, seed=3, budget=400, out=tmp_path / "sc")
        code, out, err = run_cli(capsys, "sweep", "--config", spec)
        assert code == 0 and "Traceback" not in err
        sidecar = json.loads((tmp_path / "sc.aggregates.json").read_text())
        aggs = sidecar["aggregates"]
        assert [a["median_T"] for a in aggs if a["n"] == 20 and a["chi"] == 1.0] == [None]
        n, median = zip(*[(a["n"], a["median_T"]) for a in aggs if a["chi"] == 0.3])
        assert n == (10, 14, 20)
        slope = float(np.polyfit(np.log(n), np.log(median), 1)[0])
        assert sidecar["scaling_summary"]["fits"] == {"slope_T_vs_n": slope}
        assert json.loads(out[:out.index("\ncell ")])["fits"] == {"slope_T_vs_n": slope}

    @pytest.mark.parametrize("key, values, names", [
        ("beta", "0.1,0.2", ["beta=0.1", "beta=0.2"]),
        ("alpha", "0.8,0.9", ["alpha=0.8", "alpha=0.9"]),
        ("epsilon", "0.1,0.2", ["epsilon=0.1", "epsilon=0.2"]),
        ("r", "1,2", ["r=1", "r=2"]),
    ])
    def test_sweep_lines_name_a_varied_game_column(self, capsys, tmp_path, key, values, names):
        # cells that differ only in a game column print that column, so no
        # two summary lines read alike
        spec = self.write_spec(tmp_path, kind="sweep", n=12, **{"lambda": 4}, trials=2,
                               budget=50, **{key: values})
        code, out, err = run_cli(capsys, "sweep", "--config", spec)
        assert code == 0, err
        assert [line.split(":")[0] for line in out.splitlines()] == [
            f"cell n=12 lambda=4 chi=0.5 {name}" for name in names]

    @pytest.mark.parametrize("command", ["sweep", "trajectory"])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_is_usage_error(self, capsys, tmp_path, monkeypatch, command,
                                              workers):
        from coevo import harness

        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args, **kw: calls.append(args))
        monkeypatch.setattr(harness, "run_trials", lambda *args, **kw: calls.append(args))
        spec = self.write_spec(tmp_path, kind="trajectory", budget="pilot")
        code, out, err = run_cli(capsys, command, "--config", spec, "--workers", workers)
        assert code == 1
        assert "--workers" in err and f"got '{workers}'" in err and "Traceback" not in err
        assert out == "" and calls == []

    def test_trajectory_output_independent_of_worker_count(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, kind="trajectory", n=10, **{"lambda": 6}, budget=40,
                               trials=3, out=tmp_path / "tr")
        outputs = []
        for workers in ("1", "2"):
            code, out, _ = run_cli(capsys, "trajectory", "--config", spec, "--workers", workers)
            assert code == 0
            csv_text = (tmp_path / "tr.csv").read_text()
            outputs.append((out, re.sub(r"^([^#].*),[^,\n]*$", r"\1", csv_text, flags=re.M),
                            *((tmp_path / name).read_text()
                              for name in ("tr.aggregates.json", "tr.series.csv"))))
        assert outputs[0] == outputs[1]

    def test_pilot_budgets_independent_of_worker_count(self, capsys, tmp_path):
        # two pilot cells: with two workers their pilot batches are pool work.
        # Their pilots give budgets of 1 and 10 generations, so the rows show
        # whether each cell ran with its own budget
        spec = self.write_spec(tmp_path, kind="sweep", n=6, **{"lambda": 3}, chi="1.0,1.2",
                               alpha=0.5, beta=0.5, epsilon=0.5, trials=8, seed=1,
                               budget="pilot", out=tmp_path / "pb")
        outputs = []
        for workers in ("1", "2"):
            code, out, err = run_cli(capsys, "sweep", "--config", spec, "--workers", workers)
            assert code == 0, err
            csv_text = (tmp_path / "pb.csv").read_text()
            outputs.append((out, re.sub(r"^([^#].*),[^,\n]*$", r"\1", csv_text, flags=re.M),
                            (tmp_path / "pb.aggregates.json").read_text()))
        assert outputs[0] == outputs[1]
        # (chi, hit, generations): the first cell censors at 1 generation, and
        # the second has hits that a budget of 1 would have censored
        rows = [(row[3], row[11], int(row[13])) for row in
                (line.split(",") for line in outputs[0][1].splitlines()[4:])]
        assert {gens for chi, hit, gens in rows if chi == "1.0" and hit == "0"} == {1}
        assert any(chi == "1.2" and hit == "1" and 1 <= gens < 10 for chi, hit, gens in rows)

    def test_unbounded_bound_factor_is_usage_error(self, capsys, tmp_path, monkeypatch):
        # bound:1e308 prices the cell at an infinite number of generations
        from coevo import harness

        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args, **kw: calls.append(args))
        spec = self.write_spec(tmp_path, kind="sweep", n=10, **{"lambda": 4}, chi=0.005,
                               budget="bound:1e308")
        prefix = tmp_path / "res"
        code, out, err = run_cli(capsys, "sweep", "--config", spec, "--out", str(prefix))
        assert code == 1 and out == "" and calls == []
        assert err.startswith("error: budget 'bound:1e308' gives inf generations for cell ")
        assert "Traceback" not in err and not list(tmp_path.glob("res*"))

    @pytest.mark.parametrize("budget", ["bound:1e300", "100000000000000000000"])
    def test_budget_above_ceiling_is_usage_error(self, capsys, tmp_path, monkeypatch, budget):
        # finite, but far more than MAX_INTERACTIONS = 2**53: such a trial never censors
        from coevo import harness

        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args, **kw: calls.append(args))
        spec = self.write_spec(tmp_path, kind="sweep", n=10, **{"lambda": 4}, chi=0.005,
                               beta=0.05, budget=budget)
        prefix = tmp_path / "res"
        code, out, err = run_cli(capsys, "sweep", "--config", spec, "--out", str(prefix))
        assert code == 1 and out == "" and calls == []
        assert err.startswith("error: budget ") and "MAX_INTERACTIONS = 2**53" in err
        assert "Traceback" not in err and not list(tmp_path.glob("res*"))

    def test_pilot_failure_exits_four(self, capsys, tmp_path):
        # beta = 0 empties the target region, so no pilot run can hit
        spec = self.write_spec(tmp_path, n=5, **{"lambda": 2}, beta=0.0, budget="pilot")
        code, out, err = run_cli(capsys, "sweep", "--config", spec)
        assert code == 4
        assert err.startswith("error: pilot procedure failed")
        assert "Traceback" not in err and out == ""

    def test_pilot_failure_in_the_pool_exits_four(self, capsys, tmp_path):
        # the second cell's beta = 0 empties its target region; its pilots run
        # as pool work, and their failure still ends the sweep before any trial
        spec = self.write_spec(tmp_path, n=5, **{"lambda": 2}, beta="0.4,0.0", budget="pilot")
        code, out, err = run_cli(capsys, "sweep", "--config", spec, "--workers", "2")
        assert code == 4
        assert err.startswith("error: pilot procedure failed") and "beta=0.0" in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("key, value", [
        ("n", "20.7"), ("lambda", "10.5"), ("n", "15,abc"), ("n", "abc"),
        ("chi", "x"), ("alpha", "y"), ("n", "15,3000"), ("r", "0"), ("r", "-1"),
    ])
    def test_bad_grid_value_fails_before_any_run(self, capsys, tmp_path, monkeypatch,
                                                 key, value):
        from coevo import harness

        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args, **kw: calls.append(args))
        monkeypatch.setattr(harness, "run_trials", lambda *args, **kw: calls.append(args))
        spec = self.write_spec(tmp_path, budget="pilot", **{key: value})
        code, out, err = run_cli(capsys, "sweep", "--config", spec)
        assert code == 1
        assert err.startswith(f"error: {key} must be") and "Traceback" not in err
        assert out == "" and calls == []

    @pytest.mark.parametrize("chi, repeated", [
        ("0.5,0.5", "chi=0.5"),
        # "auto" resolves to the recipe chi at delta = 0.01, the same cell
        ("auto,0.007073610362946216", "chi=0.007073610362946216"),
    ])
    def test_repeated_grid_values_fail_before_any_run(self, capsys, tmp_path, monkeypatch,
                                                      chi, repeated):
        # two runs of one cell would merge into one aggregate of twice the
        # trials, with trial numbers repeated
        from coevo import harness

        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *args, **kw: calls.append(args))
        monkeypatch.setattr(harness, "run_trials", lambda *args, **kw: calls.append(args))
        spec = self.write_spec(tmp_path, kind="sweep", n=8, **{"lambda": 6}, chi=chi, beta=0.1,
                               delta=0.01, seed=3, budget=50, target="singleton",
                               out=tmp_path / "rep")
        code, out, err = run_cli(capsys, "sweep", "--config", spec)
        assert code == 1 and out == "" and calls == []
        assert err == (f"error: grid values must be distinct; repeated cell n=8, lambda=6, "
                       f"{repeated}, alpha=0.9, beta=0.1, epsilon=0.2, r=1.0\n")
        assert not list(tmp_path.glob("rep*"))

    def test_threshold_curve_reads_one_size(self, capsys, tmp_path):
        # cells n=6 (1/4 hits) and n=30 (0/4) share chi; the curve reads only
        # the cells that share every other column with the first, so 0.25
        spec = self.write_spec(tmp_path, kind="error-threshold", n="6,30", **{"lambda": 6},
                               alpha=1.0, trials=4, seed=3, budget=60, target="singleton",
                               out=tmp_path / "th")
        code, out, err = run_cli(capsys, "threshold", "--config", spec)
        assert code == 0, err
        assert [line.split(":")[1] for line in out.splitlines() if line.startswith("cell ")] == [
            " success 1/4, median T = 252", " success 0/4"]
        summary = json.loads(out[:out.index("\ncell ")])
        assert summary["curve"] == [{"chi": 0.5, "success_rate": 0.25}]
        sidecar = json.loads((tmp_path / "th.aggregates.json").read_text())
        assert sidecar["threshold_summary"] == summary

    # sha256 of each output, with the wall_ms column cut and the output directory
    # written as TMP; recorded before the CSV and JSON writers were merged
    GOLDEN = {
        "sweep": "6a4bdb9417c1857d2c3f19557b77b34fea3e03f152a4e11d2683f1920e39966f",
        "trajectory": "218c7028541cdb983902dfbbaac7057e60c7266477fc7b9b6805e89759a71bbf",
        "bound-table": "dc379f3db59cb4122ae492609803980c6a2a1ce8d98f5c4de118cb2f003c624d",
        "check": "924b0d6ab23c9f1dd1a13f7f404bb5f774e53917f4069e25fbc843a92b61086d",
        "singleton-threshold": "4169f095af0e35848bb1c1de3b1f96b0a626c1c9e601724e7b792c60a138ffbf",
    }

    def test_golden_outputs(self, capsys, tmp_path, monkeypatch):
        from coevo import harness
        from coevo.theory import CheckResult

        def text(path):
            content = Path(path).read_text()
            if path.endswith(".csv") and not path.endswith(".series.csv"):
                content = re.sub(r"^([^#].*),[^,\n]*$", r"\1", content, flags=re.M)
            return content

        got = {}

        def record(name, code, out, *paths):
            blob = "\n\0".join([f"exit {code}", out, *(text(str(tmp_path / p)) for p in paths)])
            got[name] = hashlib.sha256(blob.replace(str(tmp_path), "TMP").encode()).hexdigest()

        spec = self.write_spec(tmp_path, kind="sweep", chi="0.5,1.5,auto", out=tmp_path / "sw")
        record("sweep", *run_cli(capsys, "sweep", "--config", spec)[:2], "sw.csv",
               "sw.aggregates.json")
        spec = self.write_spec(tmp_path, kind="trajectory", n=10, **{"lambda": 6}, budget=40,
                               out=tmp_path / "tr")
        record("trajectory", *run_cli(capsys, "trajectory", "--config", spec)[:2], "tr.csv",
               "tr.aggregates.json", "tr.series.csv")
        spec = self.write_spec(tmp_path, kind="bound-table", n="20,40", chi="0,0.3,auto",
                               delta=0.01, out=tmp_path / "bt")
        record("bound-table", *run_cli(capsys, "sweep", "--config", spec)[:2], "bt.bounds.json")
        monkeypatch.setattr(harness, "CHECK_SUITES", {
            "stub": (lambda: CheckResult("stub-pass", True, "held"),
                     lambda: CheckResult("stub-fail", False, "forced 1/2"))})
        record("check", *run_cli(capsys, "check")[:2])
        spec = self.write_spec(tmp_path, kind="error-threshold", n=6, **{"lambda": 6},
                               chi="0.5,1.5", trials=3, budget=60, target="singleton",
                               out=tmp_path / "st")
        record("singleton-threshold", *run_cli(capsys, "threshold", "--config", spec)[:2],
               "st.csv", "st.aggregates.json")
        assert got == self.GOLDEN

    def test_missing_config_is_io_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "sweep", "--config", str(tmp_path / "absent.spec"))
        assert code == 3 and out == ""
        assert err.startswith("i/o error: ") and "Traceback" not in err


class TestUsage:
    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(capsys, "run", "--frobnicate")
        assert code == 1 and "usage" in err.lower()

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "transmogrify")
        assert code == 1

    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
