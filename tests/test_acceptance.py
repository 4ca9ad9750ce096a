"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete (they are also visible in `pytest -v` through the test
names).  The experiment-backed criteria (8, 9, 10) execute real runs and take
a few minutes in total; their budgets come from the documented pilot
procedure, executed here, not from constants.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from coevo import (
    BilinearGame,
    BilinearParams,
    LevelFunctionParams,
    PdcoeaConfig,
    dominates,
    dominates_by_onecounts,
    error_threshold,
    eta_window,
    exact_selection_distribution,
    intransitivity_witness,
    reference_g1_g2,
    run_trial,
    spawn_stream,
    level_process_bound,
    solvable_regime_budget,
    recipe_mutation_rate,
    validate_level_function,
)
from coevo.harness import (
    ExperimentSpec,
    check_dominance_equivalence,
    check_growth_suite,
    check_half_probabilities,
    pilot_budget,
    resolve_cells,
    run_experiment,
)
from coevo.pdcoea import trajectory_columns
from coevo.theory import check_exp_lower_bound, check_product_mgf, check_sqrt_bound

from conftest import count_vector, paired
from selection_reference import select_slots


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {description}")


def test_criterion_01_dominance_equivalence_exhaustive():
    with criterion(1, "dominance routes agree on all 11^4 quadruples, three games, < 1 s"):
        start = time.perf_counter()
        result = check_dominance_equivalence()  # n = 10, epsilon = 1/n
        elapsed = time.perf_counter() - start
        assert result.passed, result.detail
        assert "43923 quadruples verified across 3 games, 0 mismatches" in result.detail
        assert elapsed < 1.0, f"exhaustive check took {elapsed:.2f} s"


def test_criterion_02_reflexivity_and_intransitivity_witness():
    with criterion(2, "reflexivity on the full grid; verified 4-cycle at n=20"):
        params10 = BilinearParams(n=10, alpha=0.4, beta=0.6, epsilon=0.1)
        vectors = [count_vector(c, 10) for c in range(11)]
        for cx in range(11):
            for cy in range(11):
                assert dominates(vectors[cx], vectors[cy], vectors[cx], vectors[cy], params10)
                assert dominates_by_onecounts(cx, cy, cx, cy, params10)
        params20 = BilinearParams(n=20, alpha=0.4, beta=0.6, epsilon=0.05)
        cycle = intransitivity_witness(params20)
        assert cycle is not None
        a, b, c, d = cycle
        dom = lambda u, v: dominates_by_onecounts(u[0], u[1], v[0], v[1], params20)
        assert dom(a, b) and dom(b, c) and dom(c, d) and dom(d, a)
        assert not (dom(a, c) or dom(c, a) or dom(b, d) or dom(d, b))
        assert len({a, b, c, d}) == 4


def test_criterion_03_conditional_dominance_probabilities():
    with criterion(3, "exact conditional probabilities >= 1/2 on 100 random populations"):
        # seed 20260808, stream 1; lambda = 6, n = 10, alpha = 0.4, beta = 0.6
        result = check_half_probabilities()
        assert result.passed, result.detail
        assert result.detail == "388 non-null conditionals over 100 populations, 0 below 1/2"


def test_criterion_04_level_function_validator():
    with criterion(4, "reference potential validates on a 3x3x3 grid; monotone counterexample fails"):
        z_patterns = {
            "flat": lambda m: tuple([0.5] * (m - 1)),
            "rising": lambda m: tuple((i + 1) / m for i in range(m - 1)),
            "mixed": lambda m: tuple(0.1 + 0.8 * ((3 * i) % 5) / 5 for i in range(m - 1)),
        }
        delta = 0.5
        for lam in (6, 15, 20):
            for m in (3, 6, 10):
                for make_z in z_patterns.values():
                    lo, hi = eta_window(delta, lam)
                    params = LevelFunctionParams(
                        eta=(lo + hi) / 2, phi=0.5, z=make_z(m), lam=lam, m=m)
                    g1, g2 = reference_g1_g2(params)
                    assert validate_level_function(lambda k, j: g1(k, j) + g2(k, j), lam, m)
        assert not validate_level_function(lambda k, j: k, 6, 4)


def test_criterion_05_selection_distribution_monte_carlo():
    with criterion(5, "selection frequencies match the exact oracle within 6 SE, 20 populations"):
        rng = spawn_stream(20260808, 2)
        draws = 10**5
        for _ in range(20):
            n = int(rng.integers(6, 11))
            lam = int(rng.integers(2, 7))
            params = BilinearParams(n=n, alpha=0.4, beta=0.6, epsilon=1.0 / n)
            game = BilinearGame(params)
            pops = paired(
                rng.integers(0, n + 1, size=lam), rng.integers(0, n + 1, size=lam), n)
            l = int(rng.integers(0, max(1, math.floor(params.alpha_n))))
            member = lambda cx, cy: cx < params.beta_n and l <= cy < params.alpha_n
            exact = float(exact_selection_distribution(pops.predators.ones, pops.prey.ones,
                                                       params, member))
            pred_slots, prey_slots = select_slots(pops, game, rng, draws)
            cx = pops.predators.ones[pred_slots]
            cy = pops.prey.ones[prey_slots]
            freq = float(((cx < params.beta_n) & (cy >= l) & (cy < params.alpha_n)).mean())
            se = math.sqrt(exact * (1.0 - exact) / draws)
            assert abs(freq - exact) <= 6.0 * se + 1e-12, (n, lam, exact, freq)


def test_criterion_06_growth_inequalities_exact():
    with criterion(6, "selection growth inequalities hold by exact enumeration (cases 15-19)"):
        result = check_growth_suite()  # n = 10, alpha = 0.4, beta = 0.6, epsilon = 0.1
        assert result.passed, result.detail
        assert result.detail.count("ratio=") == 5, result.detail


def test_criterion_07_inequality_suite():
    with criterion(7, "sqrt sandwich (1000x1000), exp chain grid, exact product-mgf sum"):
        sqrt_result = check_sqrt_bound()
        assert sqrt_result.passed, sqrt_result.detail
        assert "1000000 grid points, 0 violations" in sqrt_result.detail
        exp_result = check_exp_lower_bound()
        assert exp_result.passed, exp_result.detail
        mgf_result = check_product_mgf()
        assert mgf_result.passed, mgf_result.detail


@pytest.fixture(scope="module")
def threshold_table():
    spec = ExperimentSpec(
        kind="error-threshold", n=(100,), lam=(100,), chi=(0.05, 0.7, 1.4),
        alpha=(1.0,), beta=(0.05,), epsilon=(0.1,), trials=20,
        master_seed=88, budget=10_000, target="singleton",
    )
    return run_experiment(spec, workers=2)


def test_criterion_08_error_threshold_transition(threshold_table):
    with criterion(8, "success collapses above ~ln 2: rate(1.4)=0, non-increasing over the grid"):
        rates = {agg["chi"]: agg["success_rate"] for agg in threshold_table.aggregates()}
        assert rates[1.4] == 0.0
        ordered = [rates[chi] for chi in (0.05, 0.7, 1.4)]
        assert all(a >= b for a, b in zip(ordered, ordered[1:]))
        assert rates[0.05] >= 0.9  # the collapse is from a solved regime
        assert 0.7 > math.log(2.0) > 0.05


@pytest.fixture(scope="module")
def scaling_results():
    spec = ExperimentSpec(
        kind="runtime-scaling", n=(30, 50, 80), lam=(100,), chi=("auto",), delta=0.01,
        alpha=(0.9,), beta=(0.05,), epsilon=(0.1,), trials=30,
        master_seed=99, budget="pilot",
    )
    return run_experiment(spec, workers=2)


def test_criterion_09_solvable_regime_scaling(scaling_results):
    with criterion(9, "recipe-rate runs: success >= 0.9 per cell, T multiples of lambda, medians non-decreasing"):
        assert resolve_cells(scaling_results.spec)[0].chi == pytest.approx(recipe_mutation_rate(0.01))
        aggs = {agg["n"]: agg for agg in scaling_results.aggregates()}
        assert set(aggs) == {30, 50, 80}
        for agg in aggs.values():
            assert agg["success_rate"] >= 0.9, agg
        for row in scaling_results.rows:
            assert row["T_interactions"] % row["lambda"] == 0
        medians = [aggs[n]["median_T"] for n in (30, 50, 80)]
        assert all(m is not None for m in medians)
        assert medians[0] <= medians[1] <= medians[2]


@pytest.fixture(scope="module")
def prey_ceiling_runs():
    # 30 successful recipe-rate runs at n=100 with per-generation trajectories
    spec = ExperimentSpec(
        kind="runtime-scaling", n=(100,), lam=(100,), chi=("auto",), delta=0.01,
        alpha=(0.9,), beta=(0.05,), epsilon=(0.1,), trials=30, master_seed=2024,
        budget="pilot",
    )
    cell = resolve_cells(spec)[0]
    budget = pilot_budget(cell, spec, 0)
    game = BilinearParams(n=100, alpha=0.9, beta=0.05, epsilon=0.1)
    records = []
    from coevo.core import derive_seed

    for trial in range(30):
        cfg = PdcoeaConfig(
            lam=100, chi=cell.chi, seed=derive_seed(2024, trial),
            budget_generations=budget, game=game)
        records.append(run_trial(cfg, record=True))
    return records


def test_criterion_10_prey_rarely_cross_the_ceiling(prey_ceiling_runs):
    with criterion(10, "pre-hit generations with prey above alpha*n are < 1% across 30 hits"):
        hits = [r for r in prey_ceiling_runs if r.hit]
        assert len(hits) == 30, f"only {len(hits)}/30 runs hit within the pilot budget"
        game = BilinearParams(n=100, alpha=0.9, beta=0.05, epsilon=0.1)
        empty = 0
        total = 0
        for record in hits:
            pre_hit = record.counts[:-1]  # states strictly before the hit generation
            total += len(pre_hit)
            rows = trajectory_columns(pre_hit[:, 0], pre_hit[:, 1], game, 0)
            empty += int((rows.prey_in_s0 == 0).sum())
        assert total > 0
        assert empty / total >= 0.99, f"fraction {empty / total:.4f}"


def test_criterion_11_determinism_of_runs_and_sweeps(tmp_path, capsys):
    with criterion(11, "repeated seeded invocations are byte-identical except wall time"):
        from coevo.cli import main

        argv = ["run", "--n", "30", "--lambda", "20", "--chi", "0.3",
                "--alpha", "0.9", "--beta", "0.05", "--epsilon", "0.1",
                "--seed", "5", "--budget", "400"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("wall_ms")]
        assert strip(first) == strip(second)

        cfg = tmp_path / "spec.txt"
        cfg.write_text(
            "kind = runtime-scaling\nn = 20\nlambda = 10\nchi = 0.4\nalpha = 0.9\n"
            "beta = 0.05\nepsilon = 0.2\ntrials = 3\nseed = 31\nbudget = 300\n")
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", str(cfg), "--out", out]) == 0
        capsys.readouterr()
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        rows1 = [",".join(l.split(",")[:-1]) for l in lines if not l.startswith("#")]
        assert main(["sweep", "--config", str(cfg), "--out", out]) == 0
        capsys.readouterr()
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        rows2 = [",".join(l.split(",")[:-1]) for l in lines if not l.startswith("#")]
        assert rows1 == rows2


def test_criterion_12_calculators_match_pure_arithmetic_oracle():
    with criterion(12, "calculators match independent formula re-evaluations to 1e-12 relative"):
        rng = spawn_stream(20260808, 3)
        for _ in range(10):
            m = int(rng.integers(1, 9))
            lam = int(rng.integers(2, 200))
            delta = float(rng.uniform(0.01, 1.0))
            z = tuple(float(v) for v in rng.uniform(0.01, 1.0, size=m - 1))
            c_pp = 1.0 + float(rng.uniform(1e-6, 3.0))
            got = level_process_bound(m, lam, delta, z, c_pp).value
            want = (c_pp * lam / delta) * (m * lam**2 + 16.0 * sum(1.0 / v for v in z))
            assert got == pytest.approx(want, rel=1e-12)

            d9 = float(rng.uniform(1e-9, 1 / 41 - 1e-9))
            assert recipe_mutation_rate(d9) == pytest.approx(
                0.5 * math.log(42.0 / (41.0 * (1.0 + d9))), rel=1e-12)

            dt = float(rng.uniform(1e-9, 0.5 - 1e-9))
            assert error_threshold(dt) == pytest.approx(
                math.log(2.0) / (1.0 - 2.0 * dt), rel=1e-12)

            n = int(rng.integers(10, 500))
            chi = float(rng.uniform(1e-4, 0.012))
            alpha = float(rng.uniform(0.85, 0.95))
            beta = float(rng.uniform(0.01, 0.1))
            eps = float(rng.uniform(0.05, 0.1))
            r = float(rng.uniform(1.0, 10.0))
            got = solvable_regime_budget(n, lam, chi, alpha, beta, eps, r, c_pp).value
            slack = (42.0 / 41.0) * math.exp(-2.0 * chi) - 1.0
            want = (2.0 * r * c_pp * lam / slack) * (
                lam**2 * n + (23.0 * n / chi) * math.log(1.0 / (beta * (1.0 - alpha + eps))))
            assert got == pytest.approx(want, rel=1e-12)
