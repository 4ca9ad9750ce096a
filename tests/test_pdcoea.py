import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from coevo import (
    BilinearGame,
    BilinearParams,
    PdcoeaConfig,
    PdcoeaDistribution,
    TrajectoryRow,
    bilinear_target,
    derive_seed,
    paired_uniform,
    recipe_mutation_rate,
    run_trial,
    run_trials,
    selection_slot_rates,
    singleton_target,
    spawn_stream,
    step_generation,
)
from coevo import pdcoea
from coevo.core import popcount_rows
from coevo.pdcoea import (
    _GUIDE_SHIFT,
    _SCALE,
    GUIDE_BITS,
    MAX_N,
    _READ_AHEAD_WORDS,
    _ReadAhead,
    _draw_offsets,
    _generator_draws,
    _mutate_counts,
    _offspring_cdf,
    _offspring_guide,
    _offspring_table,
    trajectory_columns,
)

from bit_reference import initial_bits, reference_hit_generation
from conftest import paired
from selection_reference import select_slots


class FakeRng:
    """Feeds preset slot draws into the selection step."""

    def __init__(self, rows):
        self.rows = list(rows)

    def integers(self, low, high, size):
        out = np.array(self.rows[: size[0]])
        self.rows = self.rows[size[0]:]
        return out.reshape(size)


@pytest.fixture
def game(fig_params):
    return BilinearGame(fig_params)


def clones(c, n, lam):
    """lam members with c ones on both sides: selection is then the identity,
    so one generation gives lam i.i.d. mutants of a c-ones parent per side."""
    return paired([c] * lam, [c] * lam, n)


def on_state(target, pops):
    """A target predicate's answer for one state."""
    return target(pops.predators.ones, pops.prey.ones)


def dist_for(n, chi):
    game = BilinearGame(BilinearParams(n=n, alpha=0.5, beta=0.5, epsilon=1.0 / n))
    return PdcoeaDistribution(game.params, chi)


def mutants(c, n, chi, rng, draws):
    """The predator offspring of one generation over `draws` clones of a
    parent with c ones."""
    return step_generation(clones(c, n, draws), dist_for(n, chi), rng).predators


def convolution_pvalue(counts, n, a, chi):
    """Chi-square p-value of offspring one-counts against the two-stage law
    ones' = a - Bin(a, p) + Bin(n-a, p), p = chi/n."""
    p = chi / n
    draws = counts.size
    observed = np.bincount(counts, minlength=n + 1)
    pmf = np.zeros(n + 1)
    for d1 in range(a + 1):
        for d0 in range(n - a + 1):
            pmf[a - d1 + d0] += (
                scipy.stats.binom.pmf(d1, a, p) * scipy.stats.binom.pmf(d0, n - a, p))
    keep = pmf * draws >= 5
    obs = np.concatenate([observed[keep], [observed[~keep].sum()]])
    exp = np.concatenate([pmf[keep], [pmf[~keep].sum()]]) * draws
    _, pvalue = scipy.stats.chisquare(obs, exp * obs.sum() / exp.sum())
    return pvalue


class TestSelectPair:
    def test_identical_population_returns_the_clone(self, fig_params, game):
        pops = clones(4, 10, 5)
        rng = spawn_stream(31, 0)
        for _ in range(10):
            pred_slots, prey_slots = select_slots(pops, game, rng, 1)
            assert pops.predators.ones[pred_slots[0]] == 4
            assert pops.prey.ones[prey_slots[0]] == 4

    def test_forced_draws_first_pair_dominates(self, fig_params, game):
        # slots: predators (7, 8) ones, prey (2, 3) ones; (7,2) dominates (8,3)
        pops = paired([7, 8], [2, 3], 10)
        pred_slots, prey_slots = select_slots(pops, game, FakeRng([[0, 0, 1, 1]]), 1)
        assert (pops.predators.ones[pred_slots[0]], pops.prey.ones[prey_slots[0]]) == (7, 2)

    def test_forced_draws_dominance_fails_second_wins(self, fig_params, game):
        # (7,2) does not dominate (8,1): the second pair wins the tie rule
        pops = paired([7, 8], [2, 1], 10)
        pred_slots, prey_slots = select_slots(pops, game, FakeRng([[0, 0, 1, 1]]), 1)
        assert (pops.predators.ones[pred_slots[0]], pops.prey.ones[prey_slots[0]]) == (8, 1)


class TestMutate:
    def test_chi_zero_is_identity(self):
        assert np.array_equal(mutants(5, 12, 0.0, spawn_stream(32, 0), 20).ones, np.full(20, 5))

    def test_chi_n_is_complement(self):
        assert np.array_equal(mutants(5, 12, 12.0, spawn_stream(32, 1), 20).ones,
                              np.full(20, 12 - 5))

    def test_input_unmodified(self):
        pops = clones(5, 12, 20)
        step_generation(pops, dist_for(12, 6.0), spawn_stream(32, 2))
        assert np.array_equal(pops.predators.ones, np.full(20, 5))
        assert np.array_equal(pops.prey.ones, np.full(20, 5))

    def test_chi_out_of_range(self):
        # the distribution is prepared for its game's n once, before any step
        game = BilinearGame(BilinearParams(n=4, alpha=0.5, beta=0.5, epsilon=0.25))
        for chi in (4.5, -0.5):
            with pytest.raises(ValueError, match=r"chi must be in \[0, n\] = \[0, 4\]"):
                PdcoeaDistribution(game.params, chi)
        assert (PdcoeaDistribution(game.params, 4.0).n == 4
                and PdcoeaDistribution(game.params, 0.0).chi == 0.0)

    def test_state_of_another_n_rejected(self):
        # one-counts do not carry n: a step checks the state's against the game's
        with pytest.raises(ValueError, match="state genome length 6 does not match game n=4"):
            step_generation(clones(1, 6, 3), dist_for(4, 1.0), spawn_stream(1, 0))

    @pytest.mark.parametrize("drawn, members", [(10, 20), (20, 10)])
    def test_draws_for_another_lambda_rejected(self, drawn, members):
        # a read-ahead's draws must cover the state's members, either way round
        with pytest.raises(ValueError, match=f"draws for {drawn} members do not cover a "
                                             f"state of {members} members"):
            step_generation(clones(1, 4, members), dist_for(4, 1.0),
                            _ReadAhead([spawn_stream(1, 0)], drawn))

    def test_mean_flip_count_chi_one(self):
        # E[c'] = c + chi*(n - 2c)/n = 40.2; the bound is about 10 standard errors
        n, draws, chi = 100, 10**5, 1.0
        children = mutants(40, n, chi, spawn_stream(33, 0), draws)
        assert abs(children.ones.mean() - (40 + chi * (n - 2 * 40) / n)) <= 0.03

    def test_offspring_count_distribution_matches_convolution(self):
        n, a, chi, draws = 10, 4, 2.0, 10**5
        children = mutants(a, n, chi, spawn_stream(34, 0), draws)
        assert convolution_pvalue(children.ones, n, a, chi) >= 1e-3


class TestInteraction:
    def test_chi_zero_singletons_fixed_point(self, fig_params, game):
        pops = paired([3], [7], 10)
        child = step_generation(pops, PdcoeaDistribution(game.params, 0.0), spawn_stream(35, 0))
        assert child.predators.ones[0] == 3 and child.prey.ones[0] == 7

    def test_deterministic_given_stream(self, fig_params, game):
        pops = paired([3, 6, 2], [7, 1, 5], 10)
        dist = PdcoeaDistribution(game.params, 0.8)
        a = step_generation(pops, dist, spawn_stream(36, 4))
        b = step_generation(pops, dist, spawn_stream(36, 4))
        assert np.array_equal(a.predators.ones, b.predators.ones)
        assert np.array_equal(a.prey.ones, b.prey.ones)

    def test_singleton_offspring_law_through_interaction(self):
        # selection is the identity on clones; offspring counts follow the
        # two-stage binomial convolution
        n, a, chi, draws = 8, 3, 1.5, 4 * 10**4
        children = mutants(a, n, chi, spawn_stream(37, 0), draws)
        assert convolution_pvalue(children.ones, n, a, chi) >= 1e-3


class TestStepGeneration:
    def test_draw_order_slots_then_predator_then_prey_mutation(self, fig_params, game):
        # 4*lambda slot integers, then one uniform per offspring (predators
        # first), each read through its parent's row of the tabulated CDF
        pops = paired([3, 6, 2, 9], [7, 1, 5, 0], 10)
        stream = spawn_stream(38, 0)
        child = step_generation(pops, PdcoeaDistribution(game.params, 1.5), stream)
        rng = spawn_stream(38, 0)
        pred_slots, prey_slots = select_slots(pops, game, rng, pops.lam)
        rows = _offspring_table(10, 1.5).reshape(11, 11) - np.arange(11)[:, None] * _SCALE
        draws = (rng.random(2 * pops.lam) * _SCALE).astype(np.int64)
        parents = list(pops.predators.ones[pred_slots]) + list(pops.prey.ones[prey_slots])
        expected = [int(np.searchsorted(rows[c], r, side="right")) for c, r in zip(parents, draws)]
        assert list(child.predators.ones) + list(child.prey.ones) == expected
        assert stream.integers(0, 2**62) == rng.integers(0, 2**62)  # no further draws

    def test_offspring_are_count_only(self, fig_params, game):
        pops = paired([4, 5], [9, 2], 10)
        child = step_generation(pops, PdcoeaDistribution(game.params, 0.5), spawn_stream(38, 3))
        assert child.lam == pops.lam and child.n == pops.n
        for side in (child.predators, child.prey):
            assert side.ones.dtype == np.int64 and not side.ones.flags.writeable
            assert side.ones.min() >= 0 and side.ones.max() <= 10

    def test_children_are_the_next_flat_state(self, fig_params, game):
        # the children, predators first, are the next state's read-only flat
        # array, and its two sides are views of it
        child = step_generation(paired([4, 5, 1], [9, 2, 6], 10),
                                PdcoeaDistribution(game.params, 0.5), spawn_stream(38, 4))
        flat = child.flat
        assert flat.dtype == np.int64 and not flat.flags.writeable
        assert np.array_equal(flat, np.concatenate((child.predators.ones, child.prey.ones)))
        assert all(np.shares_memory(side.ones, flat) for side in (child.predators, child.prey))

    def test_only_the_start_state_builds_populations(self, fig_params, monkeypatch):
        # a generation carries its children on as the flat array: over a run
        # of 300 recorded generations, only the start state builds Populations
        built, init = [], pdcoea.Population.__init__
        monkeypatch.setattr(pdcoea.Population, "__init__",
                            lambda pop, n, ones: built.append(n) or init(pop, n, ones))
        cfg = PdcoeaConfig(lam=10, chi=1.0, seed=5, budget_generations=300, game=fig_params,
                           target=lambda cx, cy: False)
        record = run_trial(cfg, record=True)
        assert record.generations_run == 300 and record.counts.shape == (300, 2, 10)
        assert built == [10, 10]

    def test_carried_and_hand_built_states_step_alike(self, fig_params, game):
        # a state returned by a step and a hand-built copy of it give equal
        # children on the same draws, generation after generation
        dist = PdcoeaDistribution(game.params, 1.5)
        carried = step_generation(paired([3, 6, 2, 9], [7, 1, 5, 0], 10), dist,
                                  spawn_stream(38, 5))
        a, b = spawn_stream(38, 6), spawn_stream(38, 6)
        for _ in range(5):
            hand = paired(carried.predators.ones.copy(), carried.prey.ones.copy(), 10)
            carried, built = step_generation(carried, dist, a), step_generation(hand, dist, b)
            assert np.array_equal(carried.flat, built.flat)
            assert np.array_equal(carried.predators.ones, built.predators.ones)
            assert np.array_equal(carried.prey.ones, built.prey.ones)

    def test_offspring_fraction_matches_exact_enumeration(self, fig_params, game):
        # chi = 0 and two clone blocks, one strictly dominating: the offspring
        # share of the dominant pair converges to the enumerated probability
        from coevo import exact_selection_distribution

        lam = 6
        pred, prey = [2] * 3 + [8] * 3, [1] * 3 + [9] * 3
        pops = paired(pred, prey, 10)
        exact = exact_selection_distribution(
            pred, prey, fig_params, lambda cx, cy: (cx, cy) == (2, 1))
        dist = PdcoeaDistribution(game.params, 0.0)
        rng = spawn_stream(39, 0)
        reps = 2000
        hits = 0
        for _ in range(reps):
            child = step_generation(pops, dist, rng)
            hits += int(((child.predators.ones == 2) & (child.prey.ones == 1)).sum())
        freq = hits / (reps * lam)
        se = float(exact * (1 - exact) / (reps * lam)) ** 0.5
        assert abs(freq - float(exact)) <= 6 * se

    def test_slot_exchangeability(self, fig_params, game):
        # slot-wise marginals of a region event agree across slots
        pops = paired([2, 3, 7, 8], [1, 2, 3, 9], 10)
        dist = PdcoeaDistribution(game.params, 0.3)
        rng = spawn_stream(40, 0)
        reps = 3000
        lam = pops.lam
        counts = np.zeros(lam)
        for _ in range(reps):
            child = step_generation(pops, dist, rng)
            counts += child.predators.ones < fig_params.beta_n
        rates = counts / reps
        pooled = rates.mean()
        se = (pooled * (1 - pooled) / reps) ** 0.5
        assert np.all(np.abs(rates - pooled) <= 6 * se + 1e-12)

    def test_shape_preserved_under_any_chi(self, fig_params, game):
        pops = paired([0, 10, 5], [5, 0, 10], 10)
        for chi in (0.01, 1.0, 9.5, 10.0):
            child = step_generation(pops, PdcoeaDistribution(game.params, chi), spawn_stream(41, 0))
            assert child.n == 10 and child.predators.ones.shape == pops.predators.ones.shape
            assert child.prey.ones.shape == pops.prey.ones.shape

    @staticmethod
    def table_children(flat, idx, r, game, n):
        """The children of state `flat` on draws (idx, r), each winner's count
        searched in the rate-0 offspring table."""
        drawn = flat[idx]
        win1 = game.dominates_counts(drawn[0], drawn[1], drawn[2], drawn[3])
        winners = np.where(win1, drawn[:2], drawn[2:]).ravel()
        return _offspring_table(n, 0.0).searchsorted(winners * _SCALE + r, side="right") % (n + 1)

    def test_chi_zero_children_equal_the_table_search(self, fig_params, game):
        # one run on a plain Generator: the children of each step are the
        # table search's on its twin's draws, and both streams end together
        pops = paired([3, 6, 2, 9, 0], [7, 1, 5, 0, 10], 10)
        dist = PdcoeaDistribution(game.params, 0.0)
        rng, twin = spawn_stream(44, 0), spawn_stream(44, 0)
        for _ in range(20):
            child = step_generation(pops, dist, rng)
            want = self.table_children(pops.flat, *_generator_draws((twin,), pops.lam), game, 10)
            assert np.array_equal(child.flat, want)
            pops = child
        assert pcg_position(rng.bit_generator) == pcg_position(twin.bit_generator)

    def test_chi_zero_batch_children_equal_the_table_search(self, fig_params, game):
        # three runs in different states on one read-ahead: each step equals
        # the table search on the twins' draws, and once the twins draw the
        # rest of the block, every stream is where its twin is
        lam, n = 6, 10
        cx, cy = map(np.concatenate, zip(*[paired_uniform(lam, n, spawn_stream(45, b))
                                           for b in range(3)]))
        pops = paired(cx, cy, n)
        assert len({tuple(cx[b * lam:(b + 1) * lam]) for b in range(3)}) == 3
        dist = PdcoeaDistribution(game.params, 0.0)
        stream = _ReadAhead([spawn_stream(46, b) for b in range(3)], lam)
        twins = [spawn_stream(46, b) for b in range(3)]
        for _ in range(30):
            child = step_generation(pops, dist, stream)
            want = self.table_children(pops.flat, *_generator_draws(twins, lam), game, n)
            assert np.array_equal(child.flat, want)
            pops = child
        for _ in range(stream.ready - stream.at):
            _generator_draws(twins, lam)
        for rng, twin in zip(stream.rngs, twins):
            assert pcg_position(rng.bit_generator) == pcg_position(twin.bit_generator)


class TestReproductiveRate:
    def test_slot_selection_probability_bounded(self, fig_params):
        from fractions import Fraction

        rng = spawn_stream(42, 0)
        for lam in (2, 3, 4, 6):
            cap = Fraction(1, lam) * (2 - Fraction(1, lam))
            for _ in range(5):
                pred_rates, prey_rates = selection_slot_rates(
                    rng.integers(0, 11, size=lam), rng.integers(0, 11, size=lam), fig_params)
                assert max(pred_rates) <= cap and max(prey_rates) <= cap
                # per generation: lambda iterations
                assert lam * max(max(pred_rates), max(prey_rates)) <= 2 - Fraction(1, lam)

    def test_bound_tight_for_always_winning_slot(self, fig_params):
        from fractions import Fraction

        # identical prey reduce dominance to a payoff comparison on the
        # predators; the strictly better predator is selected whenever drawn
        pred_rates, _ = selection_slot_rates([10, 0], [10, 10], fig_params)
        assert pred_rates[0] == Fraction(1, 2) * (2 - Fraction(1, 2))


class TestRunTrial:
    def make_cfg(self, **kw):
        game = kw.pop("game", BilinearParams(n=10, alpha=0.4, beta=0.6, epsilon=0.1))
        base = dict(lam=8, chi=0.5, seed=5, budget_generations=50, game=game)
        base.update(kw)
        return PdcoeaConfig(**base)

    def test_immediate_hit_reports_zero_interactions(self):
        # beta = 1 puts every random predator in R0 w.h.p.; alpha - epsilon = 0
        # makes the prey band [0, alpha*n) catch any below-alpha prey
        game = BilinearParams(n=6, alpha=0.5, beta=1.0, epsilon=0.5)
        cfg = self.make_cfg(game=game, lam=8, seed=3, budget_generations=5)
        record = run_trial(cfg)
        assert record.hit and record.T_interactions == 0 and record.generations_run == 0

    def test_start_state_is_paired_uniform_on_the_trial_stream(self):
        seen = []
        cfg = self.make_cfg(seed=13, target=lambda cx, cy: seen.append((cx, cy)) or True)
        assert run_trial(cfg).generations_run == 0
        cx, cy = paired_uniform(cfg.lam, cfg.n, spawn_stream(cfg.seed, 0))
        assert np.array_equal(seen[0][0], cx) and np.array_equal(seen[0][1], cy)

    def test_impossible_target_times_out_at_budget(self):
        game = BilinearParams(n=10, alpha=0.5, beta=0.0, epsilon=0.25)  # R0 empty
        cfg = self.make_cfg(game=game, lam=4, budget_generations=1)
        record = run_trial(cfg)
        assert not record.hit
        assert record.T_interactions == 4 and record.generations_run == 1

    def test_record_identical_across_runs(self):
        cfg = self.make_cfg(seed=11, budget_generations=30)
        first, second = run_trial(cfg, record=True), run_trial(cfg, record=True)
        assert first == second and np.array_equal(first.counts, second.counts)
        assert first == replace(second, wall_ms=second.wall_ms + 1.0)  # wall_ms not compared
        assert first == replace(second, counts=None)  # nor counts: np.array_equal does that
        assert run_trial(cfg) == run_trial(cfg)

    def test_interactions_multiple_of_lambda(self):
        for seed in range(6):
            cfg = self.make_cfg(lam=7, seed=seed, budget_generations=40)
            record = run_trial(cfg)
            assert record.T_interactions % 7 == 0

    def test_trajectory_rows_cover_evaluated_generations(self):
        cfg = self.make_cfg(seed=11, budget_generations=30)
        record = run_trial(cfg, record=True)
        counts = record.counts
        assert record.hit and counts.dtype == np.int16
        rows = trajectory_columns(counts[:, 0], counts[:, 1], cfg.game, np.arange(len(counts)))
        assert list(rows.generation) == list(range(record.generations_run + 1))
        assert all(len(column) == len(counts) for column in rows)

    @pytest.mark.parametrize("case", ["long-hit", "immediate-hit", "censored"])
    def test_record_is_the_engine_history(self, case):
        # a hit after two 64-generation blocks, a hit at t = 0, a censored run
        cfg = {
            "long-hit": PdcoeaConfig(lam=8, chi=0.3, seed=1, budget_generations=400,
                                     game=BilinearParams(n=30, alpha=0.9, beta=0.05,
                                                         epsilon=0.1)),
            "immediate-hit": self.make_cfg(
                game=BilinearParams(n=6, alpha=0.5, beta=1.0, epsilon=0.5), seed=3),
            "censored": self.make_cfg(
                game=BilinearParams(n=10, alpha=0.5, beta=0.0, epsilon=0.25),
                budget_generations=150),
        }[case]
        record = run_trial(cfg, record=True)
        assert record == run_trial(cfg)  # recording changes nothing else
        assert record.hit == (case != "censored")
        assert record.counts.shape == (record.generations_run + record.hit, 2, cfg.lam)
        # row 0 is the uniform start on the trial's stream, row t + 1 one step from row t
        rng = spawn_stream(cfg.seed, 0)
        pops = paired(*paired_uniform(cfg.lam, cfg.n, rng), cfg.n)
        dist = PdcoeaDistribution(cfg.game, cfg.chi)
        for state in record.counts:
            assert np.array_equal(state, [pops.predators.ones, pops.prey.ones])
            pops = step_generation(pops, dist, rng)
        # the target holds on the hit generation's row and on no earlier row
        hits = bilinear_target(cfg.game)(record.counts[:, 0], record.counts[:, 1])
        assert list(np.flatnonzero(hits)) == ([len(hits) - 1] if record.hit else [])

    def test_trajectory_row_values(self):
        # beta*n = 1 and alpha*n = 9: the edges themselves are outside R0 and inside S0
        game = BilinearParams(n=10, alpha=0.9, beta=0.1, epsilon=0.2)
        cx, cy = np.array([0, 1, 5, 10]), np.array([9, 3, 8, 10])
        assert trajectory_columns(cx, cy, game, 0) == TrajectoryRow(
            generation=0, pred_mean=4.0, pred_min=0, pred_max=10, prey_mean=7.5,
            prey_min=3, prey_max=10, prey_in_s0=2, p0=0.25, q0=0.5)

    @pytest.mark.parametrize("lam", [1, 4, 100])
    @pytest.mark.parametrize("generations", [1, 33])
    def test_trajectory_columns_match_each_row(self, lam, generations):
        # a block of states, one per row, gives each state's own statistics,
        # which match their values in Python integer arithmetic
        game = BilinearParams(n=10, alpha=0.9, beta=0.1, epsilon=0.2)
        rng = spawn_stream(58, 0)
        cx, cy = rng.integers(0, 11, size=(2, generations, lam))
        for dtype in (np.int64, np.int16):
            block = trajectory_columns(cx.astype(dtype), cy.astype(dtype), game,
                                       np.arange(generations))
            assert all(len(column) == generations for column in block)
            for t in range(generations):
                row = TrajectoryRow._make(column[t] for column in block)
                assert row == trajectory_columns(cx[t].astype(dtype), cy[t].astype(dtype), game, t)
                xs, ys = cx[t].tolist(), cy[t].tolist()
                in_s0 = sum(y >= 9 for y in ys)
                assert row == (t, sum(xs) / lam, min(xs), max(xs), sum(ys) / lam, min(ys),
                               max(ys), in_s0, sum(x < 1 for x in xs) / lam, in_s0 / lam)

    def test_trajectory_disabled(self):
        # without record nothing is recorded
        assert run_trial(self.make_cfg()).counts is None

    def test_singleton_target_run(self):
        game = BilinearParams(n=8, alpha=1.0, beta=0.125, epsilon=0.125)
        target = singleton_target(0, 8, 8)
        cfg = PdcoeaConfig(lam=20, chi=0.2, seed=2, budget_generations=3000,
                           game=game, target=target)
        record = run_trial(cfg)
        assert record.hit and record.T_interactions == record.generations_run * 20

    def test_config_validation(self):
        game = BilinearParams(n=10, alpha=0.4, beta=0.6, epsilon=0.1)
        with pytest.raises(ValueError):
            PdcoeaConfig(lam=0, chi=0.5, seed=1, budget_generations=5, game=game)
        with pytest.raises(ValueError):
            PdcoeaConfig(lam=2, chi=0.0, seed=1, budget_generations=5, game=game)
        with pytest.raises(ValueError, match=r"\(0, 10\]"):  # n is the game's
            PdcoeaConfig(lam=2, chi=10.5, seed=1, budget_generations=5, game=game)
        assert PdcoeaConfig(lam=2, chi=10.0, seed=1, budget_generations=5, game=game).n == 10

    def test_bilinear_target_of_another_game_rejected(self):
        # its boolean tables cover another game's counts: rejected before any run
        game = BilinearParams(n=6, alpha=1.0, beta=0.5, epsilon=0.5)
        other = bilinear_target(BilinearParams(n=5, alpha=1.0, beta=0.5, epsilon=0.5))
        with pytest.raises(ValueError, match="target genome length 5 does not match game n=6"):
            PdcoeaConfig(lam=1, chi=0.5, seed=1, budget_generations=1, game=game, target=other)
        assert bilinear_target(game).n == 6

    @pytest.mark.parametrize("chi, hit, generations, digest", [
        (0.05, True, 716, "fad53c0c37d480929a82619fbd3fd57494943c99ff6cdc8a03f3de41218e86de"),
        (0.7, False, 1500, "8a9a10cf11f10dcc8884f2040875381473efda2460b062a03630c3ae8ef46d74"),
        (1.4, False, 1500, "9fb54336788f92ddcf7444ac5b5aacef979365ee62abc0a12b0a24edcb327697"),
    ])
    def test_threshold_cell_golden(self, chi, hit, generations, digest):
        # the benchmark's error-threshold cells at one seed, recorded before the
        # guide sampler: every one-count of every generation stays the same
        game = BilinearParams(n=100, alpha=1.0, beta=0.05, epsilon=0.1)
        target = singleton_target(0, 100, 100)
        record = run_trial(PdcoeaConfig(lam=100, chi=chi, seed=17, budget_generations=1500,
                                        game=game, target=target), record=True)
        assert (record.hit, record.generations_run) == (hit, generations)
        counts = np.ascontiguousarray(record.counts, dtype="<i2")
        assert hashlib.sha256(counts.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("seed, generations, digest", [
        (17, 590, "8ec9e13b06da45ba220d3f2f2d26eef386cc92f303f0b19959712bb07dd7f055"),
        (2, 741, "8394a1a909883e9c5bb062cd5cc3be2a0ef3d4a51f926c062cd0ff2480997f7f"),
    ])
    def test_trajectory_cell_golden(self, seed, generations, digest):
        # the benchmark's trajectory cell (recipe chi at delta = 0.01, bilinear
        # target), recorded before the prepared distribution: every one-count
        # of every generation stays the same
        game = BilinearParams(n=50, alpha=0.9, beta=0.05, epsilon=0.1)
        record = run_trial(PdcoeaConfig(lam=100, chi=recipe_mutation_rate(0.01), seed=seed,
                                        budget_generations=3000, game=game), record=True)
        assert (record.hit, record.generations_run) == (True, generations)
        counts = np.ascontiguousarray(record.counts, dtype="<i2")
        assert hashlib.sha256(counts.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("field", ["lam", "seed", "budget_generations"])
    def test_non_integral_config_field_rejected(self, field):
        # a float or a bool where a whole number belongs fails at construction,
        # not later in the run (lam, budget) or on another seed's stream (seed)
        game = BilinearParams(n=10, alpha=0.4, beta=0.6, epsilon=0.1)
        base = dict(lam=3, chi=0.5, seed=1, budget_generations=5, game=game)
        for value in ({"lam": 3.0, "seed": 1.5, "budget_generations": 2.5}[field], True):
            with pytest.raises(ValueError, match="must be an integer"):
                PdcoeaConfig(**dict(base, **{field: value}))
        assert PdcoeaConfig(**base).lam == 3

    @pytest.mark.parametrize("chi", [True, False, np.True_, "1", None])
    def test_chi_must_be_a_real_number(self, chi):
        # a bool is not a rate, and a string or None is refused by the range
        # message, not by a TypeError from the comparison
        game = BilinearParams(n=10, alpha=0.4, beta=0.6, epsilon=0.1)
        with pytest.raises(ValueError, match=r"chi must be in \(0, n\] = \(0, 10\]"):
            PdcoeaConfig(lam=3, chi=chi, seed=1, budget_generations=5, game=game)
        with pytest.raises(ValueError, match=r"chi must be in \[0, n\] = \[0, 10\]"):
            PdcoeaDistribution(game, chi)
        for rate in (1, np.float64(0.5), np.int64(2)):
            cfg = PdcoeaConfig(lam=3, chi=rate, seed=1, budget_generations=5, game=game)
            assert cfg.chi == PdcoeaDistribution(game, rate).chi == rate


class TestRunTrials:
    BILINEAR = BilinearParams(n=20, alpha=0.9, beta=0.05, epsilon=0.2)
    CORNER = BilinearParams(n=8, alpha=1.0, beta=0.125, epsilon=0.125)

    @pytest.mark.parametrize("game, chi, budget, target, hits", [
        pytest.param(BILINEAR, 0.5, 3000, None, 8, id="bilinear"),
        pytest.param(CORNER, 0.3, 3000, singleton_target(0, 8, 8),
                     8, id="singleton"),
        pytest.param(BILINEAR, 0.5, 200, None, 4, id="hit-and-censored"),
        pytest.param(BilinearParams(n=10, alpha=0.5, beta=0.0, epsilon=0.25), 0.5, 50, None, 0,
                     id="impossible"),
    ])
    def test_records_equal_run_trial(self, game, chi, budget, target, hits):
        # eight runs of one cell, leaving the batch at different generations
        base = PdcoeaConfig(lam=10, chi=chi, seed=0, budget_generations=budget, game=game,
                            target=target)
        cfgs = [replace(base, seed=derive_seed(7, i)) for i in range(8)]
        expected = [run_trial(cfg) for cfg in cfgs]
        assert run_trials(cfgs) == expected
        assert sum(record.hit for record in expected) == hits

    def test_no_configs_no_records(self):
        assert run_trials([]) == []

    def test_start_rows_are_each_runs_paired_uniform(self):
        seen = []

        def target(cx, cy):
            seen.append((cx.copy(), cy.copy()))
            return np.ones(len(cx), dtype=bool)

        base = PdcoeaConfig(lam=6, chi=0.5, seed=0, budget_generations=5, game=self.BILINEAR,
                            target=target)
        cfgs = [replace(base, seed=seed) for seed in (3, 1, 4)]
        assert [record.generations_run for record in run_trials(cfgs)] == [0, 0, 0]
        for row, cfg in enumerate(cfgs):
            cx, cy = paired_uniform(6, 20, spawn_stream(cfg.seed, 0))
            assert np.array_equal(seen[0][0][row], cx) and np.array_equal(seen[0][1][row], cy)

    def test_configs_must_share_their_cell(self):
        base = PdcoeaConfig(lam=10, chi=0.5, seed=1, budget_generations=5, game=self.BILINEAR)
        with pytest.raises(ValueError, match="seeds only"):
            run_trials([base, replace(base, seed=2, chi=0.6)])

    def test_kernel_rows_equal_step_generation(self, fig_params, game):
        # row i of one step of five runs is step_generation of run i on its stream
        starts = [paired(*paired_uniform(6, 10, spawn_stream(40, i)), 10) for i in range(5)]
        dist = PdcoeaDistribution(game.params, 1.5)
        batch = paired(np.concatenate([p.predators.ones for p in starts]),
                       np.concatenate([p.prey.ones for p in starts]), 10)
        child = step_generation(batch, dist, _ReadAhead([spawn_stream(41, i) for i in range(5)], 6))
        for i, pops in enumerate(starts):
            one = step_generation(pops, dist, spawn_stream(41, i))
            assert np.array_equal(child.predators.ones[6 * i: 6 * i + 6], one.predators.ones)
            assert np.array_equal(child.prey.ones[6 * i: 6 * i + 6], one.prey.ones)

    # runs of this cell end in every way a 64-generation record block can see:
    # a hit at t = 64 (seed 226), at t = 0 (41, 46), at t = 63 (180, 239) and
    # inside the first block (0, 1), and censored at the budget (7, 9, 17)
    RECORD_CELL = PdcoeaConfig(lam=2, chi=0.5, seed=0, budget_generations=100,
                               game=BilinearParams(n=12, alpha=0.75, beta=0.25, epsilon=0.25))
    RECORD_SEEDS = (226, 41, 7, 180, 0, 46, 9, 1, 239, 17)

    @pytest.mark.parametrize("runs", [1, 3, 10])
    def test_batch_records_equal_run_trial(self, runs):
        # a batch records each row's history as its own run does, counts included
        cfgs = [replace(self.RECORD_CELL, seed=seed) for seed in self.RECORD_SEEDS[:runs]]
        expected = [run_trial(cfg, record=True) for cfg in cfgs]
        records = run_trials(cfgs, record=True)
        assert records == expected
        for record, want in zip(records, expected):
            assert record.counts.dtype == np.int16 and np.array_equal(record.counts, want.counts)
        ends = {(record.hit, record.generations_run) for record in expected}
        if runs >= 3:
            assert {(True, 64), (True, 0), (False, 100)} <= ends
        if runs == 10:
            assert (True, 63) in ends and any(r.hit and 0 < r.generations_run < 63 for r in expected)
            for record, (hit, generations, history) in zip(records, map(plain_run, cfgs)):
                assert (record.hit, record.generations_run) == (hit, generations)
                assert np.array_equal(record.counts, history)

    def test_one_step_call_per_generation(self, monkeypatch):
        # the one loop steps each generation once: a run alone on lambda
        # members, a batch on the live rows' members
        sizes, step = [], pdcoea.step_generation

        def counted(pops, dist, rng):
            sizes.append(pops.lam)
            return step(pops, dist, rng)

        monkeypatch.setattr(pdcoea, "step_generation", counted)
        cfgs = [replace(self.RECORD_CELL, seed=seed) for seed in self.RECORD_SEEDS]
        for cfg in cfgs[:3]:
            sizes.clear()
            record = run_trial(cfg)
            assert sizes == [2] * record.generations_run
        sizes.clear()
        gens = [record.generations_run for record in run_trials(cfgs)]
        assert sizes == [2 * sum(g > t for g in gens) for t in range(max(gens))]

    TARGET_GAMES = [
        BilinearParams(n=20, alpha=0.9, beta=0.05, epsilon=0.2),   # integer edges
        BilinearParams(n=10, alpha=0.35, beta=0.33, epsilon=0.1),  # off-grid edges
    ]

    @pytest.mark.parametrize("params", TARGET_GAMES, ids=["on-grid", "off-grid"])
    @pytest.mark.parametrize("kind", ["bilinear", "singleton-corner", "singleton-swapped"])
    @pytest.mark.parametrize("lam", [1, 3, 10])
    def test_targets_answer_per_row(self, params, kind, lam):
        # each state's one-state answer (argmax) equals its row of the batch
        # answer (any) and the definition; the counts mix random ones with the
        # edges 0, n, beta*n +- 1, (alpha - epsilon)*n and alpha*n - 1
        n = params.n
        target = {"bilinear": bilinear_target(params),
                  "singleton-corner": singleton_target(0, n, n),
                  "singleton-swapped": singleton_target(n, 0, n)}[kind]
        edges = np.clip([0, n, math.floor(params.beta_n) - 1, math.ceil(params.beta_n) + 1,
                         math.ceil(params.target_lo), math.ceil(params.alpha_n) - 1], 0, n)
        rng = spawn_stream(43, lam)
        cx, cy = rng.integers(0, n + 1, (2, 400, lam))
        pick = rng.random((2, 400, lam)) < 0.5
        cx = np.where(pick[0], rng.choice(edges, (400, lam)), cx)
        cy = np.where(pick[1], rng.choice(edges, (400, lam)), cy)
        if kind == "bilinear":
            want = [any(x < params.beta_n for x in xs)
                    and any(params.target_lo <= y < params.alpha_n for y in ys)
                    for xs, ys in zip(cx.tolist(), cy.tolist())]
        else:
            x_star, y_star = (0, n) if kind == "singleton-corner" else (n, 0)
            want = [x_star in xs and y_star in ys for xs, ys in zip(cx.tolist(), cy.tolist())]
        assert 0 < sum(want) < 400
        # narrower counts too (a recorded history is int16): the targets'
        # 0-d int64 operands must not change an answer through promotion
        for dtype in (np.int64, np.int16, np.uint8):
            rows = target(cx.astype(dtype), cy.astype(dtype))
            assert rows.shape == (400,) and list(rows) == want
            for xs, ys, row in zip(cx.astype(dtype), cy.astype(dtype), rows):
                one = target(xs, ys)
                assert one.shape == () and one.dtype == bool and bool(one) == row


class CountingGenerator:
    """A Generator that counts the `integers` calls made on it."""

    def __init__(self, rng):
        self.rng, self.bit_generator, self.calls = rng, rng.bit_generator, 0

    def integers(self, low, high, size):
        self.calls += 1
        return self.rng.integers(low, high, size)

    def random(self, size):
        return self.rng.random(size)


def first_rejected_generation(seed, lam, generations):
    """The first generation of a fresh stream, stepped with no earlier draws,
    whose slot halves hold one numpy's Lemire rule rejects, or None."""
    words = spawn_stream(seed, 0).bit_generator.random_raw((generations, 4 * lam))
    halves = np.stack((words[:, :2 * lam] & 0xFFFFFFFF, words[:, :2 * lam] >> 32), axis=-1)
    low = (halves.reshape(generations, -1) * np.uint64(lam)) & 0xFFFFFFFF
    rejected = np.flatnonzero((low < (2**32 - lam) % lam).any(axis=1))
    return int(rejected[0]) if rejected.size else None


def pcg_position(bitgen):
    """A PCG64's state and buffered half word; the half is stale unless flagged."""
    state = bitgen.state
    return state["state"], state["has_uint32"], state["uinteger"] * state["has_uint32"]


def plain_run(cfg):
    """`run_trial`'s loop stepping a plain Generator through `step_generation`:
    (hit, generations run, the one-count history)."""
    rng = spawn_stream(cfg.seed, 0)
    pops = paired(*paired_uniform(cfg.lam, cfg.n, rng), cfg.n)
    dist = PdcoeaDistribution(cfg.game, cfg.chi)
    target, history = bilinear_target(cfg.game), []
    for t in range(cfg.budget_generations):
        history.append((pops.predators.ones, pops.prey.ones))
        if on_state(target, pops):
            return True, t, np.array(history)
        pops = step_generation(pops, dist, rng)
    return False, cfg.budget_generations, np.array(history)


class TestReadAhead:
    def assert_draws_equal(self, stream, twins, lam, high, generations, leave=()):
        # each run's draws of every generation against its twin Generator's
        # two calls; at a generation in `leave`, one run leaves the batch
        for t in range(generations):
            if t in leave and len(twins) > 1:
                rows = np.arange(len(twins)) == t % len(twins)
                stream.drop(rows)
                del twins[t % len(twins)]
            idx, r = stream.draws()
            runs = len(twins)
            assert idx.shape == (4, runs * lam) and r.shape == (2 * runs * lam,)
            slots = (idx - _draw_offsets(runs, lam)).reshape(4, runs, lam)
            keys = r.reshape(2, runs, lam)
            for b, twin in enumerate(twins):
                assert np.array_equal(slots[:, b].T, twin.integers(0, high, size=(lam, 4))), (t, b)
                want = (twin.random(2 * lam) * _SCALE).astype(np.int64)
                assert np.array_equal(keys[:, b].ravel(), want), (t, b)
        # each stream is ahead by the unread generations of its block, no
        # more, and carries the half word its twin buffers after them
        for b, twin in enumerate(twins):
            for _ in range(stream.ready - stream.at):
                twin.integers(0, high, size=(lam, 4)), twin.random(2 * lam)
            has, half = stream.has[b], stream.half[b]
            mine = stream.rngs[b].bit_generator.state["state"], has, half * has
            assert mine == pcg_position(twin.bit_generator)

    @staticmethod
    def twin_streams(seed, runs, lam, buffered):
        # two equal lists of streams; with `buffered`, every other one (the
        # first included) holds a buffered half word
        pairs = [(spawn_stream(seed + b, lam), spawn_stream(seed + b, lam)) for b in range(runs)]
        for mine, theirs in pairs[::2] if buffered else ():
            mine.integers(0, 5), theirs.integers(0, 5)
        return map(list, zip(*pairs))

    @pytest.mark.parametrize("runs", [1, 3, 10])
    @pytest.mark.parametrize("lam", [1, 2, 3, 7, 100])
    @pytest.mark.parametrize("buffered", [False, True], ids=["aligned", "buffered-half"])
    def test_draws_equal_the_generator(self, runs, lam, buffered):
        # two blocks and a few generations more, with runs leaving mid-block
        mine, twins = self.twin_streams(90, runs, lam, buffered)
        stream = _ReadAhead(mine, lam)
        assert stream.block * runs * stream.width <= max(_READ_AHEAD_WORDS, runs * stream.width)
        generations = max(30, 2 * stream.block + 3)
        self.assert_draws_equal(stream, twins, lam, lam, generations,
                                leave=(5, stream.block + 1))

    @pytest.mark.parametrize("runs", [1, 3, 10])
    @pytest.mark.parametrize("lam", [1, 2, 3])
    @pytest.mark.parametrize("buffered", [False, True], ids=["aligned", "buffered-half"])
    def test_rejections_and_buffered_runs(self, runs, lam, buffered):
        # the range 3 * 2**30 rejects a quarter of the halves: blocks stop
        # at rejected draws, and odd rejection counts leave a half buffered
        high = 3 * 2**30
        mine, twins = self.twin_streams(91, runs, lam, buffered)
        stream = _ReadAhead(map(CountingGenerator, mine), lam, high)
        generations = 400
        self.assert_draws_equal(stream, twins, lam, high, generations, leave=(5, 150))
        # a run that stayed in the batch sees each Generator-drawn generation;
        # a share (3/4)**(4 * runs * lam) of generations has no rejected half
        calls = stream.rngs[0].calls
        assert 0 < calls <= generations
        if runs * lam <= 3:
            assert calls < generations  # blocks and the Generator both drew

    def test_a_carried_half_keeps_the_stream_on_blocks(self):
        # this stream's one rejected half at lambda = 100 leaves a half word
        # buffered: the Generator draws that generation only
        lam = 100
        assert first_rejected_generation(5, lam, 3000) == 1676
        stream = _ReadAhead([CountingGenerator(spawn_stream(5, 0))], lam)
        self.assert_draws_equal(stream, [spawn_stream(5, 0)], lam, lam, 3000)
        assert stream.rngs[0].calls == 1

    @pytest.mark.parametrize("game, lam, chi, budget", [
        pytest.param(BilinearParams(n=10, alpha=0.9, beta=0.1, epsilon=0.2), 1, 0.5, 3000,
                     id="n10-lambda1"),
        pytest.param(BilinearParams(n=12, alpha=0.75, beta=0.25, epsilon=0.25), 3, 0.5, 30,
                     id="n12-lambda3"),
        pytest.param(BilinearParams(n=50, alpha=0.8, beta=0.2, epsilon=0.2), 100, 1.0, 60,
                     id="n50-lambda100"),
    ])
    def test_runs_equal_plain_generator_steps(self, game, lam, chi, budget):
        # six runs of a cell, some hit and some censored, leaving their
        # blocks mid-way: recorded and batched runs equal plain stepping
        base = PdcoeaConfig(lam=lam, chi=chi, seed=0, budget_generations=budget, game=game)
        cfgs = [replace(base, seed=derive_seed(3, i)) for i in range(6)]
        records = [run_trial(cfg, record=True) for cfg in cfgs]
        for record, (hit, generations, history) in zip(records, map(plain_run, cfgs)):
            assert (record.hit, record.generations_run) == (hit, generations)
            assert np.array_equal(record.counts, history)
        assert run_trials(cfgs) == records
        block = _ReadAhead([spawn_stream(0)], lam).block
        assert any(r.hit and r.generations_run % block for r in records)
        assert not all(r.hit for r in records)

    def test_block_is_sized_from_the_live_runs(self, monkeypatch):
        # a pilot-sized batch (ten runs at lambda = 100) reads 4 generations a
        # block; as its runs hit and leave, each read sizes its block from the
        # runs still in it, up to 40 generations for the last one, and every
        # record equals the run's alone and plain Generator stepping
        reads = []

        class Counted(_ReadAhead):
            def _read(self):
                super()._read()
                reads.append((len(self.rngs), self.block))

        base = PdcoeaConfig(lam=100, chi=0.5, seed=0, budget_generations=300,
                            game=BilinearParams(n=20, alpha=0.9, beta=0.05, epsilon=0.2))
        cfgs = [replace(base, seed=derive_seed(0, i)) for i in range(10)]
        expected = [run_trial(cfg, record=True) for cfg in cfgs]
        monkeypatch.setattr(pdcoea, "_ReadAhead", Counted)
        records = run_trials(cfgs, record=True)
        assert records == expected and all(record.hit for record in records)
        for record, want, (hit, generations, history) in zip(records, expected, map(plain_run, cfgs)):
            assert np.array_equal(record.counts, want.counts)
            assert (record.generations_run, np.array_equal(record.counts, history)) == (generations, True)
        assert reads[0] == (10, 4) and reads[-1] == (1, 40)
        assert all(block == _READ_AHEAD_WORDS // (runs * 4 * 100) for runs, block in reads)

    @pytest.mark.parametrize("seed, rejected", [(8, 35), (38, 51), (58, 123), (35, 170)])
    def test_engine_scale_rejected_slot_words(self, seed, rejected):
        # lambda = 1000 rejects a half below (2**32 - 1000) % 1000 = 296:
        # rare, but these streams hold one; the Generator draws exactly the
        # generation that holds it, and the ones after it stay exact
        lam = 1000
        assert first_rejected_generation(seed, lam, rejected + 1) == rejected
        stream = _ReadAhead([CountingGenerator(spawn_stream(seed, 0))], lam)
        self.assert_draws_equal(stream, [spawn_stream(seed, 0)], lam, lam, rejected + 12)
        assert stream.rngs[0].calls == 1


class TestSingletonTarget:
    def test_exact_membership(self):
        # a hit needs the all-zeros predator and the all-ones prey, in any slots
        target = singleton_target(0, 6, 6)
        for cx in range(7):
            for cy in range(7):
                assert on_state(target, paired([cx], [cy], 6)) == ((cx, cy) == (0, 6))
        swapped = singleton_target(6, 0, 6)
        assert on_state(swapped, paired([2, 6], [0, 3], 6))
        assert not on_state(swapped, paired([0, 5], [0, 3], 6))

    def test_non_extreme_target_rejected_at_construction(self):
        # rejected where it is written, before any run could reach generation 1
        with pytest.raises(ValueError, match="all-zeros or all-ones"):
            singleton_target(2, 4, 6)

    def test_length_mismatch(self):
        # one-count arrays do not carry n, so the config checks it before any run
        target = singleton_target(0, 5, 5)
        game = BilinearParams(n=6, alpha=1.0, beta=0.5, epsilon=0.5)
        with pytest.raises(ValueError, match="target genome length 5 does not match game n=6"):
            PdcoeaConfig(lam=1, chi=0.5, seed=1, budget_generations=1, game=game, target=target)

    def test_all_zeros_and_all_ones_compare_counts(self):
        # a count of 0 or n names one genome, so count states are exact
        target = singleton_target(0, 6, 6)
        assert on_state(target, paired([3, 0], [6, 2], 6))
        assert not on_state(target, paired([3, 1], [6, 2], 6))
        assert not on_state(target, paired([0, 0], [5, 0], 6))
        assert on_state(target, paired([0, 4], [2, 6], 6))

    def test_other_targets_need_genomes(self):
        # every genome with 0 < c < n ones shares its count with other genomes
        for c in range(1, 6):
            for pair in ((c, 6), (0, c)):
                with pytest.raises(ValueError, match="all-zeros or all-ones"):
                    singleton_target(*pair, 6)


def scipy_offspring_cdf(n, c, chi):
    """CDF of c - Bin(c, p) + Bin(n - c, p), p = chi/n, by scipy convolution."""
    p = chi / n
    loss = scipy.stats.binom.pmf(np.arange(c + 1), c, p)
    gain = scipy.stats.binom.pmf(np.arange(n - c + 1), n - c, p)
    return np.cumsum(np.convolve(loss[::-1], gain))


class TestOffspringLaw:
    @pytest.mark.parametrize("n", [8, 50, 100])
    def test_tabulated_cdf_rows_match_scipy(self, n):
        for chi in (0.0, 0.05, 1.4, float(n)):
            table = _offspring_table(n, chi).reshape(n + 1, n + 1)
            sampled = (table - np.arange(n + 1)[:, None] * _SCALE) / _SCALE
            cdf = _offspring_cdf(n, chi)
            for c in range(n + 1):
                want = scipy_offspring_cdf(n, c, chi)
                assert np.abs(cdf[c] - want).max() <= 1e-12, (n, chi, c)
                assert np.abs(sampled[c] - want).max() <= 1e-12, (n, chi, c)

    def test_table_is_sorted_and_cached_read_only(self):
        table = _offspring_table(50, 0.7)
        assert np.all(np.diff(table) >= 0) and table[-1] == 51 * _SCALE
        assert (MAX_N + 1) * _SCALE < 2**63 and _SCALE <= 2**53
        assert not table.flags.writeable
        assert _offspring_table(50, 0.7) is table

    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_rate_zero_table_is_the_identity(self, n):
        # at chi = 0 every key c*_SCALE + r finds count c, which is why the
        # sampler returns the winners' counts unsearched at that rate
        r = np.concatenate(([0, 2**50 - 1], spawn_stream(73, n).integers(0, _SCALE, 1000)))
        c = np.arange(n + 1)[:, None]
        found = _offspring_table(n, 0.0).searchsorted(c * 2**50 + r, side="right") % (n + 1)
        assert np.array_equal(found, np.broadcast_to(c, found.shape))

    @pytest.mark.parametrize("n, chi", [
        (1, 0.5), (1, 1.0), (10, 1.5), (10, 10.0), (50, recipe_mutation_rate(0.01)),
        (100, 0.05), (100, 0.7), (100, 1.4), (300, 2.0)])
    def test_guide_sampler_equals_the_table_search(self, n, chi):
        # keys (c, r) of every parent count c: each bucket's first r, each
        # threshold, the neighbours of both, and 10**5 random keys
        table = _offspring_table(n, chi)
        rows = table.reshape(n + 1, n + 1) - np.arange(n + 1)[:, None] * _SCALE
        edges = np.arange(1 << GUIDE_BITS) << _GUIDE_SHIFT
        r = np.concatenate((np.broadcast_to(edges, (n + 1, edges.size)), rows), axis=1)
        r = np.concatenate((r - 1, r, r + 1), axis=1)
        c = np.repeat(np.arange(n + 1), r.shape[1])
        rng = spawn_stream(71, n)
        c = np.concatenate((c, rng.integers(0, n + 1, 10**5)))
        r = np.concatenate((r.ravel(), rng.integers(0, _SCALE, 10**5)))
        inside = (r >= 0) & (r < _SCALE)
        c, r = c[inside], r[inside]
        want = table.searchsorted(c * _SCALE + r, side="right") % (n + 1)
        assert np.array_equal(_mutate_counts(c, r, dist_for(n, chi)), want)

    def test_key_offsets_of_raw_words_equal_the_uniforms(self):
        # r = word >> 14 is floor(u * _SCALE) for the uniform u = (word >> 11) * 2**-53
        words = spawn_stream(72, 0).bit_generator.random_raw(10**5)
        edges = np.array([0, 2**14 - 1, 2**14, 2**63, 2**64 - 2**14, 2**64 - 1], dtype=np.uint64)
        words = np.concatenate((words, edges))
        uniforms = (words >> 11) * 2.0**-53
        assert np.array_equal((uniforms * _SCALE).astype(np.int64), (words >> 14).astype(np.int64))

    def test_guide_is_cached_read_only_int16(self):
        guide = _offspring_guide(100, 0.7)
        assert guide.dtype == np.int16 and guide.shape == (101 << GUIDE_BITS,)
        assert not guide.flags.writeable and _offspring_guide(100, 0.7) is guide
        assert 0 < (guide < 0).sum() < guide.size // 10 and guide.max() == 100

    def test_genome_length_above_the_table_limit_rejected(self):
        # checked before any allocation, so no large table is built here
        with pytest.raises(ValueError, match="MAX_N"):
            _offspring_table(MAX_N + 1, 1.0)

    def test_generation_zero_matches_bit_level_reference(self):
        # both engines start from the same draws: the counts of generation 0
        # are the one-counts of the reference's bit matrices
        for lam, n in ((10, 20), (20, 8), (3, 130)):
            cx, cy = paired_uniform(lam, n, spawn_stream(61, 0))
            pred, prey = initial_bits(lam, n, spawn_stream(61, 0))
            assert cx.dtype == cy.dtype == np.int64
            assert np.array_equal(cx, popcount_rows(pred))
            assert np.array_equal(cy, popcount_rows(prey))

    @pytest.mark.parametrize("cell", ["bilinear", "singleton"])
    def test_hit_times_match_bit_level_reference(self, cell):
        # the one-count engine against the bit-level reference engine: two
        # independent samples of hit generations, Kolmogorov-Smirnov
        if cell == "bilinear":
            game = BilinearParams(n=20, alpha=0.9, beta=0.2, epsilon=0.1)
            lam, chi, target = 10, 0.5, bilinear_target(game)
        else:
            game = BilinearParams(n=8, alpha=1.0, beta=0.125, epsilon=0.125)
            lam, chi = 20, 0.2
            target = singleton_target(0, 8, 8)
        budget, trials = 3000, 200

        def cfg(seed):
            return PdcoeaConfig(lam=lam, chi=chi, seed=seed, budget_generations=budget,
                                game=game, target=target)

        engine = [run_trial(cfg(derive_seed(61, i))).generations_run for i in range(trials)]
        reference = [reference_hit_generation(cfg(derive_seed(62, i)), target)
                     for i in range(trials)]
        reference = [budget if g is None else g for g in reference]
        assert scipy.stats.ks_2samp(engine, reference).pvalue >= 1e-3
