import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from coevo import (
    BilinearGame,
    BilinearParams,
    LevelFunctionParams,
    LevelSequence,
    PdcoeaConfig,
    bilinear_target,
    build_bilinear_levels,
    check_growth_lemmas,
    current_level,
    eta_window,
    exact_selection_distribution,
    half_prob_conditionals,
    level_pair_counts,
    recipe_mutation_rate,
    reference_g1_g2,
    run_trial,
    selection_slot_rates,
    spawn_stream,
    validate_level_function,
)
from coevo.bilinear import _count_signs
from coevo.core import derive_seed, paired_uniform
from coevo.harness import GROWTH_CHECK_CONFIGS
from coevo.levels import (
    _class_pairs,
    _half_prob_counts,
    _psel_counts,
    _region_fractions,
    winner_table,
)

import selection_reference as reference
from conftest import paired


@pytest.fixture
def solvable_params():
    return BilinearParams(n=10, alpha=0.9, beta=0.05, epsilon=0.1)


def counts(pred, prey):
    """The predators' and the prey's one-counts of a state as int64 arrays."""
    return np.asarray(pred, dtype=np.int64), np.asarray(prey, dtype=np.int64)


def float_levels(params):
    """The bilinear levels as float predicates on one-counts, from their
    definitions: level 1 admits everything; descent level j has predators
    c < n - j and prey c < (alpha - epsilon)*n; ascent level j has predators
    c < beta*n and prey j <= c < alpha*n, with floor (alpha - epsilon)*n on
    the last level."""
    n, bn, an, lo = params.n, params.beta_n, params.alpha_n, params.target_lo
    levels = [(lambda c: True, lambda c: True)]
    for j in range(1, math.floor(n - bn) + 1):
        levels.append((lambda c, j=j: c < n - j, lambda c: c < lo))
    m2 = math.floor(lo) + 1
    for j in range(m2):
        floor = lo if j == m2 - 1 else j
        levels.append((lambda c: c < bn, lambda c, floor=floor: floor <= c < an))
    return levels


class TestBuildLevels:
    def test_first_level_is_full_space(self, solvable_params):
        seq = build_bilinear_levels(BilinearParams(n=8, alpha=0.75, beta=0.25, epsilon=0.125))
        assert seq[1] == ((0, 9), (0, 9))
        state = counts(range(9), range(9))
        assert level_pair_counts(*state, seq)[0] == 81

    @pytest.mark.parametrize("n, alpha, beta, epsilon", [
        (10, 0.9, 0.05, 0.1),      # on the grid but beta*n = 0.5
        (20, 0.9, 0.05, 0.1),      # every product integral
        (10, 0.85, 0.33, 0.12),    # beta*n = 3.3000000000000003, alpha*n = 8.5, band from 7.3
        (7, 0.6, 0.3, 0.2),        # products 4.2, 2.1, 2.8 off the grid
        (50, 0.5, 0.5, 0.2),
    ])
    def test_integer_ranges_match_float_definitions(self, n, alpha, beta, epsilon):
        params = BilinearParams(n=n, alpha=alpha, beta=beta, epsilon=epsilon)
        seq = build_bilinear_levels(params)
        levels = float_levels(params)
        assert seq.m == len(levels) == seq.m1 + seq.m2
        assert seq.predators.dtype == seq.prey.dtype == np.int64
        assert not (seq.predators.flags.writeable or seq.prey.flags.writeable)
        for j, (in_a, in_b) in enumerate(levels, start=1):
            (a_lo, a_hi), (b_lo, b_hi) = seq[j]
            for c in range(n + 1):
                assert (a_lo <= c < a_hi) == bool(in_a(c)), (j, c)
                assert (b_lo <= c < b_hi) == bool(in_b(c)), (j, c)

    def test_last_level_membership_is_the_target(self, solvable_params):
        seq = build_bilinear_levels(solvable_params)
        rng = spawn_stream(50, 0)
        for _ in range(100):
            state = counts(
                rng.integers(0, 11, size=4), rng.integers(0, 11, size=4))
            last = level_pair_counts(*state, seq)[-1]
            assert (last > 0) == bilinear_target(solvable_params)(*state)

    def test_level_count_bound(self):
        for n in (8, 10, 20, 50):
            for alpha, beta, eps in ((0.9, 0.05, 0.1), (0.85, 0.1, 0.05), (0.5, 0.5, 0.2)):
                if eps < 1.0 / n:
                    continue
                seq = build_bilinear_levels(BilinearParams(n=n, alpha=alpha, beta=beta, epsilon=eps))
                assert seq.m == seq.m1 + seq.m2 <= 2 * (n + 1)

    def test_phase_counts(self, solvable_params):
        seq = build_bilinear_levels(solvable_params)
        # m1 = floor(n - beta*n) + 1 = floor(9.5) + 1; m2 = floor(8) + 1
        assert seq.m1 == 10 and seq.m2 == 9

    def test_rejects_empty_target_band(self):
        with pytest.raises(ValueError):
            build_bilinear_levels(BilinearParams(n=10, alpha=0.1, beta=0.05, epsilon=0.2))
        with pytest.raises(ValueError):
            build_bilinear_levels(BilinearParams(n=10, alpha=0.0, beta=0.5, epsilon=0.1))


class TestPairsInLevel:
    def test_full_level_counts_all_pairs(self, solvable_params):
        seq = build_bilinear_levels(solvable_params)
        state = counts([0, 5, 10], [0, 5, 10])
        assert level_pair_counts(*state, seq)[0] == 9

    def test_empty_intersection(self, solvable_params):
        seq = build_bilinear_levels(solvable_params)
        state = counts([10, 10, 10], [0, 0, 0])  # nobody in R0
        assert level_pair_counts(*state, seq)[-1] == 0

    def test_product_count(self, solvable_params):
        # 2 predators in A x 1 prey in B
        seq = build_bilinear_levels(solvable_params)
        assert seq[seq.m] == ((0, 1), (8, 9))  # R0 x [8, 9)
        state = counts([0, 0, 9], [8, 0, 0])
        pairs = level_pair_counts(*state, seq)
        assert pairs.dtype == np.int64 and pairs.shape == (seq.m,)
        assert pairs[-1] == 2


class TestCurrentLevel:
    def brute_scan(self, cx, cy, params, gamma0):
        # independent oracle: per-member float membership, linear scan
        best = 1
        for j, (in_a, in_b) in enumerate(float_levels(params), start=1):
            count_a = sum(bool(in_a(c)) for c in cx.tolist())
            count_b = sum(bool(in_b(c)) for c in cy.tolist())
            if count_a * count_b >= gamma0 * len(cx)**2:
                best = j
        return best

    def test_matches_brute_scan(self, solvable_params):
        seq = build_bilinear_levels(solvable_params)
        rng = spawn_stream(51, 0)
        for _ in range(50):
            state = counts(
                rng.integers(0, 11, size=5), rng.integers(0, 11, size=5))
            for gamma0 in (0.1, 9.0 / 25.0, 0.99):
                assert (current_level(*state, seq, gamma0)
                        == self.brute_scan(*state, solvable_params, gamma0))

    def test_always_defined_and_monotone_in_gamma0(self, solvable_params):
        seq = build_bilinear_levels(solvable_params)
        rng = spawn_stream(52, 0)
        for _ in range(30):
            state = counts(
                rng.integers(0, 11, size=4), rng.integers(0, 11, size=4))
            levels = [current_level(*state, seq, g) for g in (0.05, 0.2, 9 / 25, 0.7, 0.999)]
            assert all(l >= 1 for l in levels)
            assert all(a >= b for a, b in zip(levels, levels[1:]))

    def test_concentrated_population_reaches_its_level(self, solvable_params):
        seq = build_bilinear_levels(solvable_params)
        # everyone in R0 x [8, 9): the last level holds all pairs
        state = counts([0, 0, 0], [8, 8, 8])
        assert current_level(*state, seq, 9 / 25) == seq.m

    def test_gamma0_validation(self, solvable_params):
        seq = build_bilinear_levels(solvable_params)
        state = counts([0], [0])
        with pytest.raises(ValueError):
            current_level(*state, seq, 0.0)
        with pytest.raises(ValueError):
            current_level(*state, seq, 1.0)

    def test_matches_brute_scan_at_desk_scale(self):
        rng = spawn_stream(54, 0)
        for n in (10, 50, 100):
            params = BilinearParams(n=n, alpha=0.9, beta=0.05, epsilon=0.1)
            seq = build_bilinear_levels(params)
            reached = set()
            for lam in (1, 7, 40, 100):
                for concentrated in (False, True):
                    if concentrated:
                        # a few adjacent counts around centres on the level path
                        pred = np.clip(rng.integers(0, n + 1) + rng.integers(-2, 3, size=lam), 0, n)
                        prey = np.clip(rng.integers(0, int(0.9 * n) + 1)
                                       + rng.integers(-2, 3, size=lam), 0, n)
                    else:
                        pred = rng.integers(0, n + 1, size=lam)
                        prey = rng.integers(0, n + 1, size=lam)
                    state = counts(pred, prey)
                    for gamma0 in (0.05, 9.0 / 25.0, 0.9):
                        level = current_level(*state, seq, gamma0)
                        assert level == self.brute_scan(*state, params, gamma0)
                        reached.add(level)
            assert len(reached) > 2

    def test_threshold_tie_counts_as_held(self, solvable_params):
        # gamma0 * lambda^2 equals the last level's pair count exactly
        seq = build_bilinear_levels(solvable_params)
        for lam, in_a, in_b in ((4, 2, 2), (8, 4, 4), (10, 6, 6), (16, 12, 3)):
            state = counts([0] * in_a + [10] * (lam - in_a), [8] * in_b + [0] * (lam - in_b))
            tie = in_a * in_b / lam**2
            assert tie * lam**2 == level_pair_counts(*state, seq)[-1]
            assert (current_level(*state, seq, tie)
                    == self.brute_scan(*state, solvable_params, tie) == seq.m)
            above = float(np.nextafter(tie, 1.0))
            assert (current_level(*state, seq, above)
                    == self.brute_scan(*state, solvable_params, above) < seq.m)

    def test_level_sequence_rejects_bad_ranges(self):
        full = [0, 11]
        good = np.array([full, [0, 6], [5, 5]])  # [5, 5) is an empty range
        seq = LevelSequence(10, good, good, m1=2, m2=1)
        crowded = counts([5] * 4, [5] * 4)
        assert level_pair_counts(*crowded, seq).tolist() == [16, 16, 0]
        assert current_level(*crowded, seq, 0.5) == 2
        for bad in ([full, [-1, 6]],            # lo below 0
                    [full, [0, 12]],            # hi beyond n + 1
                    [full, [7, 2]],             # hi < lo
                    [[0.0, 11.0], [0.5, 6.0]],  # not integers
                    [0, 11]):                   # not an (m, 2) array
            with pytest.raises(ValueError):
                LevelSequence(10, np.array(bad), np.array([full, full]), m1=1, m2=1)
            with pytest.raises(ValueError):
                LevelSequence(10, np.array([full, full]), np.array(bad), m1=1, m2=1)
        with pytest.raises(ValueError):
            LevelSequence(10, good, good[:2], m1=2, m2=1)  # one prey range short

    def test_current_level_rejects_sequence_for_another_n(self, solvable_params):
        # one-count arrays carry no n: a state of another n shows as a count
        # outside [0, 10], in any state of a block; a prey side of another
        # length and counts that are not integers are rejected the same way
        seq = build_bilinear_levels(solvable_params)
        for pred, prey in (([0, 11], [0, 1]), ([0, 1], [1, 12]), ([-1, 0], [0, 1]),
                           ([[0, 1], [0, 11]], [[0, 1], [0, 1]]),
                           ([1, 2, 3], [4] * 5), ([1.0, 2.0], [3, 4])):
            with pytest.raises(ValueError, match="n=10"):
                current_level(np.array(pred), np.array(prey), seq, 9.0 / 25.0)

    def test_matches_brute_scan_along_a_seeded_run(self):
        params = BilinearParams(n=50, alpha=0.9, beta=0.05, epsilon=0.1)
        seq = build_bilinear_levels(params)
        cfg = PdcoeaConfig(lam=20, chi=recipe_mutation_rate(0.01),
                           seed=derive_seed(56, 0), budget_generations=5000, game=params)
        record = run_trial(cfg, record=True)
        assert record.hit
        states = record.counts
        levels = []
        for t in [*range(0, len(states), max(1, len(states) // 60)), len(states) - 1]:
            state = states[t, 0], states[t, 1]
            level = current_level(*state, seq, 9.0 / 25.0)
            assert level == self.brute_scan(*state, params, 9.0 / 25.0)
            levels.append(level)
        assert levels[-1] > seq.m1 and len(set(levels)) > 5  # reached the ascent phase


class TestBlockForm:
    """A block of states, one per row, gives each state's own result."""

    def assert_rows_match(self, cx, cy, seq, gamma0):
        pairs = level_pair_counts(cx, cy, seq)
        levels = current_level(cx, cy, seq, gamma0)
        assert pairs.dtype == levels.dtype == np.int64
        assert pairs.shape == (len(cx), seq.m) and levels.shape == (len(cx),)
        for t in range(len(cx)):
            level = current_level(cx[t], cy[t], seq, gamma0)
            assert type(level) is int and levels[t] == level
            assert pairs[t].tolist() == level_pair_counts(cx[t], cy[t], seq).tolist()
        return levels

    @pytest.mark.parametrize("lam", [1, 3, 40, 100])
    @pytest.mark.parametrize("generations", [1, 2, 64])
    def test_random_blocks_match_each_state(self, lam, generations):
        rng = spawn_stream(57, 0)
        reached = set()
        for n in (10, 50):
            seq = build_bilinear_levels(BilinearParams(n=n, alpha=0.9, beta=0.05, epsilon=0.1))
            # each state a few adjacent counts around its own centres, so that
            # the block spans many levels; int16 is how the trajectory stores them
            centres = rng.integers(0, n + 1, size=(2, generations, 1))
            cx, cy = np.clip(centres + rng.integers(-2, 3, size=(2, generations, lam)), 0, n)
            for gamma0 in (0.05, 9.0 / 25.0, 0.9):
                for dtype in (np.int64, np.int16):
                    levels = self.assert_rows_match(cx.astype(dtype), cy.astype(dtype),
                                                    seq, gamma0)
                    reached.update(levels.tolist())
        assert generations == 1 or len(reached) > 2

    def test_empty_range_tie_and_level_one_alone(self, solvable_params):
        # rows: a tie on the last level (2 x 2 of 4^2 pairs at gamma0 = 1/4),
        # one predator short of the tie, and predators all at n, which leaves
        # every descent level and so only level 1 held
        seq = build_bilinear_levels(solvable_params)
        cx = np.array([[0, 0, 10, 10], [0, 10, 10, 10], [10, 10, 10, 10]])
        cy = np.array([[8, 8, 0, 0], [8, 8, 0, 0], [0, 0, 0, 0]])
        assert level_pair_counts(cx, cy, seq)[:, -1].tolist() == [4, 2, 0]
        levels = self.assert_rows_match(cx, cy, seq, 0.25)
        assert levels[0] == seq.m and 1 < levels[1] < seq.m and levels[2] == 1
        assert (level_pair_counts(cx, cy, seq)[2, 1:] == 0).all()
        # [5, 5) is an empty range: its level holds nothing, in a block too
        full = [0, 11]
        ranges = np.array([full, [0, 6], [5, 5]])
        empty = LevelSequence(10, ranges, ranges, m1=2, m2=1)
        block = np.full((2, 4), 5)
        assert level_pair_counts(block, block, empty).tolist() == [[16, 16, 0]] * 2
        assert self.assert_rows_match(block, block, empty, 0.5).tolist() == [2, 2]

    def test_no_level_held_reads_level_one(self):
        # a sequence whose first level is not the full space: a state that
        # holds no level still reads level 1, as one state and in a block
        ranges = np.array([[0, 3], [0, 2]])
        seq = LevelSequence(10, ranges, ranges, m1=1, m2=1)
        cx = cy = np.array([[9, 9], [0, 9], [0, 0]])
        assert self.assert_rows_match(cx, cy, seq, 0.5).tolist() == [1, 1, 2]

    def test_lambda_one(self, solvable_params):
        seq = build_bilinear_levels(solvable_params)
        cx, cy = np.arange(11)[:, None], (10 - np.arange(11))[:, None]
        levels = self.assert_rows_match(cx, cy, seq, 9.0 / 25.0)
        # one member pair: its level is the deepest level it lies in
        brute = TestCurrentLevel().brute_scan
        assert levels.tolist() == [brute(*counts(x, y), solvable_params, 0.36)
                                   for x, y in zip(cx, cy)]


class TestRegionFractions:
    def test_all_zero_predators(self, fig_params):
        state = counts([0, 0, 0, 0], [5, 5, 5, 5])
        p0, p_k, q0, q_l = _region_fractions(*state, 0, 0, fig_params)
        assert p0 == 1

    def test_partition_sums_to_one_exactly(self, fig_params):
        rng = spawn_stream(53, 0)
        n = 10
        for _ in range(40):
            lam = int(rng.integers(1, 9))
            state = counts(
                rng.integers(0, n + 1, size=lam), rng.integers(0, n + 1, size=lam))
            for k in (0, 2, 4):
                for l in (0, 1, 3):
                    p0, p_k, q0, q_l = _region_fractions(*state, k, l, fig_params)
                    r2 = Fraction(int((state[0] >= n - k).sum()), lam)
                    s2 = Fraction(int((state[1] < l).sum()), lam)
                    assert p0 + p_k + r2 == 1
                    assert q0 + q_l + s2 == 1

    def test_uniform_population_matches_binomial_tail(self):
        params = BilinearParams(n=100, alpha=0.4, beta=0.6, epsilon=0.1)
        lam = 1000
        rng = spawn_stream(54, 0)
        state = paired_uniform(lam, 100, rng)
        p0, p_k, q0, q_l = _region_fractions(*state, 0, 0, params)
        expected = float(scipy.stats.binom.sf(39, 100, 0.5))  # P(ones >= 40)
        se = math.sqrt(expected * (1 - expected) / lam)
        assert abs(float(q0) - expected) <= 6 * se

    def test_threshold_validation(self, fig_params):
        state = counts([0], [0])
        with pytest.raises(ValueError):
            _region_fractions(*state, 5, 0, fig_params)
        with pytest.raises(ValueError):
            _region_fractions(*state, 0, 4, fig_params)


class TestExactSelection:
    def test_full_space_probability_one(self, fig_params):
        state = counts([1, 5, 9], [2, 4, 8])
        prob = exact_selection_distribution(*state, fig_params, lambda cx, cy: True)
        assert prob == 1

    def test_singleton_population(self, fig_params):
        state = counts([3], [7])
        prob = exact_selection_distribution(
            *state, fig_params, lambda cx, cy: cx == 3 and cy == 7)
        assert prob == 1

    def test_hand_enumerated_sixteenth(self, fig_params):
        # predators {0, 1} ones, prey {0, 1} ones: the pair class (1, 0) is
        # selected only by the reflexive draw ((1,0),(1,0)), 1 case of 16
        state = counts([0, 1], [0, 1])
        prob = exact_selection_distribution(
            *state, fig_params, lambda cx, cy: (cx, cy) == (1, 0))
        assert prob == Fraction(1, 16)

    def test_sums_to_one_over_partition(self, fig_params):
        state = counts([1, 5, 9, 9], [2, 4, 8, 0])
        total = sum(
            exact_selection_distribution(
                *state, fig_params, lambda a, b, cx=cx, cy=cy: (a, b) == (cx, cy))
            for cx in (1, 5, 9)
            for cy in (2, 4, 8, 0)
        )
        assert total == 1

    @pytest.mark.parametrize("lam", [13, 40])
    def test_large_lambda_sums_to_one_over_partition(self, fig_params, lam):
        rng = spawn_stream(57, lam)
        state = counts(rng.integers(0, 11, size=lam), rng.integers(0, 11, size=lam))
        cells = [(in_r0, below_alpha) for in_r0 in (True, False) for below_alpha in (True, False)]
        total = sum(
            exact_selection_distribution(
                *state, fig_params, lambda a, b, cell=cell: (a < fig_params.beta_n,
                                                           b < fig_params.alpha_n) == cell)
            for cell in cells)
        assert total == 1

    def test_lambda_40_matches_monte_carlo(self, fig_params):
        # beyond any enumeration: the closed form against the engine's draws
        game = BilinearGame(fig_params)
        rng = spawn_stream(58, 0)
        lam, draws = 40, 10**5
        state = counts(rng.integers(0, 11, size=lam), rng.integers(0, 11, size=lam))
        table = winner_table(*state, fig_params)
        assert table.sum() == lam**4
        pred_slots, prey_slots = reference.select_slots(paired(*state, 10), game, rng, draws)
        freq = np.zeros((11, 11))
        np.add.at(freq, (state[0][pred_slots], state[1][prey_slots]), 1.0 / draws)
        exact = table / lam**4
        se = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / draws)
        assert (np.abs(freq - exact) <= 6 * se).all()
        region = lambda cx, cy: cx < fig_params.beta_n and cy < fig_params.alpha_n
        prob = float(exact_selection_distribution(*state, fig_params, region))
        hit = float(freq[: int(fig_params.beta_n), : int(fig_params.alpha_n)].sum())
        assert abs(hit - prob) <= 6 * math.sqrt(prob * (1 - prob) / draws)

    def test_lambda_beyond_int64_rejected(self, fig_params):
        # lambda^4 < 2^63 holds up to lambda = 55108
        for lam, ok in ((55108, True), (55109, False)):
            state = counts(np.zeros(lam, dtype=np.int64), np.zeros(lam, dtype=np.int64))
            if ok:
                assert winner_table(*state, fig_params)[0, 0] == lam**4
            else:
                with pytest.raises(ValueError, match="overflow"):
                    winner_table(*state, fig_params)
                with pytest.raises(ValueError, match="overflow"):
                    half_prob_conditionals(*state, fig_params)

    def test_slot_rates_sum_to_one(self, fig_params):
        state = counts([1, 5, 9], [2, 4, 8])
        pred_rates, prey_rates = selection_slot_rates(*state, fig_params)
        assert sum(pred_rates) == 1 and sum(prey_rates) == 1

    def test_monte_carlo_agrees_with_exact(self, fig_params):
        game = BilinearGame(fig_params)
        rng = spawn_stream(55, 0)
        draws = 10**5
        for _ in range(3):
            lam = int(rng.integers(2, 7))
            state = counts(
                rng.integers(0, 11, size=lam), rng.integers(0, 11, size=lam))
            region = lambda cx, cy: cx < fig_params.beta_n and cy < fig_params.alpha_n
            exact = float(exact_selection_distribution(*state, fig_params, region))
            pred_slots, prey_slots = reference.select_slots(paired(*state, 10), game, rng, draws)
            cx = state[0][pred_slots]
            cy = state[1][prey_slots]
            freq = float(((cx < fig_params.beta_n) & (cy < fig_params.alpha_n)).mean())
            se = math.sqrt(max(exact * (1 - exact), 1e-12) / draws)
            assert abs(freq - exact) <= 6 * se


def random_states(seed, count):
    """Random small states over n 2-12, lambda 1-8, with alpha and beta at 0,
    at 1, on the 1/n grid, or anywhere in [0, 1]."""
    rng = spawn_stream(seed, 0)
    for _ in range(count):
        n = int(rng.integers(2, 13))
        lam = int(rng.integers(1, 9))
        alpha, beta = (float(rng.choice([0.0, 1.0, rng.integers(0, n + 1) / n, rng.random()]))
                       for _ in range(2))
        params = BilinearParams(n=n, alpha=alpha, beta=beta, epsilon=1.0)
        state = counts(
            rng.integers(0, n + 1, size=lam), rng.integers(0, n + 1, size=lam))
        yield state, params, int(rng.integers(0, n + 1))


class TestClosedFormAgainstEnumeration:
    """The closed-form selection law equals the lambda^4 enumeration exactly."""

    STATES = 500

    def test_winner_table(self):
        for state, params, _ in random_states(60, self.STATES):
            table = winner_table(*state, params)
            assert table.dtype == np.int64 and table.sum() == len(state[0])**4
            assert np.array_equal(table, reference.winner_table(*state, params))

    def test_slot_rates(self):
        for state, params, _ in random_states(61, self.STATES):
            assert selection_slot_rates(*state, params) == \
                reference.slot_rates(*state, params)

    def test_region_probabilities(self):
        for state, params, l in random_states(62, self.STATES):
            in_r0 = lambda c: c < params.beta_n
            in_band = lambda c: (c >= l) & (c < params.alpha_n)
            for pred_x, pred_y in ((in_r0, None), (None, in_band), (in_r0, in_band)):
                assert _psel_counts(*state, params, pred_x, pred_y) == \
                    reference.region_probability(*state, params, pred_x, pred_y)

    def test_half_prob_conditionals(self):
        non_null = 0
        for state, params, _ in random_states(63, self.STATES):
            probs = half_prob_conditionals(*state, params)
            assert probs == reference.half_prob_conditionals(*state, params)
            non_null += sum(p is not None for p in probs)
        assert non_null > self.STATES


class TestHalfProbConditionals:
    def test_all_non_null_conditionals_at_least_half(self, fig_params):
        rng = spawn_stream(56, 0)
        evaluated = 0
        for _ in range(30):
            lam = int(rng.integers(2, 9))
            state = counts(
                rng.integers(0, 11, size=lam), rng.integers(0, 11, size=lam))
            for prob in half_prob_conditionals(*state, fig_params):
                if prob is not None:
                    evaluated += 1
                    assert prob >= Fraction(1, 2)
        assert evaluated > 50

    @pytest.mark.parametrize("lam", [1, 2, 6])
    def test_block_rows_equal_the_one_state_oracles(self, lam, fig_params):
        # one pass over a block gives every row's four conditionals; row 0
        # (every predator below beta*n) has null events, as small rows often do
        cx, cy = spawn_stream(57, lam).integers(0, 11, size=(2, 40, lam))
        cx[0] = 0
        dominating, drawn = _half_prob_counts(cx, cy, fig_params)
        assert dominating.shape == drawn.shape == (40, 4)
        nulls = 0
        for row in range(40):
            state = counts(cx[row], cy[row])
            probs = tuple(Fraction(k, total) if total else None
                          for k, total in zip(dominating[row].tolist(), drawn[row].tolist()))
            assert probs == half_prob_conditionals(*state, fig_params)
            assert probs == reference.half_prob_conditionals(*state, fig_params)
            nulls += probs.count(None)
        assert nulls > 0

    def test_class_pairs_of_a_block_are_each_states(self, fig_params):
        # (..., lambda) one-counts give (..., n+1, 9) tables, one per state
        ones = spawn_stream(58, 0).integers(0, 11, size=(2, 3, 5))
        sign = _count_signs(fig_params)[0]
        tables = _class_pairs(ones, sign)
        assert tables.shape == (2, 3, 11, 9) and tables.dtype == np.int64
        for index in np.ndindex(2, 3):
            assert np.array_equal(tables[index], _class_pairs(ones[index], sign))

    def test_null_events_reported_as_none(self, fig_params):
        # all predators below beta*n: conditions 1 and 3 are null
        state = counts([0, 1], [0, 1])
        probs = half_prob_conditionals(*state, fig_params)
        assert probs[0] is None and probs[2] is None
        assert probs[1] is not None and probs[1] >= Fraction(1, 2)


class TestGrowthLemmas:
    def test_hypotheses_unmet_guard(self, fig_params):
        # p0 = 1 violates case 15's p0 < 1 - delta1
        state = counts([0, 0, 0], [1, 2, 3])
        report = check_growth_lemmas(15, *state, fig_params, l=0, delta1=Fraction(2, 5))
        assert not report.hypotheses_met and report.passed is None

    @pytest.mark.parametrize("case, pred, prey, kw, note", [
        (15, [0, 0, 9], [5, 5, 5], dict(delta1=Fraction(1, 5)), "needs q(l) > 0"),
        (16, [9, 9, 9], [0, 0, 0], dict(rho=Fraction(1, 2)), "needs p0*q < 1-rho"),
        (16, [0, 0, 0], [0, 0, 1], dict(l=2, rho=Fraction(1, 2)), "needs p0 > 0 and q(l) > 0"),
        (17, [9, 9], [0, 5], {}, "needs p0 > 0"),
        (18, [0, 9], [5, 5], {}, "needs q(l) > 0"),
        (19, [0, 9], [0, 5], dict(rho=Fraction(1, 2)), "needs q0 <= sqrt(2(1-rho))-1"),
        (19, [10, 10], [0, 0], dict(rho=Fraction(1, 10)), "needs p0 + p(k) > 0"),
    ])
    def test_each_unmet_hypothesis_reported(self, fig_params, case, pred, prey, kw, note):
        report = check_growth_lemmas(case, *counts(pred, prey), fig_params, **kw)
        assert not report.hypotheses_met and report.passed is None
        assert report.note.startswith(note) and report.ratio is None

    @pytest.mark.parametrize("case", sorted(GROWTH_CHECK_CONFIGS))
    def test_frozen_configs_pass(self, case, fig_params):
        cfg = GROWTH_CHECK_CONFIGS[case]
        state = counts(cfg["pred"], cfg["prey"])
        report = check_growth_lemmas(
            case, *state, fig_params, k=cfg["k"], l=cfg["l"],
            delta1=cfg.get("delta1"), rho=cfg.get("rho"))
        assert report.hypotheses_met
        assert isinstance(report.ratio, Fraction) and isinstance(report.bound, Fraction)
        assert report.passed

    @pytest.mark.parametrize("case, kw, name", [
        (15, {}, "delta1"), (15, dict(delta1="two fifths"), "delta1"),
        (16, {}, "rho"), (19, dict(rho=None), "rho"), (19, dict(rho=[1, 2]), "rho"),
    ])
    def test_missing_or_irrational_parameter_named(self, fig_params, case, kw, name):
        # None once failed with a TypeError from Fraction
        with pytest.raises(ValueError, match=f"growth case {case} needs a rational {name}"):
            check_growth_lemmas(case, *counts([0, 9], [0, 5]), fig_params, **kw)

    def test_unknown_case_rejected(self, fig_params):
        state = counts([0], [0])
        with pytest.raises(ValueError):
            check_growth_lemmas(14, *state, fig_params)


ORACLES = {
    "winner_table": winner_table,
    "exact_selection_distribution":
        lambda cx, cy, params: exact_selection_distribution(cx, cy, params, lambda a, b: a < 6),
    "selection_slot_rates": selection_slot_rates,
    "half_prob_conditionals": half_prob_conditionals,
    "_region_fractions": lambda cx, cy, params: _region_fractions(cx, cy, 0, 2, params),
    "_psel_counts": lambda cx, cy, params: _psel_counts(cx, cy, params, lambda c: c < 6),
    "check_growth_lemmas": lambda cx, cy, params: check_growth_lemmas(17, cx, cy, params),
}


class TestOneCountInput:
    """Every exact oracle takes one state's one-counts, as lists or arrays,
    and rejects a state that is not lambda >= 1 whole counts in [0, n] a side."""

    @pytest.mark.parametrize("oracle", ORACLES)
    def test_lists_and_arrays_accepted(self, oracle, fig_params):
        pred, prey = [0, 3, 10], [10, 0, 5]
        expected = ORACLES[oracle](pred, prey, fig_params)
        for cx, cy in ((np.array(pred), np.array(prey)),
                       (np.array(pred, dtype=np.int16), np.array(prey, dtype=float))):
            result = ORACLES[oracle](cx, cy, fig_params)
            assert np.array_equal(result, expected) if oracle == "winner_table" else result == expected

    @pytest.mark.parametrize("side", ["predators", "prey"])
    @pytest.mark.parametrize("bad", [11, -1, 2.5, 2**70, "a", True])
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_counts_outside_zero_to_n_rejected(self, oracle, bad, side, fig_params):
        # rejected, never clamped, truncated or read as some other count
        state = [[1, 2], [3, 4]]
        state[side == "prey"][0] = bad
        with pytest.raises(ValueError, match=r"\[0, n\] = \[0, 10\]"):
            ORACLES[oracle](*state, fig_params)

    @pytest.mark.parametrize("pred, prey", [
        pytest.param([1, 2], [3], id="fewer-prey"),
        pytest.param([1], [2, 3], id="fewer-predators"),
        pytest.param([], [], id="both-empty"),
        pytest.param([], [1], id="no-predators"),
        pytest.param([1], [], id="no-prey"),
        pytest.param([[1, 2]], [[3, 4]], id="a-block-not-a-state"),
    ])
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_unequal_or_empty_sides_rejected(self, oracle, pred, prey, fig_params):
        with pytest.raises(ValueError, match="n = 10"):
            ORACLES[oracle](pred, prey, fig_params)


class TestLevelFunctions:
    def test_constant_function_validates(self):
        assert validate_level_function(lambda k, j: 1.0, 4, 5)

    def test_count_increasing_function_fails(self):
        assert not validate_level_function(lambda k, j: k, 4, 5)

    def test_level_increasing_function_fails(self):
        assert not validate_level_function(lambda k, j: j, 4, 5)

    def test_levels_that_do_not_glue_fail(self):
        # monotone in k and in j, but g(lambda^2, j) = 3 - j < g(0, j+1) = 4 - j
        assert not validate_level_function(lambda k, j: (5 - j) - 2 * k / 16, 4, 5)
        assert validate_level_function(lambda k, j: (5 - j) - k / 16, 4, 5)

    @pytest.mark.parametrize("lam, m", [(0, 5), (4, 0), (-1, 5), (4.0, 5), (4, True), (4, None)])
    def test_sizes_that_are_no_positive_int_rejected(self, lam, m):
        # lambda = 0 once validated the count-increasing g = k, and m = 0 an empty grid
        with pytest.raises(ValueError, match="lambda and m must be integers >= 1"):
            validate_level_function(lambda k, j: k, lam, m)

    def test_reference_potential_validates(self):
        for lam, m in ((6, 3), (12, 6), (20, 10)):
            for delta in (0.3, 0.9):
                lo, hi = eta_window(delta, lam)
                z = tuple(0.2 + 0.6 * (i % 3) / 3 for i in range(m - 1))
                params = LevelFunctionParams(eta=(lo + hi) / 2, phi=0.5, z=z, lam=lam, m=m)
                g1, g2 = reference_g1_g2(params)
                assert validate_level_function(g1, lam, m)
                assert validate_level_function(g2, lam, m)
                assert validate_level_function(lambda k, j: g1(k, j) + g2(k, j), lam, m)

    def test_array_evaluation_matches_scalar_forms(self):
        # g1, g2 on broadcast integer grids against the scalar formulas in
        # math.exp; np.exp may differ from math.exp by an ulp
        for lam, m in ((6, 1), (6, 3), (15, 6), (28, 10)):
            z = tuple(0.1 + 0.8 * ((i * 7) % (m + 1)) / (m + 1) for i in range(m - 1))
            lo, hi = eta_window(0.8, lam)
            params = LevelFunctionParams(eta=(lo + hi) / 2, phi=0.5, z=z, lam=lam, m=m)
            eta, q = params.eta, params.q
            g1, g2 = reference_g1_g2(params)
            k, j = np.arange(lam * lam + 1)[:, None], np.arange(1, m + 1)[None, :]
            want1 = [[eta / (1 + eta) * ((m - jj) * lam * lam - kk) for jj in range(1, m + 1)]
                     for kk in range(lam * lam + 1)]
            want2 = [[0.0 if jj == m else 0.5 * (math.exp(-eta * kk) / q[jj - 1]
                                                 + sum(1 / qi for qi in q[jj:]))
                      for jj in range(1, m + 1)] for kk in range(lam * lam + 1)]
            assert np.array_equal(g1(k, j), want1)
            assert np.allclose(np.broadcast_to(g2(k, j), (lam * lam + 1, m)), want2,
                               rtol=1e-12, atol=0.0)
            assert g2(3, m) == 0.0 and g2(0, 1) == pytest.approx(want2[0][0], rel=1e-12)

    def test_g1_glue_identity_exact(self):
        params = LevelFunctionParams(eta=0.01, phi=0.5, z=(0.5,) * 9, lam=20, m=10)
        g1, _ = reference_g1_g2(params)
        for j in range(1, 10):
            assert g1(400, j) == g1(0, j + 1)

    def test_g2_glue_strict(self):
        params = LevelFunctionParams(eta=0.01, phi=0.5, z=(0.5,) * 9, lam=20, m=10)
        _, g2 = reference_g1_g2(params)
        q = params.q
        for j in range(1, 10):
            tail = sum(params.phi / q[i - 1] for i in range(j + 1, 10))
            assert g2(400, j) > tail
            assert g2(0, j + 1) == pytest.approx(tail)

    def test_distance_cap(self):
        # g(0,1) < 3 * eta * lambda^2 * m / z_* when lambda > 44/3 and
        # lambda^2 > 44 / (3 delta)
        for lam in (15, 20, 40):
            for m in (3, 8, 12):
                for delta in (0.3, 0.6, 0.99):
                    if lam * lam <= 44.0 / (3.0 * delta):
                        continue
                    lo, hi = eta_window(delta, lam)
                    z = tuple(0.1 + 0.8 * ((i * 5) % 7) / 7 for i in range(m - 1))
                    params = LevelFunctionParams(eta=(lo + hi) / 2, phi=0.5, z=z, lam=lam, m=m)
                    g1, g2 = reference_g1_g2(params)
                    cap = 3.0 * params.eta * lam * lam * m / min(z) if m > 1 else None
                    if cap is not None:
                        assert g1(0, 1) + g2(0, 1) < cap

    def test_q_values_in_unit_interval(self):
        params = LevelFunctionParams(eta=0.01, phi=0.1, z=(0.01, 0.5, 1.0), lam=7, m=4)
        assert all(0 < qi < 1 for qi in params.q)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LevelFunctionParams(eta=0.0, phi=0.5, z=(0.5,), lam=5, m=2)
        with pytest.raises(ValueError):
            LevelFunctionParams(eta=0.1, phi=1.5, z=(0.5,), lam=5, m=2)
        with pytest.raises(ValueError):
            LevelFunctionParams(eta=0.1, phi=0.5, z=(0.5, 0.5), lam=5, m=2)
        with pytest.raises(ValueError):
            LevelFunctionParams(eta=0.1, phi=0.5, z=(0.0,), lam=5, m=2)

    @pytest.mark.parametrize("kw, message", [
        ({"eta": math.nan}, "eta must be finite and positive"),
        ({"eta": math.inf}, "eta must be finite and positive"),
        ({"lam": 2.5}, "lambda and m must be integers"),
        ({"lam": True}, "lambda and m must be integers"),
        ({"m": 2.0, "z": (0.5,)}, "lambda and m must be integers"),
        ({"m": True}, "lambda and m must be integers"),
        ({"m": 2, "z": (True,)}, r"every z_i must be in \(0, 1\]"),
        # these once raised a TypeError
        ({"eta": "0.01"}, "eta must be finite and positive"),
        ({"phi": "0.5"}, r"phi must be in \(0, 1\)"),
        ({"m": 2, "z": ("0.5",)}, r"every z_i must be in \(0, 1\]"),
        ({"m": 2, "z": 0.5}, "z must be a sequence of m-1 = 1 values"),
    ])
    def test_rejects_non_finite_eta_and_non_integral_sizes(self, kw, message):
        # each of these once constructed or raised a TypeError
        with pytest.raises(ValueError, match=message):
            LevelFunctionParams(**{"eta": 0.1, "phi": 0.5, "z": (), "lam": 2, "m": 1, **kw})
