import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from coevo import (
    BilinearGame,
    BilinearParams,
    BitVector,
    bilinear_target,
    classify_predator,
    classify_prey,
    dominates,
    dominates_by_onecounts,
    intransitivity_witness,
    payoff,
    payoff_by_onecounts,
    spawn_stream,
    worst_case_f,
)
from coevo.bilinear import _count_signs, _dominates_by_payoffs, _dominates_counts_arrays
from coevo.harness import DOMINANCE_CHECK_GAMES

from conftest import count_vector


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BilinearParams(n=10, alpha=1.4, beta=0.5, epsilon=0.1)
        with pytest.raises(ValueError):
            BilinearParams(n=10, alpha=0.5, beta=-0.1, epsilon=0.1)
        with pytest.raises(ValueError):
            BilinearParams(n=10, alpha=0.5, beta=0.5, epsilon=0.05)  # epsilon < 1/n

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, "0.2", None, True, np.bool_(True)])
    def test_non_finite_epsilon_rejected(self, epsilon):
        # nan and inf pass `epsilon < 1/n` unnoticed (inf then overflows in
        # `_snap`); a string or None fails the comparison, and a bool is no number
        with pytest.raises(ValueError, match="epsilon must be finite"):
            BilinearParams(n=10, alpha=0.9, beta=0.05, epsilon=epsilon)

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("value", ["0.5", None, True, False, np.bool_(True), math.nan, 1.5])
    def test_slope_that_is_no_number_in_unit_interval_rejected(self, field, value):
        # a bool used to be accepted and a string or None to raise a TypeError
        slopes = {"alpha": 0.9, "beta": 0.05, field: value}
        with pytest.raises(ValueError, match=f"{field} must be a real number in"):
            BilinearParams(n=10, epsilon=0.2, **slopes)

    @pytest.mark.parametrize("value", [0, 1, 0.5, np.float32(0.5), np.int64(1)])
    def test_numpy_and_integer_slopes_accepted(self, value):
        params = BilinearParams(n=10, alpha=value, beta=value, epsilon=0.2)
        assert params.alpha_n == params.beta_n == float(value) * 10

    @pytest.mark.parametrize("n", [10.5, 10.0, "10", True, None, 0, np.float64(10)])
    def test_non_integral_n_rejected(self, n):
        # a float n used to pass, then fail in `paired_uniform` with a TypeError
        with pytest.raises(ValueError, match="n must be an integer"):
            BilinearParams(n=n, alpha=0.9, beta=0.05, epsilon=0.2)

    @pytest.mark.parametrize("n", [10, np.int64(10), np.uint16(10)])
    def test_integer_n_accepted(self, n):
        assert BilinearParams(n=n, alpha=0.9, beta=0.05, epsilon=0.2).alpha_n == 9.0

    def test_snapped_products_are_integral_on_grid(self):
        p = BilinearParams(n=80, alpha=0.9, beta=0.05, epsilon=0.1)
        assert p.alpha_n == 72.0 and p.beta_n == 4.0 and p.target_lo == 64.0

    def test_solvable_regime_flag(self):
        assert BilinearParams(n=100, alpha=0.9, beta=0.05, epsilon=0.1).solvable_regime
        assert not BilinearParams(n=100, alpha=0.4, beta=0.6, epsilon=0.1).solvable_regime


class TestPayoff:
    def test_full_vectors(self, fig_params):
        v = BitVector.all_ones(10)
        assert payoff(v, v, fig_params) == 10 * (10 - 6) - 4 * 10 == 0

    def test_zero_vectors_vanish(self, fig_params):
        z = BitVector.zeros(10)
        assert payoff(z, z, fig_params) == 0.0

    def test_prey_independent_at_kink(self, fig_params):
        # ||x|| = beta*n makes the first term vanish for every prey
        x = count_vector(6, 10)
        values = {payoff(x, count_vector(cy, 10), fig_params) for cy in range(11)}
        assert values == {-24.0}

    def test_depends_only_on_onecounts(self, fig_params):
        x1 = BitVector([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        x2 = BitVector([0, 0, 0, 0, 0, 0, 0, 1, 1, 1])
        y1 = BitVector([0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
        y2 = BitVector([1, 0, 1, 0, 1, 0, 1, 0, 1, 0])
        assert payoff(x1, y1, fig_params) == payoff(x2, y2, fig_params)

    def test_dimension_mismatch(self, fig_params):
        with pytest.raises(ValueError):
            payoff(BitVector.zeros(9), BitVector.zeros(10), fig_params)


class TestWorstCase:
    def brute_min(self, c, params):
        return min(payoff_by_onecounts(c, cy, params) for cy in range(params.n + 1))

    def test_matches_brute_force_over_grid(self):
        for n in (1, 2, 3, 5, 8, 13, 21, 32):
            for alpha in (0.0, 0.3, 0.6, 1.0):
                for beta in (0.0, 0.4, 1.0):
                    params = BilinearParams(n=n, alpha=alpha, beta=beta, epsilon=1.0 / n)
                    for c in range(n + 1):
                        expected = self.brute_min(c, params)
                        assert worst_case_f(count_vector(c, n), params) == expected

    def test_matches_full_prey_enumeration_n8(self):
        params = BilinearParams(n=8, alpha=0.5, beta=0.5, epsilon=0.125)
        prey = [BitVector([(i >> b) & 1 for b in range(8)]) for i in range(256)]
        for c in range(9):
            x = count_vector(c, 8)
            assert worst_case_f(x, params) == min(payoff(x, y, params) for y in prey)

    def test_zero_predator_pays_minus_beta_n_squared(self):
        params = BilinearParams(n=10, alpha=0.4, beta=0.6, epsilon=0.1)
        assert worst_case_f(BitVector.zeros(10), params) == -0.6 * 10 * 10

    def test_onemax_shaped_case(self):
        # alpha=0, beta=1: the worst case is n*(ones(x) - n), strictly
        # increasing in the one-count, the shifted-OneMax landscape up to
        # its positive scale factor
        params = BilinearParams(n=10, alpha=0.0, beta=1.0, epsilon=0.1)
        values = [worst_case_f(count_vector(c, 10), params) for c in range(11)]
        assert values == [10.0 * (c - 10) for c in range(11)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_unimodal_with_peak_at_beta_n(self, fig_params):
        values = [worst_case_f(count_vector(c, 10), fig_params) for c in range(11)]
        peak = int(np.argmax(values))
        assert peak == 6
        assert all(values[i] <= values[i + 1] for i in range(peak))
        assert all(values[i] >= values[i + 1] for i in range(peak, 10))


class TestDominance:
    def test_reflexive(self, fig_params):
        rng = spawn_stream(21, 0)
        for _ in range(50):
            x, y = (BitVector(rng.integers(0, 2, size=10, dtype=np.uint8)) for _ in range(2))
            assert dominates(x, y, x, y, fig_params)

    def test_genome_length_checked(self, fig_params):
        v, short = count_vector(3, 10), count_vector(3, 9)
        for quad in ((short, v, v, v), (v, short, v, v), (v, v, short, v), (v, v, v, short)):
            with pytest.raises(ValueError, match="does not match game n=10"):
                dominates(*quad, fig_params)

    def test_hand_checked_true_case(self, fig_params):
        # 3*(7-6) >= 2*(7-6) and 7*(2-4) >= 8*(2-4)
        assert dominates(
            count_vector(7, 10), count_vector(2, 10),
            count_vector(8, 10), count_vector(3, 10), fig_params)

    def test_hand_checked_false_case(self, fig_params):
        # first inequality 1*1 >= 2*1 fails
        assert not dominates(
            count_vector(7, 10), count_vector(2, 10),
            count_vector(8, 10), count_vector(1, 10), fig_params)

    def test_onecount_route_agrees(self, fig_params):
        assert dominates_by_onecounts(7, 2, 8, 3, fig_params)
        assert not dominates_by_onecounts(7, 2, 8, 1, fig_params)
        assert dominates_by_onecounts(5, 5, 5, 5, fig_params)

    def test_onecount_range_validation(self, fig_params):
        with pytest.raises(ValueError):
            dominates_by_onecounts(11, 0, 0, 0, fig_params)
        with pytest.raises(ValueError):
            dominates_by_onecounts(0, -1, 0, 0, fig_params)
        with pytest.raises(ValueError, match="whole numbers in \\[0, n\\] = \\[0, 10\\]"):
            dominates_by_onecounts(2.5, 3, 1, 2, fig_params)

    def test_exhaustive_equivalence_large_grid(self):
        # vectorised mirrors of both routes over the full one-count grid,
        # tied to the scalar functions on a random subsample; alpha and beta
        # live on each n's 1/n grid, where payoff arithmetic is exact
        rng = spawn_stream(22, 0)
        for n in (5, 10, 17):
            counts = np.arange(n + 1)
            cx1 = counts[:, None, None, None]
            cy1 = counts[None, :, None, None]
            cx2 = counts[None, None, :, None]
            cy2 = counts[None, None, None, :]
            grid = sorted({round(v * n) / n for v in (0.0, 0.3, 0.4, 0.6, 1.0)})
            for alpha in grid:
                for beta in grid:
                    params = BilinearParams(n=n, alpha=alpha, beta=beta, epsilon=1.0 / n)
                    bn, an = params.beta_n, params.alpha_n
                    g12 = cy2 * (cx1 - bn) - an * cx1
                    g11 = cy1 * (cx1 - bn) - an * cx1
                    g21 = cy1 * (cx2 - bn) - an * cx2
                    via_payoff = (g12 >= g11) & (g11 >= g21)
                    first = cy2 * (cx1 - bn) >= cy1 * (cx1 - bn)
                    second = cx1 * (cy1 - an) >= cx2 * (cy1 - an)
                    via_counts = first & second
                    assert np.array_equal(via_payoff, via_counts)
                    for _ in range(5):
                        q = rng.integers(0, n + 1, size=4)
                        assert via_counts[tuple(q)] == dominates_by_onecounts(*map(int, q), params)
                        assert via_payoff[tuple(q)] == dominates(
                            *(count_vector(int(c), n) for c in q), params)

    def test_antisymmetry_spot_check(self, fig_params):
        rng = spawn_stream(23, 0)
        both = 0
        for _ in range(10**4):
            cx1, cy1, cx2, cy2 = map(int, rng.integers(0, 11, size=4))
            fwd = dominates_by_onecounts(cx1, cy1, cx2, cy2, fig_params)
            bwd = dominates_by_onecounts(cx2, cy2, cx1, cy1, fig_params)
            if fwd and bwd:
                both += 1
                values = {
                    payoff_by_onecounts(cx1, cy2, fig_params),
                    payoff_by_onecounts(cx1, cy1, fig_params),
                    payoff_by_onecounts(cx2, cy1, fig_params),
                    payoff_by_onecounts(cx2, cy2, fig_params),
                }
                assert len(values) == 1
        assert both > 0  # ties do occur, and only ties


def exact_dominates(cx1, cy1, cx2, cy2, params):
    """Definition-2 dominance in rational arithmetic on the games' own
    alpha*n and beta*n: the three payoffs carry no rounding."""
    beta_n, alpha_n = Fraction(params.beta_n), Fraction(params.alpha_n)
    g = lambda cx, cy: cy * (cx - beta_n) - alpha_n * cx
    return g(cx1, cy2) >= g(cx1, cy1) >= g(cx2, cy1)


class TestDominanceTies:
    """Ties count as dominance whatever alpha*n and beta*n are.  Float
    payoffs lose such ties when one product is an integer and the other is
    not dyadic; neither the engine's dominance nor the payoff route may."""

    @pytest.mark.parametrize("n, alpha, beta, quad", [
        (4, 1.0, 0.1, (0, 4, 2, 0)),       # g11 = g21 = -1.6 exactly
        (100, 1.0, 0.033, (0, 100, 36, 0)),
    ])
    def test_named_tie_quadruples(self, n, alpha, beta, quad):
        params = BilinearParams(n=n, alpha=alpha, beta=beta, epsilon=1.0)
        assert exact_dominates(*quad, params)
        assert bool(BilinearGame(params).dominates_counts(*(np.array([c]) for c in quad))[0])
        assert dominates_by_onecounts(*quad, params)
        assert dominates(*(count_vector(c, n) for c in quad), params)

    def test_payoff_route_on_object_arrays_is_exact(self):
        # d = 2**51 here, so d * payoff overflows int64; object arrays of
        # Python ints keep the route exact
        n = 100
        params = BilinearParams(n=n, alpha=1.0, beta=0.033, epsilon=1.0)
        quads = spawn_stream(31, 0).integers(0, n + 1, size=(10_000, 4))
        quads = np.vstack([quads, [0, 100, 36, 0]])
        got = _dominates_by_payoffs(*quads.T.astype(object), params)
        assert got.dtype == bool and got[-1]
        vectors = [count_vector(c, n) for c in range(n + 1)]
        for quad, verdict in zip(quads.tolist(), got):
            assert verdict == exact_dominates(*quad, params)
            assert verdict == dominates(*(vectors[c] for c in quad), params)

    def test_engine_dominance_exact_on_all_small_quadruples(self):
        mismatches = 0
        for n in range(1, 7):
            counts = np.arange(n + 1)
            quads = np.stack(np.meshgrid(counts, counts, counts, counts, indexing="ij")).reshape(4, -1)
            for alpha, beta in product((1.0, 0.5), (0.1, 0.3, 0.033)):
                params = BilinearParams(n=n, alpha=alpha, beta=beta, epsilon=1.0)
                engine = BilinearGame(params).dominates_counts(*quads)
                exact = [exact_dominates(*map(int, q), params) for q in quads.T]
                mismatches += int((engine != np.array(exact)).sum())
        assert mismatches == 0

    def test_payoff_route_exact_on_all_small_quadruples(self):
        mismatches = 0
        for n in range(1, 7):
            vectors = [count_vector(c, n) for c in range(n + 1)]
            for alpha, beta in product((1.0, 0.5), (0.1, 0.3, 0.033)):
                params = BilinearParams(n=n, alpha=alpha, beta=beta, epsilon=1.0)
                for quad in product(range(n + 1), repeat=4):
                    got = dominates(*(vectors[c] for c in quad), params)
                    mismatches += got != exact_dominates(*quad, params)
        assert mismatches == 0



class CountingInt(int):
    """An int that counts the products it takes part in.  Only the payoff
    route's object path computes on its inputs' own Python ints."""

    products = 0

    def __mul__(self, other):
        CountingInt.products += 1
        return int(self) * other

    __rmul__ = __mul__


def payoff_route_path(quads, params):
    """`_dominates_by_payoffs` on the rows of a (k, 4) count array, given as
    object arrays of `CountingInt`: its verdicts and whether it computed in
    Python ints (the object path) rather than in int64."""
    CountingInt.products = 0
    verdicts = _dominates_by_payoffs(*np.frompyfunc(CountingInt, 1, 1)(quads).T, params)
    return verdicts, CountingInt.products > 0


class TestPayoffRouteIntegers:
    """The payoff route computes in int64 while its bound proves every
    intermediate exact, and in Python ints beyond; on either path it agrees
    with the rational definition and with the scalar `dominates`."""

    @pytest.mark.parametrize("n, alpha, beta, object_path", [
        *((10, alpha, beta, False) for alpha, beta in DOMINANCE_CHECK_GAMES),
        (10, 0.4, 0.33, False),   # d = 2**51, but the bound is 173 d < 2**62
        (100, 1.0, 0.033, True),  # d = 2**51, bound 20330 d
    ])
    def test_random_quadruples_on_either_path(self, n, alpha, beta, object_path):
        params = BilinearParams(n=n, alpha=alpha, beta=beta, epsilon=1.0)
        quads = spawn_stream(32, n).integers(0, n + 1, size=(1000, 4))
        quads[0] = n  # the bound reads the largest count
        verdicts, took_objects = payoff_route_path(quads, params)
        assert took_objects == object_path
        assert np.array_equal(verdicts, _dominates_by_payoffs(*quads.T, params))
        vectors = [count_vector(c, n) for c in range(n + 1)]
        for quad, verdict in zip(quads.tolist(), verdicts):
            assert verdict == exact_dominates(*quad, params)
            assert verdict == dominates(*(vectors[c] for c in quad), params)

    def test_int64_up_to_the_edge_of_the_bound(self):
        # d = 2**51, a = 100 d, b = 3.3 d: the largest count m = 17 bounds the
        # intermediates by 17 (17 + 3.3) d + 17 a = 2045.1 d < 2**62 = 2048 d,
        # and m = 18 by 2183.4 d
        params = BilinearParams(n=100, alpha=1.0, beta=0.033, epsilon=1.0)
        for m, object_path in ((17, False), (18, True)):
            quads = spawn_stream(33, m).integers(0, m + 1, size=(1000, 4))
            quads[0] = m
            verdicts, took_objects = payoff_route_path(quads, params)
            assert took_objects == object_path
            for quad, verdict in zip(quads.tolist(), verdicts):
                assert verdict == exact_dominates(*quad, params)


class TestCountSigns:
    """Dominance reads each count's sign against beta*n and alpha*n from two
    cached tables; the form must stay exact where float pivots could bite."""

    @pytest.mark.parametrize("alpha", [0.625, 0.5, 1.0])   # alpha*n = 7.5, 6, 12
    @pytest.mark.parametrize("beta", [0.275, 0.25, 0.0])   # beta*n = 3.3, 3, 0
    def test_sign_table_form_matches_exact_payoffs(self, alpha, beta):
        n = 12
        params = BilinearParams(n=n, alpha=alpha, beta=beta, epsilon=1.0)
        if beta == 0.275:  # the payoff route needs the 2**51 denominator here
            assert params.beta_n.as_integer_ratio()[1] == 2**51
        c = np.arange(n + 1)
        quads = np.meshgrid(c, c, c, c, indexing="ij")
        exact = _dominates_by_payoffs(*(q.astype(object) for q in quads), params)
        assert np.array_equal(_dominates_counts_arrays(*quads, params), exact.astype(bool))

    def test_tables_are_cached_and_read_only(self):
        params = BilinearParams(n=12, alpha=0.625, beta=0.275, epsilon=1.0)
        sx, sy = signs = _count_signs(params)
        assert _count_signs(params) is signs
        assert sx.tolist() == [-1] * 4 + [1] * 9
        assert sy.tolist() == [-1] * 8 + [1] * 5
        for table in signs:
            assert table.dtype == np.int64 and not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0


class TestGenomeLength:
    # every scalar entry point checks its genomes in one place, with one message
    ENTRY_POINTS = {
        "payoff": lambda v, ok, p: payoff(ok, v, p),
        "worst_case_f": lambda v, ok, p: worst_case_f(v, p),
        "dominates": lambda v, ok, p: dominates(ok, ok, ok, v, p),
        "classify_predator": lambda v, ok, p: classify_predator(v, 0, p),
        "classify_prey": lambda v, ok, p: classify_prey(v, 0, p),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("length", [5, 11])
    def test_wrong_length_rejected_with_one_message(self, fig_params, entry, length):
        # a 5-bit all-ones prey used to be classified S0 against n = 10
        with pytest.raises(ValueError, match=f"^genome length {length} does not match game n=10$"):
            self.ENTRY_POINTS[entry](BitVector.all_ones(length), BitVector.zeros(10), fig_params)


class TestRegions:
    def test_classify_predator_examples(self, fig_params):
        assert classify_predator(count_vector(0, 10), 0, fig_params) == "R0"
        assert classify_predator(count_vector(6, 10), 2, fig_params) == "R1"
        assert classify_predator(count_vector(9, 10), 2, fig_params) == "R2"

    def test_classify_prey_examples(self, fig_params):
        assert classify_prey(count_vector(10, 10), 1, fig_params) == "S0"
        assert classify_prey(count_vector(2, 10), 1, fig_params) == "S1"
        assert classify_prey(count_vector(0, 10), 1, fig_params) == "S2"

    def test_threshold_validation(self, fig_params):
        with pytest.raises(ValueError):
            classify_predator(count_vector(0, 10), 5, fig_params)  # k > (1-beta)n = 4
        with pytest.raises(ValueError):
            classify_prey(count_vector(0, 10), 4, fig_params)  # l >= alpha*n = 4

    def test_partitions_cover_exactly_once(self, fig_params):
        n = 10
        for k in range(0, 5):
            tags = [classify_predator(count_vector(c, n), k, fig_params) for c in range(n + 1)]
            r0 = sum(t == "R0" for t in tags)
            r1 = sum(t == "R1" for t in tags)
            r2 = sum(t == "R2" for t in tags)
            assert r0 + r1 + r2 == n + 1
            assert r0 == 6 and r2 == k + 1
        for l in range(0, 4):
            tags = [classify_prey(count_vector(c, n), l, fig_params) for c in range(n + 1)]
            assert sum(t == "S0" for t in tags) == 7
            assert sum(t == "S2" for t in tags) == l


class TestTarget:
    def test_all_ones_predators_never_hit(self, fig_params):
        assert not bilinear_target(fig_params)(np.array([10, 10, 10]), np.array([4, 4, 4]))

    def test_zero_predator_plus_band_prey_hits(self):
        params = BilinearParams(n=10, alpha=0.4, beta=0.6, epsilon=0.1)
        # ceil((alpha-epsilon)*n) = 3 < alpha*n = 4
        assert bilinear_target(params)(np.array([0, 9, 9]), np.array([3, 10, 10]))

    def test_empty_r0_when_beta_zero(self):
        params = BilinearParams(n=10, alpha=0.5, beta=0.0, epsilon=0.25)
        assert not bilinear_target(params)(np.array([0]), np.array([3]))


class TestIntransitivity:
    def verify(self, cycle, params):
        a, b, c, d = cycle
        dom = lambda u, v: dominates_by_onecounts(u[0], u[1], v[0], v[1], params)
        assert dom(a, b) and dom(b, c) and dom(c, d) and dom(d, a)
        assert not (dom(a, c) or dom(c, a) or dom(b, d) or dom(d, b))
        assert len({a, b, c, d}) == 4
        # same verdicts through the payoff route
        vec = lambda u: (count_vector(u[0], params.n), count_vector(u[1], params.n))
        assert dominates(*vec(a), *vec(b), params)
        assert not dominates(*vec(a), *vec(c), params)

    def test_witness_found_near_saddle(self):
        params = BilinearParams(n=20, alpha=0.4, beta=0.6, epsilon=0.05)
        cycle = intransitivity_witness(params)
        assert cycle is not None
        self.verify(cycle, params)

    def test_witness_other_sizes(self):
        for n, alpha, beta in ((30, 0.5, 0.5), (16, 0.25, 0.75)):
            params = BilinearParams(n=n, alpha=alpha, beta=beta, epsilon=1.0 / n)
            cycle = intransitivity_witness(params)
            assert cycle is not None
            self.verify(cycle, params)

    def test_degenerate_corner_games_have_no_cycle(self):
        # at the corners the relation loses its circulation; the exhaustive
        # fallback scans the full grid and reports not-found
        for alpha, beta in ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0)):
            params = BilinearParams(n=12, alpha=alpha, beta=beta, epsilon=1.0 / 12)
            assert intransitivity_witness(params) is None
