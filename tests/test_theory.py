import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from coevo import (
    chi_slack,
    error_threshold,
    spawn_stream,
    level_process_bound,
    solvable_regime_budget,
    recipe_mutation_rate,
)
from coevo.harness import run_checks
from coevo.theory import (
    check_exp_lower_bound,
    check_product_mgf,
    check_sqrt_bound,
    occupancy_law,
    _sqrt_sandwich_blocks,
)


class TestLevelProcessBound:
    def test_hand_arithmetic_example(self):
        out = level_process_bound(3, 10, 1.0, (0.5, 0.25), 2.0)
        # 2 * 10 / 1 * (3*100 + 16*(2 + 4)) = 7920
        assert out.value == 7920.0
        assert out.terms["level_term"] == 300.0
        assert out.terms["upgrade_term"] == 96.0

    def test_single_level_collapses_to_cubic(self):
        out = level_process_bound(1, 7, 0.5, (), 1.5)
        assert out.value == 1.5 * 7 / 0.5 * 7**2

    def test_doubling_z_halves_upgrade_term_only(self):
        a = level_process_bound(3, 10, 0.4, (0.2, 0.4), 2.0)
        b = level_process_bound(3, 10, 0.4, (0.4, 0.8), 2.0)
        assert b.terms["upgrade_term"] == a.terms["upgrade_term"] / 2
        assert b.terms["level_term"] == a.terms["level_term"]

    def test_monotonicities(self):
        v = level_process_bound(3, 10, 0.4, (0.2, 0.4), 2.0).value
        assert level_process_bound(3, 11, 0.4, (0.2, 0.4), 2.0).value > v
        assert level_process_bound(4, 10, 0.4, (0.2, 0.4, 0.5), 2.0).value > v
        assert level_process_bound(3, 10, 0.2, (0.2, 0.4), 2.0).value > v
        assert level_process_bound(3, 10, 0.4, (0.3, 0.4), 2.0).value < v

    def test_validation(self):
        with pytest.raises(ValueError):
            level_process_bound(3, 10, 0.4, (0.2,), 2.0)
        with pytest.raises(ValueError):
            level_process_bound(2, 10, 0.4, (0.0,), 2.0)
        with pytest.raises(ValueError, match="delta"):
            level_process_bound(2, 10, 1.4, (0.5,), 2.0)
        with pytest.raises(ValueError, match="c''"):
            level_process_bound(2, 10, 0.4, (0.5,), 1.0)
        with pytest.raises(ValueError, match="c''"):
            level_process_bound(2, 10, 0.4, (0.5,), math.nan)
        with pytest.raises(ValueError, match="z_i"):
            level_process_bound(2, 10, 0.4, (math.nan,), 2.0)
        with pytest.raises(ValueError, match="m and lambda"):
            level_process_bound(0, 10, 0.4)

    @pytest.mark.parametrize("delta, z, term", [
        (1e-320, (0.5,), "prefactor"), (0.5, (1e-320,), "upgrade_term"),
        (1e-300, (1e-300,), "value"),
    ])
    def test_overflow_names_the_term(self, delta, z, term):
        with pytest.raises(ValueError, match=f"the bound overflows: {term} = inf"):
            level_process_bound(2, 4, delta, z)

    @pytest.mark.parametrize("lam, term", [(10**160, "level_term"), (10**400, "prefactor")])
    def test_huge_integer_lambda_names_the_term(self, lam, term):
        # an integer too large for a float once ended in an OverflowError
        with pytest.raises(ValueError, match=f"the bound overflows: {term} = inf"):
            level_process_bound(2, lam, 0.5, (0.5,))

    @pytest.mark.parametrize("z", [(math.inf,), (2.5,), (1.0 + 1e-12,), (-0.5,)])
    def test_rejects_z_outside_unit_interval(self, z):
        # the floors are probabilities, the range LevelFunctionParams enforces
        with pytest.raises(ValueError, match=r"z_i must be in \(0, 1\]"):
            level_process_bound(2, 10, 0.4, z, 2.0)
        assert level_process_bound(2, 10, 0.4, (1.0,), 2.0).terms["upgrade_term"] == 16.0

    def test_rejects_infinite_cpp(self):
        # c'' = inf once priced the bound at inf
        with pytest.raises(ValueError, match="c'' must exceed 1 and be finite"):
            level_process_bound(2, 10, 0.4, (0.5,), math.inf)


class TestChiRecipe:
    def test_small_delta_limit(self):
        assert recipe_mutation_rate(1e-12) == pytest.approx(0.0120482, abs=1e-6)

    def test_delta_one_over_42(self):
        assert recipe_mutation_rate(1.0 / 42.0) == pytest.approx(0.0002837, abs=1e-6)
        assert recipe_mutation_rate(1.0 / 42.0) == pytest.approx(0.5 * math.log(42**2 / (41.0 * 43.0)))

    def test_positive_on_domain(self):
        for delta in (1e-9, 0.001, 0.01, 0.02, 1 / 41 - 1e-9):
            chi = recipe_mutation_rate(delta)
            assert 0.0 < chi <= 0.5 * math.log(42.0 / 41.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            recipe_mutation_rate(0.0)
        with pytest.raises(ValueError):
            recipe_mutation_rate(1.0 / 41.0)

    def test_chi_slack_inverts_recipe(self):
        for delta in (1e-6, 0.005, 0.02):
            assert chi_slack(recipe_mutation_rate(delta)) == pytest.approx(delta, rel=1e-9)


class TestSolvableRegimeBudget:
    def budget(self, **kw):
        base = dict(n=100, lam=100, chi=0.012, alpha=0.9, beta=0.05, epsilon=0.1)
        base.update(kw)
        return solvable_regime_budget(**base)

    @pytest.mark.parametrize("kw, term", [
        ({"chi": 1e-307}, "mutation_term = inf"), ({"r": 1e308}, "prefactor = inf"),
        ({"r": 1e300}, "value = inf"),
    ])
    def test_overflow_names_the_term(self, kw, term):
        with pytest.raises(ValueError, match=f"the bound overflows: {term}"):
            self.budget(**kw)

    @pytest.mark.parametrize("lam, term", [(10**160, "pop_term"), (10**400, "prefactor")])
    def test_huge_integer_lambda_names_the_term(self, lam, term):
        # an integer too large for a float once ended in an OverflowError
        with pytest.raises(ValueError, match=f"the bound overflows: {term} = inf"):
            self.budget(n=10, lam=lam, chi=0.005, epsilon=0.2)

    def test_recorded_reference_value(self):
        # frozen at build time from a direct evaluation of the formula
        out = self.budget()
        assert out.value == pytest.approx(3859635472968.752, rel=1e-12)

    def test_linear_in_r(self):
        one = self.budget(r=1.0).value
        five = self.budget(r=5.0).value
        assert five == pytest.approx(5 * one, rel=1e-12)

    def test_mutation_term_increases_as_chi_decreases(self):
        # the slack delta is locked to chi, so only the per-term claim is
        # well-posed: the mutation term scales like 1/chi
        hi = self.budget(chi=0.012)
        lo = self.budget(chi=0.002)
        assert lo.terms["mutation_term"] > hi.terms["mutation_term"]
        assert lo.terms["mutation_term"] == pytest.approx(
            hi.terms["mutation_term"] * 0.012 / 0.002, rel=1e-12)

    @pytest.mark.parametrize("field, value, message", [
        ("r", 0.0, "r must be positive"), ("r", -1.0, "r must be positive"),
        ("r", math.inf, "r must be positive and finite"), ("r", math.nan, "r must be positive"),
        ("n", 0, "n and lambda"), ("lam", 0, "n and lambda"), ("c_pp", 1.0, "c''"),
        ("c_pp", math.nan, "c''"), ("c_pp", math.inf, "c'' must exceed 1 and be finite"),
        ("chi", 0.0, "chi must be positive"),
        ("chi", -0.1, "chi must be positive"), ("chi", math.nan, "chi must be positive"),
    ])
    def test_rejects_out_of_range_scale(self, field, value, message):
        # each of these once priced a negative, zero, NaN or infinite budget,
        # or divided by zero
        with pytest.raises(ValueError, match=message):
            self.budget(**{field: value})

    def test_rejects_nonpositive_log_argument(self):
        with pytest.raises(ValueError):
            self.budget(beta=1.0, alpha=0.1, epsilon=0.2)
        with pytest.raises(ValueError):
            self.budget(beta=0.0)

    def test_rejects_chi_beyond_recipe_range(self):
        with pytest.raises(ValueError):
            self.budget(chi=0.5)  # implied slack would be negative


class TestErrorThreshold:
    def test_limit_is_ln2(self):
        assert error_threshold(1e-12) == pytest.approx(math.log(2.0))

    def test_quarter_gives_two_ln2(self):
        assert error_threshold(0.25) == pytest.approx(2 * math.log(2.0))

    def test_monotone_increasing(self):
        values = [error_threshold(d) for d in (0.01, 0.1, 0.2, 0.3, 0.4, 0.49)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v >= math.log(2.0) for v in values)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            error_threshold(0.0)
        with pytest.raises(ValueError):
            error_threshold(0.5)


class TestCalculatorsArePure:
    def test_bit_identical_reevaluation(self):
        rng = spawn_stream(60, 0)
        for _ in range(10):
            m = int(rng.integers(1, 8))
            lam = int(rng.integers(2, 50))
            delta = float(rng.uniform(0.05, 1.0))
            z = tuple(float(v) for v in rng.uniform(0.05, 1.0, size=m - 1))
            c_pp = 1.0 + float(rng.uniform(0.001, 2.0))
            assert (level_process_bound(m, lam, delta, z, c_pp).value
                    == level_process_bound(m, lam, delta, z, c_pp).value)
            d9 = float(rng.uniform(1e-6, 1 / 41 - 1e-6))
            assert recipe_mutation_rate(d9) == recipe_mutation_rate(d9)
            dt = float(rng.uniform(1e-6, 0.5 - 1e-6))
            assert error_threshold(dt) == error_threshold(dt)


class TestInequalityCheckers:
    def test_sqrt_bound_grid_clean(self):
        result = check_sqrt_bound()
        assert result.passed, result.detail
        assert "1000000 grid points" in result.detail

    def test_sqrt_bound_blocks_equal_the_plain_expressions(self):
        # the check's in-place blocks, bit for bit, on the check's own grid: a
        # buffer overwritten too early would still leave "0 violations"
        dds = []
        for dd, frac, mid, lower, upper in _sqrt_sandwich_blocks():
            d1 = dd * frac[None, :]
            assert np.array_equal(mid, 1.0 - np.sqrt((1.0 + d1) / (1.0 + dd)))
            assert np.array_equal(lower, (3.0 * dd - 4.0 * d1) / 11.0)
            assert np.array_equal(upper, (4.0 * dd - 3.0 * d1) / 8.0)
            dds.append(dd.ravel().copy())
        assert len(dds) == 20
        assert np.array_equal(np.concatenate(dds), (np.arange(1000) + 1.0) / 1001)
        assert np.array_equal(frac, np.arange(1000) / 1000.0)

    def test_sqrt_bound_degenerate_slice(self):
        # the zero lower-parameter slice: 3d/11 < 1 - 1/sqrt(1+d) < d/2
        for d in np.linspace(1e-4, 1 - 1e-4, 500):
            mid = 1.0 - 1.0 / math.sqrt(1.0 + d)
            assert 3.0 * d / 11.0 < mid < d / 2.0

    def test_exp_chain_grid_clean(self):
        result = check_exp_lower_bound()
        assert result.passed, result.detail

    def test_product_mgf_monte_carlo(self):
        # the check is an exact binomial sum: compare its first configuration
        # with scipy's pmf and with a Monte Carlo estimate
        result = check_product_mgf()
        assert result.passed, result.detail
        lam, p, q, z = 20, 0.9, 0.9, 0.5
        sigma = math.sqrt(p * q / z) - 1.0
        eta = sigma / ((1.0 + sigma) * lam)
        k = np.arange(lam + 1)
        exact = scipy.stats.binom.pmf(k, lam, p) @ np.exp(-eta * np.outer(k, k)) \
            @ scipy.stats.binom.pmf(k, lam, q)
        reported = float(result.detail.split("exact=")[1].split()[0])
        assert reported == pytest.approx(exact, rel=1e-5)
        rng = spawn_stream(5, 0)
        vals = np.exp(-eta * rng.binomial(lam, p, 10**5) * rng.binomial(lam, q, 10**5))
        assert abs(vals.mean() - exact) <= 6 * vals.std() / math.sqrt(10**5)

    def test_registered_suite(self):
        # the three checkers are registered one by one, in this order
        results = run_checks("inequalities")
        assert [r.name for r in results] == ["sqrt-sandwich", "exp-lower-bound", "product-mgf"]
        assert all(r.passed for r in results)


class TestOccupancyLaw:
    @staticmethod
    def rational_cell(seed):
        weights = [Fraction(int(w)) for w in spawn_stream(seed, 0).integers(0, 20, size=4) + 1]
        return np.array(weights, dtype=object).reshape(2, 2) / sum(weights)

    @pytest.mark.parametrize("lam", range(7))
    def test_matches_enumeration_of_all_cell_sequences(self, lam):
        cell = self.rational_cell(lam)
        want = np.zeros((lam + 1, lam + 1), dtype=object)
        for seq in itertools.product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=lam):
            x, y = (sum(draw[side] for draw in seq) for side in (0, 1))
            want[x, y] += math.prod((cell[draw] for draw in seq), start=Fraction(1))
        got = occupancy_law(cell, lam)
        assert got.shape == want.shape and (got == want).all()

    def test_marginals_are_binomial(self):
        cell = np.array([[0.1, 0.25], [0.3, 0.35]])  # P(in A) = 0.65, P(in B) = 0.6
        law = occupancy_law(cell, 17)
        k = np.arange(18)
        np.testing.assert_allclose(law.sum(axis=1), scipy.stats.binom.pmf(k, 17, 0.65),
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(law.sum(axis=0), scipy.stats.binom.pmf(k, 17, 0.6),
                                   rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("lam", [1, 2, 9])
    def test_product_mean(self, lam):
        # E[XY] = lambda p11 + lambda (lambda-1) pA pB, exactly
        cell = self.rational_cell(100 + lam)
        k = np.arange(lam + 1)
        p_a, p_b = cell[1].sum(), cell[:, 1].sum()
        assert (occupancy_law(cell, lam) * np.outer(k, k)).sum() == \
            lam * cell[1, 1] + lam * (lam - 1) * p_a * p_b
