"""The engine's hit generations against the exact absorbing chain.

`exact_chain` gives the exact law of the hit generation T at tiny sizes.  A
one-sample Pearson test of `run_trial`'s hit generations, binned over t with
the budget as a censoring bin, checks the whole engine against it: the
selection, the mutation, the start and the convention that the target is
checked at t = 0.  It compares laws, not bytes, so it holds for any draw order.
"""

import numpy as np
import pytest
import scipy.stats

from coevo import BilinearParams, PdcoeaConfig, pdcoea, run_trial
from coevo.bilinear import bilinear_target
from coevo.levels import winner_table
from coevo.pdcoea import singleton_target

from exact_chain import build_chain, offspring_pair_law

TRIALS = 300
SMALL = BilinearParams(n=5, alpha=1.0, beta=0.1, epsilon=0.2)   # lambda = 3: 3136 states
WIDE = BilinearParams(n=6, alpha=0.9, beta=0.05, epsilon=0.2)   # lambda = 2: 784 states


def corner(n):
    """The reachable singleton target: an all-zeros predator and an all-ones prey."""
    return singleton_target(0, n, n)


@pytest.fixture(scope="module")
def small_chain():
    return build_chain(SMALL, 3, 0.7)


def hit_p_value(chain, params, chi, target, budget):
    """p-value of Pearson's test of TRIALS engine runs (seeds 0, 1, ...)
    against the chain's exact law of T.

    Consecutive generations are merged until a bin expects an eighth of the
    hits (at least 5); a short tail joins the last bin, and the runs censored
    at the budget form one more bin.
    """
    pmf, censored = chain.hit_law(target, budget)
    records = [run_trial(PdcoeaConfig(lam=chain.lam, chi=chi, seed=seed, budget_generations=budget,
                                      game=params, target=target))
               for seed in range(TRIALS)]
    hits = np.bincount([r.generations_run for r in records if r.hit], minlength=budget)
    least = max(5.0, TRIALS * pmf.sum() / 8)
    edges = [0]
    for t in range(1, budget + 1):
        if TRIALS * pmf[edges[-1]:t].sum() >= least:
            edges.append(t)
    edges = edges[:-1] if len(edges) > 1 else edges
    edges.append(budget)
    observed = [hits[a:b].sum() for a, b in zip(edges, edges[1:])] + [TRIALS - hits.sum()]
    expected = [TRIALS * pmf[a:b].sum() for a, b in zip(edges, edges[1:])] + [TRIALS * censored]
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    return scipy.stats.chi2.sf(stat, len(observed) - 1)


class TestChain:
    def test_laws_are_distributions(self, small_chain):
        np.testing.assert_allclose(small_chain.transition.sum(axis=1), 1.0, atol=1e-12)
        assert small_chain.transition.shape == (3136, 3136)
        assert small_chain.start.sum() == pytest.approx(1.0, abs=1e-12)

    def test_offspring_pair_law_without_mutation_is_the_selection_law(self, fig_params):
        state = [0, 3, 3, 9], [2, 5, 7, 10]
        np.testing.assert_allclose(offspring_pair_law(*state, fig_params, 0.0),
                                   winner_table(*state, fig_params) / 4**4, atol=1e-15)

    def test_exact_mean_hit_times(self, small_chain):
        # E[T] in generations, as the first standalone prototype of this chain computed it
        assert small_chain.mean_time(bilinear_target(SMALL)) == pytest.approx(33.6292, abs=1e-4)
        wide = build_chain(WIDE, 2, 0.7)
        assert wide.mean_time(bilinear_target(WIDE)) == pytest.approx(202.4972, abs=1e-4)


class TestEngineHitTimes:
    def test_bilinear_target(self, small_chain):
        assert hit_p_value(small_chain, SMALL, 0.7, bilinear_target(SMALL), 100) > 1e-3

    def test_singleton_target(self, small_chain):
        assert hit_p_value(small_chain, SMALL, 0.7, corner(5), 60) > 1e-3

    def test_mostly_censored_high_chi(self):
        # chi = n/2 flips each bit with probability 1/2: offspring are uniform
        # strings, and most runs never meet the singleton within the budget
        chain = build_chain(WIDE, 2, 3.0)
        _, censored = chain.hit_law(corner(6), 50)
        assert censored > 0.9
        assert hit_p_value(chain, WIDE, 3.0, corner(6), 50) > 1e-3

    def test_rejects_a_wrong_selection(self, small_chain, monkeypatch):
        # keeping the first drawn pair always is uniform selection, which
        # the exact law of pairwise dominance tells apart
        monkeypatch.setattr(pdcoea.BilinearGame, "dominates_counts",
                            lambda self, cx1, *_: np.ones(len(cx1), dtype=bool))
        assert hit_p_value(small_chain, SMALL, 0.7, bilinear_target(SMALL), 100) < 1e-6
