"""Exact absorbing chain of the pairwise-dominance process on histogram pairs:
the exact side of the engine's hit-time tests.  Nothing outside the tests
uses it.

The next generation's law depends only on the two one-count histograms
(Kemeny & Snell, *Finite Markov Chains*, lumpability).  One offspring pair
is the selected pair, whose law is `levels.winner_table` (W, out of
lambda^4 draws), with each side mutated by the rows M of
`pdcoea._offspring_cdf`; so its law is M^T W M / lambda^4, and the lambda
offspring pairs are i.i.d. draws from it.  A state is a pair of histograms,
C(n+lambda, lambda)^2 of them; a transition is the multinomial over the
lambda draws, lumped onto the two marginal histograms.  The start is two
independent samples of lambda i.i.d. Bin(n, 1/2) one-counts.

T is the first generation whose state satisfies the target, checked from
t = 0 on, as `run_trial` does.
"""

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from coevo.levels import winner_table
from coevo.pdcoea import _offspring_cdf


@functools.lru_cache(maxsize=4)
def _mutation_law(n: int, chi: float) -> np.ndarray:
    """(n+1, n+1) matrix whose row c is the offspring one-count pmf of parent count c."""
    return np.diff(_offspring_cdf(n, chi), axis=1, prepend=0.0)


def offspring_pair_law(cx, cy, params, chi):
    """(n+1, n+1) law of one offspring pair's (predator, prey) one-counts."""
    mutation = _mutation_law(params.n, chi)
    return mutation.T @ winner_table(cx, cy, params) @ mutation / len(cx)**4


def _state(sides, s: int):
    """The one-counts (predators, prey) of state s = pred * len(sides) + prey."""
    return sides[s // len(sides)], sides[s % len(sides)]


def _orderings(multiset) -> int:
    """Sequences with the same multiset of entries: len! / prod(multiplicity!)."""
    return math.factorial(len(multiset)) // math.prod(
        math.factorial(multiset.count(v)) for v in set(multiset))


@dataclass(frozen=True)
class ExactChain:
    """Transition matrix and start law over histogram-pair states."""

    n: int
    lam: int
    sides: list             # sorted one-count tuples of one population
    transition: np.ndarray  # (S, S) with S = len(sides)**2, state = pred * len(sides) + prey
    start: np.ndarray       # (S,) initial law

    def absorbing(self, target) -> np.ndarray:
        # every state at once, as the rows of a batch of runs
        sides, s = np.array(self.sides), np.arange(self.start.size)
        return target(sides[s // len(sides)], sides[s % len(sides)])

    def hit_law(self, target, budget: int):
        """P(T = t) for t = 0 .. budget-1, and P(T >= budget)."""
        hit = self.absorbing(target)
        into = self.transition[np.ix_(~hit, hit)].sum(axis=1)
        stay = self.transition[np.ix_(~hit, ~hit)]
        alive = self.start[~hit]
        pmf = [self.start[hit].sum()]
        for _ in range(budget - 1):
            pmf.append(alive @ into)
            alive = alive @ stay
        return np.array(pmf), float(alive.sum())

    def mean_time(self, target) -> float:
        """E[T] from the fundamental matrix (I - Q)^-1 of the transient states."""
        live = ~self.absorbing(target)
        fundamental = -self.transition[np.ix_(live, live)]
        fundamental[np.diag_indices_from(fundamental)] += 1.0
        return float(self.start[live] @ np.linalg.solve(fundamental, np.ones(live.sum())))


def build_chain(params, lam: int, chi: float) -> ExactChain:
    """The exact chain of the process on game `params` with lambda = lam at rate chi."""
    n = params.n
    sides = list(combinations_with_replacement(range(n + 1), lam))
    index = {side: i for i, side in enumerate(sides)}
    h = len(sides)
    # every multiset of lambda offspring pairs, as flat cells pred * (n+1) + prey
    draws = list(combinations_with_replacement(range((n + 1) ** 2), lam))
    weight = np.array([_orderings(d) for d in draws], dtype=np.float64)
    dest = np.array([index[tuple(sorted(c // (n + 1) for c in d))] * h
                     + index[tuple(sorted(c % (n + 1) for c in d))] for d in draws])
    columns = np.array(draws).T
    transition = np.empty((h * h, h * h))
    for s in range(h * h):
        law = offspring_pair_law(*_state(sides, s), params, chi)
        probs = functools.reduce(np.multiply, law.ravel()[columns], weight)
        transition[s] = np.bincount(dest, weights=probs, minlength=h * h)
    binomial = np.array([math.comb(n, c) for c in range(n + 1)]) / 2.0**n
    side_law = np.array([_orderings(side) * binomial[list(side)].prod() for side in sides])
    return ExactChain(n, lam, sides, transition, np.outer(side_law, side_law).ravel())
