"""Exact selection by enumerating all lambda^4 draws: the slow reference side
of the closed-form selection law's equivalence tests, plus `select_slots`,
the engine's selection step on its own for Monte-Carlo tests.  Nothing
outside the tests uses it.  The reference laws take the predators' and the
prey's one-count arrays of one state, as the closed forms do.

Every ordered draw (i1, k1, i2, k2) of predator and prey slots is equally
likely; the engine's own tie rule (the oracle's `dominates_counts`, the
second pair wins when the first does not dominate) picks the winner of each.
"""

from fractions import Fraction

import numpy as np

from coevo import BilinearGame


def winner_slots(cx, cy, oracle, idx):
    """Winner (predator, prey) slot indices of the drawn pairs idx, a
    (count, 4) array of slots (i1, k1, i2, k2), by the engine's tie rule."""
    win1 = oracle.dominates_counts(cx[idx[:, 0]], cy[idx[:, 1]], cx[idx[:, 2]], cy[idx[:, 3]])
    return np.where(win1, idx[:, 0], idx[:, 2]), np.where(win1, idx[:, 1], idx[:, 3])


def select_slots(pops, oracle, rng, count):
    """Winner (predator, prey) slots of `count` independent selections, with
    the engine's draws: one (count, 4) block of slot integers from `rng`."""
    idx = rng.integers(0, pops.lam, size=(count, 4))
    return winner_slots(pops.predators.ones, pops.prey.ones, oracle, idx)


def draw_grid(lam):
    """All lambda^4 ordered draws as a (lambda^4, 4) slot-index array."""
    grids = np.meshgrid(*([np.arange(lam)] * 4), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def enumerate_winners(cx, cy, params):
    """Winning (predator slot, prey slot) of every draw."""
    return winner_slots(cx, cy, BilinearGame(params), draw_grid(len(cx)))


def winner_table(cx, cy, params):
    """Draws (out of lambda^4) won by each (predator count, prey count)."""
    pred_slots, prey_slots = enumerate_winners(cx, cy, params)
    table = np.zeros((params.n + 1, params.n + 1), dtype=np.int64)
    np.add.at(table, (cx[pred_slots], cy[prey_slots]), 1)
    return table


def slot_rates(cx, cy, params):
    """Per-slot selection probabilities, predators then prey."""
    pred_slots, prey_slots = enumerate_winners(cx, cy, params)
    lam = len(cx)
    return tuple(tuple(Fraction(int(c), lam**4) for c in np.bincount(slots, minlength=lam))
                 for slots in (pred_slots, prey_slots))


def region_probability(cx, cy, params, pred_x=None, pred_y=None):
    """Probability that the winner's counts satisfy both vectorised predicates."""
    pred_slots, prey_slots = enumerate_winners(cx, cy, params)
    ok = np.ones(pred_slots.shape, dtype=bool)
    if pred_x is not None:
        ok &= pred_x(cx[pred_slots])
    if pred_y is not None:
        ok &= pred_y(cy[prey_slots])
    return Fraction(int(ok.sum()), len(cx)**4)


def half_prob_conditionals(cx, cy, params):
    """The four conditional dominance probabilities of `coevo.levels`, by
    counting the dominating draws inside each conditioning event."""
    idx = draw_grid(len(cx))
    cx1, cy1, cx2, cy2 = cx[idx[:, 0]], cy[idx[:, 1]], cx[idx[:, 2]], cy[idx[:, 3]]
    dom = BilinearGame(params).dominates_counts(cx1, cy1, cx2, cy2)
    bn, an = params.beta_n, params.alpha_n
    events = (
        (cy1 <= cy2) & (cx1 > bn) & (cx2 > bn),
        (cy1 >= cy2) & (cx1 < bn) & (cx2 < bn),
        (cx1 >= cx2) & (cy1 > an) & (cy2 > an),
        (cx1 <= cx2) & (cy1 < an) & (cy2 < an),
    )
    return tuple(Fraction(int((dom & e).sum()), int(e.sum())) if e.any() else None
                 for e in events)
