"""Level structure over the product of the two populations.

A level is a pair (A_j, B_j) of one-count interval predicates; the occupancy
statistic of a level is |(P x Q) cap (A_j x B_j)|, and the current level of a
state is the largest index holding at least a gamma0 fraction of the lambda^2
population pairs.  Level 1 is always the full product space, so the current
level is well defined.

This module also houses the exact selection-distribution oracle (full
enumeration of the lambda^4 equally likely draw combinations), the fraction
statistics p0 / p(k) / q0 / q(l), exact checkers for the selection growth
inequalities, and the reference drift-potential construction used to bound
the process from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bilinear import BilinearGame, BilinearParams, _dominates_counts_arrays
from .core import PairedPopulations
from .pdcoea import _winner_mask

ENUMERATION_CAP = 12


class EnumerationCapError(ValueError):
    """Raised when a population is too large for exact lambda^4 enumeration."""


# ---------------------------------------------------------------------------
# Level sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountInterval:
    """Half-open one-count interval [lo, hi); decides membership from ones()."""

    lo: float
    hi: float

    def contains(self, c) -> bool:
        return bool(self.lo <= c < self.hi)

    def count(self, ones_array: np.ndarray) -> int:
        return int(((ones_array >= self.lo) & (ones_array < self.hi)).sum())


@dataclass(frozen=True)
class LevelSequence:
    """Ordered levels (A_j, B_j), 1-based; level 1 covers everything."""

    levels: tuple
    m1: int
    m2: int
    _bounds: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.levels)

    def count_bounds(self, n: int):
        """Integer (lo, hi) bounds of every level's intervals, for genomes of length n.

        An integer count c satisfies lo <= c < hi exactly when
        ceil(lo) <= c < ceil(hi).  Bounds are clipped to [0, n+1] and hi is
        raised to at least lo, so an empty interval counts 0.  Returns the
        predator and prey bounds as int arrays of shape (m, 2), cached per n.
        """
        bounds = self._bounds.get(n)
        if bounds is None:
            raw = np.array([[[a.lo, a.hi], [b.lo, b.hi]] for a, b in self.levels], dtype=float)
            idx = np.clip(np.ceil(raw), 0, n + 1).astype(np.int64)
            idx[..., 1] = np.maximum(idx[..., 1], idx[..., 0])
            idx.setflags(write=False)
            bounds = self._bounds[n] = (idx[:, 0], idx[:, 1])
        return bounds

    def __getitem__(self, j: int):
        """Level at 1-based index j."""
        if not 1 <= j <= self.m:
            raise IndexError(f"level index {j} outside [1, {self.m}]")
        return self.levels[j - 1]


def build_bilinear_levels(params: BilinearParams) -> LevelSequence:
    """Two-phase level sequence toward the epsilon-approximation target.

    Level 1 is the full product space.  The descent phase tightens the
    predator one-count ceiling one step per level while prey stay below the
    target band; the ascent phase keeps predators below beta*n and raises the
    prey floor to the target band.  The final level's prey floor uses the
    exact value (alpha - epsilon)*n so that membership in the last level is
    the same predicate as the run target; interior floors use the integer
    grid (the thresholds coincide whenever the products are integral).
    """
    n = params.n
    if params.target_lo < 0:
        raise ValueError("alpha < epsilon: prey target band is empty")
    if params.alpha_n <= 0:
        raise ValueError("alpha*n must be positive to define prey levels")
    m1 = int(math.floor(n - params.beta_n)) + 1
    m2 = int(math.floor(params.target_lo)) + 1

    full = CountInterval(0.0, float(n + 1))
    below_band = CountInterval(0.0, params.target_lo)
    in_r0 = CountInterval(0.0, params.beta_n)

    levels = [(full, full)]
    for j in range(1, m1):
        levels.append((CountInterval(0.0, float(n - j)), below_band))
    for j in range(m2):
        lo = params.target_lo if j == m2 - 1 else float(j)
        levels.append((in_r0, CountInterval(lo, params.alpha_n)))
    return LevelSequence(tuple(levels), m1=m1, m2=m2)


def pairs_in_level(pops: PairedPopulations, level) -> int:
    """|(P x Q) cap (A x B)| = (#P in A) * (#Q in B); ranges [0, lambda^2]."""
    a, b = level
    return a.count(pops.predators.ones) * b.count(pops.prey.ones)


def _interval_counts(ones: np.ndarray, bounds: np.ndarray, n: int) -> np.ndarray:
    """Members inside each [lo, hi) bound pair, from one histogram prefix sum."""
    below = np.zeros(n + 2, dtype=np.int64)  # below[k] = #{members with c < k}
    np.cumsum(np.bincount(ones, minlength=n + 1), out=below[1:])
    inside = below[bounds]
    return inside[:, 1] - inside[:, 0]


def current_level(pops: PairedPopulations, seq: LevelSequence, gamma0: float) -> int:
    """Largest 1-based j whose level holds at least gamma0 * lambda^2 pairs.

    Every level's pair count is (#P in A_j) * (#Q in B_j); both factors come
    from prefix sums over the one-count histograms, O(n + m) numpy work.
    """
    if not 0.0 < gamma0 < 1.0:
        raise ValueError(f"gamma0 must be in (0, 1), got {gamma0}")
    threshold = gamma0 * pops.lam**2
    n = pops.n
    pred_bounds, prey_bounds = seq.count_bounds(n)
    pairs = (_interval_counts(pops.predators.ones, pred_bounds, n)
             * _interval_counts(pops.prey.ones, prey_bounds, n))
    held = np.flatnonzero(pairs >= threshold)
    return int(held[-1]) + 1 if held.size else 1


# ---------------------------------------------------------------------------
# Fraction statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractionStats:
    """Exact population fractions in R0, R1(k), S0, S1(l) (rationals over lambda)."""

    p0: Fraction
    p_k: Fraction
    q0: Fraction
    q_l: Fraction
    lam: int


def fraction_stats(pops: PairedPopulations, k: int, l: int,
                   params: BilinearParams) -> FractionStats:
    n = params.n
    if not 0 <= k <= (1.0 - params.beta) * n + 1e-9:
        raise ValueError(f"k={k} outside [0, (1-beta)n]")
    if not 0 <= l < params.alpha_n:
        raise ValueError(f"l={l} outside [0, alpha*n)")
    cx = pops.predators.ones
    cy = pops.prey.ones
    lam = pops.lam
    return FractionStats(
        p0=Fraction(int((cx < params.beta_n).sum()), lam),
        p_k=Fraction(int(((cx >= params.beta_n) & (cx < n - k)).sum()), lam),
        q0=Fraction(int((cy >= params.alpha_n).sum()), lam),
        q_l=Fraction(int(((cy >= l) & (cy < params.alpha_n)).sum()), lam),
        lam=lam,
    )


# ---------------------------------------------------------------------------
# Exact selection distribution
# ---------------------------------------------------------------------------

def _draw_grids(lam: int):
    """All lambda^4 ordered draw combinations as flat index arrays."""
    i1, k1, i2, k2 = np.meshgrid(*([np.arange(lam)] * 4), indexing="ij")
    return np.stack([i1.ravel(), k1.ravel(), i2.ravel(), k2.ravel()], axis=1)


def _enumerate_winners(pops: PairedPopulations, oracle, cap: int):
    lam = pops.lam
    if lam > cap:
        raise EnumerationCapError(
            f"lambda={lam} exceeds the exact enumeration cap {cap} "
            f"({lam}^4 = {lam**4} outcomes); fall back to Monte Carlo"
        )
    idx = _draw_grids(lam)
    win1 = _winner_mask(pops, oracle, idx)
    pred_slots = np.where(win1, idx[:, 0], idx[:, 2])
    prey_slots = np.where(win1, idx[:, 1], idx[:, 3])
    return pred_slots, prey_slots


def exact_selection_distribution(pops: PairedPopulations, oracle, member,
                                 cap: int = ENUMERATION_CAP) -> Fraction:
    """Exact probability that one pairwise-dominance selection lands in a set.

    `member(cx, cy)` decides membership of a (predator, prey) pair from
    their one-counts.  All lambda^2 x lambda^2 ordered draw combinations are
    enumerated with equal weight, applying the selection tie rule (second
    pair wins when the first does not dominate); the result is an exact
    rational.
    """
    lam = pops.lam
    pred_slots, prey_slots = _enumerate_winners(pops, oracle, cap)
    cx, cy = pops.predators.ones.tolist(), pops.prey.ones.tolist()
    member_grid = np.array([[bool(member(a, b)) for b in cy] for a in cx])
    hits = int(member_grid[pred_slots, prey_slots].sum())
    return Fraction(hits, lam**4)


def selection_slot_rates(pops: PairedPopulations, oracle, cap: int = ENUMERATION_CAP):
    """Exact per-slot selection probabilities (predator slots, prey slots).

    The per-generation reproductive rate of slot i is lambda times its entry.
    """
    lam = pops.lam
    pred_slots, prey_slots = _enumerate_winners(pops, oracle, cap)
    total = lam**4
    pred = tuple(Fraction(int(c), total) for c in np.bincount(pred_slots, minlength=lam))
    prey = tuple(Fraction(int(c), total) for c in np.bincount(prey_slots, minlength=lam))
    return pred, prey


def half_prob_conditionals(pops: PairedPopulations, params: BilinearParams,
                           cap: int = ENUMERATION_CAP):
    """The four conditional dominance probabilities, exactly.

    Conditions on the two uniform draws (x1, y1), (x2, y2):

      1. ||y1|| <= ||y2||, ||x1|| > beta*n, ||x2|| > beta*n
      2. ||y1|| >= ||y2||, ||x1|| < beta*n, ||x2|| < beta*n
      3. ||x1|| >= ||x2||, ||y1|| > alpha*n, ||y2|| > alpha*n
      4. ||x1|| <= ||x2||, ||y1|| < alpha*n, ||y2|| < alpha*n

    Returns a 4-tuple of Fractions (probability that the first pair dominates
    given the condition), with None where the conditioning event is null.
    Each non-null entry is at least 1/2.
    """
    lam = pops.lam
    if lam > cap:
        raise EnumerationCapError(f"lambda={lam} exceeds the exact enumeration cap {cap}")
    idx = _draw_grids(lam)
    cx1 = pops.predators.ones[idx[:, 0]]
    cy1 = pops.prey.ones[idx[:, 1]]
    cx2 = pops.predators.ones[idx[:, 2]]
    cy2 = pops.prey.ones[idx[:, 3]]
    dom = _dominates_counts_arrays(cx1, cy1, cx2, cy2, params)
    bn, an = params.beta_n, params.alpha_n
    events = (
        (cy1 <= cy2) & (cx1 > bn) & (cx2 > bn),
        (cy1 >= cy2) & (cx1 < bn) & (cx2 < bn),
        (cx1 >= cx2) & (cy1 > an) & (cy2 > an),
        (cx1 <= cx2) & (cy1 < an) & (cy2 < an),
    )
    out = []
    for event in events:
        denom = int(event.sum())
        out.append(Fraction(int((dom & event).sum()), denom) if denom else None)
    return tuple(out)


# ---------------------------------------------------------------------------
# Selection growth inequalities (exact checks)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthLemmaReport:
    """Result of one exact growth check: measured selection ratio vs bound."""

    case: int
    hypotheses_met: bool
    note: str
    ratio: Fraction | None = None
    bound: Fraction | None = None
    passed: bool | None = None


def _psel_counts(pops, params, pred_x=None, pred_y=None, cap=ENUMERATION_CAP) -> Fraction:
    """Exact selection probability of a one-count-defined region product."""
    lam = pops.lam
    pred_slots, prey_slots = _enumerate_winners(pops, BilinearGame(params), cap)
    ok = np.ones(pred_slots.shape, dtype=bool)
    if pred_x is not None:
        ok &= pred_x(pops.predators.ones[pred_slots])
    if pred_y is not None:
        ok &= pred_y(pops.prey.ones[prey_slots])
    return Fraction(int(ok.sum()), lam**4)


def check_growth_lemmas(case: int, pops: PairedPopulations, params: BilinearParams,
                        k: int = 0, l: int = 0, delta1=None, rho=None,
                        cap: int = ENUMERATION_CAP) -> GrowthLemmaReport:
    """Exact check of one selection growth inequality (cases 15 through 19).

    The measured quantity is a ratio of selection probability to uniform
    probability for the region product named by the case; both sides are
    exact rationals, and `passed` records ratio >= bound.  Populations that
    fail the case's hypotheses yield hypotheses_met=False with no assertion.

    Case 15 and 16 bound the product (sel/unif ratio over R0) x (ratio over
    S1(l)); case 17 bounds the R0 ratio alone, case 18 the S1(l) ratio alone,
    and case 19 the ratio over R0 u R1(k).  delta1 parameterises case 15,
    rho cases 16 and 19 (pass rationals, e.g. Fraction or '2/5').
    """
    if case not in (15, 16, 17, 18, 19):
        raise ValueError(f"unknown growth case {case}")
    stats = fraction_stats(pops, k, l, params)
    p0, p, q0, q = stats.p0, stats.p_k, stats.q0, stats.q_l
    bn, an = params.beta_n, params.alpha_n
    n = params.n

    in_r0 = lambda c: c < bn
    in_s1 = lambda c: (c >= l) & (c < an)
    in_r01 = lambda c: c < n - k

    def ratio_r0():
        return _psel_counts(pops, params, pred_x=in_r0, cap=cap) / p0

    def ratio_s1():
        return _psel_counts(pops, params, pred_y=in_s1, cap=cap) / q

    if case == 15:
        d1 = Fraction(delta1)
        if not (0 < d1 < 1 and Fraction(1, 3) < p0 < 1 - d1):
            return GrowthLemmaReport(15, False, f"needs 1/3 < p0 < 1-delta1, got p0={p0}")
        if q == 0:
            return GrowthLemmaReport(15, False, "needs q(l) > 0 for the S1 ratio")
        ratio = ratio_r0() * ratio_s1()
        bound = 1 + min(d1 / 2 - 8 * q0, Fraction(1, 10) - 12 * q0)
    elif case == 16:
        r = Fraction(rho)
        if not (0 < r < 1 and p0 * q < 1 - r and p0 >= 1 - r / 10 and q0 < r / 90):
            return GrowthLemmaReport(
                16, False, f"needs p0*q < 1-rho, p0 >= 1-rho/10, q0 < rho/90; got p0={p0} q={q} q0={q0}")
        if q == 0 or p0 == 0:
            return GrowthLemmaReport(16, False, "needs p0 > 0 and q(l) > 0")
        ratio = ratio_r0() * ratio_s1()
        bound = 1 + (r / 300) * (40 - r * (17 - r))
    elif case == 17:
        if p0 == 0:
            return GrowthLemmaReport(17, False, "needs p0 > 0 for the R0 ratio")
        ratio = ratio_r0()
        bound = Fraction(1, 2) * ((3 + q0) * (1 - q0) - p0 * (1 - q0 * (2 + q0)))
    elif case == 18:
        if q == 0:
            return GrowthLemmaReport(18, False, "needs q(l) > 0 for the S1 ratio")
        ratio = ratio_s1()
        bound = Fraction(3, 2) * (2 - p0) * p0 * (1 - q) + q - 4 * q0
    else:  # case 19
        r = Fraction(rho)
        # q0 <= sqrt(2(1-rho)) - 1, compared exactly as (q0+1)^2 <= 2(1-rho)
        if not (0 < r < 1 and (q0 + 1) ** 2 <= 2 * (1 - r)):
            return GrowthLemmaReport(19, False, f"needs q0 <= sqrt(2(1-rho))-1, got q0={q0}")
        if p0 + p == 0:
            return GrowthLemmaReport(19, False, "needs p0 + p(k) > 0")
        ratio = _psel_counts(pops, params, pred_x=in_r01, cap=cap) / (p0 + p)
        bound = 1 + r * (1 - p - p0)

    return GrowthLemmaReport(case, True, "", ratio=ratio, bound=bound, passed=ratio >= bound)


# ---------------------------------------------------------------------------
# Level functions (drift potentials)
# ---------------------------------------------------------------------------

def validate_level_function(g, lam: int, m: int) -> bool:
    """Exhaustive check of the three level-function conditions on the grid.

    g must be total on [0..lambda^2] x [1..m].  Conditions: non-increasing in
    the level index, non-increasing in the count, and g(lambda^2, j) >=
    g(0, j+1) so levels glue together.
    """
    top = lam * lam
    grid = np.array([[float(g(k, j)) for j in range(1, m + 1)] for k in range(top + 1)])
    cond1 = bool((grid[:, :-1] >= grid[:, 1:]).all()) if m > 1 else True
    cond2 = bool((grid[:-1, :] >= grid[1:, :]).all()) if top > 0 else True
    cond3 = bool((grid[top, :-1] >= grid[0, 1:]).all()) if m > 1 else True
    return cond1 and cond2 and cond3


@dataclass(frozen=True)
class LevelFunctionParams:
    """Parameters of the reference drift potential.

    eta must sit in the window (3*delta/(11*lambda), delta/(2*lambda)) for
    the target slack delta; the per-level success floors z_j map to
    q_j = lambda*z_j / (4 + lambda*z_j) in (0, 1).
    """

    eta: float
    phi: float
    z: tuple
    lam: int
    m: int

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if not 0.0 < self.phi < 1.0:
            raise ValueError("phi must be in (0, 1)")
        if len(self.z) != self.m - 1:
            raise ValueError(f"need m-1 = {self.m - 1} z values, got {len(self.z)}")
        if any(not 0.0 < zi <= 1.0 for zi in self.z):
            raise ValueError("every z_i must be in (0, 1]")
        if self.lam < 1 or self.m < 1:
            raise ValueError("lambda and m must be positive")

    @property
    def q(self) -> tuple:
        return tuple(self.lam * zi / (4.0 + self.lam * zi) for zi in self.z)


def eta_window(delta: float, lam: int):
    """Admissible (lo, hi) range for eta at slack delta and population lambda."""
    return 3.0 * delta / (11.0 * lam), delta / (2.0 * lam)


def reference_g1_g2(params: LevelFunctionParams):
    """The two summands of the reference drift potential, as (k, j) evaluators.

    g1 decreases linearly in both arguments with exact equality
    g1(lambda^2, j) = g1(0, j+1); g2 adds an exponential pull toward
    occupying the next level, with the empty-sum convention at j = m-1 and
    g2(., m) = 0 (the process distance is zero at the target level).
    Their sum is a valid level function.
    """
    eta, phi, lam, m = params.eta, params.phi, params.lam, params.m
    lam2 = lam * lam
    q = params.q
    inv = np.array([1.0 / qi for qi in q])
    csum = np.concatenate([[0.0], np.cumsum(inv)])  # csum[t] = sum of inv[:t]

    def g1(k, j):
        return eta / (1.0 + eta) * ((m - j) * lam2 - k)

    def g2(k, j):
        if j >= m:
            return 0.0
        # tail sum over levels j+1 .. m-1 (1-based), empty at j = m-1
        return phi * (math.exp(-eta * k) / q[j - 1] + (csum[m - 1] - csum[j]))

    return g1, g2
