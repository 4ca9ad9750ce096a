"""Level structure over the product of the two populations.

A level is a pair (A_j, B_j) of integer one-count ranges; the occupancy
statistic of a level is |(P x Q) cap (A_j x B_j)|, and the current level of a
state is the largest index holding at least a gamma0 fraction of the lambda^2
population pairs.  Level 1 is always the full product space, so the current
level is well defined.

This module also houses the exact selection law for any lambda (a closed
form over the two one-count histograms, counting the lambda^4 equally
likely draw combinations without enumerating them), the fraction statistics
p0 / p(k) / q0 / q(l), exact checkers for the selection growth
inequalities, and the reference drift-potential construction used to bound
the process from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bilinear import BilinearParams, _check_region_params, _count_signs, _one_counts
from .core import _is_int

# ---------------------------------------------------------------------------
# Level sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LevelSequence:
    """Ordered levels A_j x B_j for genomes of length n, 1-based.

    A level is its integer one-count ranges: row j-1 of `predators` is the
    range [lo, hi) of A_j and row j-1 of `prey` that of B_j, read-only int64
    (m, 2) arrays with 0 <= lo <= hi <= n+1 (lo == hi is an empty range).
    Level 1 should cover everything.
    """

    n: int
    predators: np.ndarray
    prey: np.ndarray
    m1: int
    m2: int

    def __post_init__(self):
        for side in ("predators", "prey"):
            ranges = np.asarray(getattr(self, side))
            if (ranges.dtype.kind not in "iu" or ranges.ndim != 2 or ranges.shape[1] != 2
                    or ranges.shape[0] < 1 or (ranges < 0).any() or (ranges > self.n + 1).any()
                    or (ranges[:, 1] < ranges[:, 0]).any()):
                raise ValueError(f"{side} ranges must be an integer (m, 2) array of [lo, hi) "
                                 f"with 0 <= lo <= hi <= n+1 = {self.n + 1}, got {ranges.tolist()}")
            ranges = ranges.astype(np.int64)
            ranges.setflags(write=False)
            object.__setattr__(self, side, ranges)
        if self.predators.shape != self.prey.shape:
            raise ValueError(f"{self.m} predator ranges but {len(self.prey)} prey ranges")

    @property
    def m(self) -> int:
        return len(self.predators)

    def __getitem__(self, j: int):
        """Level at 1-based index j, as ((lo, hi) of A_j, (lo, hi) of B_j)."""
        if not 1 <= j <= self.m:
            raise IndexError(f"level index {j} outside [1, {self.m}]")
        return tuple(self.predators[j - 1].tolist()), tuple(self.prey[j - 1].tolist())


def build_bilinear_levels(params: BilinearParams) -> LevelSequence:
    """Two-phase level sequence toward the epsilon-approximation target.

    Level 1 is the full product space.  The descent phase tightens the
    predator one-count ceiling one step per level while prey stay below the
    target band; the ascent phase keeps predators below beta*n and raises the
    prey floor to the target band.  The final level's prey floor is
    (alpha - epsilon)*n so that membership in the last level is the same
    predicate as the run target; interior floors are the integers.  Edges
    are the snapped products, rounded up: an integer count c satisfies
    c < x iff c < ceil(x), and c >= x iff c >= ceil(x).
    """
    n = params.n
    if params.target_lo < 0:
        raise ValueError("alpha < epsilon: prey target band is empty")
    if params.alpha_n <= 0:
        raise ValueError("alpha*n must be positive to define prey levels")
    m1 = int(math.floor(n - params.beta_n)) + 1
    m2 = int(math.floor(params.target_lo)) + 1
    band_lo, r0_hi = math.ceil(params.target_lo), math.ceil(params.beta_n)
    s0_lo = math.ceil(params.alpha_n)

    predators = [(0, n + 1)] + [(0, n - j) for j in range(1, m1)] + [(0, r0_hi)] * m2
    prey = ([(0, n + 1)] + [(0, band_lo)] * (m1 - 1)
            + [(j, s0_lo) for j in range(m2 - 1)] + [(band_lo, s0_lo)])
    return LevelSequence(n, np.array(predators), np.array(prey), m1=m1, m2=m2)


def _histograms(states: np.ndarray, size: int) -> np.ndarray:
    """Row histograms (S, size) of (S, lambda) counts in [0, size): one `bincount`."""
    offsets = np.arange(0, states.shape[0] * size, size)
    return np.bincount((states + offsets[:, None]).ravel(),
                       minlength=offsets.size * size).reshape(-1, size)


def _range_counts(ones: np.ndarray, ranges: np.ndarray, n: int) -> np.ndarray:
    """Members inside each [lo, hi) range, from one histogram prefix sum per
    state: ones is (..., lambda), the result (..., m)."""
    states = ones.reshape(-1, ones.shape[-1])
    if states.min() < 0 or states.max() > n:
        raise ValueError(f"one-counts must lie in [0, n] for the level sequence's n={n}")
    below = np.zeros((states.shape[0], n + 2), dtype=np.int64)  # below[s, k] = #{c < k}
    np.cumsum(_histograms(states, n + 1), axis=1, out=below[:, 1:])
    inside = below[:, ranges]
    return (inside[..., 1] - inside[..., 0]).reshape(ones.shape[:-1] + (len(ranges),))


def level_pair_counts(cx: np.ndarray, cy: np.ndarray, seq: LevelSequence) -> np.ndarray:
    """|(P x Q) cap (A_j x B_j)| = (#P in A_j) * (#Q in B_j) for every level.

    cx and cy are the predators' and the prey's one-counts, of one state
    (1-d) or of a block of states (one per row); the result is int64 with
    the last axis (lambda) replaced by the m levels.  Both factors come
    from prefix sums over the one-count histograms, O(n + m) numpy work per
    state.  Sides of different shapes, non-integer counts and a count
    outside [0, seq.n] raise a `ValueError` naming n.
    """
    cx, cy = np.asarray(cx), np.asarray(cy)
    if (cx.shape != cy.shape or not cx.ndim
            or cx.dtype.kind not in "iu" or cy.dtype.kind not in "iu"):
        raise ValueError(f"one-counts for the level sequence's n={seq.n} must be two integer "
                         f"arrays of one shape, got {cx.dtype} {cx.shape} and {cy.dtype} {cy.shape}")
    return _range_counts(cx, seq.predators, seq.n) * _range_counts(cy, seq.prey, seq.n)


def current_level(cx: np.ndarray, cy: np.ndarray, seq: LevelSequence, gamma0: float):
    """Largest 1-based j whose level holds at least gamma0 * lambda^2 pairs,
    by `level_pair_counts`: an int for one state, an int64 array with one
    level per row for a block of states."""
    if not 0.0 < gamma0 < 1.0:
        raise ValueError(f"gamma0 must be in (0, 1), got {gamma0}")
    held = level_pair_counts(cx, cy, seq) >= gamma0 * np.shape(cx)[-1] ** 2
    level = np.maximum((held * np.arange(1, seq.m + 1)).max(axis=-1), 1)
    return int(level) if level.ndim == 0 else level


# ---------------------------------------------------------------------------
# Fraction statistics
# ---------------------------------------------------------------------------

def _region_fractions(cx, cy, k: int, l: int, params: BilinearParams) -> tuple:
    """Exact population fractions (p0, p(k), q0, q(l)) of R0, R1(k), S0 and
    S1(l), as rationals over lambda, of one state's one-counts."""
    _check_region_params(params, k=k, l=l)
    cx, cy = _one_counts(cx, cy, params.n)
    share = lambda flags: Fraction(int(flags.sum()), cx.size)
    return (share(cx < params.beta_n), share((cx >= params.beta_n) & (cx < params.n - k)),
            share(cy >= params.alpha_n), share((cy >= l) & (cy < params.alpha_n)))


# ---------------------------------------------------------------------------
# Exact selection distribution
# ---------------------------------------------------------------------------
# A selection's law depends only on the two one-count histograms, counted
# exactly out of the lambda^4 equally likely draws.  Count c has sign class
# 3 * (sign(c - pivot) + 1) + sign(c - r) + 1 against a count r of its side
# (pivot beta*n for predators, alpha*n for prey); pair (c, d) dominates
# (r, s) iff _DOMINATES[class of c, class of d], by the factored form.

_SIGNS = np.arange(3) - 1
_PIVOT_SIGN, _REF_SIGN = np.repeat(_SIGNS, 3), np.tile(_SIGNS, 3)
_DOMINATES = ((np.outer(_PIVOT_SIGN, _REF_SIGN) <= 0)
              & (np.outer(_REF_SIGN, _PIVOT_SIGN) >= 0)).astype(np.int64)


def _class_pairs(ones: np.ndarray, sign: np.ndarray):
    """The (..., n+1, 9) int64 tables of one side's one-counts `ones` (shape
    (..., lambda), counts in [0, n]): entry [..., r, k] counts the ordered
    member pairs (c, r) of that state with c in sign class k against r, for
    `sign` the side's table of `_count_signs`."""
    lam, size = ones.shape[-1], sign.size
    if lam**4 >= 2**63:
        raise ValueError(f"lambda={lam}: lambda^4 draws overflow int64 (lambda <= 55108)")
    hist = _histograms(ones.reshape(-1, lam), size)                # (S, n+1)
    members = hist[:, None] * (sign == _SIGNS[:, None])           # (S, 3, n+1)
    below = np.cumsum(members, axis=-1) - members                 # c < r
    above = members.sum(axis=-1, keepdims=True) - below - members  # c > r
    table = np.stack([below, members, above], axis=-1).swapaxes(1, 2)  # (S, n+1, 3, 3)
    return (hist[..., None] * table.reshape(-1, size, 9)).reshape(ones.shape[:-1] + (size, 9))


def winner_table(cx, cy, params: BilinearParams) -> np.ndarray:
    """Exact winner law of one selection as an (n+1, n+1) int64 table.

    cx and cy are the predators' and the prey's one-counts of one state.
    Entry [a, b] counts the draws, out of lambda^4, won by one-counts (a, b):
    hx[a] * hy[b] * (A + lambda^2 - B), with A the pairs that (a, b)
    dominates as first draw (a predator count times a prey count, since each
    condition involves one side) and B the pairs that dominate it as second
    (the sign-class contraction).  Every intermediate stays within lambda^4.
    """
    cx, cy = _one_counts(cx, cy, params.n)
    x_sign, y_sign = _count_signs(params)
    px, py = _class_pairs(cx, x_sign), _class_pairs(cy, y_sign)
    # pairs (c, a) with sign(b - alpha*n) * sign(a - c) >= 0, by that first sign
    beaten_x = px.reshape(-1, 3, 3).sum(axis=1) @ (np.outer(_SIGNS, _SIGNS) <= 0)
    # pairs (d, b) with sign(a - beta*n) * sign(d - b) >= 0, by that first sign
    beaten_y = py.reshape(-1, 3, 3).sum(axis=1) @ (np.outer(_SIGNS, _SIGNS) >= 0)
    wins = beaten_x[:, y_sign + 1] * beaten_y[:, x_sign + 1].T - px @ _DOMINATES @ py.T
    return wins + np.outer(px.sum(axis=1), py.sum(axis=1))  # (lambda hx) (lambda hy)


def exact_selection_distribution(cx, cy, params: BilinearParams, member) -> Fraction:
    """Exact probability that one pairwise-dominance selection lands in a set.

    `member(a, b)` decides membership of a (predator, prey) pair from
    their one-counts; the result is an exact rational read off `winner_table`.
    """
    cx, cy = _one_counts(cx, cy, params.n)
    table = winner_table(cx, cy, params)
    xs = np.unique(cx).tolist()
    ys = np.unique(cy).tolist()
    inside = np.array([[bool(member(a, b)) for b in ys] for a in xs])
    return Fraction(int(table[np.ix_(xs, ys)][inside].sum()), cx.size**4)


def selection_slot_rates(cx, cy, params: BilinearParams):
    """Exact per-slot selection probabilities (predator slots, prey slots).

    A slot's rate is its count's `winner_table` marginal over the count's
    multiplicity.  The per-generation reproductive rate of slot i is lambda
    times its entry.
    """
    cx, cy = _one_counts(cx, cy, params.n)
    table = winner_table(cx, cy, params)
    rates = []
    for ones, marginal in ((cx, table.sum(axis=1)), (cy, table.sum(axis=0))):
        share = marginal // np.bincount(ones, minlength=marginal.size).clip(1)
        rates.append(tuple(Fraction(int(c), ones.size**4) for c in share[ones]))
    return tuple(rates)


def half_prob_conditionals(cx, cy, params: BilinearParams):
    """The four conditional dominance probabilities, exactly.

    Conditions on the two uniform draws (x1, y1), (x2, y2):

      1. ||y1|| <= ||y2||, ||x1|| > beta*n, ||x2|| > beta*n
      2. ||y1|| >= ||y2||, ||x1|| < beta*n, ||x2|| < beta*n
      3. ||x1|| >= ||x2||, ||y1|| > alpha*n, ||y2|| > alpha*n
      4. ||x1|| <= ||x2||, ||y1|| < alpha*n, ||y2|| < alpha*n

    Returns a 4-tuple of Fractions (probability that the first pair dominates
    given the condition), with None where the conditioning event is null:
    `_half_prob_counts` on one state.  Each non-null entry is at least 1/2.
    """
    dominating, drawn = _half_prob_counts(*_one_counts(cx, cy, params.n), params)
    return tuple(Fraction(k, total) if total else None
                 for k, total in zip(dominating.tolist(), drawn.tolist()))


def _half_prob_counts(cx, cy, params: BilinearParams):
    """Dominating and all draws of the four events of `half_prob_conditionals`
    for every state of unchecked one-counts cx, cy of shape (..., lambda):
    two (..., 4) int64 arrays, the second 0 where an event is null.  Each
    event is predator pairs times prey pairs, picked by sign class and row
    of the `_class_pairs` tables, so its dominating draws are a contraction."""
    x_sign, y_sign = _count_signs(params)
    px, py = _class_pairs(cx, x_sign), _class_pairs(cy, y_sign)  # (..., n+1, 9)
    x_all, y_all = px.sum(-2), py.sum(-2)
    events = (
        (px[..., x_sign > 0, :].sum(-2) * (_PIVOT_SIGN > 0), y_all * (_REF_SIGN <= 0)),
        (px[..., x_sign < 0, :].sum(-2) * (_PIVOT_SIGN < 0), y_all * (_REF_SIGN >= 0)),
        (x_all * (_REF_SIGN >= 0), py[..., y_sign > 0, :].sum(-2) * (_PIVOT_SIGN > 0)),
        (x_all * (_REF_SIGN <= 0), py[..., y_sign < 0, :].sum(-2) * (_PIVOT_SIGN < 0)),
    )
    dominating = [np.einsum("...k,kl,...l->...", x, _DOMINATES, y) for x, y in events]
    drawn = [x.sum(-1) * y.sum(-1) for x, y in events]
    return np.stack(dominating, axis=-1), np.stack(drawn, axis=-1)


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


def _psel_counts(cx, cy, params, pred_x=None, pred_y=None) -> Fraction:
    """Exact selection probability of a region product given by vectorised
    one-count predicates (None admits every count)."""
    table = winner_table(cx, cy, params)
    counts = np.arange(params.n + 1)
    if pred_x is not None:
        table = table[pred_x(counts)]
    if pred_y is not None:
        table = table[:, pred_y(counts)]
    return Fraction(int(table.sum()), len(cx)**4)


def check_growth_lemmas(case: int, cx, cy, params: BilinearParams,
                        k: int = 0, l: int = 0, delta1=None, rho=None) -> GrowthLemmaReport:
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
    p0, p, q0, q = _region_fractions(cx, cy, k, l, params)
    bn, an = params.beta_n, params.alpha_n
    n = params.n

    in_r0 = lambda c: c < bn
    in_s1 = lambda c: (c >= l) & (c < an)
    in_r01 = lambda c: c < n - k

    def ratio_r0():
        return _psel_counts(cx, cy, params, pred_x=in_r0) / p0

    def ratio_s1():
        return _psel_counts(cx, cy, params, pred_y=in_s1) / q

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
        ratio = _psel_counts(cx, cy, params, pred_x=in_r01) / (p0 + p)
        bound = 1 + r * (1 - p - p0)

    return GrowthLemmaReport(case, True, "", ratio=ratio, bound=bound, passed=ratio >= bound)


# ---------------------------------------------------------------------------
# Level functions (drift potentials)
# ---------------------------------------------------------------------------

def validate_level_function(g, lam: int, m: int) -> bool:
    """Exhaustive check of the three level-function conditions on the grid.

    g is called once, on broadcast integer arrays k = 0..lambda^2 of shape
    (lambda^2+1, 1) and j = 1..m of shape (1, m); its result is broadcast to
    that grid.  Conditions: non-increasing in the level index, non-increasing
    in the count, and g(lambda^2, j) >= g(0, j+1) so levels glue together.
    """
    top = lam * lam
    k, j = np.arange(top + 1)[:, None], np.arange(1, m + 1)[None, :]
    grid = np.broadcast_to(np.asarray(g(k, j), dtype=float), (top + 1, m))
    cond1 = bool((grid[:, :-1] >= grid[:, 1:]).all())
    cond2 = bool((grid[:-1, :] >= grid[1:, :]).all())
    cond3 = bool((grid[top, :-1] >= grid[0, 1:]).all())
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
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and positive, got {self.eta}")
        if not 0.0 < self.phi < 1.0:
            raise ValueError("phi must be in (0, 1)")
        if not (_is_int(self.lam) and _is_int(self.m)) or self.lam < 1 or self.m < 1:
            raise ValueError(f"lambda and m must be integers >= 1, got {self.lam!r} and {self.m!r}")
        if len(self.z) != self.m - 1:
            raise ValueError(f"need m-1 = {self.m - 1} z values, got {len(self.z)}")
        if any(not 0.0 < zi <= 1.0 for zi in self.z):
            raise ValueError("every z_i must be in (0, 1]")

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
    Their sum is a valid level function.  Both accept integer scalars or
    broadcastable integer arrays k in [0, lambda^2], j in [1, m], and return
    a float or a float array of the broadcast shape.
    """
    eta, phi, lam, m = params.eta, params.phi, params.lam, params.m
    lam2 = lam * lam
    csum = np.concatenate([[0.0], np.cumsum([1.0 / qi for qi in params.q])])
    # q[j-1] and tail[j] = sum of 1/q_i over levels j+1 .. m-1 (empty at
    # j = m-1), both padded at j = m, where g2 is 0 whatever they hold
    q = np.array(params.q + (1.0,))
    tail = np.append(csum[-1] - csum, 0.0)

    def g1(k, j):
        return eta / (1.0 + eta) * ((m - j) * lam2 - k)

    def g2(k, j):
        pull = phi * (np.exp(-eta * k) / q[j - 1] + tail[j])
        return np.where(j < m, pull, 0.0)[()]

    return g1, g2
