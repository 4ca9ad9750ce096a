"""The two-parameter bilinear game on bitstrings and its dominance structure.

The payoff of predator x against prey y is

    payoff(x, y) = ||y|| * (||x|| - beta*n) - alpha*n * ||x||

which depends on the genomes only through their one-counts.  Predators
maximise, prey minimise; the saddle sits at (||x||, ||y||) = (beta*n, alpha*n)
and an epsilon-approximation is declared once some predator has fewer than
beta*n ones while some prey holds at least (alpha - epsilon)*n but fewer than
alpha*n ones.

Dominance between pairs:  (x1, y1) dominates (x2, y2) iff

    payoff(x1, y2) >= payoff(x1, y1) >= payoff(x2, y1),

with ties counting as dominance.  The relation is reflexive, antisymmetric in
the strict sense, and intransitive (four-cycles exist near the saddle).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import BitVector, _count_vector, ones

_ZERO = np.array(0, dtype=np.int64)  # the engine's sign-test operand (see pdcoea._SCALE)


def _snap(x: float) -> float:
    """Snap near-integer products like alpha*n to the intended integer.

    Nothing keeps alpha, beta, epsilon on the 1/n grid; off-grid products
    stay as they are.  Snapping removes float noise that would otherwise
    flip strict region comparisons.
    """
    r = round(x)
    return float(r) if abs(x - r) < 1e-9 else float(x)


@dataclass(frozen=True)
class BilinearParams:
    """Game instance: genome length n, slopes alpha/beta, approximation slack."""

    n: int
    alpha: float
    beta: float
    epsilon: float

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 1.0 / self.n):
            raise ValueError(f"epsilon must be finite and >= 1/n = {1.0 / self.n}, "
                             f"got {self.epsilon}")

    @property
    def alpha_n(self) -> float:
        return _snap(self.alpha * self.n)

    @property
    def beta_n(self) -> float:
        return _snap(self.beta * self.n)

    @property
    def target_lo(self) -> float:
        """Lower one-count edge (alpha - epsilon)*n of the prey target band."""
        return _snap((self.alpha - self.epsilon) * self.n)

    @property
    def solvable_regime(self) -> bool:
        """True when alpha - epsilon >= 4/5 and beta < epsilon (checked, not forced)."""
        return self.alpha - self.epsilon >= 0.8 - 1e-12 and self.beta < self.epsilon


def payoff_by_onecounts(cx, cy, params: BilinearParams):
    """Payoff from one-counts alone; accepts scalars or numpy arrays."""
    return cy * (cx - params.beta_n) - params.alpha_n * cx


def _genome_counts(params: BilinearParams, *genomes: BitVector) -> list:
    """The one-counts of genomes of the game's length n, else a `ValueError`."""
    for v in genomes:
        if v.n != params.n:
            raise ValueError(f"genome length {v.n} does not match game n={params.n}")
    return [ones(v) for v in genomes]


def payoff(x: BitVector, y: BitVector, params: BilinearParams) -> float:
    return float(payoff_by_onecounts(*_genome_counts(params, x, y), params))


def worst_case_f(x: BitVector, params: BilinearParams) -> float:
    """min over all prey y of payoff(x, y).

    The payoff is linear in ||y||, so the adversary plays ||y|| = n when
    ||x|| < beta*n and ||y|| = 0 when ||x|| > beta*n; at the kink both
    endpoints tie.  The value is unimodal in ||x|| with maximum at beta*n.
    """
    [c] = _genome_counts(params, x)
    return float(min(payoff_by_onecounts(c, params.n, params), payoff_by_onecounts(c, 0, params)))


def dominates(x1: BitVector, y1: BitVector, x2: BitVector, y2: BitVector,
              params: BilinearParams) -> bool:
    """Pair (x1, y1) dominates (x2, y2): both payoff inequalities, ties allowed
    (`_dominates_by_payoffs` on the one-counts, exact for any alpha and beta)."""
    return bool(_dominates_by_payoffs(*_genome_counts(params, x1, y1, x2, y2), params))


def _dominates_by_payoffs(cx1, cy1, cx2, cy2, params: BilinearParams):
    """Both payoff inequalities of the definition, ties allowed, elementwise.

    Each payoff times d, the power-of-two denominator of the floats alpha*n
    and beta*n, is an integer, so ties are decided exactly for any alpha and
    beta.  d can be 2**51 (beta*n = 3.3), so pass Python ints or object-dtype
    arrays, not int64.  This is the cross-check of the engine's factored form.
    """
    alpha_n, beta_n = params.alpha_n, params.beta_n
    d = max(alpha_n.as_integer_ratio()[1], beta_n.as_integer_ratio()[1])
    a, b = int(alpha_n * d), int(beta_n * d)  # exact: d is a power of two
    g = lambda cx, cy: cy * (cx * d - b) - a * cx  # d * payoff
    return (g(cx1, cy2) >= g(cx1, cy1)) & (g(cx1, cy1) >= g(cx2, cy1))


def dominates_by_onecounts(cx1: int, cy1: int, cx2: int, cy2: int,
                           params: BilinearParams) -> bool:
    """Dominance on one-counts by the factored sign form of `_dominates_counts_arrays`,
    exact for any alpha and beta; `_dominates_by_payoffs` is its cross-check.
    The four counts are checked by `_one_counts`, as one state's two sides."""
    (cx1, cx2), (cy1, cy2) = _one_counts([cx1, cx2], [cy1, cy2], params.n)
    return bool(_dominates_counts_arrays(cx1, cy1, cx2, cy2, params))


@functools.lru_cache(maxsize=16)
def _count_signs(params: BilinearParams):
    """sign(c - beta*n) and sign(c - alpha*n) of every count c in [0, n], as
    two read-only int64 tables of n+1 entries, cached per game.

    An int minus a float is correctly rounded, so each sign is exact for any
    alpha and beta.  Dominance, the exact winner law and the target's R0
    table all read their signs here.
    """
    counts = np.arange(params.n + 1)
    tables = tuple(np.sign(counts - pivot).astype(np.int64)
                   for pivot in (params.beta_n, params.alpha_n))
    for table in tables:
        table.setflags(write=False)
    return tables


def _dominates_counts_arrays(cx1, cy1, cx2, cy2, params: BilinearParams, signs=None):
    """Vectorised Definition-2 dominance on one-count arrays (no validation).

    g12 - g11 = (cx1 - beta*n)(cy2 - cy1) and g11 - g21 = (cy1 - alpha*n)(cx1 - cx2);
    both are >= 0 iff their smaller one is, and only the sign of each first
    factor matters, which `_count_signs` holds exactly (`signs`, when given,
    are its tables), so ties are decided exactly for any alpha and beta.
    """
    sx, sy = _count_signs(params) if signs is None else signs
    return np.minimum(sx[cx1] * (cy2 - cy1), sy[cy1] * (cx1 - cx2)) >= _ZERO


class BilinearGame:
    """Dominance oracle for the bilinear payoff, as the engine calls it.

    `dominates_counts` decides dominance for whole arrays of one-count
    quadruples at once, on the game's `_count_signs` tables; the engine needs
    nothing else, and the exact selection law reads `params`.
    """

    def __init__(self, params: BilinearParams):
        self.params, self.signs = params, _count_signs(params)

    def dominates_counts(self, cx1, cy1, cx2, cy2):
        return _dominates_counts_arrays(cx1, cy1, cx2, cy2, self.params, self.signs)


# ---------------------------------------------------------------------------
# Region partition of the one-count plane
# ---------------------------------------------------------------------------

def _check_region_params(params: BilinearParams, k=None, l=None) -> None:
    """k of R1(k)/R2(k) must lie in [0, (1-beta)n] and l of S1(l)/S2(l) in
    [0, alpha*n); each is checked when given."""
    if k is not None and not 0 <= k <= (1.0 - params.beta) * params.n + 1e-9:
        raise ValueError(f"k={k} outside [0, (1-beta)n = {(1 - params.beta) * params.n}]")
    if l is not None and not 0 <= l < params.alpha_n:
        raise ValueError(f"l={l} outside [0, alpha*n = {params.alpha_n})")


def classify_predator(x: BitVector, k: int, params: BilinearParams) -> str:
    """R0: ||x|| < beta*n;  R1(k): beta*n <= ||x|| < n-k;  R2(k): ||x|| >= n-k."""
    _check_region_params(params, k=k)
    [c] = _genome_counts(params, x)
    if c < params.beta_n:
        return "R0"
    if c < params.n - k:
        return "R1"
    return "R2"


def classify_prey(y: BitVector, l: int, params: BilinearParams) -> str:
    """S0: ||y|| >= alpha*n;  S1(l): l <= ||y|| < alpha*n;  S2(l): ||y|| < l."""
    _check_region_params(params, l=l)
    [c] = _genome_counts(params, y)
    if c >= params.alpha_n:
        return "S0"
    if c >= l:
        return "S1"
    return "S2"


def _one_counts(cx, cy, n: int):
    """The predators' and the prey's one-counts of one state as int64 arrays:
    two equally long sides, each checked by `core._count_vector`."""
    cx, cy = _count_vector(cx, n), _count_vector(cy, n)
    if cx.shape != cy.shape:
        raise ValueError(f"one-counts for n = {n} must be two sides of equal length, "
                         f"got {cx.tolist()} and {cy.tolist()}")
    return cx, cy


def target_hit(cx, cy, params: BilinearParams) -> bool:
    """Some predator in R0 and some prey in S1((alpha-epsilon)*n), for the
    predators' and the prey's one-counts of one state.

    This is the epsilon-approximation of the saddle; O(lambda) on one-counts.
    """
    return bool(bilinear_target(params)(*_one_counts(cx, cy, params.n)))


def _any_last(flags: np.ndarray):
    """`flags.any(axis=-1)`; one state's is read at `argmax`, without a reduction."""
    return flags[flags.argmax()] if flags.ndim == 1 else flags.any(axis=-1)


def bilinear_target(params: BilinearParams):
    """`target_hit` as the predicate of run configurations.

    The predicate takes the predators' and the prey's one-counts, of one
    state (shape (lambda,)) or of a batch of runs (shape (runs, lambda)),
    and reduces over the last axis (`_any_last`).  It reads each count's
    membership of R0 and of the prey band from a boolean table over [0, n],
    so counts must lie in [0, n]; its `n` is the genome length it is for.
    """
    sx, sy = _count_signs(params)
    in_r0 = sx < 0
    in_band = (np.arange(params.n + 1) >= params.target_lo) & (sy < 0)

    def predicate(cx: np.ndarray, cy: np.ndarray):
        hit = _any_last(in_r0[cx])
        if not hit.ndim and not hit:  # one state with no predator in R0: skip the prey
            return hit
        return hit & _any_last(in_band[cy])

    predicate.__name__ = f"bilinear_target_a{params.alpha}_b{params.beta}_e{params.epsilon}"
    predicate.n = params.n
    return predicate


# ---------------------------------------------------------------------------
# Intransitivity witness
# ---------------------------------------------------------------------------

def _dominance_digraph(points, params):
    cx = np.array([p[0] for p in points])
    cy = np.array([p[1] for p in points])
    return _dominates_counts_arrays(cx[:, None], cy[:, None], cx[None, :], cy[None, :], params)


def _find_cycle(points, dom):
    npts = len(points)
    succ = [np.nonzero(dom[a])[0] for a in range(npts)]
    for a in range(npts):
        for b in succ[a]:
            if b == a:
                continue
            for c in succ[b]:
                if c == a or c == b or dom[a, c] or dom[c, a]:
                    continue
                for d in succ[c]:
                    if d in (a, b, c) or not dom[d, a] or dom[b, d] or dom[d, b]:
                        continue
                    return points[a], points[b], points[c], points[d]
    return None


def intransitivity_witness(params: BilinearParams):
    """Search for a dominance 4-cycle q1 > q2 > q3 > q4 > q1 of one-count pairs.

    The returned cycle has no chords: no element dominates (or is dominated
    by) the one two steps back, which witnesses intransitivity.  The search
    scans the counts within 3 of (beta*n, alpha*n) first, where such cycles
    live, then falls back to the full one-count grid.  Returns None only if
    the exhaustive search finds nothing.
    """
    n = params.n
    cbx, cby = int(round(params.beta_n)), int(round(params.alpha_n))
    window = [
        (cx, cy)
        for cx in range(max(0, cbx - 3), min(n, cbx + 3) + 1)
        for cy in range(max(0, cby - 3), min(n, cby + 3) + 1)
    ]
    found = _find_cycle(window, _dominance_digraph(window, params))
    if found is not None:
        return found
    full = [(cx, cy) for cx in range(n + 1) for cy in range(n + 1)]
    return _find_cycle(full, _dominance_digraph(full, params))
