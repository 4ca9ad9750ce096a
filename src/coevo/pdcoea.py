"""Two-population co-evolution driver.

Each generation replaces both populations with lambda offspring pairs drawn
i.i.d. given the current state: each pair comes from two uniform
predator-prey pairs, keeping the dominating one (second pair on failure),
and mutating both members by independent bit flips with probability chi/n.
`step_generation` is the one generation step: it steps all lambda pairs of
one run, or of B runs held run-major as one state of B*lambda members, on
the draws each run takes from its own stream (`_generator_draws`).
`run_trials` is the one trial loop, and `run_trial` its one-row case.  A
batch reads its streams ahead (`_ReadAhead`): one `random_raw` block per
run, decoded for every run at once into exactly the draws the `Generator`s
would make.
Since the payoff, the dominance relation and the shipped targets see a
genome only through its one-count, the engine evolves one-counts: the pair
of one-count vectors is an exact lumping of the process, and mutation moves
a count by the exact law of the bit flips.

Runtime is counted in interactions: a run that first satisfies the target
predicate at generation t reports T = t * lambda, and the predicate is
checked before any offspring are produced, so T = 0 hits are possible.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bilinear import _ZERO, BilinearGame, BilinearParams, _any_last, bilinear_target
from .core import PairedPopulations, Population, paired_uniform, spawn_stream


# ---------------------------------------------------------------------------
# Mutation
# ---------------------------------------------------------------------------

# The offspring law is tabulated as (n+1)^2 int64 thresholds (34 MB at
# MAX_N); a uniform's 53 random bits give the sampler exact integers on
# [0, _SCALE), and every table entry stays below (MAX_N + 1) * _SCALE < 2**63.
# The constants an array op meets every generation are 0-d int64 arrays: a
# Python int or numpy scalar operand is converted on each call, and under
# NEP 50 a 0-d int64 array promotes as an np.int64 scalar does.
MAX_N = 2048
_SCALE = np.array(1 << 50, dtype=np.int64)


def _offspring_cdf(n: int, chi: float) -> np.ndarray:
    """(n+1, n+1) table whose row c is the CDF of the offspring one-count.

    Flipping each of n bits with probability p = chi/n takes a parent with c
    ones to c - Bin(c, p) + Bin(n - c, p) ones.  Binomial pmf rows come from
    the Pascal recurrence; each offspring row is one convolution of the
    reversed loss pmf with the gain pmf.  Rows are normalised so they end at
    exactly 1.
    """
    p = chi / n
    binom = np.zeros((n + 1, n + 1))  # binom[k, j] = P(Bin(k, p) = j)
    binom[0, 0] = 1.0
    for k in range(1, n + 1):
        binom[k, : k + 1] = (1.0 - p) * binom[k - 1, : k + 1]
        binom[k, 1 : k + 1] += p * binom[k - 1, :k]
    pmf = np.array([np.convolve(binom[c, c::-1], binom[n - c, : n - c + 1])
                    for c in range(n + 1)])
    cdf = np.cumsum(pmf, axis=1)
    return cdf / cdf[:, -1:]


@functools.lru_cache(maxsize=8)
def _offspring_table(n: int, chi: float) -> np.ndarray:
    """The offspring law as one sorted, read-only int64 array.

    Entry c*(n+1) + j is c*_SCALE + round(_SCALE * CDF_c(j)).  For a parent
    count c and an integer r uniform on [0, _SCALE), the first entry above
    c*_SCALE + r lies in row c, at column j = the offspring count:
    inverse-CDF sampling of every row through one `searchsorted`.  A count
    whose probability rounds to zero, in particular an impossible one, has
    the threshold of its predecessor and is never drawn.
    """
    if n > MAX_N:
        raise ValueError(f"n must be <= MAX_N = {MAX_N} (the offspring table has "
                         f"(n+1)^2 entries), got {n}")
    thresholds = np.rint(_offspring_cdf(n, chi) * _SCALE).astype(np.int64)
    table = (thresholds + np.arange(n + 1, dtype=np.int64)[:, None] * _SCALE).ravel()
    table.setflags(write=False)
    return table


# A guide over each row of the offspring table (indexed search, Chen and
# Asau 1974): bucket k of row c covers r in [k, k+1) * 2**_GUIDE_SHIFT.
GUIDE_BITS = 8
_GUIDE_SHIFT = np.array(int(_SCALE).bit_length() - 1 - GUIDE_BITS, dtype=np.int64)


@functools.lru_cache(maxsize=8)
def _offspring_guide(n: int, chi: float) -> np.ndarray:
    """Read-only int16 array of (n+1) * 2**GUIDE_BITS entries.

    Entry (c << GUIDE_BITS) | k is the offspring count of every r in bucket k
    of row c when no threshold of row c lies strictly inside the bucket, and
    -1 otherwise.  One `searchsorted` counts the table entries at or below
    each bucket's first key and below its end.
    """
    table = _offspring_table(n, chi)
    starts = np.arange((n + 1) << GUIDE_BITS, dtype=np.int64) << _GUIDE_SHIFT
    below = table.searchsorted(starts[:, None] + [1, 1 << _GUIDE_SHIFT])
    guide = np.where(below[:, 0] == below[:, 1], below[:, 0] % (n + 1), -1).astype(np.int16)
    guide.setflags(write=False)
    return guide


def _mutate_counts(counts: np.ndarray, r: np.ndarray, dist: PdcoeaDistribution) -> np.ndarray:
    """Offspring one-counts of `counts` under bitwise mutation at dist's rate
    chi/n, given one int64 key offset r uniform on [0, _SCALE) per entry.  The
    key c*_SCALE + r shifted right by _GUIDE_SHIFT is the guide index
    (c << GUIDE_BITS) | (r >> _GUIDE_SHIFT); the keys whose bucket holds a
    threshold are searched in `_offspring_table`, so each key gets the count
    its `searchsorted` gives."""
    keys = counts * _SCALE + r
    children = dist.guide[keys >> _GUIDE_SHIFT]
    miss = (children < _ZERO).nonzero()[0]
    if miss.size:
        children[miss] = dist.table.searchsorted(keys[miss], side="right") % dist.width
    return children


# ---------------------------------------------------------------------------
# Generations
# ---------------------------------------------------------------------------

class PdcoeaDistribution:
    """Pairwise-dominance selection followed by independent bitwise mutation,
    prepared once per run: chi is checked against the game's n, and the
    offspring table and its guide, as int64, and the row width n+1 (0-d) are
    held for `_mutate_counts`."""

    def __init__(self, oracle: BilinearGame, chi: float):
        n = oracle.params.n
        if not 0.0 <= chi <= n:
            raise ValueError(f"chi must be in [0, n] = [0, {n}], got {chi}")
        self.oracle, self.chi, self.n, self.width = oracle, chi, n, np.array(n + 1, dtype=np.int64)
        self.table, self.guide = _offspring_table(n, chi), _offspring_guide(n, chi).astype(np.int64)


@functools.lru_cache(maxsize=16)
def _draw_offsets(runs: int, lam: int) -> np.ndarray:
    """Read-only (4, runs*lam) offsets that turn the slots (i1, k1, i2, k2)
    drawn for each offspring of `runs` runs into indices of cx and cy
    concatenated: run b's slots move by b*lam, the prey's by all the
    predators, runs*lam, too."""
    size = runs * lam
    offsets = np.arange(0, size, lam).repeat(lam) + np.array([[0], [size], [0], [size]])
    offsets.setflags(write=False)
    return offsets


def _generator_draws(rngs, lam: int, high: Optional[int] = None):
    """One generation's draws of each run from its own `Generator`, the law
    `_ReadAhead` reproduces: `integers(0, high, (lam, 4))` slots (high
    defaults to lam), then 2*lam uniforms u, the predators' first, as exact
    uniform key offsets r = floor(u * _SCALE) on [0, _SCALE).  Returned as
    `step_generation` takes them: int64 slot indices (4, runs*lam) into cx
    and cy concatenated (`_draw_offsets`); every run's predators' r, then
    prey's."""
    draws = [(rng.integers(0, high or lam, (lam, 4)), rng.random(2 * lam)) for rng in rngs]
    slots, uniforms = map(np.array, zip(*draws))
    idx = slots.transpose(2, 0, 1).reshape(4, -1) + _draw_offsets(len(rngs), lam)
    r = (uniforms * _SCALE).astype(np.int64).reshape(-1, 2, lam).swapaxes(0, 1).ravel()
    return idx, r


_READ_AHEAD_WORDS = 16384  # raw 64-bit words a batch reads per block, over all its runs


class _ReadAhead:
    """The streams of a batch of runs, read ahead: `draws()` returns the next
    generation's `_generator_draws(rngs, lam, high)`, and `drop(rows)` takes
    runs out.  One `random_raw` block per run is decoded for every run in one
    pass, by numpy's rules on PCG64: the slots take the halves of 2*lam words,
    low first, by numpy's buffered 32-bit Lemire rule (Lemire, ACM TOMACS
    29(1), 2019), slot (half * high) >> 32 and the half rejected when its low
    32 bits are below (2**32 - high) % high (high = 1 uses no words); a run
    whose bit generator buffers a half (`has_uint32`) takes it first and
    carries its last half on (`has`, `half`).  The key offsets are word >> 14
    = floor((word >> 11) * 2**-53 * _SCALE) of the next 2*lam words.  A block
    stops before its first generation with a rejected half and rewinds to it;
    `_generator_draws` draws that generation once the carried halves are
    written back.  So each stream is where its `Generator` would be, apart
    from the unread generations of the block."""

    def __init__(self, rngs, lam: int, high: Optional[int] = None):
        self.rngs, self.lam, self.high = list(rngs), lam, lam if high is None else high
        self.width = 4 * lam if self.high > 1 else 2 * lam  # words per run and generation
        self.block = max(1, _READ_AHEAD_WORDS // (len(self.rngs) * self.width))
        self.rejected = False  # the generation after the decoded ones has a rejected half
        self._load_halves()
        self._read()

    def _load_halves(self):
        states = [rng.bit_generator.state for rng in self.rngs]
        self.has = np.array([s["has_uint32"] for s in states], dtype=bool)
        self.half = np.array([s["uinteger"] for s in states], dtype=np.uint32)

    def draws(self):
        if self.at == self.ready and not self.rejected:
            self._read()
        if self.at < self.ready:
            self.at += 1
            return self.idx[self.at - 1], self.r[self.at - 1]
        for rng, has, half in zip(self.rngs, self.has.tolist(), self.half.tolist()):
            rng.bit_generator.state = dict(rng.bit_generator.state, has_uint32=has, uinteger=half)
        draws, self.rejected = _generator_draws(self.rngs, self.lam, self.high), False
        self._load_halves()
        return draws

    def drop(self, rows: np.ndarray):
        """Take the runs flagged in the bool array `rows` out of the batch."""
        keep, runs, lam, left = ~rows, rows.size, self.lam, self.ready - self.at
        kept = int(keep.sum())
        idx = (self.idx[self.at:] - _draw_offsets(runs, lam)).reshape(left, 4, runs, lam)
        self.idx = idx[:, :, keep].reshape(left, 4, kept * lam) + _draw_offsets(kept, lam)
        r = self.r[self.at:].reshape(left, 2, runs, lam)[:, :, keep]
        self.r, self.at, self.ready = r.reshape(left, 2 * kept * lam), 0, left
        self.rngs = [rng for rng, k in zip(self.rngs, keep) if k]
        self.has, self.half = self.has[keep], self.half[keep]

    def _read(self):
        runs, g, lam, slot_words = len(self.rngs), self.block, self.lam, self.width - 2 * self.lam
        words = [rng.bit_generator.random_raw((g, self.width)) for rng in self.rngs]
        words = words[0][None] if runs == 1 else np.stack(words)  # one run: no copy
        ready, slots = g, np.zeros((g, 4, runs, lam), dtype=np.uint32)
        if slot_words:
            # each run's slot halves, low first on either byte order, after its
            # carried half; then the 64-bit products as (low 32 bits, slot) pairs
            raw = words[:, :, :slot_words].astype("<u8", copy=False).view("<u4").reshape(runs, -1)
            halves = raw if not self.has.any() else np.where(
                self.has[:, None], np.concatenate((self.half[:, None], raw[:, :-1]), axis=1), raw)
            pairs = np.multiply(halves, np.uint64(self.high), dtype="<u8").view("<u4")
            pairs = pairs.reshape(runs, g, lam, 4, 2)
            low, threshold = pairs[..., 0], (2**32 - self.high) % self.high
            if low.min() < threshold:
                ready, self.rejected = int((low < threshold).any(axis=(0, 2, 3)).argmax()), True
                for rng in self.rngs:
                    rng.bit_generator.advance((ready - g) * self.width)
            if ready:
                self.half[self.has] = raw[self.has, ready * 4 * lam - 1]
            slots = pairs[..., 1].transpose(1, 3, 0, 2)
        self.idx = slots[:ready].reshape(ready, 4, runs * lam) + _draw_offsets(runs, lam)
        r = (words[:, :ready, slot_words:] >> 14).view(np.int64).reshape(runs, ready, 2, lam)
        self.r = r.transpose(1, 2, 0, 3).reshape(ready, 2 * runs * lam)
        self.at, self.ready = 0, ready


def step_generation(pops: PairedPopulations, dist: PdcoeaDistribution,
                    rng) -> PairedPopulations:
    """Replace both populations of each run the state holds with lambda
    i.i.d. offspring pairs.

    The state is one run, or B runs held run-major (run b's members are
    [b*lambda, (b+1)*lambda) of both sides).  `rng` is a plain `Generator`
    (one run) or the batch's `_ReadAhead`: both give one generation's draws
    (`_generator_draws`), which must cover the state's members.  The drawn
    pairs' one-counts are gathered once from the state's `flat` array, as
    the rows (x1, y1, x2, y2) of one array, and each winner's are picked from
    them: the first pair where it dominates the second, else the second.
    Offspring slot i of the predators and the prey come from the same
    interaction (they may be dependent); distinct slots are independent.
    Mutation moves each one-count by the exact law of the bit flips
    (`_offspring_table`) of the game's n; the children, predators first, are
    the next state's `flat`, with no copy and no `Population` built.
    """
    if pops.n != dist.n:
        raise ValueError(f"state genome length {pops.n} does not match game n={dist.n}")
    try:
        idx, r = rng.draws()
    except AttributeError:  # a plain Generator: one run
        idx, r = _generator_draws((rng,), pops.lam)
    if idx.shape[1] != pops.lam:
        raise ValueError(f"draws for {idx.shape[1]} members do not cover a state of "
                         f"{pops.lam} members")
    drawn = pops.flat[idx]
    win1 = dist.oracle.dominates_counts(drawn[0], drawn[1], drawn[2], drawn[3])
    children = _mutate_counts(np.where(win1, drawn[:2], drawn[2:]).ravel(), r, dist)
    children.setflags(write=False)
    return PairedPopulations._carry(children, dist.n)


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

def singleton_target(cx_star: int, cy_star: int, n: int):
    """Predicate: both populations contain the given genomes exactly.

    The predator and prey genomes are given by their one-counts, each 0
    (all-zeros) or n (all-ones): such a count names one genome, so the
    predicate compares one-counts and is exact.  Any other count is shared
    by several genomes and is rejected.  Like `bilinear_target`'s, the
    predicate takes one-count arrays and reduces over the last axis
    (`_any_last`); its `n` is the genome length it is for.  The two counts
    are held as 0-d int64 arrays, like the sampler's constants (`_SCALE`).
    """
    if any(c not in (0, n) for c in (cx_star, cy_star)):
        raise ValueError(f"singleton target genomes must be all-zeros or all-ones (one-count "
                         f"0 or n = {n}), got one-counts {cx_star} and {cy_star}; a population "
                         "stores one-counts, which name no other genome")
    cx_star, cy_star = np.array(cx_star, dtype=np.int64), np.array(cy_star, dtype=np.int64)

    def predicate(cx: np.ndarray, cy: np.ndarray):
        hit = _any_last(cx == cx_star)
        if not hit.ndim and not hit:  # one state without the predator: skip the prey
            return hit
        return hit & _any_last(cy == cy_star)

    predicate.__name__ = "singleton_target"
    predicate.n = n
    return predicate


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class PdcoeaConfig:
    """One run of the pairwise-dominance process.

    `target` defaults to the game's epsilon-approximation predicate
    (`bilinear_target`); pass another predicate (e.g. `singleton_target`)
    for different solution concepts.  A predicate takes the predators' and
    the prey's one-count arrays and reduces over the last axis.  The genome
    length is the game's, `n`.
    """

    lam: int
    chi: float
    seed: int
    budget_generations: int
    game: BilinearParams
    target: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    @property
    def n(self) -> int:
        return self.game.n

    def __post_init__(self):
        if not _is_int(self.lam) or self.lam < 1:
            raise ValueError(f"lambda must be an integer >= 1, got {self.lam!r}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.n > MAX_N:
            raise ValueError(f"n must be <= MAX_N = {MAX_N} (the offspring table has "
                             f"(n+1)^2 entries), got {self.n}")
        if not 0.0 < self.chi <= self.n:
            raise ValueError(f"chi must be in (0, n] = (0, {self.n}], got {self.chi}")
        if not _is_int(self.budget_generations) or self.budget_generations < 1:
            raise ValueError(f"budget must be an integer >= 1, got {self.budget_generations!r}")
        if getattr(self.target, "n", self.n) != self.n:
            raise ValueError(f"target genome length {self.target.n} does not match game "
                             f"n={self.n}")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one run.

    T_interactions is t * lambda at the first hit (a multiple of lambda by
    construction) or budget * lambda on timeout; timeouts are censored lower
    bounds, flagged by hit=False.  `counts` is the run's one-count history
    when it was recorded, else None: an int16 array of shape
    (generations_run + hit, 2, lambda) whose row t holds the predators' and
    the prey's one-counts at generation t, the hit generation included.
    Records compare equal when everything but counts and wall_ms agrees.
    """

    hit: bool
    T_interactions: int
    generations_run: int
    seed: int
    counts: Optional[np.ndarray] = field(default=None, compare=False)
    wall_ms: float = field(default=0.0, compare=False)


class TrajectoryRow(NamedTuple):
    """Summary of one evaluated generation: one-count statistics of both
    populations, the prey at or above alpha*n (S0), and the fractions p0 of
    predators below beta*n and q0 of prey in S0.  Built by
    `trajectory_columns` for a block of generations, each field holds one
    value per generation."""

    generation: int
    pred_mean: float
    pred_min: int
    pred_max: int
    prey_mean: float
    prey_min: int
    prey_max: int
    prey_in_s0: int
    p0: float
    q0: float


def trajectory_columns(cx: np.ndarray, cy: np.ndarray, params: BilinearParams,
                       generation) -> TrajectoryRow:
    """The trajectory statistics of states given by their one-count arrays.

    cx and cy hold one state (1-d) or a block of states (one per row), such
    as `counts[:, 0]` and `counts[:, 1]` of a recorded run; each statistic
    reduces over the last axis, so a block gives a row of columns.
    `generation` is taken as given: an int, or one entry per state.
    """
    lam = cx.shape[-1]
    in_s0 = (cy >= params.alpha_n).sum(axis=-1)
    return TrajectoryRow(generation, cx.sum(axis=-1) / lam, cx.min(axis=-1), cx.max(axis=-1),
                         cy.sum(axis=-1) / lam, cy.min(axis=-1), cy.max(axis=-1), in_s0,
                         (cx < params.beta_n).sum(axis=-1) / lam, in_s0 / lam)


RECORD_BLOCK = 64  # generations per int16 block of a recorded one-count history


def _start_state(n: int, cx, cy) -> PairedPopulations:
    """The state of the one-count arrays cx and cy, checked as two
    `Population`s: every state the engine starts from is built here."""
    return PairedPopulations(Population(n, cx), Population(n, cy))


def run_trials(cfgs, record: bool = False) -> list:
    """Run seeded trials of one cell (configs that differ in their seeds
    only) together, as the rows of one state, until each hits its target or
    the budget expires.

    The target is evaluated at t = 0, 1, 2, ... before offspring are
    produced; a run leaves the state and the read-ahead at its first hit.
    Each run draws from its own stream (one `_ReadAhead` serves them all),
    so its record is the same in any batch, on every platform.  With
    `record`, the live rows' evaluated states (the hit generation included)
    are copied into int16 blocks of RECORD_BLOCK generations, and run i's
    `counts` is its column slice [i*lambda, (i+1)*lambda) of them; recording
    draws no random numbers.  A record's wall_ms, its only nondeterministic
    field, is the time from the start of the batch to the end of its run.
    """
    if not cfgs:
        return []
    t0 = time.perf_counter()
    cfg = cfgs[0]
    if any(replace(c, seed=cfg.seed) != cfg for c in cfgs):
        raise ValueError("run_trials needs configs that differ in their seeds only")
    lam, n, budget = cfg.lam, cfg.n, cfg.budget_generations
    rngs = [spawn_stream(c.seed, 0) for c in cfgs]
    cx, cy = map(np.concatenate, zip(*[paired_uniform(lam, n, rng) for rng in rngs]))
    pops = _start_state(n, cx, cy)
    stream = _ReadAhead(rngs, lam)
    dist = PdcoeaDistribution(BilinearGame(cfg.game), cfg.chi)
    target = cfg.target if cfg.target is not None else bilinear_target(cfg.game)
    live, cols, ends = list(range(len(cfgs))), slice(None), {}  # each row's run; their columns
    blocks = []  # (RECORD_BLOCK, 2, B*lambda) int16 arrays, one generation a row

    for t in range(budget):
        sides = pops.flat.reshape(2, -1)  # the predators' and the prey's counts
        if record:
            if not t % RECORD_BLOCK:
                blocks.append(np.empty((RECORD_BLOCK, 2, len(cfgs) * lam), dtype=np.int16))
            blocks[-1][t % RECORD_BLOCK][:, cols] = sides
        single = len(live) == 1  # one row's answer is a scalar, and tested as one
        hits = target(sides[0], sides[1]) if single else target(*sides.reshape(2, -1, lam))
        if hits if single else hits.any():
            hits, wall_ms = np.reshape(hits, -1), (time.perf_counter() - t0) * 1e3
            ends.update((live[row], (True, t, wall_ms)) for row in np.flatnonzero(hits))
            live = [i for i, hit in zip(live, hits) if not hit]
            if not live:
                break
            stream.drop(hits)
            pops = _start_state(n, *sides.reshape(2, -1, lam)[:, ~hits].reshape(2, -1))
            cols = (np.array(live)[:, None] * lam + np.arange(lam)).ravel()
        pops = step_generation(pops, dist, stream)

    wall_ms = (time.perf_counter() - t0) * 1e3
    ends.update((i, (False, budget, wall_ms)) for i in live)  # the censored runs
    history = np.concatenate(blocks) if record else None
    return [TrialRecord(hit=hit, T_interactions=g * lam, generations_run=g, seed=cfgs[i].seed,
                        counts=history[:g + hit, :, i * lam:(i + 1) * lam] if record else None,
                        wall_ms=ms) for i, (hit, g, ms) in sorted(ends.items())]


def run_trial(cfg: PdcoeaConfig, record: bool = False) -> TrialRecord:
    """Run one seeded trial until the target is hit or the budget expires:
    `run_trials([cfg], record)[0]`, so with `record` its `counts` is the
    run's one-count history, an int16 (generations_run + hit, 2, lambda)
    array."""
    return run_trials([cfg], record)[0]
