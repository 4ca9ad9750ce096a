"""Two-population co-evolution driver.

Each generation replaces both populations with lambda offspring pairs drawn
i.i.d. given the current state: each pair comes from two uniform
predator-prey pairs, keeping the dominating one (second pair on failure),
and mutating both members by independent bit flips with probability chi/n.
`step_generation` is the only sampler; it draws all lambda pairs at once.

Runtime is counted in interactions: a run that first satisfies the target
predicate at generation t reports T = t * lambda, and the predicate is
checked before any offspring are produced, so T = 0 hits are possible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .bilinear import BilinearGame, BilinearParams, bilinear_target
from .core import (
    BitVector,
    PairedPopulations,
    Population,
    RandomStream,
    paired_uniform,
    spawn_stream,
)

_U64 = np.uint64


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

def _winner_mask(pops: PairedPopulations, oracle, idx: np.ndarray) -> np.ndarray:
    """True where the first drawn pair dominates the second.

    idx has shape (count, 4) with columns (i1, k1, i2, k2): predator and prey
    slots of the first pair, then of the second.
    """
    if hasattr(oracle, "dominates_counts"):
        cx = pops.predators.ones
        cy = pops.prey.ones
        return np.asarray(
            oracle.dominates_counts(cx[idx[:, 0]], cy[idx[:, 1]], cx[idx[:, 2]], cy[idx[:, 3]])
        )
    pred, prey = pops.predators, pops.prey
    return np.array(
        [
            oracle.dominates(pred.member(i1), prey.member(k1), pred.member(i2), prey.member(k2))
            for i1, k1, i2, k2 in idx
        ],
        dtype=bool,
    )


def _select_slots(pops: PairedPopulations, oracle, rng: RandomStream, count: int):
    """Winner (predator, prey) slot indices for `count` independent selections."""
    idx = rng.integers(0, pops.lam, size=(count, 4))
    win1 = _winner_mask(pops, oracle, idx)
    pred_slots = np.where(win1, idx[:, 0], idx[:, 2])
    prey_slots = np.where(win1, idx[:, 1], idx[:, 3])
    return pred_slots, prey_slots


# ---------------------------------------------------------------------------
# Mutation
# ---------------------------------------------------------------------------

def _mutate_rows(words: np.ndarray, n: int, chi: float, rng: RandomStream) -> np.ndarray:
    """Batch mutation of a writable (rows, nwords) word matrix, in place.

    Per row: flip count ~ Binomial(n, chi/n), positions = the count smallest
    of n i.i.d. uniforms (a uniform random subset of that size).  The draw
    order is fixed (counts, then one uniform block) so runs are reproducible.
    """
    rows = words.shape[0]
    counts = rng.binomial(n, chi / n, size=rows)
    nz = np.nonzero(counts)[0]
    if nz.size:
        u = rng.random((nz.size, n))
        order = np.argsort(u, axis=1)
        take = counts[nz]
        keep = np.arange(n) < take[:, None]
        flat_rows = np.repeat(nz, take)
        flat_pos = order[keep]
        np.bitwise_xor.at(
            words, (flat_rows, flat_pos >> 6), _U64(1) << (flat_pos & 63).astype(_U64)
        )
    return words


# ---------------------------------------------------------------------------
# Generations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PdcoeaDistribution:
    """Pairwise-dominance selection followed by independent bitwise mutation."""

    oracle: object
    chi: float


def step_generation(pops: PairedPopulations, dist: PdcoeaDistribution,
                    rng: RandomStream) -> PairedPopulations:
    """Replace both populations with lambda i.i.d. offspring pairs.

    Offspring slot i of the predator and prey populations come from the same
    interaction (they may be dependent); distinct slots are independent.
    Draw order: the 4*lambda selection slots, then the predators' mutation
    draws, then the prey's.
    """
    n = pops.n
    if not 0.0 <= dist.chi <= n:
        raise ValueError(f"chi must be in [0, n] = [0, {n}], got {dist.chi}")
    pred_slots, prey_slots = _select_slots(pops, dist.oracle, rng, pops.lam)
    pred_words = pops.predators.words[pred_slots].copy()
    prey_words = pops.prey.words[prey_slots].copy()
    _mutate_rows(pred_words, n, dist.chi, rng)
    _mutate_rows(prey_words, n, dist.chi, rng)
    return PairedPopulations(Population(pred_words, n), Population(prey_words, n),
                             generation=pops.generation + 1)


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------

def singleton_target(x_star: BitVector, y_star: BitVector):
    """Predicate: both populations contain the given genomes exactly."""

    def predicate(pops: PairedPopulations) -> bool:
        if pops.n != x_star.n or pops.n != y_star.n:
            raise ValueError("target genome length does not match populations")
        pred_hit = bool(np.all(pops.predators.words == x_star.words, axis=1).any())
        return pred_hit and bool(np.all(pops.prey.words == y_star.words, axis=1).any())

    predicate.__name__ = "singleton_target"
    return predicate


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

_TRAJECTORY_DTYPE = np.dtype(
    [
        ("generation", np.int64),
        ("pred_mean", np.float64),
        ("pred_min", np.int64),
        ("pred_max", np.int64),
        ("prey_mean", np.float64),
        ("prey_min", np.int64),
        ("prey_max", np.int64),
        ("prey_in_s0", np.int64),
        ("p0", np.float64),
        ("q0", np.float64),
    ]
)


@dataclass(frozen=True)
class PdcoeaConfig:
    """One run of the pairwise-dominance process.

    `target` defaults to the game's epsilon-approximation predicate; pass
    another predicate (e.g. `singleton_target`) for different solution
    concepts.  `record_trajectory` can be disabled for bulk sweeps.
    """

    lam: int
    chi: float
    n: int
    seed: int
    budget_generations: int
    game: BilinearParams
    target: Optional[Callable[[PairedPopulations], bool]] = None
    record_trajectory: bool = True

    def __post_init__(self):
        if self.lam < 1:
            raise ValueError(f"lambda must be >= 1, got {self.lam}")
        if not 0.0 < self.chi <= self.n:
            raise ValueError(f"chi must be in (0, n] = (0, {self.n}], got {self.chi}")
        if self.budget_generations < 1:
            raise ValueError(f"budget must be >= 1 generation, got {self.budget_generations}")
        if self.game.n != self.n:
            raise ValueError(f"game n={self.game.n} does not match config n={self.n}")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one run.

    T_interactions is t * lambda at the first hit (a multiple of lambda by
    construction) or budget * lambda on timeout; timeouts are censored lower
    bounds, flagged by hit=False.
    """

    hit: bool
    T_interactions: int
    generations_run: int
    seed: int
    trajectory: Optional[np.ndarray] = None
    observed: Optional[tuple] = None
    wall_ms: float = field(default=0.0, compare=False)

    def __eq__(self, other):
        if not isinstance(other, TrialRecord):
            return NotImplemented
        same_traj = (
            self.trajectory is None
            and other.trajectory is None
            or (
                self.trajectory is not None
                and other.trajectory is not None
                and np.array_equal(self.trajectory, other.trajectory)
            )
        )
        return (
            same_traj
            and self.hit == other.hit
            and self.T_interactions == other.T_interactions
            and self.generations_run == other.generations_run
            and self.seed == other.seed
            and self.observed == other.observed
        )


def _trajectory_row(pops: PairedPopulations, params: BilinearParams):
    cx = pops.predators.ones
    cy = pops.prey.ones
    lam = pops.lam
    in_s0 = int((cy >= params.alpha_n).sum())
    return (
        pops.generation,
        float(cx.mean()),
        int(cx.min()),
        int(cx.max()),
        float(cy.mean()),
        int(cy.min()),
        int(cy.max()),
        in_s0,
        float((cx < params.beta_n).sum() / lam),
        float(in_s0 / lam),
    )


def run_trial(cfg: PdcoeaConfig, observer=None) -> TrialRecord:
    """Run one seeded trial until the target is hit or the budget expires.

    The target is evaluated at t = 0, 1, 2, ... before offspring are
    produced.  Trajectory rows (one per evaluated generation, including the
    hit generation) are recorded when `record_trajectory` is set; `observer`,
    if given, is called on each evaluated state and its returns are collected
    into `observed`.

    Identical (seed, config) pairs produce identical records on every
    platform; wall_ms is the only nondeterministic field.
    """
    t0 = time.perf_counter()
    rng = spawn_stream(cfg.seed, 0)
    pops = paired_uniform(cfg.lam, cfg.n, rng)
    dist = PdcoeaDistribution(BilinearGame(cfg.game), cfg.chi)
    target = cfg.target if cfg.target is not None else bilinear_target(cfg.game)

    rows = [] if cfg.record_trajectory else None
    seen = [] if observer is not None else None

    hit = False
    generations = cfg.budget_generations
    for t in range(cfg.budget_generations):
        if rows is not None:
            rows.append(_trajectory_row(pops, cfg.game))
        if seen is not None:
            seen.append(observer(pops))
        if target(pops):
            hit = True
            generations = t
            break
        pops = step_generation(pops, dist, rng)

    trajectory = None
    if rows is not None:
        trajectory = np.array(rows[: generations + 1] if hit else rows, dtype=_TRAJECTORY_DTYPE)
        trajectory.setflags(write=False)
    observed = None
    if seen is not None:
        observed = tuple(seen[: generations + 1] if hit else seen)

    return TrialRecord(
        hit=hit,
        T_interactions=generations * cfg.lam,
        generations_run=generations,
        seed=cfg.seed,
        trajectory=trajectory,
        observed=observed,
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
