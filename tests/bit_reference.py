"""The bit-level PDCoEA: the slow reference side of the one-count engine's
equivalence tests.  Nothing outside the tests uses it.

The reference keeps every genome as a row of a (lambda, n) uint8 bit matrix
and flips bits; selection and the target see the rows' one-counts.
"""

import numpy as np

from coevo import BilinearGame, PairedPopulations, Population, spawn_stream
from coevo.core import popcount_rows

from selection_reference import select_slots


def initial_bits(lam, n, rng):
    """Generation 0 as bit matrices: the bit draws of `paired_uniform`,
    predators first."""
    pred = rng.integers(0, 2, size=(lam, n), dtype=np.uint8)
    prey = rng.integers(0, 2, size=(lam, n), dtype=np.uint8)
    return pred, prey


def mutate_bits(bits, n, chi, rng):
    """Flip each bit of a writable (rows, n) bit matrix independently with
    probability chi/n, in place: flip count ~ Bin(n, chi/n) per row,
    positions = the count smallest of n i.i.d. uniforms."""
    counts = rng.binomial(n, chi / n, size=bits.shape[0])
    nz = np.nonzero(counts)[0]
    if nz.size:
        order = np.argsort(rng.random((nz.size, n)), axis=1)
        take = counts[nz]
        pos = order[np.arange(n) < take[:, None]]
        np.bitwise_xor.at(bits, (np.repeat(nz, take), pos), np.uint8(1))
    return bits


def counted(pred, prey, n):
    """The count state that selection and the target see for bit matrices."""
    return PairedPopulations(Population(n, popcount_rows(pred)), Population(n, popcount_rows(prey)))


def reference_hit_generation(cfg, target):
    """`run_trial`'s loop on the bit-level engine: first hit generation, or
    None when the budget runs out."""
    rng = spawn_stream(cfg.seed, 0)
    pred, prey = initial_bits(cfg.lam, cfg.n, rng)
    oracle = BilinearGame(cfg.game)
    for t in range(cfg.budget_generations):
        pops = counted(pred, prey, cfg.n)
        if target(pops.predators.ones, pops.prey.ones):
            return t
        pred_slots, prey_slots = select_slots(pops, oracle, rng, cfg.lam)
        pred = mutate_bits(pred[pred_slots], cfg.n, cfg.chi, rng)
        prey = mutate_bits(prey[prey_slots], cfg.n, cfg.chi, rng)
    return None
