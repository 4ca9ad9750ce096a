"""The bit-level PDCoEA: the slow reference side of the one-count engine's
equivalence tests.  Nothing outside the tests uses it.

The reference keeps every genome as a row of a packed (lambda, nwords) word
matrix and flips bits; selection and the target see the rows' popcounts.
"""

import numpy as np

from coevo import BilinearGame, PairedPopulations, Population, spawn_stream
from coevo.core import pack_bits, popcount_rows
from coevo.pdcoea import _select_slots


def initial_words(lam, n, rng):
    """Generation 0 as packed genomes: the bit draws of `paired_uniform`,
    predators first."""
    pred = pack_bits(rng.integers(0, 2, size=(lam, n), dtype=np.uint8))
    prey = pack_bits(rng.integers(0, 2, size=(lam, n), dtype=np.uint8))
    return pred, prey


def mutate_words(words, n, chi, rng):
    """Flip each bit of a writable (rows, nwords) word matrix independently
    with probability chi/n, in place: flip count ~ Bin(n, chi/n) per row,
    positions = the count smallest of n i.i.d. uniforms."""
    counts = rng.binomial(n, chi / n, size=words.shape[0])
    nz = np.nonzero(counts)[0]
    if nz.size:
        order = np.argsort(rng.random((nz.size, n)), axis=1)
        take = counts[nz]
        pos = order[np.arange(n) < take[:, None]]
        np.bitwise_xor.at(words, (np.repeat(nz, take), pos >> 6),
                          np.uint64(1) << (pos & 63).astype(np.uint64))
    return words


def counted(pred, prey, n, generation):
    """The count state that selection and the target see for packed genomes."""
    return PairedPopulations(Population(n, popcount_rows(pred)),
                             Population(n, popcount_rows(prey)), generation=generation)


def reference_hit_generation(cfg, target):
    """`run_trial`'s loop on the bit-level engine: first hit generation, or
    None when the budget runs out."""
    rng = spawn_stream(cfg.seed, 0)
    pred, prey = initial_words(cfg.lam, cfg.n, rng)
    oracle = BilinearGame(cfg.game)
    for t in range(cfg.budget_generations):
        pops = counted(pred, prey, cfg.n, t)
        if target(pops):
            return t
        pred_slots, prey_slots = _select_slots(pops, oracle, rng, cfg.lam)
        pred = mutate_words(pred[pred_slots], cfg.n, cfg.chi, rng)
        prey = mutate_words(prey[prey_slots], cfg.n, cfg.chi, rng)
    return None
