"""The bit-level PDCoEA: the slow reference side of the one-count engine's
equivalence tests.  Nothing outside the tests uses it."""

import numpy as np

from coevo import BilinearGame, PairedPopulations, Population, paired_uniform, spawn_stream
from coevo.pdcoea import _select_slots


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


def reference_step(pops, oracle, chi, rng):
    """One generation on genomes: selection, then bit flips of every offspring."""
    pred_slots, prey_slots = _select_slots(pops, oracle, rng, pops.lam)
    pred = mutate_words(pops.predators.words[pred_slots].copy(), pops.n, chi, rng)
    prey = mutate_words(pops.prey.words[prey_slots].copy(), pops.n, chi, rng)
    return PairedPopulations(Population(pred, pops.n), Population(prey, pops.n),
                             generation=pops.generation + 1)


def reference_hit_generation(cfg, target):
    """`run_trial`'s loop on the bit-level engine: first hit generation, or
    None when the budget runs out."""
    rng = spawn_stream(cfg.seed, 0)
    pops = paired_uniform(cfg.lam, cfg.n, rng)
    oracle = BilinearGame(cfg.game)
    for t in range(cfg.budget_generations):
        if target(pops):
            return t
        pops = reference_step(pops, oracle, cfg.chi, rng)
    return None
