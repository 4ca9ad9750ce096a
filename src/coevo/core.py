"""Bit-vector strategies, populations, and deterministic stream splitting.

A single genome (`BitVector`) is its n bits, a read-only uint8 array, with
its one-count cached at construction.  A population stores only its
members' one-counts: the bilinear game and the shipped targets see a genome
through nothing else.

Randomness flows through ``numpy.random.Generator`` instances backed by the
PCG64 bit generator.  Child streams are derived from a (seed, index) pair via
``numpy.random.SeedSequence(seed, spawn_key=(index,))``, numpy's documented
splitting mechanism, whose output is platform independent for a fixed numpy
version.  Generators are single-owner: parallel work gets one stream each.
"""

from __future__ import annotations

import numpy as np

# A RandomStream is simply a numpy Generator; the alias names the contract.
RandomStream = np.random.Generator


def spawn_stream(seed: int, index: int = 0) -> RandomStream:
    """Deterministic child stream for (seed, index).

    Distinct indices give streams that are independent for all practical
    purposes (SeedSequence spawn keys).  Identical (seed, index) pairs give
    byte-identical output sequences on every platform and in every process.
    """
    if index < 0:
        raise ValueError(f"stream index must be non-negative, got {index}")
    ss = np.random.SeedSequence(int(seed) % 2**64, spawn_key=(int(index),))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed: int, index: int) -> int:
    """64-bit child seed for work unit `index`, same mixing as spawn_stream."""
    ss = np.random.SeedSequence(int(seed) % 2**64, spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


def popcount_rows(bits) -> np.ndarray:
    """Number of ones in each row (the last axis) of a 0/1 array."""
    return np.asarray(bits).sum(axis=-1, dtype=np.int64)


class BitVector:
    """Immutable fixed-length binary strategy: a read-only uint8 array of its
    n bits, with its one-count cached at construction.

    The constructor takes any 1-d sequence of 0/1 values and copies it.
    """

    __slots__ = ("_bits", "n", "_ones")

    def __init__(self, bits):
        arr = np.asarray(bits if isinstance(bits, np.ndarray) else list(bits))
        if arr.ndim != 1 or arr.size < 1 or not np.isin(arr, (0, 1)).all():
            raise ValueError("bits must be a non-empty 1-d sequence of 0/1 values")
        arr = arr.astype(np.uint8)
        arr.setflags(write=False)
        self._bits = arr
        self.n = int(arr.size)
        self._ones = int(popcount_rows(arr))

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(np.zeros(n, dtype=np.uint8))

    @classmethod
    def all_ones(cls, n: int) -> "BitVector":
        return cls(np.ones(n, dtype=np.uint8))

    def bits(self) -> np.ndarray:
        """The read-only uint8 array of the n bits."""
        return self._bits

    def __eq__(self, other) -> bool:
        return isinstance(other, BitVector) and bool(np.array_equal(self._bits, other._bits))

    def __hash__(self):
        return hash((self.n, self._bits.tobytes()))

    def __repr__(self):
        body = "".join(map(str, self._bits)) if self.n <= 64 else f"<{self.n} bits, {self._ones} ones>"
        return f"BitVector({body})"


def ones(v: BitVector) -> int:
    """Number of 1-bits in v."""
    return v._ones


class Population:
    """An array of lambda members of common genome length n.

    The state is the read-only int64 vector of per-member one-counts, which
    is all the bilinear game and the shipped targets depend on.  An int64
    array is taken over without a copy and made read-only.  The vector must
    be 1-d with lambda >= 1 entries; the counts themselves are stored as
    given, and the exact oracles of `levels` and `bilinear.target_hit`
    take one-count arrays from outside the program and check those instead.
    """

    __slots__ = ("ones", "n", "lam")

    def __init__(self, n: int, ones):
        counts = np.asarray(ones, dtype=np.int64)
        if counts.ndim != 1 or not len(counts):
            raise ValueError("population needs a 1-d one-count vector with lambda >= 1")
        counts.setflags(write=False)
        self.ones, self.n, self.lam = counts, int(n), len(counts)

    def __repr__(self):
        return f"Population(lambda={self.lam}, n={self.n})"


class PairedPopulations:
    """Algorithm state: the predator and prey populations.

    `flat` is both sides' one-counts, predators first, as one read-only int64
    array: given (its halves must be the two sides, as `step_generation`'s
    children are), or else concatenated once, when the state is built.
    """

    __slots__ = ("predators", "prey", "flat")

    def __init__(self, predators: Population, prey: Population, flat=None):
        if predators.lam != prey.lam:
            raise ValueError("predator and prey populations must have equal size")
        if predators.n != prey.n:
            raise ValueError("predator and prey genomes must have equal length")
        if flat is None:
            flat = np.concatenate((predators.ones, prey.ones))
            flat.setflags(write=False)
        self.predators, self.prey, self.flat = predators, prey, flat

    @property
    def lam(self) -> int:
        return self.predators.lam

    @property
    def n(self) -> int:
        return self.predators.n


def paired_uniform(lam: int, n: int, rng: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    """The one-counts (cx, cy) of two uniform populations of lambda genomes
    with i.i.d. fair bits: int64 row sums of two (lambda, n) bit-matrix
    draws, predators first."""
    if lam < 1:
        raise ValueError(f"population size must be >= 1, got {lam}")
    return tuple(rng.integers(0, 2, size=(lam, n), dtype=np.uint8).sum(axis=1, dtype=np.int64)
                 for _ in range(2))
