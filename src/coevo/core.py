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


def _count_vector(counts, n: int) -> np.ndarray:
    """One side's one-counts as int64 (an int64 array is not copied): 1-d,
    non-empty and whole numbers in [0, n], else a `ValueError` names n."""
    given = np.asarray(counts)
    with np.errstate(invalid="ignore"):  # NaN, inf and huge counts are rejected below
        ints = given.astype(np.int64, copy=False)
    if given.ndim != 1 or not given.size or ((ints != given) | (ints < 0) | (ints > n)).any():
        raise ValueError(f"one-counts for n = {n} must be a non-empty 1-d array of whole "
                         f"numbers in [0, n] = [0, {n}], got {given.tolist()}")
    return ints


class Population:
    """An array of lambda members of common genome length n.

    The state is the read-only int64 vector of per-member one-counts, which
    is all the bilinear game and the shipped targets depend on, checked by
    `_count_vector`.  An int64 array is taken over and made read-only.
    """

    __slots__ = ("ones", "n", "lam")

    def __init__(self, n: int, ones):
        counts = _count_vector(ones, n)
        counts.setflags(write=False)
        self.ones, self.n, self.lam = counts, int(n), len(counts)

    def __repr__(self):
        return f"Population(lambda={self.lam}, n={self.n})"


class PairedPopulations:
    """Algorithm state: `flat`, the predators' then the prey's one-counts (lam
    each) as one read-only int64 array.  `predators` and `prey` are
    `Population` views of its halves, built on each read."""

    __slots__ = ("flat", "n", "lam")

    def __init__(self, predators: Population, prey: Population):
        if predators.lam != prey.lam:
            raise ValueError("predator and prey populations must have equal size")
        if predators.n != prey.n:
            raise ValueError("predator and prey genomes must have equal length")
        flat = np.concatenate((predators.ones, prey.ones))
        flat.setflags(write=False)
        self.flat, self.n, self.lam = flat, predators.n, predators.lam

    @classmethod
    def _carry(cls, flat: np.ndarray, n: int) -> "PairedPopulations":
        """The unchecked state of `flat`, the engine's children (in [0, n])."""
        pops = cls.__new__(cls)
        pops.flat, pops.n, pops.lam = flat, n, len(flat) // 2
        return pops

    predators = property(lambda self: Population(self.n, self.flat[:self.lam]))
    prey = property(lambda self: Population(self.n, self.flat[self.lam:]))


def paired_uniform(lam: int, n: int, rng: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    """The one-counts (cx, cy) of two uniform populations of lambda genomes
    with i.i.d. fair bits: int64 row sums of two (lambda, n) bit-matrix
    draws, predators first."""
    if lam < 1:
        raise ValueError(f"population size must be >= 1, got {lam}")
    return tuple(rng.integers(0, 2, size=(lam, n), dtype=np.uint8).sum(axis=1, dtype=np.int64)
                 for _ in range(2))
