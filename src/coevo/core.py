"""Bit-vector strategies, populations, and deterministic stream splitting.

A single genome (`BitVector`) is a fixed-length bitstring packed into 64-bit
words (bit i of the genome lives in word i // 64 at position i % 64), with
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

from dataclasses import dataclass

import numpy as np

# A RandomStream is simply a numpy Generator; the alias names the contract.
RandomStream = np.random.Generator

_WORD_BITS = 64
_U64 = np.uint64


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


def words_for(n: int) -> int:
    return (n + _WORD_BITS - 1) // _WORD_BITS


def pack_bits(bits) -> np.ndarray:
    """Pack a (rows, n) or (n,) array of 0/1 values into uint64 words.

    The bit order is fixed by arithmetic (bit i -> word i//64, shift i%64),
    not by memory layout, so packed values are endian independent.
    """
    arr = np.asarray(bits, dtype=_U64)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[None, :]
    rows, n = arr.shape
    nwords = words_for(n)
    padded = np.zeros((rows, nwords * _WORD_BITS), dtype=_U64)
    padded[:, :n] = arr
    shifts = np.arange(_WORD_BITS, dtype=_U64)
    # disjoint bits per term, so the sum is an exact bitwise OR
    words = (padded.reshape(rows, nwords, _WORD_BITS) << shifts).sum(axis=2, dtype=_U64)
    return words[0] if squeeze else words


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_bits; returns uint8 bits of shape (..., n)."""
    arr = np.atleast_2d(np.asarray(words, dtype=_U64))
    shifts = np.arange(_WORD_BITS, dtype=_U64)
    bits = ((arr[:, :, None] >> shifts) & _U64(1)).astype(np.uint8)
    bits = bits.reshape(arr.shape[0], -1)[:, :n]
    return bits[0] if np.asarray(words).ndim == 1 else bits


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Number of set bits per row of a (rows, nwords) uint64 array."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def _tail_mask(n: int) -> np.ndarray:
    """Word mask with exactly the first n bit positions set."""
    nwords = words_for(n)
    mask = np.full(nwords, ~_U64(0), dtype=_U64)
    rem = n % _WORD_BITS
    if rem:
        mask[-1] = (_U64(1) << _U64(rem)) - _U64(1)
    return mask


class BitVector:
    """Immutable fixed-length binary strategy.

    Bits beyond position n-1 in the last word are always zero, which makes
    word-level equality, XOR and popcount exact.
    """

    __slots__ = ("words", "n", "_ones")

    def __init__(self, words: np.ndarray, n: int):
        if n < 1:
            raise ValueError(f"bit vector length must be >= 1, got {n}")
        words = np.asarray(words, dtype=_U64)
        if words.shape != (words_for(n),):
            raise ValueError(f"expected {words_for(n)} words for n={n}, got shape {words.shape}")
        words = words.copy()
        words.setflags(write=False)
        self.words = words
        self.n = int(n)
        self._ones = int(popcount_rows(words[None, :])[0])

    @classmethod
    def from_bits(cls, bits) -> "BitVector":
        bits = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits)
        if bits.ndim != 1 or not np.isin(bits, (0, 1)).all():
            raise ValueError("bits must be a 1-d sequence of 0/1 values")
        return cls(pack_bits(bits), bits.size)

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(np.zeros(words_for(n), dtype=_U64), n)

    @classmethod
    def all_ones(cls, n: int) -> "BitVector":
        return cls(_tail_mask(n), n)

    def complement(self) -> "BitVector":
        return BitVector(self.words ^ _tail_mask(self.n), self.n)

    def bits(self) -> np.ndarray:
        return unpack_bits(self.words, self.n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and self.n == other.n
            and bool(np.array_equal(self.words, other.words))
        )

    def __hash__(self):
        return hash((self.n, self.words.tobytes()))

    def __repr__(self):
        body = "".join(map(str, self.bits())) if self.n <= 64 else f"<{self.n} bits, {self._ones} ones>"
        return f"BitVector({body})"


def ones(v: BitVector) -> int:
    """Number of 1-bits in v."""
    return v._ones


def hamming(u: BitVector, v: BitVector) -> int:
    """Number of positions where u and v disagree."""
    if u.n != v.n:
        raise ValueError(f"length mismatch: {u.n} != {v.n}")
    return int(popcount_rows((u.words ^ v.words)[None, :])[0])


def uniform_bitvector(n: int, rng: RandomStream) -> BitVector:
    """Draw each bit independently with probability 1/2."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    bits = rng.integers(0, 2, size=n, dtype=np.uint8)
    return BitVector(pack_bits(bits), n)


class Population:
    """An array of lambda members of common genome length n.

    The state is the read-only int64 vector of per-member one-counts, which
    is all the bilinear game and the shipped targets depend on.  An int64
    array is taken over without a copy and made read-only.  Counts are
    stored as given: callers that take counts from outside the program
    check them first (`harness.paired_from_counts`).
    """

    __slots__ = ("ones", "n", "lam")

    def __init__(self, n: int, ones):
        counts = np.asarray(ones, dtype=np.int64)
        if counts.ndim != 1 or counts.shape[0] < 1:
            raise ValueError("population needs a 1-d one-count vector with lambda >= 1")
        counts.setflags(write=False)
        self.ones = counts
        self.n = int(n)
        self.lam = int(counts.shape[0])

    @classmethod
    def uniform(cls, lam: int, n: int, rng: RandomStream) -> "Population":
        """lambda genomes with i.i.d. fair bits, stored as their one-counts."""
        if lam < 1:
            raise ValueError(f"population size must be >= 1, got {lam}")
        bits = rng.integers(0, 2, size=(lam, n), dtype=np.uint8)
        return cls(n, bits.sum(axis=1, dtype=np.int64))

    def __len__(self):
        return self.lam

    def __repr__(self):
        return f"Population(lambda={self.lam}, n={self.n})"


@dataclass(frozen=True)
class PairedPopulations:
    """Algorithm state: predator and prey populations at generation t."""

    predators: Population
    prey: Population
    generation: int = 0

    def __post_init__(self):
        if self.predators.lam != self.prey.lam:
            raise ValueError("predator and prey populations must have equal size")
        if self.predators.n != self.prey.n:
            raise ValueError("predator and prey genomes must have equal length")
        if self.generation < 0:
            raise ValueError("generation must be non-negative")

    @property
    def lam(self) -> int:
        return self.predators.lam

    @property
    def n(self) -> int:
        return self.predators.n


def paired_uniform(lam: int, n: int, rng: RandomStream) -> PairedPopulations:
    """Sample both initial populations uniformly at random (predators first)."""
    predators = Population.uniform(lam, n, rng)
    prey = Population.uniform(lam, n, rng)
    return PairedPopulations(predators, prey, generation=0)
