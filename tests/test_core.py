import hashlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats

from coevo import (
    BitVector,
    PairedPopulations,
    Population,
    derive_seed,
    hamming,
    ones,
    spawn_stream,
    uniform_bitvector,
)

from conftest import count_vector


class TestOnes:
    def test_all_zero(self):
        assert ones(BitVector.zeros(10)) == 0

    def test_all_one(self):
        assert ones(BitVector.all_ones(10)) == 10

    def test_mixed_vector_counted_by_inspection(self):
        v = BitVector.from_bits([1, 0, 1, 0, 1, 1, 0, 0, 0, 0])
        assert ones(v) == 4

    def test_matches_bit_sum_multiword(self):
        rng = spawn_stream(11, 0)
        for n in (64, 65, 100, 130, 200):
            v = uniform_bitvector(n, rng)
            assert ones(v) == int(v.bits().sum())

    def test_complement_identity(self):
        rng = spawn_stream(12, 0)
        for n in (1, 7, 64, 99):
            v = uniform_bitvector(n, rng)
            assert ones(v.complement()) == n - ones(v)


class TestHamming:
    def test_identity(self):
        v = count_vector(3, 10)
        assert hamming(v, v) == 0

    def test_complement_full_distance(self):
        u = BitVector.zeros(8)
        assert hamming(u, BitVector.all_ones(8)) == 8

    def test_positionwise(self):
        u = BitVector.from_bits([1, 1, 0, 0])
        v = BitVector.from_bits([1, 0, 1, 0])
        assert hamming(u, v) == 2

    def test_symmetric(self):
        rng = spawn_stream(13, 0)
        for _ in range(20):
            u, v = uniform_bitvector(70, rng), uniform_bitvector(70, rng)
            assert hamming(u, v) == hamming(v, u)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            hamming(BitVector.zeros(4), BitVector.zeros(5))

    def test_triangle_inequality_exhaustive_small_n(self):
        n = 6
        vectors = [BitVector.from_bits([(i >> b) & 1 for b in range(n)]) for i in range(2**n)]
        dist = np.array([[hamming(u, v) for v in vectors] for u in vectors])
        # dist[u, w] <= dist[u, v] + dist[v, w] for every triple
        lhs = dist[:, None, :]
        rhs = dist[:, :, None] + dist[None, :, :]
        assert (lhs <= rhs).all()


class TestUniformBitvector:
    def test_mean_ones_n1(self):
        rng = spawn_stream(100, 0)
        draws = 10**5
        total = sum(ones(uniform_bitvector(1, rng)) for _ in range(draws))
        assert 0.49 <= total / draws <= 0.51

    def test_deterministic_given_stream(self):
        a = uniform_bitvector(50, spawn_stream(42, 3))
        b = uniform_bitvector(50, spawn_stream(42, 3))
        assert a == b

    def test_ones_distribution_chi_square(self):
        # ones counts of n=64 draws against Binomial(64, 1/2)
        n, draws = 64, 10**5
        rng = spawn_stream(101, 0)
        bits = rng.integers(0, 2, size=(draws, n), dtype=np.uint8)
        counts = np.bincount(bits.sum(axis=1), minlength=n + 1)
        pmf = scipy.stats.binom.pmf(np.arange(n + 1), n, 0.5)
        # merge tail classes so every expected count is at least 5
        lo = np.searchsorted(pmf * draws, 5.0)
        hi = n - np.searchsorted(pmf[::-1] * draws, 5.0)
        observed = np.concatenate([[counts[:lo].sum()], counts[lo:hi + 1], [counts[hi + 1:].sum()]])
        expected = np.concatenate([[pmf[:lo].sum()], pmf[lo:hi + 1], [pmf[hi + 1:].sum()]]) * draws
        stat, pvalue = scipy.stats.chisquare(observed, expected * observed.sum() / expected.sum())
        assert pvalue >= 1e-3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            uniform_bitvector(0, spawn_stream(1, 0))


class TestSpawnStream:
    def test_same_index_same_stream(self):
        a = spawn_stream(7, 0).random(100)
        b = spawn_stream(7, 0).random(100)
        assert np.array_equal(a, b)

    def test_distinct_indices_decorrelated(self):
        a = spawn_stream(7, 0).random(10**4)
        b = spawn_stream(7, 1).random(10**4)
        assert (a != b).mean() > 0.99

    def test_reproducible_across_processes(self):
        local = hashlib.sha256(spawn_stream(123, 5).random(1000).tobytes()).hexdigest()
        script = (
            "import hashlib; from coevo import spawn_stream; "
            "print(hashlib.sha256(spawn_stream(123, 5).random(1000).tobytes()).hexdigest())"
        )
        remote = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        ).stdout.strip()
        assert local == remote

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            spawn_stream(1, -1)

    def test_derive_seed_deterministic_and_distinct(self):
        seeds = [derive_seed(99, i) for i in range(100)]
        assert seeds == [derive_seed(99, i) for i in range(100)]
        assert len(set(seeds)) == 100


class TestPacking:
    def test_from_bits_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BitVector.from_bits([0, 1, 2])

    def test_bits_are_a_read_only_uint8_copy(self):
        source = np.array([1, 0, 1, 1], dtype=np.int64)
        v = BitVector(source)
        source[0] = 0
        assert v.bits().dtype == np.uint8 and list(v.bits()) == [1, 0, 1, 1]
        assert not v.bits().flags.writeable and v.n == 4 and ones(v) == 3
        assert BitVector.from_bits(iter([1, 0])) == BitVector([True, False])
        for bad in ([], [[0, 1]], [0, 1, -1]):
            with pytest.raises(ValueError):
                BitVector(bad)

    def test_equality_and_hash(self):
        a = count_vector(3, 70)
        b = count_vector(3, 70)
        assert a == b and hash(a) == hash(b)
        assert a != count_vector(4, 70)


class TestPopulations:
    def test_uniform_shapes_and_cached_counts(self):
        pop = Population.uniform(9, 100, spawn_stream(6, 0))
        assert len(pop) == 9 and pop.n == 100
        bits = spawn_stream(6, 0).integers(0, 2, size=(9, 100), dtype=np.uint8)
        assert list(pop.ones) == [int(row.sum()) for row in bits]

    def test_count_only_population(self):
        pop = Population(10, [3, 0, 10])
        assert pop.lam == 3 and pop.n == 10 and list(pop.ones) == [3, 0, 10]
        assert pop.ones.dtype == np.int64 and not pop.ones.flags.writeable
        assert not hasattr(pop, "words") and not hasattr(pop, "member")
        with pytest.raises(ValueError):
            Population(10, [])
        with pytest.raises(ValueError):
            Population(10, [[1, 2], [3, 4]])

    def test_paired_validation(self):
        a = Population.uniform(3, 10, spawn_stream(1, 0))
        b = Population.uniform(4, 10, spawn_stream(1, 1))
        with pytest.raises(ValueError):
            PairedPopulations(a, b)
        c = Population.uniform(3, 11, spawn_stream(1, 2))
        with pytest.raises(ValueError):
            PairedPopulations(a, c)
