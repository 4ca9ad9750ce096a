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
    ones,
    paired_uniform,
    spawn_stream,
)

from conftest import count_vector


class TestOnes:
    def test_all_zero(self):
        assert ones(BitVector.zeros(10)) == 0

    def test_all_one(self):
        assert ones(BitVector.all_ones(10)) == 10

    def test_mixed_vector_counted_by_inspection(self):
        v = BitVector([1, 0, 1, 0, 1, 1, 0, 0, 0, 0])
        assert ones(v) == 4

    def test_matches_bit_sum_multiword(self):
        rng = spawn_stream(11, 0)
        for n in (64, 65, 100, 130, 200):
            v = BitVector(rng.integers(0, 2, size=n, dtype=np.uint8))
            assert ones(v) == int(v.bits().sum())


class TestPairedUniform:
    @pytest.mark.parametrize("side", [0, 1], ids=["predators", "prey"])
    def test_ones_distribution_chi_square(self, side):
        # one side's one-counts of 10**5 genomes of n=64 against Binomial(64, 1/2)
        n, draws = 64, 10**5
        counts = np.bincount(paired_uniform(draws, n, spawn_stream(101, 0))[side], minlength=n + 1)
        pmf = scipy.stats.binom.pmf(np.arange(n + 1), n, 0.5)
        # merge tail classes so every expected count is at least 5
        lo = np.searchsorted(pmf * draws, 5.0)
        hi = n - np.searchsorted(pmf[::-1] * draws, 5.0)
        observed = np.concatenate([[counts[:lo].sum()], counts[lo:hi + 1], [counts[hi + 1:].sum()]])
        expected = np.concatenate([[pmf[:lo].sum()], pmf[lo:hi + 1], [pmf[hi + 1:].sum()]]) * draws
        stat, pvalue = scipy.stats.chisquare(observed, expected * observed.sum() / expected.sum())
        assert pvalue >= 1e-3

    def test_mean_ones_n1(self):
        draws = 10**5
        for counts in paired_uniform(draws, 1, spawn_stream(100, 0)):
            assert 0.49 <= counts.sum() / draws <= 0.51

    def test_deterministic_given_stream(self):
        a = paired_uniform(50, 30, spawn_stream(42, 3))
        b = paired_uniform(50, 30, spawn_stream(42, 3))
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_consumes_exactly_two_bit_matrices(self):
        # a run goes on drawing from the stream its start state came from
        rng, ref = spawn_stream(43, 0), spawn_stream(43, 0)
        paired_uniform(7, 65, rng)
        for _ in range(2):
            ref.integers(0, 2, size=(7, 65), dtype=np.uint8)
        assert rng.integers(0, 2**62) == ref.integers(0, 2**62)

    @pytest.mark.parametrize("lam", [0, -1])
    def test_rejects_empty(self, lam):
        with pytest.raises(ValueError, match="population size"):
            paired_uniform(lam, 10, spawn_stream(1, 0))


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

    @pytest.mark.parametrize("derive", [spawn_stream, derive_seed])
    @pytest.mark.parametrize("seed, index", [(1.9, 0), (True, 0), (1, True), (1, 2.9),
                                             (np.int64(1), 0), ("1", 0), (1, -1)])
    def test_seed_and_index_must_be_python_ints(self, derive, seed, index):
        # truncated, 1.9 and True would name seed 1's stream and 2.9 index 2's;
        # derive_seed checks the index's sign as spawn_stream does
        with pytest.raises(ValueError, match="seed and index must be integers"):
            derive(seed, index)

    def test_derive_seed_deterministic_and_distinct(self):
        seeds = [derive_seed(99, i) for i in range(100)]
        assert seeds == [derive_seed(99, i) for i in range(100)]
        assert len(set(seeds)) == 100


class TestPacking:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            BitVector([0, 1, 2])

    def test_bits_are_a_read_only_uint8_copy(self):
        source = np.array([1, 0, 1, 1], dtype=np.int64)
        v = BitVector(source)
        source[0] = 0
        assert v.bits().dtype == np.uint8 and list(v.bits()) == [1, 0, 1, 1]
        assert not v.bits().flags.writeable and v.n == 4 and ones(v) == 3
        assert BitVector(iter([1, 0])) == BitVector([True, False])
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
        cx, cy = paired_uniform(9, 100, spawn_stream(6, 0))
        rng = spawn_stream(6, 0)
        for counts in (cx, cy):  # predators first
            bits = rng.integers(0, 2, size=(9, 100), dtype=np.uint8)
            assert counts.dtype == np.int64 and counts.shape == (9,)
            assert list(counts) == [int(row.sum()) for row in bits]

    def test_count_only_population(self):
        pop = Population(10, [3, 0, 10])
        assert pop.lam == 3 and pop.n == 10 and list(pop.ones) == [3, 0, 10]
        assert pop.ones.dtype == np.int64 and not pop.ones.flags.writeable
        assert not hasattr(pop, "words") and not hasattr(pop, "member")
        with pytest.raises(ValueError):
            Population(10, [])
        with pytest.raises(ValueError):
            Population(10, [[1, 2], [3, 4]])

    @pytest.mark.parametrize("bad", [
        pytest.param([-3, -1, 2], id="negative"),
        pytest.param([0, 11, 2], id="above-n"),
        pytest.param([1.7, 2.2, 3], id="non-integral"),
        pytest.param([float("nan"), 1, 2], id="nan"),
        pytest.param([1e30, 1, 2], id="huge"),
        pytest.param([[1, 2, 3]], id="2-d"),
    ])
    @pytest.mark.parametrize("side", ["predators", "prey"])
    def test_counts_checked_when_a_state_is_built(self, bad, side):
        # unchecked, a negative count would wrap round the sign tables and the
        # guide, a count above n fail inside the step, and a fraction truncate
        state = [[0, 1, 2], [0, 1, 2]]
        state[side == "prey"] = bad
        with pytest.raises(ValueError, match=r"n = 10 .*\[0, n\] = \[0, 10\]"):
            PairedPopulations(*(Population(10, counts) for counts in state))

    @pytest.mark.parametrize("bad", [
        pytest.param([2**70, 1], id="beyond-int64"),
        pytest.param(["a", 1], id="string"),
        pytest.param([True, 1], id="bool-in-a-list"),
        pytest.param(np.array([True, False]), id="bool-array"),
    ])
    def test_bools_strings_and_huge_ints_are_not_counts(self, bad):
        # these once escaped as an OverflowError, numpy's parse error, or the
        # counts [1 1] and [1 0]
        with pytest.raises(ValueError, match=r"n = 10 .*\[0, n\] = \[0, 10\]"):
            Population(10, bad)

    def test_int64_counts_taken_over_without_a_copy(self):
        counts = np.array([3, 0, 10], dtype=np.int64)
        pop = Population(10, counts)
        assert np.shares_memory(pop.ones, counts) and not counts.flags.writeable

    def test_hand_built_state_concatenates_once(self):
        # the flat state is both sides, predators first, read-only, built once;
        # the sides are views of it
        pops = PairedPopulations(Population(10, [3, 0, 10]), Population(10, [1, 2, 4]))
        flat = pops.flat
        assert flat is pops.flat and flat.dtype == np.int64 and not flat.flags.writeable
        assert flat.tolist() == [3, 0, 10, 1, 2, 4]
        assert (pops.n, pops.lam) == (10, 3)
        assert pops.predators.ones.tolist() == [3, 0, 10] and pops.prey.ones.tolist() == [1, 2, 4]
        assert all(np.shares_memory(side.ones, flat) for side in (pops.predators, pops.prey))

    def test_paired_validation(self):
        a = Population(10, paired_uniform(3, 10, spawn_stream(1, 0))[0])
        b = Population(10, paired_uniform(4, 10, spawn_stream(1, 1))[0])
        with pytest.raises(ValueError):
            PairedPopulations(a, b)
        c = Population(11, paired_uniform(3, 11, spawn_stream(1, 2))[0])
        with pytest.raises(ValueError):
            PairedPopulations(a, c)
