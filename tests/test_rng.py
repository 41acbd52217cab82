import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rldp.rng import (_KEY_CHUNK, NOISE, iter_substreams, substream,
                      substream_keys)


def _reference_keys(seed, key, last):
    """One SeedSequence per index: the definition the batch must reproduce."""
    return np.array([np.random.SeedSequence(seed, spawn_key=(*key, int(i)))
                     .generate_state(2, np.uint64) for i in last],
                    dtype=np.uint64).reshape(-1, 2)


class TestSubstreamKeys:
    @pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**64 - 1])
    @pytest.mark.parametrize("replica", [0, 3])
    @pytest.mark.parametrize("n", [1, 16, 1000])
    def test_matches_seed_sequence(self, seed, replica, n):
        last = np.arange(n)
        got = substream_keys(seed, NOISE, replica, last=last)
        assert got.dtype == np.uint64 and got.shape == (n, 2)
        assert np.array_equal(got, _reference_keys(seed, (NOISE, replica), last))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**130),
           key=st.lists(st.integers(0, 2**100), max_size=4),
           last=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=20))
    def test_matches_seed_sequence_property(self, seed, key, last):
        got = substream_keys(seed, *key, last=np.array(last, dtype=np.int64))
        assert np.array_equal(got, _reference_keys(seed, tuple(key), last))

    def test_empty(self):
        assert substream_keys(1, NOISE, 0, last=np.arange(0)).shape == (0, 2)

    @pytest.mark.parametrize("seed, key, last", [
        (-3, (NOISE, 0), [0]),
        (1, (NOISE, -1), [0]),
        (1, (NOISE, 0), [-1]),
    ])
    def test_negative_rejected_like_substream(self, seed, key, last):
        with pytest.raises(ValueError):
            substream(seed, *key, *last)
        with pytest.raises(ValueError):
            substream_keys(seed, *key, last=np.array(last))

    def test_index_beyond_one_word_rejected(self):
        with pytest.raises(ValueError):
            substream_keys(1, NOISE, 0, last=np.array([2**32]))


class TestIterSubstreams:
    def test_draws_equal_per_particle_substreams(self):
        gens = iter_substreams(7, NOISE, 2, last=np.arange(40))
        for i, gen in enumerate(gens):
            # odd-sized draws leave a partly used Philox buffer and a spare
            # 32-bit half behind, which the reset for the next particle
            # must discard
            expected = substream(7, NOISE, 2, i)
            assert np.array_equal(gen.standard_normal((5, 3)),
                                  expected.standard_normal((5, 3)))
            assert (gen.integers(2**31, dtype=np.uint32)
                    == expected.integers(2**31, dtype=np.uint32))
        assert i == 39

    @pytest.mark.parametrize("n", [_KEY_CHUNK - 1, _KEY_CHUNK, _KEY_CHUNK + 1],
                             ids=["chunk-1", "chunk", "chunk+1"])
    def test_draws_equal_across_key_chunks(self, n):
        for i, gen in enumerate(iter_substreams(3, NOISE, 1, last=np.arange(n))):
            # the same partly used buffer and spare 32-bit half as above
            expected = substream(3, NOISE, 1, i)
            assert np.array_equal(gen.standard_normal(3),
                                  expected.standard_normal(3))
            assert (gen.integers(2**31, dtype=np.uint32)
                    == expected.integers(2**31, dtype=np.uint32))
        assert i == n - 1
