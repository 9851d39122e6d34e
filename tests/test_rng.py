import numpy as np
import pytest

from rmtldp import rng as rng_module
from rmtldp.rng import stream, stream_keys, streams

BOUND = 2**32  # trial indices must be below it, so that each is one 32-bit word


def _seed_sequence_keys(seed, prefix, indices):
    return np.array([np.random.SeedSequence(seed, spawn_key=(*prefix, k)).generate_state(2, np.uint64)
                     for k in indices], dtype=np.uint64).reshape(-1, 2)


class TestStreamKeys:
    """stream_keys re-implements numpy's SeedSequence hash; if numpy ever
    changes it, these fail instead of results changing silently."""

    @pytest.mark.parametrize("prefix_len", [0, 1, 2])
    def test_equal_seed_sequence_keys(self, prefix_len):
        draw = np.random.default_rng(2100 + prefix_len)
        seeds = [int(s) for s in draw.integers(0, 2**64 - 1, size=4, dtype=np.uint64, endpoint=True)]
        seeds += [0, 7, 2**64 - 1, 2**64 + 5, 2**130 + 17]  # the last two are wider than 64 bits
        for seed in seeds:
            # prefix entries up to 2**40 take two words each
            prefix = tuple(int(v) for v in draw.integers(0, 2**40, size=prefix_len))
            start = int(draw.integers(0, BOUND - 30))
            for lo, hi in ((0, 20), (start, start + 20), (BOUND - 10, BOUND)):
                assert np.array_equal(stream_keys(seed, *prefix, start=lo, stop=hi),
                                      _seed_sequence_keys(seed, prefix, range(lo, hi)))

    def test_empty_range(self):
        assert stream_keys(3, 1, start=5, stop=5).shape == (0, 2)

    @pytest.mark.parametrize("start, stop", [(BOUND, BOUND + 1), (BOUND - 1, BOUND + 1), (-1, 2), (5, 4)])
    def test_index_past_bound_raises(self, start, stop):
        with pytest.raises(ValueError, match=r"0 <= start <= stop <= 2\*\*32"):
            stream_keys(3, 1, start=start, stop=stop)

    @pytest.mark.parametrize("seed, prefix", [(-1, (1,)), (3, (-2,))])
    def test_negative_seed_or_path_raises(self, seed, prefix):
        with pytest.raises(ValueError, match="non-negative"):
            stream_keys(seed, *prefix, start=0, stop=2)


class TestStreams:
    def test_pool_draws_equal_stream_across_batches(self):
        for start, stop in ((0, 256), (256, 300)):
            gens = streams(7, 1, start=start, stop=stop)
            assert len(gens) == stop - start
            for k, gen in zip(range(start, stop), gens):
                ref = stream(7, 1, k)
                # an odd count of 32-bit draws leaves a half-used word, which re-keying must clear
                assert np.array_equal(gen.integers(0, 2**32, size=3, dtype=np.uint32),
                                      ref.integers(0, 2**32, size=3, dtype=np.uint32))
                assert np.array_equal(gen.standard_normal(5), ref.standard_normal(5))
        assert len(rng_module._THREAD_POOL.gens) == 256
