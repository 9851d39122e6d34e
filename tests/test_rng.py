import json
import re

import numpy as np
import pytest

from rmtldp import rng as rng_module
from rmtldp.rng import generator_from_json, state_json, stream, stream_keys, streams

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


def _at_position(position):
    """stream(5, 2) after `position` float64 draws, or one float32 draw."""
    gen = stream(5, 2)
    if position == "float32":
        gen.random(dtype=np.float32)  # stashes the word's other half: has_uint32 = 1
    else:
        gen.random(position)
    return gen


NEXT_DRAWS = {
    "random": lambda gen: gen.random(5),
    "standard_normal": lambda gen: gen.standard_normal(5),
    "float32": lambda gen: gen.random(5, dtype=np.float32),
    "uint32": lambda gen: gen.integers(0, 2**32, size=5, dtype=np.uint32),
}


class TestStateJson:
    # (position, buffer_pos, has_uint32): 1-4 draws reach every buffer_pos, as does a fresh stream's 4
    @pytest.mark.parametrize("position, buffer_pos, has_uint32",
                             [(0, 4, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0), (4, 4, 0), ("float32", 1, 1)])
    def test_restored_generator_draws_on(self, position, buffer_pos, has_uint32):
        saved = json.loads(json.dumps(state_json(_at_position(position))))
        assert (saved["buffer_pos"], saved["has_uint32"]) == (buffer_pos, has_uint32)
        for name, draw in NEXT_DRAWS.items():
            restored = generator_from_json(saved)
            assert state_json(restored) == saved
            assert np.array_equal(draw(restored), draw(_at_position(position))), name

    @pytest.mark.parametrize("obj, message", [
        ([1, 2], "rng_state must be a JSON object, got [1, 2]"),
        (dict(state_json(stream(1)), counter=0), "rng_state counter must be a list of 4 integers in [0, 2**64), got 0"),
        (dict(state_json(stream(1)), uinteger=[0]), "rng_state uinteger must be an integer in [0, 2**32), got [0]"),
        (dict(state_json(stream(1)), key=[0, 2**64]), "rng_state key must be a list of 2 integers"),
    ], ids=["not_object", "counter_scalar", "uinteger_list", "key_past_word"])
    def test_rejects_bad_state(self, obj, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            generator_from_json(obj)
