"""Counter-based random streams for reproducible Monte Carlo.

Every consumer of randomness gets its own Philox stream named by a master
seed (any non-negative integer) and an integer path, so results never depend
on batching or order.  ``stream`` builds one; ``streams`` re-keys a pool of
generators to paths (seed, *prefix, k).  Each thread has its own pool, kept
across calls (building a generator costs more than re-keying one), so a
generator from ``streams`` is valid until the next ``streams`` call on its
thread, and threads never share one.
``state_json`` and ``generator_from_json`` write and read a generator's
state as JSON integers, checked field by field against ``_STATE_FIELDS``.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["stream", "stream_keys", "streams", "state_json", "generator_from_json"]

# SeedSequence's hash (a 4-word pool, uint32 constants, 16-bit shifts); Philox's zero counter
_MASK, _POOL, _ZEROS = 0xFFFFFFFF, 4, (0, 0, 0, 0)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Philox's state in JSON: (field, list length or None for one integer, exclusive bound);
# numpy nests the first two, counter and key, in a "state" dict
_STATE_FIELDS = (("counter", 4, 2**64), ("key", 2, 2**64), ("buffer", 4, 2**64),
                 ("buffer_pos", None, 5), ("has_uint32", None, 2), ("uinteger", None, 2**32))


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for (seed, path).

    Identical (seed, path) always yields an identical stream; distinct
    paths yield statistically independent streams.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seed=ss))


def _words(value: int) -> list[int]:
    """value as SeedSequence splits an integer: 32-bit little-endian words, [0] for 0."""
    if value < 0:
        raise ValueError(f"seed and path must be non-negative integers, got {value}")
    return [value >> s & _MASK for s in range(0, max(value.bit_length(), 1), 32)]


def stream_keys(seed: int, *prefix: int, start: int, stop: int) -> np.ndarray:
    """Philox keys SeedSequence(seed, spawn_key=(*prefix, k)).generate_state(2, uint64)
    for k in [start, stop), vectorised over k; each k must be one word."""
    if not 0 <= start <= stop <= 2**32:
        raise ValueError(f"stream indices must satisfy 0 <= start <= stop <= 2**32, got [{start}, {stop})")
    run = _words(int(seed))
    # a spawn key pads the seed to the pool size, so k enters after the pool is mixed
    words = run + [0] * (_POOL - len(run)) + [w for p in prefix for w in _words(int(p))]
    h = _INIT_A

    def hashmix(v, mult=_MULT_A):
        nonlocal h
        v = (v ^ h) * (h := h * mult & _MASK) & _MASK
        return v ^ v >> 16

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _MASK
        return r ^ r >> 16

    mixer = [hashmix(w) for w in words[:_POOL]]
    for src, dst in ((s, d) for s in range(_POOL) for d in range(_POOL) if s != d):
        mixer[dst] = mix(mixer[dst], hashmix(mixer[src]))
    for w in [*words[_POOL:], np.arange(start, stop, dtype=np.uint64)]:
        mixer = [mix(x, hashmix(w)) for x in mixer]
    h = _INIT_B
    out = [hashmix(v, _MULT_B) for v in mixer]
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=-1)


class _ThreadPool(threading.local):
    """One list of generators per thread, kept across streams calls."""

    def __init__(self):
        self.gens = []


_THREAD_POOL = _ThreadPool()


def streams(seed: int, *prefix: int, start: int, stop: int) -> list:
    """Generators drawing stream(seed, *prefix, k), k in [start, stop): the
    generators of this thread's pool (grown as needed, never rebuilt),
    re-keyed, so each draws its stream only until the next streams call on
    the same thread."""
    keys = stream_keys(seed, *prefix, start=start, stop=stop)
    pool = _THREAD_POOL.gens
    pool.extend(np.random.Generator(np.random.Philox(key=0)) for _ in range(len(keys) - len(pool)))
    for gen, key in zip(pool, keys.tolist()):  # Python ints set a state faster than numpy scalars
        gen.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": _ZEROS, "key": key},
                                   "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return pool[:len(keys)]


def state_json(gen: np.random.Generator) -> dict:
    """gen's Philox state as JSON: bit_generator, then _STATE_FIELDS as integers."""
    st = gen.bit_generator.state
    flat = {**st, **st["state"]}
    return {"bit_generator": st["bit_generator"], **{f: np.asarray(flat[f]).tolist() for f, _, _ in _STATE_FIELDS}}


def generator_from_json(obj: dict) -> np.random.Generator:
    """Inverse of state_json.  Raises ValueError naming rng_state and the
    field unless bit_generator is "Philox" and each field is a JSON integer
    (no float, bool or string), or a list of them, of its length and bound."""
    if not isinstance(obj, dict):
        raise ValueError(f"rng_state must be a JSON object, got {obj!r}")
    if obj["bit_generator"] != "Philox":
        raise ValueError(f"rng_state bit_generator must be 'Philox', got {obj['bit_generator']!r}")
    for name, length, bound in _STATE_FIELDS:
        value = obj[name]
        words = value if length and isinstance(value, list) else [value]
        if len(words) != (length or 1) or not all(type(w) is int and 0 <= w < bound for w in words):
            kind = f"a list of {length} integers" if length else "an integer"
            shown = f"2**{bound.bit_length() - 1}" if bound > 5 else bound
            raise ValueError(f"rng_state {name} must be {kind} in [0, {shown}), got {value!r}")
    gen = np.random.Generator(np.random.Philox(key=0))
    gen.bit_generator.state = {"bit_generator": "Philox", "state": {f: obj[f] for f, _, _ in _STATE_FIELDS[:2]},
                               **{f: obj[f] for f, _, _ in _STATE_FIELDS[2:]}}
    return gen
