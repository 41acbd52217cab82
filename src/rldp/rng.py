"""Counter-based, splittable random streams.

Every source of randomness in the package derives from a single master seed
through named substreams, so that scaling the particle count or adding
replicas never reuses or reorders noise.  A substream is identified by a
namespace constant plus integer indices (typically replica and particle).

A substream is a Philox generator at counter zero whose 128-bit key is
``SeedSequence(master_seed, spawn_key=key).generate_state(2, np.uint64)``.
Philox is counter-based, so the key alone fixes the stream.  For the many
particles of one replica, ``substream_keys`` derives all keys in one
vectorized pass and ``iter_substreams`` re-keys a single generator to each of
them, from a state of plain Python ints made a bounded chunk of keys at a
time; both are bit-identical to building one ``substream`` per particle,
which is the noise scheme (v1) that every seeded output depends on.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

# Namespace constants.  Keep these stable: they are part of the
# reproducibility contract (same seed + config => same output).
NOISE = 0      # Brownian increments, keyed (NOISE, replica, particle)
INIT = 1       # initial-condition sampling, keyed (INIT, replica)
DICT = 2       # function dictionaries for measure distances
SAMPLER = 3    # diagnostic sampling
OPT = 4        # optimizer restart points

# numpy's SeedSequence hashing constants (O'Neill's seed_seq_fe, pool of four
# 32-bit words).  substream_keys continues SeedSequence's mixing with them.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# Keys turned into Python ints at once by iter_substreams: the state setter
# reads plain ints faster than numpy scalars, and a chunk bounds the ints
# alive at a time whatever the particle count.
_KEY_CHUNK = 1024


def _check_nonnegative(master_seed: int, key) -> None:
    if master_seed < 0:
        raise ValueError("master seed must be a nonnegative integer")
    if any(k < 0 for k in key):
        raise ValueError("substream keys must be nonnegative integers")


def substream(master_seed: int, *key: int) -> Generator:
    """Return the generator for the substream named by ``key``.

    Deterministic in (master_seed, key) and independent across distinct keys.
    """
    _check_nonnegative(master_seed, key)
    seq = SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    return Generator(Philox(seq))


# -- batched key derivation ---------------------------------------------------

def _n_words(value: int) -> int:
    """How many 32-bit words SeedSequence makes of a nonnegative int."""
    return max(1, -(-value.bit_length() // 32))


def _hash_constants(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """(xor, multiply) constant pairs of successive hashmix calls."""
    const = init
    while True:
        nxt = const * mult & _MASK32
        yield const, nxt
        const = nxt


def _hashmix(value, constants):
    """SeedSequence's hashmix on a Python int or a uint32 array."""
    xor, mult = next(constants)
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> 16)


def _mix(x, y):
    """SeedSequence's mix; ``x`` is a Python int, ``y`` an int or uint32 array."""
    # x's product is reduced first so that numpy never sees an int above
    # 2**32; the uint32 array arithmetic then wraps as SeedSequence's does.
    result = (_MIX_MULT_L * x & _MASK32) - _MIX_MULT_R * y & _MASK32
    return result ^ (result >> 16)


def substream_keys(master_seed: int, *key: int, last) -> np.ndarray:
    """Philox keys of ``substream(master_seed, *key, i)`` for every i in ``last``.

    Returns a ``(len(last), 2)`` uint64 array whose row j equals
    ``SeedSequence(master_seed, spawn_key=(*key, last[j])).generate_state(2,
    np.uint64)``.  numpy's ``SeedSequence(master_seed, spawn_key=key)`` mixes
    the seed and ``key`` words once; only the final word, one per index, is
    hashed here, in uint32 arithmetic.
    Indices must lie in [0, 2**32).
    """
    last = np.asarray(last)
    _check_nonnegative(master_seed, key)
    if last.ndim != 1 or (last.size and last.dtype.kind not in "iu"):
        raise ValueError("last must be a 1-D array of integers")
    if last.size and (last.min() < 0 or last.max() > _MASK32):
        raise ValueError("substream keys must be integers in [0, 2**32)")

    # SeedSequence(master_seed, spawn_key=key) has mixed every word but the
    # index into its pool, shared by all i, with four hashmix calls a word
    # (the seed's words zero-padded to the pool size); the index word's
    # hashes continue the constant sequence from there.
    key = tuple(int(k) for k in key)
    prefix = SeedSequence(int(master_seed), spawn_key=key).pool
    words = (max(_POOL_SIZE, _n_words(int(master_seed)))
             + sum(_n_words(k) for k in key))
    constants = _hash_constants(
        _INIT_A * pow(_MULT_A, _POOL_SIZE * words, 1 << 32) & _MASK32, _MULT_A)
    index = last.astype(np.uint32)
    pool = [_mix(int(p), _hashmix(index, constants)) for p in prefix]

    # generate_state(2, np.uint64): one word per pool entry, the four paired
    # little-endian into two uint64.
    state = np.empty((index.size, _POOL_SIZE), dtype="<u4")
    out_constants = _hash_constants(_INIT_B, _MULT_B)
    for j, p in enumerate(pool):
        state[:, j] = _hashmix(p, out_constants)
    return state.view("<u8").astype(np.uint64)


def iter_substreams(master_seed: int, *key: int,
                    last) -> Iterator[Generator]:
    """Yield ``substream(master_seed, *key, i)`` for every i in ``last``.

    One Philox generator is built per call and, before each yield, re-keyed
    to the next key at counter zero with an empty buffer and no spare 32-bit
    half.  Each item is that same generator, so draw from it before
    advancing the iterator.
    """
    keys = substream_keys(master_seed, *key, last=last)
    bitgen = Philox(key=0)
    gen = Generator(bitgen)
    fresh = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for lo in range(0, len(keys), _KEY_CHUNK):
        for k in keys[lo:lo + _KEY_CHUNK].tolist():
            fresh["state"]["key"] = k
            bitgen.state = fresh
            yield gen
