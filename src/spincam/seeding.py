"""Every frame's detector seed of a run in one array pass.

`perception.frame_rng(noise, frame_id)` is `default_rng([rng_seed,
frame_id])`: numpy's `SeedSequence` hashes the seed's and the frame id's
32-bit words into a pool (O'Neill's `seed_seq` design for PCG) and hands
PCG64 four 64-bit words drawn from it. `frame_seeds` computes those words
for every frame at once as uint32 column arithmetic, and `FrameSeed` hands a
row to PCG64, so `np.random.Generator(np.random.PCG64(FrameSeed(...)))`
draws the same stream as `frame_rng` without hashing its seed again.

Only `perception.perceive` imports this module, for a noisy run: numpy
loads `numpy.random` lazily, and `FrameSeed` subclasses its `ISeedSequence`.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's pool of 32-bit words, and the constants of its three hashes
SEED_POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
MASK32 = 0xFFFFFFFF


def _int_words(n: int) -> list[int]:
    """The little-endian 32-bit words of a non-negative integer, one for 0."""
    words = [n & MASK32]
    while n > MASK32:
        n >>= 32
        words.append(n & MASK32)
    return words


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(words).generate_state(4, np.uint64)` of every row (4,)
    of the 32-bit entropy words (F, n), one column operation per hash step.

    The hash constants do not depend on the data, so they stay Python ints;
    every product is uint32 array arithmetic, which wraps without a warning.
    """
    u32 = np.uint32
    const = INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ u32(const)
        const = (const * MULT_A) & MASK32
        value = value * u32(const)
        return value ^ (value >> u32(16))

    def mix(x, y):
        result = u32(MIX_MULT_L) * x - u32(MIX_MULT_R) * y
        return result ^ (result >> u32(16))

    n_frames, n_words = entropy.shape
    zeros = np.zeros(n_frames, dtype=u32)
    pool = [hashmix(entropy[:, i] if i < n_words else zeros) for i in range(SEED_POOL_SIZE)]
    for src in range(SEED_POOL_SIZE):
        for dst in range(SEED_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(SEED_POOL_SIZE, n_words):
        for dst in range(SEED_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    state = np.empty((n_frames, 2 * SEED_POOL_SIZE), dtype=u32)
    const = INIT_B
    for i in range(2 * SEED_POOL_SIZE):
        value = pool[i % SEED_POOL_SIZE] ^ u32(const)
        const = (const * MULT_B) & MASK32
        value = value * u32(const)
        state[:, i] = value ^ (value >> u32(16))
    # word pairs as little-endian uint64, as SeedSequence joins them
    return state.astype("<u4").view("<u8").astype(np.uint64)


def frame_seeds(rng_seed: int, frame_ids) -> np.ndarray:
    """PCG64 seed words (F, 4) of every frame's `perception.frame_rng`: row f is
    `SeedSequence([rng_seed, frame_ids[f]]).generate_state(4, np.uint64)`.

    The entropy is the seed's 32-bit words and then the frame id's; an id
    below 2**32 takes one word and a larger one two, so the frames are
    hashed in one array pass per word count.
    """
    ids = np.asarray(frame_ids, dtype=np.int64).reshape(-1)
    if ids.size and ids.min() < 0:
        raise ValueError("frame ids must be non-negative")
    seed = _int_words(int(rng_seed))
    seeds = np.empty((len(ids), 4), dtype=np.uint64)
    wide = ids > MASK32
    for rows, id_words in ((~wide, 1), (wide, 2)):
        group = ids[rows]
        entropy = np.empty((len(group), len(seed) + id_words), dtype=np.uint32)
        entropy[:, :len(seed)] = seed
        entropy[:, len(seed)] = group & MASK32
        if id_words == 2:
            entropy[:, -1] = group >> 32
        seeds[rows] = _seed_states(entropy)
    return seeds


class FrameSeed(ISeedSequence):
    """One frame's `SeedSequence([rng_seed, frame_id])` for a bit generator,
    with its `frame_seeds` row: `np.random.Generator(np.random.PCG64(seed))`
    draws what `perception.frame_rng` does. The row answers PCG64's one request,
    `generate_state(4, np.uint64)`; a real `SeedSequence` answers any other."""

    def __init__(self, rng_seed: int, frame_id: int, words: np.ndarray):
        self.rng_seed, self.frame_id, self.words = rng_seed, frame_id, words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self.words
        return np.random.SeedSequence([self.rng_seed, self.frame_id]).generate_state(
            n_words, dtype)
