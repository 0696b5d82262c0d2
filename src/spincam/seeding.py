"""Every frame's detector seed in array passes, and the one way a detector
generator is built.

A frame's detector draws follow `default_rng([rng_seed, frame_id])`: numpy's
`SeedSequence` hashes the seed's and the frame id's 32-bit words into a pool
(O'Neill's `seed_seq` design for PCG) and hands PCG64 four 64-bit words drawn
from it. `frame_seeds` computes those words for many frames at once as uint32
column arithmetic, and `frame_generator` hands a row to PCG64 through
`FrameSeed`, so the generator draws the same stream without hashing its seed
again. `perception.perceive` seeds a run's frames in one `frame_seeds` pass;
`perception.frame_rng`, one frame at a time, takes its row from a cached
block of SEED_BLOCK ids, hashed together.

`first_uniforms` gives each row's first `random()` as uint64 array
arithmetic: a frame with no neighbor rows whose false-positive count that
uniform alone makes 0 detects nothing, and `perception` builds it no
generator (see `perception._quiet_below`).

Only the noisy detector imports this module: numpy loads `numpy.random`
lazily, and `FrameSeed` subclasses its `ISeedSequence`.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's pool of 32-bit words, and the constants of its three hashes
SEED_POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
MASK32 = 0xFFFFFFFF
INT64_MAX = 2**63 - 1
# PCG64's 128-bit LCG multiplier, as its high and low 64-bit words
PCG_MULT_HI, PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
# Frame ids per block of seed rows that `frame_generator` hashes together, and
# the blocks it keeps: 8 blocks of 256 rows of 32 bytes are 64 KiB and hold
# the ids of a 60 s run at 30 fps, so a second in-order pass over such a run
# hashes nothing (one block would serve a single in-order pass)
SEED_BLOCK = 256
SEED_CACHE_BLOCKS = 8


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


def _mul_high(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of the 128-bit products of the uint64 words `a` and
    the 64-bit constant `b`, from the products of their 32-bit halves."""
    a0, a1, b0, b1 = a & MASK32, a >> 32, np.uint64(b & MASK32), np.uint64(b >> 32)
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & MASK32) + (p10 & MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def first_uniforms(words) -> np.ndarray:
    """The first `random()` (F,) of PCG64 seeded with each `frame_seeds` row
    (F, 4): element f is `default_rng([rng_seed, frame_ids[f]]).random()`.

    The row is a 128-bit initial state and stream, high words first. PCG64
    steps state 0 with the increment `(stream << 1) | 1`, adds the initial
    state and steps again; a draw steps once more and xors the state's
    halves, rotated right by its top 6 bits (XSL-RR). Array arithmetic on the
    64-bit halves wraps without a warning."""
    w = np.asarray(words, dtype=np.uint64).reshape(-1, 4)
    inc_hi, inc_lo = (w[:, 2] << 1) | (w[:, 3] >> 63), (w[:, 3] << 1) | 1
    # state 0 steps to the increment
    lo = inc_lo + w[:, 1]
    hi = inc_hi + w[:, 0] + (lo < inc_lo)
    mult_hi, mult_lo = np.uint64(PCG_MULT_HI), np.uint64(PCG_MULT_LO)
    for _step in range(2):
        hi = _mul_high(lo, PCG_MULT_LO) + lo * mult_hi + hi * mult_lo
        lo = lo * mult_lo + inc_lo
        hi += inc_hi + (lo < inc_lo)
    x, rot = hi ^ lo, hi >> 58
    x = (x >> rot) | (x << (-rot & 63))
    return (x >> 11) * 2.0**-53


class FrameSeed(ISeedSequence):
    """One frame's `SeedSequence([rng_seed, frame_id])` for a bit generator,
    with its `frame_seeds` row: `np.random.Generator(np.random.PCG64(seed))`
    draws what `perception.frame_rng` does. The row answers PCG64's one request,
    `generate_state(4, np.uint64)`; a real `SeedSequence` answers any other."""

    def __init__(self, rng_seed: int, frame_id: int, words: np.ndarray):
        self.rng_seed, self.frame_id, self.words = rng_seed, frame_id, words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 passes the np.uint64 type itself; an `is` test is the cheap first check
        if n_words == 4 and (dtype is np.uint64 or np.dtype(dtype) == np.uint64):
            return self.words
        return np.random.SeedSequence([self.rng_seed, self.frame_id]).generate_state(
            n_words, dtype)


@functools.lru_cache(maxsize=SEED_CACHE_BLOCKS)
def _seed_block(rng_seed: int, block: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only `frame_seeds` rows (SEED_BLOCK, 4) of the frame ids from
    block * SEED_BLOCK on, and their `first_uniforms` (SEED_BLOCK,).
    SEED_BLOCK divides 2**63, so the last block ends at the largest int64 id."""
    ids = block * SEED_BLOCK + np.arange(SEED_BLOCK, dtype=np.int64)
    rows = frame_seeds(rng_seed, ids)
    uniforms = first_uniforms(rows)
    rows.setflags(write=False)
    uniforms.setflags(write=False)
    return rows, uniforms


def frame_row(rng_seed: int, frame_id: int) -> tuple[np.ndarray, float]:
    """One frame's `frame_seeds` row and first uniform, from the cached block
    of its id. A frame id is an int64 count."""
    if not 0 <= frame_id <= INT64_MAX:
        raise ValueError(f"frame id must be in [0, 2**63), got {frame_id}")
    block, row = divmod(frame_id, SEED_BLOCK)
    rows, uniforms = _seed_block(rng_seed, block)
    return rows[row], uniforms.item(row)


def frame_generator(rng_seed: int, frame_id: int, words: np.ndarray | None = None
                    ) -> np.random.Generator:
    """The generator of one frame's detector draws, PCG64 seeded with the
    frame's `frame_seeds` row `words`: it draws what `default_rng([rng_seed,
    frame_id])` does. Without `words`, the row comes from the cached block of
    the frame's id."""
    if words is None:
        words = frame_row(rng_seed, frame_id)[0]
    return np.random.Generator(np.random.PCG64(FrameSeed(rng_seed, frame_id, words)))
