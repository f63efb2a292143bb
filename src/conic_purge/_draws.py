"""numpy's seeded draws without replacement, computed for many trials at once.

Trial ``i`` of :func:`seeded_choices` is the sample

    np.random.default_rng(np.random.SeedSequence(seed).spawn(count)[i])
        .choice(n, size, replace=False)

which is a pure function of (seed, n, size, i).  Building a child
``SeedSequence`` and a ``Generator`` per trial costs ~40 µs; this module
runs numpy's steps on arrays with one entry per trial instead, in numpy's
order, so every sample is the same bit for bit:

- each child's entropy pool and its ``generate_state(4, uint64)``, numpy's
  SeedSequence hashing of uint32 words;
- PCG64 seeding and its 128-bit LCG step on (hi, lo) uint64 limbs, with
  the XSL-RR output and ``next_uint32``'s buffered upper half (O'Neill
  2014);
- ``random_bounded_uint64``: Lemire's multiply-shift bounded integers
  (Lemire 2019), where a row whose product falls below the threshold
  draws again;
- ``choice``'s Floyd sampling (Bentley & Floyd 1987), where a value drawn
  before is replaced by the step's upper end, then the Fisher-Yates
  shuffle of the sample.

Every trial draws in lockstep with the others; only the rare rejected
Lemire draws are redrawn for a subset of rows.  That covers the draws
whose bounds fit 32 bits and for which ``choice`` takes Floyd's route;
every other draw is numpy's own, one child generator per trial.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = ["seeded_choices"]

_M32 = 0xFFFFFFFF
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
# PCG64's 128-bit multiplier as (hi, lo) limbs
_LCG_HI = np.uint64(2549297995355413924)
_LCG_LO = np.uint64(4865540595714422341)
_LOW32 = np.uint64(_M32)
# choice's switch from Floyd's algorithm to a tail shuffle of arange(n)
_FLOYD_MAX_N = 10000
_TAIL_CUTOFF = 50


def _hash(value: np.ndarray, const: int, mult: int):
    """One SeedSequence hash of uint32 words; returns the next constant too."""
    value = value ^ np.uint32(const)
    const = const * mult & _M32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ (value >> np.uint32(16))


def _pool(entropy: list) -> list:
    """``SeedSequence.mix_entropy`` of more than four uint32 word arrays.

    The words are arrays that broadcast against each other: entropy
    shared by every child is one word, the spawn key one per child.
    """
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        word, const = _hash(word, const, _MULT_A)
        pool.append(word)
    # mix all bits together so late bits can affect earlier bits
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            hashed, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], hashed)
    return pool


def _mul64(a: np.ndarray, b) -> tuple[np.ndarray, np.ndarray]:
    """High and low uint64 halves of the 128-bit products ``a * b``."""
    a0, a1 = a & _LOW32, a >> np.uint64(32)
    b0, b1 = b & _LOW32, b >> np.uint64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> np.uint64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    high = (a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32))
            + (mid >> np.uint64(32)))
    return high, a * b


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's state * multiplier + increment on (hi, lo) uint64 limbs."""
    carry, low = _mul64(lo, _LCG_LO)
    new_lo = low + inc_lo
    new_hi = (hi * _LCG_LO + lo * _LCG_HI + carry + inc_hi
              + (new_lo < inc_lo))
    return new_hi, new_lo


class _Pcg64Rows:
    """One numpy PCG64 generator per row, seeded by a spawned child.

    Holds each row's 128-bit state and increment as uint64 limbs, and the
    upper half of its last 64-bit output while ``next_uint32`` has it
    buffered.
    """

    def __init__(self, entropy: list, keys: np.ndarray):
        # a child's entropy is the parent's, padded with zeros to the pool
        # size, followed by its spawn key
        words = entropy + [0] * (_POOL_SIZE - len(entropy))
        pool = _pool([np.array([w], dtype=np.uint32) for w in words]
                     + [keys.astype(np.uint32)])
        # generate_state(4, np.uint64): eight hashed words, paired
        # little-endian into (seed hi, seed lo, inc hi, inc lo)
        const, state = _INIT_B, []
        for k in range(8):
            word, const = _hash(pool[k % _POOL_SIZE], const, _MULT_B)
            state.append(word.astype(np.uint64))
        seed_hi, seed_lo, seq_hi, seq_lo = (
            state[k] | (state[k + 1] << np.uint64(32)) for k in range(0, 8, 2))
        # pcg64_srandom: inc = seq << 1 | 1; from state 0, step, add the
        # seed, step
        self.inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
        self.inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
        lo = self.inc_lo + seed_lo
        hi = self.inc_hi + seed_hi + (lo < seed_lo)
        self.hi, self.lo = _lcg_step(hi, lo, self.inc_hi, self.inc_lo)
        self.rows = np.arange(len(keys))
        self.has_half = np.zeros(len(keys), dtype=bool)
        self.half = np.zeros(len(keys), dtype=np.uint64)

    def next64(self, rows: np.ndarray) -> np.ndarray:
        """``next_uint64`` of the given rows: step, then XSL-RR output."""
        hi, lo = _lcg_step(self.hi[rows], self.lo[rows], self.inc_hi[rows],
                           self.inc_lo[rows])
        self.hi[rows], self.lo[rows] = hi, lo
        value = hi ^ lo
        rot = hi >> np.uint64(58)
        return (value >> rot) | (value << ((np.uint64(64) - rot)
                                           & np.uint64(63)))

    def next32(self, rows: np.ndarray) -> np.ndarray:
        """``next_uint32``: the buffered upper half, else the lower half of
        a fresh output whose upper half is buffered."""
        has = self.has_half[rows]
        out = self.half[rows]
        fresh = rows[~has]
        value = self.next64(fresh)
        out[~has] = value & _LOW32
        self.half[fresh] = value >> np.uint64(32)
        self.has_half[rows] = ~has
        return out

    def bounded(self, high: int) -> np.ndarray:
        """``random_bounded_uint64(0, high)`` without masking, for every row
        and ``high < 2**32 - 1``: Lemire's multiply-shift on 32-bit words;
        ``high`` of 0 draws nothing."""
        if high == 0:
            return np.zeros(len(self.rows), dtype=np.uint64)
        excl = np.uint64(high + 1)
        threshold = np.uint64((2 ** 32 - high - 1) % (high + 1))
        out = np.empty(len(self.rows), dtype=np.uint64)
        pending = self.rows
        while pending.size:
            product = self.next32(pending) * excl
            out[pending] = product >> np.uint64(32)
            pending = pending[(product & _LOW32) < threshold]
        return out


def _floyd(streams: _Pcg64Rows, n: int, size: int) -> np.ndarray:
    """choice's Floyd sampling, then its ``_shuffle_int`` of the sample:
    each column from the last down to the second swaps with a uniformly
    drawn column at or before it, row-wise."""
    idx = np.empty((len(streams.rows), size), dtype=np.int64)
    for t, j in enumerate(range(n - size, n)):
        value = streams.bounded(j).astype(np.int64)
        # choice's hash set: a value drawn before becomes j, which no
        # earlier step could draw
        drawn = (idx[:, :t] == value[:, None]).any(axis=1)
        idx[:, t] = np.where(drawn, j, value)
    for i in range(size - 1, 0, -1):
        j = streams.bounded(i).astype(np.intp)
        swapped = idx[streams.rows, j]
        idx[streams.rows, j] = idx[:, i]
        idx[:, i] = swapped
    return idx


def seeded_choices(n: int, size: int, seed: int, count: int) -> np.ndarray:
    """(count, size) int64 samples without replacement from ``range(n)``.

    Row i is ``default_rng(child_i).choice(n, size, replace=False)`` for
    the children of ``SeedSequence(seed).spawn(count)``, bit for bit.
    Computed here for an integer seed >= 0 and 0 < size <= n < 2**32 where
    choice takes Floyd's route (n <= 10000 or size <= n // 50); Floyd's
    duplicate check compares each value with the row's earlier ones, so
    time grows as ``count * size**2``.  Any other draw is numpy's own, one
    trial at a time, and numpy refuses what it refuses.
    """
    try:
        n_int, size_int, seed_int = map(operator.index, (n, size, seed))
        floyd = (seed_int >= 0 and 0 < size_int <= n_int <= _M32
                 and (n_int <= _FLOYD_MAX_N
                      or size_int <= n_int // _TAIL_CUTOFF))
    except TypeError:
        floyd = False
    if not floyd:
        return np.array([
            np.random.default_rng(child).choice(n, size=size, replace=False)
            for child in np.random.SeedSequence(seed).spawn(count)],
            dtype=np.int64).reshape(count, size)
    # numpy's little-endian uint32 words of the seed, at least one
    entropy = [seed_int >> shift & _M32
               for shift in range(0, max(seed_int.bit_length(), 1), 32)]
    return _floyd(_Pcg64Rows(entropy, np.arange(count)), n_int, size_int)
