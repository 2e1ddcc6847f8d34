"""The seeding words of many RandomStreams at once, for ``RandomStream.derive_many``.

A RandomStream seeds ``PCG64`` from ``SeedSequence(entropy=seed,
spawn_key=(experiment, trial)).generate_state(4, np.uint64)``.  This module
computes those words for a range of trials in one pass and hands them to
``PCG64`` through ``SeedWords``.  It is numpy's SeedSequence with its
default pool of four 32-bit words (the hashmix and mix of O'Neill's
seed_seq) over the entropy words: the seed's, zero-padded to four, then the
experiment's, then the trial's.  The pool after the seed and experiment
words is the same for every trial, so it is mixed once in Python ints; only
the trial's word and the output hash run over the vector of trials, where
uint32 products wrap as numpy's do.

Importing this module imports numpy.random, so ``qcore`` imports it on first
use.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

BLOCK = 4096  # trials per seed_words pass in derive_many; the words do not depend on it

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, [0] for 0."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_constants(start: int, mult: int, count: int) -> list[int]:
    """``count + 1`` successive values of a hash constant."""
    values = [start]
    for _ in range(count):
        values.append(values[-1] * mult & _MASK32)
    return values


# the output hash of generate_state(4, np.uint64): eight 32-bit words,
# cycling twice over the pool
_OUT = _hash_constants(_INIT_B, _MULT_B, 8)
_OUT_XOR = np.array(_OUT[:-1], dtype=np.uint32)
_OUT_MULT = np.array(_OUT[1:], dtype=np.uint32)
_OUT_POOL = np.array([0, 1, 2, 3, 0, 1, 2, 3])


def seed_words(seed: int, experiment: int, trials: range) -> np.ndarray:
    """(n, 4) uint64: ``SeedSequence(entropy=seed, spawn_key=(experiment, t))
    .generate_state(4, np.uint64)`` for every t of ``trials``, each of which
    must lie in [0, 2^32); seed in [0, 2^64), experiment >= 0."""
    entropy = _uint32_words(seed)
    entropy += [0] * (4 - len(entropy)) + _uint32_words(experiment)
    hc = _INIT_A  # the hash constant, advanced by every hashmix call

    def hashmix(value: int) -> int:
        nonlocal hc
        value ^= hc
        hc = hc * _MULT_A & _MASK32
        value = value * hc & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    # the trial's word, mixed into each pool word, then the output hash
    consts = _hash_constants(hc, _MULT_A, 4)
    t = np.fromiter(trials, dtype=np.uint32, count=len(trials))[:, None]
    h = (t ^ np.array(consts[:-1], dtype=np.uint32)) * np.array(consts[1:], dtype=np.uint32)
    h ^= h >> 16
    mixed = np.array([_MIX_MULT_L * p & _MASK32 for p in pool], dtype=np.uint32) \
        - h * np.uint32(_MIX_MULT_R)
    mixed ^= mixed >> 16
    out = (mixed[:, _OUT_POOL] ^ _OUT_XOR) * _OUT_MULT
    out ^= out >> 16
    # as generate_state: little-endian word pairs, in native byte order
    return out.astype("<u4", order="C", copy=False).view("<u8").astype(np.uint64)


class SeedWords(ISeedSequence):
    """A SeedSequence stand-in that hands PCG64 one row of ``seed_words``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("SeedWords holds the four uint64 words PCG64 asks for")
        return self.words
