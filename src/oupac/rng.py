"""Deterministic seed derivation and random-generator construction.

All randomness in the package flows from explicit integer seeds through
the functions here.  Child streams (one per replica, trial, or stage)
are derived by hashing, never by sharing generator state, so results
are independent of evaluation order and safe to parallelize.

A master seed must be a non-negative integer; every function here raises
:class:`InvalidRangeError` for any other, and the derivation below for a
seed or path entry too long for Python to print in decimal (over 4300
digits by default).

Derivation rule (fixed, documented, stable across platforms):
    child_seed(master, *path) = first 8 bytes, little-endian, of
    SHA-256(b"oupac:" + ":".join(str(x) for x in (master, *path)))

A seed becomes a generator by one of two entry points, which give the
same generator for the same seed:

- one stream, :func:`make_rng`: ``np.random.default_rng(seed)``, for any
  non-negative seed;
- a stack of streams, :func:`_streams`, for the stacked pipelines (the
  survey's pairs, the regression experiments' trials): seeds below 2^64
  in, ``np.random.Generator(np.random.PCG64(...))`` out, one at a time.
  numpy's ``SeedSequence`` hashes a seed in a Python loop over uint32
  scalars (O'Neill's ``seed_seq_fe``, pool size 4), about 20 us a seed;
  :func:`_state_words` does the same uint32 arithmetic on the whole
  stack at once and hands each PCG64 its four state words.
  ``tests/test_rng.py`` checks every generator against ``default_rng``.

``numpy.random`` is imported at the first draw, not with the package.
"""

from __future__ import annotations

import hashlib
import sys
from functools import cache

import numpy as np

from .errors import InvalidRangeError, _integer, _shown


def _digest_seed(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:8], "little")


def child_seed(master_seed: int, *path: int) -> int:
    """Derive a 64-bit child seed from a master seed and a path of integers."""
    master = _integer(master_seed, "seed", 0)
    path = [_integer(x, "seed path entry", None) for x in path]
    return _digest_seed(_seed_text((master, *path)))


def _seed_text(values) -> str:
    """``"oupac:"`` and the decimal ``values`` joined by ``:``; raises
    :class:`InvalidRangeError` for a value too long for Python to print."""
    try:
        return "oupac:" + ":".join(map(str, values))
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise InvalidRangeError(
            f"a seed must have at most {sys.get_int_max_str_digits()} digits, got "
            f"{_shown(max(values, key=abs))}") from None


def _child_seeds(master_seed: int, paths) -> list[int]:
    """``child_seed(master_seed, *path)`` for each of ``paths``, non-empty
    tuples of ints, with one check of the master seed."""
    prefix = _seed_text([_integer(master_seed, "seed", 0)]) + ":"
    return [_digest_seed(prefix + ":".join(map(str, path))) for path in paths]


def make_rng(seed: int, *path: int) -> np.random.Generator:
    """PCG64 generator for the given seed, or for a derived child stream.

    ``make_rng(s)`` seeds directly with ``s``; ``make_rng(s, i, j)``
    seeds with ``child_seed(s, i, j)``.
    """
    if path:
        return np.random.default_rng(child_seed(seed, *path))
    return np.random.default_rng(_integer(seed, "seed", 0))


def _streams(seeds) -> _Streams:
    """The generators ``np.random.default_rng(seed)`` of ``seeds``, a
    sequence of non-negative integers below 2^64, as a stack."""
    values = [_integer(seed, "seed", 0) for seed in seeds]
    if values and max(values) >> 64:
        raise InvalidRangeError(f"a stack of streams takes seeds below 2**64, got {max(values)}")
    return _Streams(_state_words(values))


class _Streams:
    """A stack of seeded streams, held as each seed's four PCG64 state words
    (32 bytes).  Iterating makes the generators, one at a time and afresh
    each time; a slice is a stack of its streams."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, index: slice) -> _Streams:
        return _Streams(self.words[index])

    def __iter__(self):
        generator, pcg64 = _numpy_random()
        for words in self.words:
            yield generator(pcg64(_StateWords(words)))


class _StateWords:
    """The seed sequence (numpy's ``ISeedSequence``) of one stream: it hands
    PCG64 the state words computed for it."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("holds PCG64's four uint64 state words only")
        return self.words


@cache
def _numpy_random():
    """``np.random.Generator`` and ``np.random.PCG64``, with
    :class:`_StateWords` registered as a seed sequence."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StateWords)
    return Generator, PCG64


# numpy's SeedSequence (numpy/random/bit_generator.pyx): each hash of a word
# xors it with a running constant, advances the constant by a multiplier,
# multiplies by it and xor-shifts by 16 bits, all in uint32.
def _hash_constants(start: int, multiplier: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants that ``count`` consecutive hashes xor and multiply by,
    as ``(count, 1)`` columns."""
    xors, products = [], []
    for _ in range(count):
        xors.append(start)
        start = start * multiplier & 0xFFFFFFFF
        products.append(start)
    return np.array(xors, np.uint32)[:, None], np.array(products, np.uint32)[:, None]


# mix_entropy makes 16 hashes: 4 of the entropy words, then 3 of each pool word
_MIX_XOR, _MIX_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
# generate_state(4, np.uint64) makes 8: 2 of each pool word, cycling the pool
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
#: the pool words that each pool word is mixed into, in numpy's order
_MIX_TARGETS = tuple(np.array([dst for dst in range(4) if dst != src]) for src in range(4))


def _hashed(words: np.ndarray, xors: np.ndarray, products: np.ndarray) -> np.ndarray:
    words = words ^ xors
    words *= products
    words ^= words >> _SHIFT
    return words


#: pool words 2 and 3 of every seed below 2^64: the hashes of 0
_ZERO_HASHES = _hashed(np.zeros((2, 1), np.uint32), _MIX_XOR[2:4], _MIX_MUL[2:4])


def _state_words(seeds: list[int]) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of each of
    ``seeds``, ints in [0, 2^64), as rows of an ``(n, 4)`` uint64 array.

    A seed below 2^64 is at most two entropy words, low then high, so the
    pool of four starts from (low, high, 0, 0): a seed below 2^32 gives
    the same pool as its one word padded with the hash of 0.  Mixing pool
    word ``src`` into the other three hashes it three times, with three
    consecutive constants; the three hashes are one ``(3, n)`` operation.
    """
    count = len(seeds)
    entropy = np.array(seeds, dtype="<u8").view("<u4").reshape(count, 2).T
    pool = np.empty((4, count), np.uint32)
    pool[:2] = _hashed(entropy, _MIX_XOR[:2], _MIX_MUL[:2])
    pool[2:] = _ZERO_HASHES
    for src, targets in enumerate(_MIX_TARGETS):
        constants = slice(4 + 3 * src, 7 + 3 * src)
        hashes = _hashed(pool[src], _MIX_XOR[constants], _MIX_MUL[constants])
        mixed = pool.take(targets, axis=0)  # (LEFT x - RIGHT y) ^ >> 16
        mixed *= _MIX_LEFT
        hashes *= _MIX_RIGHT
        mixed -= hashes
        mixed ^= mixed >> _SHIFT
        pool[targets] = mixed
    state = _hashed(np.concatenate([pool, pool]), _STATE_XOR, _STATE_MUL)
    # word j of a seed is its state words 2j (low) and 2j + 1 (high)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
