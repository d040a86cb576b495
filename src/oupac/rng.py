"""Deterministic seed derivation and random-generator construction.

All randomness in the package flows from explicit integer seeds through
the two functions here.  Child streams (one per replica, trial, or
stage) are derived by hashing, never by sharing generator state, so
results are independent of evaluation order and safe to parallelize.

A master seed must be a non-negative integer; both functions raise
:class:`InvalidRangeError` for any other.

Derivation rule (fixed, documented, stable across platforms):
    child_seed(master, *path) = first 8 bytes, little-endian, of
    SHA-256(b"oupac:" + ":".join(str(x) for x in (master, *path)))
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidRangeError


def _master_seed(seed) -> int:
    """``seed`` as an int, if it is a non-negative integer."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidRangeError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def child_seed(master_seed: int, *path: int) -> int:
    """Derive a 64-bit child seed from a master seed and an index path."""
    master = _master_seed(master_seed)
    text = "oupac:" + ":".join(str(int(x)) for x in (master, *path))
    digest = hashlib.sha256(text.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def make_rng(seed: int, *path: int) -> np.random.Generator:
    """PCG64 generator for the given seed, or for a derived child stream.

    ``make_rng(s)`` seeds directly with ``s``; ``make_rng(s, i, j)``
    seeds with ``child_seed(s, i, j)``.
    """
    if path:
        return np.random.default_rng(child_seed(seed, *path))
    return np.random.default_rng(_master_seed(seed))
