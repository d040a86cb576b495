"""Seed derivation: the documented hashing rule and the master-seed check."""

import hashlib
import re

import numpy as np
import pytest

from oupac import InvalidRangeError
from oupac.rng import child_seed, make_rng


def test_child_seed_follows_the_documented_rule():
    digest = hashlib.sha256(b"oupac:7:1:2").digest()
    assert child_seed(7, 1, 2) == int.from_bytes(digest[:8], "little")
    assert child_seed(np.int64(7), 1, 2) == child_seed(7, 1, 2)
    want = np.random.default_rng(child_seed(7, 1, 2)).standard_normal(3)
    np.testing.assert_array_equal(make_rng(7, 1, 2).standard_normal(3), want)


@pytest.mark.parametrize("call", [
    lambda seed: make_rng(seed),
    lambda seed: make_rng(seed, 0, 1),
    lambda seed: child_seed(seed, 0),
])
@pytest.mark.parametrize("seed", [-1, 2.0, "3"])
def test_master_seed_must_be_a_non_negative_integer(call, seed):
    message = f"seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(InvalidRangeError, match=f"^{re.escape(message)}$"):
        call(seed)
    assert issubclass(InvalidRangeError, ValueError)
