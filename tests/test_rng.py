"""Seed derivation: the documented hashing rule, the master-seed check, and
the two entry points from seeds to generators, one stream (``make_rng``)
and a stack of them (``_streams``), which must agree with numpy's
``default_rng`` stream by stream."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oupac import InvalidRangeError, RegressionTask, generate_dataset, make_spd, random_spd
from oupac.linalg import _random_spd_entries
from oupac.regression import _datasets
from oupac.rng import (_child_seeds, _state_words, _StateWords, _streams, child_seed,
                       make_rng)


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
@pytest.mark.parametrize("seed", [-1, 2.0, "3", True])
def test_master_seed_must_be_a_non_negative_integer(call, seed):
    message = f"seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(InvalidRangeError, match=f"^{re.escape(message)}$"):
        call(seed)
    assert issubclass(InvalidRangeError, ValueError)


#: Seeds at the edges of numpy's SeedSequence: one entropy word or two
EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]

SEEDS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from(EDGES),
    st.integers(0, 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
)


def _same_stream(rng, seed):
    want = np.random.default_rng(seed)
    assert rng.bit_generator.state == want.bit_generator.state
    np.testing.assert_array_equal(rng.standard_normal(4), want.standard_normal(4))
    np.testing.assert_array_equal(rng.uniform(size=4), want.uniform(size=4))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeds=st.lists(SEEDS, max_size=12))
@example(seeds=EDGES + [np.int64(2**63 - 1), np.uint64(2**64 - 1)])
def test_a_stack_of_streams_is_default_rng_seed_by_seed(seeds):
    # the oracle of the stack kernel: numpy's own seeding, stream by stream,
    # so a change to numpy's SeedSequence fails here
    streams = _streams(seeds)
    assert len(streams) == len(seeds)
    generators = list(streams)
    assert len(generators) == len(seeds)
    for rng, seed in zip(generators, seeds):
        _same_stream(rng, seed)
    # iterating again, or a slice, makes the generators afresh
    for rng, seed in zip(streams[1:], seeds[1:]):
        _same_stream(rng, seed)


def test_state_words_are_seed_sequence_states():
    seeds = EDGES + make_rng(3).integers(0, 2**64 - 1, 2000, dtype=np.uint64,
                                         endpoint=True).tolist()
    words = _state_words(seeds)
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    for row, seed in zip(words, seeds):
        np.testing.assert_array_equal(
            row, np.random.SeedSequence(seed).generate_state(4, np.uint64))


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint64), (2, np.uint64)])
def test_state_words_serve_pcg64_only(n_words, dtype):
    # a generator other than PCG64 would ask for other words: refused, not misfed
    words = _StateWords(_state_words([7])[0])
    assert words.generate_state(4, np.uint64) is words.words
    with pytest.raises(ValueError, match="four uint64 state words only"):
        words.generate_state(n_words, dtype)


def test_an_empty_stack_yields_nothing():
    assert len(_streams([])) == 0
    assert list(_streams([])) == []


@pytest.mark.parametrize("entry", [2.5, 2.0, True, "2", np.array([2])])
def test_a_seed_path_holds_integers(entry):
    # a float entry was once read as its int part: child_seed(0, 2.5) == child_seed(0, 2)
    message = f"seed path entry must be an integer, got {entry!r}"
    with pytest.raises(InvalidRangeError, match=f"^{re.escape(message)}$"):
        child_seed(0, entry)
    assert child_seed(0, np.int64(-2)) == child_seed(0, -2)


@pytest.mark.parametrize("seed", [-1, 2.0, "3", np.float64(4.0)])
def test_a_stack_takes_only_non_negative_integer_seeds(seed):
    message = f"seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(InvalidRangeError, match=f"^{re.escape(message)}$"):
        _streams([5, seed])


@pytest.mark.parametrize("seed", [2**64, 2**70])
def test_a_stack_takes_seeds_below_two_to_the_64(seed):
    with pytest.raises(InvalidRangeError, match=r"below 2\*\*64"):
        _streams([seed])


@pytest.mark.parametrize("seed", [2**64, 2**70])
def test_one_stream_takes_any_seed(seed):
    # random_spd and generate_dataset seed one stream, through default_rng
    want = np.random.default_rng(seed)
    matrix = random_spd(3, 0.5, 2.0, seed)
    assert np.array_equal(
        matrix.entries, make_spd(_random_spd_entries(3, 0.5, 2.0, [want])[0]).entries)
    task = RegressionTask(np.array([0.5, -1.0]), make_spd(np.eye(2)), 0.3)
    data = generate_dataset(task, 5, seed)
    features, targets = _datasets(task, 5, [np.random.default_rng(seed)])
    assert data.seed == seed
    assert np.array_equal(data.features, features[0])
    assert np.array_equal(data.targets, targets[0])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(master=st.one_of(st.integers(0, 2**70), st.integers(0, 2**63 - 1).map(np.int64)),
       paths=st.lists(st.lists(st.integers(-5, 2**40), min_size=1, max_size=4).map(tuple),
                      max_size=8))
def test_child_seeds_are_child_seed_path_by_path(master, paths):
    assert _child_seeds(master, paths) == [child_seed(master, *path) for path in paths]


@pytest.mark.parametrize("seed", [-1, 2.0, "3"])
def test_child_seeds_check_the_master_seed(seed):
    message = f"seed must be a non-negative integer, got {seed!r}"
    with pytest.raises(InvalidRangeError, match=f"^{re.escape(message)}$"):
        _child_seeds(seed, [(0,)])
