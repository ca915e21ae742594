"""The keyed streams against numpy's SeedSequence.

kframelab computes the SeedSequence hash itself; every stream and derived
seed must equal the one ``np.random.SeedSequence(seed, spawn_key=indices)``
gives, over the whole range of seeds and indices the runner can ask for.
"""

import numpy as np
import pytest

from kframelab import rng, suites
from kframelab.rng import derive_seed, derive_seeds, stream, streams
from kframelab.scenario import scenario_from_dict

DRAWS = 50


def reference(seed, *indices):
    return np.random.SeedSequence(seed, spawn_key=indices)


def assert_matches(seed, *indices):
    ss = reference(seed, *indices)
    expected = np.random.Philox(ss).random_raw(DRAWS)
    assert np.array_equal(stream(seed, *indices).bit_generator.random_raw(DRAWS), expected), (seed, indices)
    assert derive_seed(seed, *indices) == int(ss.generate_state(1, np.uint64)[0]), (seed, indices)


SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**64 - 1, 2**128, 2**128 + 2**96 + 7, 3**200]


@pytest.mark.parametrize("seed", SEEDS, ids=lambda s: f"{s.bit_length()}bit")
@pytest.mark.parametrize(
    "indices",
    [(), (0,), (1000, 5), (1000, 5, 2), (2**32 - 1,), (1000, 2**32), (1006, 2**40 + 3, 1), (2**64 + 1, 0)],
    ids=str,
)
def test_stream_and_derived_seed_match_seed_sequence(seed, indices):
    # Seeds of five or more words run longer than the pool of four; small
    # seeds with a spawn key are zero-padded to it first.
    assert_matches(seed, *indices)


def test_streams_of_derived_seeds_without_a_spawn_key():
    # The frame build's stream(derive_seed(seed, tag, trial)).
    for trial in range(100):
        assert_matches(derive_seed(9, 202, trial))


@pytest.mark.parametrize("offset", [0, 2**32 - 150, 2**40])
def test_hundreds_of_trial_indices(offset):
    # Large trial offsets put the trial index into two words.
    trials = range(offset, offset + 300)
    generators = streams(42, (1003,), [(i,) for i in trials])
    seeds = derive_seeds(42, (1003,), [(i, 1) for i in trials])
    for i, g, seed in zip(trials, generators, seeds):
        assert np.array_equal(g.bit_generator.random_raw(DRAWS), np.random.Philox(reference(42, 1003, i)).random_raw(DRAWS))
        assert seed == int(reference(42, 1003, i, 1).generate_state(1, np.uint64)[0])


def test_runner_streams_match_seed_sequence():
    sc = scenario_from_dict(
        {
            "dim": 3,
            "atoms": 7,
            "weights": "uniform",
            "k_spec": {"kind": "random-rank", "rank": 2, "seed": 5},
            "frame_spec": {"kind": "generate-parseval-k", "seed": 9},
            "trials": 4,
            "seed": 7,
            "trial_offset": 2**33,
        }
    )
    chunk = suites._Chunk(sc, range(sc.trial_offset, sc.trial_offset + sc.trials))
    tag = suites._PROPERTY_TAG["t4"]
    for i, g in zip(chunk.indices, chunk.rngs("t4")):
        assert np.array_equal(g.standard_normal(DRAWS), np.random.Generator(np.random.Philox(reference(7, tag, i))).standard_normal(DRAWS))
    for i, seed in zip(chunk.indices, chunk.sub_seeds("t4", 1)):
        assert seed == int(reference(7, tag, i, 1).generate_state(1, np.uint64)[0])


def test_memoized_prefixes_do_not_change_the_streams():
    keys = [(42, 1000, i) for i in range(5)] + [(derive_seed(3, 1), t) for t in range(5)]
    cold = []
    for key in keys:
        rng._prefix.cache_clear()
        cold.append(stream(*key).bit_generator.random_raw(DRAWS))
    warm = [stream(*key).bit_generator.random_raw(DRAWS) for key in keys]
    assert all(np.array_equal(a, b) for a, b in zip(cold, warm))


def test_negative_seeds_and_indices_raise_like_seed_sequence():
    for args in [(-1,), (5, -2)]:
        with pytest.raises(ValueError):
            reference(*args)
        with pytest.raises(ValueError):
            stream(*args)


def test_precomputed_key_answers_only_the_philox_request():
    key = rng._PhiloxKey(rng._seeds64(rng._pools(42, (1000,), [(5,)])[0]))
    assert [int(w) for w in key.generate_state(2, np.uint64)] == list(reference(42, 1000, 5).generate_state(2, np.uint64))
    with pytest.raises(ValueError):
        key.generate_state(4, np.uint32)
