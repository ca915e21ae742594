"""The keyed streams against numpy's SeedSequence, and the stacked draws.

kframelab takes the SeedSequence pool of each shared prefix from numpy and
mixes each key's own words by hand; every stream and derived seed must
equal the one ``np.random.SeedSequence(seed, spawn_key=indices)`` gives,
over the whole range of seeds and indices the runner can ask for.
A run keys only the streams it draws from and the seeds it reads, a
batch that draws each member through one reused generator gives it the
draws of a fresh one, and a stack of complex Gaussian draws gives each
member the bits of its own per-generator call.
"""

import itertools

import numpy as np
import pytest

from kframelab import rng, suites
from kframelab.frames import conditioned_ops
from kframelab.rng import (
    Streams,
    complex_normal,
    complex_normal_stack,
    derive_seed,
    derive_seeds,
    stream,
)
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
    seeds = derive_seeds(42, (1003,), [(i, 1) for i in trials])
    for i, seed in zip(trials, seeds):
        got = stream(42, 1003, i).bit_generator.random_raw(DRAWS)
        assert np.array_equal(got, np.random.Philox(reference(42, 1003, i)).random_raw(DRAWS))
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
    key = rng._PhiloxKey(rng._state(42, (1000,), (5,)))
    assert [int(w) for w in key.generate_state(2, np.uint64)] == list(reference(42, 1000, 5).generate_state(2, np.uint64))
    with pytest.raises(ValueError):
        key.generate_state(4, np.uint32)


def test_derived_seeds_are_derived_on_first_read_and_kept(monkeypatch):
    expected = [derive_seed(42, 1003, i, 1) for i in range(5)]
    keyed = []
    state = rng._state
    monkeypatch.setattr(rng, "_state", lambda *key: keyed.append(key) or state(*key))
    seeds = derive_seeds(42, (1003,), [(i, 1) for i in range(5)])
    assert len(seeds) == 5 and keyed == []
    assert seeds[3] == seeds[3] == expected[3] and keyed == [(42, (1003,), (3, 1))]
    assert list(seeds) == expected and len(keyed) == 5
    with pytest.raises(IndexError):
        seeds[5]


def state_words(seed, *indices):
    return tuple(int(w) for w in reference(seed, *indices).generate_state(2, np.uint64))


@pytest.mark.parametrize("seed", [7, 2**32 + 5, 2**64 + 2**40 + 3, 2**96 + 11, 2**128 + 2**100 + 1])
@pytest.mark.parametrize("shared", [(), (1003,), (1000, 2**40)], ids=str)
def test_one_word_mix_equals_seed_sequence(monkeypatch, seed, shared):
    # Seeds of one to five words; the unrolled mix takes every one-word
    # tail, and a tail of 2**32 or more joins the prefix on the general path.
    consts = rng._prefix(seed, shared)[2]
    for t in (0, 1, 2**32 - 1):
        assert rng._mix(consts, t) == rng._state(seed, shared, (t,)) == state_words(seed, *shared, t), t
    monkeypatch.setattr(rng, "_mix", None)
    for t in (2**32, 2**40 + 7):
        assert rng._state(seed, shared, (t,)) == state_words(seed, *shared, t), t


KEYS = [(42, (1003,), (i,)) for i in range(5)] + [(derive_seed(3, 1), (), (t,)) for t in range(3)] + [(99, (), ())]


def fresh(key):
    """A new generator of the stream that a batch keys by (seed, shared, tail)."""
    seed, shared, tail = key
    return stream(seed, *shared, *tail)


def test_batch_members_draw_what_fresh_streams_draw():
    # Each member makes its whole sequence in one visit: normals, then an
    # odd count of 32-bit integers, which leaves half a word buffered, then
    # a uniform. The next member starts from its own fresh state.
    def draws(g):
        return g.standard_normal(7).tolist() + g.integers(0, 10, 3).tolist() + [g.uniform(0.5, 2.0)]

    assert [draws(g) for g in Streams(KEYS)] == [draws(fresh(key)) for key in KEYS]
    # _pinv_checks draws its sizes as integers and then normals.
    rows = [suites._pinv_checks(g, i) for i, g in enumerate(Streams(KEYS))]
    assert rows == [suites._pinv_checks(fresh(key), i) for i, key in enumerate(KEYS)]


def test_draw_sites_take_batches_as_fresh_generators():
    fresh_ones = [fresh(key) for key in KEYS]
    assert same_bits(conditioned_ops(Streams(KEYS), 4, 3, 2), conditioned_ops(fresh_ones, 4, 3, 2))
    fresh_ones = [fresh(key) for key in KEYS]
    assert same_bits(complex_normal_stack(Streams(KEYS), 3, count=2), complex_normal_stack(fresh_ones, 3, count=2))


def test_a_batch_member_is_drawn_in_one_visit(monkeypatch):
    expected = fresh(KEYS[1]).standard_normal(5)
    built, keyed = [], []
    philox, state = np.random.Philox, rng._state
    monkeypatch.setattr(np.random, "Philox", lambda key: built.append(key) or philox(key))
    monkeypatch.setattr(rng, "_state", lambda *key: keyed.append(key) or state(*key))
    batch = Streams(KEYS)
    assert len(batch) == len(KEYS) and built == keyed == []
    g = batch[1]
    first = g.standard_normal(3)
    # Reading the member it draws for again continues its stream.
    assert batch[1] is g and batch[-len(KEYS) + 1] is g
    assert np.array_equal(np.concatenate([first, batch[1].standard_normal(2)]), expected)
    assert batch[3] is g and len(built) == 1
    with pytest.raises(RuntimeError, match="left"):
        batch[1]
    with pytest.raises(IndexError):
        batch[len(KEYS)]
    # A member that is never read is never keyed.
    assert keyed == [KEYS[1], KEYS[3]]


README_DOC = {
    "dim": 3,
    "atoms": 7,
    "weights": [0.5, 2.0, 1.0, 0.25, 3.0, 1.5, 0.75],
    "k_spec": {"kind": "random-rank", "rank": 2, "seed": 5},
    "frame_spec": {"kind": "generate-parseval-k", "seed": 9},
    "trials": 20,
    "seed": 42,
}
# atoms == rank: the analysis map fills the coefficient space, so the
# synthesis kernel is trivial and the canonical dual is the only dual.
UNIQUE_DUAL_DOC = dict(
    README_DOC, dim=6, atoms=4, weights=[0.5, 2.0, 1.0, 1.5], k_spec={"kind": "random-rank", "rank": 4, "seed": 5}
)
# Every property that reads the scenario's instance; l1 and l2 draw their
# own matrices.
INSTANCE_PROPERTIES = [pid for pid in suites.PROPERTY_IDS if pid not in ("l1", "l2")]


@pytest.mark.parametrize(
    "doc, props, per_trial",
    [(README_DOC, suites.PROPERTY_IDS, (33, 5)), (UNIQUE_DUAL_DOC, INSTANCE_PROPERTIES, (12, 2))],
    ids=["readme", "unique-dual"],
)
def test_streams_and_seeds_keyed_per_trial(monkeypatch, doc, props, per_trial):
    # Every stream and every derived seed takes one state from the hash; a
    # stream loads it into its batch's one generator when the batch reads
    # it. Members with a trivial kernel draw no kernel field (l5,
    # canonical-char) and read no partner or family seeds (canonical-char,
    # t4), and canonical-char's one-partner check reads no seeds at all.
    counts = {"loads": 0, "states": 0}
    getitem, state = rng.Streams.__getitem__, rng._state

    def counted_getitem(self, j):
        loads = j != self._at
        member = getitem(self, j)
        counts["loads"] += loads
        return member

    def counted_state(*key):
        counts["states"] += 1
        return state(*key)

    monkeypatch.setattr(rng.Streams, "__getitem__", counted_getitem)
    monkeypatch.setattr(rng, "_state", counted_state)
    sc = scenario_from_dict(doc)
    assert suites.run_suite(sc, props).all_passed
    made = (counts["loads"], counts["states"] - counts["loads"])
    assert made == (per_trial[0] * sc.trials, per_trial[1] * sc.trials)


def test_seed_sequences_only_for_new_prefixes(monkeypatch):
    # numpy hashes each memoized prefix (a seed and at most a property or
    # instance tag here); the trial, slot and partner words of every key
    # are mixed by hand, and a second run finds every prefix memoized.
    built = []
    seed_sequence = np.random.SeedSequence

    def counted(seed, spawn_key=()):
        built.append((seed, tuple(spawn_key)))
        return seed_sequence(seed, spawn_key=spawn_key)

    monkeypatch.setattr(np.random, "SeedSequence", counted)
    rng._prefix.cache_clear()
    sc = scenario_from_dict(README_DOC)
    suites.run_suite(sc)
    assert built and len(set(built)) == len(built)
    assert all(len(key) <= 1 for _, key in built)
    first = list(built)
    suites.run_suite(sc)
    assert built == first


class Crafted:
    """A stand-in generator whose normals are the given numbers, in order."""

    def __init__(self, values: np.ndarray):
        self.values = values

    def standard_normal(self, size=None, out=None):
        if out is None:
            return self.values.reshape(size).copy()
        out[...] = self.values.reshape(out.shape)
        return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("members", [1, 2, 20])
@pytest.mark.parametrize("shape, count", [((5,), None), ((3, 2), None), ((4,), 5), ((2, 3), 2)], ids=str)
def test_stacked_draws_equal_per_generator_draws(members, shape, count):
    keys = [(i,) for i in range(members)]

    def draw(g):
        if count is None:
            return complex_normal(g, *shape)
        return np.stack([complex_normal(g, *shape) for _ in range(count)])

    singles = [stream(7, 1000, *key) for key in keys]
    generators = [stream(7, 1000, *key) for key in keys]
    stack = complex_normal_stack(generators, *shape, count=count)
    assert stack.shape == (members,) + (() if count is None else (count,)) + shape
    for j in range(members):
        assert same_bits(stack[j], draw(singles[j]))
        # Each stream is left where its own call leaves it.
        assert np.array_equal(generators[j].standard_normal(3), singles[j].standard_normal(3))


SPECIAL = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.5, -2.5e300]


@pytest.mark.parametrize("members", [1, 2, 20])
def test_stacked_conversion_keeps_signed_zeros_and_specials(members):
    # Every (re, im) pair of the special values, in both parts, spread over
    # the members; each member's conversion is compared with its own call.
    pairs = np.array(list(itertools.product(SPECIAL, SPECIAL)))
    rows = np.resize(np.arange(len(pairs)), (members, 11 * 11))
    raw = [np.concatenate([pairs[r, 0], pairs[r, 1]]) for r in rows]
    with np.errstate(all="ignore"):
        singles = [complex_normal(Crafted(values), 11, 11) for values in raw]
        stack = complex_normal_stack([Crafted(values) for values in raw], 11, 11)
        counted_singles = [complex_normal(Crafted(values), 11, 11)[None] for values in raw]
        counted = complex_normal_stack([Crafted(values) for values in raw], 11, 11, count=1)
    assert all(same_bits(stack[j], single) for j, single in enumerate(singles))
    assert all(same_bits(counted[j], single) for j, single in enumerate(counted_singles))
    # The crafted parts really carry both zeros.
    assert {str(v) for v in raw[0]} >= {"0.0", "-0.0"}
