"""Deterministic random streams for generators and trial loops.

Streams use the Philox counter-based bit generator (Salmon et al., SC'11)
with the key ``numpy.random.Philox(numpy.random.SeedSequence(seed,
spawn_key=indices))`` takes, so the stream identified by a seed plus an
index path is the same on every platform and independent of how many
other streams were drawn before it. Trial loops derive one stream per
(seed, trial index) pair and may therefore run in any order.

The SeedSequence hash (NEP 19) of the words that keys share (the seed and
every index but the last) is taken once from numpy, as the pool of
``SeedSequence(seed, spawn_key=shared)``, and memoized in a bounded
cache. Each key's own trial, slot and partner words are then mixed into
that pool on Python ints, with ``hashmix``/``mix`` exactly as numpy mixes
entropy past the pool's size, so a key costs no SeedSequence of its own.
Philox then takes its key from a seed sequence that returns the
precomputed state.

A batch of keys (:func:`streams`, :func:`derive_seeds`) is keyed lazily:
each stream or derived seed is built when a caller first reads it, so
members that draw nothing, such as those whose synthesis kernel is
trivial, cost no Philox constructor. Building the generator is what is
left of a stream's cost. Stacked complex Gaussian draws
(:func:`complex_normal_stack`) fill each member's raw normals from its
own stream and make the whole stack complex in one expression;
:func:`complex_normal` is the stack of one.
"""

import operator
from collections.abc import Sequence
from functools import lru_cache
from typing import Callable, Iterable, Optional, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["stream", "derive_seed", "complex_normal", "complex_normal_stack"]

_MASK = 0xFFFFFFFF
# numpy's SeedSequence constants: the start and multiplier of hashmix's
# running constant (A) and of the state output's (B), and mix's two
# multipliers.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

# The running constant of the state output over its first four words.
_STATE_CONSTS = (_INIT_B,) + tuple(_INIT_B * _MULT_B**k & _MASK for k in range(1, _POOL + 1))

Pool = Tuple[int, int, int, int]


def _word_count(value) -> int:
    """The number of little-endian uint32 words SeedSequence splits a
    nonnegative integer into (zero is one word)."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seeds and stream indices must be nonnegative, got {value}")
    return max(1, -(-value.bit_length() // 32))


def _absorb(pool: Pool, const: int, words: Sequence[int]) -> Tuple[Pool, int]:
    """Mix each of ``words`` into every pool word, as SeedSequence mixes the
    entropy past the pool's size; returns the pool and the running constant.
    Per pool word: hashmix (xor with the running constant, advance it,
    multiply by it, fold the high half down), then mix with the pool word."""
    pool = list(pool)
    for w in words:
        for i in range(_POOL):
            h = w ^ const
            const = const * _MULT_A & _MASK
            h = h * const & _MASK
            r = (_MIX_L * pool[i] - _MIX_R * (h ^ h >> 16)) & _MASK
            pool[i] = r ^ r >> 16
    return tuple(pool), const


@lru_cache(maxsize=1024)
def _prefix(seed: int, indices: Tuple[int, ...]) -> Tuple[Pool, int]:
    """The pool and running constant after the seed's words, zero-padded
    to the pool size, and the words of ``indices``. hashmix advances the
    constant once per pool word per mixed word, whatever the word."""
    words = max(_POOL, _word_count(seed)) + sum(map(_word_count, indices))
    pool = np.random.SeedSequence(seed, spawn_key=indices).pool
    return tuple(pool.tolist()), _INIT_A * pow(_MULT_A, _POOL * words, 1 << 32) & _MASK


def _seeds64(pool: Pool) -> Tuple[int, int]:
    """``generate_state(2, np.uint64)`` of the pool: one output word per
    pool word, each pair read as one little-endian uint64."""
    b0, b1, b2, b3, b4 = _STATE_CONSTS
    w0 = (pool[0] ^ b0) * b1 & _MASK
    w1 = (pool[1] ^ b1) * b2 & _MASK
    w2 = (pool[2] ^ b2) * b3 & _MASK
    w3 = (pool[3] ^ b3) * b4 & _MASK
    return w0 ^ w0 >> 16 | (w1 ^ w1 >> 16) << 32, w2 ^ w2 >> 16 | (w3 ^ w3 >> 16) << 32


def _state(seed: int, shared: Tuple[int, ...], tail: Tuple[int, ...]) -> Tuple[int, int]:
    """The Philox key state of (seed, *shared, *tail): the prefix (seed,
    *shared) is hashed once and memoized, a tail of one-word indices is
    mixed in per key, and any other tail joins the prefix. Every stream
    and derived seed is keyed here."""
    if all(0 <= i <= _MASK for i in tail):
        return _seeds64(_absorb(*_prefix(seed, tuple(shared)), [int(i) for i in tail])[0])
    return _seeds64(_prefix(seed, (*shared, *tail))[0])


class _PhiloxKey(ISeedSequence):
    """The seed sequence Philox takes its key from: ``generate_state(2,
    np.uint64)`` returns the state SeedSequence generates for the same
    seed and index path, precomputed, as the pair of ints Philox indexes.
    Other requests raise."""

    def __init__(self, state: Tuple[int, int]):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or not (dtype is np.uint64 or np.dtype(dtype) == np.uint64):
            raise ValueError("a precomputed Philox key answers generate_state(2, np.uint64) only")
        return self.state


class Keyed(Sequence):
    """The streams or derived seeds of the keys (seed, *shared, *tail), one
    per tail, each keyed on first use and then kept: a member that never
    draws or reads costs nothing, and repeated reads see one generator."""

    def __init__(self, make: Callable[[Tuple[int, int]], object], seed: int, shared: Tuple[int, ...], tails):
        self._make = make
        self._seed, self._shared = seed, tuple(shared)
        self._tails = list(tails)
        self._made: list = [None] * len(self._tails)

    def __len__(self) -> int:
        return len(self._tails)

    def __getitem__(self, j):
        j = operator.index(j)
        made = self._made[j]
        if made is None:
            made = self._made[j] = self._make(_state(self._seed, self._shared, self._tails[j]))
        return made


def _generator(state: Tuple[int, int]) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_PhiloxKey(state)))


def streams(seed: int, shared: Tuple[int, ...], tails: Iterable[Tuple[int, ...]]) -> Keyed:
    """:func:`stream` of each key (seed, *shared, *tail), each built on first use."""
    return Keyed(_generator, seed, shared, tails)


def derive_seeds(seed: int, shared: Tuple[int, ...], tails: Iterable[Tuple[int, ...]]) -> Keyed:
    """:func:`derive_seed` of each key (seed, *shared, *tail), each derived on
    first use: the first of the two uint64 state words."""
    return Keyed(operator.itemgetter(0), seed, shared, tails)


def stream(seed: int, *indices: int) -> np.random.Generator:
    """Generator for the stream addressed by ``seed`` and an index path."""
    return _generator(_state(seed, indices[:-1], indices[-1:]))


def derive_seed(seed: int, *indices: int) -> int:
    """Collapse (seed, indices) into a single 64-bit seed for nested use."""
    return _state(seed, indices[:-1], indices[-1:])[0]


def complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Standard complex Gaussian draws (unit total variance per entry): the
    real parts, then the imaginary parts, from one call."""
    return complex_normal_stack([rng], *shape)[0]


def complex_normal_stack(rngs: Sequence[np.random.Generator], *shape: int, count: Optional[int] = None) -> np.ndarray:
    """:func:`complex_normal` of ``shape`` from each generator, stacked along
    a new first axis; with ``count``, each member holds ``count`` successive
    draws, stacked. Each generator fills its member's raw normals in stream
    order, so the numbers are those of its successive calls, and the whole
    stack is made complex at once."""
    lead = () if count is None else (int(count),)
    raw = np.empty((len(rngs),) + lead + (2,) + shape)
    for rng, out in zip(rngs, raw):
        rng.standard_normal(out=out)
    before = (slice(None),) * (1 + len(lead))  # the axes before (re, im)
    return (raw[before + (0,)] + 1j * raw[before + (1,)]) / np.sqrt(2.0)
