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
entropy past the pool's size, so a key costs no SeedSequence of its own;
a one-word tail, the common case, is mixed by one unrolled expression
from constants memoized with the prefix.

A batch of keys (:class:`Streams`, :func:`derive_seeds`) is keyed
lazily: each stream or derived seed is keyed when a caller first reads
it, so members that draw nothing, such as those whose synthesis kernel is
trivial, cost nothing. A batch of streams builds one Philox generator and
sets its state to each member's key in turn, so each member makes all its
draws before the next one starts (:func:`member_draws`). Stacked complex
Gaussian draws (:func:`complex_normal_stack`) fill each member's raw
normals from its own stream and make the whole stack complex in one
expression; :func:`complex_normal` is the stack of one.
"""

import operator
from collections.abc import Sequence
from functools import lru_cache
from typing import Callable, Iterable, List, Optional, Tuple

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
_SQRT2 = np.sqrt(2.0)

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
def _prefix(seed: int, indices: Tuple[int, ...]) -> Tuple[Pool, int, Tuple[int, ...]]:
    """The pool and running constant after the seed's words, zero-padded
    to the pool size, and the words of ``indices``, with the constants of
    :func:`_mix`. hashmix advances the constant once per pool word per
    mixed word, whatever the word."""
    words = max(_POOL, _word_count(seed)) + sum(map(_word_count, indices))
    pool = tuple(np.random.SeedSequence(seed, spawn_key=indices).pool.tolist())
    const = _INIT_A * pow(_MULT_A, _POOL * words, 1 << 32) & _MASK
    consts = tuple(const * _MULT_A**k & _MASK for k in range(_POOL + 1))
    return pool, const, consts + tuple(_MIX_L * word & _MASK for word in pool)


def _seeds64(pool: Pool) -> Tuple[int, int]:
    """``generate_state(2, np.uint64)`` of the pool: one output word per
    pool word, each pair read as one little-endian uint64."""
    b0, b1, b2, b3, b4 = _STATE_CONSTS
    w0 = (pool[0] ^ b0) * b1 & _MASK
    w1 = (pool[1] ^ b1) * b2 & _MASK
    w2 = (pool[2] ^ b2) * b3 & _MASK
    w3 = (pool[3] ^ b3) * b4 & _MASK
    return w0 ^ w0 >> 16 | (w1 ^ w1 >> 16) << 32, w2 ^ w2 >> 16 | (w3 ^ w3 >> 16) << 32


def _mix(consts: Tuple[int, ...], w: int) -> Tuple[int, int]:
    """``_seeds64(_absorb(pool, const, [w])[0])`` unrolled, from the
    prefix's running constants c0 ... c4 and its pool words times mix's
    left multiplier: pool word i takes hashmix's (w ^ c_i) * c_(i+1)."""
    c0, c1, c2, c3, c4, l0, l1, l2, l3 = consts
    b0, b1, b2, b3, b4 = _STATE_CONSTS
    h0, h1, h2, h3 = (w ^ c0) * c1 & _MASK, (w ^ c1) * c2 & _MASK, (w ^ c2) * c3 & _MASK, (w ^ c3) * c4 & _MASK
    r0, r1 = (l0 - _MIX_R * (h0 ^ h0 >> 16)) & _MASK, (l1 - _MIX_R * (h1 ^ h1 >> 16)) & _MASK
    r2, r3 = (l2 - _MIX_R * (h2 ^ h2 >> 16)) & _MASK, (l3 - _MIX_R * (h3 ^ h3 >> 16)) & _MASK
    w0, w1 = (r0 ^ r0 >> 16 ^ b0) * b1 & _MASK, (r1 ^ r1 >> 16 ^ b1) * b2 & _MASK
    w2, w3 = (r2 ^ r2 >> 16 ^ b2) * b3 & _MASK, (r3 ^ r3 >> 16 ^ b3) * b4 & _MASK
    return w0 ^ w0 >> 16 | (w1 ^ w1 >> 16) << 32, w2 ^ w2 >> 16 | (w3 ^ w3 >> 16) << 32


def _state(seed: int, shared: Tuple[int, ...], tail: Tuple[int, ...]) -> Tuple[int, int]:
    """The Philox key state of (seed, *shared, *tail): the prefix (seed,
    *shared) is hashed once and memoized, a one-word tail is mixed in by
    :func:`_mix`, a tail of several one-word indices word by word, and any
    other tail joins the prefix. Every stream and derived seed is keyed here."""
    if len(tail) == 1 and 0 <= tail[0] <= _MASK:
        return _mix(_prefix(seed, shared)[2], int(tail[0]))
    if all(0 <= i <= _MASK for i in tail):
        pool, const, _ = _prefix(seed, shared)
        return _seeds64(_absorb(pool, const, [int(i) for i in tail])[0])
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


# A new Philox generator's state, into which a batch of streams loads each key.
_FRESH = np.random.Philox(0).state


class Keyed(Sequence):
    """The derived seeds of the keys (seed, shared, tail), each derived on
    first read and then kept: a member that is never read costs nothing."""

    def __init__(self, keys: Iterable[tuple]):
        self._keys = list(keys)
        self._made: list = [None] * len(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, j):
        j = operator.index(j)
        made = self._made[j]
        if made is None:
            made = self._made[j] = _state(*self._keys[j])[0]
        return made


class Streams(Keyed):
    """The streams of the keys (seed, shared, tail) through one generator,
    which reading member j sets to the start of j's stream unless it draws
    for j already. So each member draws all it needs before the next one is
    read (:func:`member_draws`), one that was left raises if read again, and
    one that is never read loads no state."""

    _gen, _fresh, _at = None, None, -1

    def __getitem__(self, j):
        j = range(len(self._keys))[j]
        if j != self._at:
            if self._made[j]:
                raise RuntimeError(f"member {j} of a stream batch was left; its draws would restart")
            self._at, self._made[j], state = j, True, _state(*self._keys[j])
            if self._gen is None:
                self._gen = _generator(state)
            else:  # as a new Philox starts
                self._fresh = self._fresh or dict(_FRESH, state=dict(_FRESH["state"]))
                self._fresh["state"]["key"] = state
                self._gen.bit_generator.state = self._fresh
        return self._gen

    def __iter__(self):
        return map(self.__getitem__, range(len(self._keys)))


def _generator(state: Tuple[int, int]) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_PhiloxKey(state)))


def derive_seeds(seed: int, shared: Tuple[int, ...], tails: Iterable[Tuple[int, ...]]) -> Keyed:
    """:func:`derive_seed` of each key (seed, *shared, *tail), each derived on
    first read: the first of the two uint64 state words."""
    return Keyed((seed, tuple(shared), tuple(tail)) for tail in tails)


def stream(seed: int, *indices: int) -> np.random.Generator:
    """Generator for the stream addressed by ``seed`` and an index path."""
    return _generator(_state(seed, indices[:-1], indices[-1:]))


def derive_seed(seed: int, *indices: int) -> int:
    """Collapse (seed, indices) into a single 64-bit seed for nested use."""
    return _state(seed, indices[:-1], indices[-1:])[0]


def member_draws(rngs: Sequence, *draws: Callable) -> List[np.ndarray]:
    """``draws[k](rng)`` of each member's generator, stacked per k. Each
    member makes all its draws before the next one starts, as a batch of
    :class:`Streams` needs; with no draws, no member is read."""
    rows = [[draw(rng) for draw in draws] for rng in rngs] if draws else []
    return [np.array(column) for column in zip(*rows)]


def complex_parts(raw: np.ndarray) -> np.ndarray:
    """Complex Gaussians (n, ...) of raw normals (n, 2, ...): the real parts,
    then the imaginary parts, made complex in one expression."""
    return (raw[:, 0] + 1j * raw[:, 1]) / _SQRT2


def complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Standard complex Gaussian draws (unit total variance per entry): the
    real parts, then the imaginary parts, from one call."""
    return complex_normal_stack([rng], *shape)[0]


def complex_normal_stack(rngs: Sequence[np.random.Generator], *shape: int, count: Optional[int] = None) -> np.ndarray:
    """:func:`complex_normal` of ``shape`` from each generator, stacked along
    a new first axis; with ``count``, each member holds ``count`` successive
    draws, stacked. Each generator fills its member's raw normals in stream
    order, so the numbers are those of its successive calls, and the whole
    stack is made complex at once (:func:`complex_parts`)."""
    lead = () if count is None else (int(count),)
    raw = np.empty((len(rngs),) + lead + (2,) + shape)
    for rng, out in zip(rngs, raw):
        rng.standard_normal(out=out)
    return complex_parts(raw if count is None else raw.swapaxes(1, 2))
