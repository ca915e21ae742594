"""Deterministic random streams for generators and trial loops.

Streams use the Philox counter-based bit generator keyed through
``numpy.random.SeedSequence``, so the stream identified by a 64-bit seed
plus an index tuple is the same on every platform and independent of how
many other streams were drawn before it. Trial loops derive one stream
per (seed, trial index) pair and may therefore run in any order.
"""

import numpy as np

__all__ = ["stream", "derive_seed", "complex_normal"]


def stream(seed: int, *indices: int) -> np.random.Generator:
    """Generator for the stream addressed by ``seed`` and an index path."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(i) for i in indices))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *indices: int) -> int:
    """Collapse (seed, indices) into a single 64-bit seed for nested use."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(i) for i in indices))
    return int(ss.generate_state(1, np.uint64)[0])


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    return (re + 1j * im) / np.sqrt(2.0)


def complex_normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Standard complex Gaussian draws (unit total variance per entry): the
    real parts, then the imaginary parts, from one call."""
    raw = rng.standard_normal((2,) + shape)
    return _complex(raw[0], raw[1])


def complex_normals(rng: np.random.Generator, count: int, *shape: int) -> np.ndarray:
    """``count`` successive :func:`complex_normal` draws of ``shape``, stacked,
    from one call: a stream fills an array in order, so the numbers are the
    same."""
    raw = rng.standard_normal((int(count), 2) + shape)
    return _complex(raw[:, 0], raw[:, 1])


def stacked(arrays) -> np.ndarray:
    """Per-trial draws stacked along a new first axis; a single draw becomes
    a stack of one without a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)
