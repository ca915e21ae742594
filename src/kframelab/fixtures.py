"""Built-in hand-checkable instances shared by tests and the CLI.

W1 is the smallest family exhibiting a repeated direction, a zero sample
and a rank-deficient K in one instance; every derived quantity can be
computed by hand. W1p is the same geometry rescaled so that the
pseudo-inverse of K and the canonical dual act non-trivially.
"""

import math
from typing import Dict, Tuple

import numpy as np

from .frames import KOperator, SampledFrame
from .measure import MeasureSpace

__all__ = ["FIXTURE_NAMES", "fixture", "fixture_w1", "fixture_w1_prime", "fixture_scenario"]

FIXTURE_NAMES = ("W1", "W1p")


def fixture_w1() -> Tuple[MeasureSpace, KOperator, SampledFrame]:
    """Unit weights, samples (1/sqrt2, 0) twice plus a zero sample, K = diag(1, 0)."""
    space = MeasureSpace.uniform(3)
    s = 1.0 / math.sqrt(2.0)
    samples = np.array([[s, 0.0], [s, 0.0], [0.0, 0.0]])
    return space, KOperator(np.diag([1.0, 0.0])), SampledFrame(space, samples)


def fixture_w1_prime() -> Tuple[MeasureSpace, KOperator, SampledFrame]:
    """Unit weights, samples (sqrt2, 0) twice plus a zero sample, K = diag(2, 0)."""
    space = MeasureSpace.uniform(3)
    s = math.sqrt(2.0)
    samples = np.array([[s, 0.0], [s, 0.0], [0.0, 0.0]])
    return space, KOperator(np.diag([2.0, 0.0])), SampledFrame(space, samples)


def fixture(name: str) -> Tuple[MeasureSpace, KOperator, SampledFrame]:
    if name == "W1":
        return fixture_w1()
    if name == "W1p":
        return fixture_w1_prime()
    raise ValueError(f"unknown fixture {name!r}; valid names: {', '.join(FIXTURE_NAMES)}")


def _matrix_doc(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(mat, complex)]


def fixture_scenario(name: str) -> Dict:
    """The fixture as a scenario document of 100 trials at seed 7, ready
    for the verify command."""
    space, k, frame = fixture(name)
    return {
        "dim": frame.dim,
        "atoms": space.atom_count,
        "weights": "uniform",
        "k_spec": {"kind": "explicit", "matrix": _matrix_doc(k.op)},
        "frame_spec": {"kind": "explicit", "samples": _matrix_doc(frame.samples)},
        "tolerances": {},
        "trials": 100,
        "seed": 7,
    }
