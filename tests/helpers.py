"""Shared test utilities: independent oracles and seeded instance builders.

The oracles deliberately avoid the code paths they are used to check:
the minimal Loewner scale comes from bisection over eigenvalue tests
rather than from any pseudo-inverse, and weighted sums are written as
plain loops.
"""

import os
import subprocess
import sys

import numpy as np

import kframelab
from kframelab.frames import KOperator, generate_parseval_k_frame
from kframelab.hilbert import loewner_leq
from kframelab.measure import MeasureSpace
from kframelab.rng import complex_normal, derive_seed, stream


def run_cli(*args):
    """Run ``python -m kframelab`` on the package these tests imported, so a
    checkout runs its own code with or without an install."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kframelab.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "kframelab", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def loewner_inclusion_exists(s_op, t_op, cap=1e12):
    """Independent inclusion oracle: doubling search for a scale that puts
    S S* under the cone of T T*. The slack stays at the scale of S S*, so
    the strictly negative directions witnessing non-inclusion are never
    absorbed by a growing trial scale."""
    ss = np.asarray(s_op) @ np.asarray(s_op).conj().T
    tt = np.asarray(t_op) @ np.asarray(t_op).conj().T
    ss = (ss + ss.conj().T) / 2.0
    tt = (tt + tt.conj().T) / 2.0
    slack = 1e-9 * max(1.0, np.linalg.norm(ss, 2))
    lam = 1.0
    while lam <= cap:
        if float(np.linalg.eigvalsh(lam * tt - ss)[0]) >= -slack:
            return True
        lam *= 2.0
    return False


def bisect_loewner(s_op, t_op, iters=60, cap=1e18):
    """Independent minimal-scale oracle: pure bisection over the Loewner
    comparison. Returns None when no scale below the cap works."""
    ss = np.asarray(s_op) @ np.asarray(s_op).conj().T
    tt = np.asarray(t_op) @ np.asarray(t_op).conj().T
    if loewner_leq(ss, np.zeros_like(tt)):
        return 0.0
    hi = 1.0
    while not loewner_leq(ss, hi * tt):
        hi *= 2.0
        if hi > cap:
            return None
    lo = 0.0
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        if loewner_leq(ss, mid * tt):
            hi = mid
        else:
            lo = mid
    return hi


def loop_weighted_inner(values_a, values_b, weights):
    """Plain-loop weighted inner product, linear in the first argument."""
    total = 0j
    for a, b, w in zip(values_a, values_b, weights):
        total += w * a * np.conj(b)
    return total


def loop_frame_operator(samples, weights):
    """Plain-loop weighted sum of sample outer products."""
    d = len(samples[0])
    s = np.zeros((d, d), dtype=complex)
    for row, w in zip(samples, weights):
        v = np.asarray(row, dtype=complex)
        s += w * np.outer(v, np.conj(v))
    return s


def conditioned_operator(rng, dim, rank):
    """Random rank-r operator with singular values in [0.5, 2]."""
    q1, _ = np.linalg.qr(complex_normal(rng, dim, rank))
    q2, _ = np.linalg.qr(complex_normal(rng, dim, rank))
    singulars = np.sort(rng.uniform(0.5, 2.0, rank))[::-1]
    return KOperator((q1 * singulars) @ q2.conj().T)


def random_space(rng, atoms, mixed=True):
    """Measure space with unit or mixed weights in [0.25, 4]."""
    if mixed:
        return MeasureSpace(rng.uniform(0.25, 4.0, atoms))
    return MeasureSpace.uniform(atoms)


def parseval_instance(seed, dim=None, atoms=None, rank=None, mixed_weights=None):
    """Seeded Parseval K-frame instance (space, K, frame)."""
    rng = stream(seed)
    if dim is None:
        dim = int(rng.integers(2, 9))
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    if atoms is None:
        atoms = int(rng.integers(rank, 25))
    if mixed_weights is None:
        mixed_weights = bool(rng.integers(0, 2))
    space = random_space(rng, atoms, mixed_weights)
    k = conditioned_operator(rng, dim, rank)
    frame = generate_parseval_k_frame(k, space, derive_seed(seed, 1))
    return space, k, frame
