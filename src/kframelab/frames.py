"""Sampled vector fields on a measure space and their frame machinery.

A field assigns one vector of H to each atom. The analysis map stacks
inner products against the samples; its adjoint with respect to the
weighted coefficient space is the synthesis map, whose matrix carries
the weights. The ``weighted_*`` variants give the same operators in
weight-normalized coordinates, where the plain conjugate transpose of a
matrix is the true adjoint; norms and minimal-scale computations for
maps in or out of the coefficient space must use these.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

import numpy as np

from .hilbert import (
    DEFAULT_TOL,
    RANK_EPS,
    as_operator,
    op_norm,
    range_inclusion,
    svd,
)
from .hilbert import adjoint as op_adjoint
from .hilbert import pinv as op_pinv
from .measure import MeasureSpace, _require_same_space
from .rng import complex_normal, stream

__all__ = [
    "InfeasibleError",
    "SampledFrame",
    "KOperator",
    "FrameBounds",
    "FrameVerdict",
    "FrameClassification",
    "analysis",
    "synthesis",
    "weighted_analysis",
    "weighted_synthesis",
    "analysis_norm",
    "frame_operator",
    "frame_bounds",
    "k_lower_bound",
    "parseval_residual",
    "classify",
    "is_l2_independent",
    "synthesis_kernel_basis",
    "frames_allclose",
    "generate_parseval_k_frame",
    "generate_random_bessel",
]


class InfeasibleError(ValueError):
    """The requested object cannot exist under the given constraints."""


@dataclass(frozen=True, eq=False)
class SampledFrame:
    """A field on the atoms: row ``i`` of ``samples`` is the vector at atom ``i``."""

    space: MeasureSpace
    samples: np.ndarray

    def __post_init__(self):
        s = np.array(self.samples, dtype=np.complex128, copy=True)
        if s.ndim != 2 or s.shape[0] != self.space.atom_count or s.shape[1] < 1:
            raise ValueError(
                f"samples must be ({self.space.atom_count}, d) with d >= 1, got shape {s.shape}"
            )
        if not np.isfinite(s).all():
            raise ValueError("sample entries must be finite")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def dim(self) -> int:
        return int(self.samples.shape[1])

    def sample(self, i: int) -> np.ndarray:
        return self.samples[i]


class KOperator:
    """Square operator on H with pseudo-inverse and projector data precomputed.

    Finite dimension makes the range closed automatically, so the
    pseudo-inverse always exists and the cached projectors are exact up
    to the rank tolerance.
    """

    def __init__(self, op, rank_tol: float = RANK_EPS):
        mat = as_operator(op)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be square, got shape {mat.shape}")
        self.op = mat
        f = svd(mat, rank_tol)
        self.rank = f.rank
        self.norm = float(f.singulars[0]) if f.rank else 0.0
        self.adjoint = op_adjoint(mat)
        self.pinv = op_pinv(mat, rank_tol)
        # Orthogonal projectors onto R(K) and onto R(K*) = N(K)-perp.
        self.range_projector = self.op @ self.pinv
        self.adjoint_range_projector = self.pinv @ self.op

    @property
    def dim(self) -> int:
        return int(self.op.shape[0])

    @classmethod
    def identity(cls, dim: int) -> "KOperator":
        return cls(np.eye(int(dim)))


def analysis(frame: SampledFrame) -> np.ndarray:
    """Matrix of the analysis map H -> L2: row i sends f to <f, F_i>."""
    return np.conj(frame.samples)


def synthesis(frame: SampledFrame) -> np.ndarray:
    """Matrix of the synthesis map L2 -> H, the weighted adjoint of analysis.

    Column i is weight_i * F_i, so applying it to coefficients x yields
    the weighted sum of samples; this is where the weights live.
    """
    return (frame.samples * frame.space.weights[:, None]).T


def weighted_analysis(frame: SampledFrame) -> np.ndarray:
    """Analysis matrix in weight-normalized coordinates (rows scaled by
    sqrt(weight)); its plain conjugate transpose is the synthesis map in
    the same coordinates."""
    return frame.space.sqrt_weights[:, None] * np.conj(frame.samples)


def weighted_synthesis(frame: SampledFrame) -> np.ndarray:
    """Synthesis matrix in weight-normalized coordinates."""
    return (frame.samples * frame.space.sqrt_weights[:, None]).T


def analysis_norm(frame: SampledFrame) -> float:
    """Operator norm of the analysis map from H into the weighted L2 space."""
    return op_norm(weighted_analysis(frame))


def frame_operator(frame: SampledFrame) -> np.ndarray:
    """S = synthesis @ analysis, the weighted sum of sample outer products."""
    return synthesis(frame) @ analysis(frame)


@dataclass(frozen=True)
class FrameBounds:
    """Optimal lower and upper constants of the defining inequality.

    For ordinary frames lower <= upper holds automatically. For K-frame
    bounds the two constants gauge different quadratic forms, so the
    optimal lower constant may exceed the upper one when the operator
    norm of K is below one; the constructor therefore only requires
    nonnegativity.
    """

    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("bounds must be finite")
        if self.lower < 0 or self.upper < 0:
            raise ValueError("bounds must be nonnegative")


class FrameVerdict(str, Enum):
    NOT_BESSEL_INPUT = "not-Bessel-input"
    BESSEL_ONLY = "Bessel-only"
    FRAME = "frame"
    K_FRAME = "K-frame"
    TIGHT_K_FRAME = "tight-K-frame"
    PARSEVAL_K_FRAME = "Parseval-K-frame"


@dataclass(frozen=True)
class FrameClassification:
    verdict: FrameVerdict
    bounds: FrameBounds
    residuals: Dict[str, float]


def _hermitian_eigvals(mat: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)


def frame_bounds(frame: SampledFrame) -> FrameBounds:
    """Optimal ordinary frame bounds: the extreme eigenvalues of the frame
    operator. The lower bound is positive exactly when the field is a frame
    for the whole space."""
    eigs = _hermitian_eigvals(frame_operator(frame))
    return FrameBounds(lower=max(float(eigs[0]), 0.0), upper=max(float(eigs[-1]), 0.0))


def k_lower_bound(frame: SampledFrame, k: KOperator, rank_tol: float = RANK_EPS) -> Optional[float]:
    """Optimal lower K-frame bound, or None when no such bound exists.

    The bound exists exactly when R(K) lies inside the range of the
    synthesis map; the optimal constant is the reciprocal of the minimal
    scale lambda with K K* <= lambda S. The synthesis map enters through
    its weight-normalized matrix, since the minimal scale is a statement
    about the operator on the weighted coefficient space. A rank-zero K
    admits every lower bound; infinity is returned in that case.
    """
    if k.dim != frame.dim:
        raise ValueError(f"operator dimension {k.dim} does not match frame dimension {frame.dim}")
    inc = range_inclusion(k.op, weighted_synthesis(frame), rank_tol)
    if not inc.included:
        return None
    if inc.lambda_star == 0.0:
        return math.inf
    return 1.0 / inc.lambda_star


def parseval_residual(frame: SampledFrame, k: KOperator) -> float:
    """Defect of the operator identity S = K K*, in norm and relative to
    the size of K K*; the Parseval K-frame test compares it to a tolerance."""
    kk = k.op @ k.adjoint
    return op_norm(frame_operator(frame) - kk) / (1.0 + op_norm(kk))


def classify(frame: SampledFrame, k: KOperator, tol: float = DEFAULT_TOL) -> FrameClassification:
    """Classify the field relative to K with optimal bounds and residuals.

    The Parseval verdict is the operator identity S = K K* (checked in
    norm); tightness is equality of the optimal bounds. A lower bound
    over the whole space (frame) outranks a merely K-restricted one.
    """
    s = frame_operator(frame)
    residual = parseval_residual(frame, k)

    a_opt = k_lower_bound(frame, k)
    b_opt = frame_bounds(frame).upper
    # Rank-zero K admits every lower constant; report 0 to keep bounds finite.
    a_report = 0.0 if a_opt is None or not math.isfinite(a_opt) else a_opt

    residuals = {"parseval_identity": residual}
    if a_opt is not None and math.isfinite(a_opt):
        residuals["tight_gap"] = abs(a_opt - b_opt) / (1.0 + b_opt)
        residuals["unit_lower_gap"] = abs(a_opt - 1.0)

    if residual <= tol:
        verdict = FrameVerdict.PARSEVAL_K_FRAME
    elif a_opt is not None and abs(a_report - b_opt) <= tol * (1.0 + b_opt):
        verdict = FrameVerdict.TIGHT_K_FRAME
    elif svd(s).rank == frame.dim:
        verdict = FrameVerdict.FRAME
    elif a_opt is not None:
        verdict = FrameVerdict.K_FRAME
    else:
        verdict = FrameVerdict.BESSEL_ONLY
    return FrameClassification(
        verdict=verdict,
        bounds=FrameBounds(lower=a_report, upper=b_opt),
        residuals=residuals,
    )


def is_l2_independent(frame: SampledFrame, rank_tol: float = RANK_EPS) -> bool:
    """Whether only the zero coefficient function synthesizes to zero.

    Positive weights cannot mask a dependence, so this is linear
    independence of the sample vectors: the sample matrix has full row
    rank.
    """
    return svd(frame.samples, rank_tol).rank == frame.space.atom_count


def synthesis_kernel_basis(frame: SampledFrame, rank_tol: float = RANK_EPS) -> np.ndarray:
    """Columns form a basis of the null space of the synthesis map,
    orthonormal in the weighted inner product. Shape (m, m - rank)."""
    b = weighted_synthesis(frame)
    u, s, vh = np.linalg.svd(b, full_matrices=True)
    cut = rank_tol * (s[0] if s.size else 0.0) * max(b.shape)
    r = int(np.count_nonzero(s > cut))
    null_w = vh[r:].conj().T
    return null_w / frame.space.sqrt_weights[:, None]


def frames_allclose(f: SampledFrame, g: SampledFrame, tol: float = DEFAULT_TOL) -> bool:
    """Samplewise equality up to the relative tolerance."""
    _require_same_space(f.space, g.space)
    if f.dim != g.dim:
        raise ValueError(f"frame dimensions differ: {f.dim} and {g.dim}")
    gap = float(np.max(np.linalg.norm(f.samples - g.samples, axis=1)))
    scale = max(
        float(np.max(np.linalg.norm(f.samples, axis=1))),
        float(np.max(np.linalg.norm(g.samples, axis=1))),
    )
    return gap <= tol * (1.0 + scale)


def generate_parseval_k_frame(
    k: KOperator, m: int, space: MeasureSpace, seed: int
) -> SampledFrame:
    """Seeded Parseval K-frame: samples are K applied to a family whose
    weighted outer-product sum is the projector onto R(K*).

    The family comes from an isometry drawn as the Q factor of a complex
    Gaussian matrix, so the frame operator equals K K* by algebra rather
    than by numerical accident. Requires at least rank(K) atoms.
    """
    m = int(m)
    if m != space.atom_count:
        raise ValueError(f"m = {m} does not match the space's {space.atom_count} atoms")
    if m < k.rank:
        raise InfeasibleError(
            f"cannot reach the lower bound with {m} atoms and rank {k.rank}; need m >= rank(K)"
        )
    d = k.dim
    r = k.rank
    if r == 0:
        return SampledFrame(space, np.zeros((m, d)))
    basis = svd(k.op).right  # orthonormal basis of R(K*), shape (d, r)
    rng = stream(seed)
    g = complex_normal(rng, m, r)
    q, _ = np.linalg.qr(g)  # (m, r), isometric columns
    # w_i = basis @ conj(q[i]) / sqrt(weight_i) gives sum_i weight_i w_i w_i* = basis basis*.
    w_rows = np.conj(q) / space.sqrt_weights[:, None]
    samples = w_rows @ (k.op @ basis).T
    return SampledFrame(space, samples)


def generate_random_bessel(d: int, m: int, space: MeasureSpace, seed: int) -> SampledFrame:
    """Seeded field with independent complex Gaussian samples scaled by
    1/sqrt(m * weight_i); always Bessel since the atom set is finite."""
    m = int(m)
    if m != space.atom_count:
        raise ValueError(f"m = {m} does not match the space's {space.atom_count} atoms")
    rng = stream(seed)
    raw = complex_normal(rng, m, int(d))
    samples = raw / np.sqrt(m * space.weights)[:, None]
    return SampledFrame(space, samples)
