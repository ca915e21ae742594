"""Sampled vector fields on a measure space and their frame machinery.

A field assigns one vector of H to each atom. The analysis map stacks
inner products against the samples; its adjoint with respect to the
weighted coefficient space is the synthesis map, whose matrix carries
the weights. The ``weighted_*`` variants give the same operators in
weight-normalized coordinates, where the plain conjugate transpose of a
matrix is the true adjoint; norms and minimal-scale computations for
maps in or out of the coefficient space must use these.

The maps, norms and checks below also take a :class:`FrameStack` and a
:class:`KStack`, stacks of fields on one space and of operators, and
then return one result per member; the per-instance types are stacks of
one for the same code. The stacked types and builders serve the suite
runner and are left out of ``__all__``.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Sequence

import numpy as np

from .hilbert import (
    DEFAULT_TOL,
    _as_stack,
    _common,
    _cut_ranks,
    _pinv_of_rank,
    as_operator,
    full_row_ranks,
    op_norm,
    range_inclusion,
    svd,
)
from .measure import MeasureSpace, _require_same_space
from .rng import complex_normal_stack, complex_parts, member_draws, stream

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


class FrameStack:
    """Fields on one space, stacked: ``samples[t]`` is the (m, d) sample
    matrix of member t. Taken as given (not copied), checked finite."""

    def __init__(self, space: MeasureSpace, samples):
        s = np.asarray(samples, dtype=np.complex128)
        if s.ndim != 3 or s.shape[1] != space.atom_count or s.shape[2] < 1:
            raise ValueError(f"samples must be (n, {space.atom_count}, d) with d >= 1, got shape {s.shape}")
        if not np.isfinite(s).all():
            raise ValueError("sample entries must be finite")
        self.space = space
        self.samples = s

    @property
    def dim(self) -> int:
        return int(self.samples.shape[2])

    def __len__(self) -> int:
        return int(self.samples.shape[0])


class KStack:
    """Square operators (n, d, d) of one rank with the pseudo-inverse and
    the projector onto R(K*) of each, from one stacked SVD; raises
    :class:`~kframelab.hilbert.Split` where the ranks differ.

    Finite dimension makes the range closed automatically, so the
    pseudo-inverse always exists and the projector is exact up to the
    rank cut.
    """

    def __init__(self, ops):
        mat = _as_stack(ops)
        if mat.ndim != 3 or mat.shape[1] != mat.shape[2]:
            raise ValueError(f"expected a stack of square operators (n, d, d), got shape {mat.shape}")
        self.op = mat
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
        self.rank = _cut_ranks(s, mat.shape)
        self.norm = np.where(self.rank > 0, s[:, 0], 0.0)
        self.adjoint = np.ascontiguousarray(mat.conj().swapaxes(-1, -2))
        self.pinv = _pinv_of_rank(u, s, vh, _common(self.rank))
        # Orthogonal projector onto R(K*) = N(K)-perp.
        self.adjoint_range_projector = self.pinv @ self.op
        self._vh = vh

    @property
    def dim(self) -> int:
        return int(self.op.shape[2])

    def __len__(self) -> int:
        return int(self.op.shape[0])

    def corange_bases(self) -> np.ndarray:
        """Orthonormal bases (n, d, rank) of R(K*)."""
        return np.ascontiguousarray(self._vh[:, : self.rank[0]].conj().swapaxes(-1, -2))


class KOperator:
    """Square operator on H with pseudo-inverse and projector data precomputed,
    as a :class:`KStack` of one (held as ``stack``)."""

    def __init__(self, op):
        mat = as_operator(op)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator must be square, got shape {mat.shape}")
        self.stack = KStack(mat[None])
        self.op = mat
        self.rank = int(self.stack.rank[0])
        self.norm = float(self.stack.norm[0])
        self.adjoint = self.stack.adjoint[0]
        self.pinv = self.stack.pinv[0]
        self.adjoint_range_projector = self.stack.adjoint_range_projector[0]

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
    return (frame.samples * frame.space.weights[:, None]).swapaxes(-1, -2)


def weighted_analysis(frame: SampledFrame) -> np.ndarray:
    """Analysis matrix in weight-normalized coordinates (rows scaled by
    sqrt(weight)); its plain conjugate transpose is the synthesis map in
    the same coordinates."""
    return frame.space.sqrt_weights[:, None] * np.conj(frame.samples)


def weighted_synthesis(frame: SampledFrame) -> np.ndarray:
    """Synthesis matrix in weight-normalized coordinates."""
    return (frame.samples * frame.space.sqrt_weights[:, None]).swapaxes(-1, -2)


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
        if not np.isfinite([self.lower, self.upper]).all():
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


def k_lower_bound(frame: SampledFrame, k: KOperator) -> Optional[float]:
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
    inc = range_inclusion(k.op, weighted_synthesis(frame))
    if not inc.included:
        return None
    return math.inf if inc.lambda_star == 0.0 else 1.0 / inc.lambda_star


def parseval_residual(frame: SampledFrame, k: KOperator) -> float:
    """Defect of the operator identity S = K K*, in norm and relative to
    the size of K K*; the Parseval K-frame test compares it to a tolerance."""
    kk = k.op @ k.adjoint
    return op_norm(frame_operator(frame) - kk) / (1.0 + op_norm(kk))


def classify(frame: SampledFrame, k: KOperator) -> FrameClassification:
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
    a_report = 0.0 if a_opt is None or not np.isfinite(a_opt) else a_opt

    residuals = {"parseval_identity": residual}
    if a_opt is not None and np.isfinite(a_opt):
        residuals["tight_gap"] = abs(a_opt - b_opt) / (1.0 + b_opt)
        residuals["unit_lower_gap"] = abs(a_opt - 1.0)

    if residual <= DEFAULT_TOL:
        verdict = FrameVerdict.PARSEVAL_K_FRAME
    elif a_opt is not None and abs(a_report - b_opt) <= DEFAULT_TOL * (1.0 + b_opt):
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


def is_l2_independent(frame: SampledFrame):
    """Whether only the zero coefficient function synthesizes to zero.

    Positive weights cannot mask a dependence, so this is linear
    independence of the sample vectors: the sample matrix has full row
    rank, which more atoms than dimensions rule out without an SVD. One
    verdict per member for a :class:`FrameStack`.
    """
    return full_row_ranks(frame.samples)


def _kernel_bases(frame: SampledFrame, rank_k=0) -> np.ndarray:
    """Bases (..., m, width) of the null space of the synthesis maps B,
    width = m - max(rank B, rank_k) and at least 0, orthonormal in the
    weighted inner product: the last columns of a basis of N(B). A stack
    takes one width, and raises :class:`~kframelab.hilbert.Split` where
    its members' widths differ.

    The bases are a transposed view of the kept rows of the full SVD's
    V*, conjugated and divided by the square-root weights in place, so no
    basis-sized temporary is made; they keep the whole V* alive as long
    as they live."""
    b = weighted_synthesis(frame)
    _, s, vh = np.linalg.svd(b, full_matrices=True)
    kept = vh[..., _common(np.maximum(_cut_ranks(s, b.shape), rank_k)) :, :]
    np.conjugate(kept, out=kept)
    kept /= frame.space.sqrt_weights
    return kept.swapaxes(-1, -2)


def synthesis_kernel_basis(frame: SampledFrame) -> np.ndarray:
    """Columns form a basis of the null space of the synthesis map,
    orthonormal in the weighted inner product, shape (m, m - rank); a
    view of the SVD's V*, see :func:`_kernel_bases`. One (n, m, width)
    view for a :class:`FrameStack` of one rank."""
    return _kernel_bases(frame)


def _max_row_norm(samples: np.ndarray):
    return np.max(np.linalg.norm(samples, axis=-1), axis=-1)


def frames_allclose(f: SampledFrame, g: SampledFrame):
    """Samplewise equality up to ``DEFAULT_TOL``, relative; one verdict per
    member for two stacks of equal length."""
    _require_same_space(f.space, g.space)
    if f.dim != g.dim:
        raise ValueError(f"frame dimensions differ: {f.dim} and {g.dim}")
    gap = _max_row_norm(f.samples - g.samples)
    scale = np.maximum(_max_row_norm(f.samples), _max_row_norm(g.samples))
    out = gap <= DEFAULT_TOL * (1.0 + scale)
    return bool(out) if out.ndim == 0 else out


def parseval_k_samples(ks: KStack, space: MeasureSpace, rngs: Sequence) -> np.ndarray:
    """Samples (n, m, d) of the seeded Parseval K-frames of
    :func:`generate_parseval_k_frame`, member t drawing from ``rngs[t]``,
    from one stacked QR and product over the stack's one rank."""
    m, r = space.atom_count, _common(ks.rank)
    if r > m:
        raise InfeasibleError(f"cannot reach the lower bound with {m} atoms and rank {r}; need m >= rank(K)")
    if r == 0:
        return np.zeros((len(ks), m, ks.dim), dtype=np.complex128)
    basis = ks.corange_bases()  # orthonormal basis of R(K*), (n, d, r)
    q, _ = np.linalg.qr(complex_normal_stack(rngs, m, r))
    # w_i = basis @ conj(q[i]) / sqrt(weight_i) gives sum_i weight_i w_i w_i* = basis basis*.
    w_rows = np.conj(q) / space.sqrt_weights[:, None]
    # Samples that overflow are rejected by FrameStack, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        return w_rows @ (ks.op @ basis).swapaxes(-1, -2)


def random_bessel_samples(d: int, space: MeasureSpace, rngs: Sequence) -> np.ndarray:
    """Samples (n, m, d) of :func:`generate_random_bessel`, member t drawing
    from ``rngs[t]``."""
    m = space.atom_count
    raw = complex_normal_stack(rngs, m, int(d))
    return raw / np.sqrt(m * space.weights)[:, None]


def conditioned_ops(rngs: Sequence, rows: int, cols: int, r: int) -> np.ndarray:
    """Rank-r operators (n, rows, cols), member t drawing from ``rngs[t]``:
    isometries from the QR factors of a rows x r and then a cols x r draw,
    and then singular values in [0.5, 2], which keep each operator well
    conditioned on its support. Each member draws all three in one visit."""
    raw1, raw2, singulars = member_draws(
        rngs,
        lambda rng: rng.standard_normal((2, rows, r)),
        lambda rng: rng.standard_normal((2, cols, r)),
        lambda rng: np.sort(rng.uniform(0.5, 2.0, r))[::-1],
    )
    q1, _ = np.linalg.qr(complex_parts(raw1))
    q2, _ = np.linalg.qr(complex_parts(raw2))
    return (q1 * singulars[:, None, :]) @ q2.conj().swapaxes(-1, -2)


def generate_parseval_k_frame(k: KOperator, space: MeasureSpace, seed: int) -> SampledFrame:
    """Seeded Parseval K-frame: samples are K applied to a family whose
    weighted outer-product sum is the projector onto R(K*).

    The family comes from an isometry drawn as the Q factor of a complex
    Gaussian matrix, so the frame operator equals K K* by algebra rather
    than by numerical accident. Requires at least rank(K) atoms.
    """
    return SampledFrame(space, parseval_k_samples(k.stack, space, [stream(seed)])[0])


def generate_random_bessel(d: int, space: MeasureSpace, seed: int) -> SampledFrame:
    """Seeded field with independent complex Gaussian samples scaled by
    1/sqrt(m * weight_i), m the space's atom count; always Bessel since the
    atom set is finite."""
    return SampledFrame(space, random_bessel_samples(d, space, [stream(seed)])[0])
