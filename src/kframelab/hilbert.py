"""Dense complex linear algebra with an explicit rank and tolerance policy.

Vectors are 1-D complex numpy arrays, operators are 2-D complex arrays.
Every spectral routine shares one notion of numerical rank: a singular
value counts only if it exceeds ``RANK_EPS * smax * max(rows, cols)``.
Comparisons are relative, scaled by the largest norm among the operands.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

__all__ = [
    "RANK_EPS",
    "DEFAULT_TOL",
    "RangeInclusionError",
    "SvdFactorization",
    "RangeInclusion",
    "as_operator",
    "as_vector",
    "adjoint",
    "svd",
    "rank",
    "pinv",
    "op_norm",
    "range_projector",
    "corange_projector",
    "loewner_leq",
    "range_inclusion",
    "douglas_factor",
]

# Singular values below RANK_EPS * smax * max(shape) do not count toward rank.
RANK_EPS = 1e-10
# Default relative comparison tolerance; identities are exact in theory and
# residuals reflect only floating point error.
DEFAULT_TOL = 1e-9


class RangeInclusionError(ValueError):
    """A factorization was requested for a pair whose ranges are not nested."""


def as_operator(a) -> np.ndarray:
    """Validate and return a finite 2-D complex matrix (a copy)."""
    arr = np.array(a, dtype=np.complex128, copy=True)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D operator, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"operator needs at least one row and column, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("operator entries must be finite")
    return arr


def as_vector(a) -> np.ndarray:
    """Validate and return a finite 1-D complex vector (a copy)."""
    arr = np.array(a, dtype=np.complex128, copy=True)
    if arr.ndim != 1 or arr.shape[0] < 1:
        raise ValueError(f"expected a non-empty 1-D vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    return arr


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_operator(a).conj().T.copy()


@dataclass(frozen=True)
class SvdFactorization:
    """Rank-truncated singular value decomposition A ~ left @ diag(singulars) @ right*.

    ``left`` and ``right`` have isometric columns; ``singulars`` is strictly
    positive and descending; everything below the rank cut is discarded, so
    the reconstruction residual is at most the cut itself.
    """

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray
    rank: int

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.singulars) @ self.right.conj().T


def svd(a, rank_tol: float = RANK_EPS) -> SvdFactorization:
    """Singular value decomposition truncated at the numerical rank."""
    arr = as_operator(a)
    if rank_tol < 0:
        raise ValueError("rank_tol must be nonnegative")
    u, s, vh = np.linalg.svd(arr, full_matrices=False)
    cut = rank_tol * s[0] * max(arr.shape)
    r = int(np.count_nonzero(s > cut))
    return SvdFactorization(
        left=u[:, :r].copy(),
        singulars=s[:r].copy(),
        right=vh[:r].conj().T.copy(),
        rank=r,
    )


def rank(a, rank_tol: float = RANK_EPS) -> int:
    """Numerical rank under the module's rank cut."""
    return svd(a, rank_tol).rank


def pinv(a, rank_tol: float = RANK_EPS) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via the truncated SVD."""
    arr = as_operator(a)
    f = svd(arr, rank_tol)
    if f.rank == 0:
        return np.zeros((arr.shape[1], arr.shape[0]), dtype=np.complex128)
    return (f.right / f.singulars) @ f.left.conj().T


def op_norm(a) -> float:
    """Largest singular value."""
    return float(np.linalg.svd(as_operator(a), compute_uv=False)[0])


def range_projector(a, rank_tol: float = RANK_EPS) -> np.ndarray:
    """Orthogonal projector onto the column space of ``a``."""
    f = svd(a, rank_tol)
    return f.left @ f.left.conj().T


def corange_projector(a, rank_tol: float = RANK_EPS) -> np.ndarray:
    """Orthogonal projector onto the row space of ``a``, i.e. the
    orthogonal complement of its null space."""
    f = svd(a, rank_tol)
    return f.right @ f.right.conj().T


def _require_hermitian(arr: np.ndarray, tol: float, which: str) -> np.ndarray:
    gap = op_norm(arr - arr.conj().T)
    if gap > tol * (1.0 + op_norm(arr)):
        raise ValueError(f"{which} operand is not Hermitian (asymmetry {gap:.3e})")
    return (arr + arr.conj().T) / 2.0


def _loewner_holds(aa: np.ndarray, bb: np.ndarray, norm_a: float, tol: float) -> bool:
    """The Loewner decision ``aa <= bb`` on operands that are already
    checked, symmetrized and of equal square size, given ``op_norm(aa)``.

    This is the one implementation of the decision, shared by
    :func:`loewner_leq` and the minimal-scale bisection of the suites.
    """
    lam_min = float(np.linalg.eigvalsh(bb - aa)[0])
    # For tol >= 0 the slack only grows with the max, so a verdict that holds
    # without the norm of bb holds with it and that norm need not be computed.
    if tol >= 0.0 and lam_min >= -tol * max(1.0, norm_a):
        return True
    return lam_min >= -tol * max(1.0, norm_a, op_norm(bb))


def loewner_leq(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Whether ``a <= b`` in the Loewner (positive semidefinite) order.

    Both operands must be Hermitian and of the same square size; inputs are
    typically computed products, so Hermitian-ness is only required up to the
    default tolerance. Every call checks both operands here, then decides on
    their Hermitian parts.
    """
    aa = as_operator(a)
    bb = as_operator(b)
    if aa.shape != bb.shape or aa.shape[0] != aa.shape[1]:
        raise ValueError(f"operands must be square and of equal size, got {aa.shape} and {bb.shape}")
    aa = _require_hermitian(aa, DEFAULT_TOL, "first")
    bb = _require_hermitian(bb, DEFAULT_TOL, "second")
    return _loewner_holds(aa, bb, op_norm(aa), tol)


class RangeInclusion(NamedTuple):
    included: bool
    lambda_star: Optional[float]


def range_inclusion(s, t, rank_tol: float = RANK_EPS) -> RangeInclusion:
    """Test R(S) subseteq R(T) and, when it holds, the minimal scale lambda
    with S S* <= lambda T T*.

    The inclusion is decided by a rank test on the augmented matrix [T | S];
    the minimal scale equals the squared norm of the unique factor pinv(T) @ S.
    A zero ``s`` yields lambda_star = 0, the infimum of the admissible set.
    """
    ss = as_operator(s)
    tt = as_operator(t)
    if ss.shape[0] != tt.shape[0]:
        raise ValueError(
            f"operands must share their codomain, got {ss.shape[0]} and {tt.shape[0]} rows"
        )
    rank_t = svd(tt, rank_tol).rank
    rank_aug = svd(np.hstack([tt, ss]), rank_tol).rank
    if rank_aug > rank_t:
        return RangeInclusion(False, None)
    return RangeInclusion(True, op_norm(pinv(tt, rank_tol) @ ss) ** 2)


def douglas_factor(s, t, rank_tol: float = RANK_EPS) -> np.ndarray:
    """The unique theta with S = T theta, minimal norm, N(theta) = N(S) and
    R(theta) inside R(T*).

    Raises :class:`RangeInclusionError` when R(S) is not contained in R(T),
    in which case no bounded factor exists.
    """
    inc = range_inclusion(s, t, rank_tol)
    if not inc.included:
        raise RangeInclusionError("R(S) is not contained in R(T); no factor exists")
    return pinv(t, rank_tol) @ as_operator(s)
