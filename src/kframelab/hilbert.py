"""Dense complex linear algebra with one rank cut and one tolerance.

Vectors are 1-D complex numpy arrays, operators are 2-D complex arrays.
Every spectral routine shares one notion of numerical rank: a singular
value counts only if it exceeds ``RANK_EPS * smax * max(rows, cols)``.
Comparisons are relative, scaled by the largest norm among the operands,
at ``DEFAULT_TOL``. Neither can be set per call: the identities checked
are exact in theory, so one cut and one tolerance serve every caller.

``op_norm`` and the stacked routines that serve the suite runner
(``ranks``, ``pinvs``, ``op_norms``, ``range_inclusions``,
``douglas_factors``, ``vdots``, ``vector_norms``; internal, left out of
``__all__``) take operators
``(..., rows, cols)`` or vectors ``(..., n)`` stacked along leading axes
(``op_norms`` a list of operators) and work matrix by
matrix through numpy's stacked routines, whose results equal the
per-matrix calls bit for bit on the builds where ``tests/test_hilbert.py``
passes; the per-matrix routines are stacks of one over the same code.
"""

from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

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


def _as_stack(a) -> np.ndarray:
    """Validate a finite operator or stack of operators (..., rows, cols),
    without copying one that is already complex."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim < 2:
        raise ValueError(f"expected a 2-D operator, got ndim={arr.ndim}")
    if arr.shape[-2] < 1 or arr.shape[-1] < 1:
        raise ValueError(f"operator needs at least one row and column, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("operator entries must be finite")
    return arr


def vdots(x, y) -> np.ndarray:
    """``np.vdot`` of each pair of vectors of two stacks (..., n), as one
    stacked product of conj(x) as a row with y as a column."""
    return (np.conj(x)[..., None, :] @ np.asarray(y)[..., :, None])[..., 0, 0]


def vector_norms(x) -> np.ndarray:
    """``np.linalg.norm`` of each vector of a stack (..., n): the square root
    of the sum of the dot products of the real and the imaginary parts."""
    x = np.asarray(x, dtype=np.complex128)
    re, im = x.real, x.imag
    dots = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return np.sqrt(dots[..., 0, 0])


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

    def pinv(self) -> np.ndarray:
        """The pseudo-inverse, the product :func:`pinv` forms from the same factors."""
        return (self.right / self.singulars) @ self.left.conj().T

    def range_projector(self) -> np.ndarray:
        """Orthogonal projector onto the column space."""
        return self.left @ self.left.conj().T

    def corange_projector(self) -> np.ndarray:
        """Orthogonal projector onto the row space."""
        return self.right @ self.right.conj().T


def _cut_ranks(s: np.ndarray, shape):
    """Rank under the rank cut of a descending singular value row, or of
    each row of a stack of them; the one reader of ``RANK_EPS``."""
    if s.ndim == 1:
        return int(np.count_nonzero(s > RANK_EPS * s[0] * max(shape[-2:])))
    return np.add.reduce(s > RANK_EPS * s[..., :1] * max(shape[-2:]), axis=-1, dtype=np.intp)


def svd(a) -> SvdFactorization:
    """Singular value decomposition truncated at the numerical rank."""
    arr = as_operator(a)
    u, s, vh = np.linalg.svd(arr, full_matrices=False)
    r = _cut_ranks(s, arr.shape)
    return SvdFactorization(
        left=u[:, :r].copy(),
        singulars=s[:r].copy(),
        right=vh[:r].conj().T.copy(),
        rank=r,
    )


def rank(a) -> int:
    """Numerical rank under the module's rank cut, as a stack of one for
    :func:`ranks`."""
    return int(ranks(as_operator(a)[None])[0])


def ranks(a) -> np.ndarray:
    """:func:`rank` of an operator, or of every operator of a stack (..., rows, cols)."""
    arr = _as_stack(a)
    return _cut_ranks(np.linalg.svd(arr, full_matrices=False)[1], arr.shape)


def _groups(keys: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """Each distinct key of a 1-D integer array, ascending, with its positions."""
    if len(keys) and (keys == keys[0]).all():
        yield int(keys[0]), np.arange(len(keys))
        return
    for key in sorted(set(keys.tolist())):
        yield key, np.flatnonzero(keys == key)


def _pinv_of_rank(u: np.ndarray, s: np.ndarray, vh: np.ndarray, r: int) -> np.ndarray:
    """Pseudo-inverses of a stack of operators of rank r > 0 from their thin
    SVD factors, with the truncated factors laid out as :func:`svd` lays
    them out, so a stacked product is the per-matrix one."""
    right = np.ascontiguousarray(vh[..., :r, :].conj().swapaxes(-1, -2))
    return (right / s[..., None, :r]) @ u[..., :r].conj().swapaxes(-1, -2)


def _pinv_groups(u: np.ndarray, s: np.ndarray, vh: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Pseudo-inverses of a stack from its thin SVD factors and ranks;
    members of equal rank share one stacked product."""
    out = np.zeros(u.shape[:-2] + (vh.shape[-1], u.shape[-2]), dtype=np.complex128)
    for k, idx in _groups(r):
        if k and len(idx) == len(r):
            return _pinv_of_rank(u, s, vh, k)
        if k:
            out[idx] = _pinv_of_rank(u[idx], s[idx], vh[idx], k)
    return out


def pinvs(a) -> np.ndarray:
    """:func:`pinv` of every operator of a stack (n, rows, cols)."""
    arr = _as_stack(a)
    u, s, vh = np.linalg.svd(arr, full_matrices=False)
    return _pinv_groups(u, s, vh, _cut_ranks(s, arr.shape))


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via the truncated SVD, as a stack of one
    for :func:`pinvs`."""
    return pinvs(as_operator(a)[None])[0]


def op_norm(a):
    """Largest singular value; one per operator for a stack (..., rows, cols)."""
    top = np.linalg.svd(_as_stack(a), compute_uv=False)[..., 0]
    return float(top) if top.ndim == 0 else top


def op_norms(operators: Sequence[np.ndarray]) -> List[float]:
    """:func:`op_norm` of each operator of a list; operators of one shape
    share one stacked call."""
    out = [0.0] * len(operators)
    by_shape: Dict[Tuple[int, ...], List[int]] = {}
    for j, a in enumerate(operators):
        by_shape.setdefault(np.shape(a), []).append(j)
    for positions in by_shape.values():
        norms = op_norm(np.stack([operators[j] for j in positions])).tolist()
        for j, norm in zip(positions, norms):
            out[j] = norm
    return out


def _require_hermitian(arr: np.ndarray, which: str) -> Tuple[np.ndarray, float]:
    """The Hermitian part of ``arr`` and its norm, once ``arr`` is checked
    Hermitian up to ``DEFAULT_TOL``; the three norms share one stacked call."""
    herm = (arr + arr.conj().T) / 2.0
    gap, norm, norm_herm = op_norm(np.stack([arr - arr.conj().T, arr, herm])).tolist()
    if gap > DEFAULT_TOL * (1.0 + norm):
        raise ValueError(f"{which} operand is not Hermitian (asymmetry {gap:.3e})")
    return herm, norm_herm


class _LoewnerTest:
    """The Loewner decisions ``aa <= bb`` against a fixed stack (k, n, n) of
    operands ``aa``, already checked and symmetrized, given ``op_norm(aa)``:
    per member, ``eigvalsh(bb - aa)[0] >= -DEFAULT_TOL * max(1, |aa|, |bb|)``,
    for each stack ``bb`` of checked, symmetrized operands it is called on.

    ``op_norm(bb)`` is computed only for the members whose verdict it can
    change. When given, ``norm_b = (low, high)`` narrows those down further:
    bounds per member with ``scale * low <= op_norm(bb) <= scale * high``
    for the ``scale`` each call passes, by a relative margin of at least
    8 eps, which covers the rounding of the products that scale them. This
    is the one implementation of the decision, shared by :func:`loewner_leq`
    and the minimal-scale bisection of the suites.
    """

    def __init__(self, aa: np.ndarray, norm_a, norm_b=None):
        self.aa = aa
        self.limit = np.maximum(1.0, norm_a)
        # The slack only grows with the max, so a verdict that holds
        # without the norm of bb holds with it.
        self.short = -DEFAULT_TOL * self.limit
        # Rounding is monotone, so the slack of |bb| lies between the slacks
        # of its bounds in floating point too: a verdict that holds at the
        # lower bound holds, and one that fails at the upper bound fails.
        self.slacks = None if norm_b is None else [-DEFAULT_TOL * bound for bound in norm_b]

    def __call__(self, bb: np.ndarray, scale=1.0) -> np.ndarray:
        lam_min = np.linalg.eigvalsh(bb - self.aa)[:, 0]
        holds = lam_min >= self.short
        if np.count_nonzero(holds) == len(holds):
            return holds
        open_ = ~holds
        if self.slacks is not None:
            at_low, at_high = self.slacks
            open_ &= lam_min >= scale * at_high
            if np.count_nonzero(open_):
                settled = lam_min >= scale * at_low
                holds |= open_ & settled
                open_ &= ~settled
        idx = open_.nonzero()[0]
        if idx.size:
            holds[idx] = lam_min[idx] >= -DEFAULT_TOL * np.maximum(self.limit[idx], op_norm(bb[idx]))
        return holds


def loewner_leq(a, b) -> bool:
    """Whether ``a <= b`` in the Loewner (positive semidefinite) order, up
    to ``DEFAULT_TOL * max(1, |a|, |b|)``.

    Both operands must be Hermitian and of the same square size; inputs are
    typically computed products, so Hermitian-ness is only required up to the
    same tolerance. Every call checks both operands here, then decides on
    their Hermitian parts.
    """
    aa = as_operator(a)
    bb = as_operator(b)
    if aa.shape != bb.shape or aa.shape[0] != aa.shape[1]:
        raise ValueError(f"operands must be square and of equal size, got {aa.shape} and {bb.shape}")
    aa, norm_a = _require_hermitian(aa, "first")
    bb, _ = _require_hermitian(bb, "second")
    return bool(_LoewnerTest(aa[None], np.array([norm_a]))(bb[None])[0])


class RangeInclusion(NamedTuple):
    included: bool
    lambda_star: Optional[float]


class RangeInclusions(NamedTuple):
    """:func:`range_inclusions` of a stack: per trial the verdict, the
    minimal scale (NaN where excluded), pinv(T) with the factor
    pinv(T) @ S (zero where excluded), and the rank of T."""

    included: np.ndarray
    lambda_star: np.ndarray
    t_pinv: np.ndarray
    factor: np.ndarray
    rank_t: np.ndarray


def range_inclusions(s, t) -> RangeInclusions:
    """:func:`range_inclusion` of every pair of two stacks (n, rows, .);
    the factor and its norm are computed on the included pairs only."""
    ss = _as_stack(s)
    tt = _as_stack(t)
    if ss.shape[-2] != tt.shape[-2]:
        raise ValueError(
            f"operands must share their codomain, got {ss.shape[-2]} and {tt.shape[-2]} rows"
        )
    u, sv, vh = np.linalg.svd(tt, full_matrices=False)
    rank_t = _cut_ranks(sv, tt.shape)
    aug = np.concatenate([tt, ss], axis=-1)
    rank_aug = _cut_ranks(np.linalg.svd(aug, full_matrices=False)[1], aug.shape)
    included = rank_aug <= rank_t
    t_pinv = np.zeros(tt.shape[:-2] + tt.shape[:-3:-1], dtype=np.complex128)
    factor = np.zeros(tt.shape[:-2] + (tt.shape[-1], ss.shape[-1]), dtype=np.complex128)
    lam = np.full(tt.shape[:-2], np.nan)
    if included.any():
        idx = slice(None) if included.all() else np.flatnonzero(included)
        t_pinv[idx] = _pinv_groups(u[idx], sv[idx], vh[idx], rank_t[idx])
        factor[idx] = t_pinv[idx] @ ss[idx]
        lam[idx] = [norm**2 for norm in op_norm(factor[idx]).tolist()]
    return RangeInclusions(included, lam, t_pinv, factor, rank_t)


def range_inclusion(s, t) -> RangeInclusion:
    """Test R(S) subseteq R(T) and, when it holds, the minimal scale lambda
    with S S* <= lambda T T*.

    The inclusion is decided by a rank test on the augmented matrix [T | S];
    the minimal scale equals the squared norm of the unique factor pinv(T) @ S.
    A zero ``s`` yields lambda_star = 0, the infimum of the admissible set.
    """
    inc = range_inclusions(as_operator(s)[None], as_operator(t)[None])
    if not inc.included[0]:
        return RangeInclusion(False, None)
    return RangeInclusion(True, float(inc.lambda_star[0]))


def douglas_factors(s, t) -> RangeInclusions:
    """:func:`range_inclusions` of two stacks whose every pair is included,
    holding the factors of :func:`douglas_factor` with their squared norms
    and the ranks of T; raises :class:`RangeInclusionError` otherwise."""
    inc = range_inclusions(s, t)
    if not inc.included.all():
        raise RangeInclusionError("R(S) is not contained in R(T); no factor exists")
    return inc


def douglas_factor(s, t) -> np.ndarray:
    """The unique theta with S = T theta, minimal norm, N(theta) = N(S) and
    R(theta) inside R(T*).

    Raises :class:`RangeInclusionError` when R(S) is not contained in R(T),
    in which case no bounded factor exists. A stack of one for
    :func:`douglas_factors`.
    """
    return douglas_factors(as_operator(s)[None], as_operator(t)[None]).factor[0]
