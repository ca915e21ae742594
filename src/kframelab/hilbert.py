"""Dense complex linear algebra with one rank cut and one tolerance.

Vectors are 1-D complex numpy arrays, operators are 2-D complex arrays.
Every spectral routine shares one notion of numerical rank: a singular
value counts only if it exceeds ``RANK_EPS * smax * max(rows, cols)``.
Comparisons are relative, scaled by the largest norm among the operands,
at ``DEFAULT_TOL``. Neither can be set per call: the identities checked
are exact in theory, so one cut and one tolerance serve every caller.

``op_norm`` and the stacked routines that serve the suite runner
(``ranks``, ``full_row_ranks``, ``pinvs``, ``op_norms``,
``range_inclusions``, ``douglas_factors``, ``vdots``, ``vector_norms``,
and ``_norms_exceed``, which takes norms only where a bound leaves a
verdict open; internal, left out of ``__all__``) take operators
``(..., rows, cols)`` or vectors ``(..., n)`` stacked along leading axes
(``op_norms`` a list of operators) and work matrix by
matrix through numpy's stacked routines, whose results equal the
per-matrix calls bit for bit on the builds where ``tests/test_hilbert.py``
passes; the per-matrix routines are stacks of one over the same code.
A stacked routine takes one rank or verdict for the whole stack, and
raises the internal :class:`Split` where its members would differ; the
suite runner then reruns the property on each member alone.
"""

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    return _as_stack(arr)


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
    """Numerical rank under the module's rank cut, from the SVD of a stack
    of one as :func:`ranks` takes it, with the operand validated once."""
    arr = as_operator(a)[None]
    return int(_cut_ranks(np.linalg.svd(arr, full_matrices=False)[1], arr.shape)[0])


def ranks(a) -> np.ndarray:
    """:func:`rank` of an operator, or of every operator of a stack (..., rows, cols)."""
    arr = _as_stack(a)
    return _cut_ranks(np.linalg.svd(arr, full_matrices=False)[1], arr.shape)


def full_row_ranks(a):
    """Whether :func:`ranks` equals the row count, for an operator or each
    operator of a stack (..., rows, cols). With more rows than columns the
    verdict is no from the shape alone, and no SVD runs."""
    arr = _as_stack(a)
    rows, cols = arr.shape[-2:]
    if rows > cols:
        return np.zeros(arr.shape[:-2], dtype=bool) if arr.ndim > 2 else False
    return ranks(arr) == rows


class Split(Exception):
    """The members of a stack would take different branches of a routine."""


def _common(values: np.ndarray):
    """The one value (a rank, width or verdict) that every member of a
    stack shares, as a Python scalar; raises :class:`Split` where the
    members disagree. A stack of one never splits."""
    first = values.flat[0]
    if (values != first).any():
        raise Split
    return first.item()


def _pinv_of_rank(u: np.ndarray, s: np.ndarray, vh: np.ndarray, r: int) -> np.ndarray:
    """Pseudo-inverses of a stack of operators of one rank r from their
    thin SVD factors, with the truncated factors laid out as :func:`svd`
    lays them out, so a stacked product is the per-matrix one; zero for
    r = 0."""
    right = np.ascontiguousarray(vh[..., :r, :].conj().swapaxes(-1, -2))
    return (right / s[..., None, :r]) @ u[..., :r].conj().swapaxes(-1, -2)


def pinvs(a) -> np.ndarray:
    """:func:`pinv` of every operator of a stack (n, rows, cols) of one
    rank; raises :class:`Split` where the ranks differ."""
    arr = _as_stack(a)
    u, s, vh = np.linalg.svd(arr, full_matrices=False)
    return _pinv_of_rank(u, s, vh, _common(_cut_ranks(s, arr.shape)))


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


def _require_hermitian(arr: np.ndarray, which: str) -> Tuple[np.ndarray, np.ndarray]:
    """The Hermitian part of an operator or of each operator of a stack
    (..., n, n), and its norm, once every member is checked Hermitian up to
    ``DEFAULT_TOL``; a member's three norms come from one stacked call."""
    adj = arr.conj().swapaxes(-1, -2)
    herm = (arr + adj) / 2.0
    gap, norm, norm_herm = op_norm(np.stack([arr - adj, arr, herm]))
    asymmetric = gap > DEFAULT_TOL * (1.0 + norm)
    if asymmetric.any():
        raise ValueError(f"{which} operand is not Hermitian (asymmetry {gap[asymmetric][0]:.3e})")
    return herm, norm_herm


class _LoewnerTest:
    """The Loewner decisions ``aa <= bb`` against a fixed stack (k, n, n) of
    operands ``aa``, already checked and symmetrized, given ``op_norm(aa)``:
    per member, ``eigvalsh(bb - aa)[0] >= -DEFAULT_TOL * max(1, |aa|, |bb|)``,
    for each stack ``bb`` of checked, symmetrized operands it is called on.

    ``norm_b = (low, high)`` bounds ``op_norm(bb)`` per member, as ``scale *
    low <= op_norm(bb) <= scale * high`` for the ``scale`` each call passes,
    by a relative margin of at least 8 eps, which covers the rounding of the
    products that scale them; the norm itself, given as both bounds at scale
    1, needs no margin. ``op_norm(bb)`` is computed only for the members
    whose verdict the bounds leave open. This is the one implementation of
    the decision, shared by :func:`loewner_leq` and the minimal-scale
    bisection of the suites, which reads each call's ``eigvalsh(bb -
    aa)[0]``, kept as ``lam_min``, to predict its next decisions.
    """

    def __init__(self, aa: np.ndarray, norm_a, norm_b):
        self.aa = aa
        self.limit = np.maximum(1.0, norm_a)
        # The slack only grows with the max, so a verdict that holds
        # without the norm of bb holds with it.
        self.short = -DEFAULT_TOL * self.limit
        # Rounding is monotone, so the slack of |bb| lies between the slacks
        # of its bounds in floating point too: a verdict that holds at the
        # lower bound holds, and one that fails at the upper bound fails.
        self.slacks = [-DEFAULT_TOL * bound for bound in norm_b]

    def __call__(self, bb: np.ndarray, scale=1.0) -> np.ndarray:
        self.lam_min = lam_min = np.linalg.eigvalsh(bb - self.aa)[:, 0]
        holds = lam_min >= self.short
        if np.count_nonzero(holds) == len(holds):
            return holds
        at_low, at_high = self.slacks
        open_ = ~holds & (lam_min >= scale * at_high)
        if np.count_nonzero(open_):
            settled = lam_min >= scale * at_low
            holds |= open_ & settled
            open_ &= ~settled
        idx = open_.nonzero()[0]
        if idx.size:
            holds[idx] = lam_min[idx] >= -DEFAULT_TOL * np.maximum(self.limit[idx], op_norm(bb[idx]))
        return holds


def _norm_bounds(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Bounds (low, high) per member of a stack (n, rows, cols) on the
    op_norm LAPACK returns for it: the largest column norm and the
    Frobenius norm, widened by the band 64 N^2 eps, N = max(rows, cols),
    as :func:`_bisect_loewner_lambdas` widens its bounds. It covers the
    N^2 rounded terms of the sums and LAPACK's p(N) u, p <= 8 N^2."""
    band = 64.0 * np.finfo(float).eps * max(a.shape[-2:]) ** 2.0
    columns = (a.real**2 + a.imag**2).sum(axis=-2)
    return np.sqrt(columns.max(axis=-1)) * (1.0 - band), np.sqrt(columns.sum(axis=-1)) * (1.0 + band)


def _norms_exceed(a: np.ndarray, floor: np.ndarray, exceeds) -> Tuple[np.ndarray, np.ndarray]:
    """Per member of a stack (n, rows, cols), whether ``op_norm(a)``
    exceeds a limit of at least ``floor`` (far above underflow), and the
    norms computed (NaN elsewhere): no where the Frobenius bound of
    :func:`_norm_bounds` is at most a finite floor, with no SVD; elsewhere
    ``exceeds(norms, idx)``, the caller's exact verdict on members idx."""
    norms = np.full(len(a), np.nan)
    verdicts = np.zeros(len(a), dtype=bool)
    idx = np.flatnonzero(~(np.isfinite(floor) & (_norm_bounds(a)[1] <= floor)))
    if idx.size:
        norms[idx] = op_norm(a[idx])
        verdicts[idx] = exceeds(norms[idx], idx)
    return verdicts, norms


def loewner_leq(a, b) -> bool:
    """Whether ``a <= b`` in the Loewner (positive semidefinite) order, up
    to ``DEFAULT_TOL * max(1, |a|, |b|)``.

    Both operands must be Hermitian and of the same square size; inputs are
    typically computed products, so Hermitian-ness is only required up to the
    same tolerance. Every call checks both operands here, then decides on
    their Hermitian parts with the norms the checks computed.
    """
    aa = as_operator(a)
    bb = as_operator(b)
    if aa.shape != bb.shape or aa.shape[0] != aa.shape[1]:
        raise ValueError(f"operands must be square and of equal size, got {aa.shape} and {bb.shape}")
    aa, norm_a = _require_hermitian(aa, "first")
    bb, norm_b = _require_hermitian(bb, "second")
    return bool(_LoewnerTest(aa[None], np.array([norm_a]), (norm_b, norm_b))(bb[None])[0])


class RangeInclusion(NamedTuple):
    included: bool
    lambda_star: Optional[float]


class RangeInclusions(NamedTuple):
    """:func:`range_inclusions` of a stack: per trial the verdict, the
    minimal scale (NaN where excluded), pinv(T) with the factor
    pinv(T) @ S (None where excluded), and the rank of T."""

    included: np.ndarray
    lambda_star: np.ndarray
    t_pinv: Optional[np.ndarray]
    factor: Optional[np.ndarray]
    rank_t: np.ndarray


def range_inclusions(s, t) -> RangeInclusions:
    """:func:`range_inclusion` of every pair of two stacks (n, rows, .),
    with one verdict, and where included, one rank of T; raises
    :class:`Split` where the pairs differ in either."""
    ss = _as_stack(s)
    tt = _as_stack(t)
    if ss.shape[-2] != tt.shape[-2]:
        raise ValueError(
            f"operands must share their codomain, got {ss.shape[-2]} and {tt.shape[-2]} rows"
        )
    u, sv, vh = np.linalg.svd(tt, full_matrices=False)
    rank_t = _cut_ranks(sv, tt.shape)
    aug = np.concatenate([tt, ss], axis=-1)
    included = _cut_ranks(np.linalg.svd(aug, full_matrices=False)[1], aug.shape) <= rank_t
    if not _common(included):
        return RangeInclusions(included, np.full(tt.shape[:-2], np.nan), None, None, rank_t)
    t_pinv = _pinv_of_rank(u, sv, vh, _common(rank_t))
    factor = t_pinv @ ss
    lam = np.array([norm**2 for norm in op_norm(factor).tolist()])
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
