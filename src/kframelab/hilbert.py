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

The Loewner order has one decision (``_loewner_decisions``) and one
rounding band (``_band``), taken by :func:`loewner_leq` and by the
minimal-scale Loewner bisection ``_bisect_loewner_lambdas``.
``_CHUNK_BYTES`` bounds the stacked arrays that the package forms.
"""

import math
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
# Stacked arrays stay within about this many bytes: the suite runner's
# trials per chunk and the steps per round of
# :func:`_bisect_loewner_lambdas`.
_CHUNK_BYTES = 1 << 22


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


def _band(n) -> float:
    """The relative rounding band 64 n^2 eps, n the larger side of the
    operands: it covers n^2 rounded terms and LAPACK's p(n) u, p <= 8 n^2."""
    return 64.0 * float(np.finfo(float).eps) * n**2.0


def _norm_bounds(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Bounds (low, high) per member of a stack (n, rows, cols) on the
    op_norm LAPACK returns for it: the largest column norm and the
    Frobenius norm, widened by :func:`_band`."""
    band = _band(max(a.shape[-2:]))
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


def _loewner_decisions(aa: np.ndarray, limit: np.ndarray, bb: np.ndarray, norm_b, scale=1.0) -> Tuple[np.ndarray, np.ndarray]:
    """The Loewner decisions ``aa <= bb``, the one implementation, per
    member of two stacks (k, n, n) of checked, symmetrized operands, given
    ``limit = max(1, op_norm(aa))``: ``eigvalsh(bb - aa)[0] >= -DEFAULT_TOL
    * max(limit, |bb|)``, returned with those least eigenvalues ``lam_min``.

    ``norm_b = (low, high)`` bounds ``op_norm(bb)`` per member, as ``scale *
    low <= op_norm(bb) <= scale * high``, by a relative margin of at least
    8 eps, which covers the rounding of the products that scale them; the
    norm itself, given as both bounds at scale 1, needs no margin.
    ``op_norm(bb)`` is computed only for the members whose verdict the
    bounds leave open.
    """
    lam_min = np.linalg.eigvalsh(bb - aa)[:, 0]
    # The slack only grows with the max, so a verdict that holds
    # without the norm of bb holds with it.
    holds = lam_min >= -DEFAULT_TOL * limit
    if np.count_nonzero(holds) == len(holds):
        return holds, lam_min
    # Rounding is monotone, so the slack of |bb| lies between the slacks
    # of its bounds in floating point too: a verdict that holds at the
    # lower bound holds, and one that fails at the upper bound fails.
    at_low, at_high = (-DEFAULT_TOL * bound for bound in norm_b)
    open_ = ~holds & (lam_min >= scale * at_high)
    if np.count_nonzero(open_):
        settled = lam_min >= scale * at_low
        holds |= open_ & settled
        open_ &= ~settled
    idx = open_.nonzero()[0]
    if idx.size:
        holds[idx] = lam_min[idx] >= -DEFAULT_TOL * np.maximum(limit[idx], op_norm(bb[idx]))
    return holds, lam_min


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
    return bool(_loewner_decisions(aa[None], np.maximum(1.0, [norm_a]), bb[None], (norm_b, norm_b))[0][0])


# At most this many steps of a member are decided in one stacked call.
_ROUND_STEPS = 32
# A member's first-round band reaches where its margins clear the rounding
# bound this many times over; a speed knob, never a decision.
_BAND = 2.0


def _first_guesses(top: np.ndarray, reach: np.ndarray, limit: np.ndarray, norm_t: np.ndarray) -> np.ndarray:
    """Each member's guessed threshold: the top eigenvalue ``top`` of S S*
    against T T*, moved where its margin lam_min + DEFAULT_TOL * max(limit,
    scale |tt|), rising at rate 1 / ``reach``, crosses zero; inf where that
    is not a scale. Each round predicts the member's path from it; a hint,
    never a decision."""
    guess = top - DEFAULT_TOL * np.maximum(limit, top * norm_t) * reach
    return np.where(guess >= 0.0, guess, np.inf)


def _first_jump(guess: float, half: float, top: float, reckless: float) -> Optional[tuple]:
    """The last of a member's predicted steps from the start that keeps its
    bounds ``half`` from its guess, as ((lo, hi, False, i), anchors, 2^k):
    after doubling to 2^k and i halving steps they are (hi - 2^(k-i), hi),
    hi the least multiple of 2^(k-i) at or above the guess, exactly while
    i <= 52, and no later step moves them away. The anchors are the last
    skipped scale predicted to fail (none if none is) and hi: each skipped
    scale lies at or below the one or in [hi, 2^k]. None if none is skipped."""
    if not (0.0 < guess < math.inf and 0.0 < half < math.inf):
        return None
    mant, exp = math.frexp(guess)
    k = max(exp - (mant == 0.5), 0)
    doubled = math.ldexp(1.0, k)
    if doubled > top or doubled >= reckless:
        return None
    for i in range(min(52, k - math.frexp(half)[1]), -1, -1):  # 2^(k-i) >= 2 half
        delta = math.ldexp(1.0, k - i)
        b = math.ceil(guess / delta) * delta
        if guess - (b - delta) >= half and b - guess >= half:
            a = b - delta
            return (a, b, False, i), ([a] if a > 0.0 else [doubled / 2.0] if k else []) + [b], doubled
    return None


def _bisect_loewner_lambdas(ss: np.ndarray, tt: np.ndarray, cap: float = 1e18) -> List[Optional[float]]:
    """The minimal scale putting S S* under the cone of T T*, for each pair
    of two stacks (k, n, n) of S S* and T T*, by 60 bisection steps; None
    where no scale below the cap works.

    The eigenvalue-only route, kept apart from the pseudo-inverse factor of
    :func:`range_inclusions` so the two check each other; meaningful only
    where the minimal scale lies far below the cap. Every step decides as
    ``loewner_leq(S S*, scale * T T*)`` does, bit for bit, with the operands
    checked once per call: S S* as ``loewner_leq`` checks it, and where
    scale zero does not already work (0.0), T T* finite and Hermitian
    relative to its own norm, which implies that check on every positive
    multiple of it. A member's decisions read only its own matrices, so the
    stack does not change its scale. Members double their upper scale (None
    above the cap), then halve. A decision computes op_norm(bb) only when
    bounds on it from |tt| and |tt - tt*| leave it open.

    The steps speculate. Each member guesses its threshold once
    (:func:`_first_guesses`). Each round follows each member's path as that
    guess predicts it, decides its steps in one stacked call, and keeps them
    up to the first misprediction, included: each at the scale, and on the
    matrix, of the step-by-step bisection. The first round sends to
    ``eigvalsh`` only two anchors and the steps near the guess
    (:func:`_first_jump`); the anchors decide the others by monotonicity
    where their margins clear the rounding bound, or the member keeps none.
    Later rounds decide up to ``_ROUND_STEPS`` steps each. A step whose
    scaled operand is not finite is left undecided, and raises
    ``ValueError`` only where the kept path reaches it, as the step-by-step
    bisection raises there.
    """
    aa, norm_a = _require_hermitian(_as_stack(ss), "first")
    # The zero operand's norm is 0, known without an SVD.
    limit = np.maximum(1.0, norm_a)
    zero = _loewner_decisions(aa, limit, np.zeros_like(aa), (0.0, 0.0))[0]
    out: List[Optional[float]] = [0.0 if z else None for z in zero.tolist()]
    live = np.flatnonzero(~zero)
    if not live.size:
        return out
    aa, limit, tt = aa[live], limit[live], _as_stack(tt[live])
    gap, norm_t = op_norm(np.stack([tt - tt.conj().swapaxes(-1, -2), tt]))
    asymmetric = gap > DEFAULT_TOL * norm_t
    if asymmetric.any():
        raise ValueError(f"second operand is not Hermitian (asymmetry {gap[asymmetric][0]:.3e})")
    # Bounds on op_norm(bb), bb the Hermitian part of scale * tt, per unit
    # of scale. The exact Hermitian part H of tt has | |H| - |tt| | <=
    # |tt - tt*| / 2. Forming bb rounds each entry by at most 2u relative to
    # scale (|tt_ij| + |tt_ji|) / 2 (u = eps / 2; halving is exact), so
    # |bb - scale H| <= 2 sqrt(n) u scale |tt|, and forming tt - tt* moves
    # half of it by at most sqrt(n) u |tt|. LAPACK's SVD returns a norm
    # within p(n) u of it, p a small polynomial, and three norms enter.
    # With |tt| <= |H| (1 + 1e-9) once T T* is checked Hermitian, the band
    # 64 n^2 eps (about 1e-12 for n = 8) leaves a factor of four over
    # p(n) <= 8 n^2 and the four products that form and scale the bounds; a
    # wider band only sends more decisions to the SVD.
    n = tt.shape[-1]
    band = _band(n)
    low, high = (norm_t - gap / 2.0) * (1.0 - band), (norm_t + gap / 2.0) * (1.0 + band)
    # The minimal scale up to rounding, the top eigenvalue s* of aa against
    # tt on tt's range, with its eigenvector x: x* H x = 1, so lam_min rises
    # at rate 1 / |x|^2 below s*. Moved to where the margin crosses zero, it
    # is the guess. A hint: its cut need not be RANK_EPS.
    #
    # The rounding bound on a margin, fixed + scale per_scale: by Weyl's
    # inequality, forming bb - aa (as above) and eigvalsh (p(n) u |bb - aa|)
    # move lam_min by at most band (limit + scale high), again a factor of
    # four over p(n) <= 8 n^2; a slack's bounds differ by DEFAULT_TOL scale
    # (high - low); and lam_min(scale H - aa) rises with the scale unless H
    # has an eigenvalue below zero, which eigh of tt's lower triangle, within
    # n |tt - tt*| of H, bounds below by -neg. So a failed decision whose
    # margin is below -(twice its bound) makes each lower scale fail, and a
    # held one whose margin clears its bound plus that at a higher scale
    # makes each scale in between hold, as the step-by-step bisection does.
    w, v = np.linalg.eigh(tt)
    inv = np.divide(1.0, np.sqrt(np.abs(w)), out=np.zeros_like(w), where=w > 1e-10 * w[:, -1:])
    count, top_scale = len(live), max(cap, 1.0)
    fixed = 2.0 * band * limit
    neg = np.maximum(-w[:, 0], 0.0) + n * gap + band * high
    per_scale = 2.0 * band * high + neg + DEFAULT_TOL * (high - low)
    with np.errstate(all="ignore"):
        pencil = inv[:, :, None] * (v.conj().swapaxes(-1, -2) @ aa @ v) * inv[:, None, :]
        top, x = (part[..., -1] for part in np.linalg.eigh(np.where(np.isfinite(pencil), pencil, 0.0)))
        reach = (inv**2 * (x.real**2 + x.imag**2)).sum(axis=-1)
        guesses = _first_guesses(top, reach, limit, norm_t)
        # The band: where margins, rising at rate 1 / |x|^2, clear the bound
        # at the top scale 2^k <= max(1, 2 guess) _BAND times over. Scales
        # from which an entry of scale * tt could overflow are never skipped.
        half = _BAND * (fixed + np.maximum(1.0, 2.0 * guesses) * per_scale) * reach
        reckless = 2.0**1022 / np.abs(tt.view(float)).max(axis=(-2, -1))
    guesses = guesses.tolist()
    jumps = [_first_jump(g, h, top_scale, r) for g, h, r in zip(guesses, half.tolist(), reckless.tolist())]
    fixed, per_scale = fixed.tolist(), per_scale.tolist()
    # The bisection runs on Python floats, which round as numpy's doubles
    # do; on small stacks they cost less than array calls. hi starts at 1
    # whatever the cap.
    lo, hi, steps, doubling = [0.0] * count, [1.0] * count, [0] * count, [True] * count
    going = list(range(count))
    while going:
        # About four complex n x n arrays per decided matrix.
        depth = max(1, min(_ROUND_STEPS, _CHUNK_BYTES // (64 * tt[0].size * len(going))))
        owners, scales, paths = [], [], []
        for j in going:
            jump, guess = jumps[j], guesses[j]
            a, b, up, step = jump[0] if jump else (lo[j], hi[j], doubling[j], steps[j])
            scales += jump[1] if jump else []
            first = len(scales)
            while len(scales) - first < depth and (b <= top_scale or not up):
                mid, step = (b, step) if up else ((a + b) / 2.0, step + 1)
                # Once mid is a bound already decided (hi, or a lo > 0 that a
                # failed decision set), each later step repeats that decision
                # and changes nothing. Doubling leaves hi a power of two and lo
                # zero, so the first 53 midpoints are exact and strictly inside.
                if step > 60 or (step > 53 and (mid == b or (mid == a and a > 0.0))):
                    break
                scales.append(mid)
                if mid >= guess:
                    b, up = mid, False
                elif up:
                    b = 2.0 * b
                else:
                    a = mid
            if len(scales) > len(owners):
                owners += [j] * (len(scales) - len(owners))
                paths.append((j, first, len(scales), jump))
        if not scales:
            break
        idx, scale = np.array(owners), np.array(scales)
        # Both the scaled operand and its symmetrized sum can overflow. A
        # step whose operand is not finite is left undecided (None): the
        # step-by-step bisection raises there, so this one does once a kept
        # path reaches it.
        with np.errstate(over="ignore", invalid="ignore"):
            bb = scale[:, None, None] * tt[idx]
            bb += bb.conj().swapaxes(-1, -2)
            bb /= 2.0
        at = range(len(scales))
        if not np.isfinite(bb).all():
            at = np.flatnonzero(np.isfinite(bb).all(axis=(-2, -1))).tolist()
            idx, scale, bb = idx[at], scale[at], bb[at]
        verdicts, lam_min = _loewner_decisions(aa[idx], limit[idx], bb, (low[idx], high[idx]), scale)
        ok = dict(zip(at, verdicts.tolist()))
        margins = dict(zip(at, (lam_min + DEFAULT_TOL * np.maximum(limit[idx], scale * norm_t[idx])).tolist()))
        for j, first, stop, jump in paths:
            if jump:
                # The anchors decide every skipped step, or the member keeps none.
                *fails, held = range(first - len(jump[1]), first)
                if any(ok[i] or margins[i] >= -(fixed[j] + scales[i] * per_scale[j]) for i in fails):
                    continue
                if not ok[held] or margins[held] < fixed[j] + jump[2] * per_scale[j]:
                    continue
                lo[j], hi[j], doubling[j], steps[j] = jump[0]
            for i in range(first, stop):
                mid, k = scales[i], ok.get(i)
                if k is None:
                    raise ValueError("operator entries must be finite")
                if doubling[j]:
                    doubling[j], hi[j] = not k, mid if k else 2.0 * mid
                else:
                    steps[j] += 1
                    lo[j], hi[j] = (lo[j], mid) if k else (mid, hi[j])
                if k != (mid >= guesses[j]):
                    break
        # Only the first round skips steps.
        going, jumps = [j for j, *_ in paths], [None] * count
    for j, scale, up in zip(live.tolist(), hi, doubling):
        out[j] = None if up else scale
    return out


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
