"""Executable property suites over scenario instances.

Each property generates seeded instances, evaluates a set of checks, and
reports the worst residual against one tolerance. Residuals are already
normalized by the scale the check's statement dictates; boolean checks
contribute 0 or 1, which fails any realistic tolerance. Trial streams
derive from (seed, property, trial index), so execution order does not
matter and a witness replays by restricting the scenario to one trial.

Trials run in chunks: every property takes a chunk of consecutive
trials and returns one check table (``duality.CheckTable``), a row per
trial in order, which the runner folds with array operations. The draws
loop over the chunk's trials, each from its own stream, and the
arithmetic runs once per chunk on numpy's stacked routines, which give
each trial the bits its own per-matrix calls would. A one-trial replay
is a chunk of one and so reproduces every residual exactly. A property
takes one branch for the whole chunk, and its table holds the checks of
that branch. Where the chunk's trials would take different branches
(``hilbert.Split``), or the property breaks down on the chunk, that one
property reruns on each trial alone. Where a property draws its matrix
sizes per trial (``l1``, ``l2``), it runs trial by trial, except that
``l2`` checks and bisects the Gram pairs of the chunk's trials of each
size as one stack.

One table, ``_PROPERTIES``, registers each property with its function and
default tolerance; its order is the report order and keys the streams.
"""

import math
import platform
import time
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .duality import _CHUNK_BYTES, CheckTable, HypothesisError, ParsevalKFrames, _positive_part, field_norm
from .frames import (
    FrameStack,
    KStack,
    _max_row_norm,
    conditioned_ops,
    synthesis,
    weighted_synthesis,
)
from .hilbert import (
    DEFAULT_TOL,
    Split,
    _common,
    _as_stack,
    _LoewnerTest,
    _require_hermitian,
    as_operator,
    douglas_factors,
    op_norm,
    op_norms,
    pinv,
    pinvs,
    range_inclusions,
    rank,
    svd,
    vdots,
)
from .measure import MeasureSpace
from .report import REPORT_VERSION, PropertyRecord, SuiteReport
from .rng import Keyed, Streams, complex_normal, complex_normal_stack, derive_seeds
from .scenario import Scenario, ScenarioError, build_frames, build_ks, build_space

__all__ = [
    "PROPERTY_IDS",
    "DEFAULT_TOLERANCES",
    "UnknownPropertyError",
    "bisect_loewner_lambda",
    "loewner_inclusion_exists",
    "run_suite",
]


class UnknownPropertyError(ScenarioError):
    """A property id outside the registered set was requested."""


def _trial_bytes(scenario: Scenario) -> int:
    """Bytes of one trial's largest stacked arrays: kernel bases (m x m),
    frame-sized and operator-sized arrays. The m x m term is the V* stack
    of the kernel build (m x m per trial): the kernel bases of every chunk
    are a view of it and keep it alive whole (see ``ParsevalKFrames.kernel``)."""
    m, d = scenario.atoms, scenario.dim
    return 16 * (m * m + 8 * m * d + 8 * d * d)


class _NotParseval(Exception):
    """The chunk's instances are not Parseval K-frames, a scenario error."""


class _Chunk:
    """Consecutive trials of a scenario, shared by every property that runs on them.

    The instances (space, K stack, frame stack) are realized on first use,
    and so is the checked Parseval K-frame stack built from them; each at
    most once per chunk. Property streams derive from (seed, property,
    trial index), so sharing the instances does not couple the
    properties' draws.
    """

    def __init__(self, scenario: Scenario, indices: Sequence[int]):
        self.scenario = scenario
        self.indices = list(indices)

    def rngs(self, pid: str) -> Streams:
        """The property's stream of each trial, as one batch (see ``rng.Streams``)."""
        return Streams((self.scenario.seed, (_PROPERTY_TAG[pid],), (i,)) for i in self.indices)

    def sub_seeds(self, pid: str, slot: int) -> Keyed:
        """The property's derived seed in ``slot`` of each trial, each derived when first read."""
        return derive_seeds(self.scenario.seed, (_PROPERTY_TAG[pid],), [(i, slot) for i in self.indices])

    @cached_property
    def trials(self) -> List["_Chunk"]:
        """The chunk's one-trial chunks, shared by the properties that rerun on them."""
        return [_Chunk(self.scenario, [i]) for i in self.indices]

    @cached_property
    def instance(self) -> Tuple[MeasureSpace, KStack, FrameStack]:
        space = build_space(self.scenario)
        ks = build_ks(self.scenario, self.indices)
        return space, ks, build_frames(self.scenario, space, ks, self.indices)

    @cached_property
    def parseval(self) -> ParsevalKFrames:
        """The instances as Parseval K-frames; raises _NotParseval when one is not."""
        _, ks, frames = self.instance
        try:
            return ParsevalKFrames(frames, ks)
        except HypothesisError as exc:
            raise _NotParseval(str(exc)) from None


def loewner_inclusion_exists(s_op: np.ndarray, t_op: np.ndarray):
    """Whether some scale up to 1e12 puts S S* under the cone of T T*, by
    doubling; one verdict per pair of the stacks (n, rows, .), each pair
    leaving the doubling at its first success.

    The slack here is fixed at the scale of S S* instead of growing with
    the trial scale: a growing slack would eventually absorb the strictly
    negative directions that witness non-inclusion, making every pair
    look included for a large enough scale.
    """
    ss = s_op @ s_op.conj().swapaxes(-1, -2)
    tt = t_op @ t_op.conj().swapaxes(-1, -2)
    ss = (ss + ss.conj().swapaxes(-1, -2)) / 2.0
    tt = (tt + tt.conj().swapaxes(-1, -2)) / 2.0
    slack = DEFAULT_TOL * np.maximum(1.0, op_norm(ss))
    holds = np.zeros(len(ss), dtype=bool)
    active = np.arange(len(ss))
    lam = 1.0
    while lam <= 1e12 and active.size:
        lowest = np.linalg.eigvalsh(lam * tt[active] - ss[active])[:, 0]
        found = lowest >= -slack[active]
        holds[active[found]] = True
        active = active[~found]
        lam *= 2.0
    return holds


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
    """:func:`bisect_loewner_lambda` of each pair of two stacks (k, n, n) of
    S S* and T T*, bisected together.

    S S* is checked as ``loewner_leq`` checks it, and the members where
    scale zero already works get 0.0. On the others, T T* is checked
    finite, and Hermitian relative to its own norm, which implies that
    check on every positive multiple of it. Each member's decisions read
    only its own matrices, so the stack does not change its scale. Members
    double their upper scale (None above the cap), then halve. A decision
    computes op_norm(bb) only when bounds on it from |tt| and |tt - tt*|
    leave the decision open.

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
    at_zero = _LoewnerTest(aa, norm_a, (0.0, 0.0))
    zero = at_zero(np.zeros_like(aa))
    out: List[Optional[float]] = [0.0 if z else None for z in zero.tolist()]
    live = np.flatnonzero(~zero)
    if not live.size:
        return out
    aa, norm_a, tt = aa[live], norm_a[live], _as_stack(tt[live])
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
    band = 64.0 * float(np.finfo(float).eps) * n**2.0
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
    count, top_scale, limit = len(live), max(cap, 1.0), at_zero.limit[live]
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
        test = _LoewnerTest(aa[idx], norm_a[idx], (low[idx], high[idx]))
        ok = dict(zip(at, test(bb, scale).tolist()))
        margins = dict(zip(at, (test.lam_min + DEFAULT_TOL * np.maximum(test.limit, scale * norm_t[idx])).tolist()))
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


def bisect_loewner_lambda(s_op: np.ndarray, t_op: np.ndarray, cap: float = 1e18) -> Optional[float]:
    """Minimal scale putting S S* under the cone of T T*, found by 60 steps
    of bisection over the Loewner test alone; None when no scale below the
    cap works.

    This is the slow, eigenvalue-only route kept deliberately separate from
    the pseudo-inverse factor, so the two can check each other. Only
    meaningful for pairs whose minimal scale is far below the cap; use
    :func:`loewner_inclusion_exists` for the inclusion decision itself.

    Each step makes the decision ``loewner_leq(S S*, scale * T T*)`` would
    make, bit for bit, but the operands are checked once per call: S S* as
    ``loewner_leq`` checks it, and T T*, unless scale zero already works,
    finite and Hermitian relative to its own norm. The norm of the scaled
    operand is bounded from the norm of T T* instead of computed wherever
    the bound settles the decision. A non-finite product or scaled operand
    raises ``ValueError``. The suites bisect the pairs of each matrix size
    as one stack; this is a stack of one over the same routine.
    """
    ss = s_op @ s_op.conj().T
    tt = t_op @ t_op.conj().T
    if ss.shape != tt.shape:
        raise ValueError(f"operands must be square and of equal size, got {ss.shape} and {tt.shape}")
    return _bisect_loewner_lambdas(as_operator(ss)[None], tt[None], cap)[0]


_PINV_CHECKS = (
    "outer-identity",
    "inner-identity",
    "left-projector-hermitian",
    "right-projector-hermitian",
    "adjoint-commutes",
    "null-complement",
    "range-complement",
)


def _pinv_checks(rng: np.random.Generator, index: int) -> List[float]:
    """Pseudo-inverse identity suite on random matrices up to 16 x 16;
    every other trial forces a rank-deficient input."""
    n = int(rng.integers(1, 17))
    p = int(rng.integers(1, 17))
    if index % 2 == 1 and min(n, p) > 1:
        r = int(rng.integers(1, min(n, p)))
        a = complex_normal(rng, n, r) @ complex_normal(rng, r, p)
    else:
        a = complex_normal(rng, n, p)
    # pinv(a) and both projectors of a from one SVD.
    f = svd(a)
    a_pinv = f.pinv()
    left = a @ a_pinv
    right = a_pinv @ a
    norm_a, *gaps = op_norms(
        [
            a,
            a @ a_pinv @ a - a,
            a_pinv @ a @ a_pinv - a_pinv,
            left - left.conj().T,
            right - right.conj().T,
            pinv(a.conj().T) - a_pinv.conj().T,
            a_pinv @ f.range_projector() - a_pinv,
            f.corange_projector() - right,
        ]
    )
    return [gap / (1.0 + norm_a) for gap in gaps]


def _prop_l1(chunk: _Chunk) -> CheckTable:
    """Matrix sizes are drawn per trial, so each trial runs on its own."""
    rows = [_pinv_checks(rng, i) for rng, i in zip(chunk.rngs("l1"), chunk.indices)]
    return CheckTable(_PINV_CHECKS, np.array(rows))


def _factorization_pair(rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """A random included pair (S, T) with S = T theta0, sizes up to 8."""
    n = int(rng.integers(2, 9))
    p = int(rng.integers(1, 9))
    q = int(rng.integers(1, 9))
    rank_t = int(rng.integers(1, min(n, p) + 1))
    t_op = conditioned_ops([rng], n, p, rank_t)[0]
    theta0 = complex_normal(rng, p, q)
    norm0 = op_norm(theta0)
    if norm0 > 0:
        theta0 *= rng.uniform(0.1, 3.0) / norm0
    return t_op @ theta0, t_op


def _prop_l2(chunk: _Chunk) -> CheckTable:
    """Factorization suite on random included pairs: the factor's squared
    norm must match the bisection scale, and kernel/range nesting must hold.

    Matrix sizes are drawn per trial, so the draws, the factor and the
    checks run trial by trial; the Gram pairs (S S*, T T*) of the chunk's
    trials of each size are checked and bisected as one stack.
    """
    trials = []
    for rng in chunk.rngs("l2"):
        s_op, t_op = _factorization_pair(rng)
        # The factor with the squared norm and rank of T its test computed.
        inc = douglas_factors(s_op[None], t_op[None])
        trials.append((s_op, t_op, inc.factor[0], float(inc.lambda_star[0]), int(inc.rank_t[0])))
    scales: List[Optional[float]] = [None] * len(trials)
    sizes = [len(s_op) for s_op, *_ in trials]
    for n in sorted(set(sizes)):
        group = [j for j, size in enumerate(sizes) if size == n]
        ss = np.stack([trials[j][0] @ trials[j][0].conj().T for j in group])
        tt = np.stack([trials[j][1] @ trials[j][1].conj().T for j in group])
        for j, scale in zip(group, _bisect_loewner_lambdas(ss, tt)):
            scales[j] = scale
    rows = []
    for (s_op, t_op, theta, lam, rank_t), lam_b in zip(trials, scales):
        gap, norm_s = op_norm(np.stack([t_op @ theta - s_op, s_op])).tolist()
        min_scale = 1.0 if lam_b is None else abs(lam - lam_b) / (1.0 + lam_b)
        kernel_match = rank(s_op) == rank(theta) == rank(np.vstack([s_op, theta]))
        range_in_adjoint = rank(np.hstack([t_op.conj().T, theta])) == rank_t
        rows.append([gap / (1.0 + norm_s), min_scale, 0.0 if kernel_match else 1.0, 0.0 if range_in_adjoint else 1.0])
    return CheckTable(("factorization", "min-scale", "kernel-match", "range-in-adjoint"), np.array(rows))


def _prop_l3(chunk: _Chunk) -> CheckTable:
    """Equivalence of the K-frame verdict with range inclusion, decided by
    two disjoint routes (rank test versus Loewner doubling), plus tightness
    of the optimal lower bound when it exists. Runs on any frame, not only
    on Parseval K-frames."""
    _, ks, frames = chunk.instance
    b = weighted_synthesis(frames)
    inc = range_inclusions(ks.op, b)
    # The optimal lower bound from the one inclusion test, as k_lower_bound
    # derives it: NaN where excluded, infinite for a zero K.
    with np.errstate(divide="ignore", over="ignore"):
        a_opt = 1.0 / inc.lambda_star
    agree = np.where(inc.included == loewner_inclusion_exists(ks.op, b), 0.0, 1.0)
    # Bounded trials add the lower bound, nonzero extremal probes the optimality.
    if not _common(np.isfinite(a_opt)):
        return CheckTable(["inclusion-agreement"], agree[:, None])
    s_mat = b @ b.conj().swapaxes(-1, -2)
    f = complex_normal_stack(chunk.rngs("l3"), frames.dim, count=5)
    kf = (ks.adjoint[:, None] @ f[..., None])[..., 0]
    lhs = a_opt[:, None] * vdots(kf, kf).real
    rhs = vdots(f, (s_mat[:, None] @ f[..., None])[..., 0]).real
    names = ["inclusion-agreement"] + ["lower-bound-holds"] * 5
    columns = [agree[:, None], _positive_part(lhs - rhs) / (1.0 + rhs)]
    # Extremal probe: the lower bound must be unimprovable by 0.1 percent.
    # Only the top left singular vector of theta is read, so its thin SVD suffices.
    top_left = np.linalg.svd(inc.factor, full_matrices=False)[0][..., :, 0]
    f_star = (inc.t_pinv.conj().swapaxes(-1, -2) @ top_left[..., None])[..., 0]
    kf = (ks.adjoint @ f_star[..., None])[..., 0]
    kf_sq = vdots(kf, kf).real
    if _common(kf_sq > 0):
        rhs = vdots(f_star, (s_mat @ f_star[..., None])[..., 0]).real
        names.append("optimality-tight")
        columns.append(np.where(a_opt * 1.001 * kf_sq > rhs, 0.0, 1.0)[:, None])
    return CheckTable(names, np.hstack(columns))


def _prop_l4(chunk: _Chunk) -> CheckTable:
    """Canonical dual reproduces K through the frame, and is Parseval on the
    range of the adjoint operator."""
    pk = chunk.parseval
    duality = pk.duality_residuals(pk.duals) / (1.0 + pk.k.norm)
    probes = pk.corange_parseval_residuals(chunk.rngs("l4"), 5)
    return CheckTable(["duality"] + ["corange-parseval"] * 5, np.column_stack([duality, probes]))


def _prop_l5(chunk: _Chunk) -> CheckTable:
    """Round trip between kernel fields and duals: building a dual from a
    kernel field and extracting its residual field recovers the field."""
    pk = chunk.parseval
    space = pk.space
    phi = pk.sample_kernel_fields(chunk.rngs("l5"))
    recovered = pk.residual_fields(pk.build_duals(phi))
    phi_norm = field_norm(space, phi)
    roundtrip = field_norm(space, recovered - phi) / (1.0 + phi_norm)
    annihilates = op_norm(synthesis(pk.frames) @ recovered) / (1.0 + pk.frame_norms * phi_norm)
    return CheckTable(["field-roundtrip", "synthesis-annihilates"], np.column_stack([roundtrip, annihilates]))


def _prop_l6(chunk: _Chunk) -> CheckTable:
    """Minimality of the canonical dual's analysis norm among sampled duals,
    with the pointwise squared-norm split as the reason."""
    return chunk.parseval.minimality_residuals(chunk.rngs("l6"))


def _prop_canonical_char(chunk: _Chunk) -> CheckTable:
    """Gram identity characterizes the canonical dual: it passes against
    sampled partners, while any sampled perturbation fails with the canonical
    dual itself as witness."""
    pk = chunk.parseval
    ok_forward = pk.characterizes(pk.duals, trials=8, seeds=chunk.sub_seeds("canonical-char", 1))
    phi = pk.sample_kernel_fields(chunk.rngs("canonical-char"))
    if not pk.width:  # the zero field perturbs nothing
        return CheckTable(["canonical-passes"], (~ok_forward).astype(float)[:, None])
    ok_perturbed = pk.characterizes(pk.build_duals(phi), trials=1, seeds=chunk.sub_seeds("canonical-char", 2))
    residuals = np.column_stack([~ok_forward, ok_perturbed]).astype(float)
    return CheckTable(["canonical-passes", "perturbed-fails"], residuals)


def _prop_t1(chunk: _Chunk) -> CheckTable:
    """Uniqueness dichotomy: a trivial synthesis kernel forces independently
    built duals to coincide, otherwise a verified distinct dual exists."""
    pk = chunk.parseval
    space, k, dual = pk.space, pk.k, pk.duals.samples
    if pk.width:
        q, residual = pk.alternative_duals(chunk.sub_seeds("t1", 1))
        differs = np.where(_max_row_norm(q.samples - dual) > 1e-6, 0.0, 1.0)
        residuals = np.column_stack([residual / (1.0 + k.norm), differs])
        return CheckTable(["alternative-dual", "alternative-differs"], residuals)
    # Independent construction: minimal-norm solve against the weighted
    # synthesis matrix instead of applying pinv(K) to the samples.
    x_weighted = pinvs(weighted_synthesis(pk.frames)) @ k.op
    g2 = FrameStack(space, np.conj(x_weighted / space.sqrt_weights[:, None]))
    residual = pk.duality_residuals(g2) / (1.0 + k.norm)
    gap = _max_row_norm(g2.samples - dual) / (1.0 + _max_row_norm(dual))
    return CheckTable(["minnorm-dual", "constructions-agree"], np.column_stack([residual, gap]))


def _prop_t2(chunk: _Chunk) -> CheckTable:
    """Independence transfers between the frame and its canonical dual; when
    independent, the frame is the push-forward of its dual through K."""
    frame_indep, dual_indep, gaps = chunk.parseval.independence_transfer()
    agreement = np.where(frame_indep == dual_indep, 0.0, 1.0)
    if gaps is None:
        return CheckTable(["independence-agreement"], agreement[:, None])
    return CheckTable(["independence-agreement", "pushforward-identity"], np.column_stack([agreement, gaps]))


def _prop_t4(chunk: _Chunk) -> CheckTable:
    """Coefficient norm split: total equals residual plus canonical, because
    the residual is orthogonal to the canonical coefficients."""
    pk = chunk.parseval
    weights = pk.space.weights
    f = complex_normal_stack(chunk.rngs("t4"), pk.frames.dim)
    canonical_values = pk.canonical_values(f)[:, None]
    families = pk.coefficient_families(f, count=10, seeds=chunk.sub_seeds("t4", 1))
    total, residual, canonical = pk.norm_splits(f, families)
    cross = np.sum(weights * (families - canonical_values) * np.conj(canonical_values), axis=-1)
    cross = np.array([[abs(z) for z in row] for row in cross.tolist()])
    # Per family, the norm split and then the cross term.
    columns = np.stack([abs(total - residual - canonical), cross], axis=-1) / (1.0 + total)[..., None]
    return CheckTable(["norm-split", "cross-term"] * 10, columns.reshape(len(f), -1))


def _prop_complement(chunk: _Chunk) -> CheckTable:
    """Canonical dual is Parseval on the orthogonal complement of N(K)."""
    pk = chunk.parseval
    ok = pk.complement_parseval_holds(trials=5, seeds=chunk.sub_seeds("complement-parseval", 1))
    probe = pk.corange_parseval_residuals(chunk.rngs("complement-parseval"), 1)[:, 0]
    return CheckTable(["complement-parseval", "probe-residual"], np.column_stack([np.where(ok, 0.0, 1.0), probe]))


def _prop_kdaggerk(chunk: _Chunk) -> CheckTable:
    """Frame operator identities for the canonical dual and its push-forward
    through K."""
    return chunk.parseval.kdaggerk_residuals()


# Each property's id, function and default tolerance, in report order. A
# property's streams are keyed by its tag, 1000 plus its position here.
_PROPERTIES = (
    ("l1", _prop_l1, 1e-10),
    ("l2", _prop_l2, 1e-6),
    ("l3", _prop_l3, 1e-6),
    ("l4", _prop_l4, 1e-9),
    ("l5", _prop_l5, 1e-9),
    ("l6", _prop_l6, 1e-9),
    ("canonical-char", _prop_canonical_char, 1e-9),
    ("t1", _prop_t1, 1e-9),
    ("t2", _prop_t2, 1e-9),
    ("t4", _prop_t4, 1e-9),
    ("complement-parseval", _prop_complement, 1e-9),
    ("kdaggerk", _prop_kdaggerk, 1e-9),
)
PROPERTY_IDS = tuple(pid for pid, _, _ in _PROPERTIES)
DEFAULT_TOLERANCES: Dict[str, float] = {pid: tol for pid, _, tol in _PROPERTIES}
# _tables reads this at call time, so a replaced entry takes effect.
_PROPERTY_FUNCS = {pid: func for pid, func, _ in _PROPERTIES}
_PROPERTY_TAG = {pid: 1000 + i for i, pid in enumerate(PROPERTY_IDS)}


def _tables(chunk: _Chunk, pid: str) -> List[Tuple[_Chunk, CheckTable]]:
    """[(chunk, the property's check table on it)]. The scenario's errors raise
    ``ScenarioError``: a failed build (at ``k_spec`` or ``frame_spec``), frames
    that are not Parseval K-frames, a run too large for memory. On a ``Split``
    or any other error, the property reruns on each trial alone, in order; a
    trial alone that raises breaks down: its table is one check ``breakdown``, at inf."""
    try:
        return [(chunk, _PROPERTY_FUNCS[pid](chunk))]
    except (_NotParseval, MemoryError) as exc:
        reason = "it does not fit in memory" if isinstance(exc, MemoryError) else exc
        raise ScenarioError(f"property {pid} cannot run on this scenario: {reason}") from None
    except ScenarioError:  # a failed build; a ValueError, but the scenario's
        raise
    except (Split, ValueError, ArithmeticError):
        if len(chunk.indices) == 1:
            return [(chunk, CheckTable(["breakdown"], np.array([[np.inf]])))]
    return [pair for one in chunk.trials for pair in _tables(one, pid)]


def _chunk_tables(scenario: Scenario, props: Sequence[str]) -> Iterator[Tuple[int, _Chunk, CheckTable]]:
    """(position in ``props``, chunk, the property's check table on it) for
    each chunk of the scenario's trials, in order, and each selected property."""
    size = max(1, _CHUNK_BYTES // _trial_bytes(scenario))
    stop = scenario.trial_offset + scenario.trials
    for first in range(scenario.trial_offset, stop, size):
        chunk = _Chunk(scenario, range(first, min(first + size, stop)))
        for j, pid in enumerate(props):
            for one, table in _tables(chunk, pid):
                yield j, one, table


def run_suite(scenario: Scenario, properties: Optional[Iterable[str]] = None) -> SuiteReport:
    """Run the selected property suites over the scenario's seeded trials.

    Chunks of trials run in order; within a chunk, the selected properties
    run in order on one shared stack of instances. Output is a pure
    function of (scenario, properties), whatever the chunk size: residuals
    agree to the last bit between repeated runs in one floating point
    environment, and verdicts agree regardless. Only the scenario's own
    errors raise, as ``ScenarioError`` (see :func:`_tables`); a trial that
    breaks down fails with check ``breakdown``. Zero trials pass vacuously.
    """
    if properties is None:
        props = list(PROPERTY_IDS)
    else:
        props = list(properties)
        unknown = sorted(set(props) - set(PROPERTY_IDS))
        if unknown:
            raise UnknownPropertyError(
                f"unknown property id(s) {', '.join(unknown)}; valid ids: {', '.join(PROPERTY_IDS)}"
            )
        if not props:
            raise ScenarioError(f"selects no property; valid ids: {', '.join(PROPERTY_IDS)}", "properties")
        repeated = [pid for pid in PROPERTY_IDS if props.count(pid) > 1]
        if repeated:
            raise ScenarioError(f"selects property id(s) {', '.join(repeated)} more than once", "properties")
    start = time.perf_counter()
    # Per selected property: (worst residual, its check, its trial index).
    worst: List[Tuple[float, str, int]] = [(0.0, "", -1)] * len(props)
    for j, chunk, table in _chunk_tables(scenario, props):
        residual, name, row = table.worst()
        # A non-finite worst stays; a finite one gives way to any larger or
        # non-finite residual (a NaN fails every comparison, so ">" alone would pass it).
        value, _, seen = worst[j]
        if seen < 0 or (np.isfinite(value) and (residual > value or not np.isfinite(residual))):
            worst[j] = (residual, name, chunk.indices[row])
    records: List[PropertyRecord] = []
    for pid, (worst_residual, worst_check, worst_trial) in zip(props, worst):
        tolerance = scenario.tolerances.get(pid, DEFAULT_TOLERANCES[pid])
        passed = bool(np.isfinite(worst_residual)) and worst_residual <= tolerance
        witness = None
        if not passed:
            witness = {
                "trial_index": worst_trial,
                "check": worst_check,
                "residual": worst_residual,
                "seed": scenario.seed,
                "scenario": scenario.replay(worst_trial).to_dict(),
            }
        records.append(
            PropertyRecord(
                prop_id=pid,
                instances=scenario.trials,
                max_residual=worst_residual,
                tolerance=tolerance,
                passed=passed,
                worst_check=worst_check,
                witness=witness,
            )
        )
    wall_ms = (time.perf_counter() - start) * 1000.0
    return SuiteReport(
        version=REPORT_VERSION,
        scenario=scenario.to_dict(),
        properties=records,
        wall_time_ms=wall_ms,
        meta={"python": platform.python_version(), "numpy": np.__version__, "platform": platform.platform()},
    )
