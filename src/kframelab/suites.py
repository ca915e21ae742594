"""Executable property suites over scenario instances.

Each property generates seeded instances, evaluates a set of checks, and
reports the worst residual against one tolerance. Residuals are already
normalized by the scale the check's statement dictates; boolean checks
contribute 0 or 1, which fails any realistic tolerance. Trial streams
derive from (seed, property, trial index), so execution order does not
matter and a witness replays by restricting the scenario to one trial.

Trials run in chunks: every property takes a chunk of consecutive
trials and returns one check list per trial, in trial order. The draws
loop over the chunk's trials, each from its own stream, and the
arithmetic runs once per chunk on numpy's stacked routines, which give
each trial the bits its own per-matrix calls would. A one-trial replay
is a chunk of one and so reproduces every residual exactly.
"""

import math
import platform
import time
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .duality import (
    Check,
    HypothesisError,
    ParsevalKFrames,
    _positive_part,
    _take,
    _where,
    check_rows,
    field_norm,
)
from .frames import (
    FrameStack,
    InfeasibleError,
    KStack,
    _max_row_norm,
    lower_bound_from_scale,
    synthesis,
    weighted_synthesis,
)
from .hilbert import (
    DEFAULT_TOL,
    _groups,
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
from .rng import Keyed, complex_normal, complex_normal_stack, derive_seeds, streams
from .scenario import Scenario, ScenarioError, build_frames, build_ks, build_space

__all__ = [
    "PROPERTY_IDS",
    "DEFAULT_TOLERANCES",
    "UnknownPropertyError",
    "bisect_loewner_lambda",
    "loewner_inclusion_exists",
    "run_suite",
]

PROPERTY_IDS = (
    "l1",
    "l2",
    "l3",
    "l4",
    "l5",
    "l6",
    "canonical-char",
    "t1",
    "t2",
    "t4",
    "complement-parseval",
    "kdaggerk",
)

DEFAULT_TOLERANCES: Dict[str, float] = {
    "l1": 1e-10,
    "l2": 1e-6,
    "l3": 1e-6,
    "l4": 1e-9,
    "l5": 1e-9,
    "l6": 1e-9,
    "canonical-char": 1e-9,
    "t1": 1e-9,
    "t2": 1e-9,
    "t4": 1e-9,
    "complement-parseval": 1e-9,
    "kdaggerk": 1e-9,
}

_PROPERTY_TAG = {pid: 1000 + i for i, pid in enumerate(PROPERTY_IDS)}


class UnknownPropertyError(ScenarioError):
    """A property id outside the registered set was requested."""


# Trials per chunk are capped so that the chunk's stacked arrays stay
# within about this many bytes, so memory does not grow with the trials.
_CHUNK_BYTES = 1 << 22


def _trial_bytes(scenario: Scenario) -> int:
    """Bytes of one trial's largest stacked arrays: kernel bases (m x m),
    frame-sized and operator-sized arrays."""
    m, d = scenario.atoms, scenario.dim
    return 16 * (m * m + 8 * m * d + 8 * d * d)


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

    def _chosen(self, positions: Optional[np.ndarray]) -> List[int]:
        return self.indices if positions is None else [self.indices[j] for j in positions]

    def rngs(self, pid: str, positions: Optional[np.ndarray] = None) -> Keyed:
        """The property's stream of each trial, or of the trials at
        ``positions``, each built when it is first drawn from."""
        return streams(self.scenario.seed, (_PROPERTY_TAG[pid],), [(i,) for i in self._chosen(positions)])

    def sub_seeds(self, pid: str, slot: int, positions: Optional[np.ndarray] = None) -> Keyed:
        """The property's derived seed in ``slot`` of each trial, or of the
        trials at ``positions``, each derived when it is first read."""
        return derive_seeds(self.scenario.seed, (_PROPERTY_TAG[pid],), [(i, slot) for i in self._chosen(positions)])

    @cached_property
    def instance(self) -> Tuple[MeasureSpace, KStack, FrameStack]:
        space = build_space(self.scenario)
        ks = build_ks(self.scenario, self.indices)
        return space, ks, build_frames(self.scenario, space, ks, self.indices)

    @cached_property
    def parseval(self) -> ParsevalKFrames:
        """The instances as Parseval K-frames; raises HypothesisError when one is not."""
        _, ks, frames = self.instance
        return ParsevalKFrames(frames, ks)


def loewner_inclusion_exists(s_op: np.ndarray, t_op: np.ndarray):
    """Whether some scale up to 1e12 puts S S* under the cone of T T*, by
    doubling; one verdict per pair for stacks (n, rows, .), each pair
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
    single = ss.ndim == 2
    if single:
        ss, tt = ss[None], tt[None]
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
    return bool(holds[0]) if single else holds


class _LoewnerOperands(NamedTuple):
    """The checked operands of one minimal-scale bisection of S S* under
    T T*: ``aa``, the Hermitian part of S S*, and ``tt`` = T T*, with the
    norms the checks computed."""

    aa: np.ndarray
    norm_a: float
    tt: np.ndarray
    norm_t: float
    gap: float  # op_norm(tt - tt*)


def _loewner_operands(s_op: np.ndarray, t_op: np.ndarray) -> Optional[_LoewnerOperands]:
    """The checked operands of the bisection, or None when scale zero
    already works.

    S S* is checked as ``loewner_leq`` checks it; T T* is checked Hermitian
    relative to its own norm, which implies that check on every positive
    multiple of it.
    """
    ss = s_op @ s_op.conj().T
    tt = t_op @ t_op.conj().T
    if ss.shape != tt.shape:
        raise ValueError(f"operands must be square and of equal size, got {ss.shape} and {tt.shape}")
    aa, norm_a = _require_hermitian(as_operator(ss), "first")
    # The zero operand's norm is 0, known without an SVD.
    if _LoewnerTest(aa[None], np.array([norm_a]), (0.0, 0.0))(np.zeros_like(aa[None]))[0]:
        return None
    tt = as_operator(tt)
    gap, norm_t = op_norm(np.stack([tt - tt.conj().T, tt])).tolist()
    if gap > DEFAULT_TOL * norm_t:
        raise ValueError(f"second operand is not Hermitian (asymmetry {gap:.3e})")
    return _LoewnerOperands(aa, norm_a, tt, norm_t, gap)


def _bisect_loewner_lambdas(
    operands: Sequence[Optional[_LoewnerOperands]], cap: float = 1e18
) -> List[Optional[float]]:
    """:func:`bisect_loewner_lambda` of each member's checked operands (0.0
    for None), all bisections in lockstep.

    The members' ``aa`` and ``tt`` are zero-padded to one stack, ordered by
    size, so every elementwise step runs once for all of them; the Loewner
    decisions run once per size on each member's own n x n block, so each
    member sees exactly its own matrices. Members double their upper scale
    on a shrinking active set (None above the cap), then halve in lockstep.
    A decision computes op_norm(bb) only when bounds on it from |tt| and
    |tt - tt*| leave the decision open.
    """
    out: List[Optional[float]] = [0.0 if ops is None else None for ops in operands]
    order = sorted((j for j, ops in enumerate(operands) if ops is not None), key=lambda j: len(operands[j].tt))
    if not order:
        return out
    pairs = [operands[j] for j in order]
    sizes = np.array([len(pair.tt) for pair in pairs])
    count, n_max = len(pairs), int(sizes[-1])
    aa = np.zeros((count, n_max, n_max), dtype=np.complex128)
    tt = np.zeros_like(aa)
    for j, pair in enumerate(pairs):
        aa[j, : sizes[j], : sizes[j]] = pair.aa
        tt[j, : sizes[j], : sizes[j]] = pair.tt
    norm_a, norm_t, gap = np.array([(pair.norm_a, pair.norm_t, pair.gap) for pair in pairs]).T
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
    band = 64.0 * np.finfo(float).eps * sizes**2.0
    low, high = (norm_t - gap / 2.0) * (1.0 - band), (norm_t + gap / 2.0) * (1.0 + band)

    def stepper(members: np.ndarray):
        """The members' decisions, each at its own scale; the members are
        ascending, so those of one size are a run of them."""
        t = tt[members]
        runs = []
        for n, pos in _groups(sizes[members]):
            m = members[pos]
            test = _LoewnerTest(aa[m, :n, :n], norm_a[m], (low[m], high[m]))
            runs.append((slice(pos[0], pos[-1] + 1), n, test))
        whole = len(runs) == 1 and runs[0][1] == n_max

        def holds(scale: np.ndarray, check: bool = True) -> np.ndarray:
            bb = scale[:, None, None] * t
            bb += bb.conj().swapaxes(-1, -2)
            bb /= 2.0
            # Both the scaled operand and its symmetrized sum can overflow.
            if check and not np.isfinite(bb).all():
                raise ValueError("operator entries must be finite")
            if whole:
                return runs[0][2](bb, scale)
            return np.concatenate([test(bb[run, :n, :n], scale[run]) for run, n, test in runs])

        return holds

    hi = np.ones(count)
    found = np.zeros(count, dtype=bool)
    active, holds = np.arange(count), None
    while active.size:
        if holds is None:
            holds = stepper(active)
        ok = holds(hi[active])
        hi[active[~ok]] *= 2.0
        done = ok | (hi[active] > cap)
        if done.any():
            found[active[ok]] = True
            active, holds = active[~done], None
    live = np.flatnonzero(found)
    if not live.size:
        return out
    holds = stepper(live)
    # The halving runs on Python floats, which round as numpy's doubles do;
    # on a stack of one they cost less than array calls.
    lo, hi = [0.0] * live.size, hi[live].tolist()
    for step in range(1, 61):
        mid = [(a + b) / 2.0 for a, b in zip(lo, hi)]
        # Once every mid is a bound already decided (hi, or a lo > 0 that a
        # failed decision set), each later step repeats that decision and
        # changes nothing. Doubling leaves hi a power of two and lo zero, so
        # the first 53 midpoints are exact and strictly inside.
        if step > 53 and all(m == b or (m == a and a > 0.0) for a, m, b in zip(lo, mid, hi)):
            break
        # mid <= hi, whose symmetrized scaled operand was finite, and
        # rounding is monotone: so is this one, with no need to check.
        ok = holds(np.array(mid), check=False).tolist()
        lo = [a if k else m for a, m, k in zip(lo, mid, ok)]
        hi = [m if k else b for m, b, k in zip(mid, hi, ok)]
    for j, scale in zip(live.tolist(), hi):
        out[order[j]] = scale
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
    make, bit for bit, but the operands are checked once per call (see
    :func:`_loewner_operands`), and the norm of the scaled operand is
    bounded from the norm of T T* instead of computed wherever the bound
    settles the decision. A non-finite product or scaled operand raises
    ``ValueError``. The suites bisect a chunk's pairs in lockstep; this is
    a stack of one over the same routine.
    """
    return _bisect_loewner_lambdas([_loewner_operands(s_op, t_op)], cap)[0]


def _conditioned_matrix(rng: np.random.Generator, rows: int, cols: int, r: int) -> np.ndarray:
    """Rank-r matrix with singular values in [0.5, 2]."""
    q1, _ = np.linalg.qr(complex_normal(rng, rows, r))
    q2, _ = np.linalg.qr(complex_normal(rng, cols, r))
    singulars = np.sort(rng.uniform(0.5, 2.0, r))[::-1]
    return (q1 * singulars) @ q2.conj().T


_PINV_CHECKS = (
    "outer-identity",
    "inner-identity",
    "left-projector-hermitian",
    "right-projector-hermitian",
    "adjoint-commutes",
    "null-complement",
    "range-complement",
)


def _pinv_checks(rng: np.random.Generator, index: int) -> List[Check]:
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
    scale = 1.0 + norm_a
    return [(name, gap / scale) for name, gap in zip(_PINV_CHECKS, gaps)]


def _prop_l1(chunk: _Chunk) -> List[List[Check]]:
    """Matrix sizes are drawn per trial, so each trial runs on its own."""
    return [_pinv_checks(rng, i) for rng, i in zip(chunk.rngs("l1"), chunk.indices)]


def _factorization_pair(rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """A random included pair (S, T) with S = T theta0, sizes up to 8."""
    n = int(rng.integers(2, 9))
    p = int(rng.integers(1, 9))
    q = int(rng.integers(1, 9))
    rank_t = int(rng.integers(1, min(n, p) + 1))
    t_op = _conditioned_matrix(rng, n, p, rank_t)
    theta0 = complex_normal(rng, p, q)
    norm0 = op_norm(theta0)
    if norm0 > 0:
        theta0 *= rng.uniform(0.1, 3.0) / norm0
    return t_op @ theta0, t_op


def _prop_l2(chunk: _Chunk) -> List[List[Check]]:
    """Factorization suite on random included pairs: the factor's squared
    norm must match the bisection scale, and kernel/range nesting must hold.

    Matrix sizes are drawn per trial, so the draws, the factor, the
    bisection operands and the checks run trial by trial; the bisections
    of the chunk's trials run in one lockstep.
    """
    trials = []
    for rng in chunk.rngs("l2"):
        s_op, t_op = _factorization_pair(rng)
        # The factor with the squared norm and rank of T its test computed.
        inc = douglas_factors(s_op[None], t_op[None])
        lam, rank_t = float(inc.lambda_star[0]), int(inc.rank_t[0])
        trials.append((s_op, t_op, inc.factor[0], lam, rank_t, _loewner_operands(s_op, t_op)))
    scales = _bisect_loewner_lambdas([operands for *_, operands in trials])
    out = []
    for (s_op, t_op, theta, lam, rank_t, _), lam_b in zip(trials, scales):
        gap, norm_s = op_norm(np.stack([t_op @ theta - s_op, s_op])).tolist()
        out.append(
            [
                ("factorization", gap / (1.0 + norm_s)),
                ("min-scale", 1.0 if lam_b is None else abs(lam - lam_b) / (1.0 + lam_b)),
                (
                    "kernel-match",
                    0.0 if rank(s_op) == rank(theta) == rank(np.vstack([s_op, theta])) else 1.0,
                ),
                ("range-in-adjoint", 0.0 if rank(np.hstack([t_op.conj().T, theta])) == rank_t else 1.0),
            ]
        )
    return out


def _prop_l3(chunk: _Chunk) -> List[List[Check]]:
    """Equivalence of the K-frame verdict with range inclusion, decided by
    two disjoint routes (rank test versus Loewner doubling), plus tightness
    of the optimal lower bound when it exists. Runs on any frame, not only
    on Parseval K-frames."""
    _, ks, frames = chunk.instance
    b = weighted_synthesis(frames)
    inc = range_inclusions(ks.op, b)
    # The optimal lower bound from the one inclusion test, as k_lower_bound derives it.
    a_opt = [lower_bound_from_scale(*pair) for pair in zip(inc.included.tolist(), inc.lambda_star.tolist())]
    loewner = loewner_inclusion_exists(ks.op, b)
    out = [
        [("inclusion-agreement", 0.0 if included == (a is not None) == route else 1.0)]
        for included, a, route in zip(inc.included.tolist(), a_opt, loewner.tolist())
    ]
    bounded = np.array([a is not None and np.isfinite(a) for a in a_opt])
    if not bounded.any():
        return out
    idx, positions = _where(bounded), np.flatnonzero(bounded)
    a = np.array([a_opt[j] for j in positions])
    b = weighted_synthesis(frames.subset(idx))
    s_mat = b @ b.conj().swapaxes(-1, -2)
    k_adjoint = _take(ks.adjoint, idx)
    f = complex_normal_stack(chunk.rngs("l3", idx), frames.dim, count=5)
    kf = (k_adjoint[:, None] @ f[..., None])[..., 0]
    lhs = a[:, None] * vdots(kf, kf).real
    rhs = vdots(f, (s_mat[:, None] @ f[..., None])[..., 0]).real
    for j, row in zip(positions, (_positive_part(lhs - rhs) / (1.0 + rhs)).tolist()):
        out[j] += [("lower-bound-holds", value) for value in row]
    # Extremal probe: the lower bound must be unimprovable by 0.1 percent.
    # Only the top left singular vector of theta is read, so its thin SVD suffices.
    t_pinv = _take(inc.t_pinv, idx)
    top_left = np.linalg.svd(_take(inc.factor, idx), full_matrices=False)[0][..., :, 0]
    f_star = (t_pinv.conj().swapaxes(-1, -2) @ top_left[..., None])[..., 0]
    kf = (k_adjoint @ f_star[..., None])[..., 0]
    kf_sq = vdots(kf, kf).real
    sub = np.flatnonzero(kf_sq > 0)
    if sub.size:
        lhs = a[sub] * 1.001 * kf_sq[sub]
        rhs = vdots(f_star[sub], (s_mat[sub] @ f_star[sub, :, None])[..., 0]).real
        for j, tight in zip(positions[sub], (lhs > rhs).tolist()):
            out[j].append(("optimality-tight", 0.0 if tight else 1.0))
    return out


def _prop_l4(chunk: _Chunk) -> List[List[Check]]:
    """Canonical dual reproduces K through the frame, and is Parseval on the
    range of the adjoint operator."""
    pk = chunk.parseval
    duality = pk.dual_residuals / (1.0 + pk.k.norm)
    probes = pk.corange_parseval_residuals(chunk.rngs("l4"), 5)
    return check_rows(["duality"] + ["corange-parseval"] * 5, [duality] + list(probes.T))


def _prop_l5(chunk: _Chunk) -> List[List[Check]]:
    """Round trip between kernel fields and duals: building a dual from a
    kernel field and extracting its residual field recovers the field."""
    pk = chunk.parseval
    space = pk.space
    phi = pk.sample_kernel_fields(chunk.rngs("l5"))
    recovered = pk.residual_fields(pk.build_duals(phi))
    phi_norm = field_norm(space, phi)
    return check_rows(
        ["field-roundtrip", "synthesis-annihilates"],
        [
            field_norm(space, recovered - phi) / (1.0 + phi_norm),
            op_norm(synthesis(pk.frames) @ recovered) / (1.0 + pk.frame_norms * phi_norm),
        ],
    )


def _prop_l6(chunk: _Chunk) -> List[List[Check]]:
    """Minimality of the canonical dual's analysis norm among sampled duals,
    with the pointwise squared-norm split as the reason."""
    return chunk.parseval.minimality_residuals(chunk.rngs("l6"))


def _prop_canonical_char(chunk: _Chunk) -> List[List[Check]]:
    """Gram identity characterizes the canonical dual: it passes against
    sampled partners, while any sampled perturbation fails with the canonical
    dual itself as witness."""
    pk = chunk.parseval
    ok_forward = pk.characterizes(pk.duals, trials=8, seeds=chunk.sub_seeds("canonical-char", 1))
    out = [[("canonical-passes", 0.0 if ok else 1.0)] for ok in ok_forward.tolist()]
    phi = pk.sample_kernel_fields(chunk.rngs("canonical-char"))
    nonzero = field_norm(pk.space, phi) > 0
    if nonzero.any():
        idx = _where(nonzero)
        perturbed = pk.build_duals(_take(phi, idx), idx)
        ok_perturbed = pk.characterizes(perturbed, trials=1, seeds=chunk.sub_seeds("canonical-char", 2, idx), idx=idx)
        for j, ok in zip(np.flatnonzero(nonzero), ok_perturbed.tolist()):
            out[j].append(("perturbed-fails", 0.0 if not ok else 1.0))
    return out


def _prop_t1(chunk: _Chunk) -> List[List[Check]]:
    """Uniqueness dichotomy: full-rank analysis forces independently built
    duals to coincide, otherwise a verified distinct dual exists."""
    pk = chunk.parseval
    space, k = pk.space, pk.k
    out: List[List[Check]] = [[] for _ in chunk.indices]
    unique = pk.is_unique()
    if unique.any():
        idx = _where(unique)
        # Independent construction: minimal-norm solve against the weighted
        # synthesis matrix instead of applying pinv(K) to the samples.
        x_weighted = pinvs(weighted_synthesis(pk.frames.subset(idx))) @ _take(k.op, idx)
        g2 = FrameStack(space, np.conj(x_weighted / space.sqrt_weights[:, None]))
        dual = _take(pk.duals.samples, idx)
        residual = pk.duality_residuals(g2, idx) / (1.0 + _take(k.norm, idx))
        gap = _max_row_norm(g2.samples - dual) / (1.0 + _max_row_norm(dual))
        for j, r, g in zip(np.flatnonzero(unique), residual.tolist(), gap.tolist()):
            out[j] += [("minnorm-dual", r), ("constructions-agree", g)]
    if not unique.all():
        idx = _where(~unique)
        q, residual = pk.alternative_duals(chunk.sub_seeds("t1", 1, idx), idx)
        gap = _max_row_norm(q.samples - _take(pk.duals.samples, idx))
        residual = residual / (1.0 + _take(k.norm, idx))
        for j, r, g in zip(np.flatnonzero(~unique), residual.tolist(), gap.tolist()):
            out[j] += [("alternative-dual", r), ("alternative-differs", 0.0 if g > 1e-6 else 1.0)]
    return out


def _prop_t2(chunk: _Chunk) -> List[List[Check]]:
    """Independence transfers between the frame and its canonical dual; when
    independent, the frame is the push-forward of its dual through K."""
    frame_indep, dual_indep, gaps = chunk.parseval.independence_transfer()
    out = []
    for fi, di, gap in zip(frame_indep.tolist(), dual_indep.tolist(), gaps.tolist()):
        checks: List[Check] = [("independence-agreement", 0.0 if fi == di else 1.0)]
        if fi:
            checks.append(("pushforward-identity", gap))
        out.append(checks)
    return out


def _prop_t4(chunk: _Chunk) -> List[List[Check]]:
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
    return check_rows(["norm-split", "cross-term"] * 10, list(columns.reshape(len(f), -1).T))


def _prop_complement(chunk: _Chunk) -> List[List[Check]]:
    """Canonical dual is Parseval on the orthogonal complement of N(K)."""
    pk = chunk.parseval
    ok = pk.complement_parseval_holds(trials=5, seeds=chunk.sub_seeds("complement-parseval", 1))
    probe = pk.corange_parseval_residuals(chunk.rngs("complement-parseval"), 1)[:, 0]
    return check_rows(["complement-parseval", "probe-residual"], [np.where(ok, 0.0, 1.0), probe])


def _prop_kdaggerk(chunk: _Chunk) -> List[List[Check]]:
    """Frame operator identities for the canonical dual and its push-forward
    through K."""
    return chunk.parseval.kdaggerk_residuals()


_PROPERTY_FUNCS = {
    "l1": _prop_l1,
    "l2": _prop_l2,
    "l3": _prop_l3,
    "l4": _prop_l4,
    "l5": _prop_l5,
    "l6": _prop_l6,
    "canonical-char": _prop_canonical_char,
    "t1": _prop_t1,
    "t2": _prop_t2,
    "t4": _prop_t4,
    "complement-parseval": _prop_complement,
    "kdaggerk": _prop_kdaggerk,
}


def _run_chunk(chunk: _Chunk, props: Sequence[str]) -> List[List[List[Check]]]:
    results = []
    for pid in props:
        try:
            results.append(_PROPERTY_FUNCS[pid](chunk))
        except (HypothesisError, InfeasibleError) as exc:
            raise ScenarioError(f"property {pid} cannot run on this scenario: {exc}")
    return results


def run_suite(scenario: Scenario, properties: Optional[Iterable[str]] = None) -> SuiteReport:
    """Run the selected property suites over the scenario's seeded trials.

    Chunks of trials run in order; within a chunk, the selected properties
    run in order on one shared stack of instances. Output is a pure
    function of (scenario, properties), whatever the chunk size: residuals
    agree to the last bit between repeated runs in one floating point
    environment, and verdicts agree regardless. When a trial cannot run,
    the error is the one a trial-by-trial run meets first. Zero trials
    pass vacuously.
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
    start = time.perf_counter()
    # Per selected property: (worst residual, its check, its trial index).
    worst: List[Tuple[float, str, int]] = [(0.0, "", -1)] * len(props)
    size = max(1, _CHUNK_BYTES // _trial_bytes(scenario))
    for first in range(0, scenario.trials, size):
        chunk = _Chunk(
            scenario, range(scenario.trial_offset + first, scenario.trial_offset + min(first + size, scenario.trials))
        )
        try:
            results = _run_chunk(chunk, props)
        except Exception:
            # Raise what the trial-major order meets first: run the chunk's
            # trials one at a time, each with every property.
            for index in chunk.indices:
                _run_chunk(_Chunk(scenario, [index]), props)
            raise
        for j, per_trial in enumerate(results):
            for index, checks in zip(chunk.indices, per_trial):
                for name, residual in checks:
                    # The first check always becomes the worst, a non-finite one is
                    # never replaced, and one replaces any finite worst: a NaN fails
                    # every comparison, so ">" alone would skip it and pass.
                    value, _, seen = worst[j]
                    if seen < 0 or (
                        math.isfinite(value) and (residual > value or not math.isfinite(residual))
                    ):
                        worst[j] = (residual, name, index)
    records: List[PropertyRecord] = []
    for pid, (worst_residual, worst_check, worst_trial) in zip(props, worst):
        tolerance = scenario.tolerances.get(pid, DEFAULT_TOLERANCES[pid])
        passed = math.isfinite(worst_residual) and worst_residual <= tolerance
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
    meta = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    return SuiteReport(
        version=REPORT_VERSION,
        scenario=scenario.to_dict(),
        properties=records,
        wall_time_ms=wall_ms,
        meta=meta,
    )
