"""Executable property suites over scenario instances.

Each property generates seeded instances, evaluates a set of checks, and
reports the worst residual against one tolerance. Residuals are already
normalized by the scale the check's statement dictates; boolean checks
contribute 0 or 1, which fails any realistic tolerance. Trial streams
derive from (seed, property, trial index), so execution order does not
matter and a witness replays by restricting the scenario to one trial.
"""

import math
import platform
import time
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .duality import Check, HypothesisError, ParsevalKFrame, field_norm, is_dual_k_bessel
from .frames import (
    InfeasibleError,
    KOperator,
    SampledFrame,
    analysis,
    analysis_norm,
    k_lower_bound,
    synthesis,
    weighted_synthesis,
)
from .hilbert import (
    corange_projector,
    douglas_factor,
    loewner_leq,
    op_norm,
    pinv,
    range_inclusion,
    range_projector,
    rank,
)
from .measure import MeasureSpace
from .report import REPORT_VERSION, PropertyRecord, SuiteReport
from .rng import complex_normal, derive_seed, stream
from .scenario import Scenario, ScenarioError, build_frame, build_k, build_space

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


class _Trial:
    """One trial of a scenario, shared by every property that runs on it.

    The instance (space, K, frame) is realized on first use, and so is the
    checked Parseval K-frame built from it; each at most once per trial.
    Property streams derive from (seed, property, trial index), so sharing
    the instance does not couple the properties' draws.
    """

    def __init__(self, scenario: Scenario, index: int):
        self.scenario = scenario
        self.index = index

    def rng(self, pid: str) -> np.random.Generator:
        return stream(self.scenario.seed, _PROPERTY_TAG[pid], self.index)

    def sub_seed(self, pid: str, slot: int) -> int:
        return derive_seed(self.scenario.seed, _PROPERTY_TAG[pid], self.index, slot)

    @cached_property
    def instance(self) -> Tuple[MeasureSpace, KOperator, SampledFrame]:
        space = build_space(self.scenario)
        k = build_k(self.scenario, self.index)
        return space, k, build_frame(self.scenario, space, k, self.index)

    @cached_property
    def parseval(self) -> ParsevalKFrame:
        """The instance as a Parseval K-frame; raises HypothesisError when it is not one."""
        _, k, frame = self.instance
        return ParsevalKFrame(frame, k)


def loewner_inclusion_exists(s_op: np.ndarray, t_op: np.ndarray, cap: float = 1e12) -> bool:
    """Whether some scale puts S S* under the cone of T T*, by doubling.

    The slack here is fixed at the scale of S S* instead of growing with
    the trial scale: a growing slack would eventually absorb the strictly
    negative directions that witness non-inclusion, making every pair
    look included for a large enough scale.
    """
    ss = s_op @ s_op.conj().T
    tt = t_op @ t_op.conj().T
    ss = (ss + ss.conj().T) / 2.0
    tt = (tt + tt.conj().T) / 2.0
    slack = 1e-9 * max(1.0, op_norm(ss))
    lam = 1.0
    while lam <= cap:
        if float(np.linalg.eigvalsh(lam * tt - ss)[0]) >= -slack:
            return True
        lam *= 2.0
    return False


def bisect_loewner_lambda(
    s_op: np.ndarray, t_op: np.ndarray, iters: int = 60, cap: float = 1e18
) -> Optional[float]:
    """Minimal scale putting S S* under the cone of T T*, found by bisection
    over the Loewner test alone; None when no scale below the cap works.

    This is the slow, eigenvalue-only route kept deliberately separate from
    the pseudo-inverse factor, so the two can check each other. Only
    meaningful for pairs whose minimal scale is far below the cap; use
    :func:`loewner_inclusion_exists` for the inclusion decision itself.
    """
    ss = s_op @ s_op.conj().T
    tt = t_op @ t_op.conj().T
    if loewner_leq(ss, np.zeros_like(tt)):
        return 0.0
    hi = 1.0
    while not loewner_leq(ss, hi * tt):
        hi *= 2.0
        if hi > cap:
            return None
    lo = 0.0
    for _ in range(int(iters)):
        mid = (lo + hi) / 2.0
        if loewner_leq(ss, mid * tt):
            hi = mid
        else:
            lo = mid
    return hi


def _conditioned_matrix(rng: np.random.Generator, rows: int, cols: int, r: int) -> np.ndarray:
    """Rank-r matrix with singular values in [0.5, 2]."""
    q1, _ = np.linalg.qr(complex_normal(rng, rows, r))
    q2, _ = np.linalg.qr(complex_normal(rng, cols, r))
    singulars = np.sort(rng.uniform(0.5, 2.0, r))[::-1]
    return (q1 * singulars) @ q2.conj().T


def _prop_l1(trial: _Trial) -> List[Check]:
    """Pseudo-inverse identity suite on random matrices up to 16 x 16;
    every other trial forces a rank-deficient input."""
    rng = trial.rng("l1")
    n = int(rng.integers(1, 17))
    p = int(rng.integers(1, 17))
    if trial.index % 2 == 1 and min(n, p) > 1:
        r = int(rng.integers(1, min(n, p)))
        a = complex_normal(rng, n, r) @ complex_normal(rng, r, p)
    else:
        a = complex_normal(rng, n, p)
    a_pinv = pinv(a)
    left = a @ a_pinv
    right = a_pinv @ a
    scale = 1.0 + op_norm(a)
    return [
        ("outer-identity", op_norm(a @ a_pinv @ a - a) / scale),
        ("inner-identity", op_norm(a_pinv @ a @ a_pinv - a_pinv) / scale),
        ("left-projector-hermitian", op_norm(left - left.conj().T) / scale),
        ("right-projector-hermitian", op_norm(right - right.conj().T) / scale),
        ("adjoint-commutes", op_norm(pinv(a.conj().T) - a_pinv.conj().T) / scale),
        ("null-complement", op_norm(a_pinv @ range_projector(a) - a_pinv) / scale),
        ("range-complement", op_norm(corange_projector(a) - right) / scale),
    ]


def _prop_l2(trial: _Trial) -> List[Check]:
    """Factorization suite on random included pairs: the factor's squared
    norm must match the bisection scale, and kernel/range nesting must hold."""
    rng = trial.rng("l2")
    n = int(rng.integers(2, 9))
    p = int(rng.integers(1, 9))
    q = int(rng.integers(1, 9))
    rank_t = int(rng.integers(1, min(n, p) + 1))
    t_op = _conditioned_matrix(rng, n, p, rank_t)
    theta0 = complex_normal(rng, p, q)
    norm0 = op_norm(theta0)
    if norm0 > 0:
        theta0 *= rng.uniform(0.1, 3.0) / norm0
    s_op = t_op @ theta0
    theta = douglas_factor(s_op, t_op)
    lam = op_norm(theta) ** 2
    lam_b = bisect_loewner_lambda(s_op, t_op)
    checks: List[Check] = [
        ("factorization", op_norm(t_op @ theta - s_op) / (1.0 + op_norm(s_op))),
        ("min-scale", 1.0 if lam_b is None else abs(lam - lam_b) / (1.0 + lam_b)),
        (
            "kernel-match",
            0.0 if rank(s_op) == rank(theta) == rank(np.vstack([s_op, theta])) else 1.0,
        ),
        (
            "range-in-adjoint",
            0.0 if rank(np.hstack([t_op.conj().T, theta])) == rank(t_op) else 1.0,
        ),
    ]
    return checks


def _prop_l3(trial: _Trial) -> List[Check]:
    """Equivalence of the K-frame verdict with range inclusion, decided by
    two disjoint routes (rank test versus Loewner doubling), plus tightness
    of the optimal lower bound when it exists. Runs on any frame, not only
    on Parseval K-frames."""
    space, k, frame = trial.instance
    rng = trial.rng("l3")
    b = weighted_synthesis(frame)
    included = range_inclusion(k.op, b).included
    a_opt = k_lower_bound(frame, k)
    agree = included == (a_opt is not None) == loewner_inclusion_exists(k.op, b)
    checks: List[Check] = [("inclusion-agreement", 0.0 if agree else 1.0)]
    if a_opt is not None and np.isfinite(a_opt):
        s_mat = b @ b.conj().T
        for _ in range(5):
            f = complex_normal(rng, frame.dim)
            lhs = a_opt * float(np.vdot(k.adjoint @ f, k.adjoint @ f).real)
            rhs = float(np.vdot(f, s_mat @ f).real)
            checks.append(("lower-bound-holds", max(0.0, lhs - rhs) / (1.0 + rhs)))
        # Extremal probe: the lower bound must be unimprovable by 0.1 percent.
        theta = pinv(b) @ k.op
        top_left = np.linalg.svd(theta)[0][:, 0]
        f_star = pinv(b).conj().T @ top_left
        kf = k.adjoint @ f_star
        if float(np.vdot(kf, kf).real) > 0:
            lhs = a_opt * 1.001 * float(np.vdot(kf, kf).real)
            rhs = float(np.vdot(f_star, s_mat @ f_star).real)
            checks.append(("optimality-tight", 0.0 if lhs > rhs else 1.0))
    return checks


def _prop_l4(trial: _Trial) -> List[Check]:
    """Canonical dual reproduces K through the frame, and is Parseval on the
    range of the adjoint operator."""
    pk = trial.parseval
    duality = op_norm(synthesis(pk.frame) @ analysis(pk.dual) - pk.k.op) / (1.0 + pk.k.norm)
    probes = pk.corange_parseval_residuals(trial.rng("l4"), 5)
    return [("duality", duality)] + [("corange-parseval", r) for r in probes]


def _prop_l5(trial: _Trial) -> List[Check]:
    """Round trip between kernel fields and duals: building a dual from a
    kernel field and extracting its residual field recovers the field."""
    pk = trial.parseval
    space = pk.frame.space
    phi = pk.sample_kernel_field(trial.rng("l5"), pk.dual_norm)
    recovered = pk.residual_field(pk.build_dual(phi))
    phi_norm = field_norm(space, phi)
    return [
        ("field-roundtrip", field_norm(space, recovered.phi - phi) / (1.0 + phi_norm)),
        (
            "synthesis-annihilates",
            op_norm(synthesis(pk.frame) @ recovered.phi)
            / (1.0 + analysis_norm(pk.frame) * phi_norm),
        ),
    ]


def _prop_l6(trial: _Trial) -> List[Check]:
    """Minimality of the canonical dual's analysis norm among sampled duals,
    with the pointwise squared-norm split as the reason."""
    return trial.parseval.minimality_residuals(trial.rng("l6"), probes=20)


def _prop_canonical_char(trial: _Trial) -> List[Check]:
    """Gram identity characterizes the canonical dual: it passes against
    sampled partners, while any sampled perturbation fails with the canonical
    dual itself as witness."""
    pk = trial.parseval
    ok_forward = pk.characterizes(pk.dual, trials=8, seed=trial.sub_seed("canonical-char", 1))
    checks: List[Check] = [("canonical-passes", 0.0 if ok_forward else 1.0)]
    phi = pk.sample_kernel_field(trial.rng("canonical-char"), pk.dual_norm)
    if field_norm(pk.frame.space, phi) > 0:
        ok_perturbed = pk.characterizes(
            pk.build_dual(phi), trials=1, seed=trial.sub_seed("canonical-char", 2)
        )
        checks.append(("perturbed-fails", 0.0 if not ok_perturbed else 1.0))
    return checks


def _prop_t1(trial: _Trial) -> List[Check]:
    """Uniqueness dichotomy: full-rank analysis forces independently built
    duals to coincide, otherwise a verified distinct dual exists."""
    pk = trial.parseval
    space, k, frame, dual = pk.frame.space, pk.k, pk.frame, pk.dual
    checks: List[Check] = []
    if pk.is_unique():
        # Independent construction: minimal-norm solve against the weighted
        # synthesis matrix instead of applying pinv(K) to the samples.
        x_weighted = pinv(weighted_synthesis(frame)) @ k.op
        g2 = SampledFrame(space, np.conj(x_weighted / space.sqrt_weights[:, None]))
        rep = is_dual_k_bessel(g2, frame, k)
        checks.append(("minnorm-dual", rep.duality_residual / (1.0 + k.norm)))
        gap = float(np.max(np.linalg.norm(g2.samples - dual.samples, axis=1)))
        scale = 1.0 + float(np.max(np.linalg.norm(dual.samples, axis=1)))
        checks.append(("constructions-agree", gap / scale))
    else:
        q = pk.alternative_dual(seed=trial.sub_seed("t1", 1))
        rep = is_dual_k_bessel(q, frame, k)
        checks.append(("alternative-dual", rep.duality_residual / (1.0 + k.norm)))
        gap = float(np.max(np.linalg.norm(q.samples - dual.samples, axis=1)))
        checks.append(("alternative-differs", 0.0 if gap > 1e-6 else 1.0))
    return checks


def _prop_t2(trial: _Trial) -> List[Check]:
    """Independence transfers between the frame and its canonical dual; when
    independent, the frame is the push-forward of its dual through K."""
    frame_indep, dual_indep, gap = trial.parseval.independence_transfer()
    checks: List[Check] = [("independence-agreement", 0.0 if frame_indep == dual_indep else 1.0)]
    if gap is not None:
        checks.append(("pushforward-identity", gap))
    return checks


def _prop_t4(trial: _Trial) -> List[Check]:
    """Coefficient norm split: total equals residual plus canonical, because
    the residual is orthogonal to the canonical coefficients."""
    pk = trial.parseval
    space = pk.frame.space
    f = complex_normal(trial.rng("t4"), pk.frame.dim)
    canonical_values = analysis(pk.dual) @ f
    checks: List[Check] = []
    for c in pk.coefficient_family(f, count=10, seed=trial.sub_seed("t4", 1)):
        total, residual, canonical = pk.norm_split(f, c)
        checks.append(("norm-split", abs(total - residual - canonical) / (1.0 + total)))
        cross = np.sum(space.weights * (c.values - canonical_values) * np.conj(canonical_values))
        checks.append(("cross-term", abs(complex(cross)) / (1.0 + total)))
    return checks


def _prop_complement(trial: _Trial) -> List[Check]:
    """Canonical dual is Parseval on the orthogonal complement of N(K)."""
    pk = trial.parseval
    ok = pk.complement_parseval_holds(trials=5, seed=trial.sub_seed("complement-parseval", 1))
    (probe,) = pk.corange_parseval_residuals(trial.rng("complement-parseval"), 1)
    return [("complement-parseval", 0.0 if ok else 1.0), ("probe-residual", probe)]


def _prop_kdaggerk(trial: _Trial) -> List[Check]:
    """Frame operator identities for the canonical dual and its push-forward
    through K."""
    return trial.parseval.kdaggerk_residuals()


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


def run_suite(scenario: Scenario, properties: Optional[Iterable[str]] = None) -> SuiteReport:
    """Run the selected property suites over the scenario's seeded trials.

    Trials run in order; within a trial, the selected properties run in
    order on one shared instance. Output is a pure function of (scenario,
    properties): residuals agree to the last bit between repeated runs in
    one floating point environment, and verdicts agree regardless. Zero
    trials pass vacuously.
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
    for i in range(scenario.trials):
        trial = _Trial(scenario, scenario.trial_offset + i)
        for j, pid in enumerate(props):
            try:
                checks = _PROPERTY_FUNCS[pid](trial)
            except (HypothesisError, InfeasibleError) as exc:
                raise ScenarioError(f"property {pid} cannot run on this scenario: {exc}")
            for name, residual in checks:
                # The first check always becomes the worst, a non-finite one is
                # never replaced, and one replaces any finite worst: a NaN fails
                # every comparison, so ">" alone would skip it and pass.
                value, _, seen = worst[j]
                if seen < 0 or (
                    math.isfinite(value) and (residual > value or not math.isfinite(residual))
                ):
                    worst[j] = (residual, name, trial.index)
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
