"""Dual families of a Parseval K-frame and the checks built on them.

The canonical dual applies the pseudo-inverse of K to every sample.
Every other dual differs from it by a coefficient-valued field that the
synthesis map annihilates; the routines here construct such fields,
rebuild duals from them, and verify minimality of the canonical dual,
uniqueness, independence transfer and the coefficient norm split.

The Parseval hypothesis is checked once, when a :class:`ParsevalKFrame`
is built, and fails loudly: the statements being verified are false
without it, and returning numbers anyway would fake the verification.
The routines are methods of that value; each public ``(frame, k, ...)``
function builds the value and delegates. The boolean checks pass when
every residual the suites report is within the tolerance.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from .hilbert import DEFAULT_TOL, as_operator, as_vector, op_norm, svd
from .frames import (
    InfeasibleError,
    KOperator,
    SampledFrame,
    analysis,
    analysis_norm,
    frame_operator,
    frames_allclose,
    is_l2_independent,
    parseval_residual,
    synthesis,
    synthesis_kernel_basis,
)
from .measure import L2Coefficients, bochner_integrate, l2_norm_sq, weighted_norm_sq, _require_same_space
from .rng import complex_normal, stream

__all__ = [
    "HypothesisError",
    "ParsevalKFrame",
    "DualityReport",
    "ResidualOperator",
    "IndependenceTransfer",
    "canonical_dual",
    "is_dual_k_bessel",
    "residual_operator",
    "build_dual_from_phi",
    "sample_kernel_field",
    "field_norm",
    "minimality_check",
    "canonical_characterization",
    "uniqueness_test",
    "construct_alternative_dual",
    "complement_parseval_check",
    "kdaggerk_frame_check",
    "l2_independence_transfer",
    "unique_dual_transfer",
    "pythagorean_decomposition",
    "dual_coefficient_family",
]

Check = Tuple[str, float]


class HypothesisError(ValueError):
    """A verification routine was called outside its validity domain."""


def _require_dual_pair(g: SampledFrame, f: SampledFrame) -> None:
    _require_same_space(g.space, f.space)
    if g.dim != f.dim:
        raise ValueError(f"frame dimensions differ: {g.dim} and {f.dim}")


def _within(checks: Iterable[Check], tol: float) -> bool:
    # Written as "<=" so that a NaN residual fails.
    return all(residual <= tol for _, residual in checks)


def field_norm(frame_space, phi: np.ndarray) -> float:
    """Operator norm of a pointwise field H -> L2 given by the rows of phi."""
    return op_norm(frame_space.sqrt_weights[:, None] * phi)


@dataclass(frozen=True)
class DualityReport:
    """Outcome of a duality test: G is dual when composing the synthesis of
    F with the analysis of G reproduces K."""

    is_dual: bool
    duality_residual: float
    bessel_bound_of_g: float
    analysis_norm_of_g: float


def is_dual_k_bessel(
    g: SampledFrame, f: SampledFrame, k: KOperator, tol: float = DEFAULT_TOL
) -> DualityReport:
    """Test whether G reproduces K through F, with the residual norm."""
    _require_dual_pair(g, f)
    if k.dim != f.dim:
        raise ValueError(f"operator dimension {k.dim} does not match frame dimension {f.dim}")
    residual = op_norm(synthesis(f) @ analysis(g) - k.op)
    norm_g = analysis_norm(g)
    return DualityReport(
        is_dual=residual <= tol * (1.0 + k.norm),
        duality_residual=residual,
        bessel_bound_of_g=norm_g**2,
        analysis_norm_of_g=norm_g,
    )


@dataclass(frozen=True)
class ResidualOperator:
    """Pointwise field f -> <f, G(w) - dual(w)>; the synthesis of the base
    frame annihilates it whenever G is dual."""

    space: object
    phi: np.ndarray


class IndependenceTransfer(NamedTuple):
    frame_independent: bool
    dual_independent: bool
    reconstruction_holds: Optional[bool]


def _kernel_field(
    basis: np.ndarray,
    frame: SampledFrame,
    rng: np.random.Generator,
    reference_norm: float,
    norm_band: Tuple[float, float] = (0.1, 10.0),
) -> np.ndarray:
    if basis.shape[1] == 0:
        return np.zeros((frame.space.atom_count, frame.dim), dtype=np.complex128)
    phi = basis @ complex_normal(rng, basis.shape[1], frame.dim)
    norm = field_norm(frame.space, phi)
    if norm == 0.0:
        return phi
    lo, hi = norm_band
    target = max(reference_norm, 1.0) * 10.0 ** rng.uniform(np.log10(lo), np.log10(hi))
    return phi * (target / norm)


def sample_kernel_field(
    frame: SampledFrame,
    rng: np.random.Generator,
    reference_norm: float,
    norm_band: Tuple[float, float] = (0.1, 10.0),
) -> np.ndarray:
    """Random field with synthesis(frame) @ phi = 0, scaled into a norm band
    relative to ``reference_norm``. Zero when the kernel is trivial.

    The draw is a complex Gaussian pushed through the kernel projector,
    so both small and dominant perturbations are exercised as the band
    endpoints spread.
    """
    return _kernel_field(synthesis_kernel_basis(frame), frame, rng, reference_norm, norm_band)


@dataclass(frozen=True, eq=False)
class ParsevalKFrame:
    """A sampled frame whose frame operator is K K*, checked once.

    The constructor checks the dimensions and the operator identity with
    the expression of the Parseval verdict of :func:`classify`, and raises
    :class:`HypothesisError` otherwise. The value holds the canonical dual,
    which applies the pseudo-inverse of K to every sample; the synthesis
    kernel basis is computed on first use. Every routine below runs with
    the value's tolerance.
    """

    frame: SampledFrame
    k: KOperator
    tol: float = DEFAULT_TOL
    dual: SampledFrame = field(init=False, repr=False)

    def __post_init__(self):
        frame, k = self.frame, self.k
        if k.dim != frame.dim:
            raise HypothesisError(
                f"operator dimension {k.dim} does not match frame dimension {frame.dim}"
            )
        residual = parseval_residual(frame, k)
        if not residual <= self.tol:
            raise HypothesisError(
                "the family must be a Parseval K-frame; operator identity residual "
                f"{residual:.3e} exceeds {self.tol:.1e}"
            )
        object.__setattr__(self, "dual", SampledFrame(frame.space, frame.samples @ k.pinv.T))

    @cached_property
    def kernel_basis(self) -> np.ndarray:
        """Null space basis of the synthesis map, see :func:`synthesis_kernel_basis`."""
        return synthesis_kernel_basis(self.frame)

    @cached_property
    def dual_norm(self) -> float:
        """Analysis norm of the canonical dual."""
        return analysis_norm(self.dual)

    def _require_dual(self, g: SampledFrame) -> DualityReport:
        report = is_dual_k_bessel(g, self.frame, self.k, self.tol)
        if not report.is_dual:
            raise HypothesisError(
                f"G is not a dual K-Bessel family (residual {report.duality_residual:.3e})"
            )
        return report

    def residual_field(self, g: SampledFrame) -> ResidualOperator:
        """Difference field between a dual G and the canonical dual."""
        self._require_dual(g)
        return ResidualOperator(space=self.frame.space, phi=analysis(g) - analysis(self.dual))

    def build_dual(self, phi) -> SampledFrame:
        """Rebuild a dual from a field annihilated by the synthesis map.

        Adding the conjugated rows of phi to the canonical dual leaves the
        duality identity intact exactly when synthesis(frame) @ phi = 0;
        the zero field returns the canonical dual itself.
        """
        frame = self.frame
        phi = as_operator(phi)
        if phi.shape != (frame.space.atom_count, frame.dim):
            raise ValueError(
                f"phi must have shape ({frame.space.atom_count}, {frame.dim}), got {phi.shape}"
            )
        leak = op_norm(synthesis(frame) @ phi)
        scale = 1.0 + analysis_norm(frame) * field_norm(frame.space, phi)
        if leak > self.tol * scale:
            raise HypothesisError(
                f"the synthesis map does not annihilate phi (residual {leak:.3e})"
            )
        return SampledFrame(frame.space, self.dual.samples + np.conj(phi))

    def sample_kernel_field(self, rng: np.random.Generator, reference_norm: float) -> np.ndarray:
        """:func:`sample_kernel_field` on the cached kernel basis, default norm band."""
        return _kernel_field(self.kernel_basis, self.frame, rng, reference_norm)

    def minimality_residuals(self, rng: np.random.Generator, probes: int = 20) -> List[Check]:
        """Canonical dual has the smallest analysis norm among sampled duals.

        One dual is built from a kernel field drawn from ``rng``. Then the
        pointwise split is checked: the squared coefficient norm of its
        analysis equals the canonical part plus the field part, for
        ``probes`` probe vectors.
        """
        space = self.frame.space
        phi = self.sample_kernel_field(rng, self.dual_norm)
        g = self.build_dual(phi)
        g_norm = analysis_norm(g)
        checks: List[Check] = [("minimality", max(0.0, self.dual_norm - g_norm) / (1.0 + g_norm))]
        an_g = analysis(g)
        an_dual = analysis(self.dual)
        for _ in range(int(probes)):
            f = complex_normal(rng, self.frame.dim)
            total = weighted_norm_sq(space, an_g @ f)
            canonical = weighted_norm_sq(space, an_dual @ f)
            residual = weighted_norm_sq(space, phi @ f)
            f_scale = max(1e-12, float(np.vdot(f, f).real))
            checks.append(("norm-split", abs(total - canonical - residual) / f_scale))
        return checks

    def characterizes(self, g: SampledFrame, trials: int, seed: int) -> bool:
        """Whether the Gram identity against every sampled dual holds for G.

        True exactly when G is the canonical dual (up to tolerance): the
        first sampled partner is the canonical dual itself, which is the
        witness that breaks the identity for any other dual. Zero trials
        pass vacuously.
        """
        report = self._require_dual(g)
        syn_g = synthesis(g)
        gram = syn_g @ analysis(g)
        scale = 1.0 + report.analysis_norm_of_g**2
        for t in range(int(trials)):
            if t == 0:
                partner = self.dual
            else:
                partner = self.build_dual(self.sample_kernel_field(stream(seed, t), self.dual_norm))
            if op_norm(gram - syn_g @ analysis(partner)) > self.tol * scale:
                return False
        return True

    def is_unique(self) -> bool:
        """Whether the dual family is unique: the analysis map must fill the
        whole coefficient space, i.e. have rank equal to the atom count."""
        return svd(analysis(self.frame)).rank == self.frame.space.atom_count

    def alternative_dual(self, seed: int) -> SampledFrame:
        """A verified dual different from the canonical one.

        Picks a unit coefficient function in the orthogonal complement of
        the analysis range and a unit vector h, and adds the rank-one field
        conj(alpha_i) h to the canonical dual. Orthogonality alone makes the
        result dual; infeasible when the dual is unique.
        """
        space = self.frame.space
        basis = self.kernel_basis
        if basis.shape[1] == 0:
            raise InfeasibleError("the dual family is unique; no alternative exists")
        rng = stream(seed)
        alpha = basis @ complex_normal(rng, basis.shape[1])
        alpha_norm = np.sqrt(weighted_norm_sq(space, alpha))
        if alpha_norm == 0.0:  # measure-zero draw; fall back to a basis column
            alpha = basis[:, 0]
            alpha_norm = np.sqrt(weighted_norm_sq(space, alpha))
        alpha = alpha / alpha_norm
        h = complex_normal(rng, self.frame.dim)
        h_norm = float(np.linalg.norm(h))
        if h_norm == 0.0:
            h = np.zeros(self.frame.dim, dtype=np.complex128)
            h[0] = 1.0
            h_norm = 1.0
        h = h / h_norm
        q = SampledFrame(space, self.dual.samples + np.conj(alpha)[:, None] * h[None, :])
        report = is_dual_k_bessel(q, self.frame, self.k, self.tol)
        if not report.is_dual or frames_allclose(q, self.dual, self.tol):
            raise ArithmeticError("alternative dual construction violated its guarantee")
        return q

    def corange_parseval_residuals(self, rng: np.random.Generator, count: int) -> List[float]:
        """Canonical dual acts as a Parseval frame on the orthogonal complement
        of the null space of K: relative gaps between the squared coefficient
        norm and the squared norm of ``count`` random vectors from that
        subspace."""
        an_dual = analysis(self.dual)
        out = []
        for _ in range(int(count)):
            f = self.k.adjoint_range_projector @ complex_normal(rng, self.frame.dim)
            rhs = float(np.vdot(f, f).real)
            out.append(abs(weighted_norm_sq(self.frame.space, an_dual @ f) - rhs) / (1.0 + rhs))
        return out

    def complement_parseval_holds(self, trials: int, seed: int) -> bool:
        """One corange probe per trial, each from its own stream, all within
        the tolerance."""
        return all(
            residual <= self.tol
            for t in range(int(trials))
            for residual in self.corange_parseval_residuals(stream(seed, t), 1)
        )

    def kdaggerk_residuals(self) -> List[Check]:
        """Canonical dual is Parseval for the projector pinv(K) K, and pushing it
        forward through K regenerates a Parseval K-frame."""
        k = self.k
        p = k.adjoint_range_projector
        scale = 1.0 + k.norm**2
        pushed = SampledFrame(self.frame.space, self.dual.samples @ k.op.T)
        return [
            ("dual-projector-parseval", op_norm(frame_operator(self.dual) - p @ p.conj().T) / scale),
            ("pushforward-parseval", op_norm(frame_operator(pushed) - k.op @ k.adjoint) / scale),
        ]

    def independence_transfer(self) -> Tuple[bool, bool, Optional[float]]:
        """Independence verdicts of the frame and its canonical dual, plus the
        relative gap of the samplewise identity F = K dual when the frame is
        independent (None when the identity is not asserted)."""
        frame_indep = is_l2_independent(self.frame)
        dual_indep = is_l2_independent(self.dual)
        gap = None
        if frame_indep:
            rebuilt = self.dual.samples @ self.k.op.T
            gap = float(np.max(np.linalg.norm(self.frame.samples - rebuilt, axis=1)))
            gap = gap / (1.0 + self.k.norm)
        return frame_indep, dual_indep, gap

    def _require_vector(self, f) -> np.ndarray:
        f = as_vector(f)
        if f.shape[0] != self.frame.dim:
            raise ValueError(
                f"vector dimension {f.shape[0]} does not match frame dimension {self.frame.dim}"
            )
        return f

    def norm_split(self, f, c: L2Coefficients) -> Tuple[float, float, float]:
        """Split the squared norm of reproducing coefficients into the residual
        against the canonical coefficients plus the canonical part.

        ``c`` must synthesize to K f; anything else is rejected as an invalid
        coefficient family. Returns (total, residual, canonical).
        """
        frame, k = self.frame, self.k
        f = self._require_vector(f)
        _require_same_space(frame.space, c.space)
        defect = float(np.linalg.norm(bochner_integrate(frame, c) - k.op @ f))
        if defect > self.tol * (1.0 + k.norm * float(np.linalg.norm(f))):
            raise HypothesisError(
                f"coefficients do not synthesize the operator image of f (defect {defect:.3e})"
            )
        canonical_values = analysis(self.dual) @ f
        total = l2_norm_sq(c)
        residual = weighted_norm_sq(frame.space, c.values - canonical_values)
        canonical = weighted_norm_sq(frame.space, canonical_values)
        return total, residual, canonical

    def coefficient_family(self, f, count: int, seed: int) -> List[L2Coefficients]:
        """Coefficient families that synthesize to K f, built as the canonical
        coefficients plus kernel perturbations. The first family is always the
        canonical one; later families carry seeded random kernel parts."""
        space = self.frame.space
        f = self._require_vector(f)
        canonical_values = analysis(self.dual) @ f
        scale = 1.0 + np.sqrt(weighted_norm_sq(space, canonical_values))
        basis = self.kernel_basis
        out: List[L2Coefficients] = []
        for t in range(int(count)):
            if t == 0 or basis.shape[1] == 0:
                kernel_part = np.zeros(space.atom_count, dtype=np.complex128)
            else:
                rng = stream(seed, t)
                kernel_part = scale * (basis @ complex_normal(rng, basis.shape[1]))
            out.append(L2Coefficients(space, canonical_values + kernel_part))
        return out


def canonical_dual(frame: SampledFrame, k: KOperator, tol: float = DEFAULT_TOL) -> SampledFrame:
    """Apply the pseudo-inverse of K to every sample.

    For the identity operator this collapses to the classical canonical
    dual of a Parseval frame, which is the frame itself.
    """
    return ParsevalKFrame(frame, k, tol).dual


def residual_operator(
    g: SampledFrame, f: SampledFrame, k: KOperator, tol: float = DEFAULT_TOL
) -> ResidualOperator:
    """See :meth:`ParsevalKFrame.residual_field`."""
    return ParsevalKFrame(f, k, tol).residual_field(g)


def build_dual_from_phi(
    frame: SampledFrame, k: KOperator, phi: np.ndarray, tol: float = DEFAULT_TOL
) -> SampledFrame:
    """See :meth:`ParsevalKFrame.build_dual`."""
    return ParsevalKFrame(frame, k, tol).build_dual(phi)


def minimality_check(
    frame: SampledFrame,
    k: KOperator,
    trials: int,
    seed: int,
    tol: float = DEFAULT_TOL,
    probes_per_trial: int = 20,
) -> bool:
    """Whether :meth:`ParsevalKFrame.minimality_residuals` stay within
    ``tol`` on every trial, trial t drawing from ``stream(seed, t)``. Zero
    trials pass vacuously."""
    pk = ParsevalKFrame(frame, k, tol)
    return all(
        _within(pk.minimality_residuals(stream(seed, t), probes_per_trial), tol)
        for t in range(int(trials))
    )


def canonical_characterization(
    g: SampledFrame, f: SampledFrame, k: KOperator, trials: int, seed: int, tol: float = DEFAULT_TOL
) -> bool:
    """See :meth:`ParsevalKFrame.characterizes`."""
    return ParsevalKFrame(f, k, tol).characterizes(g, trials, seed)


def uniqueness_test(frame: SampledFrame, k: KOperator, tol: float = DEFAULT_TOL) -> bool:
    """See :meth:`ParsevalKFrame.is_unique`."""
    return ParsevalKFrame(frame, k, tol).is_unique()


def construct_alternative_dual(
    frame: SampledFrame, k: KOperator, seed: int, tol: float = DEFAULT_TOL
) -> SampledFrame:
    """See :meth:`ParsevalKFrame.alternative_dual`."""
    return ParsevalKFrame(frame, k, tol).alternative_dual(seed)


def complement_parseval_check(
    frame: SampledFrame, k: KOperator, trials: int, seed: int, tol: float = DEFAULT_TOL
) -> bool:
    """See :meth:`ParsevalKFrame.complement_parseval_holds`."""
    return ParsevalKFrame(frame, k, tol).complement_parseval_holds(trials, seed)


def kdaggerk_frame_check(frame: SampledFrame, k: KOperator, tol: float = DEFAULT_TOL) -> bool:
    """Whether both :meth:`ParsevalKFrame.kdaggerk_residuals` are within ``tol``."""
    return _within(ParsevalKFrame(frame, k, tol).kdaggerk_residuals(), tol)


def l2_independence_transfer(
    frame: SampledFrame, k: KOperator, tol: float = DEFAULT_TOL
) -> IndependenceTransfer:
    """:meth:`ParsevalKFrame.independence_transfer` with the push-forward gap
    turned into a verdict against ``tol``."""
    frame_indep, dual_indep, gap = ParsevalKFrame(frame, k, tol).independence_transfer()
    return IndependenceTransfer(frame_indep, dual_indep, None if gap is None else gap <= tol)


def unique_dual_transfer(frame: SampledFrame, k: KOperator, tol: float = DEFAULT_TOL) -> bool:
    """When the dual of the frame is unique, the canonical dual must admit a
    unique dual with respect to the adjoint operator; verified by the rank
    of its analysis map."""
    pk = ParsevalKFrame(frame, k, tol)
    if not pk.is_unique():
        raise HypothesisError("the frame does not have a unique dual family")
    return svd(analysis(pk.dual)).rank == frame.space.atom_count


def pythagorean_decomposition(
    frame: SampledFrame, k: KOperator, f, c: L2Coefficients, tol: float = DEFAULT_TOL
) -> Tuple[float, float, float]:
    """See :meth:`ParsevalKFrame.norm_split`."""
    return ParsevalKFrame(frame, k, tol).norm_split(f, c)


def dual_coefficient_family(
    frame: SampledFrame, k: KOperator, f, count: int, seed: int, tol: float = DEFAULT_TOL
) -> List[L2Coefficients]:
    """See :meth:`ParsevalKFrame.coefficient_family`."""
    return ParsevalKFrame(frame, k, tol).coefficient_family(f, count, seed)
