"""Dual families of a Parseval K-frame and the checks built on them.

The canonical dual applies the pseudo-inverse of K to every sample.
Every other dual differs from it by a coefficient-valued field that the
synthesis map annihilates; the routines here construct such fields,
rebuild duals from them, and verify minimality of the canonical dual,
uniqueness, independence transfer and the coefficient norm split.

The Parseval hypothesis is checked once, when a :class:`ParsevalKFrames`
stack is built, and fails loudly: the statements being verified are
false without it, and returning numbers anyway would fake the
verification. The routines are methods of that stack and run on all its
members at once through stacked linear algebra; branches run on the
members that take them. The stack serves the suite runner and is left
out of ``__all__``; :class:`ParsevalKFrame`, its stack of one, is the
API for a single instance.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .hilbert import DEFAULT_TOL, _groups, as_operator, as_vector, op_norm, ranks, svd, vdots, vector_norms
from .frames import (
    FrameStack,
    InfeasibleError,
    KOperator,
    KStack,
    SampledFrame,
    _max_row_norm,
    analysis,
    analysis_norm,
    frame_operator,
    frames_allclose,
    is_l2_independent,
    parseval_residual,
    synthesis,
    synthesis_kernel_basis,
)
from .measure import (
    L2Coefficients,
    MeasureSpace,
    _require_same_space,
    weighted_norm_sq,
    weighted_sums,
)
from .rng import complex_normal_stack, stacked, stream, streams

__all__ = [
    "HypothesisError",
    "ParsevalKFrame",
    "DualityReport",
    "ResidualOperator",
    "is_dual_k_bessel",
    "field_norm",
]

Check = Tuple[str, float]

# Probe vectors per member of the pointwise norm split of minimality_residuals.
_MINIMALITY_PROBES = 20

# A kernel field's norm is 10**u times the analysis norm of its canonical
# dual (or 1 when that is smaller), u uniform over these decades.
_KERNEL_FIELD_DECADES = (-1.0, 1.0)


class HypothesisError(ValueError):
    """A verification routine was called outside its validity domain."""


def _require_dual_pair(g: SampledFrame, f: SampledFrame) -> None:
    _require_same_space(g.space, f.space)
    if g.dim != f.dim:
        raise ValueError(f"frame dimensions differ: {g.dim} and {f.dim}")


def _positive_part(x: np.ndarray) -> np.ndarray:
    """max(0.0, x) elementwise, as Python's max takes it: NaN gives 0."""
    return np.where(x > 0.0, x, 0.0)


def _squares(x: np.ndarray) -> np.ndarray:
    """Python's float ``** 2`` of each entry; numpy squares by multiplying,
    which can differ from ``pow`` in the last bit."""
    return np.array([v**2 for v in x.tolist()])


def check_rows(names: Sequence[str], columns: Sequence[np.ndarray]) -> List[List[Check]]:
    """Per member, the named checks whose values are the member's entries of
    the columns (one array per check, one entry per member)."""
    return [list(zip(names, row)) for row in np.stack(columns, axis=1).tolist()]


def _take(arr, idx: Optional[np.ndarray]):
    """The entries ``idx`` of an array or a list (all of them for None)."""
    if idx is None:
        return arr
    return arr[idx] if isinstance(arr, np.ndarray) else [arr[j] for j in idx]


def _where(mask: np.ndarray) -> Optional[np.ndarray]:
    """Positions where ``mask`` holds; None when it holds everywhere."""
    return None if mask.all() else np.flatnonzero(mask)


def _first(mask: np.ndarray) -> Optional[int]:
    """Position of the first entry where ``mask`` holds, or None."""
    return int(mask.argmax()) if mask.any() else None


def field_norm(frame_space, phi: np.ndarray):
    """Operator norm of a pointwise field H -> L2 given by the rows of phi;
    one norm per member for a stack of fields (n, m, d)."""
    return op_norm(frame_space.sqrt_weights[:, None] * phi)


def _duality_residual(f, g, k_op: np.ndarray):
    """Norm of synthesis(F) @ analysis(G) - K; per member for stacks."""
    return op_norm(synthesis(f) @ analysis(g) - k_op)


def _is_dual(residual, k_norm):
    """The duality verdict on a residual of :func:`_duality_residual`
    (per member for stacks); a NaN residual fails."""
    return residual <= DEFAULT_TOL * (1.0 + k_norm)


@dataclass(frozen=True)
class DualityReport:
    """Outcome of a duality test: G is dual when composing the synthesis of
    F with the analysis of G reproduces K."""

    is_dual: bool
    duality_residual: float
    bessel_bound_of_g: float
    analysis_norm_of_g: float


def is_dual_k_bessel(g: SampledFrame, f: SampledFrame, k: KOperator) -> DualityReport:
    """Test whether G reproduces K through F, with the residual norm."""
    _require_dual_pair(g, f)
    if k.dim != f.dim:
        raise ValueError(f"operator dimension {k.dim} does not match frame dimension {f.dim}")
    residual = _duality_residual(f, g, k.op)
    norm_g = analysis_norm(g)
    return DualityReport(
        is_dual=_is_dual(residual, k.norm),
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


class _KernelBases:
    """Synthesis kernel bases of the members of a stack, kept as one stack
    (n, m, width) per width, since the width varies with the rank."""

    def __init__(self, bases: Sequence[np.ndarray]):
        self.widths = np.array([b.shape[1] for b in bases], dtype=int)
        self._groups = {w: (idx, stacked([bases[i] for i in idx])) for w, idx in _groups(self.widths)}

    def basis(self, member: int) -> np.ndarray:
        idx, stack = self._groups[int(self.widths[member])]
        return stack[int(np.searchsorted(idx, member))]

    def of(self, members: Optional[np.ndarray]) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Per nonzero width among ``members`` (all for None): the width,
        the positions in ``members`` that have it, and their bases
        (len(positions), m, width)."""
        if members is None:
            yield from ((w, idx, stack) for w, (idx, stack) in self._groups.items() if w)
            return
        for w, pos in _groups(self.widths[members]):
            if w:
                idx, stack = self._groups[w]
                chosen = members[pos]
                yield w, pos, stack if np.array_equal(chosen, idx) else stack[np.searchsorted(idx, chosen)]


def _still_holding(active: Optional[np.ndarray], broken: np.ndarray, holds: np.ndarray) -> Optional[np.ndarray]:
    """Marks the ``broken`` members of ``active`` (all for None) as failed
    in ``holds`` and returns the members that go on."""
    if not broken.any():
        return active
    active = np.arange(len(holds)) if active is None else active
    holds[active[broken]] = False
    return active[~broken]


def _positions(active: Optional[np.ndarray], idx: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Members chosen by ``active`` within the members ``idx`` (None: all)."""
    if active is None:
        return idx
    return active if idx is None else idx[active]


class ParsevalKFrames:
    """Sampled frames whose frame operators are K K*, checked once, as a
    stack: member t is the frame ``frames.samples[t]`` with the operator
    ``k.op[t]``.

    The constructor checks the dimensions and the operator identity of
    every member with the expression of the Parseval verdict of
    :func:`classify`, and raises :class:`HypothesisError` for the first
    member that fails it. The stack holds the canonical duals, which apply
    the pseudo-inverse of K to every sample; the synthesis kernel bases
    are computed on first use. Every routine compares at ``DEFAULT_TOL``
    and returns one result per member. Routines that draw take
    one generator or seed per member; ``idx`` restricts a routine to some
    members, and its per-member arguments and results follow ``idx``.
    Probe loops run as one stacked product over members and probes, which
    is one matrix-vector product per probe, as the per-instance loop.
    """

    def __init__(self, frames: FrameStack, k: KStack):
        if k.dim != frames.dim:
            raise HypothesisError(
                f"operator dimension {k.dim} does not match frame dimension {frames.dim}"
            )
        residual = parseval_residual(frames, k)
        failed = _first(~(residual <= DEFAULT_TOL))
        if failed is not None:
            raise HypothesisError(
                "the family must be a Parseval K-frame; operator identity residual "
                f"{residual[failed]:.3e} exceeds {DEFAULT_TOL:.1e}"
            )
        self.frames = frames
        self.k = k
        self.duals = FrameStack(frames.space, frames.samples @ k.pinv.swapaxes(-1, -2))

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def space(self) -> MeasureSpace:
        return self.frames.space

    @cached_property
    def kernel(self) -> _KernelBases:
        """Null space bases of the synthesis maps, see :func:`synthesis_kernel_basis`."""
        return _KernelBases(synthesis_kernel_basis(self.frames))

    @cached_property
    def dual_norms(self) -> np.ndarray:
        """Analysis norms of the canonical duals."""
        return analysis_norm(self.duals)

    @cached_property
    def dual_residuals(self) -> np.ndarray:
        """Duality residuals of the canonical duals, see :meth:`duality_residuals`."""
        return _duality_residual(self.frames, self.duals, self.k.op)

    @cached_property
    def dual_analysis(self) -> np.ndarray:
        """Analysis matrices of the canonical duals."""
        return analysis(self.duals)

    @cached_property
    def frame_norms(self) -> np.ndarray:
        """Analysis norms of the frames."""
        return analysis_norm(self.frames)

    def sample_kernel_fields(self, rngs: Sequence, idx: Optional[np.ndarray] = None) -> np.ndarray:
        """Random fields (len(rngs), m, d) that the synthesis maps of the
        members ``idx`` (all for None) annihilate, scaled into a band of
        norms around the canonical duals' analysis norms. Position j draws
        from ``rngs[j]``; members with a trivial kernel get the zero field
        and draw nothing.

        The draw is a complex Gaussian pushed through the kernel basis, so
        both small and dominant perturbations are exercised as the band
        endpoints spread.
        """
        space, dim = self.space, self.frames.dim
        reference_norms = _take(self.dual_norms, idx).tolist()
        phi = np.zeros((len(rngs), space.atom_count, dim), dtype=np.complex128)
        lo, hi = _KERNEL_FIELD_DECADES
        for w, pos, bases in self.kernel.of(idx):
            draws = bases @ complex_normal_stack([rngs[j] for j in pos], w, dim)
            scale = np.ones(len(pos))
            for i, (j, norm) in enumerate(zip(pos.tolist(), field_norm(space, draws).tolist())):
                if norm != 0.0:
                    target = max(reference_norms[j], 1.0) * 10.0 ** rngs[j].uniform(lo, hi)
                    scale[i] = target / norm
            if len(pos) == len(rngs):
                return draws * scale[:, None, None]
            phi[pos] = draws * scale[:, None, None]
        return phi

    def build_duals(self, phi: np.ndarray, idx: Optional[np.ndarray] = None) -> FrameStack:
        """Rebuild duals from fields annihilated by the synthesis maps.

        Adding the conjugated rows of phi to the canonical dual leaves the
        duality identity intact exactly when synthesis(frame) @ phi = 0;
        the zero field gives the canonical dual itself.
        """
        leak = op_norm(synthesis(self.frames.subset(idx)) @ phi)
        scale = 1.0 + _take(self.frame_norms, idx) * field_norm(self.space, phi)
        failed = _first(leak > DEFAULT_TOL * scale)
        if failed is not None:
            raise HypothesisError(
                f"the synthesis map does not annihilate phi (residual {leak[failed]:.3e})"
            )
        return FrameStack(self.space, self.duals.subset(idx).samples + np.conj(phi))

    def duality_residuals(self, g: FrameStack, idx: Optional[np.ndarray] = None) -> np.ndarray:
        """Norms of synthesis(frame) @ analysis(G) - K, see :func:`is_dual_k_bessel`."""
        return _duality_residual(self.frames.subset(idx), g, _take(self.k.op, idx))

    def require_duals(self, g: FrameStack, idx: Optional[np.ndarray] = None) -> np.ndarray:
        """Duality residuals of G; raises unless every G is a dual K-Bessel family."""
        return self._required(self.duality_residuals(g, idx), idx)

    def _required(self, residual: np.ndarray, idx: Optional[np.ndarray]) -> np.ndarray:
        """``residual``, the duality residuals of G; raises unless every G is dual."""
        failed = _first(~_is_dual(residual, _take(self.k.norm, idx)))
        if failed is not None:
            raise HypothesisError(
                f"G is not a dual K-Bessel family (residual {residual[failed]:.3e})"
            )
        return residual

    def residual_fields(self, g: FrameStack) -> np.ndarray:
        """Difference fields between duals G and the canonical duals."""
        self.require_duals(g)
        return analysis(g) - self.dual_analysis

    def _probes(self, rngs: Sequence, count: int) -> np.ndarray:
        """``count`` probe vectors per member, (members, count, d)."""
        return complex_normal_stack(rngs, self.frames.dim, count=count)

    def _coefficient_norms(self, an: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Weighted squared norms of an @ f for probes f (members, count, d)."""
        return weighted_norm_sq(self.space, (an[:, None] @ f[..., None])[..., 0])

    def minimality_residuals(self, rngs: Sequence) -> List[List[Check]]:
        """Canonical dual has the smallest analysis norm among sampled duals.

        One dual is built from a kernel field drawn from each member's
        generator. Then the pointwise split is checked: the squared
        coefficient norm of its analysis equals the canonical part plus
        the field part, for 20 probe vectors (``_MINIMALITY_PROBES``).
        """
        phi = self.sample_kernel_fields(rngs)
        g = self.build_duals(phi)
        g_norm = analysis_norm(g)
        minimality = _positive_part(self.dual_norms - g_norm) / (1.0 + g_norm)
        f = self._probes(rngs, _MINIMALITY_PROBES)
        total = self._coefficient_norms(analysis(g), f)
        canonical = self._coefficient_norms(self.dual_analysis, f)
        residual = self._coefficient_norms(phi, f)
        f_sq = vdots(f, f).real
        split = abs(total - canonical - residual) / np.where(f_sq > 1e-12, f_sq, 1e-12)
        return check_rows(["minimality"] + ["norm-split"] * _MINIMALITY_PROBES, [minimality, *split.T])

    def characterizes(
        self, g: FrameStack, trials: int, seeds: Sequence[int], idx: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Whether the Gram identity against every sampled dual holds for G.

        True exactly when G is the canonical dual (up to tolerance): the
        first sampled partner is the canonical dual itself, which is the
        witness that breaks the identity for any other dual. A member
        stops at its first broken identity, and after partner 0 when its
        synthesis kernel is trivial: the canonical dual is then its only
        dual, so every later partner would repeat partner 0's comparison.
        Zero trials pass vacuously. Partner t of member j draws from
        ``stream(seeds[j], t)``.
        """
        if g is self.duals and idx is None:  # the stack's canonical duals: their cached measures
            self._required(self.dual_residuals, idx)
            norms = self.dual_norms
        else:
            self.require_duals(g, idx)
            norms = analysis_norm(g)
        syn_g = synthesis(g)
        gram = syn_g @ analysis(g)
        scale = 1.0 + _squares(norms)
        holds = np.ones(len(g), dtype=bool)
        active = None  # positions in g still holding; None: all of them
        for t in range(int(trials)):
            chosen = _positions(active, idx)
            if t == 0:
                partner = self.duals.subset(chosen)
            else:
                rngs = [stream(seed, t) for seed in _take(seeds, active)]
                partner = self.build_duals(self.sample_kernel_fields(rngs, chosen), chosen)
            gap = op_norm(_take(gram, active) - _take(syn_g, active) @ analysis(partner))
            active = _still_holding(active, gap > DEFAULT_TOL * _take(scale, active), holds)
            if t == 0 and trials > 1:
                nontrivial = _take(self.kernel.widths, _positions(active, idx)) > 0
                if not nontrivial.all():
                    active = (np.arange(len(g)) if active is None else active)[nontrivial]
            if active is not None and not active.size:
                break
        return holds

    def is_unique(self) -> np.ndarray:
        """Whether the dual family is unique: the analysis map must fill the
        whole coefficient space, i.e. have rank equal to the atom count."""
        return ranks(analysis(self.frames)) == self.space.atom_count

    def alternative_duals(
        self, seeds: Sequence[int], idx: Optional[np.ndarray] = None
    ) -> Tuple[FrameStack, np.ndarray]:
        """Verified duals different from the canonical ones, with their
        duality residuals.

        Picks a unit coefficient function in the orthogonal complement of
        the analysis range and a unit vector h, and adds the rank-one field
        conj(alpha_i) h to the canonical dual. Orthogonality alone makes the
        result dual; infeasible when the dual is unique.
        """
        space, dim = self.space, self.frames.dim
        members = np.arange(len(self)) if idx is None else idx
        if (self.kernel.widths[members] == 0).any():
            raise InfeasibleError("the dual family is unique; no alternative exists")
        rngs = [stream(seed) for seed in seeds]
        alpha = np.empty((len(members), space.atom_count), dtype=np.complex128)
        for w, pos, bases in self.kernel.of(idx):
            coeffs = complex_normal_stack([rngs[j] for j in pos], w)
            alpha[pos] = (bases @ coeffs[..., None])[..., 0]
        alpha_norm = np.sqrt(weighted_norm_sq(space, alpha))
        for j in np.flatnonzero(alpha_norm == 0.0):  # measure-zero draw; fall back to a basis column
            alpha[j] = self.kernel.basis(members[j])[:, 0]
            alpha_norm[j] = np.sqrt(weighted_norm_sq(space, alpha[j]))
        alpha = alpha / alpha_norm[:, None]
        h = complex_normal_stack(rngs, dim)
        h_norm = vector_norms(h)
        for j in np.flatnonzero(h_norm == 0.0):
            h[j] = 0.0
            h[j, 0] = 1.0
            h_norm[j] = 1.0
        h = h / h_norm[:, None]
        dual = self.duals.subset(idx)
        q = FrameStack(space, dual.samples + np.conj(alpha)[:, :, None] * h[:, None, :])
        residual = self.duality_residuals(q, idx)
        is_dual = _is_dual(residual, _take(self.k.norm, idx))
        if not is_dual.all() or frames_allclose(q, dual).any():
            raise ArithmeticError("alternative dual construction violated its guarantee")
        return q, residual

    def corange_parseval_residuals(
        self, rngs: Sequence, count: int, idx: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Canonical dual acts as a Parseval frame on the orthogonal complement
        of the null space of K: relative gaps (members, count) between the
        squared coefficient norm and the squared norm of ``count`` random
        vectors from that subspace."""
        projector = _take(self.k.adjoint_range_projector, idx)
        f = (projector[:, None] @ self._probes(rngs, count)[..., None])[..., 0]
        rhs = vdots(f, f).real
        return abs(self._coefficient_norms(_take(self.dual_analysis, idx), f) - rhs) / (1.0 + rhs)

    def complement_parseval_holds(self, trials: int, seeds: Sequence[int]) -> np.ndarray:
        """One corange probe per trial, trial t of member j drawing from
        ``stream(seeds[j], t)``, all within the tolerance; a member stops at
        its first failing probe."""
        holds = np.ones(len(self), dtype=bool)
        active = None
        for t in range(int(trials)):
            rngs = [stream(seed, t) for seed in _take(seeds, active)]
            residual = self.corange_parseval_residuals(rngs, 1, active)[:, 0]
            active = _still_holding(active, ~(residual <= DEFAULT_TOL), holds)
            if active is not None and not active.size:
                break
        return holds

    def kdaggerk_residuals(self) -> List[List[Check]]:
        """Canonical dual is Parseval for the projector pinv(K) K, and pushing it
        forward through K regenerates a Parseval K-frame."""
        k = self.k
        p = k.adjoint_range_projector
        scale = 1.0 + _squares(k.norm)
        pushed = FrameStack(self.space, self.duals.samples @ k.op.swapaxes(-1, -2))
        projector = op_norm(frame_operator(self.duals) - p @ p.conj().swapaxes(-1, -2)) / scale
        pushforward = op_norm(frame_operator(pushed) - k.op @ k.adjoint) / scale
        return check_rows(["dual-projector-parseval", "pushforward-parseval"], [projector, pushforward])

    def independence_transfer(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Independence verdicts of the frames and their canonical duals, plus
        the relative gaps of the samplewise identity F = K dual, computed
        where the frame is independent (NaN elsewhere)."""
        frame_indep = is_l2_independent(self.frames)
        dual_indep = is_l2_independent(self.duals)
        gaps = np.full(len(self), np.nan)
        if frame_indep.any():
            idx = _where(frame_indep)
            rebuilt = _take(self.duals.samples, idx) @ _take(self.k.op, idx).swapaxes(-1, -2)
            gap = _max_row_norm(_take(self.frames.samples, idx) - rebuilt) / (1.0 + _take(self.k.norm, idx))
            gaps[slice(None) if idx is None else idx] = gap
        return frame_indep, dual_indep, gaps

    def canonical_values(self, f: np.ndarray) -> np.ndarray:
        """Canonical coefficients (members, m) of vectors f (members, d)."""
        return (self.dual_analysis @ f[..., None])[..., 0]

    def norm_splits(self, f: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split the squared norms of reproducing coefficients into the
        residual against the canonical coefficients plus the canonical part,
        for vectors f (members, d) and coefficient rows (members, count, m).

        Each row must synthesize to K f; anything else is rejected as an
        invalid coefficient family. Returns (total, residual, canonical),
        each (members, count).
        """
        space, k = self.space, self.k
        image = (k.op @ f[..., None])[..., None, :, 0]
        defect = vector_norms(weighted_sums(space, self.frames.samples[:, None], values) - image)
        bound = DEFAULT_TOL * (1.0 + k.norm * vector_norms(f))
        failed = np.argwhere(defect > bound[:, None])
        if failed.size:
            raise HypothesisError(
                "coefficients do not synthesize the operator image of f "
                f"(defect {defect[tuple(failed[0])]:.3e})"
            )
        canonical_values = self.canonical_values(f)[:, None]
        total = weighted_norm_sq(space, values)
        residual = weighted_norm_sq(space, values - canonical_values)
        canonical = weighted_norm_sq(space, np.broadcast_to(canonical_values, values.shape))
        return total, residual, canonical

    def coefficient_families(self, f: np.ndarray, count: int, seeds: Sequence[int]) -> np.ndarray:
        """Coefficient families (members, count, m) that synthesize to K f,
        built as the canonical coefficients plus kernel perturbations. The
        first family is always the canonical one; family t of member j
        carries a random kernel part drawn from ``stream(seeds[j], t)``."""
        canonical_values = self.canonical_values(f)
        scale = 1.0 + np.sqrt(weighted_norm_sq(self.space, canonical_values))
        kernel_part = np.zeros((len(self), int(count), self.space.atom_count), dtype=np.complex128)
        for w, pos, bases in self.kernel.of(None) if count > 1 else ():
            tails = [(t,) for t in range(1, count)]
            rngs = [rng for j in pos for rng in streams(seeds[j], (), tails)]
            draws = complex_normal_stack(rngs, w).reshape(len(pos), count - 1, w)
            kernel_part[pos, 1:] = scale[pos, None, None] * (bases[:, None] @ draws[..., None])[..., 0]
        return canonical_values[:, None] + kernel_part


@dataclass(frozen=True, eq=False)
class ParsevalKFrame:
    """A sampled frame whose frame operator is K K*, checked once.

    The constructor checks the dimensions and the operator identity with
    the expression of the Parseval verdict of :func:`classify`, and raises
    :class:`HypothesisError` otherwise. The value holds the canonical dual,
    which applies the pseudo-inverse of K to every sample; the synthesis
    kernel basis is computed on first use. Every routine below compares at
    ``DEFAULT_TOL``, as the :class:`ParsevalKFrames` stack of one held as
    ``stack``.
    """

    frame: SampledFrame
    k: KOperator
    dual: SampledFrame = field(init=False, repr=False)
    stack: ParsevalKFrames = field(init=False, repr=False)

    def __post_init__(self):
        frame = self.frame
        stack = ParsevalKFrames(FrameStack(frame.space, frame.samples[None]), self.k.stack)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "dual", SampledFrame(frame.space, stack.duals.samples[0]))

    def _one(self, g: SampledFrame) -> FrameStack:
        _require_dual_pair(g, self.frame)
        return FrameStack(self.frame.space, g.samples[None])

    def residual_field(self, g: SampledFrame) -> ResidualOperator:
        """Difference field between a dual G and the canonical dual."""
        return ResidualOperator(space=self.frame.space, phi=self.stack.residual_fields(self._one(g))[0])

    def build_dual(self, phi) -> SampledFrame:
        """Rebuild a dual from a field annihilated by the synthesis map; see
        :meth:`ParsevalKFrames.build_duals`."""
        frame = self.frame
        phi = as_operator(phi)
        if phi.shape != (frame.space.atom_count, frame.dim):
            raise ValueError(
                f"phi must have shape ({frame.space.atom_count}, {frame.dim}), got {phi.shape}"
            )
        return SampledFrame(frame.space, self.stack.build_duals(phi[None]).samples[0])

    def sample_kernel_field(self, rng: np.random.Generator) -> np.ndarray:
        """See :meth:`ParsevalKFrames.sample_kernel_fields`."""
        return self.stack.sample_kernel_fields([rng])[0]

    def minimality_residuals(self, rng: np.random.Generator) -> List[Check]:
        """See :meth:`ParsevalKFrames.minimality_residuals`."""
        return self.stack.minimality_residuals([rng])[0]

    def characterizes(self, g: SampledFrame, trials: int, seed: int) -> bool:
        """See :meth:`ParsevalKFrames.characterizes`."""
        return bool(self.stack.characterizes(self._one(g), trials, [seed])[0])

    def is_unique(self) -> bool:
        """See :meth:`ParsevalKFrames.is_unique`."""
        return bool(self.stack.is_unique()[0])

    def unique_dual_transfer(self) -> bool:
        """When the dual of the frame is unique, the canonical dual must admit a
        unique dual with respect to the adjoint operator; verified by the rank
        of its analysis map."""
        if not self.is_unique():
            raise HypothesisError("the frame does not have a unique dual family")
        return svd(analysis(self.dual)).rank == self.frame.space.atom_count

    def alternative_dual(self, seed: int) -> SampledFrame:
        """See :meth:`ParsevalKFrames.alternative_duals`."""
        q, _ = self.stack.alternative_duals([seed])
        return SampledFrame(self.frame.space, q.samples[0])

    def corange_parseval_residuals(self, rng: np.random.Generator, count: int) -> List[float]:
        """See :meth:`ParsevalKFrames.corange_parseval_residuals`."""
        return self.stack.corange_parseval_residuals([rng], count)[0].tolist()

    def complement_parseval_holds(self, trials: int, seed: int) -> bool:
        """See :meth:`ParsevalKFrames.complement_parseval_holds`."""
        return bool(self.stack.complement_parseval_holds(trials, [seed])[0])

    def kdaggerk_residuals(self) -> List[Check]:
        """See :meth:`ParsevalKFrames.kdaggerk_residuals`."""
        return self.stack.kdaggerk_residuals()[0]

    def independence_transfer(self) -> Tuple[bool, bool, Optional[float]]:
        """Independence verdicts of the frame and its canonical dual, plus the
        relative gap of the samplewise identity F = K dual when the frame is
        independent (None when the identity is not asserted)."""
        frame_indep, dual_indep, gaps = self.stack.independence_transfer()
        return bool(frame_indep[0]), bool(dual_indep[0]), float(gaps[0]) if frame_indep[0] else None

    def _require_vector(self, f) -> np.ndarray:
        f = as_vector(f)
        if f.shape[0] != self.frame.dim:
            raise ValueError(
                f"vector dimension {f.shape[0]} does not match frame dimension {self.frame.dim}"
            )
        return f

    def norm_split(self, f, c: L2Coefficients) -> Tuple[float, float, float]:
        """See :meth:`ParsevalKFrames.norm_splits`."""
        f = self._require_vector(f)
        _require_same_space(self.frame.space, c.space)
        total, residual, canonical = self.stack.norm_splits(f[None], c.values[None, None])
        return float(total[0, 0]), float(residual[0, 0]), float(canonical[0, 0])

    def coefficient_family(self, f, count: int, seed: int) -> List[L2Coefficients]:
        """See :meth:`ParsevalKFrames.coefficient_families`."""
        f = self._require_vector(f)
        families = self.stack.coefficient_families(f[None], count, [seed])[0]
        return [L2Coefficients(self.frame.space, values) for values in families]
