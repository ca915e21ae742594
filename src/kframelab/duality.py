"""Dual families of a Parseval K-frame and the checks built on them.

The canonical dual applies the pseudo-inverse of K to every sample.
Every other dual differs from it by a coefficient-valued field that the
synthesis map annihilates; the routines here construct such fields,
rebuild duals from them, and verify minimality of the canonical dual,
uniqueness, independence transfer and the coefficient norm split.

The Parseval hypothesis is checked once, when a :class:`ParsevalKFrames`
stack is built, and fails loudly: the statements being verified are
false without it, and returning numbers anyway would fake the
verification. Every guard of the stack raises through :func:`_require`,
for the first failing member. The routines are methods of that stack and
run on all its members at once through stacked linear algebra. A routine
takes one branch for the whole stack: where its members would take
different ones (kernel widths, independence), it raises
:class:`~kframelab.hilbert.Split`, as the stacked routines of
``hilbert`` and ``frames`` do where ranks differ, and the suite runner
reruns the property on each member alone; a stack of one never splits.
The stack serves the suite runner and is left out of ``__all__``;
:class:`ParsevalKFrame`, its stack of one, is the API for a single
instance.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .hilbert import DEFAULT_TOL, _common, _norm_bounds, _norms_exceed, as_operator, as_vector, op_norm
from .hilbert import full_row_ranks, vdots, vector_norms
from .frames import (
    FrameStack,
    InfeasibleError,
    KOperator,
    KStack,
    SampledFrame,
    _kernel_bases,
    _max_row_norm,
    analysis,
    analysis_norm,
    frame_operator,
    frames_allclose,
    is_l2_independent,
    parseval_residual,
    synthesis,
)
from .measure import (
    L2Coefficients,
    MeasureSpace,
    _require_same_space,
    weighted_norm_sq,
    weighted_sums,
)
from .rng import Streams, complex_normal_stack, complex_parts, member_draws

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

# Stacked arrays stay within about this many bytes: the suite runner's
# trials per chunk, and the partners per pass of ``characterizes``.
_CHUNK_BYTES = 1 << 22

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


class CheckTable(NamedTuple):
    """Named checks of a stack's members: ``residuals[i, c]`` is member i's
    residual of check ``names[c]``. The members take one branch, so every
    member takes every check of the table."""

    names: Sequence[str]
    residuals: np.ndarray

    def row(self, i: int) -> List[Check]:
        """Member i's checks, in column order."""
        return list(zip(self.names, self.residuals[i].tolist()))

    def worst(self) -> Tuple[float, str, int]:
        """(residual, check, member) of the first non-finite entry in
        (member, check) order, else of the first largest one. Folding the
        entries in that order by the runner's rule ends there."""
        res, bad = self.residuals, ~np.isfinite(self.residuals)
        k = bad.argmax()  # the first True, or a False when there is none
        flat = k if bad.flat[k] else res.argmax()
        i, c = divmod(int(flat), res.shape[1])
        return float(res[i, c]), self.names[c], i


def _require(fails: np.ndarray, values: np.ndarray, message: str) -> None:
    """Raises :class:`HypothesisError` for the first entry, in row-major
    order, where ``fails`` holds: ``message`` formatted with its value."""
    if fails.any():
        raise HypothesisError(message.format(values.flat[fails.argmax()]))


def field_norm(frame_space, phi: np.ndarray):
    """Operator norm of a pointwise field H -> L2 given by the rows of phi;
    one norm per member for a stack of fields (n, m, d)."""
    return op_norm(frame_space.sqrt_weights[:, None] * phi)


def _duality_gap(f, g, k_op: np.ndarray) -> np.ndarray:
    """synthesis(F) @ analysis(G) - K; per member for stacks."""
    return synthesis(f) @ analysis(g) - k_op


def _is_dual(residual, k_norm):
    """The duality verdict on the norm of a :func:`_duality_gap` (per
    member for stacks); a NaN residual fails."""
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
    residual = op_norm(_duality_gap(f, g, k.op))
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
    and returns one result per member, and raises
    :class:`~kframelab.hilbert.Split` where the members would take
    different branches. Routines that draw take one
    generator or seed per member. Probe loops run as one stacked product
    over members and probes, which is one matrix-vector product per probe,
    as the per-instance loop.
    """

    def __init__(self, frames: FrameStack, k: KStack):
        if k.dim != frames.dim:
            raise HypothesisError(
                f"operator dimension {k.dim} does not match frame dimension {frames.dim}"
            )
        residual = parseval_residual(frames, k)
        _require(
            ~(residual <= DEFAULT_TOL),
            residual,
            f"the family must be a Parseval K-frame; operator identity residual {{:.3e}} exceeds {DEFAULT_TOL:.1e}",
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
    def kernel(self) -> np.ndarray:
        """Null space bases (n, m, width) of the synthesis maps B, see
        :func:`synthesis_kernel_basis`, cut to their last m - max(rank B,
        rank K) columns (none below 0), the one kernel width of the stack.
        B B* = K K*, so the ranks differ only near the rank cut, where the
        dropped columns are directions K keeps. Members of different widths
        raise :class:`~kframelab.hilbert.Split`.

        The bases are one view of the rows of the SVD's V* stack and keep
        the whole V* of the build alive."""
        return _kernel_bases(self.frames, self.k.rank)

    @property
    def width(self) -> int:
        """The members' one kernel width, see :attr:`kernel`."""
        return self.kernel.shape[2]

    @cached_property
    def dual_norms(self) -> np.ndarray:
        """Analysis norms of the canonical duals."""
        return analysis_norm(self.duals)

    @cached_property
    def dual_analysis(self) -> np.ndarray:
        """Analysis matrices of the canonical duals."""
        return analysis(self.duals)

    @cached_property
    def frame_norms(self) -> np.ndarray:
        """Analysis norms of the frames."""
        return analysis_norm(self.frames)

    def sample_kernel_fields(self, rngs: Sequence) -> np.ndarray:
        """Random fields (len(rngs), m, d) that the synthesis maps annihilate,
        scaled into a band of norms around the canonical duals' analysis
        norms. Field i belongs to member i mod n and draws from ``rngs[i]``,
        so c fields per member come as c blocks of n; a trivial kernel gives
        the zero fields and draws nothing.

        The draw is a complex Gaussian pushed through the kernel basis, so
        both small and dominant perturbations are exercised as the band
        endpoints spread. The kernel bases broadcast over the blocks.
        """
        return self._kernel_fields(rngs)[0]

    def _kernel_fields(self, rngs: Sequence, *then) -> List[np.ndarray]:
        """:meth:`sample_kernel_fields`, then each member's draws of
        ``then`` (see :func:`~kframelab.rng.member_draws`): a member draws
        its normals, its decade and then the rest in one visit."""
        space, dim, w, n = self.space, self.frames.dim, self.width, len(self)
        if not w:
            return [np.zeros((len(rngs), space.atom_count, dim), dtype=np.complex128), *member_draws(rngs, *then)]
        lo, hi = _KERNEL_FIELD_DECADES
        raw, decades, *rest = member_draws(
            rngs, lambda rng: rng.standard_normal((2, w, dim)), lambda rng: rng.uniform(lo, hi), *then
        )
        draws = (self.kernel @ complex_parts(raw).reshape(-1, n, w, dim)).reshape(len(rngs), -1, dim)
        norms = self.dual_norms.tolist() * (len(rngs) // n)
        target = [max(norm, 1.0) * 10.0**u for norm, u in zip(norms, decades.tolist())]
        scale = np.array(target) / field_norm(space, draws)
        return [draws * scale[:, None, None], *rest]

    def build_duals(self, phi: np.ndarray) -> FrameStack:
        """Rebuild duals from fields annihilated by the synthesis maps.

        Adding the conjugated rows of phi to the canonical dual leaves the
        duality identity intact exactly when synthesis(frame) @ phi = 0;
        the zero field gives the canonical dual itself. Field i belongs to
        member i mod n, see :meth:`sample_kernel_fields`. The leak check
        takes the norms of synthesis(frame) @ phi and of the field only
        where a bound leaves its verdict open, see :func:`_norms_exceed`:
        ``field_norm(phi)`` is at least phi's largest weighted column norm.
        """
        frame_norms = np.tile(self.frame_norms, len(phi) // len(self))
        blocks = phi.reshape(-1, len(self), *phi.shape[1:])
        floor = DEFAULT_TOL * (1.0 + frame_norms * _norm_bounds(self.space.sqrt_weights[:, None] * phi)[0])
        fails, leak = _norms_exceed(
            (synthesis(self.frames) @ blocks).reshape(len(phi), self.frames.dim, -1),
            floor,
            lambda norm, j: norm > DEFAULT_TOL * (1.0 + frame_norms[j] * field_norm(self.space, phi[j])),
        )
        _require(fails, leak, "the synthesis map does not annihilate phi (residual {:.3e})")
        return FrameStack(self.space, (self.duals.samples + np.conj(blocks)).reshape(phi.shape))

    def duality_residuals(self, g: FrameStack) -> np.ndarray:
        """Norms of synthesis(frame) @ analysis(G) - K, see :func:`is_dual_k_bessel`."""
        return op_norm(_duality_gap(self.frames, g, self.k.op))

    def require_duals(self, g: FrameStack) -> None:
        """Raises unless every G is a dual K-Bessel family. The duality
        residual, see :meth:`duality_residuals`, is taken only where a
        bound leaves the verdict open, see :func:`_norms_exceed`."""
        k_norm = self.k.norm
        gap = _duality_gap(self.frames, g, self.k.op)
        fails, residual = _norms_exceed(gap, DEFAULT_TOL * (1.0 + k_norm), lambda norm, j: ~_is_dual(norm, k_norm[j]))
        _require(fails, residual, "G is not a dual K-Bessel family (residual {:.3e})")

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

    def minimality_residuals(self, rngs: Sequence) -> CheckTable:
        """Canonical dual has the smallest analysis norm among sampled duals.

        One dual is built from a kernel field drawn from each member's
        generator. Then the pointwise split is checked: the squared
        coefficient norm of its analysis equals the canonical part plus
        the field part, for 20 probe vectors (``_MINIMALITY_PROBES``),
        which each member draws after its field.
        """
        phi, f = self._kernel_fields(rngs, lambda rng: rng.standard_normal((_MINIMALITY_PROBES, 2, self.frames.dim)))
        g = self.build_duals(phi)
        g_norm = analysis_norm(g)
        minimality = _positive_part(self.dual_norms - g_norm) / (1.0 + g_norm)
        f = complex_parts(f.swapaxes(1, 2))
        total = self._coefficient_norms(analysis(g), f)
        canonical = self._coefficient_norms(self.dual_analysis, f)
        residual = self._coefficient_norms(phi, f)
        f_sq = vdots(f, f).real
        split = abs(total - canonical - residual) / np.where(f_sq > 1e-12, f_sq, 1e-12)
        return CheckTable(["minimality"] + ["norm-split"] * _MINIMALITY_PROBES, np.column_stack([minimality, split]))

    def characterizes(self, g: FrameStack, trials: int, seeds: Sequence[int]) -> np.ndarray:
        """Whether the Gram identity against every sampled dual holds for G.

        True exactly when G is the canonical dual (up to tolerance): the
        first sampled partner is the canonical dual itself, which is the
        witness that breaks the identity for any other dual. The later
        partners run when every member held against it and the synthesis
        kernel is nontrivial: otherwise the canonical dual is the only
        dual, and every later partner would repeat partner 0's comparison.
        Members that disagree on partner 0 raise ``Split``. Zero
        trials pass vacuously. Partner t of member j draws from
        ``stream(seeds[j], t)``. The later partners run as one stack per
        pass, within ``_CHUNK_BYTES`` at 128 m d bytes per partner and
        member; the first that leaks raises, as it would one at a time.
        """
        self.require_duals(g)
        norms = self.dual_norms if g is self.duals else analysis_norm(g)
        if trials < 1:
            return np.ones(len(g), dtype=bool)
        syn_g = synthesis(g)
        gram = syn_g @ analysis(g)
        scale = 1.0 + _squares(norms)
        holds = ~(op_norm(gram - syn_g @ self.dual_analysis) > DEFAULT_TOL * scale)
        if trials == 1 or not self.width or not _common(holds):
            return holds
        n, m, d = self.frames.samples.shape
        per_pass = max(1, _CHUNK_BYTES // (128 * m * d * n))
        for first in range(1, int(trials), per_pass):
            ts = range(first, min(first + per_pass, int(trials)))
            rngs = Streams((seed, (), (t,)) for t in ts for seed in seeds)
            partners = self.build_duals(self.sample_kernel_fields(rngs))
            gaps = op_norm(gram - syn_g @ analysis(partners).reshape(len(ts), n, m, d))
            holds &= ~(gaps > DEFAULT_TOL * scale).any(axis=0)
        return holds

    def alternative_duals(self, seeds: Sequence[int]) -> Tuple[FrameStack, np.ndarray]:
        """Verified duals different from the canonical ones, with their
        duality residuals.

        Picks a unit coefficient function in the orthogonal complement of
        the analysis range and a unit vector h, and adds the rank-one field
        conj(alpha_i) h to the canonical dual. Orthogonality alone makes the
        result dual; infeasible when the dual is unique. Member j draws
        alpha's normals and then h's from ``stream(seeds[j])``.
        """
        space, w, dim = self.space, self.width, self.frames.dim
        if not w:
            raise InfeasibleError("the dual family is unique; no alternative exists")
        rngs = Streams((seed, (), ()) for seed in seeds)
        draws = member_draws(rngs, lambda rng: rng.standard_normal((2, w)), lambda rng: rng.standard_normal((2, dim)))
        alpha, h = map(complex_parts, draws)
        alpha = (self.kernel @ alpha[..., None])[..., 0]
        alpha = alpha / np.sqrt(weighted_norm_sq(space, alpha))[:, None]
        h = h / vector_norms(h)[:, None]
        q = FrameStack(space, self.duals.samples + np.conj(alpha)[:, :, None] * h[:, None, :])
        residual = self.duality_residuals(q)
        if not _is_dual(residual, self.k.norm).all() or frames_allclose(q, self.duals).any():
            raise ArithmeticError("alternative dual construction violated its guarantee")
        return q, residual

    def _corange_gaps(self, vectors: np.ndarray) -> np.ndarray:
        """Relative gaps (members, count) between the squared canonical
        coefficient norm and the squared norm of the projections of vectors
        (members, count, d) onto the orthogonal complement of N(K)."""
        f = (self.k.adjoint_range_projector[:, None] @ vectors[..., None])[..., 0]
        rhs = vdots(f, f).real
        return abs(self._coefficient_norms(self.dual_analysis, f) - rhs) / (1.0 + rhs)

    def corange_parseval_residuals(self, rngs: Sequence, count: int) -> np.ndarray:
        """Canonical dual acts as a Parseval frame on the orthogonal complement
        of the null space of K: relative gaps (members, count) between the
        squared coefficient norm and the squared norm of ``count`` random
        vectors from that subspace."""
        return self._corange_gaps(self._probes(rngs, count))

    def complement_parseval_holds(self, trials: int, seeds: Sequence[int]) -> np.ndarray:
        """One corange probe per trial, trial t of member j drawing from
        ``stream(seeds[j], t)``, all within the tolerance. The probes of
        every member and trial are drawn and compared in one pass."""
        trials = int(trials)
        rngs = Streams((seed, (), (t,)) for seed in seeds for t in range(trials))
        probes = self._probes(rngs, 1).reshape(len(self), trials, self.frames.dim)
        return (self._corange_gaps(probes) <= DEFAULT_TOL).all(axis=1)

    def kdaggerk_residuals(self) -> CheckTable:
        """Canonical dual is Parseval for the projector pinv(K) K, and pushing it
        forward through K regenerates a Parseval K-frame."""
        k = self.k
        p = k.adjoint_range_projector
        scale = 1.0 + _squares(k.norm)
        pushed = FrameStack(self.space, self.duals.samples @ k.op.swapaxes(-1, -2))
        projector = op_norm(frame_operator(self.duals) - p @ p.conj().swapaxes(-1, -2)) / scale
        pushforward = op_norm(frame_operator(pushed) - k.op @ k.adjoint) / scale
        names = ["dual-projector-parseval", "pushforward-parseval"]
        return CheckTable(names, np.column_stack([projector, pushforward]))

    def independence_transfer(self) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Independence verdicts of the frames and their canonical duals, plus
        the relative gaps of the samplewise identity F = K dual when the
        frames are independent (None when they are dependent)."""
        frame_indep = is_l2_independent(self.frames)
        dual_indep = is_l2_independent(self.duals)
        if not _common(frame_indep):
            return frame_indep, dual_indep, None
        rebuilt = self.duals.samples @ self.k.op.swapaxes(-1, -2)
        return frame_indep, dual_indep, _max_row_norm(self.frames.samples - rebuilt) / (1.0 + self.k.norm)

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
        _require(defect > bound[:, None], defect, "coefficients do not synthesize the operator image of f (defect {:.3e})")
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
        if count > 1 and self.width:
            tails = [(t,) for t in range(1, count)]
            rngs = Streams((seed, (), tail) for seed in seeds for tail in tails)
            draws = complex_normal_stack(rngs, self.width).reshape(len(self), count - 1, self.width)
            kernel_part[:, 1:] = scale[:, None, None] * (self.kernel[:, None] @ draws[..., None])[..., 0]
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
        return self.stack.minimality_residuals([rng]).row(0)

    def characterizes(self, g: SampledFrame, trials: int, seed: int) -> bool:
        """See :meth:`ParsevalKFrames.characterizes`."""
        return bool(self.stack.characterizes(self._one(g), trials, [seed])[0])

    def is_unique(self) -> bool:
        """Whether the dual family is unique: every other dual adds a nonzero
        field the synthesis map annihilates, so the kernel width of the
        stack (:attr:`ParsevalKFrames.width`) is 0."""
        return self.stack.width == 0

    def unique_dual_transfer(self) -> bool:
        """When the dual of the frame is unique, the canonical dual must admit a
        unique dual with respect to the adjoint operator; verified by the rank
        of its analysis map."""
        if not self.is_unique():
            raise HypothesisError("the frame does not have a unique dual family")
        return full_row_ranks(analysis(self.dual))

    def alternative_dual(self, seed: int) -> SampledFrame:
        """See :meth:`ParsevalKFrames.alternative_duals`."""
        q, _ = self.stack.alternative_duals([seed])
        return SampledFrame(self.frame.space, q.samples[0])

    def complement_parseval_holds(self, trials: int, seed: int) -> bool:
        """See :meth:`ParsevalKFrames.complement_parseval_holds`."""
        return bool(self.stack.complement_parseval_holds(trials, [seed])[0])

    def kdaggerk_residuals(self) -> List[Check]:
        """See :meth:`ParsevalKFrames.kdaggerk_residuals`."""
        return self.stack.kdaggerk_residuals().row(0)

    def independence_transfer(self) -> Tuple[bool, bool, Optional[float]]:
        """Independence verdicts of the frame and its canonical dual, plus the
        relative gap of the samplewise identity F = K dual when the frame is
        independent (None when the identity is not asserted)."""
        frame_indep, dual_indep, gaps = self.stack.independence_transfer()
        return bool(frame_indep[0]), bool(dual_indep[0]), None if gaps is None else float(gaps[0])

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
