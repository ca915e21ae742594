"""Tests for frame operators, bounds, classification and generators."""

import numpy as np
import pytest

from kframelab.duality import is_dual_k_bessel
from kframelab.fixtures import fixture_w1, fixture_w1_prime
from kframelab.frames import (
    FrameStack,
    FrameVerdict,
    InfeasibleError,
    KOperator,
    KStack,
    SampledFrame,
    analysis,
    analysis_norm,
    classify,
    frame_bounds,
    frame_operator,
    frames_allclose,
    generate_parseval_k_frame,
    generate_random_bessel,
    is_l2_independent,
    k_lower_bound,
    parseval_k_samples,
    parseval_residual,
    synthesis,
    synthesis_kernel_basis,
    weighted_synthesis,
)
from kframelab.hilbert import RANK_EPS, Split, _cut_ranks, op_norm, pinv, pinvs, range_inclusions, rank, ranks, svd
from kframelab.measure import MeasureSpace
from kframelab.rng import complex_normal, stream
from kframelab.scenario import scenario_from_dict
from kframelab.suites import _Chunk

import golden
from helpers import bisect_loewner, loop_frame_operator, random_space


def mercedes_benz_frame():
    angles = [2.0 * np.pi * i / 3.0 for i in range(3)]
    samples = np.array([[np.cos(a), np.sin(a)] for a in angles])
    return SampledFrame(MeasureSpace.uniform(3), samples)


class TestKOperator:
    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            KOperator(np.ones((2, 3)))

    def test_cached_parts(self):
        k = KOperator(np.diag([2.0, 0.0]))
        assert k.rank == 1
        assert k.norm == pytest.approx(2.0)
        np.testing.assert_allclose(k.pinv, np.diag([0.5, 0.0]), atol=1e-14)
        np.testing.assert_allclose(k.op @ k.pinv, np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(k.adjoint_range_projector, np.diag([1.0, 0.0]), atol=1e-14)

    def test_identity(self):
        k = KOperator.identity(3)
        assert k.rank == 3
        np.testing.assert_array_equal(k.op, np.eye(3))


class TestAnalysisSynthesis:
    def test_standard_basis_analysis(self):
        frame = SampledFrame(MeasureSpace.uniform(2), np.eye(2))
        np.testing.assert_array_equal(analysis(frame), np.eye(2))

    def test_w1_analysis_map(self):
        _, _, frame = fixture_w1()
        f = np.array([3.0 + 1j, -2.0], dtype=complex)
        coeffs = analysis(frame) @ f
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(coeffs, [s * f[0], s * f[0], 0.0])

    def test_analysis_scales_linearly(self):
        _, _, frame = fixture_w1()
        doubled = SampledFrame(frame.space, 2.0 * frame.samples)
        np.testing.assert_allclose(analysis(doubled), 2.0 * analysis(frame))

    def test_standard_basis_synthesis(self):
        frame = SampledFrame(MeasureSpace.uniform(2), np.eye(2))
        np.testing.assert_array_equal(synthesis(frame), np.eye(2))

    def test_w1_prime_synthesis(self):
        _, _, frame = fixture_w1_prime()
        x = np.array([np.sqrt(2.0), 0.0, 0.0], dtype=complex)
        np.testing.assert_allclose(synthesis(frame) @ x, [2.0, 0.0], atol=1e-15)

    def test_zero_frame_synthesis(self):
        frame = SampledFrame(MeasureSpace.uniform(3), np.zeros((3, 2)))
        np.testing.assert_array_equal(synthesis(frame), np.zeros((2, 3)))

    def test_adjointness_under_weighted_inner_product(self):
        rng = stream(31)
        for _ in range(30):
            m, d = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            space = random_space(rng, m)
            frame = SampledFrame(space, complex_normal(rng, m, d))
            f = complex_normal(rng, d)
            x = complex_normal(rng, m)
            # <Tf, x> in the weighted space versus <f, T*x> in H, where
            # <a, b> is linear in the first slot.
            lhs = np.sum(space.weights * (analysis(frame) @ f) * np.conj(x))
            rhs = np.vdot(synthesis(frame) @ x, f)
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


class TestFrameOperator:
    def test_orthonormal_basis(self):
        frame = SampledFrame(MeasureSpace.uniform(2), np.eye(2))
        np.testing.assert_allclose(frame_operator(frame), np.eye(2))

    def test_w1_rank_one(self):
        _, _, frame = fixture_w1()
        np.testing.assert_allclose(frame_operator(frame), np.diag([1.0, 0.0]), atol=1e-15)

    def test_mercedes_benz_tight(self):
        frame = mercedes_benz_frame()
        np.testing.assert_allclose(frame_operator(frame), 1.5 * np.eye(2), atol=1e-14)

    def test_matches_loop_oracle(self):
        rng = stream(17)
        for _ in range(15):
            m, d = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            space = random_space(rng, m)
            frame = SampledFrame(space, complex_normal(rng, m, d))
            oracle = loop_frame_operator(frame.samples, space.weights)
            assert op_norm(frame_operator(frame) - oracle) <= 1e-12 * (1.0 + op_norm(oracle))


class TestFrameBounds:
    def test_orthonormal_basis(self):
        bounds = frame_bounds(SampledFrame(MeasureSpace.uniform(2), np.eye(2)))
        assert bounds.lower == pytest.approx(1.0)
        assert bounds.upper == pytest.approx(1.0)

    def test_mercedes_benz(self):
        bounds = frame_bounds(mercedes_benz_frame())
        assert bounds.lower == pytest.approx(1.5)
        assert bounds.upper == pytest.approx(1.5)

    def test_w1(self):
        _, _, frame = fixture_w1()
        bounds = frame_bounds(frame)
        assert bounds.lower == pytest.approx(0.0, abs=1e-15)
        assert bounds.upper == pytest.approx(1.0)

    def test_inequality_attained_on_extreme_eigenvectors(self):
        rng = stream(23)
        for _ in range(10):
            m, d = int(rng.integers(2, 9)), int(rng.integers(2, 5))
            space = random_space(rng, m)
            frame = SampledFrame(space, complex_normal(rng, m, d))
            s = frame_operator(frame)
            s = (s + s.conj().T) / 2.0
            eigvals, eigvecs = np.linalg.eigh(s)
            bounds = frame_bounds(frame)
            an = analysis(frame)
            for f, expected in ((eigvecs[:, 0], bounds.lower), (eigvecs[:, -1], bounds.upper)):
                value = float(np.sum(space.weights * np.abs(an @ f) ** 2))
                assert abs(value - expected) <= 1e-9 * (1.0 + expected)
            # Random probes stay inside the optimal bounds.
            f = complex_normal(rng, d)
            value = float(np.sum(space.weights * np.abs(an @ f) ** 2))
            norm_sq = float(np.vdot(f, f).real)
            assert bounds.lower * norm_sq <= value + 1e-9 * (1.0 + value)
            assert value <= bounds.upper * norm_sq + 1e-9 * (1.0 + value)


class TestKLowerBound:
    def test_identity_on_orthonormal_basis(self):
        frame = SampledFrame(MeasureSpace.uniform(2), np.eye(2))
        assert k_lower_bound(frame, KOperator.identity(2)) == pytest.approx(1.0)

    def test_w1_fixture(self):
        _, k, frame = fixture_w1()
        a_opt = k_lower_bound(frame, k)
        assert a_opt == pytest.approx(1.0, rel=1e-9)
        # The reciprocal must match the bisection oracle over the Loewner test.
        lam = bisect_loewner(k.op, weighted_synthesis(frame))
        assert a_opt == pytest.approx(1.0 / lam, rel=1e-6)

    def test_absent_when_range_escapes(self):
        _, _, frame = fixture_w1()
        assert k_lower_bound(frame, KOperator.identity(2)) is None

    def test_optimal_bound_is_tight(self):
        rng = stream(41)
        for seed in range(10):
            m, d = 8, 3
            space = random_space(rng, m)
            k = KOperator(np.diag([2.0, 1.0, 0.5]))
            frame = generate_random_bessel(d, space, seed)
            a_opt = k_lower_bound(frame, k)
            assert a_opt is not None
            s = frame_operator(frame)
            for _ in range(5):
                f = complex_normal(rng, d)
                lhs = a_opt * float(np.vdot(k.adjoint @ f, k.adjoint @ f).real)
                rhs = float(np.vdot(f, s @ f).real)
                assert lhs <= rhs + 1e-9 * (1.0 + rhs)
            # Inflating the bound by 0.1 percent must break the inequality on
            # the extremal direction of the bound's defining ratio.
            from kframelab.hilbert import pinv

            b = weighted_synthesis(frame)
            theta = pinv(b) @ k.op
            f_star = pinv(b).conj().T @ np.linalg.svd(theta)[0][:, 0]
            lhs = a_opt * 1.001 * float(np.vdot(k.adjoint @ f_star, k.adjoint @ f_star).real)
            rhs = float(np.vdot(f_star, s @ f_star).real)
            assert lhs > rhs


class TestClassify:
    def test_orthonormal_basis_identity(self):
        frame = SampledFrame(MeasureSpace.uniform(2), np.eye(2))
        result = classify(frame, KOperator.identity(2))
        assert result.verdict is FrameVerdict.PARSEVAL_K_FRAME

    def test_w1_parseval(self):
        _, k, frame = fixture_w1()
        result = classify(frame, k)
        assert result.verdict is FrameVerdict.PARSEVAL_K_FRAME
        assert result.residuals["parseval_identity"] <= 1e-12

    def test_scaled_basis_tight(self):
        frame = SampledFrame(MeasureSpace.uniform(2), 2.0 * np.eye(2))
        result = classify(frame, KOperator.identity(2))
        assert result.verdict is FrameVerdict.TIGHT_K_FRAME
        assert result.bounds.lower == pytest.approx(4.0, rel=1e-9)
        assert result.bounds.upper == pytest.approx(4.0, rel=1e-9)

    def test_generic_frame(self):
        frame = SampledFrame(MeasureSpace.uniform(2), np.diag([1.0, 2.0]))
        result = classify(frame, KOperator.identity(2))
        assert result.verdict is FrameVerdict.FRAME

    def test_k_frame_only(self):
        # The samples span a plane containing R(K) but not the whole space,
        # and the optimal bounds differ, so only the K-restricted lower
        # bound survives.
        space = MeasureSpace.uniform(2)
        frame = SampledFrame(
            space, np.array([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        )
        k = KOperator(np.diag([1.0, 0.0, 0.0]))
        result = classify(frame, k)
        assert result.verdict is FrameVerdict.K_FRAME
        assert result.bounds.lower == pytest.approx(4.0, rel=1e-9)

    def test_bessel_only(self):
        _, _, frame = fixture_w1()
        result = classify(frame, KOperator.identity(2))
        assert result.verdict is FrameVerdict.BESSEL_ONLY
        assert result.bounds.lower == 0.0


@pytest.mark.parametrize(
    "routine",
    [classify, parseval_residual, k_lower_bound, lambda frame, k: is_dual_k_bessel(frame, frame, k)],
    ids=["classify", "parseval_residual", "k_lower_bound", "is_dual_k_bessel"],
)
def test_k_of_another_dimension_is_named(routine):
    # K acts on C^2, the samples lie in C^3: the error names both sizes
    # instead of numpy's failed broadcast of S against K K*.
    frame = SampledFrame(MeasureSpace.uniform(3), np.eye(3))
    with pytest.raises(ValueError, match="operator dimension 2 does not match frame dimension 3"):
        routine(frame, KOperator.identity(2))


class TestIndependence:
    def test_orthonormal_basis(self):
        assert is_l2_independent(SampledFrame(MeasureSpace.uniform(2), np.eye(2)))

    def test_w1_dependent(self):
        _, _, frame = fixture_w1()
        assert not is_l2_independent(frame)

    def test_two_nonparallel_vectors(self):
        space = MeasureSpace(np.array([0.3, 2.5]))
        frame = SampledFrame(space, np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert is_l2_independent(frame)


class TestKernelBasis:
    def test_w1_kernel(self):
        _, _, frame = fixture_w1()
        basis = synthesis_kernel_basis(frame)
        assert basis.shape == (3, 2)
        # The kernel of the synthesis map must be annihilated and span
        # the same plane as (1, -1, 0) and (0, 0, 1).
        assert op_norm(synthesis(frame) @ basis) <= 1e-12
        expected = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]) / np.array([np.sqrt(2), 1.0])
        stacked = np.hstack([basis, expected])
        assert np.linalg.matrix_rank(stacked) == 2

    def test_weighted_orthonormal_columns(self):
        rng = stream(57)
        for _ in range(10):
            m, d = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            space = random_space(rng, m)
            frame = SampledFrame(space, complex_normal(rng, m, d))
            basis = synthesis_kernel_basis(frame)
            gram = basis.conj().T @ (space.weights[:, None] * basis)
            np.testing.assert_allclose(gram, np.eye(basis.shape[1]), atol=1e-12)
            if basis.shape[1]:
                assert op_norm(synthesis(frame) @ basis) <= 1e-12


def reference_kernel_bases(frame):
    """The bases as built before they were built in place over V*: one
    basis-sized copy for the conjugate and one for the quotient."""
    b = weighted_synthesis(frame)
    _, s, vh = np.linalg.svd(b, full_matrices=True)
    r = _cut_ranks(s, b.shape)
    sqrt_w = frame.space.sqrt_weights[:, None]
    if b.ndim == 2:
        return [vh[r:].conj().T / sqrt_w]
    return [vh[t, r[t]:].conj().T / sqrt_w for t in range(b.shape[0])]


class TestKernelBasisInPlace:
    """The in-place build must give the reference expression's bases bit for
    bit, in the same memory layout, since matrix products over them can
    depend on the layout. Strides of length-1 axes address nothing and may
    differ: a one-column reference is allocated C-ordered, while the view
    keeps V*'s row stride there; products over both must agree."""

    @staticmethod
    def assert_same_bits(frame):
        built = synthesis_kernel_basis(frame)
        built = [built] if isinstance(frame, SampledFrame) else list(built)
        reference = reference_kernel_bases(frame)
        assert len(built) == len(reference)
        coeffs = complex_normal(stream(60), frame.space.atom_count, 3)
        for got, want in zip(built, reference):
            assert got.shape == want.shape
            long_axes = [n > 1 for n in want.shape]
            if want.size:
                assert np.compress(long_axes, got.strides).tolist() == np.compress(long_axes, want.strides).tolist()
            assert got.tobytes() == want.tobytes()
            assert (got @ coeffs[: got.shape[1]]).tobytes() == (want @ coeffs[: want.shape[1]]).tobytes()
            assert not got.flags.owndata  # a view of V*
        return [basis.shape[1] for basis in built]

    def test_single_frame(self):
        rng = stream(58)
        space = random_space(rng, 9)
        assert self.assert_same_bits(SampledFrame(space, complex_normal(rng, 9, 4))) == [5]

    def test_stack_with_empty_and_mixed_widths(self):
        rng = stream(59)
        space = random_space(rng, 4)
        full = complex_normal(rng, 4, 4)
        rank_two = complex_normal(rng, 4, 2) @ complex_normal(rng, 2, 4)
        rank_three = complex_normal(rng, 4, 3) @ complex_normal(rng, 3, 4)
        other_rank_two = complex_normal(rng, 4, 2) @ complex_normal(rng, 2, 4)
        samples = np.stack([full, rank_two, full, rank_three, np.zeros((4, 4)), other_rank_two])
        # A stack takes one width: mixed widths split.
        with pytest.raises(Split):
            synthesis_kernel_basis(FrameStack(space, samples))
        for members, widths in (([0, 2], [0, 0]), ([1, 5], [2, 2]), ([3], [1]), ([4], [4])):
            assert self.assert_same_bits(FrameStack(space, samples[members])) == widths
        for member in samples:
            self.assert_same_bits(SampledFrame(space, member))

    def test_near_cut_k(self):
        sc = scenario_from_dict(golden.SCENARIOS["near-cut-k"])
        space, _, frames = _Chunk(sc, range(sc.trials)).instance
        # The synthesis cut drops K's 3.16e-10 direction: width 6 of 7.
        assert self.assert_same_bits(frames) == [6] * sc.trials
        for member in frames.samples:
            self.assert_same_bits(SampledFrame(space, member))


class TestRankCut:
    @staticmethod
    def stacks():
        """K = diag(1, x, 0) and the 3 x 2 synthesis matrix of two unit-weight
        atoms in C^3, with the second singular value x one relative step
        above the cut (rank 2) and one below it (rank 1). With smax = 1 and
        three rows the cut is RANK_EPS * 1 * 3."""
        cut = RANK_EPS * 1.0 * 3
        xs = [cut * (1.0 + 1e-3), cut * (1.0 - 1e-3)]
        ks = np.stack([np.diag([1.0, x, 0.0]) for x in xs])
        frames = FrameStack(MeasureSpace.uniform(2), [[[1.0, 0.0, 0.0], [0.0, x, 0.0]] for x in xs])
        return ks, frames, [2, 1]

    def test_every_rank_consumer_applies_the_one_cut(self):
        ks, frames, expected = self.stacks()
        assert ranks(ks).tolist() == expected
        assert [KOperator(k).rank for k in ks] == [rank(k) for k in ks] == [svd(k).rank for k in ks] == expected
        singles = [SampledFrame(frames.space, samples) for samples in frames.samples]
        widths = [2 - r for r in expected]
        assert [synthesis_kernel_basis(FrameStack(frames.space, f[None])).shape[2] for f in frames.samples] == widths
        assert [synthesis_kernel_basis(frame).shape[1] for frame in singles] == widths
        independent = [r == 2 for r in expected]
        assert is_l2_independent(frames).tolist() == [is_l2_independent(f) for f in singles] == independent
        b = weighted_synthesis(frames)
        assert [int(range_inclusions(k[None], b_t[None]).rank_t[0]) for k, b_t in zip(ks, b)] == expected

    def test_stacks_of_mixed_ranks_split_and_stacks_of_one_do_not(self):
        # Each pair (K, B) is included, so the inclusion test reaches the
        # pseudo-inverse of B, whose ranks differ.
        ks, frames, _ = self.stacks()
        b = weighted_synthesis(frames)
        space = MeasureSpace(np.array([0.5, 2.0, 1.0, 1.5]))
        rngs = [stream(5, t) for t in range(2)]
        for call in (
            lambda: KStack(ks),
            lambda: pinvs(ks),
            lambda: pinvs(b),
            lambda: range_inclusions(ks, b),
            lambda: parseval_k_samples(KStack(ks), space, rngs),
        ):
            with pytest.raises(Split):
                call()
        for t in range(2):
            one = KStack(ks[t : t + 1])
            assert np.array_equal(one.pinv[0], pinv(ks[t]))
            assert np.array_equal(pinvs(b[t : t + 1])[0], pinv(b[t]))
            assert range_inclusions(ks[t : t + 1], b[t : t + 1]).included.tolist() == [True]
            samples = parseval_k_samples(one, space, [stream(7)])[0]
            assert np.array_equal(samples, generate_parseval_k_frame(KOperator(ks[t]), space, 7).samples)


class TestGenerators:
    def test_parseval_generator_soundness(self):
        rng = stream(71)
        for seed in range(25):
            d = int(rng.integers(1, 7))
            r = int(rng.integers(1, d + 1))
            m = int(rng.integers(r, 20))
            space = random_space(rng, m)
            k = KOperator(complex_normal(rng, d, r) @ complex_normal(rng, r, d))
            frame = generate_parseval_k_frame(k, space, seed)
            kk = k.op @ k.adjoint
            assert op_norm(frame_operator(frame) - kk) <= 1e-10 * (1.0 + op_norm(kk))
            assert classify(frame, k).verdict is FrameVerdict.PARSEVAL_K_FRAME

    def test_identity_generator_gives_unitary_rows(self):
        space = MeasureSpace.uniform(3)
        frame = generate_parseval_k_frame(KOperator.identity(3), space, seed=5)
        np.testing.assert_allclose(
            frame.samples.conj().T @ frame.samples, np.eye(3), atol=1e-12
        )

    def test_rank_deficient_diagonal(self):
        space = MeasureSpace.uniform(3)
        k = KOperator(np.diag([1.0, 0.0]))
        frame = generate_parseval_k_frame(k, space, seed=2)
        assert op_norm(frame_operator(frame) - np.diag([1.0, 0.0])) <= 1e-12

    def test_generator_deterministic(self):
        space = MeasureSpace.uniform(4)
        k = KOperator.identity(2)
        a = generate_parseval_k_frame(k, space, seed=9)
        b = generate_parseval_k_frame(k, space, seed=9)
        np.testing.assert_array_equal(a.samples, b.samples)
        c = generate_parseval_k_frame(k, space, seed=10)
        assert not frames_allclose(a, c)

    def test_generator_infeasible(self):
        space = MeasureSpace.uniform(1)
        with pytest.raises(InfeasibleError):
            generate_parseval_k_frame(KOperator.identity(2), space, seed=0)

    def test_bessel_generator(self):
        space = MeasureSpace.uniform(1)
        a = generate_random_bessel(1, space, seed=3)
        b = generate_random_bessel(1, space, seed=3)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.samples.shape == (1, 1)
        space6 = MeasureSpace(np.array([0.5, 1.0, 2.0, 4.0, 0.25, 1.5]))
        frame = generate_random_bessel(3, space6, seed=8)
        assert np.isfinite(frame_bounds(frame).upper)


class TestWeightedNorms:
    def test_analysis_norm_squares_to_upper_bound(self):
        rng = stream(83)
        for _ in range(10):
            m, d = int(rng.integers(1, 9)), int(rng.integers(1, 5))
            space = random_space(rng, m)
            frame = SampledFrame(space, complex_normal(rng, m, d))
            assert analysis_norm(frame) ** 2 == pytest.approx(
                frame_bounds(frame).upper, rel=1e-9, abs=1e-12
            )
