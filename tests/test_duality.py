"""Tests for canonical duals and the checks built on them."""

import numpy as np
import pytest

from kframelab import duality
from kframelab.duality import (
    HypothesisError,
    ParsevalKFrame,
    ParsevalKFrames,
    field_norm,
    is_dual_k_bessel,
)
from kframelab.fixtures import fixture_w1, fixture_w1_prime
from kframelab.frames import (
    FrameStack,
    InfeasibleError,
    KOperator,
    KStack,
    SampledFrame,
    analysis,
    analysis_norm,
    frame_operator,
    frames_allclose,
    parseval_k_samples,
    synthesis,
)
from kframelab.hilbert import DEFAULT_TOL, op_norm
from kframelab.measure import L2Coefficients, MeasureSpace, bochner_integrate, l2_inner, l2_norm_sq
from kframelab.rng import complex_normal, stream

from helpers import parseval_instance


def orthonormal_instance(d=3):
    space = MeasureSpace.uniform(d)
    return space, KOperator.identity(d), SampledFrame(space, np.eye(d))


def w1_alternative_pair():
    """The hand-checkable alternative dual of W1: alpha = (1,-1,0)/sqrt2 in
    the complement of the analysis range, h = e2."""
    space, k, frame = fixture_w1()
    dual = ParsevalKFrame(frame, k).dual
    s = 1.0 / np.sqrt(2.0)
    alpha = np.array([s, -s, 0.0], dtype=complex)
    h = np.array([0.0, 1.0], dtype=complex)
    g_alpha = np.conj(alpha)[:, None] * h[None, :]
    q = SampledFrame(space, dual.samples + g_alpha)
    return space, k, frame, dual, q, g_alpha


class TestCanonicalDual:
    def test_identity_operator_returns_frame(self):
        space, k, frame = orthonormal_instance()
        dual = ParsevalKFrame(frame, k).dual
        np.testing.assert_allclose(dual.samples, frame.samples, atol=1e-14)

    def test_w1_prime_samples(self):
        _, k, frame = fixture_w1_prime()
        dual = ParsevalKFrame(frame, k).dual
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(
            dual.samples, [[s, 0.0], [s, 0.0], [0.0, 0.0]], atol=1e-14
        )

    def test_w1_samples_unchanged(self):
        _, k, frame = fixture_w1()
        dual = ParsevalKFrame(frame, k).dual
        np.testing.assert_allclose(dual.samples, frame.samples, atol=1e-14)

    def test_rejects_non_parseval(self):
        space = MeasureSpace.uniform(2)
        frame = SampledFrame(space, 2.0 * np.eye(2))
        with pytest.raises(HypothesisError, match="Parseval"):
            ParsevalKFrame(frame, KOperator.identity(2))


class TestParsevalKFrame:
    def test_rejects_non_parseval_and_mismatched_dimensions(self):
        space = MeasureSpace.uniform(2)
        with pytest.raises(HypothesisError, match="Parseval"):
            ParsevalKFrame(SampledFrame(space, 2.0 * np.eye(2)), KOperator.identity(2))
        with pytest.raises(HypothesisError, match="dimension"):
            ParsevalKFrame(SampledFrame(space, np.eye(2)), KOperator.identity(3))

    def test_kernel_basis_computed_at_most_once(self, monkeypatch):
        calls = []
        original = duality.synthesis_kernel_basis

        def counted(frame):
            calls.append(frame)
            return original(frame)

        monkeypatch.setattr(duality, "synthesis_kernel_basis", counted)
        _, k, frame = fixture_w1()
        pk = ParsevalKFrame(frame, k)
        assert calls == []
        pk.alternative_dual(seed=1)
        pk.coefficient_family(np.array([1.0, 0.0]), count=3, seed=2)
        pk.minimality_residuals(stream(3))
        assert pk.characterizes(pk.dual, trials=3, seed=4)
        assert len(calls) == 1


class TestIsDualKBessel:
    def test_w1_prime_hand_sum(self):
        _, k, frame = fixture_w1_prime()
        dual = ParsevalKFrame(frame, k).dual
        report = is_dual_k_bessel(dual, frame, k)
        assert report.is_dual
        assert report.duality_residual <= 1e-12
        assert report.bessel_bound_of_g == pytest.approx(1.0, rel=1e-12)
        assert report.analysis_norm_of_g == pytest.approx(1.0, rel=1e-12)

    def test_zero_candidate_fails(self):
        _, k, frame = fixture_w1_prime()
        zero = SampledFrame(frame.space, np.zeros_like(frame.samples))
        assert not is_dual_k_bessel(zero, frame, k).is_dual

    def test_generated_instances(self):
        for seed in range(8):
            _, k, frame = parseval_instance(seed)
            dual = ParsevalKFrame(frame, k).dual
            report = is_dual_k_bessel(dual, frame, k)
            assert report.is_dual
            assert report.duality_residual <= 1e-9 * (1.0 + k.norm)


class TestResidualOperator:
    def test_canonical_dual_gives_zero_field(self):
        _, k, frame = fixture_w1_prime()
        pk = ParsevalKFrame(frame, k)
        rep = pk.residual_field(pk.dual)
        assert field_norm(frame.space, rep.phi) <= 1e-12

    def test_w1_alternative_field(self):
        space, k, frame, dual, q, g_alpha = w1_alternative_pair()
        rep = ParsevalKFrame(frame, k).residual_field(q)
        np.testing.assert_allclose(rep.phi, np.conj(g_alpha), atol=1e-12)
        assert op_norm(synthesis(frame) @ rep.phi) <= 1e-12

    def test_rejects_non_dual(self):
        _, k, frame = fixture_w1_prime()
        bad = SampledFrame(frame.space, frame.samples)  # frame itself is not dual here
        with pytest.raises(HypothesisError, match="dual"):
            ParsevalKFrame(frame, k).residual_field(bad)


class TestBuildDualFromPhi:
    def test_zero_field_returns_canonical(self):
        _, k, frame = fixture_w1_prime()
        pk = ParsevalKFrame(frame, k)
        rebuilt = pk.build_dual(np.zeros((3, 2)))
        assert frames_allclose(rebuilt, pk.dual)

    def test_round_trip_on_generated_instances(self):
        for seed in range(8):
            _, k, frame = parseval_instance(seed)
            pk = ParsevalKFrame(frame, k)
            rng = stream(seed, 500)
            phi = pk.sample_kernel_field(rng)
            g = pk.build_dual(phi)
            assert is_dual_k_bessel(g, frame, k).is_dual
            recovered = pk.residual_field(g)
            assert field_norm(frame.space, recovered.phi - phi) <= 1e-9 * (
                1.0 + field_norm(frame.space, phi)
            )

    def test_rejects_field_outside_kernel(self):
        _, k, frame = fixture_w1_prime()
        phi = analysis(frame)  # synthesis(frame) @ analysis(frame) = S != 0
        with pytest.raises(HypothesisError, match="annihilate"):
            ParsevalKFrame(frame, k).build_dual(phi)


class TestMinimality:
    def test_w1_alternative_dual_norms(self):
        space, k, frame, dual, q, g_alpha = w1_alternative_pair()
        # By direct computation both analysis norms are 1 here, and the
        # pointwise split holds with the alpha part contributing |f_2|^2.
        assert analysis_norm(dual) <= analysis_norm(q) + 1e-12
        rng = stream(11)
        phi = np.conj(g_alpha)
        for _ in range(10):
            f = complex_normal(rng, 2)
            total = float(np.sum(space.weights * np.abs(analysis(q) @ f) ** 2))
            canonical = float(np.sum(space.weights * np.abs(analysis(dual) @ f) ** 2))
            extra = float(np.sum(space.weights * np.abs(phi @ f) ** 2))
            assert total == pytest.approx(canonical + extra, abs=1e-12)
            assert extra == pytest.approx(abs(f[1]) ** 2, abs=1e-12)

    def test_generated_instances(self):
        for seed in range(6):
            _, k, frame = parseval_instance(seed)
            pk = ParsevalKFrame(frame, k)
            for t in range(5):
                assert max(r for _, r in pk.minimality_residuals(stream(seed + 100, t))) <= DEFAULT_TOL


class TestCanonicalCharacterization:
    def test_zero_trials_vacuous(self):
        _, k, frame = fixture_w1()
        pk = ParsevalKFrame(frame, k)
        assert pk.characterizes(pk.dual, trials=0, seed=1)

    def test_canonical_passes(self):
        for seed in range(5):
            _, k, frame = parseval_instance(seed)
            pk = ParsevalKFrame(frame, k)
            assert pk.characterizes(pk.dual, trials=6, seed=seed)

    def test_perturbed_fails_with_canonical_witness(self):
        space, k, frame, dual, q, g_alpha = w1_alternative_pair()
        # One trial probes the canonical dual itself, which is the witness:
        # the Gram gap equals the squared field norm of the perturbation.
        assert not ParsevalKFrame(frame, k).characterizes(q, trials=1, seed=2)
        phi = np.conj(g_alpha)
        gap = op_norm(synthesis(q) @ analysis(q) - synthesis(q) @ analysis(dual))
        assert gap == pytest.approx(field_norm(space, phi) ** 2, rel=1e-12)

    def test_rejects_non_dual(self):
        _, k, frame = fixture_w1_prime()
        with pytest.raises(HypothesisError, match="dual"):
            ParsevalKFrame(frame, k).characterizes(frame, trials=1, seed=0)


class TestUniqueness:
    def test_orthonormal_basis_unique(self):
        space, k, frame = orthonormal_instance()
        assert ParsevalKFrame(frame, k).is_unique()

    def test_w1_not_unique(self):
        _, k, frame = fixture_w1()
        assert not ParsevalKFrame(frame, k).is_unique()

    def test_more_atoms_than_dimensions_never_unique(self):
        for seed in range(5):
            _, k, frame = parseval_instance(seed, dim=3, rank=2, atoms=7)
            assert not ParsevalKFrame(frame, k).is_unique()


class TestConstructAlternativeDual:
    def test_w1_alternative(self):
        _, k, frame = fixture_w1()
        pk = ParsevalKFrame(frame, k)
        q = pk.alternative_dual(seed=5)
        assert is_dual_k_bessel(q, frame, k).is_dual
        assert not frames_allclose(q, pk.dual)
        gap = float(np.max(np.linalg.norm(q.samples - pk.dual.samples, axis=1)))
        assert gap > 1e-6

    def test_seed_variation_still_dual(self):
        _, k, frame = fixture_w1()
        pk = ParsevalKFrame(frame, k)
        for seed in (1, 2, 3):
            q = pk.alternative_dual(seed=seed)
            assert is_dual_k_bessel(q, frame, k).is_dual

    def test_infeasible_when_unique(self):
        space, k, frame = orthonormal_instance()
        with pytest.raises(InfeasibleError):
            ParsevalKFrame(frame, k).alternative_dual(seed=1)


class TestComplementParseval:
    def test_w1_prime_hand_values(self):
        space, k, frame = fixture_w1_prime()
        dual = ParsevalKFrame(frame, k).dual
        an = analysis(dual)
        f = np.array([1.0, 0.0], dtype=complex)  # in the complement of N(K)
        total = float(np.sum(space.weights * np.abs(an @ f) ** 2))
        assert total == pytest.approx(1.0, rel=1e-12)
        f_null = np.array([0.0, 1.0], dtype=complex)  # inside N(K)
        total_null = float(np.sum(space.weights * np.abs(an @ f_null) ** 2))
        assert total_null == pytest.approx(0.0, abs=1e-15)

    def test_generated_instances(self):
        for seed in range(6):
            _, k, frame = parseval_instance(seed)
            assert ParsevalKFrame(frame, k).complement_parseval_holds(trials=5, seed=seed)


def kdaggerk_worst(frame, k):
    return max(r for _, r in ParsevalKFrame(frame, k).kdaggerk_residuals())


class TestKDaggerK:
    def test_identity_reduces_to_parseval(self):
        space, k, frame = orthonormal_instance()
        assert kdaggerk_worst(frame, k) <= DEFAULT_TOL

    def test_w1_prime_diagonal_values(self):
        _, k, frame = fixture_w1_prime()
        dual = ParsevalKFrame(frame, k).dual
        np.testing.assert_allclose(frame_operator(dual), np.diag([1.0, 0.0]), atol=1e-14)
        pushed = SampledFrame(frame.space, dual.samples @ k.op.T)
        np.testing.assert_allclose(frame_operator(pushed), np.diag([4.0, 0.0]), atol=1e-14)
        assert kdaggerk_worst(frame, k) <= DEFAULT_TOL

    def test_generated_instances(self):
        for seed in range(8):
            _, k, frame = parseval_instance(seed)
            assert kdaggerk_worst(frame, k) <= DEFAULT_TOL


class TestIndependenceTransfer:
    def test_orthonormal_basis(self):
        space, k, frame = orthonormal_instance()
        frame_indep, dual_indep, gap = ParsevalKFrame(frame, k).independence_transfer()
        assert frame_indep is True and dual_indep is True and gap <= DEFAULT_TOL

    def test_w1_dependent(self):
        _, k, frame = fixture_w1()
        frame_indep, dual_indep, gap = ParsevalKFrame(frame, k).independence_transfer()
        assert frame_indep is False
        assert dual_indep is False
        assert gap is None

    def test_full_rank_small_family(self):
        _, k, frame = parseval_instance(3, dim=4, rank=3, atoms=3)
        frame_indep, dual_indep, gap = ParsevalKFrame(frame, k).independence_transfer()
        assert frame_indep is True and dual_indep is True and gap <= DEFAULT_TOL


class TestUniqueDualTransfer:
    def test_orthonormal_basis(self):
        space, k, frame = orthonormal_instance()
        assert ParsevalKFrame(frame, k).unique_dual_transfer()

    def test_square_invertible_instances(self):
        for seed in range(5):
            _, k, frame = parseval_instance(seed, dim=4, rank=4, atoms=4)
            assert ParsevalKFrame(frame, k).unique_dual_transfer()

    def test_precondition_violation(self):
        _, k, frame = fixture_w1()
        with pytest.raises(HypothesisError, match="unique"):
            ParsevalKFrame(frame, k).unique_dual_transfer()


class TestPythagoreanDecomposition:
    def test_canonical_coefficients_have_zero_residual(self):
        _, k, frame = fixture_w1_prime()
        pk = ParsevalKFrame(frame, k)
        f = np.array([1.0, 0.0], dtype=complex)
        c = L2Coefficients(frame.space, analysis(pk.dual) @ f)
        total, residual, canonical = pk.norm_split(f, c)
        assert residual <= 1e-15
        assert total == pytest.approx(canonical, rel=1e-12)

    def test_w1_prime_hand_decomposition(self):
        space, k, frame = fixture_w1_prime()
        f = np.array([1.0, 0.0], dtype=complex)
        c = L2Coefficients(space, np.array([np.sqrt(2.0), 0.0, 0.0]))
        total, residual, canonical = ParsevalKFrame(frame, k).norm_split(f, c)
        assert total == pytest.approx(2.0, abs=1e-12)
        assert residual == pytest.approx(1.0, abs=1e-12)
        assert canonical == pytest.approx(1.0, abs=1e-12)

    def test_kernel_perturbation_adds_its_norm(self):
        space, k, frame = fixture_w1()
        pk = ParsevalKFrame(frame, k)
        f = np.array([0.5, -2.0], dtype=complex)
        c_values = analysis(pk.dual) @ f
        kernel = np.array([1.0, -1.0, 3.0], dtype=complex)  # synthesis kills it
        assert np.linalg.norm(synthesis(frame) @ kernel) <= 1e-14
        c = L2Coefficients(space, c_values + kernel)
        total, residual, canonical = pk.norm_split(f, c)
        kernel_norm = l2_norm_sq(L2Coefficients(space, kernel))
        assert residual == pytest.approx(kernel_norm, rel=1e-12)
        assert total == pytest.approx(canonical + kernel_norm, rel=1e-12)
        # Orthogonality of the residual against the canonical part.
        cross = l2_inner(
            L2Coefficients(space, kernel), L2Coefficients(space, c_values)
        )
        assert abs(cross) <= 1e-12

    def test_rejects_invalid_coefficients(self):
        space, k, frame = fixture_w1_prime()
        f = np.array([1.0, 0.0], dtype=complex)
        c = L2Coefficients(space, np.array([5.0, 0.0, 0.0]))
        with pytest.raises(HypothesisError, match="synthesize"):
            ParsevalKFrame(frame, k).norm_split(f, c)


class TestDualCoefficientFamily:
    def test_first_family_is_canonical(self):
        _, k, frame = fixture_w1_prime()
        pk = ParsevalKFrame(frame, k)
        f = np.array([1.0, 2.0], dtype=complex)
        families = pk.coefficient_family(f, count=1, seed=4)
        assert len(families) == 1
        np.testing.assert_allclose(families[0].values, analysis(pk.dual) @ f, atol=1e-14)

    def test_all_families_satisfy_the_precondition(self):
        for seed in range(5):
            _, k, frame = parseval_instance(seed)
            rng = stream(seed, 900)
            f = complex_normal(rng, frame.dim)
            for c in ParsevalKFrame(frame, k).coefficient_family(f, count=6, seed=seed):
                defect = np.linalg.norm(bochner_integrate(frame, c) - k.op @ f)
                assert defect <= 1e-9 * (1.0 + k.norm * np.linalg.norm(f))

    def test_w1_kernel_span(self):
        space, k, frame = fixture_w1()
        f = np.array([1.0, 0.0], dtype=complex)
        families = ParsevalKFrame(frame, k).coefficient_family(f, count=8, seed=9)
        canonical_values = families[0].values
        for c in families[1:]:
            kernel_part = c.values - canonical_values
            # Kernel parts live in span{(1,-1,0), (0,0,1)}.
            assert abs(kernel_part[0] + kernel_part[1]) <= 1e-12 * (
                1.0 + np.abs(kernel_part).max()
            )


class TestParsevalKFramesStack:
    """A stack whose members differ in rank, so that every routine splits
    it into groups (kernel widths 0, 2, 3 and 2; unique and non-unique
    duals), must give each member what the member gives alone."""

    @pytest.fixture
    def members(self):
        space = MeasureSpace(np.array([0.5, 2.0, 1.0, 1.5, 0.75]))
        rng = stream(77)
        ops = []
        for r in (5, 3, 2, 3):
            a = complex_normal(rng, 5, r) @ complex_normal(rng, r, 5)
            ops.append(a / op_norm(a))
        ks = KStack(np.stack(ops))
        samples = parseval_k_samples(ks, space, [stream(5, t) for t in range(4)])
        stack = ParsevalKFrames(FrameStack(space, samples), ks)
        singles = [ParsevalKFrame(SampledFrame(space, samples[t]), KOperator(ops[t])) for t in range(4)]
        assert stack.kernel.widths.tolist() == [0, 2, 3, 2]
        return stack, singles

    def test_characterizes_stops_trivial_kernels_after_the_canonical_dual(self, members, monkeypatch):
        # Member 0's kernel is trivial, so every later partner would be its
        # canonical dual again: it stops after partner 0, with the verdict
        # a loop over every partner gives.
        stack, singles = members
        seeds = [11, 12, 13, 14]

        def every_partner(pk, g, trials, seed):
            syn_g = synthesis(g)
            gram, scale = syn_g @ analysis(g), 1.0 + analysis_norm(g) ** 2
            for t in range(trials):
                partner = pk.dual if t == 0 else pk.build_dual(pk.sample_kernel_field(stream(seed, t)))
                if op_norm(gram - syn_g @ analysis(partner)) > DEFAULT_TOL * scale:
                    return False
            return True

        perturbed = stack.build_duals(stack.sample_kernel_fields([stream(seed, 2) for seed in seeds]))
        built, build_duals = [], stack.build_duals
        monkeypatch.setattr(stack, "build_duals", lambda phi, idx=None: built.append(idx) or build_duals(phi, idx))
        for g in (stack.duals, perturbed):
            assert stack.characterizes(g, 8, seeds).tolist() == [
                every_partner(pk, SampledFrame(pk.frame.space, g.samples[t]), 8, seed)
                for t, (pk, seed) in enumerate(zip(singles, seeds))
            ]
        assert len(built) == 7 and all(0 not in idx for idx in built)
        # A stack of trivial kernels makes the SVD of partner 0's gap alone:
        # the duality residuals and analysis norms of the canonical duals
        # are the stack's cached ones.
        unique = ParsevalKFrames(stack.frames.subset(np.array([0])), KStack(stack.k.op[:1]))
        unique.kernel
        unique.dual_norms
        unique.dual_residuals
        svd, counts = np.linalg.svd, []

        def counted(*args, **kwargs):
            counts[-1] += 1
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        for trials in (1, 8):
            counts.append(0)
            assert unique.characterizes(unique.duals, trials, [11]).tolist() == [True]
        assert counts[0] == counts[1] == 1

    def test_members_agree_with_their_single_runs(self, members):
        stack, singles = members
        seeds = [11, 12, 13, 14]
        assert stack.is_unique().tolist() == [pk.is_unique() for pk in singles] == [True, False, False, False]
        assert stack.minimality_residuals([stream(seed, 1) for seed in seeds]) == [
            pk.minimality_residuals(stream(seed, 1)) for pk, seed in zip(singles, seeds)
        ]
        assert stack.kdaggerk_residuals() == [pk.kdaggerk_residuals() for pk in singles]
        fields = stack.sample_kernel_fields([stream(seed, 2) for seed in seeds])
        for t, pk in enumerate(singles):
            assert np.array_equal(fields[t], pk.sample_kernel_field(stream(seeds[t], 2)))
        assert stack.characterizes(stack.duals, 4, seeds).tolist() == [
            pk.characterizes(pk.dual, 4, seed) for pk, seed in zip(singles, seeds)
        ]
        perturbed = stack.build_duals(fields)
        assert stack.characterizes(perturbed, 2, seeds).tolist() == [
            pk.characterizes(SampledFrame(pk.frame.space, perturbed.samples[t]), 2, seeds[t])
            for t, pk in enumerate(singles)
        ]
        assert stack.complement_parseval_holds(3, seeds).tolist() == [
            pk.complement_parseval_holds(3, seed) for pk, seed in zip(singles, seeds)
        ]
        # Members 1 and 2 out of the width groups {1, 3} and {2}.
        idx = np.array([1, 2])
        alternatives, _ = stack.alternative_duals(seeds[1:3], idx)
        for j, t in enumerate(idx):
            assert np.array_equal(alternatives.samples[j], singles[t].alternative_dual(seeds[t]).samples)
        with pytest.raises(InfeasibleError):
            stack.alternative_duals(seeds)
        f = complex_normal(stream(3), 4, 5)
        families = stack.coefficient_families(f, 4, seeds)
        splits = np.stack(stack.norm_splits(f, families), axis=-1)
        for t, pk in enumerate(singles):
            single = pk.coefficient_family(f[t], 4, seeds[t])
            assert np.array_equal(families[t], [c.values for c in single])
            assert splits[t].tolist() == [list(pk.norm_split(f[t], c)) for c in single]
        frame_indep, dual_indep, gaps = stack.independence_transfer()
        for t, pk in enumerate(singles):
            single = pk.independence_transfer()
            assert (frame_indep[t], dual_indep[t]) == single[:2]
            assert (single[2] is None) if not frame_indep[t] else gaps[t] == single[2]
