"""Tests for canonical duals and the checks built on them."""

import re
import tracemalloc

import numpy as np
import pytest

from kframelab import duality, hilbert, suites
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
    weighted_synthesis,
)
from kframelab.hilbert import DEFAULT_TOL, Split, op_norm, pinv, ranks
from kframelab.measure import L2Coefficients, MeasureSpace, bochner_integrate, l2_inner, l2_norm_sq
from kframelab.rng import Streams, complex_normal, stream
from kframelab.scenario import scenario_from_dict

import golden
from golden import CIRCLE_K, LEGENDRE_K, circle_instance, legendre_instance
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


# LEGENDRE_K's null space is spanned by (1, -1, 1), so P = K^+ K = I - n n^T.
LEGENDRE_NULL = np.array([1.0, -1.0, 1.0]) / np.sqrt(3.0)


@pytest.mark.parametrize("nodes", [4, 8])
class TestClosedFormCanonicalDual:
    def test_dual_is_the_projected_basis(self, nodes):
        w, psi, samples = legendre_instance(nodes)
        pk = ParsevalKFrame(SampledFrame(MeasureSpace(w), samples), KOperator(LEGENDRE_K))
        p = np.eye(3) - np.outer(LEGENDRE_NULL, LEGENDRE_NULL)
        assert np.max(np.abs(pk.dual.samples - psi @ p.T)) <= 1e-13

    def test_every_property_passes(self, nodes):
        w, _, samples = legendre_instance(nodes)
        doc = {
            "dim": 3,
            "atoms": nodes,
            "weights": w.tolist(),
            "k_spec": {"kind": "explicit", "matrix": LEGENDRE_K.tolist()},
            "frame_spec": {"kind": "explicit", "samples": samples.tolist()},
            "trials": 5,
            "seed": 3,
        }
        report = suites.run_suite(scenario_from_dict(doc))
        assert [rec.prop_id for rec in report.properties if rec.passed] == list(suites.PROPERTY_IDS)


@pytest.mark.parametrize(
    "instance, k", [(legendre_instance, LEGENDRE_K), (circle_instance, CIRCLE_K)], ids=["legendre", "circle"]
)
def test_refined_quadrature_keeps_every_verdict(instance, k):
    # The same analytic frame sampled on N and on 2N nodes: both rules are
    # exact, so every verdict is the same and l4's duality and Parseval
    # residuals stay at rounding level.
    coarse, fine = (
        suites.run_suite(scenario_from_dict(golden.analytic_doc(instance, k, nodes, trials=5))).properties
        for nodes in (4, 8)
    )
    assert [(rec.prop_id, rec.passed) for rec in coarse] == [(rec.prop_id, rec.passed) for rec in fine]
    assert all(rec.passed for rec in fine)
    for rec in (coarse[3], fine[3]):
        assert rec.prop_id == "l4" and rec.max_residual <= 1e-13


class TestParsevalKFrame:
    def test_rejects_non_parseval_and_mismatched_dimensions(self):
        space = MeasureSpace.uniform(2)
        with pytest.raises(HypothesisError, match="Parseval"):
            ParsevalKFrame(SampledFrame(space, 2.0 * np.eye(2)), KOperator.identity(2))
        with pytest.raises(HypothesisError, match="dimension"):
            ParsevalKFrame(SampledFrame(space, np.eye(2)), KOperator.identity(3))

    def test_kernel_basis_computed_at_most_once(self, monkeypatch):
        calls = []
        original = duality._kernel_bases

        def counted(frame, rank_k=0):
            calls.append(frame)
            return original(frame, rank_k)

        monkeypatch.setattr(duality, "_kernel_bases", counted)
        _, k, frame = fixture_w1()
        pk = ParsevalKFrame(frame, k)
        assert calls == []
        pk.alternative_dual(seed=1)
        pk.coefficient_family(np.array([1.0, 0.0]), count=3, seed=2)
        pk.minimality_residuals(stream(3))
        assert pk.characterizes(pk.dual, trials=3, seed=4)
        assert len(calls) == 1


def test_kernel_build_holds_at_most_two_basis_sized_arrays():
    # d = 64, m = 512, rank 32: the sizes where building the kernel bases
    # sets a verify run's memory high-water mark. The bases are views of
    # the SVD's V* (one basis plus the rank's rows), so the traced peak
    # stays below two basis-sized arrays; conjugating and dividing into
    # fresh arrays traces about three.
    m, d, r = 512, 64, 32
    space = MeasureSpace(0.25 + 0.25 * ((7 * np.arange(m)) % 12))
    rng = stream(64)
    op = complex_normal(rng, d, r) @ complex_normal(rng, r, d)
    ks = KStack((op / op_norm(op))[None])
    stack = ParsevalKFrames(FrameStack(space, parseval_k_samples(ks, space, [stream(65)])), ks)
    tracemalloc.start()
    try:
        kernel = stack.kernel
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel.shape == (1, m, m - r)
    basis_bytes = np.dtype(np.complex128).itemsize * m * (m - r)
    assert peak < 2 * basis_bytes, f"traced peak {peak / 1e6:.2f} MB"


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


def _leak_verdict(frame, phi):
    """The leak check of build_duals with every norm taken exactly."""
    leak = op_norm(synthesis(frame) @ phi)
    return leak, leak > DEFAULT_TOL * (1.0 + analysis_norm(frame) * field_norm(frame.space, phi))


def _duality_verdict(frame, k, g):
    """The check of require_duals with the duality residual taken exactly."""
    residual = op_norm(synthesis(frame) @ analysis(g) - k.op)
    return residual, not residual <= DEFAULT_TOL * (1.0 + k.norm)


class TestGuardBands:
    """The guards of built duals decide ``op_norm > limit`` from a Frobenius
    bound where it settles the verdict, and from the exact norms elsewhere.
    Their verdicts and messages must be those of the exact expressions for
    residuals below the bound's band, inside it and above the limit."""

    @pytest.fixture
    def instance(self):
        # Rank-2 K, so that the synthesis map of phi = kernel field +
        # t pinv(synthesis) is t times a rank-2 projector: its Frobenius
        # norm is sqrt(2) times its operator norm t, which opens a band.
        _, k, frame = parseval_instance(3, dim=3, atoms=7, rank=2, mixed_weights=True)
        pk = ParsevalKFrame(frame, k)
        pk.stack.frame_norms  # cached, so it takes no SVD below
        return pk, pk.sample_kernel_field(stream(3, 1)), pinv(synthesis(frame))

    @staticmethod
    def _svds(monkeypatch):
        counts = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: counts.append(1) or svd(*a, **kw))
        return counts

    @staticmethod
    def _classes(outcomes):
        """Per outcome (svds, fails) in ascending t: the class below the
        band, inside it or above the limit; each must occur, in order."""
        assert all(svds for svds, fails in outcomes if fails), outcomes
        classes = [2 if fails else int(svds > 0) for svds, fails in outcomes]
        assert classes == sorted(classes) and set(classes) == {0, 1, 2}, outcomes

    def test_leak_check(self, instance, monkeypatch):
        pk, kernel_field, direction = instance
        frame = pk.frame
        limit = DEFAULT_TOL * (1.0 + analysis_norm(frame) * field_norm(frame.space, kernel_field))
        counts = self._svds(monkeypatch)
        outcomes = []
        for t in limit * 2.0 ** np.linspace(-3.0, 1.0, 81):
            phi = kernel_field + t * direction
            leak, fails = _leak_verdict(frame, phi)
            counts.clear()
            if fails:
                message = f"the synthesis map does not annihilate phi (residual {leak:.3e})"
                with pytest.raises(HypothesisError, match=re.escape(message)):
                    pk.build_dual(phi)
            else:
                np.testing.assert_array_equal(pk.build_dual(phi).samples, pk.dual.samples + np.conj(phi))
            assert len(counts) in (0, 2)  # the leak and the field norm
            outcomes.append((len(counts), fails))
        self._classes(outcomes)

    def test_duality_check(self, instance, monkeypatch):
        pk, _, direction = instance
        frame, k = pk.frame, pk.k
        limit = DEFAULT_TOL * (1.0 + k.norm)
        counts = self._svds(monkeypatch)
        outcomes = []
        for t in limit * 2.0 ** np.linspace(-2.0, 1.0, 61):
            g = SampledFrame(frame.space, pk.dual.samples + np.conj(t * direction))
            residual, fails = _duality_verdict(frame, k, g)
            counts.clear()
            if fails:
                message = f"G is not a dual K-Bessel family (residual {residual:.3e})"
                with pytest.raises(HypothesisError, match=re.escape(message)):
                    pk.residual_field(g)
            else:
                pk.residual_field(g)
            assert len(counts) in (0, 1)
            outcomes.append((len(counts), fails))
        self._classes(outcomes)

    def test_stacked_members_report_the_first_failure(self, instance, monkeypatch):
        # Each grid as one stack in shuffled order: settled and open members
        # mix, and the message names the first failing member.
        pk, kernel_field, direction = instance
        frame, k = pk.frame, pk.k
        steps = stream(3, 2).permutation(2.0 ** np.linspace(-3.0, 1.0, 41))
        n = len(steps)
        stack = ParsevalKFrames(
            FrameStack(frame.space, np.repeat(frame.samples[None], n, 0)), KStack(np.repeat(k.op[None], n, 0))
        )
        stack.frame_norms
        limit = DEFAULT_TOL * (1.0 + analysis_norm(frame) * field_norm(frame.space, kernel_field))
        phi = kernel_field + (limit * steps)[:, None, None] * direction
        first = next(leak for leak, fails in (_leak_verdict(frame, p) for p in phi) if fails)
        counts = self._svds(monkeypatch)
        with pytest.raises(HypothesisError, match=re.escape(f"(residual {first:.3e})")):
            stack.build_duals(phi)
        assert len(counts) == 2
        limit = DEFAULT_TOL * (1.0 + k.norm)
        g = stack.duals.samples + np.conj((limit * steps)[:, None, None] * direction)
        verdicts = (_duality_verdict(frame, k, SampledFrame(frame.space, samples)) for samples in g)
        first = next(residual for residual, fails in verdicts if fails)
        counts.clear()
        with pytest.raises(HypothesisError, match=re.escape(f"(residual {first:.3e})")):
            stack.require_duals(FrameStack(frame.space, g))
        assert len(counts) == 1

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_leak_takes_the_exact_path(self, instance, monkeypatch, value):
        # The exact norm rejects a non-finite operator, as it always did;
        # the bound must not settle a verdict on one.
        pk, kernel_field, _ = instance
        g = SampledFrame(pk.frame.space, pk.dual.samples)

        def poisoned(frame):
            out = synthesis(frame).copy()
            out[..., 0, 0] = value
            return out

        monkeypatch.setattr(duality, "synthesis", poisoned)
        exact = []
        monkeypatch.setattr(hilbert, "op_norm", lambda a: exact.append(a) or op_norm(a))
        with np.errstate(invalid="ignore"):  # inf times zero in the products
            with pytest.raises(ValueError, match="operator entries must be finite"):
                pk.build_dual(kernel_field)
            with pytest.raises(ValueError, match="operator entries must be finite"):
                pk.residual_field(g)
        assert len(exact) == 2 and not any(np.isfinite(a).all() for a in exact)


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

    @pytest.mark.parametrize(
        "name, rank_b, rank_k, width",
        [("loose-parseval-explicit", 2, 1, 1), ("near-cut-k", 1, 2, 5), ("k-rank-above-atoms", 1, 2, 0)],
    )
    def test_kernel_width_reads_the_larger_rank(self, name, rank_b, rank_k, width):
        # rank B, of the weighted synthesis map, and rank K disagree both
        # ways on these golden scenarios; the width is m - max(rank B,
        # rank K), at least 0, and uniqueness reads it.
        sc = scenario_from_dict(golden.SCENARIOS[name])
        pk = suites._Chunk(sc, range(sc.trials)).parseval
        assert ranks(weighted_synthesis(pk.frames)).tolist() == [rank_b] * sc.trials
        assert pk.k.rank.tolist() == [rank_k] * sc.trials
        assert width == max(sc.atoms - max(rank_b, rank_k), 0)
        assert pk.kernel.shape == (sc.trials, sc.atoms, width)
        single = ParsevalKFrame(SampledFrame(pk.space, pk.frames.samples[0]), KOperator(pk.k.op[0]))
        assert single.is_unique() is (width == 0)


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

    def test_zero_trials_vacuous(self):
        # The probes of a stack are drawn with a zero-width trial axis.
        space = MeasureSpace(np.array([0.5, 2.0, 1.0, 1.5]))
        ks = KStack(np.stack([np.diag([1.0, 0.5, 0.0]), np.diag([0.0, 2.0, 1.0])]))
        samples = parseval_k_samples(ks, space, [stream(5, t) for t in range(2)])
        stack = ParsevalKFrames(FrameStack(space, samples), ks)
        assert stack.complement_parseval_holds(0, [1, 2]).tolist() == [True, True]
        _, k, frame = fixture_w1()
        assert ParsevalKFrame(frame, k).complement_parseval_holds(trials=0, seed=1)


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
    """A stack of several Ks of one rank takes one branch, so every routine
    runs on all its members at once and must give each member what the
    member gives alone; members that would take different branches raise
    ``Split``."""

    SEEDS = [11, 12, 13, 14]

    @staticmethod
    def build(ranks):
        space = MeasureSpace(np.array([0.5, 2.0, 1.0, 1.5, 0.75]))
        rng = stream(77)
        ops = []
        for r in ranks:
            a = complex_normal(rng, 5, r) @ complex_normal(rng, r, 5)
            ops.append(a / op_norm(a))
        ks = KStack(np.stack(ops))
        samples = parseval_k_samples(ks, space, [stream(5, t) for t in range(len(ranks))])
        stack = ParsevalKFrames(FrameStack(space, samples), ks)
        singles = [ParsevalKFrame(SampledFrame(space, samples[t]), KOperator(ops[t])) for t in range(len(ranks))]
        return stack, singles

    @pytest.fixture
    def members(self):
        stack, singles = self.build((3, 3, 3, 3))
        assert stack.kernel.shape == (4, 5, 2)
        return stack, singles

    @staticmethod
    def every_partner(pk, g, trials, seed):
        """The verdict of ``characterizes`` from a loop over every partner."""
        syn_g = synthesis(g)
        gram, scale = syn_g @ analysis(g), 1.0 + analysis_norm(g) ** 2
        for t in range(trials):
            partner = pk.dual if t == 0 else pk.build_dual(pk.sample_kernel_field(stream(seed, t)))
            if op_norm(gram - syn_g @ analysis(partner)) > DEFAULT_TOL * scale:
                return False
        return True

    def test_characterizes_stops_trivial_kernels_after_the_canonical_dual(self, members, monkeypatch):
        # Width 0 makes the canonical dual the only dual, so every later
        # partner would repeat partner 0's comparison: none is built. Width
        # 2 builds the 7 later partners of 8 when partner 0 holds, in one
        # pass of 7 partners per member, with the verdicts a loop over every
        # partner gives.
        stack, singles = members
        seeds = self.SEEDS
        every_partner = self.every_partner
        perturbed = stack.build_duals(stack.sample_kernel_fields([stream(seed, 2) for seed in seeds]))
        unique, _ = self.build((5, 5))
        assert unique.kernel.shape == (2, 5, 0)
        built = []
        for pk in (stack, unique):
            build_duals = pk.build_duals
            monkeypatch.setattr(pk, "build_duals", lambda phi, f=build_duals: built.append(len(phi)) or f(phi))
        for g, passes in ((stack.duals, 1), (perturbed, 0)):
            built.clear()
            assert stack.characterizes(g, 8, seeds).tolist() == [
                every_partner(pk, SampledFrame(pk.frame.space, g.samples[t]), 8, seed)
                for t, (pk, seed) in enumerate(zip(singles, seeds))
            ]
            assert built == [7 * len(seeds)] * passes
        built.clear()
        assert unique.characterizes(unique.duals, 8, seeds[:2]).tolist() == [True, True]
        assert built == []
        # A stack of trivial kernels makes the SVD of partner 0's gap alone:
        # the analysis norms of the canonical duals are the stack's cached
        # ones.
        unique.dual_norms
        svd, counts = np.linalg.svd, []

        def counted(*args, **kwargs):
            counts[-1] += 1
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        for trials in (1, 8):
            counts.append(0)
            assert unique.characterizes(unique.duals, trials, seeds[:2]).tolist() == [True, True]
        assert counts[0] == counts[1] == 1

    @pytest.mark.parametrize("per_pass, sizes", [(1, [1] * 7), (3, [3, 3, 1]), (7, [7])])
    def test_partner_passes_keep_every_field_and_verdict(self, members, monkeypatch, per_pass, sizes):
        # A byte budget of per_pass partners per pass splits the 7 later
        # partners into passes, and every (member, partner) field keeps the
        # bits it has drawn alone. Fields of size 1e-7 and 1e-12 relative to
        # a kernel field pass partner 0; the 1e-7 ones fail a later partner.
        stack, singles = members
        seeds = self.SEEDS
        n, m, d = stack.frames.samples.shape
        monkeypatch.setattr(duality, "_CHUNK_BYTES", per_pass * 128 * m * d * n)
        phi = stack.sample_kernel_fields([stream(seed, 2) for seed in seeds])
        g = stack.build_duals(np.array([0.0, 1e-7, 1e-12, 1e-7])[:, None, None] * phi)
        fields, calls = [], []
        sample = stack.sample_kernel_fields

        def recorded(rngs):
            fields.append(sample(rngs))
            calls.append(len(rngs) // n)
            return fields[-1]

        monkeypatch.setattr(stack, "sample_kernel_fields", recorded)
        verdicts = stack.characterizes(g, 8, seeds).tolist()
        assert verdicts == [
            self.every_partner(pk, SampledFrame(pk.frame.space, g.samples[t]), 8, seed)
            for t, (pk, seed) in enumerate(zip(singles, seeds))
        ]
        assert verdicts == [True, False, True, False]
        assert calls == sizes
        fields = np.concatenate(fields).reshape(7, n, m, d)
        for j, (pk, seed) in enumerate(zip(singles, seeds)):
            for t in range(1, 8):
                assert np.array_equal(fields[t - 1, j], pk.sample_kernel_field(stream(seed, t)))

    def test_one_partner_per_pass_at_d64_m512(self, monkeypatch):
        # 128 m d bytes per partner and member fill the whole budget at the
        # large-lapack size, so each of the 7 later partners is its own pass.
        workload = golden.perfbench_module("workloads").WORKLOADS["large-lapack"]
        pk = suites._Chunk(scenario_from_dict(workload.scenario_doc(42)), [0]).parseval
        assert pk.frames.samples.shape == (1, 512, 64)
        built, build_duals = [], pk.build_duals
        monkeypatch.setattr(pk, "build_duals", lambda phi: built.append(len(phi)) or build_duals(phi))
        assert pk.characterizes(pk.duals, 8, [3]).tolist() == [True]
        assert built == [1] * 7

    @pytest.mark.parametrize("ranks", [(3, 3, 3, 3), (5, 5)], ids=["kernel", "trivial-kernel"])
    def test_batches_of_streams_draw_as_fresh_generators(self, ranks):
        # A member draws its field's normals and decade, then minimality's
        # probes, in one visit, so a batch of streams that loads each member
        # into one generator gives every member the bits of its own.
        stack, _ = self.build(ranks)
        seeds = self.SEEDS[: len(ranks)]
        for draw in (stack.sample_kernel_fields, lambda rngs: stack.minimality_residuals(rngs).residuals):
            batch = draw(Streams((seed, (), (2,)) for seed in seeds))
            assert batch.tobytes() == draw([stream(seed, 2) for seed in seeds]).tobytes()

    def test_members_agree_with_their_single_runs(self, members):
        stack, singles = members
        seeds = self.SEEDS
        assert [pk.is_unique() for pk in singles] == [stack.width == 0] * 4 == [False] * 4
        minimality = stack.minimality_residuals([stream(seed, 1) for seed in seeds])
        assert [minimality.row(i) for i in range(len(seeds))] == [
            pk.minimality_residuals(stream(seed, 1)) for pk, seed in zip(singles, seeds)
        ]
        kdaggerk = stack.kdaggerk_residuals()
        assert [kdaggerk.row(i) for i in range(len(singles))] == [pk.kdaggerk_residuals() for pk in singles]
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
        alternatives, _ = stack.alternative_duals(seeds)
        for t, pk in enumerate(singles):
            assert np.array_equal(alternatives.samples[t], pk.alternative_dual(seeds[t]).samples)
        f = complex_normal(stream(3), 4, 5)
        families = stack.coefficient_families(f, 4, seeds)
        splits = np.stack(stack.norm_splits(f, families), axis=-1)
        for t, pk in enumerate(singles):
            single = pk.coefficient_family(f[t], 4, seeds[t])
            assert np.array_equal(families[t], [c.values for c in single])
            assert splits[t].tolist() == [list(pk.norm_split(f[t], c)) for c in single]
        # Rank 3 of 5 atoms: the frames are dependent, so no gap is asserted.
        assert stack.independence_transfer()[2] is None
        unique, unique_singles = self.build((5, 5))
        assert [pk.is_unique() for pk in unique_singles] == [unique.width == 0] * 2 == [True, True]
        with pytest.raises(InfeasibleError):
            unique.alternative_duals(seeds[:2])
        frame_indep, dual_indep, gaps = unique.independence_transfer()
        assert frame_indep.all() and dual_indep.all()
        assert [pk.independence_transfer() for pk in unique_singles] == [(True, True, gap) for gap in gaps.tolist()]

    def test_members_of_different_branches_split(self):
        # Ks of ranks 5, 3, 2 and 3, kernel widths 0, 2, 3 and 2: the Ks do
        # not stack.
        with pytest.raises(Split):
            self.build((5, 3, 2, 3))
        assert [self.build((r,))[0].width for r in (5, 3, 2, 3)] == [0, 2, 3, 2]
        # One K of rank 1, and frames whose S = diag(1, 2e-12) passes the
        # Parseval check: member 0's synthesis map has rank 2 (kernel width
        # 0, independent), member 1's rank 1 (width 1, dependent).
        space = MeasureSpace(np.array([1.0, 1.0]))
        a = 0.5**0.5
        samples = np.array([[[a, 1e-6], [a, -1e-6]], [[a, 0.0], [a, 0.0]]])
        k = np.diag([1.0, 0.0])
        stack = ParsevalKFrames(FrameStack(space, samples), KStack(np.stack([k, k])))
        singles = [ParsevalKFrame(SampledFrame(space, member), KOperator(k)) for member in samples]
        assert [pk.stack.width for pk in singles] == [0, 1]
        assert [pk.independence_transfer()[0] for pk in singles] == [True, False]
        seeds = self.SEEDS[:2]
        rngs = [stream(seed, 2) for seed in seeds]
        for call in (
            lambda: stack.kernel,
            lambda: stack.width,
            lambda: stack.sample_kernel_fields(rngs),
            lambda: stack.alternative_duals(seeds),
            lambda: stack.characterizes(stack.duals, 2, seeds),
            stack.independence_transfer,
        ):
            with pytest.raises(Split):
                call()
