"""Tests for the measure space and weighted coefficient operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kframelab.frames import SampledFrame
from kframelab.fixtures import fixture_w1_prime
from kframelab.measure import (
    L2Coefficients,
    MeasureSpace,
    SpaceMismatchError,
    bochner_integrate,
    l2_inner,
    l2_norm_sq,
)
from kframelab.rng import complex_normal, stream

from helpers import loop_weighted_inner


class TestMeasureSpace:
    def test_uniform(self):
        space = MeasureSpace.uniform(3)
        assert space.atom_count == 3
        assert space.weights.tolist() == [1.0, 1.0, 1.0]

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            MeasureSpace(np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="positive"):
            MeasureSpace(np.array([0.0]))

    def test_rejects_nonfinite_weight(self):
        with pytest.raises(ValueError, match="finite"):
            MeasureSpace(np.array([1.0, np.inf]))


class TestL2Coefficients:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            L2Coefficients(MeasureSpace.uniform(3), np.array([1.0, 2.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            L2Coefficients(MeasureSpace.uniform(1), np.array([np.nan]))


class TestInnerProduct:
    def test_indicator(self):
        space = MeasureSpace.uniform(1)
        c = L2Coefficients(space, np.array([1.0]))
        assert l2_inner(c, c) == 1.0

    def test_orthogonal_pair(self):
        space = MeasureSpace.uniform(2)
        a = L2Coefficients(space, np.array([1.0, 1.0]))
        b = L2Coefficients(space, np.array([1.0, -1.0]))
        assert l2_inner(a, b) == 0.0

    def test_weighted_sum(self):
        space = MeasureSpace(np.array([0.5, 2.0]))
        a = L2Coefficients(space, np.array([1.0, 2.0]))
        b = L2Coefficients(space, np.array([1.0, 1.0]))
        oracle = loop_weighted_inner(a.values, b.values, space.weights)
        assert oracle == 4.5
        assert l2_inner(a, b) == pytest.approx(4.5)

    def test_space_mismatch(self):
        a = L2Coefficients(MeasureSpace.uniform(2), np.array([1.0, 0.0]))
        b = L2Coefficients(MeasureSpace(np.array([1.0, 2.0])), np.array([1.0, 0.0]))
        with pytest.raises(SpaceMismatchError):
            l2_inner(a, b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_conjugate_symmetry_and_linearity(self, seed):
        rng = stream(seed)
        m = int(rng.integers(1, 9))
        space = MeasureSpace(rng.uniform(0.25, 4.0, m))
        a = L2Coefficients(space, complex_normal(rng, m))
        b = L2Coefficients(space, complex_normal(rng, m))
        c = L2Coefficients(space, complex_normal(rng, m))
        scalar = complex(complex_normal(rng))
        scale = 1.0 + abs(l2_inner(a, b))
        assert abs(l2_inner(a, b) - np.conj(l2_inner(b, a))) <= 1e-12 * scale
        combined = L2Coefficients(space, scalar * a.values + c.values)
        expected = scalar * l2_inner(a, b) + l2_inner(c, b)
        assert abs(l2_inner(combined, b) - expected) <= 1e-12 * (1.0 + abs(expected))
        assert l2_norm_sq(a) == pytest.approx(l2_inner(a, a).real, rel=1e-12)
        assert abs(l2_inner(a, a).imag) <= 1e-12 * (1.0 + l2_norm_sq(a))


class TestNormSq:
    def test_zero(self):
        assert l2_norm_sq(L2Coefficients(MeasureSpace.uniform(2), np.zeros(2))) == 0.0

    def test_unit_weights(self):
        c = L2Coefficients(MeasureSpace.uniform(3), np.ones(3))
        assert l2_norm_sq(c) == 3.0

    def test_canonical_coefficients_of_w1_prime(self):
        space, _, _ = fixture_w1_prime()
        s = 1.0 / np.sqrt(2.0)
        c = L2Coefficients(space, np.array([s, s, 0.0]))
        assert l2_norm_sq(c) == pytest.approx(1.0, rel=1e-12)


class TestBochnerIntegrate:
    def test_zero_coefficients(self):
        space, _, frame = fixture_w1_prime()
        c = L2Coefficients(space, np.zeros(3))
        np.testing.assert_array_equal(bochner_integrate(frame, c), np.zeros(2))

    def test_standard_basis_indicator(self):
        space = MeasureSpace.uniform(3)
        frame = SampledFrame(space, np.eye(3))
        c = L2Coefficients(space, np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(bochner_integrate(frame, c), [0.0, 1.0, 0.0])

    def test_w1_prime_weighted_sum(self):
        space, _, frame = fixture_w1_prime()
        c = L2Coefficients(space, np.array([np.sqrt(2.0), 0.0, 0.0]))
        np.testing.assert_allclose(bochner_integrate(frame, c), [2.0, 0.0], atol=1e-15)

    def test_linearity(self):
        rng = stream(5)
        for _ in range(20):
            m, d = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            space = MeasureSpace(rng.uniform(0.25, 4.0, m))
            frame = SampledFrame(space, complex_normal(rng, m, d))
            c1 = complex_normal(rng, m)
            c2 = complex_normal(rng, m)
            scalar = complex(complex_normal(rng))
            lhs = bochner_integrate(frame, L2Coefficients(space, scalar * c1 + c2))
            rhs = scalar * bochner_integrate(
                frame, L2Coefficients(space, c1)
            ) + bochner_integrate(frame, L2Coefficients(space, c2))
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * (1.0 + np.linalg.norm(rhs))

    def test_space_mismatch(self):
        space, _, frame = fixture_w1_prime()
        other = MeasureSpace(np.array([1.0, 2.0, 3.0]))
        with pytest.raises(SpaceMismatchError):
            bochner_integrate(frame, L2Coefficients(other, np.zeros(3)))
