"""Tests for the linear algebra substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kframelab.hilbert import (
    RangeInclusionError,
    adjoint,
    corange_projector,
    douglas_factor,
    loewner_leq,
    op_norm,
    pinv,
    range_inclusion,
    range_projector,
    rank,
    svd,
)
from kframelab.rng import complex_normal, stream

from helpers import bisect_loewner


def random_matrix(rng, n, p, forced_rank=None):
    if forced_rank is None:
        return complex_normal(rng, n, p)
    return complex_normal(rng, n, forced_rank) @ complex_normal(rng, forced_rank, p)


class TestAdjoint:
    def test_identity(self):
        np.testing.assert_array_equal(adjoint(np.eye(2)), np.eye(2))

    def test_real_transpose(self):
        np.testing.assert_array_equal(
            adjoint([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])
        )

    def test_conjugation(self):
        np.testing.assert_array_equal(adjoint([[1j]]), np.array([[-1j]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            adjoint([[np.nan, 0.0], [0.0, 0.0]])

    @given(st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_involution_and_norm_isometry(self, seed):
        rng = stream(seed)
        a = complex_normal(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        np.testing.assert_allclose(adjoint(adjoint(a)), a)
        assert abs(op_norm(a) - op_norm(adjoint(a))) <= 1e-12 * max(1.0, op_norm(a))


class TestSvd:
    def test_diagonal(self):
        f = svd(np.diag([3.0, 0.0]))
        assert f.rank == 1
        np.testing.assert_allclose(f.singulars, [3.0])

    def test_identity(self):
        f = svd(np.eye(3))
        assert f.rank == 3
        np.testing.assert_allclose(f.singulars, [1.0, 1.0, 1.0])

    def test_rank_one_ones_matrix(self):
        # Oracle: the Gram matrix of [[1,1],[1,1]] is [[2,2],[2,2]]; its
        # eigenvalues come from the 2x2 characteristic polynomial.
        trace, det = 4.0, 0.0
        disc = np.sqrt(trace**2 - 4.0 * det)
        top_eig = (trace + disc) / 2.0
        expected = np.sqrt(top_eig)
        assert expected == 2.0
        f = svd([[1.0, 1.0], [1.0, 1.0]])
        assert f.rank == 1
        np.testing.assert_allclose(f.singulars, [expected], rtol=1e-12)

    def test_reconstruction_invariant(self):
        rng = stream(7)
        for _ in range(25):
            a = random_matrix(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            f = svd(a)
            scale = f.singulars[0] if f.rank else 1.0
            assert op_norm(f.reconstruct() - a) <= 1e-10 * scale * max(a.shape)
            assert np.all(np.diff(f.singulars) <= 0)
            assert np.all(f.singulars > 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            svd([[np.inf, 0.0], [0.0, 1.0]])

    def test_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            svd(np.eye(2), rank_tol=-1.0)


class TestPinv:
    def test_diagonal(self):
        np.testing.assert_allclose(pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(pinv(np.eye(4)), np.eye(4), atol=1e-14)

    def test_column_vector(self):
        # Oracle: for full column rank the pseudo-inverse solves the normal
        # equations, (A* A)^{-1} A*.
        a = np.array([[1.0], [1.0]], dtype=complex)
        oracle = np.linalg.solve(a.conj().T @ a, a.conj().T)
        np.testing.assert_allclose(oracle, [[0.5, 0.5]])
        np.testing.assert_allclose(pinv(a), oracle, atol=1e-14)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(pinv(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_moore_penrose_identities(self):
        rng = stream(99)
        for i in range(60):
            n, p = int(rng.integers(1, 17)), int(rng.integers(1, 17))
            forced = None
            if i % 2 == 1 and min(n, p) > 1:
                forced = int(rng.integers(1, min(n, p)))
            a = random_matrix(rng, n, p, forced)
            a_pinv = pinv(a)
            tol = 1e-10 * (1.0 + op_norm(a))
            assert op_norm(a @ a_pinv @ a - a) <= tol
            assert op_norm(a_pinv @ a @ a_pinv - a_pinv) <= tol
            left = a @ a_pinv
            right = a_pinv @ a
            assert op_norm(left - left.conj().T) <= tol
            assert op_norm(right - right.conj().T) <= tol
            assert op_norm(pinv(a.conj().T) - a_pinv.conj().T) <= tol
            # Null space of the pseudo-inverse is the range complement and
            # its range is the null complement, as projector identities.
            assert op_norm(a_pinv @ range_projector(a) - a_pinv) <= tol
            assert op_norm(corange_projector(a) - right) <= tol


class TestOpNorm:
    def test_identity(self):
        assert op_norm(np.eye(2)) == 1.0

    def test_diagonal_absmax(self):
        assert op_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_ones_matrix(self):
        assert op_norm([[1.0, 1.0], [1.0, 1.0]]) == pytest.approx(2.0, rel=1e-12)


class TestLoewner:
    def test_identity_under_double(self):
        assert loewner_leq(np.eye(2), 2 * np.eye(2))

    def test_indefinite_difference(self):
        assert not loewner_leq(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

    def test_projection_below_identity(self):
        v = np.array([[0.6], [0.8]])
        assert loewner_leq(v @ v.T, np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            loewner_leq(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_slack_scales_with_the_larger_operand(self):
        # b - a has eigenvalue -1e-4; the slack 1e-9 * max(1, |a|, |b|)
        # absorbs it only when one operand has norm 1e6.
        assert loewner_leq(np.zeros((2, 2)), np.diag([1e6, -1e-4]))
        assert loewner_leq(np.diag([1e6, 1e-4]), np.diag([1e6, 0.0]))
        assert not loewner_leq(np.zeros((2, 2)), np.diag([1.0, -1e-4]))

    def test_negative_tolerance_demands_a_margin_scaled_by_both_norms(self):
        # lam_min = 0.5 clears 0.1 * max(1, |a|) but not 0.1 * max(1, |a|, |b|).
        assert not loewner_leq(np.zeros((2, 2)), np.diag([0.5, 10.0]), tol=-0.1)
        assert loewner_leq(np.zeros((2, 2)), np.diag([0.5, 1.0]), tol=-0.1)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="square"):
            loewner_leq(np.eye(2), np.eye(3))


class TestRangeInclusion:
    def test_isometry_against_itself(self):
        t = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        included, lam = range_inclusion(t, t)
        assert included
        assert lam == pytest.approx(1.0, rel=1e-12)

    def test_disjoint_ranges(self):
        included, lam = range_inclusion(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert not included
        assert lam is None

    def test_scaled_diagonal(self):
        s = np.diag([1.0, 0.0])
        t = np.diag([2.0, 0.0])
        included, lam = range_inclusion(s, t)
        assert included
        # Cross-check the minimal scale against the bisection oracle.
        lam_oracle = bisect_loewner(s, t, iters=80)
        assert lam == pytest.approx(0.25, rel=1e-12)
        assert lam == pytest.approx(lam_oracle, rel=1e-9)

    def test_zero_operand(self):
        included, lam = range_inclusion(np.zeros((2, 2)), np.diag([1.0, 0.0]))
        assert included
        assert lam == 0.0

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValueError, match="codomain"):
            range_inclusion(np.eye(2), np.eye(3))


class TestDouglasFactor:
    def test_identity_pair(self):
        np.testing.assert_allclose(douglas_factor(np.eye(2), np.eye(2)), np.eye(2), atol=1e-14)

    def test_scaled_diagonal(self):
        theta = douglas_factor(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))
        np.testing.assert_allclose(theta, np.diag([0.5, 0.0]), atol=1e-14)

    def test_zero_numerator(self):
        theta = douglas_factor(np.zeros((2, 2)), np.diag([2.0, 0.0]))
        np.testing.assert_allclose(theta, np.zeros((2, 2)), atol=1e-14)

    def test_raises_without_inclusion(self):
        with pytest.raises(RangeInclusionError):
            douglas_factor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))

    def test_factor_properties_random_pairs(self):
        rng = stream(2024)
        for _ in range(40):
            n, p, q = (int(rng.integers(1, 7)) for _ in range(3))
            t = random_matrix(rng, n, p)
            s = t @ random_matrix(rng, p, q)
            theta = douglas_factor(s, t)
            assert op_norm(t @ theta - s) <= 1e-9 * (1.0 + op_norm(s))
            lam = op_norm(theta) ** 2
            lam_oracle = bisect_loewner(s, t)
            assert lam_oracle is not None
            assert abs(lam - lam_oracle) <= 1e-6 * (1.0 + lam_oracle)
            assert rank(theta) == rank(s) == rank(np.vstack([s, theta]))
            assert rank(np.hstack([t.conj().T, theta])) == rank(t)


@given(
    st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=6),
    st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_pinv_identities_hypothesis(singulars, seed):
    # Build a matrix with chosen singular values (hence bounded conditioning);
    # near the rank cut the identities legitimately lose accuracy, which is a
    # scale regime the suite's Gaussian inputs never enter.
    rng = stream(seed)
    n = len(singulars)
    q1, _ = np.linalg.qr(complex_normal(rng, n, n))
    q2, _ = np.linalg.qr(complex_normal(rng, n, n))
    a = (q1 * np.array(singulars)) @ q2.conj().T
    a_pinv = pinv(a)
    tol = 1e-10 * (1.0 + op_norm(a))
    assert op_norm(a @ a_pinv @ a - a) <= tol
    assert op_norm(a_pinv @ a @ a_pinv - a_pinv) <= tol * (1.0 + op_norm(a_pinv))
