"""Tests for the linear algebra substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kframelab.hilbert import (
    RangeInclusionError,
    adjoint,
    douglas_factor,
    loewner_leq,
    op_norm,
    op_norms,
    pinv,
    pinvs,
    range_inclusion,
    range_inclusions,
    rank,
    ranks,
    svd,
    vdots,
    vector_norms,
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
            f = svd(a)
            assert op_norm(a_pinv @ f.range_projector() - a_pinv) <= tol
            assert op_norm(f.corange_projector() - right) <= tol


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
            # The factor and scale of the inclusion test are the ones formed
            # from pinv(t) directly, bit for bit.
            assert np.array_equal(theta, pinv(t) @ s)
            assert range_inclusion(s, t).lambda_star == lam
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


class TestStackedLinalg:
    """The suites stack trials and run numpy's stacked routines once per
    chunk; witness replay stays exact only if every stacked call returns
    what the per-matrix call returns, bit for bit. That depends on the
    numpy and LAPACK/BLAS build, so it is asserted here, not assumed."""

    SHAPES = [(7, 3), (4, 6), (3, 3), (6, 6)]

    @staticmethod
    def _stack(seed, *shape):
        return complex_normal(stream(seed), 5, *shape)

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_numpy_stacked_routines_equal_per_matrix_calls(self, shape):
        rows, cols = shape
        a = self._stack(1, rows, cols)
        b = self._stack(2, cols, rows)
        x = self._stack(3, cols)
        y = self._stack(4, cols)
        v = self._stack(7, rows)
        hermitian = a[:, :, :rows] @ a[:, :, :rows].conj().swapaxes(-1, -2) if rows <= cols else None
        ops = {
            "svd": (lambda m: np.linalg.svd(m, full_matrices=False), a),
            "svd(full_matrices=True)": (lambda m: np.linalg.svd(m), a),
            "svd(compute_uv=False)": (lambda m: np.linalg.svd(m, compute_uv=False), a),
            "qr": (lambda m: np.linalg.qr(m)[0], a),
        }
        if hermitian is not None:
            ops["eigvalsh"] = (np.linalg.eigvalsh, hermitian)
        mismatched = []
        for name, (fn, arg) in ops.items():
            stacked = fn(arg)
            stacked = stacked if isinstance(stacked, tuple) else (stacked,)
            for t in range(len(arg)):
                single = fn(arg[t].copy())
                single = single if isinstance(single, tuple) else (single,)
                if not all(np.array_equal(s_[t], o) for s_, o in zip(stacked, single)):
                    mismatched.append(name)
                    break
        products = {
            "matmul": (a @ b, [a[t] @ b[t] for t in range(5)]),
            "matmul with a transposed operand": (
                a @ a.conj().swapaxes(-1, -2),
                [a[t] @ a[t].conj().T for t in range(5)],
            ),
            "matvec": ((a @ x[..., None])[..., 0], [a[t] @ x[t] for t in range(5)]),
            "vecmat": ((v[:, None, :] @ a)[:, 0], [v[t] @ a[t] for t in range(5)]),
            "vdot as matmul": (vdots(x, y), [np.vdot(x[t], y[t]) for t in range(5)]),
            "norm as matmul": (vector_norms(x), [np.linalg.norm(x[t]) for t in range(5)]),
        }
        for name, (stacked, single) in products.items():
            if not all(np.array_equal(stacked[t], single[t]) for t in range(5)):
                mismatched.append(name)
        assert not mismatched, (
            f"stacked {', '.join(mismatched)} differ from per-matrix calls on this numpy/LAPACK "
            "build, so chunked runs and one-trial witness replays would not agree bit for bit"
        )

    @pytest.mark.parametrize("n", range(2, 9))
    def test_square_blocks_of_a_zero_padded_stack(self, n):
        # The l2 bisection pads each member's n x n operands to one
        # (k, 8, 8) stack and decides each member on its own block.
        a = self._stack(10 + n, n, n)
        h = a + a.conj().swapaxes(-1, -2)
        padded = np.zeros((5, 8, 8), dtype=np.complex128)
        padded[:, :n, :n] = h
        for stack in (h, padded[:, :n, :n]):
            values, norms = np.linalg.eigvalsh(stack), op_norm(stack)
            for t in range(5):
                assert np.array_equal(values[t], np.linalg.eigvalsh(h[t].copy()))
                assert norms[t] == op_norm(h[t].copy())

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_stacked_helpers_equal_their_per_matrix_forms(self, shape):
        rows, cols = shape
        a = self._stack(5, rows, cols)
        a[1] = 0.0
        a[2, :, 0] = a[2, :, 1]  # rank-deficient member
        s = self._stack(6, rows, 2)
        s[3] = a[3][:, :2]  # included member
        p = pinvs(a)
        inc = range_inclusions(s, a)
        # Shapes repeat, so some operators share a stacked call.
        mixed = [a[0], s[0], a[1], a[2].conj().T, s[1], a[3]]
        assert op_norms(mixed) == [op_norm(m.copy()) for m in mixed]
        for t in range(5):
            f = svd(a[t])
            assert np.array_equal(p[t], pinv(a[t]))
            # l1 takes the pseudo-inverse and both projectors from one SVD.
            assert np.array_equal(f.pinv(), pinv(a[t]))
            assert np.array_equal(f.range_projector(), svd(a[t]).range_projector())
            assert np.array_equal(f.corange_projector(), svd(a[t]).corange_projector())
            assert op_norm(a)[t] == op_norm(a[t])
            assert ranks(a)[t] == rank(a[t]) == f.rank
            assert inc.rank_t[t] == rank(a[t])
            single = range_inclusion(s[t], a[t])
            assert bool(inc.included[t]) == single.included
            if single.included:
                assert inc.lambda_star[t] == single.lambda_star
