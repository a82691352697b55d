"""Numeric kernel: golden values and algebraic invariants."""

import numpy as np
import pytest

from opscale.numkernel import (NotPositiveDefinite, Tolerances,
                               as_complex_matrix, frob, herm_eig,
                               hermitian_part, kernel_dim, kron,
                               partial_trace_first, partial_trace_second,
                               pd_inv_sqrt, rank_tol, realign, svd, unrealign)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng, dim):
    M = random_complex(rng, dim, dim)
    return hermitian_part(M)


def random_spd(rng, dim):
    M = random_complex(rng, dim, dim)
    return M @ M.conj().T + np.eye(dim)


class TestValidation:
    def test_as_complex_matrix_coerces_lists(self):
        M = as_complex_matrix([[1, 2], [3, 4]])
        assert M.dtype == np.complex128
        assert M.shape == (2, 2)

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            as_complex_matrix([1.0, 2.0, 3.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_complex_matrix([[np.inf, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            as_complex_matrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_tolerances_validated(self):
        with pytest.raises(ValueError):
            Tolerances(rank_rel=0.0)
        with pytest.raises(ValueError):
            Tolerances(pd_min=-1e-9)
        with pytest.raises(ValueError):
            Tolerances(conv_eps=1.5)


class TestEig:
    def test_golden_eigenvalues(self):
        # [[0,1],[1,1]] has eigenvalues golden ratio and -1/golden.
        w, V = herm_eig(np.array([[0.0, 1.0], [1.0, 1.0]]))
        assert abs(w[0] - GOLDEN) < 1e-14
        assert abs(w[1] + 1.0 / GOLDEN) < 1e-14
        assert frob(V @ np.diag(w) @ V.conj().T - [[0, 1], [1, 1]]) < 1e-14

    def test_descending_and_unitary(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            dim = int(rng.integers(1, 7))
            H = random_hermitian(rng, dim)
            w, V = herm_eig(H)
            assert all(a >= b for a, b in zip(w, w[1:]))
            assert frob(V.conj().T @ V - np.eye(dim)) < 1e-12
            assert frob(V @ np.diag(w) @ V.conj().T - H) < 1e-12 * dim * max(frob(H), 1)

    def test_golden_singular_values(self):
        U, s, V = svd(np.array([[0.0, 1.0], [1.0, 1.0]]))
        assert abs(s[0] - GOLDEN) < 1e-14
        assert abs(s[1] - 1.0 / GOLDEN) < 1e-14

    def test_svd_reconstruction_convention(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            rows = int(rng.integers(1, 6))
            cols = int(rng.integers(1, 6))
            M = random_complex(rng, rows, cols)
            U, s, V = svd(M)
            r = len(s)
            assert frob(U[:, :r] @ np.diag(s) @ V[:, :r].conj().T - M) < 1e-12 * max(frob(M), 1)


class TestPdInvSqrt:
    def test_inverts_spd(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            dim = int(rng.integers(1, 7))
            H = random_spd(rng, dim)
            S, logsum = pd_inv_sqrt(H)
            assert frob(S @ H @ S - np.eye(dim)) < 1e-9
            assert frob(S - S.conj().T) < 1e-12 * frob(S)
            sign, logdet = np.linalg.slogdet(H)
            assert sign.real > 0.0
            assert abs(logsum - logdet) < 1e-12 * max(1.0, abs(logdet))

    def test_accepts_ill_conditioned_above_floor(self):
        # The floor (pd_min = 1e-10 relative) decides; the reconstruction
        # contract must not reject a condition number below 1e10.
        rng = np.random.default_rng(4)
        for _ in range(30):
            dim = int(rng.integers(2, 7))
            U, _ = np.linalg.qr(random_complex(rng, dim, dim))
            cond = 10.0 ** rng.uniform(6.0, 9.9)
            w = np.geomspace(1.0, 1.0 / cond, dim)
            S, _ = pd_inv_sqrt((U * w) @ U.conj().T)
            assert np.isfinite(S).all()

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            pd_inv_sqrt(np.diag([1.0, -1.0]))

    def test_rejects_semidefinite_below_floor(self):
        with pytest.raises(NotPositiveDefinite):
            pd_inv_sqrt(np.diag([1.0, 0.0]))
        with pytest.raises(NotPositiveDefinite):
            pd_inv_sqrt(np.diag([1.0, 1e-14]))


class TestTensorConventions:
    def test_kron_first_factor_major(self):
        # kron(A, B)[(i, a), (j, b)] = A[i, j] B[a, b] with the first factor
        # indexing the coarse blocks.
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        B = np.array([[5.0, 6.0], [7.0, 8.0]])
        K = kron(A, B)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(K[2 * i:2 * i + 2, 2 * j:2 * j + 2], A[i, j] * B)

    def test_partial_traces_on_kron(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            A = random_complex(rng, k, k)
            B = random_complex(rng, m, m)
            K = kron(A, B)
            assert frob(partial_trace_first(K, k, m) - np.trace(A) * B) < 1e-12
            assert frob(partial_trace_second(K, k, m) - np.trace(B) * A) < 1e-12

    def test_partial_traces_sum_to_trace(self):
        rng = np.random.default_rng(4)
        M = random_complex(rng, 6, 6)
        t1 = np.trace(partial_trace_first(M, 2, 3))
        t2 = np.trace(partial_trace_second(M, 2, 3))
        assert abs(t1 - np.trace(M)) < 1e-12
        assert abs(t2 - np.trace(M)) < 1e-12


class TestRank:
    def test_rank_of_constructed_spectrum(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            dim = int(rng.integers(2, 7))
            r = int(rng.integers(1, dim + 1))
            w = np.concatenate([rng.uniform(0.5, 2.0, r), np.zeros(dim - r)])
            Q, _ = np.linalg.qr(random_complex(rng, dim, dim))
            H = Q @ np.diag(w) @ Q.conj().T
            assert rank_tol(H) == r
            assert kernel_dim(H) == dim - r

    def test_rank_respects_relative_cutoff(self):
        H = np.diag([1.0, 1e-6])
        assert rank_tol(H, Tolerances(rank_rel=1e-9)) == 2
        assert rank_tol(H, Tolerances(rank_rel=1e-3)) == 1


class TestRealign:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            M = random_complex(rng, k * m, k * m)
            assert np.array_equal(unrealign(realign(M, k, m), k, m), M)

    def test_entry_convention(self):
        # realign(M)[(i, p), (j, q)] = M[(i, j), (p, q)] with first-factor-major
        # flattening on both sides.
        rng = np.random.default_rng(7)
        k, m = 2, 3
        M = random_complex(rng, k * m, k * m)
        R = realign(M, k, m)
        for i in range(k):
            for p in range(k):
                for j in range(m):
                    for q in range(m):
                        assert R[i * k + p, j * m + q] == M[i * m + j, p * m + q]

    def test_kron_realigns_to_rank_one(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            A = random_complex(rng, k, k)
            B = random_complex(rng, m, m)
            R = realign(kron(A, B), k, m)
            s = np.linalg.svd(R, compute_uv=False)
            assert abs(s[0] - frob(A) * frob(B)) < 1e-12 * max(1, s[0])
            if len(s) > 1:
                assert s[1] < 1e-12 * max(1, s[0])

    def test_identity_realignment_spectrum(self):
        # Id_4 = sum of two pure product terms only after realignment collapses
        # it to a single dyad with weight 2.
        s = np.linalg.svd(realign(np.eye(4), 2, 2), compute_uv=False)
        assert np.allclose(s, [2.0, 0.0, 0.0, 0.0], atol=1e-14)
