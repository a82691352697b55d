"""Numeric kernel: golden values and algebraic invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opscale import numkernel
from opscale.numkernel import (DEFAULT_TOL, NotPositiveDefinite,
                               NumericalFailure, Tolerances,
                               as_complex_matrix, frob, herm_eig,
                               hermitian_part, hermitian_storage, kernel_dim,
                               kron, partial_trace_first, partial_trace_second,
                               pd_inv_sqrt, rank_tol, realign, spectral_rank,
                               svd, unrealign)

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


class TestHermitianStorage:
    def test_returns_read_only_symmetrized_copy(self):
        data = np.diag([2.0, 1.0, 1.0, 0.5]).astype(complex)
        data[0, 1] = 1e-10
        C = hermitian_storage(2, 2, data, "storage")
        assert C is not data and not C.flags.writeable
        assert np.array_equal(C, hermitian_part(data))
        assert data[0, 1] == 1e-10

    def test_messages_name_the_storage(self):
        with pytest.raises(ValueError, match=r"^state must be \(6, 6\), got \(4, 4\)$"):
            hermitian_storage(2, 3, np.eye(4), "state")
        C = np.eye(4, dtype=complex)
        C[0, 1] = 1.0
        with pytest.raises(ValueError,
                           match=r"^choi storage is not Hermitian: defect 1\.414e\+00$"):
            hermitian_storage(2, 2, C, "choi storage")

    def test_hermiticity_limit_is_relative_to_the_norm(self):
        C = 1e6 * np.eye(4, dtype=complex)
        C[0, 1] = 1e-3      # defect 1.4e-3, below 1e-8 of the norm 2e6
        hermitian_storage(2, 2, C, "storage")
        C[0, 1] = 1.0
        with pytest.raises(ValueError, match="is not Hermitian"):
            hermitian_storage(2, 2, C, "storage")

    def test_shape_message_with_numpy_integer_dimensions(self):
        with pytest.raises(ValueError, match=r"^storage must be \(6, 6\), got \(4, 4\)$"):
            hermitian_storage(np.int64(2), np.uint8(3), np.eye(4), "storage")


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
            S, logsum, residual = pd_inv_sqrt(H)
            assert frob(S @ H @ S - np.eye(dim)) < 1e-9
            assert abs(residual - frob(S @ H @ S - np.eye(dim))) < 1e-12
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
            S, _, _ = pd_inv_sqrt((U * w) @ U.conj().T)
            assert np.isfinite(S).all()

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            pd_inv_sqrt(np.diag([1.0, -1.0]))

    def test_rejects_semidefinite_below_floor(self):
        with pytest.raises(NotPositiveDefinite):
            pd_inv_sqrt(np.diag([1.0, 0.0]))
        with pytest.raises(NotPositiveDefinite):
            pd_inv_sqrt(np.diag([1.0, 1e-14]))


def reference_herm_eig(H):
    """herm_eig as written before it dropped its copies, with numpy's norm."""
    H = hermitian_part(np.asarray(H, dtype=np.complex128))
    w, V = np.linalg.eigh(H)
    w = w[::-1].copy()
    V = V[:, ::-1].copy()
    residual = float(np.linalg.norm((V * w) @ V.conj().T - H))
    limit = H.shape[0] * max(float(np.linalg.norm(H)), 1e-300) * numkernel._EIG_RECON_REL
    if residual > limit:
        raise NumericalFailure("eigendecomposition residual", residual=residual)
    return w, V


def reference_pd_inv_sqrt(H, tol=DEFAULT_TOL):
    """pd_inv_sqrt as written before it dropped its second symmetrization
    and its identity matrix."""
    w, V = reference_herm_eig(H)
    top, bottom = float(w[0]), float(w[-1])
    if top <= 0.0 or bottom <= tol.pd_min * top:
        raise NotPositiveDefinite("not positive definite",
                                  min_eigenvalue=bottom, max_eigenvalue=top)
    S = hermitian_part((V * w ** -0.5) @ V.conj().T)
    dim = H.shape[0]
    residual = float(np.linalg.norm(S @ hermitian_part(H) @ S - np.eye(dim)))
    limit = dim * numkernel._INV_SQRT_RECON_REL * (top / bottom)
    if residual > limit:
        raise NumericalFailure("inverse square root residual", residual=residual)
    return S, float(np.sum(np.log(w))), residual


def conditioned_hermitian(rng, dim, cond, definite=True):
    """Hermitian matrix with a Haar eigenbasis and condition number ``cond``;
    with ``definite`` False the smallest eigenvalue flips sign."""
    U, _ = np.linalg.qr(random_complex(rng, dim, dim))
    w = np.geomspace(1.0, 1.0 / cond, dim) * 10.0 ** rng.uniform(-3, 3)
    if not definite:
        w[-1] = -w[-1]
    return hermitian_part((U * w) @ U.conj().T)


def outcome(f, H):
    try:
        return f(H)
    except (NotPositiveDefinite, NumericalFailure) as exc:
        return type(exc), getattr(exc, "residual", None), getattr(exc, "min_eigenvalue", None)


def assert_same_outcome(got, want):
    assert type(got[0]) is type(want[0])
    if isinstance(got[0], type):
        assert got == want
    else:
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


class TestKernelsBitForBit:
    """frob, herm_eig and pd_inv_sqrt give exactly the results of the
    formulas they replaced."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(
        arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(0, 6)),
               elements=st.floats(-1e150, 1e150)),
        arrays(np.complex128, st.tuples(st.integers(0, 6), st.integers(0, 6)),
               elements=st.complex_numbers(max_magnitude=1e150, allow_nan=False,
                                           allow_infinity=False)),
        arrays(np.int64, st.tuples(st.integers(0, 6), st.integers(0, 6)),
               elements=st.integers(-2**40, 2**40))))
    def test_frob_is_numpy_norm(self, M):
        want = float(np.linalg.norm(M))
        assert frob(M) == want
        assert frob(M.T) == float(np.linalg.norm(M.T))
        assert frob(M.tolist()) == want

    def test_frob_on_strided_views_and_empty(self):
        rng = np.random.default_rng(20)
        M = random_complex(rng, 7, 5)
        for view in (M, M.T, M[::2, 1::2], M[:, ::-1], M.real, M.imag[::-1], M[:0]):
            assert frob(view) == float(np.linalg.norm(view))
        assert frob(np.zeros((0, 0))) == 0.0
        assert frob([[1, 2], [3, 4]]) == float(np.linalg.norm([[1, 2], [3, 4]]))

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_herm_eig(self, dim):
        rng = np.random.default_rng([21, dim])
        for trial in range(25):
            H = random_complex(rng, dim, dim) if trial % 5 == 0 else random_hermitian(rng, dim)
            w, V = herm_eig(H)
            w0, V0 = reference_herm_eig(H)
            assert np.array_equal(w, w0) and np.array_equal(V, V0)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_pd_inv_sqrt(self, dim):
        rng = np.random.default_rng([22, dim])
        for trial in range(40):
            cond = 10.0 ** rng.uniform(0.0, 9.0)
            H = conditioned_hermitian(rng, dim, cond) if trial % 4 else random_spd(rng, dim)
            H = hermitian_part(H)
            S, logsum, residual = pd_inv_sqrt(H)
            S0, logsum0, residual0 = reference_pd_inv_sqrt(H)
            assert np.array_equal(S, S0)
            assert logsum == logsum0 and residual == residual0

    @pytest.mark.parametrize("eig_rel, inv_sqrt_rel", [
        (None, None),                   # the contracts as shipped
        (1e-17, None),                  # herm_eig's check fails on some inputs
        (None, 1e-17),                  # pd_inv_sqrt's check fails on some
    ])
    def test_same_refusals(self, monkeypatch, eig_rel, inv_sqrt_rel):
        if eig_rel is not None:
            monkeypatch.setattr(numkernel, "_EIG_RECON_REL", eig_rel)
        if inv_sqrt_rel is not None:
            monkeypatch.setattr(numkernel, "_INV_SQRT_RECON_REL", inv_sqrt_rel)
        rng = np.random.default_rng(23)
        seen = set()
        for trial in range(240):
            dim = 1 + trial % 8
            # condition numbers around the 1e10 floor, and indefinite inputs
            H = conditioned_hermitian(rng, dim, 10.0 ** rng.uniform(0.0, 12.0),
                                      definite=trial % 7 != 0)
            got = outcome(pd_inv_sqrt, H)
            assert_same_outcome(got, outcome(reference_pd_inv_sqrt, H))
            seen.add(got[0] if isinstance(got[0], type) else "ok")
            assert_same_outcome(outcome(herm_eig, H), outcome(reference_herm_eig, H))
        assert "ok" in seen and NotPositiveDefinite in seen
        if eig_rel is not None or inv_sqrt_rel is not None:
            assert NumericalFailure in seen


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

    def test_spectral_rank_is_the_rank_rule(self):
        assert spectral_rank(np.array([-1e-6, 0.0, 1.0]), Tolerances(rank_rel=1e-9)) == 2
        assert spectral_rank(np.array([-1e-6, 0.0, 1.0]), Tolerances(rank_rel=1e-3)) == 1
        assert spectral_rank(np.array([-2.0, 1e-12, 1.0])) == 2
        assert spectral_rank(np.zeros(3)) == 0
        rng = np.random.default_rng(6)
        for _ in range(20):
            H = random_hermitian(rng, 5)
            H = H @ H @ np.diag([1.0, 1.0, 1.0, 0.0, 0.0]) @ H @ H
            assert spectral_rank(herm_eig(H)[0]) == rank_tol(H) == 3


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
