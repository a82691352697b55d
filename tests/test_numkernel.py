"""Numeric kernel: golden values and algebraic invariants."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opscale import fixtures, numkernel
from opscale.numkernel import (DEFAULT_TOL, NotPositiveDefinite,
                               NumericalFailure, Tolerances,
                               as_complex_matrix, frob, herm_eig,
                               hermitian_part, hermitian_storage, kernel_dim,
                               kron, partial_trace_first, partial_trace_second,
                               pd_inv_sqrt, rank_tol, realign, spectral_rank,
                               svd, unrealign)
from opscale.posmap import ChoiMap

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

    def test_as_complex_matrix_keeps_a_c_ordered_complex128_matrix(self):
        M = random_complex(np.random.default_rng(1), 3, 2)
        assert as_complex_matrix(M) is M

    @pytest.mark.parametrize("data", [
        np.asfortranarray(random_complex(np.random.default_rng(2), 3, 2)),
        np.arange(6.0).reshape(3, 2),
        [[1, 2j], [3.5, 4], [5, 6]],
    ], ids=["fortran-order", "real", "nested-list"])
    def test_as_complex_matrix_copies_anything_else(self, data):
        M = as_complex_matrix(data)
        assert M.dtype == np.complex128 and M.flags.c_contiguous
        assert np.array_equal(M, np.asarray(data))
        assert not np.shares_memory(M, np.asarray(data))

    def test_as_complex_matrix_refusals(self):
        with pytest.raises(ValueError, match=r"^expected a 2-d matrix, got shape \(3,\)$"):
            as_complex_matrix(np.ones(3, dtype=np.complex128))
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            as_complex_matrix(np.array([[1.0, np.nan]], dtype=np.complex128))

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

    def test_a_small_non_hermitian_storage_is_refused(self):
        rng = np.random.default_rng(0)
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for c in (1.0, 1e-10, 1e160):
            with pytest.raises(ValueError, match="is not Hermitian"):
                ChoiMap(2, 2, c * G, check_positivity=False)

    @pytest.mark.parametrize("c", [1e-170, 1e-200, 1e-300])
    def test_a_tiny_non_hermitian_storage_is_refused(self, c):
        # The squares of both norms underflow; frob sums them from the
        # storage over its largest entry, so the defect keeps its ratio.
        rng = np.random.default_rng(0)
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(ValueError, match="is not Hermitian"):
            hermitian_storage(2, 2, c * G, "s")

    @pytest.mark.parametrize("k, m, largest", [(2, 2, 1e308), (2, 3, 8e307), (1, 1, 1e308)])
    def test_an_entry_above_the_bound_is_refused(self, k, m, largest):
        n = k * m
        bound = np.finfo(np.float64).max / (2 * n)
        with pytest.raises(ValueError, match=re.escape(
                f"s has an entry of magnitude {largest:.3e}, above the bound {bound:.3e}")):
            hermitian_storage(k, m, largest * np.eye(n), "s")

    @pytest.mark.parametrize("k, m", [(1, 1), (2, 2), (2, 3), (3, 3)])
    def test_a_storage_at_the_bound_constructs_without_overflow(self, k, m):
        # Under warnings as errors: the symmetrized mean, the Cholesky
        # proof's trace and the sampled images all stay finite.
        bound = np.finfo(np.float64).max / (2 * k * m)
        assert np.isfinite(ChoiMap(k, m, bound * np.eye(k * m)).choi).all()
        if k == m:
            ChoiMap(k, m, bound * fixtures.identity_map(k).choi)

    def test_shape_message_with_numpy_integer_dimensions(self):
        with pytest.raises(ValueError, match=r"^storage must be \(6, 6\), got \(4, 4\)$"):
            hermitian_storage(np.int64(2), np.uint8(3), np.eye(4), "storage")


def _parent_hermitian_storage(data, what):
    """The Hermiticity check and symmetrization of ``hermitian_storage`` as
    written before it made one conjugate copy: the reference for both."""
    C = as_complex_matrix(data)
    defect = frob(C - C.conj().T)
    if defect > 1e-8 * frob(C):
        raise ValueError(f"{what} is not Hermitian: defect {defect:.3e}")
    return (C + C.conj().T) / 2


@st.composite
def _near_hermitian_storages(draw):
    """A storage for a k x m pair: a Hermitian one, or one whose entries are
    perturbed by a relative size from 1e-18 to 1, around the refusal limit
    of 1e-8, all scaled by 2**e."""
    k, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = k * m
    parts = draw(arrays(np.float64, (n, 2 * n),
                        elements=st.floats(-4.0, 4.0, allow_subnormal=False)))
    C = parts.view(np.complex128)
    C = C + C.conj().T
    noise = draw(st.sampled_from([0.0, 1e-18, 1e-12, 1e-9, 3e-9, 1e-8, 3e-8, 1e-6, 1.0]))
    if noise:
        D = draw(arrays(np.float64, (n, 2 * n),
                        elements=st.floats(-1.0, 1.0))).view(np.complex128)
        C = C + noise * D
    return k, m, C * 2.0 ** draw(st.integers(-400, 400))


class TestHermitianStorageBitForBit:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(storage=_near_hermitian_storages())
    # Dividing by the complex 2 turns a -0.0 real part with a +0.0 imaginary
    # part into +0.0, where halving would keep it.
    @example(storage=(1, 1, np.array([[complex(-0.0, 0.0)]])))
    @example(storage=(1, 2, np.array([[complex(-0.0, -0.0), complex(-0.0, 1.0)],
                                      [complex(-0.0, -1.0), complex(2.0, -0.0)]])))
    def test_matches_the_two_copy_formula(self, storage):
        k, m, C = storage
        try:
            want = _parent_hermitian_storage(C, "storage")
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                hermitian_storage(k, m, C, "storage")
            assert str(got.value) == str(exc)
            return
        got = hermitian_storage(k, m, C, "storage")
        assert got.flags.c_contiguous and not got.flags.writeable
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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

    @pytest.mark.parametrize("relaxation", [0.5, 1.5, 1.9])
    def test_overrelaxed_root(self, relaxation):
        # S = c H^(-w/2) with tr(S H S) = dim, logsum = -2 log det S, and
        # the residual of S H Q = I within the plain contract, up to
        # condition numbers near the 1e10 floor.
        rng = np.random.default_rng(6)
        for trial in range(40):
            dim = 1 + trial % 6
            cond = 10.0 ** rng.uniform(0.0, 9.9)
            H = conditioned_hermitian(rng, dim, cond)
            S, logsum, residual = pd_inv_sqrt(H, relaxation=relaxation)
            w, U = np.linalg.eigh(H)
            c = np.sqrt(dim / np.sum(w ** (1.0 - relaxation)))
            root = c * (U * w ** (-relaxation / 2)) @ U.conj().T
            assert frob(S - root) <= 1e-12 * frob(root)
            assert frob(S - S.conj().T) == 0.0
            Q = (U * w ** (relaxation / 2 - 1)) @ U.conj().T / c
            assert abs(residual - frob(S @ H @ Q - np.eye(dim))) <= 1e-10 * dim * cond
            assert residual <= dim * numkernel._INV_SQRT_RECON_REL * cond
            logdet_S = dim * np.log(c) - relaxation / 2 * np.sum(np.log(w))
            assert abs(logsum + 2 * logdet_S) <= 1e-12 * max(1.0, abs(logsum))
            # the trace that the scaling step's invariants rest on
            assert abs(np.trace(S @ H @ S).real - dim) <= 1e-10 * dim * cond

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            pd_inv_sqrt(np.diag([1.0, -1.0]))

    def test_rejects_semidefinite_below_floor(self):
        with pytest.raises(NotPositiveDefinite):
            pd_inv_sqrt(np.diag([1.0, 0.0]))
        with pytest.raises(NotPositiveDefinite):
            pd_inv_sqrt(np.diag([1.0, 1e-14]))


def reference_herm_eig(H):
    """herm_eig of H's Hermitian part as written before it dropped its copies
    and its symmetrization, with numpy's norm."""
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


def reference_frob(M):
    """numpy's norm where it is at least 1e-150.  Below that its squares
    underflow, and the norm is summed from M over its largest magnitude."""
    want = float(np.linalg.norm(M))
    if want >= 1e-150 or not M.any():
        return want
    s = float(max(np.abs(M.real).max(), np.abs(M.imag).max()))
    return s * float(np.linalg.norm(M / s))


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
    # Norms below 1e-150, whose squares underflow in numpy's sum.
    @example(np.array([[6.7e-164]]))
    @example(np.array([[5e-324, 0.0], [-1e-320, 3e-310]]))
    @example(np.array([[1e-200 + 2e-200j, 0.0], [0.0, -3e-180j]]))
    def test_frob_is_numpy_norm(self, M):
        want = reference_frob(M)
        assert frob(M) == want
        assert frob(M.T) == reference_frob(M.T)
        assert frob(M.tolist()) == want

    def test_frob_below_the_normal_range(self):
        # numpy divides a complex array by its subnormal largest magnitude
        # through the reciprocal, which overflows; frob divides the parts.
        M = np.array([[1e-316 + 2e-316j, 0.0], [-3e-317j, 5e-324]])
        assert frob(M) == frob(M.view(np.float64)) > 0.0

    def test_frob_on_strided_views_and_empty(self):
        rng = np.random.default_rng(20)
        M = random_complex(rng, 7, 5)
        for view in (M, M.T, M[::2, 1::2], M[:, ::-1], M.real, M.imag[::-1], M[:0]):
            assert frob(view) == float(np.linalg.norm(view))
        assert frob(np.zeros((0, 0))) == 0.0
        assert frob([[1, 2], [3, 4]]) == float(np.linalg.norm([[1, 2], [3, 4]]))

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_herm_eig(self, dim):
        # herm_eig decomposes H as given and refuses a non-Hermitian one;
        # rank_tol and every other caller symmetrize first.
        rng = np.random.default_rng([21, dim])
        for trial in range(25):
            H = random_complex(rng, dim, dim) if trial % 5 == 0 else random_hermitian(rng, dim)
            w0, V0 = reference_herm_eig(H)
            if trial % 5 == 0:
                with pytest.raises(NumericalFailure, match="^eigendecomposition residual"):
                    herm_eig(H)
                assert rank_tol(H) == spectral_rank(w0)
                H = hermitian_part(H)
            w, V = herm_eig(H)
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


NON_FINITE = pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                                     ids=["nan", "+inf", "-inf"])


class TestNonFiniteInput:
    """A non-finite entry is refused by every rank and eigendecomposition
    contract: NaN compares false, so each test is written so that NaN fails."""

    @NON_FINITE
    def test_rank_and_kernel_refuse(self, value):
        for f in (rank_tol, kernel_dim):
            with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
                f(np.diag([value, 1.0]))

    @NON_FINITE
    def test_decompositions_refuse(self, value):
        for f in (herm_eig, pd_inv_sqrt):
            with pytest.raises(NumericalFailure, match="^eigendecomposition residual nan "):
                f(np.diag([value, 1.0]))
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            svd(np.diag([value, 1.0]))

    def test_a_nan_residual_breaks_each_contract(self, monkeypatch):
        # The residual of a finite input, made NaN where each contract
        # reads its own.
        for name, call in (("_complex_frob", herm_eig), ("identity_defect", pd_inv_sqrt),
                           ("frob", svd)):
            with monkeypatch.context() as patch:
                patch.setattr(numkernel, name, lambda *args: np.nan)
                with pytest.raises(NumericalFailure, match="residual nan exceeds"):
                    call(np.diag([2.0, 1.0]))


class TestRealign:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            M = random_complex(rng, k * m, k * m)
            assert np.array_equal(unrealign(realign(M, k, m), k, m), M)

    def test_unrealign_refuses_a_shape_other_than_k2_by_m2(self):
        with pytest.raises(ValueError, match=r"^expected shape \(4, 9\), got \(9, 4\)$"):
            unrealign(np.zeros((9, 4)), 2, 3)

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
