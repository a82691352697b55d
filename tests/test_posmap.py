"""Positive maps in block storage: conventions, duality, lifts, certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opscale import fixtures, posmap
from opscale.numkernel import (Tolerances, frob, kron, partial_trace_first,
                               partial_trace_second)
from opscale.posmap import (BlockCertificate, ChoiMap, PositivityViolation,
                            from_state, haar_unitary, invariance_defect,
                            is_doubly_stochastic, pattern_matrix,
                            sampled_support_falsifier,
                            verify_block_certificate)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_hermitian(rng, dim):
    M = random_complex(rng, dim, dim)
    return (M + M.conj().T) / 2.0


class TestChoiMapValidation:
    def test_rejects_non_hermitian_storage(self):
        C = np.zeros((4, 4), dtype=complex)
        C[0, 1] = 1.0
        with pytest.raises(ValueError):
            ChoiMap(2, 2, C)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ChoiMap(2, 3, np.eye(4))

    def test_sampled_positivity_catches_negative_direction(self):
        with pytest.raises(PositivityViolation,
                           match=r"^map sent a rank-one projector to eigenvalue -4\.996e-01$"):
            ChoiMap(2, 2, np.diag([1.0, 1.0, 1.0, -1.0]))

    def test_positivity_check_can_be_skipped(self):
        T = ChoiMap(2, 2, np.diag([1.0, 1.0, 1.0, -1.0]), check_positivity=False)
        assert T.k == 2 and T.m == 2


def _no_sampling(monkeypatch):
    def refuse(dim, rng):
        raise AssertionError("positivity was sampled, not proved")
    monkeypatch.setattr(posmap, "random_unit_vector", refuse)


def _count_samples(monkeypatch):
    calls = []
    draw = posmap.random_unit_vector

    def counted(dim, rng):
        calls.append(dim)
        return draw(dim, rng)
    monkeypatch.setattr(posmap, "random_unit_vector", counted)
    return calls


def classical_lift(A):
    """Storage of ``X -> sum_ij A[i, j] X[j, j] E_ii`` for A >= 0."""
    k, m = A.shape[1], A.shape[0]
    blocks = np.zeros((k, m, k, m), dtype=complex)
    for j in range(k):
        blocks[j, :, j, :] = np.diag(A[:, j])
    return blocks.reshape(k * m, k * m)


class TestPositivityProof:
    @pytest.mark.parametrize("rank", [1, None])
    def test_psd_storage_is_proved_without_sampling(self, monkeypatch, rank):
        rng = np.random.default_rng(11)
        _no_sampling(monkeypatch)
        for k in range(1, 5):
            for m in range(1, 5):
                C = fixtures.random_cp_map(k, m, rng, rank=rank).choi
                T = ChoiMap(k, m, C)
                assert np.array_equal(T.choi, C)

    def test_state_maps_and_classical_lift_are_proved(self, monkeypatch):
        rng = np.random.default_rng(12)
        _no_sampling(monkeypatch)
        ChoiMap(3, 4, fixtures.random_state_matrix(3, 4, rng, kernel_dim=5))
        ChoiMap(3, 3, fixtures.max_entangled_state(3))     # transpose / 3
        ChoiMap(3, 2, classical_lift(rng.random((2, 3)) * (rng.random((2, 3)) < 0.5)))

    @pytest.mark.parametrize("storage", [
        fixtures.identity_map(3).choi,      # swap operator: not PSD
        1e8 * np.eye(9),                    # PSD, but past the rounding bound
    ], ids=["identity", "huge-trace"])
    def test_falls_back_to_sampling(self, monkeypatch, storage):
        calls = _count_samples(monkeypatch)
        T = ChoiMap(3, 3, storage)
        assert (T.k, T.m) == (3, 3)
        assert len(calls) == 200

    def test_proof_draws_nothing_from_the_rng(self):
        rng = np.random.default_rng(13)
        ChoiMap(2, 3, fixtures.random_cp_map(2, 3, np.random.default_rng(0)).choi, rng=rng)
        assert rng.random() == np.random.default_rng(13).random()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(1, 3), m=st.integers(1, 3), rank=st.integers(1, 9),
           scale=st.floats(1e-3, 1e3), t=st.floats(0.0, 1.5e-8),
           seed=st.integers(0, 2**32 - 1))
    def test_proof_accepts_only_what_sampling_accepts(self, k, m, rank, scale, t, seed):
        rng = np.random.default_rng(seed)
        n = k * m
        G = random_complex(rng, n, min(rank, n))
        C = scale * (G @ G.conj().T) / n - t * np.eye(n)
        T = ChoiMap(k, m, C, check_positivity=False)
        proved = posmap._storage_proves_positivity(T.choi)
        if rank < n and t > 0.6e-8:     # lambda_min(C) = -t, below the shift
            assert not proved
        if proved:
            T._sampled_positivity_check(rng)


class TestApplyConventions:
    def test_identity_map_is_identity(self):
        rng = np.random.default_rng(0)
        T = fixtures.identity_map(3)
        for _ in range(10):
            X = random_complex(rng, 3, 3)
            assert frob(T.apply(X) - X) < 1e-14

    def test_apply_is_linear(self):
        rng = np.random.default_rng(1)
        T = fixtures.random_cp_map(3, 2, rng)
        X = random_complex(rng, 3, 3)
        Y = random_complex(rng, 3, 3)
        a = 1.3 - 0.4j
        assert frob(T.apply(a * X + Y) - a * T.apply(X) - T.apply(Y)) < 1e-12

    def test_adjoint_duality(self):
        # <T(X), Y> = <X, T*(Y)> in the trace inner product
        rng = np.random.default_rng(2)
        for _ in range(30):
            k = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            T = fixtures.random_cp_map(k, m, rng)
            X = random_complex(rng, k, k)
            Y = random_complex(rng, m, m)
            lhs = np.trace(Y.conj().T @ T.apply(X))
            rhs = np.trace(T.apply_adjoint(Y).conj().T @ X)
            assert abs(lhs - rhs) < 1e-11

    def test_adjoint_map_object_agrees(self):
        rng = np.random.default_rng(3)
        T = fixtures.random_cp_map(2, 4, rng)
        S = T.adjoint()
        assert (S.k, S.m) == (4, 2)
        for _ in range(10):
            Y = random_complex(rng, 4, 4)
            assert frob(S.apply(Y) - T.apply_adjoint(Y)) < 1e-13
        assert frob(S.adjoint().choi - T.choi) < 1e-14

    def test_apply_preserves_positivity_of_cp_fixture(self):
        rng = np.random.default_rng(4)
        T = fixtures.random_cp_map(3, 3, rng)
        for _ in range(10):
            V = random_complex(rng, 3, 3)
            X = V @ V.conj().T
            w = np.linalg.eigvalsh(T.apply(X))
            assert w[0] > -1e-11 * max(1.0, w[-1])


def einsum_apply(T, X):
    """T(X) by the einsum formula over the block storage, the reference for
    the one-product apply on the realigned storage."""
    blocks = T.choi.reshape(T.k, T.m, T.k, T.m)
    return np.einsum("ji,ipjq->pq", np.asarray(X, dtype=complex), blocks)


def einsum_adjoint(T, Y):
    blocks = T.choi.reshape(T.k, T.m, T.k, T.m)
    return np.einsum("pq,ipjq->ji", np.asarray(Y, dtype=complex), blocks.conj())


def operand(rng, dim, kind):
    if kind == "complex":
        return random_complex(rng, dim, dim)
    if kind == "real":
        return rng.standard_normal((dim, dim))
    if kind == "integer":
        return rng.integers(-5, 6, size=(dim, dim))
    return random_complex(rng, dim, dim).tolist()


_shapes = dict(k=st.integers(1, 5), m=st.integers(1, 5),
               seed=st.integers(0, 2**32 - 1),
               kind=st.sampled_from(["complex", "real", "integer", "list"]))


class TestRealignedApply:
    """apply and apply_adjoint as one product with the realigned storage
    agree with the einsum formulas over the blocks."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(**_shapes)
    def test_matches_einsum(self, k, m, seed, kind):
        # Relative to ||X|| ||C||, which bounds ||T(X)|| and ||T*(Y)||.
        rng = np.random.default_rng(seed)
        T = ChoiMap(k, m, random_hermitian(rng, k * m), check_positivity=False)
        X, Y = operand(rng, k, kind), operand(rng, m, kind)
        scale = frob(T.choi)
        fwd = T.apply(X)
        assert fwd.shape == (m, m) and fwd.dtype == np.complex128
        assert frob(fwd - einsum_apply(T, X)) <= 1e-13 * frob(np.asarray(X)) * scale
        adj = T.apply_adjoint(Y)
        assert adj.shape == (k, k) and adj.dtype == np.complex128
        assert frob(adj - einsum_adjoint(T, Y)) <= 1e-13 * frob(np.asarray(Y)) * scale

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(**_shapes)
    def test_adjoint_identity(self, k, m, seed, kind):
        # <T(X), Y> = <X, T*(Y)> with <A, B> = tr(A B*) = vdot(B, A)
        rng = np.random.default_rng(seed)
        T = fixtures.random_cp_map(k, m, rng)
        X, Y = operand(rng, k, kind), operand(rng, m, kind)
        lhs = np.vdot(np.asarray(Y), T.apply(X))
        rhs = np.vdot(T.apply_adjoint(Y), np.asarray(X))
        bound = frob(np.asarray(X)) * frob(np.asarray(Y)) * frob(T.choi)
        assert abs(lhs - rhs) <= 1e-13 * bound

    def test_inputs_are_left_unchanged(self):
        rng = np.random.default_rng(7)
        T = fixtures.random_cp_map(3, 2, rng)
        X, Y = random_complex(rng, 3, 3), random_complex(rng, 2, 2)
        X0, Y0 = X.copy(), Y.copy()
        T.apply(X)
        T.apply_adjoint(Y)
        assert np.array_equal(X, X0) and np.array_equal(Y, Y0)

    def test_realigned_storage_is_built_on_first_application(self):
        T = fixtures.random_cp_map(2, 3, np.random.default_rng(8))
        lifted = T.tilde_lift()
        assert "_realigned" not in vars(T)
        T.apply(np.eye(2))
        assert "_realigned" in vars(T)
        assert "_realigned" not in vars(lifted)

    @pytest.mark.parametrize("method, dim", [("apply", 3), ("apply_adjoint", 2)])
    def test_error_messages(self, method, dim):
        T = fixtures.random_cp_map(3, 2, np.random.default_rng(9))
        f = getattr(T, method)
        wrong = dim + 1
        with pytest.raises(ValueError) as info:
            f(np.zeros((wrong, wrong)))
        assert str(info.value) == (f"expected input shape {(dim, dim)}, "
                                   f"got {(wrong, wrong)}")
        with pytest.raises(ValueError) as info:
            f(np.zeros(dim * dim))
        assert str(info.value) == f"expected a 2-d matrix, got shape {(dim * dim,)}"
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            X = np.zeros((dim, dim), dtype=complex)
            X[-1, 0] = bad
            with pytest.raises(ValueError) as info:
                f(X)
            assert str(info.value) == "matrix contains non-finite entries"
            with pytest.raises(ValueError) as info:
                f(X.tolist())
            assert str(info.value) == "matrix contains non-finite entries"


class TestStateMapCorrespondence:
    def test_forward_map_marginal_is_first_partial_trace(self):
        rng = np.random.default_rng(5)
        for k, m in [(2, 2), (2, 3), (3, 4)]:
            rho = fixtures.random_state_matrix(k, m, rng)
            G, F = from_state(rho, k, m)
            assert frob(G.apply(np.eye(k)) - partial_trace_first(rho, k, m)) < 1e-13
            assert frob(F.apply(np.eye(m)) - partial_trace_second(rho, k, m)) < 1e-13

    def test_maximally_entangled_gives_transpose_over_dim(self):
        rng = np.random.default_rng(6)
        for d in (2, 3):
            G, _ = from_state(fixtures.max_entangled_state(d), d, d)
            for _ in range(10):
                X = random_complex(rng, d, d)
                assert frob(G.apply(X) - X.T / d) < 1e-13

    def test_adjoint_pair_consistency(self):
        # the returned pair is a map and its adjoint
        rng = np.random.default_rng(7)
        rho = fixtures.random_state_matrix(2, 3, rng)
        G, F = from_state(rho, 2, 3)
        assert (F.k, F.m) == (3, 2)
        Y = random_hermitian(rng, 3)
        assert frob(F.apply(Y) - G.apply_adjoint(Y)) < 1e-13
        X = random_complex(rng, 2, 2)
        lhs = np.trace(Y.conj().T @ G.apply(X))
        rhs = np.trace(G.apply_adjoint(Y).conj().T @ X)
        assert abs(lhs - rhs) < 1e-12

    def test_rejects_non_psd_state(self):
        with pytest.raises(ValueError):
            from_state(np.diag([1.0, 1.0, 1.0, -0.5]), 2, 2)


class TestConjugation:
    def test_transport_identity(self):
        # conjugated(P, Q) acts as X -> Q T(P X P*) Q*
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            T = fixtures.random_cp_map(k, m, rng)
            P = random_complex(rng, k, k)
            Q = random_complex(rng, m, m)
            S = T.conjugated(P, Q)
            X = random_complex(rng, k, k)
            want = Q @ T.apply(P @ X @ P.conj().T) @ Q.conj().T
            assert frob(S.apply(X) - want) < 1e-10 * max(1.0, frob(want))

    def test_unitary_conjugation_preserves_ds(self):
        rng = np.random.default_rng(9)
        T = fixtures.trace_ds_map(3, 3)
        U = haar_unitary(3, rng)
        V = haar_unitary(3, rng)
        S = T.conjugated(U, V)
        assert is_doubly_stochastic(S, 1e-10)


class TestTildeLift:
    def test_block_diagonal_evaluation(self):
        # the lift reads the block diagonal, applies the map, tensors identity
        rng = np.random.default_rng(10)
        for k, m in [(2, 2), (2, 3), (3, 2)]:
            T = fixtures.random_cp_map(k, m, rng)
            L = T.tilde_lift()
            n = m * k
            assert (L.k, L.m) == (n, n)
            Z = random_complex(rng, n, n)
            diag_sum = np.einsum("iaib->ab", Z.reshape(m, k, m, k))
            want = kron(T.apply(diag_sum), np.eye(k))
            assert frob(L.apply(Z) - want) < 1e-11

    def test_marginals_of_lift(self):
        rng = np.random.default_rng(11)
        k, m = 3, 2
        T = fixtures.random_cp_map(k, m, rng)
        L = T.tilde_lift()
        n = m * k
        eye_n = np.eye(n, dtype=complex)
        fwd = kron(T.apply(m * np.eye(k, dtype=complex)), np.eye(k))
        adj = k * kron(np.eye(m), T.apply_adjoint(np.eye(m, dtype=complex)))
        assert frob(L.apply(eye_n) - fwd) < 1e-11
        assert frob(L.apply_adjoint(eye_n) - adj) < 1e-11

    def test_lift_adjoint_formula(self):
        rng = np.random.default_rng(12)
        k, m = 2, 3
        T = fixtures.random_cp_map(k, m, rng)
        L = T.tilde_lift()
        W = random_complex(rng, m * k, m * k)
        want = kron(np.eye(m), T.apply_adjoint(partial_trace_second(W, m, k)))
        assert frob(L.apply_adjoint(W) - want) < 1e-11


class TestDsCheck:
    def test_trace_fixture_is_ds(self):
        for k, m in [(2, 2), (2, 3), (4, 3)]:
            chk = is_doubly_stochastic(fixtures.trace_ds_map(k, m), 1e-12)
            assert chk
            assert chk.forward_defect < 1e-13
            assert chk.adjoint_defect < 1e-13

    def test_identity_map_is_ds(self):
        # square identity: both marginal conditions hold with the same scale
        assert is_doubly_stochastic(fixtures.identity_map(3), 1e-12)

    def test_skewed_sandwich_is_not_ds(self):
        T = fixtures.sandwich_map(np.diag([1.0, 2.0]))
        assert not is_doubly_stochastic(T, 1e-6)


class TestPatternMatrix:
    def test_sandwich_pattern_is_squared_moduli(self):
        rng = np.random.default_rng(13)
        S = random_complex(rng, 3, 3)
        T = fixtures.sandwich_map(S)
        pat = pattern_matrix(T, np.eye(3, dtype=complex), np.eye(3, dtype=complex))
        assert frob(pat.entries - (np.abs(S) ** 2).T) < 1e-12

    def test_rotated_basis_changes_pattern(self):
        rng = np.random.default_rng(14)
        T = fixtures.boundary_map()
        U = haar_unitary(2, rng)
        V = haar_unitary(2, rng)
        pat = pattern_matrix(T, U, V)
        assert pat.entries.shape == (2, 2)
        assert np.all(pat.entries >= 0.0)

    def test_rejects_non_unitary_basis(self):
        T = fixtures.boundary_map()
        with pytest.raises(ValueError):
            pattern_matrix(T, np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))


class TestFalsifier:
    def test_no_support_fixture_falsified_in_canonical_basis(self):
        rep = sampled_support_falsifier(fixtures.no_support_map(), trials=5,
                                        rng=np.random.default_rng(15))
        assert rep.support_falsified
        assert rep.support_counterexample.canonical
        assert rep.support_counterexample.witness is not None

    def test_boundary_map_total_support_falsified(self):
        rep = sampled_support_falsifier(fixtures.boundary_map(), trials=5,
                                        rng=np.random.default_rng(16))
        assert rep.support_inconclusive
        assert rep.total_support_falsified
        assert rep.total_support_counterexample.failing_entry is not None

    def test_generic_cp_map_stays_inconclusive(self):
        rng = np.random.default_rng(17)
        T = fixtures.random_cp_map(3, 3, rng)
        rep = sampled_support_falsifier(T, trials=10, rng=rng)
        assert rep.support_inconclusive
        assert rep.total_support_inconclusive


class TestCertificates:
    def test_structure_defect_zero_for_projector_families(self):
        rng = np.random.default_rng(18)
        parts = [fixtures.random_cp_map(2, 2, rng), fixtures.random_cp_map(1, 1, rng)]
        _, cert = fixtures.direct_sum_map(parts)
        assert cert.structure_defect() < 1e-14

    def test_direct_sum_certificate_verifies(self):
        rng = np.random.default_rng(19)
        parts = [fixtures.random_cp_map(2, 2, rng), fixtures.random_cp_map(1, 1, rng)]
        T, cert = fixtures.direct_sum_map(parts)
        rep = verify_block_certificate(T, cert, rng=rng)
        assert rep.decomposition.passed
        assert rep.invariance.passed
        assert rep.strict_rank_increase.passed
        assert rep.rank_ratio.passed
        assert rep.passed

    def test_rectangular_direct_sum_with_equal_ratios(self):
        rng = np.random.default_rng(20)
        parts = [fixtures.random_cp_map(1, 2, rng), fixtures.random_cp_map(2, 4, rng)]
        T, cert = fixtures.direct_sum_map(parts)
        rep = verify_block_certificate(T, cert, rng=rng)
        assert rep.passed

    def test_ratio_violation_is_flagged(self):
        rng = np.random.default_rng(21)
        parts = [fixtures.random_cp_map(2, 2, rng), fixtures.random_cp_map(1, 2, rng)]
        T, cert = fixtures.direct_sum_map(parts)
        rep = verify_block_certificate(T, cert, rng=rng)
        assert rep.invariance.passed
        assert not rep.rank_ratio.passed
        assert not rep.passed

    def test_invariance_fails_for_unstructured_map(self):
        rng = np.random.default_rng(22)
        _, cert = fixtures.direct_sum_map(
            [fixtures.random_cp_map(2, 2, rng), fixtures.random_cp_map(1, 1, rng)])
        T = fixtures.random_cp_map(3, 3, rng)
        rep = verify_block_certificate(T, cert, rng=rng)
        assert not rep.invariance.passed
        assert not rep.passed
        assert invariance_defect(T, cert, rng=rng) > 1e-3

    def test_decomposition_fails_for_non_projectors(self):
        rng = np.random.default_rng(23)
        T = fixtures.random_cp_map(2, 2, rng)
        H = np.array([[0.5, 0.5], [0.5, 0.5]])
        cert = BlockCertificate((H, np.eye(2) - H),
                                (1.3 * H, np.eye(2) - 1.3 * H))
        rep = verify_block_certificate(T, cert, rng=rng)
        assert not rep.decomposition.passed

    def test_strict_rank_is_skipped_without_a_decomposition(self):
        rng = np.random.default_rng(0)
        T, cert = fixtures.direct_sum_map(
            [fixtures.random_cp_map(2, 3, rng), fixtures.random_cp_map(1, 2, rng)])
        first = cert.input_projectors[0] + 1e-3 * np.eye(T.k)
        rep = verify_block_certificate(T, BlockCertificate(
            (first, *cert.input_projectors[1:]), cert.output_projectors))
        assert not rep.decomposition.passed
        strict = rep.strict_rank_increase
        assert (strict.passed, strict.sampled) == (False, False)
        assert strict.detail.startswith("skipped: ")

    def test_trivial_certificate_strict_rank_tracks_the_map(self):
        # rank-preserving map: no strict increase; full Kraus rank map: strict
        rng = np.random.default_rng(24)
        trivial = BlockCertificate((np.eye(2),), (np.eye(2),))
        rep = verify_block_certificate(fixtures.identity_map(2), trivial, rng=rng)
        assert rep.decomposition.passed and rep.invariance.passed
        assert not rep.strict_rank_increase.passed
        rep = verify_block_certificate(fixtures.random_cp_map(2, 2, rng), trivial,
                                       rng=rng)
        assert rep.strict_rank_increase.passed

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(25)
        T = fixtures.random_cp_map(3, 3, rng)
        cert = BlockCertificate((np.eye(2),), (np.eye(2),))
        with pytest.raises(ValueError):
            verify_block_certificate(T, cert, rng=rng)


class TestHaar:
    def test_unitarity(self):
        rng = np.random.default_rng(26)
        for dim in (1, 2, 5):
            U = haar_unitary(dim, rng)
            assert frob(U.conj().T @ U - np.eye(dim)) < 1e-12
