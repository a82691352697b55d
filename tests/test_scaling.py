"""Alternating scaling loop: invariants, verdicts, progress measure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opscale import fixtures
from opscale.numkernel import NumericalFailure, Tolerances, frob, kron
from opscale.posmap import ChoiMap, haar_unitary, is_doubly_stochastic
from opscale.scaling import (VERDICT_CONVERGED, VERDICT_INCONCLUSIVE,
                             VERDICT_NO_SUPPORT, VERDICT_PRECONDITION,
                             PreconditionFailed, block_commutation_check, init,
                             run, step)

TOL = Tolerances()


def logdet_oracle(state, k, m):
    # independent recomputation of the tracked progress measure
    _, ldx = np.linalg.slogdet(state.in_filter)
    _, ldy = np.linalg.slogdet(state.out_filter)
    return m * ldx + k * ldy


class TestInit:
    def test_output_marginal_normalized_at_start(self):
        rng = np.random.default_rng(0)
        for k, m in [(2, 2), (2, 3), (4, 3)]:
            T = fixtures.random_cp_map(k, m, rng)
            state = init(T)
            got = state.out_filter @ T.apply(np.eye(k) / math.sqrt(k)) @ state.out_filter.conj().T
            assert frob(got - np.eye(m) / math.sqrt(m)) < 1e-12
            assert state.marginal_defect < 1e-12

    def test_trace_invariants(self):
        rng = np.random.default_rng(1)
        for k, m in [(2, 2), (3, 2), (2, 5)]:
            T = fixtures.random_cp_map(k, m, rng)
            state = init(T)
            din, dout = state.trace_defects(k, m)
            assert din < 1e-12 and dout < 1e-12

    def test_logdet_matches_direct_computation(self):
        rng = np.random.default_rng(2)
        T = fixtures.random_cp_map(3, 2, rng)
        state = init(T)
        assert abs(state.logdet - logdet_oracle(state, 3, 2)) < 1e-10

    def test_singular_forward_marginal_rejected(self):
        T = fixtures.sandwich_map(np.diag([1.0, 0.0]))
        with pytest.raises(PreconditionFailed) as exc:
            init(T)
        assert "T(Id)" in str(exc.value)

    def test_singular_adjoint_marginal_rejected(self):
        # X -> X[0,0] Id has full forward image but rank-one adjoint marginal
        choi = kron(np.diag([1.0, 0.0]), np.eye(3))
        T = ChoiMap(2, 3, choi)
        with pytest.raises(PreconditionFailed) as exc:
            init(T)
        assert "T*(Id)" in str(exc.value)


class TestStep:
    def test_invariants_hold_along_the_run(self):
        rng = np.random.default_rng(3)
        T = fixtures.random_cp_map(3, 3, rng)
        state = init(T)
        for _ in range(10):
            state = step(state, T)
            din, dout = state.trace_defects(3, 3)
            assert din < 1e-10 and dout < 1e-10
            assert state.marginal_defect < 1e-10
            assert abs(state.logdet - logdet_oracle(state, 3, 3)) < 1e-8

    def test_logdet_never_decreases(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            T = fixtures.random_cp_map(2, 3, rng)
            state = init(T)
            prev = state.logdet
            for _ in range(15):
                state = step(state, T)
                assert state.logdet >= prev - 1e-9
                prev = state.logdet

    def test_residuals_shrink_on_scalable_map(self):
        rng = np.random.default_rng(5)
        T = fixtures.random_cp_map(3, 4, rng)
        state = init(T)
        first = max(state.in_residual, state.out_residual)
        for _ in range(20):
            state = step(state, T)
        assert max(state.in_residual, state.out_residual) < first * 1e-3


@pytest.mark.parametrize("k, m", [(k, m) for k in range(1, 5) for m in range(1, 5)])
@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_steps=st.integers(1, 4))
def test_init_and_steps_keep_invariants(k, m, seed, n_steps):
    T = fixtures.random_cp_map(k, m, np.random.default_rng(seed))
    state, prev = init(T), -math.inf
    for n in range(n_steps + 1):
        if n:
            state = step(state, T)
        din, dout = state.trace_defects(k, m)
        assert din < 1e-10 and dout < 1e-10
        assert state.marginal_defect < 1e-10
        # independent recomputation of the renormalized output marginal
        X, Y = state.in_filter, state.out_filter
        defect = frob(Y @ T.apply(X @ X.conj().T / math.sqrt(k)) @ Y.conj().T
                      - np.eye(m) / math.sqrt(m))
        assert abs(defect - state.marginal_defect) < 1e-10
        oracle = logdet_oracle(state, k, m)
        assert abs(state.logdet - oracle) < 1e-9 * max(1.0, abs(oracle))
        assert state.logdet >= prev - 1e-9
        prev = state.logdet


class TestRun:
    def test_ds_input_is_a_fixed_point(self):
        report = run(fixtures.trace_ds_map(3, 2))
        assert report.verdict == VERDICT_CONVERGED
        assert report.iterations == 0

    def test_boundary_map_converges(self):
        report = run(fixtures.boundary_map(), Tolerances(conv_eps=1e-8),
                     max_iter=5000)
        assert report.converged
        assert is_doubly_stochastic(report.ds_map, 1e-7)

    def test_random_cp_maps_converge_to_ds(self):
        rng = np.random.default_rng(6)
        for k, m in [(2, 2), (2, 3), (3, 4)]:
            for _ in range(5):
                T = fixtures.random_cp_map(k, m, rng)
                report = run(T)
                assert report.converged
                check = is_doubly_stochastic(report.ds_map, 10.0 * TOL.conv_eps)
                assert check, (check.forward_defect, check.adjoint_defect)

    def test_ds_map_equals_filter_conjugation(self):
        rng = np.random.default_rng(7)
        T = fixtures.random_cp_map(2, 3, rng)
        report = run(T)
        S = T.conjugated(report.in_filter, report.out_filter)
        assert frob(S.choi - report.ds_map.choi) < 1e-13

    def test_history_is_recorded_and_monotone(self):
        rng = np.random.default_rng(8)
        T = fixtures.random_cp_map(3, 3, rng)
        report = run(T)
        assert len(report.history) == report.iterations + 1
        lds = [rec.logdet for rec in report.history]
        assert all(b >= a - 1e-9 for a, b in zip(lds, lds[1:]))
        assert run(T, keep_history=False).history == ()

    def test_no_support_fixture_diverges(self):
        report = run(fixtures.no_support_map(), max_iter=10000)
        assert report.verdict == VERDICT_NO_SUPPORT
        assert report.logdet > 50.0 * 9
        assert report.ds_map is None
        assert "exceeded" in report.failure_reason

    def test_divergence_threshold_is_configurable(self):
        report = run(fixtures.no_support_map(), divergence_logdet=5.0)
        early = report.iterations
        assert report.verdict == VERDICT_NO_SUPPORT
        assert early < run(fixtures.no_support_map()).iterations

    def test_ill_conditioned_marginals_scale(self):
        # T(Id) and T*(Id) with condition numbers of 1e6 to 1e8, well inside
        # the 1e10 positive-definiteness floor: the inverse square root's
        # reconstruction contract must not reject them first.
        rng = np.random.default_rng(8)
        loose = Tolerances(conv_eps=1e-8)
        for _ in range(4):
            U = haar_unitary(2, rng)
            for small in (1e-3, 3e-4, 1e-4):
                T = fixtures.sandwich_map(U @ np.diag([1.0, small]) @ U.conj().T)
                assert run(T, loose, max_iter=50).converged
            assert run(T, max_iter=20).verdict in (VERDICT_CONVERGED,
                                                   VERDICT_INCONCLUSIVE)
            V = haar_unitary(3, rng)
            X = V @ np.diag([1.0, 1e-2, 1e-4]) @ V.conj().T
            T = fixtures.random_cp_map(3, 2, rng).conjugated(X, np.eye(2))
            report = run(T, loose, max_iter=500)
            assert report.converged
            assert is_doubly_stochastic(report.ds_map, 1e-6)

    def test_max_iter_gives_inconclusive(self):
        rng = np.random.default_rng(9)
        T = fixtures.random_cp_map(3, 3, rng)
        full = run(T)
        assert full.converged and full.iterations > 2
        report = run(T, max_iter=2)
        assert report.verdict == VERDICT_INCONCLUSIVE
        assert report.iterations == 2
        assert report.ds_map is None

    def test_precondition_failure_is_reported_not_raised(self):
        report = run(fixtures.sandwich_map(np.diag([1.0, 0.0])))
        assert report.verdict == VERDICT_PRECONDITION
        assert report.failure_reason is not None
        assert report.ds_map is None

    def test_unitary_conjugation_does_not_change_convergence(self):
        rng = np.random.default_rng(10)
        T = fixtures.random_cp_map(2, 3, rng)
        from opscale.posmap import haar_unitary
        S = T.conjugated(haar_unitary(2, rng), haar_unitary(3, rng))
        assert run(S).converged

    def test_tilde_lift_verdict_matches_on_scalable_map(self):
        rng = np.random.default_rng(11)
        T = fixtures.random_cp_map(2, 2, rng)
        assert run(T).converged
        assert run(T.tilde_lift()).converged


class TestCommutation:
    def test_direct_sum_iterates_commute(self):
        rng = np.random.default_rng(12)
        parts = [fixtures.random_cp_map(2, 2, rng), fixtures.random_cp_map(2, 2, rng)]
        T, cert = fixtures.direct_sum_map(parts)
        report = block_commutation_check(T, cert, n_steps=30)
        assert report.precondition_ok
        assert report.passed
        assert report.first_failure is None

    def test_invalid_certificate_is_rejected_up_front(self):
        rng = np.random.default_rng(13)
        _, cert = fixtures.direct_sum_map(
            [fixtures.random_cp_map(2, 2, rng), fixtures.random_cp_map(1, 1, rng)])
        T = fixtures.random_cp_map(3, 3, rng)
        report = block_commutation_check(T, cert, n_steps=10)
        assert not report.precondition_ok
        assert not report.passed
        assert report.steps_run == 0
