"""Alternating scaling loop: invariants, verdicts, progress measure."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opscale import fixtures, scaling
from opscale.numkernel import (NotPositiveDefinite, NumericalFailure, Tolerances,
                               as_complex_matrix, frob, kron)
from opscale.posmap import (BlockCertificate, ChoiMap, haar_unitary,
                            is_doubly_stochastic, verify_block_certificate)
from opscale.scaling import (VERDICT_CONVERGED, VERDICT_INCONCLUSIVE,
                             VERDICT_NO_SUPPORT, VERDICT_PRECONDITION,
                             CommutationReport, IterationRecord,
                             PreconditionFailed, block_commutation_check, init,
                             run, step)
from test_fnf import FLOOR_TOL, floor_crossing_state

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


def reference_run(T, tol=TOL, max_iter=10000, divergence_logdet=None,
                  keep_history=True):
    """``run``'s outcome from a hand-rolled ``init``/``step`` loop: stop when
    converged, diverged or capped, tested in that order on every iterate."""
    threshold = 50.0 * T.k * T.m if divergence_logdet is None else divergence_logdet
    try:
        state = init(T, tol)
    except PreconditionFailed as exc:
        return VERDICT_PRECONDITION, 0, None, None, None, None, (), str(exc)
    history = []
    while True:
        if keep_history:
            history.append(IterationRecord(state.n, state.in_residual,
                                           state.out_residual, state.logdet))
        if max(state.in_residual, state.out_residual) <= tol.conv_eps:
            verdict, reason = VERDICT_CONVERGED, None
            break
        if state.logdet > threshold:
            verdict = VERDICT_NO_SUPPORT
            reason = f"log-determinant {state.logdet:.3f} exceeded {threshold:.3f}"
            break
        if state.n >= max_iter:
            verdict = VERDICT_INCONCLUSIVE
            reason = f"residuals above {tol.conv_eps:g} after {max_iter} iterations"
            break
        state = step(state, T, tol)
    ds_map = None
    if verdict == VERDICT_CONVERGED:
        ds_map = T.conjugated(state.in_filter, state.out_filter).choi.tobytes()
    return (verdict, state.n, state.logdet, state.in_filter.tobytes(),
            state.out_filter.tobytes(), ds_map, tuple(history), reason)


def report_fields(report):
    """A ``ScalingReport`` in ``reference_run``'s layout."""
    return (report.verdict, report.iterations, report.logdet,
            None if report.in_filter is None else report.in_filter.tobytes(),
            None if report.out_filter is None else report.out_filter.tobytes(),
            None if report.ds_map is None else report.ds_map.choi.tobytes(),
            report.history, report.failure_reason)


@pytest.mark.parametrize("source", [(k, m) for k in range(1, 5) for m in range(1, 5)]
                         + ["no_support_map", "boundary_map"], ids=str)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), rank=st.sampled_from([None, 1, 2]),
       max_iter=st.sampled_from([0, 1, 3, 10000]),
       divergence_logdet=st.sampled_from([None, 0.5, 5.0]),
       keep_history=st.booleans())
def test_run_matches_the_hand_rolled_loop(source, seed, rank, max_iter,
                                          divergence_logdet, keep_history):
    if isinstance(source, tuple):
        T = fixtures.random_cp_map(*source, np.random.default_rng(seed), rank=rank)
    else:
        T = getattr(fixtures, source)()
    kwargs = dict(max_iter=max_iter, divergence_logdet=divergence_logdet,
                  keep_history=keep_history)
    # repr tells every float apart bit for bit, NaN included
    assert repr(report_fields(run(T, **kwargs))) == repr(reference_run(T, **kwargs))


class EinsumChoiMap(ChoiMap):
    """A map applied by the einsum formulas over its blocks, as before the
    realigned storage."""

    def apply(self, X):
        X = as_complex_matrix(X)
        blocks = self.choi.reshape(self.k, self.m, self.k, self.m)
        return np.einsum("ji,ipjq->pq", X, blocks)

    def apply_adjoint(self, Y):
        Y = as_complex_matrix(Y)
        blocks = self.choi.reshape(self.k, self.m, self.k, self.m)
        return np.einsum("pq,ipjq->ji", Y, blocks.conj())


def run_outcome(T):
    try:
        report = run(T)
    except NumericalFailure as exc:
        return "NumericalFailure", str(exc)
    return report.verdict, report.iterations


class TestIterationCounts:
    """The one-product apply leaves every verdict and iteration count as the
    einsum apply had them."""

    @pytest.mark.parametrize("rank", [None, 1])
    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_random_maps(self, k, m, rank):
        T = fixtures.random_cp_map(k, m, np.random.default_rng([k, m, 2]), rank=rank)
        reference = EinsumChoiMap(k, m, T.choi, check_positivity=False)
        assert run_outcome(T) == run_outcome(reference)

    def test_no_support_map(self):
        T = fixtures.no_support_map()
        reference = EinsumChoiMap(T.k, T.m, T.choi, check_positivity=False)
        got = run_outcome(T)
        assert got[0] == VERDICT_NO_SUPPORT
        assert got == run_outcome(reference)


class OperatorOnly:
    """Exposes only the members the scaling module documents as its needs."""

    __slots__ = ("k", "m", "_map")

    def __init__(self, T):
        self.k, self.m, self._map = T.k, T.m, T

    def apply(self, X):
        return self._map.apply(X)

    def apply_adjoint(self, Y):
        return self._map.apply_adjoint(Y)

    def conjugated(self, P, Q):
        return self._map.conjugated(P, Q)


class TestOperatorInterface:
    @pytest.mark.parametrize("k, m", [(2, 3), (3, 3), (4, 2)])
    def test_run_needs_only_the_documented_members(self, k, m):
        T = fixtures.random_cp_map(k, m, np.random.default_rng([k, m, 5]))
        want = run(T)
        got = run(OperatorOnly(T))
        assert want.converged and got.verdict == want.verdict
        assert got.iterations == want.iterations
        assert np.array_equal(got.in_filter, want.in_filter)
        assert np.array_equal(got.out_filter, want.out_filter)
        assert np.array_equal(got.ds_map.choi, want.ds_map.choi)


def trace_to_corner_map():
    """X -> tr(X) E00 on 2x2: T(Id) is singular, every certificate with one
    block is invariant."""
    choi = np.zeros((4, 4), dtype=complex)
    choi[0, 0] = choi[2, 2] = 1.0
    return ChoiMap(2, 2, choi)


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

    def test_last_iterate_is_checked(self, monkeypatch):
        rng = np.random.default_rng(12)
        parts = [fixtures.random_cp_map(2, 2, rng), fixtures.random_cp_map(2, 2, rng)]
        T, cert = fixtures.direct_sum_map(parts)
        n_steps, calls, real_step = 5, [], scaling.step

        def spoil_last_step(state, T, tol=TOL):
            calls.append(state.n)
            state = real_step(state, T, tol)
            if len(calls) < n_steps:
                return state
            # mixes the two blocks, so it commutes with neither projector
            return dataclasses.replace(state, in_filter=np.ones((T.k, T.k), complex))

        monkeypatch.setattr(scaling, "step", spoil_last_step)
        report = block_commutation_check(T, cert, n_steps=n_steps)
        assert len(calls) == n_steps
        assert report.precondition_ok and not report.passed
        assert report.steps_run == n_steps
        assert report.first_failure is not None
        assert report.first_failure[:2] == (n_steps, "input")

    def test_singular_marginal_is_rejected_not_raised(self):
        cert = BlockCertificate((np.eye(2, dtype=complex),),
                                (np.eye(2, dtype=complex),))
        report = block_commutation_check(trace_to_corner_map(), cert, n_steps=3)
        assert report == CommutationReport(passed=False, precondition_ok=False,
                                           steps_run=0, first_failure=None)

    # On a 2x3 map: an input family of 3x3 projectors, which numpy cannot
    # broadcast against 2x2 blocks, and an output family of 1x1 ones, which
    # it can.
    @pytest.mark.parametrize("k_cert, m_cert", [(3, 3), (2, 1)])
    def test_mismatched_certificate_dimensions_are_refused(self, k_cert, m_cert):
        T = fixtures.random_cp_map(2, 3, np.random.default_rng(14))
        cert = BlockCertificate((np.eye(k_cert, dtype=complex),),
                                (np.eye(m_cert, dtype=complex),))
        for check in (block_commutation_check, verify_block_certificate):
            with pytest.raises(ValueError,
                               match="^certificate dimensions do not match the map$"):
                check(T, cert)


class TestRefusals:
    """The update owns what a run may raise besides PreconditionFailed: a
    NumericalFailure, and no numpy warning, which this suite turns into an
    error."""

    @pytest.mark.parametrize("divergence", [1e4, math.inf])
    def test_overflowing_iterate_is_a_numerical_failure(self, divergence):
        with pytest.raises(NumericalFailure,
                           match=r"^scaling iterate \d+ is not finite: overflow") as exc:
            run(fixtures.no_support_map(), divergence_logdet=divergence)
        assert isinstance(exc.value.__cause__, FloatingPointError)

    def test_marginal_below_the_floor_keeps_its_message(self):
        T = ChoiMap(2, 3, floor_crossing_state().rho, check_positivity=False)
        with pytest.raises(NumericalFailure) as exc:
            run(T, FLOOR_TOL)
        assert isinstance(exc.value.__cause__, NotPositiveDefinite)
        assert str(exc.value) == str(exc.value.__cause__)
        assert str(exc.value).startswith("input-side marginal not positive definite: ")

    def test_commutation_check_raises_the_same(self):
        identity = (np.eye(3, dtype=complex),)
        with pytest.raises(NumericalFailure, match=r"^scaling iterate \d+ is not finite: "):
            block_commutation_check(fixtures.no_support_map(),
                                    BlockCertificate(identity, identity), n_steps=3000)
