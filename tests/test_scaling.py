"""Alternating scaling loop: invariants, verdicts, progress measure."""

import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opscale import fixtures, numkernel, scaling
from opscale.fnf import BipartiteState, compute_fnf
from opscale.matcomb import NonnegPattern, has_support, has_total_support
from opscale.numkernel import (NotPositiveDefinite, NumericalFailure, Tolerances,
                               as_complex_matrix, frob, kron)
from opscale.posmap import (BlockCertificate, ChoiMap, FilteredMap,
                            haar_unitary, is_doubly_stochastic, pattern_matrix,
                            verify_block_certificate)
from opscale.scaling import (VERDICT_CONVERGED, VERDICT_INCONCLUSIVE,
                             VERDICT_NO_SUPPORT, VERDICT_PRECONDITION,
                             IterationRecord, PreconditionFailed, init,
                             ds_slack, run, step)
from test_fnf import FLOOR_TOL, floor_crossing_state
from test_posmap import (classical_lift, direct_sums, rotated_classical_map,
                         summed_map)

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
        assert report.logdet - report.history[0].logdet > 50.0 * 9
        assert report.ds_map is None
        assert "exceeded" in report.failure_reason

    def test_divergence_threshold_is_configurable(self):
        report = run(fixtures.no_support_map(), divergence_logdet=5.0)
        early = report.iterations
        assert report.verdict == VERDICT_NO_SUPPORT
        assert early < run(fixtures.no_support_map()).iterations

    @pytest.mark.parametrize("e", [-200, -100, 100, 200])
    def test_verdict_does_not_depend_on_the_scale_of_the_map(self, e):
        # c * T shifts every iterate's log-determinant by -(km/2) log c, and
        # the divergence test reads its growth.
        maps = [fixtures.random_cp_map(k, m, np.random.default_rng([k, m]))
                for k, m in ((2, 2), (2, 3), (3, 2))] + [fixtures.no_support_map()]
        for T in maps:
            want = run(T, keep_history=False)
            got = run(ChoiMap(T.k, T.m, 2.0 ** e * T.choi), keep_history=False)
            assert (got.verdict, got.iterations) == (want.verdict, want.iterations)

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
    converged, diverged (log-determinant growth since iterate 0 past the
    threshold) or capped, tested in that order on every iterate."""
    threshold = 50.0 * T.k * T.m if divergence_logdet is None else divergence_logdet
    try:
        state = init(T, tol)
    except PreconditionFailed as exc:
        return VERDICT_PRECONDITION, 0, None, None, None, None, (), str(exc)
    start = state.logdet
    history = []
    while True:
        if keep_history:
            history.append(IterationRecord(state.n, state.in_residual,
                                           state.out_residual, state.logdet))
        if max(state.in_residual, state.out_residual) <= tol.conv_eps:
            verdict, reason = VERDICT_CONVERGED, None
            break
        if state.logdet - start > threshold:
            verdict = VERDICT_NO_SUPPORT
            reason = (f"log-determinant growth {state.logdet - start:.3f} "
                      f"exceeded {threshold:.3f}")
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


class TestRunLimits:
    """run, and compute_fnf through it, refuse the limits that give a false
    verdict before the first step: a divergence threshold at or below 0 ends
    a converging run diverged, and a NaN one switches the test off."""

    @pytest.mark.parametrize("kwargs, message", [
        ({"divergence_logdet": 0.0}, "divergence_logdet must be a positive number, got 0.0"),
        ({"divergence_logdet": -1.0}, "divergence_logdet must be a positive number, got -1.0"),
        ({"divergence_logdet": math.nan}, "divergence_logdet must be a positive number, got nan"),
        ({"max_iter": -1}, "max_iter must be nonnegative, got -1"),
    ])
    def test_refused_before_the_first_step(self, kwargs, message):
        T = fixtures.random_cp_map(2, 3, np.random.default_rng(0))
        state = BipartiteState(2, 3, fixtures.random_state_matrix(
            2, 3, np.random.default_rng(0)))
        # A singular reduced state: compute_fnf refuses the limit first.
        singular = BipartiteState(2, 2, np.diag([1.0, 0.0, 0.0, 0.0]))
        with mock.patch.object(scaling, "_iterates", side_effect=AssertionError):
            for call in (lambda: run(T, **kwargs),
                         lambda: compute_fnf(state, **kwargs),
                         lambda: compute_fnf(singular, **kwargs)):
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == message

    @pytest.mark.parametrize("divergence", [math.inf, 1e4])
    def test_positive_thresholds_are_taken(self, divergence):
        T = fixtures.random_cp_map(2, 3, np.random.default_rng(0))
        want = run(T)
        got = run(T, divergence_logdet=divergence)
        assert (want.verdict, want.iterations) == (VERDICT_CONVERGED, 17)
        assert (got.verdict, got.iterations) == (want.verdict, want.iterations)
        assert np.array_equal(got.in_filter, want.in_filter)
        assert np.array_equal(got.out_filter, want.out_filter)
        state = BipartiteState(2, 3, fixtures.random_state_matrix(
            2, 3, np.random.default_rng(0)))
        coefficients = [[t.coeff for t in result.schmidt]
                        for result in (compute_fnf(state),
                                       compute_fnf(state, divergence_logdet=divergence))]
        assert coefficients[0] == coefficients[1]


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


class ApplyOnly:
    """Exposes only the scaling protocol: ``k``, ``m``, ``apply`` and
    ``apply_adjoint``; no ``conjugated``."""

    __slots__ = ("k", "m", "_map")

    def __init__(self, T):
        self.k, self.m, self._map = T.k, T.m, T

    def apply(self, X):
        return self._map.apply(X)

    def apply_adjoint(self, Y):
        return self._map.apply_adjoint(Y)


@pytest.fixture
def conjugations(monkeypatch):
    """Every ``ChoiMap.conjugated`` call, as the shapes of its filters."""
    calls, conjugated = [], ChoiMap.conjugated

    def counted(self, P, Q):
        calls.append((np.shape(P), np.shape(Q)))
        return conjugated(self, P, Q)
    monkeypatch.setattr(ChoiMap, "conjugated", counted)
    return calls


class TestDsMapOnRead:
    """``run`` builds no storage; ``ds_map`` is built when it is read."""

    @pytest.mark.parametrize("k, m", [(1, 3), (2, 3), (4, 4), (5, 2)])
    def test_first_read_is_the_conjugation_bit_for_bit(self, k, m, conjugations):
        T = fixtures.random_cp_map(k, m, np.random.default_rng([k, m, 8]))
        report = run(T)
        assert report.converged and conjugations == []
        got = report.ds_map
        assert conjugations == [((k, k), (m, m))]
        assert report._map is None    # the report drops the map once read
        want = T.conjugated(report.in_filter, report.out_filter)
        assert (got.k, got.m) == (k, m)
        assert np.array_equal(got.choi, want.choi)
        assert report.ds_map is got and len(conjugations) == 2

    def test_none_unless_converged(self, conjugations):
        T = fixtures.random_cp_map(3, 3, np.random.default_rng(3))
        for report in (run(T, max_iter=1), run(fixtures.no_support_map()),
                       run(trace_to_corner_map())):
            assert not report.converged and report.ds_map is None
        assert conjugations == []

    def test_the_map_is_neither_compared_nor_shown(self):
        report = run(fixtures.random_cp_map(2, 3, np.random.default_rng(9)))
        assert "_map" not in repr(report) and "ChoiMap" not in repr(report)
        assert dataclasses.replace(report, _map=None) == report

    @pytest.mark.parametrize("k, m", [(1, 2), (2, 3), (3, 3), (4, 2)])
    def test_operator_without_conjugated(self, k, m):
        T = fixtures.random_cp_map(k, m, np.random.default_rng([k, m, 10]))
        report = run(ApplyOnly(T))
        assert report.converged
        scaled = FilteredMap(ApplyOnly(T), report.in_filter, report.out_filter)
        assert is_doubly_stochastic(scaled, ds_slack(TOL))
        with pytest.raises(AttributeError, match="conjugated"):
            report.ds_map


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(1, 5), m=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       max_iter=st.sampled_from([0, 1, 3, 10000]))
def test_filtered_check_agrees_with_the_dense_check(k, m, seed, max_iter):
    """The check through the filters gives the dense check's verdict, and
    defects that differ by rounding: a few eps times the size of the
    congruence, ``||P||^2 ||Q||^2 ||C||``."""
    T = fixtures.random_cp_map(k, m, np.random.default_rng(seed))
    report = run(T, max_iter=max_iter)
    P, Q = report.in_filter, report.out_filter
    dense = report.ds_map if report.converged else T.conjugated(P, Q)
    want = is_doubly_stochastic(dense, ds_slack(TOL))
    got = is_doubly_stochastic(FilteredMap(T, P, Q), ds_slack(TOL))
    assert got.is_doubly_stochastic == want.is_doubly_stochastic
    if report.converged:
        assert got.is_doubly_stochastic
    rounding = 16 * np.finfo(float).eps * frob(P) ** 2 * frob(Q) ** 2 * frob(T.choi)
    assert abs(got.forward_defect - want.forward_defect) <= rounding
    assert abs(got.adjoint_defect - want.adjoint_defect) <= rounding


def trace_to_corner_map():
    """X -> tr(X) E00 on 2x2: T(Id) is singular, every certificate with one
    block is invariant."""
    choi = np.zeros((4, 4), dtype=complex)
    choi[0, 0] = choi[2, 2] = 1.0
    return ChoiMap(2, 2, choi)


def block_mask(projectors):
    """The entries of a block-diagonal matrix for diagonal 0/1 projectors."""
    blocks = [np.diag(P).real > 0.5 for P in projectors]
    return sum(np.outer(b, b) for b in blocks).astype(bool)


def assert_iterates_block_diagonal(T, cert, max_iter):
    """Every iterate's filters and marginals have exact zeros off the
    certificate's blocks; returns the relaxations of the iterates.  A run
    that its preconditions or contracts refuse is checked up to there."""
    outside = ~block_mask(cert.input_projectors), ~block_mask(cert.output_projectors)
    relaxations = []
    try:
        for state in scaling._iterates(T, TOL, max_iter):
            for side, M in ((0, state.in_filter), (1, state.out_filter),
                            (0, state.in_filter_next), (0, state.in_marginal),
                            (1, state.out_marginal)):
                assert not M[outside[side]].any(), state.n
            relaxations.append(state.relaxation)
    except (PreconditionFailed, NumericalFailure):
        pass
    return relaxations


class TestCommutation:
    """A certificate that passes decomposition and invariance keeps every
    iterate block-diagonal (the scaling module's docstring has the proof):
    on direct sums in their block basis the off-block entries stay exactly
    0.0, through overrelaxed steps too."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**direct_sums)
    def test_direct_sum_iterates_commute(self, parts, eps, seed):
        T, cert = summed_map(parts, eps, seed)
        report = verify_block_certificate(T, cert)
        assert report.decomposition.passed and report.invariance.passed
        assert_iterates_block_diagonal(T, cert, max_iter=600)

    def test_overrelaxed_iterates_commute(self):
        # The slow triangular summand switches to overrelaxed steps at 256.
        T, cert = summed_map([("triangular", 3, 3), ("full", 2, 2)], 1e-6, 0)
        relaxations = assert_iterates_block_diagonal(T, cert, max_iter=600)
        assert len(relaxations) > 256
        assert any(w != 1.0 for w in relaxations)

    # On a 2x3 map: an input family of 3x3 projectors, which numpy cannot
    # broadcast against 2x2 blocks, and an output family of 1x1 ones, which
    # it can.
    @pytest.mark.parametrize("k_cert, m_cert", [(3, 3), (2, 1)])
    def test_mismatched_certificate_dimensions_are_refused(self, k_cert, m_cert):
        T = fixtures.random_cp_map(2, 3, np.random.default_rng(14))
        cert = BlockCertificate((np.eye(k_cert, dtype=complex),),
                                (np.eye(m_cert, dtype=complex),))
        with pytest.raises(ValueError,
                           match="^certificate dimensions do not match the map$"):
            verify_block_certificate(T, cert)


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


# ------------------------------------------------------- the update, frozen

def _ref_hermitian_part(M):
    M = np.asarray(M, dtype=np.complex128)
    return (M + M.conj().T) / 2.0


def _ref_minus_identity(M):
    M.reshape(-1)[::M.shape[0] + 1] -= 1.0
    return M


def _ref_norm(M):
    return float(np.linalg.norm(M))


def _ref_pd_inv_sqrt(H, tol, what):
    """``numkernel.pd_inv_sqrt`` and ``herm_eig`` as they stood before the
    step's calls were cut, messages included, with numpy's norm."""
    H = np.asarray(H, dtype=np.complex128)
    Hs = _ref_hermitian_part(H)
    try:
        w, V = np.linalg.eigh(Hs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigen-solver did not converge: {exc}") from exc
    w = w[::-1].copy()
    V = V[:, ::-1]
    R = (V * w) @ V.conj().T
    R -= Hs
    residual = _ref_norm(R)
    limit = Hs.shape[0] * max(_ref_norm(Hs), 1e-300) * numkernel._EIG_RECON_REL
    if residual > limit:
        raise NumericalFailure(
            f"eigendecomposition residual {residual:.3e} exceeds contract {limit:.3e}",
            residual=residual)
    top, bottom = float(w[0]), float(w[-1])
    if top <= 0.0 or bottom <= tol.pd_min * top:
        raise NotPositiveDefinite(
            f"{what} not positive definite: eigenvalue {bottom:.6e} "
            f"vs largest {top:.6e} (floor {tol.pd_min:g} relative)",
            min_eigenvalue=bottom, max_eigenvalue=top)
    S = _ref_hermitian_part((V * w ** -0.5) @ V.conj().T)
    residual = _ref_norm(_ref_minus_identity(S @ H @ S))
    limit = H.shape[0] * numkernel._INV_SQRT_RECON_REL * (top / bottom)
    if residual > limit:
        raise NumericalFailure(
            f"{what} inverse square root residual {residual:.3e} exceeds "
            f"contract {limit:.3e}", residual=residual)
    return S, float(np.log(w).sum()), residual


def reference_advance(T, n, X, Y, B, logdet, in_logsum, tol):
    """``scaling._advance`` as it stood before its calls were cut."""
    k, m = T.k, T.m
    try:
        with np.errstate(over="raise", invalid="raise"):
            B_is, B_logsum, B_residual = _ref_pd_inv_sqrt(
                B, tol, "output-side marginal")
            Y1 = m ** -0.25 * (B_is @ Y)
            A1 = _ref_hermitian_part(X.conj().T @ T.apply_adjoint(
                (Y1.conj().T * (1 / math.sqrt(m))) @ Y1) @ X)
            A1_is, A1_logsum, _ = _ref_pd_inv_sqrt(A1, tol, "input-side marginal")
            X2 = k ** -0.25 * (X @ A1_is)
            B1 = _ref_hermitian_part(Y1 @ T.apply(
                (X2 * (1 / math.sqrt(k))) @ X2.conj().T) @ Y1.conj().T)
            logdet += m * (-0.5 * in_logsum - (k / 4.0) * math.log(k))
            logdet += k * (-0.5 * B_logsum - (m / 4.0) * math.log(m))
            state = scaling.ScalingState(
                n=n, in_filter=X, out_filter=Y1, in_marginal=A1, out_marginal=B1,
                in_filter_next=X2, logdet=logdet,
                in_residual=_ref_norm(_ref_minus_identity(math.sqrt(k) * A1)),
                out_residual=_ref_norm(_ref_minus_identity(math.sqrt(m) * B1)),
                marginal_defect=B_residual / math.sqrt(m),
                in_marginal_eig_logsum=A1_logsum)
            drift = max(abs(float(A1.trace().real) - math.sqrt(k)),
                        abs(float(B1.trace().real) - math.sqrt(m)))
    except NotPositiveDefinite as exc:
        raise NumericalFailure(str(exc)) from exc
    except FloatingPointError as exc:
        raise NumericalFailure(f"scaling iterate {n} is not finite: {exc}") from exc
    if drift > scaling._STEP_DEFECT_LIMIT:
        raise NumericalFailure(
            f"marginal trace invariant drifted to {drift:.3e}", residual=drift)
    return state


def reference_init(T, tol):
    k, m = T.k, T.m
    fwd = _ref_hermitian_part(T.apply(np.eye(k) / math.sqrt(k)))
    adj = _ref_hermitian_part(T.apply_adjoint(np.eye(m)))
    for name, M in (("T(Id)", fwd), ("T*(Id)", adj)):
        w = np.linalg.eigvalsh(M)
        if w[-1] <= 0.0 or w[0] <= tol.pd_min * w[-1]:
            raise PreconditionFailed(
                f"{name} is not positive definite: eigenvalue {w[0]:.6e} "
                f"vs largest {w[-1]:.6e}", marginal=name,
                min_eigenvalue=float(w[0]))
    return reference_advance(T, 0, np.eye(k, dtype=complex), np.eye(m, dtype=complex),
                             fwd, 0.0, -(k / 2.0) * math.log(k), tol)


def reference_step(state, T, tol):
    return reference_advance(T, state.n + 1, state.in_filter_next, state.out_filter,
                             state.out_marginal, state.logdet,
                             state.in_marginal_eig_logsum, tol)


def _bits(value):
    """Every bit of a state field: an array's dtype, shape, strides and
    bytes; a float's type and hex, which tells -0.0 and NaNs apart."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.strides, value.tobytes()
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    return type(value).__name__, value


def iterate_bits(init_fn, step_fn, T, tol, n_steps):
    """Every field of ``init_fn``'s iterate and of up to ``n_steps`` of
    ``step_fn``'s, then the exception that stopped them, if any."""
    out = []
    try:
        state = init_fn(T, tol)
        while True:
            out.append(tuple(_bits(getattr(state, f.name))
                             for f in dataclasses.fields(state)))
            if state.n >= n_steps:
                return out
            state = step_fn(state, T, tol)
    except (NumericalFailure, PreconditionFailed) as exc:
        cause = exc.__cause__
        out.append((type(exc).__name__, str(exc), getattr(exc, "residual", None),
                    type(cause).__name__, str(cause)))
    return out


def rotated_triangular_map(n, eps, rng):
    """Upper-triangular ones plus ``eps`` as a classical map, rotated by
    Haar product unitaries: near the scalability boundary as eps -> 0."""
    W = np.kron(haar_unitary(n, rng), haar_unitary(n, rng))
    return ChoiMap(n, n, W @ classical_lift(np.triu(np.ones((n, n))) + eps) @ W.conj().T)


MAP_SOURCES = st.one_of(
    st.tuples(st.just("cp"), st.integers(1, 6), st.integers(1, 6),
              st.sampled_from([None, 1, 2, 3]), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("triangular"), st.integers(1, 6),
              st.sampled_from([1e-2, 1e-4, 1e-6, 1e-8]), st.integers(0, 2**32 - 1)))


def source_map(source):
    if source[0] == "cp":
        _, k, m, rank, seed = source
        return fixtures.random_cp_map(k, m, np.random.default_rng(seed), rank=rank)
    _, n, eps, seed = source
    return rotated_triangular_map(n, eps, np.random.default_rng(seed))


def ref_and_got(T, tol=TOL, n_steps=50):
    return (iterate_bits(reference_init, reference_step, T, tol, n_steps),
            iterate_bits(init, step, T, tol, n_steps))


class TestUpdateBitForBit:
    """``init`` and ``step`` give every field of every iterate, and every
    refusal, exactly as the frozen update does."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(source=MAP_SOURCES)
    def test_fifty_steps(self, source):
        want, got = ref_and_got(source_map(source))
        assert got == want

    # the shapes of the scale-load workload's maps and states, and one more
    @pytest.mark.parametrize("k, m", [(16, 16), (8, 32), (12, 12), (7, 13)])
    def test_larger_shapes(self, k, m):
        want, got = ref_and_got(fixtures.random_cp_map(k, m, np.random.default_rng([k, m])),
                                n_steps=6)
        assert got == want and len(want) == 7

    def test_rectangular_and_square_shapes_are_drawn(self):
        shapes = {(source_map(s).k, source_map(s).m) for s in (
            ("cp", 1, 6, None, 0), ("cp", 6, 1, 1, 0), ("cp", 2, 5, 2, 0),
            ("triangular", 4, 1e-6, 0))}
        assert shapes == {(1, 6), (6, 1), (2, 5), (4, 4)}

    CONTRACT_MAPS = [("cp", k, m, rank, 7) for k, m in ((1, 3), (3, 3), (2, 5), (5, 4))
                     for rank in (None, 2)] + [("triangular", n, eps, 7)
                                               for n in (3, 4) for eps in (1e-4, 1e-8)]

    # each contract, tightened, and the start of the refusal it gives
    @pytest.mark.parametrize("contract, message", [
        ("eig-recon", "eigendecomposition residual "),
        ("inv-sqrt-recon", "output-side marginal inverse square root residual "),
        ("pd-floor", "input-side marginal not positive definite: "),
        ("trace-drift", "marginal trace invariant drifted to "),
    ])
    def test_tightened_contract_fires_as_before(self, monkeypatch, contract, message):
        tol = TOL
        if contract == "eig-recon":
            monkeypatch.setattr(numkernel, "_EIG_RECON_REL", 1e-17)
        elif contract == "inv-sqrt-recon":
            monkeypatch.setattr(numkernel, "_INV_SQRT_RECON_REL", 1e-17)
        elif contract == "pd-floor":
            tol = Tolerances(pd_min=0.2)
        else:
            monkeypatch.setattr(scaling, "_STEP_DEFECT_LIMIT", 0.0)
        fired = 0
        for source in self.CONTRACT_MAPS:
            want, got = ref_and_got(source_map(source), tol)
            assert got == want
            fired += want[-1][0] == "NumericalFailure" and want[-1][1].startswith(message)
        assert fired > 0

    def test_overflow_fires_as_before(self):
        T = fixtures.no_support_map()
        want, got = ref_and_got(T, n_steps=5000)
        assert got == want
        message = "scaling iterate 1023 is not finite: overflow encountered in matmul"
        assert want[-1][:2] == ("NumericalFailure", message)
        with pytest.raises(NumericalFailure) as exc:
            run(T, divergence_logdet=math.inf)
        assert str(exc.value) == message


def patterns(k, m):
    """Every k x m 0/1 pattern."""
    for bits in itertools.product((0.0, 1.0), repeat=k * m):
        yield np.array(bits).reshape(k, m)


class TestRotatedClassicalMaps:
    """matcomb's exact verdict on a pattern is the oracle for the scaling
    verdict of its rotated classical map."""

    @pytest.mark.parametrize("k, m", itertools.product(range(1, 4), repeat=2))
    def test_verdict_follows_total_support(self, k, m):
        rng = np.random.default_rng([31, k, m])
        converged = 0
        for A in patterns(k, m):
            T = rotated_classical_map(A, rng)
            if has_total_support(NonnegPattern(A)):
                report = run(T, TOL)
                assert report.verdict == VERDICT_CONVERGED
                assert is_doubly_stochastic(report.ds_map, ds_slack(TOL))
                converged += 1
                continue
            # Without total support no exact scaling exists.  Without support
            # the run may still refuse instead of reporting it (ROADMAP item 5).
            try:
                assert run(T, TOL, max_iter=50).verdict != VERDICT_CONVERGED
            except NumericalFailure:
                pass
        assert converged > 0

    @pytest.mark.parametrize("k, m", [(k, m) for k in range(1, 13) for m in range(1, 13)
                                      if k * m <= 12 and math.gcd(k, m) == 1])
    def test_coprime_support_is_total_support(self, k, m):
        for A in patterns(k, m):
            pattern = NonnegPattern(A)
            assert bool(has_total_support(pattern)) == bool(has_support(pattern))


# --------------------------------------------------- overrelaxed steps

def item9_map(eps):
    """A rank-2 3x3 map plus ``eps`` times the identity in its storage:
    strictly positive and scalable, and slower to scale as eps -> 0."""
    T = fixtures.random_cp_map(3, 3, np.random.default_rng(3), rank=2)
    return ChoiMap(3, 3, T.choi + eps * np.eye(9))


def driver_relaxations(T, tol=TOL, max_iter=10000):
    """The ``relaxation`` of every iterate the driver hands out."""
    return [state.relaxation for state in scaling._iterates(T, tol, max_iter)]


def filtered_check(T, report):
    return is_doubly_stochastic(FilteredMap(T, report.in_filter, report.out_filter),
                                ds_slack(TOL))


class TestOverrelaxedStep:
    """``step`` on an iterate that carries a relaxation w applies each
    marginal's root ``c M^(-w/2)`` and keeps every invariant of the plain
    update."""

    @pytest.mark.parametrize("relaxation", [0.5, 1.3, 1.9])
    def test_factors_invariants_and_logdet(self, relaxation):
        T = rotated_triangular_map(4, 1e-6, np.random.default_rng(1))
        k = m = 4
        state = init(T)
        for _ in range(5):
            state = step(state, T)
        state = dataclasses.replace(state, relaxation=relaxation)
        for _ in range(10):
            new = step(state, T)
            assert new.relaxation == relaxation and new.n == state.n + 1
            # the factors applied, recomputed from the previous iterate
            for M, before, after, dim, on_the_left in (
                    (state.out_marginal, state.out_filter, new.out_filter, m, True),
                    (new.in_marginal, new.in_filter, new.in_filter_next, k, False)):
                w, U = np.linalg.eigh(M)
                c = math.sqrt(dim / np.sum(w ** (1.0 - relaxation)))
                root = (U * (c * w ** (-relaxation / 2))) @ U.conj().T
                want = dim ** -0.25 * (root @ before if on_the_left else before @ root)
                assert frob(after - want) <= 1e-10 * frob(want)
            din, dout = new.trace_defects(k, m)
            assert din < 1e-10 and dout < 1e-10
            assert abs(new.logdet - logdet_oracle(new, k, m)) < 1e-8
            state = new

    def test_two_applies_and_two_eigendecompositions_a_step(self, monkeypatch):
        T = rotated_triangular_map(4, 1e-8, np.random.default_rng(0))
        counts = {"apply": 0, "herm_eig": 0}

        class Counted(OperatorOnly):
            __slots__ = ()

            def apply(self, X):
                counts["apply"] += 1
                return super().apply(X)

            def apply_adjoint(self, Y):
                counts["apply"] += 1
                return super().apply_adjoint(Y)

        real_eig = numkernel.herm_eig

        def counted_eig(H):
            counts["herm_eig"] += 1
            return real_eig(H)
        monkeypatch.setattr(numkernel, "herm_eig", counted_eig)
        report = run(Counted(T))
        assert report.converged and 256 < report.iterations < 1000
        # init makes two applies of its own for T(Id) and T*(Id)
        assert counts == {"apply": 4 + 2 * report.iterations,
                          "herm_eig": 2 + 2 * report.iterations}


class TestRelaxationSwitch:
    def test_rate_rule(self):
        rho = 0.98
        omega, patience = scaling._relaxation(1.0, rho ** 16, rho ** 32)
        assert omega == pytest.approx(2.0 / (1.0 + math.sqrt(1.0 - rho)), rel=1e-12)
        assert patience == pytest.approx(50.0, rel=1e-12)
        assert scaling._relaxation(1.0, 0.9999 ** 16, 0.9999 ** 32) == (
            1.9, pytest.approx(1e4, rel=1e-9))
        assert scaling._relaxation(1.0, 0.5 ** 16, 0.5 ** 32) == (
            pytest.approx(2.0 / (1.0 + math.sqrt(0.5))), 32.0)
        # stalled, rising, and falling like 1/n at iterate 256
        assert scaling._relaxation(1.0, 1.0, 1.0) == (1.0, 0.0)
        assert scaling._relaxation(1.0, 1.01, 1.02) == (1.0, 0.0)
        assert scaling._relaxation(1 / 224, 1 / 240, 1 / 256) == (1.0, 0.0)

    def test_switch_fires_at_256_on_the_workload_map_kinds(self):
        T = rotated_triangular_map(4, 1e-8, np.random.default_rng(0))
        relaxations = driver_relaxations(T)
        assert set(relaxations[:257]) == {1.0}
        assert 1.0 < relaxations[257] <= 1.9
        assert set(relaxations[257:]) == {relaxations[257]}
        assert len(relaxations) - 1 < 400 < reference_run(T, keep_history=False)[1]

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(shape=st.sampled_from([(2, 2), (2, 4), (3, 3)]), seed=st.integers(0, 2**32 - 1))
    def test_never_fires_on_support_without_total_support(self, shape, seed):
        rng = np.random.default_rng(seed)
        while True:
            A = (rng.random(shape) < 0.6).astype(float)
            pattern = NonnegPattern(A)
            if has_support(pattern) and not has_total_support(pattern):
                break
        T = rotated_classical_map(A, rng)
        relaxations = driver_relaxations(T, max_iter=300)
        assert len(relaxations) == 301 and set(relaxations) == {1.0}

    def test_stalled_residual_never_fires(self):
        # the no-support fixture's residual stalls until its filters overflow
        states = []
        with pytest.raises(NumericalFailure, match="not finite"):
            for state in scaling._iterates(fixtures.no_support_map(), TOL, 5000):
                states.append(state)
        assert len(states) > 300 and {s.relaxation for s in states} == {1.0}


class TestNearBoundaryLadder:
    """The eps-ladder of the near-boundary map: the plain run at eps = 1e-2,
    overrelaxed convergence at 1e-4 and 1e-5, and the verdict of the plain
    run, inconclusive at the cap, at 1e-6."""

    def test_eps_1e_2_is_the_plain_run(self):
        T = item9_map(1e-2)
        got = run(T)
        assert got.converged and got.iterations == 93
        assert repr(report_fields(got)) == repr(reference_run(T))

    def test_eps_1e_4_converges_in_under_a_thousand_steps(self):
        T = item9_map(1e-4)
        report = run(T)
        assert report.converged and report.iterations < 1000
        assert filtered_check(T, report)

    def test_eps_1e_5_converges_within_the_cap(self):
        # the plain run ends max-iter-inconclusive at the cap
        T = item9_map(1e-5)
        report = run(T, keep_history=False)
        assert report.converged and report.iterations < 5000
        assert filtered_check(T, report)

    def test_eps_1e_6_keeps_its_verdict(self):
        report = run(item9_map(1e-6), keep_history=False)
        assert report.verdict == VERDICT_INCONCLUSIVE
        assert report.iterations == scaling.DEFAULT_MAX_ITER


def pattern_without_support(k, m, index):
    """The ``index``-th, cyclically, of the k x m 0/1 patterns without
    support but with nonzero lines, in ``patterns``' order: the others fail
    the precondition at iterate 0."""
    found = [A for A in patterns(k, m) if A.sum(0).all() and A.sum(1).all()
             and not has_support(NonnegPattern(A))]
    return found[index % len(found)]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(source=st.one_of(
    st.tuples(st.just("triangular"), st.integers(2, 6),
              st.sampled_from([1e-4, 1e-6, 1e-8]), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("no-support"), st.sampled_from([(2, 3), (3, 2), (3, 3)]),
              st.integers(0, 10**6), st.integers(0, 2**32 - 1))))
def test_overrelaxed_run_against_the_plain_iteration(source):
    """``run`` gives the plain iteration's verdict, or its refusal; a
    converged result is doubly stochastic; a run that ends before the switch
    is the plain run, bit for bit."""
    if source[0] == "triangular":
        _, n, eps, seed = source
        T = rotated_triangular_map(n, eps, np.random.default_rng(seed))
    else:
        _, (k, m), index, seed = source
        T = rotated_classical_map(pattern_without_support(k, m, index),
                                  np.random.default_rng(seed))
    try:
        want = reference_run(T)
    except NumericalFailure as exc:
        with pytest.raises(NumericalFailure) as got:
            run(T)
        assert str(got.value) == str(exc)
        return
    report = run(T)
    assert report.verdict == want[0]
    if report.converged:
        assert filtered_check(T, report)
    if want[1] < scaling._SWITCH_AT:
        assert repr(report_fields(report)) == repr(want)


class TestRelaxationFallback:
    """A refused overrelaxed step sends the run back to plain steps from the
    last iterate accepted, and the run ends in its verdict, not a raise."""

    @staticmethod
    def tighten_relaxed_roots(monkeypatch, after=0):
        """The inverse-power residual's contract, tightened as in
        ``test_tightened_contract_fires_as_before``, on overrelaxed roots
        only, from the ``after``-th overrelaxed step on."""
        real, relaxed_steps = scaling.pd_inv_sqrt, []

        def pd_inv_sqrt(H, tol, what, relaxation=1.0):
            if relaxation != 1.0 and what.startswith("output"):
                relaxed_steps.append(what)
            if relaxation == 1.0 or len(relaxed_steps) <= after:
                return real(H, tol, what, relaxation)
            with mock.patch.object(numkernel, "_INV_SQRT_RECON_REL", 1e-17):
                return real(H, tol, what, relaxation)
        monkeypatch.setattr(scaling, "pd_inv_sqrt", pd_inv_sqrt)

    @pytest.mark.parametrize("T", [
        rotated_triangular_map(4, 1e-8, np.random.default_rng(0)),
        rotated_triangular_map(3, 1e-6, np.random.default_rng(1)),
        item9_map(1e-4)], ids=["tri-4x4-1e-8", "tri-3x3-1e-6", "eps-1e-4"])
    def test_refused_at_the_switch_is_the_plain_run(self, monkeypatch, T):
        assert driver_relaxations(T)[-1] != 1.0       # the switch fires untouched
        self.tighten_relaxed_roots(monkeypatch)
        got = run(T)
        assert got.converged
        assert repr(report_fields(got)) == repr(reference_run(T))

    def test_refused_later_resumes_from_the_last_iterate_accepted(self, monkeypatch):
        T = rotated_triangular_map(4, 1e-8, np.random.default_rng(0))
        self.tighten_relaxed_roots(monkeypatch, after=10)
        states = list(scaling._iterates(T, TOL, 10000))
        relaxations = [s.relaxation for s in states]
        omega = relaxations[257]
        assert omega != 1.0
        assert relaxations[:257] == [1.0] * 257
        assert relaxations[257:267] == [omega] * 10
        assert set(relaxations[267:]) == {1.0}
        # iterate 267 is the plain step from iterate 266, the last accepted
        resumed = step(dataclasses.replace(states[266], relaxation=1.0), T)
        assert ([_bits(getattr(resumed, f.name)) for f in dataclasses.fields(resumed)]
                == [_bits(getattr(states[267], f.name)) for f in dataclasses.fields(resumed)])
        assert scaling._converged(states[-1], TOL)

    def test_no_new_low_falls_back(self, monkeypatch):
        # A relaxation near 2 makes the residual oscillate above its value at
        # the switch: the run returns to plain steps and still converges.
        T = rotated_triangular_map(4, 1e-8, np.random.default_rng(0))
        monkeypatch.setattr(scaling, "_relaxation", lambda *window: (1.999, 32.0))
        states = list(scaling._iterates(T, TOL, 10000))
        relaxations = [s.relaxation for s in states]
        back = relaxations.index(1.0, 257)
        assert relaxations[257:back] == [1.999] * (back - 257)
        # the last overrelaxed iterate ends a window of 32 without a new low
        residuals = [scaling._residual(s) for s in states]
        last, window = back - 1, scaling._RATE_WINDOW
        assert last - window >= 256
        assert min(residuals[last - window + 1:last + 1]) >= min(residuals[256:last - window + 1])
        assert scaling._converged(states[-1], TOL)
        report = run(T)
        assert report.converged and filtered_check(T, report)
