"""Filter normal form: fixtures with known answers, invariants, failure paths."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opscale import fixtures, scaling
from opscale.fnf import (BipartiteState, FnfPreconditionFailed, MarginalCheck,
                         ScalingInconclusive, check_preconditions, compute_fnf,
                         sufficient_conditions, verify_fnf)
from opscale.numkernel import (NumericalFailure, Tolerances, frob,
                               hermitian_part, kernel_dim, kron)
from opscale.posmap import ChoiMap, from_state, haar_unitary
from opscale.scaling import VERDICT_CONVERGED, VERDICT_NO_SUPPORT, run

TOL = Tolerances()


def diagonal_blocked_state():
    """3x3 state with positive definite marginals whose induced map loses
    support: the first two row blocks only feed the first output direction."""
    rho = np.zeros((9, 9))
    rho[0, 0] = 1.0   # block (0, 0), entry E00
    rho[3, 3] = 1.0   # block (1, 1), entry E00
    rho[7, 7] = 1.0   # block (2, 2), entry E11
    rho[8, 8] = 1.0   # block (2, 2), entry E22
    return BipartiteState(3, 3, rho)


def near_psd_state(seed):
    """2x3 state with one eigenvalue at -5e-10 of the largest: inside
    BipartiteState's -1e-9 floor, below a rank_rel of 1e-12."""
    U = haar_unitary(6, np.random.default_rng(seed))
    w = np.array([1.0, 0.8, 0.6, 0.5, 0.3, -5e-10])
    return BipartiteState(2, 3, (U * w) @ U.conj().T)


# Reduced states above this floor, and an input-side marginal that falls
# below it in the course of the scaling.
FLOOR_TOL = Tolerances(pd_min=0.3)


def floor_crossing_state():
    return BipartiteState(2, 3, fixtures.random_state_matrix(
        2, 3, np.random.default_rng(5), kernel_dim=3))


def overflowing_state():
    """The 3x3 state induced by fixtures.no_support_map: its filters overflow
    before the log-determinant reaches 1e4."""
    return BipartiteState(3, 3, fixtures.no_support_map().choi)


class TestBipartiteState:
    def test_normalizes_trace_and_symmetrizes(self):
        rho = np.diag([2.0, 1.0, 1.0, 0.5]).astype(complex)
        rho[0, 1] = 1e-10       # tiny non-hermitian dirt is absorbed
        state = BipartiteState(2, 2, rho)
        assert abs(np.trace(state.rho) - 1.0) < 1e-14
        assert frob(state.rho - state.rho.conj().T) == 0.0

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(ValueError):
            BipartiteState(2, 2, np.diag([1.0, 1.0, 1.0, -0.2]))

    @pytest.mark.parametrize("c", [1e160, 1e300])
    def test_a_scaled_matrix_is_the_same_state(self, c):
        # The norms of c * rho do not overflow: no RuntimeWarning, and the
        # normal form of the scaled state verifies.
        rho = fixtures.random_state_matrix(2, 3, np.random.default_rng(1))
        state = BipartiteState(2, 3, c * rho)
        assert np.abs(state.rho - BipartiteState(2, 3, rho).rho).max() < 1e-15
        assert verify_fnf(compute_fnf(state), original=state).passed

    def test_rejects_wrong_dimensions(self):
        with pytest.raises(ValueError):
            BipartiteState(2, 3, np.eye(5))

    @pytest.mark.parametrize("k, m", [(0, 2), (2, 0)])
    def test_rejects_empty_factor(self, k, m):
        with pytest.raises(ValueError, match="dimensions must be positive"):
            BipartiteState(k, m, np.zeros((0, 0)))

    def test_shape_message_names_the_state_only(self):
        with pytest.raises(ValueError, match=r"^state must be \(6, 6\), got \(5, 5\)$"):
            BipartiteState(2, 3, np.eye(5))

    def test_reduced_states(self):
        rng = np.random.default_rng(0)
        A = rng.random((2, 2)); A = A @ A.T + np.eye(2)
        B = rng.random((3, 3)); B = B @ B.T + np.eye(3)
        state = BipartiteState(2, 3, kron(A, B))
        tot = np.trace(A) * np.trace(B)
        assert frob(state.reduced_first() - A * np.trace(B) / tot) < 1e-12
        assert frob(state.reduced_second() - B * np.trace(A) / tot) < 1e-12


# The three library entry points that take the dimensions of a k x m pair
# with its storage; all of them share one storage check.  from_state's first
# map stands for it.
ENTRY_POINTS = {
    "BipartiteState": lambda k, m, rho: BipartiteState(k, m, rho),
    "ChoiMap": lambda k, m, rho: ChoiMap(k, m, rho),
    "from_state": lambda k, m, rho: from_state(rho, k, m)[0],
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))
class TestDimensions:
    @pytest.mark.parametrize("k, m, n", [(2.5, 2, 5), (2.0, 2, 4), (True, 4, 4),
                                         (2, np.True_, 2), ("2", 2, 4), (None, 2, 4)])
    def test_non_integer_dimensions_are_refused(self, entry, k, m, n):
        with pytest.raises(ValueError, match="^dimensions must be integers, got k="):
            entry(k, m, np.eye(n))

    def test_numpy_integer_dimensions_are_accepted_as_ints(self, entry):
        made = entry(np.int64(2), np.int32(3), np.eye(6))
        assert (made.k, made.m) == (2, 3)
        assert type(made.k) is int and type(made.m) is int

    @pytest.mark.parametrize("k, m", [(0, 2), (2, -1)])
    def test_nonpositive_dimensions_are_refused(self, entry, k, m):
        with pytest.raises(ValueError, match=f"^dimensions must be positive, got k={k}, m={m}$"):
            entry(k, m, np.zeros((0, 0)))


# Default tolerances, strict ones, and loose ones that cut a real eigenvalue.
SPECTRAL_TOLS = [Tolerances(), Tolerances(rank_rel=1e-12, pd_min=1e-12),
                 Tolerances(rank_rel=0.4, pd_min=0.5)]


class TestKeptSpectra:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_match_direct_solvers(self, k, m, data):
        ker = data.draw(st.integers(0, k * m - 1), label="kernel_dim")
        tol = data.draw(st.sampled_from(SPECTRAL_TOLS), label="tol")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        state = BipartiteState(k, m, fixtures.random_state_matrix(k, m, rng, kernel_dim=ker))
        suff = sufficient_conditions(state, tol)
        assert suff.kernel_dim == kernel_dim(state.rho, tol)
        pre = check_preconditions(state, tol)
        for check, M in ((pre.first_factor, state.reduced_first()),
                         (pre.second_factor, state.reduced_second())):
            w = np.linalg.eigvalsh(M)
            assert check == MarginalCheck(
                is_pd=bool(w[-1] > 0.0 and w[0] > tol.pd_min * w[-1]),
                min_eigenvalue=float(w[0]), max_eigenvalue=float(w[-1]))

    def test_checks_decompose_nothing(self, monkeypatch):
        rng = np.random.default_rng(9)
        state = BipartiteState(3, 4, fixtures.random_state_matrix(3, 4, rng, kernel_dim=2))
        calls, eigvalsh = [], np.linalg.eigvalsh

        def counted(M, *args, **kwargs):
            calls.append(np.shape(M))
            return eigvalsh(M, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        # The first read computes both reduced spectra, one eigvalsh each.
        state._reduced_spectra
        assert calls == [(3, 3), (4, 4)]

        def refuse(*args, **kwargs):
            raise AssertionError("an eigen-solver ran")
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        suff = sufficient_conditions(state)
        assert suff.kernel_dim == 2 and suff.rect_kernel
        assert check_preconditions(state).ok

    def test_filtered_state_computes_its_reduced_spectra_on_first_read(self, monkeypatch):
        state = BipartiteState(2, 3, fixtures.random_state_matrix(2, 3, np.random.default_rng(1)))
        state._reduced_spectra  # read before counting: compute_fnf's preconditions read them
        shapes, eigvalsh = [], np.linalg.eigvalsh

        def counted(M, *args, **kwargs):
            shapes.append(np.shape(M))
            return eigvalsh(M, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        result = compute_fnf(state)
        # T(Id) and T*(Id) at the start of the scaling, then the filtered
        # state's PSD check: no reduced spectrum
        assert shapes == [(3, 3), (2, 2), (6, 6)]
        fnf_state = result.state_fnf
        assert type(fnf_state) is BipartiteState
        pre = check_preconditions(fnf_state)
        assert shapes[3:] == [(2, 2), (3, 3)]
        assert check_preconditions(fnf_state) == pre and len(shapes) == 5
        for check, M in ((pre.first_factor, fnf_state.reduced_first()),
                         (pre.second_factor, fnf_state.reduced_second())):
            w = eigvalsh(hermitian_part(M))
            assert (check.min_eigenvalue, check.max_eigenvalue) == (w[0], w[-1])


class TestPreconditions:
    def test_full_rank_state_passes(self):
        rng = np.random.default_rng(1)
        state = BipartiteState(2, 3, fixtures.random_state_matrix(2, 3, rng))
        assert check_preconditions(state).ok

    def test_pure_product_state_fails(self):
        rho = np.zeros((4, 4))
        rho[0, 0] = 1.0
        rep = check_preconditions(BipartiteState(2, 2, rho))
        assert not rep.ok
        assert not rep.first_factor.is_pd
        assert not rep.second_factor.is_pd


class TestSufficientConditions:
    def test_full_rank_rectangular(self):
        rng = np.random.default_rng(2)
        state = BipartiteState(2, 3, fixtures.random_state_matrix(2, 3, rng))
        rep = sufficient_conditions(state)
        assert rep.kernel_dim == 0
        assert rep.rect_kernel
        assert not rep.square_kernel
        assert rep.guaranteed

    def test_square_kernel_threshold(self):
        rng = np.random.default_rng(3)
        ok = BipartiteState(3, 3, fixtures.random_state_matrix(3, 3, rng, kernel_dim=1))
        rep = sufficient_conditions(ok)
        assert rep.kernel_dim == 1 and rep.square_kernel
        edge = BipartiteState(3, 3, fixtures.random_state_matrix(3, 3, rng, kernel_dim=2))
        rep = sufficient_conditions(edge)
        assert rep.kernel_dim == 2 and not rep.square_kernel

    def test_coprime_branch_runs_scaling(self):
        rng = np.random.default_rng(4)
        state = BipartiteState(2, 3, fixtures.random_state_matrix(2, 3, rng))
        report = compute_fnf(state).scaling_report
        rep = sufficient_conditions(state, scaling_report=report)
        assert rep.coprime
        assert rep.coprime_scaling_verdict == VERDICT_CONVERGED
        assert sufficient_conditions(state).coprime_scaling_verdict is None

    @pytest.mark.parametrize("k, m", [(2, 3), (2, 2)])
    def test_reads_the_report_and_never_scales(self, monkeypatch, k, m):
        state = BipartiteState(k, m, fixtures.random_state_matrix(
            k, m, np.random.default_rng(6), kernel_dim=1))
        report = run(from_state(state.rho, k, m)[0], keep_history=False)
        assert report.verdict == VERDICT_CONVERGED

        def refuse(*args, **kwargs):
            raise AssertionError("a scaling ran")
        monkeypatch.setattr(scaling, "run", refuse)
        without = sufficient_conditions(state)
        read = sufficient_conditions(state, scaling_report=report)
        assert without.coprime_scaling_verdict is None
        expected = report.verdict if math.gcd(k, m) == 1 else None
        assert read.coprime_scaling_verdict == expected
        kernel_fields = [f.name for f in dataclasses.fields(read)
                         if f.name != "coprime_scaling_verdict"]
        assert ([getattr(read, n) for n in kernel_fields]
                == [getattr(without, n) for n in kernel_fields])

    def test_singular_marginal_reads_no_verdict(self):
        rho = np.zeros((6, 6))
        rho[0, 0] = rho[1, 1] = rho[2, 2] = 1.0  # no weight on the first factor's e1
        state = BipartiteState(2, 3, rho)
        report = run(fixtures.random_cp_map(2, 3, np.random.default_rng(0)))
        rep = sufficient_conditions(state, scaling_report=report)
        assert rep.coprime and not rep.marginals_pd
        assert rep.coprime_scaling_verdict is None

    def test_blocked_state_earns_no_guarantee(self):
        rep = sufficient_conditions(diagonal_blocked_state())
        assert rep.marginals_pd
        assert rep.kernel_dim == 5
        assert not rep.guaranteed


class TestComputeFnf:
    def test_maximally_mixed_is_its_own_normal_form(self):
        for k, m in [(2, 2), (2, 3), (3, 4)]:
            state = BipartiteState(k, m, fixtures.maximally_mixed_state(k, m))
            res = compute_fnf(state)
            assert len(res.schmidt) == 1
            assert abs(res.schmidt[0].coeff - 1.0 / math.sqrt(k * m)) < 1e-12
            assert frob(res.state_fnf.rho - np.eye(k * m) / (k * m)) < 1e-10
            assert verify_fnf(res, original=state).passed

    def test_max_entangled_keeps_all_coefficients_equal(self):
        for d in (2, 3):
            state = BipartiteState(d, d, fixtures.max_entangled_state(d))
            res = compute_fnf(state)
            coeffs = [t.coeff for t in res.schmidt]
            assert len(coeffs) == d * d
            assert max(abs(c - 1.0 / d) for c in coeffs) < 1e-9
            assert verify_fnf(res, original=state).passed

    def test_product_state_filters_to_maximally_mixed(self):
        rng = np.random.default_rng(5)
        for k, m in [(2, 2), (3, 2)]:
            state = BipartiteState(k, m, fixtures.product_state(k, m, rng))
            res = compute_fnf(state)
            assert len(res.schmidt) == 1
            assert frob(res.state_fnf.rho - np.eye(k * m) / (k * m)) < 1e-9

    def test_random_states_verify(self):
        rng = np.random.default_rng(6)
        for k, m in [(2, 3), (3, 4), (2, 5)]:
            for _ in range(5):
                state = BipartiteState(k, m, fixtures.random_state_matrix(k, m, rng))
                res = compute_fnf(state)
                ver = verify_fnf(res, original=state)
                assert ver.passed, dataclasses.asdict(ver)

    def test_rank_deficient_states_inside_kernel_bound(self):
        rng = np.random.default_rng(7)
        for k, m in [(2, 3), (3, 4)]:
            ker = min(k, m) - 1
            state = BipartiteState(
                k, m, fixtures.random_state_matrix(k, m, rng, kernel_dim=ker))
            res = compute_fnf(state)
            assert verify_fnf(res, original=state).passed

    def test_tail_factors_are_traceless(self):
        rng = np.random.default_rng(8)
        state = BipartiteState(3, 3, fixtures.random_state_matrix(3, 3, rng))
        res = compute_fnf(state)
        for term in res.schmidt[1:]:
            assert abs(np.trace(term.first)) < 1e-9
            assert abs(np.trace(term.second)) < 1e-9

    def test_expansion_weight_matches_state_norm(self):
        rng = np.random.default_rng(9)
        state = BipartiteState(2, 4, fixtures.random_state_matrix(2, 4, rng))
        res = compute_fnf(state)
        weight = sum(t.coeff ** 2 for t in res.schmidt)
        assert abs(weight - frob(res.state_fnf.rho) ** 2) < 1e-10

    def test_filters_reproduce_normal_form_exactly(self):
        rng = np.random.default_rng(10)
        state = BipartiteState(3, 2, fixtures.random_state_matrix(3, 2, rng))
        res = compute_fnf(state)
        W = kron(res.filter_first, res.filter_second)
        filt = W @ state.rho @ W.conj().T
        assert abs(np.trace(filt).real - 1.0) < 1e-8
        assert frob(filt - res.state_fnf.rho) < 1e-9

    def test_singular_marginal_raises_precondition(self):
        # weight confined to the first half leaves the first reduced state
        # singular
        rho = np.zeros((4, 4))
        rho[0, 0] = rho[1, 1] = 0.5
        with pytest.raises(FnfPreconditionFailed):
            compute_fnf(BipartiteState(2, 2, rho))

    def test_blocked_state_raises_inconclusive_with_divergence(self):
        with pytest.raises(ScalingInconclusive) as exc:
            compute_fnf(diagonal_blocked_state(), max_iter=10000)
        assert exc.value.report.verdict == VERDICT_NO_SUPPORT

    def test_iteration_cap_raises_inconclusive(self):
        rng = np.random.default_rng(11)
        state = BipartiteState(3, 3, fixtures.random_state_matrix(3, 3, rng))
        with pytest.raises(ScalingInconclusive):
            compute_fnf(state, max_iter=0)


class TestScalingRefusals:
    """A refusal of the scaling update reaches the caller as NumericalFailure,
    without a numpy warning, which this suite turns into an error."""

    def test_marginal_below_the_floor_mid_run(self):
        state = floor_crossing_state()
        assert check_preconditions(state, FLOOR_TOL).ok
        with pytest.raises(NumericalFailure,
                           match="^input-side marginal not positive definite: "):
            compute_fnf(state, FLOOR_TOL)

    @pytest.mark.parametrize("divergence", [1e4, math.inf])
    def test_overflowing_iterate(self, divergence):
        with pytest.raises(NumericalFailure,
                           match=r"^scaling iterate \d+ is not finite: overflow"):
            compute_fnf(overflowing_state(), divergence_logdet=divergence)


class TestAcceptedStatesAreNotRefusedAgain:
    """A state BipartiteState accepted is never checked again at another
    threshold; only the filtered state's own check can refuse it."""

    TOL = Tolerances(rank_rel=1e-12)

    def test_compute_fnf_raises_no_value_error(self):
        outcomes = set()
        for seed in range(6):
            state = near_psd_state(seed)
            try:
                res = compute_fnf(state, self.TOL)
            except NumericalFailure as exc:
                assert "filtered state rejected" in str(exc)
                outcomes.add("refused")
            else:
                assert verify_fnf(res, self.TOL, original=state).passed
                outcomes.add("computed")
        assert outcomes == {"computed", "refused"}

    def test_coprime_scaling_runs(self):
        state = near_psd_state(2)
        res = compute_fnf(state, self.TOL)
        suff = sufficient_conditions(state, self.TOL, scaling_report=res.scaling_report)
        assert suff.coprime and suff.coprime_scaling_verdict == VERDICT_CONVERGED


class TestNormalFormIsTheScaledMap:
    @pytest.mark.parametrize("k, m, ker, seed",
                             [(2, 3, 0, 1), (3, 3, 0, 2), (3, 4, 2, 3), (4, 2, 1, 4)])
    def test_state_equals_filtered_state_bit_for_bit(self, k, m, ker, seed):
        rng = np.random.default_rng(seed)
        state = BipartiteState(k, m, fixtures.random_state_matrix(k, m, rng, ker))
        res = compute_fnf(state)
        rep = res.scaling_report
        W = kron(rep.in_filter.conj().T, rep.out_filter)
        raw = hermitian_part(W @ state.rho @ W.conj().T)
        tr = float(np.trace(raw).real)
        assert np.array_equal(res.state_fnf.rho, BipartiteState(k, m, raw / tr).rho)
        assert np.array_equal(res.filter_first, tr ** -0.25 * rep.in_filter.conj().T)
        assert np.array_equal(res.filter_second, tr ** -0.25 * rep.out_filter)


def with_factors(result, side, factors):
    """``result`` with the ``side`` ("first" or "second") factor of each
    term replaced by the next of ``factors``."""
    terms = tuple(dataclasses.replace(t, **{side: f})
                  for t, f in zip(result.schmidt, factors))
    return dataclasses.replace(result, schmidt=terms)


class TestGramDefect:
    """verify_fnf's orthonormality checks, ``||F F* - I||_F`` of the stacked
    factors, against the trace inner products they stand for."""

    @staticmethod
    def trace_loop(factors):
        gram = np.array([[np.trace(a @ b.conj().T) for b in factors]
                         for a in factors])
        return frob(gram - np.eye(len(factors)))

    def test_matches_trace_loop(self):
        rng = np.random.default_rng(13)
        state = BipartiteState(3, 4, fixtures.random_state_matrix(3, 4, rng))
        res = compute_fnf(state)
        ver = verify_fnf(res)
        for side, check in (("first", ver.orthonormal_first),
                            ("second", ver.orthonormal_second)):
            factors = [getattr(t, side) for t in res.schmidt]
            assert abs(check.defect - self.trace_loop(factors)) <= 1e-14
        factors = [0.5 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
                   for _ in res.schmidt]
        check = verify_fnf(with_factors(res, "first", factors)).orthonormal_first
        assert abs(check.defect - self.trace_loop(factors)) <= 1e-14

    def test_flags_one_perturbed_factor(self):
        rng = np.random.default_rng(14)
        state = BipartiteState(2, 3, fixtures.random_state_matrix(2, 3, rng))
        res = compute_fnf(state)
        check = verify_fnf(res).orthonormal_second
        assert check.passed and check.defect <= check.limit == 1e-8
        factors = [t.second for t in res.schmidt]
        factors[2] = factors[2] + 1e-6 * factors[1]
        check = verify_fnf(with_factors(res, "second", factors)).orthonormal_second
        assert not check.passed and check.defect > 1e-8


def traceless_hermitian(dim, rng):
    H = hermitian_part(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    H = H - np.trace(H).real / dim * np.eye(dim)
    return H / max(frob(H), 1e-300)


@st.composite
def fnf_results(draw):
    """The normal form of a state on a k x m pair with k, m <= 4: a random
    state, one with a kernel, or the maximally mixed state plus a few
    products of traceless factors, whose expansion stops after those few
    terms.  Draws on which compute_fnf refuses are rejected."""
    k, m = draw(st.integers(1, 4), label="k"), draw(st.integers(1, 4), label="m")
    kind = draw(st.sampled_from(["random", "kernel", "products"]), label="kind")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = k * m
    if kind == "products":
        rho = np.eye(n, dtype=complex) / n
        for _ in range(draw(st.integers(1, 3), label="products")):
            A, B = traceless_hermitian(k, rng), traceless_hermitian(m, rng)
            rho = rho + 0.2 / n * kron(A, B)
    else:
        ker = draw(st.integers(0, n - 1), label="kernel_dim") if kind == "kernel" else 0
        rho = fixtures.random_state_matrix(k, m, rng, kernel_dim=ker)
    try:
        return compute_fnf(BipartiteState(k, m, rho))
    except (FnfPreconditionFailed, ScalingInconclusive, NumericalFailure):
        assume(False)


class TestReconstruction:
    """The reconstruction check, read through unrealign, against the sum of
    one kron product per term that it replaced."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(res=fnf_results(), data=st.data())
    def test_matches_the_kron_sum(self, res, data):
        corrupt = data.draw(st.sampled_from(["none", "coeff", "first", "second"]), label="corrupt")
        if corrupt != "none":
            terms = list(res.schmidt)
            i = data.draw(st.integers(0, len(terms) - 1), label="term")
            size = data.draw(st.sampled_from([1e-12, 1e-9, 1e-7, 0.1, 1.0]), label="size")
            t = terms[i]
            if corrupt == "coeff":
                terms[i] = dataclasses.replace(t, coeff=t.coeff * (1.0 + size))
            else:
                f = getattr(t, corrupt)
                E = np.random.default_rng(i).standard_normal(f.shape)
                terms[i] = dataclasses.replace(t, **{corrupt: f + size * E / frob(E)})
            res = dataclasses.replace(res, schmidt=tuple(terms))
        rho = res.state_fnf.rho
        oracle = frob(sum(t.coeff * kron(t.first, t.second) for t in res.schmidt) - rho)
        check = verify_fnf(res).reconstruction
        assert abs(check.defect - oracle) <= 1e-15 * frob(rho)
        assert check.passed == (oracle <= check.limit)


class TestVerifyFnfCatchesCorruption:
    def make(self):
        rng = np.random.default_rng(12)
        state = BipartiteState(2, 3, fixtures.random_state_matrix(2, 3, rng))
        return state, compute_fnf(state)

    def test_scaled_coefficient_breaks_reconstruction(self):
        state, res = self.make()
        bad_terms = list(res.schmidt)
        t = bad_terms[1]
        bad_terms[1] = dataclasses.replace(t, coeff=t.coeff * 1.5)
        bad = dataclasses.replace(res, schmidt=tuple(bad_terms))
        ver = verify_fnf(bad, original=state)
        assert not ver.reconstruction.passed
        assert not ver.passed

    def test_perturbed_factor_breaks_orthonormality(self):
        state, res = self.make()
        bad_terms = list(res.schmidt)
        t = bad_terms[1]
        bad_terms[1] = dataclasses.replace(t, first=t.first + 0.05 * np.eye(2))
        bad = dataclasses.replace(res, schmidt=tuple(bad_terms))
        ver = verify_fnf(bad, original=state)
        assert not ver.orthonormal_first.passed

    def test_wrong_leading_term_is_flagged(self):
        state, res = self.make()
        bad_terms = list(res.schmidt)
        bad_terms[0] = dataclasses.replace(bad_terms[0],
                                           coeff=bad_terms[0].coeff + 1e-9)
        bad = dataclasses.replace(res, schmidt=tuple(bad_terms))
        assert not verify_fnf(bad, original=state).leading_pair.passed

    def test_swapped_filters_break_filtered_state_check(self):
        state, res = self.make()
        bad = dataclasses.replace(res, filter_first=res.filter_first * 2.0,
                                  filter_second=res.filter_second)
        ver = verify_fnf(bad, original=state)
        assert ver.filtered_state is not None
        # a pure scalar on one filter survives the trace renormalization,
        # so corrupt the filter additively instead
        bad2 = dataclasses.replace(
            res, filter_first=res.filter_first + 0.1 * np.ones((2, 2)))
        ver2 = verify_fnf(bad2, original=state)
        assert not ver2.filtered_state.passed

    def test_singular_filter_is_flagged(self):
        state, res = self.make()
        bad = dataclasses.replace(res, filter_first=np.array([[1.0, 2.0], [2.0, 4.0]]))
        ver = verify_fnf(bad, original=state)
        check = ver.filters_invertible
        assert not check.passed and check.defect > check.limit == 1.0
        assert not ver.passed

    def test_unordered_tail_is_flagged(self):
        state, res = self.make()
        if len(res.schmidt) < 3:
            pytest.skip("needs at least two tail terms")
        bad_terms = list(res.schmidt)
        bad_terms[1], bad_terms[2] = bad_terms[2], bad_terms[1]
        bad = dataclasses.replace(res, schmidt=tuple(bad_terms))
        assert not verify_fnf(bad, original=state).coefficients.passed
