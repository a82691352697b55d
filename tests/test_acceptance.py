"""Acceptance battery: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest -v`` to get the per-criterion verdict lines; each test
additionally prints an uncaptured summary line so the battery reads as a
checklist even inside a larger run.
"""

import contextlib
import itertools
import math
import time

import numpy as np
import pytest

from opscale import fixtures
from opscale.fnf import (BipartiteState, compute_fnf, sufficient_conditions,
                         verify_fnf)
from opscale.matcomb import (NonnegPattern, has_support,
                             has_support_bruteforce, has_total_support,
                             has_total_support_bruteforce)
from opscale.numkernel import (Tolerances, frob, kron, partial_trace_first,
                               partial_trace_second, rank_tol)
from opscale.posmap import (ChoiMap, from_state, haar_unitary,
                            is_doubly_stochastic, pattern_matrix)
from opscale.scaling import (VERDICT_CONVERGED, VERDICT_NO_SUPPORT, init, run,
                             step)

_FNF_STASH = []


@pytest.fixture
def report(capsys, request):
    @contextlib.contextmanager
    def _report(desc):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                verdict = "PASS" if ok else "FAIL"
                print(f"\n[{request.node.name}] {verdict}: {desc}")
    return _report


def test_criterion_01_exhaustive_oracle_equivalence(report):
    with report("flow verdicts equal brute force on every 0/1 pattern, "
                "all shapes up to 4x4, under 60 s"):
        start = time.time()
        for k, m in itertools.product(range(1, 5), range(1, 5)):
            cells = k * m
            for bits in range(1 << cells):
                A = np.zeros((k, m))
                rest = bits
                for idx in range(cells):
                    if rest & 1:
                        A[idx // m, idx % m] = 1.0
                    rest >>= 1
                pat = NonnegPattern(A)
                assert bool(has_support(pat)) == has_support_bruteforce(pat), A
                assert (bool(has_total_support(pat))
                        == has_total_support_bruteforce(pat)), A
        elapsed = time.time() - start
        assert elapsed < 60.0, f"exhaustive sweep took {elapsed:.1f} s"


def test_criterion_02_boundary_example(report):
    with report("[[0,1],[1,1]] has support but not total support, yet its "
                "sandwich map scales to doubly stochastic"):
        pat = NonnegPattern(np.array([[0.0, 1.0], [1.0, 1.0]]))
        assert bool(has_support(pat)) is True
        assert bool(has_total_support(pat)) is False

        result = run(fixtures.boundary_map(), Tolerances(conv_eps=1e-8),
                     max_iter=5000)
        assert result.verdict == VERDICT_CONVERGED
        assert result.iterations <= 5000
        assert max(result.in_residual, result.out_residual) <= 1e-8


def test_criterion_03_scaling_invariants(report):
    with report("trace invariants within 1e-8 and nondecreasing progress "
                "measure on 20 random maps per shape"):
        rng = np.random.default_rng(2024)
        for k, m in [(2, 2), (2, 3), (3, 4)]:
            for _ in range(20):
                T = fixtures.random_cp_map(k, m, rng)
                state = init(T)
                prev_logdet = state.logdet
                for _ in range(40):
                    state = step(state, T)
                    din, dout = state.trace_defects(k, m)
                    assert din <= 1e-8, (k, m, state.n, din)
                    assert dout <= 1e-8, (k, m, state.n, dout)
                    assert state.logdet >= prev_logdet - 1e-9, (k, m, state.n)
                    prev_logdet = state.logdet
                    if max(state.in_residual, state.out_residual) <= 1e-12:
                        break


def test_criterion_04_converged_means_doubly_stochastic(report):
    with report("every converged run emits a map that is doubly stochastic "
                "at 1e-7"):
        rng = np.random.default_rng(2025)
        converged_runs = 0
        for k, m in [(2, 2), (2, 3), (3, 4), (4, 2)]:
            for _ in range(10):
                T = fixtures.random_cp_map(k, m, rng)
                result = run(T, Tolerances(conv_eps=1e-9))
                if result.verdict != VERDICT_CONVERGED:
                    continue
                converged_runs += 1
                check = is_doubly_stochastic(result.ds_map, 1e-7)
                assert check, (k, m, check.forward_defect, check.adjoint_defect)
        assert converged_runs >= 30


def test_criterion_05_no_support_divergence(report):
    with report("rank-witnessed no-support 3x3 fixture diverges within "
                "10000 iterations"):
        T = fixtures.no_support_map()
        P = np.diag([1.0, 1.0, 0.0]).astype(complex)
        # exact rank witness: the image of P is too small for scaling
        assert rank_tol(T.apply(P)) * T.k < rank_tol(P) * T.m

        result = run(T, max_iter=10000)
        assert result.verdict == VERDICT_NO_SUPPORT
        assert result.iterations <= 10000
        assert result.logdet > 50.0 * T.k * T.m


def test_criterion_06_fnf_at_desk_scale(report):
    with report("sufficient conditions predict and the computation delivers "
                "filter normal forms on 20 states per shape, under 120 s"):
        start = time.time()
        rng = np.random.default_rng(2026)
        for k, m in [(2, 3), (3, 4), (2, 5)]:
            for trial in range(20):
                ker = trial % min(k, m)       # kernel dimensions 0 .. min-1
                state = BipartiteState(
                    k, m, fixtures.random_state_matrix(k, m, rng, kernel_dim=ker))
                suff = sufficient_conditions(state)
                assert suff.kernel_dim == ker
                assert suff.guaranteed, (k, m, ker)

                result = compute_fnf(state)
                rho = result.state_fnf.rho
                assert frob(partial_trace_first(rho, k, m) - np.eye(m) / m) <= 1e-8
                assert frob(partial_trace_second(rho, k, m) - np.eye(k) / k) <= 1e-8
                ver = verify_fnf(result, original=state)
                assert ver.passed, (k, m, ker)
                _FNF_STASH.append(result)
        elapsed = time.time() - start
        assert elapsed < 120.0, f"normal forms took {elapsed:.1f} s"


def test_criterion_07_coprime_consistency(report):
    with report("on the coprime shape, whenever the induced map scales the "
                "normal form exists (20 states incl. rank-deficient)"):
        rng = np.random.default_rng(2027)
        k, m = 2, 3
        converged = 0
        for trial in range(20):
            ker = trial % 4                   # push past the kernel guarantee
            state = BipartiteState(
                k, m, fixtures.random_state_matrix(k, m, rng, kernel_dim=ker))
            try:
                G, _ = from_state(state.rho, k, m)
                scaling_result = run(G)
            except ValueError:
                continue
            if scaling_result.verdict != VERDICT_CONVERGED:
                continue
            converged += 1
            result = compute_fnf(state)
            assert verify_fnf(result, original=state).passed, (trial, ker)
        assert converged >= 10


def test_criterion_08_tilde_correspondence(report):
    with report("scaling verdict of each map matches the verdict of its "
                "square lift on 10 maps"):
        rng = np.random.default_rng(2028)
        maps = [fixtures.random_cp_map(k, m, rng)
                for k, m in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 2),
                             (2, 3), (3, 3), (2, 2), (3, 2)]]
        maps.append(fixtures.no_support_map())
        verdicts = set()
        for T in maps:
            a = run(T, max_iter=20000, keep_history=False).verdict
            b = run(T.tilde_lift(), max_iter=20000, keep_history=False).verdict
            assert a == b, (T.k, T.m, a, b)
            verdicts.add(a)
        # the fixture set genuinely mixes both outcomes
        assert verdicts == {VERDICT_CONVERGED, VERDICT_NO_SUPPORT}


def test_criterion_09_schmidt_assembly(report):
    with report("orthonormal factor families, exact leading term and 1e-8 "
                "reconstruction on every computed normal form"):
        results = list(_FNF_STASH)
        if not results:
            rng = np.random.default_rng(2029)
            for k, m in [(2, 3), (3, 4), (2, 5)]:
                for _ in range(5):
                    state = BipartiteState(
                        k, m, fixtures.random_state_matrix(k, m, rng))
                    results.append(compute_fnf(state))
        assert len(results) >= 15
        for result in results:
            k, m = result.state_fnf.k, result.state_fnf.m
            lead = result.schmidt[0]
            assert np.array_equal(lead.first, np.eye(k) / math.sqrt(k))
            assert np.array_equal(lead.second, np.eye(m) / math.sqrt(m))
            assert lead.coeff == 1.0 / math.sqrt(k * m)

            firsts = [t.first for t in result.schmidt]
            seconds = [t.second for t in result.schmidt]
            n = len(firsts)
            gram1 = np.array([[np.trace(a @ b.conj().T) for b in firsts] for a in firsts])
            gram2 = np.array([[np.trace(a @ b.conj().T) for b in seconds] for a in seconds])
            assert frob(gram1 - np.eye(n)) <= 1e-8
            assert frob(gram2 - np.eye(n)) <= 1e-8

            recon = sum(t.coeff * kron(t.first, t.second) for t in result.schmidt)
            assert frob(recon - result.state_fnf.rho) <= 1e-8


def test_criterion_10_pattern_of_a_ds_map(report):
    with report("the ones-block lift of a scaled map's pattern has all line "
                "sums sqrt(k*m) within 1e-6"):
        rng = np.random.default_rng(2030)
        shapes = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4),
                  (4, 2), (3, 4), (4, 3), (2, 5), (4, 4)]
        for k, m in shapes:
            T = fixtures.random_cp_map(k, m, rng)
            result = run(T, Tolerances(conv_eps=1e-9))
            assert result.verdict == VERDICT_CONVERGED, (k, m)
            bases = [(np.eye(k, dtype=complex), np.eye(m, dtype=complex)),
                     (haar_unitary(k, rng), haar_unitary(m, rng))]
            for basis_in, basis_out in bases:
                pat = pattern_matrix(result.ds_map, basis_in, basis_out)
                lift = np.kron(pat.entries, np.ones((m, k)))
                target = math.sqrt(k * m)
                assert np.abs(lift.sum(axis=1) - target).max() <= 1e-6, (k, m)
                assert np.abs(lift.sum(axis=0) - target).max() <= 1e-6, (k, m)
