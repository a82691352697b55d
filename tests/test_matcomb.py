"""Support and total support: three-way oracle agreement and witness validity.

The library decides support by max-flow on a compact graph and provides a
subset-enumeration oracle.  The tests add a third, independent decision path:
build the explicit ones-block lift of the pattern and run augmenting-path
matchings on it, forcing single edges for the total-support case.  The
failing entry's witness is checked against the residual cut of a second,
forced-unit flow problem.  On larger patterns the flow value is checked
against scipy's maximum_flow, and the total-support verdict against one
forced-unit flow per entry.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opscale import matcomb
from opscale.matcomb import (NonnegPattern, SizeGuardError, ZeroSubmatrixWitness,
                             has_support, has_support_bruteforce,
                             has_total_support, has_total_support_bruteforce,
                             zero_fraction_sufficient)


def lift_mask(pattern):
    """0/1 ones-block lift: pattern entry (i, j) becomes an m x k block."""
    mask = pattern.nonzero_mask().astype(int)
    return np.kron(mask, np.ones((pattern.m, pattern.k), dtype=int))


def max_matching(adj, n, banned_row=None, banned_col=None, forced=None):
    """Kuhn's augmenting-path matching size on an n x n 0/1 matrix."""
    match_col = [-1] * n
    rows = [r for r in range(n) if r != banned_row]
    if forced is not None:
        fr, fc = forced
        match_col[fc] = fr
        rows = [r for r in rows if r != fr]

    def try_row(r, seen):
        for c in range(n):
            if c == banned_col or not adj[r][c] or seen[c]:
                continue
            if forced is not None and c == forced[1]:
                continue
            seen[c] = True
            if match_col[c] < 0 or try_row(match_col[c], seen):
                match_col[c] = r
                return True
        return False

    size = 1 if forced is not None else 0
    for r in rows:
        if try_row(r, [False] * n):
            size += 1
    return size


def lift_support_oracle(pattern):
    L = lift_mask(pattern)
    n = pattern.k * pattern.m
    return max_matching(L, n) == n


def lift_total_support_oracle(pattern):
    if not lift_support_oracle(pattern):
        return False
    L = lift_mask(pattern)
    n = pattern.k * pattern.m
    mask = pattern.nonzero_mask()
    for i in range(pattern.k):
        for j in range(pattern.m):
            if not mask[i, j]:
                continue
            # all lift cells of one block are interchangeable, force a corner
            forced = (i * pattern.m, j * pattern.k)
            if max_matching(L, n, forced=forced) != n:
                return False
    return True


def forced_unit_witness(pattern, i, j):
    """Source-side residual cut after forcing one matched unit through (i, j).

    The forced problem lowers the capacities of row i and column j by one;
    its reached rows and unreached columns form the zero submatrix.
    """
    k, m = pattern.k, pattern.m
    mask = pattern.nonzero_mask()
    net = matcomb._FlowNet(k + m + 2)
    source, sink = 0, k + m + 1
    for r in range(k):
        net.add_edge(source, 1 + r, m - (r == i))
    for c in range(m):
        net.add_edge(1 + k + c, sink, k - (c == j))
    for r, c in zip(*np.nonzero(mask)):
        net.add_edge(1 + int(r), 1 + k + int(c), k * m + 1)
    net.max_flow(source, sink)
    seen = net.residual_reachable(source)
    rows = [seen[1 + r] for r in range(k)]
    cols = [seen[1 + k + c] for c in range(m)]
    alpha = tuple(r for r in range(k) if rows[r])
    beta = tuple(c for c in range(m) if not cols[c])
    weight = len(alpha) * m + len(beta) * k
    outside = mask[np.ix_([not x for x in rows], cols)]
    return ZeroSubmatrixWitness(alpha=alpha, beta=beta, weight=weight,
                                tight_violation=bool(weight == k * m and outside.any()))


def forced_unit_value(pattern, i, j):
    """Max-flow value once row i and column j have lent one unit to (i, j)."""
    k, m = pattern.k, pattern.m
    net = matcomb._FlowNet(k + m + 2)
    for r in range(k):
        net.add_edge(0, 1 + r, m - (r == i))
    for c in range(m):
        net.add_edge(1 + k + c, k + m + 1, k - (c == j))
    for r, c in zip(*np.nonzero(pattern.nonzero_mask())):
        net.add_edge(1 + int(r), 1 + k + int(c), k * m + 1)
    return net.max_flow(0, k + m + 1)


def block_triangular_pattern(rng, a, b):
    """2a x 2b pattern with an a x b zero block, rows and columns shuffled.

    The block has weight a*2b + b*2a = k*m exactly, so whenever the pattern
    has support, every nonzero outside both the block's rows and its columns
    lies on no positive diagonal.
    """
    A = (rng.random((2 * a, 2 * b)) < rng.uniform(0.3, 0.9)).astype(float)
    A[a:, b:] = 0.0
    A[:a, :b] *= rng.random((a, b)) < rng.uniform(0.0, 0.3)
    return NonnegPattern(A[rng.permutation(2 * a)][:, rng.permutation(2 * b)])


@st.composite
def structured_patterns(draw):
    """0/1 patterns up to 8x8, rows and columns shuffled: unstructured, with
    a zero corner block of any size, or block triangular (an a x b zero
    block in a 2a x 2b pattern, weight exactly k*m)."""
    kind = draw(st.sampled_from(("plain", "zero-block", "block-triangular")))
    if kind == "block-triangular":
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        k, m = 2 * a, 2 * b
    else:
        k, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    bits = draw(st.lists(st.booleans(), min_size=k * m, max_size=k * m))
    A = np.array(bits, dtype=float).reshape(k, m)
    if kind == "zero-block":
        A[:draw(st.integers(1, k)), :draw(st.integers(1, m))] = 0.0
    elif kind == "block-triangular":
        A[a:, b:] = 0.0
    rows = draw(st.permutations(range(k)))
    cols = draw(st.permutations(range(m)))
    return NonnegPattern(A[np.ix_(rows, cols)])


def all_01_patterns(max_dim):
    for k in range(1, max_dim + 1):
        for m in range(1, max_dim + 1):
            for bits in itertools.product((0.0, 1.0), repeat=k * m):
                yield NonnegPattern(np.array(bits).reshape(k, m))


def random_pattern(rng, max_dim=4):
    k = int(rng.integers(1, max_dim + 1))
    m = int(rng.integers(1, max_dim + 1))
    density = rng.uniform(0.15, 1.0)
    A = np.where(rng.random((k, m)) < density, rng.uniform(0.1, 2.0, (k, m)), 0.0)
    return NonnegPattern(A)


class TestPatternValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            NonnegPattern(np.array([[1.0, -0.5]]))

    def test_zero_eps_reclassifies_small_entries(self):
        A = np.array([[1.0, 1e-12], [1.0, 1.0]])
        assert NonnegPattern(A).nonzero_mask()[0, 1]
        assert not NonnegPattern(A, zero_eps=1e-10).nonzero_mask()[0, 1]

    @pytest.mark.parametrize("zero_eps", [-1.0, float("nan")])
    def test_rejects_negative_or_nan_zero_eps(self, zero_eps):
        # NaN would compare false everywhere and make every entry a zero.
        with pytest.raises(ValueError, match="zero_eps must be"):
            NonnegPattern(np.ones((2, 2)), zero_eps=zero_eps)

    def test_shape_properties(self):
        pat = NonnegPattern(np.ones((2, 3)))
        assert pat.k == 2 and pat.m == 3


class TestKnownPatterns:
    def test_boundary_pattern_support_without_total(self):
        pat = NonnegPattern(np.array([[0.0, 1.0], [1.0, 1.0]]))
        assert has_support(pat)
        res = has_total_support(pat)
        assert not res
        assert res.failing_entry == (1, 1)
        w = res.witness
        assert w.weight == 4 and w.tight_violation
        assert w.check(pat)

    def test_identity_has_total_support(self):
        for n in (1, 2, 3, 4):
            pat = NonnegPattern(np.eye(n))
            assert has_support(pat)
            assert has_total_support(pat)

    def test_zero_row_kills_support(self):
        pat = NonnegPattern(np.array([[1.0, 1.0], [0.0, 0.0]]))
        res = has_support(pat)
        assert not res
        assert res.witness.weight > 4
        assert res.witness.check(pat)

    def test_full_pattern_rectangular(self):
        pat = NonnegPattern(np.ones((2, 5)))
        assert has_support(pat)
        assert has_total_support(pat)

    def test_single_zero_entry_square(self):
        # one zero in a full square pattern never blocks total support
        A = np.ones((3, 3))
        A[1, 2] = 0.0
        pat = NonnegPattern(A)
        assert has_total_support(pat)


class TestOracleAgreement:
    def test_three_way_support_agreement(self):
        rng = np.random.default_rng(100)
        for _ in range(600):
            pat = random_pattern(rng)
            fast = bool(has_support(pat))
            assert fast == has_support_bruteforce(pat)
            assert fast == lift_support_oracle(pat)

    def test_three_way_total_support_agreement(self):
        rng = np.random.default_rng(101)
        for _ in range(600):
            pat = random_pattern(rng)
            fast = bool(has_total_support(pat))
            assert fast == has_total_support_bruteforce(pat)
            assert fast == lift_total_support_oracle(pat)

    def test_bruteforce_guard(self):
        with pytest.raises(SizeGuardError):
            has_support_bruteforce(NonnegPattern(np.ones((5, 4))))
        with pytest.raises(SizeGuardError):
            has_total_support_bruteforce(NonnegPattern(np.ones((5, 4))))


class TestWitnesses:
    @pytest.mark.parametrize("max_dim, trials", [(4, 500), (10, 1500)])
    def test_every_refusal_carries_a_valid_witness(self, max_dim, trials):
        rng = np.random.default_rng(102)
        seen_support_refusal = 0
        seen_total_refusal = 0
        for _ in range(trials):
            pat = random_pattern(rng, max_dim)
            sup = has_support(pat)
            if not sup:
                seen_support_refusal += 1
                assert sup.witness.check(pat)
                assert sup.witness.weight > pat.k * pat.m or sup.witness.tight_violation
            tot = has_total_support(pat)
            if sup and not tot:
                seen_total_refusal += 1
                assert tot.witness.check(pat)
                i, j = tot.failing_entry
                assert pat.entries[i, j] > 0
        assert seen_support_refusal > 20
        assert seen_total_refusal > 20

    def test_witness_check_rejects_mismatched_pattern(self):
        pat = NonnegPattern(np.array([[0.0, 1.0], [1.0, 1.0]]))
        w = has_total_support(pat).witness
        full = NonnegPattern(np.ones((2, 2)))
        assert not w.check(full)

    def test_witness_check_rejects_wrong_weight(self):
        pat = NonnegPattern(np.array([[1.0, 1.0], [0.0, 0.0]]))
        good = has_support(pat).witness
        bad = ZeroSubmatrixWitness(alpha=good.alpha, beta=good.beta,
                                   weight=good.weight + 1,
                                   tight_violation=good.tight_violation)
        assert not bad.check(pat)

    @pytest.mark.parametrize("max_dim, trials", [(4, 400), (10, 1200)])
    def test_failing_entry_is_off_every_positive_diagonal(self, max_dim, trials):
        rng = np.random.default_rng(103)
        checked = 0
        for _ in range(trials):
            pat = random_pattern(rng, max_dim)
            tot = has_total_support(pat)
            if tot or tot.failing_entry is None:
                continue
            i, j = tot.failing_entry
            L = lift_mask(pat)
            n = pat.k * pat.m
            assert max_matching(L, n, forced=(i * pat.m, j * pat.k)) < n
            checked += 1
        assert checked > 20


class TestOneFlow:
    """Total support from one max-flow and one residual search per column."""

    @staticmethod
    def check_forced_unit_witness(pat):
        tot = has_total_support(pat)
        if tot or tot.failing_entry is None:
            return False
        assert tot.witness == forced_unit_witness(pat, *tot.failing_entry)
        return True

    def test_witness_matches_forced_unit_cut_exhaustive(self):
        checked = sum(self.check_forced_unit_witness(pat) for pat in all_01_patterns(4))
        assert checked > 30000

    def test_witness_matches_forced_unit_cut_random(self):
        rng = np.random.default_rng(105)
        checked = sum(self.check_forced_unit_witness(random_pattern(rng, 10))
                      for _ in range(1500))
        assert checked > 20

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(structured_patterns())
    def test_total_support_result_carries_the_support_verdict(self, pat):
        sup, ref = has_total_support(pat).support, has_support(pat)
        assert sup.has_support == ref.has_support
        assert sup.witness == ref.witness
        if not ref:
            assert sup.witness.check(pat)

    def test_one_flow_and_one_search_per_column(self, monkeypatch):
        calls = {"max_flow": 0, "residual_reachable": 0}

        def counted(name):
            original = getattr(matcomb._FlowNet, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(matcomb._FlowNet, name, counted(name))
        rng = np.random.default_rng(106)
        patterns = [NonnegPattern(np.ones((6, 6))), NonnegPattern(np.ones((3, 8)))]
        patterns += [random_pattern(rng, 10) for _ in range(300)]
        for pat in patterns:
            for name in calls:
                calls[name] = 0
            has_total_support(pat)
            assert calls["max_flow"] == 1
            assert calls["residual_reachable"] <= pat.m + 1


class TestSolverCrossChecks:
    """The blocking-flow solver and the SCC rule against independent references."""

    @staticmethod
    def large_patterns(rng, count):
        for t in range(count):
            k = int(rng.integers(2, 121))
            m = int(rng.integers(2, 101))
            A = (rng.random((k, m)) < rng.uniform(0.02, 0.6)).astype(float)
            if t % 2:  # a zero corner block, often past the support bound
                A[:int(rng.integers(1, k)), :int(rng.integers(1, m))] = 0.0
            yield NonnegPattern(A)

    def test_support_matches_scipy_maximum_flow(self):
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        sparse = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(107)
        verdicts = set()
        for pat in self.large_patterns(rng, 60):
            k, m = pat.k, pat.m
            rows, cols = np.nonzero(pat.nonzero_mask())
            tails = np.concatenate([np.zeros(k, int), 1 + k + np.arange(m), 1 + rows])
            heads = np.concatenate([1 + np.arange(k), np.full(m, k + m + 1), 1 + k + cols])
            caps = np.concatenate([np.full(k, m), np.full(m, k), np.full(len(rows), k * m + 1)])
            graph = sparse.csr_matrix((caps.astype(np.int32), (tails, heads)),
                                      shape=(k + m + 2, k + m + 2))
            value = csgraph.maximum_flow(graph, 0, k + m + 1).flow_value
            net = matcomb._build_net(pat.nonzero_mask())[0]
            assert net.max_flow(0, k + m + 1) == value
            sup = has_support(pat)
            assert bool(sup) == (value == k * m)
            if not sup:
                assert sup.witness.check(pat)
            verdicts.add(bool(sup))
        assert verdicts == {True, False}

    def test_witness_matches_forced_unit_cut_larger(self):
        rng = np.random.default_rng(108)
        checked = sum(TestOneFlow.check_forced_unit_witness(
            block_triangular_pattern(rng, *rng.integers(6, 16, 2).tolist()))
            for _ in range(100))
        assert checked > 50

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 7).flatmap(lambda k: st.integers(1, 7).flatmap(
        lambda m: st.lists(st.booleans(), min_size=k * m, max_size=k * m).map(
            lambda bits: np.array(bits, dtype=float).reshape(k, m)))))
    def test_total_support_matches_per_entry_reference(self, A):
        pat = NonnegPattern(A)
        k, m = pat.k, pat.m
        tot = has_total_support(pat)
        if not lift_support_oracle(pat):
            assert not tot and tot.failing_entry is None
            return
        failing = [(int(i), int(j)) for i, j in zip(*np.nonzero(pat.nonzero_mask()))
                   if forced_unit_value(pat, i, j) != k * m - 1]
        assert bool(tot) == (not failing)
        assert tot.failing_entry == (failing[0] if failing else None)


class TestZeroFraction:
    def test_conditions_on_examples(self):
        rep = zero_fraction_sufficient(NonnegPattern(np.ones((2, 3))))
        assert rep.zero_count == 0
        assert rep.rect_few_zeros.grants
        assert rep.implies_total_support

        A = np.ones((3, 3))
        A[0, 1] = 0.0
        rep = zero_fraction_sufficient(NonnegPattern(A))
        assert rep.square_few_zeros.grants
        assert rep.implies_total_support

        A = np.ones((3, 3))
        A[0, 1] = A[1, 2] = 0.0
        rep = zero_fraction_sufficient(NonnegPattern(A))
        assert not rep.square_few_zeros.satisfied
        assert not rep.line_ratio_few_zeros.satisfied

    def test_zero_line_blocks_ratio_condition(self):
        A = np.ones((2, 4))
        A[0] = 0.0
        rep = zero_fraction_sufficient(NonnegPattern(A))
        assert rep.has_zero_row
        assert not rep.line_ratio_few_zeros.grants

    def test_grant_implies_total_support(self):
        rng = np.random.default_rng(104)
        granted = 0
        for _ in range(600):
            pat = random_pattern(rng)
            if zero_fraction_sufficient(pat).implies_total_support:
                granted += 1
                assert has_total_support(pat)
        assert granted > 50
