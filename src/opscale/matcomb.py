"""Support and total support of rectangular nonnegative matrices.

A k x m nonnegative matrix A is lifted to the km x km pattern
``kron(A, ones((m, k)))``.  A has *support* when the lift carries a positive
diagonal (a permutation with all entries nonzero), and *total support* when
every nonzero entry of the lift lies on some positive diagonal.  Equivalently,
support fails exactly when some zero submatrix A[alpha | beta] is too large:
``len(alpha)*m + len(beta)*k > k*m``; total support additionally fails on
equality when the complementary submatrix A(alpha | beta) is not identically
zero.

The decision procedure here is an integer max-flow: source -> row i with
capacity m, column j -> sink with capacity k, and an arc per structural
nonzero.  The lift has a positive diagonal iff the max-flow value is k*m.
Flow arcs get capacity k*m + 1 rather than the tight min(k, m): the flow
through an arc is already limited by its endpoints, so the max-flow value is
unchanged, and min cuts then never cross a nonzero arc, which makes every cut
a zero-submatrix witness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


class SizeGuardError(ValueError):
    """Raised when a brute-force oracle is asked to exceed its size guard."""


# Exhaustive oracles enumerate subsets of rows and columns; the acceptance
# suite runs them for every 0/1 pattern with k, m <= 4.
_ORACLE_MAX_CELLS = 16


@dataclass(frozen=True)
class NonnegPattern:
    """A rectangular nonnegative matrix with a structural-zero threshold.

    Entries less than or equal to ``zero_eps`` count as zeros (default 0,
    exact).  The entry array is stored read-only.
    """

    entries: np.ndarray
    zero_eps: float = 0.0

    def __post_init__(self):
        A = np.array(self.entries, dtype=np.float64, order="C")
        if A.ndim != 2 or A.shape[0] == 0 or A.shape[1] == 0:
            raise ValueError(f"pattern must be a nonempty 2-d matrix, got shape {A.shape}")
        if not np.isfinite(A).all():
            raise ValueError("pattern contains non-finite entries")
        if (A < 0).any():
            raise ValueError("pattern entries must be nonnegative")
        if self.zero_eps < 0:
            raise ValueError("zero_eps must be nonnegative")
        A.setflags(write=False)
        object.__setattr__(self, "entries", A)

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    @property
    def m(self) -> int:
        return self.entries.shape[1]

    def nonzero_mask(self) -> np.ndarray:
        """Boolean mask of structural nonzeros."""
        return self.entries > self.zero_eps

    def row_bitmasks(self) -> list[int]:
        """Per-row bitmask of structural-nonzero columns (bit j = column j)."""
        mask = self.nonzero_mask()
        return [int(sum(1 << j for j in range(self.m) if mask[i, j]))
                for i in range(self.k)]


@dataclass(frozen=True)
class ZeroSubmatrixWitness:
    """A zero submatrix proving failure of (total) support.

    ``weight = len(alpha)*m + len(beta)*k``.  Failure of support means
    ``weight > k*m``; failure of total support alone means ``weight == k*m``
    with the complementary submatrix not identically zero
    (``tight_violation``).
    """

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    weight: int
    tight_violation: bool

    def check(self, pattern: NonnegPattern) -> bool:
        """Re-verify all witness invariants against a pattern."""
        k, m = pattern.k, pattern.m
        if not self.alpha or not self.beta:
            return False
        if len(set(self.alpha)) != len(self.alpha) or len(set(self.beta)) != len(self.beta):
            return False
        if not all(0 <= i < k for i in self.alpha):
            return False
        if not all(0 <= j < m for j in self.beta):
            return False
        if self.weight != len(self.alpha) * m + len(self.beta) * k:
            return False
        mask = pattern.nonzero_mask()
        if mask[np.ix_(self.alpha, self.beta)].any():
            return False
        rows_c = [i for i in range(k) if i not in set(self.alpha)]
        cols_c = [j for j in range(m) if j not in set(self.beta)]
        complement_nonzero = bool(mask[np.ix_(rows_c, cols_c)].any()) if rows_c and cols_c else False
        if self.weight > k * m:
            return True
        if self.weight == k * m:
            return self.tight_violation == complement_nonzero and self.tight_violation
        return False


@dataclass(frozen=True)
class SupportResult:
    has_support: bool
    witness: ZeroSubmatrixWitness | None

    def __bool__(self) -> bool:
        return self.has_support


@dataclass(frozen=True)
class TotalSupportResult:
    has_total_support: bool
    witness: ZeroSubmatrixWitness | None
    failing_entry: tuple[int, int] | None

    def __bool__(self) -> bool:
        return self.has_total_support


class _FlowNet:
    """Integer max-flow via breadth-first augmenting paths."""

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> int:
        eid = len(self.to)
        self.adj[u].append(eid)
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(eid + 1)
        self.to.append(u)
        self.cap.append(0)
        return eid

    def max_flow(self, s: int, t: int) -> int:
        total = 0
        to, cap, adj = self.to, self.cap, self.adj
        while True:
            parent_edge = [-1] * self.n
            parent_edge[s] = -2
            queue = deque([s])
            while queue and parent_edge[t] == -1:
                u = queue.popleft()
                for eid in adj[u]:
                    v = to[eid]
                    if cap[eid] > 0 and parent_edge[v] == -1:
                        parent_edge[v] = eid
                        queue.append(v)
            if parent_edge[t] == -1:
                return total
            bottleneck = None
            v = t
            while v != s:
                eid = parent_edge[v]
                bottleneck = cap[eid] if bottleneck is None else min(bottleneck, cap[eid])
                v = to[eid ^ 1]
            v = t
            while v != s:
                eid = parent_edge[v]
                cap[eid] -= bottleneck
                cap[eid ^ 1] += bottleneck
                v = to[eid ^ 1]
            total += bottleneck

    def residual_reachable(self, s: int) -> list[bool]:
        seen = [False] * self.n
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for eid in self.adj[u]:
                v = self.to[eid]
                if self.cap[eid] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen

    def has_residual_path(self, u: int, v: int) -> bool:
        return self.residual_reachable(u)[v]


def _build_net(pattern: NonnegPattern, row_caps, col_caps):
    """Nodes: 0 = source, 1..k rows, k+1..k+m cols, k+m+1 = sink."""
    k, m = pattern.k, pattern.m
    net = _FlowNet(k + m + 2)
    source, sink = 0, k + m + 1
    for i in range(k):
        net.add_edge(source, 1 + i, row_caps[i])
    for j in range(m):
        net.add_edge(1 + k + j, sink, col_caps[j])
    arc = {}
    big = k * m + 1
    mask = pattern.nonzero_mask()
    for i in range(k):
        for j in range(m):
            if mask[i, j]:
                arc[(i, j)] = net.add_edge(1 + i, 1 + k + j, big)
    return net, arc, source, sink


def _cut_witness(pattern: NonnegPattern, net: _FlowNet, source: int) -> ZeroSubmatrixWitness:
    """Zero-submatrix witness from residual reachability after a max-flow.

    Rows still reachable from the source and columns not reachable form a
    zero submatrix: a nonzero arc leaving the reachable set would have
    residual capacity and extend it.
    """
    k, m = pattern.k, pattern.m
    seen = net.residual_reachable(source)
    alpha = tuple(i for i in range(k) if seen[1 + i])
    beta = tuple(j for j in range(m) if not seen[1 + k + j])
    weight = len(alpha) * m + len(beta) * k
    mask = pattern.nonzero_mask()
    rows_c = [i for i in range(k) if not seen[1 + i]]
    cols_c = [j for j in range(m) if seen[1 + k + j]]
    tight = False
    if weight == k * m and rows_c and cols_c:
        tight = bool(mask[np.ix_(rows_c, cols_c)].any())
    return ZeroSubmatrixWitness(alpha=alpha, beta=beta, weight=weight, tight_violation=tight)


def has_support(pattern: NonnegPattern) -> SupportResult:
    """Decide support.  On failure the result carries a zero-submatrix witness."""
    k, m = pattern.k, pattern.m
    net, _, source, sink = _build_net(pattern, [m] * k, [k] * m)
    value = net.max_flow(source, sink)
    if value == k * m:
        return SupportResult(True, None)
    return SupportResult(False, _cut_witness(pattern, net, source))


def _forced_entry_witness(pattern: NonnegPattern, i: int, j: int) -> ZeroSubmatrixWitness:
    """Witness for entry (i, j) lying on no positive diagonal.

    Forcing one matched unit through (i, j) leaves a flow problem with row-i
    and column-j capacities reduced by one and demand k*m - 1; the residual
    cut of that problem is the witness.
    """
    k, m = pattern.k, pattern.m
    row_caps = [m] * k
    col_caps = [k] * m
    row_caps[i] -= 1
    col_caps[j] -= 1
    net, _, source, sink = _build_net(pattern, row_caps, col_caps)
    net.max_flow(source, sink)
    return _cut_witness(pattern, net, source)


def has_total_support(pattern: NonnegPattern) -> TotalSupportResult:
    """Decide total support.

    Runs one maximum flow.  Without support the result carries the same cut
    witness as :func:`has_support`.  Otherwise each structural nonzero must
    carry a unit of some maximum flow: either the base flow already routes
    through it, or the residual graph contains a rerouting cycle for it.
    The first entry that fails is reported together with a zero-submatrix
    witness from the forced-unit flow problem.
    """
    k, m = pattern.k, pattern.m
    net, arc, source, sink = _build_net(pattern, [m] * k, [k] * m)
    if net.max_flow(source, sink) != k * m:
        return TotalSupportResult(False, _cut_witness(pattern, net, source), None)
    big = k * m + 1
    for (i, j), eid in arc.items():
        if net.cap[eid] < big:  # residual below capacity: carries flow already
            continue
        if net.has_residual_path(1 + k + j, 1 + i):
            continue
        return TotalSupportResult(False, _forced_entry_witness(pattern, i, j), (i, j))
    return TotalSupportResult(True, None, None)


def _guard(pattern: NonnegPattern):
    if pattern.k * pattern.m > _ORACLE_MAX_CELLS:
        raise SizeGuardError(
            f"brute-force oracle limited to k*m <= {_ORACLE_MAX_CELLS}, "
            f"got {pattern.k}x{pattern.m}")


def has_support_bruteforce(pattern: NonnegPattern) -> bool:
    """Ground-truth support oracle by exhaustive zero-submatrix enumeration.

    For every nonempty row subset alpha, the maximal column set beta with
    A[alpha | beta] identically zero is checked against
    ``len(alpha)*m + len(beta)*k > k*m``.  Small sizes only.
    """
    _guard(pattern)
    k, m = pattern.k, pattern.m
    rows = pattern.row_bitmasks()
    full = (1 << m) - 1
    for amask in range(1, 1 << k):
        beta = full
        a_size = 0
        probe = amask
        i = 0
        while probe:
            if probe & 1:
                beta &= ~rows[i]
                a_size += 1
            probe >>= 1
            i += 1
        beta &= full
        if beta and a_size * m + bin(beta).count("1") * k > k * m:
            return False
    return True


def has_total_support_bruteforce(pattern: NonnegPattern) -> bool:
    """Ground-truth total-support oracle over all zero-submatrix pairs.

    Enumerates every nonempty (alpha, beta) with A[alpha | beta] identically
    zero; total support fails on weight > k*m, or weight == k*m with the
    complementary submatrix not identically zero.  Small sizes only.
    """
    _guard(pattern)
    if not has_support_bruteforce(pattern):
        return False
    k, m = pattern.k, pattern.m
    rows = pattern.row_bitmasks()
    full = (1 << m) - 1
    target = k * m
    for amask in range(1, 1 << k):
        zeros = full
        outside = 0
        a_size = 0
        for i in range(k):
            if amask & (1 << i):
                zeros &= ~rows[i]
                a_size += 1
            else:
                outside |= rows[i]
        zeros &= full
        if not zeros:
            continue
        bmask = zeros
        while bmask:
            weight = a_size * m + bin(bmask).count("1") * k
            if weight > target:
                return False
            if weight == target and (outside & ~bmask & full):
                return False
            bmask = (bmask - 1) & zeros
    return True


@dataclass(frozen=True)
class ConditionCheck:
    """One sufficient condition: does it apply to this shape, is it satisfied."""

    applies: bool
    satisfied: bool

    @property
    def grants(self) -> bool:
        return self.applies and self.satisfied


@dataclass(frozen=True)
class ZeroFractionReport:
    zero_count: int
    has_zero_row: bool
    has_zero_col: bool
    rect_few_zeros: ConditionCheck
    square_few_zeros: ConditionCheck
    line_ratio_few_zeros: ConditionCheck

    @property
    def implies_total_support(self) -> bool:
        return (self.rect_few_zeros.grants or self.square_few_zeros.grants
                or self.line_ratio_few_zeros.grants)


def zero_fraction_sufficient(pattern: NonnegPattern) -> ZeroFractionReport:
    """Zero-count conditions that force total support.

    * rectangular shape with fewer than min(k, m) zeros;
    * square shape with fewer than k - 1 zeros;
    * no zero row or column and fewer than max(k, m)/min(k, m) zeros.

    ``satisfied`` records the numeric inequality alone; ``applies`` records
    the shape gate, and a condition grants total support only when both hold.
    """
    k, m = pattern.k, pattern.m
    mask = pattern.nonzero_mask()
    zeros = int(k * m - np.count_nonzero(mask))
    zero_row = bool((~mask).all(axis=1).any())
    zero_col = bool((~mask).all(axis=0).any())
    lo, hi = min(k, m), max(k, m)
    rect = ConditionCheck(applies=(k != m), satisfied=(zeros < lo))
    square = ConditionCheck(applies=(k == m), satisfied=(zeros < k - 1))
    line_ratio = ConditionCheck(
        applies=True,
        satisfied=(not zero_row and not zero_col and zeros < hi / lo))
    return ZeroFractionReport(
        zero_count=zeros, has_zero_row=zero_row, has_zero_col=zero_col,
        rect_few_zeros=rect, square_few_zeros=square,
        line_ratio_few_zeros=line_ratio)
