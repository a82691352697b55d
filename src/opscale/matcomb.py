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
a zero-submatrix witness.  The flow is Dinic's: blocking flows on level
graphs, over flat arc lists.

Total support needs the same one flow and one pass over the strongly
connected components of its residual graph (Dulmage and Mendelsohn, 1958): a
nonzero (i, j) lies on a positive diagonal iff row i and column j share a
component.  For the first entry that fails, one residual search from its
column gives the witness: the reached rows and the unreached columns, because
reached rows keep all their nonzeros inside the reached set and so send all
their flow into it.  Which maximum flow the solver finds changes none of
this; :func:`has_total_support` says why.  Its result also carries the
support verdict of the same flow, as ``support``.  Both brute-force oracles
read one enumeration of the maximal zero blocks.
"""

from __future__ import annotations

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
        if not self.zero_eps >= 0:  # also refuses NaN
            raise ValueError(f"zero_eps must be a nonnegative number, got {self.zero_eps!r}")
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
        rows = [0] * self.k
        for i, j in zip(*(ix.tolist() for ix in np.nonzero(self.nonzero_mask()))):
            rows[i] |= 1 << j
        return rows


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
        alpha_set, beta_set = set(self.alpha), set(self.beta)
        if len(alpha_set) != len(self.alpha) or len(beta_set) != len(self.beta):
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
        rows_c = [i for i in range(k) if i not in alpha_set]
        cols_c = [j for j in range(m) if j not in beta_set]
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

    @property
    def support(self) -> SupportResult:
        """The support verdict of the same flow: a refusal without a failing
        entry is a support refusal, and its witness is :func:`has_support`'s
        source-side cut."""
        if self.has_total_support or self.failing_entry is not None:
            return SupportResult(True, None)
        return SupportResult(False, self.witness)


class _FlowNet:
    """Integer max-flow by Dinic's blocking flows on flat arc lists.

    Arc ``e`` runs to ``to[e]`` with residual capacity ``cap[e]``; arcs come
    in pairs, so ``e ^ 1`` is its reverse and ``to[e ^ 1]`` its tail.
    """

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
        """Augment to a maximum flow from s to t and return its value.

        Each phase labels nodes by residual distance from s, stopping as soon
        as t is labelled, then saturates that level graph with an iterative
        depth-first search whose per-node arc pointers never revisit an arc.
        The level and pointer lists are reset only where a phase touched them.
        """
        to, cap, adj = self.to, self.cap, self.adj
        level = [-1] * self.n
        ptr = [0] * self.n
        total = 0
        while True:
            level[s] = 0
            labelled = [s]
            for u in labelled:
                below = level[u] + 1
                for e in adj[u]:
                    if cap[e] and level[to[e]] < 0:
                        level[to[e]] = below
                        labelled.append(to[e])
                if level[t] >= 0:
                    break
            if level[t] < 0:
                return total
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    push = cap[path[0]]
                    for e in path:
                        if cap[e] < push:
                            push = cap[e]
                    total += push
                    cut = -1
                    for idx, e in enumerate(path):
                        cap[e] -= push
                        cap[e ^ 1] += push
                        if cut < 0 and not cap[e]:
                            cut = idx
                    del path[cut:]  # resume at the tail of the first saturated arc
                    u = to[path[-1]] if path else s
                    continue
                arcs = adj[u]
                p = ptr[u]
                below = level[u] + 1
                while p < len(arcs):
                    e = arcs[p]
                    if cap[e] and level[to[e]] == below:
                        break
                    p += 1
                else:  # u is blocked: retreat and skip the arc into it
                    ptr[u] = p
                    if not path:
                        break
                    u = to[path.pop() ^ 1]
                    ptr[u] += 1
                    continue
                ptr[u] = p
                path.append(e)
                u = to[e]
            for u in labelled:
                level[u] = -1
                ptr[u] = 0

    def residual_reachable(self, s: int) -> list[bool]:
        seen = [False] * self.n
        seen[s] = True
        queue = [s]
        to, cap, adj = self.to, self.cap, self.adj
        for u in queue:
            for e in adj[u]:
                if cap[e] and not seen[to[e]]:
                    seen[to[e]] = True
                    queue.append(to[e])
        return seen

    def residual_components(self) -> list[int]:
        """Strongly connected component label of every node of the residual
        graph, from one iterative Tarjan pass."""
        to, cap, adj = self.to, self.cap, self.adj
        index = [-1] * self.n
        low = [0] * self.n
        comp = [-1] * self.n
        stack: list[int] = []
        counter = labels = 0
        for root in range(self.n):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            call = [(root, iter(adj[root]))]  # each node resumes its arc scan
            while call:
                u, arcs = call[-1]
                for e in arcs:
                    if cap[e]:
                        v = to[e]
                        if index[v] < 0:
                            index[v] = low[v] = counter
                            counter += 1
                            stack.append(v)
                            call.append((v, iter(adj[v])))
                            break
                        if comp[v] < 0 and index[v] < low[u]:  # v is on the stack
                            low[u] = index[v]
                else:
                    call.pop()
                    if call and low[u] < low[call[-1][0]]:
                        low[call[-1][0]] = low[u]
                    if low[u] == index[u]:
                        while True:
                            v = stack.pop()
                            comp[v] = labels
                            if v == u:
                                break
                        labels += 1
        return comp


def _build_net(mask: np.ndarray):
    """Nodes: 0 = source, 1..k rows, k+1..k+m cols, k+m+1 = sink.

    ``mask`` is the pattern's structural-nonzero mask.  Its arcs follow the
    k + m line arcs in row-major order, so they are arcs 2*(k+m), 2*(k+m) + 2,
    and so on.
    """
    k, m = mask.shape
    net = _FlowNet(k + m + 2)
    source, sink = 0, k + m + 1
    for i in range(k):
        net.add_edge(source, 1 + i, m)
    for j in range(m):
        net.add_edge(1 + k + j, sink, k)
    big = k * m + 1
    rows, cols = np.nonzero(mask)
    for i, j in zip(rows.tolist(), cols.tolist()):
        net.add_edge(1 + i, 1 + k + j, big)
    return net, source, sink


def _cut_witness(mask: np.ndarray, seen: list[bool]) -> ZeroSubmatrixWitness:
    """Zero-submatrix witness from a residual reach set after a max-flow.

    Rows reached and columns not reached form a zero submatrix: a nonzero arc
    leaving a reached row always has residual capacity and would extend it.
    """
    k, m = mask.shape
    alpha = tuple(i for i in range(k) if seen[1 + i])
    beta = tuple(j for j in range(m) if not seen[1 + k + j])
    weight = len(alpha) * m + len(beta) * k
    tight = False
    if weight == k * m:
        rows_c = [i for i in range(k) if not seen[1 + i]]
        cols_c = [j for j in range(m) if seen[1 + k + j]]
        tight = bool(rows_c and cols_c and mask[np.ix_(rows_c, cols_c)].any())
    return ZeroSubmatrixWitness(alpha=alpha, beta=beta, weight=weight, tight_violation=tight)


def has_support(pattern: NonnegPattern) -> SupportResult:
    """Decide support.  On failure the result carries a zero-submatrix witness."""
    k, m = pattern.k, pattern.m
    mask = pattern.nonzero_mask()
    net, source, sink = _build_net(mask)
    value = net.max_flow(source, sink)
    if value == k * m:
        return SupportResult(True, None)
    return SupportResult(False, _cut_witness(mask, net.residual_reachable(source)))


def has_total_support(pattern: NonnegPattern) -> TotalSupportResult:
    """Decide total support.

    Runs one maximum flow.  Without support the result carries the same cut
    witness as :func:`has_support`.  Otherwise a structural nonzero (i, j)
    lies on a positive diagonal exactly when some maximum flow routes a unit
    through it: either the flow found already does, or a residual path from
    column j back to row i closes a rerouting cycle with the arc (i, j).  The
    arc (i, j) always has residual capacity, so both cases say that row i and
    column j share a strongly connected component of the residual graph, and
    one Tarjan pass decides every entry.  The first failing entry in
    row-major order is reported, with column j's residual reach set as its
    witness: reached rows send all their flow into reached columns, so the
    witness has weight exactly k*m.  That search runs only on failure.

    None of this depends on which maximum flow the solver finds.  Two
    maximum flows differ by a circulation, which splits into cycles of the
    first flow's residual graph.  Pushing a unit around such a cycle removes
    residual arcs only between nodes of the cycle and opens the reversed
    cycle, so those nodes stay mutually reachable and every reach set, and
    with it every strongly connected component, is unchanged.  The verdict,
    ``failing_entry``, the source-side cut and column j's witness are thus
    the same for every maximum flow.
    """
    k, m = pattern.k, pattern.m
    mask = pattern.nonzero_mask()
    net, source, sink = _build_net(mask)
    if net.max_flow(source, sink) != k * m:
        witness = _cut_witness(mask, net.residual_reachable(source))
        return TotalSupportResult(False, witness, None)
    comp = net.residual_components()
    to = net.to
    for e in range(2 * (k + m), len(to), 2):  # the nonzero arcs, row-major
        row, col = to[e ^ 1], to[e]
        if comp[row] != comp[col]:
            witness = _cut_witness(mask, net.residual_reachable(col))
            return TotalSupportResult(False, witness, (row - 1, col - 1 - k))
    return TotalSupportResult(True, None, None)


def _zero_blocks(pattern: NonnegPattern):
    """For every nonempty row subset alpha whose maximal zero column set
    beta is nonempty, yield ``(len(alpha)*m + len(beta)*k, complement
    A(alpha | beta) has a nonzero)``.  Both oracles read this enumeration."""
    k, m = pattern.k, pattern.m
    if k * m > _ORACLE_MAX_CELLS:
        raise SizeGuardError(f"brute-force oracle limited to k*m <= "
                             f"{_ORACLE_MAX_CELLS}, got {k}x{m}")
    rows = pattern.row_bitmasks()
    full = (1 << m) - 1
    for amask in range(1, 1 << k):
        zeros = full
        outside = 0
        for i in range(k):
            if amask >> i & 1:
                zeros &= ~rows[i]
            else:
                outside |= rows[i]
        if zeros:
            yield (amask.bit_count() * m + zeros.bit_count() * k,
                   bool(outside & ~zeros))


def has_support_bruteforce(pattern: NonnegPattern) -> bool:
    """Ground-truth support oracle by exhaustive zero-submatrix enumeration.

    For every nonempty row subset alpha, the maximal column set beta with
    A[alpha | beta] identically zero is checked against
    ``len(alpha)*m + len(beta)*k > k*m``.  Small sizes only.
    """
    target = pattern.k * pattern.m
    return all(weight <= target for weight, _ in _zero_blocks(pattern))


def has_total_support_bruteforce(pattern: NonnegPattern) -> bool:
    """Ground-truth total-support oracle over all zero-submatrix pairs.

    Total support fails when some nonempty (alpha, beta) with A[alpha | beta]
    identically zero has weight > k*m, or weight == k*m with the
    complementary submatrix not identically zero.  Every row subset alpha is
    enumerated.  The weight grows with beta, so the maximal zero column set
    decides for each alpha: a smaller beta that reaches k*m leaves the
    maximal one above it.  Small sizes only.
    """
    target = pattern.k * pattern.m
    return all(weight < target or (weight == target and not complement_nonzero)
               for weight, complement_nonzero in _zero_blocks(pattern))


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


def count_bounds(k: int, m: int, count: int, lines_full: bool) -> tuple[ConditionCheck, ...]:
    """The paper's three bounds on a count of zeros or of kernel dimensions:
    rectangular shape and ``count < min(k, m)``; square shape and
    ``count < k - 1``; ``lines_full`` and ``count < max(k, m)/min(k, m)``."""
    lo, hi = min(k, m), max(k, m)
    return (ConditionCheck(applies=(k != m), satisfied=(count < lo)),
            ConditionCheck(applies=(k == m), satisfied=(count < k - 1)),
            ConditionCheck(applies=True, satisfied=(lines_full and count < hi / lo)))


def zero_fraction_sufficient(pattern: NonnegPattern) -> ZeroFractionReport:
    """Zero-count conditions that force total support: :func:`count_bounds`
    of the zero count, with no zero row or column for the line ratio.

    ``satisfied`` records the numeric inequality alone; ``applies`` records
    the shape gate, and a condition grants total support only when both hold.
    """
    k, m = pattern.k, pattern.m
    mask = pattern.nonzero_mask()
    zeros = int(k * m - np.count_nonzero(mask))
    zero_row = bool((~mask).all(axis=1).any())
    zero_col = bool((~mask).all(axis=0).any())
    return ZeroFractionReport(zeros, zero_row, zero_col,
                              *count_bounds(k, m, zeros, not zero_row and not zero_col))
