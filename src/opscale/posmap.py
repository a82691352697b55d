"""Positive linear maps from k x k to m x m matrices, stored in block form.

A map T is kept as the km x km block matrix ``choi`` whose (i, j) block of
size m x m is ``T(transpose(E_ij)) = T(E_ji)``, i.e.

    choi = sum_ij kron(E_ij, T(E_ji)),        T(X) = sum_ij X[j, i] * C[i][j].

The transpose places a bipartite density matrix A and the map it induces,
``X -> sum_l B_l * tr(A_l X)`` for ``A = sum_l kron(A_l, B_l)``, into exact
correspondence: :func:`from_state` stores A itself, the block trace of the
storage equals the partial trace of A, and the normalized maximally entangled
state induces ``X -> transpose(X) / k``.

Positivity of a map is not a property of the storage matrix: the identity
map is stored as the swap operator, which has a negative eigenvalue.  A
positive semidefinite storage proves it, since ``T(v v*) = (v (x) Id)* C
(v (x) Id)`` (T is co-completely positive, as the maps induced by states and
the random maps of :mod:`opscale.fixtures` are), and so does a semidefinite
partial transpose on the first factor, the usual Choi matrix (T is completely
positive, as the identity and every sandwich map ``X -> S X S*`` are).
Construction checks the storage with :func:`opscale.numkernel.hermitian_storage`,
tries both proofs, and otherwise searches for a negative image without random
numbers.  Positivity is as hard to decide as separability (Gurvits,
quant-ph/0303055): a map the search does not refute is accepted on evidence.

The map and its adjoint are applied as one matrix product each with the
realigned storage, the contiguous ``k^2 x m^2`` matrix

    R[(j, i), (p, q)] = C[i][j][p, q],    T(X) = vec(X) R,    T*(Y) = conj(R conj(vec(Y))),

with ``vec`` the row-major vectorization.  R is built on the first
application, so a map that is never applied costs no second copy of its
storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcomb import NonnegPattern, SizeGuardError
from .numkernel import (DEFAULT_TOL, Tolerances, as_complex_matrix, frob,
                        herm_eig, hermitian_part, hermitian_storage, kron,
                        psd_storage, rank_tol, svd)

_POSITIVITY_REL = 1e-8    # allowed negative eigenvalue of T(v v*), times ||C||_F
_SEARCH_STARTS, _SEARCH_ROUNDS = 4, 50   # storage eigenvectors searched from, rounds each
_CHECK_SEED = 42
# The lift's storage has (km)^4 entries: 2^24 complex128 (256 MiB, km <= 64),
# and its construction holds a few more arrays of that size.
_TILDE_MAX_ENTRIES = 1 << 24
_INVARIANCE_REL = 1e-8    # allowed invariance defect, times ||C||_F
_STRICT_RANK_SAMPLES = 20   # sampled PSD X per block and intermediate rank


class PositivityViolation(ValueError):
    """Unit v, w with ``w* T(v v*) w = value`` below the floor; one apply re-verifies it."""

    def __init__(self, message: str, v=None, w=None, value: float | None = None):
        super().__init__(message)
        self.v, self.w, self.value = v, w, value


def _storage_proves_positivity(C: np.ndarray) -> bool:
    """Prove that the map stored in C, or in its partial transpose, is positive.

    For a unit vector v, ``T(v v*) = (v (x) Id)* C (v (x) Id)`` has smallest
    eigenvalue at least ``lambda_min(C)``.  If the Cholesky factorization of
    ``A = C + delta*Id`` with ``delta = _POSITIVITY_REL * ||C||_F / 2``
    succeeds, its computed factor R satisfies ``R* R = A + E`` with
    ``|E| <= gamma_(n+1) |R*| |R|`` (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm. 10.3), so ``lambda_min(C) >= -delta - ||E||_2``
    where ``||E||_2 <= gamma_(n+1) ||R||_F^2`` is about ``(n + 1) * eps/2 * tr(A)``.
    The proof counts when twice that bound, ``(n + 1) * eps * tr(A)``, stays
    below the other half, ``delta``: every image then has all eigenvalues
    above ``-_POSITIVITY_REL * ||C||_F``, the refutation's floor.  Both
    sides scale with C, and ``||C||_F`` neither overflows nor underflows, so
    ``c * C`` gets C's verdict, up to rounding, for every c > 0 that keeps
    the entries of ``c * C`` normal doubles, above about 2.2e-308 in
    magnitude, and within the entry bound of
    :func:`opscale.numkernel.hermitian_storage`, which refuses a storage
    whose sums in construction and in the searched images could overflow.
    The partial transpose keeps C's trace and norm.  Draws no random numbers.
    """
    n = C.shape[0]
    delta = 0.5 * _POSITIVITY_REL * frob(C)
    A = C.copy()
    A[np.diag_indices(n)] += delta
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return (n + 1) * np.finfo(np.float64).eps * float(np.trace(A).real) < delta


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    R diagonal's phases normalized out."""
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def _filters(T, P, Q) -> tuple[np.ndarray, np.ndarray]:
    """The checked input and output filters of a conjugation of T."""
    P = as_complex_matrix(P)
    Q = as_complex_matrix(Q)
    if P.shape != (T.k, T.k) or Q.shape != (T.m, T.m):
        raise ValueError("conjugation filters have wrong shapes")
    return P, Q


class ChoiMap:
    """A positive map ``M_k -> M_m`` in the block storage described above.

    The storage matrix must be Hermitian (equivalently blockwise
    ``C[j][i] = C[i][j]*``); it is symmetrized on construction and kept
    read-only.  Unless ``check_positivity`` is disabled, construction decides
    positivity without random numbers: a Cholesky factorization of the
    storage or of its partial transpose proves it.  Otherwise a search for
    a rank-one image with an eigenvalue below ``-1e-8`` times the storage's
    Frobenius norm raises :class:`PositivityViolation` on one, and a map it
    does not refute is accepted on evidence, not proof.
    """

    def __init__(self, k: int, m: int, choi, *, check_positivity: bool = True):
        C = hermitian_storage(k, m, choi, "choi storage")
        self.k = int(k)
        self.m = int(m)
        self.choi = C
        self._blocks = C.reshape(k, m, k, m)  # [i, p, j, q] = C[i][j][p, q]
        if check_positivity and not (_storage_proves_positivity(C) or _storage_proves_positivity(
                self._blocks.transpose(2, 1, 0, 3).reshape(C.shape))):
            self._refute_positivity()

    def _refute_positivity(self):
        """Alternate w = lowest eigenvector of T(v v*), v = that of T*(w w*), from the
        product vectors nearest the lowest storage eigenvectors, while ``w* T(v v*) w`` falls."""
        for x in herm_eig(self.choi)[1].T[::-1][:_SEARCH_STARTS]:
            v, value = svd(x.reshape(self.k, self.m))[0][:, 0], np.inf
            for _ in range(_SEARCH_ROUNDS):
                u = herm_eig(hermitian_part(self.apply(np.outer(v, v.conj()))))[1][:, -1]
                low, V = herm_eig(hermitian_part(self.apply_adjoint(np.outer(u, u.conj()))))
                if not low[-1] < value:
                    break
                value, v, w = low[-1], V[:, -1], u
            if value < -_POSITIVITY_REL * frob(self.choi):
                raise PositivityViolation(
                    f"map sent a rank-one projector to eigenvalue {value:.3e}", v, w, value)

    @cached_property
    def _realigned(self) -> np.ndarray:
        """The realigned storage R, built on first use."""
        R = np.ascontiguousarray(self._blocks.transpose(2, 0, 1, 3))
        R = R.reshape(self.k * self.k, self.m * self.m)
        R.setflags(write=False)
        return R

    def apply(self, X) -> np.ndarray:
        """Evaluate T(X) = sum_ij X[j, i] * C[i][j]."""
        X = as_complex_matrix(X)
        if X.shape != (self.k, self.k):
            raise ValueError(f"expected input shape {(self.k, self.k)}, got {X.shape}")
        return (X.reshape(-1) @ self._realigned).reshape(self.m, self.m)

    def apply_adjoint(self, Y) -> np.ndarray:
        """Evaluate the adjoint for <T(X), Y> = <X, T*(Y)> with <A, B> = tr(A B*)."""
        Y = as_complex_matrix(Y)
        if Y.shape != (self.m, self.m):
            raise ValueError(f"expected input shape {(self.m, self.m)}, got {Y.shape}")
        out = self._realigned @ Y.reshape(-1).conj()
        return np.conjugate(out, out=out).reshape(self.k, self.k)

    def adjoint(self) -> "ChoiMap":
        """The adjoint as a map ``M_m -> M_k`` in the same storage scheme."""
        blocks = self._blocks.conj().transpose(3, 2, 1, 0)  # [p, j, q, i]
        return ChoiMap(self.m, self.k, blocks.reshape(self.m * self.k, self.m * self.k),
                       check_positivity=False)

    def conjugated(self, P, Q) -> "ChoiMap":
        """The map ``X -> Q T(P X P*) Q*``.

        In block storage this is the congruence of the storage matrix by
        ``kron(P*, Q)``, which is how equivalence transformations transport
        to induced maps.  :class:`FilteredMap` applies the same map without
        building the storage.
        """
        P, Q = _filters(self, P, Q)
        W = kron(P.conj().T, Q)
        return ChoiMap(self.k, self.m, W @ self.choi @ W.conj().T,
                       check_positivity=False)

    def tilde_lift(self) -> "ChoiMap":
        """The square lift acting on ``M_m (x) M_k``.

        Sends a block matrix with m x m grid of k x k blocks ``B_ij`` to
        ``kron(T(sum_i B_ii), Id_k)``.  The lift is scalable to doubly
        stochastic exactly when the original map is.  Its storage has
        ``(km)^4`` entries; above ``_TILDE_MAX_ENTRIES`` (km > 64) it raises
        :class:`opscale.matcomb.SizeGuardError` before allocating any.
        """
        k, m = self.k, self.m
        n = m * k
        if n ** 4 > _TILDE_MAX_ENTRIES:
            raise SizeGuardError(f"tilde lift of a {k}x{m} map needs (km)^4 = "
                                 f"{n ** 4} storage entries, above the cap of "
                                 f"{_TILDE_MAX_ENTRIES}")
        eye_m = np.eye(m)
        eye_k = np.eye(k)
        # [(i1,i2), (p1,p2), (j1,j2), (q1,q2)] =
        #     delta(i1,j1) * C[i2][j2][p1, q1] * delta(p2,q2)
        lifted = np.einsum("ae,bcfg,dh->abcdefgh", eye_m, self._blocks, eye_k)
        return ChoiMap(n, n, lifted.reshape(n * n, n * n), check_positivity=False)


class FilteredMap:
    """The map ``X -> Q T(P X P*) Q*`` of :meth:`ChoiMap.conjugated`, kept as
    T and the two filters.  Each apply, and each adjoint
    ``Z -> P* T*(Q* Z Q) P``, is one apply of T and four products; no
    storage is built.  T is used only through ``k``, ``m``, ``apply`` and
    ``apply_adjoint``."""

    def __init__(self, T, P, Q):
        self.k, self.m = T.k, T.m
        self._T = T
        self._P, self._Q = _filters(T, P, Q)

    def apply(self, X) -> np.ndarray:
        P, Q = self._P, self._Q
        return Q @ self._T.apply(P @ X @ P.conj().T) @ Q.conj().T

    def apply_adjoint(self, Z) -> np.ndarray:
        P, Q = self._P, self._Q
        return P.conj().T @ self._T.apply_adjoint(Q.conj().T @ Z @ Q) @ P


@dataclass(frozen=True)
class DsCheck:
    is_doubly_stochastic: bool
    forward_defect: float
    adjoint_defect: float

    def __bool__(self) -> bool:
        return self.is_doubly_stochastic


def is_doubly_stochastic(T: ChoiMap, eps: float) -> DsCheck:
    """T is doubly stochastic when T(Id/sqrt(k)) = Id/sqrt(m) and
    T*(Id/sqrt(m)) = Id/sqrt(k); both defects are measured in Frobenius norm.
    T is used only through ``k``, ``m``, ``apply`` and ``apply_adjoint``, so a
    :class:`FilteredMap` is checked with two applies of its map."""
    k, m = T.k, T.m
    fwd = frob(T.apply(np.eye(k) / np.sqrt(k)) - np.eye(m) / np.sqrt(m))
    adj = frob(T.apply_adjoint(np.eye(m) / np.sqrt(m)) - np.eye(k) / np.sqrt(k))
    return DsCheck(bool(fwd <= eps and adj <= eps), float(fwd), float(adj))


def from_state(rho, k: int, m: int) -> tuple[ChoiMap, ChoiMap]:
    """Maps induced by a bipartite PSD matrix on ``C^k (x) C^m``.

    Returns ``(G, F)`` where for ``rho = sum_l kron(A_l, B_l)``:
    ``G(X) = sum_l B_l tr(A_l X)`` and ``F(Y) = sum_l A_l tr(B_l Y)``; F is
    the adjoint of G.  The storage of G is ``rho`` itself, so
    ``G(Id) = partial_trace_first(rho)``.  ``rho`` passes
    :func:`opscale.numkernel.psd_storage`, the check of a
    :class:`opscale.fnf.BipartiteState`.
    """
    rho, _ = psd_storage(k, m, rho, "state")
    G = ChoiMap(k, m, rho, check_positivity=False)
    return G, G.adjoint()


def pattern_matrix(T: ChoiMap, basis_in, basis_out) -> NonnegPattern:
    """Nonnegative pattern of T in a pair of orthonormal bases.

    Entry (i, j) is ``tr(T(v_i v_i*) w_j w_j*)`` for columns v_i of
    ``basis_in`` and w_j of ``basis_out``.  Values are real up to round-off
    for a positive map and are clamped at zero; the structural-zero threshold
    is 1e-10 times the largest entry.
    """
    V = as_complex_matrix(basis_in)
    W = as_complex_matrix(basis_out)
    if V.shape != (T.k, T.k) or W.shape != (T.m, T.m):
        raise ValueError("basis shapes do not match the map")
    for U, dim in ((V, T.k), (W, T.m)):
        if frob(U.conj().T @ U - np.eye(dim)) > 1e-10 * dim:
            raise ValueError("basis is not unitary within tolerance")
    P = np.empty((T.k, T.m))
    for i in range(T.k):
        img = T.apply(np.outer(V[:, i], V[:, i].conj()))
        P[i, :] = np.einsum("pj,pq,qj->j", W.conj(), img, W).real
    P = np.maximum(P, 0.0)
    eps = 1e-10 * float(P.max(initial=0.0))
    return NonnegPattern(P, zero_eps=eps)


@dataclass(frozen=True)
class BlockCertificate:
    """Matching block decompositions of the input and output spaces.

    ``input_projectors`` are orthogonal projections on C^k summing to the
    identity and mutually orthogonal; ``output_projectors`` likewise on C^m.
    """

    input_projectors: tuple[np.ndarray, ...]
    output_projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.input_projectors) != len(self.output_projectors):
            raise ValueError("certificate needs equally many input and output projectors")
        if not self.input_projectors:
            raise ValueError("certificate must contain at least one block")
        # The certificate keeps and freezes its projectors, so it copies them.
        ins = tuple(as_complex_matrix(P).copy() for P in self.input_projectors)
        outs = tuple(as_complex_matrix(P).copy() for P in self.output_projectors)
        k = ins[0].shape[0]
        m = outs[0].shape[0]
        for P in ins:
            if P.shape != (k, k):
                raise ValueError("input projectors have inconsistent shapes")
        for P in outs:
            if P.shape != (m, m):
                raise ValueError("output projectors have inconsistent shapes")
        for P in ins + outs:
            P.setflags(write=False)
        object.__setattr__(self, "input_projectors", ins)
        object.__setattr__(self, "output_projectors", outs)

    @property
    def blocks(self) -> int:
        return len(self.input_projectors)

    def structure_defect(self) -> float:
        """Worst defect over Hermiticity, idempotence, mutual orthogonality
        and summing to the identity, on both sides."""
        worst = 0.0
        for family in (self.input_projectors, self.output_projectors):
            dim = family[0].shape[0]
            total = np.zeros((dim, dim), dtype=complex)
            for a, P in enumerate(family):
                worst = max(worst, frob(P - P.conj().T), frob(P @ P - P))
                total += P
                for Q in family[a + 1:]:
                    worst = max(worst, frob(P @ Q))
            worst = max(worst, frob(total - np.eye(dim)))
        return worst


@dataclass(frozen=True)
class CertificateCondition:
    passed: bool
    sampled: bool
    detail: str
    worst_defect: float | None = None


@dataclass(frozen=True)
class CertificateReport:
    decomposition: CertificateCondition
    invariance: CertificateCondition
    strict_rank_increase: CertificateCondition
    rank_ratio: CertificateCondition

    @property
    def passed(self) -> bool:
        return (self.decomposition.passed and self.invariance.passed
                and self.strict_rank_increase.passed and self.rank_ratio.passed)


def invariance_defect(T: ChoiMap, cert: BlockCertificate) -> float:
    """Worst defect ``||(Id - W_a) T(V_a) (Id - W_a)||_F`` over the blocks.

    For a positive T no image of a block leaves it by more: a Hermitian
    ``X = V_a X V_a`` with ``||X||_F <= 1`` lies between -V_a and V_a, so the
    compression Z of T(X) lies between -c and c, c that of T(V_a), and
    ``0 <= tr((c + Z)(c - Z)) = ||c||_F^2 - ||Z||_F^2``.  Draws no random numbers.
    """
    worst = 0.0
    for Va, Wa in zip(cert.input_projectors, cert.output_projectors):
        comp = np.eye(T.m) - Wa
        worst = max(worst, frob(comp @ T.apply(Va) @ comp))
    return worst


def verify_block_certificate(T: ChoiMap, cert: BlockCertificate,
                             tol: Tolerances = DEFAULT_TOL,
                             rng: np.random.Generator | None = None) -> CertificateReport:
    """Check a block certificate against a map, condition by condition.

    * decomposition: structure defect at most ``1e-10 * max(k, m)``;
    * invariance: :func:`invariance_defect`, which is linear in T, at most
      ``_INVARIANCE_REL * ||storage||_F``, so ``c * T`` gets T's verdict;
    * strict rank increase: ``rank(X) * rank(W_a) < rank(T(X)) * rank(V_a)``
      for ``_STRICT_RANK_SAMPLES`` sampled PSD X of every intermediate rank
      inside a block (sampled, not a proof; the only draws from ``rng``);
    * rank ratio: ``rank(W_a) / rank(V_a) = m / k`` exactly, on integer ranks.

    The first two are decided, not sampled, and make every scaling filter
    block-diagonal (see :mod:`opscale.scaling`).  Raises ValueError when the
    certificate's dimensions do not match T.
    """
    k, m = T.k, T.m
    if cert.input_projectors[0].shape[0] != k or cert.output_projectors[0].shape[0] != m:
        raise ValueError("certificate dimensions do not match the map")
    rng = rng if rng is not None else np.random.default_rng(_CHECK_SEED)
    sdef = cert.structure_defect()
    decomposition = CertificateCondition(
        passed=bool(sdef <= 1e-10 * max(k, m)), sampled=False,
        detail="projector families are orthogonal decompositions of both spaces",
        worst_defect=float(sdef))
    idef = invariance_defect(T, cert)
    invariance = CertificateCondition(
        passed=bool(idef <= _INVARIANCE_REL * frob(T.choi)), sampled=False,
        detail="each input block maps into the matching output block",
        worst_defect=float(idef))
    ranks = [(rank_tol(Va, tol), rank_tol(Wa, tol))
             for Va, Wa in zip(cert.input_projectors, cert.output_projectors)]
    rank_ratio = CertificateCondition(
        passed=all(rv > 0 and k * rw == m * rv for rv, rw in ranks), sampled=False,
        detail=f"block rank pairs {ranks} against output/input ratio {m}/{k}",
        worst_defect=None)

    def no_counterexample() -> bool:
        for Va, (rv, rw) in zip(cert.input_projectors, ranks):
            for r in range(1, rv):
                for _ in range(_STRICT_RANK_SAMPLES):
                    Z = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
                    root = Va @ Z
                    X = root @ root.conj().T
                    rx = rank_tol(X, tol)
                    if rx == 0 or rx >= rv:
                        continue
                    if not rx * rw < rank_tol(T.apply(X), tol) * rv:
                        return False
        return True

    strict = CertificateCondition(
        passed=decomposition.passed and no_counterexample(), sampled=decomposition.passed,
        detail="rank(X) * rank(W) < rank(T(X)) * rank(V) on sampled intermediate-rank PSD X"
        if decomposition.passed else "skipped: the blocks are not an orthogonal decomposition",
        worst_defect=None)

    return CertificateReport(decomposition=decomposition, invariance=invariance,
                             strict_rank_increase=strict, rank_ratio=rank_ratio)
