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
positive semidefinite storage does prove it, since
``T(v v*) = (v (x) Id)* C (v (x) Id)``.  Every map induced by a state, the
transpose and the random maps of :mod:`opscale.fixtures` have one; the
identity and every sandwich map ``X -> S X S*`` with rank S >= 2 do not.
Construction checks the storage with
:func:`opscale.numkernel.hermitian_storage`, the one check that maps and
states share.  It then tries that proof with one Cholesky factorization of
the storage, and samples rank-one images only when the proof does not go
through.

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

from .matcomb import (NonnegPattern, TotalSupportResult, ZeroSubmatrixWitness,
                      has_total_support)
from .numkernel import (DEFAULT_TOL, Tolerances, as_complex_matrix,
                        complex_operand, frob, hermitian_part,
                        hermitian_storage, kron, psd_storage, rank_tol)

_POSITIVITY_REL = 1e-8    # allowed negative eigenvalue in images T(v v*)
_POSITIVITY_TRIALS = 200
_CHECK_SEED = 42


class PositivityViolation(ValueError):
    """Sampled check found a unit vector v with T(v v*) not PSD."""


def _storage_proves_positivity(C: np.ndarray) -> bool:
    """Prove that the map stored in the Hermitian matrix C is positive.

    For a unit vector v, ``T(v v*) = (v (x) Id)* C (v (x) Id)`` has smallest
    eigenvalue at least ``lambda_min(C)``.  If the Cholesky factorization of
    ``A = C + delta*Id`` with ``delta = _POSITIVITY_REL / 2`` succeeds, its
    computed factor R satisfies ``R* R = A + E`` with
    ``|E| <= gamma_(n+1) |R*| |R|`` (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm. 10.3), so ``lambda_min(C) >= -delta - ||E||_2``
    where ``||E||_2 <= gamma_(n+1) ||R||_F^2`` is about ``(n + 1) * eps/2 * tr(A)``.
    The proof counts when twice that bound, ``(n + 1) * eps * tr(A)``, stays
    below the other half of ``_POSITIVITY_REL``: every image then has all
    eigenvalues above ``-_POSITIVITY_REL``, the least negative floor the
    sampled check can use.  Draws no random numbers.
    """
    n = C.shape[0]
    delta = 0.5 * _POSITIVITY_REL
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


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class ChoiMap:
    """A positive map ``M_k -> M_m`` in the block storage described above.

    The storage matrix must be Hermitian (equivalently blockwise
    ``C[j][i] = C[i][j]*``); it is symmetrized on construction and kept
    read-only.  Unless ``check_positivity`` is disabled, construction checks
    positivity: one Cholesky factorization proves it when the storage is
    positive semidefinite within tolerance.  Otherwise ``T(v v*)`` is sampled
    for random unit vectors and the map is rejected on a negative eigenvalue
    beyond tolerance.  Only the sampling draws from ``rng``.
    """

    def __init__(self, k: int, m: int, choi, *, check_positivity: bool = True,
                 rng: np.random.Generator | None = None):
        C = hermitian_storage(k, m, choi, "choi storage")
        self.k = int(k)
        self.m = int(m)
        self.choi = C
        self._blocks = C.reshape(k, m, k, m)  # [i, p, j, q] = C[i][j][p, q]
        if check_positivity and not _storage_proves_positivity(C):
            self._sampled_positivity_check(rng)

    def _sampled_positivity_check(self, rng: np.random.Generator | None):
        rng = rng if rng is not None else np.random.default_rng(_CHECK_SEED)
        for _ in range(_POSITIVITY_TRIALS):
            v = random_unit_vector(self.k, rng)
            w = np.linalg.eigvalsh(hermitian_part(self.apply(np.outer(v, v.conj()))))
            floor = -_POSITIVITY_REL * max(1.0, float(w[-1]))
            if w[0] < floor:
                raise PositivityViolation(
                    f"map sent a rank-one projector to eigenvalue {w[0]:.3e}")

    @cached_property
    def _realigned(self) -> np.ndarray:
        """The realigned storage R, built on first use."""
        R = np.ascontiguousarray(self._blocks.transpose(2, 0, 1, 3))
        R = R.reshape(self.k * self.k, self.m * self.m)
        R.setflags(write=False)
        return R

    def apply(self, X) -> np.ndarray:
        """Evaluate T(X) = sum_ij X[j, i] * C[i][j]."""
        X = complex_operand(X)
        if X.shape != (self.k, self.k):
            raise ValueError(f"expected input shape {(self.k, self.k)}, got {X.shape}")
        return (X.reshape(-1) @ self._realigned).reshape(self.m, self.m)

    def apply_adjoint(self, Y) -> np.ndarray:
        """Evaluate the adjoint for <T(X), Y> = <X, T*(Y)> with <A, B> = tr(A B*)."""
        Y = complex_operand(Y)
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
        to induced maps.
        """
        P = as_complex_matrix(P)
        Q = as_complex_matrix(Q)
        if P.shape != (self.k, self.k) or Q.shape != (self.m, self.m):
            raise ValueError("conjugation filters have wrong shapes")
        W = kron(P.conj().T, Q)
        return ChoiMap(self.k, self.m, W @ self.choi @ W.conj().T,
                       check_positivity=False)

    def tilde_lift(self) -> "ChoiMap":
        """The square lift acting on ``M_m (x) M_k``.

        Sends a block matrix with m x m grid of k x k blocks ``B_ij`` to
        ``kron(T(sum_i B_ii), Id_k)``.  The lift is scalable to doubly
        stochastic exactly when the original map is.
        """
        k, m = self.k, self.m
        eye_m = np.eye(m)
        eye_k = np.eye(k)
        # [(i1,i2), (p1,p2), (j1,j2), (q1,q2)] =
        #     delta(i1,j1) * C[i2][j2][p1, q1] * delta(p2,q2)
        lifted = np.einsum("ae,bcfg,dh->abcdefgh", eye_m, self._blocks, eye_k)
        n = m * k
        return ChoiMap(n, n, lifted.reshape(n * n, n * n), check_positivity=False)


@dataclass(frozen=True)
class DsCheck:
    is_doubly_stochastic: bool
    forward_defect: float
    adjoint_defect: float

    def __bool__(self) -> bool:
        return self.is_doubly_stochastic


def is_doubly_stochastic(T: ChoiMap, eps: float) -> DsCheck:
    """T is doubly stochastic when T(Id/sqrt(k)) = Id/sqrt(m) and
    T*(Id/sqrt(m)) = Id/sqrt(k); both defects are measured in Frobenius norm."""
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
class BasisCounterexample:
    """A basis pair whose pattern matrix disproves (total) support."""

    trial: int
    canonical: bool
    basis_in: np.ndarray
    basis_out: np.ndarray
    witness: ZeroSubmatrixWitness
    failing_entry: tuple[int, int] | None


@dataclass(frozen=True)
class FalsifierReport:
    """Outcome of sampling basis pairs to attack (total) support.

    A counterexample is a proof of failure; its absence proves nothing, and
    ``support_inconclusive`` / ``total_support_inconclusive`` then stay True.
    """

    trials: int
    support_counterexample: BasisCounterexample | None
    total_support_counterexample: BasisCounterexample | None

    @property
    def support_falsified(self) -> bool:
        return self.support_counterexample is not None

    @property
    def total_support_falsified(self) -> bool:
        return self.total_support_counterexample is not None

    @property
    def support_inconclusive(self) -> bool:
        return not self.support_falsified

    @property
    def total_support_inconclusive(self) -> bool:
        return not self.total_support_falsified


def sampled_support_falsifier(T: ChoiMap, trials: int = 20,
                              rng: np.random.Generator | None = None,
                              include_canonical: bool = True) -> FalsifierReport:
    """Attack support and total support with sampled basis pairs.

    Trial 0 uses the canonical bases when ``include_canonical`` is set; the
    rest are Haar random.  Support of the induced map requires support of the
    pattern matrix in every orthonormal basis pair, so one failing pattern is
    a proof of failure.  One :func:`has_total_support` call per trial decides
    both: its result's ``support`` is the support verdict of the same flow.
    """
    rng = rng if rng is not None else np.random.default_rng(_CHECK_SEED)
    support_cex = None
    total_cex = None
    for trial in range(trials):
        canonical = include_canonical and trial == 0
        if canonical:
            V, W = np.eye(T.k, dtype=complex), np.eye(T.m, dtype=complex)
        else:
            V, W = haar_unitary(T.k, rng), haar_unitary(T.m, rng)
        tot: TotalSupportResult = has_total_support(pattern_matrix(T, V, W))
        if not tot.support and support_cex is None:
            support_cex = BasisCounterexample(
                trial=trial, canonical=canonical, basis_in=V, basis_out=W,
                witness=tot.witness, failing_entry=None)
        if not tot and total_cex is None:
            total_cex = BasisCounterexample(
                trial=trial, canonical=canonical, basis_in=V, basis_out=W,
                witness=tot.witness, failing_entry=tot.failing_entry)
        if support_cex is not None and total_cex is not None:
            break
    return FalsifierReport(trials=trials,
                           support_counterexample=support_cex,
                           total_support_counterexample=total_cex)


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
        ins = tuple(as_complex_matrix(P) for P in self.input_projectors)
        outs = tuple(as_complex_matrix(P) for P in self.output_projectors)
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


def invariance_defect(T: ChoiMap, cert: BlockCertificate,
                      samples: int = 20,
                      rng: np.random.Generator | None = None) -> float:
    """Worst defect of ``T(V_a M_k V_a) inside W_a M_m W_a``.

    Checks the compression ``(Id - W_a) T(V_a X V_a) (Id - W_a)`` for
    X = V_a (deterministic; enough for a positive map since the image of the
    projector dominates) and for sampled random Hermitian X.
    """
    rng = rng if rng is not None else np.random.default_rng(_CHECK_SEED)
    k, m = T.k, T.m
    worst = 0.0
    for Va, Wa in zip(cert.input_projectors, cert.output_projectors):
        comp = np.eye(m) - Wa
        worst = max(worst, frob(comp @ T.apply(Va) @ comp))
        for _ in range(samples):
            Z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            X = hermitian_part(Z)
            X = X / max(frob(X), 1e-300)
            worst = max(worst, frob(comp @ T.apply(Va @ X @ Va) @ comp))
    return worst


def certificate_admissibility(T: ChoiMap, cert: BlockCertificate, defect_tol: float = 1e-8,
                              samples: int = 20, rng: np.random.Generator | None = None):
    """The ``decomposition`` and ``invariance`` conditions of a certificate
    for T: structure defect at most ``1e-10 * max(k, m)``, and
    :func:`invariance_defect` at most ``defect_tol * max(1, ||storage||)``.
    Raises ValueError when the certificate's dimensions do not match T."""
    if cert.input_projectors[0].shape[0] != T.k or cert.output_projectors[0].shape[0] != T.m:
        raise ValueError("certificate dimensions do not match the map")
    sdef = cert.structure_defect()
    decomposition = CertificateCondition(
        passed=bool(sdef <= 1e-10 * max(T.k, T.m)), sampled=False,
        detail="projector families are orthogonal decompositions of both spaces",
        worst_defect=float(sdef))
    idef = invariance_defect(T, cert, samples=samples, rng=rng)
    invariance = CertificateCondition(
        passed=bool(idef <= defect_tol * max(1.0, frob(T.choi))), sampled=True,
        detail="each input block maps into the matching output block",
        worst_defect=float(idef))
    return decomposition, invariance


def verify_block_certificate(T: ChoiMap, cert: BlockCertificate,
                             defect_tol: float = 1e-8,
                             tol: Tolerances = DEFAULT_TOL,
                             samples: int = 20,
                             rng: np.random.Generator | None = None) -> CertificateReport:
    """Check a block certificate against a map, condition by condition.

    * decomposition and invariance: :func:`certificate_admissibility`;
    * strict rank increase: ``rank(X) * rank(W_a) < rank(T(X)) * rank(V_a)``
      for sampled PSD X of every intermediate rank inside a block (sampled,
      not a proof);
    * rank ratio: ``rank(W_a) / rank(V_a) = m / k`` exactly, on integer ranks.
    """
    rng = rng if rng is not None else np.random.default_rng(_CHECK_SEED)
    decomposition, invariance = certificate_admissibility(
        T, cert, defect_tol, samples, rng)
    k, m = T.k, T.m
    ratio_ok = True
    ranks = []
    for Va, Wa in zip(cert.input_projectors, cert.output_projectors):
        rv = rank_tol(Va, tol)
        rw = rank_tol(Wa, tol)
        ranks.append((rv, rw))
        if rv == 0 or k * rw != m * rv:
            ratio_ok = False
    rank_ratio = CertificateCondition(
        passed=ratio_ok, sampled=False,
        detail=f"block rank pairs {ranks} against output/input ratio {m}/{k}",
        worst_defect=None)

    def no_counterexample() -> bool:
        for Va, (rv, rw) in zip(cert.input_projectors, ranks):
            for r in range(1, rv):
                for _ in range(samples):
                    Z = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
                    root = Va @ Z
                    X = root @ root.conj().T
                    rx = rank_tol(X, tol)
                    if rx == 0 or rx >= rv:
                        continue
                    if not rx * rw < rank_tol(hermitian_part(T.apply(X)), tol) * rv:
                        return False
        return True

    strict = CertificateCondition(
        passed=decomposition.passed and no_counterexample(), sampled=decomposition.passed,
        detail="rank(X) * rank(W) < rank(T(X)) * rank(V) on sampled intermediate-rank PSD X"
        if decomposition.passed else "skipped: the blocks are not an orthogonal decomposition",
        worst_defect=None)

    return CertificateReport(decomposition=decomposition, invariance=invariance,
                             strict_rank_increase=strict, rank_ratio=rank_ratio)
