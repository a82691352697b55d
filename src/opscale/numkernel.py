"""Dense complex linear algebra shared by every other module.

Two conventions are fixed here, once, and everything else in the package is
required to go through these helpers instead of hand-rolling index math:

* Kronecker products are first-factor major: ``kron(A, B)`` places the block
  ``A[i, j] * B`` at block position ``(i, j)``.  A ``km x km`` matrix over a
  pair of factors of dimensions ``k`` and ``m`` is always indexed as
  ``M[(i, p), (j, q)] = M[i*m + p, j*m + q]`` with ``i, j`` ranging over the
  first factor.
* Rank and positive-definiteness cutoffs are relative to the largest
  eigenvalue magnitude, never absolute; each is written once, in
  :func:`spectral_rank`, :func:`below_pd_floor` and :func:`psd_storage`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NumericalFailure(RuntimeError):
    """A dense solver failed to meet its reconstruction contract."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NotPositiveDefinite(ValueError):
    """A matrix required to be positive definite is not, at tolerance."""

    def __init__(self, message: str, min_eigenvalue: float | None = None,
                 max_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue
        self.max_eigenvalue = max_eigenvalue


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the package.

    rank_rel: singular/eigenvalue cutoff for rank decisions, relative to the
        largest magnitude.
    pd_min: a Hermitian matrix counts as positive definite when its smallest
        eigenvalue exceeds ``pd_min`` times its largest.
    conv_eps: convergence threshold for iterative marginal residuals.
    """

    rank_rel: float = 1e-9
    pd_min: float = 1e-10
    conv_eps: float = 1e-10

    def __post_init__(self):
        for name in ("rank_rel", "pd_min", "conv_eps"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


DEFAULT_TOL = Tolerances()

# Reconstruction contracts, relative to dim * frobenius norm (eigendecomposition
# and SVD) or to dim * condition number (inverse square root).
_EIG_RECON_REL = 1e-12
_INV_SQRT_RECON_REL = 1e-10


def _finite_matrix(M: np.ndarray) -> np.ndarray:
    if M.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {M.shape}")
    if M.size and not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite entries")
    return M


def as_complex_matrix(data) -> np.ndarray:
    """Coerce to a fresh 2-d complex128 array, rejecting non-finite entries."""
    return _finite_matrix(np.array(data, dtype=np.complex128, order="C"))


def complex_operand(data) -> np.ndarray:
    """The checks of :func:`as_complex_matrix` for an operand that is only
    read: a complex128 array comes back as itself, not copied."""
    return _finite_matrix(np.asarray(data, dtype=np.complex128))


def hermitian_part(M) -> np.ndarray:
    """(M + M*) / 2.  Every stored Hermitian matrix is symmetrized this way."""
    M = np.asarray(M, dtype=np.complex128)
    return (M + M.conj().T) / 2.0


def frob(M) -> float:
    """Frobenius norm by ``np.linalg.norm``'s own formula, ``sqrt(re.re + im.im)``
    over the flattened array, so the result is bit-identical to it on double,
    complex double and integer input, without its dispatch."""
    x = np.asarray(M)
    if x.dtype.kind == "c":
        x = x.astype(np.complex128, copy=False).ravel(order="K")
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    x = x.astype(np.float64, copy=False).ravel(order="K")
    return math.sqrt(x.dot(x))


def hermitian_storage(k, m, data, what: str) -> np.ndarray:
    """The read-only, symmetrized copy of ``data`` as the Hermitian storage
    of a ``k x m`` pair, called ``what`` in the error messages.  Refuses
    with ValueError dimensions that are not integers of at least 1, a shape
    other than ``km x km``, and a Hermiticity defect above 1e-8 of the norm."""
    if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool)
               for d in (k, m)):
        raise ValueError(f"dimensions must be integers, got k={k!r}, m={m!r}")
    if k < 1 or m < 1:
        raise ValueError(f"dimensions must be positive, got k={k}, m={m}")
    C = as_complex_matrix(data)
    n = int(k) * int(m)
    if C.shape != (n, n):
        raise ValueError(f"{what} must be {(n, n)}, got {C.shape}")
    defect = frob(C - C.conj().T)
    if defect > 1e-8 * max(1.0, frob(C)):
        raise ValueError(f"{what} is not Hermitian: defect {defect:.3e}")
    C = hermitian_part(C)
    C.setflags(write=False)
    return C


def psd_storage(k, m, data, what: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hermitian_storage` of a positive semidefinite matrix, with its
    ascending spectrum.  Refuses with ValueError an eigenvalue below -1e-9
    of the largest, the one PSD floor of a state."""
    C = hermitian_storage(k, m, data, what)
    w = np.linalg.eigvalsh(C)
    if w[0] < -1e-9 * max(float(w[-1]), 1e-300):
        raise ValueError(f"{what} is not PSD: eigenvalue {w[0]:.3e}")
    return C, w


def subtract_identity(M: np.ndarray) -> np.ndarray:
    """``M - Id`` for a square matrix, written into M itself."""
    M.reshape(-1)[::M.shape[0] + 1] -= 1.0
    return M


def _require_square(M, what="matrix") -> np.ndarray:
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be square, got shape {M.shape}")
    return M


def herm_eig(H) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, V)`` with eigenvalues ``w`` real and descending and ``V``
    unitary such that ``H = V diag(w) V*``.  Raises NumericalFailure when the
    solver does not converge or the reconstruction residual is out of
    contract.
    """
    H = hermitian_part(_require_square(H, "herm_eig input"))
    dim = H.shape[0]
    if dim == 0:
        raise ValueError("herm_eig of an empty matrix")
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigen-solver did not converge: {exc}") from exc
    # The eigenvalues are copied out of the reversed view: on some inputs
    # numpy's power and log round differently on a strided array than on a
    # contiguous one, and pd_inv_sqrt applies both to w.
    w = w[::-1].copy()
    V = V[:, ::-1]
    R = (V * w) @ V.conj().T
    R -= H
    residual = frob(R)
    limit = dim * max(frob(H), 1e-300) * _EIG_RECON_REL
    if residual > limit:
        raise NumericalFailure(
            f"eigendecomposition residual {residual:.3e} exceeds contract {limit:.3e}",
            residual=residual)
    return w, V


def pd_inv_sqrt(H, tol: Tolerances = DEFAULT_TOL,
                what: str = "matrix") -> tuple[np.ndarray, float, float]:
    """Inverse square root of a positive definite Hermitian matrix.

    Returns ``(S, logsum, residual)`` with ``S = H^(-1/2)``, ``logsum`` the
    sum of the logs of the eigenvalues of H, i.e. ``log det H``, and
    ``residual`` the Frobenius norm of ``S H S - I``.  Positive
    definiteness is decided relative to the top eigenvalue: the smallest
    eigenvalue must exceed ``tol.pd_min`` times the largest; eigenvalues are
    never clamped.  The residual ``S H S - I`` grows like machine epsilon
    times the condition number of H, so its contract scales with that number
    and the floor alone decides which matrices are accepted.  ``what`` names
    H in the error messages.  The residual takes H as given, without a
    second symmetrization, so H must be Hermitian, as every caller's is: an
    anti-Hermitian part would show in the residual.
    """
    H = np.asarray(H, dtype=np.complex128)
    w, V = herm_eig(H)
    top, bottom = float(w[0]), float(w[-1])
    if below_pd_floor(bottom, top, tol):
        raise NotPositiveDefinite(
            f"{what} not positive definite: eigenvalue {bottom:.6e} "
            f"vs largest {top:.6e} (floor {tol.pd_min:g} relative)",
            min_eigenvalue=bottom, max_eigenvalue=top)
    S = hermitian_part((V * w ** -0.5) @ V.conj().T)
    residual = frob(subtract_identity(S @ H @ S))
    limit = H.shape[0] * _INV_SQRT_RECON_REL * (top / bottom)
    if residual > limit:
        raise NumericalFailure(
            f"{what} inverse square root residual {residual:.3e} exceeds "
            f"contract {limit:.3e}", residual=residual)
    return S, float(np.log(w).sum()), residual


def svd(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``M = U diag(s) V*`` with U, V unitary and s descending."""
    M = as_complex_matrix(M)
    try:
        U, s, Vh = np.linalg.svd(M, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    V = Vh.conj().T
    r = len(s)
    residual = frob(U[:, :r] @ np.diag(s) @ V[:, :r].conj().T - M)
    limit = max(M.shape) * max(frob(M), 1e-300) * _EIG_RECON_REL
    if residual > limit:
        raise NumericalFailure(
            f"SVD residual {residual:.3e} exceeds contract {limit:.3e}",
            residual=residual)
    return U, s, V


def kron(A, B) -> np.ndarray:
    """First-factor-major Kronecker product.

    ``kron(A, B)[i*rB + p, j*cB + q] == A[i, j] * B[p, q]``.
    """
    return np.kron(np.asarray(A, dtype=np.complex128),
                   np.asarray(B, dtype=np.complex128))


def _split_blocks(M, k: int, m: int) -> np.ndarray:
    M = _require_square(M)
    if M.shape[0] != k * m:
        raise ValueError(f"matrix of shape {M.shape} does not factor as ({k}, {m})")
    return M.reshape(k, m, k, m)


def partial_trace_first(M, k: int, m: int) -> np.ndarray:
    """Trace out the first (dimension-k) factor; result is m x m."""
    return np.einsum("ipiq->pq", _split_blocks(M, k, m))


def partial_trace_second(M, k: int, m: int) -> np.ndarray:
    """Trace out the second (dimension-m) factor; result is k x k."""
    return np.einsum("ipjp->ij", _split_blocks(M, k, m))


def below_pd_floor(smallest, largest, tol: Tolerances = DEFAULT_TOL) -> bool:
    """The one positive-definiteness floor: whether a Hermitian matrix with
    these extreme eigenvalues is refused, its largest not positive or its
    smallest at most ``tol.pd_min`` times the largest."""
    return bool(largest <= 0.0 or smallest <= tol.pd_min * largest)


def spectral_rank(w, tol: Tolerances = DEFAULT_TOL) -> int:
    """Count of the eigenvalues ``w`` above ``rank_rel`` of the largest magnitude."""
    mags = np.abs(w)
    return int(np.count_nonzero(mags > tol.rank_rel * mags.max(initial=0.0)))


def rank_tol(H, tol: Tolerances = DEFAULT_TOL) -> int:
    """Rank of a Hermitian matrix by :func:`spectral_rank`."""
    return spectral_rank(herm_eig(H)[0], tol)


def kernel_dim(H, tol: Tolerances = DEFAULT_TOL) -> int:
    H = _require_square(H)
    return H.shape[0] - rank_tol(H, tol)


def realign(M, k: int, m: int) -> np.ndarray:
    """Reshuffle a ``km x km`` matrix into the ``k^2 x m^2`` realignment.

    ``realign(M)[(i, p), (j, q)] = M[(i, j), (p, q)]``, so that
    ``realign(kron(A, B))`` is the rank-one outer product of the row-major
    vectorizations of A and B.  The map is a bijective re-indexing; see
    :func:`unrealign` for the exact inverse.
    """
    return _split_blocks(M, k, m).transpose(0, 2, 1, 3).reshape(k * k, m * m)


def unrealign(R, k: int, m: int) -> np.ndarray:
    """Exact inverse of :func:`realign`."""
    R = np.asarray(R, dtype=np.complex128)
    if R.shape != (k * k, m * m):
        raise ValueError(f"expected shape {(k * k, m * m)}, got {R.shape}")
    return R.reshape(k, k, m, m).transpose(0, 2, 1, 3).reshape(k * m, k * m)
