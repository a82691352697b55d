"""Dense complex linear algebra shared by every other module.

Kronecker products, partial traces and realignment go through these
helpers.  The layout of a map's block storage belongs to
:mod:`opscale.posmap`, which indexes that storage itself, as
:mod:`opscale.fixtures` does to build its maps.  Two conventions are fixed
here, once:

* Kronecker products are first-factor major: ``kron(A, B)`` places the block
  ``A[i, j] * B`` at block position ``(i, j)``.  A ``km x km`` matrix over a
  pair of factors of dimensions ``k`` and ``m`` is always indexed as
  ``M[(i, p), (j, q)] = M[i*m + p, j*m + q]`` with ``i, j`` ranging over the
  first factor.
* Rank and positive-definiteness cutoffs are relative to the largest
  eigenvalue magnitude, never absolute; each is written once, in
  :func:`spectral_rank`, :func:`below_pd_floor` and :func:`psd_storage`.
  Two cutoffs in :mod:`opscale.fnf` are neither: the Schmidt expansion drops
  coefficients at or below ``rank_rel * ||rho||_F``, and ``verify_fnf`` calls
  a filter singular when ``s_min <= 1e-10 * s_max`` of its singular values.

The one checked coercion, :func:`as_complex_matrix`, copies only what is not
already a C-ordered complex128 array.  :func:`frob` is numpy's sum of
squares, summed again from a scaled copy only where that sum overflows or
its root is below 1e-150, so the norm of a finite matrix is finite unless it
exceeds the double range itself, and nonzero unless the matrix is zero.
The per-step kernels skip that guard where their operands' squares cannot
overflow.
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
    # logical_and.reduce is what ndarray.all calls, without its Python wrapper.
    if not np.logical_and.reduce(np.isfinite(M), axis=None):
        raise ValueError("matrix contains non-finite entries")
    return M


def as_complex_matrix(data) -> np.ndarray:
    """Coerce to a 2-d C-ordered complex128 array, rejecting non-finite
    entries.  Copies only when ``data`` is not already one, so a caller that
    keeps or writes the result copies it itself."""
    return _finite_matrix(np.asarray(data, dtype=np.complex128, order="C"))


# Scalars of the per-step kernels as complex128: numpy turns a Python float
# into this same value on every call, at 0.4 us a call on a 4x4 operand.
_ONE = np.complex128(1.0)
_TWO = np.complex128(2.0)


def _hermitian_mean(M: np.ndarray, Mh: np.ndarray, out=None) -> np.ndarray:
    """(M + Mh) / 2 for ``Mh = M*``, written to ``out`` when it is given."""
    out = np.add(M, Mh, out=out)
    out /= _TWO
    return out


def hermitian_part(M) -> np.ndarray:
    """(M + M*) / 2.  Every stored Hermitian matrix is symmetrized this way."""
    M = np.asarray(M, dtype=np.complex128)
    return _hermitian_mean(M, M.conj().T)


def frob(M) -> float:
    """Frobenius norm, with the bits of ``np.linalg.norm(M)`` wherever that
    is finite and at least 1e-150; it does not overflow below the double
    range, and does not underflow to 0 on a nonzero matrix."""
    x = np.asarray(M)
    if x.dtype.kind not in "fc":
        x = x.astype(np.float64)
    return _guarded_frob(x.ravel(order="K"))


def _complex_frob(x: np.ndarray) -> float:
    """numpy's sum-of-squares norm of a flat array, for the per-step kernels
    whose operands' squares cannot overflow: :func:`_guarded_frob`'s
    ``np.errstate`` would cost a tenth of a small scaling step."""
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _guarded_frob(x: np.ndarray) -> float:
    """:func:`frob` of a flat real or complex array: the plain sum of
    squares, or, where that overflows or is below 1e-150, ``s * ||x / s||_F``
    for the largest magnitude s, whose quotient's sum neither overflows nor
    loses its largest squares.  Above 1e-150 the squares that underflow move
    the sum by less than ``len(x) * 5e-324``, below its rounding."""
    with np.errstate(over="ignore"):
        norm = _complex_frob(x)
    # A NaN norm is returned as it is.
    if not (norm < 1e-150 or norm == math.inf):
        return norm
    # A zero array, as the defect of a Hermitian storage is, skips the scan.
    if norm == 0.0 and not x.any():
        return 0.0
    s = float(max(np.abs(x.real).max(), np.abs(x.imag).max()))
    # numpy divides a complex array by s through 1 / s, which overflows for
    # a subnormal s; the parts of the flat array then divide as reals.
    if s < 1e-300 and x.dtype.kind == "c":
        x = x.view(np.float64)
    return s if s == math.inf else s * _complex_frob(x / s)


def hermitian_storage(k, m, data, what: str) -> np.ndarray:
    """The read-only, symmetrized copy of ``data`` as the Hermitian storage
    of a ``k x m`` pair, called ``what`` in the error messages.  Refuses
    with ValueError dimensions that are not integers of at least 1, a shape
    other than ``km x km``, an entry larger in magnitude than
    ``finfo(float64).max / (2km)``, and a Hermiticity defect ``||C - C*||_F``
    above 1e-8 of the norm ``||C||_F``.  The entry bound keeps finite the
    largest sums that construction takes: the symmetrized mean, the trace
    of :mod:`opscale.posmap`'s Cholesky proofs, and the searched images
    ``T(v v*)``, whose entries are at most ``k max|C|`` for a unit v.
    Rounding a Hermitian matrix's entries leaves a defect of a few eps times
    ``||C||_F``, far below the limit, and :func:`frob` neither overflows
    nor underflows, so ``c * C`` gets C's verdict for every c > 0 that keeps
    the entries of ``c * C`` normal doubles, above about 2.2e-308 in
    magnitude, and within the entry bound."""
    if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool)
               for d in (k, m)):
        raise ValueError(f"dimensions must be integers, got k={k!r}, m={m!r}")
    if k < 1 or m < 1:
        raise ValueError(f"dimensions must be positive, got k={k}, m={m}")
    C = as_complex_matrix(data)
    n = int(k) * int(m)
    if C.shape != (n, n):
        raise ValueError(f"{what} must be {(n, n)}, got {C.shape}")
    # The norm bounds every entry, so only a storage near the bound pays
    # for a pass over the magnitudes.
    norm = frob(C)
    bound = np.finfo(np.float64).max / (2 * n)
    if norm > bound:
        with np.errstate(over="ignore"):
            largest = float(np.abs(C).max())
        if largest > bound:
            raise ValueError(f"{what} has an entry of magnitude {largest:.3e}, "
                             f"above the bound {bound:.3e} = max double / (2km)")
    # One conjugate transpose, laid out as C is, serves the defect and the
    # symmetrized copy, which is written into it.
    H = np.conjugate(C.T, order="C")
    defect = _guarded_frob((C - H).reshape(-1))
    if defect > 1e-8 * norm:
        raise ValueError(f"{what} is not Hermitian: defect {defect:.3e}")
    H = _hermitian_mean(C, H, out=H)
    H.setflags(write=False)
    return H


def psd_storage(k, m, data, what: str) -> tuple[np.ndarray, np.ndarray]:
    """:func:`hermitian_storage` of a positive semidefinite matrix, with its
    ascending spectrum.  Refuses with ValueError an eigenvalue below -1e-9
    of the largest, the one PSD floor of a state."""
    C = hermitian_storage(k, m, data, what)
    w = np.linalg.eigvalsh(C)
    if w[0] < -1e-9 * max(float(w[-1]), 0.0):
        raise ValueError(f"{what} is not PSD: eigenvalue {w[0]:.3e}")
    return C, w


def identity_defect(M: np.ndarray) -> float:
    """``frob(M - Id)`` for a C-contiguous complex128 square matrix, with
    ``M - Id`` written into M itself.  Its callers are the scaling update's,
    which refuses an overflow of this sum of squares as it does any other."""
    x = M.reshape(-1)
    x[::M.shape[0] + 1] -= _ONE
    return _complex_frob(x)


def _require_square(M, what="matrix") -> np.ndarray:
    M = np.asarray(M, dtype=np.complex128)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{what} must be square, got shape {M.shape}")
    return M


def herm_eig(H) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, decomposed as given.

    Returns ``(w, V)`` with eigenvalues ``w`` real and descending and ``V``
    unitary such that ``H = V diag(w) V*``.  Raises NumericalFailure when the
    solver does not converge or the reconstruction residual is out of
    contract.  The solver reads one triangle of H, so the residual measures
    H's anti-Hermitian part too: an H that is not Hermitian within the
    contract is refused.  The code that forms H symmetrizes it, once:
    :func:`rank_tol` for the matrices it is handed, the scaling step with
    :func:`hermitian_part` for its marginals.
    """
    H = _require_square(H, "herm_eig input")
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
    # The products of herm_eig and pd_inv_sqrt are ndarray.dot, which gives
    # the bits of @ a microsecond sooner.  Before numpy 2, dot reports no
    # floating-point error, so the scaling step's filter products, which can
    # overflow, stay @.  These cannot, short of |H| near the double range:
    # an entry of (V w) V* is at most max|w|, and the floor below bounds
    # those of pd_inv_sqrt's S and Q by dim * bottom**-0.5, at any relaxation
    # in [1, 2), and of S H Q by dim**2 / pd_min.
    R = (V * w).dot(V.conj().T)
    R -= H
    # Below 1e140, the largest eigenvalue magnitude bounds the entries of H
    # and of R so that no sum of their squares overflows.
    norm = _complex_frob if -1e140 < w[-1] and w[0] < 1e140 else _guarded_frob
    residual = norm(R.ravel(order="K"))
    limit = dim * max(norm(H.ravel(order="K")), 1e-300) * _EIG_RECON_REL
    if not residual <= limit:
        raise NumericalFailure(
            f"eigendecomposition residual {residual:.3e} exceeds contract {limit:.3e}",
            residual=residual)
    return w, V


def pd_inv_sqrt(H, tol: Tolerances = DEFAULT_TOL, what: str = "matrix",
                relaxation: float = 1.0) -> tuple[np.ndarray, float, float]:
    """Inverse square root of a positive definite Hermitian matrix.

    Returns ``(S, logsum, residual)`` with ``S = H^(-1/2)``, ``logsum`` the
    sum of the logs of the eigenvalues of H, i.e. ``log det H``, and
    ``residual`` the Frobenius norm of ``S H S - I``.  Positive
    definiteness is decided relative to the top eigenvalue: the smallest
    eigenvalue must exceed ``tol.pd_min`` times the largest; eigenvalues are
    never clamped.  The residual ``S H S - I`` grows like machine epsilon
    times the condition number of H, so its contract scales with that number
    and the floor alone decides which matrices are accepted.  ``what`` names
    H in the error messages.  H must be Hermitian, as the scaling step's
    marginals are: :func:`herm_eig` refuses one that is not.

    A ``relaxation`` w other than 1 gives, from the same eigendecomposition,
    the overrelaxed root ``S = c H^(-w/2)``, with the scalar c that keeps
    ``tr(S H S) = dim`` as at w = 1.  ``logsum`` is then ``-2 log det S``,
    which is ``log det H`` at w = 1, and ``residual`` that of ``S H Q = I``
    for ``Q = H^(w/2 - 1) / c``, which is ``S H S - I`` at w = 1.  For w in
    (0, 2) its rounding error is bounded as at w = 1, by epsilon times the
    condition number of H, and it is held to the same contract.
    """
    H = np.asarray(H, dtype=np.complex128)
    w, V = herm_eig(H)
    top, bottom = float(w[0]), float(w[-1])
    if below_pd_floor(bottom, top, tol):
        raise NotPositiveDefinite(
            f"{what} not positive definite: eigenvalue {bottom:.6e} "
            f"vs largest {top:.6e} (floor {tol.pd_min:g} relative)",
            min_eigenvalue=bottom, max_eigenvalue=top)
    dim = H.shape[0]
    logsum = float(np.add.reduce(np.log(w)))
    if relaxation == 1.0:
        S = Q = hermitian_part((V * np.power(w, -0.5)).dot(V.conj().T))
    else:
        c2 = dim / float(np.add.reduce(np.power(w, 1.0 - relaxation)))
        c = math.sqrt(c2)
        Vh = V.conj().T
        S = hermitian_part((V * (c * np.power(w, -0.5 * relaxation))).dot(Vh))
        Q = (V * (np.power(w, 0.5 * relaxation - 1.0) / c)).dot(Vh)
        logsum = relaxation * logsum - dim * math.log(c2)
    residual = identity_defect(S.dot(H).dot(Q))
    limit = dim * _INV_SQRT_RECON_REL * (top / bottom)
    if not residual <= limit:
        raise NumericalFailure(
            f"{what} inverse square root residual {residual:.3e} exceeds "
            f"contract {limit:.3e}", residual=residual)
    return S, logsum, residual


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
    if not residual <= limit:
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
    """Rank of the Hermitian part of a square matrix by :func:`spectral_rank`.
    It symmetrizes H before :func:`herm_eig` decomposes it, so a caller's
    projector or image need not be Hermitian to the last bit.  A matrix with
    a non-finite entry is refused with ValueError."""
    H = hermitian_part(as_complex_matrix(_require_square(H, "herm_eig input")))
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
