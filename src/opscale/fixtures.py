"""Canonical maps and states used by the test suite and the CLI selftest."""

from __future__ import annotations

import math

import numpy as np

from .numkernel import as_complex_matrix, hermitian_part, kron
from .posmap import BlockCertificate, ChoiMap, haar_unitary


def sandwich_map(S) -> ChoiMap:
    """The conjugation ``X -> S X S*`` for a square matrix S."""
    S = as_complex_matrix(S)
    d = S.shape[0]
    blocks = np.einsum("pj,qi->ipjq", S, S.conj())
    return ChoiMap(d, d, blocks.reshape(d * d, d * d), check_positivity=False)


def boundary_map() -> ChoiMap:
    """Conjugation by [[0, 1], [1, 1]]: its canonical pattern has support but
    not total support, so the scaling converges without a total-support
    guarantee."""
    return sandwich_map(np.array([[0.0, 1.0], [1.0, 1.0]]))


def identity_map(k: int) -> ChoiMap:
    return sandwich_map(np.eye(k))


def trace_ds_map(k: int, m: int) -> ChoiMap:
    """``X -> tr(X) Id / sqrt(k*m)``, doubly stochastic for every shape."""
    n = k * m
    return ChoiMap(k, m, np.eye(n, dtype=complex) / math.sqrt(n),
                   check_positivity=False)


def no_support_map() -> ChoiMap:
    """A 3 x 3 map with positive definite T(Id) and T*(Id) but no support.

    ``T(X) = tr(X P) E00 + tr(X E22) (E11 + E22)`` with ``P = E00 + E11``:
    the rank-two projector P maps to a rank-one image, which rules out a
    positive diagonal in every basis pair and makes the scaling diverge.
    """
    blocks = np.zeros((3, 3, 3, 3), dtype=complex)
    out_a = np.zeros((3, 3)); out_a[0, 0] = 1.0
    out_b = np.zeros((3, 3)); out_b[1, 1] = 1.0; out_b[2, 2] = 1.0
    blocks[0, :, 0, :] = out_a
    blocks[1, :, 1, :] = out_a
    blocks[2, :, 2, :] = out_b
    return ChoiMap(3, 3, blocks.reshape(9, 9), check_positivity=False)


def random_cp_map(k: int, m: int, rng: np.random.Generator,
                  rank: int | None = None) -> ChoiMap:
    """Random map with PSD block storage (hence positive) and, at full
    storage rank, positive definite marginals.

    Despite the name, T need not be completely positive.  Block (i, j) of
    the storage is T(E_ji), so the storage is the Choi matrix of
    X -> T(transpose(X)): that map is completely positive, and T itself
    need not be.  At rank 1 the Choi matrix of T usually has a negative
    eigenvalue.
    """
    n = k * m
    r = n if rank is None else rank
    G = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    rho = G @ G.conj().T
    return ChoiMap(k, m, rho / np.trace(rho).real * math.sqrt(n),
                   check_positivity=False)


def random_state_matrix(k: int, m: int, rng: np.random.Generator,
                        kernel_dim: int = 0) -> np.ndarray:
    """Unit-trace PSD matrix on the k x m pair with a kernel of exactly the
    requested dimension (Haar-rotated spectrum)."""
    n = k * m
    if not 0 <= kernel_dim < n:
        raise ValueError(f"kernel_dim must lie in [0, {n}), got {kernel_dim}")
    spectrum = np.concatenate([rng.uniform(0.5, 1.5, size=n - kernel_dim),
                               np.zeros(kernel_dim)])
    U = haar_unitary(n, rng)
    rho = hermitian_part(U @ np.diag(spectrum).astype(complex) @ U.conj().T)
    return rho / np.trace(rho).real


def max_entangled_state(d: int) -> np.ndarray:
    """Projector onto ``sum_i e_i (x) e_i / sqrt(d)``, normalized."""
    v = np.zeros(d * d, dtype=complex)
    for i in range(d):
        v[i * d + i] = 1.0
    v /= math.sqrt(d)
    return np.outer(v, v.conj())


def maximally_mixed_state(k: int, m: int) -> np.ndarray:
    n = k * m
    return np.eye(n, dtype=complex) / n


def product_state(k: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """kron of two random positive definite unit-trace factors."""
    def factor(d):
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        F = G @ G.conj().T + 0.1 * np.eye(d)
        return F / np.trace(F).real
    return kron(factor(k), factor(m))


def direct_sum_map(parts: list[ChoiMap]) -> tuple[ChoiMap, BlockCertificate]:
    """Block-diagonal direct sum of maps, with its block certificate.

    The summands act independently on orthogonal blocks of the input and
    output spaces; the returned projectors witness exactly that structure.
    """
    k = sum(T.k for T in parts)
    m = sum(T.m for T in parts)
    blocks = np.zeros((k, m, k, m), dtype=complex)
    ins, outs = [], []
    k_off = m_off = 0
    for T in parts:
        part_blocks = T.choi.reshape(T.k, T.m, T.k, T.m)
        blocks[k_off:k_off + T.k, m_off:m_off + T.m,
               k_off:k_off + T.k, m_off:m_off + T.m] = part_blocks
        Pv = np.zeros((k, k), dtype=complex)
        Pv[k_off:k_off + T.k, k_off:k_off + T.k] = np.eye(T.k)
        Pw = np.zeros((m, m), dtype=complex)
        Pw[m_off:m_off + T.m, m_off:m_off + T.m] = np.eye(T.m)
        ins.append(Pv)
        outs.append(Pw)
        k_off += T.k
        m_off += T.m
    lifted = ChoiMap(k, m, blocks.reshape(k * m, k * m), check_positivity=False)
    return lifted, BlockCertificate(tuple(ins), tuple(outs))
