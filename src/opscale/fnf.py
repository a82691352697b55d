"""Filter normal form of bipartite states.

A state rho on ``C^k (x) C^m`` with invertible filters L (k x k) and R
(m x m) is in filter normal form when

    (L (x) R) rho (L (x) R)* = sum_i c_i kron(C_i, D_i)

with ``C_1 = Id/sqrt(k)``, ``D_1 = Id/sqrt(m)`` and both factor families
trace-orthonormal.  Equivalently, the filtered state has both reduced states
maximally mixed.  The filters come from scaling the induced map of rho to a
doubly stochastic one; the factor expansion is an operator Schmidt
decomposition computed through realignment.

A state's storage passes :func:`opscale.numkernel.psd_storage`, as does
:func:`opscale.posmap.from_state`'s.  The state keeps the spectrum of rho and
of both reduced states, each computed once on construction: the
preconditions and the kernel-dimension conditions read them and run no
eigen-solver.  The preconditions use numkernel's one positive-definiteness
floor, and the kernel conditions matcomb's count bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import scaling
from .matcomb import count_bounds
from .numkernel import (DEFAULT_TOL, NumericalFailure, Tolerances,
                        below_pd_floor, frob, hermitian_part, kron,
                        partial_trace_first, partial_trace_second, psd_storage,
                        realign, spectral_rank, svd)
from .posmap import ChoiMap


@dataclass(frozen=True)
class BipartiteState:
    """A PSD matrix on a k x m tensor pair, normalized to unit trace, with the
    ascending spectra of it and of both reduced states, computed once."""

    k: int
    m: int
    rho: np.ndarray
    _spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    _reduced_spectra: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rho, w = psd_storage(self.k, self.m, self.rho, "state")
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "m", int(self.m))
        tr = float(np.trace(rho).real)
        if tr <= 0.0:
            raise ValueError("state has nonpositive trace")
        rho = rho / tr
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "_spectrum", w / tr)
        object.__setattr__(self, "_reduced_spectra", tuple(
            np.linalg.eigvalsh(hermitian_part(M))
            for M in (self.reduced_first(), self.reduced_second())))

    def reduced_second(self) -> np.ndarray:
        """Reduced state on the second (m-dimensional) factor."""
        return partial_trace_first(self.rho, self.k, self.m)

    def reduced_first(self) -> np.ndarray:
        """Reduced state on the first (k-dimensional) factor."""
        return partial_trace_second(self.rho, self.k, self.m)


def _induced_map(state: BipartiteState) -> ChoiMap:
    """The map induced by ``state``, whose storage is ``state.rho`` itself."""
    # The state's own PSD check proves the map positive.
    return ChoiMap(state.k, state.m, state.rho, check_positivity=False)


class FnfPreconditionFailed(ValueError):
    """A reduced state is not positive definite, so no filters exist."""


class ScalingInconclusive(RuntimeError):
    """Scaling did not converge; carries the full scaling report."""

    def __init__(self, report: scaling.ScalingReport):
        super().__init__(f"scaling ended with verdict {report.verdict!r}")
        self.report = report


@dataclass(frozen=True)
class MarginalCheck:
    is_pd: bool
    min_eigenvalue: float
    max_eigenvalue: float


@dataclass(frozen=True)
class PreconditionReport:
    first_factor: MarginalCheck
    second_factor: MarginalCheck

    @property
    def ok(self) -> bool:
        return self.first_factor.is_pd and self.second_factor.is_pd


def check_preconditions(state: BipartiteState,
                        tol: Tolerances = DEFAULT_TOL) -> PreconditionReport:
    """Both reduced states must be positive definite for filters to exist."""
    first, second = (MarginalCheck(
        is_pd=not below_pd_floor(w[0], w[-1], tol),
        min_eigenvalue=float(w[0]), max_eigenvalue=float(w[-1]))
        for w in state._reduced_spectra)
    return PreconditionReport(first_factor=first, second_factor=second)


@dataclass(frozen=True)
class SufficientReport:
    """Which sufficient conditions for a filter normal form hold.

    The kernel conditions are deterministic; the coprime branch reports the
    numerical support verdict of the induced map's scaling when requested.
    """

    kernel_dim: int
    marginals_pd: bool
    # matcomb.count_bounds of the kernel dimension, in order, with
    # marginals_pd as the ratio bound's line condition.
    rect_kernel: bool
    square_kernel: bool
    ratio_kernel: bool
    coprime: bool
    coprime_scaling_verdict: str | None

    @property
    def guaranteed(self) -> bool:
        return (self.rect_kernel or self.square_kernel or self.ratio_kernel
                or (self.coprime and self.coprime_scaling_verdict == scaling.VERDICT_CONVERGED))


def sufficient_conditions(state: BipartiteState, tol: Tolerances = DEFAULT_TOL,
                          run_coprime_scaling: bool = True,
                          max_iter: int = scaling.DEFAULT_MAX_ITER) -> SufficientReport:
    """Evaluate the kernel-dimension conditions and the coprime branch.

    A small kernel forces a filter normal form to exist: dimension below
    min(k, m) for rectangular shapes, below k - 1 for square ones, or below
    max(k, m)/min(k, m) when both reduced states are positive definite.  For
    coprime k, m existence is equivalent to the induced map having support,
    which is probed by a scaling run that raises only NumericalFailure.
    """
    k, m = state.k, state.m
    ker = k * m - spectral_rank(state._spectrum, tol)
    pre = check_preconditions(state, tol)
    coprime = math.gcd(k, m) == 1
    verdict = None
    if coprime and run_coprime_scaling and pre.ok:
        verdict = scaling.run(_induced_map(state), tol, max_iter=max_iter,
                              keep_history=False).verdict
    grants = (c.grants for c in count_bounds(k, m, ker, pre.ok))
    return SufficientReport(ker, pre.ok, *grants, coprime, verdict)


@dataclass(frozen=True)
class SchmidtTerm:
    """One term ``coeff * kron(first, second)`` of the factor expansion."""

    coeff: float
    first: np.ndarray
    second: np.ndarray


@dataclass(frozen=True)
class FnfResult:
    """Filters, filtered state and its operator Schmidt expansion.

    Invariants: ``schmidt[0]`` is exactly ``(1/sqrt(k*m), Id/sqrt(k),
    Id/sqrt(m))``; coefficients are nonnegative and non-increasing from the
    second term on; both factor families are trace-orthonormal; the expansion
    reconstructs ``state_fnf``; and both reduced states of ``state_fnf`` are
    maximally mixed.
    """

    filter_first: np.ndarray
    filter_second: np.ndarray
    state_fnf: BipartiteState
    schmidt: tuple[SchmidtTerm, ...]
    scaling_report: scaling.ScalingReport


def _schmidt_expansion(state_mat: np.ndarray, k: int, m: int,
                       tol: Tolerances) -> tuple[SchmidtTerm, ...]:
    """Leading identity term plus the realignment SVD of the remainder.

    Both reduced states of ``state_mat`` are maximally mixed, so the
    remainder after removing the identity component has traceless factors on
    both sides; orthonormality against the leading pair is automatic.
    """
    lead = SchmidtTerm(coeff=1.0 / math.sqrt(k * m),
                       first=np.eye(k, dtype=complex) / math.sqrt(k),
                       second=np.eye(m, dtype=complex) / math.sqrt(m))
    rest = state_mat - np.eye(k * m, dtype=complex) / (k * m)
    U, s, V = svd(realign(rest, k, m))
    cutoff = tol.rank_rel * max(frob(state_mat), 1e-300)
    terms = [lead]
    for idx in range(len(s)):
        if s[idx] <= cutoff:
            break
        terms.append(SchmidtTerm(
            coeff=float(s[idx]),
            first=U[:, idx].reshape(k, k),
            second=V[:, idx].conj().reshape(m, m)))
    return tuple(terms)


def compute_fnf(state: BipartiteState, tol: Tolerances = DEFAULT_TOL,
                max_iter: int = scaling.DEFAULT_MAX_ITER,
                divergence_logdet: float | None = None) -> FnfResult:
    """Compute the filter normal form by scaling the induced map.

    Raises FnfPreconditionFailed when a reduced state is singular,
    ScalingInconclusive (carrying the scaling report) when the scaling does
    not converge, and NumericalFailure when its update or the filtered
    state's checks refuse; no partial result is produced in any case.
    """
    k, m = state.k, state.m
    pre = check_preconditions(state, tol)
    if not pre.ok:
        raise FnfPreconditionFailed(
            "a reduced state is not positive definite: "
            f"first factor min eigenvalue {pre.first_factor.min_eigenvalue:.3e}, "
            f"second factor min eigenvalue {pre.second_factor.min_eigenvalue:.3e}")

    report = scaling.run(_induced_map(state), tol, max_iter=max_iter,
                         divergence_logdet=divergence_logdet)
    if not report.converged:
        raise ScalingInconclusive(report)

    # The scaled map X -> out T(in X in*) out* is induced by the state
    # filtered with (in* (x) out), so its storage is the filtered state;
    # absorb the trace normalization evenly into the filters.
    raw = report.ds_map.choi
    tr = float(np.trace(raw).real)
    if tr <= 0.0:
        raise NumericalFailure("filtered state lost its trace")
    scale = tr ** -0.25
    filt_first = scale * report.in_filter.conj().T
    filt_second = scale * report.out_filter
    try:
        fnf_state = BipartiteState(k, m, raw / tr)
    except ValueError as exc:
        # Filtering can push an accepted state's tiny negative eigenvalue
        # below the PSD floor.
        raise NumericalFailure(f"filtered state rejected: {exc}") from exc

    marginals = _marginals_check(fnf_state, tol)
    if not marginals.passed:
        raise NumericalFailure(
            f"filtered state's reduced states are off maximally mixed by {marginals.defect:.3e}",
            residual=marginals.defect)

    terms = _schmidt_expansion(fnf_state.rho, k, m, tol)
    return FnfResult(filter_first=filt_first, filter_second=filt_second,
                     state_fnf=fnf_state, schmidt=terms, scaling_report=report)


@dataclass(frozen=True)
class FnfCheck:
    passed: bool
    defect: float
    limit: float


def _within(defect: float, limit: float = 1e-8) -> FnfCheck:
    return FnfCheck(defect <= limit, defect, limit)


def _marginals_check(state: BipartiteState, tol: Tolerances) -> FnfCheck:
    """Distance of both reduced states from maximally mixed, at ``ds_slack``."""
    k, m = state.k, state.m
    return _within(max(frob(state.reduced_second() - np.eye(m) / m),
                       frob(state.reduced_first() - np.eye(k) / k)),
                   scaling.ds_slack(tol))


@dataclass(frozen=True)
class FnfVerification:
    leading_pair: FnfCheck
    coefficients: FnfCheck
    orthonormal_first: FnfCheck
    orthonormal_second: FnfCheck
    reconstruction: FnfCheck
    marginals: FnfCheck
    filters_invertible: FnfCheck
    filtered_state: FnfCheck | None = None

    @property
    def passed(self) -> bool:
        checks = (getattr(self, f.name) for f in fields(self))
        return all(c.passed for c in checks if c is not None)


def _gram_defect(factors: list[np.ndarray]) -> float:
    # tr(A B*) is the inner product of the flattened factors.
    F = np.stack([f.ravel() for f in factors])
    return frob(F @ F.conj().T - np.eye(len(factors)))


def verify_fnf(result: FnfResult, tol: Tolerances = DEFAULT_TOL,
               original: BipartiteState | None = None) -> FnfVerification:
    """Independent re-check of every filter-normal-form invariant.

    With ``original`` supplied, additionally checks that the filtered
    original state reproduces ``state_fnf``.
    """
    k, m = result.state_fnf.k, result.state_fnf.m
    rho = result.state_fnf.rho

    lead = result.schmidt[0]
    lead_defect = max(
        frob(lead.first - np.eye(k) / math.sqrt(k)),
        frob(lead.second - np.eye(m) / math.sqrt(m)),
        abs(lead.coeff - 1.0 / math.sqrt(k * m)))
    leading_pair = _within(lead_defect, 0.0)

    coeffs = [t.coeff for t in result.schmidt]
    ordered = (all(c >= 0.0 for c in coeffs)
               and all(a >= b for a, b in zip(coeffs[1:], coeffs[2:])))
    coefficients = _within(0.0 if ordered else 1.0, 0.0)

    orthonormal_first = _within(_gram_defect([t.first for t in result.schmidt]))
    orthonormal_second = _within(_gram_defect([t.second for t in result.schmidt]))

    recon = sum(t.coeff * kron(t.first, t.second) for t in result.schmidt)
    reconstruction = _within(frob(recon - rho))

    inv_ok = True
    worst_ratio = 0.0
    for F in (result.filter_first, result.filter_second):
        s = np.linalg.svd(F, compute_uv=False)
        ratio = float(s[-1] / max(s[0], 1e-300))
        worst_ratio = max(worst_ratio, 1e-10 / max(ratio, 1e-300))
        if s[-1] <= 1e-10 * s[0]:
            inv_ok = False
    filters_invertible = FnfCheck(inv_ok, 0.0 if inv_ok else worst_ratio, 1.0)

    filtered_state = None
    if original is not None:
        W = kron(result.filter_first, result.filter_second)
        filt = hermitian_part(W @ original.rho @ W.conj().T)
        tr = float(np.trace(filt).real)
        filtered_state = _within(frob(filt / tr - rho) if tr > 0 else float("inf"))

    return FnfVerification(
        leading_pair=leading_pair, coefficients=coefficients,
        orthonormal_first=orthonormal_first, orthonormal_second=orthonormal_second,
        reconstruction=reconstruction, marginals=_marginals_check(result.state_fnf, tol),
        filters_invertible=filters_invertible, filtered_state=filtered_state)
