"""Alternating marginal normalization of a positive map.

Starting from a positive map T with T(Id) and T*(Id) positive definite, the
iteration keeps a pair of invertible filters: ``in_filter`` acting on inputs
and ``out_filter`` acting on outputs, so that the scaled map is
``X -> out_filter T(in_filter X in_filter*) out_filter*``.  Each step
renormalizes one marginal exactly; convergence of both marginal residuals
means the scaled map is doubly stochastic.  The tracked log-determinant
``m*log|det in_filter| + k*log|det out_filter|`` never decreases, stays
bounded when the map's pattern has support in every basis pair, and grows
without bound otherwise, which is the divergence heuristic.

One driver, ``_iterates``, runs the update from the identity filter pair
(``init``), then from each previous iterate (``step``), until both residuals
reach ``tol.conv_eps`` or an iteration cap.  ``run`` consumes it with a history
and a divergence stop, ``block_commutation_check`` with a commutator test.

``init``, ``step`` and ``run`` use the map only through its dimensions
``k`` and ``m`` and its methods ``apply`` (``M_k -> M_m``) and
``apply_adjoint`` (``M_m -> M_k``); ``run`` also calls
``conjugated(in_filter, out_filter)`` to build the final ``ds_map``.  Any
object with those members can be scaled, without a dense storage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkernel import (DEFAULT_TOL, NotPositiveDefinite, NumericalFailure,
                        Tolerances, below_pd_floor, frob, hermitian_part,
                        pd_inv_sqrt, subtract_identity)
from .posmap import BlockCertificate, ChoiMap, certificate_admissibility

VERDICT_CONVERGED = "converged-ds"
VERDICT_NO_SUPPORT = "no-support-numerical"
VERDICT_INCONCLUSIVE = "max-iter-inconclusive"
VERDICT_PRECONDITION = "precondition-failed"
DEFAULT_MAX_ITER = 10000

# A step whose marginal traces drift this far from sqrt(k) and sqrt(m) is
# reported as a numerical failure instead of silently continuing.
_STEP_DEFECT_LIMIT = 1e-6


class PreconditionFailed(ValueError):
    """T(Id) or T*(Id) is not positive definite at tolerance."""

    def __init__(self, message: str, marginal: str, min_eigenvalue: float):
        super().__init__(message)
        self.marginal = marginal
        self.min_eigenvalue = min_eigenvalue


@dataclass(frozen=True)
class ScalingState:
    """One iterate of the alternating normalization.

    ``in_marginal`` is the input-side marginal of the scaled map (tends to
    Id/sqrt(k) on convergence) and ``out_marginal`` the output-side one
    (tends to Id/sqrt(m)); ``in_filter_next`` already absorbs the current
    input-side correction and becomes the input filter of the next state.
    ``logdet`` is m*log|det in_filter| + k*log|det out_filter|.
    ``marginal_defect`` is the distance of the renormalized output marginal
    ``out_filter T(in_filter in_filter* / sqrt(k)) out_filter*`` from
    Id/sqrt(m), read off the residual of its inverse square root.
    """

    n: int
    in_filter: np.ndarray
    out_filter: np.ndarray
    in_marginal: np.ndarray
    out_marginal: np.ndarray
    in_filter_next: np.ndarray
    logdet: float
    in_residual: float
    out_residual: float
    marginal_defect: float
    in_marginal_eig_logsum: float

    def trace_defects(self, k: int, m: int) -> tuple[float, float]:
        """Distance of tr(in_marginal) from sqrt(k) and tr(out_marginal)
        from sqrt(m); both are exact invariants of the iteration."""
        return (abs(float(self.in_marginal.trace().real) - math.sqrt(k)),
                abs(float(self.out_marginal.trace().real) - math.sqrt(m)))


def _advance(T: ChoiMap, n: int, X, Y, B, logdet: float, in_logsum: float,
             tol: Tolerances) -> ScalingState:
    """The scaling update: renormalize the output marginal ``B`` of the
    filter pair ``(X, Y)``, recompute the input marginal, and prepare the
    next input filter.  ``in_logsum`` is the eigenvalue log-sum of the input
    marginal that ``X`` already absorbed.  Each of its refusals, an overflow
    included, is a NumericalFailure, and no numpy warning escapes."""
    k, m = T.k, T.m
    try:
        with np.errstate(over="raise", invalid="raise"):
            B_is, B_logsum, B_residual = pd_inv_sqrt(B, tol, "output-side marginal")
            Y1 = m ** -0.25 * (B_is @ Y)

            A1 = hermitian_part(X.conj().T @ T.apply_adjoint(
                (Y1.conj().T * (1 / math.sqrt(m))) @ Y1) @ X)
            A1_is, A1_logsum, _ = pd_inv_sqrt(A1, tol, "input-side marginal")
            X2 = k ** -0.25 * (X @ A1_is)
            B1 = hermitian_part(Y1 @ T.apply(
                (X2 * (1 / math.sqrt(k))) @ X2.conj().T) @ Y1.conj().T)

            # det X advances by det(A)^(-1/2) * k^(-k/4), det Y by det(B)^(-1/2) * m^(-m/4).
            logdet += m * (-0.5 * in_logsum - (k / 4.0) * math.log(k))
            logdet += k * (-0.5 * B_logsum - (m / 4.0) * math.log(m))

            state = ScalingState(
                n=n, in_filter=X, out_filter=Y1, in_marginal=A1, out_marginal=B1,
                in_filter_next=X2, logdet=logdet,
                in_residual=frob(subtract_identity(math.sqrt(k) * A1)),
                out_residual=frob(subtract_identity(math.sqrt(m) * B1)),
                marginal_defect=B_residual / math.sqrt(m),
                in_marginal_eig_logsum=A1_logsum)
            drift = max(state.trace_defects(k, m))
    except NotPositiveDefinite as exc:
        raise NumericalFailure(str(exc)) from exc
    except FloatingPointError as exc:
        raise NumericalFailure(f"scaling iterate {n} is not finite: {exc}") from exc
    if drift > _STEP_DEFECT_LIMIT:
        raise NumericalFailure(
            f"marginal trace invariant drifted to {drift:.3e}", residual=drift)
    return state


def init(T: ChoiMap, tol: Tolerances = DEFAULT_TOL) -> ScalingState:
    """First iterate: the scaling update run from the identity filter pair.

    Raises PreconditionFailed unless T(Id) and T*(Id) are positive definite
    at the relative floor, and NumericalFailure when the update refuses."""
    k, m = T.k, T.m
    fwd = hermitian_part(T.apply(np.eye(k) / math.sqrt(k)))   # T(Id/sqrt(k))
    adj = hermitian_part(T.apply_adjoint(np.eye(m)))          # T*(Id)
    for name, M in (("T(Id)", fwd), ("T*(Id)", adj)):
        w = np.linalg.eigvalsh(M)
        if below_pd_floor(w[0], w[-1], tol):
            raise PreconditionFailed(
                f"{name} is not positive definite: eigenvalue {w[0]:.6e} "
                f"vs largest {w[-1]:.6e}", marginal=name,
                min_eigenvalue=float(w[0]))
    # The identity input filter counts as already normalized: this log-sum
    # makes the update add exactly zero for the input side.
    return _advance(T, 0, np.eye(k, dtype=complex), np.eye(m, dtype=complex),
                    fwd, 0.0, -(k / 2.0) * math.log(k), tol)


def step(state: ScalingState, T: ChoiMap, tol: Tolerances = DEFAULT_TOL) -> ScalingState:
    """Advance one iteration: renormalize the output marginal, recompute the
    input marginal and the next input filter; raises only NumericalFailure."""
    return _advance(T, state.n + 1, state.in_filter_next, state.out_filter,
                    state.out_marginal, state.logdet,
                    state.in_marginal_eig_logsum, tol)


def _converged(state: ScalingState, tol: Tolerances) -> bool:
    return max(state.in_residual, state.out_residual) <= tol.conv_eps


def ds_slack(tol: Tolerances) -> float:
    """The slack of a converged run's doubly-stochastic check: 10 conv_eps."""
    return 10.0 * tol.conv_eps


def _iterates(T: ChoiMap, tol: Tolerances, max_iter: int):
    """``init``'s iterate, then ``step``'s until one converged or reached
    ``max_iter``; both are called through the module globals."""
    state = init(T, tol)
    yield state
    while not _converged(state, tol) and state.n < max_iter:
        state = step(state, T, tol)
        yield state


@dataclass(frozen=True)
class IterationRecord:
    n: int
    in_residual: float
    out_residual: float
    logdet: float


@dataclass(frozen=True)
class ScalingReport:
    """Outcome of a scaling run.

    ``verdict`` is one of converged-ds, no-support-numerical,
    max-iter-inconclusive, precondition-failed.  The no-support verdict is a
    divergence heuristic (log-determinant past the threshold), not a proof.
    On convergence ``ds_map`` is the scaled map, built from the final filter
    pair.
    """

    verdict: str
    iterations: int
    in_residual: float | None
    out_residual: float | None
    logdet: float | None
    in_filter: np.ndarray | None
    out_filter: np.ndarray | None
    ds_map: ChoiMap | None
    history: tuple[IterationRecord, ...]
    failure_reason: str | None = None

    @property
    def converged(self) -> bool:
        return self.verdict == VERDICT_CONVERGED


def run(T: ChoiMap, tol: Tolerances = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
        divergence_logdet: float | None = None,
        keep_history: bool = True) -> ScalingReport:
    """Iterate until both marginal residuals drop to ``tol.conv_eps``, the
    log-determinant exceeds the divergence threshold (default ``50 * k * m``),
    or ``max_iter`` is hit.  Raises only the update's NumericalFailure."""
    threshold = 50.0 * T.k * T.m if divergence_logdet is None else float(divergence_logdet)
    history: list[IterationRecord] = []
    try:
        for state in _iterates(T, tol, max_iter):
            if keep_history:
                history.append(IterationRecord(state.n, state.in_residual,
                                               state.out_residual, state.logdet))
            if state.logdet > threshold:
                break
    except PreconditionFailed as exc:
        return ScalingReport(
            verdict=VERDICT_PRECONDITION, iterations=0, in_residual=None,
            out_residual=None, logdet=None, in_filter=None, out_filter=None,
            ds_map=None, history=(), failure_reason=str(exc))
    verdict, reason, ds_map = VERDICT_CONVERGED, None, None
    if _converged(state, tol):
        ds_map = T.conjugated(state.in_filter, state.out_filter)
    elif state.logdet > threshold:
        verdict = VERDICT_NO_SUPPORT
        reason = f"log-determinant {state.logdet:.3f} exceeded {threshold:.3f}"
    else:
        verdict = VERDICT_INCONCLUSIVE
        reason = f"residuals above {tol.conv_eps:g} after {max_iter} iterations"
    return ScalingReport(
        verdict=verdict, iterations=state.n, in_residual=state.in_residual,
        out_residual=state.out_residual, logdet=state.logdet,
        in_filter=state.in_filter, out_filter=state.out_filter, ds_map=ds_map,
        history=tuple(history), failure_reason=reason)


@dataclass(frozen=True)
class CommutationReport:
    """Whether the scaling iterates commute with certificate projectors."""

    passed: bool
    precondition_ok: bool
    steps_run: int
    first_failure: tuple[int, str, float] | None


def block_commutation_check(T: ChoiMap, cert: BlockCertificate,
                            n_steps: int = 50,
                            tol: Tolerances = DEFAULT_TOL,
                            rel_tol: float = 1e-8) -> CommutationReport:
    """Check that every iterate, 0..``n_steps`` or up to convergence,
    commutes with the certificate's projectors.  A certificate that fails
    :func:`opscale.posmap.certificate_admissibility`'s decomposition or
    invariance condition, or a map whose T(Id) or T*(Id) is singular, is
    rejected (``precondition_ok`` false).  Raises ValueError when the
    certificate's dimensions do not match T's k and m, and NumericalFailure."""
    rejected = CommutationReport(passed=False, precondition_ok=False,
                                 steps_run=0, first_failure=None)
    if not all(c.passed for c in certificate_admissibility(T, cert)):
        return rejected

    try:
        for state in _iterates(T, tol, n_steps):
            for label, M, family in (("input", state.in_filter, cert.input_projectors),
                                     ("output", state.out_filter, cert.output_projectors)):
                scale = max(frob(M), 1e-300)
                for P in family:
                    defect = frob(M @ P - P @ M)
                    if defect > rel_tol * scale:
                        return CommutationReport(
                            passed=False, precondition_ok=True, steps_run=state.n,
                            first_failure=(state.n, label, float(defect)))
    except PreconditionFailed:
        return rejected
    return CommutationReport(passed=True, precondition_ok=True,
                             steps_run=state.n, first_failure=None)
