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
reach ``tol.conv_eps`` or an iteration cap; ``run`` is its one consumer.

A certificate that passes :func:`opscale.posmap.verify_block_certificate`'s
decomposition and invariance keeps every filter block-diagonal: invariance
gives ``T(V_a) = W_a T(V_a) W_a``, and for unit v in V_b, u in V_c, b != c,
and real t, ``0 <= T((v+tu)(v+tu)*) <= 2 T(vv*) + 2 t^2 T(uu*)`` puts
``T(vu* + uv*)`` and ``T(i(vu* - uv*))`` in the W_b/W_c off-diagonal corners,
so ``T*(W_a Y W_a) = V_a T*(W_a Y W_a) V_a``.  By induction from the identity
pair, every marginal, root ``c M^(-w/2)`` and filter is block-diagonal.

The update converges linearly, at a rate that tends to 1 near the boundary
of scalability.  So at iterate 256 the driver switches to overrelaxed steps
(Thibault, Chizat, Dossal and Papadakis, arXiv:1711.01851) when the plain
steps have shown a steady geometric rate rho: the residual fell by at least
0.1 % over the last 32 of them, at rates that their two halves agree on
within 3 %, which neither a stalled residual nor one falling like 1/n does.
Each marginal's root ``M^(-1/2)`` then becomes ``c M^(-w/2)``, from the same
eigendecomposition, with ``w = min(1.9, 2 / (1 + sqrt(1 - rho)))`` and the
scalar c that keeps the trace invariants; the log-determinant advances by
that of the factors applied, and every contract of the step holds as for a
plain one.  The run falls back to plain steps for good, from the last
iterate accepted, when a contract refuses an overrelaxed step or when the
residual reaches no new low, below its value at the switch, for as many
steps as the plain rate takes to lower it by a factor e, 1 / (1 - rho),
and at least 32.
``init``, and ``step`` on an iterate whose ``relaxation`` is 1, are the
plain update, and a run that ends before iterate 256 is the plain run.

``init``, ``step`` and ``run`` use the map only through its dimensions
``k`` and ``m`` and its methods ``apply`` (``M_k -> M_m``) and
``apply_adjoint`` (``M_m -> M_k``), so any object with those members can be
scaled, without a dense storage.  A converged report's ``ds_map`` calls
``conjugated(in_filter, out_filter)`` only when it is read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .numkernel import (DEFAULT_TOL, NotPositiveDefinite, NumericalFailure,
                        Tolerances, below_pd_floor, hermitian_part,
                        identity_defect, pd_inv_sqrt)
from .posmap import ChoiMap

VERDICT_CONVERGED = "converged-ds"
VERDICT_NO_SUPPORT = "no-support-numerical"
VERDICT_INCONCLUSIVE = "max-iter-inconclusive"
VERDICT_PRECONDITION = "precondition-failed"
DEFAULT_MAX_ITER = 10000

# A step whose marginal traces drift this far from sqrt(k) and sqrt(m) is
# reported as a numerical failure instead of silently continuing.
_STEP_DEFECT_LIMIT = 1e-6

# The driver's switch to overrelaxed steps (see _iterates and _relaxation):
# the iterate of the switch, a power of two; the plain steps before it whose
# rate decides it; the least fall of the residual over those steps, as a
# share of it, that shows a rate; how far the rates of their two halves may
# differ, relative to the later one; and the largest relaxation.
_SWITCH_AT = 256
_RATE_WINDOW = 32
_RATE_MARKS = frozenset((_SWITCH_AT - _RATE_WINDOW, _SWITCH_AT - _RATE_WINDOW // 2,
                         _SWITCH_AT))
_MIN_WINDOW_DECAY = 1e-3
_RATE_SPREAD = 0.03
_MAX_RELAXATION = 1.9


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
    ``relaxation`` is the w of the overrelaxed update that ``step`` applies
    to this iterate, and that its successor carries on; it is 1, the plain
    update, unless :func:`_iterates` set it.  On an iterate that an
    overrelaxed step produced, ``marginal_defect`` is the residual of the
    overrelaxed root over sqrt(m), and ``in_marginal_eig_logsum`` is
    ``-2 log det`` of the root that ``in_filter_next`` absorbed (see
    :func:`opscale.numkernel.pd_inv_sqrt`).
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
    relaxation: float = 1.0

    def trace_defects(self, k: int, m: int) -> tuple[float, float]:
        """Distance of tr(in_marginal) from sqrt(k) and tr(out_marginal)
        from sqrt(m); both are exact invariants of the iteration."""
        # np.add.reduce of the diagonal is what ndarray.trace computes.
        tr_in = float(np.add.reduce(self.in_marginal.diagonal()).real)
        tr_out = float(np.add.reduce(self.out_marginal.diagonal()).real)
        return abs(tr_in - math.sqrt(k)), abs(tr_out - math.sqrt(m))


def _new_state(**fields) -> ScalingState:
    """``ScalingState(**fields)`` without the twelve ``object.__setattr__``
    calls of a frozen dataclass's ``__init__``, 4 us of a 4x4 step.  The
    class has no ``__post_init__``, and every caller passes every field."""
    state = object.__new__(ScalingState)
    state.__dict__.update(fields)
    return state


@functools.lru_cache(maxsize=16)
def _scalars(k: int, m: int) -> tuple:
    """The update's scalars for a k x m map as complex128: numpy would
    convert each Python float to the same value at every product."""
    return tuple(np.complex128(x) for x in (
        m ** -0.25, 1 / math.sqrt(m), k ** -0.25, 1 / math.sqrt(k),
        math.sqrt(k), math.sqrt(m)))


def _advance(T: ChoiMap, n: int, X, Y, B, logdet: float, in_logsum: float,
             tol: Tolerances, relaxation: float = 1.0) -> ScalingState:
    """The scaling update: renormalize the output marginal ``B`` of the
    filter pair ``(X, Y)``, recompute the input marginal, and prepare the
    next input filter.  ``in_logsum`` is the eigenvalue log-sum of the input
    marginal that ``X`` already absorbed.  A ``relaxation`` w other than 1
    applies both marginals' overrelaxed roots ``c M^(-w/2)`` in place of
    ``M^(-1/2)``; their scalars keep both trace invariants, and their
    log-sums are the log-determinants of the factors applied.  Each of its
    refusals, an overflow included, is a NumericalFailure, and no numpy
    warning escapes."""
    k, m = T.k, T.m
    y_scale, y_norm, x_scale, x_norm, k_root, m_root = _scalars(k, m)
    try:
        with np.errstate(over="raise", invalid="raise"):
            B_is, B_logsum, B_residual = pd_inv_sqrt(B, tol, "output-side marginal",
                                                     relaxation)
            Y1 = y_scale * (B_is @ Y)
            Y1h = Y1.conj().T

            A1 = hermitian_part(X.conj().T @ T.apply_adjoint((Y1h * y_norm) @ Y1) @ X)
            A1_is, A1_logsum, _ = pd_inv_sqrt(A1, tol, "input-side marginal",
                                              relaxation)
            X2 = x_scale * (X @ A1_is)
            B1 = hermitian_part(Y1 @ T.apply((X2 * x_norm) @ X2.conj().T) @ Y1h)

            # det X advances by exp(-in_logsum / 2) * k^(-k/4), det Y by
            # exp(-B_logsum / 2) * m^(-m/4): det(A)^(-1/2) and det(B)^(-1/2) plain.
            logdet += m * (-0.5 * in_logsum - (k / 4.0) * math.log(k))
            logdet += k * (-0.5 * B_logsum - (m / 4.0) * math.log(m))

            state = _new_state(
                n=n, in_filter=X, out_filter=Y1, in_marginal=A1, out_marginal=B1,
                in_filter_next=X2, logdet=logdet,
                in_residual=identity_defect(k_root * A1),
                out_residual=identity_defect(m_root * B1),
                marginal_defect=B_residual / math.sqrt(m),
                in_marginal_eig_logsum=A1_logsum, relaxation=relaxation)
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
                    state.in_marginal_eig_logsum, tol, state.relaxation)


def _residual(state: ScalingState) -> float:
    return max(state.in_residual, state.out_residual)


def _converged(state: ScalingState, tol: Tolerances) -> bool:
    return _residual(state) <= tol.conv_eps


def ds_slack(tol: Tolerances) -> float:
    """The slack of a converged run's doubly-stochastic check: 10 conv_eps."""
    return 10.0 * tol.conv_eps


def _relaxation(first: float, middle: float, last: float) -> tuple[float, float]:
    """The w of the overrelaxed steps and their patience, from the residuals
    of the plain iterates at the start, middle and end of the rate window,
    or ``(1.0, 0.0)`` when they show no steady geometric rate.

    The rate is the geometric mean of the window's residual ratios, ``rho =
    (last / first)^(1/_RATE_WINDOW)``, and w the optimal overrelaxation of a
    linear rate rho, ``2 / (1 + sqrt(1 - rho))`` (Thibault, Chizat, Dossal
    and Papadakis, arXiv:1711.01851), capped at _MAX_RELAXATION.  A rate is
    shown when the residual fell by at least _MIN_WINDOW_DECAY of itself
    over the window, which a stalled residual does not, and steady when the
    window's two halves agree on it within _RATE_SPREAD; a residual that
    falls like 1/n, as on a map with support but no total support, gives
    halves about 7 % apart at iterate 256.  The patience is the number of
    steps that the plain rate takes to lower the residual by a factor e,
    ``1 / (1 - rho)``, and at least _RATE_WINDOW."""
    early, late = math.log(middle / first), math.log(last / middle)
    if (last > (1.0 - _MIN_WINDOW_DECAY) * first
            or abs(early - late) > _RATE_SPREAD * abs(late)):
        return 1.0, 0.0
    rho = (last / first) ** (1.0 / _RATE_WINDOW)
    return (min(_MAX_RELAXATION, 2.0 / (1.0 + math.sqrt(1.0 - rho))),
            max(float(_RATE_WINDOW), 1.0 / (1.0 - rho)))


def _iterates(T: ChoiMap, tol: Tolerances, max_iter: int):
    """``init``'s iterate, then ``step``'s until one converged or reached
    ``max_iter``; both are called through the module globals.

    At iterate _SWITCH_AT, when :func:`_relaxation` finds a steady geometric
    rate in the plain steps before it, the iterate is given that relaxation,
    so that the steps from it on are overrelaxed.  They fall back to plain
    steps for the rest of the run, from the last iterate accepted, when a
    contract refuses an overrelaxed step, or when the residual reaches no new
    low, below its value at the switch, within the relaxation's patience.
    Overrelaxed steps first raise the residual, for longer the closer the
    plain rate is to 1, and near the rounding floor they stall above the
    floor of plain ones.  A run that ends before the switch has every
    iterate of the plain update.
    """
    state = init(T, tol)
    yield state
    window = []     # plain residuals at the rate window's start, middle and end
    low = None      # (lowest residual, its iterate) while the steps are overrelaxed
    while not _converged(state, tol) and state.n < max_iter:
        if state.n in _RATE_MARKS:
            window.append(_residual(state))
            if state.n == _SWITCH_AT:
                relaxation, patience = _relaxation(*window)
                if relaxation != 1.0:
                    state = replace(state, relaxation=relaxation)
                    low = (window[-1], state.n)
        elif low is not None:
            if _residual(state) < low[0]:
                low = (_residual(state), state.n)
            elif state.n - low[1] >= patience:
                state, low = replace(state, relaxation=1.0), None
        try:
            following = step(state, T, tol)
        except NumericalFailure:
            if low is None:
                raise
            state, low = replace(state, relaxation=1.0), None
            following = step(state, T, tol)
        state = following
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
    divergence heuristic (log-determinant growth past the threshold), not a
    proof.
    On convergence ``ds_map`` is the scaled map
    ``T.conjugated(in_filter, out_filter)``, built on its first read and kept;
    otherwise it is None.  Reading it raises AttributeError when the scaled
    object has no ``conjugated``.  ``run`` hands the report the map for that
    read, which drops it; it is neither compared nor shown in the repr.
    """

    verdict: str
    iterations: int
    in_residual: float | None
    out_residual: float | None
    logdet: float | None
    in_filter: np.ndarray | None
    out_filter: np.ndarray | None
    history: tuple[IterationRecord, ...]
    failure_reason: str | None = None
    _map: ChoiMap | None = field(default=None, repr=False, compare=False)

    @property
    def converged(self) -> bool:
        return self.verdict == VERDICT_CONVERGED

    @functools.cached_property
    def ds_map(self) -> ChoiMap | None:
        if not self.converged:
            return None
        ds_map = self._map.conjugated(self.in_filter, self.out_filter)
        # The map is needed for this one read only: do not keep it, or its
        # storage, alive as long as the report.
        object.__setattr__(self, "_map", None)
        return ds_map


def check_run_limits(max_iter: int, divergence_logdet: float | None) -> None:
    """Refuse, with ValueError naming the parameter first, the run limits of
    :func:`run` that give a false verdict: a negative ``max_iter`` stops
    before the first step, a NaN ``divergence_logdet`` switches the
    divergence test off, and one at or below 0 ends every run diverged
    within a step, since the growth starts at 0."""
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    if divergence_logdet is not None and not divergence_logdet > 0.0:
        raise ValueError(
            f"divergence_logdet must be a positive number, got {divergence_logdet}")


def run(T: ChoiMap, tol: Tolerances = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
        divergence_logdet: float | None = None,
        keep_history: bool = True) -> ScalingReport:
    """Iterate until both marginal residuals drop to ``tol.conv_eps``, the
    log-determinant's growth since iterate 0 exceeds the divergence threshold
    (default ``50 * k * m``), or ``max_iter`` is hit.  The test reads growth,
    not the log-determinant itself, which scaling T by c shifts by
    ``-(k m / 2) log c`` at every iterate.  Raises ValueError, before the
    first step, on the run limits :func:`check_run_limits` refuses, and
    otherwise only the update's NumericalFailure.  From iterate 256 on, the
    steps may be overrelaxed (see the module docstring); ``iterations`` and
    ``history`` count plain and overrelaxed steps alike."""
    check_run_limits(max_iter, divergence_logdet)
    threshold = 50.0 * T.k * T.m if divergence_logdet is None else float(divergence_logdet)
    history: list[IterationRecord] = []
    try:
        for state in _iterates(T, tol, max_iter):
            if state.n == 0:
                start = state.logdet
            if keep_history:
                history.append(IterationRecord(state.n, state.in_residual,
                                               state.out_residual, state.logdet))
            growth = state.logdet - start
            if growth > threshold:
                break
    except PreconditionFailed as exc:
        return ScalingReport(
            verdict=VERDICT_PRECONDITION, iterations=0, in_residual=None,
            out_residual=None, logdet=None, in_filter=None, out_filter=None,
            history=(), failure_reason=str(exc))
    if _converged(state, tol):
        verdict, reason = VERDICT_CONVERGED, None
    elif growth > threshold:
        verdict = VERDICT_NO_SUPPORT
        reason = f"log-determinant growth {growth:.3f} exceeded {threshold:.3f}"
    else:
        verdict = VERDICT_INCONCLUSIVE
        reason = f"residuals above {tol.conv_eps:g} after {max_iter} iterations"
    return ScalingReport(
        verdict=verdict, iterations=state.n, in_residual=state.in_residual,
        out_residual=state.out_residual, logdet=state.logdet,
        in_filter=state.in_filter, out_filter=state.out_filter,
        history=tuple(history), failure_reason=reason, _map=T)
