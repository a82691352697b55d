"""Each acceptance rule has one owner, so its callers agree at the threshold:
the PSD floor of a state, the positive-definiteness floor of a marginal, and
the paper's count bounds on zeros and on kernel dimensions."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opscale.fnf import BipartiteState, check_preconditions, sufficient_conditions
from opscale.io import matrix_to_obj, parse_map
from opscale.matcomb import NonnegPattern, zero_fraction_sufficient
from opscale.numkernel import NotPositiveDefinite, Tolerances, pd_inv_sqrt
from opscale.posmap import ChoiMap, from_state
from opscale.scaling import PreconditionFailed, init

STATE_LOADERS = {
    "BipartiteState": lambda rho: BipartiteState(2, 2, rho),
    "from_state": lambda rho: from_state(rho, 2, 2),
    "parse_map": lambda rho: parse_map(
        {"kind": "state", "k": 2, "m": 2, "matrix": matrix_to_obj(rho)}),
}


def raised(call, *args) -> ValueError | None:
    """The ValueError ``call(*args)`` raises, or None if it accepts."""
    try:
        call(*args)
    except ValueError as exc:
        return exc
    return None


# The floor is -1e-9 of the largest eigenvalue, here 1.
@pytest.mark.parametrize("lowest, accepted", [
    (np.nextafter(-1e-9, 0.0), True), (-1e-9, True),
    (np.nextafter(-1e-9, -1.0), False)], ids=["above", "at", "below"])
def test_state_loaders_share_one_psd_floor(lowest, accepted):
    rho = np.diag([1.0, 0.5, 0.25, lowest])
    assert np.linalg.eigvalsh(rho)[0] == lowest
    want = None if accepted else f"state is not PSD: eigenvalue {lowest:.3e}"
    for name, load in STATE_LOADERS.items():
        exc = raised(load, rho)
        assert (None if exc is None else str(exc)) == want, name


# A diagonal storage of trace 8 on a 1x3 or 3x1 pair: its 3x3 marginal is
# the storage itself and the state's reduced state is that marginal / 8, both
# exact, so every check sees smallest == pd_min * largest at the floor.
@pytest.mark.parametrize("k, m", [(1, 3), (3, 1)])
@pytest.mark.parametrize("smallest, accepted", [
    (1.0, False), (np.nextafter(1.0, 2.0), True)], ids=["at", "above"])
def test_marginal_checks_share_one_pd_floor(k, m, smallest, accepted):
    tol = Tolerances(pd_min=0.25)
    marginal = np.diag([4.0, 3.0, smallest])
    T = ChoiMap(k, m, marginal)
    side = T.apply(np.eye(1)) if k == 1 else T.apply_adjoint(np.eye(1))
    assert np.array_equal(side, marginal)
    refusals = [raised(pd_inv_sqrt, marginal, tol), raised(init, T, tol)]
    assert [type(exc) for exc in refusals] == (
        [type(None)] * 2 if accepted else [NotPositiveDefinite, PreconditionFailed])
    assert check_preconditions(BipartiteState(k, m, marginal), tol).ok == accepted


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_count_bounds_agree_on_zeros_and_kernels(k, m, data):
    """A diagonal state carrying a 0/1 pattern has as many kernel dimensions
    as the pattern has zeros, and positive definite reduced states exactly
    when the pattern has no zero row or column."""
    cells = data.draw(st.lists(st.booleans(), min_size=k * m, max_size=k * m))
    entries = np.array(cells, dtype=np.float64).reshape(k, m)
    assume(entries.any())
    zf = zero_fraction_sufficient(NonnegPattern(entries))
    suff = sufficient_conditions(BipartiteState(k, m, np.diag(entries.reshape(-1))),
                                 run_coprime_scaling=False)
    assert suff.kernel_dim == zf.zero_count
    assert suff.marginals_pd == (not zf.has_zero_row and not zf.has_zero_col)
    assert suff.rect_kernel == zf.rect_few_zeros.grants
    assert suff.square_kernel == zf.square_few_zeros.grants
    assert suff.ratio_kernel == zf.line_ratio_few_zeros.grants
