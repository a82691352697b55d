"""Each acceptance rule has one owner, so its callers agree at the threshold:
the PSD floor of a state, the positive-definiteness floor of a marginal, and
the paper's count bounds on zeros and on kernel dimensions.  So has each rule
of a scaling run: its iteration cap and the slack its result is checked with."""

import inspect
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opscale import cli, fixtures, scaling
from opscale.fnf import (BipartiteState, check_preconditions, compute_fnf,
                         sufficient_conditions, verify_fnf)
from opscale.io import atomic_write_json, map_to_obj, matrix_to_obj, parse_map
from opscale.matcomb import NonnegPattern, zero_fraction_sufficient
from opscale.numkernel import (NotPositiveDefinite, NumericalFailure, Tolerances,
                               pd_inv_sqrt)
from opscale.posmap import ChoiMap, from_state
from opscale.scaling import DEFAULT_MAX_ITER, PreconditionFailed, ds_slack, init, run

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


def test_run_limits_have_one_default():
    for call in (run, compute_fnf, sufficient_conditions):
        assert inspect.signature(call).parameters["max_iter"].default == DEFAULT_MAX_ITER
    for command in ("scale", "fnf", "tilde"):
        args = cli.build_parser().parse_args([command, "x.json"])
        assert (args.max_iter, args.divergence) == (DEFAULT_MAX_ITER, None)


def test_selftest_slack_is_exact():
    assert ds_slack(Tolerances(conv_eps=1e-8)) == 1e-7


def test_fnf_guard_and_check_read_one_marginals_rule(monkeypatch):
    """compute_fnf refuses exactly the filtered states whose ``marginals``
    check verify_fnf fails, at the slack of the scale command's ds_check."""
    state = BipartiteState(2, 3, fixtures.random_state_matrix(
        2, 3, np.random.default_rng(3)))
    result = compute_fnf(state)
    check = verify_fnf(result).marginals
    assert check.passed and check.limit == ds_slack(Tolerances())
    assert check.defect > 0.0
    monkeypatch.setattr(scaling, "ds_slack", lambda tol: check.defect / 2)
    assert not verify_fnf(result).marginals.passed
    with pytest.raises(NumericalFailure, match="off maximally mixed") as exc:
        compute_fnf(state)
    assert exc.value.residual == check.defect


def test_scale_ds_check_reads_the_slack(monkeypatch, capsys, tmp_path):
    path = tmp_path / "map.json"
    atomic_write_json(str(path), map_to_obj(fixtures.boundary_map()))
    for slack, verdict in ((ds_slack, True), (lambda tol: 0.0, False)):
        monkeypatch.setattr(cli, "ds_slack", slack)
        assert cli.main(["scale", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ds_check"]["is_doubly_stochastic"] is verdict
