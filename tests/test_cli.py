"""File formats and the command line front door."""

import json
import os

import numpy as np
import pytest

from opscale import cli, fixtures
from opscale.fnf import BipartiteState
from opscale.io import (ValidationError, atomic_write_json, load_json,
                        map_to_obj, matrix_to_obj, obj_to_matrix,
                        parse_pattern_matrix, parse_state, state_to_obj)
from opscale.numkernel import frob


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_cli_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestMatrixRoundTrip:
    def test_bit_for_bit_complex(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            M = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            back = obj_to_matrix(json.loads(json.dumps(matrix_to_obj(M))))
            assert np.array_equal(back, M)

    def test_real_entries_stay_scalars(self):
        obj = matrix_to_obj(np.array([[1.5, 0.0], [-2.25, 3.0]]))
        assert all(isinstance(c, float) for c in obj["data"])

    def test_awkward_floats_survive(self):
        vals = np.array([[1e-300, 1e300], [np.pi, 1 / 3], [-0.0, 5e-324]])
        back = obj_to_matrix(json.loads(json.dumps(matrix_to_obj(vals))))
        assert np.array_equal(back, vals.astype(complex))

    def test_validation_failures(self):
        with pytest.raises(ValidationError):
            obj_to_matrix([1, 2, 3])
        with pytest.raises(ValidationError):
            obj_to_matrix({"rows": 2, "cols": 2, "data": [1, 2, 3]})
        with pytest.raises(ValidationError):
            obj_to_matrix({"rows": 1, "cols": 1, "data": [True]})
        with pytest.raises(ValidationError):
            obj_to_matrix({"rows": 1, "cols": 1, "data": [[1.0]]})
        with pytest.raises(ValidationError):
            obj_to_matrix({"rows": 0, "cols": 1, "data": []})

    def test_pattern_rejects_complex_and_negative(self):
        with pytest.raises(ValidationError):
            parse_pattern_matrix(matrix_to_obj(np.array([[1j]])))
        with pytest.raises(ValidationError):
            parse_pattern_matrix(matrix_to_obj(np.array([[-1.0]])))


class TestStateAndMapFiles:
    def test_state_round_trip(self):
        rng = np.random.default_rng(1)
        state = BipartiteState(2, 3, fixtures.random_state_matrix(2, 3, rng))
        back = parse_state(json.loads(json.dumps(state_to_obj(state))))
        assert np.array_equal(back.rho, state.rho)

    def test_map_file_with_state_kind(self):
        rng = np.random.default_rng(2)
        state = BipartiteState(2, 2, fixtures.random_state_matrix(2, 2, rng))
        obj = state_to_obj(state)
        obj["kind"] = "state"
        from opscale.io import parse_map
        T = parse_map(obj)
        assert (T.k, T.m) == (2, 2)
        assert frob(T.choi - state.rho) == 0.0

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_json(str(target), {"x": 1})
        assert load_json(str(target)) == {"x": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


@pytest.fixture()
def workspace(tmp_path):
    rng = np.random.default_rng(42)
    paths = {}
    paths["pattern"] = tmp_path / "pattern.json"
    atomic_write_json(str(paths["pattern"]),
                      matrix_to_obj(np.array([[0.0, 1.0], [1.0, 1.0]])))
    paths["map"] = tmp_path / "map.json"
    atomic_write_json(str(paths["map"]), map_to_obj(fixtures.boundary_map()))
    paths["bad_map"] = tmp_path / "nosupport.json"
    atomic_write_json(str(paths["bad_map"]), map_to_obj(fixtures.no_support_map()))
    paths["state"] = tmp_path / "state.json"
    state = BipartiteState(2, 3, fixtures.random_state_matrix(2, 3, rng))
    atomic_write_json(str(paths["state"]), state_to_obj(state))
    paths["dir"] = tmp_path
    return paths


class TestSupportCommand:
    def test_verdicts_and_envelope(self, capsys, workspace):
        code, rep = run_cli_json(capsys, "support", str(workspace["pattern"]),
                                 "--total", "--oracle")
        assert code == 0
        assert rep["support"] is True
        assert rep["total_support"] is False
        assert rep["total_witness"]["entry"] == [1, 1]
        assert rep["oracle"]["agrees"] is True
        assert rep["version"] and "tolerances" in rep

    def test_zero_eps_flag(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        atomic_write_json(str(path), matrix_to_obj(np.array([[1e-12, 1.0],
                                                             [1.0, 1.0]])))
        code, rep = run_cli_json(capsys, "support", str(path), "--total")
        assert rep["total_support"] is True
        code, rep = run_cli_json(capsys, "support", str(path), "--total",
                                 "--zero-eps", "1e-9")
        assert rep["total_support"] is False

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        code, rep = run_cli_json(capsys, "support", str(tmp_path / "none.json"))
        assert code == 2
        assert "error" in rep

    @pytest.mark.parametrize("content", [
        b'{"rows": 1, "cols": 1, "data": [' + b"9" * 400 + b"]}",
        b'{"rows": 1, "cols": 1, "data": [1\xff]}',
        b"[" * 100000,
    ], ids=["huge-integer-entry", "non-utf8-byte", "deep-nesting"])
    def test_malformed_file_is_exit_2(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, rep = run_cli_json(capsys, "support", str(path))
        assert code == 2
        assert "error" in rep


class TestScaleCommand:
    def test_converged_exit_0(self, capsys, workspace):
        code, rep = run_cli_json(capsys, "scale", str(workspace["map"]))
        assert code == 0
        assert rep["verdict"] == "converged-ds"
        assert rep["ds_check"]["is_doubly_stochastic"] is True
        assert "input_filter" in rep

    def test_divergence_exit_3(self, capsys, workspace):
        code, rep = run_cli_json(capsys, "scale", str(workspace["bad_map"]))
        assert code == 3
        assert rep["verdict"] == "no-support-numerical"

    def test_max_iter_exit_4(self, capsys, workspace, tmp_path):
        rng = np.random.default_rng(3)
        slow = tmp_path / "slow.json"
        atomic_write_json(str(slow), map_to_obj(fixtures.random_cp_map(3, 3, rng)))
        code, rep = run_cli_json(capsys, "scale", str(slow), "--max-iter", "1")
        assert code == 4
        assert rep["verdict"] == "max-iter-inconclusive"

    def test_history_file(self, capsys, workspace, tmp_path):
        hist = tmp_path / "hist.json"
        code, rep = run_cli_json(capsys, "scale", str(workspace["map"]),
                                 "--history", str(hist))
        assert code == 0
        data = load_json(str(hist))
        assert len(data["history"]) >= 1
        assert {"n", "in_residual", "out_residual", "logdet"} <= set(data["history"][0])


class TestFnfCommand:
    def test_writes_all_outputs(self, capsys, workspace, tmp_path):
        prefix = tmp_path / "out" / "result"
        os.makedirs(prefix.parent)
        code, rep = run_cli_json(capsys, "fnf", str(workspace["state"]),
                                 "--out", str(prefix))
        assert code == 0
        assert rep["outcome"] == "fnf-computed"
        assert rep["verification"]["passed"] is True
        for suffix in (".filters.json", ".state.json", ".schmidt.json",
                       ".report.json"):
            assert (prefix.parent / (prefix.name + suffix)).exists()
        schmidt = load_json(str(prefix) + ".schmidt.json")
        assert len(schmidt["coefficients"]) == rep["schmidt_rank"]
        filters = load_json(str(prefix) + ".filters.json")
        F = obj_to_matrix(filters["filter_first"])
        assert F.shape == (2, 2)

    def test_precondition_failure_exit_2(self, capsys, tmp_path):
        # all weight in the first half: PSD state, singular first marginal
        rho = np.zeros((4, 4))
        rho[0, 0] = rho[1, 1] = 0.5
        path = tmp_path / "sing.json"
        atomic_write_json(str(path), state_to_obj(BipartiteState(2, 2, rho)))
        code, rep = run_cli_json(capsys, "fnf", str(path),
                                 "--out", str(tmp_path / "x"))
        assert code == 2
        assert rep["outcome"] == "precondition-failed"
        assert (tmp_path / "x.report.json").exists()

    def test_coprime_scaling_verdict_guarantees_fnf(self, capsys, tmp_path):
        # 2x3 with a 2-dim kernel: no kernel condition applies, so only the
        # coprime branch's scaling verdict guarantees the normal form.
        rng = np.random.default_rng(5)
        rho = fixtures.random_state_matrix(2, 3, rng, kernel_dim=2)
        path = tmp_path / "ker2.json"
        atomic_write_json(str(path), state_to_obj(BipartiteState(2, 3, rho)))
        code, rep = run_cli_json(capsys, "fnf", str(path),
                                 "--out", str(tmp_path / "z"))
        assert code == 0
        suff = rep["sufficient_conditions"]
        assert suff["kernel_dim"] == 2 and suff["coprime"] is True
        assert not (suff["rect_kernel"] or suff["square_kernel"]
                    or suff["ratio_kernel"])
        assert suff["coprime_scaling_verdict"] == "converged-ds"
        assert suff["guaranteed"] is True

    def test_inconclusive_exit_4(self, capsys, workspace, tmp_path):
        code, rep = run_cli_json(capsys, "fnf", str(workspace["state"]),
                                 "--out", str(tmp_path / "y"),
                                 "--max-iter", "0")
        assert code == 4
        assert rep["outcome"] == "max-iter-inconclusive"


class TestTildeCommand:
    def test_lift_file_and_check(self, capsys, workspace, tmp_path):
        out = tmp_path / "lift.json"
        code, rep = run_cli_json(capsys, "tilde", str(workspace["map"]),
                                 "--out", str(out), "--check")
        assert code == 0
        assert rep["lifted_k"] == 4 and rep["lifted_m"] == 4
        assert rep["check"]["category_match"] is True
        lifted = load_json(str(out))
        assert lifted["k"] == 4 and lifted["m"] == 4


class TestCertificateCommand:
    def test_pass_and_fail_exit_codes(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        parts = [fixtures.random_cp_map(2, 2, rng), fixtures.random_cp_map(1, 1, rng)]
        T, cert = fixtures.direct_sum_map(parts)
        map_path = tmp_path / "m.json"
        cert_path = tmp_path / "c.json"
        atomic_write_json(str(map_path), map_to_obj(T))
        atomic_write_json(str(cert_path), {
            "input_projectors": [matrix_to_obj(p) for p in cert.input_projectors],
            "output_projectors": [matrix_to_obj(p) for p in cert.output_projectors],
        })
        code, rep = run_cli_json(capsys, "certificate", str(map_path),
                                 str(cert_path), "--commutation-steps", "5")
        assert code == 0
        assert rep["passed"] is True and rep["commutation"]["passed"] is True

        other = tmp_path / "full.json"
        atomic_write_json(str(other), map_to_obj(fixtures.random_cp_map(3, 3, rng)))
        code, rep = run_cli_json(capsys, "certificate", str(other), str(cert_path))
        assert code == 5
        assert rep["invariance"]["passed"] is False


class TestSeedHandling:
    def test_flag_default_and_env_override(self, capsys, workspace, monkeypatch):
        _, rep = run_cli_json(capsys, "support", str(workspace["pattern"]))
        assert rep["seed"] == 42
        _, rep = run_cli_json(capsys, "support", str(workspace["pattern"]),
                              "--seed", "7")
        assert rep["seed"] == 7
        monkeypatch.setenv("OPSCALE_SEED", "99")
        _, rep = run_cli_json(capsys, "support", str(workspace["pattern"]),
                              "--seed", "7")
        assert rep["seed"] == 99

    def test_malformed_env_seed_is_exit_2(self, capsys, workspace, monkeypatch):
        monkeypatch.setenv("OPSCALE_SEED", "not-a-number")
        code, rep = run_cli_json(capsys, "support", str(workspace["pattern"]))
        assert code == 2


class TestBatchMode:
    def test_support_batch(self, capsys, tmp_path):
        indir = tmp_path / "jobs"
        os.makedirs(indir)
        atomic_write_json(str(indir / "a.json"),
                          matrix_to_obj(np.array([[0.0, 1.0], [1.0, 1.0]])))
        atomic_write_json(str(indir / "b.json"), matrix_to_obj(np.eye(2)))
        atomic_write_json(str(indir / "broken.json"), {"nope": 1})
        outdir = tmp_path / "reports"
        code, rep = run_cli_json(capsys, "support", str(indir), "--total",
                                 "--batch", "--jobs", "2",
                                 "--out", str(outdir))
        assert code == 0
        assert rep["jobs"] == 3
        assert rep["failed"] == 1
        by_name = {os.path.basename(r["input"]): r for r in rep["results"]}
        assert by_name["a.json"]["exit_code"] == 0
        assert by_name["broken.json"]["exit_code"] == 2
        assert (outdir / "a.report.json").exists()
        assert (outdir / "broken.report.json").exists()
        assert "error" in load_json(str(outdir / "broken.report.json"))

    def test_scale_batch_isolated_failures(self, capsys, tmp_path):
        indir = tmp_path / "jobs"
        os.makedirs(indir)
        atomic_write_json(str(indir / "good.json"), map_to_obj(fixtures.boundary_map()))
        atomic_write_json(str(indir / "div.json"), map_to_obj(fixtures.no_support_map()))
        code, rep = run_cli_json(capsys, "scale", str(indir), "--batch")
        assert code == 0
        by_name = {os.path.basename(r["input"]): r for r in rep["results"]}
        assert by_name["good.json"]["exit_code"] == 0
        assert by_name["div.json"]["exit_code"] == 3
        # reports land next to the inputs when --out is omitted
        assert (indir / "good.report.json").exists()

    def test_fnf_batch(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        indir = tmp_path / "jobs"
        os.makedirs(indir)
        for idx in range(2):
            state = BipartiteState(2, 2, fixtures.random_state_matrix(2, 2, rng))
            atomic_write_json(str(indir / f"s{idx}.json"), state_to_obj(state))
        outdir = tmp_path / "out"
        code, rep = run_cli_json(capsys, "fnf", str(indir), "--batch",
                                 "--out", str(outdir))
        assert code == 0
        assert rep["failed"] == 0
        assert (outdir / "s0.filters.json").exists()
        assert (outdir / "s1.schmidt.json").exists()

    def test_batch_on_missing_directory_is_exit_2(self, capsys, tmp_path):
        code, rep = run_cli_json(capsys, "support",
                                 str(tmp_path / "missing"), "--batch")
        assert code == 2


def key_tree(obj):
    """The nested key set of a JSON value: a dict maps each key to the tree
    of its value, a list of objects becomes a one-element list of their
    common tree, and anything else is None."""
    if isinstance(obj, dict):
        return {key: key_tree(value) for key, value in obj.items()}
    if isinstance(obj, list) and obj and all(isinstance(v, dict) for v in obj):
        trees = [key_tree(v) for v in obj]
        assert all(t == trees[0] for t in trees)
        return [trees[0]]
    return None


def leaves(*names):
    return dict.fromkeys(names)


MATRIX = leaves("rows", "cols", "data")
ENVELOPE = {"version": None, "seed": None,
            "tolerances": leaves("rank_rel", "pd_min", "conv_eps")}
WITNESS = leaves("alpha", "beta", "weight", "tight_violation")
SCALING = {**leaves("verdict", "iterations", "in_residual", "out_residual",
                    "logdet", "failure_reason"),
           "input_filter": MATRIX, "output_filter": MATRIX}
MARGINAL = leaves("is_pd", "min_eigenvalue", "max_eigenvalue")
FNF_CHECK = leaves("passed", "defect", "limit")
FNF_REPORT = {
    **ENVELOPE, **leaves("input", "k", "m"),
    "preconditions": {"first_factor": MARGINAL, "second_factor": MARGINAL,
                      "ok": None},
    "sufficient_conditions": leaves(
        "kernel_dim", "marginals_pd", "rect_kernel", "square_kernel",
        "ratio_kernel", "coprime", "coprime_scaling_verdict", "guaranteed"),
    "scaling": SCALING,
    "verification": {**{name: FNF_CHECK for name in (
        "leading_pair", "coefficients", "orthonormal_first",
        "orthonormal_second", "reconstruction", "marginals",
        "filters_invertible", "filtered_state")}, "passed": None},
    **leaves("outcome", "schmidt_rank", "coefficients"),
}
CONDITION = leaves("passed", "sampled", "detail", "worst_defect")


class TestReportContract:
    """The field names of every report and written file, at every depth.
    Key order is not part of the contract."""

    def test_support(self, capsys, workspace):
        _, rep = run_cli_json(capsys, "support", str(workspace["pattern"]),
                              "--total", "--oracle")
        assert key_tree(rep) == {
            **ENVELOPE, **leaves("input", "k", "m", "zero_eps", "support",
                                 "witness", "total_support"),
            "total_witness": {**WITNESS, "entry": None},
            "oracle": leaves("support", "total_support", "agrees"),
        }

    def test_scale_with_history(self, capsys, workspace, tmp_path):
        hist = tmp_path / "hist.json"
        code, rep = run_cli_json(capsys, "scale", str(workspace["map"]),
                                 "--history", str(hist))
        assert code == 0
        assert key_tree(rep) == {
            **ENVELOPE, **leaves("input", "k", "m"), **SCALING,
            "ds_check": leaves("is_doubly_stochastic", "forward_defect",
                               "adjoint_defect"),
            "history_file": None,
        }
        assert key_tree(load_json(str(hist))) == {
            "input": None,
            "history": [leaves("n", "in_residual", "out_residual", "logdet")],
        }

    def test_fnf_and_its_files(self, capsys, workspace, tmp_path):
        prefix = str(tmp_path / "result")
        code, rep = run_cli_json(capsys, "fnf", str(workspace["state"]),
                                 "--out", prefix)
        assert code == 0
        assert key_tree(rep) == {**FNF_REPORT, "files": None}
        files = {
            ".filters.json": {"k": None, "m": None, "filter_first": MATRIX,
                              "filter_second": MATRIX},
            ".state.json": {"k": None, "m": None, "matrix": MATRIX},
            ".schmidt.json": {"k": None, "m": None, "coefficients": None,
                              "first_factors": [MATRIX],
                              "second_factors": [MATRIX]},
            ".report.json": FNF_REPORT,
        }
        for suffix, tree in files.items():
            assert key_tree(load_json(prefix + suffix)) == tree, suffix

    def test_fnf_batch_summary(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        indir = tmp_path / "jobs"
        os.makedirs(indir)
        for idx in range(2):
            state = BipartiteState(2, 2, fixtures.random_state_matrix(2, 2, rng))
            atomic_write_json(str(indir / f"s{idx}.json"), state_to_obj(state))
        _, rep = run_cli_json(capsys, "fnf", str(indir), "--batch",
                              "--out", str(tmp_path / "out"))
        assert key_tree(rep) == {
            **ENVELOPE, **leaves("batch_dir", "jobs", "failed"),
            "results": [leaves("input", "exit_code", "report", "error")],
        }

    def test_tilde_check(self, capsys, workspace, tmp_path):
        _, rep = run_cli_json(capsys, "tilde", str(workspace["map"]),
                              "--out", str(tmp_path / "lift.json"), "--check")
        assert key_tree(rep) == {
            **ENVELOPE, **leaves("input", "output", "k", "m", "lifted_k",
                                 "lifted_m"),
            "check": leaves("original_verdict", "lifted_verdict",
                            "category_match"),
        }

    def test_certificate_with_commutation(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        parts = [fixtures.random_cp_map(2, 2, rng), fixtures.random_cp_map(1, 1, rng)]
        T, cert = fixtures.direct_sum_map(parts)
        atomic_write_json(str(tmp_path / "m.json"), map_to_obj(T))
        atomic_write_json(str(tmp_path / "c.json"), {
            "input_projectors": [matrix_to_obj(p) for p in cert.input_projectors],
            "output_projectors": [matrix_to_obj(p) for p in cert.output_projectors],
        })
        code, rep = run_cli_json(capsys, "certificate", str(tmp_path / "m.json"),
                                 str(tmp_path / "c.json"),
                                 "--commutation-steps", "5")
        assert code == 0
        assert key_tree(rep) == {
            **ENVELOPE, "map": None, "certificate": None,
            **{name: CONDITION for name in ("decomposition", "invariance",
                                            "strict_rank_increase",
                                            "rank_ratio")},
            "passed": None,
            "commutation": leaves("passed", "precondition_ok", "steps_run",
                                  "first_failure"),
        }


class TestSelftest:
    def test_battery_passes(self, capsys):
        code, out = run_cli(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out
        assert "0 failure(s)" in out
