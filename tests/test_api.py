"""The public API: the names ``opscale`` exports, the parameters of its
functions, the names and parameters of ``opscale.io``, the modules its
command line loads, and README's library and command-line examples.  A
change here is a change of the behavioural boundary and should be made on
purpose."""

import argparse
import inspect
import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np

import opscale
import opscale.cli
import opscale.io
from opscale import fixtures
from opscale.fnf import BipartiteState
from opscale.io import atomic_write_json, map_to_obj, matrix_to_obj, state_to_obj

PUBLIC_NAMES = [
    "BipartiteState", "BlockCertificate", "CertificateCondition",
    "CertificateReport", "ChoiMap", "ConditionCheck",
    "DEFAULT_TOL", "DsCheck", "FnfCheck",
    "FnfPreconditionFailed", "FnfResult", "FnfVerification",
    "IterationRecord", "MarginalCheck", "NonnegPattern", "NotPositiveDefinite",
    "NumericalFailure", "PositivityViolation", "PreconditionFailed",
    "PreconditionReport", "ScalingInconclusive", "ScalingReport",
    "ScalingState", "SchmidtTerm", "SizeGuardError", "SufficientReport",
    "SupportResult", "Tolerances", "TotalSupportResult", "VERDICT_CONVERGED",
    "VERDICT_INCONCLUSIVE", "VERDICT_NO_SUPPORT", "VERDICT_PRECONDITION",
    "ZeroFractionReport", "ZeroSubmatrixWitness", "__version__",
    "check_preconditions", "compute_fnf", "frob",
    "from_state", "haar_unitary", "has_support", "has_support_bruteforce",
    "has_total_support", "has_total_support_bruteforce", "hermitian_part",
    "init", "invariance_defect", "is_doubly_stochastic", "kernel_dim", "kron",
    "partial_trace_first", "partial_trace_second", "pattern_matrix",
    "realign", "run", "step",
    "sufficient_conditions", "unrealign", "verify_block_certificate",
    "verify_fnf", "zero_fraction_sufficient",
]

FUNCTION_PARAMETERS = {
    "check_preconditions": ["state", "tol"],
    "compute_fnf": ["state", "tol", "max_iter", "divergence_logdet"],
    "frob": ["M"],
    "from_state": ["rho", "k", "m"],
    "haar_unitary": ["dim", "rng"],
    "has_support": ["pattern"],
    "has_support_bruteforce": ["pattern"],
    "has_total_support": ["pattern"],
    "has_total_support_bruteforce": ["pattern"],
    "hermitian_part": ["M"],
    "init": ["T", "tol"],
    "invariance_defect": ["T", "cert"],
    "is_doubly_stochastic": ["T", "eps"],
    "kernel_dim": ["H", "tol"],
    "kron": ["A", "B"],
    "partial_trace_first": ["M", "k", "m"],
    "partial_trace_second": ["M", "k", "m"],
    "pattern_matrix": ["T", "basis_in", "basis_out"],
    "realign": ["M", "k", "m"],
    "run": ["T", "tol", "max_iter", "divergence_logdet", "keep_history"],
    "step": ["state", "T", "tol"],
    "sufficient_conditions": ["state", "tol", "scaling_report"],
    "unrealign": ["R", "k", "m"],
    "verify_block_certificate": ["T", "cert", "tol", "rng"],
    "verify_fnf": ["result", "tol", "original"],
    "zero_fraction_sufficient": ["pattern"],
}

# opscale.io is not re-exported, but its names are called from outside the
# package: the command line calls them all, and the benchmark's inputs,
# checks and tracer call load_json, obj_to_matrix, matrix_to_obj,
# atomic_write_json and parse_map by name.
IO_CLASSES = ["ValidationError"]
IO_FUNCTION_PARAMETERS = {
    "atomic_write_json": ["path", "obj"],
    "load_json": ["path"],
    "map_to_obj": ["T"],
    "matrix_to_obj": ["M"],
    "obj_to_matrix": ["obj"],
    "parse_map": ["obj"],
    "parse_pattern_matrix": ["obj"],
    "parse_state": ["obj"],
    "state_to_obj": ["state"],
    "write_json": ["fh", "obj"],
}

# numpy is the one runtime dependency; these are installed only for tests.
TEST_ONLY_PACKAGES = ("scipy", "networkx", "hypothesis", "pytest")


def test_exported_names():
    assert sorted(opscale.__all__) == PUBLIC_NAMES


def test_function_parameters():
    functions = {name: getattr(opscale, name) for name in opscale.__all__
                 if inspect.isfunction(getattr(opscale, name))}
    assert {name: list(inspect.signature(f).parameters)
            for name, f in functions.items()} == FUNCTION_PARAMETERS


def test_io_surface():
    public = {name: value for name, value in vars(opscale.io).items()
              if not name.startswith("_")
              and getattr(value, "__module__", None) == opscale.io.__name__}
    assert sorted(name for name, value in public.items()
                  if inspect.isclass(value)) == IO_CLASSES
    assert {name: list(inspect.signature(f).parameters)
            for name, f in public.items()
            if inspect.isfunction(f)} == IO_FUNCTION_PARAMETERS


def run_python(*args, cwd=None):
    """The interpreter on ``args``, in a child process that imports this
    checkout's opscale."""
    src = os.path.dirname(os.path.dirname(opscale.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, cwd=cwd, env={**os.environ, "PYTHONPATH": path})


def test_the_command_line_loads_no_test_only_package():
    proc = run_python(
        "-c", "import json, sys, opscale.cli; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert [name for name in loaded
            if name.split(".")[0] in TEST_ONLY_PACKAGES] == []


def read_readme():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        return fh.read()


def test_readme_python_examples_run(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", read_readme(), re.S | re.M)
    assert blocks
    for block in blocks:
        proc = run_python("-W", "error", "-c", block, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, ""), block


# README's exit code of a report, by subcommand.
_SCALING_EXIT = {"converged-ds": 0, "no-support-numerical": 3,
                 "max-iter-inconclusive": 4, "precondition-failed": 2}
_OUTCOME_EXIT = {
    "support": lambda rep: 0,
    "scale": lambda rep: _SCALING_EXIT[rep["verdict"]],
    "fnf": lambda rep: (0 if rep["verification"]["passed"] else 2)
    if rep["outcome"] == "fnf-computed" else _SCALING_EXIT.get(rep["outcome"], 2),
    "tilde": lambda rep: 0,
    "certificate": lambda rep: 0 if rep["passed"] else 5,
}


def test_readme_shell_examples_run(tmp_path):
    """Each ``opscale`` line of README's command-line block, run in a
    directory holding the files it names and the ``results/`` directory it
    writes into, exits with the code README's table gives its outcome and
    prints one JSON report (``selftest``: its ``[ok]`` lines) and nothing on
    stderr."""
    readme = read_readme()
    table = {int(code) for code in re.findall(r"^\| (\d+) \|", readme, re.M)}
    lines = [line for block in re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M)
             for line in block.splitlines() if line.startswith("opscale ")]
    assert {line.split()[1] for line in lines} == {*_OUTCOME_EXIT, "selftest"}

    T = fixtures.boundary_map()
    rho = fixtures.random_state_matrix(2, 3, np.random.default_rng(0))
    inputs = {
        "pattern.json": matrix_to_obj(np.array([[0.0, 1.0], [1.0, 1.0]])),
        "map.json": map_to_obj(T),
        "state.json": state_to_obj(BipartiteState(2, 3, rho)),
        "cert.json": {"input_projectors": [matrix_to_obj(np.eye(T.k))],
                      "output_projectors": [matrix_to_obj(np.eye(T.m))]},
    }
    for name, obj in inputs.items():
        atomic_write_json(str(tmp_path / name), obj)
    (tmp_path / "results").mkdir()

    for line in lines:
        command = shlex.split(line)[1:]
        proc = run_python("-W", "error", "-m", "opscale.cli", *command, cwd=tmp_path)
        assert proc.stderr == "", line
        assert proc.returncode in table, line
        if command[0] == "selftest":
            assert proc.returncode == 0, line
            assert proc.stdout.endswith("0 failure(s)\n")
            assert all(out.startswith("[ok] ") for out in proc.stdout.splitlines()[:-1])
            continue
        rep = json.loads(proc.stdout)
        assert proc.returncode == _OUTCOME_EXIT[command[0]](rep), line


def test_readme_flags_match_the_parser():
    """Every ``--flag`` that README's "Command line" section names is an
    option of some subcommand, and every option of every subcommand is
    named there."""
    section = re.search(r"^## Command line\n(.*?)^## ", read_readme(), re.S | re.M).group(1)
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    parser = opscale.cli.build_parser()
    (subcommands,) = [action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction)]
    options = {option for sub in subcommands.choices.values() for action in sub._actions
               for option in action.option_strings if option.startswith("--")}
    assert named == options - {"--help"}
