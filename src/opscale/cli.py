"""Command line interface.

Every subcommand prints one machine-readable JSON report to stdout and uses
a stable exit-code contract:

    0  verdict computed / scaling converged / all checks passed
    2  I/O, validation or precondition errors
    3  scaling diverged (no-support-numerical)
    4  scaling hit the iteration cap (max-iter-inconclusive)
    5  certificate verification failed

``main`` resolves the seed and the tolerances once and hands them to the
subcommand.  ``support``, ``scale`` and ``fnf`` run through one job runner,
``_run``, which is the only writer of ``<prefix>.report.json`` files.  Batch
mode (``--batch``) treats the input path as a directory of ``*.json`` jobs,
runs them one at a time (``--jobs`` is accepted for compatibility), writes
one report per job atomically, and never lets one failing job abort the
rest.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__, fixtures
from .fnf import (BipartiteState, FnfPreconditionFailed, ScalingInconclusive,
                  check_preconditions, compute_fnf, sufficient_conditions,
                  verify_fnf)
from .io import (ValidationError, atomic_write_json, load_json, map_to_obj,
                 matrix_to_obj, obj_to_matrix, parse_map, parse_pattern_matrix,
                 parse_state, state_to_obj, write_json)
from .matcomb import (NonnegPattern, SizeGuardError, has_support,
                      has_support_bruteforce, has_total_support,
                      has_total_support_bruteforce)
from .numkernel import (NumericalFailure, Tolerances, frob, kron, realign,
                        unrealign)
from .posmap import (BlockCertificate, is_doubly_stochastic, pattern_matrix,
                     verify_block_certificate)
from .scaling import (DEFAULT_MAX_ITER, VERDICT_CONVERGED, VERDICT_INCONCLUSIVE,
                      VERDICT_NO_SUPPORT, VERDICT_PRECONDITION,
                      block_commutation_check, ds_slack, run)

_VERDICT_EXIT = {
    VERDICT_CONVERGED: 0,
    VERDICT_NO_SUPPORT: 3,
    VERDICT_INCONCLUSIVE: 4,
    VERDICT_PRECONDITION: 2,
}

# A job or a command that raises one of these exits 2 with an error report.
_REFUSALS = (ValidationError, NumericalFailure)

# Every file a job writes is its prefix plus one of these; _run writes the report.
_FNF_OUTPUTS = (".filters.json", ".state.json", ".schmidt.json", ".report.json")
_OUTPUTS = _FNF_OUTPUTS + (".history.json", ".tilde.json")


def _resolve_seed(args) -> int:
    """The seed of every subcommand: ``OPSCALE_SEED`` over ``--seed``.  A
    negative one is refused here, once, for all of them: numpy's generators
    take none."""
    source, seed = "--seed", args.seed
    env = os.environ.get("OPSCALE_SEED")
    if env is not None:
        source = "OPSCALE_SEED"
        try:
            seed = int(env)
        except ValueError as exc:
            raise ValidationError(f"OPSCALE_SEED must be an integer: {env!r}") from exc
    if seed < 0:
        raise ValidationError(f"{source} must be nonnegative, got {seed}")
    return seed


# The flag that sets each Tolerances field.
_TOLERANCE_FLAGS = {"rank_rel": "--rank-rel", "pd_min": "--pd-min",
                    "conv_eps": "--tol"}


def _tolerances(args) -> Tolerances:
    try:
        return Tolerances(rank_rel=args.rank_rel, pd_min=args.pd_min,
                          conv_eps=args.tol)
    except ValueError as exc:
        # The library names the field first; the user typed the flag.
        field, _, rest = str(exc).partition(" ")
        raise ValidationError(f"{_TOLERANCE_FLAGS.get(field, field)} {rest}") from exc


def _check_run_limits(args) -> None:
    """Refuse the ``--max-iter``, ``--commutation-steps`` and ``--divergence``
    values that would be taken silently: a negative cap stops before the
    first step, a negative step count skips the commutation check, and a NaN
    threshold switches the divergence test off."""
    for flag, value in (("--max-iter", getattr(args, "max_iter", 0)),
                        ("--commutation-steps", getattr(args, "commutation_steps", 0))):
        if value < 0:
            raise ValidationError(f"{flag} must be nonnegative, got {value}")
    divergence = getattr(args, "divergence", None)
    if divergence is not None and math.isnan(divergence):
        raise ValidationError("--divergence must be a number, got nan")


def _envelope(seed: int, tol: Tolerances) -> dict:
    return {
        "version": __version__,
        "seed": seed,
        "tolerances": _to_json(tol),
    }


def _emit(obj) -> None:
    write_json(sys.stdout, obj)


def _to_json(value):
    """The JSON form of a report value.  A dataclass becomes its fields, then
    its own properties, in declaration order; tuples and lists become lists;
    anything else passes through."""
    if dataclasses.is_dataclass(value):
        names = [f.name for f in dataclasses.fields(value)]
        names += [name for name, attr in vars(type(value)).items()
                  if isinstance(attr, property)]
        return {name: _to_json(getattr(value, name)) for name in names}
    if isinstance(value, (tuple, list)):
        return [_to_json(item) for item in value]
    return value


def _add_run_limits(sub):
    sub.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    sub.add_argument("--divergence", type=float, default=None,
                     help="log-determinant divergence threshold (default 50*k*m)")


def _add_common(sub, batch: bool = False):
    sub.add_argument("--seed", type=int, default=42,
                     help="seed for randomized checks (env OPSCALE_SEED overrides)")
    sub.add_argument("--tol", type=float, default=Tolerances().conv_eps,
                     help="convergence threshold for marginal residuals")
    sub.add_argument("--rank-rel", type=float, default=Tolerances().rank_rel,
                     help="relative eigenvalue cutoff for rank decisions")
    sub.add_argument("--pd-min", type=float, default=Tolerances().pd_min,
                     help="relative positive-definiteness floor")
    if batch:
        sub.add_argument("--batch", action="store_true",
                         help="treat the input path as a directory of *.json jobs")
        sub.add_argument("--jobs", type=int, default=4,
                         help="accepted for compatibility; jobs run one at a time")
        sub.add_argument("--out", default=None,
                         help="output directory (batch) or output prefix (fnf)")


# ---------------------------------------------------------------- support

def _support_job(path: str, args, seed: int, tol: Tolerances,
                 prefix: str | None) -> tuple[dict, int]:
    A = parse_pattern_matrix(load_json(path))
    try:
        pattern = NonnegPattern(A, zero_eps=args.zero_eps)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    report = _envelope(seed, tol)
    report.update({"input": path, "k": pattern.k, "m": pattern.m,
                   "zero_eps": pattern.zero_eps})
    tot = has_total_support(pattern) if args.total else None
    sup = tot.support if args.total else has_support(pattern)
    report["support"] = sup.has_support
    report["witness"] = _to_json(sup.witness)
    if args.total:
        report["total_support"] = tot.has_total_support
        report["total_witness"] = _to_json(tot.witness)
        if tot.failing_entry is not None:
            report["total_witness"]["entry"] = list(tot.failing_entry)
    if args.oracle:
        try:
            oracle = {"support": has_support_bruteforce(pattern)}
            if args.total:
                oracle["total_support"] = has_total_support_bruteforce(pattern)
            oracle["agrees"] = (oracle["support"] == sup.has_support
                                and oracle.get("total_support", None)
                                in (None, report.get("total_support")))
            report["oracle"] = oracle
        except SizeGuardError as exc:
            raise ValidationError(str(exc)) from exc
    return report, 0


def cmd_support(args, seed: int, tol: Tolerances) -> int:
    return _run(args, seed, tol, _support_job)


# ------------------------------------------------------------------ scale

def _scaling_obj(report) -> dict:
    # Explicit, not _to_json: the filters have contract names of their own,
    # and ds_map and history are not part of the report.
    obj = {
        "verdict": report.verdict,
        "iterations": report.iterations,
        "in_residual": report.in_residual,
        "out_residual": report.out_residual,
        "logdet": report.logdet,
        "failure_reason": report.failure_reason,
    }
    if report.in_filter is not None:
        obj["input_filter"] = matrix_to_obj(report.in_filter)
        obj["output_filter"] = matrix_to_obj(report.out_filter)
    return obj


def _scale_job(path: str, args, seed: int, tol: Tolerances,
               prefix: str | None) -> tuple[dict, int]:
    # --history names the file; in batch mode it only switches the
    # per-job <prefix>.history.json files on.
    history_path = args.history
    if history_path and prefix is not None:
        history_path = prefix + ".history.json"
    T = parse_map(load_json(path), rng=np.random.default_rng(seed))
    result = run(T, tol, max_iter=args.max_iter,
                 divergence_logdet=args.divergence)
    report = _envelope(seed, tol)
    report.update({"input": path, "k": T.k, "m": T.m})
    report.update(_scaling_obj(result))
    if result.converged:
        check = is_doubly_stochastic(result.ds_map, ds_slack(tol))
        report["ds_check"] = _to_json(check)
    if history_path:
        atomic_write_json(history_path, {"input": path,
                                         "history": _to_json(result.history)})
        report["history_file"] = history_path
    return report, _VERDICT_EXIT[result.verdict]


def cmd_scale(args, seed: int, tol: Tolerances) -> int:
    return _run(args, seed, tol, _scale_job)


# -------------------------------------------------------------------- fnf

def _fnf_job(path: str, args, seed: int, tol: Tolerances,
             prefix: str) -> tuple[dict, int]:
    state = parse_state(load_json(path))
    report = _envelope(seed, tol)
    report.update({"input": path, "k": state.k, "m": state.m})
    report["preconditions"] = _to_json(check_preconditions(state, tol))
    suff = sufficient_conditions(state, tol, run_coprime_scaling=False)

    # Each branch only says how the job ended.  A NumericalFailure carries
    # no scaling report, even after a converged run: no coprime verdict.
    scaling = verification = error = None
    try:
        result = compute_fnf(state, tol, max_iter=args.max_iter,
                             divergence_logdet=args.divergence)
    except FnfPreconditionFailed as exc:
        outcome, error, code = VERDICT_PRECONDITION, str(exc), 2
    except ScalingInconclusive as exc:
        scaling = exc.report
        outcome, code = scaling.verdict, _VERDICT_EXIT[scaling.verdict]
    except NumericalFailure as exc:
        outcome, error, code = "numerical-failure", str(exc), 2
    else:
        scaling = result.scaling_report
        verification = verify_fnf(result, tol, original=state)
        outcome, code = "fnf-computed", 0 if verification.passed else 2

    if suff.coprime and scaling is not None:
        suff = dataclasses.replace(suff, coprime_scaling_verdict=scaling.verdict)
    report["sufficient_conditions"] = _to_json(suff)
    if scaling is not None:
        report["scaling"] = _scaling_obj(scaling)
    if verification is not None:
        report["verification"] = _to_json(verification)
    report["outcome"] = outcome
    if error is not None:
        report["error"] = error
    if verification is None:
        return report, code

    coefficients = [t.coeff for t in result.schmidt]
    report["schmidt_rank"] = len(result.schmidt)
    report["coefficients"] = coefficients

    filters = {"k": state.k, "m": state.m,
               "filter_first": matrix_to_obj(result.filter_first),
               "filter_second": matrix_to_obj(result.filter_second)}
    schmidt = {"k": state.k, "m": state.m, "coefficients": coefficients,
               "first_factors": [matrix_to_obj(t.first) for t in result.schmidt],
               "second_factors": [matrix_to_obj(t.second) for t in result.schmidt]}
    for suffix, obj in zip(_FNF_OUTPUTS, (filters, state_to_obj(result.state_fnf), schmidt)):
        atomic_write_json(prefix + suffix, obj)
    report["files"] = [prefix + suffix for suffix in _FNF_OUTPUTS]
    return report, code


def cmd_fnf(args, seed: int, tol: Tolerances) -> int:
    return _run(args, seed, tol, _fnf_job,
                prefix=args.out or os.path.splitext(args.path)[0])


# ------------------------------------------------------------------ tilde

def cmd_tilde(args, seed: int, tol: Tolerances) -> int:
    T = parse_map(load_json(args.path), rng=np.random.default_rng(seed))
    lifted = T.tilde_lift()
    out = args.out or os.path.splitext(args.path)[0] + ".tilde.json"
    atomic_write_json(out, map_to_obj(lifted))
    report = _envelope(seed, tol)
    report.update({"input": args.path, "output": out,
                   "k": T.k, "m": T.m,
                   "lifted_k": lifted.k, "lifted_m": lifted.m})
    if args.check:
        ra = run(T, tol, max_iter=args.max_iter, divergence_logdet=args.divergence)
        rb = run(lifted, tol, max_iter=args.max_iter)
        report["check"] = {
            "original_verdict": ra.verdict,
            "lifted_verdict": rb.verdict,
            "category_match": ra.verdict == rb.verdict,
        }
    _emit(report)
    return 0


# ------------------------------------------------------------ certificate

def _parse_certificate(obj) -> BlockCertificate:
    if not isinstance(obj, dict):
        raise ValidationError("certificate must be a JSON object")
    for field in ("input_projectors", "output_projectors"):
        if field not in obj or not isinstance(obj[field], list) or not obj[field]:
            raise ValidationError(f'certificate needs a nonempty "{field}" list')
    try:
        return BlockCertificate(
            tuple(obj_to_matrix(o) for o in obj["input_projectors"]),
            tuple(obj_to_matrix(o) for o in obj["output_projectors"]))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def cmd_certificate(args, seed: int, tol: Tolerances) -> int:
    rng = np.random.default_rng(seed)
    T = parse_map(load_json(args.map), rng=rng)
    cert = _parse_certificate(load_json(args.cert))
    try:
        result = verify_block_certificate(T, cert, tol=tol, rng=rng)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    report = _envelope(seed, tol)
    report.update({"map": args.map, "certificate": args.cert})
    report.update(_to_json(result))
    passed = result.passed
    if args.commutation_steps > 0:
        comm = block_commutation_check(T, cert, n_steps=args.commutation_steps,
                                       tol=tol)
        report["commutation"] = _to_json(comm)
        passed = passed and comm.passed
    _emit(report)
    return 0 if passed else 5


# --------------------------------------------------------------- selftest

def _selftest_checks(seed: int, tol: Tolerances):
    rng = np.random.default_rng(seed)

    def check_realign_round_trip():
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        return np.array_equal(unrealign(realign(M, 2, 3), 2, 3), M)

    def check_boundary_pattern():
        pat = NonnegPattern(np.array([[0.0, 1.0], [1.0, 1.0]]))
        return (has_support(pat).has_support
                and not has_total_support(pat).has_total_support
                and has_support_bruteforce(pat)
                and not has_total_support_bruteforce(pat))

    def check_boundary_scaling():
        strict = Tolerances(conv_eps=1e-8)
        rep = run(fixtures.boundary_map(), strict, max_iter=5000)
        return rep.converged and is_doubly_stochastic(
            rep.ds_map, ds_slack(strict)).is_doubly_stochastic

    def check_no_support_divergence():
        rep = run(fixtures.no_support_map(), tol)
        return rep.verdict == VERDICT_NO_SUPPORT

    def check_ds_fixed_point():
        rep = run(fixtures.trace_ds_map(2, 3), tol)
        return rep.converged and rep.iterations <= 1

    def check_fnf_maximally_mixed():
        state = BipartiteState(2, 2, fixtures.maximally_mixed_state(2, 2))
        result = compute_fnf(state, tol)
        return (len(result.schmidt) == 1
                and abs(result.schmidt[0].coeff - 0.5) < 1e-12)

    def check_fnf_max_entangled():
        state = BipartiteState(2, 2, fixtures.max_entangled_state(2))
        result = compute_fnf(state, tol)
        coeffs = [t.coeff for t in result.schmidt]
        return (len(coeffs) == 4
                and max(abs(c - 0.5) for c in coeffs) < 1e-9
                and verify_fnf(result, tol, original=state).passed)

    def check_tilde_identity():
        T = fixtures.random_cp_map(2, 3, rng)
        lifted = T.tilde_lift()
        lhs = lifted.apply(np.eye(6, dtype=complex))
        rhs = kron(T.apply(3.0 * np.eye(2, dtype=complex)), np.eye(2))
        return frob(lhs - rhs) < 1e-10

    def check_json_layout():
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        M[0, 0] = M[0, 0].real
        report = _envelope(seed, tol)
        report.update({"matrix": matrix_to_obj(M), "files": [], "passed": True})
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report.json")
            atomic_write_json(path, report)
            with open(path, encoding="utf-8") as fh:
                return fh.read() == json.dumps(report, indent=2) + "\n"

    def check_canonical_pattern():
        pat = pattern_matrix(fixtures.boundary_map(), np.eye(2, dtype=complex),
                             np.eye(2, dtype=complex))
        mask = pat.nonzero_mask()
        return (not mask[0, 0]) and mask[0, 1] and mask[1, 0] and mask[1, 1]

    return [
        ("realign round trip", check_realign_round_trip),
        ("boundary pattern support/total verdicts", check_boundary_pattern),
        ("boundary map scaling converges to doubly stochastic", check_boundary_scaling),
        ("no-support fixture diverges", check_no_support_divergence),
        ("doubly stochastic input is a fixed point", check_ds_fixed_point),
        ("maximally mixed state has a single factor", check_fnf_maximally_mixed),
        ("maximally entangled state has four equal factors", check_fnf_max_entangled),
        ("square lift evaluation identity", check_tilde_identity),
        ("canonical pattern of the boundary map", check_canonical_pattern),
        ("JSON writer matches the standard library layout", check_json_layout),
    ]


def cmd_selftest(args, seed: int, tol: Tolerances) -> int:
    failures = 0
    for name, fn in _selftest_checks(seed, tol):
        try:
            ok = bool(fn())
        except Exception as exc:  # a selftest must never abort the battery
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        print(f"[{'ok' if ok else 'FAIL'}] {name}")
        if not ok:
            failures += 1
    print(f"{failures} failure(s)")
    return 0 if failures == 0 else 1


# ------------------------------------------------------------------ runner

def _run(args, seed: int, tol: Tolerances, job, prefix: str | None = None) -> int:
    """Run ``job(path, args, seed, tol, prefix)`` on ``args.path`` and print
    its report, or with ``--batch`` run it on every input of that directory
    and print a summary.  A job returns ``(report, exit code)``; this is the
    only writer of ``<prefix>.report.json``, once per job, after it returns.
    One file: ``prefix`` is the caller's (``None`` writes no report file and
    refuses ``--out``, which only batch mode reads) and errors reach
    ``main``.  Batch: the output directory (``--out``, default the input
    directory) is made once, each job's prefix is ``<outdir>/<stem>``, and a
    job that raises gets an error report.
    """
    if not args.batch:
        if prefix is None and args.out is not None:
            raise ValidationError(f"{args.command} --out needs --batch")
        report, code = job(args.path, args, seed, tol, prefix)
        if prefix is not None:
            atomic_write_json(prefix + ".report.json", report)
        _emit(report)
        return code
    if not os.path.isdir(args.path):
        raise ValidationError(f"--batch expects a directory, got {args.path!r}")
    inputs = sorted(p for p in glob.glob(os.path.join(args.path, "*.json"))
                    if not p.endswith(_OUTPUTS))
    if not inputs:
        raise ValidationError(f"no *.json inputs found in {args.path!r}")
    outdir = args.out or args.path
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {outdir}: {exc}") from exc

    rows = []
    for path in inputs:
        prefix = os.path.join(outdir, os.path.splitext(os.path.basename(path))[0])
        try:
            report, code = job(path, args, seed, tol, prefix)
        except _REFUSALS as exc:
            report, code = {"input": path, "error": str(exc)}, 2
        except Exception as exc:  # defensive: one job must not kill the batch
            report, code = {"input": path,
                            "error": f"{type(exc).__name__}: {exc}"}, 2
        report_path = prefix + ".report.json"
        atomic_write_json(report_path, report)
        rows.append({"input": path, "exit_code": code, "report": report_path,
                     "error": report.get("error")})
    summary = _envelope(seed, tol)
    summary.update({
        "batch_dir": args.path,
        "jobs": len(rows),
        "failed": sum(1 for r in rows if r["exit_code"] != 0),
        "results": rows,
    })
    _emit(summary)
    return 0


# ------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opscale",
        description="Support certificates, operator Sinkhorn scaling and "
                    "filter normal forms for positive maps and bipartite states.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("support", help="decide support / total support of a "
                                       "nonnegative matrix file")
    p.add_argument("path", help="matrix file (or directory with --batch)")
    p.add_argument("--total", action="store_true", help="also decide total support")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check with the exhaustive oracle (small sizes)")
    p.add_argument("--zero-eps", type=float, default=0.0,
                   help="entries at or below this count as structural zeros")
    _add_common(p, batch=True)
    p.set_defaults(func=cmd_support)

    p = sub.add_parser("scale", help="run the scaling loop on a map file")
    p.add_argument("path", help="map file (or directory with --batch)")
    _add_run_limits(p)
    p.add_argument("--history", default=None,
                   help="write per-iteration residual history to this file")
    _add_common(p, batch=True)
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("fnf", help="compute the filter normal form of a state file")
    p.add_argument("path", help="state file (or directory with --batch)")
    _add_run_limits(p)
    _add_common(p, batch=True)
    p.set_defaults(func=cmd_fnf)

    p = sub.add_parser("tilde", help="write the square lift of a map")
    p.add_argument("path", help="map file")
    p.add_argument("--out", default=None, help="output map file")
    p.add_argument("--check", action="store_true",
                   help="also scale the map and its lift and compare verdicts")
    _add_run_limits(p)
    _add_common(p)
    p.set_defaults(func=cmd_tilde)

    p = sub.add_parser("certificate", help="verify a block certificate against a map")
    p.add_argument("map", help="map file")
    p.add_argument("cert", help="certificate file")
    p.add_argument("--commutation-steps", type=int, default=0,
                   help="also run this many scaling steps checking projector "
                        "commutation")
    _add_common(p)
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("selftest", help="run the built-in fixture battery")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


# Built once, not per call: parsing leaves it unchanged.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        _check_run_limits(args)
        return args.func(args, _resolve_seed(args), _tolerances(args))
    except _REFUSALS as exc:
        _emit({"version": __version__, "error": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
