"""Output checks, run after each timed CLI invocation and outside its timing.

``check_job`` returns one ``(file, error)`` pair per input file of the job,
with ``error`` None when the file's output passed.  Expected outcomes come
from the manifest written at set-up, never from the program.
"""

from __future__ import annotations

import json
import os

import numpy as np

try:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow
except ImportError:  # the max-flow cross-check is skipped without scipy
    maximum_flow = None


class Checker:
    def __init__(self, opscale, workdir: str):
        self.opscale = opscale
        self.workdir = workdir
        self._patterns: dict[str, np.ndarray] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def check_job(self, job, code, stdout, error):
        files = job["files"]
        if error is not None:
            return [(f, f"exception escaped main: {error}") for f in files]
        expect = job["expect"]
        if code not in expect["exit"]:
            return [(f, f"exit code {code} not in {expect['exit']}: "
                        f"{_report_error(stdout)}") for f in files]
        try:
            report = json.loads(stdout)
        except ValueError as exc:
            return [(f, f"stdout is not one JSON report: {exc}") for f in files]
        command = job["argv"][0]
        if command == "fnf":
            return self._fnf_batch(expect, report)
        check = {"scale": self._scale, "support": self._support,
                 "tilde": self._tilde}[command]
        return [(files[0], check(files[0], expect, report))]

    def _scale(self, name, expect, report):
        if report.get("verdict") != expect["verdict"]:
            return f"verdict {report.get('verdict')!r}, expected {expect['verdict']!r}"
        if expect["verdict"] == "converged-ds":
            ds = report.get("ds_check") or {}
            if ds.get("is_doubly_stochastic") is not True:
                return f"converged map fails the doubly stochastic check: {ds}"
        return None

    def pattern(self, name) -> np.ndarray:
        """The 0/1 pattern as written, decoded without opscale."""
        if name not in self._patterns:
            with open(self.path(name), encoding="utf-8") as fh:
                obj = json.load(fh)
            self._patterns[name] = np.array(obj["data"], dtype=float).reshape(
                obj["rows"], obj["cols"])
        return self._patterns[name]

    def _support(self, name, expect, report):
        for field in ("support", "total_support"):
            if report.get(field) is not expect[field]:
                return f"{field} {report.get(field)!r}, expected {expect[field]!r}"
        A = self.pattern(name)
        matcomb = self.opscale.matcomb
        pattern = matcomb.NonnegPattern(A)
        for verdict, field in (("support", "witness"), ("total_support", "total_witness")):
            if report[verdict]:
                continue
            w = report.get(field)
            if not w:
                return f"refusal of {verdict} carries no {field}"
            witness = matcomb.ZeroSubmatrixWitness(
                tuple(w["alpha"]), tuple(w["beta"]), w["weight"], w["tight_violation"])
            if not witness.check(pattern):
                return f"{field} does not re-verify against the pattern: {w}"
        if maximum_flow is not None and _max_flow_support(A) != report["support"]:
            return "support verdict disagrees with scipy maximum_flow"
        return None

    def _tilde(self, name, expect, report):
        io = self.opscale.io
        lifted = io.parse_map(io.load_json(self.path(expect["output"])))
        n = expect["lifted"]
        if (lifted.k, lifted.m) != (n, n) or (report.get("lifted_k"), report.get("lifted_m")) != (n, n):
            return (f"lifted map is {lifted.k}x{lifted.m} (report "
                    f"{report.get('lifted_k')}x{report.get('lifted_m')}), expected {n}x{n}")
        return None

    def _fnf_batch(self, expect, summary):
        rows = {os.path.relpath(r["input"], self.workdir): r
                for r in summary.get("results", [])}
        out = []
        for item in expect["batch"]:
            row = rows.get(item["file"])
            error = ("missing from the batch summary" if row is None
                     else self._fnf_row(item, row))
            out.append((item["file"], error))
        return out

    def _fnf_row(self, item, row):
        if row["exit_code"] not in item["exit"]:
            return f"exit code {row['exit_code']} not in {item['exit']}: {row.get('error')}"
        with open(row["report"], encoding="utf-8") as fh:
            report = json.load(fh)
        if report.get("outcome") != item["outcome"]:
            return (f"outcome {report.get('outcome')!r}, expected {item['outcome']!r}: "
                    f"{report.get('error')}")
        if item["outcome"] == "fnf-computed":
            if (report.get("verification") or {}).get("passed") is not True:
                return "filter normal form fails its verification"
        return None


def _report_error(stdout: str):
    try:
        return json.loads(stdout).get("error")
    except (ValueError, AttributeError):
        return stdout[-200:]


def _max_flow_support(A: np.ndarray) -> bool:
    """Support of the lifted pattern by scipy's max-flow on the network the
    program uses: source -> row (capacity m), row -> column for each nonzero
    (capacity k*m + 1), column -> sink (capacity k)."""
    k, m = A.shape
    source, sink = 0, k + m + 1
    rows_i, cols_j = np.nonzero(A > 0)
    tails = np.concatenate([np.zeros(k, int), 1 + rows_i, 1 + k + np.arange(m)])
    heads = np.concatenate([1 + np.arange(k), 1 + k + cols_j, np.full(m, sink)])
    caps = np.concatenate([np.full(k, m), np.full(len(rows_i), k * m + 1),
                           np.full(m, k)]).astype(np.int32)
    graph = csr_matrix((caps, (tails, heads)), shape=(k + m + 2, k + m + 2))
    return int(maximum_flow(graph, source, sink).flow_value) == k * m
