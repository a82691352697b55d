"""Spans around calls into opscale's layers, recorded from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper at every
place the function object is bound: the defining module, every opscale
module that imported it by name, and the package namespace.  ``ChoiMap``
methods are replaced on the class.  ``uninstall()`` puts the originals back.

A wrapper records a span only while an op is open (``Tracer.op``), so the
harness's own checks between ops leave no spans.  A span is the tuple

    (name, start, end, span_id, parent_id, thread_id, op_id, extra)

with ``parent_id`` the innermost open span of the same thread (``None`` for
the first span of a worker thread) and ``extra`` a small per-layer value
(entries decoded, bytes written, the verdict a run returned, ...).  Spans
stay in memory; ``write_spans`` dumps them as JSON lines at the end.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

# (span name, module that defines it, attribute, what ``extra`` records)
_FUNCTIONS = [
    ("io.load_json", "opscale.io", "load_json", None),
    ("io.decode", "opscale.io", "obj_to_matrix", lambda args, result: int(result.size)),
    ("io.encode", "opscale.io", "matrix_to_obj", lambda args, result: len(result["data"])),
    ("io.write", "opscale.io", "atomic_write_json",
     lambda args, result: os.path.getsize(args[0])),
    ("posmap.ds_check", "opscale.posmap", "is_doubly_stochastic", None),
    ("scaling.run", "opscale.scaling", "run", lambda args, result: result.verdict),
    ("scaling.init", "opscale.scaling", "init", None),
    ("scaling.step", "opscale.scaling", "step", None),
    ("numkernel.herm_eig", "opscale.numkernel", "herm_eig", None),
    ("numkernel.svd", "opscale.numkernel", "svd", None),
    ("numkernel.kron", "opscale.numkernel", "kron", None),
    ("matcomb.has_support", "opscale.matcomb", "has_support", None),
    ("matcomb.has_total_support", "opscale.matcomb", "has_total_support",
     lambda args, result: int(args[0].nonzero_mask().sum())),
    ("fnf.preconditions", "opscale.fnf", "check_preconditions", None),
    ("fnf.sufficient", "opscale.fnf", "sufficient_conditions", None),
    ("fnf.compute", "opscale.fnf", "compute_fnf", lambda args, result: len(result.schmidt)),
    ("fnf.verify", "opscale.fnf", "verify_fnf", None),
    ("cli.main", "opscale.cli", "main", None),
]

_METHODS = [
    ("posmap.construct", "__init__"),
    ("posmap.apply", "apply"),
    ("posmap.apply_adjoint", "apply_adjoint"),
    ("posmap.conjugated", "conjugated"),
    ("posmap.tilde_lift", "tilde_lift"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id: int | None = None
        self._ids = itertools.count(1)   # next() on a count is atomic under the GIL
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Attribute every span started until exit to ``op_id``."""
        self.op_id = op_id
        try:
            yield
        finally:
            self.op_id = None

    def _wrap(self, name, fn, extra_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op_id = tracer.op_id
            if op_id is None:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((name, start, end, span_id, parent,
                                     threading.get_ident(), op_id,
                                     f"raised {type(exc).__name__}"))
                raise
            end = time.perf_counter()
            stack.pop()
            extra = extra_of(args, result) if extra_of else None
            tracer.spans.append((name, start, end, span_id, parent,
                                 threading.get_ident(), op_id, extra))
            return result

        return wrapper

    def install(self):
        modules = [mod for key, mod in sys.modules.items()
                   if key == "opscale" or key.startswith("opscale.")]
        for name, module, attr, extra_of in _FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, extra_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        choi_map = sys.modules["opscale.posmap"].ChoiMap
        for name, attr in _METHODS:
            original = choi_map.__dict__[attr]
            self._patched.append((choi_map, attr, original))
            setattr(choi_map, attr, self._wrap(name, original, None))

    def uninstall(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def write_spans(self, path: str):
        fields = ("name", "start", "end", "id", "parent", "thread", "op", "extra")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


# --------------------------------------------------------------- analysis

VERDICTS = ("converged-ds", "no-support-numerical", "max-iter-inconclusive",
            "precondition-failed")


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans, n_ops: int, main_thread: int) -> dict[str, float]:
    """Per-layer figures from the spans of ``n_ops`` traced CLI invocations.

    Times (``.s``) and counts are per op; ratios say what they divide.
    """
    by_id = {s[3]: s for s in spans}
    total_s = defaultdict(float)
    calls = defaultdict(int)
    extra_sum = defaultdict(int)
    for s in spans:
        total_s[s[0]] += s[2] - s[1]
        calls[s[0]] += 1
        if isinstance(s[7], int):
            extra_sum[s[0]] += s[7]

    def enclosing(span, names):
        parent = span[4]
        while parent is not None:
            p = by_id[parent]
            if p[0] in names:
                return p
            parent = p[4]
        return None

    # Scaling: which run each step belongs to, and what each step called.
    run_outcome = {s[3]: s[7] for s in spans if s[0] == "scaling.run"}
    steps = useful = applies_in_steps = eigs_in_steps = 0
    for s in spans:
        if s[0] == "scaling.step":
            steps += 1
            run = enclosing(s, ("scaling.run",))
            if run is not None and run_outcome[run[3]] == "converged-ds":
                useful += 1
        elif s[0] in ("posmap.apply", "posmap.apply_adjoint", "numkernel.herm_eig"):
            if enclosing(s, ("scaling.step",)) is not None:
                if s[0] == "numkernel.herm_eig":
                    eigs_in_steps += 1
                else:
                    applies_in_steps += 1

    # CLI: self time of main, and how busy the batch worker threads were.
    ops = defaultdict(list)
    for s in spans:
        ops[s[6]].append(s)
    main_self = batch_busy = batch_wall = 0.0
    for members in ops.values():
        mains = [s for s in members if s[0] == "cli.main"]
        if not mains:
            continue
        main = mains[0]
        covered = [(s[1], s[2]) for s in members
                   if s[4] == main[3] or (s[4] is None and s is not main)]
        main_self += (main[2] - main[1]) - _union_length(covered)
        workers = [s for s in members if s[4] is None and s[5] != main_thread]
        if workers:
            batch_wall += main[2] - main[1]
            batch_busy += sum(s[2] - s[1] for s in workers)

    failed_runs = sum(1 for outcome in run_outcome.values()
                      if isinstance(outcome, str) and outcome.startswith("raised"))
    n = max(n_ops, 1)
    out = {}
    for key in ("io.load_json", "io.decode", "io.encode", "io.write",
                "posmap.construct", "posmap.conjugated", "posmap.ds_check",
                "posmap.apply", "posmap.apply_adjoint", "posmap.tilde_lift",
                "scaling.run", "scaling.init", "scaling.step",
                "numkernel.herm_eig", "numkernel.svd", "numkernel.kron",
                "matcomb.has_support", "matcomb.has_total_support",
                "fnf.preconditions", "fnf.sufficient", "fnf.compute", "fnf.verify"):
        out[f"{key}.s"] = total_s[key] / n
    for key in ("posmap.construct", "posmap.apply", "posmap.apply_adjoint",
                "numkernel.herm_eig", "matcomb.has_support", "fnf.preconditions"):
        out[f"{key}.calls"] = calls[key] / n
    out["io.decode.entries"] = extra_sum["io.decode"] / n
    out["io.encode.entries"] = extra_sum["io.encode"] / n
    out["io.write.bytes"] = extra_sum["io.write"] / n
    out["scaling.steps"] = steps / n
    out["scaling.applies_per_step"] = applies_in_steps / steps if steps else 0.0
    out["scaling.eigs_per_step"] = eigs_in_steps / steps if steps else 0.0
    out["scaling.useful_step_ratio"] = useful / steps if steps else 0.0
    out["scaling.failed"] = failed_runs / n
    for verdict in VERDICTS:
        out[f"scaling.verdict.{verdict}"] = sum(
            1 for v in run_outcome.values() if v == verdict) / n
    out["matcomb.nonzeros"] = extra_sum["matcomb.has_total_support"] / n
    nonzeros = extra_sum["matcomb.has_total_support"]
    out["matcomb.total_support.us_per_nonzero"] = (
        1e6 * total_s["matcomb.has_total_support"] / nonzeros if nonzeros else 0.0)
    out["fnf.schmidt_terms"] = extra_sum["fnf.compute"] / n
    out["cli.main.self_s"] = main_self / n
    out["cli.batch.parallelism"] = batch_busy / batch_wall if batch_wall else 0.0
    return out
