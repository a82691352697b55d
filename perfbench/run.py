"""Seeded benchmark of the opscale command line tool.

    python3 perfbench/run.py --workload scale-hard --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run sets up a workload's inputs from the seed (five times in separate
processes, for the set-up time; once with ``--trace 1``), then drives
``opscale.cli.main(argv)`` in-process: a closed loop with one client, stdout
captured, each invocation timed alone and its output checked after the
timer stops.  Whole passes over the workload's jobs repeat until
``--seconds`` have passed and the tail percentile has ten samples beyond it.
The gated times are scaled to a nominal machine speed (speed.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (see
tracing.py) plus the tracing overhead.  The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the full
results go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

# One BLAS thread per process, set before numpy loads: on a small machine a
# multi-threaded BLAS brings no speed-up at these sizes, only jitter, and the
# batch pool runs its own thread.  Set-up processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import inputs  # noqa: E402  (imports numpy)
import speed  # noqa: E402

ROOT = os.path.dirname(inputs.BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SETUP_REPETITIONS = 5
WARMUP = -1   # pass index of the untimed warm-up pass of a traced run
# Worker threads of the timed fnf batch.  With --jobs nproc (2 here), most
# likely because its two workers take turns on the GIL across the machine's
# two virtual CPUs, the batch's time doubled for minutes at a time while
# single-threaded code slowed by a tenth; the pool gives no speed-up anyway
# (compare_jobs, in the traced run).
BATCH_JOBS = 1

# Why each workload exists, and the percentile its op_tail_s reports.
WORKLOADS = {
    "scale-load": (80, "large map files converge in 4-6 steps, so JSON decoding "
                       "and map construction dominate and scaling barely shows"),
    "scale-hard": (90, "tiny maps near the scalability boundary take 50-1100 "
                       "steps, so the scaling step, apply/adjoint and herm_eig "
                       "dominate and io does almost nothing"),
    "support-total": (90, "support --total on 40x30 to 100x80 patterns is pure "
                          "matcomb, so it must stay flat under numeric changes"),
    "fnf-batch": (70, "the only user of compute_fnf/verify_fnf and the batch "
                      "thread pool, and of io on the write side (tilde lifts)"),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def min_samples(tail_pct: int) -> int:
    """Fewest samples that leave ten beyond the tail percentile."""
    return math.ceil(1000 / (100 - tail_pct))


def blas_info() -> dict:
    """The BLAS numpy was built with and the threads it runs here."""
    import ctypes
    import glob
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def set_up(workload: str, seed: int, workdir: str,
           repetitions: int) -> list[tuple[float, float]]:
    """Write the inputs ``repetitions`` times, each in a fresh process that
    imports opscale; return (scaled, wall) seconds of each.  The scaled time
    leaves out the process's own speed samples and is scaled by their mean."""
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(inputs.BENCH_DIR, "inputs.py"),
             workload, str(seed), workdir],
            capture_output=True, text=True, timeout=150)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        ref = json.loads(proc.stdout.strip().splitlines()[-1])
        scaled = ((wall - ref["reference_s"]) * speed.NOMINAL_S
                  / statistics.fmean(ref["references"]))
        times.append((scaled, wall))
    return times


# ------------------------------------------------------------------- loop

def invoke(cli, argv):
    """One CLI invocation: (seconds, exit code, stdout, escaped exception)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        error = None
    except (Exception, SystemExit) as exc:  # escaping main fails the job
        code, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, buf.getvalue(), error


class Loop:
    """Runs jobs one at a time, checks each output, keeps one record each."""

    def __init__(self, opscale, checker, jobs, workdir, tracer=None):
        self.cli = opscale.cli
        self.checker = checker
        self.jobs = jobs
        self.workdir = workdir
        self.tracer = tracer
        self.records = []
        self.traced_ops = 0

    def run_job(self, index, pass_index=None, traced=False, jobs_flag=None):
        job = self.jobs[index]
        argv = [a.format(dir=self.workdir, jobs=jobs_flag or BATCH_JOBS)
                for a in job["argv"]]
        # Each invocation starts with the garbage of the last one collected and
        # the harness's own objects frozen out of the collector's way.
        gc.collect()
        gc.freeze()
        ref = speed.reference()
        if traced:
            self.traced_ops += 1
            with self.tracer.op(self.traced_ops):
                duration, code, stdout, error = invoke(self.cli, argv)
        else:
            duration, code, stdout, error = invoke(self.cli, argv)
        results = self.checker.check_job(job, code, stdout, error)
        record = {"job": index, "shape": job["shape"], "group": job["group"],
                  "pass": pass_index, "traced": traced, "duration": duration,
                  "ref": ref, "files": len(job["files"]),
                  "errors": [(f, e) for f, e in results if e is not None]}
        self.records.append(record)
        return record

    def run_pass(self, pass_index, traced=False):
        if traced:
            self.tracer.install()
        try:
            for index in range(len(self.jobs)):
                self.run_job(index, pass_index, traced)
        finally:
            if traced:
                self.tracer.uninstall()

    def scale(self):
        """Give each record its duration at the nominal machine speed."""
        refs = speed.local_medians([r["ref"] for r in self.records])
        for r, local in zip(self.records, refs):
            r["scaled"] = r["duration"] * speed.NOMINAL_S / local

    def timed(self, traced=False):
        """Records that count for timing: timed jobs of measured passes."""
        return [r for r in self.records if r["group"] == "timed"
                and r["pass"] not in (None, WARMUP) and r["traced"] == traced]


def tally(records) -> dict:
    counts = {}
    for r in records:
        for f, e in r["errors"]:
            counts[(f, e)] = counts.get((f, e), 0) + 1
    return {"attempted": sum(r["files"] for r in records),
            "failed": sum(len(r["errors"]) for r in records),
            "failures": [{"file": f, "error": e, "count": c}
                         for (f, e), c in sorted(counts.items())]}


def group(records, key: str) -> dict:
    groups = {}
    for r in records:
        groups.setdefault(r[key], []).append(r)
    return groups


def end_to_end(records, tail_pct: int, setup_times) -> dict:
    """The gated metrics, from durations scaled to the nominal machine speed
    (speed.py).  op_p50_s is the median over the input kinds (shapes) of each
    kind's median; jobs_per_s a pass's input files over the sum of its jobs'
    medians; op_tail_s the fixed tail percentile of all samples."""
    def medians(key):
        return [statistics.median(r["scaled"] for r in rs)
                for rs in group(records, key).values()]
    jobs = group(records, "job").values()
    files = sum(rs[0]["files"] for rs in jobs)
    kinds = medians("shape")
    durations = sorted(r["scaled"] for r in records)
    tail = statistics.quantiles(durations, n=100, method="inclusive")[tail_pct - 1]
    return {
        "op_p50_s": {"value": statistics.median(kinds), "kinds": len(kinds),
                     "samples": len(durations)},
        "op_tail_s": {"value": tail, "percentile": tail_pct, "samples": len(durations),
                      "beyond": sum(1 for d in durations if d > tail)},
        "jobs_per_s": {"value": files / sum(medians("job")), "files_per_pass": files},
        "setup_s": {"value": statistics.median(t for t, _ in setup_times),
                    "repetitions": len(setup_times)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024},
    }


def raw_samples(records, tail_pct: int, setup_times) -> dict:
    """The same figures from unscaled wall times (not gated)."""
    durations = sorted(r["duration"] for r in records)
    tail = statistics.quantiles(durations, n=100, method="inclusive")[tail_pct - 1]
    return {"samples": len(durations), "p50_s": statistics.median(durations),
            "tail_percentile": tail_pct, "tail_s": tail,
            "files_per_s": sum(r["files"] for r in records) / sum(durations),
            "setup_s": statistics.median(raw for _, raw in setup_times),
            "reference_median_s": statistics.median(r["ref"] for r in records),
            "reference_nominal_s": speed.NOMINAL_S}


def per_job(records) -> list[dict]:
    out = []
    for rs in group(records, "job").values():
        d = [r["duration"] for r in rs]
        out.append({"shape": rs[0]["shape"], "samples": len(d),
                    "scaled_median_s": statistics.median(r["scaled"] for r in rs),
                    "median_s": statistics.median(d), "min_s": min(d), "max_s": max(d),
                    "durations_s": d, "scaled_s": [r["scaled"] for r in rs],
                    "refs_s": [r["ref"] for r in rs]})
    return out


def trace_results(loop: Loop, tracer, workload: str, seed: int) -> dict:
    import tracing
    traced = statistics.median(r["duration"] for r in loop.timed(traced=True))
    untraced = statistics.median(r["duration"] for r in loop.timed(traced=False))
    spans_file = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    tracer.write_spans(spans_file)
    layers = tracing.layer_metrics(tracer.spans, loop.traced_ops,
                                   threading.main_thread().ident)
    out = {
        "metrics": {name: {"value": value} for name, value in layers.items()},
        "tracing": {"traced_op_p50_s": traced, "untraced_op_p50_s": untraced,
                    "overhead_s": traced - untraced, "overhead_ratio": traced / untraced - 1,
                    "traced_ops": loop.traced_ops, "spans": len(tracer.spans),
                    "spans_file": os.path.relpath(spans_file, ROOT)},
    }
    if workload == "fnf-batch":
        out["batch_jobs_comparison"] = compare_jobs(loop)
    return out


def compare_jobs(loop: Loop, rounds: int = 4) -> dict:
    """``--jobs 1`` against ``--jobs nproc`` on the state batch, untraced,
    alternating which goes first."""
    batch = next(i for i, j in enumerate(loop.jobs) if j["argv"][0] == "fnf")
    times = {1: [], nproc(): []}
    for i in range(rounds):
        for flag in ([1, nproc()] if i % 2 == 0 else [nproc(), 1]):
            times[flag].append(loop.run_job(batch, jobs_flag=flag)["duration"])
    return {f"jobs_{flag}": {"median_s": statistics.median(t), "runs_s": t}
            for flag, t in times.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tail_pct, why = WORKLOADS[workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_times = set_up(workload, seed, workdir, 1 if trace else SETUP_REPETITIONS)
        opscale = inputs.import_opscale()
        import checks
        import tracing
        with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
            jobs = json.load(fh)["jobs"]
        tracer = tracing.Tracer() if trace else None
        loop = Loop(opscale, checks.Checker(opscale, workdir), jobs, workdir, tracer)

        start = time.perf_counter()
        if trace:
            # Keeps first-call costs out of the untraced/traced comparison.
            loop.run_pass(WARMUP)
        need = 0 if trace else min_samples(tail_pct)
        passes = 0
        while time.perf_counter() - start < seconds or passes < 2 or len(loop.timed()) < need:
            loop.run_pass(passes, traced=trace and passes % 2 == 1)
            passes += 1

        result = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "why": why, "passes": passes,
                  "loop": "closed loop, one client, in-process opscale.cli.main(argv), "
                          "stdout captured, outputs checked outside the timer",
                  "environment": {"python": sys.version.split()[0],
                                  "numpy": sys.modules["numpy"].__version__,
                                  "blas": blas_info(), "nproc": nproc(),
                                  "batch_jobs_flag": BATCH_JOBS},
                  "setup_times_s": setup_times}
        if trace:
            result.update(trace_results(loop, tracer, workload, seed))
        else:
            loop.scale()
            result["metrics"] = end_to_end(loop.timed(), tail_pct, setup_times)
            result["raw_samples"] = raw_samples(loop.timed(), tail_pct, setup_times)
            result["per_job"] = per_job(loop.timed())
        timed = tally([r for r in loop.records if r["group"] == "timed"])
        probe = tally([r for r in loop.records if r["group"] == "probe"])
        result["checks"] = {
            "timed": timed,
            "known_defect_probe": probe,
            "fail_ratio": ((timed["failed"] + probe["failed"])
                           / (timed["attempted"] + probe["attempted"])),
        }
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -------------------------------------------------------------- reporting

def print_table(result: dict, names) -> None:
    w = result["workload"]
    print(f"# {w} seed={result['seed']} trace={result['trace']} passes={result['passes']}")
    print(f"#   why: {result['why']}")
    for name, unit in names:
        m = result["metrics"][name]
        notes = "  ".join(f"{k}={v}" for k, v in m.items() if k != "value")
        print(f"{w:14s} {name:40s} {m['value']:14.6g} {unit:8s} {notes}")
    checks = result["checks"]
    print(f"{w:14s} {'fail_ratio (all jobs, probes included)':40s} "
          f"{checks['fail_ratio']:14.6g} {'1':8s} timed={checks['timed']['failed']}/"
          f"{checks['timed']['attempted']}  probe={checks['known_defect_probe']['failed']}/"
          f"{checks['known_defect_probe']['attempted']}")
    for label in ("timed", "known_defect_probe"):
        for f in checks[label]["failures"]:
            print(f"#   {label} failure x{f['count']}: {f['file']}: {f['error']}")
    if "tracing" in result:
        t = result["tracing"]
        print(f"#   tracing overhead: {t['overhead_s']:.6f} s per op p50 "
              f"({100 * t['overhead_ratio']:.1f}%), {t['spans']} spans in {t['spans_file']}")
    if "batch_jobs_comparison" in result:
        cmp_ = result["batch_jobs_comparison"]
        print("#   batch " + "  ".join(f"{k}: {v['median_s']:.4f} s" for k, v in cmp_.items()))


def metric_names(trace: bool):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    inputs.import_opscale()   # without the sources: fail here, printing no result

    if args.workload == "all":
        ok = True
        for workload in WORKLOADS:
            proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                                   "--workload", workload, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], timeout=600)
            ok = ok and proc.returncode == 0
        return 0 if ok else 1

    names = metric_names(bool(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print_table(result, names)
    print(f"#   results: {os.path.relpath(path, ROOT)}")
    timed = result["checks"]["timed"]
    print(json.dumps({"correct": timed["failed"] == 0, "attempted": timed["attempted"],
                      "failed": timed["failed"],
                      "metrics": {name: {"value": result["metrics"][name]["value"],
                                         "unit": unit} for name, unit in names}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
