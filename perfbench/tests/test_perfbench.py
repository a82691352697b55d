"""Tests of the benchmark harness itself (not collected by the repo's suite).

    python3 -m pytest perfbench/tests -q

They run real workloads for a pass or two, so they take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


def run_bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=cwd)
    return proc


def last_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    return {w: [last_line(run_bench(w, 7, 1)) for _ in range(2)]
            for w in ("scale-hard", "support-total")}


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload,counts", [
    ("scale-hard", ["scaling.steps", "posmap.apply.calls", "numkernel.herm_eig.calls",
                    "io.decode.entries"]),
    ("support-total", ["matcomb.has_support.calls", "io.decode.entries"]),
])
def test_traced_counts_repeat_at_one_seed(traced_twice, workload, counts):
    first, second = traced_twice[workload]
    for name in counts:
        assert first["metrics"][name]["value"] > 0
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_traced_ratios_match_the_code_today(traced_twice):
    hard = traced_twice["scale-hard"][0]["metrics"]
    assert hard["scaling.applies_per_step"]["value"] == 3
    assert hard["scaling.eigs_per_step"]["value"] == 2
    support = traced_twice["support-total"][0]["metrics"]
    assert support["matcomb.has_support.calls"]["value"] == 2


def test_another_seed_changes_inputs_but_not_the_mix(tmp_path):
    opscale = inputs.import_opscale()
    for workload in inputs.WORKLOADS:
        manifests, contents = [], []
        for seed in (1, 2):
            outdir = tmp_path / f"{workload}-{seed}"
            outdir.mkdir()
            jobs = inputs.write_inputs(workload, seed, str(outdir), opscale)
            manifests.append(jobs)
            contents.append({p.relative_to(outdir): p.read_bytes()
                             for p in outdir.rglob("*.json")})
        assert manifests[0] == manifests[1], workload
        assert contents[0].keys() == contents[1].keys()
        assert contents[0], workload
        for name in contents[0]:
            assert contents[0][name] != contents[1][name], (workload, name)


def test_every_printed_metric_is_declared(traced_twice, spec):
    untraced = last_line(run_bench("fnf-batch", 3, 0))
    assert untraced["correct"] and untraced["failed"] == 0
    assert set(untraced["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for runs in traced_twice.values():
        assert set(runs[0]["metrics"]) == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, metric in [*untraced["metrics"].items(),
                         *traced_twice["scale-hard"][0]["metrics"].items()]:
        assert metric["unit"] == units[name]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scale-hard", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children_and_worker_spans():
    main_thread, worker = 1, 2
    spans = [
        ("cli.main", 0.0, 10.0, 1, None, main_thread, 1, None),
        ("io.load_json", 1.0, 3.0, 2, 1, main_thread, 1, None),
        ("fnf.compute", 2.0, 6.0, 3, None, worker, 1, None),   # overlaps load_json
        ("numkernel.svd", 4.0, 5.0, 4, 3, worker, 1, None),
    ]
    metrics = tracing.layer_metrics(spans, n_ops=1, main_thread=main_thread)
    assert metrics["cli.main.self_s"] == pytest.approx(10.0 - 5.0)
    assert metrics["cli.batch.parallelism"] == pytest.approx(4.0 / 10.0)
    assert metrics["fnf.compute.s"] == pytest.approx(4.0)


def test_scaled_times_follow_the_program_not_the_machine():
    def metrics(program, machine):
        loop = run.Loop.__new__(run.Loop)
        loop.records = [
            {"job": j, "shape": f"kind {j}", "group": "timed", "pass": p,
             "traced": False, "files": 1 + j,
             "duration": program * machine * (0.1 + 0.05 * j) * (1 + 0.01 * p),
             "ref": machine * speed.NOMINAL_S * (1 + 0.02 * (p % 3))}
            for p in range(6) for j in range(3)]
        loop.scale()
        return run.end_to_end(loop.timed(), 90, [(1.0, 1.0)])

    base = metrics(1.0, 1.0)
    slow_machine, slow_program = metrics(1.0, 1.6), metrics(1.3, 1.0)
    for name in ("op_p50_s", "op_tail_s"):
        assert slow_machine[name]["value"] == pytest.approx(base[name]["value"])
        assert slow_program[name]["value"] == pytest.approx(1.3 * base[name]["value"])
    assert slow_machine["jobs_per_s"]["value"] == pytest.approx(base["jobs_per_s"]["value"])
    assert slow_program["jobs_per_s"]["value"] == pytest.approx(
        base["jobs_per_s"]["value"] / 1.3)
