"""Seeded input files for the perfbench workloads.

Every input is generated with numpy from the workload seed and written with
``opscale.io``; its expected outcome is fixed by construction, never by
running the program.  A seed changes the files (random unitaries, random
entries) but not the mix of shapes and expected outcomes.

Run as a script, this module is one set-up repetition:

    python3 perfbench/inputs.py <workload> <seed> <outdir>

It imports opscale, writes the workload's inputs and ``manifest.json`` (the
job list with expected outcomes) into ``outdir``.  run.py times the whole
process as the set-up time.  It also samples the machine speed after the
import and at the end (speed.py) and prints both samples as JSON.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

WORKLOADS = ("scale-load", "scale-hard", "support-total", "fnf-batch")

# Exit codes of the opscale CLI contract.
EXIT_OK, EXIT_INVALID, EXIT_NO_SUPPORT = 0, 2, 3

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def import_opscale():
    """Import the package from the checkout's ``src`` (it is not installed)."""
    if not os.path.isfile(os.path.join(SRC_DIR, "opscale", "__init__.py")):
        raise SystemExit(f"perfbench: no opscale sources under {SRC_DIR}")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    import opscale.cli
    import opscale.io
    return opscale


# ------------------------------------------------------------ generators

def haar_unitary(dim, rng):
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, R = np.linalg.qr(G)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def monomial_unitary(dim, rng):
    """Random permutation times random phases: a basis change that keeps a
    map's canonical structure visible to the iteration."""
    P = np.eye(dim)[rng.permutation(dim)]
    return P * np.exp(2j * np.pi * rng.random(dim))


def rotate(C, U, V):
    """Storage of ``X -> V T(U* X U) V*``-type unitary rotations of a map."""
    W = np.kron(U, V)
    return W @ C @ W.conj().T


def cp_storage(k, m, rng):
    """Full-Kraus-rank CP map: Wishart storage, trace sqrt(k*m)."""
    n = k * m
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    C = G @ G.conj().T
    return C / np.trace(C).real * np.sqrt(n)


def state_matrix(k, m, rng, kernel_dim=0):
    """Unit-trace state with a Haar-rotated spectrum and the given kernel."""
    n = k * m
    spectrum = np.concatenate([rng.uniform(0.5, 1.5, n - kernel_dim),
                               np.zeros(kernel_dim)])
    U = haar_unitary(n, rng)
    rho = (U * spectrum) @ U.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def singular_reduced_state(k, m, rng):
    """State whose reduced state on the second factor has a kernel: a full
    state on k x (m-1) embedded in k x m and rotated by a local unitary."""
    sigma = state_matrix(k, m - 1, rng)
    J = np.kron(np.eye(k), np.eye(m)[:, :m - 1])
    L = np.kron(np.eye(k), haar_unitary(m, rng))
    rho = L @ J @ sigma @ J.T @ L.conj().T
    return (rho + rho.conj().T) / 2


def classical_lift(A):
    """Storage of ``X -> sum_ij A[i, j] X[j, j] E_ii`` for a square A >= 0."""
    n = A.shape[0]
    blocks = np.zeros((n, n, n, n), dtype=complex)
    for j in range(n):
        blocks[j, :, j, :] = np.diag(A[:, j])
    return blocks.reshape(n * n, n * n)


def rank_witnessed_no_support(n, r, s):
    """``X -> tr(X P_r) Pi_s / s + tr(X (Id - P_r)) (Id - Pi_s)`` with
    coordinate projectors of ranks r > s: T(P_r) has rank s < r, so the map
    is rank-decreasing and has no support, while T(Id) and T*(Id) are
    positive definite."""
    blocks = np.zeros((n, n, n, n), dtype=complex)
    Pi = np.diag([1.0] * s + [0.0] * (n - s))
    for i in range(n):
        blocks[i, :, i, :] = Pi / s if i < r else np.eye(n) - Pi
    return blocks.reshape(n * n, n * n)


def transport_union(rng, k, m, density, rows=None, cols=None):
    """0/1 pattern with total support: the union of north-west-corner
    transportation plans (row sums m, column sums k, random orders) on the
    block ``rows x cols`` until the block reaches the requested density.
    The sum of the plans is a positive scaling of the union, so every
    nonzero lies on a positive diagonal."""
    rows = range(k) if rows is None else rows
    cols = range(m) if cols is None else cols
    rows, cols = list(rows), list(cols)
    A = np.zeros((k, m))
    while A[np.ix_(rows, cols)].sum() < density * len(rows) * len(cols):
        r_left = {i: m for i in rows}
        c_left = {j: k for j in cols}
        order_r = [rows[i] for i in rng.permutation(len(rows))]
        order_c = [cols[j] for j in rng.permutation(len(cols))]
        a = b = 0
        while a < len(order_r) and b < len(order_c):
            i, j = order_r[a], order_c[b]
            x = min(r_left[i], c_left[j])
            A[i, j] = 1.0
            r_left[i] -= x
            c_left[j] -= x
            if r_left[i] == 0:
                a += 1
            if c_left[j] == 0:
                b += 1
    return A


def zero_block_pattern(rng, k, m, density):
    """No support: rows [0, k/2] and columns [0, m/2) form a zero block of
    weight (k/2 + 1) m + (m/2) k > k m."""
    A = (rng.random((k, m)) < density).astype(float)
    A[:k // 2 + 1, :m // 2] = 0.0
    return A


def block_triangular_pattern(rng, k, m, density):
    """Support without total support.  Rows split in halves R1, R2 and
    columns in halves C1, C2; the diagonal blocks R1 x C2 and R2 x C1 have
    total support, R2 x C2 is zero (a tight zero block, weight exactly k m),
    and R1 x C1 holds random nonzeros that lie on no positive diagonal."""
    r1, r2 = range(k // 2), range(k // 2, k)
    c1, c2 = range(m // 2), range(m // 2, m)
    A = transport_union(rng, k, m, density, r1, c2)
    A = np.maximum(A, transport_union(rng, k, m, density, r2, c1))
    extra = rng.random((k // 2, m // 2)) < density
    extra[0, 0] = True
    A[:k // 2, :m // 2] = extra
    return A


# ------------------------------------------------------------- workloads

def _scale_load(rng, opscale):
    # No 24x24 maps: their 26 MB files cost 4 s of set-up each, and after
    # their 2 s ops the other ops of a run swung by up to 40% between runs.
    io = opscale.io
    jobs = []
    for k, m in ((16, 16), (8, 32)):
        name = f"cp-{k}x{m}.json"
        yield name, {"k": k, "m": m, "choi": io.matrix_to_obj(cp_storage(k, m, rng))}
        jobs += [(name, f"map {k}x{m}")] * 2
    # One small op in five puts the median among the 16x16 ops and the p80
    # tail among the 8x32 ones, away from the jumps between job kinds.
    name = "state-12x12.json"
    yield name, {"kind": "state", "k": 12, "m": 12,
                 "matrix": io.matrix_to_obj(state_matrix(12, 12, rng))}
    jobs.append((name, "state map 12x12"))
    for name, shape in jobs:
        yield None, {"argv": ["scale", "{dir}/" + name], "files": [name], "shape": shape,
                     "expect": {"exit": [EXIT_OK], "verdict": "converged-ds"}}


def _scale_hard(rng, opscale):
    io = opscale.io
    # At 1e-8 only 4x4 and 5x5: the 3x3 lift takes 3 000 steps, and the 6x6
    # step count depends on the rotation (460-1270 steps).
    timed = [(n, eps) for eps in (1e-4, 1e-6) for n in (3, 4, 5, 6)]
    timed += [(n, 1e-8) for n in (4, 5)]
    for n, eps in timed:
        C = classical_lift(np.triu(np.ones((n, n))) + eps)
        C = rotate(C, haar_unitary(n, rng), haar_unitary(n, rng))
        name = f"tri-{n}x{n}-eps{eps:.0e}.json"
        yield name, {"k": n, "m": n, "choi": io.matrix_to_obj(C)}
        yield None, {"argv": ["scale", "{dir}/" + name], "files": [name],
                     "shape": f"triangular {n}x{n} + {eps:.0e}",
                     "expect": {"exit": [EXIT_OK], "verdict": "converged-ds"}}
    # Rank-witnessed maps without support.  In a permuted, phased basis the
    # program reaches its no-support verdict; Haar-rotated, it is a known
    # defect (NumericalFailure), kept as an untimed probe group.
    for group, basis, specs in (
            ("timed", monomial_unitary,
             ((3, 2, 1), (4, 3, 1), (5, 4, 1), (6, 5, 1), (6, 4, 2))),
            ("probe", haar_unitary, ((3, 2, 1), (4, 3, 2), (5, 3, 1), (6, 4, 2)))):
        for n, r, s in specs:
            C = rotate(rank_witnessed_no_support(n, r, s), basis(n, rng), basis(n, rng))
            name = f"nosupport-{group}-{n}x{n}-r{r}s{s}.json"
            yield name, {"k": n, "m": n, "choi": io.matrix_to_obj(C)}
            yield None, {"argv": ["scale", "{dir}/" + name], "files": [name], "group": group,
                         "shape": f"no-support {n}x{n} rank {r}->{s}",
                         "expect": {"exit": [EXIT_NO_SUPPORT],
                                    "verdict": "no-support-numerical"}}


def _support_total(rng, opscale):
    io = opscale.io
    specs = [("total", 40, 30, d) for d in (0.1, 0.3, 0.6)]
    specs += [("total", 60, 45, d) for d in (0.1, 0.3, 0.45, 0.6)]
    specs += [("total", 80, 60, d) for d in (0.1, 0.3)]
    specs += [("total", 100, 80, d) for d in (0.1, 0.2)]
    specs += [("zero-block", 60, 45, 0.3), ("zero-block", 100, 80, 0.3),
              ("block-triangular", 80, 60, 0.3), ("block-triangular", 100, 80, 0.2)]
    build = {"total": transport_union, "zero-block": zero_block_pattern,
             "block-triangular": block_triangular_pattern}
    expect = {"total": (True, True), "zero-block": (False, False),
              "block-triangular": (True, False)}
    for kind, k, m, density in specs:
        A = build[kind](rng, k, m, density)
        name = f"{kind}-{k}x{m}-d{density:g}.json"
        yield name, io.matrix_to_obj(A)
        support, total = expect[kind]
        yield None, {"argv": ["support", "{dir}/" + name, "--total"], "files": [name],
                     "shape": f"{kind} {k}x{m} density {density:g}",
                     "expect": {"exit": [EXIT_OK], "support": support,
                                "total_support": total}}


def _fnf_batch(rng, opscale):
    io = opscale.io
    states = [(3, 4, 0), (3, 4, 2), (4, 4, 0), (4, 4, 2), (5, 7, 0),
              (6, 6, 0), (6, 6, 4), (8, 8, 0)]
    batch = []
    for idx, (k, m, ker) in enumerate(states):
        name = f"states/s{idx:02d}-{k}x{m}-ker{ker}.json"
        yield name, {"k": k, "m": m,
                     "matrix": io.matrix_to_obj(state_matrix(k, m, rng, ker))}
        batch.append({"file": name, "exit": [EXIT_OK], "outcome": "fnf-computed"})
    for idx, (k, m) in enumerate(((4, 4), (5, 7)), start=len(states)):
        name = f"states/s{idx:02d}-{k}x{m}-singular.json"
        yield name, {"k": k, "m": m,
                     "matrix": io.matrix_to_obj(singular_reduced_state(k, m, rng))}
        batch.append({"file": name, "exit": [EXIT_INVALID],
                      "outcome": "precondition-failed"})
    yield None, {"argv": ["fnf", "{dir}/states", "--batch", "--jobs", "{jobs}",
                          "--out", "{dir}/out/fnf"],
                 "files": [b["file"] for b in batch],
                 "shape": f"fnf batch of {len(batch)} states",
                 "expect": {"exit": [EXIT_OK], "batch": batch}}
    for tag in ("a", "b"):
        for k, m in ((4, 4), (3, 5)):
            name = f"tilde-{k}x{m}-{tag}.json"
            yield name, {"k": k, "m": m, "choi": io.matrix_to_obj(cp_storage(k, m, rng))}
            yield None, {"argv": ["tilde", "{dir}/" + name, "--out", "{dir}/out/" + name],
                         "files": [name], "shape": f"tilde {k}x{m}",
                         "expect": {"exit": [EXIT_OK], "lifted": k * m,
                                    "output": f"out/{name}"}}


_BUILDERS = {"scale-load": _scale_load, "scale-hard": _scale_hard,
             "support-total": _support_total, "fnf-batch": _fnf_batch}


def write_inputs(workload: str, seed: int, outdir: str, opscale) -> list[dict]:
    """Generate and write one workload's inputs; return its job list.

    Paths in the jobs are relative to ``outdir``.  Jobs without a ``group``
    are timed; ``"probe"`` jobs run untimed (see run.py).
    """
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    jobs = []
    for name, obj in _BUILDERS[workload](rng, opscale):
        if name is None:
            obj.setdefault("group", "timed")
            jobs.append(obj)
            continue
        path = os.path.join(outdir, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        opscale.io.atomic_write_json(path, obj)
    os.makedirs(os.path.join(outdir, "out", "fnf"), exist_ok=True)
    return jobs


def main(argv) -> int:
    import speed
    workload, seed, outdir = argv[0], int(argv[1]), argv[2]
    opscale = import_opscale()
    before = speed.sample()
    jobs = write_inputs(workload, seed, outdir, opscale)
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "jobs": jobs}, fh)
    after = speed.sample()
    print(json.dumps({"references": [before[0], after[0]],
                      "reference_s": before[1] + after[1]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
