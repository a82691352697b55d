"""JSON file formats for matrices, bipartite states and maps.

A matrix file is ``{"rows": r, "cols": c, "data": [...]}`` with ``data``
row-major; each element is either ``[re, im]`` or a bare number for real
entries.  Emitted numbers round-trip bit-for-bit: ``json`` writes each
double as the shortest decimal that re-parses to the same double.

A state file wraps a matrix: ``{"k": ..., "m": ..., "matrix": {...}}``; the
matrix must be Hermitian within 1e-8 and is symmetrized and trace normalized
on load.  A map file is ``{"k": ..., "m": ..., "choi": {...}}`` holding the
block storage, or ``{"kind": "state", ...}`` with state-file fields to load
the map induced by a state.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any

import numpy as np

from .fnf import BipartiteState
from .numkernel import as_complex_matrix
from .posmap import ChoiMap, from_state


class ValidationError(ValueError):
    """Malformed or inconsistent input file."""


def matrix_to_obj(M) -> dict[str, Any]:
    M = np.asarray(M, dtype=np.complex128)
    data: list[Any] = []
    for value in M.reshape(-1):
        re, im = float(value.real), float(value.imag)
        data.append(re if im == 0.0 else [re, im])
    return {"rows": int(M.shape[0]), "cols": int(M.shape[1]), "data": data}


def obj_to_matrix(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValidationError("matrix must be a JSON object")
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        data = obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"matrix object missing rows/cols/data: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValidationError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ValidationError(
            f"matrix data must list {rows * cols} row-major entries")
    values = np.empty(rows * cols, dtype=np.complex128)
    try:
        for idx, cell in enumerate(data):
            if isinstance(cell, (int, float)) and not isinstance(cell, bool):
                values[idx] = float(cell)
            elif (isinstance(cell, list) and len(cell) == 2
                  and all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in cell)):
                values[idx] = complex(float(cell[0]), float(cell[1]))
            else:
                raise ValidationError(f"matrix entry {idx} must be a number or [re, im]")
    except OverflowError as exc:
        raise ValidationError(f"matrix entry {idx} does not fit a double: {exc}") from exc
    M = values.reshape(rows, cols)
    try:
        return as_complex_matrix(M)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested deeper than the stack.
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def atomic_write_json(path: str, obj) -> None:
    """Write JSON so that the target is either absent, old, or complete."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def parse_pattern_matrix(obj) -> np.ndarray:
    """Matrix file restricted to nonnegative real entries."""
    M = obj_to_matrix(obj)
    if np.abs(M.imag).max(initial=0.0) != 0.0:
        raise ValidationError("pattern matrix must be real")
    A = M.real
    if (A < 0).any():
        raise ValidationError("pattern matrix must be nonnegative")
    return A


def _shape_fields(obj) -> tuple[int, int]:
    try:
        k, m = int(obj["k"]), int(obj["m"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"missing or malformed k/m fields: {exc}") from exc
    if k < 1 or m < 1:
        raise ValidationError(f"k and m must be positive, got {k}, {m}")
    return k, m


def parse_state(obj) -> BipartiteState:
    if not isinstance(obj, dict):
        raise ValidationError("state must be a JSON object")
    k, m = _shape_fields(obj)
    if "matrix" not in obj:
        raise ValidationError('state file needs a "matrix" field')
    M = obj_to_matrix(obj["matrix"])
    try:
        return BipartiteState(k, m, M)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def state_to_obj(state: BipartiteState) -> dict[str, Any]:
    return {"k": state.k, "m": state.m, "matrix": matrix_to_obj(state.rho)}


def parse_map(obj, rng: np.random.Generator | None = None) -> ChoiMap:
    if not isinstance(obj, dict):
        raise ValidationError("map must be a JSON object")
    if obj.get("kind") == "state":
        state = parse_state(obj)
        G, _ = from_state(state.rho, state.k, state.m)
        return G
    k, m = _shape_fields(obj)
    if "choi" not in obj:
        raise ValidationError('map file needs a "choi" field (or "kind": "state")')
    C = obj_to_matrix(obj["choi"])
    try:
        return ChoiMap(k, m, C, rng=rng)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def map_to_obj(T: ChoiMap) -> dict[str, Any]:
    return {"k": T.k, "m": T.m, "choi": matrix_to_obj(T.choi)}
