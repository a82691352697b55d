"""JSON file formats for matrices, bipartite states and maps.

A matrix file is ``{"rows": r, "cols": c, "data": [...]}`` with ``data``
row-major; each element is either ``[re, im]`` or a bare number for real
entries.  Emitted numbers round-trip bit-for-bit, a negative zero real part
included: ``json`` writes each double as the shortest decimal that re-parses
to the same double.  An entry whose imaginary part is zero, of either sign,
is written as a bare number.  Decoding makes one Python pass that
type-checks every cell and lays out its real and imaginary parts, then
builds the matrix in one NumPy conversion; ``matrix_to_obj`` builds the
cells from ``tolist()``.

Every file and report is written by :func:`write_json`, byte for byte in the
layout of ``json.dumps(obj, indent=2)``.  Keys and scalars go through the
standard library's C encoder one at a time; a list of plain floats and
``[re, im]`` lists of two plain floats, the ``data`` of a matrix, gets its
number tokens from one C encoding per slice of the list and is streamed
slice by slice.  Any other list is written item by item, to the same bytes.
Where ``json`` has no C encoder (PyPy, for one), ``JSONEncoder.encode``
stands in for it.

A state file wraps a matrix: ``{"k": ..., "m": ..., "matrix": {...}}``; the
matrix must be Hermitian within 1e-8 and positive semidefinite, and is
symmetrized and trace normalized on load.  A map file is
``{"k": ..., "m": ..., "choi": {...}}`` holding the block storage, or
``{"kind": "state", ...}`` with state-file fields to load the map induced by
a state.  A map's positivity is proved from a positive semidefinite storage
by one Cholesky factorization, and sampled only when that proof fails (see
:mod:`opscale.posmap`); a state's map needs neither, since the state's own
check already proved its storage positive semidefinite.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any

import numpy as np

from .fnf import BipartiteState, _induced_map
from .numkernel import as_complex_matrix
from .posmap import ChoiMap


class ValidationError(ValueError):
    """Malformed or inconsistent input file."""


def matrix_to_obj(M) -> dict[str, Any]:
    M = np.asarray(M, dtype=np.complex128)
    # Row by row, so that only one row's parts exist as spare Python floats.
    data = [re if im == 0.0 else [re, im]
            for row in M for re, im in zip(row.real.tolist(), row.imag.tolist())]
    return {"rows": int(M.shape[0]), "cols": int(M.shape[1]), "data": data}


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _cell_parts(cell, idx: int) -> tuple[float, float]:
    """``(re, im)`` of a cell of any accepted kind, as doubles."""
    try:
        if _is_real(cell):
            return float(cell), 0.0
        if isinstance(cell, list) and len(cell) == 2 and all(map(_is_real, cell)):
            return float(cell[0]), float(cell[1])
    except OverflowError as exc:
        raise ValidationError(f"matrix entry {idx} does not fit a double: {exc}") from exc
    raise ValidationError(f"matrix entry {idx} must be a number or [re, im]")


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
    # One pass type-checks the cells and lays out re, im pairs; plain floats
    # and pairs of floats, all that matrix_to_obj writes, skip the general
    # check.  The float64 buffer viewed as complex128 keeps the sign of a
    # zero real part, which re + 1j * im would lose.
    parts: list[float] = []
    push = parts.append
    for cell in data:
        if type(cell) is float:
            push(cell)
            push(0.0)
        elif (type(cell) is list and len(cell) == 2
              and type(cell[0]) is float and type(cell[1]) is float):
            push(cell[0])
            push(cell[1])
        else:
            re, im = _cell_parts(cell, len(parts) // 2)
            push(re)
            push(im)
    M = np.array(parts, dtype=np.float64).view(np.complex128).reshape(rows, cols)
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


_PLAIN = json.JSONEncoder(separators=(",", ":"))
if c_make_encoder is None:
    _encode = _PLAIN.encode
else:
    # The stdlib's own C encoder, built once: JSONEncoder.encode builds one
    # per call, which triples the cost of a scalar.
    _c_encoder = c_make_encoder(None, _PLAIN.default, encode_basestring_ascii,
                                None, ":", ",", False, False, True)

    def _encode(obj) -> str:
        return "".join(_c_encoder(obj, 0))

# List items per write on the bulk path: bounds the text held at once.
_SLICE = 4096


def _key(key) -> str:
    """A dict key as ``json`` writes it: non-string keys become strings."""
    if isinstance(key, str):
        return _encode(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _encode(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _number_slots(items, pair: str) -> list[str] | None:
    """One %-format slot per item of a list of plain floats and ``[re, im]``
    lists of two plain floats, all that ``matrix_to_obj`` writes; None for
    any other list, which the per-item path writes to the same bytes."""
    slots = ["%s" if type(x) is float else
             pair if (type(x) is list and len(x) == 2
                      and type(x[0]) is float and type(x[1]) is float)
             else None for x in items]
    return None if None in slots else slots


def _write(fh, obj, nl: str) -> None:
    """Write ``obj`` as ``json.dumps(obj, indent=2)`` lays it out at the
    depth whose line break and indent is ``nl``."""
    if isinstance(obj, dict) and obj:
        inner = nl + "  "
        head = "{" + inner
        for key, value in obj.items():
            fh.write(head + _key(key) + ": ")
            _write(fh, value, inner)
            head = "," + inner
        fh.write(nl + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        inner = nl + "  "
        head, sep = "[" + inner, "," + inner
        pair = "[" + inner + "  %s," + inner + "  %s" + inner + "]"
        slots = _number_slots(obj, pair)
        if slots is None:
            for item in obj:
                fh.write(head)
                _write(fh, item, inner)
                head = sep
        else:
            # A number token holds no comma or bracket, so the compact
            # encoding of a slice, brackets dropped, splits into its tokens
            # in order.
            for start in range(0, len(obj), _SLICE):
                compact = _encode(obj[start:start + _SLICE])[1:-1]
                tokens = compact.replace("[", "").replace("]", "").split(",")
                fh.write(head + (sep.join(slots[start:start + _SLICE])
                                 % tuple(tokens)))
                head = sep
        fh.write(nl + "]")
    else:
        fh.write(_encode(obj))


def write_json(fh, obj) -> None:
    """Write ``obj`` to the text file ``fh`` as ``json.dumps(obj, indent=2)``
    would, byte for byte, then a newline.  An unsupported value raises the
    same ``TypeError`` as ``json``; a container that holds itself recurses
    until ``RecursionError``, where ``json`` raises ``ValueError``."""
    _write(fh, obj, "\n")
    fh.write("\n")


def atomic_write_json(path: str, obj) -> None:
    """Write JSON so that the target is either absent, old, or complete."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                write_json(fh, obj)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


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
        return _induced_map(parse_state(obj))
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
