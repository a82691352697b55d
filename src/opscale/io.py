"""JSON file formats for matrices, bipartite states and maps.

A matrix file is ``{"rows": r, "cols": c, "data": [...]}`` with ``data``
row-major; each element is either ``[re, im]`` or a bare number for real
entries.  Emitted numbers round-trip bit-for-bit, a negative zero real part
included: ``json`` writes each double as the shortest decimal that re-parses
to the same double.  An entry whose imaginary part is zero, of either sign,
is written as a bare number.  Decoding makes one Python pass that
type-checks every cell and lays out its real and imaginary parts, then
builds the matrix in one NumPy conversion.  ``matrix_to_obj`` builds the
cells from ``tolist()`` calls and a loop over the complex cells only.  Its
``data`` is an immutable snapshot: a tuple of floats and ``(re, im)``
tuples, which ``json`` writes as numbers and pairs, carrying a read-only
copy of the matrix for the writer.  :func:`obj_to_matrix` reads it back
without a trip through JSON.

Every file and report is written by :func:`write_json`, byte for byte in the
layout of ``json.dumps(obj, indent=2)``.  Keys and scalars go through the
standard library's C encoder one at a time.  A matrix's ``data`` is written
from its array: one ``np.unique`` over the bit patterns of the doubles it
writes, one C encoding of the distinct values, their tokens gathered by
index, and the text streamed ``_SLICE`` cells per write.  Matrices repeat
their doubles, a square lift most of all, so each is formatted once.  Any
other list is written item by item, to the same bytes.  Where ``json`` has
no C encoder (PyPy, for one), ``JSONEncoder.encode`` stands in for it.

A state file wraps a matrix: ``{"k": ..., "m": ..., "matrix": {...}}``; the
matrix must pass :func:`opscale.numkernel.hermitian_storage` and be positive
semidefinite, and is symmetrized and trace normalized on load.  A map file is
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


class _MatrixData(tuple):
    """The ``data`` of :func:`matrix_to_obj`: its cells, floats and
    ``(re, im)`` tuples, in a tuple that cannot change.  Its ``_matrix`` is a
    read-only copy of the matrix it lists, from which :func:`write_json`
    writes it."""


def matrix_to_obj(M) -> dict[str, Any]:
    M = np.array(M, dtype=np.complex128, order="C")
    M.setflags(write=False)
    flat = M.reshape(-1)
    cells = flat.real.tolist()
    # Only the cells with a nonzero imaginary part become (re, im) pairs.
    at = np.flatnonzero(flat.imag)
    for idx, pair in zip(at.tolist(), zip(flat.real[at].tolist(),
                                          flat.imag[at].tolist())):
        cells[idx] = pair
    data = _MatrixData(cells)
    data._matrix = M
    return {"rows": M.shape[0], "cols": M.shape[1], "data": data}


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _cell_parts(cell, idx: int) -> tuple[float, float]:
    """``(re, im)`` of a cell of any accepted kind, as doubles."""
    try:
        if _is_real(cell):
            return float(cell), 0.0
        if (isinstance(cell, (list, tuple)) and len(cell) == 2
                and all(map(_is_real, cell))):
            return float(cell[0]), float(cell[1])
    except OverflowError as exc:
        raise ValidationError(f"matrix entry {idx} does not fit a double: {exc}") from exc
    raise ValidationError(f"matrix entry {idx} must be a number or [re, im]")


def _dimensions(obj: dict, names: tuple[str, str],
                nonpositive: str) -> tuple[int, int]:
    """The dimension fields ``names`` of ``obj``: JSON integers of at least
    1, so a float, a string or a bool is refused.  A missing field raises
    ``KeyError``; a nonpositive pair is refused with the message
    ``nonpositive``, formatted with both values."""
    values = obj[names[0]], obj[names[1]]
    for name, value in zip(names, values):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
    if min(values) < 1:
        raise ValidationError(nonpositive.format(*values))
    return values


def obj_to_matrix(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValidationError("matrix must be a JSON object")
    try:
        rows, cols = _dimensions(obj, ("rows", "cols"),
                                 "matrix dimensions must be positive, got {}x{}")
        data = obj["data"]
    except KeyError as exc:
        raise ValidationError(f"matrix object missing rows/cols/data: {exc}") from exc
    if not isinstance(data, (list, tuple)) or len(data) != rows * cols:
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

# Matrix cells per write: bounds the text held at once.
_SLICE = 4096


def _key(key) -> str:
    """A dict key as ``json`` writes it: non-string keys become strings."""
    if isinstance(key, str):
        return _encode(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + _encode(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _write_matrix_data(fh, M: np.ndarray, inner: str) -> None:
    """Write the cells of ``M`` as ``matrix_to_obj`` lists them, from the
    list's opening bracket to its last cell, ``_SLICE`` cells per write.
    Matrices repeat their doubles (a square lift holds each entry of its
    map many times over, and mostly zeros), so each distinct double, told
    apart by its bits to keep the sign of a zero, is formatted once."""
    flat = M.reshape(-1)
    pair = flat.imag != 0.0
    # The doubles written, in order: each real part, and the imaginary part
    # of each [re, im] cell.
    kept = np.ones((len(flat), 2), dtype=bool)
    kept[:, 1] = pair
    distinct, at = np.unique(flat.view(np.int64).reshape(-1, 2)[kept],
                             return_inverse=True)
    # What goes before a token, then the distinct tokens.  A number token
    # holds no comma, so the compact encoding of the distinct values,
    # brackets dropped, splits into their tokens in order.
    opening, closing, sep = "[" + inner + "  ", inner + "]", "," + inner
    strings = np.array(
        ["[" + inner, "[" + inner + opening, sep, sep + opening, closing + sep,
         closing + sep + opening, "," + inner + "  "]
        + _encode(distinct.view(np.float64).tolist())[1:-1].split(","),
        dtype=object)
    # A cell's first token follows the list's opening (lead 0), a number (2)
    # or a pair (4), plus 1 if it opens a pair; a pair's second token
    # follows its comma (6).
    lead = np.full(kept.shape, 6)
    lead[:, 0] = pair
    lead[1:, 0] += 2 + 2 * pair[:-1]
    index = np.empty((len(at), 2), dtype=np.intp)
    index[:, 0] = lead[kept]
    np.add(at, 7, out=index[:, 1])
    a = 0
    for start in range(0, len(flat), _SLICE):
        cells = pair[start:start + _SLICE]
        b = a + len(cells) + np.count_nonzero(cells)
        fh.write("".join(strings[index[a:b]].ravel().tolist()))
        a = b
    if pair[-1]:
        fh.write(closing)


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
        if type(obj) is _MatrixData:
            _write_matrix_data(fh, obj._matrix, inner)
        else:
            head = "[" + inner
            for item in obj:
                fh.write(head)
                _write(fh, item, inner)
                head = "," + inner
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
        return _dimensions(obj, ("k", "m"), "k and m must be positive, got {}, {}")
    except KeyError as exc:
        raise ValidationError(f"missing or malformed k/m fields: {exc}") from exc


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
