"""File formats and the command line front door."""

import contextlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from opscale import cli, fixtures, matcomb, scaling
from opscale import io as opscale_io
from opscale.fnf import BipartiteState
from opscale.io import (ValidationError, atomic_write_json, load_json,
                        map_to_obj, matrix_to_obj, obj_to_matrix, parse_map,
                        parse_pattern_matrix, parse_state, state_to_obj)
from opscale.matcomb import NonnegPattern
from opscale.numkernel import frob
from opscale.posmap import ChoiMap, haar_unitary
from test_fnf import floor_crossing_state, near_psd_state, overflowing_state
from test_matcomb import structured_patterns
from test_posmap import NEGATIVE_DIRECTION_MAPS, negative_direction_storage


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_cli_strict(capsys, *argv):
    """``cli.main`` with every warning an error: (exit code, stdout, stderr)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_cli_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def through_text(obj):
    """``obj`` as a file holds it: parsed back from the text of write_json."""
    return json.loads(written(obj))


class TestMatrixRoundTrip:
    def test_bit_for_bit_complex(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            M = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            back = obj_to_matrix(through_text(matrix_to_obj(M)))
            assert np.array_equal(back, M)

    def test_real_entries_stay_scalars(self):
        obj = matrix_to_obj(np.array([[1.5, 0.0], [-2.25, 3.0]]))
        assert written(obj) == ('{\n  "rows": 2,\n  "cols": 2,\n  "data": [\n'
                                '    1.5,\n    0.0,\n    -2.25,\n    3.0\n  ]\n}\n')

    def test_awkward_floats_survive(self):
        vals = np.array([[1e-300, 1e300], [np.pi, 1 / 3], [-0.0, 5e-324]])
        back = obj_to_matrix(through_text(matrix_to_obj(vals)))
        assert np.array_equal(back, vals.astype(complex))

    def test_validation_failures(self):
        with pytest.raises(ValidationError):
            obj_to_matrix([1, 2, 3])
        with pytest.raises(ValidationError):
            obj_to_matrix({"rows": 2, "cols": 2, "data": [1, 2, 3]})
        with pytest.raises(ValidationError):
            obj_to_matrix({"rows": 1, "cols": 1, "data": [True]})
        with pytest.raises(ValidationError):
            obj_to_matrix({"rows": 1, "cols": 1, "data": [[1.0]]})
        with pytest.raises(ValidationError):
            obj_to_matrix({"rows": 0, "cols": 1, "data": []})

    @pytest.mark.parametrize("cell, message", [
        (True, "matrix entry 3 must be a number or [re, im]"),
        ([1.0], "matrix entry 3 must be a number or [re, im]"),
        ([1.0, "x"], "matrix entry 3 must be a number or [re, im]"),
        ([True, 0.0], "matrix entry 3 must be a number or [re, im]"),
        (None, "matrix entry 3 must be a number or [re, im]"),
        ([[1, 2]], "matrix entry 3 must be a number or [re, im]"),
        (10**400, "matrix entry 3 does not fit a double: "),
        ([0.0, -10**400], "matrix entry 3 does not fit a double: "),
        (float("nan"), "matrix contains non-finite entries"),
        ([0.0, float("inf")], "matrix contains non-finite entries"),
    ])
    def test_malformed_cell_message(self, cell, message):
        obj = {"rows": 2, "cols": 2, "data": [1.0, [2.0, 3.0], 4, cell]}
        with pytest.raises(ValidationError) as info:
            obj_to_matrix(obj)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("rows, cols, message", [
        (2.9, 1, "rows must be an integer, got 2.9"),
        (2.0, 1, "rows must be an integer, got 2.0"),
        ("2", 1, "rows must be an integer, got '2'"),
        (2, True, "cols must be an integer, got True"),
        (None, 1, "rows must be an integer, got None"),
        (0, 2, "matrix dimensions must be positive, got 0x2"),
        (2, -1, "matrix dimensions must be positive, got 2x-1"),
    ])
    def test_dimensions_are_positive_json_integers(self, rows, cols, message):
        with pytest.raises(ValidationError) as info:
            obj_to_matrix({"rows": rows, "cols": cols, "data": [1.0, 2.0]})
        assert str(info.value) == message

    def test_missing_dimension_message(self):
        with pytest.raises(ValidationError) as info:
            obj_to_matrix({"cols": 1, "data": [1.0]})
        assert str(info.value) == "matrix object missing rows/cols/data: 'rows'"

    def test_pattern_rejects_complex_and_negative(self):
        with pytest.raises(ValidationError, match="^pattern matrix must be real$"):
            parse_pattern_matrix(through_text(matrix_to_obj(np.array([[1j]]))))
        with pytest.raises(ValidationError, match="^pattern matrix must be nonnegative$"):
            parse_pattern_matrix(through_text(matrix_to_obj(np.array([[-1.0]]))))


def _decode_by_loop(obj):
    """Entry-by-entry decoder: the reference for obj_to_matrix."""
    values = np.empty(len(obj["data"]), dtype=np.complex128)
    for idx, cell in enumerate(obj["data"]):
        re, im = (cell, 0.0) if not isinstance(cell, list) else cell
        values[idx] = complex(float(re), float(im))
    return values.reshape(obj["rows"], obj["cols"])


def _bits(M):
    return np.ascontiguousarray(M, dtype=np.complex128).view(np.uint64)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_json_number = st.one_of(_finite, st.integers(-10**308, 10**308))
_json_cell = st.one_of(_json_number, st.lists(_json_number, min_size=2, max_size=2))


class TestMatrixCodecProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5).map(lambda c: 2 * c)),
                  elements=_finite))
    def test_round_trip_bit_for_bit(self, parts):
        # Every bit survives except the sign of a zero imaginary part: an
        # entry with imaginary part -0.0 is written as a bare real number.
        M = parts.view(np.complex128)
        expected = M.copy()
        expected.imag[expected.imag == 0.0] = 0.0
        back = obj_to_matrix(through_text(matrix_to_obj(M)))
        assert np.array_equal(_bits(back), _bits(expected))

    def test_round_trip_keeps_negative_zero_real_parts(self):
        M = np.array([[-0.0, complex(-0.0, 1.0)], [2.0, complex(-0.0, -0.0)]])
        back = obj_to_matrix(through_text(matrix_to_obj(M)))
        assert np.signbit(back.real).tolist() == [[True, True], [False, True]]
        assert np.signbit(back.imag).tolist() == [[False, False], [False, False]]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(_json_cell, min_size=1, max_size=12))
    def test_decode_matches_entry_loop(self, cells):
        obj = json.loads(json.dumps({"rows": 1, "cols": len(cells), "data": cells}))
        assert np.array_equal(_bits(obj_to_matrix(obj)), _bits(_decode_by_loop(obj)))


class SubDict(dict):
    pass


class SubList(list):
    pass


def written(obj, module=opscale_io) -> str:
    buf = io.StringIO()
    module.write_json(buf, obj)
    return buf.getvalue()


def _io_without_c_encoder():
    """A second copy of ``opscale.io``, loaded as on an interpreter whose
    ``json`` has no C encoder (PyPy, for one)."""
    spec = importlib.util.spec_from_file_location(
        "opscale._io_without_c_encoder", opscale_io.__file__)
    module = importlib.util.module_from_spec(spec)
    with mock.patch("json.encoder.c_make_encoder", None):
        spec.loader.exec_module(module)
    assert not hasattr(module, "_c_encoder")
    return module


@pytest.fixture(scope="module", params=["c_encoder", "python_encoder"])
def jio(request):
    """The ``opscale.io`` module whose writer is under test."""
    return opscale_io if request.param == "c_encoder" else _io_without_c_encoder()


_awkward_float = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072e-308, float("nan"),
                     float("inf"), float("-inf"), 1e16, 0.1]))
_writer_number = st.one_of(_awkward_float, st.integers(-10**40, 10**40),
                           _awkward_float.map(np.float64))
_writer_text = st.one_of(st.text(), st.sampled_from(
    ['"', "\\", "\n\t\r\x00\x1f", "é€", "\U0001f600", "a,b[c]"]))
_writer_scalar = st.one_of(_writer_text, st.booleans(), st.none(), _writer_number)
_writer_key = st.one_of(_writer_text, st.booleans(), st.none(),
                        st.integers(-10**6, 10**6), _awkward_float,
                        _awkward_float.map(np.float64))
_pair = st.one_of(st.lists(_writer_number, min_size=2, max_size=2),
                  st.tuples(_writer_number, _writer_number),
                  st.lists(_writer_number, min_size=2, max_size=2).map(SubList))
# Lists the bulk path takes (plain floats and 2-lists of plain floats), lists
# of other numbers and pairs, and near misses: a string among numbers, a pair
# holding a bool, a string or a list, a triple.
_float_list = st.lists(st.one_of(
    _awkward_float, st.lists(_awkward_float, min_size=2, max_size=2)),
    min_size=1, max_size=12)
_number_list = st.lists(st.one_of(_writer_number, _pair), min_size=1, max_size=12)
_near_miss = st.lists(st.one_of(
    _writer_number, _pair, _writer_text,
    st.tuples(st.booleans(), _writer_number),
    st.lists(st.one_of(_writer_number, _writer_text, _pair), min_size=2, max_size=2),
    st.lists(_writer_number, min_size=3, max_size=3)), min_size=1, max_size=12)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(SubList),
        st.dictionaries(_writer_key, children, max_size=4),
        st.dictionaries(_writer_key, children, max_size=4).map(SubDict),
        _float_list, _number_list, _near_miss)


_json_tree = st.recursive(st.one_of(_writer_scalar, _float_list, _number_list,
                                    _near_miss),
                          _containers, max_leaves=30)


class TestJsonWriter:
    """write_json emits exactly json.dumps(obj, indent=2), then a newline,
    with and without the standard library's C encoder."""

    @pytest.mark.parametrize("slice_len", [1, 3, opscale_io._SLICE])
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(obj=_json_tree)
    def test_matches_json_dumps(self, jio, obj, slice_len):
        with mock.patch.object(jio, "_SLICE", slice_len):
            assert written(obj, jio) == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("tail", [
        [], [[0.5, -0.0]], [True], ["x"], [[1.0, False]], [{"a": 1}]])
    def test_lists_longer_than_one_slice(self, jio, tail):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
        M.imag[rng.random((100, 100)) < 0.5] = 0.0
        data = list(_tuple_cells(M)) + tail
        assert len(data) > 2 * jio._SLICE
        obj = {"rows": 1, "cols": len(data), "data": data}
        assert written(obj, jio) == json.dumps(obj, indent=2) + "\n"

    def test_matrix_files(self, jio):
        # Among them the matrices fnf-batch and support-total write: square
        # lifts at 4x4 and 3x5 and a 0/1 pattern.
        rng = np.random.default_rng(1)
        T = fixtures.random_cp_map(3, 2, rng)
        pattern = (rng.random((40, 30)) < 0.2).astype(float)
        for S in (T, T.tilde_lift(), fixtures.random_cp_map(4, 4, rng).tilde_lift(),
                  fixtures.random_cp_map(3, 5, rng).tilde_lift()):
            expected = {"k": S.k, "m": S.m, "choi": _listed(S.choi)}
            assert written(jio.map_to_obj(S), jio) == json.dumps(expected, indent=2) + "\n"
        for M in (pattern, np.eye(3), 1j * np.eye(2)):
            assert written(jio.matrix_to_obj(M), jio) == _listed_text(M)

    @pytest.mark.parametrize("obj", [
        {"a": object()}, [1.0, np.int64(3)], [[1.0, 2.0], {1, 2}],
        {(1, 2): 0}, {"a": [1.0, b"x"]}, np.float32(1.0)])
    def test_unsupported_values_raise_the_stdlib_error(self, jio, obj):
        with pytest.raises(TypeError) as expected:
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError) as got:
            written(obj, jio)
        assert str(got.value) == str(expected.value)


# A small pool of doubles per matrix, so that values repeat as they do in a
# square lift or a 0/1 pattern, with both zeros and the awkward doubles.
_pooled_double = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308, 1e16, 0.1,
                     float("nan"), float("inf")]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _repeating_matrices(draw):
    pool = st.sampled_from(draw(st.lists(_pooled_double, min_size=1, max_size=4)))
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    M = np.zeros(shape, dtype=np.complex128)
    M.real = draw(arrays(np.float64, shape, elements=pool))
    if draw(st.booleans()):
        M.imag = draw(arrays(np.float64, shape, elements=pool))
    return M


# Matrices as a square lift writes them: at least 80 % of the cells +0.0,
# the rest drawn from a small pool that always holds -0.0, so -0.0 lands in
# real and in imaginary parts.  Also all-zero matrices and matrices with no
# +0.0 cell at all.
_nonzero_double = st.one_of(
    st.sampled_from([-0.0, 5e-324, -5e-324, 1.0, -0.25, 1e16, float("nan"),
                     float("-inf")]),
    st.floats().filter(lambda x: x != 0.0))


@st.composite
def _mostly_zero_matrices(draw):
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    n = shape[0] * shape[1]
    kind = draw(st.sampled_from(["sparse", "all-zero", "no-zero"]))
    pool = [-0.0] + draw(st.lists(_nonzero_double, min_size=1, max_size=4))
    if kind == "all-zero":
        cells = []
    elif kind == "sparse":
        cells = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n // 5)))
    else:
        cells = range(n)
    flat = np.zeros(n, dtype=np.complex128)
    for idx in cells:
        flat.real[idx] = draw(st.sampled_from(pool))
        flat.imag[idx] = draw(st.sampled_from(pool + [0.0]))
    return flat.reshape(shape)


class TestMatrixDataPath:
    """matrix_to_obj's data is written from its array, to the bytes json
    writes for the list it reads as."""

    @pytest.mark.parametrize("slice_len", [1, 3, opscale_io._SLICE])
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(M=_mostly_zero_matrices())
    @example(M=np.zeros((1, 1), dtype=np.complex128))
    @example(M=np.array([[complex(-0.0, 1.0)]]))
    @example(M=np.array([[complex(0.0, -0.0)]]))
    def test_mostly_zero_matrices_match_json_dumps(self, jio, M, slice_len):
        # The writer sorts only the nonzero bit patterns; +0.0 is one fixed
        # token, and -0.0 must still be told apart from it.
        obj = jio.matrix_to_obj(M)
        with mock.patch.object(jio, "_SLICE", slice_len), \
                mock.patch.object(jio, "_write_matrix_data",
                                  wraps=jio._write_matrix_data) as array_path:
            assert written(obj, jio) == _listed_text(M)
        array_path.assert_called_once()

    @pytest.mark.parametrize("slice_len", [1, 3, opscale_io._SLICE])
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(M=_repeating_matrices())
    def test_matches_json_dumps(self, jio, M, slice_len):
        obj = jio.matrix_to_obj(M)
        with mock.patch.object(jio, "_SLICE", slice_len), \
                mock.patch.object(jio, "_write_matrix_data",
                                  wraps=jio._write_matrix_data) as array_path:
            assert written(obj, jio) == _listed_text(M)
        array_path.assert_called_once()

    def test_data_is_a_flat_read_only_array(self):
        M = np.array([[1.0, 2 + 1j, -0.0], [3 - 2j, 0.5, 4.0]])
        data = matrix_to_obj(M)["data"]
        assert type(data) is np.ndarray
        assert (data.dtype, data.shape) == (np.complex128, (M.size,))
        assert not data.flags.writeable
        assert np.array_equal(_bits(data), _bits(M.reshape(-1)))
        with pytest.raises(ValueError, match="WRITEABLE"):
            data.setflags(write=True)

    @pytest.mark.parametrize("change", [
        lambda data: data.__setitem__(0, 7.0),
        lambda data: data.resize(len(data) + 1),
        lambda data: data.imag.__setitem__(1, 7.0),
        lambda data: data.__setitem__(-1, data[-1] + 0.5j)],
        ids=["set", "append", "set-in-pair", "append-to-pair"])
    def test_data_cannot_change_after_the_call(self, jio, change):
        M = np.array([[1.0, 2 + 1j], [-0.0, 3 - 2j]])
        obj = jio.matrix_to_obj(M)
        with pytest.raises(ValueError):
            change(obj["data"])
        assert written(obj, jio) == _listed_text(M)

    def test_source_changed_after_the_call_is_not_written(self, jio):
        M = np.array([[1.0, 2 + 1j], [-0.0, 3 - 2j]])
        obj = jio.matrix_to_obj(M)
        expected = _listed_text(M)
        M[:] = 9.0
        assert written(obj, jio) == expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(M=_repeating_matrices())
    def test_reads_back_without_json(self, M):
        # Without a trip through the written text the data does not read
        # back: it is an array, not a JSON value.  Through the text it does,
        # bit for bit but for the sign of a zero imaginary part, which makes
        # the entry a bare number; non-finite entries are refused.
        obj = matrix_to_obj(M)
        with pytest.raises(ValidationError) as info:
            obj_to_matrix(obj)
        assert str(info.value) == f"matrix data must list {M.size} row-major entries"
        if not np.isfinite(M).all():
            with pytest.raises(ValidationError, match="non-finite"):
                obj_to_matrix(through_text(obj))
            return
        expected = M.copy()
        expected.imag[expected.imag == 0.0] = 0.0
        assert np.array_equal(_bits(obj_to_matrix(through_text(obj))), _bits(expected))

    def test_only_flat_complex_arrays_are_written(self, jio):
        # Only a 1-D complex128 array is a matrix's data; json's error for
        # any other, and any stride of one is written as its cells.
        M = np.array([[1.0, 2 + 1j], [-0.0, 3 - 2j]])
        for other in (M, M.reshape(-1).real, M.reshape(-1).astype(">c16")):
            with pytest.raises(TypeError) as got:
                written({"data": other}, jio)
            assert str(got.value) == "Object of type ndarray is not JSON serializable"
        strided = M.reshape(-1)[::-2]
        expected = json.dumps({"data": list(_tuple_cells(strided))}, indent=2) + "\n"
        assert written({"data": strided}, jio) == expected


def _tuple_cells(M):
    """The cells of ``M``, row-major, by the file format's rule: a float,
    or an ``(re, im)`` tuple of floats when the imaginary part is nonzero,
    -0.0 included among the zeros.  The oracle for the written cells."""
    flat = np.array(M, dtype=np.complex128, order="C").reshape(-1)
    cells = flat.real.astype(object)
    at = np.flatnonzero(flat.imag)
    cells[at] = np.fromiter(zip(cells[at].tolist(), flat.imag[at].tolist()),
                            dtype=object, count=len(at))
    return tuple(cells.tolist())


def _listed(M):
    """The matrix object of ``M`` with its cells listed by the file format's
    rule, built from ``M`` alone."""
    rows, cols = np.shape(M)
    return {"rows": rows, "cols": cols, "data": _tuple_cells(M)}


def _listed_text(M) -> str:
    """The text write_json gives for ``matrix_to_obj(M)``, by json."""
    return json.dumps(_listed(M), indent=2) + "\n"


class TestMatrixDataCells:
    def test_an_empty_matrix_is_an_empty_list(self, jio):
        obj = jio.matrix_to_obj(np.zeros((0, 3)))
        assert len(obj["data"]) == 0
        assert written(obj, jio) == _listed_text(np.zeros((0, 3)))


class TestStateAndMapFiles:
    def test_state_round_trip(self):
        rng = np.random.default_rng(1)
        state = BipartiteState(2, 3, fixtures.random_state_matrix(2, 3, rng))
        back = parse_state(through_text(state_to_obj(state)))
        assert np.array_equal(back.rho, state.rho)

    @pytest.mark.parametrize("k, m, message", [
        (2.5, "3", "k must be an integer, got 2.5"),
        (2, "3", "m must be an integer, got '3'"),
        (False, 3, "k must be an integer, got False"),
        (2, 0, "k and m must be positive, got 2, 0"),
    ])
    def test_shape_fields_are_positive_json_integers(self, k, m, message):
        obj = state_to_obj(BipartiteState(2, 3, np.eye(6)))
        obj.update(k=k, m=m)
        with pytest.raises(ValidationError) as info:
            parse_state(obj)
        assert str(info.value) == message
        with pytest.raises(ValidationError) as info:
            opscale_io.parse_map({"k": k, "m": m, "choi": obj["matrix"]})
        assert str(info.value) == message

    def test_missing_shape_field_message(self):
        with pytest.raises(ValidationError) as info:
            parse_state({"m": 3, "matrix": matrix_to_obj(np.eye(6))})
        assert str(info.value) == "missing or malformed k/m fields: 'k'"

    def test_map_file_with_state_kind(self):
        rng = np.random.default_rng(2)
        state = BipartiteState(2, 2, fixtures.random_state_matrix(2, 2, rng))
        obj = through_text(state_to_obj(state))
        obj["kind"] = "state"
        T = parse_map(obj)
        assert (T.k, T.m) == (2, 2)
        assert frob(T.choi - state.rho) == 0.0

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_json(str(target), {"x": 1})
        assert load_json(str(target)) == {"x": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]

    def test_failed_writes_leave_no_temp_files(self, tmp_path):
        (tmp_path / "taken").mkdir()
        with pytest.raises(ValidationError, match="^cannot write .*taken: "):
            atomic_write_json(str(tmp_path / "taken"), {"x": 1})
        with pytest.raises(ValidationError, match="^cannot write .*missing"):
            atomic_write_json(str(tmp_path / "missing" / "out.json"), {"x": 1})
        with pytest.raises(TypeError, match="not JSON serializable"):
            atomic_write_json(str(tmp_path / "out.json"), {"x": object()})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


@pytest.fixture()
def workspace(tmp_path):
    rng = np.random.default_rng(42)
    paths = {}
    paths["pattern"] = tmp_path / "pattern.json"
    atomic_write_json(str(paths["pattern"]),
                      matrix_to_obj(np.array([[0.0, 1.0], [1.0, 1.0]])))
    paths["map"] = tmp_path / "map.json"
    atomic_write_json(str(paths["map"]), map_to_obj(fixtures.boundary_map()))
    paths["bad_map"] = tmp_path / "nosupport.json"
    atomic_write_json(str(paths["bad_map"]), map_to_obj(fixtures.no_support_map()))
    paths["state"] = tmp_path / "state.json"
    state = BipartiteState(2, 3, fixtures.random_state_matrix(2, 3, rng))
    atomic_write_json(str(paths["state"]), state_to_obj(state))
    paths["cert"] = tmp_path / "cert.json"
    identity = matrix_to_obj(np.eye(2))
    atomic_write_json(str(paths["cert"]), {"input_projectors": [identity],
                                           "output_projectors": [identity]})
    paths["dir"] = tmp_path
    return paths


class TestSupportCommand:
    def test_verdicts_and_envelope(self, capsys, workspace):
        code, rep = run_cli_json(capsys, "support", str(workspace["pattern"]),
                                 "--total", "--oracle")
        assert code == 0
        assert rep["support"] is True
        assert rep["total_support"] is False
        assert rep["total_witness"]["entry"] == [1, 1]
        assert rep["oracle"]["agrees"] is True
        assert rep["version"] and "tolerances" in rep

    def test_zero_eps_flag(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        atomic_write_json(str(path), matrix_to_obj(np.array([[1e-12, 1.0],
                                                             [1.0, 1.0]])))
        code, rep = run_cli_json(capsys, "support", str(path), "--total")
        assert rep["total_support"] is True
        code, rep = run_cli_json(capsys, "support", str(path), "--total",
                                 "--zero-eps", "1e-9")
        assert rep["total_support"] is False

    @pytest.mark.parametrize("A", [
        np.eye(3),
        np.array([[0.0, 1.0], [1.0, 1.0]]),
        np.array([[1.0, 1.0], [0.0, 0.0]]),
        np.kron(np.array([[0.0, 1.0], [1.0, 1.0]]), np.ones((15, 10))),
        np.kron(np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 1.0]]), np.ones((10, 10))),
    ], ids=["total", "no-total", "no-support", "no-total-30x20", "no-support-30x20"])
    def test_total_runs_one_flow(self, capsys, tmp_path, monkeypatch, A):
        path = tmp_path / "p.json"
        atomic_write_json(str(path), matrix_to_obj(A))
        _, plain = run_cli_json(capsys, "support", str(path))
        calls = {"max_flow": 0, "residual_reachable": 0}

        def counted(name):
            original = getattr(matcomb._FlowNet, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(matcomb._FlowNet, name, counted(name))
        code, rep = run_cli_json(capsys, "support", str(path), "--total")
        assert code == 0
        assert calls["max_flow"] == 1
        assert calls["residual_reachable"] <= 1
        assert rep["support"] == plain["support"]
        assert rep["witness"] == plain["witness"]

    @pytest.mark.parametrize("total", [[], ["--total"]], ids=["support", "total"])
    def test_one_total_support_call_per_pattern(self, capsys, tmp_path, monkeypatch,
                                                total):
        patterns = [np.eye(3), np.array([[0.0, 1.0], [1.0, 1.0]]),
                    np.array([[1.0, 1.0], [0.0, 0.0]]), np.ones((4, 6))]
        for idx, A in enumerate(patterns):
            atomic_write_json(str(tmp_path / f"p{idx}.json"), matrix_to_obj(A))
        calls = {"has_total_support": 0, "max_flow": 0}
        original_total, original_flow = cli.has_total_support, matcomb._FlowNet.max_flow

        def total_support(pattern):
            calls["has_total_support"] += 1
            return original_total(pattern)

        def max_flow(net, *args):
            calls["max_flow"] += 1
            return original_flow(net, *args)

        monkeypatch.setattr(cli, "has_total_support", total_support)
        monkeypatch.setattr(matcomb._FlowNet, "max_flow", max_flow)
        code, summary = run_cli_json(capsys, "support", str(tmp_path), "--batch",
                                     "--out", str(tmp_path / "out"), *total)
        assert (code, summary["jobs"], summary["failed"]) == (0, len(patterns), 0)
        assert calls == {"has_total_support": len(patterns), "max_flow": len(patterns)}

    # Zero lines, a pattern without support, one with support but not total
    # support, and the oracle's size guard, besides the drawn patterns.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pat=structured_patterns(), oracle=st.booleans())
    @example(pat=NonnegPattern(np.array([[0.0, 0.0], [1.0, 1.0]])), oracle=True)
    @example(pat=NonnegPattern(np.array([[0.0, 1.0], [0.0, 1.0]])), oracle=True)
    @example(pat=NonnegPattern(np.array([[0.0, 1.0], [1.0, 1.0]])), oracle=True)
    @example(pat=NonnegPattern(np.eye(6)[[0, 1, 2, 3, 4, 4]]), oracle=False)
    @example(pat=NonnegPattern(np.ones((5, 4))), oracle=True)
    def test_plain_report_is_the_total_report_without_total_fields(self, pat, oracle):
        flags = ["--oracle"] if oracle else []
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "p.json")
            atomic_write_json(path, matrix_to_obj(pat.entries))
            plain = support_stdout(path, *flags)
            code, text = support_stdout(path, "--total", *flags)
        expected = json.loads(text)
        assert ("total_support" in expected) == (code == 0)
        expected.pop("total_support", None)
        expected.pop("total_witness", None)
        if oracle and code == 0:
            del expected["oracle"]["total_support"]
        assert plain == (code, json.dumps(expected, indent=2) + "\n")

    @pytest.mark.parametrize("total", [[], ["--total"]], ids=["support", "total"])
    def test_oracle_size_guard_is_exit_2(self, capsys, tmp_path, total):
        path = tmp_path / "p5.json"
        atomic_write_json(str(path), matrix_to_obj(np.ones((5, 5))))
        code, rep = run_cli_json(capsys, "support", str(path), "--oracle", *total)
        assert code == 2
        assert rep == {"version": cli.__version__,
                       "error": "brute-force oracle limited to k*m <= 16, got 5x5"}

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        code, rep = run_cli_json(capsys, "support", str(tmp_path / "none.json"))
        assert code == 2
        assert "error" in rep

    @pytest.mark.parametrize("content", [
        b'{"rows": 1, "cols": 1, "data": [' + b"9" * 400 + b"]}",
        b'{"rows": 1, "cols": 1, "data": [1\xff]}',
        b"[" * 100000,
    ], ids=["huge-integer-entry", "non-utf8-byte", "deep-nesting"])
    def test_malformed_file_is_exit_2(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, rep = run_cli_json(capsys, "support", str(path))
        assert code == 2
        assert "error" in rep


def support_stdout(path, *flags):
    """Exit code and stdout of ``opscale support path flags``, in process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["support", path, *flags])
    return code, out.getvalue()


class TestScaleCommand:
    def test_converged_exit_0(self, capsys, workspace):
        code, rep = run_cli_json(capsys, "scale", str(workspace["map"]))
        assert code == 0
        assert rep["verdict"] == "converged-ds"
        assert rep["ds_check"]["is_doubly_stochastic"] is True
        assert "input_filter" in rep

    def test_divergence_exit_3(self, capsys, workspace):
        code, rep = run_cli_json(capsys, "scale", str(workspace["bad_map"]))
        assert code == 3
        assert rep["verdict"] == "no-support-numerical"

    def test_max_iter_exit_4(self, capsys, workspace, tmp_path):
        rng = np.random.default_rng(3)
        slow = tmp_path / "slow.json"
        atomic_write_json(str(slow), map_to_obj(fixtures.random_cp_map(3, 3, rng)))
        code, rep = run_cli_json(capsys, "scale", str(slow), "--max-iter", "1")
        assert code == 4
        assert rep["verdict"] == "max-iter-inconclusive"

    def test_builds_no_scaled_storage(self, capsys, workspace, monkeypatch):
        calls, conjugated = [], ChoiMap.conjugated

        def counted(self, P, Q):
            calls.append((self.k, self.m))
            return conjugated(self, P, Q)
        monkeypatch.setattr(ChoiMap, "conjugated", counted)
        code, rep = run_cli_json(capsys, "scale", str(workspace["map"]))
        assert code == 0 and rep["ds_check"]["is_doubly_stochastic"] is True
        assert calls == []
        # fnf reads ds_map, the filtered state, so the count is live.
        assert run_cli_json(capsys, "fnf", str(workspace["state"]),
                            "--out", str(workspace["dir"] / "f"))[0] == 0
        assert calls == [(2, 3)]

    def test_history_file(self, capsys, workspace, tmp_path):
        hist = tmp_path / "hist.json"
        code, rep = run_cli_json(capsys, "scale", str(workspace["map"]),
                                 "--history", str(hist))
        assert code == 0
        data = load_json(str(hist))
        assert len(data["history"]) >= 1
        assert {"n", "in_residual", "out_residual", "logdet"} <= set(data["history"][0])

    def test_history_records_only_for_the_history_file(self, capsys, workspace,
                                                        tmp_path, monkeypatch):
        records, record = [], scaling.IterationRecord

        def counted(*args):
            records.append(args[0])
            return record(*args)
        monkeypatch.setattr(scaling, "IterationRecord", counted)
        assert run_cli_json(capsys, "scale", str(workspace["bad_map"]))[0] == 3
        assert records == []
        hist = tmp_path / "hist.json"
        code, rep = run_cli_json(capsys, "scale", str(workspace["bad_map"]),
                                 "--history", str(hist))
        assert code == 3 and records == list(range(rep["iterations"] + 1))
        assert len(load_json(str(hist))["history"]) == len(records)


class TestFnfCommand:
    def test_writes_all_outputs(self, capsys, workspace, tmp_path):
        prefix = tmp_path / "out" / "result"
        os.makedirs(prefix.parent)
        code, rep = run_cli_json(capsys, "fnf", str(workspace["state"]),
                                 "--out", str(prefix))
        assert code == 0
        assert rep["outcome"] == "fnf-computed"
        assert rep["verification"]["passed"] is True
        for suffix in (".filters.json", ".state.json", ".schmidt.json",
                       ".report.json"):
            assert (prefix.parent / (prefix.name + suffix)).exists()
        schmidt = load_json(str(prefix) + ".schmidt.json")
        assert len(schmidt["coefficients"]) == rep["schmidt_rank"]
        filters = load_json(str(prefix) + ".filters.json")
        F = obj_to_matrix(filters["filter_first"])
        assert F.shape == (2, 2)
        assert load_json(str(prefix) + ".report.json") == rep

    def test_precondition_failure_exit_2(self, capsys, tmp_path):
        # all weight in the first half: PSD state, singular first marginal
        rho = np.zeros((4, 4))
        rho[0, 0] = rho[1, 1] = 0.5
        path = tmp_path / "sing.json"
        atomic_write_json(str(path), state_to_obj(BipartiteState(2, 2, rho)))
        code, rep = run_cli_json(capsys, "fnf", str(path),
                                 "--out", str(tmp_path / "x"))
        assert code == 2
        assert rep["outcome"] == "precondition-failed"
        assert load_json(str(tmp_path / "x.report.json")) == rep

    def test_coprime_scaling_verdict_guarantees_fnf(self, capsys, tmp_path):
        # 2x3 with a 2-dim kernel: no kernel condition applies, so only the
        # coprime branch's scaling verdict guarantees the normal form.
        rng = np.random.default_rng(5)
        rho = fixtures.random_state_matrix(2, 3, rng, kernel_dim=2)
        path = tmp_path / "ker2.json"
        atomic_write_json(str(path), state_to_obj(BipartiteState(2, 3, rho)))
        code, rep = run_cli_json(capsys, "fnf", str(path),
                                 "--out", str(tmp_path / "z"))
        assert code == 0
        suff = rep["sufficient_conditions"]
        assert suff["kernel_dim"] == 2 and suff["coprime"] is True
        assert not (suff["rect_kernel"] or suff["square_kernel"]
                    or suff["ratio_kernel"])
        assert suff["coprime_scaling_verdict"] == "converged-ds"
        assert suff["guaranteed"] is True

    @pytest.mark.parametrize("seed, exit_code", [(0, 2), (2, 0)])
    def test_strict_rank_rel_keeps_exit_contract(self, capsys, tmp_path, seed,
                                                 exit_code):
        # An eigenvalue at -5e-10 of the largest passes the state's own check;
        # a rank_rel of 1e-12 must not refuse the state a second time.  At
        # seed 0 filtering pushes it below the floor: a JSON error, exit 2.
        U = haar_unitary(6, np.random.default_rng(seed))
        w = np.array([1.0, 0.8, 0.6, 0.5, 0.3, -5e-10])
        path = tmp_path / "near.json"
        state = BipartiteState(2, 3, (U * w) @ U.conj().T)
        atomic_write_json(str(path), state_to_obj(state))
        code, rep = run_cli_json(capsys, "fnf", str(path), "--rank-rel", "1e-12",
                                 "--out", str(tmp_path / "n"))
        assert code == exit_code
        if code == 0:
            assert rep["outcome"] == "fnf-computed"
        else:
            assert rep["error"].startswith("filtered state rejected")

    def test_numerical_failure_writes_full_report(self, capsys, tmp_path):
        # Seed 0's filtered state falls below the PSD floor: compute_fnf
        # raises NumericalFailure, and the report still lands in --out.
        path = tmp_path / "near.json"
        atomic_write_json(str(path), state_to_obj(near_psd_state(0)))
        prefix = tmp_path / "out" / "near"
        prefix.parent.mkdir()
        code, rep = run_cli_json(capsys, "fnf", str(path), "--out", str(prefix))
        assert code == 2
        assert rep["outcome"] == "numerical-failure"
        assert rep["error"].startswith("filtered state rejected")
        assert rep["preconditions"]["ok"] is True
        assert "guaranteed" in rep["sufficient_conditions"]
        assert load_json(str(prefix) + ".report.json") == rep
        assert sorted(os.listdir(prefix.parent)) == ["near.report.json"]

    def test_inconclusive_exit_4(self, capsys, workspace, tmp_path):
        code, rep = run_cli_json(capsys, "fnf", str(workspace["state"]),
                                 "--out", str(tmp_path / "y"),
                                 "--max-iter", "0")
        assert code == 4
        assert rep["outcome"] == "max-iter-inconclusive"
        assert load_json(str(tmp_path / "y.report.json")) == rep


class TestScalingRefusals:
    """A refusal of the scaling update ends a command with exit 2, an error
    report and nothing on stderr; fnf still writes its report file."""

    OVERFLOW = r"scaling iterate \d+ is not finite: overflow encountered in "

    def test_marginal_below_the_floor_mid_run(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        atomic_write_json(str(path), state_to_obj(floor_crossing_state()))
        code, rep = run_cli_json(capsys, "fnf", str(path), "--pd-min", "0.3",
                                 "--out", str(tmp_path / "o"))
        assert (code, rep["outcome"]) == (2, "numerical-failure")
        assert rep["error"].startswith("input-side marginal not positive definite: ")
        assert rep["preconditions"]["ok"] is True
        assert "guaranteed" in rep["sufficient_conditions"]
        assert load_json(str(tmp_path / "o.report.json")) == rep
        assert sorted(os.listdir(tmp_path)) == ["o.report.json", "s.json"]

    @pytest.mark.parametrize("divergence", ["1e4", "inf"])
    def test_overflowing_fnf(self, tmp_path, divergence):
        path = tmp_path / "s.json"
        atomic_write_json(str(path), state_to_obj(overflowing_state()))
        proc = run_entry_point("fnf", str(path), "--divergence", divergence)
        assert (proc.returncode, proc.stderr) == (2, "")
        rep = json.loads(proc.stdout)
        assert rep["outcome"] == "numerical-failure"
        assert re.match(self.OVERFLOW, rep["error"])
        assert load_json(str(tmp_path / "s.report.json")) == rep

    def test_overflowing_fnf_batch(self, capsys, tmp_path):
        atomic_write_json(str(tmp_path / "s.json"), state_to_obj(overflowing_state()))
        code, summary = run_cli_json(capsys, "fnf", str(tmp_path), "--batch",
                                     "--divergence", "1e4")
        assert code == 0
        (row,) = summary["results"]
        rep = load_json(row["report"])
        assert (row["exit_code"], rep["outcome"]) == (2, "numerical-failure")
        assert row["error"] == rep["error"]
        assert re.match(self.OVERFLOW, row["error"])

    @pytest.mark.parametrize("argv", [
        ["scale", "{map}", "--divergence", "1e4"],
        ["tilde", "{map}", "--check", "--divergence", "1e4", "--out", "{dir}/lift.json"],
    ], ids=["scale", "tilde-check"])
    def test_overflowing_map(self, tmp_path, argv):
        paths = {"map": tmp_path / "m.json", "dir": tmp_path}
        atomic_write_json(str(paths["map"]), map_to_obj(fixtures.no_support_map()))
        proc = run_entry_point(*(a.format(**paths) for a in argv))
        assert (proc.returncode, proc.stderr) == (2, "")
        rep = json.loads(proc.stdout)
        assert set(rep) == {"version", "error"}
        assert re.match(self.OVERFLOW, rep["error"])


class TestHugeStorages:
    """Storages whose norms' sums of squares overflow: the norms do not, so
    nothing reaches stderr."""

    def test_fnf_on_a_scaled_state(self, capsys, tmp_path):
        rho = fixtures.random_state_matrix(2, 3, np.random.default_rng(1))
        path = tmp_path / "s.json"
        atomic_write_json(str(path), {"k": 2, "m": 3, "matrix": matrix_to_obj(1e160 * rho)})
        code, out, err = run_cli_strict(capsys, "fnf", str(path), "--out", str(tmp_path / "o"))
        assert (code, err) == (0, "")
        assert json.loads(out)["verification"]["passed"] is True

    def test_scale_on_a_scaled_identity(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        atomic_write_json(str(path), {"k": 2, "m": 2, "choi": matrix_to_obj(1e300 * np.eye(4))})
        code, out, err = run_cli_strict(capsys, "scale", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["verdict"] == "converged-ds"

    def test_scale_refuses_an_entry_above_the_bound(self, capsys, tmp_path):
        # 1e308 * Id's symmetrized mean overflows: the storage is refused
        # before it is formed, and nothing reaches stderr.
        path = tmp_path / "m.json"
        atomic_write_json(str(path), {"k": 2, "m": 2, "choi": matrix_to_obj(1e308 * np.eye(4))})
        code, out, err = run_cli_strict(capsys, "scale", str(path))
        assert (code, err) == (2, "")
        assert set(json.loads(out)) == {"version", "error"}


class TestPositivityRefusal:
    """Maps with rarely negative images are refused at every seed: construction
    draws no random numbers."""

    REFUSAL = r"^map sent a rank-one projector to eigenvalue -\d\.\d{3}e-0[12]$"

    @staticmethod
    def write_map(tmp_path, k, m, eta):
        path = tmp_path / f"neg{k}x{m}.json"
        atomic_write_json(str(path), {"k": k, "m": m, "choi": matrix_to_obj(
            negative_direction_storage(k, m, eta))})
        return str(path)

    @pytest.mark.parametrize("k, m, eta", NEGATIVE_DIRECTION_MAPS,
                             ids=[f"{k}x{m}" for k, m, _ in NEGATIVE_DIRECTION_MAPS])
    def test_refused_at_every_seed(self, capsys, tmp_path, monkeypatch, k, m, eta):
        path = self.write_map(tmp_path, k, m, eta)
        for seed in range(20):
            monkeypatch.setenv("OPSCALE_SEED", str(seed))
            code, out, err = run_cli_strict(capsys, "scale", path)
            assert (code, err) == (2, "")
            rep = json.loads(out)
            assert set(rep) == {"version", "error"}
            assert re.match(self.REFUSAL, rep["error"])

    @pytest.mark.parametrize("k, m, eta", NEGATIVE_DIRECTION_MAPS[:3],
                             ids=[f"{k}x{m}" for k, m, _ in NEGATIVE_DIRECTION_MAPS[:3]])
    def test_entry_point_exits_2(self, tmp_path, k, m, eta):
        proc = run_entry_point("scale", self.write_map(tmp_path, k, m, eta))
        assert (proc.returncode, proc.stderr) == (2, "")
        rep = json.loads(proc.stdout)
        assert set(rep) == {"version", "error"}
        assert re.match(self.REFUSAL, rep["error"])


class TestTildeCommand:
    def test_lift_file_and_check(self, capsys, workspace, tmp_path):
        out = tmp_path / "lift.json"
        code, rep = run_cli_json(capsys, "tilde", str(workspace["map"]),
                                 "--out", str(out), "--check")
        assert code == 0
        assert rep["lifted_k"] == 4 and rep["lifted_m"] == 4
        assert rep["check"]["category_match"] is True
        lifted = load_json(str(out))
        assert lifted["k"] == 4 and lifted["m"] == 4

    @pytest.mark.parametrize("k, m", [(2, 3), (3, 3)])
    def test_lift_file_reads_back_bit_for_bit(self, capsys, tmp_path, k, m):
        path = tmp_path / "map.json"
        atomic_write_json(str(path), map_to_obj(
            fixtures.random_cp_map(k, m, np.random.default_rng(10 * k + m))))
        out = tmp_path / "lift.json"
        code, _ = run_cli_json(capsys, "tilde", str(path), "--out", str(out))
        assert code == 0
        expected = parse_map(load_json(str(path))).tilde_lift().choi
        lifted = parse_map(load_json(str(out)))
        assert (lifted.k, lifted.m) == (k * m, k * m)
        assert np.array_equal(_bits(lifted.choi), _bits(expected))

    def test_refused_check_writes_no_lift_file(self, capsys, workspace, tmp_path):
        out = tmp_path / "t2.json"
        before = sorted(os.listdir(tmp_path))
        code, rep = run_cli_json(capsys, "tilde", str(workspace["bad_map"]), "--check",
                                 "--divergence", "1e4", "--out", str(out))
        assert code == 2 and set(rep) == {"version", "error"}
        assert sorted(os.listdir(tmp_path)) == before

    def test_a_lift_above_the_size_cap_is_refused(self, capsys, tmp_path):
        path = tmp_path / "big.json"
        T = fixtures.random_cp_map(9, 8, np.random.default_rng(3))
        atomic_write_json(str(path), map_to_obj(T))
        out = tmp_path / "lift.json"
        code, rep = run_cli_json(capsys, "tilde", str(path), "--out", str(out))
        assert code == 2 and set(rep) == {"version", "error"}
        assert "9x8 map needs (km)^4 = 26873856 storage entries" in rep["error"]
        assert not out.exists()


class TestMissingOutputDirectory:
    """A write into a directory that does not exist is a validation error:
    exit 2, one JSON error report, and no temporary file left behind."""

    @pytest.mark.parametrize("command, input_key, flag, target", [
        ("fnf", "state", "--out", "nodir/run1"),
        ("scale", "map", "--history", "nodir/h.json"),
        ("tilde", "map", "--out", "nodir/t.json"),
    ])
    def test_exit_2_with_one_error_report(self, capsys, workspace, command,
                                          input_key, flag, target):
        before = sorted(workspace["dir"].rglob("*"))
        code, out = run_cli(capsys, command, str(workspace[input_key]), flag,
                            str(workspace["dir"] / target))
        assert code == 2
        rep = json.loads(out)
        assert set(rep) == {"version", "error"}
        assert rep["error"].startswith("cannot write ")
        assert "nodir" in rep["error"]
        assert sorted(workspace["dir"].rglob("*")) == before


class TestWrittenLayout:
    """Every written file and every stdout report is in the layout of
    json.dumps(indent=2), byte for byte."""

    @staticmethod
    def assert_layout(text):
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_every_command(self, capsys, workspace, tmp_path):
        rng = np.random.default_rng(8)
        indir = tmp_path / "jobs"
        os.makedirs(indir)
        for idx in range(2):
            state = BipartiteState(2, 3, fixtures.random_state_matrix(2, 3, rng))
            atomic_write_json(str(indir / f"s{idx}.json"), state_to_obj(state))
        out = tmp_path / "out"
        os.makedirs(out)
        runs = [
            ("support", str(workspace["pattern"]), "--total"),
            ("scale", str(workspace["map"]), "--history", str(out / "h.json")),
            ("fnf", str(workspace["state"]), "--out", str(out / "single")),
            ("fnf", str(indir), "--batch", "--out", str(out / "batch")),
            ("tilde", str(workspace["map"]), "--out", str(out / "lift.json")),
        ]
        for argv in runs:
            _, text = run_cli(capsys, *argv)
            self.assert_layout(text)
        files = sorted(out.rglob("*.json"))
        assert len(files) == 1 + 4 + 2 * 4 + 1
        for path in files:
            self.assert_layout(path.read_text(encoding="utf-8"))


class TestCertificateCommand:
    def test_pass_and_fail_exit_codes(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        parts = [fixtures.random_cp_map(2, 2, rng), fixtures.random_cp_map(1, 1, rng)]
        T, cert = fixtures.direct_sum_map(parts)
        map_path = tmp_path / "m.json"
        cert_path = tmp_path / "c.json"
        atomic_write_json(str(map_path), map_to_obj(T))
        atomic_write_json(str(cert_path), {
            "input_projectors": [matrix_to_obj(p) for p in cert.input_projectors],
            "output_projectors": [matrix_to_obj(p) for p in cert.output_projectors],
        })
        code, rep = run_cli_json(capsys, "certificate", str(map_path), str(cert_path))
        assert code == 0
        assert rep["passed"] is True and "commutation" not in rep

        other = tmp_path / "full.json"
        atomic_write_json(str(other), map_to_obj(fixtures.random_cp_map(3, 3, rng)))
        code, rep = run_cli_json(capsys, "certificate", str(other), str(cert_path))
        assert code == 5
        assert rep["invariance"]["passed"] is False

    def test_invariance_does_not_depend_on_the_seed(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        T, cert = fixtures.direct_sum_map(
            [fixtures.random_cp_map(2, 2, rng), fixtures.random_cp_map(1, 1, rng)])
        atomic_write_json(str(tmp_path / "c.json"), {
            "input_projectors": [matrix_to_obj(p) for p in cert.input_projectors],
            "output_projectors": [matrix_to_obj(p) for p in cert.output_projectors],
        })
        for name, M in (("sum", T), ("full", fixtures.random_cp_map(3, 3, rng))):
            atomic_write_json(str(tmp_path / f"{name}.json"), map_to_obj(M))
            reps = [run_cli_json(capsys, "certificate", str(tmp_path / f"{name}.json"),
                                 str(tmp_path / "c.json"), "--seed", seed)[1]
                    for seed in ("1", "2")]
            for field in ("decomposition", "invariance"):
                assert reps[0][field] == reps[1][field]
            assert reps[0]["invariance"]["sampled"] is False
            assert reps[0]["invariance"]["passed"] is (name == "sum")


class TestSeedHandling:
    def test_flag_default_and_env_override(self, capsys, workspace, monkeypatch):
        _, rep = run_cli_json(capsys, "support", str(workspace["pattern"]))
        assert rep["seed"] == 42
        _, rep = run_cli_json(capsys, "support", str(workspace["pattern"]),
                              "--seed", "7")
        assert rep["seed"] == 7
        monkeypatch.setenv("OPSCALE_SEED", "99")
        _, rep = run_cli_json(capsys, "support", str(workspace["pattern"]),
                              "--seed", "7")
        assert rep["seed"] == 99

    def test_malformed_env_seed_is_exit_2(self, capsys, workspace, monkeypatch):
        monkeypatch.setenv("OPSCALE_SEED", "not-a-number")
        code, rep = run_cli_json(capsys, "support", str(workspace["pattern"]))
        assert code == 2

    def test_negative_env_seed_is_refused_by_name(self, capsys, workspace,
                                                  monkeypatch):
        # The variable overrides a valid flag, and it is the one named.
        monkeypatch.setenv("OPSCALE_SEED", "-5")
        code, rep = run_cli_json(capsys, "scale", str(workspace["map"]),
                                 "--seed", "7")
        assert code == 2
        assert set(rep) == {"version", "error"}
        assert "OPSCALE_SEED" in rep["error"] and "-5" in rep["error"]


class TestBatchMode:
    def test_support_batch(self, capsys, tmp_path):
        indir = tmp_path / "jobs"
        os.makedirs(indir)
        atomic_write_json(str(indir / "a.json"),
                          matrix_to_obj(np.array([[0.0, 1.0], [1.0, 1.0]])))
        atomic_write_json(str(indir / "b.json"), matrix_to_obj(np.eye(2)))
        atomic_write_json(str(indir / "broken.json"), {"nope": 1})
        outdir = tmp_path / "reports"
        code, rep = run_cli_json(capsys, "support", str(indir), "--total",
                                 "--batch", "--jobs", "2",
                                 "--out", str(outdir))
        assert code == 0
        assert rep["jobs"] == 3
        assert rep["failed"] == 1
        by_name = {os.path.basename(r["input"]): r for r in rep["results"]}
        assert by_name["a.json"]["exit_code"] == 0
        assert by_name["broken.json"]["exit_code"] == 2
        assert (outdir / "a.report.json").exists()
        assert (outdir / "broken.report.json").exists()
        assert "error" in load_json(str(outdir / "broken.report.json"))

    def test_scale_batch_isolated_failures(self, capsys, tmp_path):
        indir = tmp_path / "jobs"
        os.makedirs(indir)
        atomic_write_json(str(indir / "good.json"), map_to_obj(fixtures.boundary_map()))
        atomic_write_json(str(indir / "div.json"), map_to_obj(fixtures.no_support_map()))
        code, rep = run_cli_json(capsys, "scale", str(indir), "--batch")
        assert code == 0
        by_name = {os.path.basename(r["input"]): r for r in rep["results"]}
        assert by_name["good.json"]["exit_code"] == 0
        assert by_name["div.json"]["exit_code"] == 3
        # reports land next to the inputs when --out is omitted
        assert (indir / "good.report.json").exists()

    def test_fnf_batch(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        indir = tmp_path / "jobs"
        os.makedirs(indir)
        for idx in range(2):
            state = BipartiteState(2, 2, fixtures.random_state_matrix(2, 2, rng))
            atomic_write_json(str(indir / f"s{idx}.json"), state_to_obj(state))
        outdir = tmp_path / "out"
        code, rep = run_cli_json(capsys, "fnf", str(indir), "--batch",
                                 "--out", str(outdir))
        assert code == 0
        assert rep["failed"] == 0
        assert (outdir / "s0.filters.json").exists()
        assert (outdir / "s1.schmidt.json").exists()

    def test_fnf_batch_output_does_not_depend_on_jobs(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        indir = tmp_path / "jobs"
        os.makedirs(indir)
        for idx, (k, m) in enumerate([(2, 2), (2, 3), (3, 3)]):
            state = BipartiteState(k, m, fixtures.random_state_matrix(k, m, rng))
            atomic_write_json(str(indir / f"s{idx}.json"), state_to_obj(state))
        rho = np.zeros((4, 4))
        rho[0, 0] = rho[1, 1] = 0.5
        atomic_write_json(str(indir / "singular.json"),
                          state_to_obj(BipartiteState(2, 2, rho)))
        atomic_write_json(str(indir / "broken.json"), {"nope": 1})
        outdir = tmp_path / "out"
        runs = []
        for jobs in ("1", "2", "0"):
            shutil.rmtree(outdir, ignore_errors=True)
            code, out = run_cli(capsys, "fnf", str(indir), "--batch",
                                "--jobs", jobs, "--out", str(outdir))
            files = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
            runs.append((code, out, files))
        assert len(runs[0][2]) == 3 * 4 + 2
        assert runs[0] == runs[1] == runs[2]

    def test_scale_batch_history_files(self, capsys, tmp_path):
        indir = tmp_path / "jobs"
        os.makedirs(indir)
        atomic_write_json(str(indir / "a.json"), map_to_obj(fixtures.boundary_map()))
        outdir = tmp_path / "out"
        code, rep = run_cli_json(capsys, "scale", str(indir), "--batch",
                                 "--history", "on", "--out", str(outdir))
        assert code == 0 and rep["failed"] == 0
        assert sorted(p.name for p in outdir.iterdir()) == ["a.history.json",
                                                            "a.report.json"]
        report = load_json(str(outdir / "a.report.json"))
        assert report["history_file"] == str(outdir / "a.history.json")
        history = load_json(str(outdir / "a.history.json"))
        assert history["input"] == str(indir / "a.json")
        assert len(history["history"]) == report["iterations"] + 1

    def test_batch_without_inputs_is_exit_2(self, capsys, tmp_path):
        indir = tmp_path / "jobs"
        os.makedirs(indir)
        # Files the batch writes itself are not inputs.
        atomic_write_json(str(indir / "old.report.json"), {})
        code, rep = run_cli_json(capsys, "scale", str(indir), "--batch")
        assert code == 2
        assert rep == {"version": cli.__version__,
                       "error": f"no *.json inputs found in {str(indir)!r}"}

    def test_batch_on_missing_directory_is_exit_2(self, capsys, tmp_path):
        code, rep = run_cli_json(capsys, "support",
                                 str(tmp_path / "missing"), "--batch")
        assert code == 2

    def test_fnf_batch_writes_each_file_once(self, capsys, tmp_path, monkeypatch):
        rng = np.random.default_rng(6)
        indir = tmp_path / "jobs"
        os.makedirs(indir)
        for idx in range(2):
            state = BipartiteState(2, 3, fixtures.random_state_matrix(2, 3, rng))
            atomic_write_json(str(indir / f"s{idx}.json"), state_to_obj(state))
        rho = np.zeros((4, 4))
        rho[0, 0] = rho[1, 1] = 0.5
        atomic_write_json(str(indir / "singular.json"),
                          state_to_obj(BipartiteState(2, 2, rho)))
        atomic_write_json(str(indir / "broken.json"), {"nope": 1})
        writes = []

        def counted(path, obj):
            writes.append(path)
            atomic_write_json(path, obj)
        monkeypatch.setattr(cli, "atomic_write_json", counted)
        outdir = tmp_path / "out"
        code, rep = run_cli_json(capsys, "fnf", str(indir), "--batch",
                                 "--out", str(outdir))
        assert code == 0
        assert [r["exit_code"] for r in rep["results"]] == [2, 0, 0, 2]
        # four files per computed state, one report per refused input
        assert len(writes) == 2 * 4 + 2
        assert sorted(writes) == sorted(str(p) for p in outdir.iterdir())

    def test_bad_zero_eps_job_is_a_validation_error(self, capsys, tmp_path):
        indir = tmp_path / "jobs"
        os.makedirs(indir)
        atomic_write_json(str(indir / "a.json"), matrix_to_obj(np.eye(2)))
        code, rep = run_cli_json(capsys, "support", str(indir), "--batch",
                                 "--zero-eps", "nan")
        assert code == 0
        assert rep["results"][0]["exit_code"] == 2
        assert rep["results"][0]["error"].startswith("zero_eps must be")


# Arguments that must end in exit 2 and a {version, error} report.  Paths in
# braces are filled in from the workspace fixture.
BAD_ARGUMENTS = {
    "tol-0": ("support", "{pattern}", "--tol", "0"),
    "pd-min-2": ("scale", "{map}", "--pd-min", "2"),
    "rank-rel-1": ("fnf", "{state}", "--rank-rel", "1"),
    "tol-nan": ("tilde", "{map}", "--tol", "nan"),
    "certificate-pd-min-negative": ("certificate", "{map}", "{cert}",
                                    "--pd-min", "-1"),
    "selftest-rank-rel-1": ("selftest", "--rank-rel", "1"),
    "zero-eps-negative": ("support", "{pattern}", "--zero-eps", "-1"),
    "zero-eps-nan": ("support", "{pattern}", "--zero-eps", "nan"),
    "scale-max-iter-negative": ("scale", "{map}", "--max-iter", "-5"),
    "fnf-max-iter-negative": ("fnf", "{state}", "--max-iter", "-5"),
    "tilde-max-iter-negative": ("tilde", "{map}", "--check", "--max-iter", "-5"),
    # Run, a NaN threshold would let the no-support map reach --max-iter
    # (exit 4) instead of diverging (exit 3).
    "scale-divergence-nan": ("scale", "{bad_map}", "--divergence", "nan",
                             "--max-iter", "300"),
    "fnf-divergence-nan": ("fnf", "{state}", "--divergence", "nan"),
    "tilde-divergence-nan": ("tilde", "{map}", "--check", "--divergence", "nan"),
    # Iterate 0's growth is 0, so a threshold at or below 0 would give a
    # no-support-numerical verdict on a map or state that scales.
    "scale-divergence-0": ("scale", "{map}", "--divergence", "0"),
    "scale-divergence-negative": ("scale", "{map}", "--divergence", "-1"),
    "fnf-divergence-0": ("fnf", "{state}", "--divergence", "0"),
    "fnf-divergence-negative": ("fnf", "{state}", "--divergence", "-1"),
    "tilde-divergence-0": ("tilde", "{map}", "--check", "--divergence", "0"),
    "tilde-divergence-negative": ("tilde", "{map}", "--check", "--divergence", "-1"),
    "batch-out-is-a-file": ("fnf", "{dir}", "--batch", "--out", "{pattern}"),
    "batch-out-under-a-file": ("fnf", "{dir}", "--batch",
                               "--out", "{pattern}/sub"),
    "support-out-without-batch": ("support", "{pattern}", "--out", "{dir}/out"),
    "scale-out-without-batch": ("scale", "{map}", "--out", "{dir}/out"),
    # numpy's generators refuse a negative seed; support and fnf only echo
    # it, and are refused too.
    "support-seed-negative": ("support", "{pattern}", "--seed", "-1"),
    "scale-seed-negative": ("scale", "{map}", "--seed", "-1"),
    "fnf-seed-negative": ("fnf", "{state}", "--seed", "-1"),
    "tilde-seed-negative": ("tilde", "{map}", "--seed", "-1"),
    "certificate-seed-negative": ("certificate", "{map}", "{cert}",
                                  "--seed", "-1"),
    "selftest-seed-negative": ("selftest", "--seed", "-1"),
}

RUN_LIMIT_FLAGS = ("--max-iter", "--divergence")


def fill(argv, workspace):
    return [arg.format(**workspace) for arg in argv]


_EYE2 = matrix_to_obj(np.eye(2))
_NON_HERMITIAN = np.eye(4, dtype=complex)
_NON_HERMITIAN[0, 1] = 1.0

# Input files that must end in exit 2 and a {version, error} report with this
# message.  Each is written to {bad}; other paths come from the workspace.
REFUSED_FILES = {
    "certificate-not-an-object": (("certificate", "{map}", "{bad}"), [_EYE2],
                                  "certificate must be a JSON object"),
    "certificate-empty-projectors": (
        ("certificate", "{map}", "{bad}"),
        {"input_projectors": [], "output_projectors": [_EYE2]},
        'certificate needs a nonempty "input_projectors" list'),
    "certificate-wrong-dimensions": (
        ("certificate", "{map}", "{bad}"),
        {"input_projectors": [matrix_to_obj(np.eye(3))], "output_projectors": [_EYE2]},
        "certificate dimensions do not match the map"),
    "certificate-unequal-counts": (
        ("certificate", "{map}", "{bad}"),
        {"input_projectors": [_EYE2, _EYE2], "output_projectors": [_EYE2]},
        "certificate needs equally many input and output projectors"),
    "certificate-mixed-input-shapes": (
        ("certificate", "{map}", "{bad}"),
        {"input_projectors": [_EYE2, matrix_to_obj(np.eye(3))],
         "output_projectors": [_EYE2, _EYE2]},
        "input projectors have inconsistent shapes"),
    "certificate-mixed-output-shapes": (
        ("certificate", "{map}", "{bad}"),
        {"input_projectors": [_EYE2, _EYE2],
         "output_projectors": [_EYE2, matrix_to_obj(np.eye(3))]},
        "output projectors have inconsistent shapes"),
    "state-not-an-object": (("fnf", "{bad}"), [1, 2], "state must be a JSON object"),
    "state-without-matrix": (("fnf", "{bad}"), {"k": 2, "m": 2},
                             'state file needs a "matrix" field'),
    "map-not-an-object": (("scale", "{bad}"), [1, 2], "map must be a JSON object"),
    "map-without-choi": (("scale", "{bad}"), {"k": 2, "m": 2},
                         'map file needs a "choi" field (or "kind": "state")'),
    "state-not-hermitian": (("fnf", "{bad}"),
                            {"k": 2, "m": 2, "matrix": matrix_to_obj(_NON_HERMITIAN)},
                            "state is not Hermitian: defect 1.414e+00"),
    "state-all-zero": (("fnf", "{bad}"),
                       {"k": 2, "m": 2, "matrix": matrix_to_obj(np.zeros((4, 4)))},
                       "state has nonpositive trace"),
    "map-entry-above-bound": (("scale", "{bad}"),
                              {"k": 2, "m": 2, "choi": matrix_to_obj(1e308 * np.eye(4))},
                              "choi storage has an entry of magnitude 1.000e+308, above "
                              "the bound 2.247e+307 = max double / (2km)"),
}


@pytest.mark.parametrize("argv, content, message", REFUSED_FILES.values(),
                         ids=list(REFUSED_FILES))
def test_refused_input_file_is_exit_2(capsys, workspace, argv, content, message):
    bad = workspace["dir"] / "bad.json"
    atomic_write_json(str(bad), content)
    code, rep = run_cli_json(capsys, *fill(argv, {**workspace, "bad": bad}))
    assert code == 2
    assert rep == {"version": cli.__version__, "error": message}


# A JSON integer of more digits than CPython converts by default (4300), in
# each kind of input file; {bad} is the file, other paths the workspace's.
_DIGITS = "9" * 5001
_ONE = '{"rows": 1, "cols": 1, "data": [1.0]}'
_BIG_MAP = '{"k": %s, "m": 1, "choi": %s}' % (_DIGITS, _ONE)
OVERSIZED_INTEGER = {
    "support": (("support", "{bad}"), '{"rows": %s, "cols": 1, "data": [1.0]}' % _DIGITS),
    "scale": (("scale", "{bad}"), _BIG_MAP),
    "fnf": (("fnf", "{bad}"), '{"k": %s, "m": 1, "matrix": %s}' % (_DIGITS, _ONE)),
    "tilde": (("tilde", "{bad}"), _BIG_MAP),
    "certificate-map": (("certificate", "{bad}", "{cert}"), _BIG_MAP),
    "certificate-cert": (("certificate", "{map}", "{bad}"),
                         '{"input_projectors": [{"rows": %s, "cols": 1, "data": [1.0]}], '
                         '"output_projectors": [%s]}' % (_DIGITS, _ONE)),
}


class TestOversizedIntegers:
    """An integer longer than the interpreter's digit limit is invalid JSON,
    an exit 2 like any other; where the limit is off (PYTHONINTMAXSTRDIGITS=0,
    or a build without one) the file is refused later, still with exit 2."""

    @pytest.mark.parametrize("digits", ["4300", "0"], ids=["limit", "no-limit"])
    @pytest.mark.parametrize("argv, content", OVERSIZED_INTEGER.values(),
                             ids=list(OVERSIZED_INTEGER))
    def test_exit_2_with_error_report(self, workspace, monkeypatch, digits, argv, content):
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", digits)
        bad = workspace["dir"] / "bad.json"
        bad.write_text(content)
        proc = run_entry_point(*fill(argv, {**workspace, "bad": bad}))
        assert (proc.returncode, proc.stderr) == (2, "")
        rep = json.loads(proc.stdout)
        assert set(rep) == {"version", "error"}
        if digits != "0" and hasattr(sys, "set_int_max_str_digits"):
            assert rep["error"].startswith(f"{bad} is not valid JSON: ")

    def test_batch_row(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(_BIG_MAP)
        atomic_write_json(str(tmp_path / "good.json"), map_to_obj(fixtures.boundary_map()))
        code, summary = run_cli_json(capsys, "scale", str(tmp_path), "--batch")
        assert code == 0
        rows = {os.path.basename(r["input"]): r for r in summary["results"]}
        assert rows["good.json"]["exit_code"] == 0
        assert rows["bad.json"]["exit_code"] == 2
        limited = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if 0 < limited < len(_DIGITS):
            assert rows["bad.json"]["error"].startswith(f"{bad} is not valid JSON: ")
        else:
            assert rows["bad.json"]["error"].startswith("choi storage must be ")


class TestBadArguments:
    """Out-of-range numbers, unusable batch output directories and ``--out``
    without ``--batch`` on support and scale are validation errors, on every
    subcommand that takes them; the real entry point ends in a report, never
    in a traceback."""

    @pytest.mark.parametrize("argv", BAD_ARGUMENTS.values(),
                             ids=BAD_ARGUMENTS.keys())
    def test_exit_2_with_error_report(self, capsys, workspace, argv):
        before = sorted(workspace["dir"].rglob("*"))
        code, out = run_cli(capsys, *fill(argv, workspace))
        assert code == 2
        assert set(json.loads(out)) == {"version", "error"}
        assert sorted(workspace["dir"].rglob("*")) == before

    @pytest.mark.parametrize("name, flag", [
        ("tol-0", "--tol"), ("pd-min-2", "--pd-min"),
        ("rank-rel-1", "--rank-rel"), ("certificate-pd-min-negative", "--pd-min")])
    def test_tolerance_error_names_the_flag(self, capsys, workspace, name, flag):
        code, rep = run_cli_json(capsys, *fill(BAD_ARGUMENTS[name], workspace))
        assert code == 2
        assert flag in rep["error"]

    @pytest.mark.parametrize("name", [name for name in BAD_ARGUMENTS
                                      if any(f[2:] in name for f in RUN_LIMIT_FLAGS)])
    def test_run_limit_error_names_the_flag(self, capsys, workspace, name):
        flag = next(f for f in RUN_LIMIT_FLAGS if f[2:] in name)
        code, rep = run_cli_json(capsys, *fill(BAD_ARGUMENTS[name], workspace))
        assert code == 2
        assert flag in rep["error"]

    @pytest.mark.parametrize("divergence", ["1e4", "inf"])
    def test_positive_divergence_is_taken(self, capsys, workspace, divergence):
        _, default = run_cli_json(capsys, "scale", str(workspace["map"]))
        code, rep = run_cli_json(capsys, "scale", str(workspace["map"]),
                                 "--divergence", divergence)
        assert (code, rep) == (0, default)

    @pytest.mark.parametrize("name", [name for name in BAD_ARGUMENTS
                                      if "seed" in name])
    def test_seed_error_names_the_flag(self, capsys, workspace, name):
        code, rep = run_cli_json(capsys, *fill(BAD_ARGUMENTS[name], workspace))
        assert code == 2
        assert rep["error"] == "--seed must be nonnegative, got -1"

    @pytest.mark.parametrize("name", ["tol-0", "batch-out-is-a-file",
                                      "scale-seed-negative"])
    def test_entry_point_exits_2_without_traceback(self, workspace, name):
        proc = run_entry_point(*fill(BAD_ARGUMENTS[name], workspace))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert set(json.loads(proc.stdout)) == {"version", "error"}


class TestOneRefusalRule:
    """``main`` reports every library ValueError and NumericalFailure as
    exit 2 with a {version, error} report and nothing on stderr."""

    def test_a_linalg_error_inside_support_is_a_refusal(self, capsys, workspace,
                                                        monkeypatch):
        def singular(pattern):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(cli, "has_total_support", singular)
        code, out, err = run_cli_strict(capsys, "support", str(workspace["pattern"]))
        assert (code, err) == (2, "")
        assert json.loads(out) == {"version": cli.__version__, "error": "Singular matrix"}

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.data())
    def test_malformed_input_files(self, capsys, tmp_path, case):
        command = case.draw(st.sampled_from(sorted(_MALFORMED)))
        argv, files = case.draw(_MALFORMED[command])
        for name, obj in files.items():
            (tmp_path / name).write_text(json.dumps(obj))
        code, out, err = run_cli_strict(capsys, *(arg.format(dir=tmp_path) for arg in argv))
        assert code in (0, 2, 3, 4, 5)      # README's exit-code table
        assert isinstance(json.loads(out), dict) and err == ""


# Near-valid input files: a valid object of each kind, its entries scaled by
# up to 1e300, then perhaps one field replaced or dropped, or one matrix
# cell replaced, dropped or added.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)
_ODD_VALUES = st.one_of(
    st.sampled_from([0, -1, 2.5, 2.0, "2", True, None, [], {}, 10**12, 2**63, 1e300]),
    st.integers(1, 4), _JSON_VALUES)


@st.composite
def _mutated(draw, obj):
    obj = dict(obj)
    how = draw(st.sampled_from(["keep", "keep", "field", "drop", "cell"]))
    key = draw(st.sampled_from(sorted(obj)))
    if how == "field":
        obj[key] = draw(_ODD_VALUES)
    elif how == "drop":
        del obj[key]
    elif how == "cell" and isinstance(obj.get("data"), list):
        data = list(obj["data"])
        i = draw(st.integers(0, len(data)))
        data[i:i + draw(st.integers(0, 1))] = draw(st.lists(_ODD_VALUES, max_size=1))
        obj["data"] = data
    return obj


@st.composite
def _matrix_file(draw, make):
    M = make(np.random.default_rng(draw(st.integers(0, 2**16))))
    M = M * 10.0 ** draw(st.integers(-300, 300))
    return draw(_mutated(through_text(matrix_to_obj(M))))


def _pattern(rng):
    k, m = rng.integers(1, 5, size=2)
    return rng.random((k, m)) * (rng.random((k, m)) < 0.7)


@st.composite
def _pair_file(draw, field, make):
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    obj = {"k": k, "m": m, field: draw(_matrix_file(lambda rng: make(k, m, rng)))}
    if field == "matrix" and draw(st.booleans()):
        obj["kind"] = "state"       # a state given as a map file
    return draw(_mutated(obj))


_STATES = _pair_file("matrix", fixtures.random_state_matrix)
_MAPS = _pair_file("choi", lambda k, m, rng: fixtures.random_cp_map(k, m, rng).choi) | _STATES


@st.composite
def _certificate_file(draw):
    eye = draw(_matrix_file(lambda rng: np.eye(2)))
    obj = {"input_projectors": [eye], "output_projectors": [eye]}
    return draw(_mutated(obj))


_GOOD_MAP = {"k": 2, "m": 2, "choi": through_text(matrix_to_obj(fixtures.boundary_map().choi))}
_EYE_CERT = through_text({"input_projectors": [_EYE2], "output_projectors": [_EYE2]})


def _one_file(argv, files):
    return st.tuples(st.just(argv), files.map(lambda obj: {"in.json": obj}))


# Each command's argv, with {dir} the test's directory, and its files.
_MALFORMED = {
    "support": _one_file(("support", "{dir}/in.json", "--total"),
                         _matrix_file(_pattern) | _JSON_VALUES),
    "scale": _one_file(("scale", "{dir}/in.json", "--max-iter", "50"), _MAPS | _JSON_VALUES),
    "fnf": _one_file(("fnf", "{dir}/in.json", "--max-iter", "50"), _STATES | _JSON_VALUES),
    "tilde": _one_file(("tilde", "{dir}/in.json"), _MAPS | _JSON_VALUES),
    "certificate": st.one_of(
        st.tuples(st.just(("certificate", "{dir}/map.json", "{dir}/cert.json")),
                  st.fixed_dictionaries({"map.json": _MAPS | _JSON_VALUES,
                                         "cert.json": st.just(_EYE_CERT)})),
        st.tuples(st.just(("certificate", "{dir}/map.json", "{dir}/cert.json")),
                  st.fixed_dictionaries({"map.json": st.just(_GOOD_MAP),
                                         "cert.json": _certificate_file() | _JSON_VALUES}))),
}


def run_entry_point(*argv):
    """The real entry point in a child process: the exit status the
    interpreter returns is what in-process calls cannot see."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "opscale.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


def key_tree(obj):
    """The nested key set of a JSON value: a dict maps each key to the tree
    of its value, a list of objects becomes a one-element list of their
    common tree, and anything else is None."""
    if isinstance(obj, dict):
        return {key: key_tree(value) for key, value in obj.items()}
    if isinstance(obj, list) and obj and all(isinstance(v, dict) for v in obj):
        trees = [key_tree(v) for v in obj]
        assert all(t == trees[0] for t in trees)
        return [trees[0]]
    return None


def leaves(*names):
    return dict.fromkeys(names)


MATRIX = leaves("rows", "cols", "data")
ENVELOPE = {"version": None, "seed": None,
            "tolerances": leaves("rank_rel", "pd_min", "conv_eps")}
WITNESS = leaves("alpha", "beta", "weight", "tight_violation")
SCALING = {**leaves("verdict", "iterations", "in_residual", "out_residual",
                    "logdet", "failure_reason"),
           "input_filter": MATRIX, "output_filter": MATRIX}
MARGINAL = leaves("is_pd", "min_eigenvalue", "max_eigenvalue")
FNF_CHECK = leaves("passed", "defect", "limit")
FNF_REPORT = {
    **ENVELOPE, **leaves("input", "k", "m"),
    "preconditions": {"first_factor": MARGINAL, "second_factor": MARGINAL,
                      "ok": None},
    "sufficient_conditions": leaves(
        "kernel_dim", "marginals_pd", "rect_kernel", "square_kernel",
        "ratio_kernel", "coprime", "coprime_scaling_verdict", "guaranteed"),
    "scaling": SCALING,
    "verification": {**{name: FNF_CHECK for name in (
        "leading_pair", "coefficients", "orthonormal_first",
        "orthonormal_second", "reconstruction", "marginals",
        "filters_invertible", "filtered_state")}, "passed": None},
    **leaves("outcome", "schmidt_rank", "coefficients"),
}
CONDITION = leaves("passed", "sampled", "detail", "worst_defect")


class TestReportContract:
    """The field names of every report and written file, at every depth.
    Key order is not part of the contract."""

    def test_support(self, capsys, workspace):
        _, rep = run_cli_json(capsys, "support", str(workspace["pattern"]),
                              "--total", "--oracle")
        assert key_tree(rep) == {
            **ENVELOPE, **leaves("input", "k", "m", "zero_eps", "support",
                                 "witness", "total_support"),
            "total_witness": {**WITNESS, "entry": None},
            "oracle": leaves("support", "total_support", "agrees"),
        }

    def test_scale_with_history(self, capsys, workspace, tmp_path):
        hist = tmp_path / "hist.json"
        code, rep = run_cli_json(capsys, "scale", str(workspace["map"]),
                                 "--history", str(hist))
        assert code == 0
        assert key_tree(rep) == {
            **ENVELOPE, **leaves("input", "k", "m"), **SCALING,
            "ds_check": leaves("is_doubly_stochastic", "forward_defect",
                               "adjoint_defect"),
            "history_file": None,
        }
        assert key_tree(load_json(str(hist))) == {
            "input": None,
            "history": [leaves("n", "in_residual", "out_residual", "logdet")],
        }

    def test_fnf_and_its_files(self, capsys, workspace, tmp_path):
        prefix = str(tmp_path / "result")
        code, rep = run_cli_json(capsys, "fnf", str(workspace["state"]),
                                 "--out", prefix)
        assert code == 0
        assert key_tree(rep) == {**FNF_REPORT, "files": None}
        files = {
            ".filters.json": {"k": None, "m": None, "filter_first": MATRIX,
                              "filter_second": MATRIX},
            ".state.json": {"k": None, "m": None, "matrix": MATRIX},
            ".schmidt.json": {"k": None, "m": None, "coefficients": None,
                              "first_factors": [MATRIX],
                              "second_factors": [MATRIX]},
            ".report.json": {**FNF_REPORT, "files": None},
        }
        for suffix, tree in files.items():
            assert key_tree(load_json(prefix + suffix)) == tree, suffix

    # Outcomes that compute no normal form: no verification, no files.
    FNF_NO_FORM = {key: FNF_REPORT[key] for key in (
        *ENVELOPE, "input", "k", "m", "preconditions", "sufficient_conditions",
        "outcome")}

    def test_fnf_precondition_failed(self, capsys, tmp_path):
        rho = np.zeros((4, 4))
        rho[0, 0] = rho[1, 1] = 0.5
        path = tmp_path / "sing.json"
        atomic_write_json(str(path), state_to_obj(BipartiteState(2, 2, rho)))
        code, rep = run_cli_json(capsys, "fnf", str(path),
                                 "--out", str(tmp_path / "x"))
        assert (code, rep["outcome"]) == (2, "precondition-failed")
        assert key_tree(rep) == {**self.FNF_NO_FORM, "error": None}

    def test_fnf_max_iter_inconclusive(self, capsys, workspace, tmp_path):
        # A coprime 2x3 state: its coprime verdict is the job's own.
        code, rep = run_cli_json(capsys, "fnf", str(workspace["state"]),
                                 "--max-iter", "0", "--out", str(tmp_path / "y"))
        assert (code, rep["outcome"]) == (4, "max-iter-inconclusive")
        assert key_tree(rep) == {**self.FNF_NO_FORM, "scaling": SCALING}
        suff = rep["sufficient_conditions"]
        assert suff["coprime"] is True
        assert suff["coprime_scaling_verdict"] == rep["outcome"]
        assert rep["scaling"]["verdict"] == rep["outcome"]

    def test_fnf_numerical_failure(self, capsys, tmp_path):
        # The scaling converges, then the filtered state is rejected: the
        # report holds no scaling block and no coprime verdict.
        path = tmp_path / "near.json"
        atomic_write_json(str(path), state_to_obj(near_psd_state(0)))
        code, rep = run_cli_json(capsys, "fnf", str(path),
                                 "--out", str(tmp_path / "n"))
        assert (code, rep["outcome"]) == (2, "numerical-failure")
        assert key_tree(rep) == {**self.FNF_NO_FORM, "error": None}
        suff = rep["sufficient_conditions"]
        assert suff["coprime"] is True
        assert suff["coprime_scaling_verdict"] is None

    def test_fnf_batch_summary(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        indir = tmp_path / "jobs"
        os.makedirs(indir)
        for idx in range(2):
            state = BipartiteState(2, 2, fixtures.random_state_matrix(2, 2, rng))
            atomic_write_json(str(indir / f"s{idx}.json"), state_to_obj(state))
        _, rep = run_cli_json(capsys, "fnf", str(indir), "--batch",
                              "--out", str(tmp_path / "out"))
        assert key_tree(rep) == {
            **ENVELOPE, **leaves("batch_dir", "jobs", "failed"),
            "results": [leaves("input", "exit_code", "report", "error")],
        }

    def test_tilde_check(self, capsys, workspace, tmp_path):
        _, rep = run_cli_json(capsys, "tilde", str(workspace["map"]),
                              "--out", str(tmp_path / "lift.json"), "--check")
        assert key_tree(rep) == {
            **ENVELOPE, **leaves("input", "output", "k", "m", "lifted_k",
                                 "lifted_m"),
            "check": leaves("original_verdict", "lifted_verdict",
                            "category_match"),
        }

    def test_certificate(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        parts = [fixtures.random_cp_map(2, 2, rng), fixtures.random_cp_map(1, 1, rng)]
        T, cert = fixtures.direct_sum_map(parts)
        atomic_write_json(str(tmp_path / "m.json"), map_to_obj(T))
        atomic_write_json(str(tmp_path / "c.json"), {
            "input_projectors": [matrix_to_obj(p) for p in cert.input_projectors],
            "output_projectors": [matrix_to_obj(p) for p in cert.output_projectors],
        })
        code, rep = run_cli_json(capsys, "certificate", str(tmp_path / "m.json"),
                                 str(tmp_path / "c.json"))
        assert code == 0
        assert key_tree(rep) == {
            **ENVELOPE, "map": None, "certificate": None,
            **{name: CONDITION for name in ("decomposition", "invariance",
                                            "strict_rank_increase",
                                            "rank_ratio")},
            "passed": None,
        }


class TestParser:
    def test_commutation_steps_is_refused(self, capsys, workspace):
        # The flag is gone: a script that still passes it fails loudly.
        with pytest.raises(SystemExit) as exc:
            cli.main(fill(("certificate", "{map}", "{cert}",
                           "--commutation-steps", "5"), workspace))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --commutation-steps 5" in err

    def test_main_reuses_one_parser(self, capsys, workspace, monkeypatch):
        def refuse():
            raise AssertionError("main rebuilt the parser")
        monkeypatch.setattr(cli, "build_parser", refuse)
        for _ in range(2):
            code, rep = run_cli_json(capsys, "support", str(workspace["pattern"]))
            assert code == 0 and rep["support"] is True


class TestSelftest:
    def test_battery_passes(self, capsys):
        code, out = run_cli(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out
        assert "0 failure(s)" in out

    def test_failing_and_raising_checks_exit_1(self, capsys, monkeypatch):
        def raising():
            raise ValueError("no luck")

        monkeypatch.setattr(cli, "_selftest_checks", lambda seed, tol: [
            ("passing check", lambda: True), ("false check", lambda: False),
            ("raising check", raising)])
        code, out = run_cli(capsys, "selftest")
        assert code == 1
        assert out.splitlines() == ["[ok] passing check", "[FAIL] false check",
                                    "[FAIL] raising check (ValueError: no luck)",
                                    "2 failure(s)"]
