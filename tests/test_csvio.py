"""The block CSV writer gives the bytes of the ``csv`` module, and every output
file is replaced atomically: a write that raises leaves the old file as it was."""

import csv
import json
import math
import os
import stat
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussequiv._csvio import _BLOCK, write_csv
from gaussequiv.cli import _write_json

SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.5e-310, 1e16, 1e-5, 1e22, 0.1]
FLOATS = st.floats() | st.sampled_from(SPECIAL_FLOATS)
INT64 = st.integers(-(2**63), 2**63 - 1)
WIDE_INTS = st.integers(-(2**100), 2**100) | st.sampled_from([2**63, 2**64, -(2**63) - 1])
# csv quotes "\r" only on some Python releases when the line terminator is "\n", and
# writes a header of one empty name as '""'; the package's headers have three or more names
HEADER_NAMES = st.text(st.sampled_from(string.printable.replace("\r", "")), min_size=1, max_size=8)


@st.composite
def columns_and_header(draw):
    """1-4 columns of one length: float64, int64 and float32 ndarrays and lists of
    Python ints past int64, drawn from small pools and tiled to 0 rows or to
    one block less one, one block, or one block and one of rows."""
    kinds = draw(st.lists(st.sampled_from(["float64", "int64", "float32", "wide"]), min_size=1, max_size=4))
    step = _BLOCK // len(kinds)
    n = draw(st.sampled_from([0, 1, 2, step - 1, step, step + 1]))
    pick = np.random.default_rng(draw(st.integers(0, 2**32))).integers
    columns = []
    for kind in kinds:
        pool = {
            "float64": FLOATS,
            "int64": INT64,
            "float32": st.floats(width=32) | st.sampled_from(SPECIAL_FLOATS),
            "wide": WIDE_INTS,
        }[kind]
        values = draw(st.lists(pool, min_size=1, max_size=20))
        rows = [values[i] for i in pick(0, len(values), n)]
        columns.append(rows if kind == "wide" else np.array(rows, dtype=kind))
    header = draw(st.none() | st.lists(HEADER_NAMES, min_size=len(kinds), max_size=len(kinds)))
    return columns, header


def csv_module_bytes(path, header, columns) -> bytes:
    """The reference: ``csv.writer`` on the same rows as Python scalars."""
    cells = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        if header is not None:
            w.writerow(header)
        w.writerows(zip(*cells))
    return path.read_bytes()


@settings(max_examples=40, deadline=None)
@given(columns_and_header())
def test_bytes_equal_the_csv_module(tmp_path_factory, drawn):
    columns, header = drawn
    tmp = tmp_path_factory.mktemp("csv")
    write_csv(tmp / "blocks.csv", header, columns)
    assert (tmp / "blocks.csv").read_bytes() == csv_module_bytes(tmp / "module.csv", header, columns)


@pytest.mark.parametrize("n", [0, _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_block_edges_with_every_special_float(tmp_path, n):
    floats = np.resize(np.array(SPECIAL_FLOATS), n)
    columns = [np.arange(n), floats, floats.astype(np.float32)]
    write_csv(tmp_path / "blocks.csv", ["n", "x", "x32"], columns)
    expected = csv_module_bytes(tmp_path / "module.csv", ["n", "x", "x32"], columns)
    assert (tmp_path / "blocks.csv").read_bytes() == expected


def test_columns_of_different_lengths_rejected(tmp_path):
    with pytest.raises(ValueError, match="1-D and of one length"):
        write_csv(tmp_path / "out.csv", None, [np.zeros(3), np.zeros(2)])
    assert os.listdir(tmp_path) == []


class _Unprintable:
    def __repr__(self):
        raise RuntimeError("cell cannot be formatted")


def _unlink_records_size(monkeypatch, sizes):
    unlink = os.unlink

    def recording(path):
        sizes.append(os.path.getsize(path))
        unlink(path)

    monkeypatch.setattr(os, "unlink", recording)


def test_write_failing_partway_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "criterion.csv"
    path.write_bytes(b"old contents\n")
    # the first block is written before a cell of the second block fails
    column = [1.5] * (_BLOCK + 3) + [_Unprintable()]
    sizes = []
    _unlink_records_size(monkeypatch, sizes)
    with pytest.raises(RuntimeError, match="cannot be formatted"):
        write_csv(path, ["x"], [column])
    assert sizes and sizes[0] > len("x\n")
    assert path.read_bytes() == b"old contents\n"
    assert os.listdir(tmp_path) == ["criterion.csv"]


def test_write_failing_partway_leaves_no_new_file(tmp_path):
    with pytest.raises(RuntimeError, match="cannot be formatted"):
        write_csv(tmp_path / "criterion.csv", None, [[1.5] * (_BLOCK + 3) + [_Unprintable()]])
    assert os.listdir(tmp_path) == []


def test_json_write_that_raises_leaves_the_old_file(tmp_path):
    path = tmp_path / "verdict.json"
    path.write_text("{}\n")
    with pytest.raises(TypeError):
        _write_json(path, {"verdict": object()})
    assert path.read_text() == "{}\n"
    assert os.listdir(tmp_path) == ["verdict.json"]


def test_replacement_has_the_mode_of_a_plainly_created_file(tmp_path):
    (tmp_path / "plain").write_text("")
    write_csv(tmp_path / "out.csv", None, [np.arange(3)])
    _write_json(tmp_path / "out.json", {"a": 1})
    mode = stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
    assert stat.S_IMODE(os.stat(tmp_path / "out.csv").st_mode) == mode
    assert stat.S_IMODE(os.stat(tmp_path / "out.json").st_mode) == mode
    assert json.loads((tmp_path / "out.json").read_text()) == {"a": 1}
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "out.json", "plain"]
