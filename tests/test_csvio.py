"""CSV emission: the type-keyed cell texts, the float memo and the joined
plain rows write the bytes of csv.writer over a reference format_cell, and
a cell of any other type is refused."""

import csv
import io
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from covertq._csvio import write_csv

from conftest import peak_bytes


def format_cell(value) -> str:
    # The reference text of each supported cell type, by isinstance checks
    # instead of the writer's exact-type table.
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))
    assert isinstance(value, str)
    return value


CELLS = [
    None, True, False, 0, -1, 2**70,
    0.1, -0.0, float("inf"), float("nan"), np.float64(1 / 3), "a,b",
]


SOURCE = SimpleNamespace(seed=2, K=9, channel_digest=b"\xab\x01")


def reference_bytes(columns, rows):
    # The reference writer: csv.writer over format_cell, cell for cell.
    expected = io.StringIO()
    expected.write("# seed=2 K=9 channel_digest=ab01\n")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_cell(cell) for cell in row])
    return expected.getvalue().encode()


def test_write_csv_matches_format_cell(tmp_path):
    # Every supported cell type, cell for cell through format_cell as
    # reference.
    rows = [
        CELLS,
        CELLS[::-1],
        [False, np.float64("-inf"), np.float64(-0.0), 5e-324, 1e300, ""],
    ]
    columns = [f"c{i}" for i in range(len(CELLS))]
    path = tmp_path / "cells.csv"
    write_csv(path, columns, rows, SOURCE)
    assert path.read_bytes() == reference_bytes(columns, rows)
    assert path.read_text().splitlines()[2] == (
        ',true,false,0,-1,1180591620717411303424,0.1,-0.0,inf,nan,0.3333333333333333,"a,b"'
    )


NAN = float("nan")


def test_write_csv_memo_and_joined_rows_match_csv_writer(tmp_path):
    # Repeated floats come from the memo and all-number rows are joined
    # without csv.writer; neither may change a byte.  Signed zeros repeat in
    # both orders (equal keys, different texts), NaN repeats as one object
    # and as fresh ones, a float and a numpy.float64 of equal value share a
    # memo entry, and plain rows sit beside rows that hold str or None and
    # rows of ints and bools only.
    rows = [
        [0.1, 0.1, np.float64(0.1), 0.1, 1 / 3, np.float64(1 / 3)],
        [0.0, -0.0, 0.0, -0.0, np.float64(-0.0), np.float64(0.0)],
        [-0.0, 0.0, -0.0, np.float64(0.0), np.float64(-0.0), 0.0],
        [NAN, NAN, float("nan"), np.float64("nan"), -NAN, np.float64("-nan")],
        [float("inf"), -float("inf"), np.float64("inf"), np.float64("-inf"), 1e308, -5e-324],
        [0.1, "text", 0.1, None, 0.0, -0.0],
        [1, True, 10**20, -7, False, 0],
        [2.5, 2, 2.5, True, np.float64(2.5), -0.0],
        ["a,b", 'say "x"', "line\nbreak", "", None, 0.1],
        [None],
        [""],
        [],
        [0.1, 0.1, 0.25, 3, 0.1, 1e-05],
        [1e-05, np.float64(1e-05), 123456789.0, 1e16, 1e22, 0.1],
    ]
    columns = [f"c{i}" for i in range(6)]
    path = tmp_path / "memo.csv"
    write_csv(path, columns, rows * 3, SOURCE)
    assert path.read_bytes() == reference_bytes(columns, rows * 3)


class ReprFloat(float):
    def __repr__(self):
        return "ReprFloat(...)"


@pytest.mark.parametrize("cell", [
    np.True_, np.False_, np.int64(7), np.float32(0.1), ReprFloat(2.5), Fraction(1, 3),
], ids=["np.True_", "np.False_", "np.int64", "np.float32", "float-subclass", "Fraction"])
def test_write_csv_refuses_other_cell_types(tmp_path, cell):
    # Types with no entry in the writer's table are refused, in a joined row
    # and in a csv.writer row alike, however plain their text would be:
    # other numpy scalars, float subclasses and other number types.
    kind = type(cell)
    name = re.escape(f"{kind.__module__}.{kind.__qualname__}")
    for row in ([0.5, 1, cell], ["text", cell]):
        with pytest.raises(TypeError, match=f"type {name}$"):
            write_csv(tmp_path / "refused.csv", ["a", "b", "c"], [[0.5, True], row], SOURCE)


def test_write_csv_memo_stays_bounded(tmp_path):
    # 2**17 rows of distinct floats: an unbounded memo would keep one text
    # and one dict slot per value, over 10 MB; the bounded one stays small.
    values = (np.arange(2**17) * 1.000001 + 0.5).tolist()
    rows = ((i, v) for i, v in enumerate(values))
    path = tmp_path / "distinct.csv"
    peak, _ = peak_bytes(lambda: write_csv(path, ["index", "value"], rows, SOURCE))
    assert peak < 2 * 2**20
    lines = path.read_text().splitlines()
    assert len(lines) == 2 + 2**17
    assert lines[-1] == f"{2**17 - 1},{values[-1]!r}"
