"""CSV emission: the type-keyed cell formatter, the float memo and the joined
plain rows write the bytes of csv.writer over format_cell."""

import csv
import io
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from covertq._csvio import format_cell, write_csv


class ReprFloat(float):
    def __repr__(self):
        return "ReprFloat(...)"


CELLS = [
    None, True, np.True_, 0, -1, 2**70, np.int64(7),
    0.1, -0.0, float("inf"), float("nan"), np.float64(1 / 3), np.float32(0.1),
    ReprFloat(2.5), Fraction(1, 3), "a,b",
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
    # Every cell type the writers emit, and types they do not (subclasses,
    # other numeric types), cell for cell through format_cell as reference.
    rows = [
        CELLS,
        CELLS[::-1],
        [False, np.False_, np.float64("-inf"), np.float64(-0.0), 5e-324, 1e300, ""],
    ]
    columns = [f"c{i}" for i in range(len(CELLS))]
    path = tmp_path / "cells.csv"
    write_csv(path, columns, rows, SOURCE)
    assert path.read_bytes() == reference_bytes(columns, rows)
    assert path.read_text().splitlines()[2] == (
        ",true,true,0,-1,1180591620717411303424,7,0.1,-0.0,inf,nan,"
        '0.3333333333333333,0.10000000149011612,2.5,0.3333333333333333,"a,b"'
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
        [1, True, np.True_, -7, False, np.False_],
        [2.5, 2, 2.5, True, np.float64(2.5), -0.0],
        ["a,b", 'say "x"', "line\nbreak", "", None, 0.1],
        [None],
        [""],
        [],
        [0.1, 0.1, np.float32(0.1), np.int64(3), 0.1, 1e-05],
        [1e-05, np.float64(1e-05), 123456789.0, 1e16, 1e22, 0.1],
    ]
    columns = [f"c{i}" for i in range(6)]
    path = tmp_path / "memo.csv"
    write_csv(path, columns, rows * 3, SOURCE)
    assert path.read_bytes() == reference_bytes(columns, rows * 3)


def test_write_csv_memo_stays_bounded(tmp_path):
    # 2**17 rows of distinct floats: an unbounded memo would keep one text
    # and one dict slot per value, over 10 MB; the bounded one stays small.
    values = (np.arange(2**17) * 1.000001 + 0.5).tolist()
    rows = ((i, v) for i, v in enumerate(values))
    path = tmp_path / "distinct.csv"
    tracemalloc.start()
    try:
        write_csv(path, ["index", "value"], rows, SOURCE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    lines = path.read_text().splitlines()
    assert len(lines) == 2 + 2**17
    assert lines[-1] == f"{2**17 - 1},{values[-1]!r}"
