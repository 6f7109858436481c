"""CSV emission: the type-keyed cell formatter writes format_cell's bytes."""

import csv
import io
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
    write_csv(path, columns, rows, SimpleNamespace(seed=2, K=9, channel_digest=b"\xab\x01"))
    expected = io.StringIO()
    expected.write("# seed=2 K=9 channel_digest=ab01\n")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_cell(cell) for cell in row])
    assert path.read_bytes() == expected.getvalue().encode()
    assert path.read_text().splitlines()[2] == (
        ",true,true,0,-1,1180591620717411303424,7,0.1,-0.0,inf,nan,"
        '0.3333333333333333,0.10000000149011612,2.5,0.3333333333333333,"a,b"'
    )
