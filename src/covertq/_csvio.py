"""Shared CSV emission: one comment line of provenance, then header + rows.

All emitted files look like

    # seed=1 K=1000000 channel_digest=ab12...
    colA,colB
    0.25,true

The comment line is read from the rows' source: the SampleSet they come
from, or any object with its seed, K and channel_digest (a resolved config).

Floats are written with repr's shortest round-trip form ('.' decimal
separator, full binary64 fidelity), booleans as true/false, missing values
as empty fields.  Identical inputs therefore produce byte-identical files.

format_cell defines a cell's text.  write_csv looks each cell's exact type
up in a table that holds, for the types the writers emit (float,
numpy.float64, bool, numpy.bool_, int, str), a function returning the same
string format_cell does without its abstract-base-class checks; any other
type, subclasses included, goes through format_cell itself.
"""

from __future__ import annotations

import csv
import numbers

import numpy as np

__all__ = ["format_cell", "write_csv"]


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return repr(float(value))
    return str(value)


# float.__repr__ is repr(float(v)) for a float or a numpy.float64 (a float
# subclass); int.__repr__ is str(int(v)) for an int.
_BOOL_TEXT = {True: "true", False: "false"}.__getitem__
_FORMAT_BY_TYPE = {
    float: float.__repr__,
    np.float64: float.__repr__,
    bool: _BOOL_TEXT,
    np.bool_: _BOOL_TEXT,
    int: int.__repr__,
    str: str,
}


def write_csv(path, columns, rows, source) -> None:
    """Write rows (iterables of cells) under source's provenance + a header."""
    fmt = _FORMAT_BY_TYPE.get
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={int(source.seed)} K={int(source.K)} "
                 f"channel_digest={source.channel_digest.hex()}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(type(cell), format_cell)(cell) for cell in row])
