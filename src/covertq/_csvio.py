"""Shared CSV emission: one comment line of provenance, then header + rows.

All emitted files look like

    # seed=1 K=1000000 channel_digest=ab12...
    colA,colB
    0.25,true

Floats are written with repr's shortest round-trip form ('.' decimal
separator, full binary64 fidelity), booleans as true/false, missing values
as empty fields.  Identical inputs therefore produce byte-identical files.
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


def write_csv(path, columns, rows, *, seed, K, digest: bytes) -> None:
    """Write rows (iterables of cells) under a provenance comment + header."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={int(seed)} K={int(K)} channel_digest={digest.hex()}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_cell(cell) for cell in row])
