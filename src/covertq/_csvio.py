"""CSV emission: one comment line of provenance, then header + rows.

write_csv is the one CSV writer.  covertq.cli alone calls it and declares
each artifact's columns and rows; the library modules return results only.
All emitted files look like

    # seed=1 K=1000000 channel_digest=ab12...
    colA,colB
    0.25,true

The comment line is read from the SampleSet the rows come from.

An existing regular file at the path (symlinks resolved) is unlinked and a
new one created, as save_sample_set does for caches: the new file gets
default permissions, a hard link to the old one keeps the old bytes, and
the directory must be writable.  Anything else, such as /dev/null or a FIFO,
is opened for writing as it is.

Floats are written with repr's shortest round-trip form ('.' decimal
separator, full binary64 fidelity), booleans as true/false, missing values
as empty fields.  Identical inputs therefore produce byte-identical files.

format_cell defines a cell's text.  write_csv looks each cell's exact type
up in a table that holds, for the types the CLI emits (float,
numpy.float64, bool, numpy.bool_, int, str), a function returning the same
string format_cell does without its abstract-base-class checks; any other
type, subclasses included, goes through format_cell itself.

Sweeps repeat few distinct floats (weights, grid points, budgets) across
many rows, so write_csv formats each one once: a float or numpy.float64
cell takes its text from a memo keyed by value that lives for one call.
Zeros are never stored (0.0 and -0.0 are equal keys with different texts),
and the memo is cleared when it holds _MEMO_TEXTS texts, so a large export
of distinct values keeps at most that many.  A row whose cells are all
float, numpy.float64, int, bool or numpy.bool_ is written as its texts
joined by commas: such text holds no delimiter, quote or line break, so
csv.writer would write the same bytes.  Any other row goes through
csv.writer.
"""

from __future__ import annotations

import csv
import numbers
import os

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

# Types whose text never needs quoting: a row of these is joined directly.
_PLAIN = frozenset({float, np.float64, int, bool, np.bool_})

# The memo's bound.  Every default CSV holds fewer distinct floats: the
# 20 x 20 surface, the largest, holds under 900.
_MEMO_TEXTS = 4096


def unlink_regular_file(path) -> None:
    """Unlink the regular file at path, symlinks resolved, if there is one.

    A writer that calls this before it opens path creates a new file instead
    of truncating the old one in place: a set loaded from it may map the old
    inode, and ext4 flushes a truncated non-empty file on close (a rename
    over it would flush too).  Devices and FIFOs are left alone.
    """
    if os.path.isfile(path):
        os.unlink(os.path.realpath(path))


def write_csv(path, columns, rows, source) -> None:
    """Write rows (iterables of cells) under source's provenance + a header.

    Rows are read once, in order.  Float texts come from a per-call memo of
    at most _MEMO_TEXTS entries, and a row of plain numbers and booleans is
    joined without csv.writer; the bytes are csv.writer's either way.
    """
    fmt = _FORMAT_BY_TYPE.get
    memo = {}
    cached = memo.get
    unlink_regular_file(path)
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed={int(source.seed)} K={int(source.K)} "
                 f"channel_digest={source.channel_digest.hex()}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        write = fh.write
        for row in rows:
            texts, plain = [], True
            for cell in row:
                kind = type(cell)
                if kind is float or kind is np.float64:
                    text = cached(cell)
                    if text is None:
                        text = float.__repr__(cell)
                        if cell:
                            if len(memo) == _MEMO_TEXTS:
                                memo.clear()
                            memo[cell] = text
                else:
                    plain = plain and kind in _PLAIN
                    text = fmt(kind, format_cell)(cell)
                texts.append(text)
            if plain:
                write(",".join(texts) + "\n")
            else:
                writer.writerow(texts)
