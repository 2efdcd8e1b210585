"""Bulk CSV rows: the bytes of one ``.12g`` f-string per row, written in blocks.

A large export (the million-cell objective grid, a million-round log) spends
its time formatting, not computing.  Two things make that cheap without
changing a byte.  A low-cardinality column is formatted once per distinct
value and then indexed, and several such columns can be fused into one.
The rows of a block are built by a single ``%`` over one flat tuple of
cells.  Blocks of :data:`CHUNK_ROWS` rows keep the memory a write needs
bounded whatever the row count.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Rows formatted and written per block.
CHUNK_ROWS = 65_536

#: A labelled column: row i reads ``labels[codes[i]]``.
Labelled = tuple[np.ndarray, np.ndarray]


def distinct_g12(values) -> Labelled:
    """Format each distinct float64 of ``values`` once, with the ``.12g`` spec.

    Values are told apart by their bit pattern, so ``-0.0`` and ``0.0`` keep
    their own strings.  Meant for columns with few distinct values.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    bits, codes = np.unique(x.view(np.int64), return_inverse=True)
    labels = np.array([format(v, ".12g") for v in bits.view(np.float64).tolist()], dtype=object)
    return labels, codes


def flags(values, false: str, true: str) -> Labelled:
    """Label a column by the truth of each value: ``true`` or ``false``."""
    return np.array([false, true], dtype=object), np.asarray(values, dtype=bool).view(np.uint8)


def fuse(columns: Sequence[Labelled]) -> Labelled:
    """Join labelled columns into one, its labels the row strings joined by ``,``.

    The fused column has one label per combination of labels that occurs,
    so a few low-cardinality columns make a few labels, whatever the row
    count.  Columns are folded in one at a time, and each fold numbers the
    pairs (combination so far, next label) that occur: from a table of all
    pairs when there are no more of them than rows, else by sorting.  After
    the first fold there are at most as many combinations as rows, so a
    pair's key is below the product of two label counts or of the row count
    and a label count, never of all label counts: it stays inside int64
    however many columns and labels there are.
    """
    labels, codes = columns[0]
    for more, more_codes in columns[1:]:
        width = len(more)
        key = codes.astype(np.int64) * width + more_codes
        if len(labels) * width <= len(key):
            seen = np.bincount(key, minlength=len(labels) * width).astype(bool)
            pairs = np.flatnonzero(seen)
            codes = (np.cumsum(seen) - 1)[key]
        else:
            pairs, codes = np.unique(key, return_inverse=True)
        labels = labels[pairs // width] + "," + more[pairs % width]
    return labels, codes


def write_rows(
    path,
    head: str,
    row_fmt: str,
    columns: Sequence[np.ndarray | Labelled],
) -> None:
    """Write ``head``, then one ``row_fmt`` line per row, a block at a time.

    ``row_fmt`` holds one ``%`` conversion per column and ends in a newline.
    A column is either a :data:`Labelled` pair, whose strings fill a ``%s``,
    or an array whose elements ``row_fmt`` formats itself (``%.12g``, ``%d``).
    All columns have the same length.
    """
    lengths = {len(col[1]) if isinstance(col, tuple) else len(col) for col in columns}
    if len(lengths) != 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    (n,) = lengths
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        for lo in range(0, n, CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, n)
            cells = np.empty((hi - lo, len(columns)), dtype=object)
            for j, col in enumerate(columns):
                cells[:, j] = col[0][col[1][lo:hi]] if isinstance(col, tuple) else col[lo:hi]
            fh.write((row_fmt * (hi - lo)) % tuple(cells.ravel().tolist()))
