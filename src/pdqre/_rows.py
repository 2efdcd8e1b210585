"""Bulk CSV rows: the bytes of one ``.12g`` f-string per row, written in blocks.

A large export (the million-cell objective grid, a million-round log) spends
its time formatting, not computing.  Its label cells (axis values, flags,
choices, payoffs) take few distinct values, so each distinct value is
formatted once and then indexed, and several labelled columns can be fused
into one.  A label goes into a row template as text, its ``%`` escaped by
:func:`template`, so a block of rows is one format string and a single ``%``
converts only its numeric cells.  A block holds at most :data:`CHUNK_ROWS`
rows, which keeps the memory a write needs bounded whatever the row count.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

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


def template(fmt: str, *labels: str) -> str:
    """``fmt`` with ``labels`` in its ``{}`` fields, each ``%`` doubled so that ``%`` keeps it."""
    return fmt.format(*(label.replace("%", "%%") for label in labels))


def labelled_blocks(fmt: str, column: Labelled, values) -> Iterator[tuple[str, tuple]]:
    """Blocks of at most :data:`CHUNK_ROWS` rows for :func:`write_blocks`.

    Row i is ``fmt`` with ``labels[codes[i]]`` in its ``{}`` field and
    ``values[i]`` in its one ``%`` conversion.  Each label's template is
    built once, so a block's ``%`` converts only the values.
    """
    labels, codes = column
    if len(codes) != len(values):
        raise ValueError(f"{len(codes)} labelled rows but {len(values)} rows of values")
    templates = np.array([template(fmt, label) for label in labels.tolist()], dtype=object)
    chunks = [slice(lo, lo + CHUNK_ROWS) for lo in range(0, len(codes), CHUNK_ROWS)]
    return (("".join(templates[codes[c]].tolist()), tuple(values[c].tolist())) for c in chunks)


def write_blocks(path, head: str, blocks: Iterable[tuple[str, tuple]]) -> None:
    """Write ``head``, then ``block % values`` for each (block, values) in turn."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        for block, values in blocks:
            fh.write(block % values)
