"""Bulk CSV rows: the bytes of one ``.12g`` f-string per row, written in blocks.

A large export (the million-cell objective grid, a million-round log) spends
its time formatting, not computing.  Its label cells (axis values, flags, a
round's choices and payoffs) take few distinct values, so each distinct value
is formatted once and then indexed.  A label goes into a row template as text,
its ``%`` escaped by :func:`template`, so a block of rows is one format string
and a single ``%`` converts only its numeric cells.  A block holds at most
:data:`CHUNK_ROWS` rows, which keeps the memory a write needs bounded whatever
the row count.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

#: Rows formatted and written per block.
CHUNK_ROWS = 65_536

#: A labelled column: row i reads ``labels[codes[i]]``.
Labelled = tuple[np.ndarray, np.ndarray]


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
