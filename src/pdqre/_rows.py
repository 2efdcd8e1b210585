"""Bulk CSV rows rendered as bytes in numpy: literal text, labels, ``%.12g`` and ``%d``.

A large export (the million-cell objective grid, a million-round log) would
spend its time in Python's per-cell ``%`` conversions, so a block of rows is
built as one numpy array of bytes instead.  A row is a sequence of columns:

- literal text (a ``str``), the same in every row;
- a labelled column ``(labels, codes)``: row i reads ``labels[codes[i]]``;
- a float array, each value written as ``'%.12g' % x`` writes it;
- an integer array, each value written as ``'%d' % n`` writes it.

Each column is laid out as a fixed number of ``uint64`` words per row, its
cells padded with NUL bytes wherever they are shorter, and the columns of a
block side by side; one compaction drops every NUL and leaves the rows' bytes.  So no label or
literal may hold a NUL: :func:`labels` and :func:`blocks` refuse one before
anything is rendered.  :func:`blocks` cuts the rows into blocks of at most
:data:`CHUNK_ROWS`, which keeps the memory a write needs bounded whatever
the row count.

Digits come from a table of the 10,000 four-digit strings, each the low half
of a little-endian ``uint64`` word, so a number's cell is a few words per
row: masks keep the digits it shows, and the digits after a decimal point
move one byte on to make room for it.

Why ``%.12g`` stays exact.  For a finite x != 0 let e = floor(log10 |x|),
-324 <= e <= 308, and y = |x| * 10**(11 - e).  A table per e holds
10**(11 - e) as 2**h * S, S correctly rounded and 2**h about its square
root, so |x| * 2**h is exact (for a subnormal x too) and the product p
lies within y * 2**-52 < 2.3e-4 of y.  Where p is more than 2.5e-4 from
every half-integer, y and p lie on the same side of each, so m = rint(p)
is the correctly rounded 12-digit significand if it lies in [1e11, 1e12)
(log10 may be one off next to a power of ten, or y round up to 1e12).  A
zero is m = 0 in the layout of e = 0.  Python's ``'%.12g' %`` writes the
rest: m out of range, p near a half-integer (about 1 in 2,000 random
values) and non-finite x.  The layout is Python's: fixed notation for
-4 <= e < 12, scientific otherwise, trailing zeros stripped (and the point
with them), the exponent at least two digits.
"""

from __future__ import annotations

import functools
import sys
from typing import Iterable, Iterator

import numpy as np

#: Rows rendered and written per block.
CHUNK_ROWS = 65_536

#: The exponents e of finite doubles, from the smallest subnormal's to the largest's.
_E_MIN, _E_MAX = -324, 308

#: For k = 0..8, the mask that clears the first k bytes of a word.
_LATER_BYTES = np.array([2**64 - 2 ** (8 * k) for k in range(9)], dtype=np.uint64)


def _words(strings: list[bytes], width: int = 8) -> np.ndarray:
    """``strings`` NUL-padded to ``width`` bytes, a multiple of 8, as rows of uint64 words."""
    return np.array(strings, dtype=f"S{width}").view(np.uint64).reshape(len(strings), width // 8)


def _layout(e: int, shown: int, sign: bytes) -> tuple[bytes, ...]:
    """The fields of a ``%.12g`` cell of exponent e with ``shown`` significant digits.

    e = 12 stands for every exponent of scientific notation.  The fields
    are: the sign with the "0." and zeros of -4 <= e < 0; and over the two
    words of the 12 digits, the masks of the digits before the point and of
    those after it, and the point, in the byte after the digits before it
    if any digits follow it.  A zero has shown = 0 and shows its one digit.
    """
    fixed = e < 12
    before = e + 1 if 0 <= e < 12 else shown if fixed else 1
    after = max(shown, before)
    return (
        sign + (b"0." + b"0" * (-e - 1) if e < 0 else b""),
        b"\xff" * before + b"\0" * (16 - before),
        b"\0" * before + b"\xff" * (after - before),
        b"\0" * before + b"." if after > before else b"",
    )


@functools.lru_cache(maxsize=None)
def _tables() -> dict[str, np.ndarray]:
    """Lookup tables, built on first use so that importing the package costs nothing.

    ``quads``: the 4-digit string of each of 0..9999 as a word; ``trailing``:
    its trailing zeros.  Per exponent e, from :data:`_E_MIN`: ``scale_1`` and
    ``scale_2``, 2**h and S of the module docstring; ``exponent``, the word
    of scientific notation's "e+XX", empty in fixed notation; and ``code``,
    the first row of e's layouts.  Per field of :func:`_layout`, its two words
    over (exponent -4..12, significant digits 0..12, sign), as ``prefix_0``,
    ``prefix_1`` and so on.
    """
    if sys.byteorder != "little":  # a word's low byte must be the string's first
        raise NotImplementedError("the CSV renderer needs a little-endian machine")
    q = np.arange(10_000)
    digits = np.zeros((q.size, 8), dtype=np.uint8)
    digits[:, :4] = q[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    exponents = range(_E_MIN, _E_MAX + 1)
    ks = [11 - e for e in exponents]
    halves = [k * 1661 // 1000 for k in ks]  # about half of log2(10**k)
    # 10**k / 2**h as a quotient of integers, which Python rounds correctly
    quotients = [(10**k, 1 << h) if k >= 0 else (1 << -h, 10**-k) for k, h in zip(ks, halves)]
    tables = {
        "quads": digits.view(np.uint64)[:, 0],
        "trailing": (sum(q % 10**k == 0 for k in range(1, 4)) + (q == 0)).astype(np.uint8),
        "scale_1": np.ldexp(1.0, halves),
        "scale_2": np.array([n / d for n, d in quotients]),
        "exponent": _words([b"" if -4 <= e < 12 else b"e%+03d" % e for e in exponents])[:, 0],
        "code": np.array([26 * (e + 4 if -4 <= e < 12 else 16) for e in exponents]),
    }
    layouts = [
        _layout(e, shown, sign) for e in range(-4, 13) for shown in range(13) for sign in (b"", b"-")
    ]
    for field, column in zip(("prefix", "before", "after", "point"), zip(*layouts)):
        tables[f"{field}_0"], tables[f"{field}_1"] = np.ascontiguousarray(_words(list(column), 16).T)
    return tables


def _text(text: str) -> bytes:
    data = text.encode("utf-8")
    if b"\0" in data:
        raise ValueError(f"CSV text may not hold a NUL byte: {text!r}")
    return data


def labels(strings: Iterable[str]) -> np.ndarray:
    """A label table for a labelled column: each string's UTF-8 bytes, NUL-padded.

    The table is rows of uint64 words.  A table passes through unchanged; a
    string holding a NUL raises ValueError.
    """
    if isinstance(strings, np.ndarray) and strings.dtype == np.uint64 and strings.ndim == 2:
        return strings
    encoded = [_text(s) for s in strings]
    return _words(encoded, max(8, -(-max(map(len, encoded), default=0) // 8) * 8))


def _bytes(words: np.ndarray) -> np.ndarray:
    """Rows of uint64 words as rows of bytes."""
    return words.view(np.uint8).reshape(len(words), -1)


def _significands(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per cell: e - :data:`_E_MIN`, the significand m (0 for a zero) and whether m is decided."""
    t = _tables()
    size = np.abs(x)
    zero = size == 0.0  # not the clamped e: fmax takes NaN to the low end too
    with np.errstate(all="ignore"):  # zeros, infinities and NaN leave log10's range
        e = np.fmin(np.fmax(np.floor(np.log10(size)), _E_MIN), _E_MAX).astype(np.intp) - _E_MIN
        e[zero] = -_E_MIN
        p = size * t["scale_1"][e] * t["scale_2"][e]
        m = np.rint(p)
        # p - m is exact, and more than 2.5e-4 from a half-integer decides m
        decided = ((m >= 1e11) & (m < 1e12) | zero) & (np.abs(p - m) < 0.49975)
    return e, m, decided


def _g12(x: np.ndarray) -> list[np.ndarray]:
    """The cells of ``'%.12g' % x`` as byte parts: sign and "0.000", digits, exponent."""
    t = _tables()
    e, m, decided = _significands(x)
    rows = np.flatnonzero(~decided)
    m[rows] = 1e11
    top = np.floor(m / 1e8)
    rest = m - top * 1e8
    middle = np.floor(rest / 1e4)
    q = [top.astype(np.intp), middle.astype(np.intp), (rest - middle * 1e4).astype(np.intp)]
    z0, z1, z2 = (t["trailing"][i] for i in q)
    shown = 12 - (z2 + (z2 == 4) * (z1 + (z1 == 4) * z0))
    code = t["code"][e] + 2 * shown + np.signbit(x)
    low, high = t["quads"][q[0]] | t["quads"][q[1]] << np.uint64(32), t["quads"][q[2]]
    # the digits after the point move one byte on, out of its way
    tail = low & t["after_0"][code]
    low = low & t["before_0"][code] | tail << np.uint64(8) | t["point_0"][code]
    high = (
        high & t["before_1"][code] | (high & t["after_1"][code]) << np.uint64(8)
        | tail >> np.uint64(56) | t["point_1"][code]
    )
    prefix, suffix = t["prefix_0"][code], t["exponent"][e]
    if rows.size:  # at most 19 bytes: 6 in the prefix's word, 8 and 5 in the digits' two
        text = np.array([("%.12g" % v).encode("ascii") for v in x[rows].tolist()], dtype="S19")
        text = text.view(np.uint8).reshape(rows.size, 19)
        for word, (lo, hi) in zip((prefix, low, high), ((0, 6), (6, 14), (14, 19))):
            cells = _bytes(word)
            cells[rows] = 0
            cells[rows, : hi - lo] = text[:, lo:hi]
        suffix[rows] = 0
    return [w for w in (prefix, low, high, suffix) if w is low or w is high or w.any()]


def _d(n: np.ndarray) -> list[np.ndarray]:
    """The cells of ``'%d' % n`` as byte parts: the sign, then the digits."""
    quads = _tables()["quads"]
    negative = n < 0
    if n.dtype.kind == "u":
        magnitude = n.astype(np.uint64, copy=False)
    else:  # |-2**63| wraps to -2**63, whose uint64 view is 2**63, as wanted
        magnitude = np.abs(n.astype(np.int64, copy=False)).view(np.uint64)
    width = len(str(magnitude.max(initial=0)))  # digits of the widest cell
    words = np.zeros((n.size, -(-width // 8)), dtype=np.uint64)
    digits = np.ones(n.size, dtype=np.intp)
    for k in range(1, width):
        digits += magnitude >= np.uint64(10**k)
    rest, ten_thousand = magnitude, np.uint64(10_000)
    for quad in reversed(range(2 * words.shape[1])):  # from the last digit on
        # a floor division by a scalar is much faster in numpy than divmod
        higher = rest // ten_thousand
        q = (rest - higher * ten_thousand).astype(np.intp)
        words[:, quad // 2] |= quads[q] << np.uint64(32 * (quad % 2))
        rest = higher
    zeros = 8 * words.shape[1] - digits
    for word in range(words.shape[1]):
        words[:, word] &= _LATER_BYTES[np.clip(zeros - 8 * word, 0, 8)]
    sign = [negative * np.uint64(ord("-"))] if negative.any() else []
    return sign + [words]


def _checked(column):
    """``column`` as :func:`blocks` lays it out: text as bytes, a label table, or numbers."""
    if isinstance(column, str):
        return _text(column)
    if isinstance(column, tuple):
        table, codes = column
        return labels(table), np.asarray(codes, dtype=np.intp)
    column = np.asarray(column)
    if column.ndim != 1 or column.dtype.kind not in "iuf":
        raise ValueError(f"a value column is a 1-D array of numbers, got {column.dtype} {column.shape}")
    return column


def _length(columns) -> int:
    """The row count shared by every column but the literal ones."""
    lengths = {
        len(c[1]) if isinstance(c, tuple) else len(c) for c in columns if not isinstance(c, bytes)
    }
    if len(lengths) > 1:
        raise ValueError(f"columns of different lengths: {sorted(lengths)}")
    return lengths.pop() if lengths else 0


def _parts(column, at: slice) -> list[np.ndarray]:
    """The NUL-padded cells of rows ``at`` of a checked column, as (n,) or (n, k) word arrays."""
    if isinstance(column, bytes):
        words = _words([column], max(8, -(-len(column) // 8) * 8))
        return [np.broadcast_to(words, (at.stop - at.start, words.shape[1]))]
    if isinstance(column, tuple):
        table, codes = column[0], column[1][at]
        return [np.take(table[:, 0], codes) if table.shape[1] == 1 else np.take(table, codes, axis=0)]
    return _g12(column[at]) if column.dtype.kind == "f" else _d(column[at])


def blocks(*columns) -> Iterator[bytes]:
    """The bytes of the rows of ``columns`` (see the module docstring), in blocks.

    A block holds at most :data:`CHUNK_ROWS` rows.

    The columns are checked here, before any block is rendered: equal
    lengths, 1-D numeric value columns, no NUL in text or labels (ValueError).
    """
    columns = [_checked(c) for c in columns]
    n = _length(columns)

    def block(at: slice) -> bytes:
        words = np.column_stack([p for c in columns for p in _parts(c, at)])
        return words.tobytes().translate(None, b"\0")

    return (block(slice(lo, min(lo + CHUNK_ROWS, n))) for lo in range(0, n, CHUNK_ROWS))


def write(path, head: str, rows: Iterable[bytes]) -> None:
    """Write ``head``, then each block of ``rows`` in turn, as bytes."""
    with open(path, "wb") as fh:
        fh.write(head.encode("utf-8"))
        for block in rows:
            fh.write(block)
