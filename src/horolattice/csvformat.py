"""CSV text of table columns, formatted with numpy a block of rows at a time.

A cell's text is fixed by its type: a float (numpy's float64 included)
is printed as "%.17g", 17 significant digits, so it reads back as the
same double, and anything else as its `str`.  `lines` gives float64 and
integer arrays that text through numpy kernels and every other cell
through the rule itself, one at a time; `harness._write_csv` writes a
table with it.

A column's cells are built as segments: a (width, rows) uint8 array of
characters and a mask of the ones kept.  A block's lines are its
segments stacked, read row by row and masked.  Rows run along the last
axis so that every numpy call loops over the block's rows, not over a
few characters.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["BLOCK_ROWS", "lines"]

#: Rows formatted per block: enough to amortize numpy's per-call cost, few
#: enough that a block's buffers stay in cache.
BLOCK_ROWS = 4096
#: The four ASCII digits of each of 0..9999, one row each: every 4-tuple of digits, in order.
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1).reshape(10_000, 4)
#: Character places 0..19 of a segment, as a column.
_PLACES = np.arange(20, dtype=np.uint8)[:, None]
#: 10^s for 0 <= s <= 22, the powers of ten that are doubles (each product is exact).
_POW10 = np.concatenate(([1.0], np.cumprod(np.full(22, 10.0))))
#: 10^j for 1 <= j <= 19: an int64 has one digit more than the number of these it reaches.
_POW10_INT = 10 ** np.arange(1, 20, dtype=np.uint64)


def _split(a: np.ndarray) -> tuple:
    """Veltkamp's split a = hi + lo, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a: np.ndarray, s: np.ndarray) -> tuple:
    """(hi, lo) with hi = fl(a 10^s) and hi + lo = a 10^s exactly.

    Dekker's TwoProduct (Numer. Math. 1971; Ogita, Rump and Oishi, SIAM J.
    Sci. Comput. 2005), since numpy has no fused multiply-add.
    """
    b_hi, b_lo = _POW10_HI[s], _POW10_LO[s]
    hi = a * _POW10[s]
    a_hi, a_lo = _split(a)
    return hi, a_lo * b_lo - (((hi - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _decade(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """-1, 0 or 1 as hi + lo is below 1e16, in [1e16, 1e17) or at least 1e17, by exact compares."""
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return above.astype(np.intp) - ((hi < 1e16) | ((hi == 1e16) & (lo < 0)))


def _digits20(u: np.ndarray) -> np.ndarray:
    """The 20 ASCII decimal digits, leading zeros included, of each uint64 in u, as a (20, n) array."""
    q8 = u // 10**8
    top = q8 // 10**8
    mid, low = (q8 - top * 10**8).astype(np.intp), (u - q8 * 10**8).astype(np.intp)
    groups = np.empty((5, len(u)), np.intp)
    groups[0] = top
    groups[1], groups[3] = mid // 10**4, low // 10**4
    groups[2], groups[4] = mid - groups[1] * 10**4, low - groups[3] * 10**4
    words = _DIGITS4.view(np.uint32).take(groups)  # a row as one uint32: a 1-D gather is the fast one
    return words.view(np.uint8).reshape(5, len(u), 4).transpose(0, 2, 1).reshape(20, len(u))


def _span(chars: np.ndarray, stop: np.ndarray, start: Optional[np.ndarray] = None) -> tuple:
    """The segment of each row's characters from place start (0 if None) to stop.

    The segment is cut to the places some row keeps.
    """
    stop = stop.astype(np.uint8)
    hi = int(stop.max())
    if start is None:
        return chars[:hi], _PLACES[:hi] < stop
    start = start.astype(np.uint8)
    lo = int(start.min())
    return chars[lo:hi], (_PLACES[lo:hi] < stop) & (_PLACES[lo:hi] >= start)


def _constant(text: bytes, stop: np.ndarray) -> tuple:
    """The segment of the first `stop` characters of text, in each row."""
    return _span(np.broadcast_to(np.frombuffer(text, np.uint8)[:, None], (len(text), len(stop))), stop)


def _text_cells(texts: list) -> tuple:
    """The segment of strings: their UTF-8 bytes, zero-padded to the longest."""
    data = [text.encode("utf-8") for text in texts]
    packed = np.array(data, dtype=bytes)
    chars = packed.view(np.uint8).reshape(len(data), packed.itemsize).T
    return chars, np.arange(packed.itemsize)[:, None] < np.fromiter(map(len, data), np.intp, len(data))


def _float_cells(x: np.ndarray) -> list:
    """The segments of `"%.17g" % v` for each v of the float64 array x.

    Where 1e-6 <= |v| < 1e17, v 10^s with s = 16 - floor(log10 |v|) in
    [0, 22] (where 10^s is a double) is formed exactly as hi + lo; exact
    compares against 1e16 and 1e17 fix s, and then hi >= 1e16 > 2^53 is
    an even integer, so hi + rint(lo) rounds half to even to the 17 digits
    D, as CPython's dtoa does.  D never reaches 10^17: below each 10^(17-s)
    the nearest double times 10^s is at most 1e17 - 8, so no cell carries
    into the next exponent.  %g prints D without its trailing zeros, in
    fixed form for exponents -4..16 and as d.ddde-0X otherwise.  Zeros,
    non-finite values and |v| outside that range are printed by "%.17g"
    itself, into a segment of their own.
    """
    a = np.abs(x)
    direct = (a >= 1e-7) & (a < 1e18)  # no zero, nan or inf; the exact range is decided below
    a[~direct] = 1.0
    s = np.clip(16 - np.floor(np.log10(a)), 0, 22).astype(np.intp)
    hi, lo = _scaled(a, s)
    off = _decade(hi, lo)  # log10 can be one off near a power of ten
    redo = np.flatnonzero(off)
    if redo.size:
        s[redo] = np.clip(s[redo] - off[redo], 0, 22)
        hi[redo], lo[redo] = _scaled(a[redo], s[redo])
        direct[redo] &= _decade(hi[redo], lo[redo]) == 0
    D = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    k = 16 - s  # the decimal exponent of D 10^(k-16)
    digits = _digits20(D.astype(np.uint64))[3:]
    nd = ((digits != ord("0")) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0)  # up to the last nonzero
    # a cell is its sign, its first q digits (or "0" when -4 <= k < 0), a
    # point, -k-1 zeros when -4 <= k < 0, its digits from q up to the last
    # nonzero one (the point only when there are some), and, when k is -5
    # or -6, the exponent
    sci = (k < -4) & direct
    small = (k < 0) & direct & ~sci
    q = np.where(small, 0, np.where(sci, 1, k + 1)) * direct
    nd *= direct
    segments = [_constant(b"-", (x < 0) & direct), _constant(b"0", small), _span(digits, q)]
    segments += [_constant(b".", q < nd), _constant(b"000", (-1 - k) * small), _span(digits, nd, q)]
    segments += [_constant(b"e-0", 3 * sci), _span((ord("0") - k).astype(np.uint8)[None], sci)]
    rest = np.flatnonzero(~direct)
    if rest.size:
        chars, kept = _text_cells(["%.17g" % v for v in x[rest].tolist()])
        spliced = np.zeros((len(chars), len(x)), np.uint8), np.zeros((len(chars), len(x)), bool)
        spliced[0][:, rest], spliced[1][:, rest] = chars, kept
        segments.append(spliced)
    return segments


def _int_cells(v: np.ndarray) -> list:
    """The segments of `str(c)` for each c of the int64 array v: the sign, then the digits right-aligned."""
    neg = v < 0
    u = v.view(np.uint64)
    u = np.where(neg, -u, u)  # |v| modulo 2^64, which holds -2^63 too
    nd = 1 + np.searchsorted(_POW10_INT, u, side="right")
    return [_constant(b"-", neg), _span(_digits20(u), np.full(len(v), 20), 20 - nd)]


def _column_cells(column) -> list:
    """The segments of a column's cells: float64 and integer arrays by the kernels, the rest cell by cell."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return _float_cells(column)
    if isinstance(column, np.ndarray) and column.dtype.kind == "i":
        return _int_cells(column.astype(np.int64, copy=False))
    return [_text_cells(["%.17g" % c if isinstance(c, float) else str(c) for c in column])]


def lines(columns: list) -> bytes:
    """The CSV lines of one or more equal-length, non-empty columns.

    Each line is the row's cells, each followed by "," or, after the last, a newline.
    """
    n = len(columns[0])
    comma = _constant(b",", np.ones(n, np.uint8))
    segments = []
    for column in columns:
        segments += _column_cells(column) + [comma]
    segments[-1] = _constant(b"\n", np.ones(n, np.uint8))
    chars, kept = zip(*segments)
    return np.concatenate(chars).T[np.concatenate(kept).T].tobytes()
