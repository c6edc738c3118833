"""Float arrays as text bytes, for the density CSVs and the SVG polylines.

A formatter gives each value one uint8 row whose non-NUL bytes, in order,
are its text: ``repr_cells`` that of ``repr(float(v))``, ``fixed_cells``
that of ``'{:.2f}'.format(v)``.  NULs pad each part of a row (sign,
digits, point, exponent), so every value's bytes are written in the same
columns and no row is shifted on its own.  ``join_rows`` sets such
matrices and their separators side by side in one ``bytearray`` and drops
the NULs with its ``translate``.  Digits are uint8 from the start, so no
temporary is much larger than the text.  A value that a formatter cannot
prove takes the first bytes of its row from ``repr`` or ``'{:.2f}'``.

``repr_cells``: a double's shortest round-trip form has at most 17
significant digits, and among the forms of one length Python prints the
one nearest the value.  So, with S the value scaled to lie in [1e16, 1e17),
the form is S rounded to 15 digits when that lies within half an ulp of the
value, else S rounded to 16 digits when that does, else S rounded to 17
digits, which always does.  A 15-digit decimal within half an ulp is the
only decimal of 15 or fewer digits there, because 15-digit decimals lie
further apart than an ulp.  S is ``p + err``: ``p`` the float64 product of
the value and ``10**m``, an integer since S > 2**53, and ``err`` its error,
from a Dekker two-product with ``10**m`` stored as an exact double-double;
``err`` is off the exact remainder by about 1e-14 of a unit of the 17th
digit.  Zeros print as ``0.0`` and ``-0.0``.  ``repr`` formats the rest of
what the fast path cannot prove: non-finite values, ``|v|`` outside
``[1e-20, 1e15)``, powers of two (their rounding interval is lopsided),
and values whose remainder lies within ``_MARGIN`` of a tie between the
two nearest candidates of the length taken, or of the half-ulp bound.
Python breaks such a tie to the even digit.

``fixed_cells`` writes the digits of ``rint(100*|v|)`` and a ``-`` wherever
v's sign bit is set; ``'{:.2f}'`` formats NaN, infinities, ``|v| >= 2**24``
and values whose ``100*|v|`` lies near a half-integer (``m/8`` among them).
"""

from __future__ import annotations

import numpy as np

_LO, _HI = 1e-20, 1e15
_SPLIT = 134217729.0                    # 2**27 + 1: Dekker's splitter


def _power(m: int) -> tuple[float, float, float, float]:
    """10**m as b + lo, exact for m <= 44 (5**44 has 103 bits), and b's
    Dekker halves."""
    b = float(10 ** m)
    c = _SPLIT * b
    bh = c - (c - b)
    return b, bh, b - bh, float(10 ** m - int(b))


# m = 16 - k for the decimal exponent k of |v| in [1e-20, 1e15) runs from
# 2 to 36, and one further where log10 misses k by one.
_POW, _POW_H, _POW_L, _POW_LO = np.array([_power(m) for m in range(45)]).T
# A remainder this close to a tie (in units of the 17th digit), or this
# close to the half-ulp bound (relative to it), goes through repr: far
# above the error of err.  Values with random mantissas below 1e10 hit it
# about once in 10**6.  Above, an ulp is 2**-19 or more, so the exact
# decimal of a value is short and often ends on a tie: 4% of [1e13, 1e15).
_MARGIN = 1e-6
_ROW = np.arange(17, dtype=np.int8)[:, None]

# Below _FIXED_MAX, rint(100*|v|) fits a uint32 and the float64 product
# 100*|v| is off the exact one by at most 2**-23, so it rounds as '{:.2f}'
# does unless it lies within _TIE_MARGIN > 2**-23 of a half-integer.
_FIXED_MAX = 2.0 ** 24
_TIE_MARGIN = 1e-4


def _scaled(a, m):
    """``a * 10**m`` as ``(p, err, b)``: p = fl(a * b), b = fl(10**m), and
    err the rest of the exact product."""
    b, bh, bl, lo = _POW[m], _POW_H[m], _POW_L[m], _POW_LO[m]
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl + a * lo
    return p, err, b


def _shortest(a):
    """The shortest round-trip digits of each ``a`` in [1e-20, 1e15) that is
    not a power of two: ``(d, decpt, sure)``.  a prints as 0.d * 10**decpt,
    with d the 17-digit integer of its digits (zeros pad it), and ``sure``
    is False where a remainder sits too near a tie or the bound."""
    m = (16.0 - np.floor(np.log10(a))).astype(np.intp)
    p, err, b = _scaled(a, m)
    # where log10 missed the exponent by one, S = p + err lies outside [1e16, 1e17)
    near = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if len(near):
        pn, en = p[near], err[near]
        m[near] += (((pn < 1e16) | ((pn == 1e16) & (en < 0))).astype(np.intp)
                    - ((pn > 1e17) | ((pn == 1e17) & (en >= 0))))
        p[near], err[near], b[near] = _scaled(a[near], m[near])
    fl = np.floor(err)
    q, r = np.divmod(p.astype(np.int64) + fl.astype(np.int64), 100)
    t = r + (err - fl)                  # S = 100 q + t, t in units of the 17th digit
    # half an ulp of a, scaled like S: a's power of two is its exponent bits
    half = (a.view(np.int64) & 0x7FF0000000000000).view(np.float64) * (b * 2.0 ** -53)
    tol = half * _MARGIN
    del p, err, b, fl, r                # n floats each: none is read again
    r15 = np.floor(t * 0.01 + 0.5) * 100
    dist = np.abs(t - r15)
    use15 = dist < half
    # A tie matters only in the candidate taken; half < 11.2, so a 15-digit
    # candidate within the bound is never on a tie.
    sure = np.abs(dist - half) > tol
    r16 = np.floor(t * 0.1 + 0.5) * 10
    dist = np.abs(t - r16)
    use16 = dist < half
    # sure where the 16- or the 17-digit candidate is taken
    longer = (np.abs(dist - half) > tol) & (~use16 | (np.abs(dist - 5) > _MARGIN))
    del dist, half, tol
    r17 = np.floor(t + 0.5)
    longer &= use16 | (np.abs(np.abs(t - r17) - 0.5) > _MARGIN)
    sure &= use15 | longer
    d = q * 100 + np.where(use15, r15, np.where(use16, r16, r17)).astype(np.int64)
    decpt = (17 - m).astype(np.int8)
    carry = d == 10 ** 17               # rounded up to the next power of ten
    d[carry] = 10 ** 16
    decpt[carry] += 1
    return d, decpt, sure


def _digits(h, rows, out) -> None:
    """Write the decimal digits of the uint32 array ``h``, last first, into
    ``rows`` of ``out``: a multiply and a shift per row, not np.divmod."""
    for row in rows:
        q = h // 10
        out[row] = h - q * 10
        h = q


def _rows(cells, v, fast, fmt) -> np.ndarray:
    """The (parts, values) byte matrix ``cells`` as one row per value: the
    parts that are NUL for every value dropped, and the row of each value
    that is not ``fast`` holding ``fmt(v)`` in its first bytes."""
    slow = np.flatnonzero(~fast)
    cells[:, slow] = 0
    cells = cells[cells.any(axis=1)]
    if len(slow):
        strs = np.array(list(map(fmt, v[slow].tolist())), dtype="S")
        width = strs.itemsize
        if width > len(cells):
            cells = np.vstack([cells, np.zeros((width - len(cells), len(v)), np.uint8)])
        cells[:width, slow] = strs.view(np.uint8).reshape(len(slow), width).T
    return cells.T


def repr_cells(values) -> np.ndarray:
    """``repr(float(v))`` of every value, as a uint8 matrix with one row per
    value: the row's non-NUL bytes, in order, are the ASCII of the repr."""
    v = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    a = np.abs(v)
    fast = (a >= _LO) & (a < _HI)       # False for NaN
    fast &= (v.view(np.int64) & ((1 << 52) - 1)) != 0
    a[~fast] = 1.5
    d, decpt, sure = _shortest(a)
    del a
    fast &= sure
    # 0.0 and -0.0, common in densities, are the digits of d = 0 with decpt 1
    zero = v == 0
    d[zero], decpt[zero] = 0, 1
    fast |= zero

    # the 17 digits, from the uint32 high 8 and low 9
    hi = d // 10 ** 9
    digits = np.empty((17, len(v)), np.uint8)
    _digits((d - hi * 10 ** 9).astype(np.uint32), range(16, 7, -1), digits)
    _digits(hi.astype(np.uint32), range(7, -1, -1), digits)
    del d, hi
    nd = ((digits != 0) * (_ROW + 1)).max(axis=0)   # significant digits
    digits += ord("0")

    # Each part of the form in its own rows of cells, NUL where a value has
    # no byte: 0 the sign, 1 the "0" of 0.xxx, 2-18 the digits before the
    # point, 19 the point, 20-22 the zeros after "0.", 23-39 the digits
    # after the point, 40-43 "e-XX".  The exponent form takes decpt <= -4;
    # |v| < 1e15 keeps fast values below its other side, decpt > 16.
    expo = (decpt <= -4) & fast
    below1 = (decpt <= 0) & ~expo & fast
    n_int = np.where(expo, 1, np.maximum(decpt, 0)) * fast
    f_lo = np.where(expo, 1, n_int)
    f_hi = np.where(expo | below1, nd, np.maximum(nd, decpt + 1)) * fast
    e = 1 - decpt
    cells = np.empty((44, len(v)), np.uint8)
    np.multiply(np.signbit(v) & fast, np.uint8(ord("-")), out=cells[0])
    np.multiply(below1, np.uint8(ord("0")), out=cells[1])
    np.multiply(digits, _ROW < n_int, out=cells[2:19])
    np.multiply(f_hi > f_lo, np.uint8(ord(".")), out=cells[19])
    np.multiply(_ROW[:3] < np.where(below1, -decpt, 0), np.uint8(ord("0")), out=cells[20:23])
    np.multiply(digits, (_ROW >= f_lo) & (_ROW < f_hi), out=cells[23:40])
    np.multiply(expo, np.uint8(ord("e")), out=cells[40])
    np.multiply(expo, np.uint8(ord("-")), out=cells[41])
    np.multiply(expo, (ord("0") + e // 10).astype(np.uint8), out=cells[42])
    np.multiply(expo, (ord("0") + e % 10).astype(np.uint8), out=cells[43])
    return _rows(cells, v, fast, repr)


def fixed_cells(values) -> np.ndarray:
    """``'{:.2f}'.format(v)`` of every value, as uint8 rows laid out as
    ``repr_cells`` lays them out."""
    v = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
    a = np.abs(v)
    # NaN fails the test and goes to the cap: no arithmetic on a signaling NaN
    t = 100.0 * np.where(a <= _FIXED_MAX, a, _FIXED_MAX)
    fast = (t < 100.0 * _FIXED_MAX) & (np.abs(t - np.floor(t) - 0.5) >= _TIE_MARGIN)
    h = np.rint(np.where(fast, t, 0.0)).astype(np.uint32)
    width = len(str(int(h.max(initial=0)) // 100))  # integer digits
    # rows: the sign, the integer digits, the point, the two decimals
    cells = np.empty((width + 4, len(v)), np.uint8)
    _digits(h, [width + 3, width + 2, *range(width, 0, -1)], cells)
    cells[1:] += ord("0")
    # no leading zeros: row width - k, the digit of 10**k, needs h >= 10**(k + 2)
    cells[1:width] *= h >= 10 ** np.arange(width + 1, 2, -1, dtype=np.uint32)[:, None]
    cells[width + 1] = ord(".")
    np.multiply(np.signbit(v) & fast, np.uint8(ord("-")), out=cells[0])
    return _rows(cells, v, fast, "{:.2f}".format)


def join_rows(columns, seps: bytes) -> bytearray:
    """The text of rows whose fields are the rows of the cell matrices
    ``columns``, each followed by its byte of ``seps``, the NULs dropped."""
    n = len(columns[0])
    width = sum(c.shape[1] + 1 for c in columns)
    # text views the bytearray, whose translate drops the NULs from one buffer
    buf = bytearray(n * width)
    text = np.frombuffer(buf, np.uint8).reshape(n, width)
    end = 0
    for cells, sep in zip(columns, seps):
        start, end = end, end + cells.shape[1]
        text[:, start:end] = cells
        text[:, end] = sep
        end += 1
    return buf.translate(None, b"\0")
