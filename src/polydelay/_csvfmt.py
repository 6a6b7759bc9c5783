"""The command line's number format.

Floats are written with 17 significant digits so the CSV round-trips
bit-exactly: a cell is `fmt`, '%.17g' of the value. `rows` makes the same
bytes a block at a time: each x with 1e-4 <= x < 1e7 is rounded from its
exact product with a power of ten, a sum of two floats; its 17 digits are
written once into a fixed-point frame, the integer ones slid into the
first word and the trailing zeros found by a byte smear. `fmt` writes the
other cells: 4 of a preset run, 281 of the dense-output run's 900,000.
"""

import numpy as np


def fmt(value):
    # 17 significant digits round-trip to the identical float
    return "%.17g" % float(value)


# rows gives each cell the bytes of fmt without a % per cell: for a whole
# block, numpy rounds every float x to 17 significant digits from the
# exact product x 10**(16 - e) as the sum of two floats, and writes each
# cell into a fixed-point frame of _CELL bytes, NUL wherever '%.17g'
# writes nothing (leading and trailing zeros, a point with no digit after
# it); one bytes.translate drops the NULs, so no byte moves to another
# word. The 17 digits are written once, the integer digits slid into
# word 0, and the trailing zeros found with a byte smear. This covers
# 1e-4 <= x < 1e7, which '%.17g' writes without sign or exponent; any
# other cell, and the rare one next to a power of ten whose decade log10
# misjudges, is written by fmt itself.
_U = np.uint64
_CELL = 32
_E16, _E17 = _U(10 ** 16), _U(10 ** 17)
# by the decimal exponent e = -4..6, at index e + 4: _SLIDE is 8 bits
# for each of the e + 1 integer digits, none below 1; _INTEGER is the
# text of word 0: "0" on each integer digit and the point after them, or
# "0." and -e - 1 zeros. _TEN is 10**(16 - e), exact as 5**20 < 2**53
_DECADES = range(-4, 7)
_SLIDE = np.array([8 * max(e + 1, 0) for e in _DECADES], dtype=_U)
_INTEGER = np.array([int.from_bytes(
    (b"0" * (e + 1) + b"." if e >= 0 else b"0." + b"0" * (-e - 1))
    .rjust(8, b"\0"), "little") for e in _DECADES], dtype=_U)
_TEN = np.array([float(10 ** (16 - e)) for e in _DECADES])


def _halves(x):
    # Veltkamp's split of x into hi + lo, each of at most 26 significant
    # bits, so the product of two halves is exact; x is overwritten by lo
    hi = x * float(2 ** 27 + 1)
    hi -= hi - x
    x -= hi
    return hi, x


_TEN_HI, _TEN_LO = _halves(_TEN.copy())


def _decimal(x):
    # (d, i, ok): where ok, x rounded to 17 significant digits is
    # d 10**(i - 20) with 10**16 <= d < 10**17, and i = e + 4 indexes the
    # decimal exponent -4 <= e <= 6 in the tables
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.floor(np.log10(np.abs(x)))
    ok = (k >= -4) & (k <= 6) & (x > 0)
    k += 4
    i = np.where(ok, k, 4).astype(np.int16)
    del k
    x = np.where(ok, x, 1.0)
    # Dekker's product of the halves: x 10**(16 - e) = hi + lo exactly
    hi = x * _TEN[i]
    xh, x = _halves(x)
    ph, pl = _TEN_HI[i], _TEN_LO[i]
    lo = xh * ph
    lo -= hi
    xh *= pl
    lo += xh
    ph *= x
    lo += ph
    x *= pl
    lo += x
    del xh, ph, pl, x
    # where x 10**(16 - e) >= 10**16 > 2**53, hi is an even integer and
    # |lo| <= 8 is at most half an ulp of hi. The lower bound is checked
    # on the truncated hi + floor(lo), added modulo 2**64, which in this
    # range gives the verdict of the rounded value: a float whose decade
    # log10 misjudges, such as 9.9999999999999991e-05 put in decade -4,
    # also rounds to 17 digits below the power of ten
    d = hi.astype(_U)
    np.floor(lo, out=hi)
    d += hi.astype(np.int64).view(_U)
    ok &= d >= _E16
    # rint rounds the remainder half to even, and so d, as hi is even
    d += np.rint(lo, out=lo) > hi
    # no float in the covered range rounds up to a power of ten; one that
    # did would be left to fmt
    ok &= d < _E17
    return d, i, ok


def _eight_digits(v):
    # v < 10**8 as eight digit values, the leading one in the low byte:
    # one division splits v into two 4-digit lanes, multiply-and-shift
    # divisions then split every lane in two; v is overwritten
    q = v // _U(10000)
    v -= q * _U(10000)
    v <<= _U(32)
    v |= q
    np.multiply(v, _U(10486), out=q)
    q >>= _U(20)
    q &= _U(0x0000007F0000007F)
    v -= q * _U(100)
    v <<= _U(16)
    v |= q
    np.multiply(v, _U(103), out=q)
    q >>= _U(10)
    q &= _U(0x000F000F000F000F)
    v -= q * _U(10)
    v <<= _U(8)
    v |= q
    return v


def _digits(d, words):
    # the 17 digits of 10**16 <= d < 10**17 as bytes 0..16 (values 0..9)
    # of the three little-endian words; d is overwritten
    first, a, b = words
    np.floor_divide(d, _E16, out=first)
    d -= first * _E16
    np.floor_divide(d, _U(10 ** 8), out=a)
    d -= a * _U(10 ** 8)
    _eight_digits(a)
    _eight_digits(d)
    first |= a << _U(8)
    a >>= _U(56)
    a |= d << _U(8)
    np.right_shift(d, _U(56), out=b)


def _csv_cells(block):
    # each cell of the 2-d float64 block, with its separator, as _CELL
    # bytes held in the column of a word-major array of little-endian
    # words: word 0 holds the integer digits and the point, or "0." and
    # any zeros after it, right-aligned; words 1-3 the digits after the
    # point, left-aligned, and the separator in the last byte
    x = block.ravel()
    d, i, ok = _decimal(x)
    cells = np.zeros((_CELL // 8, len(x)), dtype="<u8")
    _digits(d, cells[1:])
    del d
    # the digits move down s = _SLIDE bits, the integer ones a byte more,
    # to end before the point; a word's top takes the next one's first s
    # bits as (w << 8) << (56 - s), since a shift by 64 is undefined in C
    s = _SLIDE[i]
    back = _U(56) - s
    top = np.empty_like(s)
    for j in range(3):
        np.left_shift(cells[j + 1], _U(8), out=top)
        top <<= back
        cells[j] |= top
        cells[j + 1] >>= s
    del s, back
    cells[0] >>= _U(8)
    cells[0] |= _INTEGER[i]
    # each digit after the point up to the last non-zero one gets its "0":
    # there the byte smear is non-zero, each byte the OR of those from it
    # up, the top byte also that of the words after; adding 0x7f to a byte
    # of at most 15 sets its high bit without a carry
    smear = np.zeros_like(top)
    for word in cells[:0:-1]:
        smear <<= _U(56)
        smear |= word
        for k in (8, 16, 32):
            np.right_shift(smear, _U(k), out=top)
            smear |= top
        np.add(smear, _U(0x7F7F7F7F7F7F7F7F), out=top)
        top &= _U(0x8080808080808080)
        top >>= _U(7)
        top *= _U(ord("0"))
        word |= top
    del smear, top
    # the point of an integral value is dropped
    cells[0] ^= (cells[1] == 0) * _U(ord(".") << 56)
    bad = np.flatnonzero(~ok)
    if len(bad):
        # fmt of a float has at most 24 characters
        cells[:, bad] = 0
        cells[:3, bad] = np.array([fmt(v).encode() for v in x[bad]],
                                  dtype="S24").view("<u8").reshape(-1, 3).T
    cells[3] |= _U(ord(",") << 56)
    cells[3].reshape(block.shape)[:, -1] ^= _U((ord(",") ^ ord("\n")) << 56)
    return cells


def rows(block):
    """The CSV text of a 2-d float64 block: each row's cells, fmt of its
    values, joined by commas and ended by a newline."""
    if not block.shape[1]:
        return "\n" * len(block)
    # chained, so each intermediate is freed as soon as it is read
    return (_csv_cells(block).T.tobytes()
            .translate(None, b"\0").decode("ascii"))
