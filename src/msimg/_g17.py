"""Exact `format(x, ".17g")` text of float arrays, a block at a time.

`cells(v, out)` lays out `format(x, ".17g") + "\\n"` of each value
as a row of CELLS bytes, NUL where `.17g` prints nothing, so that
`bytes.translate(None, b"\\0")` of the rows is the text.  No value goes
through a per-value dtoa unless its digits cannot be decided exactly here:

* D = round-half-even(|v| 10**(16 - E)) is the 17-digit integer and E the
  decimal exponent.  |v| 10**k comes from an exact Dekker product with a
  double-double 10**k, to within 2**-46 of the true value, so rounding is
  exact unless the fraction lies within TIE_MARGIN of 1/2.  Those values,
  0, +-inf and NaN go through `format(v, ".17g")`.
* The text is fixed notation for -4 <= E < 17 and scientific otherwise,
  trailing zeros stripped and the exponent written as e+XX or e-XXX, as
  Python's `g` presentation does.

See Loitsch, "Printing floating-point numbers quickly and accurately with
integers" (PLDI 2010), and Adams, "Ryu revisited: printf floating point
conversion" (OOPSLA 2019), for fixed-precision printing with integers.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

K_MIN, K_MAX = -293, 341            # k = 16 - E for E in [-325, 309]
E_MIN = 16 - K_MAX
TIE_MARGIN = 2.0 ** -30
SPLIT = 134217729.0                 # 2**27 + 1, Veltkamp's splitter

# Cells of one value's text: sign, "0.000", the 17 digits, ".", the 17
# digits again, "e", exponent sign and 3 digits, newline.  A mask row per
# (sign, class, significant digits) keeps the cells `.17g` prints: the
# integer digits from the first copy, the fraction digits from the second.
LEAD, DIGITS_A, DOT, DIGITS_B, EXP_E, EXP, NEWLINE, CELLS = \
    1, 6, 23, 24, 41, 42, 46, 47
N_CLASSES = 23      # E = -4..16 in fixed notation, 2- or 3-digit exponent


class Tables(NamedTuple):
    pow10: tuple            # hi, hi's two halves and lo of 10**k, per k
    exp2: np.ndarray        # 1023 + binary exponent of hi, per k
    quads: np.ndarray       # ASCII of 0000..9999 as uint32 words
    sig: np.ndarray         # (4, 10000) digits of D when group j ends it
    exponent: np.ndarray    # sign and 3 exponent digits per E, uint32 words
    key_base: np.ndarray    # 18 * class, per E
    template: np.ndarray    # the constant cells
    masks: np.ndarray       # (2 * N_CLASSES * 18, CELLS) 0/1 keep masks


@functools.cache
def tables() -> Tables:
    """The kernel's tables, built on first use from integer arithmetic."""
    # M = 10**k * 2**shift rounded to a 110-bit integer; hi + lo is M to
    # within 2**-106, scaled to [0.5, 1]
    mant, shift = {}, {}
    p = 1
    for k in range(K_MAX + 1):
        shift[k] = s = 110 - p.bit_length()
        mant[k] = p << s if s >= 0 else (p + (1 << (-s - 1))) >> -s
        p *= 10
    p = 10
    for k in range(1, 1 - K_MIN):
        shift[-k] = s = 109 + p.bit_length()
        mant[-k] = ((1 << s) + p // 2) // p
        p *= 10
    ks = range(K_MIN, K_MAX + 1)
    hi = [float(mant[k]) for k in ks]
    pow10 = np.empty((4, len(ks)))
    pow10[0] = np.ldexp(hi, -110)
    pow10[3] = np.ldexp([float(mant[k] - int(h)) for k, h in zip(ks, hi)],
                        -110)
    c = pow10[0] * SPLIT
    pow10[1] = c - (c - pow10[0])
    pow10[2] = pow10[0] - pow10[1]
    exp2 = 1023 + 110 - np.array([shift[k] for k in ks])

    d = np.meshgrid(*[np.arange(10, dtype=np.uint8)] * 4, indexing="ij")
    quads = np.stack(d, axis=-1).reshape(10000, 4) + np.uint8(ord("0"))
    # digits of a 4-digit group up to its last nonzero one
    sig = np.select([d[3] > 0, d[2] > 0, d[1] > 0, d[0] > 0],
                    [4, 3, 2, 1], 0).ravel()
    sig = np.where(sig > 0, np.array([[1], [5], [9], [13]]) + sig, 0)

    E = np.arange(E_MIN, 16 - K_MIN + 2)
    exponent = quads[np.abs(E)].copy()
    exponent[:, 0] = np.where(E < 0, ord("-"), ord("+"))
    fixed = (E >= -4) & (E < 17)
    cls = np.where(fixed, E + 4, np.where(np.abs(E) < 100, 21, 22))

    template = np.zeros(CELLS, np.uint8)
    template[0] = ord("-")
    template[LEAD:DIGITS_A] = np.frombuffer(b"0.000", np.uint8)
    template[DOT] = ord(".")
    template[EXP_E] = ord("e")
    template[NEWLINE] = ord("\n")

    # keep masks, one row per (negative, class, significant digits nz)
    neg = np.arange(2)[:, None, None, None]
    c = np.arange(N_CLASSES)[None, :, None, None]
    nz = np.arange(18)[None, None, :, None]
    col = np.arange(CELLS)
    e, fixed = c - 4, c <= 20
    # the last integer digit: e in fixed notation, the first digit in
    # scientific, none when the text starts "0."
    last = np.where(fixed, np.where(e >= 0, e, -1), 0)
    a, b = col - DIGITS_A, col - DIGITS_B
    exp_cells = (col == EXP_E) | (col == EXP) | (col >= EXP + 2)
    keep = (((col == 0) & (neg == 1))
            | ((col >= LEAD) & (col < LEAD + 1 - e) & fixed & (e < 0))
            | ((a >= 0) & (a <= last))
            | ((col == DOT) & (last >= 0) & (nz > last + 1))
            | ((b > last) & (b < nz))
            | (exp_cells & ~fixed)
            | ((col == EXP + 1) & (c == 22))
            | (col == NEWLINE))
    return Tables(tuple(pow10), exp2, quads.view(np.uint32).ravel(),
                  sig.astype(np.uint8), exponent.view(np.uint32).ravel(),
                  cls * 18, template,
                  keep.reshape(-1, CELLS).astype(np.uint8))


def _digits(a: np.ndarray, t: Tables):
    """(D, E, ok) of positive finite values; ok is False near a tie."""
    E = np.floor(np.log10(a)).astype(np.int64)
    m, e2 = np.frexp(a)
    c = m * SPLIT
    mh = c - (c - m)
    ml = m - mh
    for _ in range(2):
        # log10 can misjudge E by one next to a power of ten: redo once
        i = (16 - K_MIN) - E
        hi, bh, bl, lo = (np.take(row, i) for row in t.pow10)
        p = m * hi
        s = (((mh * bh - p) + mh * bl + ml * bh) + ml * bl) + m * lo
        scale = ((e2 + np.take(t.exp2, i)) << 52).view(np.float64)
        p *= scale                  # an integer >= 2**53 when E is right
        s *= scale
        whole = np.floor(s)
        frac = s - whole
        D = p.astype(np.int64) + whole.astype(np.int64)
        low = D < 10 ** 16
        D += frac > 0.5
        off = (D > 10 ** 17).astype(np.int64) - low
        if not off.any():
            break
        E += off
    ok = (off == 0) & (np.abs(frac - 0.5) > TIE_MARGIN)
    top = D == 10 ** 17             # rounded up to the next power of ten
    D[top] = 10 ** 16
    E += top
    return D, E, ok


def cells(v: np.ndarray, out: np.ndarray) -> None:
    """Cells of `format(x, ".17g") + "\\n"` for each value, into `out`, any
    (len(v), CELLS) uint8 view."""
    t = tables()
    out[:] = t.template
    a = np.abs(v)
    fast = (a > 0) & (a < np.inf)
    D, E, ok = _digits(np.where(fast, a, 1.0), t)
    ok &= fast
    hi = D // 10 ** 8
    lo = D - hi * 10 ** 8
    g = np.empty((len(v), 5), np.int64)     # D as 1 + 4 * 4 digits
    g[:, 0] = hi // 10 ** 8
    mid = hi - g[:, 0] * 10 ** 8
    g[:, 1] = mid // 10 ** 4
    g[:, 2] = mid - g[:, 1] * 10 ** 4
    g[:, 3] = lo // 10 ** 4
    g[:, 4] = lo - g[:, 3] * 10 ** 4
    digits = np.take(t.quads, g).view(np.uint8)[:, 3:]
    out[:, DIGITS_A:DOT] = digits
    out[:, DIGITS_B:EXP_E] = digits
    nz = np.maximum(np.maximum(np.take(t.sig[0], g[:, 1]),
                               np.take(t.sig[1], g[:, 2])),
                    np.maximum(np.take(t.sig[2], g[:, 3]),
                               np.take(t.sig[3], g[:, 4])))
    np.maximum(nz, 1, out=nz)
    j = E - E_MIN
    exponent = np.take(t.exponent, j).view(np.uint8)
    out[:, EXP:NEWLINE] = exponent.reshape(-1, 4)
    key = np.take(t.key_base, j) + nz
    key += (v < 0) * (N_CLASSES * 18)
    out *= np.take(t.masks, key, axis=0)
    if not ok.all():
        slow = np.flatnonzero(~ok)
        # by bit pattern, so -0.0 and 0.0 stay apart
        bits, inverse = np.unique(v[slow].view(np.int64), return_inverse=True)
        for u, x in enumerate(bits.view(np.float64).tolist()):
            text = format(x, ".17g").encode()
            row = np.zeros(CELLS, np.uint8)
            row[:len(text)] = np.frombuffer(text, np.uint8)
            row[NEWLINE] = ord("\n")
            out[slow[inverse == u]] = row
