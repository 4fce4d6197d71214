"""Vectorised "%.15g": one NUL-padded row of CELL bytes per float64 value.

Deleting the NULs from format_g15(x) leaves exactly "%.15g" % v per value;
every row's last byte is NUL, free for a separator. A value's 15-digit
decimal M * 10**(E - 14) is found exactly: |v| times 10**(14 - E), held as
a double-double hi + lo, through Dekker's error-free product, has its
fraction known to about 1e-16 before it is rounded to M. The text is put
together from lookup tables, three 64-bit words per cell: 4-digit groups,
their trailing zeros, exponents, and one layout per (E, digit count) and
for zero. What the fast path cannot prove (nan, inf, |v| outside [1e-280,
1e280], an E that log10 misses, a fraction within 1e-9 of a half, where
"%.15g" rounds half-even) goes through "%.15g" % v.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

CELL = 24  # the longest text, "-d.dddddddddddddde-ddd", is 22 bytes
_KMIN, _KMAX = -268, 296  # the scale table's powers 10**k
_EMIN, _EMAX = 14 - _KMAX, 14 - _KMIN
_EXPONENT = 19  # layout class: 0..18 are fixed-point E = -4..14


@lru_cache(maxsize=None)
def tables():
    """The lookup tables, built on first use rather than at import."""
    def split(num, den):  # num / den as hi + lo; true division of ints rounds correctly
        hn, hd = (num / den).as_integer_ratio()
        return num / den, (num * hd - hn * den) / (den * hd)
    hi, lo = np.array([split(10 ** k, 1) if k >= 0 else split(1, 10 ** -k)
                       for k in range(_KMIN, _KMAX + 1)]).T
    c = hi * 134217729.0  # Dekker's split of hi into two 26-bit halves
    hh = c - (c - hi)

    g = np.arange(10000, dtype=np.uint16)
    groups = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], 1) + ord("0")
    trailing = (g % 10 == 0).astype(np.uint8) + (g % 100 == 0) + (g % 1000 == 0) + (g == 0)
    fixed = range(-4, 15)
    exps = b"".join(bytes(8) if e in fixed else f"\0e{e:+03d}".encode().ljust(8, b"\0")
                    for e in range(_EMIN, _EMAX + 1))
    key_of_e = [15 * (e + 4 if e in fixed else _EXPONENT) + 14 for e in range(_EMIN, _EMAX + 1)]

    # Per layout key (class, digit count): of the digit string "0" d0..d14,
    # the bytes that stay and those that move right by `shift` bits, then
    # the constant bytes ("0.00" before the digits, or the point).
    def mask(start, stop):
        return bytes(start) + b"\xff" * (stop - start) + bytes(16 - stop)
    rows = []
    for cls in range(_EXPONENT + 1):
        e = cls - 4
        for n in range(1, 16):
            q = 0 if e < 0 else 1 if cls == _EXPONENT else e + 1
            text = "0." + "0" * (-e - 1) if e < 0 else "\0" * q + "." if n > q else ""
            rows.append((mask(1, q + 1), mask(q + 1, max(q, n) + 1),
                         8 * len(text) if e < 0 else 8, text))
    rows.append((mask(0, 0), mask(0, 0), 8, "0"))
    layouts = b"".join(head + tail + shift.to_bytes(8, "little")
                       + ("\0" + text).encode().ljust(24, b"\0")
                       for head, tail, shift, text in rows)
    return (np.stack([hi, hh, hi - hh, lo]),
            groups.astype(np.uint8).view("<u4").ravel().astype(np.uint64), trailing,
            np.frombuffer(exps, "<u8"), np.array(key_of_e),
            np.frombuffer(layouts, "<u8").reshape(-1, 8).T.copy())


def _decimal(x, pow10):
    """(M, E, proven): M * 10**(E - 14) is the 15-digit decimal of |x|."""
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, hh, hl, lo = pow10.take(14 - e - _KMIN, axis=1)
    p = a * hi
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    whole = np.floor(p)
    frac = (p - whole) + ((((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo)
    fast &= (p >= 1e14) & (p <= 1e15) & (np.abs(frac - 0.5) > 1e-9)
    m = whole.astype(np.int64) + (frac > 0.5)
    carry = m == 10 ** 15
    m[carry] = 10 ** 14
    return m, e + carry, fast


def format_g15(x):
    """Rows of "%.15g" % v for the float64 array x, NUL-padded to CELL bytes."""
    pow10, groups, trailing, exps, key_of_e, layouts = tables()
    m, e, fast = _decimal(x, pow10)
    zero = x == 0
    fast |= zero
    q0 = m // 10000
    q1 = q0 // 10000
    g3 = q1 // 10000
    g0, g1, g2 = m - q0 * 10000, q0 - q1 * 10000, q1 - g3 * 10000
    s0 = groups[g3] | groups[g2] << np.uint64(32)  # the digit string "0" d0..d14
    s1 = groups[g1] | groups[g0] << np.uint64(32)
    zeros = trailing[g0] + (g0 == 0) * (trailing[g1] + (g1 == 0) * (
        trailing[g2] + (g2 == 0) * trailing[g3]))
    k = np.where(zero, layouts.shape[1] - 1, key_of_e[e - _EMIN] - zeros)
    head0, head1, tail0, tail1, b, const0, const1, const2 = layouts.take(k, axis=1)
    t0, t1 = s0 & tail0, s1 & tail1
    cells = np.empty((len(x), 3), "<u8")
    cells[:, 0] = (s0 & head0) | (t0 << b) | const0 | np.signbit(x) * np.uint64(ord("-"))
    cells[:, 1] = (s1 & head1) | (t1 << b) | (t0 >> (64 - b)) | const1
    cells[:, 2] = (t1 >> (64 - b)) | const2 | exps[e - _EMIN]
    cells = cells.view(np.uint8)
    if fast.all():
        return cells

    slow = np.flatnonzero(~fast)
    text = b"".join((b"%.15g" % v).ljust(CELL, b"\0") for v in x[slow].tolist())
    cells[slow] = np.frombuffer(text, np.uint8).reshape(-1, CELL)
    return cells
