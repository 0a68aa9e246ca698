"""CSV text of float64 blocks: every value as the bytes of repr(float(v)).

repr gives the shortest decimal that reads back as the double (on a tie of
length, the one nearest it), laid out by CPython's 'r' rule.  float.__repr__
costs about 0.7 us a value (2-core x86-64 VM); here a whole block is done in
numpy arrays.  The digits come from Schubfach (R. Giulietti, "The Schubfach
way to render doubles", 2020, the algorithm of Java's Double.toString),
which gives the same digits as Ryu and as CPython's dtoa.  NaN, +-inf and
+-0 go through the same array steps, so a table of them costs no repr; only
subnormals, which no scenario's CSV is expected to hold, fall back to one
repr each.

Every wrapping uint64 operation acts on arrays, never on numpy scalars, so
it raises no RuntimeWarning and needs no np.errstate.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_U = np.uint64
_M32 = _U((1 << 32) - 1)
_M63 = _U((1 << 63) - 1)
_POW10 = 10 ** np.arange(19, dtype=_U)
# "00" to "99" as two chars in a uint16, and per count of digits kept the
# uint16 masks that keep them: one take() each for a row's 18 digit chars
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint16)
_KEEP = (255 * (np.arange(18)[:, None] > np.arange(18))).astype(np.uint8).view(np.uint16)
_WORDS = np.frombuffer(b"0.0infnan", np.uint8).reshape(3, 3)
_LEAD = np.frombuffer(b"0.000", np.uint8)
# record columns of one value; NULs are dropped when the block is joined
_DIGITS = 6                 # after the sign and "0.000" (or a word), 18 digits
_EXP = _DIGITS + 36         # each with a slot for the point after it, then
_WIDTH = _EXP + 5 + 2       # "e", its sign, three digits and "," or "\r\n"


@cache
def _g(k):
    """g1, g0 and e2 with g = g1*2^63 + g0 = floor(10^-k * 2^-r) + 1 in
    [2^125, 2^126), where e2 = r + 125 = floor(log2 10^-k)."""
    if k <= 0:
        p = 10 ** -k
        e2 = p.bit_length() - 1
        g = (p >> e2 - 125 if e2 >= 125 else p << 125 - e2) + 1
    else:                   # 10^k is no power of 2, so its log2 is not whole
        p = 10 ** k
        e2 = -p.bit_length()
        g = (1 << 125 - e2) // p + 1
    return g >> 63, g & (1 << 63) - 1, e2


def _halves(a):
    return a & _M32, a >> 32


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products a*b of a < 2^63 and b < 2^59,
    both given as 32-bit halves: the middle sum stays below 2^64."""
    (a0, a1), (b0, b1) = a, b
    return a1 * b1 + ((a0 * b1 + a1 * b0 + ((a0 * b0) >> 32)) >> 32)


def _rop(g1, g, cp):
    """cp*g / 2^127 rounded to odd (the floor, its last bit set if inexact),
    for g = g1*2^63 + g0 given as g1 and the halves of g0 and g1."""
    b = _halves(cp)
    z = ((g1 * cp) >> 1) + _mulhi(g[0], b)
    return (_mulhi(g[1], b) + (z >> 63)) | ((z & _M63) != 0)


def _shortest(bits):
    """Schubfach: for the bit patterns of positive normal doubles c*2^q,
    the d and k of the shortest decimal d*10^k that reads back as the
    double; of those, the nearest one (d even on an exact tie)."""
    c = (bits & _U((1 << 52) - 1)) | _U(1 << 52)
    q = (bits >> 52).astype(np.int64) - 1075
    # at a power of two the double below is nearer than the one above; there
    # k = floor(log10(3/4 * 2^q)), else floor(log10 2^q), in 41-bit fixed point
    regular = (c != _U(1 << 52)) | (q == -1074)
    k = (q * 661971961083 - 274743187321 * ~regular) >> 41
    lo = int(k.min())
    t1, t0, e2 = zip(*map(_g, range(lo, int(k.max()) + 1)))
    at = k - lo
    g1, g0 = np.array(t1, _U).take(at), np.array(t0, _U).take(at)
    g = _halves(g0), _halves(g1)
    h = (q + np.array(e2).take(at) + 2).astype(_U)
    # the rounding interval's ends, in quarters: they round to an even c only
    out = c & _U(1)
    cb = c << _U(2)
    vb = _rop(g1, g, cb << h)
    vbl = _rop(g1, g, (cb - _U(1) - regular) << h) + out
    vbr = _rop(g1, g, (cb + _U(2)) << h) - out
    s = vb >> _U(2)
    t = s + _U(1)
    # at most one multiple of 10^(k+1) lies in the rounding interval
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    # else s or t, whichever lies in it, or the nearer (the even one on a tie)
    uin = vbl <= s << _U(2)
    win = t << _U(2) <= vbr
    mid = (s + t) << _U(1)
    nearer_t = (vb > mid) | ((vb == mid) & ((s & _U(1)) != 0))
    d = np.where(upin != wpin, sp10 + _U(10) * wpin,
                 s + np.where(uin != win, win, nearer_t))
    return d, k


def _decimal(v, bits, normal):
    """d and k with |v| = d*10^k the shortest decimal, for the normal values
    (0 and 0 elsewhere); an integer below 2^53 is its own digits."""
    av = np.where(normal, np.abs(v), 0.0)
    whole = (av < 2.0 ** 53) & (np.floor(av) == av)
    d = np.where(whole, av, 0.0).astype(_U)
    k = np.zeros(v.size, np.int64)
    rest = normal & ~whole
    if rest.any():
        d[rest], k[rest] = _shortest(bits[rest] & _M63)
    return d, k


def _digits(d):
    """The 18 digits of each d left-aligned, as char pairs in uint16; the
    count of its digits, and of them up to its last nonzero one."""
    size = np.searchsorted(_POW10, d, side="right")
    aligned = d * _POW10[18 - size]
    pairs = np.empty((d.size, 9), np.uint8)
    prev = 0
    for j in range(9):
        cur = aligned // _POW10[16 - 2 * j]
        pairs[:, j] = cur - prev * _U(100)
        prev = cur
    digits = _PAIRS.take(pairs)
    nd = 17 - np.argmax((digits.view(np.uint8) != ord("0"))[:, 16::-1], axis=1)
    return digits, size, nd


def _records(table):
    """One NUL-padded record of _WIDTH chars per value of a 2-D block."""
    rows, cols = table.shape
    v = np.ascontiguousarray(table, dtype=float).ravel()
    bits = v.view(_U)
    biased = (bits >> _U(52)) & _U(0x7FF)
    normal = (biased != 0) & (biased != 0x7FF)
    d, k = _decimal(v, bits, normal)
    digits, size, nd = _digits(d)
    decpt = k + size

    # CPython's 'r' layout; a fixed point value keeps its zeros up to ".0"
    expo = normal & ((decpt <= -4) | (decpt > 16))
    fixed = normal & ~expo
    keep = np.where(fixed & (decpt >= nd), decpt + 1, nd) * normal
    point = np.where(fixed & (decpt > 0), decpt, np.where(expo & (nd > 1), 1, 0))

    rec = np.zeros((v.size, _WIDTH), np.uint8)
    rec[:, 0] = ord("-") * (np.signbit(v) & ~np.isnan(v))
    rec[:, _DIGITS:_EXP:2] = (digits & _KEEP.take(keep, axis=0)).view(np.uint8)
    ip = np.flatnonzero(point)
    rec[ip, _DIGITS - 1 + 2 * point[ip]] = ord(".")
    ib = np.flatnonzero(fixed & (decpt <= 0))    # 0.000ddd
    rec[ib, 1:_DIGITS] = _LEAD * (np.arange(5) < 2 - decpt[ib, None])

    ie = np.flatnonzero(expo)
    e = decpt[ie] - 1
    ae = np.abs(e)
    rec[ie, _EXP] = ord("e")
    rec[ie, _EXP + 1] = np.where(e < 0, ord("-"), ord("+"))
    rec[ie, _EXP + 2:_EXP + 5] = ord("0") + ae[:, None] // [100, 10, 1] % 10
    rec[ie[ae < 100], _EXP + 2] = 0

    iw = np.flatnonzero(~normal)
    rec[iw, 1:4] = _WORDS.take(np.where(biased[iw] == 0, 0, 1 + np.isnan(v[iw])), axis=0)
    for i in np.flatnonzero((biased == 0) & (bits << _U(1) != 0)):   # subnormals
        text = repr(float(v[i])).encode()
        rec[i, :_EXP + 5] = 0
        rec[i, :len(text)] = np.frombuffer(text, np.uint8)

    sep = rec.reshape(rows, cols, _WIDTH)[:, :, _EXP + 5:]
    sep[:, :-1, 0] = ord(",")
    sep[:, -1] = np.frombuffer(b"\r\n", np.uint8)
    return rec


def csv_rows(table):
    """The bytes of a 2-D block's CSV lines: every value as repr(float(v)),
    a comma between the values of a row, CRLF after each."""
    return _records(table).tobytes().translate(None, b"\0")
