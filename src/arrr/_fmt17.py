"""`"%.17g" % x` for a block of floats at once, the kernel of
`_serde.write_matrix_csv`.

It forms |x| * 10**(16 - X), X = floor(log10 |x|), as a double-double:
Dekker's (1971) exact product of Veltkamp-split halves, with 10**k a
correctly rounded hi + lo pair. That is within 1e-14 of the exact product,
so rounding it gives the 17 digits N of `%.17g` whenever its fractional part
is more than _TIE from one half. An element that is not finite, lies outside
[_MIN, _MAX] (zeros aside), is that near a tie, or whose N falls outside
[10**16, 10**17) is not certified; the caller writes its row by `%.17g`.
"""

import functools

import numpy as np

_MIN, _MAX = 1e-280, 1e280      # no step of the product over- or underflows
_TIE = 1e-6
_K0, _K1 = -290, 300            # the exponents k of the 10**k table
_SPLIT = 134217729.0            # 2**27 + 1


def _words(rows) -> np.ndarray:
    """8-byte strings as one native uint64 each."""
    return np.frombuffer(b"".join(rows), dtype=np.uint64)


@functools.cache
def _tables():
    """The kernel's read-only tables, built on first use.

    An element's field is six uint64 words; the caller drops their zero bytes.
    - Word 0 holds the sign, "0." and the zeros that lead for -4 <= X <= -1,
      then the first digit: `pre[60 * sign + 10 * kind + digit]`, where kind
      is -X for -4 <= X <= -1, 5 for a zero and 0 otherwise.
    - Words 1-4 hold four digits each, every digit after a slot for the
      point: `quad[g] & mask[w][keep]`, which keeps only the first `keep`
      digits of the 17. `last[w][g]` counts the digits of the 17 up to the
      last nonzero one in word w holding g, or is 0 for g = 0.
    - Word 5 holds the exponent, `suffix[X + 300]`, or nothing,
      `suffix[601]`. Its last byte takes the separator.
    """
    hi, lo = [], []
    for k in range(_K0, _K1 + 1):
        if k >= 0:
            hi.append(float(10 ** k))
            lo.append(float(10 ** k - int(hi[-1])))
        else:
            hi.append(1 / 10 ** -k)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10 ** -k) / (den * 10 ** -k))
    hi, lo = np.array(hi), np.array(lo)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    g = np.arange(10000)
    quad = np.zeros((10000, 8), dtype=np.uint8)
    upto = np.zeros(10000, dtype=np.intp)    # place 1-4 of g's last nonzero digit
    for i in range(4):
        digit = g // 10 ** (3 - i) % 10
        quad[:, 2 * i + 1] = ord("0") + digit
        upto[digit != 0] = i + 1
    mask = [(b"\xff" * 2 * min(max(keep - 4 * w - 1, 0), 4)).ljust(8, b"\0")
            for w in range(4) for keep in range(18)]
    pre = []
    for sign in (b"", b"-"):
        for kind in range(6):
            head = sign + (b"0" if kind == 5 else b"0." + b"0" * (kind - 1) if kind else b"")
            pre += [head.ljust(7, b"\0") + (b"\0" if kind == 5 else b"%d" % d)
                    for d in range(10)]
    suffix = [(b"e%+03d" % x).ljust(8, b"\0") for x in range(-300, 301)] + [bytes(8)]
    tables = (hi, lo, hi_hi, hi - hi_hi, quad.view(np.uint64).ravel(),
              np.where(upto, upto + 4 * np.arange(4)[:, None] + 1, 0).astype(np.int8),
              _words(mask).reshape(4, 18), _words(pre), _words(suffix))
    for t in tables:
        t.setflags(write=False)
    return tables


def _round17(ax: np.ndarray):
    """For each |x| in [_MIN, _MAX]: the decimal exponent X, the integer N
    nearest |x| * 10**(16 - X), and whether N is certified: the product's
    fractional part is more than _TIE from one half and N has 17 digits."""
    hi, lo, hi_hi, hi_lo = _tables()[:4]
    ex = np.floor(np.log10(ax)).astype(np.intp)
    j = ex - _K0
    # log10 may round up to X + 1 just below a power of ten
    ex -= (ax < hi.take(j)) | ((ax == hi.take(j)) & (lo.take(j) > 0))
    k = 16 - ex - _K0
    c = _SPLIT * ax
    ax_hi = c - (c - ax)
    ax_lo = ax - ax_hi
    p = ax * hi.take(k)
    b_hi, b_lo = hi_hi.take(k), hi_lo.take(k)
    r = (((ax_hi * b_hi - p) + ax_hi * b_lo + ax_lo * b_hi) + ax_lo * b_lo
         + ax * lo.take(k))
    fl = np.floor(r)
    n = p.astype(np.int64) + (fl + (r - fl > 0.5)).astype(np.int64)
    certified = np.abs(r - fl - 0.5) > _TIE
    certified &= (n >= 10 ** 16) & (n < 10 ** 17)
    return ex, n, certified


def format_block(a: np.ndarray):
    """The fields of a 2-D block's elements, uint8 of shape a.shape + (48,),
    each followed by "," or, at a row's end, a newline, with zero bytes to
    drop; and for each row whether every element in it is certified."""
    x = a.ravel()
    ax = np.abs(x)
    zero = ax == 0
    ok = (ax >= _MIN) & (ax <= _MAX)
    ex, n, certified = _round17(np.where(ok, ax, 1.0))
    ok = zero | (ok & certified)
    n[~ok] = 10 ** 16   # an uncertified N may have 18 digits, past the tables
    *_, quad, last, mask, pre, suffix = _tables()
    # N as its first digit and four groups of four
    q = n // 10 ** 8
    first = q // 10 ** 8
    g12, g34 = q - first * 10 ** 8, n - q * 10 ** 8
    g1, g3 = g12 // 10 ** 4, g34 // 10 ** 4
    groups = (g1, g12 - g1 * 10 ** 4, g3, g34 - g3 * 10 ** 4)
    sig = np.maximum(np.maximum(last[0].take(groups[0]), last[1].take(groups[1])),
                     np.maximum(last[2].take(groups[2]), last[3].take(groups[3])))
    sci = (ex < -4) | (ex >= 17)
    small = (ex < 0) & ~sci
    lead = np.where(sci, 1, np.where(small, 0, ex + 1))   # digits before the point
    keep = np.maximum(sig, lead)
    keep[zero] = 0
    kind = np.where(zero, 5, np.where(small, -ex, 0))
    words = np.empty((x.size, 6), dtype=np.uint64)
    words[:, 0] = pre.take(60 * np.signbit(x) + 10 * kind + first)
    for w, g in enumerate(groups):
        words[:, w + 1] = quad.take(g) & mask[w].take(keep)
    words[:, 5] = suffix.take(np.where(sci, ex + 300, 601))
    out = words.view(np.uint8)
    dot = np.flatnonzero((keep > lead) & ~small)
    out[dot, 6 + 2 * lead.take(dot)] = ord(".")
    out = out.reshape(a.shape + (48,))
    out[..., -1] = ord(",")
    out[:, -1, -1] = ord("\n")
    return out, ok.reshape(a.shape).all(axis=1)
