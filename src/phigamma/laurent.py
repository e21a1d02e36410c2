"""Truncated Laurent series over a Galois ring, with precision windows.

A series x is stored as a window [lo, hi) together with the coefficient
list for exponents lo, lo+1, ..., hi-1.  The meaning of the window:

* coefficients below lo are exactly zero (poles are tracked exactly),
* coefficients in [lo, hi) are known exactly,
* coefficients at hi and above are unknown.

Series are normalized on construction: leading zero coefficients are
stripped so that lo is the exact order of the lowest nonzero tracked term,
and the zero series is represented with lo == hi.

Window propagation rules (part of the operation contract, and relied on
by the test suite):

* add/sub:  hi = min(x.hi, y.hi)
* mul:      hi = min(x.hi + y.lo, y.hi + x.lo)
* scalar:   window unchanged
* shift(k): lo, hi both shifted by k
* inv:      hi = min(x.hi, x.hi + 2 * lo(inv(x)))
* eth_root: hi = min(w.hi, w.hi + lo(root) + lo(inv(w)))
* compose(f, g) with unit degree d = d(g) >= 1:
            hi = min over the partial sums of the per-term windows of
            c_n * g^n (computed with the rules above, powers of g formed
            by binary powering), further capped by the tail guard
            d * f.hi - (a - 1) * max(0, d - lo(g))
            which bounds the lowest exponent reachable by the unknown
            coefficients of f.

Rationale for inv: if x is known mod u^hi then perturbing x by
delta = O(u^hi) perturbs the inverse by x^{-1} delta x^{-1} + ..., whose
order is at least hi + 2 lo(x^{-1}).  The eth_root rule is the same
argument applied to r' = r (1 + delta/w)^{1/e}.

Series products go through one kernel, `_convolve`, by Kronecker
substitution: each coefficient list is packed into one Python int with
every coordinate in its own byte-aligned slot, and a single big-int
product does the whole convolution.  A slot is wide enough for
min(len(x), len(y)) * f * (q-1)^2, the largest sum a product slot can
hold, so slots never carry into each other; for f > 1 the coordinates of
a coefficient sit at stride 2f - 1 and the slots of x^f ... x^(2f-2) are
folded back through the modulus rows once per output coefficient.
`__mul__` and the power loops of `inv` and `eth_root_one_unit` all use
it.  Unsigned packing needs every stored coordinate to be canonical, an
int in [0, q): every constructor here keeps that invariant (`from_terms`
and `from_json` reduce their input, arithmetic reduces its output), and
a coordinate tuple handed to the constructor or returned by a
`map_coeffs` function must keep it too.  The kernel checks it: a
product with a coordinate of q or more raises PhigammaError rather than
let that coordinate carry into its neighbour's slot.  The kernel changes
how a product is computed, not what it is: the window rules above are
unchanged.
"""

import math
import sys
from array import array
from collections import namedtuple

from .errors import (BadIndex, Divergent, EmptyWindow, InsufficientWindow,
                     NotAUnit, NotPrincipalForm, PhigammaError)

UnitDegree = namedtuple("UnitDegree", ["d", "pole"])


class LaurentSeries:
    """A truncated Laurent series over a CoeffRing."""

    __slots__ = ("ring", "lo", "hi", "coeffs")

    def __init__(self, ring, lo, hi, coeffs):
        if hi < lo:
            raise EmptyWindow(f"window [{lo}, {hi}) is empty")
        if len(coeffs) != hi - lo:
            raise ValueError("coefficient list does not match window")
        # normalize: strip exact leading zeros
        i = 0
        n = len(coeffs)
        while i < n and ring.is_zero(coeffs[i]):
            i += 1
        if i == n:
            lo, coeffs = hi, []
        elif i:
            lo, coeffs = lo + i, coeffs[i:]
        self.ring = ring
        self.lo = lo
        self.hi = hi
        self.coeffs = list(coeffs)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ring, hi):
        return cls(ring, hi, hi, [])

    @classmethod
    def from_terms(cls, ring, terms, hi):
        """Build a series from {exponent: coefficient}; ints are lifted."""
        if not terms:
            return cls.zero(ring, hi)
        lo = min(terms)
        coeffs = [ring.zero] * (hi - lo)
        for e, c in terms.items():
            if e >= hi:
                continue
            coeffs[e - lo] = _as_coords(ring, c)
        return cls(ring, lo, hi, coeffs)

    @classmethod
    def constant(cls, ring, c, hi):
        return cls.from_terms(ring, {0: c}, hi)

    @classmethod
    def monomial(cls, ring, exp, c, hi):
        return cls.from_terms(ring, {exp: c}, hi)

    # -- inspection ---------------------------------------------------------

    def is_zero(self):
        """True when every tracked coefficient vanishes (window-relative)."""
        return self.lo == self.hi

    def coeff(self, e):
        if e < self.lo:
            return self.ring.zero
        if e >= self.hi:
            raise InsufficientWindow(f"exponent {e} is outside window [<{self.hi})")
        return self.coeffs[e - self.lo]

    def terms(self):
        for i, c in enumerate(self.coeffs):
            if not self.ring.is_zero(c):
                yield self.lo + i, c

    def unit_degree(self):
        """First exponent whose coefficient is a unit, with the exact pole.

        Raises InsufficientWindow when no unit appears in the window: the
        series may acquire a unit coefficient beyond hi, so neither a
        positive nor a negative answer is safe.
        """
        for i, c in enumerate(self.coeffs):
            if self.ring.is_unit(c):
                return UnitDegree(d=self.lo + i, pole=self.lo)
        raise InsufficientWindow("no unit coefficient within the window")

    def in_lattice(self, m):
        """Decide membership in u^{-m} * (power series), i.e. lo >= -m."""
        if self.is_zero():
            if self.hi < -m:
                raise InsufficientWindow("window lies entirely below u^{-m}")
            return True
        return self.lo >= -m

    def in_power_series(self):
        return self.in_lattice(0)

    def agrees(self, other):
        """Coefficient-wise equality on the common window."""
        hi = min(self.hi, other.hi)
        lo = min(self.lo, other.lo)
        for e in range(lo, hi):
            if self._at(e) != other._at(e):
                return False
        return True

    def _at(self, e):
        if e < self.lo or e >= self.lo + len(self.coeffs):
            return self.ring.zero
        return self.coeffs[e - self.lo]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return _add(self, other, False)

    def __sub__(self, other):
        return _add(self, other, True)

    def __neg__(self):
        ring = self.ring
        return LaurentSeries(ring, self.lo, self.hi,
                             [ring.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        ring = self.ring
        hi = min(self.hi + other.lo, other.hi + self.lo)
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero(ring, hi)
        lo = self.lo + other.lo
        if hi <= lo:
            raise EmptyWindow("product window retains no exponent")
        out = _convolve(ring, self.coeffs, other.coeffs, hi - lo)
        return LaurentSeries(ring, lo, hi, out)

    def scale(self, c):
        """Multiply by an exactly known ring constant; window unchanged."""
        ring = self.ring
        c = _as_coords(ring, c)
        return LaurentSeries(ring, self.lo, self.hi,
                             [ring.mul(c, x) for x in self.coeffs])

    def shift(self, k):
        """Multiply by u^k."""
        return LaurentSeries(self.ring, self.lo + k, self.hi + k, list(self.coeffs))

    def truncate(self, hi):
        """Forget coefficients at and above hi (hi must not exceed self.hi)."""
        if hi > self.hi:
            raise InsufficientWindow("cannot extend a window by truncation")
        if hi <= self.lo:
            return LaurentSeries.zero(self.ring, hi)
        return LaurentSeries(self.ring, self.lo, hi, self.coeffs[:hi - self.lo])

    def map_coeffs(self, fn):
        return LaurentSeries(self.ring, self.lo, self.hi,
                             [fn(c) for c in self.coeffs])

    def frob_coeffs(self, power=1):
        if power % self.ring.f == 0:
            return self
        return self.map_coeffs(lambda c: self.ring.frob(c, power))

    def inv(self):
        """Inverse in the truncated Laurent ring.

        Requires a unit degree d within the window; all coefficients below
        d are then automatically nilpotent.  Computed by a geometric series
        against the leading unit term, on an internally padded window, then
        clamped to hi = min(x.hi, x.hi + 2 * lo(result)).
        """
        ring = self.ring
        try:
            ud = self.unit_degree()
        except InsufficientWindow:
            raise NotAUnit("no unit coefficient within the window")
        d, pole = ud.d, ud.pole
        a = ring.a
        spread = d - pole
        pad = (a + 1) * (spread + 1) + 2
        work_hi = self.hi + pad
        # m = c_d^{-1} u^{-d}; w = m*x - 1 has positive or nilpotent terms.
        # The loop multiplies by -w, so acc runs through (-w)^k.
        cd_inv = ring.inv(self.coeff(d))
        neg_w = _convolve(ring, [ring.neg(cd_inv)], self.coeffs,
                          len(self.coeffs))
        neg_w[d - self.lo] = ring.zero
        w_lo, neg_w = _strip(ring, self.lo - d, neg_w)
        # truncated geometric series sum (-w)^k, exact on the padded window
        acc_lo, acc = 0, [ring.one]
        res_lo, res = 0, [ring.one] + [ring.zero] * (work_hi - 1)
        kmax = work_hi + (a - 1) * (spread + 1) + 1
        for _ in range(kmax):
            acc_lo, acc = _dense_mul(ring, acc_lo, acc, w_lo, neg_w, work_hi)
            if not acc:
                break
            res_lo, res = _accumulate(ring, res_lo, res, acc_lo, acc)
        # shift by -d onto [lo, work_hi), lo the lowest nonzero term: cut
        # at work_hi or padded with zeros up to it (EmptyWindow when the
        # padded window ends below lo)
        res_lo, res = _strip(ring, res_lo, res)
        lo = res_lo - d
        n = work_hi - lo
        out = _convolve(ring, [cd_inv], res, len(res))
        raw = LaurentSeries(ring, lo, work_hi, (out + [ring.zero] * n)[:n])
        hi = min(self.hi, self.hi + 2 * raw.lo)
        return raw.truncate(hi)

    def to_json(self):
        return {"lo": self.lo, "hi": self.hi,
                "coeffs": [list(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, ring, data):
        coeffs = [tuple(v % ring.q for v in c) for c in data["coeffs"]]
        return cls(ring, data["lo"], data["hi"], coeffs)

    def __repr__(self):
        parts = [f"{c}*u^{e}" for e, c in self.terms()]
        body = " + ".join(parts) if parts else "0"
        return f"<{body} mod u^{self.hi}>"


def _as_coords(ring, c):
    """Canonical coordinates of an int, a CoeffElem or a coordinate tuple."""
    if isinstance(c, int):
        return ring.from_int(c)
    if hasattr(c, "coords"):
        c = c.coords
    return tuple(v % ring.q for v in c)


def _add(x, y, sub):
    """x + y, or x - y when sub, built from the aligned coefficient slices."""
    ring = x.ring
    hi = min(x.hi, y.hi)
    lo = min(x.lo, y.lo, hi)
    start = min(max(x.lo, y.lo), hi)
    # below start only the series with the lower order contributes
    if x.lo <= y.lo:
        head = x.coeffs[:start - lo]
    else:
        head = y.coeffs[:start - lo]
        if sub:
            head = [ring.neg(c) for c in head]
    body = _coeff_sum(ring, x.coeffs[start - x.lo:hi - x.lo],
                      y.coeffs[start - y.lo:hi - y.lo], sub)
    return LaurentSeries(ring, lo, hi, head + body)


def _coeff_sum(ring, xs, ys, sub=False):
    """Coefficient-wise xs + ys (xs - ys when sub) of two aligned lists."""
    q = ring.q
    s = -1 if sub else 1
    if ring.f == 1:
        return [((x[0] + s * y[0]) % q,) for x, y in zip(xs, ys)]
    return [tuple([(u + s * v) % q for u, v in zip(x, y)])
            for x, y in zip(xs, ys)]


def _convolve(ring, xs, ys, n):
    """First n coefficients of the product of two dense coefficient lists.

    Kronecker substitution: both lists are packed into one big int each,
    with every coordinate in a byte-aligned slot, and a single int
    product does the whole convolution.  A slot of the product sums at
    most min(len(xs), len(ys)) * f products of canonical coordinates, so
    it stays below min(len(xs), len(ys)) * f * (q-1)^2 and never carries
    into its neighbour.  For f > 1 the coordinates of one coefficient are
    laid out with stride 2f - 1, so the coordinate products x^k * x^l
    with k + l <= 2f - 2 land in slots of their own; the slots for x^f
    ... x^(2f-2) are then folded back through the modulus rows.
    """
    square = xs is ys
    xs, ys = xs[:n], ys[:n]
    if n <= 0 or not xs or not ys:
        return [ring.zero] * max(n, 0)
    f, q = ring.f, ring.q
    stride = 2 * f - 1
    nb = ((min(len(xs), len(ys)) * f * (q - 1) ** 2).bit_length() + 7) // 8
    if nb <= 8:
        # round up to a machine word of 1, 2, 4 or 8 bytes, so that array
        # does the packing and unpacking in C
        nb = 1 << (nb - 1).bit_length()
    pad = (0,) * (f - 1)
    X = _pack(xs, nb, pad, q)
    Y = X if square else _pack(ys, nb, pad, q)
    size = max(n, len(xs) + len(ys) - 1) * stride * nb
    slots = _unpack((X * Y).to_bytes(size, "little")[:n * stride * nb], nb)
    if f == 1:
        return [(s % q,) for s in slots]
    # column k holds coordinate x^k of every output coefficient
    cols = [slots[k::stride] for k in range(stride)]
    out = []
    for k in range(f):
        col = cols[k]
        for row, high in zip(ring._red, cols[f:]):
            r = row[k]
            if r:
                col = [s + r * t for s, t in zip(col, high)]
        out.append([s % q for s in col])
    return list(zip(*out))


# array typecode for each machine-word slot width in bytes, narrowest first
_WORD_CODES = {array(c).itemsize: c for c in "BHIQ"}
_BIG_ENDIAN = sys.byteorder == "big"


def _pack(cs, nb, pad, q):
    """One int holding the coordinates of cs, nb bytes each, little-endian;
    every coefficient is followed by the zero slots of pad.

    A coordinate of q or more would overflow its slot into the next one,
    so it raises; a negative one cannot be packed unsigned and raises
    OverflowError.
    """
    flat = [v for c in cs for v in c + pad]
    if max(flat) >= q:
        raise PhigammaError(f"coordinate {max(flat)} is not reduced mod {q}")
    code = _WORD_CODES.get(nb)
    if code is None:
        return int.from_bytes(b"".join([v.to_bytes(nb, "little")
                                        for v in flat]), "little")
    words = array(code, flat)
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def _unpack(buf, nb):
    """The little-endian nb-byte slots of buf, as ints."""
    code = _WORD_CODES.get(nb)
    if code is None:
        return [int.from_bytes(buf[i:i + nb], "little")
                for i in range(0, len(buf), nb)]
    words = array(code, buf)
    if _BIG_ENDIAN:
        words.byteswap()
    return words.tolist()


def _strip(ring, lo, cs):
    """Drop the leading zero coefficients of the dense list cs at order lo."""
    zero = ring.zero
    i = 0
    while i < len(cs) and cs[i] == zero:
        i += 1
    return lo + i, cs[i:]


def _dense_mul(ring, x_lo, xs, y_lo, ys, hi):
    """Product of two dense (lo, list) pairs, dropping exponents >= hi."""
    lo = x_lo + y_lo
    return _strip(ring, lo, _convolve(ring, xs, ys, hi - lo))


def _accumulate(ring, res_lo, res, acc_lo, acc):
    """Add the dense pair (acc_lo, acc) into (res_lo, res), which reaches at
    least as high; res is extended downwards when acc starts lower."""
    if acc_lo < res_lo:
        res = [ring.zero] * (res_lo - acc_lo) + res
        res_lo = acc_lo
    i = acc_lo - res_lo
    res[i:i + len(acc)] = _coeff_sum(ring, res[i:i + len(acc)], acc)
    return res_lo, res


def eth_root_one_unit(w, e):
    """Principal e-th root of w = 1 + h, h with positive or nilpotent terms.

    Computed by the binomial series sum_k C(1/e, k) h^k, which terminates
    within the (padded) window because each h factor either raises the
    exponent or contributes a factor of p.  The binomial coefficients
    C(1/e, k) mod p^a are evaluated as exact integer binomials C(c, k)
    where c is an integer inverse of e modulo p^{a + v_p(K!)}.

    Requires gcd(e, p) = 1 (BadIndex otherwise) and the principal shape
    of w (NotPrincipalForm otherwise).
    """
    ring = w.ring
    p, a, q = ring.p, ring.a, ring.q
    if e < 1 or math.gcd(e, p) != 1:
        raise BadIndex(f"root index {e} is not prime to p = {p}")
    if w.coeff(0) != ring.one and not ring.is_nilpotent(ring.sub(w.coeff(0), ring.one)):
        raise NotPrincipalForm("constant term is not 1 + nilpotent")
    hs = list(w.coeffs)
    hs[-w.lo] = ring.sub(hs[-w.lo], ring.one)
    m = 0
    for exp in range(w.lo, 1):
        c = hs[exp - w.lo]
        if ring.is_zero(c):
            continue
        if not ring.is_nilpotent(c):
            raise NotPrincipalForm(
                f"term at exponent {exp} has a unit coefficient")
        m = max(m, -exp)
    h_lo, hs = _strip(ring, w.lo, hs)
    if not hs:
        return LaurentSeries.constant(ring, 1, w.hi)
    pad = (a + 1) * (m + 2) + 2
    work_hi = w.hi + pad
    kmax = work_hi + (a - 1) * (m + 1) + 1
    # integer stand-in for 1/e, accurate enough for all binomials used
    vK = _legendre_val_factorial(kmax, p)
    c_int = pow(e, -1, p ** (a + vK))
    acc_lo, acc = 0, [ring.one]
    res_lo, res = 0, [ring.one] + [ring.zero] * (work_hi - 1)
    for k in range(1, kmax + 1):
        acc_lo, acc = _dense_mul(ring, acc_lo, acc, h_lo, hs, work_hi)
        if not acc:
            break
        b = math.comb(c_int, k) % q
        if b == 0:
            continue
        res_lo, res = _accumulate(ring, res_lo, res, acc_lo, _convolve(
            ring, [ring.from_int(b)], acc, len(acc)))
    raw = LaurentSeries(ring, res_lo, work_hi, res)
    winv = w.inv()
    hi = min(w.hi, w.hi + raw.lo + winv.lo)
    return raw.truncate(hi)


def _legendre_val_factorial(k, p):
    v, pk = 0, p
    while pk <= k:
        v += k // pk
        pk *= p
    return v


def compose(f, g, powers_cache=None):
    """Substitute g into f: sum of c_n * g^n over the window of f.

    Requires unit degree d(g) >= 1 (Divergent otherwise); negative
    exponents of f additionally require g invertible, which d(g) >= 1
    guarantees.  Powers of g are formed by binary powering (and cached in
    powers_cache when given), each with the documented mul windows; the
    final window is additionally capped by the tail guard described in
    the module docstring.
    """
    ring = f.ring
    try:
        ud = g.unit_degree()
    except InsufficientWindow:
        raise NotAUnit("substitution target has no visible unit coefficient")
    d = ud.d
    if d < 1:
        raise Divergent(f"substitution target has unit degree {d} < 1")
    if powers_cache is None:
        powers_cache = {}
    tail_guard = d * f.hi - (ring.a - 1) * max(0, d - g.lo)
    out = LaurentSeries.zero(ring, tail_guard)
    for n in range(f.lo, f.hi):
        c = f._at(n)
        if ring.is_zero(c):
            continue
        if n < 0 and "inv" not in powers_cache:
            powers_cache["inv"] = g.inv()
        base = g if n >= 0 else powers_cache["inv"]
        gn = _power(base, abs(n), powers_cache, neg=(n < 0))
        out = out + gn.scale(c)
    return out


def _power(base, n, cache, neg=False):
    """Binary powering with memoization; cache key is (neg, n)."""
    key = (neg, n)
    if key in cache:
        return cache[key]
    if n == 0:
        val = LaurentSeries.constant(base.ring, 1, base.hi)
    elif n == 1:
        val = base
    else:
        half = _power(base, n // 2, cache, neg)
        val = half * half
        if n % 2:
            val = val * base
    cache[key] = val
    return val
