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

A series stores its coefficients as one flat list of Python ints: the
coefficient of u^(lo + i) is the coordinate block flat[i*f:(i+1)*f] in
the power basis of the coefficient ring, so the list is (hi - lo) * f
long, and at f = 1 it is just the list of coefficients.  Every operation
here works on that list; `coeff`, `terms` and the read-only `coeffs`
view hand out f-tuples, the ring's element format, and the constructor
takes a list of them.  Every series holds only canonical coordinates,
ints in [0, q), as unsigned packing needs: the public constructor
checks its input (PhigammaError for a coordinate of q or more,
OverflowError for a negative one), and every other list is reduced
where it is made.

Series products go through one kernel, `_convolve`, by Kronecker
substitution: a flat list is packed into one Python int with every
coordinate in its own byte-aligned slot, and a single big-int product
does the whole convolution.  A slot is wide enough for
min(len(x), len(y)) * f * (q-1)^2, the largest sum a product slot can
hold, so slots never carry into each other.  At f = 1 the flat list is
packed as it is; for f > 1 the coordinates of a coefficient are spread
to stride 2f - 1 and the slots of x^f ... x^(2f-2) are folded back
through the modulus rows, one column of coordinates at a time.
`__mul__`, `scale` and `_power_sum` all use it.  `_power_sum` is the
one power loop of the module: `inv` sums (-w)^k and `eth_root_one_unit`
sums C(1/e, k) h^k through it.  Sums of products have one packed-sum
kernel, `_packed_sum`: one packed product per term, each shifted to its
own order, every product added as a Python int, the sum masked at its
window and its slots reduced once.  `compose` forms its whole sum
c_n * g^n through it, and so does `_dot`, the dot product
x_0*y_0 + x_1*y_1 + ... that each entry of a matrix product is, under
the window of the chain of products and sums: the least product window,
zero products included.  When only one product of a dot product is
nonzero below that window, the sum is that series product, cut to the
window, so a monomial factor keeps its shortcut.

A series packs its list once per slot width: the packed int is kept in
the series (its `_packed` store, keyed by slot width) from its first
product on, and a product that needs only a prefix of the list masks it
off that int.  `_power_sum` keeps the packing of its fixed factor
(-w or h) the same way for one call.
At f = 1 the product slots are reduced mod q through byte tables when
nb * (q-1) <= 255, nb the slot width in bytes: byte k of every slot is
mapped to b * 256^k mod q by one `bytes.translate`, the translated
strings are summed as ints and translated once more.  Other rings
reduce each slot with `% q`.

The kernel changes how a product is computed, not what it is: the
window rules above are unchanged.  A product with a monomial, a factor
with exactly one nonzero coefficient on its window, skips the kernel:
it is the other factor's list cut to the product window and scaled by
that coefficient, under the same window rule.  Likewise the inverse of
a monomial is written down, not summed, and so is each power of a
one-term h in `_power_sum`: h^k = c^k u^(k lo(h)) is one coefficient
product per step, as for the inverse of a binomial c_d u^d + c u^(d+j)
or the root of 1 + c u^j.

Series are values.  Nothing writes into a series' flat list once the
series owns it (`_series` takes the list over, and every operation
builds a new one), so a list may be shared between series, as `shift`
does, and an operation may return one of its operands: a sum with a
zero known at least as far as the other addend is that addend.
"""

import math
import sys
from array import array
from collections import namedtuple
from itertools import islice

from .errors import (BadIndex, Divergent, EmptyWindow, InsufficientWindow,
                     NotAUnit, NotPrincipalForm, PhigammaError)

UnitDegree = namedtuple("UnitDegree", ["d", "pole"])


class LaurentSeries:
    """A truncated Laurent series over a CoeffRing."""

    __slots__ = ("ring", "lo", "hi", "_flat", "_packed")

    def __init__(self, ring, lo, hi, coeffs):
        """The series with coordinate tuples coeffs on the window [lo, hi),
        each coordinate an int in [0, q)."""
        if hi >= lo and len(coeffs) != hi - lo:
            raise ValueError("coefficient list does not match window")
        s = _series(ring, lo, hi, [v for c in coeffs for v in c])
        _check_reduced(s._flat, ring.q)
        self.ring, self.lo, self.hi = ring, s.lo, s.hi
        self._flat, self._packed = s._flat, s._packed

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, ring, hi):
        return _series(ring, hi, hi, [])

    @classmethod
    def from_terms(cls, ring, terms, hi):
        """Build a series from {exponent: coefficient}; ints are lifted."""
        if not terms:
            return cls.zero(ring, hi)
        lo = min(terms)
        f = ring.f
        flat = [0] * ((hi - lo) * f)
        for e, c in terms.items():
            if e < hi:
                i = (e - lo) * f
                flat[i:i + f] = _as_coords(ring, c)
        return _series(ring, lo, hi, flat)

    @classmethod
    def constant(cls, ring, c, hi):
        return cls.from_terms(ring, {0: c}, hi)

    @classmethod
    def monomial(cls, ring, exp, c, hi):
        return cls.from_terms(ring, {exp: c}, hi)

    # -- inspection ---------------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients on [lo, hi) as coordinate tuples (a new list)."""
        return list(zip(*[iter(self._flat)] * self.ring.f))

    def is_zero(self):
        """True when every tracked coefficient vanishes (window-relative)."""
        return self.lo == self.hi

    def coeff(self, e):
        if e < self.lo:
            return self.ring.zero
        if e >= self.hi:
            raise InsufficientWindow(f"exponent {e} is outside window [<{self.hi})")
        f = self.ring.f
        i = (e - self.lo) * f
        return tuple(self._flat[i:i + f])

    def terms(self):
        """The pairs (exponent, coordinate tuple) of the nonzero
        coefficients, lowest exponent first."""
        lo, f, flat = self.lo, self.ring.f, self._flat
        if f == 1:
            return ((lo + i, (v,)) for i, v in enumerate(flat) if v)
        zero = self.ring.zero
        return ((lo + i, c) for i, c in enumerate(zip(*[iter(flat)] * f))
                if c != zero)

    def unit_degree(self):
        """First exponent whose coefficient is a unit, with the exact pole.

        Raises InsufficientWindow when no unit appears in the window: the
        series may acquire a unit coefficient beyond hi, so neither a
        positive nor a negative answer is safe.
        """
        p, f = self.ring.p, self.ring.f
        for i, v in enumerate(self._flat):
            if v % p:
                return UnitDegree(d=self.lo + i // f, pole=self.lo)
        raise InsufficientWindow("no unit coefficient within the window")

    def key(self):
        """The series as a hashable value: two series over one ring are
        equal, window included, exactly when their keys are."""
        return self.lo, self.hi, tuple(self._flat)

    def in_lattice(self, m):
        """Decide membership in u^{-m} * (power series), i.e. lo >= -m."""
        if self.is_zero():
            if self.hi < -m:
                raise InsufficientWindow("window lies entirely below u^{-m}")
            return True
        return self.lo >= -m

    def agrees(self, other):
        """Coefficient-wise equality on the common window."""
        hi = min(self.hi, other.hi)
        lo = min(self.lo, other.lo)
        return hi <= lo or self.span(lo, hi) == other.span(lo, hi)

    def span(self, lo, hi):
        """The flat coordinates on the exponents [lo, hi), for
        hi <= self.hi: zeros below self.lo, and none when hi <= lo."""
        f = self.ring.f
        if hi <= lo:
            return []
        if lo >= self.lo:
            return self._flat[(lo - self.lo) * f:(hi - self.lo) * f]
        return ([0] * ((min(self.lo, hi) - lo) * f)
                + self._flat[:max(0, hi - self.lo) * f])

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return _add(self, other, False)

    def __sub__(self, other):
        return _add(self, other, True)

    def __neg__(self):
        q = self.ring.q
        return _series(self.ring, self.lo, self.hi,
                       [-v % q for v in self._flat])

    def __mul__(self, other):
        ring = self.ring
        hi = min(self.hi + other.lo, other.hi + self.lo)
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero(ring, hi)
        # two nonzero factors have lo < hi, so the window is not empty
        lo = self.lo + other.lo
        f = ring.f
        for x, y in ((self, other), (other, self)):
            if not any(islice(x._flat, f, None)):
                # x = c * u^lo(x): the product is y scaled by c
                c, ys = x._flat[:f], y._flat[:(hi - lo) * f]
                if c[0] != 1 or any(c[1:]):
                    ys = _scale(ring, c, ys)
                return _series(ring, lo, hi, ys)
        return _series(ring, lo, hi,
                       _convolve(ring, self._flat, other._flat, hi - lo,
                                 self._packed, other._packed))

    def scale(self, c):
        """Multiply by an exactly known ring constant; window unchanged."""
        ring = self.ring
        return _series(ring, self.lo, self.hi,
                       _scale(ring, _as_coords(ring, c), self._flat))

    def shift(self, k):
        """Multiply by u^k."""
        return _series(self.ring, self.lo + k, self.hi + k, self._flat)

    def truncate(self, hi):
        """Forget coefficients at and above hi (hi must not exceed self.hi)."""
        if hi > self.hi:
            raise InsufficientWindow("cannot extend a window by truncation")
        if hi <= self.lo:
            return LaurentSeries.zero(self.ring, hi)
        return _series(self.ring, self.lo, hi,
                       self._flat[:(hi - self.lo) * self.ring.f])

    def frob_coeffs(self, power=1):
        ring = self.ring
        if power % ring.f == 0:
            return self
        return _series(ring, self.lo, self.hi,
                       [v for c in self.coeffs for v in ring.frob(c, power)])

    def inv(self):
        """Inverse in the truncated Laurent ring.

        Requires a unit degree d within the window; all coefficients below
        d are then automatically nilpotent.  Computed by a geometric series
        against the leading unit term, on an internally padded window, then
        clamped to hi = min(x.hi, x.hi + 2 * lo(result)).  For a monomial
        c u^d that series is c^-1 u^-d alone, so the result is written
        down: c^-1 u^-d below u^min(x.hi, x.hi - 2d), the zero series
        there when that window is empty, and EmptyWindow when -d lies
        beyond the padded window, as the series would give.
        """
        ring = self.ring
        f = ring.f
        try:
            ud = self.unit_degree()
        except InsufficientWindow:
            raise NotAUnit("no unit coefficient within the window")
        d, pole = ud.d, ud.pole
        a = ring.a
        spread = d - pole
        pad = (a + 1) * (spread + 1) + 2
        work_hi = self.hi + pad
        cd_inv = ring.inv(self.coeff(d))
        if not any(islice(self._flat, f, None)):
            # x = c_d u^d: the sum below is c_d^{-1} u^{-d} alone, on
            # [-d, work_hi), clamped as the docstring says
            if -d > work_hi:
                raise EmptyWindow(f"window [{-d}, {work_hi}) is empty")
            hi = min(self.hi, self.hi - 2 * d)
            if hi <= -d:
                return LaurentSeries.zero(ring, hi)
            return _series(ring, -d, hi,
                           list(cd_inv) + [0] * ((hi + d - 1) * f))
        # m = c_d^{-1} u^{-d}; w = m*x - 1 has positive or nilpotent terms,
        # and the inverse of m*x is the geometric series sum (-w)^k
        neg_w = _scale(ring, ring.neg(cd_inv), self._flat)
        i = (d - self.lo) * f
        neg_w[i:i + f] = ring.zero
        w_lo, neg_w = _strip(f, self.lo - d, neg_w)
        kmax = work_hi + (a - 1) * (spread + 1) + 1
        res_lo, res = _power_sum(ring, w_lo, neg_w, work_hi, kmax,
                                 lambda k: 1)
        # shift by -d onto [lo, work_hi), lo the lowest nonzero term: cut
        # at work_hi or padded with zeros up to it (EmptyWindow when the
        # padded window ends below lo)
        lo = res_lo - d
        n = (work_hi - lo) * f
        out = _scale(ring, cd_inv, res)
        raw = _series(ring, lo, work_hi, (out + [0] * n)[:n])
        hi = min(self.hi, self.hi + 2 * raw.lo)
        return raw.truncate(hi)

    def to_json(self):
        f, flat = self.ring.f, self._flat
        return {"lo": self.lo, "hi": self.hi,
                "coeffs": [flat[i:i + f] for i in range(0, len(flat), f)]}

    @classmethod
    def from_json(cls, ring, data):
        q = ring.q
        return _series(ring, data["lo"], data["hi"],
                       [v % q for c in data["coeffs"] for v in c])

    def __repr__(self):
        parts = [f"{c}*u^{e}" for e, c in self.terms()]
        body = " + ".join(parts) if parts else "0"
        return f"<{body} mod u^{self.hi}>"


# makes a bare series, whose slots the constructors set themselves
_new = object.__new__


def _series(ring, lo, hi, flat):
    """The series with the flat coordinate list flat on [lo, hi), its exact
    leading zeros stripped; it takes flat over, so the caller must not
    change that list afterwards, and every int of flat must lie in
    [0, q)."""
    if hi < lo:
        raise EmptyWindow(f"window [{lo}, {hi}) is empty")
    if len(flat) != (hi - lo) * ring.f:
        raise ValueError("coefficient list does not match window")
    if flat and not flat[0]:
        # the zero series comes out with lo == hi
        lo, flat = _strip(ring.f, lo, flat)
    s = _new(LaurentSeries)
    s.ring = ring
    s.lo = lo
    s.hi = hi
    s._flat = flat
    # the store of the packings of flat by slot width
    s._packed = {}
    return s


def _as_coords(ring, c):
    """Canonical coordinates of an int or a coordinate tuple."""
    if isinstance(c, int):
        return ring.from_int(c)
    return tuple(v % ring.q for v in c)


def _add(x, y, sub):
    """x + y, or x - y when sub, built from the aligned coordinate slices.

    A zero addend known at least as far as the other one leaves it as it
    is, so the other series itself is the sum (series are values)."""
    if y.lo == y.hi >= x.hi:
        return x
    if x.lo == x.hi >= y.hi and not sub:
        return y
    ring = x.ring
    f, q = ring.f, ring.q
    hi = min(x.hi, y.hi)
    lo = min(x.lo, y.lo, hi)
    start = min(max(x.lo, y.lo), hi)
    # below start only the series with the lower order contributes
    if x.lo <= y.lo:
        head = x._flat[:(start - lo) * f]
    else:
        head = y._flat[:(start - lo) * f]
        if sub:
            head = [-v % q for v in head]
    body = _coeff_sum(q, x._flat[(start - x.lo) * f:(hi - x.lo) * f],
                      y._flat[(start - y.lo) * f:(hi - y.lo) * f], sub)
    return _series(ring, lo, hi, head + body)


def _coeff_sum(q, xs, ys, sub=False):
    """Coordinate-wise xs + ys (xs - ys when sub) mod q of two aligned
    flat lists."""
    if sub:
        return [(u - v) % q for u, v in zip(xs, ys)]
    return [(u + v) % q for u, v in zip(xs, ys)]


def _scale(ring, c, flat):
    """The flat list times the ring constant c, given by canonical
    coordinates: one pass over the ints when c is an integer (always at
    f = 1), else a product with the length-1 series c."""
    if not any(c[1:]):
        c0, q = c[0], ring.q
        return [c0 * v % q for v in flat]
    return _convolve(ring, list(c), flat, len(flat) // ring.f, {}, {})


def _convolve(ring, xs, ys, n, xkept, ykept):
    """First n coefficients of the product of two flat coordinate lists,
    as a flat list of n * f coordinates.

    Kronecker substitution: both lists are packed into one big int each,
    with every coordinate in a byte-aligned slot, and a single int
    product does the whole convolution.  A slot of the product sums at
    most min(len(xs), len(ys)) products of canonical coordinates (the
    lengths count coordinates, f per coefficient, up to the first n
    coefficients), so it stays below min(len(xs), len(ys)) * (q-1)^2 and
    never carries into its neighbour.  For f > 1 the coordinates of one
    coefficient are spread to stride 2f - 1, so the coordinate products
    x^k * x^l with k + l <= 2f - 2 land in slots of their own; the
    columns for x^f ... x^(2f-2) are then folded back through the
    modulus rows.

    xkept and ykept are stores for the packings of the whole lists xs
    and ys: a series' `_packed` store, or a new `{}` for a list of one
    call.  A list is packed at most once per slot width, and its first n
    coefficients are cut from that packing by a mask.
    """
    square = xs is ys
    f = ring.f
    m = n * f
    lx, ly = min(len(xs), m), min(len(ys), m)
    if n <= 0 or not lx or not ly:
        return [0] * (max(n, 0) * f)
    stride = 2 * f - 1
    nb = _slot_width(ring, min(lx, ly))
    size = max(n, (lx + ly) // f - 1) * stride * nb
    X = _packed(ring, xs, n, nb, xkept)
    Y = X if square else _packed(ring, ys, n, nb, ykept)
    buf = (X * Y).to_bytes(size, "little")[:n * stride * nb]
    return _product_coeffs(ring, buf, nb)


def _slot_width(ring, products):
    """The slot width in bytes for slots that each sum at most `products`
    products of canonical coordinates, so at most products * (q-1)^2: the
    least whole number of bytes, rounded up to a machine word of 1, 2, 4
    or 8 bytes so that array does the packing and unpacking in C."""
    nb = ((products * (ring.q - 1) ** 2).bit_length() + 7) // 8
    return 1 << (nb - 1).bit_length() if nb <= 8 else nb


def _product_coeffs(ring, buf, nb):
    """The flat coordinate list held by the product slots of buf, nb bytes
    each, every coefficient in 2f - 1 slots, each coordinate reduced mod q.

    At f = 1 that is `_reduced_slots`.  For f > 1 slot k of a coefficient
    holds its coordinate x^k; the columns for x^f ... x^(2f-2) are folded
    back through the modulus rows."""
    f, q = ring.f, ring.q
    if f == 1:
        return _reduced_slots(buf, nb, q)
    stride = 2 * f - 1
    slots = _unpack(buf, nb)
    # column k holds coordinate x^k of every output coefficient
    cols = [slots[k::stride] for k in range(stride)]
    out = [0] * (len(slots) // stride * f)
    for k in range(f):
        col = cols[k]
        for row, high in zip(ring._red, cols[f:]):
            r = row[k]
            if r:
                col = [s + r * t for s, t in zip(col, high)]
        out[k::f] = [s % q for s in col]
    return out


def _packed(ring, flat, n, nb, kept):
    """The first n coefficients of the flat list packed at slot width nb,
    spread to stride 2f - 1 when f > 1: cut by a mask from the packing of
    the whole list in the store kept, built there on first use."""
    f = ring.f
    X = kept.get(nb)
    if X is None:
        X = kept[nb] = _pack(_spread(flat, f) if f > 1 else flat, nb)
    if len(flat) > n * f:
        X &= (1 << (n * (2 * f - 1) * nb * 8)) - 1
    return X


def _reduced_slots(buf, nb, q):
    """The little-endian nb-byte slots of buf, each reduced mod q.

    When nb * (q-1) <= 255 this runs through byte tables, in C: byte k of
    every slot is mapped to its residue b * 256^k mod q by one translate,
    the nb translated strings are summed as ints (each byte of the sum is
    at most nb * (q-1), so no byte carries into the next), and the sum is
    reduced by one more translate."""
    if nb * (q - 1) > 255:
        return [s % q for s in _unpack(buf, nb)]
    tables = _BYTE_TABLES.get((q, nb))
    if tables is None:
        tables = _BYTE_TABLES[q, nb] = [
            bytes(b * pow(256, k, q) % q for b in range(256))
            for k in range(nb)]
    total = k = 0
    for table in tables:
        total += int.from_bytes(buf[k::nb].translate(table), "little")
        k += 1
    return list(total.to_bytes(len(buf) // nb, "little").translate(tables[0]))


def _spread(flat, f):
    """flat with the f coordinates of each coefficient followed by f - 1
    zero slots, so at stride 2f - 1."""
    stride = 2 * f - 1
    buf = [0] * (len(flat) // f * stride)
    for k in range(f):
        buf[k::stride] = flat[k::f]
    return buf


# array typecode for each machine-word slot width in bytes, narrowest first
_WORD_CODES = {array(c).itemsize: c for c in "BHIQ"}
_BIG_ENDIAN = sys.byteorder == "big"
# (q, nb) -> the byte tables of `_reduced_slots`, filled on first use
_BYTE_TABLES = {}


def _check_reduced(flat, q):
    """Raise unless every int of flat lies in [0, q): PhigammaError for
    one of q or more, OverflowError for a negative one."""
    if not flat:
        return
    top = max(flat)
    if top >= q:
        raise PhigammaError(f"coordinate {top} is not reduced mod {q}")
    if min(flat) < 0:
        raise OverflowError(f"coordinate {min(flat)} is negative")


def _pack(flat, nb):
    """One int holding the ints of flat, nb bytes each, little-endian;
    each int must lie in [0, q), or it would overflow its slot into the
    next one or could not be packed unsigned."""
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


def _strip(f, lo, flat):
    """Drop the leading zero coefficients of the flat list at order lo."""
    for i, v in enumerate(flat):
        if v:
            k = i // f
            return lo + k, flat[k * f:] if k else flat
    return lo + len(flat) // f, []


def _power_sum(ring, h_lo, hs, hi, kmax, coeff):
    """sum coeff(k) h^k over 0 <= k <= kmax, below u^hi, as the pair (lo,
    flat list) with lo its lowest nonzero exponent; h is the flat list hs
    at order h_lo, and coeff(0) is taken to be 1.

    The running power h^k is one product with h per step, cut at hi; the
    sum stops early once that power is zero below hi.  The packing of hs
    is kept for the whole loop.  When h is one term c u^h_lo, h^k is the
    one term c^k u^(k h_lo), and the step is the coefficient product
    c^(k-1) * c, with the same stops: at c^k = 0 or at k h_lo >= hi."""
    f, q = ring.f, ring.q
    kept = {}
    c = None if any(islice(hs, f, None)) else hs[:f]
    acc_lo, acc = 0, list(ring.one)
    res_lo, res = 0, list(ring.one) + [0] * ((hi - 1) * f)
    for k in range(1, kmax + 1):
        lo = acc_lo + h_lo
        if c is None:
            acc = _convolve(ring, acc, hs, hi - lo, {}, kept)
        else:
            acc = list(ring.mul(acc, c)) if lo < hi else []
        acc_lo, acc = _strip(f, lo, acc)
        if not acc:
            break
        b = coeff(k) % q
        if b == 0:
            continue
        term = acc if b == 1 else _scale(ring, ring.from_int(b), acc)
        # res reaches hi; it is extended downwards when the term starts lower
        if acc_lo < res_lo:
            res = [0] * ((res_lo - acc_lo) * f) + res
            res_lo = acc_lo
        i = (acc_lo - res_lo) * f
        res[i:i + len(term)] = _coeff_sum(q, res[i:i + len(term)], term)
    return _strip(f, res_lo, res)


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
    p, a, q, f = ring.p, ring.a, ring.q, ring.f
    if e < 1 or math.gcd(e, p) != 1:
        raise BadIndex(f"root index {e} is not prime to p = {p}")
    if not ring.is_nilpotent(ring.sub(w.coeff(0), ring.one)):
        raise NotPrincipalForm("constant term is not 1 + nilpotent")
    hs = list(w._flat)
    hs[-w.lo * f] = (hs[-w.lo * f] - 1) % q
    m = 0
    for exp in range(w.lo, 1):
        i = (exp - w.lo) * f
        c = hs[i:i + f]
        if not any(c):
            continue
        if any(v % p for v in c):
            raise NotPrincipalForm(
                f"term at exponent {exp} has a unit coefficient")
        m = max(m, -exp)
    h_lo, hs = _strip(f, w.lo, hs)
    if not hs:
        return LaurentSeries.constant(ring, 1, w.hi)
    pad = (a + 1) * (m + 2) + 2
    work_hi = w.hi + pad
    kmax = work_hi + (a - 1) * (m + 1) + 1
    # integer stand-in for 1/e, accurate enough for all binomials used
    vK = _legendre_val_factorial(kmax, p)
    c_int = pow(e, -1, p ** (a + vK))
    res_lo, res = _power_sum(ring, h_lo, hs, work_hi, kmax,
                             lambda k: math.comb(c_int, k))
    raw = _series(ring, res_lo, work_hi, res)
    winv = w.inv()
    hi = min(w.hi, w.hi + raw.lo + winv.lo)
    return raw.truncate(hi)


def _legendre_val_factorial(k, p):
    v, pk = 0, p
    while pk <= k:
        v += k // pk
        pk *= p
    return v


def compose(f, g, powers_cache):
    """Substitute g into f: sum of c_n * g^n over the window of f.

    Requires unit degree d(g) >= 1 (Divergent otherwise); negative
    exponents of f additionally require g invertible, which d(g) >= 1
    guarantees.  Powers of g are formed by `_power` and kept in
    powers_cache, keyed by exponent, each with the documented mul
    windows, in the order of the terms of f, so the first power that
    raises decides the exception.  The result is known below hi, the
    least hi(g^n) over the terms of f, further capped by the tail guard
    described in the module docstring.

    The sum itself is one packed sum (`_packed_sum`): each power g^n is
    packed below hi through its store, so a power packed at that slot
    width before is only masked, and multiplied by the packed
    coordinates of c_n.  A slot sums at most ring.f coordinate products
    per term, so the slot width is chosen for T * ring.f * (q-1)^2 over
    T terms: no slot carries.
    """
    ring = f.ring
    try:
        d = g.unit_degree().d
    except InsufficientWindow:
        raise NotAUnit("substitution target has no visible unit coefficient")
    if d < 1:
        raise Divergent(f"substitution target has unit degree {d} < 1")
    hi = d * f.hi - (ring.a - 1) * max(0, d - g.lo)
    terms = []
    for n, c in f.terms():
        gn = _power(g, n, powers_cache)
        if gn.hi < hi:
            hi = gn.hi
        terms.append((c, gn))
    # a power that starts at or above hi adds nothing below it
    terms = [(c, gn) for c, gn in terms if gn.lo < hi]
    if not terms:
        return LaurentSeries.zero(ring, hi)
    k = ring.f
    nb = _slot_width(ring, len(terms) * k)
    # at f = 1 the packed coefficient is its one coordinate
    return _packed_sum(ring, [
        (gn.lo, (c[0] if k == 1 else _pack(c, nb)) *
         _packed(ring, gn._flat, hi - gn.lo, nb, gn._packed))
        for c, gn in terms], hi, nb)


def _dot(xs, ys):
    """The sum of the products x * y over the pairs of xs and ys: the
    value and window of the chain x_0*y_0 + x_1*y_1 + ... of series
    products and sums.

    The window is the least product window, zero products included.  One
    product alone nonzero below the window is the sum, cut to the window,
    so a monomial factor keeps its shortcut.  Otherwise each product is
    one int product of its factors' kept packings, cut to the window, at
    a slot width for the coordinate products of all terms, and
    `_packed_sum` adds them.
    """
    hi = min([min(x.hi + y.lo, y.hi + x.lo) for x, y in zip(xs, ys)])
    live = []
    for x, y in zip(xs, ys):
        if x.lo < x.hi and y.lo < y.hi and x.lo + y.lo < hi:
            live.append((x.lo + y.lo, x, y))
    if len(live) == 1:
        xy = live[0][1] * live[0][2]
        return xy if xy.hi == hi else xy.truncate(hi)
    ring = xs[0].ring
    if not live:
        return LaurentSeries.zero(ring, hi)
    nb = _slot_width(ring, sum([min(len(x._flat), len(y._flat),
                                    (hi - lo) * ring.f) for lo, x, y in live]))
    return _packed_sum(ring, [
        (lo, _packed(ring, x._flat, hi - lo, nb, x._packed) *
         _packed(ring, y._flat, hi - lo, nb, y._packed))
        for lo, x, y in live], hi, nb)


def _packed_sum(ring, packed, hi, nb):
    """The series below u^hi that sums the packed products of `packed`:
    pairs (lo, P), P in the kernel's slots (nb bytes each, 2f - 1 per
    coefficient) from u^lo on.  Each P is shifted up to its lo, the sum
    is masked at hi and its slots are reduced once; the caller picks nb
    so that no slot of the sum carries."""
    lo = min([at for at, _ in packed])
    bits = (2 * ring.f - 1) * nb * 8
    total = 0
    for at, P in packed:
        total += P << (at - lo) * bits
    size = (hi - lo) * bits
    buf = (total & ((1 << size) - 1)).to_bytes(size // 8, "little")
    return _series(ring, lo, hi, _product_coeffs(ring, buf, nb))


def _power(g, n, cache):
    """g^n for any integer n, by binary powering on |n| with memoization
    in cache, keyed by n; g^-1 is g.inv(), so a negative n powers the
    inverse of g, and g^0 is 1 on the window of g.

    An even power is the square of the half power, and an odd power
    g^(2k+1) is g^(2k) * g: the chain (g^k)^2 * g of binary powering, so
    the same products in the same order, with the square g^(2k) kept in
    cache too.  A run of consecutive powers then costs one product per
    power."""
    if n in cache:
        return cache[n]
    if n == 0:
        val = LaurentSeries.constant(g.ring, 1, g.hi)
    elif n == 1:
        val = g
    elif n == -1:
        val = g.inv()
    elif n % 2:
        sign = 1 if n > 0 else -1
        val = _power(g, n - sign, cache) * _power(g, sign, cache)
    else:
        half = _power(g, n // 2, cache)
        val = half * half
    cache[n] = val
    return val
