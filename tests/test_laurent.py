"""Tests for precision-tracked Laurent series arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phigamma import laurent
from phigamma.cli import TASKS, run_config
from phigamma.errors import (BadIndex, Divergent, EmptyWindow,
                             InsufficientWindow, NotAUnit, NotPrincipalForm,
                             PhigammaError)
from phigamma.galois_ring import make_ring
from phigamma.laurent import (LaurentSeries, _convolve, _power,
                              _reduced_slots, _slot_width, compose,
                              eth_root_one_unit)

from tails import sound, with_tail

seeds = st.integers(0, 10**9)

R9 = make_ring(3, 2, 1)
R3 = make_ring(3, 1, 1)
W = 24


def S(terms, hi=W, ring=R9):
    return LaurentSeries.from_terms(ring, terms, hi)


def rand_series(rng, ring, hi=W, lo_min=-3, max_terms=6):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        e = rng.randrange(lo_min, hi // 2)
        terms[e] = ring.random(rng)
    return LaurentSeries.from_terms(ring, terms, hi)


def rand_unit_series(rng, ring, hi=W):
    d = rng.randrange(0, 3)
    terms = {d: ring.random_unit(rng)}
    for _ in range(rng.randrange(4)):
        terms[rng.randrange(d + 1, hi // 2)] = ring.random(rng)
    # nilpotent decoration below the unit degree
    if ring.a > 1 and rng.random() < 0.5:
        terms[d - 1 - rng.randrange(2)] = ring.smul(ring.p, ring.random(rng))
    return LaurentSeries.from_terms(ring, terms, hi)


class TestBasics:
    def test_normalization(self):
        x = LaurentSeries(R9, -2, 5, [R9.zero, R9.zero, R9.from_int(1),
                                      R9.zero, R9.zero, R9.zero, R9.zero])
        assert x.lo == 0 and x.hi == 5

    def test_zero_window(self):
        z = S({})
        assert z.is_zero() and z.lo == z.hi == W

    def test_add_identity(self):
        x = S({-1: 3, 2: 5})
        assert (x + S({})).agrees(x)

    def test_mul_monomials(self):
        x = S({-1: 1}) + S({0: 1})
        u = S({1: 1})
        out = x * u
        assert out.coeff(0) == R9.one and out.coeff(2) == R9.zero
        assert out.coeff(1) == R9.one

    def test_square_with_nilpotent_pole(self):
        # (u + 3u^-1)^2 = u^2 + 6 + 9u^-2 = u^2 + 6 over Z/9
        s = S({1: 1, -1: 3})
        sq = s * s
        assert sq.lo == 0
        assert sq.coeff(0) == (6,)
        assert sq.coeff(2) == (1,)
        assert sq.coeff(1) == R9.zero

    def test_mul_window_rule(self):
        x = S({-1: 3, 1: 1}, hi=10)
        y = S({2: 1}, hi=15)
        assert (x * y).hi == min(10 + 2, 15 + (-1))

    def test_add_window_rule(self):
        x = S({0: 1}, hi=10)
        y = S({0: 1}, hi=7)
        assert (x + y).hi == 7


class TestInv:
    def test_inv_monomial(self):
        u = S({1: 1})
        iu = u.inv()
        assert iu.lo == -1 and iu.coeff(-1) == R9.one
        assert (iu * u).agrees(S({0: 1}))

    def test_inv_nilpotent_pole(self):
        # inv(1 + 3u^-1) = 1 - 3u^-1 over Z/9
        x = S({0: 1, -1: 3})
        y = x.inv()
        assert y.coeff(0) == (1,) and y.coeff(-1) == (6,)
        assert (x * y).agrees(S({0: 1}))

    def test_inv_geometric(self):
        x = S({0: 1, 1: 1})
        y = x.inv()
        for k in range(0, 10):
            assert y.coeff(k) == ((-1) ** k % 9,)
        assert (x * y).agrees(S({0: 1}))

    def test_inv_requires_unit(self):
        with pytest.raises(NotAUnit):
            S({1: 3, 2: 6}).inv()
        with pytest.raises(NotAUnit):
            S({}).inv()

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_inv_round_trip_random(self, seed):
        rng = random.Random(seed)
        for ring in (R9, R3, make_ring(2, 2, 1)):
            x = rand_unit_series(rng, ring)
            y = x.inv()
            prod = x * y
            assert prod.coeff(0) == ring.one
            assert all(ring.is_zero(c) for e, c in prod.terms() if e != 0)


class TestCompose:
    def test_identity_substitution(self):
        f = S({-2: 4, 0: 1, 3: 7})
        u = S({1: 1})
        assert compose(f, u, {}).agrees(f)

    def test_intro_example(self):
        # compose(u^2, u^3 + 3u^-1) = u^6 + 6u^2 over Z/9
        f = S({2: 1})
        g = S({3: 1, -1: 3})
        out = compose(f, g, {})
        assert out.coeff(6) == (1,)
        assert out.coeff(2) == (6,)
        assert sum(1 for _ in out.terms()) == 2

    def test_negative_power(self):
        # compose(u^-1, 4u) = 7u^-1 over Z/9
        f = S({-1: 1})
        g = S({1: 4})
        out = compose(f, g, {})
        assert out.coeff(-1) == (7,)
        assert sum(1 for _ in out.terms()) == 1

    def test_divergent(self):
        f = S({2: 1})
        with pytest.raises(Divergent):
            compose(f, S({0: 1, 1: 1}), {})
        with pytest.raises(NotAUnit):
            compose(f, S({1: 3}), {})

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_associativity(self, seed):
        rng = random.Random(seed)
        f = rand_series(rng, R9)
        g = S({1: R9.random_unit(rng), 2: R9.random(rng)})
        h = S({1: R9.random_unit(rng), 3: R9.random(rng)})
        left = compose(compose(f, g, {}), h, {})
        right = compose(f, compose(g, h, {}), {})
        assert left.agrees(right)


class TestEthRoot:
    def test_root_of_one(self):
        r = eth_root_one_unit(S({0: 1}), 4)
        assert r.agrees(S({0: 1}))

    def test_mod3_binomial(self):
        w = LaurentSeries.from_terms(R3, {0: 1, 1: 1}, 12)
        r = eth_root_one_unit(w, 2)
        # C(1/2, k) mod 3 begins 1, 2, 1, ...
        assert r.coeff(0) == (1,) and r.coeff(1) == (2,) and r.coeff(2) == (1,)
        assert (r * r).agrees(w)

    def test_mod9_nilpotent(self):
        w = S({0: 1, 1: 3})
        r = eth_root_one_unit(w, 2)
        assert r.coeff(0) == (1,) and r.coeff(1) == (6,)
        assert (r * r).agrees(w)

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            eth_root_one_unit(S({0: 1, 1: 1}), 3)

    def test_not_principal(self):
        with pytest.raises(NotPrincipalForm):
            eth_root_one_unit(S({0: 2, 1: 1}), 2)
        with pytest.raises(NotPrincipalForm):
            eth_root_one_unit(S({0: 1, -1: 1}), 2)

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_round_trip_random(self, seed):
        rng = random.Random(seed)
        ring = (R9, R3, make_ring(2, 2, 1))[rng.randrange(3)]
        e = (1, 3, 5)[rng.randrange(3)] if ring.p == 2 else (1, 2, 4)[rng.randrange(3)]
        terms = {0: 1}
        for _ in range(rng.randrange(4)):
            terms[rng.randrange(1, 8)] = ring.random(rng)
        if ring.a > 1:
            terms[-rng.randrange(1, 3)] = ring.smul(ring.p, ring.random(rng))
        w = LaurentSeries.from_terms(ring, terms, W)
        r = eth_root_one_unit(w, e)
        rk = LaurentSeries.constant(ring, 1, W)
        for _ in range(e):
            rk = rk * r
        assert rk.agrees(w)


class TestMembership:
    def test_lattice(self):
        assert S({-2: 1}).in_lattice(2)
        assert not S({-3: 1}).in_lattice(2)
        assert S({0: 1}).in_lattice(0)
        assert not S({-1: 3}).in_lattice(0)

    def test_unit_degree(self):
        ud = S({-1: 3, 2: 1}).unit_degree()
        assert ud.d == 2 and ud.pole == -1

    def test_unit_degree_insufficient(self):
        with pytest.raises(InsufficientWindow):
            S({1: 3}).unit_degree()

    def test_zero_window_below_threshold(self):
        z = LaurentSeries.zero(R9, -5)
        with pytest.raises(InsufficientWindow):
            z.in_lattice(2)


class TestWindowSoundness:
    """Recomputing at a strictly larger window agrees on the smaller one."""

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_ops(self, seed):
        rng = random.Random(seed)
        big = W + 13
        xt = {rng.randrange(-3, 10): R9.random(rng) for _ in range(5)}
        yt = {rng.randrange(-3, 10): R9.random(rng) for _ in range(5)}
        x, xb = S(xt), S(xt, hi=big)
        y, yb = S(yt), S(yt, hi=big)
        for small, large in [(x + y, xb + yb), (x * y, xb * yb)]:
            assert large.hi >= small.hi
            assert large.truncate(small.hi).agrees(small)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_inv_compose(self, seed):
        rng = random.Random(seed)
        big = W + 11
        x = rand_unit_series(rng, R9)
        xb = rand_unit_series(rng, R9, hi=big)
        # rebuild x from xb's terms at the smaller window so they match
        x = LaurentSeries.from_terms(R9, dict(xb.terms()), W)
        small, large = x.inv(), xb.inv()
        assert large.hi >= small.hi
        assert large.truncate(small.hi).agrees(small)
        f = S({2: 1, 0: 5, -1: 3})
        fb = S({2: 1, 0: 5, -1: 3}, hi=big)
        gt = {1: R9.random_unit(rng), 3: R9.random(rng)}
        small, large = compose(f, S(gt), {}), compose(fb, S(gt, hi=big), {})
        assert large.hi >= small.hi
        assert large.truncate(small.hi).agrees(small)


def test_json_round_trip():
    x = S({-2: 3, 0: 1, 5: 7})
    y = LaurentSeries.from_json(R9, x.to_json())
    assert y.lo == x.lo and y.hi == x.hi and y.agrees(x)


# -- the series kernel against a plain-int schoolbook reference -------------
#
# The reference below uses the ring only for its data (p, a, f, q and the
# modulus coefficients) and does all arithmetic on plain ints, so it
# shares no code with the Kronecker-substitution kernel it checks.

KERNEL_RINGS = [make_ring(p, a, f) for p, a, f in [
    (2, 1, 1), (3, 1, 3), (5, 1, 2), (3, 2, 1), (3, 2, 2), (5, 2, 3),
    (2, 2, 3), (3, 21, 1), (3, 21, 2), (2, 64, 1), (5, 21, 3), (2, 64, 2)]]
# inv and eth_root pad their window by about (a + 1) times the pole depth,
# so at a = 64 and f = 2 one example costs half a second; leave it to the
# product tests
ROOT_RINGS = KERNEL_RINGS[:-1]
# f = 1 rings on both sides of the byte-table bound nb * (q-1) <= 255 of
# the slot reduction: at q = 128 a product with a factor of at most 4
# coefficients has 2-byte slots and goes through the tables; at q = 243
# no slot width does, so every slot is reduced by % q
THRESHOLD_RINGS = [make_ring(2, 7, 1), make_ring(3, 5, 1)]


def ref_elem_mul(ring, x, y):
    f, q, m = ring.f, ring.q, ring.modulus
    raw = [0] * (2 * f - 1)
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            raw[i + j] += u * v
    # x^k = -x^(k-f) * (m_0 + ... + m_{f-1} x^{f-1}), top degree first
    for k in range(2 * f - 2, f - 1, -1):
        c, raw[k] = raw[k], 0
        for i in range(f):
            raw[k - f + i] -= c * m[i]
    return tuple(v % q for v in raw[:f])


def ref_elem_inv(ring, c):
    """c^-1 as c^(order-1): the unit group of GR(p^a, f) has order
    p^((a-1)f) * (p^f - 1)."""
    order = ring.p ** ((ring.a - 1) * ring.f) * (ring.p ** ring.f - 1)
    acc, base, n = (1,) + (0,) * (ring.f - 1), c, order - 1
    while n:
        if n & 1:
            acc = ref_elem_mul(ring, acc, base)
        base = ref_elem_mul(ring, base, base)
        n >>= 1
    return acc


def ref_nonzero(c):
    return any(c)


def ref_unit(ring, c):
    return any(v % ring.p for v in c)


def ref_window(ring, lo, hi, terms):
    """(lo, hi, coeffs) of {exp: coords} on [lo, hi), normalized."""
    zero = (0,) * ring.f
    exps = [e for e, c in terms.items() if lo <= e < hi and ref_nonzero(c)]
    if not exps:
        return (hi, hi, [])
    lo = min(exps)
    return (lo, hi, [tuple(terms.get(e, zero)) for e in range(lo, hi)])


def flat(cs):
    return [v for c in cs for v in c]


def got(s):
    return (s.lo, s.hi, [tuple(c) for c in s.coeffs])


def terms_of(s):
    return {s.lo + i: c for i, c in enumerate(s.coeffs)}


def ref_sparse_mul(ring, x, y, hi):
    """Product of {exp: coords} dicts, dropping exponents >= hi."""
    out = {}
    for ex, cx in x.items():
        for ey, cy in y.items():
            if ex + ey < hi:
                v = ref_elem_mul(ring, cx, cy)
                prev = out.get(ex + ey, (0,) * ring.f)
                out[ex + ey] = tuple((s + t) % ring.q for s, t in zip(prev, v))
    return {e: c for e, c in out.items() if ref_nonzero(c)}


def ref_mul(x, y):
    ring = x.ring
    hi = min(x.hi + y.lo, y.hi + x.lo)
    if x.is_zero() or y.is_zero():
        return (hi, hi, [])
    lo = x.lo + y.lo
    if hi <= lo:
        return "EmptyWindow"
    return ref_window(ring, lo, hi, ref_sparse_mul(ring, terms_of(x),
                                                   terms_of(y), hi))


def ref_add(x, y, sign=1):
    ring = x.ring
    hi = min(x.hi, y.hi)
    lo = min(x.lo, y.lo, hi)
    zero = (0,) * ring.f
    tx, ty = terms_of(x), terms_of(y)
    return ref_window(ring, lo, hi, {
        e: tuple((s + sign * t) % ring.q for s, t in
                 zip(tx.get(e, zero), ty.get(e, zero)))
        for e in range(lo, hi)})


def ref_series_sum(ring, h, coeff, target):
    """sum_k coeff(k) h^k below u^target, for h whose terms of exponent
    <= 0 are nilpotent.  A nonzero product of k factors of h has at most
    a-1 nilpotent ones, so its exponent is at least k - (a-1)(m+1); and a
    term dropped at the working bound H is lowered by at most (a-1)m
    afterwards.  Truncating at H = target + (a-1)m is therefore exact
    below target, and the powers of h vanish eventually."""
    a = ring.a
    m = max([0] + [-e for e in h if e <= 0])
    H = target + (a - 1) * m
    one = (1,) + (0,) * (ring.f - 1)
    acc, res, k = {0: one}, {0: one}, 0
    while acc:
        k += 1
        acc = ref_sparse_mul(ring, acc, h, H)
        b = coeff(k) % ring.q
        for e, c in acc.items():
            prev = res.get(e, (0,) * ring.f)
            res[e] = tuple((s + b * t) % ring.q for s, t in zip(prev, c))
    return {e: c for e, c in res.items() if e < target and ref_nonzero(c)}


def ref_inv_terms(x):
    """The exact inverse of x (zero above its window) below u^x.hi, and at
    least down to its order -d, where its coefficient is a unit."""
    ring = x.ring
    tx = {e: c for e, c in terms_of(x).items() if ref_nonzero(c)}
    d = min(e for e, c in tx.items() if ref_unit(ring, c))
    cinv = ref_elem_inv(ring, tx[d])
    w = {e - d: ref_elem_mul(ring, cinv, c) for e, c in tx.items() if e != d}
    s = ref_series_sum(ring, w, lambda k: (-1) ** k, max(x.hi + d, 1))
    return {e - d: ref_elem_mul(ring, cinv, c) for e, c in s.items()}


def ref_inv(x):
    ring = x.ring
    if not any(ref_unit(ring, c) for c in x.coeffs):
        return "NotAUnit"
    terms = ref_inv_terms(x)
    lo = min(terms)
    return ref_window(ring, lo, min(x.hi, x.hi + 2 * lo), terms)


def ref_binomials(e, q):
    """k -> C(1/e, k) mod q, a p-integral rational since p does not divide
    e; each value is built from the one before it."""
    bs = [Fraction(1)]

    def binomial(k):
        while len(bs) <= k:
            j = len(bs)
            bs.append(bs[-1] * (Fraction(1, e) - (j - 1)) / j)
        return bs[k].numerator * pow(bs[k].denominator, -1, q)
    return binomial


def ref_root(w, e):
    ring = w.ring
    h = {k: c for k, c in terms_of(w).items() if ref_nonzero(c)}
    h[0] = tuple((v - (i == 0)) % ring.q for i, v in
                 enumerate(h.get(0, (0,) * ring.f)))
    h = {k: c for k, c in h.items() if ref_nonzero(c)}
    terms = ref_series_sum(ring, h, ref_binomials(e, ring.q), w.hi)
    lo = min(terms)
    winv_lo = ref_inv(w)[0]  # the order of the windowed inverse
    return ref_window(ring, lo, min(w.hi, w.hi + lo + winv_lo), terms)


def kernel_series(rng, ring, hi, kind, lo_min=-4):
    """A random series of the given kind on the window [lo, hi)."""
    lo = rng.randrange(lo_min, min(hi, 3))
    terms = {}
    if kind == "zero":
        pass
    elif kind == "sparse":
        for _ in range(rng.randrange(1, 5)):
            terms[rng.randrange(lo, hi)] = ring.random(rng)
    elif kind == "units":
        for e in range(lo, hi):
            terms[e] = ring.random_unit(rng)
    elif kind == "dense":
        for e in range(lo, hi):
            terms[e] = ring.random(rng)
    elif kind == "nilpotent-pole":
        d = rng.randrange(max(lo, 0), min(hi, 3))
        terms[d] = ring.random_unit(rng)
        for e in range(lo, d):
            terms[e] = ring.smul(ring.p, ring.random(rng))
        for e in range(d + 1, hi):
            if rng.random() < 0.5:
                terms[e] = ring.random(rng)
    return LaurentSeries.from_terms(ring, terms, hi)


KINDS = ("zero", "sparse", "units", "dense", "nilpotent-pole")


def outcome(fn):
    try:
        return got(fn())
    except (EmptyWindow, NotAUnit) as exc:
        return type(exc).__name__


# compose sums its terms c_n g^n in one packed sum; the reference adds
# them one at a time with the series' own +, scale and powers, which the
# tests above check, under compose's window rule and errors
COMPOSE_RINGS = [make_ring(p, a, f) for p, a, f in [
    (3, 2, 1), (3, 2, 2), (5, 2, 3), (2, 3, 2), (2, 64, 1)]]


def ref_compose(f, g):
    ring = f.ring
    try:
        d = g.unit_degree().d
    except InsufficientWindow:
        raise NotAUnit("substitution target has no visible unit coefficient")
    if d < 1:
        raise Divergent(f"substitution target has unit degree {d} < 1")
    cache = {}
    out = LaurentSeries.zero(ring, d * f.hi - (ring.a - 1) * max(0, d - g.lo))
    for n, c in f.terms():
        out = out + _power(g, n, cache).scale(c)
    return out


def ref_power(g, n):
    """g^n the way powers were formed before `_power` took a signed n:
    g.inv() first when n < 0, then binary powering on |n| of that base,
    with its own memo."""
    base = g if n >= 0 else g.inv()
    cache = {}

    def power(k):
        if k not in cache:
            if k == 0:
                cache[k] = LaurentSeries.constant(base.ring, 1, base.hi)
            elif k == 1:
                cache[k] = base
            else:
                half = power(k // 2)
                val = half * half
                cache[k] = val * base if k % 2 else val
        return cache[k]
    return power(abs(n))


def compose_outcome(fn):
    """(lo, hi, flat) of the result, or the class and message raised."""
    try:
        return fn().key()
    except PhigammaError as exc:
        return type(exc).__name__, str(exc)


def compose_target(rng, ring):
    """g with a unit at degree d (d = 0 at times, which diverges, and at
    times no unit at all), random terms above d and at times a nilpotent
    term below it, a pole included."""
    d = rng.choice((0, 1, 1, 2, 3))
    hi = rng.randrange(d + 1, 14)
    unit = rng.random() < 0.9
    terms = {d: ring.random_unit(rng) if unit else
             ring.smul(ring.p, ring.random(rng))}
    for _ in range(rng.randrange(4)):
        terms[rng.randrange(d + 1, hi + 1)] = ring.random(rng)
    if rng.random() < 0.5:
        terms[rng.randrange(-2, d)] = ring.smul(ring.p, ring.random(rng))
    return LaurentSeries.from_terms(ring, terms, hi)


def one_term(rng, ring):
    """(d, j, c): a degree d in [0, 3), an offset j in 1..12, or in -3..-1
    when the ring has nilpotents, and a nonzero c, nilpotent when j < 0."""
    d = rng.randrange(3)
    j = rng.choice([k for k in range(-3 if ring.a > 1 else 1, 13) if k])
    if j < 0 or (ring.a > 1 and rng.random() < 0.3):
        return d, j, ring.smul(ring.p, ring.random_unit(rng))
    return d, j, ring.random_unit(rng)


def kernel_tripwire(*args):
    raise AssertionError("a one-term power sum reached the product kernel")


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_add_sub_mul(self, seed):
        rng = random.Random(seed)
        for ring in KERNEL_RINGS:
            x = kernel_series(rng, ring, rng.randrange(1, 40),
                              rng.choice(KINDS))
            y = kernel_series(rng, ring, rng.randrange(1, 40),
                              rng.choice(KINDS))
            assert got(x + y) == ref_add(x, y)
            assert got(x - y) == ref_add(x, y, -1)
            assert outcome(lambda: x * y) == ref_mul(x, y)
            assert outcome(lambda: x * x) == ref_mul(x, x)

    @settings(max_examples=4, deadline=None)
    @given(seeds)
    def test_wide_windows(self, seed):
        rng = random.Random(seed)
        for (p, a, f), hi in [((3, 2, 1), 600), ((3, 2, 2), 200),
                              ((2, 64, 1), 300)]:
            ring = make_ring(p, a, f)
            x = kernel_series(rng, ring, hi, rng.choice(("units", "dense")))
            y = kernel_series(rng, ring, hi - rng.randrange(50),
                              rng.choice(("units", "dense", "sparse")))
            assert got(x * y) == ref_mul(x, y)
            assert got(x + y) == ref_add(x, y)

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_convolve_shorter_than_inputs(self, seed):
        rng = random.Random(seed)
        for ring in KERNEL_RINGS:
            xs = [ring.random(rng) for _ in range(rng.randrange(1, 30))]
            ys = [ring.random(rng) for _ in range(rng.randrange(1, 30))]
            n = rng.randrange(0, min(len(xs), len(ys)))
            full = ref_sparse_mul(ring, dict(enumerate(xs)),
                                  dict(enumerate(ys)), n)
            # the kernel works on flat coordinate lists, f ints a
            # coefficient, each packed whole into a new store and masked
            assert _convolve(ring, flat(xs), flat(ys), n, {}, {}) == flat(
                full.get(k, ring.zero) for k in range(n))

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_inv(self, seed):
        rng = random.Random(seed)
        for ring in ROOT_RINGS:
            hi = rng.randrange(1, 24 if ring.a < 21 else 10)
            x = kernel_series(rng, ring, hi,
                              rng.choice(("units", "nilpotent-pole",
                                          "sparse", "zero")),
                              lo_min=-2 if ring.a < 21 else -1)
            assert outcome(x.inv) == ref_inv(x)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_eth_root(self, seed):
        rng = random.Random(seed)
        for ring in ROOT_RINGS:
            hi = rng.randrange(1, 20 if ring.a < 21 else 8)
            # constant term 1 + nilpotent
            terms = {0: ring.add(ring.one,
                                 ring.smul(ring.p, ring.random(rng)))}
            for _ in range(rng.randrange(5)):
                terms[rng.randrange(1, hi + 1)] = ring.random(rng)
            if rng.random() < 0.5:
                # a pole with a nilpotent coefficient
                terms[-rng.randrange(1, 3)] = ring.smul(ring.p,
                                                        ring.random(rng))
            w = LaurentSeries.from_terms(ring, terms, hi)
            e = rng.choice([k for k in (1, 2, 3, 4, 5) if k % ring.p])
            assert got(eth_root_one_unit(w, e)) == ref_root(w, e)

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_inv_one_term(self, seed):
        # x = c_d u^d + c u^(d+j): -w = -c_d^-1 c u^j is one term, so the
        # geometric sum is written down term by term and never reaches the
        # product kernel.  c_d is an integer, since scaling by a constant
        # off the integers at f > 1 is itself a kernel product
        rng = random.Random(seed)
        for ring in ROOT_RINGS:
            d, j, c = one_term(rng, ring)
            hi = d + max(j, 0) + rng.randrange(1, 12)
            cd = ring.from_int(rng.randrange(ring.q // ring.p) * ring.p +
                               rng.randrange(1, ring.p))
            x = LaurentSeries.from_terms(ring, {d: cd, d + j: c}, hi)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(laurent, "_convolve", kernel_tripwire)
                assert outcome(x.inv) == ref_inv(x)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_eth_root_one_term(self, seed):
        # w = 1 + c u^j: the binomial sum in c u^j and the geometric sum of
        # w's inverse are both written down term by term
        rng = random.Random(seed)
        for ring in ROOT_RINGS:
            _, j, c = one_term(rng, ring)
            w = LaurentSeries.from_terms(ring, {0: 1, j: c},
                                         max(j, 0) + rng.randrange(1, 12))
            for e in (k for k in (1, 2, 3, 4, 5) if k % ring.p):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(laurent, "_convolve", kernel_tripwire)
                    assert got(eth_root_one_unit(w, e)) == ref_root(w, e)

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_monomial_times_series(self, seed):
        # a factor with one nonzero coefficient skips the kernel; the
        # product must still be the reference one, on either side
        rng = random.Random(seed)
        for ring in KERNEL_RINGS:
            k = rng.randrange(-4, 6)
            c = rng.choice((ring.random_unit(rng), ring.random(rng),
                            ring.smul(ring.p, ring.random_unit(rng))))
            # a window from one coefficient, shorter than the other
            # factor, up to well past it
            m = LaurentSeries.from_terms(ring, {k: c},
                                         k + rng.randrange(1, 40))
            y = kernel_series(rng, ring, rng.randrange(1, 30),
                              rng.choice(KINDS))
            assert outcome(lambda: m * y) == ref_mul(m, y)
            assert outcome(lambda: y * m) == ref_mul(y, m)
            assert outcome(lambda: m * m) == ref_mul(m, m)

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_monomial_cases(self, f):
        ring = make_ring(3, 2, f)
        unit = (2,) + (1,) * (f - 1)
        nil = (3,) + (6,) * (f - 1)
        y = LaurentSeries.from_terms(
            ring, {-2: (3,) * f, 0: (1,) * f, 5: (4,) * f}, 9)
        cases = [
            LaurentSeries.from_terms(ring, {-3: unit}, 4),   # pole
            LaurentSeries.from_terms(ring, {2: nil}, 20),    # nilpotent
            LaurentSeries.from_terms(ring, {1: unit}, 3),    # cuts y
            LaurentSeries.from_terms(ring, {0: (1,) + (0,) * (f - 1)}, 30),
        ]
        for m in cases:
            assert got(m * y) == ref_mul(m, y)
            assert got(y * m) == ref_mul(y, m)
        # the nilpotent monomial kills the nilpotent head of y
        assert (cases[1] * y).lo == 2
        # a monomial whose window ends below its exponent cannot be built
        with pytest.raises(EmptyWindow):
            LaurentSeries.from_terms(ring, {3: unit}, 2)

    # inverses of c u^d known below u^hi, as the geometric-series loop
    # gives them: ((p, a, f), d, c, hi) -> (lo, hi, leading coefficient),
    # every later coefficient zero; the zero series at hi when the window
    # is empty; or the error.  The inverse is c^-1 u^-d below
    # u^min(hi, hi - 2d), and the loop's padded window ends at hi + a + 3.
    MONOMIAL_INVERSES = [
        ((3, 2, 1), 3, (2,), 10, (-3, 4, (5,))),
        ((3, 2, 1), -2, (4,), 5, (2, 5, (7,))),
        ((3, 2, 2), 1, (2, 1), 6, (-1, 4, (4, 7))),
        ((3, 2, 2), 0, (1, 0), 5, (0, 5, (1, 0))),
        ((5, 2, 3), -4, (0, 3, 1), -1, (-1, -1, None)),
        ((2, 64, 1), 5, (3,), 7, (-5, -3, (12297829382473034411,))),
        ((2, 64, 1), -30, (2 ** 64 - 1,), -25, (-25, -25, None)),
        ((2, 64, 2), -1, (5, 2), 3,
         (1, 3, (10679693937410793041, 17475862806672206794))),
        # the padded window ends exactly at -d, then one below it
        ((3, 2, 1), -3, (1,), -2, (-2, -2, None)),
        ((3, 2, 1), -4, (1,), -3, ("EmptyWindow", "window [4, 2) is empty")),
        ((3, 2, 1), -20, (1,), -19,
         ("EmptyWindow", "window [20, -14) is empty")),
        ((3, 2, 1), 0, (3,), 5, ("NotAUnit", None)),
        ((3, 2, 2), 2, (3, 6), 4, ("NotAUnit", None)),
    ]

    @pytest.mark.parametrize("ring,d,c,hi,want", MONOMIAL_INVERSES)
    def test_monomial_inv(self, ring, d, c, hi, want):
        ring = make_ring(*ring)
        x = LaurentSeries.from_terms(ring, {d: c}, hi)
        if isinstance(want[0], str):
            with pytest.raises(PhigammaError) as info:
                x.inv()
            assert type(info.value).__name__ == want[0]
            assert want[1] is None or str(info.value) == want[1]
            return
        lo, top, lead = want
        coeffs = [lead] + [ring.zero] * (top - lo - 1) if lead else []
        assert got(x.inv()) == (lo, top, coeffs)
        if lead:
            assert got(x.inv()) == ref_inv(x)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_reused_packings(self, seed):
        # one series in products with partners of several lengths, so at
        # several slot widths and prefix masks of its kept packings, in
        # both orders and squared, between products with the others
        rng = random.Random(seed)
        for ring in KERNEL_RINGS + THRESHOLD_RINGS:
            x = kernel_series(rng, ring, rng.randrange(8, 40),
                              rng.choice(("units", "dense")))
            partners = [kernel_series(rng, ring, hi, rng.choice(KINDS),
                                      lo_min=-1)
                        for hi in (rng.randrange(1, 5), rng.randrange(5, 40),
                                   rng.randrange(1, 5), rng.randrange(5, 40))]
            for y in partners + partners[::-1]:
                assert outcome(lambda: x * y) == ref_mul(x, y)
                assert outcome(lambda: y * x) == ref_mul(y, x)
                assert outcome(lambda: x * x) == ref_mul(x, x)
                assert outcome(lambda: y * y) == ref_mul(y, y)

    def test_packing_kept_per_slot_width(self):
        ring = R9
        x = LaurentSeries.from_terms(ring, {k: 1 + k % 8 for k in range(30)},
                                     30)
        short = LaurentSeries.from_terms(ring, {0: 2, 2: 1}, 3)
        x * x
        widths = set(x._packed)
        packed = dict(x._packed)
        x * short
        # a new width packs x once more, and the first packing stays
        assert set(x._packed) > widths
        assert all(x._packed[nb] is packed[nb] for nb in widths)
        assert got(x * short) == ref_mul(x, short)
        assert got(x * x) == ref_mul(x, x)

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_reused_packings_inv_root(self, seed):
        # series that keep packings from earlier products, and the results
        # of inv and eth_root (whose loops keep the packing of their fixed
        # factor), in further products, each against the reference
        rng = random.Random(seed)
        for ring in ROOT_RINGS + THRESHOLD_RINGS:
            small = ring.a >= 21
            hi = rng.randrange(2, 10 if small else 24)
            x = kernel_series(rng, ring, hi,
                              rng.choice(("units", "nilpotent-pole")),
                              lo_min=-1 if small else -2)
            ys = [kernel_series(rng, ring, rng.randrange(1, 30),
                                rng.choice(KINDS))
                  for _ in range(4)]
            for y in ys:
                outcome(lambda: x * y)
            for part in (ys, ys[:2], ys[::-1]):
                for y in part:
                    assert outcome(lambda: x * y) == ref_mul(x, y)
            for _ in range(2):
                assert outcome(x.inv) == ref_inv(x)
            xi = x.inv()
            assert outcome(lambda: xi * x) == ref_mul(xi, x)
            terms = {0: ring.add(ring.one,
                                 ring.smul(ring.p, ring.random(rng)))}
            for _ in range(rng.randrange(4)):
                terms[rng.randrange(1, hi + 1)] = ring.random(rng)
            w = LaurentSeries.from_terms(ring, terms, hi)
            e = rng.choice([k for k in (1, 2, 3, 5) if k % ring.p])
            for y in ys:
                outcome(lambda: w * y)
            for _ in range(2):
                assert got(eth_root_one_unit(w, e)) == ref_root(w, e)
            r = eth_root_one_unit(w, e)
            assert outcome(lambda: r * w) == ref_mul(r, w)

    @pytest.mark.parametrize("q, nb", [(128, 2), (9, 31), (25, 8), (2, 1),
                                       (243, 4), (243, 12)])
    def test_slot_reduction(self, q, nb):
        # byte tables when nb * (q-1) <= 255, % q otherwise; the largest
        # slot value must not carry between the bytes of the table sum
        rng = random.Random(q * 100 + nb)
        slots = [256 ** nb - 1, 0, q, q - 1] + [rng.randrange(256 ** nb)
                                                for _ in range(50)]
        buf = b"".join(s.to_bytes(nb, "little") for s in slots)
        assert _reduced_slots(buf, nb, q) == [s % q for s in slots]

    @pytest.mark.parametrize("a", [2, 21])
    def test_non_canonical_coordinate_raises(self, a):
        # q - 1 + q would carry into the next slot and -1 cannot be packed
        # unsigned: the constructor refuses both
        ring = make_ring(3, a, 1)
        q = ring.q
        for bad, error, message in (
                (2 * q - 1, PhigammaError,
                 f"coordinate {2 * q - 1} is not reduced mod {q}"),
                (-1, OverflowError, "coordinate -1 is negative")):
            with pytest.raises(error) as info:
                LaurentSeries(ring, 0, 4, [(1,), (bad,), (0,), (1,)])
            assert str(info.value) == message
        dense = LaurentSeries(ring, 0, 4, [(1,), (2,), (1,), (q - 1,)])
        assert got(dense * dense) == ref_mul(dense, dense)

    def test_compose_non_canonical(self):
        # compose packs the powers of g unchecked, so the constructor must
        # refuse a g with a coordinate outside [0, q) at q = 9
        for coord, error, message in (
                (17, PhigammaError, "coordinate 17 is not reduced mod 9"),
                (-1, OverflowError, "coordinate -1 is negative")):
            with pytest.raises(error) as info:
                LaurentSeries(R9, 1, 4, [(1,), (coord,), (0,)])
            assert str(info.value) == message

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_compose(self, seed):
        rng = random.Random(seed)
        for ring in COMPOSE_RINGS:
            # negative exponents take the powers of the inverse
            f = kernel_series(rng, ring, rng.randrange(1, 12),
                              rng.choice(KINDS), lo_min=-3)
            g = compose_target(rng, ring)
            assert compose_outcome(lambda: compose(f, g, {})) == \
                compose_outcome(lambda: ref_compose(f, g))

    @pytest.mark.parametrize("n_terms", [3, 4])
    def test_compose_slot_width_edge(self, n_terms):
        # each term puts 8 * 8 into the slot of u^7, the most a product
        # of two coordinates mod 9 can: 3 * 64 fills a byte, 4 * 64 does
        # not, so the slots grow to 2 bytes at 4 terms
        assert (_slot_width(R9, 3), _slot_width(R9, 4)) == (1, 2)
        g = S({1: 8, 3: 7, 4: 7}, 12)
        for n in (2, 4, 5, 7):
            assert _power(g, n, {}).coeff(7) == (8,)
        f = S({n: 8 for n in (2, 4, 5, 7)[:n_terms]}, 12)
        want = ref_compose(f, g)
        assert compose(f, g, {}).key() == want.key()
        assert want.coeff(7) == (n_terms * 64 % 9,)

    # (f terms, f hi, g terms, g hi) -> the outcome, checked against the
    # reference as well
    COMPOSE_CASES = [
        # negative exponents, through the inverse of g and its powers:
        # g^-1 = 5u^-1 + 6 and g^-2 = 7u^-2 + 6u^-1
        ({-2: 4, -1: 1, 0: 2, 3: 5}, 6, {1: 2, 2: 3}, 9,
         (-2, 6, (1, 2, 8, 0, 0, 4, 0, 0))),
        # the window of g^-1, [-5, -1), decides hi
        ({-1: 1, 2: 1}, 6, {-1: 3, 2: 1, 3: 1}, 9, (-5, -1, (6, 6, 0, 4))),
        # the nilpotent pole of g lowers the tail guard to
        # 2 * 4 - (2 - -1) = 5, below hi(g^n) = 9, 9, 8
        ({0: 2, 1: 1, 2: 1}, 4, {-1: 3, 2: 1, 3: 1}, 9,
         (-1, 5, (3, 2, 6, 7, 1, 1))),
        # g = 3u^-1 + u has g^2 = 6 mod u, so g^4 = 0 mod u: the window
        # of g^4 decides hi, below the tail guard 6 - 2
        ({4: 1}, 6, {-1: 3, 1: 1}, 2, (1, 1, ())),
        # u^10 starts at or above hi = hi(g^0) = 5 and adds nothing
        ({0: 1, 10: 2}, 12, {1: 1}, 5, (0, 5, (1, 0, 0, 0, 0))),
        # an empty f: zero at the tail guard 2 * 7 - (2 - 1) * (2 - 1)
        ({}, 7, {1: 3, 2: 1}, 9, (13, 13, ())),
        # the tail guard 6 lies below every hi(g^n) >= 40
        ({0: 1, 1: 2, 2: 1, 5: 7}, 6, {1: 1}, 40,
         (0, 6, (1, 2, 1, 0, 0, 7))),
        ({1: 1}, 5, {0: 1, 1: 1}, 9,
         ("Divergent", "substitution target has unit degree 0 < 1")),
        ({1: 1}, 5, {1: 3, 2: 6}, 9,
         ("NotAUnit", "substitution target has no visible unit coefficient")),
    ]

    @pytest.mark.parametrize("f_terms,f_hi,g_terms,g_hi,want", COMPOSE_CASES)
    def test_compose_cases(self, f_terms, f_hi, g_terms, g_hi, want):
        f, g = S(f_terms, f_hi), S(g_terms, g_hi)
        assert compose_outcome(lambda: compose(f, g, {})) == want
        assert compose_outcome(lambda: ref_compose(f, g)) == want

    def test_compose_first_raising_power(self, monkeypatch):
        # a power of a target with a unit degree never raises, since no
        # product of nonzero series has an empty window; make the powers
        # of n >= 3 raise to see that the first of them, in the order of
        # the terms of f, decides the error, as the reference's does
        power = laurent._power

        def raising(g, n, cache):
            if abs(n) >= 3:
                raise EmptyWindow(f"power {n}")
            return power(g, n, cache)

        monkeypatch.setattr(laurent, "_power", raising)
        f = S({-4: 1, 1: 2, 5: 1, 7: 1}, 9)
        g = S({1: 1, 2: 1}, 9)
        cache = {}
        assert compose_outcome(lambda: compose(f, g, cache)) == \
            ("EmptyWindow", "power -4")
        # g^-4 is the first power, so nothing was formed before it
        assert set(cache) == set()
        f = S({1: 2, 5: 1, 7: 1}, 9)
        assert compose_outcome(lambda: compose(f, g, cache)) == \
            ("EmptyWindow", "power 5")
        # the powers formed before it stay in the cache
        assert set(cache) == {1}

    @pytest.mark.parametrize("ring", [KERNEL_RINGS[i] for i in (0, 4, 5, 9)],
                             ids=lambda r: f"p{r.p}-a{r.a}-f{r.f}")
    def test_power_run_forms_each_power_once(self, monkeypatch, ring):
        # g^2, g^3, ..., g^40 asked for in turn from one cache: an odd
        # power is the kept even power times g, an even one the square of
        # a kept power, so each costs one product; g^-2 ... g^-40 cost the
        # same products of g^-1 and one inverse
        rng = random.Random(ring.q)
        g = LaurentSeries.from_terms(
            ring, {e: ring.random_unit(rng) for e in range(-1, 9)}, 9)
        calls = {"mul": 0, "inv": 0}
        mul, inv = LaurentSeries.__mul__, LaurentSeries.inv

        def counted_mul(x, y):
            calls["mul"] += 1
            return mul(x, y)

        def counted_inv(x):
            calls["inv"] += 1
            return inv(x)

        monkeypatch.setattr(LaurentSeries, "__mul__", counted_mul)
        monkeypatch.setattr(LaurentSeries, "inv", counted_inv)
        for sign in (1, -1):
            cache = {}
            calls.update(mul=0, inv=0)
            for n in range(2, 41):
                _power(g, sign * n, cache)
            assert calls == {"mul": 39, "inv": int(sign < 0)}

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_signed_power(self, seed):
        # every power in [-24, 24], from a fresh cache and from one cache
        # shared by all of them, against the powers of g.inv(); the random
        # order asks for some odd powers after their even neighbour and
        # some before it
        rng = random.Random(seed)
        for ring in ROOT_RINGS:
            hi = rng.randrange(1, 16 if ring.a < 21 else 8)
            g = kernel_series(rng, ring, hi, rng.choice(KINDS), lo_min=-2)
            shared = {}
            for n in rng.sample(range(-24, 25), 49):
                want = compose_outcome(lambda: ref_power(g, n))
                assert compose_outcome(lambda: _power(g, n, {})) == want
                assert compose_outcome(lambda: _power(g, n, shared)) == want


# -- window soundness against adversarial unknown tails --------------------
#
# A result is exact on its window whatever the unknown coefficients of its
# inputs at and above hi are.  Extending the inputs by random coefficients
# (units included), not by zeros, and recomputing must therefore agree
# with the original result wherever both windows reach.

TAIL_RINGS = [make_ring(p, a, f) for p, a, f in [
    (3, 2, 1), (3, 2, 2), (2, 3, 1), (5, 2, 3)]]


class TestAdversarialTails:
    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_add_sub_mul_scale(self, seed):
        rng = random.Random(seed)
        for ring in TAIL_RINGS:
            x = kernel_series(rng, ring, rng.randrange(1, 20),
                              rng.choice(KINDS))
            y = kernel_series(rng, ring, rng.randrange(1, 20),
                              rng.choice(KINDS))
            xt, yt = with_tail(rng, x), with_tail(rng, y)
            c = ring.random(rng)
            assert sound(x + y, xt + yt)
            assert sound(x - y, xt - yt)
            assert sound(x * y, xt * yt)
            assert sound(x.scale(c), xt.scale(c))

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_inv_eth_root(self, seed):
        rng = random.Random(seed)
        for ring in TAIL_RINGS:
            x = kernel_series(rng, ring, rng.randrange(1, 16),
                              rng.choice(("units", "nilpotent-pole")),
                              lo_min=-2)
            assert sound(x.inv(), with_tail(rng, x).inv())
            hi = rng.randrange(1, 16)
            terms = {0: ring.add(ring.one,
                                 ring.smul(ring.p, ring.random(rng)))}
            for _ in range(rng.randrange(5)):
                terms[rng.randrange(1, hi + 1)] = ring.random(rng)
            if rng.random() < 0.5:
                terms[-rng.randrange(1, 3)] = ring.smul(ring.p,
                                                        ring.random(rng))
            w = LaurentSeries.from_terms(ring, terms, hi)
            e = rng.choice([k for k in (1, 2, 3, 4, 5) if k % ring.p])
            assert sound(eth_root_one_unit(w, e),
                         eth_root_one_unit(with_tail(rng, w), e))

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_compose(self, seed):
        rng = random.Random(seed)
        for ring in TAIL_RINGS:
            f = kernel_series(rng, ring, rng.randrange(1, 10),
                              rng.choice(KINDS), lo_min=-2)
            d = rng.randrange(1, 3)
            hi = rng.randrange(d + 1, 12)
            terms = {d: ring.random_unit(rng)}
            for _ in range(rng.randrange(4)):
                terms[rng.randrange(d + 1, hi + 1)] = ring.random(rng)
            if rng.random() < 0.5:
                # a nilpotent term below the unit degree
                terms[rng.randrange(-1, d)] = ring.smul(ring.p,
                                                        ring.random(rng))
            g = LaurentSeries.from_terms(ring, terms, hi)
            assert sound(compose(f, g, {}),
                         compose(with_tail(rng, f), with_tail(rng, g), {}))


# -- where coordinates are checked -----------------------------------------
#
# Every series holds only coordinates in [0, q): the public constructor
# checks its input, and every list the module makes is reduced where it
# is made, so nothing else scans a list.

CHECK_RINGS = [make_ring(p, a, f) for p, a, f in [
    (3, 2, 1), (3, 2, 2), (2, 3, 1), (5, 1, 2)]]


def reduced(s):
    return all(0 <= v < s.ring.q for v in s._flat)


def ref_check(flat, q):
    """The class name and message `_check_reduced` raises for the list
    flat, or None when every int of it lies in [0, q)."""
    if flat and max(flat) >= q:
        return "PhigammaError", f"coordinate {max(flat)} is not reduced mod {q}"
    if flat and min(flat) < 0:
        return "OverflowError", f"coordinate {min(flat)} is negative"
    return None


def raised(fn):
    """The class name and message fn raises, or None when it returns."""
    try:
        fn()
    except (PhigammaError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return None


def unreduced_coeffs(rng, ring, hi):
    """(lo, coordinate tuples on [lo, hi)) with one coordinate moved out
    of [0, q): to q or more, or below 0."""
    lo = rng.randrange(-3, min(hi, 3))
    coeffs = [ring.random(rng) for _ in range(hi - lo)]
    i, k = rng.randrange(hi - lo), rng.randrange(ring.f)
    c = list(coeffs[i])
    c[k] += rng.choice((ring.q, 3 * ring.q, -ring.q))
    coeffs[i] = tuple(c)
    return lo, coeffs


def count_checks(monkeypatch):
    """The lists laurent._check_reduced scans from now on in this test."""
    calls = []
    check = laurent._check_reduced

    def counted(flat, q):
        calls.append(flat)
        return check(flat, q)
    monkeypatch.setattr(laurent, "_check_reduced", counted)
    return calls


class TestCheckedWhereUnreduced:
    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_random_chains(self, seed):
        # the constructor refuses an unreduced list as `_check_reduced`
        # words it and takes the list reduced; chains of every operation
        # on what it takes hold only reduced coordinates
        rng = random.Random(seed)
        for ring in CHECK_RINGS:
            q = ring.q
            pool = []
            for _ in range(3):
                hi = rng.randrange(2, 14)
                lo, coeffs = unreduced_coeffs(rng, ring, hi)
                flat = [v for c in coeffs for v in c]
                assert raised(lambda: LaurentSeries(ring, lo, hi, coeffs)) \
                    == ref_check(flat, q) is not None
                pool.append(LaurentSeries(ring, lo, hi, [
                    tuple(v % q for v in c) for c in coeffs]))
            pool += [kernel_series(rng, ring, rng.randrange(1, 14),
                                   rng.choice(KINDS), lo_min=-2)
                     for _ in range(3)]
            for _ in range(25):
                x, y = rng.choice(pool), rng.choice(pool)
                op = rng.choice(("+", "-", "neg", "*", "*", "scale",
                                 "shift", "truncate", "inv", "compose",
                                 "frob", "json"))
                if op == "*":
                    out = x * y
                    assert got(out) == ref_mul(x, y)
                    pool.append(out)
                    continue
                fns = {
                    "+": lambda: x + y,
                    "-": lambda: x - y,
                    "neg": lambda: -x,
                    "scale": lambda: x.scale(rng.randrange(-q, 2 * q)),
                    "shift": lambda: x.shift(rng.randrange(-3, 4)),
                    "truncate": lambda: x.truncate(
                        rng.randrange(x.lo - 1, x.hi + 1)),
                    "inv": x.inv,
                    "compose": lambda: compose(x, y, {}),
                    "frob": lambda: x.frob_coeffs(rng.randrange(1, 3)),
                    "json": lambda: LaurentSeries.from_json(ring,
                                                            x.to_json()),
                }
                try:
                    pool.append(fns[op]())
                except PhigammaError:
                    pass
                pool = pool[-12:]
                for s in pool:
                    assert reduced(s)

    @pytest.mark.parametrize("coord, error, match",
                             [(10, PhigammaError, "10 is not reduced mod 9"),
                              (-2, OverflowError, "-2 is negative")])
    def test_shifted_truncated_and_summed(self, coord, error, match):
        # the constructor refuses bad, which holds the unreduced coordinate
        # at u^1, so no shift, truncation or sum can carry it; those of
        # the list reduced hold reduced coordinates and multiply as the
        # reference does
        with pytest.raises(error) as info:
            LaurentSeries(R9, 0, 6, [(1,), (coord,), (0,), (2,), (0,), (1,)])
        assert str(info.value) == "coordinate " + match
        fixed = LaurentSeries(R9, 0, 6, [(1,), (coord % 9,), (0,), (2,),
                                         (0,), (1,)])
        good, one = S({0: 1, 1: 2, 2: 3}, 6), S({0: 1}, 6)
        for derived in (fixed.shift(3), fixed.shift(-2), fixed.truncate(4),
                        fixed.truncate(2), fixed + S({3: 1}, 8),
                        fixed - S({2: 1}, 8), S({3: 1}, 8) + fixed,
                        S({3: 1}, 8) - fixed):
            assert reduced(derived)
            for partner in (good, one, derived):
                assert got(derived * partner) == ref_mul(derived, partner)
                assert got(partner * derived) == ref_mul(partner, derived)

    def test_kernel_made_series_are_never_scanned(self, monkeypatch):
        # products, sums, negations, scalings, shifts, truncations, JSON
        # round trips, inverses, roots and compositions of kernel-made
        # series all enter products unscanned, monomials (with coefficients
        # off the integers at f > 1) and matrix-entry dot products included
        rng = random.Random(5)
        for ring in CHECK_RINGS:
            xs = [kernel_series(rng, ring, rng.randrange(6, 20), kind,
                                lo_min=0)
                  for kind in ("sparse", "units", "dense", "nilpotent-pole")]
            x, y = xs[1], xs[2]
            g = S({1: 1, 2: 1}, 12, ring)
            m = LaurentSeries.monomial(ring, 2, (1,) * ring.f, 20)
            w = LaurentSeries.from_terms(ring, {0: 1, 1: ring.random(rng),
                                                3: ring.random_unit(rng)}, 16)
            made = xs + [m, x * y, x + y, x - y, -x, x.scale(ring.random(rng)),
                         x.shift(-2), y.truncate(y.hi - 1),
                         LaurentSeries.from_json(ring, x.to_json()),
                         x.inv(), eth_root_one_unit(w, 2 if ring.p != 2
                                                    else 3),
                         compose(x, g, {})]
            calls = count_checks(monkeypatch)
            for a in made:
                for b in made:
                    a * b
            laurent._dot(made[:4], made[4:8])
            compose(y, g, {})
            assert calls == []
            monkeypatch.undo()

    def test_tasks_never_scan(self, monkeypatch):
        # one run of every task makes all its series by arithmetic, so no
        # list of it is ever scanned
        calls = count_checks(monkeypatch)
        for task in TASKS:
            run_config({"task": task, "count": 1, "v_terms": {"1": 1},
                        "ring": {"kind": "cyclotomic", "p": 3, "a": 2}},
                       window=16, seed=0)
        assert calls == []
