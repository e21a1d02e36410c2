"""Galois ring arithmetic GR(p^a, f) = W(F_{p^f}) / p^a.

Elements are stored as coordinate tuples of length f in the power basis
1, x, ..., x^{f-1} modulo a fixed monic degree-f polynomial whose mod-p
reduction is irreducible.  The modulus is chosen deterministically: among
monic lifts x^f + c_{f-1}x^{f-1} + ... + c_0 with 0 <= c_i < p, the first
tuple (c_0, ..., c_{f-1}) in lexicographic order whose reduction is
irreducible over F_p.  For f = 1 this gives the modulus x, i.e. Z/p^a.

Elements are plain coordinate tuples, and the ring methods (add, mul,
inv, frob, ...) operate on them directly.
"""

import itertools

from .errors import NotAUnit, NotPrime


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod_p(a, b, p):
    # the remainder of a by b over the field F_p; b must be nonzero
    a, db = _poly_trim(a), len(b) - 1
    inv_lb = pow(b[-1], -1, p)
    while len(a) > db:
        shift, coef = len(a) - 1 - db, (a[-1] * inv_lb) % p
        for i in range(db + 1):
            a[shift + i] = (a[shift + i] - coef * b[i]) % p
        a = _poly_trim(a)
    return a


def _poly_irreducible_p(m, p):
    """Trial-division irreducibility test for a monic polynomial over F_p."""
    f = len(m) - 1
    if f == 1:
        return True
    for d in range(1, f // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if not _poly_mod_p(m, g, p):
                return False
    return True


def _first_irreducible(p, f):
    for tail in itertools.product(range(p), repeat=f):
        # tail is (c_0, ..., c_{f-1}) in lexicographic order
        m = list(tail) + [1]
        if _poly_irreducible_p(m, p):
            return tuple(m)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class CoeffRing:
    """The Galois ring GR(p^a, f) with a deterministic modulus choice."""

    def __init__(self, p, a, f):
        if not _is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if a < 1 or f < 1:
            raise ValueError("require a >= 1 and f >= 1")
        self.p = p
        self.a = a
        self.f = f
        self.q = p ** a
        self.modulus = _first_irreducible(p, f)
        self.zero = (0,) * f
        self.one = (1,) + (0,) * (f - 1)
        self._red = self._reduction_rows()
        self._frob_cols = None

    def _reduction_rows(self):
        """Coordinates of x^f, x^{f+1}, ..., x^{2f-2} modulo the modulus."""
        f, q = self.f, self.q
        rows = []
        cur = [(-self.modulus[i]) % q for i in range(f)]  # x^f
        rows.append(tuple(cur))
        for _ in range(f - 2):
            top = cur[f - 1]
            cur = [0] + cur[:-1]
            if top:
                for i in range(f):
                    cur[i] = (cur[i] - top * self.modulus[i]) % q
            rows.append(tuple(cur))
        return rows

    # -- tuple-level arithmetic ------------------------------------------

    def add(self, c1, c2):
        q = self.q
        return tuple((x + y) % q for x, y in zip(c1, c2))

    def sub(self, c1, c2):
        q = self.q
        return tuple((x - y) % q for x, y in zip(c1, c2))

    def neg(self, c):
        q = self.q
        return tuple((-x) % q for x in c)

    def smul(self, k, c):
        q = self.q
        k %= q
        return tuple((k * x) % q for x in c)

    def mul(self, c1, c2):
        f, q = self.f, self.q
        if f == 1:
            return ((c1[0] * c2[0]) % q,)
        raw = [0] * (2 * f - 1)
        for i, x in enumerate(c1):
            if x == 0:
                continue
            for j, y in enumerate(c2):
                raw[i + j] += x * y
        out = [v % q for v in raw[:f]]
        for k in range(f, 2 * f - 1):
            v = raw[k] % q
            if v:
                row = self._red[k - f]
                for i in range(f):
                    out[i] = (out[i] + v * row[i]) % q
        return tuple(out)

    def pow(self, c, n):
        if n < 0:
            return self.pow(self.inv(c), -n)
        acc, base = self.one, c
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def from_int(self, n):
        return ((n % self.q,) + (0,) * (self.f - 1))

    def gen(self):
        """The power-basis generator x (equals 0 when f = 1)."""
        if self.f == 1:
            return (0,)
        return (0, 1) + (0,) * (self.f - 2)

    def is_zero(self, c):
        return all(x == 0 for x in c)

    def is_unit(self, c):
        p = self.p
        return any(x % p for x in c)

    def is_nilpotent(self, c):
        p = self.p
        return all(x % p == 0 for x in c)

    def inv(self, c):
        """Multiplicative inverse, c^-1 = c^(n-1) with n = (p^f - 1) p^(a-1).

        The unit group is the Teichmueller group, of order p^f - 1, times
        1 + pR; and x = 1 mod p^j gives x^p = 1 mod p^(j+1), so x^(p^(a-1))
        = 1 on 1 + pR, and c^n = 1 for every unit c."""
        if not self.is_unit(c):
            raise NotAUnit(f"{c} is not a unit in GR({self.p}^{self.a}, {self.f})")
        if self.f == 1:
            return (pow(c[0], -1, self.q),)
        p = self.p
        return self.pow(c, (p ** self.f - 1) * p ** (self.a - 1) - 1)

    # -- Frobenius --------------------------------------------------------

    def _frobenius_columns(self):
        """Images of the basis 1, x, ..., x^{f-1} under the Frobenius lift.

        The lift sends the generator x to the Hensel lift of x^p, the unique
        root of the modulus congruent to x^p mod p.
        """
        if self._frob_cols is not None:
            return self._frob_cols
        f = self.f
        if f == 1:
            self._frob_cols = [self.one]
            return self._frob_cols
        r = hensel_root(self, [self.from_int(c) for c in self.modulus],
                        self.pow(self.gen(), self.p))
        cols = [self.one]
        acc = self.one
        for _ in range(1, f):
            acc = self.mul(acc, r)
            cols.append(acc)
        self._frob_cols = cols
        return cols

    def frob(self, c, power=1):
        """Apply the Frobenius automorphism (lift of t -> t^p) `power` times."""
        power %= self.f
        if power == 0 or self.f == 1:
            return tuple(c)
        cols = self._frobenius_columns()
        for _ in range(power):
            out = self.zero
            for i, ci in enumerate(c):
                if ci:
                    out = self.add(out, self.smul(ci, cols[i]))
            c = out
        return c

    # -- enumeration and serialization -------------------------------------

    def residue_units(self):
        """One unit representative per nonzero residue class (mod p)."""
        for coords in itertools.product(range(self.p), repeat=self.f):
            if any(coords):
                yield coords

    def random(self, rng):
        return tuple(rng.randrange(self.q) for _ in range(self.f))

    def random_unit(self, rng):
        while True:
            c = self.random(rng)
            if self.is_unit(c):
                return c

    def __repr__(self):
        return f"CoeffRing(p={self.p}, a={self.a}, f={self.f})"


def make_ring(p, a, f=1):
    """Construct GR(p^a, f) with the deterministic modulus choice."""
    return CoeffRing(p, a, f)


# -- roots of polynomials ---------------------------------------------------
#
# A polynomial P is the list of its coefficients, elements of the ring,
# constant first.


def hensel_root(ring, coeffs, z):
    """The unique root of P congruent to z mod p.

    Needs P(z) = 0 mod p and P'(z) a unit.  Then P has exactly one root
    r = z mod p, and a Newton step z <- z - P(z)/P'(z) on z = r mod p^k
    gives z = r mod p^(2k), so max(1, ceil(log2 a)) steps reach r in
    GR(p^a, f).  A step at r itself changes nothing, since P(r) = 0, so
    any larger number of steps returns the same tuple.

    Every caller meets the condition on P'(z).  The Frobenius lift and
    the coefficient embedding of a tame extension take a root of a
    modulus, which is separable mod p.  The e-th roots of a unit and of
    1 that a tame extension takes are roots of X^e - c with e | p^f - 1,
    so P'(z) = e z^(e-1) is a unit."""
    for _ in range(max(1, (ring.a - 1).bit_length())):
        # Horner's rule for v = P(z) and d = P'(z) in one pass
        v = d = ring.zero
        for c in reversed(coeffs):
            d = ring.add(ring.mul(d, z), v)
            v = ring.add(ring.mul(v, z), c)
        z = ring.sub(z, ring.mul(v, ring.inv(d)))
    return z


def residue_root(ring, coeffs):
    """The first element of `residue_units()` that is a root of P mod p,
    or None when P has no nonzero root mod p.  Zero is no root of the
    polynomials the package takes roots of (an irreducible modulus of
    degree f > 1, or X^e - c with c a unit), so leaving it out loses
    none."""
    for z in ring.residue_units():
        v = ring.zero
        for c in reversed(coeffs):
            v = ring.add(ring.mul(v, z), c)
        if ring.is_nilpotent(v):
            return z
    return None
