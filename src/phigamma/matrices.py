"""Matrices over a period ring: congruence subgroups, boundedness
filtrations, the Frobenius-stabilized filtration, twisted conjugation,
and the contraction fixed-point solvers.

Membership tests follow the series window semantics: a True/False answer
is exact relative to the windows of the entries, and InsufficientWindow
is raised when the window cannot decide.

A matrix is a value: its rows are tuples of series, fixed at
construction, so `inv` computes the inverse of each matrix value once
per ring and keeps it on the ring.
"""

from .errors import (InsufficientWindow, NoConvergence, NotAUnit,
                     NotInvertible, PhigammaError, PreconditionViolated)
from .laurent import LaurentSeries


class SeriesMatrix:
    """A matrix of Laurent series over a common period ring."""

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix")

    @property
    def n(self):
        if self.nrows != self.ncols:
            raise ValueError("matrix is not square")
        return self.nrows

    @property
    def hi(self):
        return min(e.hi for r in self.rows for e in r)

    @classmethod
    def identity(cls, ring, n, hi=None):
        z = ring.zero(hi)
        one = ring.one(hi)
        return cls(ring, [[one if i == j else z for j in range(n)]
                          for i in range(n)])

    @classmethod
    def zero(cls, ring, nrows, ncols=None, hi=None):
        z = ring.zero(hi)
        return cls(ring, [[z] * (ncols or nrows) for _ in range(nrows)])

    def entry(self, i, j):
        return self.rows[i][j]

    def map(self, fn):
        return SeriesMatrix(self.ring, [[fn(e) for e in r] for r in self.rows])

    def __add__(self, other):
        return SeriesMatrix(self.ring, [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return SeriesMatrix(self.ring, [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return self.map(lambda e: -e)

    def __mul__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = self.rows[i][0] * other.rows[0][j]
                for k in range(1, self.ncols):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return SeriesMatrix(self.ring, out)

    def scale(self, c):
        """Multiply every entry by a coefficient-ring constant."""
        return self.map(lambda e: e.scale(c))

    def truncate(self, hi):
        return self.map(lambda e: e.truncate(min(e.hi, hi)))

    def agrees(self, other):
        return all(a.agrees(b) for ra, rb in zip(self.rows, other.rows)
                   for a, b in zip(ra, rb))

    def is_zero(self):
        return all(e.is_zero() for r in self.rows for e in r)

    def key(self):
        """The matrix as one hashable value: the `key()` of every entry,
        windows included."""
        return tuple(tuple(e.key() for e in r) for r in self.rows)

    def is_identity(self):
        return (self - SeriesMatrix.identity(self.ring, self.n, self.hi)).is_zero()

    def inv(self):
        """Gauss-Jordan inverse; pivots need a visible unit degree.

        The ring keeps every inverse in `PeriodRing._inverses`, keyed by
        the matrix's value (the `key()` of every entry, windows included),
        so an equal matrix, the same one or one built separately, gets the
        same inverse back.  A library error (NotInvertible, EmptyWindow) is
        kept there as its class and message, and every later call for that
        value raises a fresh instance of it."""
        memo = self.ring._inverses
        key = self.key()
        got = memo.get(key)
        if got is None:
            try:
                got = memo[key] = self._gauss_jordan()
            except PhigammaError as exc:
                memo[key] = (type(exc), str(exc))
                raise
        if type(got) is tuple:
            raise got[0](got[1])
        return got

    def _gauss_jordan(self):
        n = self.n
        if not n:
            return SeriesMatrix(self.ring, [])
        identity = SeriesMatrix.identity(self.ring, n, self.hi).rows
        aug = [row + one for row, one in zip(self.rows, identity)]
        for col in range(n):
            best = None
            for r in range(col, n):
                try:
                    d = aug[r][col].unit_degree().d
                except (NotAUnit, InsufficientWindow):
                    continue
                if best is None or d < best[1]:
                    best = (r, d)
            if best is None:
                raise NotInvertible(f"no unit pivot in column {col}")
            r = best[0]
            aug[col], aug[r] = aug[r], aug[col]
            piv_inv = aug[col][col].inv()
            aug[col] = [e * piv_inv for e in aug[col]]
            for r2 in range(n):
                if r2 == col:
                    continue
                c = aug[r2][col]
                aug[r2] = [e - c * q for e, q in zip(aug[r2], aug[col])]
        return SeriesMatrix(self.ring, [row[n:] for row in aug])

    # -- operator application --------------------------------------------

    def apply_op(self, op):
        return self.map(op.apply)

    def apply_phi(self):
        return self.apply_op(self.ring.phi)

    def apply_gamma(self):
        return self.apply_op(self.ring.gamma)

    def apply_galois(self, word):
        return self.map(lambda e: self.ring.galois.apply_word(word, e))

    # -- filtration membership --------------------------------------------

    def in_Un(self, n):
        """X = I + u^n * (power series matrix)?"""
        diff = self - SeriesMatrix.identity(self.ring, self.n, self.hi)
        return all(e.in_lattice(-n) for r in diff.rows for e in r)

    def congruence_depth(self):
        """Largest n with X in U_n, or None if X is I within window."""
        diff = self - SeriesMatrix.identity(self.ring, self.n, self.hi)
        if diff.is_zero():
            return None
        lo = min(e.lo for r in diff.rows for e in r if not e.is_zero())
        return lo

    def in_Vm(self, m):
        return (all(e.in_lattice(m) for r in self.rows for e in r) and
                all(e.in_lattice(m) for r in self.inv().rows for e in r))

    def in_Lm_phi(self, m, c_phi=None):
        """The Frobenius-stabilized filtration: p^(a-i)*X and p^(a-i)*X^-1
        lie in u^(-m - c_phi*i) * Mat(power series) for 0 <= i <= a."""
        if c_phi is None:
            c_phi = self.ring.c_phi()
        a = self.ring.base.a
        p = self.ring.base.p
        for i in range(a + 1):
            bound = m + c_phi * i
            for mat in (self, self.inv()):
                scaled = mat.scale(self.ring.base.from_int(p ** (a - i)))
                if not all(e.in_lattice(bound) for r in scaled.rows for e in r):
                    return False
        return True

    def to_json(self):
        return {"n": self.nrows,
                "entries": [[e.to_json() for e in r] for r in self.rows]}

    @classmethod
    def from_json(cls, ring, data):
        return cls(ring, [[LaurentSeries.from_json(ring.base, e) for e in r]
                          for r in data["entries"]])

    def __repr__(self):
        return f"SeriesMatrix({self.nrows}x{self.ncols} over {self.ring!r})"


class FiltrationParams:
    """Admissibility data for the twisted-conjugation solvers.

    lam and N come from a ContractionReport certificate; the solvers
    refuse to run unless n_cong > max(2m/(lam - 1), N).
    """

    def __init__(self, m, n_cong, lam, N):
        self.m = m
        self.n_cong = n_cong
        self.lam = lam
        self.N = N

    def check(self):
        """PreconditionViolated unless m >= 0, n_cong >= 1, lam > 1 and
        n_cong > max(2m/(lam - 1), N), tested exactly for an int or a
        Fraction lam; `fractions` is imported only to format the error."""
        if self.m < 0 or self.n_cong < 1:
            raise PreconditionViolated("need m >= 0 and n_cong >= 1")
        # with n_cong >= 1 and m >= 0 the second test also rejects lam <= 1
        if self.n_cong <= self.N or \
                self.n_cong * (self.lam - 1) <= 2 * self.m:
            if self.lam <= 1:
                raise PreconditionViolated(f"need lam > 1, got {self.lam}")
            from fractions import Fraction
            threshold = max(Fraction(2 * self.m) / (self.lam - 1),
                            Fraction(self.N))
            raise PreconditionViolated(
                f"need n > max(2m/(lam-1), N) = {threshold}, got {self.n_cong}")


def twisted_conj(x, g):
    """g^-1 * x * phi(g)."""
    return g.inv() * x * g.apply_phi()


def solve_h(g, x, params):
    """The unique h in U_n with twisted_conj(x, g) = h^-1 * x.

    Computed directly: h^-1 = g^-1 * x * phi(g) * x^-1.
    """
    params.check()
    if not g.in_Un(params.n_cong):
        raise PreconditionViolated("g is not in U_n")
    if not x.in_Vm(params.m):
        raise PreconditionViolated("x is not in V_m")
    h_inv = twisted_conj(x, g) * x.inv()
    h = h_inv.inv()
    if not h.in_Un(params.n_cong):
        raise PreconditionViolated("solved h left U_n; certificate too weak")
    return h


def solve_g(h, x, params, max_iter=64):
    """Inverse problem: g in U_n with twisted_conj(x, g) = h^-1 * x.

    Fixed-point iteration from the contraction certificate: with
    y = h^-1 x, the residual h_i = x_i * y^-1 satisfies x_i = h_i * y,
    so twisted-conjugating by h_i gives x_{i+1} = y * phi(h_i) whose
    residual is one contraction step deeper; g = h_0 h_1 h_2 ... and
    each h_i must sink strictly deeper into the congruence filtration
    or NoConvergence is raised (h_0 = h itself).
    """
    params.check()
    if not h.in_Un(params.n_cong):
        raise PreconditionViolated("h is not in U_n")
    target_inv = x.inv() * h
    g = SeriesMatrix.identity(x.ring, x.n, x.hi)
    xi = x
    depth = params.n_cong - 1
    for _ in range(max_iter):
        hi_corr = xi * target_inv
        d = hi_corr.congruence_depth()
        if d is None:
            return g
        if d <= depth:
            raise NoConvergence(
                f"correction depth {d} did not grow past {depth}")
        depth = d
        g = g * hi_corr
        xi = twisted_conj(xi, hi_corr)
    raise NoConvergence(f"no fixed point within {max_iter} iterations")
