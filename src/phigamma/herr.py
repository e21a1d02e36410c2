"""Herr complexes: the three-term complex C0 -> C1 -> C2 attached to a
framed module, in three flavors.

kind = "plain":   cochains are column vectors,
    d0(z)   = (Phi*phi(z) - z, Gam*gamma(z) - z)
    d1(x,y) = (Gam*gamma(x) - x) - (Phi*phi(y) - y)
kind = "framed":  cochains are column vectors; plain operator symbols act
  entrywise semilinearly and bracketed matrices act by left
  multiplication (the unique reading making d1 d0 = 0 follow from the
  commutation identity; the extension equation below is the independent
  sign oracle),
    d0(z)   = (phi(z) - Phi^-1*z, gamma(z) - Gam^-1*z)
    d1(x,y) = (gamma(x) - phi(Gam)^-1*x) + (gamma(Phi)^-1*y - phi(y))
kind = "adjoint": cochains are n x n matrices and the operators act by
  twisted conjugation Ad_Phi(phi(z)) = Phi*phi(z)*Phi^-1 (same shape of
  differentials as "plain").

Degree-1 classes of the framed complex classify extensions by the
trivial rank-1 module: X = [[Phi, Phi*x],[0,1]], Y = [[Gam, Gam*y],[0,1]]
satisfy X*phi(Y) = Y*gamma(X) iff (x,y) is a framed 1-cocycle, with
residual block R12 = -Phi*phi(Gam)*d1(x,y).

Dual-number lifts: A[eps] matrices are (main, eps) pairs with eps^2 = 0.
The lift ((1+eps*X)Phi, (1+eps*Y)Gam) is valid iff (X,Y) is an adjoint
1-cocycle; the eps-part of the commutation residual is
-d1_adjoint(X,Y)*Phi*phi(Gam), an independent oracle.
"""

from .errors import NotACocycle, NotALift
from .framed import Cochain, commutation_residual, pattern_ok
from .laurent import LaurentSeries
from .linalg import solve_mod_prime_power
from .matrices import SeriesMatrix

KINDS = ("plain", "framed", "adjoint")


class CoboundaryResult:
    """What a coboundary search found: whether it found a witness z,
    the witness, and the sub-window below which d(z) = c is certified."""

    def __init__(self, found, witness=None, sub_window=None):
        self.found = found
        self.witness = witness
        self.sub_window = sub_window


def _entries(cochain):
    """The entries of the cochain in cochain order (part, row, column)."""
    return [e for part in cochain.parts for row in part.rows for e in row]


class HerrComplex:
    def __init__(self, module, kind="plain"):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        self.module = module
        self.ring = module.ring
        self.kind = kind
        self.n = module.n
        self._ops = {}
        self._images = {}

    # -- cochain shapes -------------------------------------------------------

    def part_shape(self):
        return (self.n, self.n) if self.kind == "adjoint" else (self.n, 1)

    def n_parts(self, degree):
        return {0: 1, 1: 2, 2: 1}[degree]

    # -- differentials ----------------------------------------------------------

    def _block_ops(self, degree):
        """The (op, L, R) of the phi and the gamma block of the
        differential out of `degree`, which is
        d0(z) = (B_phi(z), B_gamma(z)) and d1(x, y) = B_gamma(x) - B_phi(y),
        with B(z) = (L * op(z)) * R - z in the plain (R is None) and
        adjoint kinds, and B(z) = op(z) - L * z in the framed kind.

        The complex keeps them per degree; forming them on each call cost
        the Herr search about 1%.  The inverses are taken in one order,
        Phi^-1 before Gam^-1 and phi(Gam)^-1 before gamma(Phi)^-1, so the
        first one that fails is the error raised."""
        ops = self._ops.get(degree)
        if ops is None:
            M = self.module
            L, R = (M.Phi, M.Gam), (None, None)
            if self.kind == "adjoint":
                R = (M.Phi.inv(), M.Gam.inv())
            elif self.kind == "framed" and degree == 0:
                L = (M.Phi.inv(), M.Gam.inv())
            elif self.kind == "framed":
                L_gam = M.Gam.apply_phi().inv()
                L = (M.Phi.apply_gamma().inv(), L_gam)
            ops = self._ops[degree] = ((self.ring.phi, L[0], R[0]),
                                       (self.ring.gamma, L[1], R[1]))
        return ops

    def _block(self, ops, z):
        """The block with the given (op, L, R) at the matrix z."""
        op, L, R = ops
        if self.kind == "framed":
            return z.apply_op(op) - L * z
        x = L * z.apply_op(op)
        return (x if R is None else x * R) - z

    def d0(self, z):
        (z,) = z.parts
        return Cochain(1, tuple(self._block(ops, z)
                                for ops in self._block_ops(0)))

    def d1(self, xy):
        x, y = xy.parts
        phi_ops, gam_ops = self._block_ops(1)
        return Cochain(2, (self._block(gam_ops, x) -
                           self._block(phi_ops, y),))

    def d(self, c):
        return self.d0(c) if c.degree == 0 else self.d1(c)

    def is_cocycle(self, c):
        """True in degree 2, the top degree; in degree 1, whether d1(c)
        vanishes on its window."""
        if c.degree == 2:
            return True
        if c.degree != 1:
            raise ValueError("cocycle test applies to degree 1 or 2")
        return self.d1(c).parts[0].is_zero()

    # -- windowed coboundary search -------------------------------------------

    def _column_images(self, degree, z_lo, z_hi):
        """The images under d of the monomial cochains of `degree` on the
        exponents [z_lo, z_hi).

        Returns (keys, images): keys[t] = (part, i, j, k, s) names the
        cochain whose only nonzero entry is e_s * u^k at (i, j) of that
        part (e_s the s-th power-basis coordinate, the monomial known below
        the ring window as every cochain entry is), and images[t] lists
        the entries of d of that cochain in cochain order (part, row,
        column).

        They are formed by the series operations d uses, from one
        identity.  On a cochain whose only nonzero entry is a monomial m,
        every sum d forms has at most one term that is not a product with
        a zero entry, and those zero terms are the ones d forms on the
        zero cochain.  So d(m) = d(0) + (the terms that involve m), window
        for window: a zero addend only cuts the sum at its window, and the
        zero term that a term with m stands in for is known at least as
        far as that term.  d(0) is formed by `_zero_image` and carries
        the window of every zero term; the terms with m come from
        `_block_images`.  A monomial past the ring window raises
        EmptyWindow as its series does, and e_s * u^W is the zero series,
        whose image is d(0).

        The complex keeps the images per (degree, z_lo, z_hi): a search
        tries several exponent ranges, and every search on the complex
        reuses them."""
        key = (degree, z_lo, z_hi)
        if key in self._images:
            return self._images[key]
        ring, f = self.ring, self.ring.base.f
        nr, nc = self.part_shape()
        keys = [(part, i, j, k, s) for part in range(self.n_parts(degree))
                for i in range(nr) for j in range(nc)
                for k in range(z_lo, z_hi) for s in range(f)]
        images = []
        if keys:
            zero = self._zero_image(degree)
            units = [tuple(int(t == s) for t in range(f)) for s in range(f)]
            monos = [ring.series({k: e}) for k in range(z_lo, z_hi)
                     for e in units]
            phi_ops, gam_ops = self._block_ops(degree)
            if degree == 0:
                # d0(z) = (B_phi(z), B_gamma(z))
                size = nr * nc
                images = [x + y for x, y in zip(
                    self._block_images(phi_ops, 1, zero[:size], monos),
                    self._block_images(gam_ops, 1, zero[size:], monos))]
            else:
                # d1(x, y) = B_gamma(x) - B_phi(y)
                images = (self._block_images(gam_ops, 1, zero, monos) +
                          self._block_images(phi_ops, -1, zero, monos))
        self._images[key] = keys, images
        return keys, images

    def _zero_image(self, degree):
        """The entries of d of the zero cochain of `degree`, in cochain
        order."""
        nr, nc = self.part_shape()
        z = Cochain(degree, tuple(SeriesMatrix.zero(self.ring, nr, nc)
                                  for _ in range(self.n_parts(degree))))
        return _entries(self.d(z))

    def _block_images(self, ops, sign, zero, monos):
        """zero + sign * B(c) for the block B with the given (op, L, R)
        (see `_block_ops`) at every cochain c whose only nonzero entry is
        a monomial m of monos: the entries of that sum in row-major order,
        for each position (i, j) of m and each m, in that order.  `zero`
        lists the entries of d(0) that B contributes to.

        Every entry of B(c) has one term with m, a product that d forms
        too: F[r][i] * op(m) with F = sign * L in the plain and adjoint
        kinds, F[r][i] * m with F = -sign * L in the framed kind.  The
        diagonal entry has one more, -sign * m (sign * op(m) in the
        framed kind).  So the sign is taken once, on L.  Every product is
        formed by the series product, as d forms it; those with m take its
        monomial shortcut.  In the adjoint kind (L * op(c)) * R multiplies
        by R the entry (L * op(c))[r][j], which is F[r][i] * op(m) plus
        zero terms; so that product is cut first, by adding
        (L * op(0))[r][0], as d's sum cuts it."""
        op, L, R = ops
        n, T = self.n, len(monos)
        op_monos = [op.apply(m) for m in monos]
        if self.kind == "framed":
            # B(c) = op(c) - L * c
            F, diag, ms = (-L if sign > 0 else L), op_monos, monos
        else:
            # B(c) = (L * op(c)) * R - c
            F, diag, ms = (L if sign > 0 else -L), monos, op_monos
        # left[i][r][t] = F[r][i] * ms[t]
        left = [[[F.rows[r][i] * m for m in ms] for r in range(n)]
                for i in range(n)]
        sub = (sign > 0) != (self.kind == "framed")
        if R is None:
            nc = 1

            def terms(i, j, t):
                return [x[t] for x in left[i]]
        else:
            nc = n
            op0 = SeriesMatrix.zero(self.ring, n, 1).apply_op(op)
            lop0 = (L * op0).rows
            cut = [lop0[r][0] + x for i in range(n) for r in range(n)
                   for x in left[i][r]]
            # right[j][c][(i * n + r) * T + t] = cut[i][r][t] * R[j][c]
            right = [[[x * R.rows[j][c] for x in cut] for c in range(n)]
                     for j in range(n)]

            def terms(i, j, t):
                return [right[j][c][(i * n + r) * T + t]
                        for r in range(n) for c in range(n)]
        images = []
        for i in range(n):
            for j in range(nc):
                at = i * nc + j
                for t, m in enumerate(diag):
                    image = [x + z for z, x in zip(zero, terms(i, j, t))]
                    image[at] = image[at] - m if sub else image[at] + m
                    images.append(image)
        return images

    def _windowed_system(self, target, z_lo, z_hi):
        """The linear system d(z) = target for z a combination of the
        monomial cochains supported on exponents [z_lo, z_hi).

        Returns (keys, cuts, A, rhs): column t of A is the image of the
        monomial cochain keys[t] (see `_column_images`), and the
        equations are the coefficients of each target entry from a common
        floor up to its cutoff, cuts listing them in cochain order.  The
        cutoff of an entry is the least window among the target entry and
        the image entries at its position; the floor is the least nonzero
        image exponent, or z_lo when that is lower."""
        degree = target.degree - 1
        keys, images = self._column_images(degree, z_lo, z_hi)
        entries = _entries(target)
        cuts = [e.hi for e in entries]
        for im in images:
            cuts = [min(h, e.hi) for h, e in zip(cuts, im)]
        # the equation floor must cover every exact image coefficient,
        # or a spurious solution can hide uncancelled terms below it
        eq_lo = min([z_lo] + [e.lo for im in images for e in im
                              if not e.is_zero()])
        rhs = _window_coords(entries, eq_lo, cuts)
        cols = [_window_coords(im, eq_lo, cuts) for im in images]
        A = [list(row) for row in zip(*cols)] if cols else [[] for _ in rhs]
        return keys, cuts, A, rhs

    def _attempt_coboundary(self, c, z_lo, z_hi):
        keys, cuts, A, rhs = self._windowed_system(c, z_lo, z_hi)
        base = self.ring.base
        sol = solve_mod_prime_power(A, rhs, base.p, base.a)
        if sol is None:
            return CoboundaryResult(False)
        z = self._combination(c.degree - 1, keys, sol)
        for dz, x, h in zip(_entries(self.d(z)), _entries(c), cuts):
            r = dz - x
            if r.hi < h or not r.truncate(h).is_zero():
                return CoboundaryResult(False)
        return CoboundaryResult(True, witness=z, sub_window=min(cuts))

    def _combination(self, degree, keys, sol):
        """The cochain sum of sol[t] times the monomial cochain keys[t]."""
        ring, base = self.ring, self.ring.base
        W, q, f = ring.window, base.q, base.f
        terms = {}
        for coeff, (part, i, j, k, s) in zip(sol, keys):
            coeff %= q
            if coeff:
                terms.setdefault((part, i, j), {}).setdefault(
                    k, [0] * f)[s] = coeff
        nr, nc = self.part_shape()
        return Cochain(degree, tuple(
            SeriesMatrix(ring, [[LaurentSeries.from_terms(
                base, terms.get((part, i, j), {}), W) for j in range(nc)]
                for i in range(nr)])
            for part in range(self.n_parts(degree))))

    def try_coboundary(self, c, depth=4):
        """Search for z with d(z) = c, the unknown pole widened step by
        step down to `depth` below the lowest exponent of c.

        Shallower unknowns keep the per-entry equation windows high, so
        the search starts there and only deepens when no witness is
        found.  The unknown z first stops below the smallest window of
        any entry of c.  A witness can have terms above that, up to the
        equation cutoffs of the other entries, so when every depth misses
        the depths are tried once more with z reaching up to the largest
        entry window (at most the ring window).  A Found witness
        certifies d(z) = c on the reported sub-window (the smallest
        per-entry exact range of the linear system); a miss,
        CoboundaryResult(False), is inconclusive, never a vanishing
        disproof."""
        if c.degree not in (1, 2):
            raise ValueError("coboundary search applies in degree 1 or 2")
        entries = _entries(c)
        exps = [e.lo for e in entries if not e.is_zero()]
        lo_c = min(exps) if exps else 0
        hi_c = min(e.hi for e in entries)
        hi_top = min(max(e.hi for e in entries), self.ring.window)
        for z_hi in (hi_c, hi_top) if hi_top > hi_c else (hi_c,):
            for d_try in range(depth + 1):
                res = self._attempt_coboundary(c, min(lo_c, 0) - d_try, z_hi)
                if res.found:
                    return res
        return CoboundaryResult(False)


def _window_coords(entries, lo, cuts):
    """The flat coordinates of each series of entries on the exponents
    [lo, cut), concatenated."""
    out = []
    for x, h in zip(entries, cuts):
        out += x.span(lo, h)
    return out


# -- extensions by the trivial rank-1 module ----------------------------------


def _ext_blocks(complex_, xy):
    """X = [[Phi, Phi*x],[0,1]] and Y = [[Gam, Gam*y],[0,1]] for the
    cochain xy = (x, y) of columns."""
    x, y = xy.parts
    M, ring, n = complex_.module, complex_.ring, complex_.n
    blocks = []
    for L, v in ((M.Phi, M.Phi * x), (M.Gam, M.Gam * y)):
        rows = [list(L.rows[i]) + [v.entry(i, 0)] for i in range(n)]
        rows.append([ring.zero()] * n + [ring.one()])
        blocks.append(SeriesMatrix(ring, rows))
    return tuple(blocks)


def ext_from_cocycle(complex_, xy):
    """The blocks X, Y of the extension of the trivial rank-1 module by
    the framed 1-cocycle xy (see `_ext_blocks`)."""
    if complex_.kind != "framed":
        raise ValueError("extensions live over the framed complex")
    if not complex_.is_cocycle(xy):
        raise NotACocycle("the pair (x, y) is not a framed 1-cocycle")
    return _ext_blocks(complex_, xy)


def ext_residual(complex_, xy):
    """X*phi(Y) - Y*gamma(X) for the blocks built from any (x, y); its
    top-right column equals -Phi*phi(Gam)*d1(x, y)."""
    X, Y = _ext_blocks(complex_, xy)
    return X * Y.apply_phi() - Y * X.apply_gamma()


# -- dual numbers -------------------------------------------------------------


class DualMatrix:
    """A matrix over A[eps], eps^2 = 0: a (main, eps) pair."""

    def __init__(self, main, eps=None):
        self.main = main
        self.eps = (SeriesMatrix.zero(main.ring, main.nrows, main.ncols)
                    if eps is None else eps)

    def __mul__(self, other):
        return DualMatrix(self.main * other.main,
                          self.main * other.eps + self.eps * other.main)

    def __sub__(self, other):
        return DualMatrix(self.main - other.main, self.eps - other.eps)

    def inv(self):
        mi = self.main.inv()
        return DualMatrix(mi, -(mi * self.eps * mi))

    def apply_phi(self):
        return DualMatrix(self.main.apply_phi(), self.eps.apply_phi())

    def apply_gamma(self):
        return DualMatrix(self.main.apply_gamma(), self.eps.apply_gamma())

    def is_zero(self):
        return self.main.is_zero() and self.eps.is_zero()


def lift_dual_numbers(M, xy, require_cocycle=True):
    """The lift ((1 + eps*X)Phi, (1 + eps*Y)Gam) over A[eps].

    Valid iff (X, Y) is an adjoint 1-cocycle; the commutation residual's
    eps-part equals -d1_adjoint(X, Y) * Phi * phi(Gam).
    """
    x, y = xy.parts
    Phi_t = DualMatrix(M.Phi, x * M.Phi)
    Gam_t = DualMatrix(M.Gam, y * M.Gam)
    if require_cocycle:
        resid = commutation_residual(Phi_t, Gam_t)
        if not resid.is_zero():
            raise NotACocycle("(X, Y) is not an adjoint 1-cocycle",)
    return Phi_t, Gam_t


def obstruction(Mbar, Phi_t, Gam_t, pattern=None):
    """o = Phi~*phi(Gam~)*(Gam~*gamma(Phi~))^-1 - 1, an eps-valued
    degree-2 adjoint cochain; NotALift if the main parts differ from
    Mbar or the optional subgroup pattern is violated."""
    if not (Phi_t.main - Mbar.Phi).is_zero() or \
            not (Gam_t.main - Mbar.Gam).is_zero():
        raise NotALift("lifts do not reduce to the given module")
    one = DualMatrix(SeriesMatrix.identity(Mbar.ring, Mbar.n))
    o = (Phi_t * Gam_t.apply_phi()) * (Gam_t * Phi_t.apply_gamma()).inv() - one
    if not o.main.is_zero():
        raise NotALift("reductions of the lifts do not commute")
    if pattern is not None and not pattern_ok(o.eps, pattern):
        raise NotALift("obstruction leaves the subgroup pattern")
    return o.eps

