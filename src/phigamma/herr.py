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

import math

from .errors import EmptyWindow, NotACocycle, NotALift
from .framed import Cochain, pattern_ok
from .laurent import LaurentSeries, mul_each
from .linalg import solve_mod_prime_power
from .matrices import SeriesMatrix
from .verdicts import fails, holds

KINDS = ("plain", "framed", "adjoint")


class CoboundaryResult:
    def __init__(self, found, witness=None, detail="", sub_window=None):
        self.found = found
        self.witness = witness
        self.detail = detail
        self.sub_window = sub_window


class HerrComplex:
    def __init__(self, module, kind="plain"):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        self.module = module
        self.ring = module.ring
        self.kind = kind
        self.n = module.n
        self._ops = {}
        self._block_pairs = {}

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

        The complex keeps them per degree.  The inverses are taken in one
        order, Phi^-1 before Gam^-1 and phi(Gam)^-1 before gamma(Phi)^-1,
        so the first one that fails is the error raised."""
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
        if isinstance(z, Cochain):
            (z,) = z.parts
        return Cochain(1, tuple(self._block(ops, z)
                                for ops in self._block_ops(0)))

    def d1(self, xy):
        x, y = xy.parts if isinstance(xy, Cochain) else xy
        phi_ops, gam_ops = self._block_ops(1)
        return Cochain(2, (self._block(gam_ops, x) -
                           self._block(phi_ops, y),))

    def d(self, c):
        return self.d0(c) if c.degree == 0 else self.d1(c)

    def is_cocycle(self, c):
        if c.degree == 2:
            return holds("is-cocycle", "top degree")
        if c.degree != 1:
            raise ValueError("cocycle test applies to degree 1 or 2")
        resid = self.d1(c).parts[0]
        if resid.is_zero():
            return holds("is-cocycle", window=resid.hi)
        return fails("is-cocycle", "d1 does not vanish", window=resid.hi)

    # -- windowed coboundary search -------------------------------------------

    def _blocks(self, degree, k_lo, k_hi):
        """The phi and gamma blocks of the differential out of `degree`
        (see `_block_ops`), for the monomials e_s * u^k with k in
        [k_lo, k_hi).

        The complex keeps the blocks per (degree, k_lo, k_hi): a search
        tries several exponent ranges, and every search on the complex
        reuses them."""
        key = (degree, k_lo, k_hi)
        if key not in self._block_pairs:
            self._block_pairs[key] = tuple(
                _Block(self, op, L, R, k_lo, k_hi)
                for op, L, R in self._block_ops(degree))
        return self._block_pairs[key]

    def _column_images(self, degree, z_lo, z_hi):
        """The images under d of the monomial cochains of `degree` on the
        exponents [z_lo, z_hi), described without forming them.

        Returns (keys, images): keys[t] = (part, i, j, k, s) names the
        cochain whose only nonzero entry is e_s * u^k at (i, j) of that
        part (e_s the s-th power-basis coordinate), and images[t] lists
        the entries of its image in cochain order (part, row, column).
        Each entry is a tuple (lo, hi, x_lo, xs, y_lo, ys): the entry is
        known on [lo, hi) and lo is its lowest nonzero exponent (lo == hi
        when it is zero); on that window it is x - y, where x and y have
        the flat coordinates xs and ys from the exponents x_lo and y_lo
        on (ys is None or empty when y is zero).  In the columns of
        part 1 of a degree-1 cochain the entry is y - x instead, since
        d1(x, y) = B_gamma(x) - B_phi(y)."""
        ring, f = self.ring, self.ring.base.f
        W = ring.window
        nr, nc = self.part_shape()
        keys = [(part, i, j, k, s) for part in range(self.n_parts(degree))
                for i in range(nr) for j in range(nc)
                for k in range(z_lo, z_hi) for s in range(f)]
        if not keys:
            return keys, []
        phi_b, gam_b = self._blocks(degree, z_lo, min(z_hi, W))
        if degree == 0:
            zero_his = phi_b.zero + gam_b.zero
        else:
            zero_his = [min(a, b) for a, b in zip(gam_b.zero, phi_b.zero)]
        if z_hi > W + 1:
            # the monomial e_s * u^k with k > W has an empty window
            raise EmptyWindow(f"window [{max(z_lo, W + 1)}, {W}) is empty")
        zero_image = [(h, h, h, [], 0, None) for h in zero_his]
        images = []
        for part, i, j, k, s in keys:
            if k == W:
                # e_s * u^W lies at the window edge: the zero cochain
                images.append(zero_image)
            elif degree == 0:
                images.append(phi_b.image(i, j, k, s) +
                              gam_b.image(i, j, k, s))
            else:
                block, cuts = (gam_b, phi_b.zero) if part == 0 else \
                    (phi_b, gam_b.zero)
                images.append([_clip_entry(e, h) for e, h in
                               zip(block.image(i, j, k, s), cuts)])
        return keys, images

    def _windowed_system(self, target, z_lo, z_hi):
        """The linear system d(z) = target for z a combination of the
        monomial cochains supported on exponents [z_lo, z_hi).

        Returns (keys, hi_map, A, rhs): column t of A is the image of the
        monomial cochain keys[t] (see `_column_images`), and the
        equations are the coefficients of each target entry from a common
        floor up to its cutoff in hi_map.

        The images are built by semilinearity, without forming the
        cochains or applying d to them.  phi(e_s u^k) is frob(e_s) *
        phi(u)^k, with the power from the operator's cache, and likewise
        for gamma; it is formed once per (k, s) for the whole system, and
        its products with one matrix entry are formed together, in one
        kernel call (`mul_each`).  Each image entry is x - y: x is the
        term the operator forms, y the monomial e_s u^k itself or, in the
        framed kind, L * e_s u^k, a shifted slice of the product of an
        entry of L with e_s.  Its window is cut at the smallest window of
        all the terms d forms there, zero terms included, and its lowest
        exponent follows the rule of series subtraction; both come from
        the windows and coordinates of x and y alone.  A zero term's
        window follows from the product rule alone: X * 0 with the zero
        known below h is known below h + lo(X), and op(0) is known below
        op's tail guard.  Every product has the factors d multiplies,
        associated as d does, e.g. (Phi[r][i] * phi(m)) * Phi^-1[j][c] in
        the adjoint kind; the product and its window rule are symmetric,
        so the order of the two factors in one product does not matter.
        So every entry, window and coefficient equals that of d on the
        monomial cochain.  The columns are then written from coordinate
        slices of x and y, and A is their transpose."""
        degree = target.degree - 1
        keys, images = self._column_images(degree, z_lo, z_hi)
        positions = [(p_idx, i, j) for p_idx, part in enumerate(target.parts)
                     for i in range(part.nrows) for j in range(part.ncols)]
        entries = [_entry(e) for part in target.parts for row in part.rows
                   for e in row]
        cuts = [e[1] for e in entries]
        for im in images:
            cuts = [min(h, e[1]) for h, e in zip(cuts, im)]
        hi_map = dict(zip(positions, cuts))
        # the equation floor must cover every exact image coefficient,
        # or a spurious solution can hide uncancelled terms below it
        eq_lo = min([z_lo] + [e[0] for im in images for e in im
                              if e[0] < e[1]])
        base = self.ring.base
        f, q = base.f, base.q
        rhs = _window_coords(entries, eq_lo, cuts, f, q)
        cols = []
        for key, im in zip(keys, images):
            col = _window_coords(im, eq_lo, cuts, f, q)
            if degree == 1 and key[0] == 1:
                col = [-v % q for v in col]
            cols.append(col)
        A = [list(row) for row in zip(*cols)] if cols else [[] for _ in rhs]
        return keys, hi_map, A, rhs

    def _attempt_coboundary(self, c, z_lo, z_hi):
        keys, hi_map, A, rhs = self._windowed_system(c, z_lo, z_hi)
        base = self.ring.base
        sol = solve_mod_prime_power(A, rhs, base.p, base.a)
        if sol is None:
            return CoboundaryResult(False, detail="no windowed solution")
        z = self._combination(c.degree - 1, keys, sol)
        diff = self.d(z)
        for p_idx, part in enumerate(diff.parts):
            for i in range(part.nrows):
                for j in range(part.ncols):
                    h = hi_map[(p_idx, i, j)]
                    r = part.entry(i, j) - c.parts[p_idx].entry(i, j)
                    if r.hi < h or not r.truncate(h).is_zero():
                        return CoboundaryResult(
                            False,
                            detail="windowed solution failed re-verification")
        return CoboundaryResult(True, witness=z,
                                sub_window=min(hi_map.values()))

    def _combination(self, degree, keys, sol):
        """The cochain sum of sol[t] times the monomial cochain keys[t]."""
        ring, base = self.ring, self.ring.base
        W, q, f = ring.window, base.q, base.f
        terms = {}
        for coeff, (part, i, j, k, s) in zip(sol, keys):
            coeff %= q
            if coeff and k < W:
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
        per-entry exact range of the linear system); a miss is
        inconclusive, never a vanishing disproof."""
        if c.degree not in (1, 2):
            raise ValueError("coboundary search applies in degree 1 or 2")
        entries = [e for part in c.parts for row in part.rows for e in row]
        exps = [e.lo for e in entries if not e.is_zero()]
        lo_c = min(exps) if exps else 0
        hi_c = min(e.hi for e in entries)
        hi_top = min(max(e.hi for e in entries), self.ring.window)
        last = CoboundaryResult(False, detail="no windowed solution")
        for z_hi in (hi_c, hi_top) if hi_top > hi_c else (hi_c,):
            for d_try in range(depth + 1):
                res = self._attempt_coboundary(c, min(lo_c, 0) - d_try, z_hi)
                if res.found:
                    return res
                last = res
        return last


def _clip_entry(entry, h):
    """An image entry (see `HerrComplex._column_images`) with its window
    cut at h; the lowest exponent moves up to h when the cut leaves no
    nonzero term."""
    lo, hi, x_lo, xs, y_lo, ys = entry
    if hi <= h:
        return entry
    return (min(lo, h), h, x_lo, xs, y_lo, ys)


def _clip(x, hi):
    """x with its window cut at hi (x itself when it ends below hi)."""
    return x if x.hi <= hi else x.truncate(hi)


def _entry(x):
    """The series x as an image entry (see `_column_images`)."""
    return (x.lo, x.hi, x.lo, x._flat, 0, None)


def _difference(f, hi, x_lo, xs, y_lo, ys):
    """The image entry x - y on the window ending at hi, for x and y
    given by the exponents of their lowest terms and their flat
    coordinates, both known at least up to hi.

    Its lowest exponent is the lower of the two lowest terms, unless they
    sit at one exponent; then the coefficients are compared upwards from
    there until they differ, as the subtraction of the series would find
    it."""
    if not ys:
        lo = x_lo
    elif not xs:
        lo = y_lo
    elif x_lo != y_lo:
        lo = min(x_lo, y_lo)
    else:
        lo = hi
        n = (hi - x_lo) * f
        m = min(n, len(ys))
        for i in range(0, m, f):
            if xs[i:i + f] != ys[i:i + f]:
                lo = x_lo + i // f
                break
        else:
            # y is zero above its last coordinate
            for i in range(m, n):
                if xs[i]:
                    lo = x_lo + i // f
                    break
    return (min(lo, hi), hi, x_lo, xs, y_lo, ys)


def _window_coords(entries, lo, cuts, f, q):
    """The flat coordinates of each entry x - y on the exponents
    [lo, cut), concatenated; zeros below a term's lowest exponent.  The
    entries are tuples (lo, hi, x_lo, xs, y_lo, ys) as in
    `HerrComplex._column_images`, each known up to its cut."""
    out = []
    for (_, _, x_lo, xs, y_lo, ys), h in zip(entries, cuts):
        if h <= lo:
            continue
        if x_lo >= h:
            seg = [0] * ((h - lo) * f)
        elif x_lo >= lo:
            seg = [0] * ((x_lo - lo) * f) + xs[:(h - x_lo) * f]
        else:
            seg = xs[(lo - x_lo) * f:(h - x_lo) * f]
        if ys:
            a, b = max(y_lo, lo), min(h, y_lo + len(ys) // f)
            if a < b:
                i, j, n = (a - lo) * f, (a - y_lo) * f, (b - a) * f
                seg[i:i + n] = [(u - v) % q for u, v in
                                zip(seg[i:i + n], ys[j:j + n])]
        out += seg
    return out


class _Block:
    """One semilinear block B of a Herr differential, evaluated on the
    cochains with a single monomial entry.

    B is given by its (op, L, R) from `HerrComplex._block_ops`.  `zero`
    lists the window of each entry of B(0), the zero cochain with window
    the ring's; `image` gives the entries of B at a monomial cochain, as
    the tuples of `HerrComplex._column_images`.
    Both follow the series window rules term by term, as the matrix
    expression does (see HerrComplex._windowed_system).

    The op images of the monomials e_s * u^k, k in [k_lo, k_hi), and
    their products with the entries of L and R are formed up front, one
    kernel call (`mul_each`) per matrix entry; in the framed kind the
    products L[r][i] * e_s are formed once, and L[r][i] * e_s * u^k is
    their shift by k."""

    def __init__(self, complex_, op, L, R, k_lo, k_hi):
        ring = complex_.ring
        self.kind = complex_.kind
        base = ring.base
        self.W = W = ring.window
        self.f = f = base.f
        self.k_lo = k_lo
        self.n = n = complex_.n
        ks = [(k, s) for k in range(k_lo, k_hi) for s in range(f)]
        # the coordinates of e_s, as the flat list of e_s * u^k from k on
        self.basis = [list(e) for e in _unit_vectors(f)]
        # op(0) is known below the tail guard of the substitution, and
        # op(e_s * u^k) = frob(e_s) * op(u)^k below it and the power's hi
        self.tg = tg = op.apply(ring.zero()).hi
        power = op.coeff_frob_power
        units = [base.frob(e, power) if power % f else e
                 for e in _unit_vectors(f)]
        op_images = [_clip(_times_unit(op.image_power(k), units[s]), tg)
                     for k, s in ks]
        Llo = [[e.lo for e in row] for row in L.rows]
        if self.kind == "framed":
            self.op_images = op_images
            # L * z with the zero entry of window W: known below W + lo(L)
            self.cut = [[_min_except([W + x for x in Llo[r]], i)
                         for i in range(n)] for r in range(n)]
            self.zero = [min([tg] + [W + x for x in Llo[r]])
                         for r in range(n)]
            # Ls[r][i][s] = L[r][i] * e_s
            self.Ls = [[[_times_unit(L.rows[r][i], e)
                         for e in _unit_vectors(f)] for i in range(n)]
                       for r in range(n)]
            return
        # L * op(z) with the zero entry op(0): known below tg + lo(L)
        act = [[tg + x for x in Llo[r]] for r in range(n)]
        if self.kind == "plain":
            cut = [[min(W, _min_except(act[r], i)) for i in range(n)]
                   for r in range(n)]
            self.zero = [min([W] + act[r]) for r in range(n)]
        else:
            cut = [[_min_except(act[r], i) for i in range(n)]
                   for r in range(n)]
        # left[i][r][t] = L[r][i] * op(monomial t), cut at row r's zeros
        left = [[[_clip(x, cut[r][i])
                  for x in mul_each(L.rows[r][i], op_images)]
                 for r in range(n)] for i in range(n)]
        if self.kind == "plain":
            self.left = [[[_entry(x) for x in row] for row in col]
                         for col in left]
            return
        # adjoint: column l of L * op(z) is zero unless l = j, known
        # below h1[r] in row r; times R adds lo(R[l][c])
        h1 = [min(act[r]) for r in range(n)]
        Rlo = [[e.lo for e in row] for row in R.rows]
        h2 = [[[h1[r] + Rlo[l][c] for l in range(n)] for c in range(n)]
              for r in range(n)]
        self.zero = [min([W] + h2[r][c]) for r in range(n) for c in range(n)]
        # right[j][c][i][r][t] = left[i][r][t] * R[j][c], cut at the
        # windows of the zero terms of entry (r, c)
        self.right = [[None] * n for _ in range(n)]
        for j in range(n):
            for c in range(n):
                cuts = [min(W, _min_except(h2[r][c], j)) for r in range(n)]
                prods = iter(mul_each(R.rows[j][c], [
                    x for col in left for row in col for x in row]))
                self.right[j][c] = [[[_entry(_clip(next(prods), cuts[r]))
                                      for _ in ks]
                                     for r in range(n)] for _ in range(n)]

    def image(self, i, j, k, s):
        """The entries of B at the cochain whose only nonzero entry is the
        monomial e_s * u^k at (i, j), in row-major order."""
        n, f = self.n, self.f
        t = (k - self.k_lo) * f + s
        if self.kind == "framed":
            # op(m) in row i, zero elsewhere, minus the column L[., i] * m
            out = []
            for r in range(n):
                cut = self.cut[r][i]
                if r == i:
                    x = self.op_images[t]
                    x_lo, xs, x_hi = x.lo, x._flat, min(x.hi, cut)
                else:
                    x_lo = x_hi = min(self.tg, cut)
                    xs = []
                y = self.Ls[r][i][s]
                out.append(_difference(
                    f, min(x_hi, y.hi + k, self.W + y.lo),
                    x_lo, xs, y.lo + k, y._flat))
            return out
        if self.kind == "plain":
            out = [row[t] for row in self.left[i]]
            d = i
        else:
            out = [self.right[j][c][i][r][t]
                   for r in range(n) for c in range(n)]
            d = i * n + j
        # minus the monomial itself on the diagonal
        _, hi, x_lo, xs, _, _ = out[d]
        out[d] = _difference(f, min(hi, self.W), x_lo, xs, k, self.basis[s])
        return out


def _min_except(values, i):
    """The least of values other than values[i] (inf when there is none)."""
    return min(values[:i] + values[i + 1:], default=math.inf)


def _times_unit(x, c):
    """x scaled by the unit c, skipping the copy when c is 1."""
    return x if c == x.ring.one else x.scale(c)


def _unit_vectors(f):
    """The power-basis coordinate vectors e_0, ..., e_(f-1)."""
    return [tuple(int(t == s) for t in range(f)) for s in range(f)]


# -- extensions by the trivial rank-1 module ----------------------------------


def _ext_blocks(complex_, xy):
    """X = [[Phi, Phi*x],[0,1]] and Y = [[Gam, Gam*y],[0,1]] for the
    pair xy = (x, y) of columns."""
    x, y = xy.parts if isinstance(xy, Cochain) else xy
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
    check = complex_.is_cocycle(
        xy if isinstance(xy, Cochain) else Cochain(1, tuple(xy)))
    if check.status != "holds":
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


def dual_commutation_residual(Phi, Gam):
    return Phi * Gam.apply_phi() - Gam * Phi.apply_gamma()


def lift_dual_numbers(M, xy, require_cocycle=True):
    """The lift ((1 + eps*X)Phi, (1 + eps*Y)Gam) over A[eps].

    Valid iff (X, Y) is an adjoint 1-cocycle; the commutation residual's
    eps-part equals -d1_adjoint(X, Y) * Phi * phi(Gam).
    """
    x, y = xy.parts if isinstance(xy, Cochain) else xy
    Phi_t = DualMatrix(M.Phi, x * M.Phi)
    Gam_t = DualMatrix(M.Gam, y * M.Gam)
    if require_cocycle:
        resid = dual_commutation_residual(Phi_t, Gam_t)
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

