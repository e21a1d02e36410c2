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

from dataclasses import dataclass

from .errors import (AveragingUnavailable, NotACocycle, NotALift,
                     NotGaloisCompatible)
from .framed import FramedModule, pattern_ok
from .laurent import LaurentSeries
from .linalg import length_of_row_space, solve_mod_prime_power
from .matrices import SeriesMatrix
from .period import project_to_base
from .verdicts import fails, holds, inconclusive

KINDS = ("plain", "framed", "adjoint")


@dataclass
class Cochain:
    degree: int
    parts: tuple

    def __iter__(self):
        return iter(self.parts)

    def to_json(self):
        return {"degree": self.degree,
                "parts": [p.to_json() for p in self.parts]}


@dataclass
class CoboundaryResult:
    found: bool
    witness: object = None
    detail: str = ""
    sub_window: int | None = None


class HerrComplex:
    def __init__(self, module, kind="plain"):
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        self.module = module
        self.ring = module.ring
        self.kind = kind
        self.n = module.n
        self._Phi_inv = None
        self._Gam_inv = None
        self._phi_Gam_inv = None
        self._gam_Phi_inv = None

    # -- cached derived matrices -------------------------------------------

    def _inverses(self):
        if self._Phi_inv is None:
            self._Phi_inv = self.module.Phi.inv()
            self._Gam_inv = self.module.Gam.inv()
        return self._Phi_inv, self._Gam_inv

    def _framed_ops(self):
        if self._phi_Gam_inv is None:
            self._phi_Gam_inv = self.module.Gam.apply_phi().inv()
            self._gam_Phi_inv = self.module.Phi.apply_gamma().inv()
        return self._phi_Gam_inv, self._gam_Phi_inv

    # -- cochain shapes -------------------------------------------------------

    def part_shape(self):
        return (self.n, self.n) if self.kind == "adjoint" else (self.n, 1)

    def n_parts(self, degree):
        return {0: 1, 1: 2, 2: 1}[degree]

    def zero_cochain(self, degree, hi=None):
        r, c = self.part_shape()
        return Cochain(degree, tuple(
            SeriesMatrix.zero(self.ring, r, c, hi)
            for _ in range(self.n_parts(degree))))

    def cochain(self, degree, *parts):
        return Cochain(degree, tuple(parts))

    # -- differentials ----------------------------------------------------------

    def _act_phi(self, z):
        M = self.module
        if self.kind == "plain":
            return M.Phi * z.apply_phi()
        if self.kind == "adjoint":
            Phi_inv, _ = self._inverses()
            return M.Phi * z.apply_phi() * Phi_inv
        raise AssertionError

    def _act_gamma(self, z):
        M = self.module
        if self.kind == "plain":
            return M.Gam * z.apply_gamma()
        if self.kind == "adjoint":
            _, Gam_inv = self._inverses()
            return M.Gam * z.apply_gamma() * Gam_inv
        raise AssertionError

    def d0(self, z):
        if isinstance(z, Cochain):
            (z,) = z.parts
        if self.kind == "framed":
            Phi_inv, Gam_inv = self._inverses()
            return Cochain(1, (z.apply_phi() - Phi_inv * z,
                               z.apply_gamma() - Gam_inv * z))
        return Cochain(1, (self._act_phi(z) - z, self._act_gamma(z) - z))

    def d1(self, xy):
        x, y = xy.parts if isinstance(xy, Cochain) else xy
        if self.kind == "framed":
            pGi, gPi = self._framed_ops()
            out = (x.apply_gamma() - pGi * x) + (gPi * y - y.apply_phi())
            return Cochain(2, (out,))
        out = (self._act_gamma(x) - x) - (self._act_phi(y) - y)
        return Cochain(2, (out,))

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

    def _basis(self, degree, lo, hi):
        """All monomial cochains supported on exponents [lo, hi)."""
        r, c = self.part_shape()
        base = self.ring.base
        out = []
        for part in range(self.n_parts(degree)):
            for i in range(r):
                for j in range(c):
                    for k in range(lo, hi):
                        for s in range(base.f):
                            coeff = tuple(1 if t == s else 0
                                          for t in range(base.f))
                            parts = [SeriesMatrix.zero(self.ring, r, c)
                                     for _ in range(self.n_parts(degree))]
                            rows = [[e for e in row]
                                    for row in parts[part].rows]
                            rows[i][j] = LaurentSeries.from_terms(
                                base, {k: coeff}, self.ring.window)
                            parts[part] = SeriesMatrix(self.ring, rows)
                            out.append(Cochain(degree, tuple(parts)))
        return out

    def _entry_windows(self, c, images):
        """Per-entry equation cutoff: the exponent below which every
        involved series (target and all basis images) is exact."""
        hi = {}
        for p_idx, part in enumerate(c.parts):
            for i in range(part.nrows):
                for j in range(part.ncols):
                    h = part.entry(i, j).hi
                    for im in images:
                        h = min(h, im.parts[p_idx].entry(i, j).hi)
                    hi[(p_idx, i, j)] = h
        return hi

    def _vectorize(self, c, lo, hi_map):
        base = self.ring.base
        vec = []
        for p_idx, part in enumerate(c.parts):
            for i in range(part.nrows):
                for j in range(part.ncols):
                    e = part.entry(i, j)
                    for k in range(lo, hi_map[(p_idx, i, j)]):
                        vec.extend(e.coeff(k) if k < e.hi else base.zero)
        return vec

    def _windowed_system(self, target, z_lo, z_hi):
        """The linear system d(z) = target for z a combination of the
        monomial cochains supported on exponents [z_lo, z_hi).

        Returns (basis, hi_map, A, rhs): column k of A is the image of
        basis[k], and the equations are the coefficients of each target
        entry from a common floor up to its cutoff in hi_map."""
        basis = self._basis(target.degree - 1, z_lo, z_hi)
        images = [self.d(b) for b in basis]
        hi_map = self._entry_windows(target, images)
        # the equation floor must cover every exact image coefficient,
        # or a spurious solution can hide uncancelled terms below it
        eq_lo = min([z_lo] +
                    [e.lo for im in images for part in im.parts
                     for row in part.rows for e in row if not e.is_zero()])
        cols = [self._vectorize(im, eq_lo, hi_map) for im in images]
        rhs = self._vectorize(target, eq_lo, hi_map)
        A = [[col[r] for col in cols] for r in range(len(rhs))]
        return basis, hi_map, A, rhs

    def _attempt_coboundary(self, c, z_lo, z_hi):
        basis, hi_map, A, rhs = self._windowed_system(c, z_lo, z_hi)
        base = self.ring.base
        sol = solve_mod_prime_power(A, rhs, base.p, base.a)
        if sol is None:
            return CoboundaryResult(False, detail="no windowed solution")
        z = self.zero_cochain(c.degree - 1)
        parts = list(z.parts)
        for coeff, b in zip(sol, basis):
            if coeff % base.q == 0:
                continue
            scaled = tuple(p.scale(base.from_int(coeff)) for p in b.parts)
            parts = [pa + pb for pa, pb in zip(parts, scaled)]
        z = Cochain(c.degree - 1, tuple(parts))
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

    def try_coboundary(self, c, depth=4):
        """Search for z with d(z) = c, the unknown pole widened step by
        step down to `depth` below the lowest exponent of c.

        Shallower unknowns keep the per-entry equation windows high, so
        the search starts there and only deepens when no witness is
        found.  A Found witness certifies d(z) = c on the reported
        sub-window (the smallest per-entry exact range of the linear
        system); a miss is inconclusive, never a vanishing disproof."""
        if c.degree not in (1, 2):
            raise ValueError("coboundary search applies in degree 1 or 2")
        exps = [e.lo for part in c.parts for row in part.rows
                for e in row if not e.is_zero()]
        lo_c = min(exps) if exps else 0
        hi_c = min(e.hi for part in c.parts for row in part.rows for e in row)
        last = CoboundaryResult(False, detail="no windowed solution")
        for d_try in range(depth + 1):
            res = self._attempt_coboundary(c, min(lo_c, 0) - d_try, hi_c)
            if res.found:
                return res
            last = res
        return last


# -- extensions by the trivial rank-1 module ----------------------------------


def ext_from_cocycle(complex_, xy):
    """Block matrices X = [[Phi, Phi*x],[0,1]], Y = [[Gam, Gam*y],[0,1]]."""
    if complex_.kind != "framed":
        raise ValueError("extensions live over the framed complex")
    C = complex_
    check = C.is_cocycle(xy if isinstance(xy, Cochain) else Cochain(1, tuple(xy)))
    if check.status != "holds":
        raise NotACocycle("the pair (x, y) is not a framed 1-cocycle")
    x, y = xy.parts if isinstance(xy, Cochain) else xy
    M = C.module
    ring = C.ring
    n = C.n
    px, py = M.Phi * x, M.Gam * y
    rows = []
    for i in range(n):
        rows.append(list(M.Phi.rows[i]) + [px.entry(i, 0)])
    rows.append([ring.zero()] * n + [ring.one()])
    X = SeriesMatrix(ring, rows)
    rows = []
    for i in range(n):
        rows.append(list(M.Gam.rows[i]) + [py.entry(i, 0)])
    rows.append([ring.zero()] * n + [ring.one()])
    Y = SeriesMatrix(ring, rows)
    return X, Y


def ext_residual(complex_, xy):
    """X*phi(Y) - Y*gamma(X) for the blocks built from any (x, y); its
    top-right column equals -Phi*phi(Gam)*d1(x, y)."""
    x, y = xy.parts if isinstance(xy, Cochain) else xy
    M = complex_.module
    ring = complex_.ring
    n = complex_.n
    px, py = M.Phi * x, M.Gam * y
    rows = [list(M.Phi.rows[i]) + [px.entry(i, 0)] for i in range(n)]
    rows.append([ring.zero()] * n + [ring.one()])
    X = SeriesMatrix(ring, rows)
    rows = [list(M.Gam.rows[i]) + [py.entry(i, 0)] for i in range(n)]
    rows.append([ring.zero()] * n + [ring.one()])
    Y = SeriesMatrix(ring, rows)
    return X * Y.apply_phi() - Y * X.apply_gamma()


def ext_is_split(complex_, xy, depth=4):
    """Split iff (x, y) is a coboundary; the conjugator is the unipotent
    block matrix built from the witness."""
    res = complex_.try_coboundary(
        xy if isinstance(xy, Cochain) else Cochain(1, tuple(xy)), depth)
    if not res.found:
        return res
    z = res.witness.parts[0]
    ring = complex_.ring
    n = complex_.n
    rows = [[ring.one() if i == j else ring.zero() for j in range(n)] +
            [z.entry(i, 0)] for i in range(n)]
    rows.append([ring.zero()] * n + [ring.one()])
    return CoboundaryResult(True, witness=SeriesMatrix(ring, rows))


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


# -- restriction, invariance, averaging ----------------------------------------


def restrict_to_E(ext_ring, cochain):
    """Coefficient inclusion of a parent-ring cochain into the extension."""
    if ext_ring.parent is None:
        return cochain
    _, _, embed_series = ext_ring.parent
    parts = tuple(SeriesMatrix(ext_ring, [[embed_series(e) for e in row]
                                          for row in part.rows])
                  for part in cochain.parts)
    return Cochain(cochain.degree, parts)


def check_invariance(ext_ring, cochain):
    for i, g in enumerate(ext_ring.galois.generators):
        word = ext_ring.galois.generator_word(i)
        for part in cochain.parts:
            moved = part.apply_galois(word)
            if not (moved - part).is_zero():
                return fails("galois-invariance",
                             f"{g.label} moves the cochain")
    return holds("galois-invariance")


def descend_cochain(ext_ring, cochain):
    """Express an invariant extension cochain in parent coordinates.

    Non-invariant input is first averaged over the group, which needs
    |Gal| invertible mod p."""
    if ext_ring.parent is None:
        return cochain
    if check_invariance(ext_ring, cochain).status != "holds":
        base = ext_ring.base
        order = ext_ring.galois.order
        if order % base.p == 0:
            raise AveragingUnavailable(
                "group order is divisible by p; no averaging projector")
        inv_order = base.inv(base.from_int(order))
        parts = []
        for part in cochain.parts:
            acc = SeriesMatrix.zero(ext_ring, part.nrows, part.ncols)
            for word in ext_ring.galois.elements():
                acc = acc + part.apply_galois(word)
            parts.append(acc.scale(inv_order))
        cochain = Cochain(cochain.degree, tuple(parts))
    parent_ring = ext_ring.parent[0]
    parts = tuple(
        SeriesMatrix(parent_ring, [[project_to_base(ext_ring, e)
                                    for e in row] for row in part.rows])
        for part in cochain.parts)
    return Cochain(cochain.degree, parts)


# -- windowed rank estimates ----------------------------------------------------


@dataclass
class CohomologyProfile:
    bounds: dict  # degree -> (lower, upper), lengths of Z/p-factors
    window: int
    span: int

    def to_json(self):
        return {"h": [{"deg": d, "lower": lo, "upper": up}
                      for d, (lo, up) in sorted(self.bounds.items())],
                "window": self.window, "span": self.span}


def estimate_h_ranks(complex_, span=6, depth=2):
    """Window-certified length bounds for h0, h1, h2 over Z/p^a.

    Upper bounds come from kernels/images of the differentials on
    cochains supported in [-depth, span); truncation can only inflate
    kernels and deflate images, and adding equations (larger window)
    shrinks the bounds monotonically.  Lower bounds are conservative:
    only exactly-certified constant fixed vectors count (degree 0).
    """
    base = complex_.ring.base
    if complex_.n == 0:
        return CohomologyProfile({0: (0, 0), 1: (0, 0), 2: (0, 0)},
                                 complex_.ring.window, span)
    lo_u, hi_u = -depth, span

    basis0, _, A0, _ = complex_._windowed_system(
        complex_.zero_cochain(1), lo_u, hi_u)
    basis1, _, A1, rhs1 = complex_._windowed_system(
        complex_.zero_cochain(2), lo_u, hi_u)
    p, a = base.p, base.a
    dim0 = a * len(basis0)
    ker0 = dim0 - length_of_row_space(A0, p, a)
    im0 = dim0 - ker0
    dim1 = a * len(basis1)
    ker1 = dim1 - length_of_row_space(A1, p, a)
    im1 = dim1 - ker1
    # exact lower bound in degree 0: constant vectors killed exactly
    consts = complex_._basis(0, 0, 1)
    exact = [b for b in consts
             if all(part.is_zero() for part in complex_.d0(b).parts)]
    lower0 = a * len(exact)
    h0_up = ker0
    h1_up = max(0, ker1 - im0)
    # top degree has no outgoing differential: cokernel of d1 on the
    # windowed target coordinates
    target_len = a * (len(rhs1) if basis1 else 0)
    h2_up = max(0, target_len - im1)
    bounds = {0: (min(lower0, h0_up), h0_up),
              1: (0, h1_up),
              2: (0, h2_up)}
    return CohomologyProfile(bounds, complex_.ring.window, span)
