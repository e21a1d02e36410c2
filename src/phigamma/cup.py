"""Higher cup products for parabolic lifting.

Setting: a block parabolic P of GL_n with Levi L and unipotent radical
U, filtered by the upper central series U_0 = 1 < U_1 < ... < U_{k-1} = U
(k = number of blocks).  In entry terms, with block distance
delta(r, c) = block(c) - block(r), the mask of U_i is {delta >= k - i}
and the central coordinates of U_i/U_{i-1} sit at delta = k - i exactly.
Arithmetic in the quotient P/U_j is matrix arithmetic followed by
zeroing the U_j mask.

The obstruction to lifting a framed module one step up the series is
measured by

    lambda(alpha, beta) = gamma(alpha)^-1 * beta^-1 * alpha * phi(beta),

which satisfies lambda = 1 + gamma(alpha)^-1 beta^-1 * R where R is the
commutation residual alpha*phi(beta) - beta*gamma(alpha); for lifts of a
valid module it is congruent to 1 modulo the central coordinates, and
its log (identity-minus at a central level) is a degree-2 cochain of the
framed complex for the adjoint action of the Levi parts.

Factorization identity (with ad_g(x) = g*x*g^-1, and Levi parts
commuting in the sense lambda(alpha_l, beta_l) = 1):

    lambda(alpha, beta) = gamma(alpha_u)^-1
                          * ad_{gamma(alpha_l)^-1}(beta_u^-1)
                          * ad_{phi(beta_l)^-1}(alpha_u)
                          * phi(beta_u)

and perturbing the lifts by central 1+z, 1+z' shifts the class by

    (-gamma + ad_{phi(beta_l)^-1})(z) + (phi - ad_{gamma(alpha_l)^-1})(z')
        = -d1(z, z')

in the adjoint framed complex, which is what makes the class well
defined up to coboundaries.
"""

from .errors import (BadComposition, BadWitness, InsufficientWindow,
                     LeviNotCommuting, NotALift, NotCentralValued)
from .framed import Cochain, FramedModule, commutation_residual, pattern_ok
from .herr import HerrComplex
from .matrices import SeriesMatrix


class ParabolicData:
    """Block-parabolic mask data: the upper central series of the
    unipotent radical and the Levi adjoint representations on its
    graded pieces.

    The block distance delta(r, c) = block(c) - block(r) is stored once,
    and every mask is one band lo <= delta < hi of it: the Levi part is
    [0, 1), U_i is [k - i, k), its central level U_i/U_{i-1} is
    [k - i, k - i + 1), and the pattern of P/U_j is [0, k - j).

    U_i/U_{i-1} is central in U/U_{i-1} for every composition: delta is
    additive, so a product of an entry (r, m) of U_i with an entry (m, c)
    of U = U_{k-1} (or the other way round) lands at delta(r, c) =
    delta(r, m) + delta(m, c) >= (k - i) + 1, inside U_{i-1}.
    """

    def __init__(self, n, blocks):
        blocks = tuple(blocks)
        if len(blocks) < 2 or any(b < 1 for b in blocks) or sum(blocks) != n:
            raise BadComposition(
                f"{blocks} is not a composition of {n} with >= 2 parts")
        self.n = n
        self.blocks = blocks
        self.k = len(blocks)
        block = [b for b, size in enumerate(blocks) for _ in range(size)]
        self._delta = {(r, c): block[c] - block[r]
                       for r in range(n) for c in range(n)}

    def _band(self, lo, hi):
        """The entries (r, c) with lo <= delta(r, c) < hi."""
        return frozenset(rc for rc, d in self._delta.items() if lo <= d < hi)

    def _distance(self, i, least=0):
        """k - i, the block distance where level i starts."""
        if not least <= i <= self.k - 1:
            raise BadComposition(
                f"level {i} out of range {least}..{self.k - 1}")
        return self.k - i

    def u_mask(self, i):
        """Entry mask of U_i: block distance >= k - i.  U_0 is empty."""
        return self._band(self._distance(i), self.k)

    def central_mask(self, i):
        """Coordinates of U_i/U_{i-1}: block distance exactly k - i."""
        d = self._distance(i, 1)
        return self._band(d, d + 1)

    def quotient_pattern(self, j):
        """Allowed entries of P/U_j: the parabolic minus the U_j mask,
        block distance 0 to k - j - 1."""
        return self._band(0, self._distance(j))

    def central_coords(self, i):
        return sorted(self.central_mask(i))

    # -- quotient arithmetic ------------------------------------------------

    def _keep(self, mat, cells):
        """mat with every entry outside `cells` replaced by a zero of its
        window."""
        ring = mat.ring
        return SeriesMatrix(ring, [
            [e if (r, c) in cells else ring.zero(e.hi)
             for c, e in enumerate(row)] for r, row in enumerate(mat.rows)])

    def qreduce(self, mat, j):
        """Kill the U_j mask: the canonical representative in P/U_j."""
        return self._keep(mat, self._delta.keys() - self.u_mask(j))

    def qmul(self, j, a, b):
        return self.qreduce(a * b, j)

    def qinv(self, j, a):
        return self.qreduce(a.inv(), j)

    # -- Levi adjoint action on a central level ------------------------------

    def levi_part(self, mat):
        return self._keep(mat, self._band(0, 1))

    def ad_rep(self, i, L):
        """Matrix of z -> L*z*L^-1 on the level-i central coordinates:
        entry [(r,c),(r',c')] = L[r,r'] * L^-1[c',c]."""
        L_inv = L.inv()
        coords = self.central_coords(i)
        ring = L.ring
        return SeriesMatrix(ring, [
            [L.entry(r, rp) * L_inv.entry(cp, c) for (rp, cp) in coords]
            for (r, c) in coords])

    def vectorize_central(self, i, mat):
        return SeriesMatrix(mat.ring, [[mat.entry(r, c)]
                                       for (r, c) in self.central_coords(i)])

    def unvectorize_central(self, i, vec):
        ring = vec.ring
        out = [[ring.zero() for _ in range(self.n)] for _ in range(self.n)]
        for idx, (r, c) in enumerate(self.central_coords(i)):
            out[r][c] = vec.entry(idx, 0)
        return SeriesMatrix(ring, out)

    def __repr__(self):
        return f"ParabolicData(n={self.n}, blocks={self.blocks})"


def lambda_map(alpha, beta, data=None, j=None):
    """gamma(alpha)^-1 * beta^-1 * alpha * phi(beta), optionally computed
    in the quotient P/U_j."""
    if data is None:
        return (alpha.apply_gamma().inv() * beta.inv() * alpha *
                beta.apply_phi())
    ga_inv = data.qinv(j, alpha.apply_gamma())
    b_inv = data.qinv(j, beta)
    out = data.qmul(j, ga_inv, b_inv)
    out = data.qmul(j, out, alpha)
    return data.qmul(j, out, data.qreduce(beta.apply_phi(), j))


class Cup2Class:
    """The generalized cup product: a degree-2 cochain of the framed
    complex for the Levi adjoint action at one central level, plus the
    context needed to correct the lifts."""

    def __init__(self, rep, complex, data, level, Phi_lift, Gam_lift):
        self.rep = rep
        self.complex = complex
        self.data = data
        self.level = level
        self.Phi_lift = Phi_lift
        self.Gam_lift = Gam_lift


def _adjoint_complex(data, i, M_levi_phi, M_levi_gam):
    ring = M_levi_phi.ring
    Phi_ad = data.ad_rep(i, M_levi_phi)
    Gam_ad = data.ad_rep(i, M_levi_gam)
    module = FramedModule(ring, Phi_ad, Gam_ad)
    return HerrComplex(module, "framed")


def mu(data, i, M_i, Phi_lift, Gam_lift):
    """The generalized cup product of a lift of M_i one step up the
    central series.

    M_i is a framed pair on the P/U_i pattern; the lifts live on
    P/U_{i-1}.  Computes lambda of the lifts in P/U_{i-1}, checks it is
    central at level i, and packages its log as a degree-2 cochain of
    the Levi adjoint framed complex.

    The lifts of one module share their Levi parts, so M_i keeps, per
    (parabolic data, level, Levi parts), that the Levi parts commute
    and the adjoint complex built from them, and a later lift with
    Levi parts equal as values (same windows and coefficients) reuses
    both, with the blocks that complex keeps for its searches.  Levi
    parts that differ in any entry, or only in a window, get their own
    check and complex.  The checks run in the same order either way, so
    every error is the one the first call would raise.
    """
    j = i - 1
    ring = M_i.ring
    for m in (Phi_lift, Gam_lift):
        if not pattern_ok(m, data.quotient_pattern(j)):
            raise NotALift("lift leaves the P/U_{i-1} pattern")
    if not (data.qreduce(Phi_lift, i) - M_i.Phi).is_zero() or \
            not (data.qreduce(Gam_lift, i) - M_i.Gam).is_zero():
        raise NotALift("lifts do not reduce to the given module")
    a_l = data.levi_part(Phi_lift)
    b_l = data.levi_part(Gam_lift)
    kept = M_i.levi_complexes
    key = (data, i, a_l.key(), b_l.key())
    if key not in kept:
        if not (lambda_map(a_l, b_l) -
                SeriesMatrix.identity(ring, data.n)).is_zero():
            raise LeviNotCommuting("lambda of the Levi parts is not 1")
        kept[key] = None
    lam = lambda_map(Phi_lift, Gam_lift, data, j)
    log = lam - SeriesMatrix.identity(ring, data.n, lam.hi)
    central = data.central_mask(i)
    for r in range(data.n):
        for c in range(data.n):
            if (r, c) not in central and not log.entry(r, c).is_zero():
                raise NotCentralValued(
                    f"lambda has a non-central entry at {(r, c)}")
    if kept[key] is None:
        kept[key] = _adjoint_complex(data, i, a_l, b_l)
    rep = Cochain(2, (data.vectorize_central(i, log),))
    return Cup2Class(rep, kept[key], data, i, Phi_lift, Gam_lift)


def check_mu_well_defined(data, i, M_i, lifts_a, lifts_b, depth=4):
    """The classes of two lifts differ by a coboundary of the adjoint
    complex: the CoboundaryResult of the windowed coboundary search on
    their difference.  A found witness shows it; a miss decides
    nothing, and is never a failure.
    """
    cls_a = mu(data, i, M_i, *lifts_a)
    cls_b = mu(data, i, M_i, *lifts_b)
    diff = Cochain(2, tuple(pa - pb for pa, pb in
                            zip(cls_a.rep.parts, cls_b.rep.parts)))
    return cls_a.complex.try_coboundary(diff, depth)


def _check_vanishes(mat, certified, message):
    """BadWitness if mat is nonzero below `certified`; InsufficientWindow
    if its nonzero coefficients all lie at or above it."""
    if mat.is_zero():
        return
    if not mat.truncate(certified).is_zero():
        raise BadWitness(message)
    raise InsufficientWindow(
        f"{message} at or above the certified window {certified}")


def lift_step(cls, witness, sub_window=None):
    """Correct the lifts by a central witness with d1(witness) = rep.

    Returns the corrected framed pair on the P/U_{i-1} pattern; the
    commutation identity is revalidated in the quotient and the
    reduction to level i is checked to recover the original pair.
    A witness certified only below `sub_window` (as reported by the
    coboundary search) that fails only at or above it raises
    InsufficientWindow; a failure below it raises BadWitness.
    """
    data, i = cls.data, cls.level
    j = i - 1
    C = cls.complex
    ring = C.ring
    certified = ring.window if sub_window is None else sub_window
    d_w = C.d1(witness).parts[0]
    target = cls.rep.parts[0]
    diff = d_w - target
    _check_vanishes(diff.truncate(min(diff.hi, ring.window)), certified,
                    "d1(witness) does not match the class")
    x, y = witness.parts
    I = SeriesMatrix.identity(ring, data.n)
    Zx = I + data.unvectorize_central(i, x)
    Zy = I + data.unvectorize_central(i, y)
    Phi2 = data.qmul(j, cls.Phi_lift, Zx)
    Gam2 = data.qmul(j, cls.Gam_lift, Zy)
    resid = data.qreduce(commutation_residual(Phi2, Gam2), j)
    _check_vanishes(resid, certified,
                    "corrected pair fails commutation mod U_{i-1}")
    if not (data.qreduce(Phi2, i) - data.qreduce(cls.Phi_lift, i)).is_zero():
        raise BadWitness("correction moved the level-i reduction")
    validate = j == 0  # the quotient identity is the full one at the top
    out = FramedModule(ring, Phi2, Gam2,
                       pattern=data.quotient_pattern(j), validate=validate)
    if not validate:
        if not pattern_ok(Phi2, data.quotient_pattern(j)) or \
                not pattern_ok(Gam2, data.quotient_pattern(j)):
            raise BadWitness("corrected pair leaves the quotient pattern")
    return out
