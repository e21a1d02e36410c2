"""Framed modules over a period ring: an invertible matrix pair
(Phi, Gam) for the phi- and gamma-actions in a chosen basis, with the
commutation identity Phi*phi(Gam) = Gam*gamma(Phi) as the validity
criterion.  Also: change of basis, Galois descent data, and cochains
with their restriction to and averaging down from a tame extension.

Conventions.  A phi-semilinear map acts on column coordinates by
x -> Phi*phi(x) and a gamma-semilinear one by x -> Gam*gamma(x); the
composite phi-then-gamma therefore has matrix Gam*gamma(Phi) and the
other order Phi*phi(Gam), so order-independence of the composite is
exactly the commutation identity.
"""

from .errors import (AveragingUnavailable, CocycleFails, CommutationFails,
                     DescentEqFails)
from .matrices import SeriesMatrix
from .period import project_to_base


def commutation_residual(Phi, Gam):
    """Phi*phi(Gam) - Gam*gamma(Phi); zero iff the pair is valid.  Phi and
    Gam are SeriesMatrix or DualMatrix pairs."""
    return Phi * Gam.apply_phi() - Gam * Phi.apply_gamma()


def pattern_ok(mat, pattern):
    """Entries outside the allowed-position set must vanish."""
    if pattern is None:
        return True
    return all(mat.entry(i, j).is_zero()
               for i in range(mat.nrows) for j in range(mat.ncols)
               if (i, j) not in pattern)


class FramedModule:
    """An etale module in coordinates: invertible Phi and Gam matrices."""

    def __init__(self, ring, Phi, Gam, pattern=None, validate=True):
        self.ring = ring
        self.Phi = Phi
        self.Gam = Gam
        self.pattern = pattern
        self.n = Phi.n
        # cup.mu keeps here what it builds for the lifts of this module
        self.levi_complexes = {}
        if validate:
            self.validate()

    def validate(self):
        # raises when one has no inverse; the inverses stay on Phi and Gam
        Phi_inv = self.Phi.inv()
        Gam_inv = self.Gam.inv()
        resid = commutation_residual(self.Phi, self.Gam)
        if not resid.is_zero():
            raise CommutationFails("Phi*phi(Gam) != Gam*gamma(Phi)",
                                   residual=resid)
        if self.pattern is not None:
            for m in (self.Phi, Phi_inv, self.Gam, Gam_inv):
                if not pattern_ok(m, self.pattern):
                    raise CommutationFails("matrix leaves the subgroup pattern")
        return self

    def __repr__(self):
        return f"FramedModule(n={self.n} over {self.ring!r})"


def change_basis(M, h):
    """New coordinates: (h*Phi*phi(h)^-1, h*Gam*gamma(h)^-1)."""
    h_inv = h.inv()
    Phi = h * M.Phi * h_inv.apply_phi()
    Gam = h * M.Gam * h_inv.apply_gamma()
    return FramedModule(M.ring, Phi, Gam, M.pattern)


# -- Galois descent ---------------------------------------------------------


class DescentDatum:
    """Matrices phi_sigma, one per Galois generator label."""

    def __init__(self, ring, maps):
        self.ring = ring
        self.maps = dict(maps)
        for g in ring.galois.generators:
            if g.label not in self.maps:
                raise KeyError(f"missing descent matrix for {g.label}")

    @classmethod
    def canonical(cls, ring, n):
        I = SeriesMatrix.identity(ring, n)
        return cls(ring, {g.label: I for g in ring.galois.generators})

    def matrix(self, label):
        return self.maps[label]


def check_descent(M, D):
    """Verify the descent equations and the cocycle condition: returns
    nothing, or raises DescentEqFails or CocycleFails at the first one
    that fails.

    For every generator sigma (order d, inverse word sigma^(d-1)):
      phi_sigma * Phi * phi(phi_sigma)^-1   = sigma^-1(Phi)
      phi_sigma * Gam * gamma(phi_sigma)^-1 = sigma^-1(Gam)
      phi_sigma * sigma(phi_sigma) * ... * sigma^(d-1)(phi_sigma) = I
    plus pairwise compatibility for commuting generators.
    """
    ring = M.ring
    gens = ring.galois.generators
    for i, g in enumerate(gens):
        fs = D.matrix(g.label)
        fs_inv = fs.inv()
        inv_word = ring.galois.generator_word(i, g.order - 1)
        lhs = fs * M.Phi * fs_inv.apply_phi()
        rhs = M.Phi.apply_galois(inv_word)
        if not (lhs - rhs).is_zero():
            raise DescentEqFails(f"phi descent equation fails for {g.label}")
        lhs = fs * M.Gam * fs_inv.apply_gamma()
        rhs = M.Gam.apply_galois(inv_word)
        if not (lhs - rhs).is_zero():
            raise DescentEqFails(f"gamma descent equation fails for {g.label}")
        acc = fs
        for k in range(1, g.order):
            acc = acc * fs.apply_galois(ring.galois.generator_word(i, k))
        if not acc.is_identity():
            raise CocycleFails(f"cocycle condition fails for {g.label}")
    for i, gi in enumerate(gens):
        for j in range(i + 1, len(gens)):
            gj = gens[j]
            fi, fj = D.matrix(gi.label), D.matrix(gj.label)
            lhs = fi * fj.apply_galois(ring.galois.generator_word(i))
            rhs = fj * fi.apply_galois(ring.galois.generator_word(j))
            if not (lhs - rhs).is_zero():
                raise CocycleFails(
                    f"commuting-pair condition fails for {gi.label},{gj.label}")


def descent_datum_after_change_basis(M, D, h):
    """The datum for change_basis(M, h): sigma^-1(h) * phi_sigma * h^-1."""
    ring = M.ring
    h_inv = h.inv()
    maps = {}
    for i, g in enumerate(ring.galois.generators):
        inv_word = ring.galois.generator_word(i, g.order - 1)
        maps[g.label] = h.apply_galois(inv_word) * D.matrix(g.label) * h_inv
    return DescentDatum(ring, maps)


# -- cochains along a tame extension ----------------------------------------


class Cochain:
    """A Herr cochain: its degree and a tuple of matrix parts."""

    def __init__(self, degree, parts):
        self.degree = degree
        self.parts = parts

    def to_json(self):
        return {"degree": self.degree,
                "parts": [p.to_json() for p in self.parts]}


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
    """Whether every Galois generator fixes every part of the cochain."""
    galois = ext_ring.galois
    return all((part.apply_galois(galois.generator_word(i)) - part).is_zero()
               for i in range(len(galois.generators)) for part in cochain.parts)


def descend_cochain(ext_ring, cochain):
    """Express an invariant extension cochain in parent coordinates.

    Non-invariant input is first averaged over the group, which needs
    |Gal| invertible mod p."""
    if ext_ring.parent is None:
        return cochain
    if not check_invariance(ext_ring, cochain):
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
