"""Period rings: truncated Laurent series with phi, gamma, and Galois
operators.

A PeriodRing bundles a coefficient ring, a working window, and operator
descriptors.  Operators are semilinear: they act on coefficients by a
power of the ring Frobenius and substitute an image series for the
variable.  The standard cyclotomic presentation uses

    phi(T)   = (1+T)^p - 1
    gamma(T) = (1+T)^c - 1        (c an exact integer exponent)

and tame extensions adjoin v with v^e = T, with phi(v) and gamma(v)
produced by principal e-th roots.  Constructors validate the operator
commutation relations on the variable within the window and reject
inconsistent data.
"""

from .errors import (CommutationFails, NoRootOfUnity, NotGaloisCompatible,
                     NotPrincipalForm)
from .galois_ring import hensel_root, make_ring, residue_root
from .laurent import LaurentSeries, _power, compose, eth_root_one_unit


class OperatorDesc:
    """A semilinear operator: coefficient Frobenius power + substitution."""

    def __init__(self, kind, image, coeff_frob_power=0, label="", order=None):
        if kind not in ("phi", "gamma", "galois"):
            raise ValueError(f"unknown operator kind {kind!r}")
        self.kind = kind
        self.image = image
        self.coeff_frob_power = coeff_frob_power
        self.label = label or kind
        self.order = order
        self._cache = {}
        self._images = {}

    def apply(self, series):
        """Apply to a series: Frobenius on coefficients, then substitute.

        The operator keeps every image it forms, keyed by the value of the
        input (its window and coefficients), next to the powers of its
        variable image in `_cache`.  A repeated input gets the kept series
        back, which is safe because series are values.  Both are kept on
        the operator, so they live as long as its ring does; an input whose
        image raises keeps nothing and raises again."""
        key = series.key()
        out = self._images.get(key)
        if out is None:
            f = series.frob_coeffs(self.coeff_frob_power)
            out = self._images[key] = compose(f, self.image, self._cache)
        return out

    def image_power(self, n):
        """Cached n-th power of the variable image (n may be negative)."""
        return _power(self.image, n, self._cache)

    def to_json(self):
        return {"kind": self.kind, "label": self.label,
                "coeff_frob_power": self.coeff_frob_power,
                "order": self.order, "image": self.image.to_json()}

    def __repr__(self):
        return f"OperatorDesc({self.label})"


class GaloisGroup:
    """A finite group presentation acting by operators.

    Generators are OperatorDesc entries with declared orders; the group
    is taken abelian (checked by the ring validator on the variable).
    Elements are exponent tuples in the generator order.
    """

    def __init__(self, generators):
        self.generators = list(generators)

    @property
    def order(self):
        n = 1
        for g in self.generators:
            n *= g.order
        return n

    def elements(self):
        words = [()]
        for g in self.generators:
            words = [w + (i,) for w in words for i in range(g.order)]
        return words

    def apply_word(self, word, series):
        for g, k in zip(self.generators, word):
            for _ in range(k % g.order):
                series = g.apply(series)
        return series

    def generator_word(self, index, power=1):
        w = [0] * len(self.generators)
        w[index] = power
        return tuple(w)


class PeriodRing:
    """A coefficient ring + window + phi/gamma/Galois operator package."""

    def __init__(self, base, window, var, e, phi, gamma, galois=None,
                 parent=None):
        self.base = base
        self.window = window
        self.var = var
        self.e = e
        self.phi = phi
        self.gamma = gamma
        self.galois = galois or GaloisGroup([])
        self.parent = parent  # (base PeriodRing, coeff embedding fn) or None
        # SeriesMatrix.inv's memo: matrix value -> inverse, or the class
        # and message of the error its inversion raised
        self._inverses = {}
        self.validate()

    # -- series constructors ------------------------------------------------

    def series(self, terms, hi=None):
        return LaurentSeries.from_terms(self.base, terms, self.window if hi is None else hi)

    def zero(self, hi=None):
        return LaurentSeries.zero(self.base, self.window if hi is None else hi)

    def one(self, hi=None):
        return self.constant(1, hi)

    def constant(self, c, hi=None):
        return LaurentSeries.constant(self.base, c, self.window if hi is None else hi)

    def variable(self, k=1, hi=None):
        return LaurentSeries.monomial(self.base, k, 1, self.window if hi is None else hi)

    # -- validation -----------------------------------------------------------

    def validate(self):
        v = self.variable()
        pg = self.phi.apply(self.gamma.image)
        gp = self.gamma.apply(self.phi.image)
        if not pg.agrees(gp):
            raise CommutationFails("phi and gamma do not commute on the variable",
                                   residual=pg - gp)
        for sigma in self.galois.generators:
            if not sigma.apply(self.phi.image).agrees(self.phi.apply(sigma.image)):
                raise NotGaloisCompatible(
                    f"{sigma.label} does not commute with phi")
            if not sigma.apply(self.gamma.image).agrees(self.gamma.apply(sigma.image)):
                raise NotGaloisCompatible(
                    f"{sigma.label} does not commute with gamma")
            y = v
            for _ in range(sigma.order):
                y = sigma.apply(y)
            if not y.agrees(v):
                raise NotGaloisCompatible(
                    f"{sigma.label}^{sigma.order} is not the identity")
        for i, s1 in enumerate(self.galois.generators):
            for s2 in self.galois.generators[i + 1:]:
                if not s1.apply(s2.image).agrees(s2.apply(s1.image)):
                    raise NotGaloisCompatible(
                        f"{s1.label} and {s2.label} do not commute")

    # -- contraction data -------------------------------------------------------

    def c_phi(self):
        from .analyzers import contraction_constants
        return contraction_constants(self)["c_phi"]

    def to_json(self):
        return {"p": self.base.p, "a": self.base.a, "f": self.base.f,
                "e": self.e, "window": self.window, "var": self.var,
                "phi": self.phi.to_json(), "gamma": self.gamma.to_json(),
                "galois": [g.to_json() for g in self.galois.generators]}

    def __repr__(self):
        return (f"PeriodRing(p={self.base.p}, a={self.base.a}, f={self.base.f}, "
                f"e={self.e}, var={self.var!r}, window={self.window})")


def one_plus_var_pow(base, c, window):
    """(1 + T)^c - 1 by binary powering in the truncated ring."""
    t = LaurentSeries.from_terms(base, {0: 1, 1: 1}, window)
    return _power(t, c, {}) - LaurentSeries.constant(base, 1, window)


def standard_cyclotomic(p, a, f=1, window=32, c=None):
    """The cyclotomic period ring presentation in the variable T; phi acts
    on the coefficients by the Frobenius when f > 1."""
    base = make_ring(p, a, f)
    if c is None:
        c = 5 if p == 2 else 1 + p
    phi = OperatorDesc("phi", one_plus_var_pow(base, p, window),
                       1 if f > 1 else 0, label="phi")
    gam = OperatorDesc("gamma", one_plus_var_pow(base, c, window),
                       0, label=f"gamma[{c}]")
    ring = PeriodRing(base, window, "T", 1, phi, gam)
    ring.gamma_exponent = c
    return ring


def make_custom_ring(p, a, f, window, phi_terms, gamma_c=1):
    """A synthetic period ring with a user-supplied phi image, acting
    trivially on the coefficients.

    Used for deformed Frobenii such as u^p + p*u^{-r}; gamma defaults to
    the identity operator (exponent 1) so commutation is automatic.
    """
    base = make_ring(p, a, f)
    image = LaurentSeries.from_terms(base, phi_terms, window)
    phi = OperatorDesc("phi", image, 0, label="phi")
    gam = OperatorDesc("gamma", one_plus_var_pow(base, gamma_c, window),
                       0, label=f"gamma[{gamma_c}]")
    ring = PeriodRing(base, window, "u", 1, phi, gam)
    ring.gamma_exponent = gamma_c
    return ring


# -- tame extensions ------------------------------------------------------------


def _residue_field_root_of_unity(ring, e):
    """A primitive e-th root of unity in GR(p^a, f), Hensel-lifted."""
    p, f = ring.p, ring.f
    q = p ** f
    if (q - 1) % e:
        raise NoRootOfUnity(f"{e} does not divide p^f - 1 = {q - 1}")
    if e == 1:
        return ring.one
    # find an order-e element of the residue field by brute scan
    target = None
    for cand in ring.residue_units():
        z = cand
        order = 1
        while not all((x - y) % p == 0 for x, y in zip(z, ring.one)):
            z = tuple(v % p for v in ring.mul(z, cand))
            order += 1
            if order > e:
                break
        if order == e:
            target = cand
            break
    if target is None:
        raise NoRootOfUnity(f"no order-{e} element found in the residue field")
    return hensel_root(ring, _x_pow_minus(ring, e, ring.one), target)


def _embedding(base_ring, ext_ring):
    """Coefficient embedding GR(p^a, f) -> GR(p^a, f*f_ext).

    Maps the base generator to a Hensel-lifted root of the base modulus in
    the extension; returns a function on coordinate tuples.
    """
    if base_ring.f == 1:
        def embed(c):
            return ext_ring.from_int(c[0])
        return embed
    modulus = [ext_ring.from_int(c) for c in base_ring.modulus]
    r = residue_root(ext_ring, modulus)
    if r is None:
        raise NoRootOfUnity("base modulus has no root in the extension")
    r = hensel_root(ext_ring, modulus, r)
    powers = [ext_ring.one]
    for _ in range(1, base_ring.f):
        powers.append(ext_ring.mul(powers[-1], r))

    def embed(c):
        out = ext_ring.zero
        for ci, pw in zip(c, powers):
            if ci:
                out = ext_ring.add(out, ext_ring.smul(ci, pw))
        return out
    return embed


def tame_extension(base_ring, e, f_ext=1):
    """Adjoin v with v^e = T and an unramified extension of degree f_ext.

    phi(v) = v^p * eth_root(phi(T)/T^p at T=v^e), gamma(v) similarly from
    gamma(T)/T; the root-of-unity multiple in gamma(v) is fixed by
    requiring phi-gamma commutation on v.  Galois generators: sigma_ram
    sends v to zeta_e*v; sigma_unram acts by the coefficient Frobenius
    power f of the base, fixing v.
    """
    if e == 1 and f_ext == 1:
        return base_ring
    base = base_ring.base
    p, a = base.p, base.a
    f_new = base.f * f_ext
    if (p ** f_new - 1) % e:
        raise NoRootOfUnity(f"{e} does not divide p^(f*f_ext) - 1")
    ext = make_ring(p, a, f_new)
    embed = _embedding(base, ext)
    window_v = base_ring.window * e

    def embed_series(x):
        terms = {exp * e: embed(c) for exp, c in x.terms()}
        return LaurentSeries.from_terms(ext, terms, x.hi * e)

    # embed_series rewrites T as v^e, so these are phi(T) and gamma(T)
    # already expressed in the variable v
    phi_at_ve = embed_series(base_ring.phi.image)
    gam_at_ve = embed_series(base_ring.gamma.image)
    phi_frob = 1 if f_new > 1 else 0

    # phi(v): principal e-th root of phi(T)/T^p evaluated at T = v^e
    w_phi = phi_at_ve.shift(-p * e)
    phi_v = LaurentSeries.monomial(ext, p, 1, window_v) * eth_root_one_unit(w_phi, e)

    # gamma(v): factor the unit constant out of gamma(T)/T, root it in the
    # coefficient ring, and fix the root-of-unity ambiguity by commutation
    w_gam = gam_at_ve.shift(-e)
    c0 = w_gam.coeff(0)
    if not ext.is_unit(c0):
        raise NotPrincipalForm("gamma(T)/T has non-unit constant term")
    z0 = _eth_root_of_constant(ext, c0, e)
    root_series = eth_root_one_unit(w_gam.scale(ext.inv(c0)), e)
    zeta = _residue_field_root_of_unity(ext, e)
    phi_op = OperatorDesc("phi", phi_v, phi_frob, label="phi")
    zmult = z0
    for _ in range(e):
        cand = LaurentSeries.monomial(ext, 1, zmult, window_v) * root_series
        gam_op = OperatorDesc("gamma", cand, 0, label=base_ring.gamma.label)
        if phi_op.apply(cand).agrees(gam_op.apply(phi_v)):
            break
        zmult = ext.mul(zmult, zeta)
    else:
        raise NotGaloisCompatible(
            "no root choice makes gamma(v) commute with phi(v)")

    gens = []
    if e > 1:
        sig_ram = OperatorDesc(
            "galois", LaurentSeries.monomial(ext, 1, zeta, window_v),
            0, label="sigma_ram", order=e)
        gens.append(sig_ram)
    if f_ext > 1:
        sig_unram = OperatorDesc(
            "galois", LaurentSeries.monomial(ext, 1, 1, window_v),
            base.f, label="sigma_unram", order=f_ext)
        gens.append(sig_unram)

    ring = PeriodRing(ext, window_v, "v", base_ring.e * e, phi_op, gam_op,
                      galois=GaloisGroup(gens),
                      parent=(base_ring, embed, embed_series))
    ring.gamma_exponent = getattr(base_ring, "gamma_exponent", None)
    return ring


def _eth_root_of_constant(ring, c0, e):
    """Some e-th root of a unit constant in GR(p^a, f), if one exists."""
    poly = _x_pow_minus(ring, e, c0)
    z = residue_root(ring, poly)
    if z is None:
        raise NotPrincipalForm("constant term is not an e-th power")
    return hensel_root(ring, poly, z)


def _x_pow_minus(ring, e, c):
    """The coefficients of X^e - c, constant first."""
    return [ring.neg(c)] + [ring.zero] * (e - 1) + [ring.one]


def project_to_base(ring, x):
    """Express a v-series with e | exponents as a series over the parent."""
    if ring.parent is None:
        return x
    parent_ring, embed, _ = ring.parent
    base = parent_ring.base
    e = ring.e // parent_ring.e
    inv_embed = _inverse_embedding(base, ring.base, embed)
    terms = {}
    for exp, c in x.terms():
        if exp % e:
            raise NotGaloisCompatible(
                f"exponent {exp} is not a multiple of e = {e}")
        terms[exp // e] = inv_embed(c)
    return LaurentSeries.from_terms(base, terms, x.hi // e)


def _inverse_embedding(base, ext, embed):
    """Invert the coefficient embedding on its image (linear solve mod p^a)."""
    if base.f == 1:
        def inv(c):
            rest = ext.sub(c, ext.from_int(c[0]))
            if not ext.is_zero(rest):
                raise NotGaloisCompatible("coefficient is not in the base ring")
            return (c[0],)
        return inv
    from .linalg import solve_mod_prime_power
    cols = []
    x = base.one
    gen = base.gen()
    for i in range(base.f):
        cols.append(embed(x))
        x = base.mul(x, gen)

    def inv(c):
        sol = solve_mod_prime_power(
            [[cols[j][i] for j in range(base.f)] for i in range(ext.f)],
            list(c), base.p, base.a)
        if sol is None:
            raise NotGaloisCompatible("coefficient is not in the base ring")
        return tuple(v % base.q for v in sol)
    return inv

