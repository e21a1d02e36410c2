"""Tests for Galois ring arithmetic GR(p^a, f)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phigamma.errors import NoRootOfUnity, NotAUnit, NotPrime, NotPrincipalForm
from phigamma.galois_ring import (_poly_irreducible_p, hensel_root, make_ring,
                                  residue_root)
from phigamma.laurent import LaurentSeries
from phigamma.period import standard_cyclotomic, tame_extension


def all_monic_irreducible(p, f):
    """Oracle: exhaustive irreducibility scan by root/factor search."""
    out = []
    for tail in itertools.product(range(p), repeat=f):
        m = list(tail) + [1]
        if _brute_irreducible(m, p):
            out.append(tuple(m))
    return out


def _brute_irreducible(m, p):
    # a monic polynomial of degree f is reducible iff it has a monic factor
    # of degree 1..f//2; check by exhaustive polynomial division
    f = len(m) - 1
    for d in range(1, f // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if _divides(g, m, p):
                return False
    return True


def _divides(g, m, p):
    r = list(m)
    dg = len(g) - 1
    while len(r) - 1 >= dg and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dg:
            break
        c = r[-1]  # g monic
        shift = len(r) - 1 - dg
        for i in range(dg + 1):
            r[shift + i] = (r[shift + i] - c * g[i]) % p
    return not any(x % p for x in r)


def test_not_prime_rejected():
    with pytest.raises(NotPrime):
        make_ring(4, 1, 1)
    with pytest.raises(NotPrime):
        make_ring(1, 1, 1)


def test_f1_is_z_mod_pa():
    R = make_ring(3, 2, 1)
    assert R.modulus == (0, 1)  # the degenerate modulus x - 0
    assert R.q == 9
    assert R.inv((2,)) == (5,)
    assert R.mul((4,), (7,)) == ((28 % 9),)


def test_gr_4_2_modulus_deterministic():
    R = make_ring(2, 2, 2)
    assert R.modulus == (1, 1, 1)  # x^2 + x + 1
    # oracle: exhaustive check that x^2+x+1 is irreducible mod 2 and that
    # no lexicographically earlier monic lift is
    irr = all_monic_irreducible(2, 2)
    assert (1, 1, 1) in irr
    assert min(irr) == (1, 1, 1)


def test_f25_modulus_irreducible():
    R = make_ring(5, 1, 2)
    irr = all_monic_irreducible(5, 2)
    assert R.modulus in irr
    assert R.modulus == min(irr)  # first in lexicographic coefficient order


def test_gr_4_2_generator_square():
    R = make_ring(2, 2, 2)
    x = R.gen()
    # x^2 = -x - 1 = 3x + 3 mod 4
    assert R.mul(x, x) == (3, 3)


def test_frobenius_gr_4_2():
    R = make_ring(2, 2, 2)
    x = R.gen()
    # the other root of x^2+x+1 over Z/4 is 3+3x
    assert R.frob(x) == (3, 3)
    # involution: frob^2 = id
    assert R.frob(R.frob(x)) == x


def test_frobenius_is_ring_hom_and_fixes_base():
    R = make_ring(3, 2, 2)
    for c1 in [(1, 2), (4, 7), (3, 0)]:
        for c2 in [(2, 2), (0, 5)]:
            assert R.frob(R.mul(c1, c2)) == R.mul(R.frob(c1), R.frob(c2))
            assert R.frob(R.add(c1, c2)) == R.add(R.frob(c1), R.frob(c2))
    assert R.frob(R.from_int(5)) == R.from_int(5)
    # reduces to t -> t^p mod p
    x = R.gen()
    fx = R.frob(x)
    assert all(v % 3 == w % 3 for v, w in zip(fx, R.pow(x, 3)))


def test_frobenius_order_f():
    R = make_ring(2, 3, 3)
    x = R.gen()
    y = x
    for _ in range(3):
        y = R.frob(y)
    assert y == x
    assert R.frob(x) != x


# (2, 3, 2) and (3, 2, 2) have units outside the Teichmueller group: at
# p = 2 with a >= 3 the exponent of 1 + 2R is 2^(a-1), which inv relies on
@pytest.mark.parametrize("p,a,f", [(2, 2, 2), (3, 2, 1), (3, 1, 2), (5, 2, 1),
                                   (2, 3, 2), (3, 2, 2)])
def test_inverse_round_trip_exhaustive_units(p, a, f):
    R = make_ring(p, a, f)
    count = 0
    for c in itertools.product(range(R.q), repeat=R.f):
        if R.is_unit(c):
            assert R.mul(c, R.inv(c)) == R.one
            count += 1
    # non-units form the ideal p*R of size p^((a-1)f)
    assert count == p ** (a * f) - p ** ((a - 1) * f)


def test_non_unit_inverse_raises():
    R = make_ring(3, 2, 1)
    with pytest.raises(NotAUnit):
        R.inv((3,))
    with pytest.raises(NotAUnit):
        R.inv((0,))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 80), st.integers(0, 80), st.integers(0, 80))
def test_ring_axioms_gr_9_2(i, j, k):
    R = make_ring(3, 2, 2)
    els = list(itertools.product(range(R.q), repeat=R.f))
    x, y, z = els[i], els[j], els[k]
    assert R.add(x, y) == R.add(y, x)
    assert R.mul(x, y) == R.mul(y, x)
    assert R.mul(x, R.add(y, z)) == R.add(R.mul(x, y), R.mul(x, z))
    assert R.mul(R.mul(x, y), z) == R.mul(x, R.mul(y, z))
    assert R.add(x, R.neg(x)) == R.zero


def test_nilpotent_iff_divisible_by_p():
    R = make_ring(2, 2, 2)
    for c in itertools.product(range(R.q), repeat=R.f):
        nil = R.is_nilpotent(c)
        # oracle: c nilpotent iff c^a = 0 in GR(p^a, f)
        assert nil == R.is_zero(R.pow(c, 2 * R.a))


def test_coordinate_tuple_arithmetic():
    R = make_ring(2, 2, 2)
    x = R.gen()
    assert R.mul(x, x) == (3, 3)
    assert R.is_zero(R.add(x, R.neg(x)))
    assert R.frob(x) == (3, 3)
    y = R.add(x, R.from_int(1))
    assert R.mul(y, R.inv(y)) == R.one


def test_json_round_trip():
    R = make_ring(5, 2, 2)
    # an element travels in JSON as its coordinate list
    e = (3, 17)
    s = LaurentSeries.constant(R, e, 1)
    assert LaurentSeries.from_json(R, s.to_json()).coeff(0) == e


def test_irreducibility_helper_matches_oracle():
    for p, f in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        for tail in itertools.product(range(p), repeat=f):
            m = list(tail) + [1]
            assert _poly_irreducible_p(m, p) == _brute_irreducible(m, p)


# -- Hensel lifting ---------------------------------------------------------

LIFT_RINGS = [(2, 1, 2), (2, 3, 2), (3, 2, 2), (5, 2, 3), (2, 64, 2),
              (3, 21, 1)]


def poly_value(R, coeffs, z):
    """Oracle: sum of c_i * z^i, with the powers taken one by one."""
    out, zi = R.zero, R.one
    for c in coeffs:
        out = R.add(out, R.mul(c, zi))
        zi = R.mul(zi, z)
    return out


def x_pow_minus(R, e, c):
    return [R.neg(c)] + [R.zero] * (e - 1) + [R.one]


def assert_lifts(R, coeffs, z):
    """hensel_root(R, coeffs, z) is an exact root and agrees with z mod p."""
    r = hensel_root(R, coeffs, z)
    assert R.is_zero(poly_value(R, coeffs, r))
    assert R.is_nilpotent(R.sub(r, z))
    return r


def root_indices(p, f, limit=32):
    """The indices e > 1 with e | p^f - 1, up to limit."""
    return [e for e in range(2, limit + 1) if (p ** f - 1) % e == 0]


@pytest.mark.parametrize("p,a,f", LIFT_RINGS)
def test_hensel_root_of_a_modulus(p, a, f):
    R = make_ring(p, a, f)
    if f > 1:
        # the Frobenius lift: the root x^p of the ring's own modulus
        modulus = [R.from_int(c) for c in R.modulus]
        assert_lifts(R, modulus, R.pow(R.gen(), p))
    # the moduli of the subrings of an extension, as a tame extension
    # embeds the coefficients of its base
    E = make_ring(p, a, 2 * f) if p ** (2 * f) <= 81 else R
    for d in range(2, E.f + 1):
        if E.f % d == 0:
            modulus = [E.from_int(c) for c in make_ring(p, a, d).modulus]
            assert_lifts(E, modulus, residue_root(E, modulus))


@pytest.mark.parametrize("p,a,f", LIFT_RINGS)
def test_hensel_root_of_unity(p, a, f):
    R = make_ring(p, a, f)
    for e in root_indices(p, f):
        poly = x_pow_minus(R, e, R.one)
        starts = [z for z in R.residue_units()
                  if R.is_nilpotent(R.sub(R.pow(z, e), R.one))]
        assert len(starts) == e
        roots = {assert_lifts(R, poly, z) for z in starts}
        assert len(roots) == e


@pytest.mark.parametrize("p,a,f", LIFT_RINGS)
def test_hensel_root_of_a_constant(p, a, f):
    R = make_ring(p, a, f)
    rng = random.Random(p * 1000 + a * 10 + f)
    for e in [1] + root_indices(p, f)[:3]:
        for _ in range(3):
            u = R.random(rng)
            if not R.is_unit(u):
                continue
            # an e-th power mod p, moved by a multiple of p
            c = R.add(R.pow(u, e), R.smul(p, R.random(rng)))
            poly = x_pow_minus(R, e, c)
            z = residue_root(R, poly)
            assert z is not None
            assert_lifts(R, poly, z)


@pytest.mark.parametrize("p,a,f", LIFT_RINGS)
def test_residue_root_none_on_a_non_power(p, a, f):
    R = make_ring(p, a, f)
    e = root_indices(p, f)[0]
    powers = {tuple(v % p for v in R.pow(z, e)) for z in R.residue_units()}
    c = next(z for z in R.residue_units() if z not in powers)
    assert residue_root(R, x_pow_minus(R, e, c)) is None
    assert residue_root(R, x_pow_minus(R, e, R.smul(1 + p, c))) is None


def test_tame_extension_without_roots():
    # gamma(T)/T = 2 + ... over p = 3, and 2 is no square mod 3
    base = standard_cyclotomic(3, 2, window=12, c=2)
    with pytest.raises(NotPrincipalForm):
        tame_extension(base, 2)
    # 4 does not divide 3 - 1: no 4th roots of unity
    with pytest.raises(NoRootOfUnity):
        tame_extension(standard_cyclotomic(3, 2, window=12), 4)
