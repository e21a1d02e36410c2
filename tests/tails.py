"""Helpers shared by the tests: adversarial unknown tails, random
matrices and cochains, and the check that a matrix vanishes below u^h.

A result is exact on its window whatever the unknown coefficients of its
inputs at and above hi are.  Extending the inputs by random coefficients
(units included), not by zeros, and recomputing must therefore agree with
the original result wherever both windows reach."""

from phigamma.framed import Cochain
from phigamma.laurent import LaurentSeries
from phigamma.matrices import SeriesMatrix
from phigamma.samplers import rand_vec


def with_tail(rng, x):
    """x on a window reaching up to 12 exponents further, with random
    coefficients where x leaves them unknown."""
    ring = x.ring
    hi = x.hi + rng.randrange(1, 13)
    terms = dict(x.terms())
    for e in range(x.hi, hi):
        terms[e] = ring.random(rng)
    return LaurentSeries.from_terms(ring, terms, hi)


def sound(small, large):
    """large, computed from inputs known further than those of small,
    keeps small's window and agrees with it there."""
    return large.hi >= small.hi and large.agrees(small)


def rand_mat(rng, ring, n=2, lo=-1, spread=6):
    """An n x n matrix whose entries each draw two terms in [lo, lo +
    spread), with coefficients below q."""
    q = ring.base.q
    return SeriesMatrix(ring, [
        [ring.series({rng.randrange(lo, lo + spread): rng.randrange(q)
                      for _ in range(2)}) for _ in range(n)]
        for _ in range(n)])


def rand_cochain(rng, C, degree):
    """A random cochain of the complex C: matrices for the adjoint kind,
    vectors otherwise."""
    make = rand_mat if C.kind == "adjoint" else rand_vec
    return Cochain(degree, tuple(
        make(rng, C.ring, C.n) for _ in range(C.n_parts(degree))))


def truncated_zero(mat, h):
    """Every entry of mat vanishes below u^min(its hi, h)."""
    return all(e.is_zero() or e.lo >= min(e.hi, h)
               for r in mat.rows for e in r)
