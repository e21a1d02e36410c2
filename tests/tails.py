"""Adversarial unknown tails, shared by the window soundness tests.

A result is exact on its window whatever the unknown coefficients of its
inputs at and above hi are.  Extending the inputs by random coefficients
(units included), not by zeros, and recomputing must therefore agree with
the original result wherever both windows reach."""

from phigamma.laurent import LaurentSeries


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
