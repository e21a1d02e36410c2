"""Random samplers shared by the command line tasks and the test
batteries.

Each sampler draws from the `random.Random` it is given in a fixed
order, so a config and seed determine every sample, and with it every
`--json` byte of the randomized tasks.  `framed` is imported only by
`rand_module`, so tasks that draw matrices alone do not load it.
"""

from .matrices import SeriesMatrix


def rand_uni(rng, ring, n, depth=1, spread=4):
    """The n x n identity plus, in each entry with probability 0.7, one
    monomial of degree in [depth, depth + spread)."""
    rows = [[e for e in r] for r in SeriesMatrix.identity(ring, n).rows]
    q = ring.base.q
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.7:
                rows[i][j] = rows[i][j] + ring.series(
                    {depth + rng.randrange(spread): rng.randrange(q)})
    return SeriesMatrix(ring, rows)


def rand_module(rng, ring, n=2):
    """The trivial rank-n framed module after a random change of basis
    by rand_uni at depth 1."""
    from .framed import FramedModule, change_basis
    I = SeriesMatrix.identity(ring, n)
    return change_basis(FramedModule(ring, I, I), rand_uni(rng, ring, n))


def rand_vec(rng, ring, n=2, lo=-2, spread=8):
    """A column of n series, each with up to three terms of degree in
    [lo, lo + spread)."""
    q = ring.base.q
    return SeriesMatrix(ring, [
        [ring.series({rng.randrange(lo, lo + spread): rng.randrange(q)
                      for _ in range(3)})] for _ in range(n)])


def rand_lift(rng, M, cells):
    """The pair (Phi, Gam) of the framed module M, each with a random
    series of up to three terms of degree in [0, 8) drawn at every listed
    cell (r, c), in order, Phi's cells first: the lifts of a Borel module
    that `cup` draws."""
    ring = M.ring
    q = ring.base.q
    out = []
    for L in (M.Phi, M.Gam):
        rows = [list(row) for row in L.rows]
        for r, c in cells:
            rows[r][c] = ring.series({rng.randrange(0, 8): rng.randrange(q)
                                      for _ in range(3)})
        out.append(SeriesMatrix(ring, rows))
    return tuple(out)


def diag_const(ring, vals):
    """The diagonal matrix of the integer constants vals."""
    n = len(vals)
    return SeriesMatrix(ring, [
        [ring.constant(vals[i]) if i == j else ring.zero()
         for j in range(n)] for i in range(n)])
