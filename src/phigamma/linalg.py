"""Exact linear algebra over Z/p^a.

Z/p^a is not a field, so elimination proceeds by p-valuation: at each
step an entry of least valuation v among the remaining rows/columns is
chosen as pivot (the first such entry in row-major order), its unit
part is normalized away (pivot becomes p^v), and the pivot column is
cleared in the rows not yet used as pivots -- legal because minimality
of v makes those entries divisible by p^v.

After reduction every non-pivot row is zero, and a pivot row reads
p^v * x_pivot + (entries of valuation >= v at later columns) = rhs,
so the system is solvable iff the rhs vanishes on pivotless rows and
each back-substitution step divides by p^v exactly; free variables are
set to zero.
The valuation profile also gives the length (number of Z/p composition
factors) of the row space: sum over pivots of (a - v).

Matrices come in as lists of dense rows of Python ints, so nothing
overflows, however large q is.  One pass reduces each row mod q into a
dict {column: nonzero entry}; the eliminator reads and updates only
those entries, a row left with no entry in the pivot columns drops out
of the search, and the closing check of A x = b reads the same dicts.
The Herr systems it solves start at about 14% density.
"""

from .errors import PhigammaError


def _sparse_rows(A, q):
    """The dense rows of A, reduced mod q, as {column: entry} dicts over
    their nonzero entries."""
    return [{j: r for j, x in enumerate(row) if x and (r := x % q)}
            for row in A]


def _valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _pivot(R, live, p, ncols):
    """(row, col, valuation) of the pivot among the rows in `live`, each
    with an entry below ncols.

    Columns already used as pivots are zero in those rows, so every
    nonzero entry below ncols is a candidate; the least valuation wins,
    and the first such entry in row-major order breaks ties.  A row's
    entries are not stored in column order, so each row is scanned
    whole for its least (valuation, column).
    """
    best = None
    for i in live:
        rv = rj = None
        for j, x in R[i].items():
            if j >= ncols:
                continue
            v = 0 if x % p else _valuation(x, p)
            if rv is None or v < rv or v == rv and j < rj:
                rv, rj = v, j
        if rv == 0:
            return i, rj, 0
        if best is None or rv < best[2]:
            best = (i, rj, rv)
    return best


def _reduce(R, p, a, ncols):
    """In-place reduction of the sparse rows R; pivots only in columns
    < ncols, and R may hold one more column, ncols itself.

    Returns the list of pivots (row, col, valuation).
    """
    q = p ** a
    rest = {ncols}
    # a row with no entry below ncols can neither pivot nor change
    live = [i for i, row in enumerate(R) if not row.keys() <= rest]
    pivots = []
    while live:
        pi, pj, v = _pivot(R, live, p, ncols)
        pv = p ** v
        u = pow(R[pi][pj] // pv, -1, q)
        prow = R[pi] = {j: x * u % q for j, x in R[pi].items()}
        live.remove(pi)
        # prow[pj] is p^v, so the pivot column clears exactly
        others = [(j, y) for j, y in prow.items() if j != pj]
        # clear only rows not yet used as pivots: entries there have
        # valuation >= v by pivot minimality, so the division is exact
        dead = []
        for i in live:
            row = R[i]
            x = row.pop(pj, 0)
            if x:
                f = x // pv
                for j, y in others:
                    t = (row.get(j, 0) - f * y) % q
                    if t:
                        row[j] = t
                    else:
                        row.pop(j, None)
                if row.keys() <= rest:
                    dead.append(i)
        if dead:
            live = [i for i in live if i not in dead]
        pivots.append((pi, pj, v))
    return pivots


def reduce_mod_prime_power(A, p, a):
    """Row-reduce A over Z/p^a; returns (R, pivots), R as dense rows."""
    ncols = len(A[0]) if A else 0
    R = _sparse_rows(A, p ** a)
    pivots = _reduce(R, p, a, ncols)
    return [[row.get(j, 0) for j in range(ncols)] for row in R], pivots


def solve_mod_prime_power(A, b, p, a):
    """One solution x of A x = b over Z/p^a, or None when unsolvable."""
    q = p ** a
    bb = [t % q for t in b]
    if not A:
        return []
    cols = len(A[0])
    if cols == 0:
        return None if any(bb) else []
    rows = _sparse_rows(A, q)
    # the rhs rides along as column cols; _reduce works on copies, since
    # the closing check reads the rows as given
    aug = []
    for row, t in zip(rows, bb):
        row = dict(row)
        if t:
            row[cols] = t
        aug.append(row)
    pivots = _reduce(aug, p, a, cols)
    pivot_rows = {pi for pi, _, _ in pivots}
    if any(cols in aug[i] for i in range(len(aug)) if i not in pivot_rows):
        return None
    # x[cols] stays 0, so a row's sum over all its entries leaves out
    # its rhs
    x = [0] * (cols + 1)
    # pivot rows are echelon-shaped; back-substitute newest pivot first
    for pi, pj, v in reversed(pivots):
        row = aug[pi]
        rhs = (row.get(cols, 0) - sum(c * x[j] for j, c in row.items())) % q
        pv = p ** v
        if rhs % pv:
            return None
        x[pj] = rhs // pv
    x.pop()
    if any((sum(c * x[j] for j, c in row.items()) - t) % q
           for row, t in zip(rows, bb)):
        raise PhigammaError("elimination invariant violated")
    return x


def length_of_row_space(A, p, a):
    """Length of the row space of A as a Z/p^a-module."""
    _, pivots = reduce_mod_prime_power(A, p, a)
    return sum(a - v for _, _, v in pivots)
