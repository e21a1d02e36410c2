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

Matrices are lists of rows of Python ints in [0, q), so nothing
overflows, however large q is.
"""

from .errors import PhigammaError


def _as_rows(A, q):
    return [[x % q for x in row] for row in A]


def _valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _pivot(R, live, p, ncols):
    """(row, col, valuation) of the pivot among the rows in `live`, or
    None when they are zero.

    Columns already used as pivots are zero in those rows, so every
    nonzero entry below ncols is a candidate; the least valuation wins,
    and the first such entry in row-major order breaks ties.
    """
    best = None
    for i in live:
        row = R[i]
        for j in range(ncols):
            x = row[j]
            if not x:
                continue
            if x % p:
                return i, j, 0
            v = _valuation(x, p)
            if best is None or v < best[2]:
                best = (i, j, v)
    return best


def _reduce(R, p, a, ncols):
    """In-place reduction; pivots only in columns < ncols.

    Returns the list of pivots (row, col, valuation).
    """
    q = p ** a
    live = list(range(len(R)))
    pivots = []
    while live:
        found = _pivot(R, live, p, ncols)
        if found is None:
            break
        pi, pj, v = found
        pv = p ** v
        u = pow(R[pi][pj] // pv, -1, q)
        prow = R[pi] = [x * u % q for x in R[pi]]
        live.remove(pi)
        nonzero = [(j, y) for j, y in enumerate(prow) if y]
        # clear only rows not yet used as pivots: entries there have
        # valuation >= v by pivot minimality, so the division is exact
        for i in live:
            row = R[i]
            if row[pj]:
                f = row[pj] // pv
                for j, y in nonzero:
                    row[j] = (row[j] - f * y) % q
        pivots.append((pi, pj, v))
    return pivots


def reduce_mod_prime_power(A, p, a):
    """Row-reduce A over Z/p^a; returns (R, pivots)."""
    R = _as_rows(A, p ** a)
    ncols = len(R[0]) if R else 0
    return R, _reduce(R, p, a, ncols)


def solve_mod_prime_power(A, b, p, a):
    """One solution x of A x = b over Z/p^a, or None when unsolvable."""
    q = p ** a
    M = _as_rows(A, q)
    bb = [t % q for t in b]
    if not M:
        return []
    cols = len(M[0])
    if cols == 0:
        return None if any(bb) else []
    aug = [row + [t] for row, t in zip(M, bb)]
    pivots = _reduce(aug, p, a, cols)
    pivot_rows = {pi for pi, _, _ in pivots}
    if any(aug[i][cols] for i in range(len(aug)) if i not in pivot_rows):
        return None
    x = [0] * cols
    # pivot rows are echelon-shaped; back-substitute newest pivot first
    for pi, pj, v in reversed(pivots):
        row = aug[pi]
        rhs = (row[cols] - sum(c * t for c, t in zip(row, x))) % q
        pv = p ** v
        if rhs % pv:
            return None
        x[pj] = rhs // pv
    if any((sum(c * t for c, t in zip(row, x)) - t0) % q
           for row, t0 in zip(M, bb)):
        raise PhigammaError("elimination invariant violated")
    return x


def length_of_row_space(A, p, a):
    """Length of the row space of A as a Z/p^a-module."""
    _, pivots = reduce_mod_prime_power(A, p, a)
    return sum(a - v for _, _, v in pivots)


def kernel_length(A, p, a):
    """Length of the kernel of A acting on (Z/p^a)^cols."""
    cols = len(A[0]) if len(A) else 0
    if cols == 0:
        return 0
    return a * cols - length_of_row_space(list(zip(*A)), p, a)
