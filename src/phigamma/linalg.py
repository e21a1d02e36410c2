"""Exact linear algebra over Z/p^a.

Z/p^a is not a field, so elimination proceeds by p-valuation: at each
step an entry of least valuation v among the remaining rows/columns is
chosen as pivot, its unit part is normalized away (pivot becomes p^v),
and the pivot column is cleared in the rows not yet used as pivots —
legal because minimality of v makes those entries divisible by p^v.

After reduction every non-pivot row is zero, and a pivot row reads
p^v * x_pivot + (entries of valuation >= v at later columns) = rhs,
so the system is solvable iff the rhs vanishes on pivotless rows and
each back-substitution step divides by p^v exactly; free variables are
set to zero.
The valuation profile also gives the length (number of Z/p composition
factors) of the row space: sum over pivots of (a - v).

Entries are held in numpy int64 only when every intermediate provably
fits; otherwise they are Python ints (dtype=object), so nothing
overflows, however large q is.
"""

import numpy as np

from .errors import PhigammaError


def _dtype(q, cols):
    """np.int64 when every intermediate provably fits, else object.

    Entries lie in [0, q).  Scaling a row and clearing a column form
    products of two entries; back-substitution and the final check form
    a row times the solution, at most cols * (q-1)^2, and subtract it
    from an entry below q.
    """
    return np.int64 if max(cols, 1) * (q - 1) ** 2 + q < 2 ** 63 else object


def _as_matrix(A, q):
    M = np.array(A, dtype=object)
    if M.ndim == 1:
        M = M.reshape(1, -1) if M.size else M.reshape(0, 0)
    return (M % q).astype(_dtype(q, M.shape[1]))


def _reduce(R, p, a, ncols):
    """In-place reduction; pivots only in columns < ncols.

    Returns the list of pivots (row, col, valuation).
    """
    q = p ** a
    rows = R.shape[0]
    pivots = []
    row_free = np.ones(rows, dtype=bool)
    col_free = np.zeros(R.shape[1], dtype=bool)
    col_free[:ncols] = True
    while True:
        sub = R[row_free][:, col_free]
        if sub.size == 0 or not sub.any():
            break
        # least valuation present in the remaining submatrix
        v = 0
        pk = 1
        while True:
            hit = (sub % (pk * p) != 0) & (sub != 0) if v < a else None
            if hit is not None and hit.any():
                break
            v += 1
            pk *= p
        ri, ci = np.argwhere(hit)[0]
        pi = np.flatnonzero(row_free)[ri]
        pj = np.flatnonzero(col_free)[ci]
        pv = p ** v
        unit = int(R[pi, pj]) // pv
        R[pi, :] = (R[pi, :] * pow(unit, -1, q)) % q
        # clear only rows not yet used as pivots: entries there have
        # valuation >= v by pivot minimality, so the division is exact
        factors = np.where(row_free, R[:, pj] // pv, 0)
        factors[pi] = 0
        R -= np.outer(factors, R[pi, :])
        R %= q
        pivots.append((int(pi), int(pj), v))
        row_free[pi] = False
        col_free[pj] = False
    return pivots


def reduce_mod_prime_power(A, p, a):
    """Row-reduce A over Z/p^a; returns (R, pivots)."""
    q = p ** a
    R = _as_matrix(A, q)
    if R.size == 0:
        return R, []
    pivots = _reduce(R, p, a, R.shape[1])
    return R, pivots


def solve_mod_prime_power(A, b, p, a):
    """One solution x of A x = b over Z/p^a, or None when unsolvable."""
    q = p ** a
    M = _as_matrix(A, q)
    rows = M.shape[0]
    cols = M.shape[1] if M.ndim == 2 and M.size else (
        len(A[0]) if rows and hasattr(A[0], "__len__") else 0)
    dtype = _dtype(q, cols)
    bb = (np.array(b, dtype=object) % q).astype(dtype)
    if rows == 0:
        return [0] * cols
    if cols == 0:
        return [] if not bb.any() else None
    M = M.reshape(rows, cols)
    aug = np.concatenate([M, bb.reshape(rows, 1)], axis=1)
    pivots = _reduce(aug, p, a, cols)
    pivot_rows = {pi for pi, _, _ in pivots}
    for i in range(rows):
        if i not in pivot_rows and aug[i, cols] % q:
            return None
    x = np.zeros(cols, dtype=dtype)
    # pivot rows are echelon-shaped; back-substitute newest pivot first
    for pi, pj, v in reversed(pivots):
        rhs = int(aug[pi, cols] - aug[pi, :cols] @ x) % q
        pv = p ** v
        if rhs % pv:
            return None
        x[pj] = (rhs // pv) % q
    if ((M @ x - bb) % q).any():
        raise PhigammaError("elimination invariant violated")
    return [int(t) for t in x]


def length_of_row_space(A, p, a):
    """Length of the row space of A as a Z/p^a-module."""
    _, pivots = reduce_mod_prime_power(A, p, a)
    return sum(a - v for _, _, v in pivots)


def kernel_length(A, p, a):
    """Length of the kernel of A acting on (Z/p^a)^cols."""
    M = np.array(A, dtype=object)
    if M.ndim != 2 or M.size == 0:
        cols = M.shape[1] if M.ndim == 2 else 0
        return a * cols
    cols = M.shape[1]
    return a * cols - length_of_row_space(M.T, p, a)
