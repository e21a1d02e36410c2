"""Tests for exact linear algebra over Z/p^a."""

import itertools
import os
import random
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from phigamma.framed import Cochain, FramedModule
from phigamma.herr import HerrComplex
from phigamma.linalg import (length_of_row_space, reduce_mod_prime_power,
                             solve_mod_prime_power)
from phigamma.matrices import SeriesMatrix
from phigamma.period import standard_cyclotomic

seeds = st.integers(0, 10**9)


def brute_solvable(A, b, p, a):
    q = p ** a
    rows, cols = len(A), len(A[0])
    for x in itertools.product(range(q), repeat=cols):
        if all(sum(A[i][j] * x[j] for j in range(cols)) % q == b[i]
               for i in range(rows)):
            return True
    return False


def brute_length(vectors, p, a):
    """log_p of the size of the span of the given rows."""
    q = p ** a
    rows = len(vectors)
    cols = len(vectors[0])
    span = set()
    for coeffs in itertools.product(range(q), repeat=rows):
        span.add(tuple(sum(coeffs[i] * vectors[i][j] for i in range(rows)) % q
                       for j in range(cols)))
    n = len(span)
    k = 0
    while p ** k < n:
        k += 1
    assert p ** k == n
    return k


def test_solve_unit_system():
    assert solve_mod_prime_power([[1, 2], [3, 4]], [5, 6], 3, 2) == [5, 0]


def test_solve_divisibility():
    # 3x = 3 has the solution x = 1 over Z/9; 3x = 1 has none
    assert solve_mod_prime_power([[3]], [3], 3, 2) is not None
    assert solve_mod_prime_power([[3]], [1], 3, 2) is None


def test_solve_inconsistent_rows():
    assert solve_mod_prime_power([[1, 1], [2, 2]], [1, 3], 3, 2) is None


def test_solve_edge_shapes():
    assert solve_mod_prime_power([], [], 3, 2) == []
    assert solve_mod_prime_power([[0, 0]], [0], 3, 2) == [0, 0]
    assert solve_mod_prime_power([[0, 0]], [5], 3, 2) is None


def test_reduce_pivot_valuations():
    R, pivots = reduce_mod_prime_power([[3, 0], [0, 1]], 3, 2)
    assert sorted(v for _, _, v in pivots) == [0, 1]


def test_lengths_frozen():
    assert length_of_row_space([[1, 0], [0, 1]], 3, 2) == 4
    assert length_of_row_space([[3, 0], [0, 3]], 3, 2) == 2
    assert length_of_row_space([[0, 0], [0, 0]], 3, 2) == 0


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_solve_round_trip(seed):
    rng = random.Random(seed)
    p, a = rng.choice([(2, 1), (2, 2), (3, 1), (3, 2), (5, 2), (2, 3)])
    q = p ** a
    rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
    A = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
    xs = [rng.randrange(q) for _ in range(cols)]
    b = [sum(A[i][j] * xs[j] for j in range(cols)) % q for i in range(rows)]
    sol = solve_mod_prime_power(A, b, p, a)
    assert sol is not None
    assert all(sum(A[i][j] * sol[j] for j in range(cols)) % q == b[i]
               for i in range(rows))


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_solvability_matches_brute_force(seed):
    rng = random.Random(seed)
    p, a = rng.choice([(2, 2), (3, 1), (2, 3)])
    q = p ** a
    rows, cols = rng.randrange(1, 4), rng.randrange(1, 3)
    A = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
    b = [rng.randrange(q) for _ in range(rows)]
    sol = solve_mod_prime_power(A, b, p, a)
    assert (sol is not None) == brute_solvable(A, b, p, a)


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_length_matches_brute_force(seed):
    rng = random.Random(seed)
    p, a = rng.choice([(2, 2), (3, 1), (2, 3), (3, 2)])
    q = p ** a
    rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
    A = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
    assert length_of_row_space(A, p, a) == brute_length(A, p, a)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_kernel_matches_brute_force(seed):
    rng = random.Random(seed)
    p, a = rng.choice([(2, 2), (3, 1), (2, 3)])
    q = p ** a
    rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
    A = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
    count = sum(
        1 for x in itertools.product(range(q), repeat=cols)
        if all(sum(A[i][j] * x[j] for j in range(cols)) % q == 0
               for i in range(rows)))
    # the kernel has length a * cols minus that of the row space of A^T
    At = [list(col) for col in zip(*A)]
    assert p ** (a * cols - length_of_row_space(At, p, a)) == count


# -- moduli past int64: q = 3^21 > 2^33 and q = 2^64 ------------------------

LARGE = [(3, 21), (2, 64)]


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_large_q_solve_round_trip(seed):
    rng = random.Random(seed)
    p, a = rng.choice(LARGE)
    q = p ** a
    rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
    # entries of mixed valuation, so pivots of every size appear
    A = [[rng.randrange(q) * p ** rng.randrange(4) % q for _ in range(cols)]
         for _ in range(rows)]
    xs = [rng.randrange(q) for _ in range(cols)]
    b = [sum(A[i][j] * xs[j] for j in range(cols)) % q for i in range(rows)]
    sol = solve_mod_prime_power(A, b, p, a)
    assert sol is not None
    assert all(sum(A[i][j] * sol[j] for j in range(cols)) % q == b[i]
               for i in range(rows))


def test_large_q_unsolvable_and_lengths():
    for p, a in LARGE:
        q = p ** a
        assert solve_mod_prime_power([[p]], [1], p, a) is None
        x = solve_mod_prime_power([[p, 0], [0, q - 1]], [p, 1], p, a)
        assert (p * x[0] % q, (q - 1) * x[1] % q) == (p, 1)
        assert length_of_row_space([[p ** 5, 0], [0, 1]], p, a) == 2 * a - 5
        assert length_of_row_space([[q - 1, 1], [q - 1, 1]], p, a) == a


def pinned_systems():
    """40 fixed systems, 10 each at q = 9, 25, 3^21 and 2^64; every
    fourth one has a random right-hand side, so some are unsolvable."""
    rng = random.Random(20261018)
    out = []
    for p, a in [(3, 2), (5, 2), (3, 21), (2, 64)]:
        q = p ** a
        for k in range(10):
            rows, cols = rng.randrange(2, 6), rng.randrange(2, 6)
            A = [[rng.randrange(q) * p ** rng.randrange(3) % q
                  for _ in range(cols)] for _ in range(rows)]
            if k % 4 == 3:
                b = [rng.randrange(q) * p ** rng.randrange(3) % q
                     for _ in range(rows)]
            else:
                xs = [rng.randrange(q) for _ in range(cols)]
                b = [sum(r[j] * xs[j] for j in range(cols)) % q for r in A]
            out.append((A, b, p, a))
    return out


# The solutions the solver returned for pinned_systems() when it ran on
# numpy arrays.  The pivot rule (least valuation, first in row-major
# order), the rows it clears and the back-substitution order decide which
# solution comes out; herr witnesses, and so the CLI's JSON bytes, depend
# on them.
PINNED_SOLUTIONS = [
    [2, 1, 1, 0],
    [6, 0],
    [0, 3],
    [0, 0, 0],
    [0, 1, 0],
    [0, 0],
    [5, 6, 0, 0, 0],
    [0, 1, 0, 0],
    [4, 0, 1],
    [1, 2],
    [24, 14, 0, 3],
    [13, 9],
    [7, 1, 0, 13, 12],
    None,
    [1, 2],
    [11, 20, 1, 16],
    [18, 4, 0, 0],
    [0, 0, 0, 0],
    [14, 1],
    [2, 12, 9, 19, 0],
    [8520934414, 16472475, 0],
    [6745652406, 6154626540],
    [4598867243, 8048630999, 6352619255],
    None,
    [7326572301, 7787579930],
    [3198650242, 198140925, 3255526178, 0, 0],
    [208608641, 0, 0, 3283327246, 0],
    [3084020973, 0, 2068446938, 8331903291],
    [821989025, 460926264, 4839947453],
    [195817008, 150568953],
    [3131759524182188863, 12535208281547390986, 4738215721999907471],
    [4191442421298146912, 7786999512306528651, 5038594949352648936,
     3784791201231334658],
    [3363512604980841172, 6130696052278826531, 6416065843676893121],
    None,
    [375140890374749701, 13444736006731140608],
    [13170077053675434, 4153726984819890188],
    [4192472715698072663, 1938554774784751851, 18439881856386752731,
     1465046789113889489],
    None,
    [15190666659783467428, 4068504706099435464],
    [5779005617445476618, 3839523958042156738, 7524256958079303901],
]


def test_pinned_solutions():
    got = [solve_mod_prime_power(A, b, p, a)
           for A, b, p, a in pinned_systems()]
    assert got == PINNED_SOLUTIONS


def test_unreduced_entries_solve_as_reduced():
    # the pinned systems with every entry, zeros included, moved by a
    # multiple of q, often to a negative representative: the solver
    # reduces its input first, so the answers stay the pinned ones
    rng = random.Random(7)
    for (A, b, p, a), want in zip(pinned_systems(), PINNED_SOLUTIONS):
        q = p ** a

        def moved(x):
            return x + q * rng.choice((-3, -2, -1, 0, 1, 2))
        A2 = [[moved(x) for x in row] for row in A]
        b2 = [moved(t) for t in b]
        assert any(x < 0 for row in A2 for x in row)
        assert solve_mod_prime_power(A2, b2, p, a) == want
        assert reduce_mod_prime_power(A2, p, a) == \
            reduce_mod_prime_power(A, p, a)


def test_cli_import_leaves_numpy_out():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    subprocess.run(
        [sys.executable, "-c",
         "import phigamma.cli, sys; assert 'numpy' not in sys.modules"],
        env=env, check=True)


def test_large_q_coboundary_round_trip():
    for p, a, window in [(3, 21, 24), (2, 64, 96)]:
        R = standard_cyclotomic(p, a, window=window)
        I = SeriesMatrix.identity(R, 1)
        C = HerrComplex(FramedModule(R, I, I), "plain")
        rng = random.Random(1)
        q = R.base.q
        z = SeriesMatrix(R, [[R.series({rng.randrange(0, 4): rng.randrange(q)
                                        for _ in range(3)})]])
        c = C.d0(Cochain(0, (z,)))
        res = C.try_coboundary(c)
        assert res.found
        for dp, cp in zip(C.d(res.witness).parts, c.parts):
            r = dp - cp
            assert r.truncate(min(r.hi, res.sub_window)).is_zero()


# -- the sparse eliminator against a dense one ----------------------------

def dense_reduce(A, p, a, ncols):
    """Reference elimination on dense rows, in place: the pivot of least
    valuation, first in row-major order, among the rows not yet used."""
    q = p ** a

    def val(x):
        return next(k for k in range(a) if x % p ** (k + 1))

    live = list(range(len(A)))
    pivots = []
    while True:
        cands = [(val(A[i][j]), i, j) for i in live
                 for j in range(ncols) if A[i][j]]
        if not cands:
            return pivots
        v, pi, pj = min(cands)
        pv = p ** v
        u = pow(A[pi][pj] // pv, -1, q)
        A[pi] = [x * u % q for x in A[pi]]
        live.remove(pi)
        for i in live:
            f = A[i][pj] // pv
            A[i] = [(x - f * y) % q for x, y in zip(A[i], A[pi])]
        pivots.append((pi, pj, v))


def dense_solve(A, b, p, a):
    q = p ** a
    if not A:
        return []
    cols = len(A[0])
    if cols == 0:
        return None if any(t % q for t in b) else []
    aug = [[x % q for x in row] + [t % q] for row, t in zip(A, b)]
    pivots = dense_reduce(aug, p, a, cols)
    used = {pi for pi, _, _ in pivots}
    if any(aug[i][cols] for i in range(len(aug)) if i not in used):
        return None
    x = [0] * cols
    for pi, pj, v in reversed(pivots):
        rhs = (aug[pi][cols] - sum(c * t for c, t in zip(aug[pi], x))) % q
        if rhs % p ** v:
            return None
        x[pj] = rhs // p ** v
    return x


def sparse_system(rng, p, a):
    """A system with fill-in (few nonzeros per row, spread over the
    columns), duplicated and zero rows, and entries of equal valuation,
    so the tie-break decides the pivot."""
    q = p ** a
    rows, cols = rng.randrange(0, 9), rng.randrange(0, 9)
    A = []
    for _ in range(rows):
        kind = rng.random()
        if kind < 0.15 or not cols:
            A.append([0] * cols)
        elif kind < 0.3 and A:
            A.append([x * rng.randrange(q) % q for x in rng.choice(A)])
        else:
            v = rng.randrange(a)
            row = [0] * cols
            for j in rng.sample(range(cols), rng.randrange(1, min(cols, 3) + 1)):
                row[j] = p ** v * rng.randrange(1, q) % q
            A.append(row)
    b = [rng.randrange(q) * p ** rng.randrange(a) % q for _ in range(rows)]
    if rows and cols and rng.random() < 0.5:
        x = [rng.randrange(q) for _ in range(cols)]
        b = [sum(r[j] * x[j] for j in range(cols)) % q for r in A]
    return A, b


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_sparse_matches_dense_reference(seed):
    rng = random.Random(seed)
    for p, a in [(3, 1), (3, 2), (2, 3), (5, 2), (3, 21), (2, 64)]:
        A, b = sparse_system(rng, p, a)
        assert solve_mod_prime_power(A, b, p, a) == dense_solve(A, b, p, a)
        R = [[x % p ** a for x in row] for row in A]
        pivots = dense_reduce(R, p, a, len(A[0]) if A else 0)
        assert reduce_mod_prime_power(A, p, a) == (R, pivots)
