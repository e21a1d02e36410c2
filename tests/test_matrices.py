"""Tests for series matrices, filtrations, and the twisted solvers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phigamma.errors import (EmptyWindow, InsufficientWindow, NoConvergence,
                             NotAUnit, NotInvertible, PhigammaError,
                             PreconditionViolated)
from phigamma.laurent import LaurentSeries
from phigamma.matrices import (FiltrationParams, SeriesMatrix, solve_g,
                               solve_h, twisted_conj)
from phigamma.period import (make_custom_ring, standard_cyclotomic,
                             tame_extension)
from phigamma.samplers import rand_uni

from tails import sound, with_tail

seeds = st.integers(0, 10**9)

R2 = make_custom_ring(2, 1, 1, 40, {2: 1})
R9 = make_custom_ring(3, 2, 1, 48, {3: 1, -1: 3})


def count_gauss_jordan(monkeypatch):
    """The list of matrices SeriesMatrix._gauss_jordan runs on from now on
    in this test."""
    calls = []
    run = SeriesMatrix._gauss_jordan

    def counted(self):
        calls.append(self)
        return run(self)
    monkeypatch.setattr(SeriesMatrix, "_gauss_jordan", counted)
    return calls


class TestArithmetic:
    def test_identity_inverse(self):
        I = SeriesMatrix.identity(R9, 3)
        assert I.inv().agrees(I)

    def test_diag_inverse(self):
        m = SeriesMatrix(R2, [[R2.series({1: 1}), R2.zero()],
                              [R2.zero(), R2.series({-1: 1})]])
        mi = m.inv()
        assert dict(mi.entry(0, 0).terms()) == {-1: (1,)}
        assert dict(mi.entry(1, 1).terms()) == {1: (1,)}

    def test_unipotent_inverse(self):
        u = SeriesMatrix(R9, [[R9.one(), R9.series({3: 1})],
                              [R9.zero(), R9.one()]])
        ui = u.inv()
        assert dict(ui.entry(0, 1).terms()) == {3: (8,)}
        assert (u * ui).is_identity()

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            SeriesMatrix(R9, [[R9.one(), R9.one()],
                              [R9.one(), R9.one()]]).inv()

    def test_inverse_is_kept(self):
        u = rand_uni(random.Random(5), R9, 3, depth=1)
        ui = u.inv()
        assert u.inv() is ui
        assert (u * ui).is_identity()

    def test_failed_inverse_is_not_kept(self):
        m = SeriesMatrix(R9, [[R9.one(), R9.one()], [R9.one(), R9.one()]])
        for _ in range(2):
            with pytest.raises(NotInvertible):
                m.inv()

    def test_equal_matrices_share_one_inversion(self, monkeypatch):
        ring = standard_cyclotomic(3, 2, 1, 16)
        calls = count_gauss_jordan(monkeypatch)

        def build():
            return SeriesMatrix(ring, [[ring.one(), ring.series({2: 4})],
                                       [ring.series({1: 3}), ring.one()]])
        first, second = build(), build()
        assert first is not second
        assert second.inv() is first.inv()
        assert len(calls) == 1
        # a window is part of the value: a matrix that differs only there
        # is inverted on its own, and keeps its own window
        short = SeriesMatrix(ring, [[e.truncate(10) for e in r]
                                    for r in build().rows])
        assert short.inv().hi == 10 and first.inv().hi == 16
        assert len(calls) == 2

    @pytest.mark.parametrize("rows,error,message", [
        # no unit in the first column
        ([[3, 0], [0, 1]], NotInvertible, "no unit pivot in column 0"),
        # known only below u^-3, so the identity beside it has no window
        ([[{-5: 1}]], EmptyWindow, "window [0, -3) is empty"),
    ])
    def test_equal_matrix_raises_the_same_error(self, monkeypatch, rows,
                                                error, message):
        ring = standard_cyclotomic(3, 2, 1, 16)
        calls = count_gauss_jordan(monkeypatch)

        def build():
            return SeriesMatrix(ring, [
                [ring.series(e, -3) if isinstance(e, dict) else
                 ring.constant(e) for e in r] for r in rows])
        for _ in range(3):
            with pytest.raises(error) as info:
                build().inv()
            assert type(info.value) is error
            assert str(info.value) == message
        assert len(calls) == 1

    def test_rows_are_fixed(self):
        m = SeriesMatrix.identity(R9, 2)
        with pytest.raises(TypeError):
            m.rows[0][1] = R9.one()

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_inverse_round_trip(self, seed):
        rng = random.Random(seed)
        m = rand_uni(rng, R9, 3, 1)
        # shear by a diagonal of monomials to vary unit degrees
        d = SeriesMatrix(R9, [[R9.series({rng.randrange(-2, 3): 1})
                               if i == j else R9.zero() for j in range(3)]
                              for i in range(3)])
        x = m * d
        assert (x * x.inv()).is_identity()
        assert (x.inv() * x).is_identity()


# -- inverse soundness against adversarial unknown tails --------------------
#
# As for series (tests/test_laurent.py): an inverse is exact on its
# windows whatever the unknown coefficients of the matrix at and above
# each entry's hi are.  Extending every entry by random coefficients and
# inverting again must agree wherever both windows reach, and no window
# may shrink.  The matrices keep their pivot order under the tails: each
# diagonal entry has a unit at degree -2 to 0, with nilpotent terms
# below it, and the entries below the diagonal are multiples of p with
# no term below u^1, so a tail never brings a lower unit into a pivot
# column.

TAIL_RINGS = [standard_cyclotomic(p, a, f, 16) for p, a, f in [
    (3, 2, 1), (3, 2, 2), (2, 3, 1), (5, 2, 3)]]


def pivot_entry(rng, base):
    """A unit at degree d in [-2, 0], nilpotent terms below d (a
    nilpotent pole), random terms above."""
    d = rng.randrange(-2, 1)
    hi = rng.randrange(d + 1, 16)
    terms = {d: base.random_unit(rng)}
    for e in range(rng.randrange(-4, d + 1), d):
        terms[e] = base.smul(base.p, base.random(rng))
    for e in range(d + 1, hi):
        if rng.random() < 0.5:
            terms[e] = base.random(rng)
    return LaurentSeries.from_terms(base, terms, hi)


def off_pivot_entry(rng, base, below):
    """Zero (half the time, on a window as short as u^1), sparse or
    dense; below the diagonal a multiple of p with no term below u^1."""
    kind = rng.choice(("zero", "zero", "sparse", "dense"))
    lo = 1 if below else -2
    hi = rng.randrange(lo + 1, 16)
    terms = {}
    if kind == "sparse":
        for _ in range(rng.randrange(1, 4)):
            terms[rng.randrange(lo, hi)] = base.random(rng)
    elif kind == "dense":
        for e in range(lo, hi):
            terms[e] = base.random(rng)
    if below:
        terms = {e: base.smul(base.p, c) for e, c in terms.items()}
    return LaurentSeries.from_terms(base, terms, hi)


class TestAdversarialTails:
    def test_zero_entry_with_short_window(self):
        # M[0][1] is 0 mod u^4; u^4 mod u^16 agrees with it there
        R = TAIL_RINGS[2]

        def inverse(top_right):
            return SeriesMatrix(R, [
                [R.series({0: 1}, 4), top_right],
                [R.series({1: 7}, 14), R.series({-1: 6, 0: 7}, 12)]]).inv()

        small = inverse(R.zero(4))
        assert sound(small.entry(0, 1),
                     inverse(R.series({4: 1}, 16)).entry(0, 1))
        assert small.entry(0, 1).hi == 2

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_inv(self, seed):
        rng = random.Random(seed)
        for R in TAIL_RINGS:
            n = rng.randrange(1, 4)
            rows = [[pivot_entry(rng, R.base) if i == j else
                     off_pivot_entry(rng, R.base, i > j)
                     for j in range(n)] for i in range(n)]
            tailed = SeriesMatrix(R, [[with_tail(rng, e) for e in r]
                                      for r in rows])
            try:
                small = SeriesMatrix(R, rows).inv()
            except PhigammaError:
                continue  # the windows are too short to invert
            large = tailed.inv()
            for rs, rl in zip(small.rows, large.rows):
                for s, l in zip(rs, rl):
                    assert sound(s, l)


# -- the product and Gauss-Jordan against the plain chains ------------------
#
# A matrix product forms each entry as one packed sum, and Gauss-Jordan
# drops each column once it is cleared.  Both must give what the plain
# chains below give: every entry with the same value and window, or the
# same error class and message first.

ORACLE_RINGS = [standard_cyclotomic(p, a, f, 16) for p, a, f in [
    (3, 2, 1), (3, 2, 2), (5, 2, 3), (3, 21, 1)]]

# (rows of a, columns of a, columns of b)
PRODUCT_SHAPES = [(1, 1, 1), (2, 2, 2), (3, 3, 3), (2, 3, 1)]


def chain_product(a, b):
    """a * b with each entry the chain x_0*y_0 + x_1*y_1 + ... of series
    products and sums."""
    out = []
    for ra in a.rows:
        row = []
        for j in range(b.ncols):
            acc = ra[0] * b.rows[0][j]
            for k in range(1, a.ncols):
                acc = acc + ra[k] * b.rows[k][j]
            row.append(acc)
        out.append(row)
    return SeriesMatrix(a.ring, out)


def full_row_inverse(m):
    """Gauss-Jordan on [m | I] that scales and updates every entry of
    every row, cleared columns included."""
    n = m.n
    if not n:
        return SeriesMatrix(m.ring, [])
    identity = SeriesMatrix.identity(m.ring, n, m.hi).rows
    aug = [row + one for row, one in zip(m.rows, identity)]
    for col in range(n):
        best = None
        for r in range(col, n):
            try:
                d = aug[r][col].unit_degree().d
            except (NotAUnit, InsufficientWindow):
                continue
            if best is None or d < best[1]:
                best = (r, d)
        if best is None:
            raise NotInvertible(f"no unit pivot in column {col}")
        r = best[0]
        aug[col], aug[r] = aug[r], aug[col]
        piv_inv = aug[col][col].inv()
        aug[col] = [e * piv_inv for e in aug[col]]
        for r2 in range(n):
            if r2 == col:
                continue
            c = aug[r2][col]
            aug[r2] = [e - c * q for e, q in zip(aug[r2], aug[col])]
    return SeriesMatrix(m.ring, [row[n:] for row in aug])


def outcome(fn, *args):
    """The key of fn(*args), or the class and message of its error."""
    try:
        return fn(*args).key()
    except (PhigammaError, OverflowError) as exc:
        return type(exc), str(exc)


def oracle_entry(rng, base):
    """A zero on a short or a long window, a monomial, a series with a
    pole, a dense or a sparse series."""
    kind = rng.choice(("zero", "zero", "monomial", "pole", "dense",
                       "sparse"))
    if kind == "zero":
        return LaurentSeries.zero(base, rng.choice((rng.randrange(-3, 3),
                                                    rng.randrange(12, 24))))
    lo = rng.randrange(-4, 0) if kind == "pole" else rng.randrange(0, 4)
    hi = rng.randrange(lo + 1, lo + 20)
    if kind == "monomial":
        terms = {lo: base.random(rng)}
    elif kind == "sparse":
        terms = {rng.randrange(lo, hi): base.random(rng) for _ in range(3)}
    else:
        terms = {e: base.random(rng) for e in range(lo, hi)}
        terms[lo] = base.random_unit(rng)
    return LaurentSeries.from_terms(base, terms, hi)


def oracle_matrix(rng, ring, nrows, ncols):
    """A random matrix of `oracle_entry` entries; a third of the time
    every row has one entry that is not zero, so most entries of a
    product are a single product."""
    sparse = rng.random() < 1 / 3
    rows = []
    for _ in range(nrows):
        keep = rng.randrange(ncols)
        rows.append([oracle_entry(rng, ring.base) if not sparse or j == keep
                     else LaurentSeries.zero(ring.base, rng.randrange(2, 20))
                     for j in range(ncols)])
    return SeriesMatrix(ring, rows)


def unreduced(rng, base, bad):
    """A dense series on [0, 6) whose coordinate at a random place is bad,
    through the constructor, which refuses a coordinate outside [0, q)."""
    coords = [list(base.random_unit(rng))] + [list(base.random(rng))
                                              for _ in range(5)]
    coords[rng.randrange(6)][rng.randrange(base.f)] = bad
    return LaurentSeries(base, 0, 6, [tuple(c) for c in coords])


class TestProductOracle:
    """SeriesMatrix.__mul__ against the chain of series products and
    sums; each side gets matrices of its own, built from the same seed,
    so neither sees the packings the other made."""

    @pytest.mark.parametrize("shape", PRODUCT_SHAPES)
    @pytest.mark.parametrize("ring", ORACLE_RINGS,
                             ids=lambda r: f"q{r.base.q}-f{r.base.f}")
    def test_matches_the_chain(self, ring, shape):
        n, k, m = shape
        for seed in range(40):
            def build():
                rng = random.Random(seed)
                return (oracle_matrix(rng, ring, n, k),
                        oracle_matrix(rng, ring, k, m))
            assert outcome(SeriesMatrix.__mul__, *build()) == \
                outcome(chain_product, *build())

    @pytest.mark.parametrize("ring", ORACLE_RINGS,
                             ids=lambda r: f"q{r.base.q}-f{r.base.f}")
    def test_full_slots(self, ring):
        # every coordinate q - 1, so the middle slots of each product are
        # as full as the slot width allows: a width that counts less than
        # every term's products carries into the next slot
        base = ring.base
        top = (base.q - 1,) * base.f
        for k in (2, 3, 5):
            for length in range(1, 9):
                x = LaurentSeries(base, 0, length, [top] * length)
                a = SeriesMatrix(ring, [[x] * k])
                b = SeriesMatrix(ring, [[x]] * k)
                assert (a * b).key() == chain_product(a, b).key()

    def test_single_term_entry_is_the_product(self):
        # one nonzero product below the window: a monomial times a dense
        # series, cut at the window of the zero product beside it
        R = ORACLE_RINGS[0]
        dense = R.series({e: 1 + e % 8 for e in range(12)}, 12)
        a = SeriesMatrix(R, [[R.series({1: 3}), R.zero(9)]])
        b = SeriesMatrix(R, [[dense], [dense]])
        got = (a * b).entry(0, 0)
        assert got.key() == (R.series({1: 3}) * dense).truncate(9).key()
        assert got.key() == chain_product(a, b).entry(0, 0).key()
        assert got.lo == 1 and got.hi == 9

    @pytest.mark.parametrize("ring", ORACLE_RINGS,
                             ids=lambda r: f"q{r.base.q}-f{r.base.f}")
    def test_unreduced_coordinate_raises(self, ring):
        # an entry with a coordinate outside [0, q) would carry into its
        # neighbour's slot in a packed dot product, so the series
        # constructor refuses it
        q = ring.base.q
        for seed in range(24):
            rng = random.Random(seed)
            bad = rng.choice((q, q + 1, -1))
            with pytest.raises((PhigammaError, OverflowError)) as info:
                unreduced(rng, ring.base, bad)
            if bad < 0:
                assert type(info.value) is OverflowError
                assert str(info.value) == f"coordinate {bad} is negative"
            else:
                assert type(info.value) is PhigammaError
                assert str(info.value) == \
                    f"coordinate {bad} is not reduced mod {q}"


class TestGaussJordanOracle:
    """_gauss_jordan, called directly so the ring's memo is bypassed,
    against the full-row elimination."""

    @pytest.mark.parametrize("ring", TAIL_RINGS,
                             ids=lambda r: f"q{r.base.q}-f{r.base.f}")
    def test_matches_full_rows(self, ring):
        errors = set()
        for seed in range(60):
            def build():
                rng = random.Random(seed)
                n = rng.randrange(1, 5)
                if rng.random() < 0.5:
                    return oracle_matrix(rng, ring, n, n)
                return SeriesMatrix(ring, [
                    [pivot_entry(rng, ring.base) if i == j else
                     off_pivot_entry(rng, ring.base, i > j)
                     for j in range(n)] for i in range(n)])
            got = outcome(SeriesMatrix._gauss_jordan, build())
            assert got == outcome(full_row_inverse, build())
            if isinstance(got[0], type):
                errors.add(got[0])
        assert NotInvertible in errors


class TestOperators:
    def test_apply_phi_entrywise(self):
        x = SeriesMatrix(R9, [[R9.variable(), R9.zero()],
                              [R9.zero(), R9.one()]])
        y = x.apply_phi()
        assert dict(y.entry(0, 0).terms()) == {3: (1,), -1: (3,)}
        assert y.entry(1, 1).coeff(0) == (1,)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_phi_multiplicative(self, seed):
        rng = random.Random(seed)
        x = rand_uni(rng, R9, 2, 1)
        y = rand_uni(rng, R9, 2, 1)
        lhs = (x * y).apply_phi()
        rhs = x.apply_phi() * y.apply_phi()
        t = min(lhs.hi, rhs.hi)
        assert lhs.truncate(t).agrees(rhs.truncate(t))


class TestFiltrations:
    def test_identity_in_Un(self):
        I = SeriesMatrix.identity(R9, 2)
        assert I.in_Un(5) and I.in_Un(20)

    def test_congruence_depth(self):
        x = SeriesMatrix(R9, [[R9.one(), R9.series({4: 1})],
                              [R9.zero(), R9.one()]])
        assert x.congruence_depth() == 4
        assert x.in_Un(4) and not x.in_Un(5)

    def test_stabilized_filtration_example(self):
        # p=3, a=2, c_phi=1: X = I + 3u^{-m-1}E12 satisfies the i=1 clause
        # of the stabilized filtration but is not in the plain one
        m = 2
        X = SeriesMatrix(R9, [[R9.one(), R9.series({-(m + 1): 3})],
                              [R9.zero(), R9.one()]])
        assert not X.in_Vm(m)
        assert X.in_Lm_phi(m)
        assert X.in_Vm(m + 2 * R9.c_phi())

    @settings(max_examples=30, deadline=None)
    @given(seeds)
    def test_nesting(self, seed):
        rng = random.Random(seed)
        m = rng.randrange(0, 3)
        c = R9.c_phi()
        a = R9.base.a
        x = SeriesMatrix(R9, [
            [R9.one() + R9.series({rng.randrange(1, 4): rng.randrange(9)}),
             R9.series({-rng.randrange(0, m + 1): 3 * rng.randrange(3)})],
            [R9.zero(), R9.one()]])
        if x.in_Vm(m):
            assert x.in_Lm_phi(m)
        if x.in_Lm_phi(m):
            assert x.in_Vm(m + a * c)

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_twisted_conj_stability(self, seed):
        # x in stabilized filtration, g integral invertible => conjugate stays
        rng = random.Random(seed)
        m = 2
        x = SeriesMatrix(R9, [[R9.one(), R9.series({-(m + 1): 3})],
                              [R9.zero(), R9.one()]])
        g = rand_uni(rng, R9, 2, 1)
        assert x.in_Lm_phi(m)
        assert twisted_conj(x, g).in_Lm_phi(m)


class TestTwistedConj:
    def test_identity(self):
        x = SeriesMatrix(R9, [[R9.series({-1: 1}), R9.zero()],
                              [R9.zero(), R9.one()]])
        I = SeriesMatrix.identity(R9, 2)
        assert twisted_conj(x, I).agrees(x)

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_action_law(self, seed):
        rng = random.Random(seed)
        x = rand_uni(rng, R9, 2, 1)
        g = rand_uni(rng, R9, 2, 1)
        h = rand_uni(rng, R9, 2, 1)
        lhs = twisted_conj(twisted_conj(x, g), h)
        rhs = twisted_conj(x, g * h)
        t = min(lhs.hi, rhs.hi)
        assert lhs.truncate(t).agrees(rhs.truncate(t))


PARAMS2 = FiltrationParams(m=1, n_cong=3, lam=Fraction(2), N=1)
PARAMS9 = FiltrationParams(m=1, n_cong=5, lam=Fraction(2), N=4)


def diag_x(ring, rng=None):
    extra = ring.series({0: rng.randrange(ring.base.q)}) if rng else ring.zero()
    return SeriesMatrix(ring, [[ring.series({-1: 1}), extra],
                               [ring.zero(), ring.one()]])


class TestSolvers:
    def test_solve_h_frozen(self):
        # p=2, phi(u)=u^2, x=diag(u^-1,1), g=I+u^3 E12 -> h = I+(u^3-u^5)E12
        x = diag_x(R2)
        g = SeriesMatrix(R2, [[R2.one(), R2.series({3: 1})],
                              [R2.zero(), R2.one()]])
        h = solve_h(g, x, PARAMS2)[0]
        assert dict(h.entry(0, 1).terms()) == {3: (1,), 5: (1,)}
        assert h.entry(0, 0).coeff(0) == (1,) and h.entry(1, 0).is_zero()

    @pytest.mark.parametrize("seed", range(4))
    def test_solve_h_returns_the_conjugate(self, seed):
        # the second value is twisted_conj(x, g), windows included, and
        # h^-1 * x is the same product
        rng = random.Random(seed)
        x = diag_x(R9, rng)
        g0 = rand_uni(rng, R9, 2, PARAMS9.n_cong, spread=3)
        h, c = solve_h(g0, x, PARAMS9)
        assert c.key() == twisted_conj(x, g0).key()
        assert (c - h.inv() * x).is_zero()

    def test_solve_g_frozen_round_trip(self):
        x = diag_x(R2)
        g = SeriesMatrix(R2, [[R2.one(), R2.series({3: 1})],
                              [R2.zero(), R2.one()]])
        h = solve_h(g, x, PARAMS2)[0]
        g2, y = solve_g(h, x, PARAMS2)
        t = min(g2.hi, g.hi)
        assert g2.truncate(t).agrees(g.truncate(t))
        assert y.key() == (h.inv() * x).key()
        assert (twisted_conj(x, g2) - y).is_zero()

    def test_identity_cases(self):
        x = diag_x(R2)
        I = SeriesMatrix.identity(R2, 2)
        assert solve_h(I, x, PARAMS2)[0].is_identity()
        assert solve_g(I, x, PARAMS2)[0].is_identity()

    def test_precondition_rejected(self):
        x = diag_x(R2)
        g = SeriesMatrix(R2, [[R2.one(), R2.series({1: 1})],
                              [R2.zero(), R2.one()]])
        with pytest.raises(PreconditionViolated):
            solve_h(g, x, PARAMS2)  # g only in U_1, not U_3
        with pytest.raises(PreconditionViolated):
            FiltrationParams(m=1, n_cong=2, lam=Fraction(2), N=1).check()

    @pytest.mark.parametrize("lam", [2, 3, Fraction(3, 2), Fraction(7, 3)])
    def test_precondition_is_exact(self, lam):
        """check() admits exactly n_cong > max(2m/(lam - 1), N), with the
        threshold as a Fraction in its message, for an int lam as for
        the equal Fraction."""
        for m in range(4):
            for N in range(1, 5):
                threshold = max(Fraction(2 * m) / (Fraction(lam) - 1),
                                Fraction(N))
                for n_cong in range(1, 10):
                    for x in (lam, Fraction(lam)):
                        params = FiltrationParams(m, n_cong, x, N)
                        if n_cong > threshold:
                            params.check()
                            continue
                        with pytest.raises(PreconditionViolated) as exc:
                            params.check()
                        assert str(exc.value) == (
                            f"need n > max(2m/(lam-1), N) = {threshold}, "
                            f"got {n_cong}")

    @pytest.mark.parametrize("lam", [1, Fraction(1, 2), 0])
    def test_lam_at_most_one_rejected(self, lam):
        with pytest.raises(PreconditionViolated, match="need lam > 1"):
            FiltrationParams(m=1, n_cong=9, lam=lam, N=1).check()

    @settings(max_examples=25, deadline=None)
    @given(seeds)
    def test_round_trip_random(self, seed):
        rng = random.Random(seed)
        x = diag_x(R9, rng)
        g0 = rand_uni(rng, R9, 2, PARAMS9.n_cong, spread=3)
        h = solve_h(g0, x, PARAMS9)[0]
        g2, y = solve_g(h, x, PARAMS9)
        assert y.key() == (h.inv() * x).key()
        assert (twisted_conj(x, g2) - y).is_zero()
        t = min(g2.hi, g0.hi)
        assert g2.truncate(t).agrees(g0.truncate(t))

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_uniqueness_perturbation(self, seed):
        rng = random.Random(seed)
        x = diag_x(R9)
        g0 = SeriesMatrix(R9, [
            [R9.one(), R9.series({PARAMS9.n_cong: 1 + rng.randrange(8)})],
            [R9.zero(), R9.one()]])
        h = solve_h(g0, x, PARAMS9)[0]
        pert = SeriesMatrix(R9, [
            [R9.one(), R9.zero()],
            [R9.series({PARAMS9.n_cong + rng.randrange(5): 1 + rng.randrange(8)}),
             R9.one()]])
        assert not (twisted_conj(x, g0 * pert) - h.inv() * x).is_zero()



def solved_g(h, x, params):
    """The g of solve_g, once the y it hands back is checked to be
    h^-1 x."""
    g, y = solve_g(h, x, params)
    assert y.key() == (h.inv() * x).key()
    return g


def conj_each_solve_g(h, x, params, max_iter=64):
    """solve_g with each step taken as twisted_conj(x_i, h_i), which
    inverts every correction h_i: the reference for solve_g's step
    x_{i+1} = y * phi(h_i)."""
    params.check()
    if not h.in_Un(params.n_cong):
        raise PreconditionViolated("h is not in U_n")
    target_inv = x.inv() * h
    g = SeriesMatrix.identity(x.ring, x.n, x.hi)
    xi = x
    depth = params.n_cong - 1
    for _ in range(max_iter):
        hi_corr = xi * target_inv
        d = hi_corr.congruence_depth()
        if d is None:
            return g
        if d <= depth:
            raise NoConvergence(
                f"correction depth {d} did not grow past {depth}")
        depth = d
        g = g * hi_corr
        xi = twisted_conj(xi, hi_corr)
    raise NoConvergence(f"no fixed point within {max_iter} iterations")


def identity_ring(name, window):
    """Cyclotomic p=3, the intro ring u^3 + 3u^-1, or tame e=2 over
    cyclotomic p=3, all at a = 2."""
    if name == "cyclotomic-p3":
        return standard_cyclotomic(3, 2, 1, window)
    if name == "intro":
        return make_custom_ring(3, 2, 1, window, {3: 1, -1: 3})
    return tame_extension(standard_cyclotomic(3, 2, 1, window), 2)


IDENTITY_RINGS = ["cyclotomic-p3", "intro", "tame-e2-p3"]


class TestConjugationIdentities:
    """The two identities solve-twisted uses in place of a matrix inverse.
    With y = h^-1 x and h_i = x_i x^-1 h, h_i^-1 x_i = y, so
    twisted_conj(x_i, h_i) = y * phi(h_i); and since phi is multiplicative,
    twisted_conj(x, g0 * pert) = pert^-1 * twisted_conj(x, g0) *
    phi(pert).  Each side is compared on the common window, which must
    reach past the perturbation's exponent."""

    @pytest.mark.parametrize("name", IDENTITY_RINGS)
    def test_correction_step(self, name):
        ring = identity_ring(name, 32)
        for seed in range(6):
            rng = random.Random(seed)
            x = diag_x(ring, rng)
            g0 = rand_uni(rng, ring, 2, PARAMS9.n_cong, spread=3)
            h = solve_h(g0, x, PARAMS9)[0]
            y = h.inv() * x
            xi = twisted_conj(x, rand_uni(rng, ring, 2, PARAMS9.n_cong,
                                          spread=3))
            hi_corr = xi * (x.inv() * h)
            lhs = y * hi_corr.apply_phi()
            rhs = twisted_conj(xi, hi_corr)
            t = min(lhs.hi, rhs.hi)
            assert t > PARAMS9.n_cong + 4
            assert lhs.truncate(t).agrees(rhs.truncate(t))

    @pytest.mark.parametrize("name", IDENTITY_RINGS)
    def test_perturbed_conjugate(self, name):
        ring = identity_ring(name, 32)
        for seed in range(6):
            rng = random.Random(seed)
            x = diag_x(ring, rng)
            g0 = rand_uni(rng, ring, 2, PARAMS9.n_cong, spread=3)
            # solve-twisted's perturbation: u^(n_cong + k), k < 4, below
            # the diagonal
            pert = SeriesMatrix(ring, [
                [ring.one(), ring.zero()],
                [ring.series({PARAMS9.n_cong + rng.randrange(4):
                              1 + rng.randrange(ring.base.q - 1)}),
                 ring.one()]])
            lhs = pert.inv() * twisted_conj(x, g0) * pert.apply_phi()
            rhs = twisted_conj(x, g0 * pert)
            t = min(lhs.hi, rhs.hi)
            assert t > PARAMS9.n_cong + 4
            assert lhs.truncate(t).agrees(rhs.truncate(t))

    @pytest.mark.parametrize("window", [8, 9, 12, 32])
    @pytest.mark.parametrize("name", IDENTITY_RINGS)
    def test_solve_g_matches_conj_each(self, name, window):
        """solve_g gives the key (windows included), or the error, of the
        loop that inverts every correction."""
        ring = identity_ring(name, window)
        for seed in range(8):
            rng = random.Random(seed)
            x = diag_x(ring, rng)
            try:
                h = solve_h(rand_uni(rng, ring, 2, PARAMS9.n_cong,
                                     spread=3), x, PARAMS9)[0]
            except PhigammaError:
                continue
            assert outcome(solved_g, h, x, PARAMS9) == \
                outcome(conj_each_solve_g, h, x, PARAMS9)

    def test_solve_g_inverts_only_x_and_h(self, monkeypatch):
        """However many corrections it takes, solve_g runs Gauss-Jordan on
        x and on h at most, never on a correction."""
        rng = random.Random(0)
        x = diag_x(R9, rng)
        h = solve_h(rand_uni(rng, R9, 2, PARAMS9.n_cong, spread=3), x,
                    PARAMS9)[0]
        monkeypatch.setattr(R9, "_inverses", {})
        depths = []
        depth = SeriesMatrix.congruence_depth

        def recorded(m):
            depths.append(depth(m))
            return depths[-1]
        monkeypatch.setattr(SeriesMatrix, "congruence_depth", recorded)
        calls = count_gauss_jordan(monkeypatch)
        solve_g(h, x, PARAMS9)
        assert len([d for d in depths if d is not None]) >= 2
        assert len(calls) <= 2
        assert {m.key() for m in calls} <= {x.key(), h.key()}


def test_normality_of_Un():
    rng = random.Random(7)
    for _ in range(10):
        g = rand_uni(rng, R9, 2, 1)
        u = rand_uni(rng, R9, 2, 6)
        assert (g * u * g.inv()).in_Un(6)


def test_json_round_trip():
    x = SeriesMatrix(R9, [[R9.series({-1: 3, 2: 1}), R9.zero()],
                          [R9.one(), R9.variable()]])
    y = SeriesMatrix.from_json(R9, x.to_json())
    assert y.agrees(x)
