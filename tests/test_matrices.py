"""Tests for series matrices, filtrations, and the twisted solvers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phigamma.errors import (EmptyWindow, NotInvertible, PhigammaError,
                             PreconditionViolated)
from phigamma.laurent import LaurentSeries
from phigamma.matrices import (FiltrationParams, SeriesMatrix, solve_g,
                               solve_h, twisted_conj)
from phigamma.period import make_custom_ring, standard_cyclotomic
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
        h = solve_h(g, x, PARAMS2)
        assert dict(h.entry(0, 1).terms()) == {3: (1,), 5: (1,)}
        assert h.entry(0, 0).coeff(0) == (1,) and h.entry(1, 0).is_zero()

    def test_solve_g_frozen_round_trip(self):
        x = diag_x(R2)
        g = SeriesMatrix(R2, [[R2.one(), R2.series({3: 1})],
                              [R2.zero(), R2.one()]])
        h = solve_h(g, x, PARAMS2)
        g2 = solve_g(h, x, PARAMS2)
        t = min(g2.hi, g.hi)
        assert g2.truncate(t).agrees(g.truncate(t))
        assert (twisted_conj(x, g2) - h.inv() * x).is_zero()

    def test_identity_cases(self):
        x = diag_x(R2)
        I = SeriesMatrix.identity(R2, 2)
        assert solve_h(I, x, PARAMS2).is_identity()
        assert solve_g(I, x, PARAMS2).is_identity()

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
        h = solve_h(g0, x, PARAMS9)
        g2 = solve_g(h, x, PARAMS9)
        assert (twisted_conj(x, g2) - h.inv() * x).is_zero()
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
        h = solve_h(g0, x, PARAMS9)
        pert = SeriesMatrix(R9, [
            [R9.one(), R9.zero()],
            [R9.series({PARAMS9.n_cong + rng.randrange(5): 1 + rng.randrange(8)}),
             R9.one()]])
        assert not (twisted_conj(x, g0 * pert) - h.inv() * x).is_zero()


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
