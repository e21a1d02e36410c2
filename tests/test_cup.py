"""Tests for parabolic mask data, the lambda map, the generalized cup
product, and the lifting step."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phigamma.cup import (ParabolicData, check_mu_well_defined, lambda_map,
                          lift_step, mu)
from phigamma.errors import (BadComposition, BadWitness, InsufficientWindow,
                             LeviNotCommuting, NotALift, NotCentralValued)
from phigamma.framed import Cochain, FramedModule, commutation_residual
from phigamma.herr import HerrComplex, ext_residual
from phigamma.matrices import SeriesMatrix
from phigamma.period import standard_cyclotomic
from phigamma.samplers import diag_const, rand_lift, rand_vec

seeds = st.integers(0, 10**9)

R = standard_cyclotomic(3, 1, window=40)
D2 = ParabolicData(2, (1, 1))
D3 = ParabolicData(3, (1, 1, 1))


PHI_L3 = diag_const(R, (2, 1, 2))
GAM_L3 = diag_const(R, (1, 2, 1))


def borel2_module():
    return FramedModule(R, diag_const(R, (2, 1)), diag_const(R, (1, 1)),
                        pattern=D2.quotient_pattern(1))


def borel3_module():
    return FramedModule(R, PHI_L3, GAM_L3, pattern=D3.quotient_pattern(2))


# the upper cells of a lift of a Borel module one step up the series
CELLS2 = ((0, 1),)
CELLS3 = ((0, 1), (1, 2))
M3 = borel3_module()


class TestParabolicData:
    def test_borel_gl2(self):
        assert D2.k == 2
        assert sorted(D2.u_mask(1)) == [(0, 1)]
        assert sorted(D2.central_mask(1)) == [(0, 1)]
        assert D2.u_mask(0) == frozenset()

    def test_borel_gl3(self):
        assert D3.k == 3
        assert sorted(D3.u_mask(1)) == [(0, 2)]  # the center line
        assert sorted(D3.central_mask(2)) == [(0, 1), (1, 2)]
        assert D3.u_mask(1) < D3.u_mask(2)

    def test_abelian_radical(self):
        d = ParabolicData(3, (2, 1))
        assert d.k == 2
        assert sorted(d.u_mask(1)) == [(0, 2), (1, 2)]

    def test_quotient_patterns(self):
        # P/U_j keeps block distances 0 to k - j - 1
        diag2 = [(0, 0), (1, 1)]
        assert sorted(D2.quotient_pattern(0)) == [(0, 0), (0, 1), (1, 1)]
        assert sorted(D2.quotient_pattern(1)) == diag2
        diag3 = [(0, 0), (1, 1), (2, 2)]
        assert sorted(D3.quotient_pattern(0)) == sorted(
            diag3 + [(0, 1), (1, 2), (0, 2)])
        assert sorted(D3.quotient_pattern(1)) == sorted(
            diag3 + [(0, 1), (1, 2)])
        assert sorted(D3.quotient_pattern(2)) == diag3
        d = ParabolicData(3, (2, 1))
        levi = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
        assert sorted(d.quotient_pattern(0)) == sorted(
            levi + [(0, 2), (1, 2)])
        assert sorted(d.quotient_pattern(1)) == levi
        for data in (D2, D3, d):
            for j in (-1, data.k):
                with pytest.raises(BadComposition):
                    data.quotient_pattern(j)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_central_levels_are_central(self, n):
        # U_i U and U U_i lie in U_{i-1} for every composition of n into
        # at least two parts and every level i
        def mask_mul(a, b):
            return {(r, c) for (r, m) in a for (m2, c) in b if m == m2}

        def compositions(n):
            yield (n,)
            for first in range(1, n):
                for rest in compositions(n - first):
                    yield (first,) + rest

        for blocks in compositions(n):
            if len(blocks) < 2:
                continue
            d = ParabolicData(n, blocks)
            full = d.u_mask(d.k - 1)
            for i in range(1, d.k):
                ui = d.u_mask(i)
                assert mask_mul(ui, full) | mask_mul(full, ui) <= \
                    d.u_mask(i - 1)

    def test_bad_compositions(self):
        with pytest.raises(BadComposition):
            ParabolicData(3, (3,))
        with pytest.raises(BadComposition):
            ParabolicData(3, (2, 2))
        with pytest.raises(BadComposition):
            ParabolicData(3, (3, 0))

    def test_ad_rep_is_conjugation(self):
        L = PHI_L3
        A = D3.ad_rep(2, L)
        z = SeriesMatrix(R, [[R.series({1: 2})], [R.series({0: 1})]])
        direct = L * D3.unvectorize_central(2, z) * L.inv()
        assert (D3.vectorize_central(2, direct) - A * z).is_zero()


class TestLambda:
    def test_identity_pair(self):
        I = SeriesMatrix.identity(R, 2)
        assert (lambda_map(I, I) - I).is_zero()

    def test_constant_case_is_commutator(self):
        A = SeriesMatrix(R, [[R.constant(2), R.constant(1)],
                             [R.constant(1), R.constant(1)]])
        B = SeriesMatrix(R, [[R.constant(1), R.constant(2)],
                             [R.constant(0), R.constant(1)]])
        comm = A.inv() * B.inv() * A * B
        assert (lambda_map(A, B) - comm).is_zero()

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_lambda_is_one_plus_scaled_residual(self, seed):
        # lambda(a, b) = 1 + gamma(a)^-1 b^-1 (a phi(b) - b gamma(a))
        rng = random.Random(seed)
        a, b = rand_lift(rng, M3, CELLS3)
        lam = lambda_map(a, b)
        resid = commutation_residual(a, b)
        pred = (SeriesMatrix.identity(R, 3) +
                a.apply_gamma().inv() * b.inv() * resid)
        d = lam - pred
        assert all(e.truncate(min(e.hi, 30)).is_zero()
                   for row in d.rows for e in row)

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_factorization_identity(self, seed):
        # with commuting Levi parts and ad_g(x) = g x g^-1:
        # lambda = gamma(a_u)^-1 ad_{gamma(a_l)^-1}(b_u^-1)
        #          ad_{phi(b_l)^-1}(a_u) phi(b_u)
        rng = random.Random(seed)

        def ad(g, x):
            return D3.qmul(0, D3.qmul(0, g, x), D3.qinv(0, g))

        a, b = rand_lift(rng, M3, ((0, 1), (1, 2), (0, 2)))
        a_u = D3.qmul(0, PHI_L3.inv(), a)
        b_u = D3.qmul(0, GAM_L3.inv(), b)
        lam = lambda_map(a, b, D3, 0)
        rhs = D3.qmul(0, D3.qinv(0, a_u.apply_gamma()),
              D3.qmul(0, ad(PHI_L3.apply_gamma().inv(), D3.qinv(0, b_u)),
              D3.qmul(0, ad(GAM_L3.apply_phi().inv(), a_u),
                      D3.qreduce(b_u.apply_phi(), 0))))
        d = lam - rhs
        assert all(e.truncate(min(e.hi, 30)).is_zero()
                   for row in d.rows for e in row)


class TestMu:
    def test_valid_lift_gives_zero_class(self):
        M = borel2_module()
        # the Levi matrices themselves, extended by zero, are a lift
        cls = mu(D2, 1, M, M.Phi, M.Gam)
        assert all(p.is_zero() for p in cls.rep.parts)

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_gl2_matches_ext_residual(self, seed):
        # mu coordinate = gamma(Phi0)^-1 Gam0^-1 * top-right of the
        # extension residual for the same unipotent coordinates
        rng = random.Random(seed)
        M = borel2_module()
        P, G = rand_lift(rng, M, CELLS2)
        cls = mu(D2, 1, M, P, G)
        Phi0, Gam0 = M.Phi.entry(0, 0), M.Gam.entry(0, 0)
        M0 = FramedModule(R, SeriesMatrix(R, [[Phi0]]),
                          SeriesMatrix(R, [[Gam0]]))
        C0 = HerrComplex(M0, "framed")
        x = SeriesMatrix(R, [[Phi0.inv() * P.entry(0, 1)]])
        y = SeriesMatrix(R, [[Gam0.inv() * G.entry(0, 1)]])
        resid = ext_residual(C0, Cochain(1, (x, y)))
        pred = R.gamma.apply(Phi0).inv() * Gam0.inv() * resid.entry(0, 1)
        d = cls.rep.parts[0].entry(0, 0) - pred
        assert d.truncate(min(d.hi, 30)).is_zero()

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_central_perturbation_shifts_by_d1(self, seed):
        rng = random.Random(seed)
        M = borel3_module()
        P, G = rand_lift(rng, M, CELLS3)
        cls = mu(D3, 2, M, P, G)
        C = cls.complex
        z, zp = rand_vec(rng, R, lo=0), rand_vec(rng, R, lo=0)
        I = SeriesMatrix.identity(R, 3)
        P2 = D3.qmul(1, P, I + D3.unvectorize_central(2, z))
        G2 = D3.qmul(1, G, I + D3.unvectorize_central(2, zp))
        cls2 = mu(D3, 2, M, P2, G2)
        shift = cls2.rep.parts[0] - cls.rep.parts[0]
        pred = -C.d1(Cochain(1, (z, zp))).parts[0]
        d = shift - pred
        assert all(e.truncate(min(e.hi, 30)).is_zero()
                   for row in d.rows for e in row)

    def test_levi_complex_kept_per_value(self):
        # lifts whose Levi parts are equal as values share one adjoint
        # complex; a Levi entry that differs only in its window gets its
        # own, equal to the complex built from scratch
        rng = random.Random(8)
        M = borel2_module()
        cls = mu(D2, 1, M, *rand_lift(rng, M, CELLS2))
        assert mu(D2, 1, M, *rand_lift(rng, M, CELLS2)).complex is cls.complex
        P, G = rand_lift(rng, M, CELLS2)
        rows = [list(r) for r in P.rows]
        rows[1][1] = R.one(R.window - 3)
        short = mu(D2, 1, M, SeriesMatrix(R, rows), G)
        assert short.complex is not cls.complex
        assert len(M.levi_complexes) == 2
        ref = mu(D2, 1, borel2_module(), SeriesMatrix(R, rows), G)
        for C in (short.complex, ref.complex):
            assert C.module.Phi.entry(0, 0).hi == R.window - 3
        assert short.complex.module.Phi.to_json() == \
            ref.complex.module.Phi.to_json()
        assert short.rep.to_json() == ref.rep.to_json()

    def test_not_a_lift(self):
        rng = random.Random(3)
        M = borel2_module()
        P, G = rand_lift(rng, M, CELLS2)
        wrong = P + SeriesMatrix(R, [[R.one(), R.zero()],
                                     [R.zero(), R.zero()]])
        with pytest.raises(NotALift):
            mu(D2, 1, M, wrong, G)

    def test_pattern_violation_is_not_a_lift(self):
        rng = random.Random(4)
        M = borel2_module()
        P, G = rand_lift(rng, M, CELLS2)
        low = SeriesMatrix(R, [[R.zero(), R.zero()],
                               [R.series({1: 1}), R.zero()]])
        with pytest.raises(NotALift):
            mu(D2, 1, M, P + low, G)

    def test_entry_in_u_j_is_not_a_lift(self):
        # a lift to P/U_1 of a GL_3 Borel module must vanish on U_1, the
        # corner (0, 2)
        rng = random.Random(4)
        P, G = rand_lift(rng, M3, CELLS3)
        corner = SeriesMatrix(R, [[R.zero(), R.zero(), R.series({1: 1})],
                                  [R.zero(), R.zero(), R.zero()],
                                  [R.zero(), R.zero(), R.zero()]])
        with pytest.raises(NotALift):
            mu(D3, 2, M3, P + corner, G)
        with pytest.raises(NotALift):
            mu(D3, 2, M3, P, G + corner)

    def test_levi_not_commuting(self):
        # non-commuting constant Levi blocks for the (2,1) parabolic
        d = ParabolicData(3, (2, 1))
        A = SeriesMatrix(R, [[R.constant(1), R.constant(1), R.zero()],
                             [R.zero(), R.constant(1), R.zero()],
                             [R.zero(), R.zero(), R.constant(1)]])
        B = SeriesMatrix(R, [[R.constant(1), R.zero(), R.zero()],
                             [R.constant(1), R.constant(1), R.zero()],
                             [R.zero(), R.zero(), R.constant(1)]])
        M = FramedModule(R, d.qreduce(A, 1), d.qreduce(B, 1),
                         pattern=d.quotient_pattern(1), validate=False)
        with pytest.raises(LeviNotCommuting):
            mu(d, 1, M, A, B)

    def test_not_central_valued(self):
        # an invalid level-1 pair: its lambda has entries off the center
        rng = random.Random(5)
        P1, G1 = rand_lift(rng, M3, CELLS3)
        M1 = FramedModule(R, P1, G1, pattern=D3.quotient_pattern(1),
                          validate=False)
        lam = lambda_map(P1, G1, D3, 1)
        assert not (lam - SeriesMatrix.identity(R, 3)).is_zero()
        lift_P = SeriesMatrix(R, [list(r) for r in P1.rows])
        with pytest.raises(NotCentralValued):
            mu(D3, 1, M1, lift_P, G1)


class TestWellDefinedAndLift:
    def test_identical_lifts(self):
        rng = random.Random(6)
        M = borel2_module()
        pair = rand_lift(rng, M, CELLS2)
        assert check_mu_well_defined(D2, 1, M, pair, pair).found

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_random_pairs_gl3(self, seed):
        rng = random.Random(seed)
        M = borel3_module()
        res = check_mu_well_defined(D3, 2, M, rand_lift(rng, M, CELLS3),
                                    rand_lift(rng, M, CELLS3))
        assert res.found  # polynomial data at window 40

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_lift_step_round_trip(self, seed):
        rng = random.Random(seed)
        M = borel2_module()
        P, G = rand_lift(rng, M, CELLS2)
        cls = mu(D2, 1, M, P, G)
        res = cls.complex.try_coboundary(cls.rep)
        assert res.found
        lifted = lift_step(cls, res.witness)
        # reduction recovers the module and the new class vanishes
        assert (D2.qreduce(lifted.Phi, 1) - M.Phi).is_zero()
        cls2 = mu(D2, 1, M, lifted.Phi, lifted.Gam)
        w = res.sub_window or 30
        assert all(e.truncate(min(e.hi, w)).is_zero()
                   for p in cls2.rep.parts for row in p.rows for e in row)

    def test_gl3_two_step_lift(self):
        rng = random.Random(7)
        M = borel3_module()
        P, G = rand_lift(rng, M, CELLS3)
        cls = mu(D3, 2, M, P, G)
        res = cls.complex.try_coboundary(cls.rep)
        assert res.found
        M1 = lift_step(cls, res.witness)
        assert M1.pattern == D3.quotient_pattern(1)
        cls1 = mu(D3, 1, M1, *rand_lift(rng, M1, ((0, 2),)))
        res1 = cls1.complex.try_coboundary(cls1.rep)
        assert res1.found
        full = lift_step(cls1, res1.witness)
        # top step: the quotient identity is the genuine one
        full.validate()

    def test_bad_witness(self):
        rng = random.Random(8)
        M = borel2_module()
        P, G = rand_lift(rng, M, CELLS2)
        cls = mu(D2, 1, M, P, G)
        bad = Cochain(1, (SeriesMatrix(R, [[R.one()]]),
                          SeriesMatrix.zero(R, 1, 1)))
        if not all(p.is_zero() for p in cls.rep.parts):
            with pytest.raises(BadWitness):
                lift_step(cls, bad)

    def test_mismatch_above_sub_window_is_a_shortfall(self):
        # a true witness bumped by u^30: d1 then misses the class at u^36
        # and above, so a witness certified below 36 ran out of window
        # and one certified below 37 is wrong
        rng = random.Random(8)
        M = borel2_module()
        cls = mu(D2, 1, M, *rand_lift(rng, M, CELLS2))
        res = cls.complex.try_coboundary(cls.rep)
        assert res.found
        x, y = res.witness.parts
        bumped = Cochain(1, (x + SeriesMatrix(R, [[R.series({30: 1})]]), y))
        with pytest.raises(InsufficientWindow):
            lift_step(cls, bumped, 36)
        with pytest.raises(BadWitness):
            lift_step(cls, bumped, 37)
        with pytest.raises(BadWitness):
            lift_step(cls, bumped)
