"""Tests for framed modules and descent data."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phigamma.errors import CocycleFails, CommutationFails, DescentEqFails
from phigamma.framed import (DescentDatum, FramedModule, change_basis,
                             check_descent, descent_datum_after_change_basis)
from phigamma.matrices import SeriesMatrix
from phigamma.period import standard_cyclotomic, tame_extension
from phigamma.samplers import rand_uni

seeds = st.integers(0, 10**9)

RC = standard_cyclotomic(3, 1, window=20)


class TestValidation:
    def test_trivial_module(self):
        I = SeriesMatrix.identity(RC, 2)
        FramedModule(RC, I, I)

    def test_variable_phi_fails(self):
        # Phi = u*I, Gam = I: commutation needs gamma(u) = u, false here
        with pytest.raises(CommutationFails) as exc:
            FramedModule(RC, SeriesMatrix(RC, [[RC.variable()]]),
                         SeriesMatrix(RC, [[RC.one()]]))
        assert not exc.value.residual.is_zero()

    def test_rank1_unit_pair(self):
        # alpha = beta = 1+T: valid exactly when the gamma exponent is p
        a = SeriesMatrix(RC, [[RC.series({0: 1, 1: 1})]])
        with pytest.raises(CommutationFails):
            FramedModule(RC, a, a)
        rp = standard_cyclotomic(3, 1, window=20, c=3)
        ap = SeriesMatrix(rp, [[rp.series({0: 1, 1: 1})]])
        FramedModule(rp, ap, ap)

    def test_pattern_enforced(self):
        upper = frozenset({(0, 0), (0, 1), (1, 1)})
        I = SeriesMatrix.identity(RC, 2)
        FramedModule(RC, I, I, pattern=upper)
        low = SeriesMatrix(RC, [[RC.one(), RC.zero()],
                                [RC.series({1: 1}), RC.one()]])
        with pytest.raises(CommutationFails):
            FramedModule(RC, low, I, pattern=upper)


class TestChangeBasis:
    def test_identity(self):
        I = SeriesMatrix.identity(RC, 2)
        M = FramedModule(RC, I, I)
        M2 = change_basis(M, I)
        assert (M2.Phi - M.Phi).is_zero() and (M2.Gam - M.Gam).is_zero()

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_round_trip_and_validity(self, seed):
        rng = random.Random(seed)
        I = SeriesMatrix.identity(RC, 2)
        M = FramedModule(RC, I, I)
        h = rand_uni(rng, RC, 2)
        M2 = change_basis(M, h)  # validates internally
        M3 = change_basis(M2, h.inv())
        t = min(M3.Phi.hi, 12)
        assert M3.Phi.truncate(t).agrees(M.Phi.truncate(t))
        assert M3.Gam.truncate(t).agrees(M.Gam.truncate(t))


class TestNilpotency:
    def test_cyclotomic_variable_cochain(self):
        # (gamma-1)(T) = (1+T)^4 - 1 - T gains u-valuation under iteration
        M = FramedModule(RC, SeriesMatrix(RC, [[RC.one()]]),
                         SeriesMatrix(RC, [[RC.one()]]))
        ring = M.ring
        z = SeriesMatrix(ring, [[ring.variable()]])
        for _ in range(12):
            z = M.Gam * z.apply_gamma() - z
        assert all(e.is_zero() or e.lo >= 10 for r in z.rows for e in r)


EXT = tame_extension(standard_cyclotomic(3, 1, window=12), 2)


class TestDescent:
    def test_canonical_datum(self):
        I = SeriesMatrix.identity(EXT, 1)
        M = FramedModule(EXT, I, I)
        assert check_descent(M, DescentDatum.canonical(EXT, 1)) is None

    def test_base_change_datum(self):
        # h = v^-1 turns the trivial module into Phi' = v^2 with
        # descent matrix phi_sigma = -1
        I = SeriesMatrix.identity(EXT, 1)
        M = FramedModule(EXT, I, I)
        h = SeriesMatrix(EXT, [[EXT.series({-1: 1})]])
        M2 = change_basis(M, h)
        assert dict(M2.Phi.entry(0, 0).terms()) == {2: (1,)}
        D2 = descent_datum_after_change_basis(M, DescentDatum.canonical(EXT, 1), h)
        assert dict(D2.matrix("sigma_ram").entry(0, 0).terms()) == {0: (2,)}
        assert check_descent(M2, D2) is None

    def test_broken_datum(self):
        I = SeriesMatrix.identity(EXT, 1)
        M = FramedModule(EXT, I, I)
        bad = DescentDatum(EXT, {
            "sigma_ram": SeriesMatrix(EXT, [[EXT.one() + EXT.series({1: 1})]])})
        with pytest.raises((DescentEqFails, CocycleFails)):
            check_descent(M, bad)

    def test_missing_generator(self):
        with pytest.raises(KeyError):
            DescentDatum(EXT, {})

    def test_two_generator_canonical(self):
        ext2 = tame_extension(standard_cyclotomic(3, 1, window=10), 2, 2)
        I = SeriesMatrix.identity(ext2, 2)
        M = FramedModule(ext2, I, I)
        assert check_descent(M, DescentDatum.canonical(ext2, 2)) is None
