"""Tests for the three-term complexes, extensions, dual-number lifts,
and restriction/averaging."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phigamma.errors import (AveragingUnavailable, EmptyWindow, NotACocycle,
                             NotALift)
from phigamma.framed import (Cochain, FramedModule, change_basis,
                             check_invariance, commutation_residual,
                             descend_cochain, restrict_to_E)
from phigamma.herr import (DualMatrix, HerrComplex, ext_from_cocycle,
                           ext_residual, lift_dual_numbers, obstruction)
from phigamma.matrices import SeriesMatrix
from phigamma.period import (make_custom_ring, standard_cyclotomic,
                             tame_extension)
from phigamma.samplers import rand_module, rand_uni, rand_vec

from tails import rand_cochain, rand_mat, truncated_zero, with_tail

seeds = st.integers(0, 10**9)

R = standard_cyclotomic(3, 1, window=24)


class TestDifferentials:
    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_d1_d0_vanishes_all_kinds(self, seed):
        rng = random.Random(seed)
        M = rand_module(rng, R)
        for kind in ("plain", "framed", "adjoint"):
            C = HerrComplex(M, kind)
            z = rand_cochain(rng, C, 0)
            out = C.d1(C.d0(z)).parts[0]
            assert out.is_zero()

    def test_trivial_module_plain_kernel(self):
        I = SeriesMatrix.identity(R, 1)
        C = HerrComplex(FramedModule(R, I, I), "plain")
        one = Cochain(0, (SeriesMatrix(R, [[R.one()]]),))
        assert all(p.is_zero() for p in C.d0(one).parts)

    def test_unramified_class_is_cocycle(self):
        # (1, 0) over the trivial rank-1 module: a 1-cocycle in every kind
        I = SeriesMatrix.identity(R, 1)
        M = FramedModule(R, I, I)
        for kind in ("plain", "framed"):
            C = HerrComplex(M, kind)
            c = Cochain(1, (SeriesMatrix(R, [[R.one()]]),
                            SeriesMatrix.zero(R, 1, 1)))
            assert C.is_cocycle(c)

    def test_non_cocycle_detected(self):
        I = SeriesMatrix.identity(R, 1)
        C = HerrComplex(FramedModule(R, I, I), "plain")
        c = Cochain(1, (SeriesMatrix(R, [[R.variable()]]),
                        SeriesMatrix.zero(R, 1, 1)))
        assert not C.is_cocycle(c)


class TestCoboundarySearch:
    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_round_trip_degree1(self, seed):
        rng = random.Random(seed)
        M = rand_module(rng, R)
        for kind in ("plain", "framed", "adjoint"):
            C = HerrComplex(M, kind)
            z = rand_cochain(rng, C, 0)
            res = C.try_coboundary(C.d0(z))
            assert res.found and res.sub_window is not None

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_round_trip_degree2(self, seed):
        rng = random.Random(seed)
        M = rand_module(rng, R)
        C = HerrComplex(M, "framed")
        res = C.try_coboundary(C.d1(rand_cochain(rng, C, 1)))
        assert res.found

    def test_witness_reverifies(self):
        rng = random.Random(11)
        M = rand_module(rng, R)
        C = HerrComplex(M, "plain")
        c = C.d0(Cochain(0, (rand_vec(rng, R),)))
        res = C.try_coboundary(c)
        diff = C.d(res.witness)
        for dp, cp in zip(diff.parts, c.parts):
            r = dp - cp
            assert r.truncate(min(r.hi, res.sub_window)).is_zero()

    def test_unramified_class_not_coboundary(self):
        I = SeriesMatrix.identity(R, 1)
        C = HerrComplex(FramedModule(R, I, I), "framed")
        c = Cochain(1, (SeriesMatrix(R, [[R.one()]]),
                        SeriesMatrix.zero(R, 1, 1)))
        res = C.try_coboundary(c)
        assert not res.found

    def test_zero_is_coboundary(self):
        I = SeriesMatrix.identity(R, 1)
        C = HerrComplex(FramedModule(R, I, I), "plain")
        zero = SeriesMatrix.zero(R, 1, 1)
        res = C.try_coboundary(Cochain(1, (zero, zero)))
        assert res.found


def reference_system(C, target, z_lo, z_hi):
    """(images, A, rhs, cuts) of the coboundary system, built from the
    public differentials applied to every monomial cochain e_s * u^k;
    images[t] lists the entries of the image of column t, and cuts the
    equation cutoff of each target entry in cochain order."""
    ring, base = C.ring, C.ring.base
    W, f = ring.window, base.f
    nr, nc = C.part_shape()
    degree = target.degree - 1
    d = C.d0 if degree == 0 else C.d1
    images = []
    for part in range(C.n_parts(degree)):
        for i in range(nr):
            for j in range(nc):
                for k in range(z_lo, z_hi):
                    for s in range(f):
                        parts = [[[ring.zero()] * nc for _ in range(nr)]
                                 for _ in range(C.n_parts(degree))]
                        unit = tuple(int(t == s) for t in range(f))
                        parts[part][i][j] = ring.series({k: unit})
                        im = d(Cochain(degree, tuple(
                            SeriesMatrix(ring, rows) for rows in parts)))
                        images.append([e for p in im.parts for row in p.rows
                                       for e in row])
    entries = [e for part in target.parts for row in part.rows for e in row]
    cuts = [min([e.hi] + [im[t].hi for im in images])
            for t, e in enumerate(entries)]
    eq_lo = min([z_lo] + [e.lo for im in images for e in im
                          if not e.is_zero()])

    def coords(series):
        return [c for e, h in zip(series, cuts)
                for k in range(eq_lo, h) for c in e.coeff(k)]

    rhs = coords(entries)
    cols = [coords(im) for im in images]
    A = [[col[r] for col in cols] for r in range(len(rhs))]
    return images, A, rhs, cuts


def pole_module(rng, ring):
    """A random module whose Phi has poles: the change of basis
    diag(u, 1) * (unipotent), so phi of it brings in phi(u)^-1."""
    one, zero = ring.one(), ring.zero()
    h = SeriesMatrix(ring, [[ring.variable(), zero], [zero, one]])
    I = SeriesMatrix.identity(ring, 2)
    return change_basis(FramedModule(ring, I, I), h * rand_uni(rng, ring, 2))


def gamma_pole_module(rng, ring):
    """A module whose Gam has a pole too: the change of basis
    [[1, c u^-1], [0, 1]]."""
    one, zero = ring.one(), ring.zero()
    h = SeriesMatrix(ring, [
        [one, ring.series({-1: 1 + rng.randrange(ring.base.q - 1)})],
        [zero, one]])
    I = SeriesMatrix.identity(ring, 2)
    return change_basis(FramedModule(ring, I, I), h)


BUILDER_CASES = {
    "cyclotomic p=3": (lambda: standard_cyclotomic(3, 2, window=10),
                       rand_module),
    "cyclotomic p=3 f=2": (lambda: standard_cyclotomic(3, 2, f=2, window=8),
                           rand_module),
    "cyclotomic p=5": (lambda: standard_cyclotomic(5, 2, window=10),
                       rand_module),
    "intro u^3+3u^-1": (lambda: make_custom_ring(3, 2, 1, 10, {3: 1, -1: 3}),
                        rand_module),
    "tame e=2 over p=3": (lambda: tame_extension(
        standard_cyclotomic(3, 2, window=8), 2), rand_module),
    # entries with poles make the windows of the zero terms bind
    "cyclotomic p=3 poles": (lambda: standard_cyclotomic(3, 2, window=12),
                             pole_module),
    "cyclotomic p=3 gamma poles": (
        lambda: standard_cyclotomic(3, 2, window=12), gamma_pole_module),
    # unit degree 1 with a nilpotent pole: phi(0) is known only below
    # the tail guard W - 2
    "custom u+3u^-1": (lambda: make_custom_ring(3, 2, 1, 10, {1: 1, -1: 3}),
                       gamma_pole_module),
}


def docstring_d(C, c):
    """The parts of d(c) by the formulas of the module docstring, written
    out with explicit matrix products."""
    Phi, Gam = C.module.Phi, C.module.Gam
    if c.degree == 0:
        (z,) = c.parts
        if C.kind == "plain":
            return (Phi * z.apply_phi() - z, Gam * z.apply_gamma() - z)
        if C.kind == "adjoint":
            return (Phi * z.apply_phi() * Phi.inv() - z,
                    Gam * z.apply_gamma() * Gam.inv() - z)
        return (z.apply_phi() - Phi.inv() * z,
                z.apply_gamma() - Gam.inv() * z)
    x, y = c.parts
    if C.kind == "plain":
        return ((Gam * x.apply_gamma() - x) - (Phi * y.apply_phi() - y),)
    if C.kind == "adjoint":
        return ((Gam * x.apply_gamma() * Gam.inv() - x) -
                (Phi * y.apply_phi() * Phi.inv() - y),)
    return ((x.apply_gamma() - Gam.apply_phi().inv() * x) +
            (Phi.apply_gamma().inv() * y - y.apply_phi()),)


class TestDifferentialFormulas:
    """d0 and d1 of every kind against the docstring's formulas, entry
    for entry, windows included."""

    @pytest.mark.parametrize("degree", (0, 1))
    @pytest.mark.parametrize("kind", ("plain", "framed", "adjoint"))
    @pytest.mark.parametrize("case", sorted(BUILDER_CASES))
    def test_matches_formulas(self, case, kind, degree):
        make_ring, make_module = BUILDER_CASES[case]
        ring = make_ring()
        rng = random.Random(3)
        C = HerrComplex(make_module(rng, ring), kind)
        for _ in range(3):
            c = rand_cochain(rng, C, degree)
            # uneven entry windows, so the windows of d's terms differ
            c = Cochain(degree, tuple(
                part.map(lambda e: e.truncate(e.hi - rng.randrange(3)))
                for part in c.parts))
            assert [p.to_json() for p in C.d(c).parts] == \
                [p.to_json() for p in docstring_d(C, c)]


class TestSystemBuilder:
    """The semilinear system builder against d applied column by column."""

    @pytest.mark.parametrize("degree", (1, 2))
    @pytest.mark.parametrize("kind", ("plain", "framed", "adjoint"))
    @pytest.mark.parametrize("case", sorted(BUILDER_CASES))
    def test_matches_differentials(self, case, kind, degree):
        make_ring, make_module = BUILDER_CASES[case]
        ring = make_ring()
        rng = random.Random(7)
        C = HerrComplex(make_module(rng, ring), kind)
        target = rand_cochain(rng, C, degree)
        # uneven entry windows, so the per-entry cutoffs differ
        target = Cochain(degree, tuple(
            part.map(lambda e: e.truncate(e.hi - rng.randrange(4)))
            for part in target.parts))
        entries = [e for part in target.parts for row in part.rows
                   for e in row]
        z_lo = min([e.lo for e in entries] + [0]) - 2
        # up to the window edge: the column of e_s * u^W is the image of
        # the zero cochain
        for z_hi in (min(e.hi for e in entries), ring.window,
                     ring.window + 1):
            keys, cuts, A, rhs = C._windowed_system(target, z_lo, z_hi)
            ref_images, ref_A, ref_rhs, ref_cuts = reference_system(
                C, target, z_lo, z_hi)
            # every image entry, window included, not just the part of it
            # the equations read
            _, images = C._column_images(degree - 1, z_lo, z_hi)
            assert [[e.to_json() for e in im] for im in images] == \
                [[e.to_json() for e in im] for im in ref_images]
            assert cuts == ref_cuts
            assert rhs == ref_rhs
            assert A == ref_A

    @pytest.mark.parametrize("degree", (1, 2))
    @pytest.mark.parametrize("kind", ("plain", "framed", "adjoint"))
    @pytest.mark.parametrize("case", sorted(BUILDER_CASES))
    def test_sound_under_known_tails(self, case, kind, degree):
        # d and the builder share the series window rules, so the test
        # above cannot see a fault in a rule; here every column entry must
        # agree with the one built from Phi and Gam known further, with
        # random coefficients where their windows end.  Values only: the
        # windows of compose's powers are not monotone in the power (tame
        # e=2 phi, hi(g^n) = 21, 20, 19 at n = 1, 2, 3), so a tail that
        # brings in a higher power can lower an entry's hi (ROADMAP item 2).
        make_ring, make_module = BUILDER_CASES[case]
        ring = make_ring()
        for seed in range(4):
            rng = random.Random(seed)
            M = make_module(rng, ring)
            # a bare module: random tails break the commutation identity
            # a FramedModule checks, which the builder does not use
            tailed = SimpleNamespace(
                ring=ring, n=M.n, Phi=M.Phi.map(lambda e: with_tail(rng, e)),
                Gam=M.Gam.map(lambda e: with_tail(rng, e)))
            z_lo, z_hi = -2, ring.window + 1
            _, small = HerrComplex(M, kind)._column_images(
                degree - 1, z_lo, z_hi)
            _, large = HerrComplex(tailed, kind)._column_images(
                degree - 1, z_lo, z_hi)
            assert all(x.agrees(y) for a, b in zip(small, large)
                       for x, y in zip(a, b))

    @pytest.mark.parametrize("degree", (1, 2))
    @pytest.mark.parametrize("kind", ("plain", "framed", "adjoint"))
    def test_monomial_past_the_window(self, kind, degree):
        # e_s * u^(W + 1) has the empty window [W + 1, W)
        ring = standard_cyclotomic(3, 2, window=10)
        rng = random.Random(7)
        C = HerrComplex(rand_module(rng, ring), kind)
        target = rand_cochain(rng, C, degree)
        with pytest.raises(EmptyWindow,
                           match=r"^window \[11, 10\) is empty$"):
            C._windowed_system(target, -2, ring.window + 2)


class TestExtensions:
    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_cocycle_blocks_commute(self, seed):
        rng = random.Random(seed)
        M = rand_module(rng, R)
        C = HerrComplex(M, "framed")
        xy = C.d0(Cochain(0, (rand_vec(rng, R),)))
        X, Y = ext_from_cocycle(C, xy)
        assert (X * Y.apply_phi() - Y * X.apply_gamma()).is_zero()

    @settings(max_examples=15, deadline=None)
    @given(seeds)
    def test_residual_formula(self, seed):
        # top-right residual column equals -Phi*phi(Gam)*d1(x, y)
        rng = random.Random(seed)
        M = rand_module(rng, R)
        C = HerrComplex(M, "framed")
        xy = Cochain(1, (rand_vec(rng, R), rand_vec(rng, R)))
        resid = ext_residual(C, xy)
        pred = -(M.Phi * M.Gam.apply_phi()) * C.d1(xy).parts[0]
        n = C.n
        for i in range(n):
            d = resid.entry(i, n) - pred.entry(i, 0)
            assert d.truncate(min(d.hi, 12)).is_zero()
        for i in range(n + 1):
            for j in range(n):
                assert truncated_zero(
                    SeriesMatrix(R, [[resid.entry(i, j)]]), 12)

    def test_non_cocycle_rejected(self):
        rng = random.Random(3)
        M = rand_module(rng, R)
        C = HerrComplex(M, "framed")
        with pytest.raises(NotACocycle):
            ext_from_cocycle(
                C, Cochain(1, (rand_vec(rng, R), rand_vec(rng, R))))


class TestDualNumbers:
    def test_arithmetic(self):
        rng = random.Random(5)
        A = DualMatrix(rand_uni(rng, R, 2), rand_mat(rng, R))
        B = DualMatrix(rand_uni(rng, R, 2), rand_mat(rng, R))
        prod = A * B
        assert (prod.main - A.main * B.main).is_zero()
        eps = A.main * B.eps + A.eps * B.main
        assert (prod.eps - eps).is_zero()
        ai = A.inv()
        ident = A * ai
        assert ident.main.is_identity() and truncated_zero(ident.eps, 14)

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_lift_and_obstruction_of_cocycle(self, seed):
        rng = random.Random(seed)
        M = rand_module(rng, R)
        C = HerrComplex(M, "adjoint")
        xy = C.d0(Cochain(0, (rand_mat(rng, R),)))
        Pt, Gt = lift_dual_numbers(M, xy)
        o = obstruction(M, Pt, Gt)
        assert truncated_zero(o, 14)

    @settings(max_examples=10, deadline=None)
    @given(seeds)
    def test_eps_residual_formula(self, seed):
        # eps-part of the commutation residual is -d1_adj(X, Y)*Phi*phi(Gam)
        rng = random.Random(seed)
        M = rand_module(rng, R)
        C = HerrComplex(M, "adjoint")
        xy = Cochain(1, (rand_mat(rng, R), rand_mat(rng, R)))
        Pt, Gt = lift_dual_numbers(M, xy, require_cocycle=False)
        lhs = commutation_residual(Pt, Gt).eps
        rhs = -(C.d1(xy).parts[0] * (M.Phi * M.Gam.apply_phi()))
        assert truncated_zero(lhs - rhs, 14)

    @settings(max_examples=8, deadline=None)
    @given(seeds)
    def test_obstruction_shift_by_coboundary(self, seed):
        rng = random.Random(seed)
        M = rand_module(rng, R)
        C = HerrComplex(M, "adjoint")
        xy = Cochain(1, (rand_mat(rng, R), rand_mat(rng, R)))
        Pt1, Gt1 = lift_dual_numbers(M, xy, require_cocycle=False)
        dW = C.d0(Cochain(0, (rand_mat(rng, R),)))
        xy2 = Cochain(1, tuple(a + b for a, b in zip(xy.parts, dW.parts)))
        Pt2, Gt2 = lift_dual_numbers(M, xy2, require_cocycle=False)
        o1 = obstruction(M, Pt1, Gt1)
        o2 = obstruction(M, Pt2, Gt2)
        assert truncated_zero(o2 - o1, 14)

    def test_non_cocycle_lift_rejected(self):
        rng = random.Random(6)
        M = rand_module(rng, R)
        with pytest.raises(NotACocycle):
            lift_dual_numbers(
                M, Cochain(1, (rand_mat(rng, R), rand_mat(rng, R))))

    def test_wrong_reduction_rejected(self):
        rng = random.Random(7)
        M = rand_module(rng, R)
        I = SeriesMatrix.identity(R, 2)
        with pytest.raises(NotALift):
            obstruction(M, DualMatrix(I), DualMatrix(M.Gam))

    def test_masked_obstruction(self):
        rng = random.Random(8)
        M = rand_module(rng, R)
        C = HerrComplex(M, "adjoint")
        xy = C.d0(Cochain(0, (rand_mat(rng, R),)))
        Pt, Gt = lift_dual_numbers(M, xy)
        full = frozenset((i, j) for i in range(2) for j in range(2))
        obstruction(M, Pt, Gt, pattern=full)


BASE = standard_cyclotomic(3, 1, window=12)
EXT = tame_extension(BASE, 2)


class TestRestrictionDescent:
    def test_round_trip(self):
        c = Cochain(1, (SeriesMatrix(BASE, [[BASE.series({-1: 2, 0: 1, 3: 2})]]),
                        SeriesMatrix(BASE, [[BASE.series({1: 1})]])))
        up = restrict_to_E(EXT, c)
        # exponents double: the base variable is the square of the new one
        assert dict(up.parts[0].entry(0, 0).terms()) == {-2: (2,), 0: (1,), 6: (2,)}
        assert check_invariance(EXT, up)
        down = descend_cochain(EXT, up)
        for pu, pd in zip(c.parts, down.parts):
            assert (pu - pd).is_zero()

    def test_averaging_kills_odd_part(self):
        odd = Cochain(1, (SeriesMatrix(EXT, [[EXT.series({1: 1, 2: 2})]]),
                          SeriesMatrix(EXT, [[EXT.series({3: 1})]])))
        assert not check_invariance(EXT, odd)
        av = descend_cochain(EXT, odd)
        assert dict(av.parts[0].entry(0, 0).terms()) == {1: (2,)}
        assert av.parts[1].entry(0, 0).is_zero()

    def test_averaging_unavailable_when_p_divides(self):
        # unramified degree-3 extension at p = 3: |Gal| = 3 is not invertible
        ext3 = tame_extension(standard_cyclotomic(3, 1, window=12), 1, 3)
        coeff = tuple([0, 1] + [0] * (ext3.base.f - 2))
        moved = Cochain(1, (SeriesMatrix(ext3, [[ext3.series({0: coeff})]]),
                            SeriesMatrix(ext3, [[ext3.zero()]])))
        assert not check_invariance(ext3, moved)
        with pytest.raises(AveragingUnavailable):
            descend_cochain(ext3, moved)

    def test_base_ring_passthrough(self):
        c = Cochain(1, (SeriesMatrix(BASE, [[BASE.one()]]),
                        SeriesMatrix(BASE, [[BASE.zero()]])))
        assert restrict_to_E(BASE, c) is c
        assert descend_cochain(BASE, c) is c

