"""Tests for period rings, tame extensions, and the analyzers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phigamma.analyzers import (check_frobenius_contraction,
                                check_height_theory, check_local_contraction,
                                contraction_constants)
from phigamma.errors import NoRootOfUnity, NotGaloisCompatible
from phigamma.laurent import LaurentSeries, compose
from phigamma.period import (OperatorDesc, make_custom_ring, one_plus_var_pow,
                             project_to_base, standard_cyclotomic,
                             tame_extension)
from phigamma.verdicts import FAILS, HOLDS, INCONCLUSIVE

from tails import with_tail

seeds = st.integers(0, 10**9)


class TestCyclotomic:
    def test_phi_image_mod_p(self):
        r = standard_cyclotomic(3, 1, window=16)
        assert dict(r.phi.image.terms()) == {3: (1,)}

    def test_phi_image_mod_4(self):
        r = standard_cyclotomic(2, 2, window=16)
        assert dict(r.phi.image.terms()) == {1: (2,), 2: (1,)}

    def test_gamma_image_c4_mod_3(self):
        # (1+T)^4 - 1 = T + T^3 + T^4 over Z/3 (the 4T + 6T^2 terms vanish)
        r = standard_cyclotomic(3, 1, window=16, c=4)
        assert dict(r.gamma.image.terms()) == {1: (1,), 3: (1,), 4: (1,)}

    def test_gamma_image_c4_mod_9(self):
        r = standard_cyclotomic(3, 2, window=16, c=4)
        assert dict(r.gamma.image.terms()) == {1: (4,), 2: (6,), 3: (4,), 4: (1,)}

    def test_default_gamma_exponent(self):
        assert standard_cyclotomic(3, 1).gamma_exponent == 4
        assert standard_cyclotomic(2, 1).gamma_exponent == 5

    def test_validation_runs(self):
        # phi and gamma commute because both come from T -> (1+T)^n - 1
        standard_cyclotomic(5, 2, window=20).validate()

    @settings(max_examples=20, deadline=None)
    @given(seeds)
    def test_gamma_composition_law(self, seed):
        # gamma[c1] after gamma[c2] = gamma[c1*c2]
        rng = random.Random(seed)
        r = standard_cyclotomic(3, 2, window=20)
        c1 = rng.randrange(1, 30)
        # the inner image needs a unit T-coefficient (c2 prime to p),
        # otherwise it is not a valid substitution target
        c2 = rng.choice([c for c in range(1, 30) if c % 3])
        g12 = one_plus_var_pow(r.base, c1 * c2, r.window)
        lhs = compose(one_plus_var_pow(r.base, c1, r.window),
                      one_plus_var_pow(r.base, c2, r.window), {})
        h = min(lhs.hi, g12.hi)
        assert lhs.truncate(h).agrees(g12.truncate(h))

    def test_gamma_power_vs_repeated_squaring(self):
        r = standard_cyclotomic(3, 2, window=24)
        c = 2 ** 7
        img = one_plus_var_pow(r.base, c, r.window)
        sq = r.series({0: 1, 1: 1})
        for _ in range(7):
            sq = sq * sq
        assert img.agrees((sq - r.one(sq.hi)).truncate(img.hi))


def _fresh(op):
    """An operator equal to op that has kept nothing yet."""
    return OperatorDesc(op.kind, op.image, op.coeff_frob_power, op.label,
                        op.order)


class TestKeptImages:
    """An operator keeps the image of every input it has applied, keyed
    by the input's value: a repeated input, even a new object, gets the
    kept series back, with the values a fresh operator computes."""

    @pytest.mark.parametrize("make_ring", [
        lambda: standard_cyclotomic(3, 2, f=2, window=12),
        lambda: tame_extension(standard_cyclotomic(3, 2, window=8), 2),
    ], ids=["f2", "tame-e2"])
    def test_repeated_input(self, make_ring):
        ring = make_ring()
        rng = random.Random(11)
        base = ring.base
        ops = [ring.phi, ring.gamma] + ring.galois.generators
        for _ in range(6):
            terms = {rng.randrange(-2, 6): [rng.randrange(base.q)
                                            for _ in range(base.f)]
                     for _ in range(3)}
            x = ring.series(terms)
            # the same coefficients on a shorter window: another value
            y = ring.series(terms, ring.window - 2)
            for op in ops:
                img = op.apply(x)
                again = op.apply(LaurentSeries.from_json(base, x.to_json()))
                assert again is img
                for z in (x, y):
                    assert op.apply(z).to_json() == \
                        _fresh(op).apply(z).to_json()
            assert ops[0].apply(y) is not ops[0].apply(x)


class TestTameExtension:
    def test_requires_root_of_unity(self):
        with pytest.raises(NoRootOfUnity):
            tame_extension(standard_cyclotomic(3, 1, window=8), 5)

    def test_mod3_quadratic(self):
        base = standard_cyclotomic(3, 1, window=12)
        ext = tame_extension(base, 2)
        assert ext.window == 24 and ext.e == 2
        # phi(T) = T^3 mod 3, so phi(v) = v^3 on the nose
        assert dict(ext.phi.image.terms()) == {3: (1,)}
        sig = ext.galois.generators[0]
        assert sig.label == "sigma_ram" and sig.order == 2
        assert dict(sig.apply(ext.variable()).terms()) == {1: (2,)}

    def test_phi_restricts_to_base(self):
        base = standard_cyclotomic(3, 2, window=12)
        ext = tame_extension(base, 2)
        lhs = ext.phi.apply(ext.variable(2))
        rhs = ext.parent[2](base.phi.image)
        h = min(lhs.hi, rhs.hi)
        assert lhs.truncate(h).agrees(rhs.truncate(h))

    def test_gamma_restricts_to_base(self):
        base = standard_cyclotomic(3, 2, window=12)
        ext = tame_extension(base, 2)
        lhs = ext.gamma.apply(ext.variable(2))
        rhs = ext.parent[2](base.gamma.image)
        h = min(lhs.hi, rhs.hi)
        assert lhs.truncate(h).agrees(rhs.truncate(h))

    def test_galois_fixed_points_descend(self):
        base = standard_cyclotomic(3, 1, window=12)
        ext = tame_extension(base, 2)
        sig = ext.galois.generators[0]
        x = ext.series({2: 1, 4: 2, 6: 1})
        assert sig.apply(x).agrees(x.truncate(sig.apply(x).hi))
        assert dict(project_to_base(ext, x).terms()) == {1: (1,), 2: (2,), 3: (1,)}
        with pytest.raises(NotGaloisCompatible):
            project_to_base(ext, ext.variable())

    def test_unramified_part(self):
        ext = tame_extension(standard_cyclotomic(3, 1, window=10), 2, 2)
        assert ext.base.f == 2
        labels = [(g.label, g.order) for g in ext.galois.generators]
        assert labels == [("sigma_ram", 2), ("sigma_unram", 2)]
        assert len(ext.galois.elements()) == 4
        # sigma_unram fixes v and acts by Frobenius on coefficients
        unram = ext.galois.generators[1]
        x = ext.series({1: ext.base.gen()})
        y = unram.apply(x)
        assert y.coeff(1) == ext.base.frob(ext.base.gen())

    def test_validate_passes(self):
        tame_extension(standard_cyclotomic(3, 2, window=10), 2).validate()


class TestLocalContraction:
    def test_holds_lambda_2(self):
        r = make_custom_ring(3, 2, 1, 40, {3: 1, -1: 3})
        v = check_local_contraction(r, 2, 4, 60)
        assert v.status == HOLDS and v.window == 40
        assert v.data["report"] == {
            "lambda": "2", "N": 4, "d_lambda": "1/4",
            "verified_range": [4, 60], "holds": True, "first_failure": None}

    def test_fails_lambda_3(self):
        r = make_custom_ring(3, 2, 1, 40, {3: 1, -1: 3})
        v = check_local_contraction(r, 3, 4, 60)
        assert v.status == FAILS and v.detail == "first failure at n = 5"
        assert not v.data["report"]["holds"]
        assert v.data["report"]["first_failure"] == 5

    def test_large_range_within_budget(self):
        r = make_custom_ring(3, 2, 1, 40, {3: 1, -1: 3})
        assert check_local_contraction(r, 2, 4, 200).status == HOLDS

    def test_rejects_bad_parameters(self):
        r = make_custom_ring(3, 2, 1, 20, {3: 1})
        with pytest.raises(ValueError):
            check_local_contraction(r, 1, 4, 10)
        with pytest.raises(ValueError):
            check_local_contraction(r, 2, 10, 10)


class TestContractionConstants:
    def test_power_series_image(self):
        assert contraction_constants(standard_cyclotomic(3, 1, window=20)) == \
            {"c_phi": 0}

    def test_single_pole(self):
        r = make_custom_ring(3, 2, 1, 40, {3: 1, -1: 3})
        assert contraction_constants(r)["c_phi"] == 1

    def test_deeper_pole(self):
        r = make_custom_ring(3, 2, 1, 60, {3: 1, -5: 3})
        assert contraction_constants(r)["c_phi"] == 5

    def test_covers_lattice_images(self):
        # direct check: phi maps u^{-c_phi}*lattice into itself on powers
        r = make_custom_ring(3, 2, 1, 40, {3: 1, -1: 3})
        c = contraction_constants(r)["c_phi"]
        for n in range(1, 12):
            assert r.phi.image_power(n).in_lattice(c)


class TestFrobeniusContraction:
    def test_cyclotomic(self):
        v = check_frobenius_contraction(standard_cyclotomic(3, 2, window=30))
        assert v.status == HOLDS
        assert v.data["report"] == {"found": True, "N": 1, "q": 3}

    def test_tame(self):
        ext = tame_extension(standard_cyclotomic(3, 1, window=12), 2)
        v = check_frobenius_contraction(ext)
        assert v.status == HOLDS
        assert v.data["report"] == {"found": True, "N": 1, "q": 3}

    def test_unramified_coefficients(self):
        # coefficient Frobenius has order 2, so the first candidate is phi^2
        v = check_frobenius_contraction(
            standard_cyclotomic(3, 2, f=2, window=30))
        assert v.status == HOLDS
        assert v.data["report"] == {"found": True, "N": 2, "q": 9}

    def test_not_found(self):
        # phi(u) = 4u = (1 + 3)u mod 9 never contracts: no iterate has the
        # shape u^q + p*(...) with q > 1
        v = check_frobenius_contraction(
            make_custom_ring(3, 2, 1, 20, {1: 4}), max_iter=3)
        assert v.status == INCONCLUSIVE
        assert v.data["report"] == {"found": False, "N": None, "q": None}


class TestHeightTheory:
    def test_square_substitution(self):
        # phi(u) = u^5 + 10u^-3 over Z/25 and v = u^2: phi(v) = v^5 + 20v
        r = make_custom_ring(5, 2, 1, 40, {5: 1, -3: 10})
        v = check_height_theory(r, r.variable(2))
        assert v.data["k"] == 2
        assert v.data["expansion"] == {"1": [20], "5": [1]}
        assert v.status == HOLDS
        assert v.data["verdicts"]["H3"]["status"] == INCONCLUSIVE

    def test_mismatch_flagged_without_failing(self):
        r = make_custom_ring(5, 2, 1, 40, {5: 1, -3: 10})
        v = check_height_theory(r, r.variable(2),
                                expected_expansion={5: 1, 4: 20})
        assert v.data["expected_mismatch"] is not None
        assert v.data["verdicts"]["H2"]["status"] == HOLDS
        assert v.status == HOLDS and "expected_mismatch" in v.detail
        ok = check_height_theory(r, r.variable(2),
                                 expected_expansion={5: 1, 1: 20})
        assert "expected_mismatch" not in ok.data

    def test_v_equals_u_fails(self):
        r = make_custom_ring(5, 2, 1, 40, {5: 1, -3: 10})
        v = check_height_theory(r, r.variable(1))
        assert v.data["verdicts"]["H2"]["status"] == FAILS
        assert v.status == FAILS

    def test_non_unit_v(self):
        r = make_custom_ring(5, 2, 1, 40, {5: 1, -3: 10})
        v = check_height_theory(r, r.series({1: 5}))
        assert v.data["verdicts"]["H0a"]["status"] == FAILS
        assert v.status == FAILS and v.data["k"] is None

    def test_unrestricted_form_inconclusive(self):
        r = make_custom_ring(3, 2, 1, 40, {3: 1, -1: 3})
        v = check_height_theory(r, r.series({2: 1, -1: 3}))
        assert v.data["verdicts"]["H1"]["status"] == INCONCLUSIVE
        assert v.data["verdicts"]["H2"]["status"] == INCONCLUSIVE
        assert v.status == INCONCLUSIVE

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_deformed_family(self, p):
        r = make_custom_ring(p, 2, 1, 40, {p: 1, -(p - 2): 2 * p})
        v = check_height_theory(r, r.variable(2),
                                expected_expansion={p: 1, p - 1: 4 * p})
        assert v.status == HOLDS
        assert v.data["expansion"] == {
            "1": list(r.base.from_int(4 * p)), str(p): [1]}
        assert v.data["expected_mismatch"] is not None

    def test_json_shape(self):
        r = make_custom_ring(5, 2, 1, 40, {5: 1, -3: 10})
        data = check_height_theory(r, r.variable(2)).to_json()["data"]
        assert data["k"] == 2
        assert set(data["verdicts"]) == {"H0a", "H0b", "H1", "H2", "H3", "H4"}


def test_ring_json_shape():
    r = standard_cyclotomic(3, 2, window=16)
    data = r.to_json()
    assert data["p"] == 3 and data["window"] == 16
    assert data["phi"]["kind"] == "phi"


# -- operator images against adversarial unknown tails ---------------------
#
# As for series (tests/test_laurent.py): an image is exact on its window
# whatever the unknown coefficients of the input at and above its hi are,
# so the images of x and of x extended by random coefficients agree
# wherever both windows reach.  Only the values are asserted: the power
# windows of an operator's image are not monotone in the exponent (for
# tame e=2 phi, hi(g^n) = 21, 20, 19 at n = 1, 2, 3), so a tail that
# brings in a higher power can lower the image's hi (ROADMAP item 1).

TAIL_RINGS = {
    "cyc-p3-w24": lambda: standard_cyclotomic(3, 2, window=24),
    "cyc-p3-f2-w16": lambda: standard_cyclotomic(3, 2, f=2, window=16),
    "cyc-p5-w16": lambda: standard_cyclotomic(5, 2, window=16),
    "intro-w32": lambda: make_custom_ring(3, 2, 1, 32, {3: 1, -1: 3}),
    "tame-e2-p3-w16": lambda: tame_extension(
        standard_cyclotomic(3, 2, window=16), 2),
}


class TestAdversarialTails:
    @pytest.mark.parametrize("name", list(TAIL_RINGS))
    @settings(max_examples=100, deadline=None)
    @given(seed=seeds)
    def test_apply(self, name, seed):
        ring = TAIL_RINGS[name]()
        base = ring.base
        rng = random.Random(seed)
        hi = rng.randrange(1, ring.window + 1)
        lo = rng.randrange(-3, min(hi, 4))
        if rng.random() < 0.5:
            terms = {rng.randrange(lo, hi): base.random(rng)
                     for _ in range(rng.randrange(1, 5))}
        else:
            terms = {e: base.random(rng) for e in range(lo, hi)}
        x = LaurentSeries.from_terms(base, terms, hi)
        xt = with_tail(rng, x)
        for op in (ring.phi, ring.gamma):
            small, large = op.apply(x), op.apply(xt)
            assert large.agrees(small)
