"""End-to-end acceptance battery.

Each criterion below is a deterministic function of a window scale
factor and returns a mapping name -> status ("holds", "fails", or
"inconclusive").  The individual tests run everything at scale 1,
assert the criterion-specific pass condition together with its time
budget, and print one summary line.  The final meta-check reruns all
batteries with doubled windows and verifies that no Hold flips.
"""

import random
import time
from fractions import Fraction

from phigamma.cup import (ParabolicData, check_mu_well_defined, lambda_map,
                          lift_step, mu)
from phigamma.framed import (Cochain, DescentDatum, FramedModule,
                             change_basis, check_descent, check_invariance,
                             commutation_residual, descend_cochain,
                             descent_datum_after_change_basis, pattern_ok,
                             restrict_to_E)
from phigamma.galois_ring import make_ring
from phigamma.herr import (HerrComplex, ext_from_cocycle, ext_residual,
                           lift_dual_numbers, obstruction)
from phigamma.laurent import LaurentSeries, compose, eth_root_one_unit
from phigamma.matrices import (FiltrationParams, SeriesMatrix, solve_g,
                               solve_h, twisted_conj)
from phigamma.period import (make_custom_ring, one_plus_var_pow,
                             standard_cyclotomic, tame_extension)
from phigamma.samplers import (diag_const, rand_lift, rand_module, rand_uni,
                               rand_vec)
from phigamma.tasks.analyze_phi import check_local_contraction
from phigamma.tasks.height_check import check_height_theory
from phigamma.verdicts import HOLDS

from tails import rand_cochain, rand_mat, truncated_zero

HOLD, FAIL, INC = "holds", "fails", "inconclusive"

# scale-1 statuses, filled in by the per-criterion tests and reused by
# the window-doubling meta-check
RESULTS = {}


def mark(ok):
    return HOLD if ok else FAIL


def report(num, ok, elapsed, budget, extra=""):
    verdict = "PASS" if ok else "FAIL"
    tail = f" {extra}" if extra else ""
    print(f"criterion {num}: {verdict} ({elapsed:.2f}s, budget {budget}s){tail}")


# -- criterion 1: height-theory worked family ----------------------------------

def crit_height(s):
    statuses, times = {}, {}
    for p in (3, 5, 7):
        t0 = time.perf_counter()
        r = make_custom_ring(p, 2, 1, 24 * s, {p: 1, -(p - 2): 2 * p})
        v = check_height_theory(r, r.variable(2),
                                expected_expansion={p: 1, p - 1: 4 * p})
        ok = (v.status == HOLDS
              and v.data["expansion"] == {"1": list(r.base.from_int(4 * p)),
                                         str(p): [1]}
              and v.data["expected_mismatch"] is not None)
        times[p] = time.perf_counter() - t0
        statuses[f"height-p{p}"] = mark(ok)
    return statuses, times


def test_criterion_1_height_example():
    statuses, times = crit_height(1)
    RESULTS["height"] = statuses
    ok = all(v == HOLD for v in statuses.values())
    report(1, ok, max(times.values()), 1, "per-p budget")
    assert ok, statuses
    for p, t in times.items():
        assert t < 1.0, f"p={p} took {t:.2f}s"


# -- criterion 2: local contraction on the intro family ------------------------

def crit_contraction(s):
    r = make_custom_ring(3, 2, 1, 40 * s, {3: 1, -1: 3})
    v = check_local_contraction(r, 2, 4, 200)
    return {"intro-contraction": mark(v.status == HOLDS)}, {}


def test_criterion_2_intro_contraction():
    t0 = time.perf_counter()
    statuses, _ = crit_contraction(1)
    RESULTS["contraction"] = statuses
    el = time.perf_counter() - t0
    ok = statuses["intro-contraction"] == HOLD
    report(2, ok, el, 5)
    assert ok and el < 5.0


# -- criterion 3: twisted-conjugation solver round trips -----------------------

SOLVER_COMBOS = ((2, 1), (2, 2), (3, 1), (3, 2))


def crit_solver(s):
    rings = {(p, a): make_custom_ring(p, a, 1, 40 * s, {p: 1})
             for (p, a) in SOLVER_COMBOS}
    params = FiltrationParams(m=1, n_cong=3, lam=Fraction(2), N=1)
    statuses = {}
    for i in range(100):
        rng = random.Random(9000 + i)
        p, a = SOLVER_COMBOS[i % 4]
        ring = rings[(p, a)]
        n = 2 + (i // 4) % 2
        q = ring.base.q
        rows = [[ring.series({-1: 1}) if i2 == j == 0 else
                 (ring.one() if i2 == j else ring.zero())
                 for j in range(n)] for i2 in range(n)]
        rows[0][n - 1] = rows[0][n - 1] + ring.series({0: rng.randrange(q)})
        x = SeriesMatrix(ring, rows)
        g0 = rand_uni(rng, ring, n, depth=3, spread=3)
        h = solve_h(g0, x, params)[0]
        g2 = solve_g(h, x, params)[0]
        ok = (twisted_conj(x, g2) - h.inv() * x).is_zero()
        t = min(g2.hi, g0.hi)
        ok = ok and g2.truncate(t).agrees(g0.truncate(t))
        prows = [[e for e in r] for r in
                 SeriesMatrix.identity(ring, n).rows]
        prows[n - 1][0] = prows[n - 1][0] + ring.series(
            {3 + rng.randrange(4): 1 + rng.randrange(q - 1)})
        pert = SeriesMatrix(ring, prows)
        ok = ok and not (twisted_conj(x, g0 * pert) - h.inv() * x).is_zero()
        statuses[f"solver-{i}"] = mark(ok)
    return statuses, {}


def test_criterion_3_solver_round_trips():
    t0 = time.perf_counter()
    statuses, _ = crit_solver(1)
    RESULTS["solver"] = statuses
    el = time.perf_counter() - t0
    ok = all(v == HOLD for v in statuses.values())
    report(3, ok, el, 30, "100 instances")
    assert ok, [k for k, v in statuses.items() if v != HOLD]
    assert el < 30.0


# -- criterion 4: stabilized filtration nesting and stability -------------------

def crit_filtration(s):
    R9 = make_custom_ring(3, 2, 1, 48 * s, {3: 1, -1: 3})
    c = R9.c_phi()
    a = R9.base.a
    statuses = {}
    for i in range(200):
        rng = random.Random(11000 + i)
        m = rng.randrange(0, 3)
        x = SeriesMatrix(R9, [
            [R9.one() + R9.series({rng.randrange(1, 4): rng.randrange(9)}),
             R9.series({-rng.randrange(0, m + 1): 3 * rng.randrange(3)})],
            [R9.zero(), R9.one()]])
        ok = True
        if x.in_Vm(m):
            ok = ok and x.in_Lm_phi(m)
        if x.in_Lm_phi(m):
            ok = ok and x.in_Vm(m + a * c)
        y = SeriesMatrix(R9, [[R9.one(), R9.series({-(m + 1): 3})],
                              [R9.zero(), R9.one()]])
        g = rand_uni(rng, R9, 2, 1)
        ok = ok and y.in_Lm_phi(m) and twisted_conj(y, g).in_Lm_phi(m)
        statuses[f"filtration-{i}"] = mark(ok)
    return statuses, {}


def test_criterion_4_filtration():
    t0 = time.perf_counter()
    statuses, _ = crit_filtration(1)
    RESULTS["filtration"] = statuses
    el = time.perf_counter() - t0
    ok = all(v == HOLD for v in statuses.values())
    report(4, ok, el, 30, "200 samples")
    assert ok, [k for k, v in statuses.items() if v != HOLD]
    assert el < 30.0


# -- criterion 5: complex soundness and extension blocks ------------------------

def crit_complex(s):
    ring = standard_cyclotomic(3, 1, window=20 * s)
    h = 12 * s
    statuses = {}
    kinds = ("plain", "framed", "adjoint")
    for i in range(200):
        rng = random.Random(13000 + i)
        M = rand_module(rng, ring)
        C = HerrComplex(M, kinds[i % 3])
        z = rand_cochain(rng, C, 0)
        statuses[f"d1d0-{i}"] = mark(C.d1(C.d0(z)).parts[0].is_zero())
    for i in range(100):
        rng = random.Random(14000 + i)
        M = rand_module(rng, ring)
        C = HerrComplex(M, "framed")
        xy = C.d0(Cochain(0, (rand_vec(rng, ring),)))
        X, Y = ext_from_cocycle(C, xy)
        ok = (X * Y.apply_phi() - Y * X.apply_gamma()).is_zero()
        statuses[f"ext-cocycle-{i}"] = mark(ok)
    for i in range(100):
        rng = random.Random(15000 + i)
        M = rand_module(rng, ring)
        C = HerrComplex(M, "framed")
        xy = Cochain(1, (rand_vec(rng, ring), rand_vec(rng, ring)))
        d1 = C.d1(xy).parts[0]
        ok = not d1.is_zero()  # a genuine non-cocycle
        resid = ext_residual(C, xy)
        pred = -(M.Phi * M.Gam.apply_phi()) * d1
        n = C.n
        for r in range(n):
            d = resid.entry(r, n) - pred.entry(r, 0)
            ok = ok and d.truncate(min(d.hi, h)).is_zero()
        for r in range(n + 1):
            for cidx in range(n):
                e = resid.entry(r, cidx)
                ok = ok and e.truncate(min(e.hi, h)).is_zero()
        statuses[f"ext-residual-{i}"] = mark(ok)
    return statuses, {}


def test_criterion_5_complex_soundness():
    t0 = time.perf_counter()
    statuses, _ = crit_complex(1)
    RESULTS["complex"] = statuses
    el = time.perf_counter() - t0
    ok = all(v == HOLD for v in statuses.values())
    report(5, ok, el, 60, "200 pairs + 2x100 extensions")
    assert ok, [k for k, v in statuses.items() if v != HOLD]
    assert el < 60.0


# -- criterion 6: dual-number lifts and the obstruction ------------------------

UPPER = frozenset({(0, 0), (0, 1), (1, 1)})


def crit_dual(s):
    ring = standard_cyclotomic(3, 1, window=20 * s)
    h = 12 * s
    statuses = {}
    for i in range(50):
        rng = random.Random(16000 + i)
        M = rand_module(rng, ring)
        C = HerrComplex(M, "adjoint")
        xy0 = C.d0(Cochain(0, (rand_mat(rng, ring),)))
        try:
            Pt, Gt = lift_dual_numbers(M, xy0)
            o1 = obstruction(M, Pt, Gt)
            ok = truncated_zero(o1, h)
        except Exception:
            ok = False
            statuses[f"dual-{i}"] = mark(ok)
            continue
        uv = Cochain(1, (rand_mat(rng, ring), rand_mat(rng, ring)))
        xy2 = Cochain(1, tuple(a + b for a, b in zip(xy0.parts, uv.parts)))
        P2, G2 = lift_dual_numbers(M, xy2, require_cocycle=False)
        o2 = obstruction(M, P2, G2)
        # adjusting the lift by (U, V) shifts the obstruction by -d1(U, V)
        ok = ok and truncated_zero(o2 - o1 + C.d1(uv).parts[0], h)
        statuses[f"dual-{i}"] = mark(ok)
    for i in range(10):
        rng = random.Random(16500 + i)
        q = ring.base.q
        rows = [[e for e in r] for r in SeriesMatrix.identity(ring, 2).rows]
        rows[0][1] = rows[0][1] + ring.series(
            {1 + rng.randrange(4): rng.randrange(q)})
        rows[0][0] = rows[0][0] + ring.series(
            {1 + rng.randrange(4): rng.randrange(q)})
        hmat = SeriesMatrix(ring, rows)
        I = SeriesMatrix.identity(ring, 2)
        M = change_basis(FramedModule(ring, I, I), hmat)
        C = HerrComplex(M, "adjoint")
        W = SeriesMatrix(ring, [
            [ring.series({rng.randrange(0, 5): rng.randrange(q)}),
             ring.series({rng.randrange(0, 5): rng.randrange(q)})],
            [ring.zero(),
             ring.series({rng.randrange(0, 5): rng.randrange(q)})]])
        xy = C.d0(Cochain(0, (W,)))
        try:
            Pt, Gt = lift_dual_numbers(M, xy)
            o = obstruction(M, Pt, Gt, pattern=UPPER)
            ok = pattern_ok(o, UPPER)
        except Exception:
            ok = False
        statuses[f"dual-masked-{i}"] = mark(ok)
    return statuses, {}


def test_criterion_6_dual_lifts():
    t0 = time.perf_counter()
    statuses, _ = crit_dual(1)
    RESULTS["dual"] = statuses
    el = time.perf_counter() - t0
    ok = all(v == HOLD for v in statuses.values())
    report(6, ok, el, 60, "50 modules + 10 masked")
    assert ok, [k for k, v in statuses.items() if v != HOLD]
    assert el < 60.0


# -- criterion 7: cup-product layer on Borel instances --------------------------

# the upper cells of a lift of a Borel module one step up the series
CELLS2 = ((0, 1),)
CELLS3 = ((0, 1), (1, 2))


def _borel2(ring, D2):
    return FramedModule(ring, diag_const(ring, (2, 1)),
                        diag_const(ring, (1, 1)),
                        pattern=D2.quotient_pattern(1))


def _borel3(ring, D3):
    return FramedModule(ring, diag_const(ring, (2, 1, 2)),
                        diag_const(ring, (1, 2, 1)),
                        pattern=D3.quotient_pattern(2))


def crit_cup(s):
    ring = standard_cyclotomic(3, 1, window=40 * s)
    h = 30 * s
    D2 = ParabolicData(2, (1, 1))
    D3 = ParabolicData(3, (1, 1, 1))
    M2 = _borel2(ring, D2)
    M3 = _borel3(ring, D3)
    statuses = {}
    I2 = SeriesMatrix.identity(ring, 2)
    I3 = SeriesMatrix.identity(ring, 3)
    for i in range(100):
        rng = random.Random(17000 + i)
        if i % 2 == 0:
            a, b = rand_lift(rng, M2, CELLS2)
            I = I2
        else:
            a, b = rand_lift(rng, M3, CELLS3)
            I = I3
        lam = lambda_map(a, b)
        pred = I + a.apply_gamma().inv() * b.inv() * \
            commutation_residual(a, b)
        ok = truncated_zero(lam - pred, h)
        if i % 2 == 1:
            # second identity: factorization through the Levi adjoints
            PL, GL = M3.Phi, M3.Gam
            a_u = D3.qmul(0, PL.inv(), a)
            b_u = D3.qmul(0, GL.inv(), b)

            def ad(g, x):
                return D3.qmul(0, D3.qmul(0, g, x), D3.qinv(0, g))
            rhs = D3.qmul(0, D3.qinv(0, a_u.apply_gamma()),
                  D3.qmul(0, ad(PL.apply_gamma().inv(), D3.qinv(0, b_u)),
                  D3.qmul(0, ad(GL.apply_phi().inv(), a_u),
                          D3.qreduce(b_u.apply_phi(), 0))))
            lamq = lambda_map(a, b, D3, 0)
            ok = ok and truncated_zero(lamq - rhs, h)
        statuses[f"cup-lambda-{i}"] = mark(ok)
    for i in range(100):
        rng = random.Random(17500 + i)
        if i % 2 == 0:
            v = check_mu_well_defined(D2, 1, M2, rand_lift(rng, M2, CELLS2),
                                      rand_lift(rng, M2, CELLS2))
        else:
            v = check_mu_well_defined(D3, 2, M3, rand_lift(rng, M3, CELLS3),
                                      rand_lift(rng, M3, CELLS3))
        statuses[f"mu-wd-{i}"] = HOLD if v.found else INC
    for i in range(100):
        rng = random.Random(18500 + i)
        if i % 2 == 0:
            data, lvl, M = D2, 1, M2
            P, G = rand_lift(rng, M2, CELLS2)
        else:
            data, lvl, M = D3, 2, M3
            P, G = rand_lift(rng, M3, CELLS3)
        cls = mu(data, lvl, M, P, G)
        res = cls.complex.try_coboundary(cls.rep)
        if not res.found:
            statuses[f"lift-step-{i}"] = INC
            continue
        lifted = lift_step(cls, res.witness)
        ok = (data.qreduce(lifted.Phi, lvl) - M.Phi).is_zero()
        cls2 = mu(data, lvl, M, lifted.Phi, lifted.Gam)
        w = res.sub_window if res.sub_window is not None else h
        ok = ok and all(e.truncate(min(e.hi, w)).is_zero()
                        for p in cls2.rep.parts for row in p.rows for e in row)
        statuses[f"lift-step-{i}"] = mark(ok)
    return statuses, {}


def test_criterion_7_cup_layer():
    t0 = time.perf_counter()
    statuses, _ = crit_cup(1)
    RESULTS["cup"] = statuses
    el = time.perf_counter() - t0
    lam = [v for k, v in statuses.items() if k.startswith("cup-lambda")]
    wd = [v for k, v in statuses.items() if k.startswith("mu-wd")]
    lift = [v for k, v in statuses.items() if k.startswith("lift-step")]
    ok = (all(v == HOLD for v in lam)
          and wd.count(HOLD) >= 95 and FAIL not in wd
          and FAIL not in lift and lift.count(HOLD) >= 95)
    report(7, ok, el, 120,
           f"lambda {lam.count(HOLD)}/100, mu-wd {wd.count(HOLD)}/100, "
           f"lift {lift.count(HOLD)}/100")
    assert ok, statuses
    assert el < 120.0


# -- criterion 8: tame descent fixtures -----------------------------------------

def crit_descent(s):
    BASE = standard_cyclotomic(3, 1, window=12 * s)
    EXT = tame_extension(BASE, 2)
    statuses = {}
    I = SeriesMatrix.identity(EXT, 1)
    M = FramedModule(EXT, I, I)
    D = DescentDatum.canonical(EXT, 1)
    statuses["descent-canonical"] = mark(check_descent(M, D) is None)
    hmat = SeriesMatrix(EXT, [[EXT.series({-1: 1})]])
    M2 = change_basis(M, hmat)
    D2 = descent_datum_after_change_basis(M, D, hmat)
    ok = (dict(M2.Phi.entry(0, 0).terms()) == {2: (1,)}
          and dict(D2.matrix("sigma_ram").entry(0, 0).terms()) == {0: (2,)}
          and check_descent(M2, D2) is None)
    statuses["descent-base-change"] = mark(ok)
    for i in range(10):
        rng = random.Random(19000 + i)
        def rb():
            return SeriesMatrix(BASE, [[BASE.series(
                {rng.randrange(-2, 5): rng.randrange(3) for _ in range(3)})]])
        c = Cochain(1, (rb(), rb()))
        up = restrict_to_E(EXT, c)
        ok = check_invariance(EXT, up)
        down = descend_cochain(EXT, up)
        ok = ok and all((pu - pd).is_zero()
                        for pu, pd in zip(c.parts, down.parts))
        # averaging ignores a non-invariant (odd-exponent) perturbation
        odd = Cochain(1, (up.parts[0] + SeriesMatrix(
            EXT, [[EXT.series({2 * rng.randrange(0, 3) + 1: 1})]]),
            up.parts[1]))
        av = descend_cochain(EXT, odd)
        ok = ok and all((pu - pd).is_zero()
                        for pu, pd in zip(c.parts, av.parts))
        statuses[f"descent-roundtrip-{i}"] = mark(ok)
    return statuses, {}


def test_criterion_8_tame_descent():
    t0 = time.perf_counter()
    statuses, _ = crit_descent(1)
    RESULTS["descent"] = statuses
    el = time.perf_counter() - t0
    ok = all(v == HOLD for v in statuses.values())
    report(8, ok, el, 30)
    assert ok, statuses
    assert el < 30.0


# -- criterion 9: oracle equivalences -------------------------------------------

def _series_pow(x, k):
    out = LaurentSeries.constant(x.ring, 1, x.hi)
    for _ in range(k):
        out = out * x
    return out


def _naive_compose(f, g):
    """Substitution by repeated multiplication, the slow oracle."""
    acc = LaurentSeries.from_terms(f.ring, {}, g.hi)
    gi = None
    for e, c in f.terms():
        if e >= 0:
            pw = _series_pow(g, e)
        else:
            if gi is None:
                gi = g.inv()
            pw = _series_pow(gi, -e)
        acc = acc + pw.scale(c)
    return acc


def crit_oracles(s):
    W = 24 * s
    coeffs = (make_ring(3, 2, 1), make_ring(3, 1, 1), make_ring(2, 2, 1))
    statuses = {}
    for i in range(100):
        rng = random.Random(20000 + i)
        ring = coeffs[i % 3]
        fterms = {rng.randrange(-3, 9): ring.random(rng)
                  for _ in range(rng.randrange(1, 5))}
        f = LaurentSeries.from_terms(ring, fterms, W)
        gterms = {1: ring.random_unit(rng)}
        for _ in range(rng.randrange(3)):
            gterms[rng.randrange(2, 8)] = ring.random(rng)
        g = LaurentSeries.from_terms(ring, gterms, W)
        fast = compose(f, g, {})
        slow = _naive_compose(f, g)
        t = min(fast.hi, slow.hi)
        statuses[f"compose-{i}"] = mark(
            fast.truncate(t).agrees(slow.truncate(t)))
    r = standard_cyclotomic(3, 2, window=W)
    sq = r.series({0: 1, 1: 1})
    for k in range(11):
        img = one_plus_var_pow(r.base, 2 ** k, W)
        oracle = (sq - LaurentSeries.constant(r.base, 1, sq.hi)).truncate(img.hi)
        statuses[f"gammapow-2^{k}"] = mark(img.agrees(oracle))
        sq = sq * sq
    for i in range(10):
        rng = random.Random(20500 + i)
        c1, c2 = rng.randrange(2, 32), rng.randrange(2, 32)
        lhs = compose(one_plus_var_pow(r.base, c1, W),
                      one_plus_var_pow(r.base, c2, W), {})
        g12 = one_plus_var_pow(r.base, c1 * c2, W)
        t = min(lhs.hi, g12.hi)
        statuses[f"gammamul-{i}"] = mark(
            lhs.truncate(t).agrees(g12.truncate(t)))
    for i in range(100):
        rng = random.Random(21000 + i)
        ring = coeffs[i % 3]
        choices = (1, 3, 5) if ring.p == 2 else (1, 2, 4)
        e = choices[rng.randrange(3)]
        terms = {0: 1}
        for _ in range(rng.randrange(4)):
            terms[rng.randrange(1, 8)] = ring.random(rng)
        if ring.a > 1:
            terms[-rng.randrange(1, 3)] = ring.smul(ring.p, ring.random(rng))
        w = LaurentSeries.from_terms(ring, terms, W)
        root = eth_root_one_unit(w, e)
        statuses[f"ethroot-{i}"] = mark(_series_pow(root, e).agrees(w))
    return statuses, {}


def test_criterion_9_oracle_equivalences():
    t0 = time.perf_counter()
    statuses, _ = crit_oracles(1)
    RESULTS["oracles"] = statuses
    el = time.perf_counter() - t0
    ok = all(v == HOLD for v in statuses.values())
    report(9, ok, el, 30)
    assert ok, [k for k, v in statuses.items() if v != HOLD]
    assert el < 30.0


# -- criterion 10: window-doubling stability ------------------------------------

CRITERIA = {
    "height": crit_height,
    "contraction": crit_contraction,
    "solver": crit_solver,
    "filtration": crit_filtration,
    "complex": crit_complex,
    "dual": crit_dual,
    "cup": crit_cup,
    "descent": crit_descent,
    "oracles": crit_oracles,
}


def test_criterion_10_window_doubling():
    t0 = time.perf_counter()
    flips = []
    for key, fn in CRITERIA.items():
        base = RESULTS.get(key)
        if base is None:
            base, _ = fn(1)
        doubled, _ = fn(2)
        for name, st in base.items():
            if st == HOLD and doubled.get(name) != HOLD:
                flips.append((key, name, doubled.get(name)))
    el = time.perf_counter() - t0
    report(10, not flips, el, 600, f"{len(flips)} Hold flips")
    assert not flips, flips
