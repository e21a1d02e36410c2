"""Config-driven command line front end.

A job is a JSON config: a ring descriptor, a task name, task
parameters, and a seed for randomized suites.  Reports are emitted on
standard output, either human-readable (--pretty, the default) or as a
canonical JSON document (--json) that is byte-stable for equal inputs;
timing is reported only in pretty mode so the JSON stays deterministic.

Exit codes: 0 all verdicts hold, 1 some verdict fails, 2 inconclusive
verdicts only, 3 usage or config error.
"""

import argparse
import hashlib
import json
import random
import sys
import time

from . import __version__
from .errors import ConfigError, EmptyWindow, InsufficientWindow, \
    NotInvertible, PhigammaError, PreconditionViolated
from .laurent import LaurentSeries
from .period import check_frobenius_contraction, check_height_theory, \
    check_local_contraction, contraction_constants, make_custom_ring, \
    standard_cyclotomic, tame_extension
from .verdicts import FAILS, HOLDS, INCONCLUSIVE, fails, holds, inconclusive

# matrices, samplers, framed, herr, cup and fractions are imported inside
# the functions that use them, so a process loads only what its task runs

TASKS = ("ring-info", "analyze-phi", "height-check", "solve-twisted",
         "herr", "cup", "descent-check", "suite")

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


def _int_field(name, v, least):
    """v if it is an int >= least (a bool is not), else a ConfigError."""
    if type(v) is not int or v < least:
        raise ConfigError(f"ring field {name!r} must be an integer >= {least}, "
                          f"got {v!r}")
    return v


def _terms(what, name, d, f=None):
    """{exponent: coefficient} from the JSON object d, the field `name`
    (a `what`, for the messages), whose keys are integer strings and
    whose values are ints, or lists of f ints when f is given."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} {name!r} must be an object")
    terms = {}
    for k, c in d.items():
        try:
            e = int(k)
        except ValueError:
            raise ConfigError(f"{name} exponent {k!r} is not an integer") \
                from None
        if not (type(c) is int or f is not None and isinstance(c, list)
                and len(c) == f and all(type(v) is int for v in c)):
            raise ConfigError(f"{name} coefficient {c!r} must be an integer"
                              + ("" if f is None else
                                 f" or a list of {f} integers"))
        terms[e] = c
    return terms


def build_ring(desc, window=None):
    """Construct a period ring from a JSON descriptor.

    Field types and ranges are checked here; a ring that still cannot be
    built (say p not prime, or no e-th root of unity) raises a library
    error, which becomes a ConfigError too.
    """
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError("ring descriptor needs a 'kind'")
    kind = desc["kind"]
    try:
        if kind in ("cyclotomic", "custom"):
            p = _int_field("p", desc["p"], 2)
            a = _int_field("a", desc["a"], 1)
            f = _int_field("f", desc.get("f", 1), 1)
            w = _int_field("window", window if window is not None
                           else desc.get("window", 32), 1)
        if kind == "cyclotomic":
            c = desc.get("c")
            return standard_cyclotomic(
                p, a, f, w, c=c if c is None else _int_field("c", c, 1))
        if kind == "custom":
            phi_terms = _terms("ring field", "phi_terms", desc["phi_terms"],
                               f)
            return make_custom_ring(
                p, a, f, w, phi_terms,
                gamma_c=_int_field("gamma_c", desc.get("gamma_c", 1), 1))
        if kind == "tame":
            base = build_ring(desc["base"], window)
            return tame_extension(base, _int_field("e", desc.get("e", 2), 1),
                                  _int_field("f_ext", desc.get("f_ext", 1), 1))
    except KeyError as exc:
        raise ConfigError(f"ring descriptor missing field {exc}")
    except ConfigError:
        raise
    except PhigammaError as exc:
        # a ring that cannot be built is bad input: exit 3, not a traceback
        raise ConfigError(f"cannot build ring: {type(exc).__name__}: {exc}") \
            from exc
    raise ConfigError(f"unknown ring kind {kind!r}")


# -- task parameters ---------------------------------------------------------------


def _param(cfg, name, default, least=None, rational=False):
    """Task parameter `name` as an int, or as a Fraction when `rational`,
    not below `least` when that is given, else a ConfigError.  An int
    comes from an int or an integer string, never from a float or a bool,
    which `int` would truncate."""
    v = cfg.get(name, default)
    try:
        if rational:
            from fractions import Fraction
            x = Fraction(str(v))
        elif isinstance(v, (bool, float)):
            raise TypeError
        else:
            x = int(v)
    except (TypeError, ValueError, ZeroDivisionError):
        what = "a rational number" if rational else "an integer"
        raise ConfigError(f"task parameter {name!r} must be {what}, "
                          f"got {v!r}") from None
    if least is not None and x < least:
        raise ConfigError(f"task parameter {name!r} must be at least "
                          f"{least}, got {v!r}")
    return x


def _lam(cfg):
    lam = _param(cfg, "lam", 2, rational=True)
    if lam <= 1:
        raise ConfigError(f"task parameter 'lam' must exceed 1, got {lam}")
    return lam


def _contraction_params(cfg):
    """(lam, N, n_max, max_iter) of analyze-phi: lam > 1, 1 <= N < n_max
    and max_iter >= 1."""
    lam, N = _lam(cfg), _param(cfg, "N", 1, least=1)
    n_max = _param(cfg, "n_max", 50)
    if N >= n_max:
        raise ConfigError(f"task parameters need N < n_max, got N = {N}, "
                          f"n_max = {n_max}")
    return lam, N, n_max, _param(cfg, "max_iter", 4, least=1)


def _filtration_params(cfg):
    """FiltrationParams of solve-twisted, meeting the solvers' preconditions."""
    from .matrices import FiltrationParams
    params = FiltrationParams(m=_param(cfg, "m", 1),
                              n_cong=_param(cfg, "n_cong", 5),
                              lam=_lam(cfg), N=_param(cfg, "N", 4, least=1))
    try:
        params.check()
    except PreconditionViolated as exc:
        raise ConfigError(f"solve-twisted parameters: {exc}") from None
    return params


# task parameters the library would refuse, checked before the task runs
PARAM_CHECKS = {"analyze-phi": _contraction_params,
                "suite": _contraction_params,
                "solve-twisted": _filtration_params}


# -- tasks ------------------------------------------------------------------------

# errors that say a window ran out: a precision shortfall, never a failure
SHORTFALLS = (InsufficientWindow, EmptyWindow)


def _class_names(names):
    """The distinct error class names, sorted and joined."""
    return ", ".join(sorted(set(names)))


def task_ring_info(ring, cfg, rng):
    return [holds("ring-info", repr(ring), window=ring.window,
                  ring=ring.to_json())]


def _shortfall(name, ring, exc):
    """The inconclusive verdict of a check that ran out of window."""
    cls = type(exc).__name__
    return inconclusive(name, f"ran out of window: {cls}: {exc}",
                        window=ring.window, error=cls)


def _shortfalls(name, ring, classes, what, **data):
    """The inconclusive verdict of a check whose `what` (a plural noun)
    ran out of window, raising errors of the given class names."""
    cls = _class_names(classes)
    return inconclusive(name, f"{len(classes)} {what} ran out of window: "
                        f"{cls}", window=ring.window, error=cls, **data)


def task_analyze_phi(ring, cfg, rng):
    lam, N, n_max, max_iter = _contraction_params(cfg)
    checks = (
        ("local-contraction",
         lambda: check_local_contraction(ring, lam, N, n_max)),
        ("contraction-constants",
         lambda: holds("contraction-constants", window=ring.window,
                       **contraction_constants(ring))),
        ("frobenius-contraction",
         lambda: check_frobenius_contraction(ring, max_iter)))
    out = []
    for name, check in checks:
        try:
            out.append(check())
        except SHORTFALLS as exc:
            out.append(_shortfall(name, ring, exc))
    return out


def task_height_check(ring, cfg, rng):
    if "v_terms" not in cfg:
        raise ConfigError("height-check needs v_terms")
    terms = _terms("task parameter", "v_terms", cfg["v_terms"], ring.base.f)
    expected = cfg.get("expected_expansion")
    if expected is not None:
        expected = _terms("task parameter", "expected_expansion", expected)
    try:
        # a probe term at or above the window, or an inverse that needs
        # more window than there is, is a precision shortfall
        return [check_height_theory(ring, LaurentSeries.from_terms(
            ring.base, terms, ring.window), expected)]
    except SHORTFALLS as exc:
        return [_shortfall("height-check", ring, exc)]


def task_solve_twisted(ring, cfg, rng, max_iter=64):
    from .matrices import SeriesMatrix, solve_g, solve_h, twisted_conj
    from .samplers import rand_uni
    count = _param(cfg, "count", 20, least=1)
    n = _param(cfg, "rank", 2, least=1)
    params = _filtration_params(cfg)
    ok = uniq_ok = 0
    failures = []
    shortfalls = []
    for idx in range(count):
        x = SeriesMatrix(ring, [
            [ring.series({-params.m: 1}) if i == j == 0 else
             (ring.one() if i == j else
              ring.constant(rng.randrange(ring.base.q)))
             for j in range(n)] for i in range(n)])
        try:
            # the sample's terms sit at n_cong to n_cong + 2, and the
            # perturbation's at n_cong to n_cong + 3, so a small window
            # can end below them
            g0 = rand_uni(rng, ring, n, params.n_cong, spread=3)
            h = solve_h(g0, x, params)
            g2 = solve_g(h, x, params, max_iter=max_iter)
            resid = twisted_conj(x, g2) - h.inv() * x
            good = resid.is_zero()
            t = min(g2.hi, g0.hi)
            good = good and g2.truncate(t).agrees(g0.truncate(t))
            if good:
                rows = [list(r) for r in SeriesMatrix.identity(ring, n).rows]
                rows[n - 1][0] = ring.series(
                    {params.n_cong + rng.randrange(4): 1 + rng.randrange(
                        ring.base.q - 1)})
                pert = SeriesMatrix(ring, rows)
                unique = not (twisted_conj(x, g0 * pert) -
                              h.inv() * x).is_zero()
        except SHORTFALLS as exc:
            shortfalls.append({"instance": idx, "error": str(exc),
                               "class": type(exc).__name__})
            continue
        except PhigammaError as exc:
            good = False
            failures.append({"instance": idx, "error": str(exc)})
        if good:
            ok += 1
            uniq_ok += unique
        elif not failures or failures[-1].get("instance") != idx:
            failures.append({"instance": idx, "error": "residual nonzero"})
    data = {"instances": count, "round_trips_ok": ok,
            "uniqueness_ok": uniq_ok, "failures": failures}
    if ok == count and uniq_ok == count:
        return [holds("solve-twisted", f"{ok}/{count} round trips",
                      window=ring.window, **data)]
    if shortfalls and not failures and uniq_ok == ok:
        return [_shortfalls("solve-twisted", ring,
                            [s["class"] for s in shortfalls], "round trips",
                            shortfalls=shortfalls, **data)]
    return [fails("solve-twisted",
                  f"{count - ok} round trips failed", window=ring.window,
                  **data)]


def task_herr(ring, cfg, rng):
    from .framed import Cochain
    from .herr import HerrComplex
    from .matrices import SeriesMatrix
    from .samplers import rand_module, rand_vec
    count = _param(cfg, "count", 10, least=1)
    n = _param(cfg, "rank", 2, least=1)
    exact_bad = 0
    misses = 0
    unvalidated = 0
    witness_blob = None
    for idx in range(count):
        try:
            M = rand_module(rng, ring, n)
            for kind in ("plain", "framed", "adjoint"):
                C = HerrComplex(M, kind)
                if kind == "adjoint":
                    z = SeriesMatrix(ring, [
                        [ring.series({rng.randrange(-1, 6):
                                      rng.randrange(ring.base.q)})
                         for _ in range(n)] for _ in range(n)])
                else:
                    z = rand_vec(rng, ring, n)
                cob = C.d0(Cochain(0, (z,)))
                if not C.d1(cob).parts[0].is_zero():
                    exact_bad += 1
                    continue
                res = C.try_coboundary(cob)
                if not res.found:
                    misses += 1
                elif witness_blob is None:
                    witness_blob = {
                        "kind": kind,
                        "module": {"Phi": M.Phi.to_json(),
                                   "Gam": M.Gam.to_json()},
                        "cochain": cob.to_json(),
                        "witness": res.witness.to_json(),
                        "sub_window": res.sub_window,
                    }
        except (NotInvertible, EmptyWindow):
            # the module and the matrices its complexes invert are exactly
            # invertible (a unipotent change of basis), so an inverse that
            # fails, or a matrix whose window has run out, is a precision
            # shortfall: skip the rest of the instance
            unvalidated += 1
    data = {"instances": count, "kinds": 3, "exact_failures": exact_bad,
            "coboundary_misses": misses}
    if unvalidated:
        data["unvalidated_modules"] = unvalidated
    if witness_blob is not None:
        data["witness_sample"] = witness_blob
    if exact_bad:
        return [fails("herr-suite", f"{exact_bad} exact identities failed",
                      window=ring.window, **data)]
    if misses or unvalidated:
        why = []
        if misses:
            why.append(f"{misses} coboundary searches missed")
        if unvalidated:
            why.append(f"{unvalidated} random modules not invertible "
                       "within the window")
        return [inconclusive("herr-suite", "; ".join(why),
                             window=ring.window, **data)]
    return [holds("herr-suite", "differentials and round trips verified",
                  window=ring.window, **data)]


def revalidate_witness(ring, blob):
    """Recheck an emitted coboundary witness: d(witness) must agree with
    the stored cochain on the recorded sub-window."""
    from .framed import Cochain, FramedModule
    from .herr import HerrComplex
    from .matrices import SeriesMatrix
    M = FramedModule(ring,
                     SeriesMatrix.from_json(ring, blob["module"]["Phi"]),
                     SeriesMatrix.from_json(ring, blob["module"]["Gam"]))
    C = HerrComplex(M, blob["kind"])
    cochain = Cochain(blob["cochain"]["degree"], tuple(
        SeriesMatrix.from_json(ring, p) for p in blob["cochain"]["parts"]))
    witness = Cochain(blob["witness"]["degree"], tuple(
        SeriesMatrix.from_json(ring, p) for p in blob["witness"]["parts"]))
    diff = C.d(witness)
    hi = blob["sub_window"]
    for dp, cp in zip(diff.parts, cochain.parts):
        r = dp - cp
        if not r.truncate(min(r.hi, hi)).is_zero():
            return False
    return True


def _check_cup_ring(ring):
    """ConfigError on a ring where 2 is not a unit: cup's Levi parts
    diag(2, 1) and diag(2, 1, 2) must be invertible."""
    if ring.base.p == 2:
        raise ConfigError("cup needs an odd p: its Levi constants "
                          "diag(2, 1) and diag(2, 1, 2) are not invertible "
                          "mod 2")


def task_cup(ring, cfg, rng):
    from .cup import ParabolicData, check_mu_well_defined, lambda_map, \
        lift_step, mu
    from .framed import FramedModule, commutation_residual
    from .matrices import SeriesMatrix
    from .samplers import diag_const, rand_lift
    _check_cup_ring(ring)
    count = _param(cfg, "count", 10, least=1)
    depth = _param(cfg, "depth", 4, least=0)
    d2 = ParabolicData(2, (1, 1))
    d3 = ParabolicData(3, (1, 1, 1))
    phi_l3 = diag_const(ring, (2, 1, 2))
    gam_l3 = diag_const(ring, (1, 2, 1))
    M2 = FramedModule(ring, diag_const(ring, (2, 1)),
                      diag_const(ring, (1, 1)),
                      pattern=d2.quotient_pattern(1))
    M3 = FramedModule(ring, phi_l3, gam_l3, pattern=d3.quotient_pattern(2))

    def ad(g, x):
        return g * x * g.inv()

    lam_bad = 0
    lam_short = []  # precision shortfalls of the lambda identities
    found = 0
    mu_failed = 0
    mu_short = []  # precision shortfalls of the well-definedness check
    lift_ok = lift_total = 0
    lift_short = []  # certified windows of lifts that ran out of precision
    draw_short = []  # precision shortfalls of the lifts to correct
    check_hi = ring.window - 10
    for idx in range(count):
        # the random lifts have terms up to u^7, so a small window can end
        # below them
        try:
            # lambda identity 1: factorization with commuting Levi parts,
            # in P/U_0 = P
            a, b = rand_lift(rng, M3, ((0, 1), (1, 2), (0, 2)))
            a_u = phi_l3.inv() * a
            b_u = gam_l3.inv() * b
            lam = lambda_map(a, b)
            rhs = a_u.apply_gamma().inv() * (
                ad(phi_l3.apply_gamma().inv(), b_u.inv()) *
                (ad(gam_l3.apply_phi().inv(), a_u) * b_u.apply_phi()))
            if not (lam - rhs).truncate(check_hi).is_zero():
                lam_bad += 1
            # lambda identity 2: lambda = 1 + gamma(a)^-1 b^-1 residual
            pred = (SeriesMatrix.identity(ring, 3) +
                    a.apply_gamma().inv() * b.inv() *
                    commutation_residual(a, b))
            if not (lam - pred).truncate(check_hi).is_zero():
                lam_bad += 1
        except SHORTFALLS as exc:
            lam_short.append(type(exc).__name__)
        # mu well-definedness on both Borel instances
        for data, i, M, cells in ((d2, 1, M2, ((0, 1),)),
                                  (d3, 2, M3, ((0, 1), (1, 2)))):
            try:
                v = check_mu_well_defined(data, i, M, rand_lift(rng, M, cells),
                                          rand_lift(rng, M, cells), depth)
            except SHORTFALLS as exc:
                mu_short.append(type(exc).__name__)
                continue
            except PhigammaError:
                mu_failed += 1
                continue
            if v.status == HOLDS:
                found += 1
            try:
                cls = mu(data, i, M, *rand_lift(rng, M, cells))
                res = cls.complex.try_coboundary(cls.rep, depth)
            except SHORTFALLS as exc:
                draw_short.append(type(exc).__name__)
                continue
            if res.found:
                lift_total += 1
                try:
                    lift_step(cls, res.witness, res.sub_window)
                    lift_ok += 1
                except InsufficientWindow:
                    lift_short.append(res.sub_window)
                except PhigammaError:
                    pass
    mu_total = 2 * count
    data = {"instances": count, "lambda_failures": lam_bad,
            "mu_found": found, "mu_total": mu_total, "mu_errors": mu_failed,
            "lift_witnessed": lift_total, "lift_revalidated": lift_ok}
    if mu_short:
        data["mu_shortfalls"] = len(mu_short)
        data["error"] = _class_names(mu_short)
    out = []
    if lam_bad:
        out.append(fails("cup-lambda-identities",
                         f"{lam_bad} identity checks failed",
                         window=ring.window, failures=lam_bad))
    elif lam_short:
        out.append(_shortfalls("cup-lambda-identities", ring, lam_short,
                               "instances"))
    else:
        out.append(holds("cup-lambda-identities",
                         f"both identities on {count} instances",
                         window=ring.window))
    if mu_failed:
        out.append(fails("mu-well-defined", f"{mu_failed} errors",
                         window=ring.window, **data))
    elif mu_short:
        out.append(inconclusive(
            "mu-well-defined", f"{found}/{mu_total} witnessed; "
            f"{len(mu_short)} checks ran out of window: {data['error']}",
            window=ring.window, **data))
    elif found == mu_total:
        out.append(holds("mu-well-defined", f"{found}/{mu_total} witnessed",
                         window=ring.window, **data))
    else:
        out.append(inconclusive("mu-well-defined",
                                f"{found}/{mu_total} witnessed",
                                window=ring.window, **data))
    if lift_ok + len(lift_short) < lift_total:
        out.append(fails("lift-step",
                         f"{lift_total - lift_ok} corrected lifts invalid",
                         window=ring.window))
    elif draw_short:
        out.append(_shortfalls("lift-step", ring, draw_short, "lifts"))
    elif lift_total == 0:
        out.append(inconclusive("lift-step", "no witnessed lift to correct",
                                window=ring.window))
    elif lift_ok == lift_total:
        out.append(holds("lift-step",
                         f"{lift_ok}/{lift_total} corrected lifts revalidate",
                         window=ring.window))
    else:
        out.append(inconclusive(
            "lift-step", f"{len(lift_short)} corrected lifts revalidate "
            "only below the certified sub-window", window=ring.window,
            sub_window=min(lift_short)))
    return out


def task_descent_check(ring, cfg, rng):
    from .framed import Cochain, DescentDatum, FramedModule, \
        change_basis, check_descent, check_invariance, descend_cochain, \
        descent_datum_after_change_basis, restrict_to_E
    from .matrices import SeriesMatrix
    e = _param(cfg, "e", 2, least=1)
    base = ring
    p, f = base.base.p, base.base.f
    if (p ** f - 1) % e:
        return [inconclusive("descent-check",
                             f"no tame extension of degree {e} exists here",
                             window=ring.window)]
    try:
        ext = tame_extension(base, e)
    except PhigammaError as exc:
        # the extension exists (checked above), so the window of the
        # ring, not the descent equations, is what fell short
        name = type(exc).__name__
        return [inconclusive("descent-check",
                             f"cannot build the tame extension of degree "
                             f"{e} within the window: {name}: {exc}",
                             window=ring.window, e=e, error=name)]
    I = SeriesMatrix.identity(ext, 1)
    M = FramedModule(ext, I, I)
    try:
        check_descent(M, DescentDatum.canonical(ext, 1))
        h = SeriesMatrix(ext, [[ext.series({-1: 1})]])
        M2 = change_basis(M, h)
        D2 = descent_datum_after_change_basis(
            M, DescentDatum.canonical(ext, 1), h)
        check_descent(M2, D2)
    except PhigammaError as exc:
        return [fails("descent-check", f"descent equations fail: {exc}",
                      window=ring.window)]
    # restriction / invariance / averaging round trip
    c = Cochain(1, (SeriesMatrix(base, [[base.series({-1: 2, 1: 1})]]),
                    SeriesMatrix(base, [[base.series({0: 1})]])))
    up = restrict_to_E(ext, c)
    inv_ok = check_invariance(ext, up).status == HOLDS
    down = descend_cochain(ext, up)
    round_ok = all((pu - pd).is_zero()
                   for pu, pd in zip(c.parts, down.parts))
    if inv_ok and round_ok:
        return [holds("descent-check",
                      "descent equations, invariance, and averaging "
                      "round trip verified", window=ring.window, e=e)]
    return [fails("descent-check", "restriction round trip failed",
                  window=ring.window, e=e)]


def task_suite(ring, cfg, rng):
    _check_cup_ring(ring)
    out = []
    out += task_ring_info(ring, cfg, rng)
    out += task_analyze_phi(ring, cfg, rng)
    out += task_height_check(
        ring, {"v_terms": cfg.get("v_terms", {"2": 1})}, rng)
    out += task_solve_twisted(ring, {"count": cfg.get("count", 5)}, rng)
    out += task_herr(ring, {"count": cfg.get("count", 5)}, rng)
    out += task_cup(ring, {"count": cfg.get("count", 5)}, rng)
    out += task_descent_check(ring, cfg, rng)
    return out


TASK_FNS = {
    "ring-info": task_ring_info,
    "analyze-phi": task_analyze_phi,
    "height-check": task_height_check,
    "solve-twisted": task_solve_twisted,
    "herr": task_herr,
    "cup": task_cup,
    "descent-check": task_descent_check,
    "suite": task_suite,
}


# -- driver ---------------------------------------------------------------------


def exit_code_for(verdicts):
    statuses = {v.status for v in verdicts}
    if FAILS in statuses:
        return EXIT_FAILS
    if INCONCLUSIVE in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_HOLDS


def run_config(cfg, window=None, seed=None, max_iter=None):
    """Run one job; returns (exit code, report dict)."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    task = cfg.get("task")
    if task not in TASKS:
        raise ConfigError(f"task must be one of {', '.join(TASKS)}")
    if "ring" not in cfg:
        raise ConfigError("config needs a ring descriptor")
    if max_iter is not None and max_iter < 1:
        raise ConfigError(f"--max-iter must be at least 1, got {max_iter}")
    if task in PARAM_CHECKS:
        PARAM_CHECKS[task](cfg)
    ring = build_ring(cfg["ring"], window)
    used_seed = seed if seed is not None else cfg.get("seed", 0)
    rng = random.Random(used_seed)
    kwargs = {}
    if max_iter is not None and task == "solve-twisted":
        kwargs["max_iter"] = max_iter
    verdicts = TASK_FNS[task](ring, cfg, rng, **kwargs)
    effective = dict(cfg)
    effective["seed"] = used_seed
    if window is not None:
        effective["window"] = window
    canon = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    report = {
        "version": __version__,
        "task": task,
        "seed": used_seed,
        "window": ring.window,
        "input_hash": hashlib.sha256(canon.encode()).hexdigest(),
        "ring": ring.to_json(),
        "verdicts": [v.to_json() for v in verdicts],
    }
    return exit_code_for(verdicts), report


def render_pretty(report, elapsed):
    lines = [f"phigamma {report['version']}  task={report['task']}  "
             f"seed={report['seed']}  window={report['window']}"]
    for v in report["verdicts"]:
        tag = v["status"].upper()
        w = f" (window={v['window']})" if "window" in v else ""
        detail = f": {v['detail']}" if v.get("detail") else ""
        lines.append(f"[{tag}] {v['name']}{detail}{w}")
    lines.append(f"elapsed {elapsed:.2f}s")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="phigamma",
        description="Exact computations with etale (phi, gamma)-modules "
                    "over truncated coefficient rings.")
    parser.add_argument("config", help="path to a JSON job config")
    parser.add_argument("--window", type=int, default=None,
                        help="override the ring window")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the suite seed")
    parser.add_argument("--max-iter", type=int, default=None,
                        help="iteration cap for the fixed-point solvers")
    parser.add_argument("--json", action="store_true",
                        help="canonical JSON report (deterministic bytes)")
    parser.add_argument("--pretty", action="store_true",
                        help="human-readable report (default)")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return EXIT_USAGE
    if args.json and args.pretty:
        print("error: --json and --pretty conflict", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    start = time.monotonic()
    try:
        code, report = run_config(cfg, window=args.window, seed=args.seed,
                                  max_iter=args.max_iter)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        print(render_pretty(report, time.monotonic() - start))
    return code


if __name__ == "__main__":
    sys.exit(main())
