"""The `cup` task: the lambda identities of a Borel lift, the
well-definedness of the obstruction `mu`, and the lift step that
corrects a witnessed lift."""

from . import SHORTFALLS, _check_cup_ring, _class_names, _param, _shortfalls


def run_cup(ring, cfg, rng):
    from ..cup import ParabolicData, check_mu_well_defined, lambda_map, \
        lift_step, mu
    from ..errors import InsufficientWindow, PhigammaError
    from ..framed import FramedModule, commutation_residual
    from ..matrices import SeriesMatrix
    from ..samplers import diag_const, rand_lift
    from ..verdicts import HOLDS, fails, holds, inconclusive
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
