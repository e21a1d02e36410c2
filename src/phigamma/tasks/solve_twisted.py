"""The `solve-twisted` task: round trips through the twisted-conjugation
solvers `solve_h` and `solve_g`, and the uniqueness of their answer.

Both checks compare against y = h^-1 x, which `solve_g` forms and hands
back.  The uniqueness check conjugates by g0 * pert through the identity

    twisted_conj(x, g0 * pert) = pert^-1 * twisted_conj(x, g0) * phi(pert),

which holds because phi is multiplicative and (g0 pert)^-1 =
pert^-1 g0^-1.  pert is unipotent with one monomial entry, so its
inverse is cheap, and twisted_conj(x, g0) is the product that `solve_h`
already formed and hands back."""

from . import SHORTFALLS, _filtration_params, _param, _shortfalls


def run_solve_twisted(ring, cfg, rng, max_iter=64):
    from ..errors import PhigammaError
    from ..matrices import SeriesMatrix, solve_g, solve_h, twisted_conj
    from ..samplers import rand_uni
    from ..verdicts import fails, holds
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
            h, c = solve_h(g0, x, params)
            g2, y = solve_g(h, x, params, max_iter=max_iter)
            resid = twisted_conj(x, g2) - y
            good = resid.is_zero()
            t = min(g2.hi, g0.hi)
            good = good and g2.truncate(t).agrees(g0.truncate(t))
            if good:
                rows = [list(r) for r in SeriesMatrix.identity(ring, n).rows]
                rows[n - 1][0] = ring.series(
                    {params.n_cong + rng.randrange(4): 1 + rng.randrange(
                        ring.base.q - 1)})
                pert = SeriesMatrix(ring, rows)
                unique = not (pert.inv() * c * pert.apply_phi() -
                              y).is_zero()
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
        return [holds("solve-twisted", f"{ok}/{count} round trips", **data)]
    if shortfalls and not failures and uniq_ok == ok:
        return [_shortfalls("solve-twisted",
                            [s["class"] for s in shortfalls], "round trips",
                            shortfalls=shortfalls, **data)]
    return [fails("solve-twisted", f"{count - ok} round trips failed",
                  **data)]
