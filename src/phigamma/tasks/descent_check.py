"""The `descent-check` task: Galois descent along a tame extension of
the ring, and the restriction, invariance and averaging round trip of
a cochain."""

from . import _param


def run_descent_check(ring, cfg, rng):
    from ..errors import PhigammaError
    from ..framed import Cochain, DescentDatum, FramedModule, \
        change_basis, check_descent, check_invariance, descend_cochain, \
        descent_datum_after_change_basis, restrict_to_E
    from ..matrices import SeriesMatrix
    from ..period import tame_extension
    from ..verdicts import fails, holds, inconclusive
    e = _param(cfg, "e", 2, least=1)
    base = ring
    p, f = base.base.p, base.base.f
    if (p ** f - 1) % e:
        return [inconclusive("descent-check",
                             f"no tame extension of degree {e} exists here")]
    try:
        ext = tame_extension(base, e)
    except PhigammaError as exc:
        # the extension exists (checked above), so the window of the
        # ring, not the descent equations, is what fell short
        name = type(exc).__name__
        return [inconclusive("descent-check",
                             f"cannot build the tame extension of degree "
                             f"{e} within the window: {name}: {exc}",
                             e=e, error=name)]
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
        return [fails("descent-check", f"descent equations fail: {exc}")]
    # restriction / invariance / averaging round trip
    c = Cochain(1, (SeriesMatrix(base, [[base.series({-1: 2, 1: 1})]]),
                    SeriesMatrix(base, [[base.series({0: 1})]])))
    up = restrict_to_E(ext, c)
    inv_ok = check_invariance(ext, up)
    down = descend_cochain(ext, up)
    round_ok = all((pu - pd).is_zero()
                   for pu, pd in zip(c.parts, down.parts))
    if inv_ok and round_ok:
        return [holds("descent-check",
                      "descent equations, invariance, and averaging "
                      "round trip verified", e=e)]
    return [fails("descent-check", "restriction round trip failed", e=e)]
