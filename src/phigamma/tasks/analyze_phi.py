"""The `analyze-phi` task: the contraction analyzers on the ring's phi."""

from . import SHORTFALLS, _contraction_params, _shortfall


def run_analyze_phi(ring, cfg, rng):
    from ..analyzers import check_frobenius_contraction, \
        check_local_contraction, contraction_constants
    from ..verdicts import holds
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
