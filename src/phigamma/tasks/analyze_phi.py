"""The `analyze-phi` task: the contraction certificates of the ring's
phi (local contraction, the constant c_phi, Frobenius contraction)."""

from . import SHORTFALLS, _contraction_params, _shortfall


def check_local_contraction(ring, lam, N, n_max):
    """Verify phi(u^n) in u^{floor(lam*n)} * power series for N < n <= n_max.

    A finite certificate over the verified range, not a proof for all n:
    the `local-contraction` verdict holds, or fails at the first n out of
    the lattice, with the range and that n in its `report`.
    """
    from fractions import Fraction
    from ..verdicts import fails, holds
    lam = Fraction(lam)
    if lam <= 1:
        raise ValueError("contracting factor must exceed 1")
    if N >= n_max:
        raise ValueError("need N < n_max")
    first_failure = next(
        (n for n in range(N + 1, n_max + 1) if not ring.phi.image_power(
            n).in_lattice(-(lam.numerator * n // lam.denominator))), None)
    report = {"lambda": str(lam), "N": N, "d_lambda": str(Fraction(1, N)),
              "verified_range": [N, n_max], "holds": first_failure is None,
              "first_failure": first_failure}
    if first_failure is None:
        return holds("local-contraction",
                     f"phi(u^n) in u^[{lam}n] for {N} < n <= {n_max}",
                     report=report)
    return fails("local-contraction", f"first failure at n = {first_failure}",
                 report=report)


def check_frobenius_contraction(ring, max_iter=4):
    """Search for an iterate of phi that is u^q + p*(...) with trivial
    coefficient action: `frobenius-contraction` holds for the first one
    found, and is inconclusive when no iterate up to max_iter is one."""
    from ..verdicts import holds, inconclusive
    base = ring.base
    f = base.f
    x = ring.variable()
    for N in range(1, max_iter + 1):
        x = ring.phi.apply(x)
        if (N * ring.phi.coeff_frob_power) % f:
            continue
        q_exp = None
        ok = True
        for exp, c in x.terms():
            if base.is_nilpotent(c):
                continue
            if q_exp is not None or not base.is_nilpotent(
                    base.sub(c, base.one)):
                ok = False
                break
            q_exp = exp
        if ok and q_exp is not None and q_exp > 1:
            return holds("frobenius-contraction",
                         f"phi^{N} deforms the {q_exp}-power map",
                         report={"found": True, "N": N, "q": q_exp})
    return inconclusive("frobenius-contraction",
                        "no contracting iterate within max_iter",
                        report={"found": False, "N": None, "q": None})


def run_analyze_phi(ring, cfg, rng):
    from ..verdicts import holds
    lam, N, n_max, max_iter = _contraction_params(cfg)
    checks = (
        ("local-contraction",
         lambda: check_local_contraction(ring, lam, N, n_max)),
        ("contraction-constants",
         lambda: holds("contraction-constants", c_phi=ring.c_phi())),
        ("frobenius-contraction",
         lambda: check_frobenius_contraction(ring, max_iter)))
    out = []
    for name, check in checks:
        try:
            out.append(check())
        except SHORTFALLS as exc:
            out.append(_shortfall(name, exc))
    return out
