"""The contraction and height analyzers of a period ring.

Each analyzer returns its own verdict (`local-contraction`,
`frobenius-contraction`, `height-check`), with what it found in the
verdict's data; `contraction_constants` returns the constant c_phi.
"""

from .errors import InsufficientWindow, NotAUnit
from .laurent import _power
from .verdicts import FAILS, HOLDS, fails, holds, inconclusive


def check_local_contraction(ring, lam, N, n_max):
    """Verify phi(u^n) in u^{floor(lam*n)} * power series for N < n <= n_max.

    A finite certificate over the verified range, not a proof for all n:
    the `local-contraction` verdict holds, or fails at the first n out of
    the lattice, with the range and that n in its `report`.
    """
    from fractions import Fraction
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
                     window=ring.window, report=report)
    return fails("local-contraction", f"first failure at n = {first_failure}",
                 window=ring.window, report=report)


def contraction_constants(ring):
    """c_phi: least c >= 0 with phi(power series) inside u^{-c} lattice."""
    g = ring.phi.image
    if g.lo >= 0:
        return {"c_phi": 0}
    a = ring.base.a
    try:
        d = g.unit_degree().d
    except InsufficientWindow:
        raise InsufficientWindow("phi image has no visible unit degree")
    spread = d - g.lo
    kbound = (a - 1) * spread + a + 1
    c = 0
    for k in range(1, kbound + 1):
        gk = ring.phi.image_power(k)
        if not gk.is_zero():
            c = max(c, -gk.lo)
    return {"c_phi": c}


def check_frobenius_contraction(ring, max_iter=4):
    """Search for an iterate of phi that is u^q + p*(...) with trivial
    coefficient action: `frobenius-contraction` holds for the first one
    found, and is inconclusive when no iterate up to max_iter is one."""
    base = ring.base
    p, f = base.p, base.f
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
            if q_exp is not None:
                ok = False
                break
            resid = base.sub(c, base.one)
            if not base.is_nilpotent(resid) and not base.is_zero(resid):
                ok = False
                break
            q_exp = exp
        if ok and q_exp is not None and q_exp > 1:
            return holds("frobenius-contraction",
                         f"phi^{N} deforms the {q_exp}-power map",
                         window=ring.window,
                         report={"found": True, "N": N, "q": q_exp})
    return inconclusive("frobenius-contraction",
                        "no contracting iterate within max_iter",
                        window=ring.window,
                        report={"found": False, "N": None, "q": None})


_STRUCTURAL_AXIOMS = {
    "H0b": "the subring generated by v is phi-stable and the ring is finite "
           "free over it (structural; not machine-checked)",
    "H3": "etaleness descends along the subring inclusion (structural; "
          "not machine-checked)",
    "H4": "topologies are compatible (structural; not machine-checked)",
}


def _height_verdict(ring, verdicts, k=None, expansion=None, mismatch=None):
    """The `height-check` verdict over the per-axiom verdicts: fails if a
    checkable axiom fails, holds if H0a, H1 and H2 all hold, else
    inconclusive."""
    data = {"verdicts": {n: v.to_json() for n, v in verdicts.items()},
            "k": k}
    if expansion is not None:
        data["expansion"] = {str(j): list(c) for j, c in expansion.items()}
    if mismatch is not None:
        data["expected_mismatch"] = mismatch
    if any(v.status == FAILS for v in verdicts.values()):
        return fails("height-check", "a checkable height axiom fails",
                     window=ring.window, **data)
    if all(verdicts[n].status == HOLDS for n in ("H0a", "H1", "H2")):
        detail = "checkable axioms hold; structural axioms recorded"
        if mismatch is not None:
            detail += ("; supplied closed form disagrees with the direct "
                       "expansion (see expected_mismatch)")
        return holds("height-check", detail, window=ring.window, **data)
    return inconclusive("height-check", "window too small to decide",
                        window=ring.window, **data)


def check_height_theory(ring, v, expected_expansion=None):
    """The `height-check` verdict for a candidate element v, with the
    per-axiom verdicts in its data (see `_height_verdict`).

    H0a is exact (invertibility); H1 is the restricted-form check
    (v = u^k * unit); H2 rewrites phi(v) greedily in powers of v and never
    reports a false positive.  If expected_expansion (a {power: int} dict)
    is supplied and differs from the computed expansion, the verdict flags
    the mismatch in `expected_mismatch` without failing H2.
    """
    base = ring.base
    verdicts = {name: inconclusive(name, text)
                for name, text in _STRUCTURAL_AXIOMS.items()}
    try:
        v.inv()
        verdicts["H0a"] = holds("H0a", "v is a unit of the Laurent ring",
                                window=v.hi)
    except NotAUnit:
        verdicts["H0a"] = fails("H0a", "v is not a unit")
        return _height_verdict(ring, verdicts)

    ud = v.unit_degree()
    k = ud.d
    if ud.pole == ud.d and k >= 1:
        verdicts["H1"] = holds(
            "H1", f"restricted-form check: v = u^{k} * unit; generator set "
                  f"{{u^0..u^{k - 1}}}", window=v.hi)
    else:
        verdicts["H1"] = inconclusive(
            "H1", "restricted-form precondition unmet (pole below unit degree)")
        verdicts["H2"] = inconclusive(
            "H2", "greedy rewriting requires the restricted form")
        return _height_verdict(ring, verdicts, k)

    # each step cancels the lowest term of t, so the exponents rise
    phi_v = t = ring.phi.apply(v)
    expansion, cache = {}, {}
    while not t.is_zero():
        d0 = t.lo
        if d0 < 0 or d0 % k:
            verdicts["H2"] = fails(
                "H2", f"lowest remaining exponent {d0} is not a power of v",
                window=phi_v.hi)
            return _height_verdict(ring, verdicts, k, expansion)
        vj = _power(v, d0 // k, cache)
        b = expansion[d0 // k] = base.mul(t.coeff(d0),
                                          base.inv(vj.coeff(vj.lo)))
        t = t - vj.scale(b)
    verdicts["H2"] = holds("H2", "phi(v) rewritten in powers of v within "
                                 "window", window=phi_v.hi)
    mismatch = None
    if expected_expansion is not None:
        exp_norm = {j: base.from_int(c) for j, c in expected_expansion.items()
                    if not base.is_zero(base.from_int(c))}
        if exp_norm != expansion:
            mismatch = {
                "expected": {str(j): list(c) for j, c in exp_norm.items()},
                "computed": {str(j): list(c) for j, c in expansion.items()},
                "note": "supplied closed form disagrees with the direct "
                        "expansion; the computed expansion is authoritative",
            }
    return _height_verdict(ring, verdicts, k, expansion, mismatch)
