"""The `height-check` task: the height-theory axioms for a probe v."""

from . import SHORTFALLS, _shortfall, _terms

_STRUCTURAL_AXIOMS = {
    "H0b": "the subring generated by v is phi-stable and the ring is finite "
           "free over it (structural; not machine-checked)",
    "H3": "etaleness descends along the subring inclusion (structural; "
          "not machine-checked)",
    "H4": "topologies are compatible (structural; not machine-checked)",
}


def _height_verdict(verdicts, k=None, expansion=None, mismatch=None):
    """The `height-check` verdict over the per-axiom verdicts: fails if a
    checkable axiom fails, holds if H0a, H1 and H2 all hold, else
    inconclusive."""
    from ..verdicts import FAILS, HOLDS, fails, holds, inconclusive
    data = {"verdicts": {n: v.to_json() for n, v in verdicts.items()},
            "k": k}
    if expansion is not None:
        data["expansion"] = {str(j): list(c) for j, c in expansion.items()}
    if mismatch is not None:
        data["expected_mismatch"] = mismatch
    if any(v.status == FAILS for v in verdicts.values()):
        return fails("height-check", "a checkable height axiom fails", **data)
    if all(verdicts[n].status == HOLDS for n in ("H0a", "H1", "H2")):
        detail = "checkable axioms hold; structural axioms recorded"
        if mismatch is not None:
            detail += ("; supplied closed form disagrees with the direct "
                       "expansion (see expected_mismatch)")
        return holds("height-check", detail, **data)
    return inconclusive("height-check", "window too small to decide", **data)


def check_height_theory(ring, v, expected_expansion=None):
    """The `height-check` verdict for a candidate element v, with the
    per-axiom verdicts in its data (see `_height_verdict`).

    H0a is exact (invertibility); H1 is the restricted-form check
    (v = u^k * unit); H2 rewrites phi(v) greedily in powers of v and never
    reports a false positive.  If expected_expansion (a {power: int} dict)
    is supplied and differs from the computed expansion, the verdict flags
    the mismatch in `expected_mismatch` without failing H2.
    """
    from ..errors import NotAUnit
    from ..laurent import _power
    from ..verdicts import fails, holds, inconclusive
    base = ring.base
    verdicts = {name: inconclusive(name, text)
                for name, text in _STRUCTURAL_AXIOMS.items()}
    try:
        v.inv()
        verdicts["H0a"] = holds("H0a", "v is a unit of the Laurent ring",
                                window=v.hi)
    except NotAUnit:
        verdicts["H0a"] = fails("H0a", "v is not a unit")
        return _height_verdict(verdicts)

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
        return _height_verdict(verdicts, k)

    # each step cancels the lowest term of t, so the exponents rise
    phi_v = t = ring.phi.apply(v)
    expansion, cache = {}, {}
    while not t.is_zero():
        d0 = t.lo
        if d0 < 0 or d0 % k:
            verdicts["H2"] = fails(
                "H2", f"lowest remaining exponent {d0} is not a power of v",
                window=phi_v.hi)
            return _height_verdict(verdicts, k, expansion)
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
    return _height_verdict(verdicts, k, expansion, mismatch)


def run_height_check(ring, cfg, rng):
    from ..errors import ConfigError
    from ..laurent import LaurentSeries
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
        return [_shortfall("height-check", exc)]
