"""The `herr` task: exactness of the Herr complexes and the coboundary
search on random modules, and the recheck of a witness it emits."""

from . import _param


def run_herr(ring, cfg, rng):
    from ..errors import EmptyWindow, NotInvertible
    from ..framed import Cochain
    from ..herr import HerrComplex
    from ..matrices import SeriesMatrix
    from ..samplers import rand_module, rand_vec
    from ..verdicts import fails, holds, inconclusive
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
                      **data)]
    if misses or unvalidated:
        why = []
        if misses:
            why.append(f"{misses} coboundary searches missed")
        if unvalidated:
            why.append(f"{unvalidated} random modules not invertible "
                       "within the window")
        return [inconclusive("herr-suite", "; ".join(why), **data)]
    return [holds("herr-suite", "differentials and round trips verified",
                  **data)]


def revalidate_witness(ring, blob):
    """Recheck an emitted coboundary witness: d(witness) must agree with
    the stored cochain on the recorded sub-window."""
    from ..framed import Cochain, FramedModule
    from ..herr import HerrComplex
    from ..matrices import SeriesMatrix
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
