"""The benchmark's workloads: which jobs make up one round.

A round is a fixed list of slots run in order, so job kinds interleave
round-robin.  Each slot is a config for `phigamma.cli.run_config`
without its seed.  A slot marked "seeded" gets a fresh seed in every
round, drawn from the run's --seed, so one run covers many random
instances: the cost of one instance of solve-twisted or herr varies by
up to 10x between seeds, and a run over a few instances would measure
the instances rather than the program.  Unseeded slots are
deterministic tasks; a slot with a fixed seed is the known fault kept
in tame-cli (its inputs do not depend on --seed).
"""

import random

A = 2  # every ring is over Z/p^2 lifts: W(F_{p^f}) / p^2


def cyclotomic(p, f, window):
    return {"kind": "cyclotomic", "p": p, "a": A, "f": f, "window": window}


def intro_family(window):
    """The custom ring phi(u) = u^3 + 3u^-1 of the paper's introduction."""
    return {"kind": "custom", "p": 3, "a": A, "f": 1, "window": window,
            "phi_terms": {"3": 1, "-1": 3}}


def height_family(p, window):
    """phi(u) = u^p + 2p u^-(p-2): with v = u^2, phi(v) = v^p + 4p v."""
    return {"kind": "custom", "p": p, "a": A, "f": 1, "window": window,
            "phi_terms": {str(p): 1, str(-(p - 2)): 2 * p}}


def tame(base, e, f_ext=1):
    return {"kind": "tame", "e": e, "f_ext": f_ext, "base": base}


def _slot(task, ring, seed="seeded", **params):
    cfg = {"task": task, "ring": ring}
    cfg.update(params)
    return {"cfg": cfg, "seed": seed}


def _solve(ring):
    return _slot("solve-twisted", ring, count=1, rank=2)


ANALYZE = {"lam": 2, "N": 4, "n_max": 200}

TAME_RINGS = (tame(cyclotomic(3, 1, 16), 2),
              tame(cyclotomic(5, 1, 24), 4),
              tame(cyclotomic(3, 1, 16), 2, f_ext=2))

WORKLOADS = {
    # dense series products and inversions at wide windows
    "series-wide": {
        "cli": False,
        "slots": [
            _solve(cyclotomic(3, 1, 48)),
            _slot("analyze-phi", intro_family(128), seed=0, **ANALYZE),
            _solve(intro_family(56)),
            _solve(cyclotomic(3, 2, 40)),
            _solve(cyclotomic(3, 1, 40)),
            _slot("analyze-phi", intro_family(128), seed=0, **ANALYZE),
            _solve(intro_family(48)),
            _solve(cyclotomic(3, 2, 32)),
        ],
    },
    # short series: operator application on monomials, Z/p^a solves
    "herr-search": {
        "cli": False,
        "slots": [
            _slot("herr", cyclotomic(3, 1, 24), count=1, rank=2),
            _slot("cup", cyclotomic(3, 1, 24), count=1),
            _slot("herr", cyclotomic(3, 1, 24), count=1, rank=2),
            _slot("cup", cyclotomic(5, 1, 16), count=1),
            _slot("herr", cyclotomic(3, 1, 28), count=1, rank=2),
            _slot("cup", cyclotomic(3, 2, 16), count=1),
            _slot("herr", cyclotomic(3, 1, 24), count=1, rank=2),
            _slot("cup", cyclotomic(5, 2, 16), count=1),
        ],
    },
    # one `python -m phigamma.cli CONFIG --json` process per job
    "tame-cli": {
        "cli": True,
        "slots": (
            [slot for r in TAME_RINGS
             for slot in (_slot("ring-info", r, seed=0),
                          _slot("descent-check", r, seed=0), _solve(r))] +
            # lift-step reports a precision shortfall as a failure here
            [_slot("cup", TAME_RINGS[0], seed=1, count=1)]),
    },
}


def round_jobs(workload, seed, index):
    """The configs of round `index` of a run, each with its seed."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    out = []
    for slot in WORKLOADS[workload]["slots"]:
        cfg = dict(slot["cfg"])
        s = slot["seed"]
        cfg["seed"] = rng.randrange(2 ** 31) if s == "seeded" else s
        out.append(cfg)
    return out


def _ring_key(desc):
    return repr(sorted(desc.items()))


def distinct_rings(workload):
    """Every distinct ring descriptor a workload builds, in slot order."""
    seen = {}
    for slot in WORKLOADS[workload]["slots"]:
        seen.setdefault(_ring_key(slot["cfg"]["ring"]), slot["cfg"]["ring"])
    return list(seen.values())
