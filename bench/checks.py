"""Reference checks made apart from the program, with plain Python ints.

Each check takes plain data (ints, tuples, lists, report dicts) and
returns a list of problems; an empty list means the output passed.
Series are passed as (lo, hi, coeffs) triples, coefficients as
coordinate tuples in the power basis of a Galois ring given by its
monic modulus (c_0, ..., c_{f-1}, 1) and q = p^a.
"""

import json
import math


def gr_mul(x, y, modulus, q):
    """Product of two Galois ring elements: schoolbook, then division by
    the monic modulus from the top degree down."""
    f = len(modulus) - 1
    raw = [0] * (2 * f - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            raw[i + j] += xi * yj
    for k in range(2 * f - 2, f - 1, -1):
        c = raw[k]
        if c:
            for i in range(f + 1):
                raw[k - f + i] -= c * modulus[i]
    return tuple(v % q for v in raw[:f])


def _normalize(lo, hi, coeffs):
    i = 0
    while i < len(coeffs) and not any(coeffs[i]):
        i += 1
    if i == len(coeffs):
        return (hi, hi, [])
    return (lo + i, hi, coeffs[i:])


def series_product(x, y, modulus, q):
    """Direct convolution with the window rule
    hi = min(x.hi + y.lo, y.hi + x.lo)."""
    xlo, xhi, xc = x
    ylo, yhi, yc = y
    hi = min(xhi + ylo, yhi + xlo)
    if not xc or not yc:
        return (hi, hi, [])
    lo = xlo + ylo
    f = len(modulus) - 1
    out = [[0] * f for _ in range(hi - lo)]
    for i, a in enumerate(xc):
        for j, b in enumerate(yc):
            if i + j >= hi - lo:
                break
            acc = out[i + j]
            for t, v in enumerate(gr_mul(a, b, modulus, q)):
                acc[t] += v
    return _normalize(lo, hi, [tuple(v % q for v in c) for c in out])


def _as_triple(s):
    lo, hi, coeffs = s
    return (lo, hi, [tuple(c) for c in coeffs])


def check_product(x, y, z, modulus, q):
    """z must be the product x*y."""
    want = series_product(_as_triple(x), _as_triple(y), modulus, q)
    got = _as_triple(z)
    if got != want:
        return [f"series product differs from direct convolution: "
                f"window {got[:2]} against {want[:2]}"]
    return []


def _coefficient_problems(name, series, want_terms, hi, f, q):
    lo_s, hi_s, coeffs = _as_triple(series)
    if hi_s < hi:
        return [f"{name}: window {hi_s} below {hi}"]
    out = []
    for k in range(min(lo_s, 0), hi):
        got = coeffs[k - lo_s] if lo_s <= k < lo_s + len(coeffs) \
            else (0,) * f
        want = (want_terms.get(k, 0) % q,) + (0,) * (f - 1)
        if got != want:
            out.append(f"{name}: coefficient of degree {k} is {got}, "
                       f"expected {want}")
            break
    return out


def binomial_image(n, q):
    """(1+T)^n - 1 as {degree: coefficient}, from math.comb."""
    return {k: math.comb(n, k) % q for k in range(1, n + 1)}


def check_cyclotomic_images(phi_image, gamma_image, p, c, f, q, window):
    """phi(T) = (1+T)^p - 1 and gamma(T) = (1+T)^c - 1 on [0, window)."""
    return (_coefficient_problems("phi(T)", phi_image, binomial_image(p, q),
                                  window, f, q) +
            _coefficient_problems("gamma(T)", gamma_image,
                                  binomial_image(c, q), window, f, q))


def check_custom_image(phi_image, phi_terms, f, q, window):
    """A custom ring's phi(u) is exactly the configured terms."""
    terms = {int(k): v for k, v in phi_terms.items()}
    return _coefficient_problems("phi(u)", phi_image, terms, window, f, q)


def check_tame_phi(phi_v, e, p, modulus, q, min_window):
    """(phi(v))^e = phi(T) at T = v^e on the window the product rule
    certifies; phi(T) = (1+T)^p - 1 over a cyclotomic base with f = 1,
    whose coefficients embed as integers."""
    f = len(modulus) - 1
    power = _as_triple(phi_v)
    for _ in range(e - 1):
        power = series_product(power, _as_triple(phi_v), modulus, q)
    hi = power[1]
    if hi < min_window:
        return [f"(phi(v))^{e} is certified only below v^{hi}"]
    want = {e * k: c for k, c in binomial_image(p, q).items()}
    return _coefficient_problems(f"(phi(v))^{e}", power, want, hi, f, q)


def check_solve(A, b, x, q):
    """A x = b mod q for a returned solution x."""
    if x is None:
        return []
    if len(A) and len(x) != len(A[0]):
        return [f"solution has {len(x)} entries for {len(A[0])} unknowns"]
    for i, row in enumerate(A):
        if (sum(int(a) * int(v) for a, v in zip(row, x)) - int(b[i])) % q:
            return [f"linear solve: row {i} of A x - b is nonzero mod {q}"]
    return []


def height_closed_form(p, q):
    """phi(v) = v^p + 4p v for phi(u) = u^p + 2p u^-(p-2), v = u^2."""
    return {"1": (4 * p) % q, str(p): 1}


def check_height(report, p, q):
    """The height-check expansion must equal the closed form."""
    (verdict,) = report["verdicts"]
    if verdict["status"] != "holds":
        return [f"height-check is {verdict['status']}"]
    exp = verdict["data"].get("expansion", {})
    got = {k: v[0] for k, v in exp.items() if any(v)}
    if any(any(v[1:]) for v in exp.values()):
        return ["height expansion has non-integer coefficients"]
    want = height_closed_form(p, q)
    if got != want:
        return [f"height expansion {got}, closed form {want}"]
    return []


def expected_exit_code(statuses):
    if "fails" in statuses:
        return 1
    if "inconclusive" in statuses:
        return 2
    return 0


def check_exit_code(code, report):
    statuses = [v["status"] for v in report["verdicts"]]
    want = expected_exit_code(statuses)
    if code != want:
        return [f"exit code {code} for verdicts {statuses}, expected {want}"]
    return []


def check_report(report):
    """Known answers every job must reach, whatever its exit code.

    Coboundary jobs are built as d0(z0), so every search must find a
    witness, and every mu difference must be witnessed; solver round
    trips must all close.  The program reports a missed search as an
    inconclusive verdict (exit 2), so this check is what turns a miss
    into a wrong answer."""
    out = []
    for v in report["verdicts"]:
        d = v.get("data", {})
        name = v["name"]
        if name == "herr-suite" and (d.get("coboundary_misses")
                                     or d.get("exact_failures")):
            out.append(f"herr: {d.get('coboundary_misses')} searches missed, "
                       f"{d.get('exact_failures')} exact identities failed")
        if name == "mu-well-defined" and d.get("mu_found") != d.get(
                "mu_total"):
            out.append(f"cup: {d.get('mu_found')}/{d.get('mu_total')} "
                       f"mu differences witnessed")
        if name == "solve-twisted" and (
                d.get("round_trips_ok") != d.get("instances")
                or d.get("uniqueness_ok") != d.get("instances")):
            out.append(f"solve-twisted: {d.get('round_trips_ok')}/"
                       f"{d.get('instances')} round trips")
    return out


def check_job(code, report):
    """The exit-code rule and the known answers, for every job."""
    return check_exit_code(code, report) + check_report(report)


def canonical_bytes(report):
    """What `phigamma CONFIG --json` prints for a report."""
    return (json.dumps(report, sort_keys=True, separators=(",", ":")) +
            "\n").encode()


def check_cli_bytes(stdout, report):
    if stdout != canonical_bytes(report):
        return ["CLI stdout differs from the canonical JSON of the "
                "in-process run"]
    return []


def check_no_flip(base, doubled):
    """No verdict that holds may change when the window is doubled."""
    before = {v["name"]: v["status"] for v in base["verdicts"]}
    after = {v["name"]: v["status"] for v in doubled["verdicts"]}
    return [f"{name} holds at window {base['window']} but is "
            f"{after.get(name)} at window {doubled['window']}"
            for name, st in before.items()
            if st == "holds" and after.get(name) != "holds"]


class TraceChecks:
    """Checks fed from inside a traced run: every linear solve and a
    sample of series products."""

    def __init__(self):
        self.problems = []
        self.solves = 0
        self.products = 0

    def on_solve(self, args, result):
        A, b, p, a = args[:4]
        self.solves += 1
        self.problems += check_solve(A, b, result, p ** a)

    def on_product(self, args, result):
        x, y = args[:2]
        ring = x.ring
        self.products += 1
        self.problems += check_product(
            (x.lo, x.hi, x.coeffs), (y.lo, y.hi, y.coeffs),
            (result.lo, result.hi, result.coeffs), ring.modulus, ring.q)

    def to_json(self):
        return {"problems": self.problems, "solves_checked": self.solves,
                "products_checked": self.products}

    def add(self, data):
        """Fold in the `to_json()` of checks made in another process."""
        self.problems += data["problems"]
        self.solves += data["solves_checked"]
        self.products += data["products_checked"]
