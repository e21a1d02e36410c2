"""A layer tracer that wraps phigamma's public functions from outside.

`Tracer.install()` replaces every public function and public method of
the `phigamma` modules with a wrapper, and rebinds every place that
holds the original: module attributes (including names imported into
another module, such as `compose` in `period`) and module-level dicts
(such as `cli.TASK_FNS`).  Nothing in the program changes on disk.

Two wrapper kinds exist:

* span wrappers time each call.  A stack of open spans gives each span
  its self time: its duration minus the time covered by its child spans.
  Spans are aggregated in memory per name (calls, total, self) and
  nothing is written until the run ends;
* count wrappers only count calls.  They are used for the coefficient
  ring (`galois_ring`) and for the O(1) series accessors, whose calls
  take well under a microsecond: timing them from outside would cost
  more than the work they do.  Their time stays in the caller's span.

`LAYERS` maps each per-layer metric to the qualified names it reads.
A name that no longer exists in the program is reported as absent; its
metric then reads 0.
"""

import importlib
import inspect
import time

MODULES = ("galois_ring", "laurent", "period", "matrices", "framed",
           "herr", "cup", "linalg", "verdicts", "cli")

# dunder methods that are layer operations
DUNDERS = ("__add__", "__sub__", "__mul__", "__neg__")

# galois_ring is count-only; so are these O(1) series accessors
COUNT_ONLY = {"laurent.LaurentSeries.is_zero", "laurent.LaurentSeries.coeff",
              "laurent.LaurentSeries.terms"}

# metric name -> (statistic, qualified names); "module:" means every span
# of that module
LAYERS = {
    "galois_ring.add.calls": ("calls", ["galois_ring.CoeffRing.add"]),
    "galois_ring.mul.calls": ("calls", ["galois_ring.CoeffRing.mul"]),
    "galois_ring.is_zero.calls": ("calls", ["galois_ring.CoeffRing.is_zero"]),
    "laurent.mul.calls": ("calls", ["laurent.LaurentSeries.__mul__"]),
    "laurent.mul.self_s": ("self", ["laurent.LaurentSeries.__mul__"]),
    "laurent.add.self_s": ("self", ["laurent.LaurentSeries.__add__",
                                    "laurent.LaurentSeries.__sub__",
                                    "laurent.LaurentSeries.__neg__"]),
    "laurent.inv.self_s": ("self", ["laurent.LaurentSeries.inv"]),
    "laurent.eth_root.self_s": ("self", ["laurent.eth_root_one_unit"]),
    "laurent.compose.self_s": ("self", ["laurent.compose"]),
    "period.apply.calls": ("calls", ["period.OperatorDesc.apply"]),
    "period.apply.self_s": ("self", ["period.OperatorDesc.apply"]),
    "period.build.self_s": ("self", ["period.standard_cyclotomic",
                                     "period.make_custom_ring",
                                     "period.tame_extension",
                                     "period.one_plus_var_pow",
                                     "period.PeriodRing.validate"]),
    "matrices.mul.self_s": ("self", ["matrices.SeriesMatrix.__mul__"]),
    "matrices.inv.self_s": ("self", ["matrices.SeriesMatrix.inv"]),
    "matrices.solve.self_s": ("self", ["matrices.solve_h",
                                       "matrices.solve_g"]),
    "linalg.solve.calls": ("calls", ["linalg.solve_mod_prime_power"]),
    "linalg.solve.self_s": ("self", ["linalg.solve_mod_prime_power"]),
    "framed.self_s": ("self", ["framed:"]),
    "herr.try_coboundary.calls": ("calls",
                                  ["herr.HerrComplex.try_coboundary"]),
    "herr.try_coboundary.self_s": ("self",
                                   ["herr.HerrComplex.try_coboundary"]),
    "herr.differential.calls": ("calls", ["herr.HerrComplex.d0",
                                          "herr.HerrComplex.d1"]),
    "cup.mu.self_s": ("self", ["cup.mu"]),
    "cup.lift_step.self_s": ("self", ["cup.lift_step"]),
    "cli.run_config.self_s": ("self", ["cli:"]),
}

SOLVE = "linalg.solve_mod_prime_power"
SEARCH = "herr.HerrComplex.try_coboundary"
PRODUCT = "laurent.LaurentSeries.__mul__"
PRODUCT_SAMPLE_EVERY = 97  # every n-th series product goes to on_product


class Tracer:
    """Aggregated spans and counts for one traced process.

    `on_solve(args, result)` and `on_product(args, result)`, when given,
    receive every linear solve and every PRODUCT_SAMPLE_EVERY-th series
    product; the time they take is charged to no span.
    """

    def __init__(self, on_solve=None, on_product=None):
        self.spans = {}     # name -> [calls, total_s, self_s]
        self.counts = {}    # name -> calls
        self.wrapped = set()
        self.unknowns = 0   # columns summed over linear solves
        self.solves_in_search = 0
        self._stack = []    # child-time accumulators of the open spans
        self._search_depth = 0
        self._on_solve = on_solve
        self._on_product = on_product
        self._products = 0
        self.hidden_s = 0.0
        self._undo = []     # (setter, owner, key, original)

    # -- wrappers --------------------------------------------------------

    def _hidden(self, fn, *args):
        """Run a check without charging its time to the open span."""
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        self.hidden_s += dt
        if self._stack:
            self._stack[-1][0] += dt

    def _span(self, name, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - cell[0]
                if stack:
                    stack[-1][0] += dt

        if name == SOLVE:
            inner = wrapper

            def wrapper(*args, **kwargs):
                A = args[0] if args else kwargs["A"]
                self.unknowns += len(A[0]) if len(A) else 0
                if self._search_depth:
                    self.solves_in_search += 1
                result = inner(*args, **kwargs)
                if self._on_solve is not None:
                    self._hidden(self._on_solve, args, result)
                return result
        elif name == SEARCH:
            inner = wrapper

            def wrapper(*args, **kwargs):
                self._search_depth += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    self._search_depth -= 1
        elif name == PRODUCT:
            inner = wrapper

            def wrapper(*args, **kwargs):
                result = inner(*args, **kwargs)
                self._products += 1
                if (self._on_product is not None
                        and self._products % PRODUCT_SAMPLE_EVERY == 1):
                    self._hidden(self._on_product, args, result)
                return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, name, fn):
        self.wrapped.add(name)
        if name.startswith("galois_ring.") or name in COUNT_ONLY:
            return self._counter(name, fn)
        return self._span(name, fn)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function and method of the phigamma modules,
        then point every module attribute and module-level dict entry that
        held an original at its wrapper."""
        mods = [importlib.import_module("phigamma")]
        for short in MODULES:
            try:
                mods.append(importlib.import_module("phigamma." + short))
            except ImportError:
                continue
        replaced = {}
        for mod in mods[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(
                        obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(
                        obj, BaseException):
                    self._wrap_class(f"{short}.{attr}", obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(setattr, mod, attr, replaced[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in replaced:
                            self._set(dict.__setitem__, obj, key,
                                      replaced[val])
        return self

    def _set(self, setter, owner, key, value):
        original = (vars(owner)[key] if setter is setattr else owner[key])
        self._undo.append((setter, owner, key, original))
        setter(owner, key, value)

    def uninstall(self):
        """Put every original binding back."""
        for setter, owner, key, original in reversed(self._undo):
            setter(owner, key, original)
        self._undo.clear()

    def _wrap_class(self, prefix, cls):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(val, (classmethod, staticmethod)):
                self._set(setattr, cls, attr,
                          type(val)(self._wrap(name, val.__func__)))
            elif inspect.isfunction(val):
                self._set(setattr, cls, attr, self._wrap(name, val))

    # -- results -------------------------------------------------------------

    def absent(self):
        """Qualified names in LAYERS that the program no longer has."""
        out = []
        for _, names in LAYERS.values():
            for n in names:
                if n.endswith(":"):
                    if not any(w.startswith(n[:-1] + ".")
                               for w in self.wrapped):
                        out.append(n[:-1])
                elif n not in self.wrapped:
                    out.append(n)
        return sorted(set(out))

    def snapshot(self):
        """Plain-data totals, suitable for JSON and for `merge`."""
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts), "unknowns": self.unknowns,
                "solves_in_search": self.solves_in_search,
                "hidden_s": self.hidden_s, "absent": self.absent()}


def merge(snapshots):
    """Sum snapshots taken in several processes."""
    out = {"spans": {}, "counts": {}, "unknowns": 0, "solves_in_search": 0,
           "hidden_s": 0.0, "absent": set()}
    for snap in snapshots:
        for k, (c, t, s) in snap["spans"].items():
            acc = out["spans"].setdefault(k, [0, 0.0, 0.0])
            acc[0] += c
            acc[1] += t
            acc[2] += s
        for k, c in snap["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + c
        out["unknowns"] += snap["unknowns"]
        out["solves_in_search"] += snap["solves_in_search"]
        out["hidden_s"] += snap["hidden_s"]
        out["absent"].update(snap["absent"])
    out["absent"] = sorted(out["absent"])
    return out


def layer_metrics(snap):
    """Per-layer metric values from a (merged) snapshot."""
    spans, counts = snap["spans"], snap["counts"]
    out = {}
    for metric, (stat, names) in LAYERS.items():
        total = 0
        for n in names:
            if n.endswith(":"):
                keys = [k for k in spans if k.startswith(n[:-1] + ".")]
            else:
                keys = [n]
            for k in keys:
                if stat == "calls":
                    total += spans[k][0] if k in spans else counts.get(k, 0)
                else:
                    total += spans[k][2] if k in spans else 0.0
        out[metric] = total
    searches = out["herr.try_coboundary.calls"]
    out["linalg.unknowns"] = snap["unknowns"]
    out["herr.attempts_per_search"] = (
        snap["solves_in_search"] / searches if searches else 0.0)
    return out
