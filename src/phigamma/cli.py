"""Config-driven command line front end.

A job is a JSON config: a ring descriptor, a task name, task
parameters, and a seed for randomized suites.  Reports are emitted on
standard output, either human-readable (--pretty, the default) or as a
canonical JSON document (--json) that is byte-stable for equal inputs;
timing is reported only in pretty mode so the JSON stays deterministic.

Exit codes: 0 all verdicts hold, 1 some verdict fails, 2 inconclusive
verdicts only, 3 usage or config error.
"""

import argparse
import hashlib
import json
import random
import sys
import time

from . import __version__
from .errors import ConfigError, PhigammaError
from .period import make_custom_ring, standard_cyclotomic, tame_extension
from .verdicts import FAILS, INCONCLUSIVE, holds

TASKS = ("ring-info", "analyze-phi", "height-check", "solve-twisted",
         "herr", "cup", "descent-check", "suite")

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


def _int_field(name, v, least):
    """v if it is an int >= least (a bool is not), else a ConfigError."""
    if type(v) is not int or v < least:
        raise ConfigError(f"ring field {name!r} must be an integer >= {least}, "
                          f"got {v!r}")
    return v


def build_ring(desc, window=None):
    """Construct a period ring from a JSON descriptor.

    Field types and ranges are checked here; a ring that still cannot be
    built (say p not prime, or no e-th root of unity) raises a library
    error, which becomes a ConfigError too.
    """
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError("ring descriptor needs a 'kind'")
    kind = desc["kind"]
    try:
        if kind in ("cyclotomic", "custom"):
            p = _int_field("p", desc["p"], 2)
            a = _int_field("a", desc["a"], 1)
            f = _int_field("f", desc.get("f", 1), 1)
            w = _int_field("window", window if window is not None
                           else desc.get("window", 32), 1)
        if kind == "cyclotomic":
            c = desc.get("c")
            return standard_cyclotomic(
                p, a, f, w, c=c if c is None else _int_field("c", c, 1))
        if kind == "custom":
            from .tasks import _terms
            phi_terms = _terms("ring field", "phi_terms", desc["phi_terms"],
                               f)
            return make_custom_ring(
                p, a, f, w, phi_terms,
                gamma_c=_int_field("gamma_c", desc.get("gamma_c", 1), 1))
        if kind == "tame":
            base = build_ring(desc["base"], window)
            return tame_extension(base, _int_field("e", desc.get("e", 2), 1),
                                  _int_field("f_ext", desc.get("f_ext", 1), 1))
    except KeyError as exc:
        raise ConfigError(f"ring descriptor missing field {exc}")
    except ConfigError:
        raise
    except PhigammaError as exc:
        # a ring that cannot be built is bad input: exit 3, not a traceback
        raise ConfigError(f"cannot build ring: {type(exc).__name__}: {exc}") \
            from exc
    raise ConfigError(f"unknown ring kind {kind!r}")


# -- tasks ------------------------------------------------------------------------

# Each task's body is a module of `phigamma.tasks`, imported when the task
# first runs, so a process compiles only the task it runs.  ring-info's
# body is its one verdict on the ring built here, and suite runs the other
# tasks in turn; neither has a module of its own.


def task_ring_info(ring, cfg, rng):
    return [holds("ring-info", repr(ring), ring=ring.to_json())]


def task_analyze_phi(ring, cfg, rng):
    from .tasks.analyze_phi import run_analyze_phi
    return run_analyze_phi(ring, cfg, rng)


def task_height_check(ring, cfg, rng):
    from .tasks.height_check import run_height_check
    return run_height_check(ring, cfg, rng)


def task_solve_twisted(ring, cfg, rng, max_iter=64):
    from .tasks.solve_twisted import run_solve_twisted
    return run_solve_twisted(ring, cfg, rng, max_iter=max_iter)


def task_herr(ring, cfg, rng):
    from .tasks.herr import run_herr
    return run_herr(ring, cfg, rng)


def task_cup(ring, cfg, rng):
    from .tasks.cup import run_cup
    return run_cup(ring, cfg, rng)


def task_descent_check(ring, cfg, rng):
    from .tasks.descent_check import run_descent_check
    return run_descent_check(ring, cfg, rng)


def task_suite(ring, cfg, rng):
    from .tasks import _check_cup_ring
    _check_cup_ring(ring)
    out = []
    out += task_ring_info(ring, cfg, rng)
    out += task_analyze_phi(ring, cfg, rng)
    out += task_height_check(
        ring, {"v_terms": cfg.get("v_terms", {"2": 1})}, rng)
    out += task_solve_twisted(ring, {"count": cfg.get("count", 5)}, rng)
    out += task_herr(ring, {"count": cfg.get("count", 5)}, rng)
    out += task_cup(ring, {"count": cfg.get("count", 5)}, rng)
    out += task_descent_check(ring, cfg, rng)
    return out


TASK_FNS = {
    "ring-info": task_ring_info,
    "analyze-phi": task_analyze_phi,
    "height-check": task_height_check,
    "solve-twisted": task_solve_twisted,
    "herr": task_herr,
    "cup": task_cup,
    "descent-check": task_descent_check,
    "suite": task_suite,
}


def _check_params(task, cfg):
    """The task parameters the library would refuse, checked before the
    ring is built: a ConfigError names the first one out of range."""
    if task in ("analyze-phi", "suite"):
        from .tasks import _contraction_params
        _contraction_params(cfg)
    elif task == "solve-twisted":
        from .tasks import _filtration_params
        _filtration_params(cfg)


# -- driver ---------------------------------------------------------------------


def exit_code_for(verdicts):
    statuses = {v.status for v in verdicts}
    if FAILS in statuses:
        return EXIT_FAILS
    if INCONCLUSIVE in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_HOLDS


def run_config(cfg, window=None, seed=None, max_iter=None):
    """Run one job; returns (exit code, report dict)."""
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    task = cfg.get("task")
    if task not in TASKS:
        raise ConfigError(f"task must be one of {', '.join(TASKS)}")
    if "ring" not in cfg:
        raise ConfigError("config needs a ring descriptor")
    if max_iter is not None and max_iter < 1:
        raise ConfigError(f"--max-iter must be at least 1, got {max_iter}")
    _check_params(task, cfg)
    ring = build_ring(cfg["ring"], window)
    used_seed = seed if seed is not None else cfg.get("seed", 0)
    rng = random.Random(used_seed)
    kwargs = {}
    if max_iter is not None and task == "solve-twisted":
        kwargs["max_iter"] = max_iter
    verdicts = TASK_FNS[task](ring, cfg, rng, **kwargs)
    effective = dict(cfg)
    effective["seed"] = used_seed
    if window is not None:
        effective["window"] = window
    canon = json.dumps(effective, sort_keys=True, separators=(",", ":"))
    report = {
        "version": __version__,
        "task": task,
        "seed": used_seed,
        "window": ring.window,
        "input_hash": hashlib.sha256(canon.encode()).hexdigest(),
        "ring": ring.to_json(),
        # every reported verdict carries the ring window
        "verdicts": [{**v.to_json(), "window": ring.window}
                     for v in verdicts],
    }
    return exit_code_for(verdicts), report


def render_pretty(report, elapsed):
    lines = [f"phigamma {report['version']}  task={report['task']}  "
             f"seed={report['seed']}  window={report['window']}"]
    for v in report["verdicts"]:
        tag = v["status"].upper()
        w = f" (window={v['window']})" if "window" in v else ""
        detail = f": {v['detail']}" if v.get("detail") else ""
        lines.append(f"[{tag}] {v['name']}{detail}{w}")
    lines.append(f"elapsed {elapsed:.2f}s")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="phigamma",
        description="Exact computations with etale (phi, gamma)-modules "
                    "over truncated coefficient rings.")
    parser.add_argument("config", help="path to a JSON job config")
    parser.add_argument("--window", type=int, default=None,
                        help="override the ring window")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the suite seed")
    parser.add_argument("--max-iter", type=int, default=None,
                        help="iteration cap for the fixed-point solvers")
    parser.add_argument("--json", action="store_true",
                        help="canonical JSON report (deterministic bytes)")
    parser.add_argument("--pretty", action="store_true",
                        help="human-readable report (default)")
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return EXIT_USAGE
    if args.json and args.pretty:
        print("error: --json and --pretty conflict", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    start = time.monotonic()
    try:
        code, report = run_config(cfg, window=args.window, seed=args.seed,
                                  max_iter=args.max_iter)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        print(render_pretty(report, time.monotonic() - start))
    return code


if __name__ == "__main__":
    sys.exit(main())
