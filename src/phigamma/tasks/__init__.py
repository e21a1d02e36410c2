"""The bodies of the command line tasks, one module per task, and what
several of them share: reading task parameters, and the verdict of a
step that ran out of window.

`phigamma.cli` imports a task's module the first time the task runs, so
a process compiles only the task it runs.  The task modules import the
library inside their functions, as the front end did: the benchmark's
layer tracer rebinds names only in the library modules, and a name
bound here at import time would keep the unwrapped function.  No module
of this package imports `phigamma.cli`: under `python -m phigamma.cli`
the front end runs as `__main__`, so that import would compile and run
it a second time.
"""

from ..errors import ConfigError, EmptyWindow, InsufficientWindow, \
    PreconditionViolated
from ..verdicts import inconclusive

# errors that say a window ran out: a precision shortfall, never a failure
SHORTFALLS = (InsufficientWindow, EmptyWindow)


def _terms(what, name, d, f=None):
    """{exponent: coefficient} from the JSON object d, the field `name`
    (a `what`, for the messages), whose keys are integer strings and
    whose values are ints, or lists of f ints when f is given."""
    if not isinstance(d, dict):
        raise ConfigError(f"{what} {name!r} must be an object")
    terms = {}
    for k, c in d.items():
        try:
            e = int(k)
        except ValueError:
            raise ConfigError(f"{name} exponent {k!r} is not an integer") \
                from None
        if not (type(c) is int or f is not None and isinstance(c, list)
                and len(c) == f and all(type(v) is int for v in c)):
            raise ConfigError(f"{name} coefficient {c!r} must be an integer"
                              + ("" if f is None else
                                 f" or a list of {f} integers"))
        terms[e] = c
    return terms


def _param(cfg, name, default, least=None, rational=False):
    """Task parameter `name` as an int, or as a rational number when
    `rational` (a JSON integer stays an int, anything else is parsed as a
    Fraction), not below `least` when that is given, else a ConfigError.
    An int comes from an int or an integer string, never from a float or
    a bool, which `int` would truncate."""
    v = cfg.get(name, default)
    try:
        if rational and type(v) is int:
            x = v
        elif rational:
            from fractions import Fraction
            x = Fraction(str(v))
        elif isinstance(v, (bool, float)):
            raise TypeError
        else:
            x = int(v)
    except (TypeError, ValueError, ZeroDivisionError):
        what = "a rational number" if rational else "an integer"
        raise ConfigError(f"task parameter {name!r} must be {what}, "
                          f"got {v!r}") from None
    if least is not None and x < least:
        raise ConfigError(f"task parameter {name!r} must be at least "
                          f"{least}, got {v!r}")
    return x


def _lam(cfg):
    lam = _param(cfg, "lam", 2, rational=True)
    if lam <= 1:
        raise ConfigError(f"task parameter 'lam' must exceed 1, got {lam}")
    return lam


def _contraction_params(cfg):
    """(lam, N, n_max, max_iter) of analyze-phi: lam > 1, 1 <= N < n_max
    and max_iter >= 1."""
    lam, N = _lam(cfg), _param(cfg, "N", 1, least=1)
    n_max = _param(cfg, "n_max", 50)
    if N >= n_max:
        raise ConfigError(f"task parameters need N < n_max, got N = {N}, "
                          f"n_max = {n_max}")
    return lam, N, n_max, _param(cfg, "max_iter", 4, least=1)


def _filtration_params(cfg):
    """FiltrationParams of solve-twisted, meeting the solvers' preconditions."""
    from ..matrices import FiltrationParams
    params = FiltrationParams(m=_param(cfg, "m", 1),
                              n_cong=_param(cfg, "n_cong", 5),
                              lam=_lam(cfg), N=_param(cfg, "N", 4, least=1))
    try:
        params.check()
    except PreconditionViolated as exc:
        raise ConfigError(f"solve-twisted parameters: {exc}") from None
    return params


def _check_cup_ring(ring):
    """ConfigError on a ring where 2 is not a unit: cup's Levi parts
    diag(2, 1) and diag(2, 1, 2) must be invertible."""
    if ring.base.p == 2:
        raise ConfigError("cup needs an odd p: its Levi constants "
                          "diag(2, 1) and diag(2, 1, 2) are not invertible "
                          "mod 2")


def _class_names(names):
    """The distinct error class names, sorted and joined."""
    return ", ".join(sorted(set(names)))


def _shortfall(name, ring, exc):
    """The inconclusive verdict of a check that ran out of window."""
    cls = type(exc).__name__
    return inconclusive(name, f"ran out of window: {cls}: {exc}",
                        window=ring.window, error=cls)


def _shortfalls(name, ring, classes, what, **data):
    """The inconclusive verdict of a check whose `what` (a plural noun)
    ran out of window, raising errors of the given class names."""
    cls = _class_names(classes)
    return inconclusive(name, f"{len(classes)} {what} ran out of window: "
                        f"{cls}", window=ring.window, error=cls, **data)
