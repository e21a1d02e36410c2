"""The byte battery: run a fixed set of configs in process and print one
line per config, the canonical config, the exit code and the sha256 of
the canonical --json report (or `config-error` and its message).

    python tests/battery.py > after.txt

Run it in two trees and `diff` the outputs: a change that keeps every
report byte and exit code prints the same lines.  It imports the
package from the `src` next to it, so each tree runs its own code.  Its
name has no `test_` prefix, so pytest does not collect it.
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from phigamma.cli import TASKS, run_config
from phigamma.errors import ConfigError


def _cyc(p, a, f=1):
    return {"kind": "cyclotomic", "p": p, "a": a, "f": f}


RINGS = [
    _cyc(3, 2),
    _cyc(3, 2, 2),
    _cyc(3, 3),
    _cyc(2, 3),
    _cyc(5, 2),
    {"kind": "custom", "p": 3, "a": 2, "phi_terms": {"3": 1, "-1": 3}},
    {"kind": "tame", "e": 2, "base": _cyc(3, 2)},
    {"kind": "tame", "e": 4, "base": _cyc(5, 2)},
    {"kind": "tame", "e": 2, "f_ext": 2, "base": _cyc(3, 2)},
    {"kind": "tame", "e": 2, "base": _cyc(3, 2, 2)},
]
WINDOWS = range(4, 25)
SEEDS = (0, 1, 2)
# the tasks whose reports depend on the seed
RANDOM = ("solve-twisted", "herr", "cup", "suite")


def configs():
    """(config, window, seed) for every run of the battery, in order."""
    for ring in RINGS:
        for window in WINDOWS:
            for task in TASKS:
                cfg = {"task": task, "ring": ring, "count": 1,
                       "v_terms": {"1": 1, "-1": 2}}
                for seed in SEEDS if task in RANDOM else (0,):
                    yield cfg, window, seed
        # the wide windows of the series workload
        for window in (32, 40, 48, 56):
            for seed in SEEDS:
                yield {"task": "solve-twisted", "ring": ring,
                       "count": 1}, window, seed
        yield {"task": "analyze-phi", "ring": ring}, 128, 0


def line(cfg, window, seed):
    """The battery's line for one run."""
    canon = json.dumps(dict(cfg, window=window, seed=seed), sort_keys=True,
                       separators=(",", ":"))
    try:
        code, rep = run_config(cfg, window=window, seed=seed)
    except ConfigError as exc:
        return f"{canon} config-error {exc}"
    body = json.dumps(rep, sort_keys=True, separators=(",", ":"))
    return f"{canon} {code} {hashlib.sha256(body.encode()).hexdigest()}"


def main():
    for cfg, window, seed in configs():
        print(line(cfg, window, seed), flush=True)


if __name__ == "__main__":
    main()
