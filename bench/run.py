"""phigamma benchmark: one command, three workloads, every metric by name.

    python3 bench/run.py --workload series-wide --seed 1 --seconds 32 --trace 0

With --trace 0 the run is a closed loop: one job at a time, whole rounds
of the workload's slots (bench/workloads.py), until --seconds have
passed.  It prints the end-to-end metrics jobs_per_s, job_s.p50,
setup_s and peak_rss_mb; the times in them are scaled to a nominal host
speed (see NOMINAL_CAL_S), and the unscaled figures are printed on the
line before.  With --trace 1 it runs TRACE_ROUNDS rounds
untraced, then the same rounds again with the layer tracer installed
(bench/tracer.py), and prints the per-layer metrics; --seconds does not
apply, so that counts repeat exactly for a seed.

Every job's output is checked after the timing (bench/checks.py).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the full record of the run goes to
bench/results/.
"""

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import (TraceChecks, canonical_bytes, check_cli_bytes,
                    check_custom_image, check_cyclotomic_images,
                    check_height, check_job, check_no_flip, check_product,
                    check_tame_phi, series_product)
from tracer import Tracer, layer_metrics, merge
from workloads import (WORKLOADS, distinct_rings, height_family,
                       round_jobs)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# fixed for this process (by re-exec) and for every child it starts
ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
       "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 9
TRACE_ROUNDS = 4
PRODUCTS_PER_RING = 2
CHILD_TIMEOUT_S = 60
PERF = time.perf_counter

# A fixed piece of pure-Python series arithmetic, timed between jobs.  The
# host's speed drifts by up to 2x for tens of seconds at a time, so job
# and set-up times are reported scaled by NOMINAL_CAL_S / (the mean of
# the calibrations just before and just after them).
CAL_X = (0, 48, [(i % 9, i * i % 9) for i in range(48)])
CAL_Y = (-1, 47, [(i * 5 % 9, (i + 1) % 9) for i in range(48)])
NOMINAL_CAL_S = 0.005


def child_env():
    env = dict(os.environ)
    env.update(ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def calibration():
    t0 = PERF()
    series_product(CAL_X, CAL_Y, (2, 2, 1), 9)
    return PERF() - t0


def reference_loop():
    """The host's current speed: the median of five calibrations."""
    return statistics.median(calibration() for _ in range(5))


def ring_window(cfg):
    ring = cfg["ring"]
    return ring["base"]["window"] if ring["kind"] == "tame" \
        else ring["window"]


# -- jobs ---------------------------------------------------------------------


class Runner:
    """Runs jobs one at a time and keeps what the checks need."""

    def __init__(self, cli):
        self.cli = cli
        self.records = []
        self.workdir = RESULTS / f"jobs-{os.getpid()}"
        self.trace_files = []
        self.cal = calibration()

    def run(self, cfg, round_index, traced=False):
        gc.collect()
        before = self.cal
        if self.cli:
            rec = self._run_cli(cfg, traced)
        else:
            rec = self._run_inprocess(cfg)
        self.cal = calibration()
        rec.update(round=round_index, task=cfg["task"], seed=cfg["seed"],
                   window=ring_window(cfg), traced=traced,
                   cal=(before + self.cal) / 2)
        if "report" in rec:
            rec["problems"] = job_problems(rec)
            rec["bytes"] = len(canonical_bytes(rec["report"]))
            if round_index:  # later rounds keep no report: it is memory
                del rec["report"]
                rec.pop("stdout", None)
        self.records.append(rec)
        return rec

    def _run_inprocess(self, cfg):
        import phigamma.cli as cli
        t0 = PERF()
        try:
            code, report = cli.run_config(cfg)
        except Exception as exc:  # a job that raises counts as failed
            return {"s": PERF() - t0, "code": None, "error": repr(exc),
                    "cfg": cfg}
        dt = PERF() - t0
        return {"s": dt, "code": code, "report": report, "cfg": cfg}

    def _run_cli(self, cfg, traced):
        self.workdir.mkdir(parents=True, exist_ok=True)
        n = len(self.records)
        path = self.workdir / f"job{n}.json"
        path.write_text(json.dumps(cfg))
        if traced:
            trace_out = self.workdir / f"trace{n}.json"
            cmd = [sys.executable, str(BENCH / "probe.py"), "cli", str(path),
                   str(trace_out)]
            self.trace_files.append(trace_out)
        else:
            cmd = [sys.executable, "-m", "phigamma.cli", str(path), "--json"]
        out_path, err_path = path.with_suffix(".out"), path.with_suffix(".err")
        started = []
        # kills a hung job; os.wait4 below has no timeout of its own
        timer = threading.Timer(CHILD_TIMEOUT_S,
                                lambda: started and started[0].kill())
        timer.start()
        try:
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                t0 = PERF()
                proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                        env=child_env(), cwd=ROOT)
                started.append(proc)
                # wait4, not wait: the job's own peak RSS comes with it
                _, status, usage = os.wait4(proc.pid, 0)
                dt = PERF() - t0
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        rec = {"s": dt, "code": proc.returncode, "stdout": stdout,
               "rss_mb": usage.ru_maxrss / 1024, "cfg": cfg}
        try:
            rec["report"] = json.loads(stdout)
        except json.JSONDecodeError:
            rec["error"] = err_path.read_text(errors="replace")[-300:]
        return rec

    def cleanup(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def timed_loop(runner, workload, seed, seconds, setup):
    """Whole rounds until `seconds` have passed; returns rounds run.

    The set-up probes run between rounds, spread over the run, so that
    their median sees the same phases of the host as the jobs do."""
    start = PERF()
    index = 0
    while index == 0 or PERF() - start < seconds:
        for cfg in round_jobs(workload, seed, index):
            runner.run(cfg, index)
        index += 1
        if PERF() - start >= len(setup.walls) * seconds / SETUP_PROBES:
            setup.probe()
    return index


# -- checks --------------------------------------------------------------------


def job_problems(rec):
    """The exit-code rule and the known answers, for every job."""
    found = check_job(rec["code"], rec["report"])
    where = f"{rec['task']} seed {rec['seed']} window {rec['window']}"
    return [f"{where}: {p}" for p in found]


def check_cli_round(runner):
    """CLI stdout bytes against an in-process run of the same config."""
    import phigamma.cli as cli
    problems = []
    for rec in runner.records:
        if rec["round"] != 0 or rec["traced"]:
            continue
        try:
            code, report = cli.run_config(rec["cfg"])
        except Exception as exc:
            problems.append(f"{rec['task']}: in-process run raised {exc!r}")
            continue
        if code != rec["code"]:
            problems.append(f"{rec['task']}: CLI exit {rec['code']}, "
                            f"in-process {code}")
        problems += [f"{rec['task']} seed {rec['seed']}: {p}"
                     for p in check_cli_bytes(rec["stdout"], report)]
    return problems


def check_window_doubling(runner, seed):
    """Rerun one job of round 0 at twice its window: no holds flips."""
    import phigamma.cli as cli
    sample = [r for r in runner.records
              if r["round"] == 0 and not r["traced"] and r["code"] == 0]
    if not sample:
        return ["no job of round 0 held, so none could be doubled"]
    rec = sample[seed % len(sample)]
    try:
        _, doubled = cli.run_config(rec["cfg"], window=2 * rec["window"])
    except Exception as exc:
        return [f"{rec['task']} at window {2 * rec['window']}: {exc!r}"]
    return [f"{rec['task']} seed {rec['seed']}: {p}"
            for p in check_no_flip(rec["report"], doubled)]


def check_rings(workload):
    """Operator images of every ring the workload builds."""
    import phigamma.cli as cli
    problems = []
    for desc in distinct_rings(workload):
        ring = cli.build_ring(desc)
        base = ring.base
        img = ring.phi.image
        phi = (img.lo, img.hi, img.coeffs)
        if desc["kind"] == "cyclotomic":
            g = ring.gamma.image
            problems += check_cyclotomic_images(
                phi, (g.lo, g.hi, g.coeffs), base.p, ring.gamma_exponent,
                base.f, base.q, ring.window)
        elif desc["kind"] == "custom":
            problems += check_custom_image(phi, desc["phi_terms"], base.f,
                                           base.q, ring.window)
        else:
            e = desc["e"]
            problems += check_tame_phi(phi, e, base.p, base.modulus, base.q,
                                       2 * e + 1)
    return problems


def check_heights():
    import phigamma.cli as cli
    problems = []
    for p in (3, 5):
        _, report = cli.run_config({"task": "height-check",
                                    "ring": height_family(p, 32),
                                    "v_terms": {"2": 1}})
        problems += check_height(report, p, p ** 2)
    return problems


def check_products(workload, seed):
    """Series products on seeded random series at each ring's window."""
    import phigamma.cli as cli
    rng = random.Random(f"products/{workload}/{seed}")
    problems = []
    for desc in distinct_rings(workload):
        ring = cli.build_ring(desc)
        base, w = ring.base, ring.window
        for _ in range(PRODUCTS_PER_RING):
            x, y = (ring.series({k: base.random(rng)
                                 for k in range(rng.randrange(-2, 2), w)})
                    for _ in range(2))
            z = x * y
            problems += check_product((x.lo, x.hi, x.coeffs),
                                      (y.lo, y.hi, y.coeffs),
                                      (z.lo, z.hi, z.coeffs),
                                      base.modulus, base.q)
    return problems


# -- setup ---------------------------------------------------------------------


class Setup:
    """Fresh interpreters that import phigamma.cli and build each ring
    of the workload once: their wall time, and the import alone."""

    def __init__(self, workload):
        self.workload = workload
        self.walls = []
        self.cals = []
        self.imports = []

    def probe(self):
        before = calibration()
        t0 = PERF()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), "setup", self.workload],
            capture_output=True, env=child_env(), cwd=ROOT,
            timeout=CHILD_TIMEOUT_S, check=True)
        self.walls.append(PERF() - t0)
        self.cals.append((before + calibration()) / 2)
        self.imports.append(json.loads(proc.stdout)["import_s"])

    def medians(self):
        """Median scaled wall time, median raw wall time, median import."""
        while len(self.walls) < SETUP_PROBES:
            self.probe()
        return (statistics.median(scaled(self.walls, self.cals)),
                statistics.median(self.walls),
                statistics.median(self.imports))


def scaled(times, cals):
    """Times at the host speed where the calibration takes NOMINAL_CAL_S."""
    return [t * NOMINAL_CAL_S / c for t, c in zip(times, cals)]


# -- main ------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv):
    if not (SRC / "phigamma" / "cli.py").is_file():
        print(f"error: no phigamma sources under {SRC}", file=sys.stderr)
        return 2
    if any(os.environ.get(k) != v for k, v in ENV.items()):
        os.execve(sys.executable, [sys.executable, __file__] + argv,
                  {**os.environ, **ENV})
    args = parse_args(argv)
    # one CPU for this process and every child, so the calibration and
    # the jobs it scales run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import phigamma.cli  # noqa: F401  (compiles the sources before timing)

    spec = WORKLOADS[args.workload]
    runner = Runner(spec["cli"])
    out = {"workload": args.workload, "seed": args.seed,
           "trace": args.trace, "python": sys.version.split()[0]}
    out["ref_loop_start_s"] = reference_loop()
    print(f"reference loop at start: {out['ref_loop_start_s']:.6f} s")

    problems = []
    setup = Setup(args.workload)
    try:
        if args.trace == 0:
            t0 = PERF()
            out["rounds"] = timed_loop(runner, args.workload, args.seed,
                                       args.seconds, setup)
            out["loop_wall_s"] = PERF() - t0
            if spec["cli"]:
                peak_mb = max(r["rss_mb"] for r in runner.records)
            else:
                peak_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            trace, checks, overhead = traced_rounds(runner, args.workload,
                                                    args.seed)
            out["trace_snapshot"] = trace
            out["trace_checks"] = checks.to_json()
            out["tracing_overhead"] = overhead
            problems += checks.problems
        setup_s, setup_raw_s, import_s = setup.medians()
        problems += [p for r in runner.records for p in r.get("problems", [])]
        if spec["cli"]:
            problems += check_cli_round(runner)
        problems += check_window_doubling(runner, args.seed)
        problems += check_rings(args.workload)
        problems += check_heights()
        if args.trace == 0:
            problems += check_products(args.workload, args.seed)
    finally:
        runner.cleanup()

    out["ref_loop_end_s"] = reference_loop()
    print(f"reference loop at end:   {out['ref_loop_end_s']:.6f} s")
    measured = [r for r in runner.records if r["traced"] == bool(args.trace)]
    failed = [r for r in measured if r["code"] != 0]
    raw = [r["s"] for r in measured]
    times = scaled(raw, [r["cal"] for r in measured])
    if args.trace == 0:
        metrics = {
            "jobs_per_s": metric(len(times) / sum(times), "1/s"),
            "job_s.p50": metric(statistics.median(times), "s"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        }
        out["unscaled"] = {"jobs_per_s": len(raw) / sum(raw),
                           "job_s.p50": statistics.median(raw),
                           "setup_s": setup_raw_s}
        print("unscaled: " + ", ".join(
            f"{k} {v:.6g}" for k, v in out["unscaled"].items()) +
            f"; median calibration "
            f"{statistics.median(r['cal'] for r in measured):.6f} s")
    else:
        layers = layer_metrics(trace)
        layers["cli.import_s"] = import_s
        layers["cli.report_bytes"] = sum(r.get("bytes", 0) for r in measured)
        metrics = {k: metric(v, unit_of(k)) for k, v in layers.items()}
        for name in trace["absent"]:
            print(f"absent: {name}")
        print(f"tracing overhead: {overhead:+.1%} of untraced wall time")
    for p in problems:
        print(f"check failed: {p}")
    for r in failed:
        print(f"job failed: {r['task']} seed {r['seed']} window "
              f"{r['window']}: exit {r['code']} {r.get('error', '')[:200]}")
    out["setup_s"], out["import_s"] = setup_s, import_s
    out["jobs"] = [{k: r[k] for k in ("round", "task", "seed", "window",
                                      "traced", "s", "cal", "code")}
                   for r in runner.records]
    out["problems"] = problems
    result = {"correct": not problems, "attempted": len(measured),
              "failed": len(failed), "metrics": metrics}
    out["result"] = result
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(out, indent=1, default=str))
    print(json.dumps(result))
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("attempts_per_search"):
        return "solves/search"
    return "count"


def traced_rounds(runner, workload, seed):
    """TRACE_ROUNDS rounds untraced, then the same rounds traced.

    Returns the merged trace snapshot, the trace checks (made inside the
    job processes for CLI jobs) and the tracing overhead as a share of the
    untraced wall time."""
    jobs = [(i, cfg) for i in range(TRACE_ROUNDS)
            for cfg in round_jobs(workload, seed, i)]
    t0 = PERF()
    for i, cfg in jobs:
        runner.run(cfg, i)
    untraced = PERF() - t0
    checks = TraceChecks()
    if not runner.cli:
        tracer = Tracer(on_solve=checks.on_solve,
                        on_product=checks.on_product).install()
    t0 = PERF()
    try:
        for i, cfg in jobs:
            runner.run(cfg, i, traced=True)
    finally:
        if not runner.cli:
            tracer.uninstall()
    traced = PERF() - t0
    if runner.cli:
        snaps = [json.loads(p.read_text()) for p in runner.trace_files]
        trace = merge(s["trace"] for s in snaps)
        for s in snaps:
            checks.add(s["checks"])
    else:
        trace = merge([tracer.snapshot()])
    return trace, checks, (traced - trace["hidden_s"]) / untraced - 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
