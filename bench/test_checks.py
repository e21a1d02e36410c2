"""Each reference check passes a real output and rejects a corrupted one;
the tracer wraps every binding, reports absent names and repeats its
counts.

    python3 -m pytest bench/test_checks.py
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import phigamma.cli as cli  # noqa: E402
import phigamma.laurent  # noqa: E402
import phigamma.period  # noqa: E402
from phigamma.linalg import solve_mod_prime_power  # noqa: E402

import checks  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import cyclotomic, height_family, intro_family, tame  # noqa: E402


def triple(s):
    return (s.lo, s.hi, [tuple(c) for c in s.coeffs])


def corrupt(s, index=0):
    lo, hi, coeffs = s
    coeffs = list(coeffs)
    c = list(coeffs[index])
    c[0] += 1
    coeffs[index] = tuple(c)
    return (lo, hi, coeffs)


@pytest.mark.parametrize("f", [1, 2])
def test_product(f):
    ring = cli.build_ring(cyclotomic(3, f, 16))
    base = ring.base
    x = ring.series({-1: (1,) * f, 0: (2,) + (0,) * (f - 1), 3: (4,) * f})
    y = ring.series({0: (1,) * f, 2: (5,) * f, 7: (8,) * f})
    z = x * y
    args = (triple(x), triple(y))
    assert checks.check_product(*args, triple(z), base.modulus, base.q) == []
    assert checks.check_product(*args, corrupt(triple(z), 2),
                                base.modulus, base.q)


def test_cyclotomic_images():
    ring = cli.build_ring(cyclotomic(3, 2, 16))
    b = ring.base
    phi, gam = triple(ring.phi.image), triple(ring.gamma.image)
    args = (3, ring.gamma_exponent, b.f, b.q, ring.window)
    assert checks.check_cyclotomic_images(phi, gam, *args) == []
    assert checks.check_cyclotomic_images(corrupt(phi, 1), gam, *args)
    assert checks.check_cyclotomic_images(phi, corrupt(gam, 3), *args)


def test_custom_image():
    desc = intro_family(16)
    ring = cli.build_ring(desc)
    phi = triple(ring.phi.image)
    args = (desc["phi_terms"], 1, ring.base.q, ring.window)
    assert checks.check_custom_image(phi, *args) == []
    assert checks.check_custom_image(corrupt(phi), *args)


@pytest.mark.parametrize("e,f_ext", [(2, 1), (2, 2)])
def test_tame_phi(e, f_ext):
    ring = cli.build_ring(tame(cyclotomic(3, 1, 16), e, f_ext))
    b = ring.base
    phi = triple(ring.phi.image)
    args = (e, b.p, b.modulus, b.q, 2 * e + 1)
    assert checks.check_tame_phi(phi, *args) == []
    bad = corrupt(phi, len(phi[2]) // 4)
    assert checks.check_tame_phi(bad, *args)


def test_solve():
    A = [[3, 1, 0], [0, 2, 1], [1, 1, 1], [0, 3, 6]]
    b = [4, 3, 3, 0]
    x = solve_mod_prime_power(A, b, 3, 2)
    assert x is not None and checks.check_solve(A, b, x, 9) == []
    x[0] += 1
    assert checks.check_solve(A, b, x, 9)


@pytest.mark.parametrize("p", [3, 5])
def test_height(p):
    _, report = cli.run_config({"task": "height-check",
                                "ring": height_family(p, 32),
                                "v_terms": {"2": 1}})
    assert checks.check_height(report, p, p * p) == []
    bad = copy.deepcopy(report)
    bad["verdicts"][0]["data"]["expansion"]["1"][0] += 1
    assert checks.check_height(bad, p, p * p)


@pytest.fixture(scope="module")
def herr_job():
    cfg = {"task": "herr", "ring": cyclotomic(3, 1, 16), "count": 1,
           "rank": 2, "seed": 0}
    code, report = cli.run_config(cfg)
    assert code == 0
    return cfg, code, report


def test_exit_code(herr_job):
    _, code, report = herr_job
    assert checks.check_exit_code(code, report) == []
    assert checks.check_exit_code(1, report)
    assert checks.check_exit_code(2, report)


def test_report_properties(herr_job):
    _, _, report = herr_job
    assert checks.check_report(report) == []
    bad = copy.deepcopy(report)
    bad["verdicts"][0]["data"]["coboundary_misses"] = 1
    assert checks.check_report(bad)


def test_job_rejects_inconclusive_miss(herr_job):
    """A missed search exits 2 by the exit-code rule; the known answer
    still rejects it."""
    _, _, report = herr_job
    assert checks.check_job(0, report) == []
    missed = copy.deepcopy(report)
    missed["verdicts"][0]["status"] = "inconclusive"
    missed["verdicts"][0]["data"]["coboundary_misses"] = 1
    assert checks.check_exit_code(2, missed) == []
    assert checks.check_job(2, missed)


def test_cli_bytes(herr_job, tmp_path, capsys):
    cfg, _, report = herr_job
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([str(path), "--json"]) == 0
    stdout = capsys.readouterr().out.encode()
    assert checks.check_cli_bytes(stdout, report) == []
    assert checks.check_cli_bytes(stdout.replace(b'"holds"', b'"fails"'),
                                  report)


def test_no_flip(herr_job):
    _, _, report = herr_job
    assert checks.check_no_flip(report, report) == []
    doubled = copy.deepcopy(report)
    doubled["verdicts"][0]["status"] = "inconclusive"
    assert checks.check_no_flip(report, doubled)


# -- tracer ---------------------------------------------------------------------


def traced(cfg, **kw):
    t = tracer_mod.Tracer(**kw).install()
    try:
        cli.run_config(cfg)
    finally:
        t.uninstall()
    return t


def test_tracer_wraps_every_binding_and_restores():
    original = phigamma.laurent.compose
    t = tracer_mod.Tracer().install()
    try:
        assert phigamma.period.compose is phigamma.laurent.compose
        assert phigamma.period.compose is not original
        assert cli.TASK_FNS["cup"] is cli.task_cup
        assert "herr.HerrComplex.try_coboundary" in t.wrapped
    finally:
        t.uninstall()
    assert phigamma.period.compose is original
    assert phigamma.laurent.compose is original


def test_tracer_counts_repeat(herr_job):
    cfg = herr_job[0]
    a, b = traced(cfg).snapshot(), traced(cfg).snapshot()
    assert a["counts"] == b["counts"]
    assert {k: v[0] for k, v in a["spans"].items()} == \
        {k: v[0] for k, v in b["spans"].items()}
    m = tracer_mod.layer_metrics(tracer_mod.merge([a]))
    assert m["linalg.solve.calls"] > 0 and m["herr.attempts_per_search"] >= 1


def test_tracer_reports_absent(monkeypatch, herr_job):
    monkeypatch.setitem(tracer_mod.LAYERS, "gone.calls",
                        ("calls", ["laurent.no_such_function"]))
    t = traced(herr_job[0])
    snap = t.snapshot()
    assert snap["absent"] == ["laurent.no_such_function"]
    assert tracer_mod.layer_metrics(snap)["gone.calls"] == 0


def test_trace_checks_reject_corrupted_results(herr_job):
    tc = checks.TraceChecks()
    A, b = [[1, 2], [0, 3]], [4, 6]
    tc.on_solve((A, b, 3, 2), [0, 2])
    assert tc.problems == []
    tc.on_solve((A, b, 3, 2), [1, 2])
    assert len(tc.problems) == 1
    t = traced(herr_job[0], on_solve=tc.on_solve, on_product=tc.on_product)
    assert tc.solves > 2 and tc.products > 0 and len(tc.problems) == 1
    assert t.hidden_s > 0


def test_benchmark_json_lists_the_traced_metrics():
    """BENCHMARK.json's per_layer entries are the metrics --trace 1 prints."""
    import run
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = set(tracer_mod.layer_metrics(tracer_mod.merge([])))
    names |= {"cli.import_s", "cli.report_bytes"}
    assert listed == {n: run.unit_of(n) for n in names}
