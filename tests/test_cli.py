"""Tests for the command line front end: config handling, exit codes,
deterministic JSON reports, and witness revalidation."""

import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import phigamma
from phigamma.cli import (EXIT_FAILS, EXIT_HOLDS, EXIT_INCONCLUSIVE,
                          EXIT_USAGE, TASKS, build_ring, main, run_config)
from phigamma.errors import ConfigError
from phigamma.tasks.herr import revalidate_witness
from phigamma.verdicts import FAILS, HOLDS

CYC = {"kind": "cyclotomic", "p": 3, "a": 1, "window": 24}
TAME_E2 = {"kind": "tame", "e": 2,
           "base": {"kind": "cyclotomic", "p": 3, "a": 2, "window": 16}}
PACKAGE = Path(phigamma.__file__).parent


def run_cli(tmp_path, cfg):
    """Write cfg as a job file under tmp_path and run the command line on
    it with --json in a fresh interpreter; the finished process, with its
    output captured as text."""
    cfgfile = tmp_path / "job.json"
    cfgfile.write_text(json.dumps(cfg))
    return subprocess.run(
        [sys.executable, "-m", "phigamma.cli", str(cfgfile), "--json"],
        capture_output=True, text=True)


class TestConfig:
    def test_unknown_task(self):
        with pytest.raises(ConfigError):
            run_config({"task": "nope", "ring": CYC})

    def test_missing_ring(self):
        with pytest.raises(ConfigError):
            run_config({"task": "ring-info"})

    def test_bad_ring_kind(self):
        with pytest.raises(ConfigError):
            build_ring({"kind": "weird"})

    def test_window_override(self):
        ring = build_ring(CYC, window=40)
        assert ring.window == 40


class TestExitCodes:
    def test_holds(self):
        code, rep = run_config({"task": "ring-info", "ring": CYC})
        assert code == EXIT_HOLDS
        assert rep["verdicts"][0]["name"] == "ring-info"

    def test_fails(self):
        # an absurd contraction factor must fail, not be inconclusive
        code, rep = run_config({"task": "analyze-phi", "ring": CYC,
                                "lam": 10, "n_max": 20})
        assert code == EXIT_FAILS
        v = {x["name"]: x["status"] for x in rep["verdicts"]}
        assert v["local-contraction"] == "fails"

    def test_inconclusive_only(self):
        # phi = u^3 + u^4 contracts with factor 2, but its first two
        # iterates have several unit coefficients, so a capped frobenius
        # search stays inconclusive
        ring = {"kind": "custom", "p": 3, "a": 1, "window": 24,
                "phi_terms": {"3": 1, "4": 1}}
        code, rep = run_config({"task": "analyze-phi", "ring": ring,
                                "lam": 2, "n_max": 8, "max_iter": 2})
        assert code == EXIT_INCONCLUSIVE
        v = {x["name"]: x["status"] for x in rep["verdicts"]}
        assert v["local-contraction"] == "holds"
        assert v["frobenius-contraction"] == "inconclusive"

    def test_descent_unavailable_is_inconclusive(self):
        cfg = {"task": "descent-check",
               "ring": {"kind": "cyclotomic", "p": 2, "a": 1, "window": 16},
               "e": 2}
        code, rep = run_config(cfg)
        assert code == EXIT_INCONCLUSIVE


class TestDeterminism:
    def test_same_inputs_same_report(self):
        cfg = {"task": "herr", "ring": CYC, "count": 2, "seed": 3}
        _, r1 = run_config(cfg)
        _, r2 = run_config(cfg)
        b1 = json.dumps(r1, sort_keys=True, separators=(",", ":"))
        b2 = json.dumps(r2, sort_keys=True, separators=(",", ":"))
        assert b1 == b2

    def test_seed_changes_samples(self):
        cfg = {"task": "herr", "ring": CYC, "count": 2}
        _, r1 = run_config(cfg, seed=1)
        _, r2 = run_config(cfg, seed=2)
        w1 = r1["verdicts"][0]["data"]["witness_sample"]
        w2 = r2["verdicts"][0]["data"]["witness_sample"]
        assert w1 != w2

    def test_seed_does_not_change_deterministic_tasks(self):
        cfg = {"task": "analyze-phi", "ring": CYC}
        _, r1 = run_config(cfg, seed=1)
        _, r2 = run_config(cfg, seed=2)
        assert r1["verdicts"] == r2["verdicts"]

    def test_input_hash_tracks_config(self):
        _, r1 = run_config({"task": "ring-info", "ring": CYC, "seed": 0})
        _, r2 = run_config({"task": "ring-info", "ring": CYC, "seed": 1})
        assert r1["input_hash"] != r2["input_hash"]


class TestHeightCheckTask:
    def test_example_with_flag(self):
        cfg = {"task": "height-check",
               "ring": {"kind": "custom", "p": 3, "a": 2, "window": 48,
                        "phi_terms": {"3": 1, "-1": 6}},
               "v_terms": {"2": 1},
               "expected_expansion": {"3": 1, "2": 12}}
        code, rep = run_config(cfg)
        assert code == EXIT_HOLDS
        v = rep["verdicts"][0]
        assert v["data"]["expected_mismatch"] is not None
        assert v["data"]["expansion"] == {"1": [3], "3": [1]}

    def test_missing_v_terms(self):
        with pytest.raises(ConfigError):
            run_config({"task": "height-check", "ring": CYC})

    @pytest.mark.parametrize("v_terms,message", [
        # every term at or above the window: the probe has no window
        ({"30": 1}, "window [30, 24) is empty"),
        # its inverse needs more padding than the window has
        ({"-40": 1}, "window [40, 28) is empty"),
    ])
    def test_probe_out_of_window_is_inconclusive(self, v_terms, message):
        code, rep = run_config({"task": "height-check", "ring": CYC,
                                "v_terms": v_terms})
        assert code == EXIT_INCONCLUSIVE
        (v,) = rep["verdicts"]
        assert v["status"] == "inconclusive"
        assert v["data"]["error"] == "EmptyWindow"
        assert message in v["detail"]


class TestWitnesses:
    def test_herr_witness_revalidates(self):
        cfg = {"task": "herr", "ring": CYC, "count": 2, "seed": 5}
        code, rep = run_config(cfg)
        assert code == EXIT_HOLDS
        blob = rep["verdicts"][0]["data"]["witness_sample"]
        ring = build_ring(CYC)
        assert revalidate_witness(ring, blob)

    def test_tampered_witness_rejected(self):
        cfg = {"task": "herr", "ring": CYC, "count": 2, "seed": 5}
        _, rep = run_config(cfg)
        blob = json.loads(json.dumps(
            rep["verdicts"][0]["data"]["witness_sample"]))
        entry = blob["cochain"]["parts"][0]["entries"][0][0]
        entry["coeffs"][0] = [(entry["coeffs"][0][0] + 1) % 3]
        ring = build_ring(CYC)
        assert not revalidate_witness(ring, blob)


class TestMainEntry:
    def test_conflicting_flags(self, tmp_path):
        cfgfile = tmp_path / "job.json"
        cfgfile.write_text(json.dumps({"task": "ring-info", "ring": CYC}))
        assert main([str(cfgfile), "--json", "--pretty"]) == EXIT_USAGE

    def test_missing_file(self):
        assert main(["/no/such/config.json"]) == EXIT_USAGE

    def test_json_output_round_trips(self, tmp_path, capsys):
        cfgfile = tmp_path / "job.json"
        cfgfile.write_text(json.dumps(
            {"task": "ring-info", "ring": CYC, "seed": 0}))
        code = main([str(cfgfile), "--json"])
        assert code == EXIT_HOLDS
        out = capsys.readouterr().out
        rep = json.loads(out)
        assert rep["task"] == "ring-info" and rep["window"] == 24

    def test_console_script_json_stable(self, tmp_path):
        cfg = {"task": "analyze-phi", "ring": CYC, "seed": 1}
        runs = [run_cli(tmp_path, cfg) for _ in range(2)]
        assert runs[0].returncode == EXIT_HOLDS
        assert runs[0].stdout == runs[1].stdout


BASE_P3 = {"kind": "cyclotomic", "p": 3, "a": 2, "window": 16}
BAD_RINGS = [
    ({"kind": "tame", "e": 4, "f_ext": 2, "base": BASE_P3},
     "NotGaloisCompatible"),
    ({"kind": "tame", "e": 3, "base": BASE_P3}, "NoRootOfUnity"),
    ({"kind": "cyclotomic", "p": 4, "a": 2, "window": 16}, "NotPrime"),
    ({"kind": "cyclotomic", "p": "3", "a": 2, "window": 16},
     "'p' must be an integer >= 2, got '3'"),
    ({"kind": "custom", "p": 3, "a": 2, "window": 16,
      "phi_terms": {"0": 1}}, "Divergent"),
    ({"kind": "cyclotomic", "p": 3, "a": True, "window": 16},
     "'a' must be an integer >= 1, got True"),
    ({"kind": "cyclotomic", "p": 3, "a": 2, "window": 0},
     "'window' must be an integer >= 1"),
    ({"kind": "custom", "p": 3, "a": 2, "window": 16,
      "phi_terms": [[3, 1]]}, "'phi_terms' must be an object"),
    ({"kind": "custom", "p": 3, "a": 2, "window": 16,
      "phi_terms": {"x": 1}}, "exponent 'x' is not an integer"),
    ({"kind": "custom", "p": 3, "a": 2, "f": 2, "window": 16,
      "phi_terms": {"3": [1]}}, "must be an integer or a list of 2"),
]


class TestRingConstructionErrors:
    """A ring that cannot be built is a config error: exit 3, no traceback."""

    @pytest.mark.parametrize("desc,name", BAD_RINGS)
    def test_exit_usage_names_the_error(self, desc, name, tmp_path, capsys):
        cfgfile = tmp_path / "job.json"
        cfgfile.write_text(json.dumps({"task": "ring-info", "ring": desc}))
        assert main([str(cfgfile), "--json"]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == "" and name in out.err

    def test_console_script_exits_3(self, tmp_path):
        run = run_cli(tmp_path,
                      {"task": "ring-info", "ring": BAD_RINGS[1][0]})
        assert run.returncode == EXIT_USAGE
        assert "Traceback" not in run.stderr and run.stdout == ""

    def test_config_error_passes_through_unwrapped(self):
        with pytest.raises(ConfigError, match="^ring descriptor needs"):
            build_ring({"kind": "tame", "base": {"p": 3}})


CYC_P3 = {"kind": "cyclotomic", "p": 3, "a": 2, "window": 16}
BAD_PARAMS = [
    ({"task": "analyze-phi", "lam": 1}, "'lam' must exceed 1"),
    ({"task": "solve-twisted", "n_cong": 1},
     "need n > max(2m/(lam-1), N) = 4, got 1"),
    ({"task": "solve-twisted", "lam": "1/2"}, "'lam' must exceed 1"),
    ({"task": "solve-twisted", "m": -1}, "need m >= 0"),
    ({"task": "analyze-phi", "N": 60}, "need N < n_max"),
    ({"task": "analyze-phi", "lam": "two"}, "must be a rational number"),
    ({"task": "suite", "lam": 1}, "'lam' must exceed 1"),
    ({"task": "herr", "count": "x"}, "'count' must be an integer"),
    ({"task": "descent-check", "e": "x"}, "'e' must be an integer"),
    ({"task": "descent-check", "e": 0}, "'e' must be at least 1"),
    ({"task": "solve-twisted", "rank": 0}, "'rank' must be at least 1"),
    ({"task": "cup", "count": -1}, "'count' must be at least 1"),
    ({"task": "solve-twisted", "count": 0}, "'count' must be at least 1"),
    ({"task": "herr", "count": 0}, "'count' must be at least 1"),
    ({"task": "cup", "count": 0}, "'count' must be at least 1"),
    ({"task": "suite", "count": 0}, "'count' must be at least 1"),
    ({"task": "analyze-phi", "N": 0}, "'N' must be at least 1"),
    ({"task": "solve-twisted", "N": 0}, "'N' must be at least 1"),
    ({"task": "cup", "depth": -1}, "'depth' must be at least 0"),
    ({"task": "height-check", "v_terms": []},
     "'v_terms' must be an object"),
    ({"task": "height-check", "v_terms": {"1": [1, 2]}},
     "v_terms coefficient [1, 2] must be an integer or a list of 1"),
    ({"task": "solve-twisted", "count": 1.9}, "'count' must be an integer"),
    ({"task": "analyze-phi", "max_iter": True},
     "'max_iter' must be an integer"),
    ({"task": "analyze-phi", "max_iter": 2.5},
     "'max_iter' must be an integer"),
    ({"task": "solve-twisted", "lam": True},
     "'lam' must be a rational number, got True"),
]


class TestTaskParameterErrors:
    """Task parameters the library would refuse: exit 3, no traceback."""

    @pytest.mark.parametrize("params,msg", BAD_PARAMS)
    def test_exit_usage_names_the_error(self, params, msg, tmp_path, capsys):
        cfgfile = tmp_path / "job.json"
        cfgfile.write_text(json.dumps(dict(params, ring=CYC_P3)))
        assert main([str(cfgfile), "--json"]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == "" and msg in out.err

    def test_integer_string_is_its_integer(self):
        # floats and bools are refused above, an integer string is not
        _, as_str = run_config({"task": "analyze-phi", "ring": CYC,
                                "max_iter": "2"})
        _, as_int = run_config({"task": "analyze-phi", "ring": CYC,
                                "max_iter": 2})
        assert as_str["verdicts"] == as_int["verdicts"]

    @pytest.mark.parametrize("max_iter", ["0", "-1"])
    def test_max_iter_below_one(self, max_iter, tmp_path, capsys):
        cfgfile = tmp_path / "job.json"
        cfgfile.write_text(json.dumps({"task": "solve-twisted",
                                       "ring": CYC_P3}))
        assert main([str(cfgfile), "--json", "--max-iter", max_iter]) == \
            EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == "" and "--max-iter must be at least 1" in out.err

    def test_console_script_exits_3(self, tmp_path):
        run = run_cli(tmp_path, dict(BAD_PARAMS[0][0], ring=CYC_P3))
        assert run.returncode == EXIT_USAGE
        assert "Traceback" not in run.stderr and run.stdout == ""


class TestUnvalidatedModule:
    """On tame e=4 over p=5 a=2 window 24 one random herr module has no
    invertible matrix within the window (it is exactly invertible, and
    exits 2 at window 32 and 0 at 48): a precision shortfall, so the
    instance is skipped and counted, and herr-suite is inconclusive."""

    CFG = {"task": "herr", "count": 2, "seed": 1,
           "ring": {"kind": "tame", "e": 4,
                    "base": {"kind": "cyclotomic", "p": 5, "a": 2, "f": 1,
                             "window": 24}}}

    def test_exits_2_without_traceback(self, tmp_path):
        run = run_cli(tmp_path, self.CFG)
        assert run.returncode == EXIT_INCONCLUSIVE
        assert "Traceback" not in run.stderr
        (v,) = json.loads(run.stdout)["verdicts"]
        assert v["status"] == "inconclusive"
        assert v["data"]["unvalidated_modules"] == 1

    def test_count_key_only_when_nonzero(self):
        _, rep = run_config({"task": "herr", "ring": CYC, "count": 1})
        assert "unvalidated_modules" not in rep["verdicts"][0]["data"]


class TestCoboundaryWitnesses:
    """Every cochain the herr task builds as d0(z0) is a coboundary, so
    the search must find a witness for each.  On these rings the search
    needs its second pass, with the unknown reaching the largest entry
    window: with the smallest one alone, 7, 4 and 19 searches over seeds
    0-19 miss."""

    @pytest.mark.parametrize("ring", [
        {"kind": "cyclotomic", "p": 5, "a": 2, "window": 16},
        {"kind": "cyclotomic", "p": 3, "a": 2, "f": 2, "window": 16},
        {"kind": "tame", "e": 2, "base": CYC_P3},
    ], ids=["p5", "p3-f2", "tame-e2"])
    def test_no_misses(self, ring):
        for seed in range(20):
            code, rep = run_config({"task": "herr", "count": 1, "rank": 2,
                                    "seed": seed, "ring": ring})
            assert rep["verdicts"][0]["data"]["coboundary_misses"] == 0
            assert code == EXIT_HOLDS


class TestLiftStepPrecision:
    """On tame e=2 over p=3 a=2 window 16 the cup witnesses are certified
    below a sub-window of 7 or 19 only; a corrected lift that fails above
    it ran out of precision, which is inconclusive, not a failure."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shortfall_is_inconclusive(self, seed):
        code, rep = run_config({"task": "cup", "count": 1, "seed": seed,
                                "ring": {"kind": "tame", "e": 2,
                                         "base": CYC_P3}})
        assert code == EXIT_INCONCLUSIVE
        v = {x["name"]: x for x in rep["verdicts"]}
        assert v["lift-step"]["status"] == "inconclusive"
        assert v["lift-step"]["data"]["sub_window"] < rep["window"]
        assert v["mu-well-defined"]["status"] == "holds"


TAME_E4_P5 = {"kind": "tame", "e": 4,
              "base": {"kind": "cyclotomic", "p": 5, "a": 2, "window": 16}}


class TestTameWindowShortfall:
    """On tame e=4 over p=5 a=2 window 16 the random herr modules, and
    the matrices their complexes invert, run out of window (one has a
    window ending at or below 0), and the degree-2 tame extension that
    descent-check builds has no visible unit in phi(v).  Each is a
    precision shortfall: a verdict and an exit code, never a traceback."""

    @pytest.mark.parametrize("task,seed,code", [
        ("herr", 0, EXIT_INCONCLUSIVE), ("herr", 1, EXIT_INCONCLUSIVE),
        ("suite", 0, EXIT_FAILS), ("suite", 1, EXIT_FAILS),
        ("descent-check", 0, EXIT_INCONCLUSIVE),
        ("descent-check", 1, EXIT_INCONCLUSIVE)])
    def test_verdict_without_traceback(self, task, seed, code, tmp_path):
        run = run_cli(tmp_path, {"task": task, "count": 1,
                                 "seed": seed, "ring": TAME_E4_P5})
        assert run.returncode == code
        assert run.stderr == ""
        v = {x["name"]: x for x in json.loads(run.stdout)["verdicts"]}
        if task in ("herr", "suite"):
            assert v["herr-suite"]["status"] == "inconclusive"
            assert v["herr-suite"]["data"]["unvalidated_modules"] == 1
        if task in ("descent-check", "suite"):
            assert v["descent-check"]["status"] == "inconclusive"
            assert v["descent-check"]["data"]["error"] == "NotAUnit"
            assert "NotAUnit" in v["descent-check"]["detail"]


class TestShortfallNotFailure:
    """On tame e=4 over p=5 a=2 window 16, cup's well-definedness check
    and solve-twisted's round trip run out of window (EmptyWindow: a matrix inverse forms the
    identity on a window ending at or below 0).  That is a precision
    shortfall, so the verdicts are inconclusive and name the error class;
    and a lift step with no witnessed lift to correct decides nothing."""

    @pytest.mark.parametrize("task", ["cup", "solve-twisted"])
    def test_inconclusive_naming_the_error(self, task, tmp_path):
        run = run_cli(tmp_path, {"task": task, "count": 1, "seed": 0,
                                 "ring": TAME_E4_P5})
        assert run.returncode == EXIT_INCONCLUSIVE
        assert run.stderr == ""
        v = {x["name"]: x for x in json.loads(run.stdout)["verdicts"]}
        assert all(x["status"] != "fails" for x in v.values())
        named = v["mu-well-defined" if task == "cup" else "solve-twisted"]
        assert named["status"] == "inconclusive"
        assert named["data"]["error"] == "EmptyWindow"
        assert "EmptyWindow" in named["detail"]
        if task == "cup":
            assert v["lift-step"]["status"] == "inconclusive"
            assert v["lift-step"]["detail"] == "no witnessed lift to correct"


# sha256 of the canonical --json bytes of every task, seed 0, count 1, on
# two rings, and of ring-info on rings whose construction takes every
# root that galois_ring.hensel_root lifts: the Frobenius lift, the
# embedding of an f = 2 base, e-th roots of unity up to e = 8 and the
# e-th root of gamma's constant term, and of analyze-phi and
# solve-twisted on two f = 2 rings, where coefficient inverses run inside
# every series inversion, and of descent-check on two tame rings, where
# the tame gamma operator and the descent equations run.  A speed change
# must leave every witness, window and verdict as it is, so these hashes
# stay; a change that alters a report on purpose says so and updates
# them.
def _cyc(p, a, f, window):
    return {"kind": "cyclotomic", "p": p, "a": a, "f": f, "window": window}


GOLDEN_RINGS = {
    "cyclotomic-p3-w24": _cyc(3, 2, 1, 24),
    "tame-e2-p3-w16": {"kind": "tame", "e": 2, "base": _cyc(3, 2, 1, 16)},
    "cyclotomic-p2-a3-f2-w16": _cyc(2, 3, 2, 16),
    "tame-e4-p5-w16": {"kind": "tame", "e": 4, "base": _cyc(5, 2, 1, 16)},
    "tame-e2-fext2-p3-w12": {"kind": "tame", "e": 2, "f_ext": 2,
                             "base": _cyc(3, 2, 1, 12)},
    "tame-e2-p3-f2-w12": {"kind": "tame", "e": 2, "base": _cyc(3, 2, 2, 12)},
    "tame-e8-p3-f2-w8": {"kind": "tame", "e": 8, "base": _cyc(3, 2, 2, 8)},
}
GOLDEN = {
    ("cyclotomic-p3-w24", "ring-info"):
        "cd412b7db4c56f29dcab09f8b33177430e7203171d862d345fec4b28e87924f5",
    ("cyclotomic-p3-w24", "analyze-phi"):
        "7757bbe6925249339c809f2e2b269e1d10d458b4dbae5d4b83fbdd7ff771f9dd",
    ("cyclotomic-p3-w24", "height-check"):
        "312ea8ec4d908f018bf4d328956e756d36f1a10f162ec70acaa2ac09d98bff72",
    ("cyclotomic-p3-w24", "solve-twisted"):
        "fae4263cb2f132377e60ef15cad12db7f14734495d69b4dd5ce5bd1e72dbd385",
    ("cyclotomic-p3-w24", "herr"):
        "d8b9c3cca7f1742b3852f9e0e0a4f8689f8cab59b50d1460f10480dd37f48755",
    ("cyclotomic-p3-w24", "cup"):
        "bb67d1cff810ebbccefbeb005cd78bcd7236f165c8c602547c281c79b5f98032",
    ("cyclotomic-p3-w24", "descent-check"):
        "c17854c95050be98cf350bcd3ff489863053e9e228bff6a261c74887c9d8837f",
    ("cyclotomic-p3-w24", "suite"):
        "582b35c93bc82cb7beefbb4e143bf313f55081314ca91defbfa89d62fd9cab0b",
    ("tame-e2-p3-w16", "ring-info"):
        "73aca2be9ac6057bae3402ce39e432c57611fe7824d3b95bf3d4f4ebe11c1ee6",
    ("tame-e2-p3-w16", "analyze-phi"):
        "74a8b19797c2ab69900c45999ce4bd6b82df81b401ca4ca565cdab87e3b43b6f",
    ("tame-e2-p3-w16", "height-check"):
        "06945d37731d389724aad0ec2c92a2213cfdd37343ad956550e8b13b366a762c",
    ("tame-e2-p3-w16", "solve-twisted"):
        "1d7c1d05fdf7bc3a8f19c1e5615cf552b534f96d1c0039b499f018966e5972a3",
    ("tame-e2-p3-w16", "herr"):
        "05384ad115356d179472aa01c7a5eb0e3df8eaded88bafcafc68d50ce56f7b38",
    ("tame-e2-p3-w16", "cup"):
        "99610e6e74373e0fffb9b4053635dbb13becb943f82c0db84633fd0214aeb7ba",
    ("tame-e2-p3-w16", "descent-check"):
        "483486be5ee97e6e1b5ef77f2e16442c30ce3bd1f556f14cb9a3cc74c715f2a4",
    ("tame-e2-p3-w16", "suite"):
        "173387cc0e79e7a422e05acc567ca25911644d41035c62aa014b3fd5b11e7cc7",
    ("cyclotomic-p2-a3-f2-w16", "ring-info"):
        "31d1f0696a4f05fb0593d3e97e2573b3ea49d41d1d858b26aa4fca42065f1ff2",
    ("cyclotomic-p2-a3-f2-w16", "analyze-phi"):
        "581e88d6ca973947dd93b24da12f5f4a4bb2618bac77a9e63121a074ccab54d9",
    ("cyclotomic-p2-a3-f2-w16", "solve-twisted"):
        "0643000856a75b4734b1e900da0c66733c8e32a6f2af9000a86773509f65a323",
    ("tame-e4-p5-w16", "ring-info"):
        "3eeb550eeda574fa9404339fd26a8c6def282b2f65b87fcedc197704e4b36f1e",
    ("tame-e4-p5-w16", "descent-check"):
        "4d588d955974db0a6fb251374fca65784ef53326305f47d728738be14ac1a944",
    ("tame-e2-fext2-p3-w12", "ring-info"):
        "3f0e99f1f31871eb90ca5b4c24b37f9a02f80037928a1295cbd8c5544107b733",
    ("tame-e2-fext2-p3-w12", "analyze-phi"):
        "60edab3365e1fb2b5efb56e2089665ff500a3bba8f9750296e2decbd3b37acfb",
    ("tame-e2-fext2-p3-w12", "solve-twisted"):
        "c707caa016922dbaa4a38f4de5bdabd38e4c5fa5fc713884117d06ee9a20cfdf",
    ("tame-e2-fext2-p3-w12", "descent-check"):
        "713e0707ae6290f409f1f1b1a1e1c39680245cdf13a684cf96195faa3b94b9f6",
    ("tame-e2-p3-f2-w12", "ring-info"):
        "11ec9a0c7eb70120627fd418afe998300040d3bb0b36aafe3b246296e9893412",
    ("tame-e8-p3-f2-w8", "ring-info"):
        "320f2b27e5136d3349a92aabf219a6a7157dfaa3474402547248ed383c15744d",
}


class TestGoldenBytes:
    @pytest.mark.parametrize("ring,task", sorted(GOLDEN),
                             ids=["/".join(k) for k in sorted(GOLDEN)])
    def test_report_hash(self, ring, task):
        cfg = {"task": task, "ring": GOLDEN_RINGS[ring], "seed": 0,
               "count": 1}
        if task == "height-check":
            cfg["v_terms"] = {"2": 1}
        _, rep = run_config(cfg)
        canon = json.dumps(rep, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canon.encode()).hexdigest() == \
            GOLDEN[(ring, task)]


# sha256 of the canonical --json bytes of the Herr search tasks, count 1,
# on rings where every system is a multi-coordinate or p = 5 one, and on
# two rings whose phi image has a pole: the intro ring u^3 + 3u^-1, and
# u + 3u^-1, where phi(0) is known only below the tail guard W - 2; the
# kept operator images, Levi complexes and system columns must not move
# a byte
SEARCH_GOLDEN_RINGS = {
    "cyclotomic-p5-w16": {"kind": "cyclotomic", "p": 5, "a": 2, "f": 1,
                          "window": 16},
    "cyclotomic-p3-f2-w16": {"kind": "cyclotomic", "p": 3, "a": 2, "f": 2,
                             "window": 16},
    "intro-w16": {"kind": "custom", "p": 3, "a": 2,
                  "phi_terms": {"3": 1, "-1": 3}, "window": 16},
    "custom-u+3u^-1-w12": {"kind": "custom", "p": 3, "a": 2,
                           "phi_terms": {"1": 1, "-1": 3}, "window": 12},
}
SEARCH_GOLDEN = {
    ("cyclotomic-p5-w16", "herr", 0):
        "7ff753db55d3c5b39d0984f010ff36e0ad8c17b4871e025d294b29ee8b48fa1f",
    ("cyclotomic-p5-w16", "herr", 1):
        "3c0065883140144ba5267399903725a01db006e812b9a1792990bbfb123cf35e",
    ("cyclotomic-p5-w16", "cup", 0):
        "c5ef430a2c8b1ddefa8d531717e2458911418394947fe14fda6a738634a3c276",
    ("cyclotomic-p5-w16", "cup", 1):
        "3fb113709a6c0b05b5150695ba980ed848c3c12aa471cd60282b416f34133670",
    ("cyclotomic-p3-f2-w16", "herr", 0):
        "9ae2e6d8d11201205213ba4cf96d09678b9bf087f24060285d99a8408bf156db",
    ("cyclotomic-p3-f2-w16", "herr", 1):
        "8942b4cd95b214586467f5dd6e097e284231bf1836f9ded3a01dc6b4770e1812",
    ("cyclotomic-p3-f2-w16", "cup", 0):
        "3298c8f2a023c327fc82896c35b3fce875e4d81e93c9345d460e6b073e0323fd",
    ("cyclotomic-p3-f2-w16", "cup", 1):
        "a4aba608ae23cde49949693da0e18b548a913b23a873858e79c4100b6fc78fb9",
    ("intro-w16", "herr", 0):
        "019cbe7082baf2f2281ecdc57b0d33015b5b50304f5e02594ad285848b725a98",
    ("intro-w16", "herr", 1):
        "27a6d4c2a0e61f3fd152bbfa999ec8251de9b9bc5b5abb4472c40d3c61376b91",
    ("intro-w16", "cup", 0):
        "e277905393be260df62f59df1d709e31aa5bb3905c1a93b91ffd488c194ed248",
    ("custom-u+3u^-1-w12", "herr", 0):
        "d543119c2fc726eb045bfbbf90d11b8041b54a18353d304ce2ae8374152e9764",
    ("custom-u+3u^-1-w12", "herr", 1):
        "6b6f02b45b298a76931cdb5d441dbe2f7e90875dd41a9a4d4d2aa7e988155419",
    ("custom-u+3u^-1-w12", "cup", 0):
        "bfbd7b1cefa0330418fab8b6724430cd46c85b264f44ba676716cd0b775811de",
}


class TestSearchGoldenBytes:
    @pytest.mark.parametrize(
        "ring,task,seed", sorted(SEARCH_GOLDEN),
        ids=[f"{r}/{t}/{s}" for r, t, s in sorted(SEARCH_GOLDEN)])
    def test_report_hash(self, ring, task, seed):
        code, rep = run_config({"task": task,
                                "ring": SEARCH_GOLDEN_RINGS[ring],
                                "seed": seed, "count": 1})
        assert code == EXIT_HOLDS
        canon = json.dumps(rep, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(canon.encode()).hexdigest() == \
            SEARCH_GOLDEN[(ring, task, seed)]


# Run in a fresh interpreter: import phigamma.cli, run the given tasks,
# and print the names of the loaded modules.
LOADED_MODULES = """
import json, sys
import phigamma.cli as cli
ring = {"kind": "cyclotomic", "p": 3, "a": 2, "window": 16}
for cfg in json.loads(sys.argv[1]):
    cli.run_config(dict(cfg, ring=ring))
print(json.dumps(sorted(sys.modules)))
"""


def loaded_modules(cfgs):
    run = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, json.dumps(cfgs)],
        capture_output=True, text=True, check=True)
    return set(json.loads(run.stdout))


class TestImports:
    """A CLI process loads only the modules its task runs.  This counts
    modules, not time, so it is deterministic."""

    def test_ring_info_loads_only_the_ring_modules(self):
        loaded = loaded_modules([{"task": "ring-info"}])
        assert {m for m in loaded if m.startswith("phigamma.")} == {
            "phigamma.cli", "phigamma.errors", "phigamma.galois_ring",
            "phigamma.laurent", "phigamma.period", "phigamma.verdicts"}
        assert "fractions" not in loaded

    def test_light_tasks_load_no_herr_cup_framed(self):
        loaded = loaded_modules([
            {"task": "ring-info"},
            {"task": "analyze-phi", "n_max": 8},
            {"task": "height-check", "v_terms": {"1": 1}},
            {"task": "solve-twisted", "count": 1}])
        assert "phigamma.samplers" in loaded
        for name in ("phigamma.herr", "phigamma.cup", "phigamma.framed",
                     "phigamma.linalg", "dataclasses"):
            assert name not in loaded

    def test_descent_check_loads_no_cup(self):
        loaded = loaded_modules([{"task": "descent-check"}])
        assert "phigamma.framed" in loaded
        for name in ("phigamma.herr", "phigamma.cup", "phigamma.linalg",
                     "fractions", "dataclasses"):
            assert name not in loaded

    # where no bytecode is cached, every process compiles each module it
    # loads, in time that grows with the module's AST nodes; each budget
    # sits a few percent above the count it guards (ring-info loaded
    # 16,474 nodes when cli.py held every task's body)
    NODE_BUDGETS = {
        "ring-info": ({}, 12600),
        "solve-twisted": ({"count": 1, "rank": 2}, 16400),
        "descent-check": ({}, 17200),
        "cup": ({"count": 1, "seed": 1}, 24400),
    }

    @pytest.mark.parametrize("task", sorted(NODE_BUDGETS))
    def test_startup_compiles_within_budget(self, task, tmp_path):
        params, budget = self.NODE_BUDGETS[task]
        cfgfile = tmp_path / "job.json"
        cfgfile.write_text(json.dumps(dict(params, task=task, ring=TAME_E2)))
        run = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "phigamma.cli",
             str(cfgfile), "--json"], capture_output=True, text=True)
        assert "Traceback" not in run.stderr
        imported = [line.rsplit("|", 1)[1].strip()
                    for line in run.stderr.splitlines()
                    if line.startswith("import time:")]
        # under -m the front end runs as __main__; a module that imported
        # phigamma.cli would compile and run it a second time
        assert "phigamma.cli" not in imported
        assert "fractions" not in imported and "decimal" not in imported
        sources = [PACKAGE / "cli.py"] + [
            PACKAGE.parent.joinpath(*name.split(".")) for name in imported
            if name == "phigamma" or name.startswith("phigamma.")]
        nodes = sum(
            sum(1 for _ in ast.walk(ast.parse(path.read_text())))
            for path in (p / "__init__.py" if p.is_dir() else
                         p.with_suffix(".py") for p in sources))
        assert nodes <= budget


class TestSuite:
    """suite chains every task, so one process covers every deferred
    import; its stdout must be the bytes of the in-process report."""

    CFG = {"task": "suite", "count": 1, "seed": 0, "v_terms": {"1": 1},
           "ring": CYC_P3}

    def test_console_script_matches_run_config(self, tmp_path):
        run = run_cli(tmp_path, self.CFG)
        code, rep = run_config(self.CFG)
        assert run.returncode == code == EXIT_HOLDS
        assert run.stderr == ""
        assert run.stdout == json.dumps(
            rep, sort_keys=True, separators=(",", ":")) + "\n"
        assert [v["name"] for v in rep["verdicts"]] == [
            "ring-info", "local-contraction", "contraction-constants",
            "frobenius-contraction", "height-check", "solve-twisted",
            "herr-suite", "cup-lambda-identities", "mu-well-defined",
            "lift-step", "descent-check"]


P2 = {"kind": "cyclotomic", "p": 2, "a": 3, "window": 16}


class TestCupNeedsOddPrime:
    """cup's Levi parts diag(2, 1) and diag(2, 1, 2) are not invertible
    when p = 2, so cup and suite (which runs cup) reject such a ring as a
    config error, before any work, rather than end in a traceback."""

    @pytest.mark.parametrize("task", ["cup", "suite"])
    @pytest.mark.parametrize("f", [1, 2])
    def test_console_script_exits_3(self, task, f, tmp_path):
        run = run_cli(tmp_path, {"task": task, "count": 1,
                                 "ring": dict(P2, f=f)})
        assert run.returncode == EXIT_USAGE
        assert run.stdout == ""
        assert "Traceback" not in run.stderr
        assert run.stderr.startswith("error: cup needs an odd p")


class TestSmallWindowShortfall:
    """Below window 7, solve-twisted's own sample u^(n_cong + k) does not
    fit the window, nor below window 9 its uniqueness perturbation
    u^(n_cong + k), k < 4; cup's random lifts have terms up to u^7, and
    its lambda identities are checked below window - 10; and at window 4
    local-contraction meets phi(u^n) known only below u^-m.  All are
    precision shortfalls: inconclusive verdicts that name the error
    class."""

    @pytest.mark.parametrize("window", [4, 5, 6])
    def test_solve_twisted(self, window):
        code, rep = run_config({"task": "solve-twisted", "count": 1,
                                "ring": CYC_P3}, window=window)
        assert code == EXIT_INCONCLUSIVE
        (v,) = rep["verdicts"]
        assert v["status"] == "inconclusive"
        assert v["data"]["error"] == "EmptyWindow"
        assert "EmptyWindow" in v["detail"]

    def test_analyze_phi(self):
        code, rep = run_config({"task": "analyze-phi", "ring": CYC_P3},
                               window=4)
        assert code == EXIT_INCONCLUSIVE
        v = {x["name"]: x for x in rep["verdicts"]}
        assert v["local-contraction"]["status"] == "inconclusive"
        assert v["local-contraction"]["data"]["error"] == \
            "InsufficientWindow"
        assert "InsufficientWindow" in v["local-contraction"]["detail"]
        assert all(x["status"] != "fails" for x in v.values())

    def test_solve_twisted_perturbation(self):
        # the round trip closes, then the perturbation draws u^8
        code, rep = run_config({"task": "solve-twisted", "count": 1,
                                "ring": {"kind": "cyclotomic", "p": 2,
                                         "a": 3}}, window=7, seed=2)
        assert code == EXIT_INCONCLUSIVE
        (v,) = rep["verdicts"]
        assert v["data"]["error"] == "EmptyWindow"
        assert v["data"]["shortfalls"][0]["instance"] == 0
        assert v["data"]["failures"] == []

    @pytest.mark.parametrize("window,seed,name", [
        (4, 3, "cup-lambda-identities"),  # the lambda identities' lifts
        (5, 5, "lift-step"),  # the lift that mu corrects
    ])
    def test_cup_draws(self, window, seed, name):
        code, rep = run_config({"task": "cup", "count": 1,
                                "ring": CYC_P3}, window=window, seed=seed)
        assert code == EXIT_INCONCLUSIVE
        v = {x["name"]: x for x in rep["verdicts"]}
        assert v[name]["status"] == "inconclusive"
        assert v[name]["data"]["error"] == "EmptyWindow"
        assert "EmptyWindow" in v[name]["detail"]

    @pytest.mark.parametrize("window,status", [
        (8, "inconclusive"), (10, "inconclusive"), (11, "holds")])
    def test_cup_lambda_check_window(self, window, status):
        # both identities are checked below window - 10: at window 10 or
        # less that sub-window is empty and certifies nothing
        _, rep = run_config({"task": "cup", "count": 1, "ring": CYC_P3},
                            window=window, seed=0)
        v = {x["name"]: x for x in rep["verdicts"]}["cup-lambda-identities"]
        assert v["status"] == status
        if status == "inconclusive":
            assert v["data"]["error"] == "InsufficientWindow"
            assert v["detail"] == ("1 instances ran out of window: "
                                   "InsufficientWindow")


class TestSolveGClaimedWindow:
    """`solve_g` returns g on the ring's window, though its last
    correction is known only on a shorter one (ROADMAP item 1), so on
    tame e=2 over p=3 a=2 at window 8 solve-twisted reports Fails where
    a precision shortfall is due.  The same seeds hold at window 16.  The
    xfail is strict: once the mend lands it passes, and the mark must
    go."""

    @pytest.mark.parametrize("window", [pytest.param(8, marks=(
        pytest.mark.xfail(strict=True, reason="solve_g claims a window "
                          "its last correction does not certify"))), 16])
    @pytest.mark.parametrize("seed", range(4))
    def test_no_fails(self, window, seed):
        code, _ = run_config({"task": "solve-twisted", "count": 1,
                              "ring": TAME_E2}, window=window, seed=seed)
        assert code != EXIT_FAILS


BATTERY_RINGS = {
    "cyclotomic-p3": {"kind": "cyclotomic", "p": 3, "a": 2},
    "cyclotomic-p2-a3": {"kind": "cyclotomic", "p": 2, "a": 3},
    "cyclotomic-p5-f2": {"kind": "cyclotomic", "p": 5, "a": 2, "f": 2},
    "intro": {"kind": "custom", "p": 3, "a": 2,
              "phi_terms": {"3": 1, "-1": 3}},
    "tame-e2-p3": {"kind": "tame", "e": 2,
                   "base": {"kind": "cyclotomic", "p": 3, "a": 2}},
}


class TestNoTraceback:
    """Every task, suite included, on every ring kind, down to window 1,
    either returns a verdict exit code or is a config error: never any
    other exception, which the command line shows as a traceback."""

    # the tasks whose random draws have terms up to u^7 or u^8: at
    # windows 4 to 7 some seeds draw a term outside the window
    DRAWS = ("cup", "solve-twisted", "suite")

    @pytest.mark.parametrize("ring", sorted(BATTERY_RINGS))
    def test_exit_contract(self, ring):
        for window in (1, 2, 3, 4, 5, 6, 7, 8, 12):
            for task in TASKS:
                cfg = {"task": task, "ring": BATTERY_RINGS[ring],
                       "count": 1, "v_terms": {"1": 1}}
                seeds = range(8) if 4 <= window <= 7 and \
                    task in self.DRAWS else (0,)
                for seed in seeds:
                    try:
                        code, _ = run_config(cfg, window=window, seed=seed)
                    except ConfigError:
                        continue
                    assert code in (EXIT_HOLDS, EXIT_FAILS,
                                    EXIT_INCONCLUSIVE), (task, window, seed)

    # each task parameter at its least admissible value, which must give
    # a verdict, and one below it, a config error; the defaults are
    # lam 2, N 1, n_max 50, max_iter 4 (analyze-phi) and lam 2, m 1,
    # n_cong 5, N 4 (solve-twisted), so n_cong > max(2m/(lam-1), N)
    # binds at those
    EDGE_PARAMS = [
        ("analyze-phi", {"lam": "101/100"}, True),
        ("analyze-phi", {"lam": 1}, False),
        ("analyze-phi", {"N": 1, "n_max": 2}, True),
        ("analyze-phi", {"N": 0}, False),
        ("analyze-phi", {"N": -1}, False),
        ("analyze-phi", {"n_max": 1}, False),
        ("suite", {"N": 0}, False),
        ("solve-twisted", {"lam": "3/2"}, True),
        ("solve-twisted", {"lam": "7/5"}, False),
        ("solve-twisted", {"m": 0, "N": 1, "n_cong": 2}, True),
        ("solve-twisted", {"m": 0, "N": 1, "n_cong": 1}, False),
        ("solve-twisted", {"m": 0}, True),
        ("solve-twisted", {"m": -1}, False),
        ("solve-twisted", {"n_cong": 4}, False),
        ("solve-twisted", {"N": 0}, False),
        ("cup", {"depth": 0}, True),
        ("cup", {"depth": -1}, False),
        ("height-check", {"v_terms": {}}, True),
        ("height-check", {"v_terms": {"100": 1}}, True),
        ("height-check", {"v_terms": {"-100": 1}}, True),
        ("height-check", {"v_terms": []}, False),
        ("height-check", {"v_terms": {"x": 1}}, False),
        ("height-check", {"v_terms": {"1": "x"}}, False),
        ("height-check", {"v_terms": {"1": 1},
                          "expected_expansion": {"1": [1]}}, False),
        ("analyze-phi", {"max_iter": 1}, True),
        ("analyze-phi", {"max_iter": 0}, False),
        ("analyze-phi", {"max_iter": "x"}, False),
        ("analyze-phi", {"max_iter": [1]}, False),
        ("suite", {"max_iter": 0}, False),
    ]

    @pytest.mark.parametrize("ring", ["cyclotomic-p3", "tame-e2-p3"])
    @pytest.mark.parametrize("task,params,admitted", EDGE_PARAMS)
    def test_edge_parameters(self, ring, task, params, admitted):
        cfg = dict(params, task=task, ring=BATTERY_RINGS[ring], count=1)
        if not admitted:
            with pytest.raises(ConfigError):
                run_config(cfg, window=12)
            return
        code, _ = run_config(cfg, window=12)
        assert code in (EXIT_HOLDS, EXIT_FAILS, EXIT_INCONCLUSIVE)


# the verdicts of the doubling test below that change today, as
# (window, seed) per ring: solve-twisted Fails that become Holds at twice
# the window (ROADMAP item 1), and cup lift-step Holds that become
# Inconclusive (ROADMAP item 6)
SOLVE_FLIPS = {
    "cyclotomic-p2-a3": ((6, 1), (7, 0), (7, 1), (8, 1), (8, 2), (9, 2)),
    "cyclotomic-p3": ((6, 1), (7, 0), (7, 1), (7, 2), (8, 0), (8, 1),
                      (8, 2)),
    "cyclotomic-p5-f2": ((6, 2), (7, 0), (7, 1)),
    "intro": ((6, 1), (7, 0), (7, 1), (7, 2), (8, 0), (8, 1), (8, 2)),
    "tame-e2-p3": ((8, 0), (8, 1), (8, 2), (9, 0), (9, 1), (9, 2)),
}
LIFT_FLIPS = {"intro": ((10, 0), (10, 2), (11, 2)), "tame-e2-p3": ((8, 0),)}
FLIPS = {
    "solve-twisted": (SOLVE_FLIPS, "ROADMAP item 1: solve_g claims a window "
                      "it does not have, a false Fails"),
    "cup": (LIFT_FLIPS, "ROADMAP item 6: lift-step runs out of window at "
            "twice the window"),
}
DOUBLING_TASKS = ("analyze-phi", "height-check", "solve-twisted", "herr",
                  "cup", "descent-check")
SEEDED = ("solve-twisted", "herr", "cup")


def doubling_cases():
    """(ring, task, window, seed) for each pair of the doubling test,
    the known flips marked as strict xfails."""
    for ring in sorted(BATTERY_RINGS):
        for task in DOUBLING_TASKS:
            flips, reason = FLIPS.get(task, ({}, ""))
            for window in range(6, 13):
                for seed in range(3) if task in SEEDED else (0,):
                    marks = [pytest.mark.xfail(strict=True, reason=reason)] \
                        if (window, seed) in flips.get(ring, ()) else []
                    yield pytest.param(ring, task, window, seed, marks=marks,
                                       id=f"{ring}/{task}/w{window}/s{seed}")


class TestWindowDoubling:
    """A verdict at window W and the same config and seed at 2W: a Holds
    stays Holds, and a Fails stays Fails.  A Fails that turns into Holds
    was a precision shortfall reported as a wrong answer.  The six
    verdict tasks, count 1, at windows 6 to 12; a pair where either side
    is a config error (cup on p = 2, the tame ring below window 8) has
    nothing to compare."""

    @pytest.mark.parametrize("ring,task,window,seed", list(doubling_cases()))
    def test_verdicts_survive(self, ring, task, window, seed):
        cfg = {"task": task, "ring": BATTERY_RINGS[ring], "count": 1,
               "v_terms": {"1": 1}}
        try:
            small, large = (
                {v["name"]: v["status"]
                 for v in run_config(cfg, window=w, seed=seed)[1]["verdicts"]}
                for w in (window, 2 * window))
        except ConfigError as exc:
            pytest.skip(f"config error: {exc}")
        assert {name: (status, large[name]) for name, status in small.items()
                if status in (HOLDS, FAILS) and large[name] != status} == {}


# sha256, one per ring, of the canonical --json reports of solve-twisted,
# count 1, at windows 6, 7, 8, 9 and 16 and seeds 0-4, joined by newlines
# in (window, seed) order; a window too small to build the ring (tame
# e=2 below 8, tame e=4 below 14) contributes its config error instead.
# The small windows are where the solvers run
# out of window and where ROADMAP item 1's false Fails sit; the mend of
# item 1 changes these hashes on purpose, and no speed change may.
SOLVE_GOLDEN_RINGS = dict(BATTERY_RINGS, **{
    "cyclotomic-p5": {"kind": "cyclotomic", "p": 5, "a": 2},
    "cyclotomic-p3-f2": {"kind": "cyclotomic", "p": 3, "a": 2, "f": 2},
    "custom-u+3u^-1": {"kind": "custom", "p": 3, "a": 2,
                       "phi_terms": {"1": 1, "-1": 3}},
    "tame-e4-p5": {"kind": "tame", "e": 4,
                   "base": {"kind": "cyclotomic", "p": 5, "a": 2}},
})
SOLVE_GOLDEN = {
    "custom-u+3u^-1":
        "a1383131d369adcf5614db397919d612a1f7a40da942505eb15227a324dd95e7",
    "cyclotomic-p2-a3":
        "2a6c9f8b6f401a7f7ba2c46f906abf814fbca62b04d0d0304a379cadc0357950",
    "cyclotomic-p3":
        "4e71bb04a49a1aa4fd4a7be6db358de6b79764493b92f08394b147f2f4eb779d",
    "cyclotomic-p3-f2":
        "157f5201987427245db21dac58b7d0ba8f724322a2066bf8e115bdead3b0b856",
    "cyclotomic-p5":
        "6643ccc355a58ba7886e98e678cbc9fc6af3c8a2f0ecd47be3dcd6c14871c25b",
    "cyclotomic-p5-f2":
        "9d3254ddcd2d2cf88d3f5315ea9d956baca6fc5f93899730a9c68f8acf540912",
    "intro":
        "dd2e454a6597c8edd115de38b09971d3b86622536772094c78f15ffa1e6390a2",
    "tame-e2-p3":
        "ef0c199295553d9a19a9fe4a57f8b16954bdacbe6e75872a77e0dc710ca7635b",
    "tame-e4-p5":
        "f00d3f4593baca1a08e398f0b8d012fb6ae6ce1b56758fe6dbe64bff4569437b",
}


class TestSolveTwistedGoldenBytes:
    @pytest.mark.parametrize("ring", sorted(SOLVE_GOLDEN))
    def test_report_hash(self, ring):
        cfg = {"task": "solve-twisted", "ring": SOLVE_GOLDEN_RINGS[ring],
               "count": 1}
        reports = []
        for window in (6, 7, 8, 9, 16):
            for seed in range(5):
                try:
                    _, rep = run_config(cfg, window=window, seed=seed)
                except ConfigError as exc:
                    reports.append(f"ConfigError: {exc}")
                    continue
                reports.append(json.dumps(rep, sort_keys=True,
                                          separators=(",", ":")))
        assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == \
            SOLVE_GOLDEN[ring]


# sha256, one per ring of the series-wide benchmark, of the canonical
# --json reports of solve-twisted, count 1, rank 2, at windows 32, 40, 48
# and 56 and seeds 0-4, joined by newlines in (window, seed) order, and
# of analyze-phi on the intro ring at window 128: the wide windows where
# the series kernel does most of its work.  A speed change leaves them.
WIDE_SOLVE_GOLDEN = {
    "cyclotomic-p3":
        "2f4f6d2d7e06c6ae828ff8bbaeb43a3607a5183b96307e9693dd1920a710be46",
    "cyclotomic-p3-f2":
        "876730e239427730c056e149cd9095dc0cbe1fbcedf4cbc70ca2986b13ec9c97",
    "intro":
        "155bbcf24f8d56259a9eb4c234241f6d3dd895df5981fe57dbcef31eb52cc984",
}
WIDE_ANALYZE_GOLDEN = \
    "1597cd503196154e8b4d891f74c430d9525c62d589e9e74d4d207d70fe1f1b1a"


def canonical(rep):
    return json.dumps(rep, sort_keys=True, separators=(",", ":"))


class TestWideWindowGoldenBytes:
    @pytest.mark.parametrize("ring", sorted(WIDE_SOLVE_GOLDEN))
    def test_solve_twisted(self, ring):
        cfg = {"task": "solve-twisted", "ring": SOLVE_GOLDEN_RINGS[ring],
               "count": 1, "rank": 2}
        reports = [canonical(run_config(cfg, window=window, seed=seed)[1])
                   for window in (32, 40, 48, 56) for seed in range(5)]
        assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == \
            WIDE_SOLVE_GOLDEN[ring]

    def test_analyze_phi(self):
        cfg = {"task": "analyze-phi", "ring": SOLVE_GOLDEN_RINGS["intro"],
               "seed": 0, "lam": 2, "N": 4, "n_max": 200}
        rep = run_config(cfg, window=128)[1]
        assert hashlib.sha256(canonical(rep).encode()).hexdigest() == \
            WIDE_ANALYZE_GOLDEN
