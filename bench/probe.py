"""Child-process entry points of the benchmark.

    python bench/probe.py setup WORKLOAD
        import phigamma.cli, then build each distinct ring the workload
        uses once; prints {"import_s": ...} (the import alone).
    python bench/probe.py cli CONFIG TRACE_OUT
        `phigamma CONFIG --json` with the layer tracer installed; writes
        the trace snapshot and the trace checks to TRACE_OUT and exits
        with the CLI's exit code.

`bench/run.py` starts these with PYTHONPATH pointing at the checkout's
`src`.
"""

import json
import sys
import time


def setup(workload):
    t0 = time.perf_counter()
    import phigamma.cli
    import_s = time.perf_counter() - t0
    from workloads import distinct_rings
    for desc in distinct_rings(workload):
        phigamma.cli.build_ring(desc)
    print(json.dumps({"import_s": import_s}))
    return 0


def traced_cli(config, trace_out):
    from checks import TraceChecks
    from tracer import Tracer
    checks = TraceChecks()
    tracer = Tracer(on_solve=checks.on_solve,
                    on_product=checks.on_product).install()
    import phigamma.cli
    code = phigamma.cli.main([config, "--json"])
    sys.stdout.flush()
    with open(trace_out, "w") as fh:
        json.dump({"trace": tracer.snapshot(), "checks": checks.to_json()},
                  fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2]))
    sys.exit(traced_cli(sys.argv[2], sys.argv[3]))
