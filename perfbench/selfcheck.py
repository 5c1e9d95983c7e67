#!/usr/bin/env python3
"""Self-check of the benchmark at toy size.

    python3 perfbench/selfcheck.py

For every workload defined in `workloads.py`, including any that
BENCHMARK.json does not list, it asserts that

* a toy-size run with tracing off and one with tracing on both exit 0,
  pass every case, and print a result line with exactly the contract's keys;
* every end-to-end and per-layer metric the benchmark defines is printed
  with its unit in the report line, and the result line carries exactly the
  ones BENCHMARK.json lists; a defined metric that BENCHMARK.json leaves out
  must have its reason in NOT_IN_BENCHMARK_JSON;
* the checker accepts the real output of one case of every stratum and
  rejects a deliberately perturbed copy of it.

Exits with status 1 and a message on the first failed assertion.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {
    "case_p50_ms": "ms", "case_tail_ms": "ms", "cases_per_s": "1/s", "accuracy_err": "1",
    "fail_ratio": "1", "setup_s": "s", "peak_rss_mb": "MiB",
}

# Defined and printed in the report line, but not listed in BENCHMARK.json.
NOT_IN_BENCHMARK_JSON = {
    "fail_ratio": "it is 0 on every workload at the seed commit, and a listed end-to-end metric "
                  "must never be 0; the result line's attempted and failed give the same ratio",
}


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def run_benchmark(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    require(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def check_metrics(workload: str, trace: int, spec: dict, per_layer_defined: dict) -> None:
    report, result = run_benchmark(workload, trace)
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
            f"{workload} trace={trace}: {result['failed']} of {result['attempted']} cases failed: "
            f"{report.get('failures')}")
    defined = per_layer_defined if trace else END_TO_END
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name, unit in defined.items():
        got = report["metrics"].get(name)
        require(got is not None and got["unit"] == unit, f"{workload}: report lacks {name} [{unit}]: {got}")
        require(name in listed or name in NOT_IN_BENCHMARK_JSON,
                f"{name} is neither in BENCHMARK.json nor explained in NOT_IN_BENCHMARK_JSON")
    for name, unit in listed.items():
        got = result["metrics"].get(name)
        require(got is not None and got["unit"] == unit, f"{workload}: result lacks {name} [{unit}]")
    require(set(result["metrics"]) == set(listed), f"{workload}: result metrics differ from BENCHMARK.json")
    print(f"ok  {workload} trace={trace}: {result['attempted']} cases, {len(result['metrics'])} metrics")


def check_checkers(workload: str) -> None:
    import tracing
    from workloads import WORKLOADS

    api = tracing.plain_api()
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        wl = WORKLOADS[workload](7, True, workdir)
        wl.setup(api)
        for i in range(wl.round_size):
            case = wl.plan(i)
            inputs = wl.prepare(case)
            out = wl.run(case, inputs, api)
            good = wl.check(case, inputs, out)
            require(all(e <= tol for _, e, tol in good), f"{workload} case {i}: real output rejected {good}")
            try:
                bad = wl.check(case, inputs, wl.perturb(out))
                caught = any(not (e <= tol) for _, e, tol in bad)
            except (ValueError, KeyError, IndexError):
                caught = True
            require(caught, f"{workload} case {i} ({case['stratum']}): "
                            "perturbed output passed the checker")
    print(f"ok  {workload}: checker rejects a perturbed output in all {wl.round_size} strata")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import tracing

    per_layer_defined = {k: u for k, (_, u) in tracing.Tracer().layer_metrics({}).items()}
    per_layer_defined.update({
        "cli.process_s": "s", "cli.import_s": "s", "cli.output_bytes": "bytes",
        "specfun.mittag_leffler.domain_failures": "count", "trace.overhead_ratio": "1",
    })
    from workloads import WORKLOADS

    try:
        for workload in WORKLOADS:
            check_checkers(workload)
            for trace in (0, 1):
                check_metrics(workload, trace, spec, per_layer_defined)
    except CheckFailed as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
