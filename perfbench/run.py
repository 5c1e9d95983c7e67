#!/usr/bin/env python3
"""Benchmark of fracvar's pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload deriv-long --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The program under test is imported from
``src/``; the CLI workload runs it as ``python -m fracvar.cli``. One caller
runs one case at a time (a closed loop, no worker pool), with BLAS threads
capped at one.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that wraps the calls into each layer (see `tracing`) and reports the
per-layer metrics. The second-to-last line of standard output is a report
with the environment, the work sizes and every metric, including those not
listed in BENCHMARK.json; the last line is the result:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: np.convolve's long dot products split over two threads ran
# 6% noisier per call and stalled 1.1 s on the first large call, against 1%
# noise and no stall with one thread (2-vCPU Xeon, OpenBLAS 0.3.31).
BLAS_THREADS = "1"
SETUP_SAMPLES = 3  # this process plus two fresh ones
WALL_CAP_S = 140.0  # stop early rather than overrun the 180 s limit on a run


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny grids, for the self-check")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (one setup_s sample)")
    return ap.parse_args(argv)


def environment(np) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            fields = {}
            for f in ("level", "type", "size"):
                with open(os.path.join(base, idx, f), encoding="utf-8") as fh:
                    fields[f] = fh.read().strip()
        except OSError:
            continue
        caches[f"L{fields['level']}-{fields['type'].lower()}"] = fields["size"]
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": NPROC, "cpu": cpu, "caches": caches, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loop": "closed, one caller, one case at a time",
    }


def tail(times: list) -> tuple:
    """Highest percentile with at least ten cases beyond it: (value, percentile)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Run:
    """Cases executed in one phase, with their timings and check results."""

    def __init__(self):
        self.times, self.errors, self.failures, self.work = [], [], [], []
        self.by_stratum = {}

    def stratum_medians_ms(self) -> dict:
        return {k: 1e3 * statistics.median(v) for k, v in sorted(self.by_stratum.items())}

    @property
    def attempted(self) -> int:
        return len(self.times)

    def record(self, case, dt, checks, exc):
        self.times.append(dt)
        self.work.append(case["work"])
        self.by_stratum.setdefault(case["stratum"], []).append(dt)
        if exc is not None:
            self.failures.append({"case": case["index"], "error": repr(exc)[:200]})
            return
        bad = [(lbl, e, tol) for lbl, e, tol in checks if not (math.isfinite(e) and e <= tol)]
        if bad:
            self.failures.append({"case": case["index"], "checks": [[lbl, e, tol] for lbl, e, tol in bad]})
        else:
            self.errors.append(max(e for _, e, _ in checks))


def execute(wl, api, count, tracer=None) -> Run:
    """Run cases 0 .. count-1. Input preparation and checks sit outside the
    timed region; a run that passes WALL_CAP_S stops early."""
    run = Run()
    wall0 = perf_counter()
    for i in range(count):
        case = wl.plan(i)
        case["work"] = wl.work(case)
        inputs = wl.prepare(case)
        if tracer is not None:
            tracer.case = i
        exc = out = None
        t0 = perf_counter()
        try:
            out = wl.run(case, inputs, api)
        except Exception as e:  # a failed case is data, not a crash
            exc = e
        dt = perf_counter() - t0
        checks = None
        if exc is None:
            try:
                checks = wl.check(case, inputs, out)
            except Exception as e:  # an output the checker cannot read fails the case
                exc = e
        run.record(case, dt, checks, exc)
        if perf_counter() - wall0 > WALL_CAP_S:
            break
    return run


def setup_samples(args, own: float) -> list:
    """setup_s samples: this process, then fresh processes doing the same set-up."""
    samples = [own]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--toy"] if args.toy else [])
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def work_summary(run: Run) -> dict:
    grids = sorted({w["grid"] for w in run.work})
    return {
        "cases": run.attempted,
        "grid_sizes": grids,
        "array_bytes_per_grid": {str(g): 8 * g for g in grids},
        "history_macs_computed": sum(w.get("history_macs", 0) for w in run.work),
        "note": "array bytes and MACs are computed from the grid sizes, not measured",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fracvar", "__init__.py")):
        print(f"error: fracvar sources not found at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    # Set-up time starts here: importing numpy and fracvar, generating inputs
    # and warming up. The benchmark's own modules add only their definitions;
    # mpmath, which the checks use, is imported at the first check.
    t_setup = perf_counter()
    import numpy as np

    import tracing
    import workloads
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.toy, workdir)
        api = tracing.plain_api()
        wl.setup(api)
        own_setup = perf_counter() - t_setup
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup}))
            return 0
        if args.trace:
            report, result = traced_run(args, wl, api, tracing, workloads)
        else:
            report, result = timed_run(args, wl, api, own_setup, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["env"] = environment(np)
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def timed_run(args, wl, api, own_setup, workloads):
    run = execute(wl, api, wl.cases_for(args.seconds))
    usage = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    probe = workloads.mlf_probe(api, args.seed) if wl.name == "cli" else None
    setups = setup_samples(args, own_setup)
    tail_value, tail_pct = tail(run.times)
    failed = len(run.failures)
    metrics = {
        "case_p50_ms": (1e3 * statistics.median(run.times), "ms"),
        "case_tail_ms": (1e3 * tail_value, "ms"),
        "cases_per_s": (run.attempted / sum(run.times), "1/s"),
        "accuracy_err": (max(run.errors) if run.errors else math.inf, "1"),
        "fail_ratio": (failed / run.attempted, "1"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    report = {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "case_tail": {"percentile": tail_pct, "cases": run.attempted},
        "setup_samples_s": setups,
        "stratum_p50_ms": run.stratum_medians_ms(),
        "work": work_summary(run),
        "failures": run.failures[:20],
    }
    if probe is not None:
        report["mlf_domain_probe"] = probe
    listed = {m["name"] for m in benchmark_spec()["end_to_end"]}
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k in listed}}
    return report, result


def traced_run(args, wl, api, tracing, workloads):
    """Untraced cases first, then the same cases traced; per-layer metrics."""
    runs = []
    extra = {"cli.process_s": (0.0, "s"), "cli.output_bytes": (0, "bytes")}
    if wl.name == "cli":
        # Subprocess wall per case, then the same argv lists through main()
        # in this process, untraced and traced.
        sub = execute(wl, api, wl.cases_for(args.seconds / 3.0))
        runs.append(sub)
        extra["cli.process_s"] = (statistics.median(sub.times), "s")
        wl.in_process = True
        base = execute(wl, api, sub.attempted)
    else:
        base = execute(wl, api, wl.cases_for(args.seconds / 3.0))
    runs.append(base)
    tracer = tracing.Tracer()
    wl.output_bytes = 0
    with tracer.installed() as traced_api:
        run = execute(wl, traced_api, base.attempted, tracer=tracer)
    runs.append(run)
    if wl.name == "cli":
        extra["cli.output_bytes"] = (wl.output_bytes, "bytes")
    # Program-wide measurements, taken outside the traced cases.
    extra["cli.import_s"] = (workloads.import_seconds(), "s")
    probe = workloads.mlf_probe(api, args.seed)
    extra["specfun.mittag_leffler.domain_failures"] = (probe["failed"], "count")
    extra["trace.overhead_ratio"] = (sum(run.times) / sum(base.times), "1")
    metrics = tracer.layer_metrics(extra)
    spans_path = os.path.join(HERE, "out", f"spans-{wl.name}-seed{args.seed}.jsonl")
    tracer.write(spans_path)
    failed = sum(len(r.failures) for r in runs)
    attempted = sum(r.attempted for r in runs)
    report = {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "target_share": target_share(wl.name, tracer, sum(run.times), extra),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "spans": len(tracer.spans),
        "mlf_domain_probe": probe,
        "work": work_summary(run),
        "failures": [f for r in runs for f in r.failures][:20],
    }
    listed = {m["name"] for m in benchmark_spec()["per_layer"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k in listed}}
    return report, result


def target_share(name, tracer, case_s, extra) -> dict:
    """Share of traced case time spent in the layer each workload targets."""
    b, s = tracer.busy, tracer.self_s
    if name == "deriv-long":
        return {"fracops": (b["fracops.frac_deriv"] + b["fracops.frac_deriv_from_base"]) / case_s}
    if name == "variational":
        own = sum(s[f"varcalc.{f}"] for f in ("el_residual", "action", "el_explicit_rhs", "make_lagrangian"))
        return {"varcalc_self_plus_callbacks": (own + b["varcalc.callback"]) / case_s}
    if name == "solve":
        return {"fodesolve": (b["fodesolve.solve_multiterm"] + b["fodesolve.solve_fode2"]) / case_s}
    process = extra["cli.process_s"][0]
    in_process = case_s / max(tracer.calls["cli.main"], 1)
    return {"process_start": max(process - in_process, 0.0) / process,
            "cli_main_self_of_in_process": s["cli.main"] / case_s}


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
