"""Workload process of the benchmark.

Runs passes of one workload in this fresh interpreter and prints, as its
last stdout line, one JSON object with the measured metrics, the check
counts and the environment.  ``run.py`` starts it with BLAS pinned to one
thread; run that script rather than this one.

With ``--trace 0`` it repeats checked passes for ``--seconds`` and
reports the median pass time.  With ``--trace 1`` it times serial passes,
then one traced serial pass, then (for a fan-out workload) one parallel
pass, and reports the per-layer metrics of the traced pass.  The first
pass is checked in full and every later pass against its output bytes.
``--setup-only`` stops after making the inputs; ``run.py`` times that as the
set-up cost.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the src path above)
from spans import LAYERS, Tracer, summarize  # noqa: E402

MIN_PASSES = 3          # median of at least three passes for run_s
MIN_TRACE_BASELINE = 2  # untraced serial passes the traced pass is compared with


def _passes(wl, inputs, ref, workdir, jobs, checks, seconds, min_passes, reserve):
    """Run passes until the next one (plus ``reserve`` passes still to come)
    would overrun ``seconds``.  The first pass's output is checked in full;
    every later pass must give the same bytes.  Returns the pass wall times
    and the first pass's output."""
    walls = []
    first = None
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        result = wl.run(inputs, workdir, jobs)
        walls.append(time.perf_counter() - t0)
        out = wl.outputs(result, workdir)
        if first is None:
            wl.check(inputs, ref, out, checks)
            first = out
        else:
            checks.true("same seed gives byte-identical output", out == first)
        spent = time.perf_counter() - start
        if len(walls) >= min_passes and spent + statistics.median(walls) * (1 + reserve) > seconds:
            return walls, first


def _peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus ``workers`` times the largest worker's
    peak; pages a forked worker shares with this process count in both."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def untraced(wl, inputs, ref, workdir, seconds, checks) -> dict:
    walls, _ = _passes(wl, inputs, ref, workdir, wl.jobs, checks, seconds, MIN_PASSES, 0.0)
    run_s = statistics.median(walls)
    return {
        "metrics": {
            "run_s": (run_s, "s"),
            "shots_per_s": (wl.shots / run_s, "1/s"),
            "peak_rss_mb": (_peak_rss_mb(wl.jobs if wl.jobs > 1 else 0), "MB"),
        },
        "passes": walls,
    }


def traced(wl, inputs, ref, workdir, seconds, checks, trace_id) -> dict:
    reserve = 1.2 + (1.0 / wl.jobs if wl.jobs > 1 else 0.0)
    walls, first = _passes(wl, inputs, ref, workdir, 1, checks, seconds,
                           MIN_TRACE_BASELINE, reserve)
    gc.collect()
    with Tracer(trace_id) as tracer:
        result = tracer.run("pass", wl.run, inputs, workdir, 1)
    for name in tracer.missing:
        checks.true(f"tracer finds {name}", False)
    out = wl.outputs(result, workdir)
    checks.true("traced pass gives the untraced output bytes", out == first)
    fanout = 0.0
    if wl.jobs > 1:
        gc.collect()
        t0 = time.perf_counter()
        result = wl.run(inputs, workdir, wl.jobs)
        parallel_s = time.perf_counter() - t0
        out_par = wl.outputs(result, workdir)
        checks.true(f"jobs={wl.jobs} output bytes equal the serial traced pass", out_par == out)
        fanout = statistics.median(walls) / (wl.jobs * parallel_s)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(str(OUT_DIR / f"spans-{trace_id}.jsonl"))
    metrics = layer_metrics(tracer.spans, statistics.median(walls), fanout)
    # a zero here means the tracer no longer sees calls the workload makes
    for name in wl.TRACED:
        checks.true(f"traced {name} is not 0", metrics[name][0] > 0)
    return {"metrics": metrics, "passes": walls}


def layer_metrics(spans, untraced_s: float, fanout: float) -> dict:
    stats = summarize(spans)

    def get(name: str, key: str = "s"):
        return stats.get(name, {}).get(key, 0)

    sim_calls = get("states.simulate", "calls")
    pass_s = get("pass")
    m = {
        "states.simulate_s": (get("states.simulate"), "s"),
        "states.simulate_calls": (sim_calls, "count"),
        "states.simulate_ms_per_call": (1e3 * get("states.simulate") / sim_calls if sim_calls else 0.0, "ms"),
        "states.repeat_basis_frac": (get("states.simulate", "value") / sim_calls if sim_calls else 0.0, "ratio"),
        "estimators.estimate_s": (get("estimators.estimate"), "s"),
        "estimators.records_in": (get("estimators.estimate", "value"), "count"),
        "paulis.codes_s": (get("paulis.codes"), "s"),
        "paulis.codes_calls": (get("paulis.codes", "calls"), "count"),
        "formats.write_s": (get("formats.write"), "s"),
        "formats.parse_s": (get("formats.parse"), "s"),
        "formats.bytes": (get("formats.write", "value") + get("formats.parse", "value"), "B"),
        "schemes.plan_s": (get("schemes.plan"), "s"),
        "schemes.plan_calls": (get("schemes.plan", "calls"), "count"),
        "schemes.draw_s": (get("schemes.draw"), "s"),
        "shadows.collect_s": (get("shadows.collect"), "s"),
        "shadows.purity_s": (get("shadows.purity"), "s"),
        "shadows.pt_s": (get("shadows.pt"), "s"),
        "shadows.pt_calls": (get("shadows.pt", "calls"), "count"),
        "shadows.pt_peak_bytes": (get("shadows.pt", "max_value"), "B"),
        "experiments.fanout_efficiency": (fanout, "ratio"),
    }
    for cmd in ("plan", "sample", "estimate", "shadows", "purity"):
        m[f"cli.{cmd}_s"] = (get(f"cli.{cmd}"), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(st["self_s"] for name, st in stats.items()
                                    if name.startswith(layer + ".")), "s")
    m["trace.pass_s"] = (pass_s, "s")
    m["trace.unattributed_s"] = (get("pass", "self_s"), "s")
    m["trace.overhead_frac"] = (pass_s / untraced_s - 1.0, "ratio")
    return m


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="test-size inputs")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    wl.jobs = min(wl.jobs, len(os.sched_getaffinity(0)))
    inputs = wl.setup(args.seed)
    if args.setup_only:
        return 0
    ref = wl.reference(inputs)
    checks = workloads.Checks()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        if args.trace:
            trace_id = f"{args.workload}-seed{args.seed}"
            res = traced(wl, inputs, ref, workdir, args.seconds, checks, trace_id)
        else:
            res = untraced(wl, inputs, ref, workdir, args.seconds, checks)
    res.update(attempted=checks.attempted, failed=checks.failed,
               failures=checks.failures[:20], jobs=wl.jobs, environment=environment())
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
