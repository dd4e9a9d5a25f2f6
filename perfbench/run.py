"""Benchmark entry point for paulimeter.

    python3 perfbench/run.py --workload pool-sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  Workloads: pool-sweep, certify-n6,
cli-pipeline, shadows-n8 (see perfbench/README.md).

With ``--trace 0`` it first times ``SETUP_PROBES`` fresh interpreters that
import ``paulimeter.cli`` and make the workload's inputs (``setup_s``), then
runs the workload process for ``--seconds`` and reports the end-to-end
metrics.  With ``--trace 1`` it reports the per-layer metrics of one traced
pass instead.  Every child process gets BLAS pinned to one thread.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with the
environment it was measured in, is also written to
``.perfbench_out/result-<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
DEADLINE_S = 170.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of the package sources, which identifies the measured code
    where the checkout carries no git metadata."""
    h = hashlib.sha256()
    pkg = ROOT / "src" / "paulimeter"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one paulimeter benchmark workload.")
    p.add_argument("--workload", required=True, help="see perfbench/README.md")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="test-size inputs (benchmark self-tests)")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "paulimeter" / "cli.py").is_file():
        print(f"error: no paulimeter sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **SINGLE_THREAD)
    base = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
            "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])

    def child(extra: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(base + extra, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))

    try:
        setup = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            t0 = time.perf_counter()
            probe = child(["--setup-only"])
            setup.append(time.perf_counter() - t0)
            if probe.returncode != 0:
                print(f"error: set-up probe exited {probe.returncode}", file=sys.stderr)
                return 1
        proc = child(["--seconds", str(args.seconds), "--trace", str(args.trace)])
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload process exited {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in res["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    line = {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, tiny=args.tiny, passes_s=res["passes"], setup_probes_s=setup,
                  jobs=res["jobs"], failures=res["failures"],
                  environment=dict(res["environment"], git_sha=_git_sha(),
                                   source_sha256=_source_sha256()))
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} jobs={res['jobs']}: {len(res['passes'])} "
          f"{'untraced' if args.trace else 'timed'} passes, median {statistics.median(res['passes']):.4f} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {res['failed']}/{res['attempted']}")
    for failure in res["failures"]:
        print(f"  FAILED: {failure}")
    print(f"  environment: {json.dumps(record['environment'])}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
