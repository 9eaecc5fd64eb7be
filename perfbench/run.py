"""polymermc benchmark: runs one workload for a fixed time and prints one
JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  With `--trace 0` the result holds the end-to-end metrics, measured
with tracing off.  With `--trace 1` it holds the per-layer metrics of a
traced run (see tracer.py) and the manifest records the tracing overhead.
Every job's outputs pass through the correctness gate (checks.py) in both
modes.  Workloads, metrics and the layer map are described in README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import REF_RTOL, Gate
from tracer import LAYER_METRICS, Tracer, layer_metrics
from workloads import (WORKLOADS, child_env, job_seed, run_cli_inprocess_job, run_cli_job,
                       run_library_job, setup_seconds, warm_up_library)

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9  # fresh interpreters per run; set-up time is their median


def peak_rss_mb(include_self: bool) -> float:
    """Peak resident set, maximum over this process (optionally) and every
    child and grandchild it has waited for."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if include_self else 0
    return max(kids, own) / 1024.0  # ru_maxrss is in KiB on Linux


def run_jobs(run_one, seconds: float) -> list:
    """Closed loop: start the next job only while it is expected to end
    inside the window; at least two jobs, so every median has two samples."""
    jobs = []
    t0 = time.perf_counter()
    while True:
        jobs.append(run_one(len(jobs)))
        elapsed = time.perf_counter() - t0
        if len(jobs) >= 2 and elapsed + statistics.median(j.wall_s for j in jobs) > seconds:
            return jobs


def untraced(pm, wl, seed, seconds, work, env, gate):
    setup = [setup_seconds(wl, seed, ROOT, work, env) for _ in range(SETUP_PROBES)]
    if wl.route == "library":
        warm_up_library(pm, wl, seed)
        jobs = run_jobs(lambda i: run_library_job(pm, wl, job_seed(seed, i)), seconds)
    else:
        jobs = run_jobs(lambda i: run_cli_job(wl, job_seed(seed, i), work, env), seconds)
    rss = peak_rss_mb(include_self=wl.route == "library")
    for res in jobs:
        gate.job(wl, res)
    metrics = {
        "logz_per_s": (statistics.median(wl.n_values / j.sweep_s for j in jobs), "1/s"),
        "job_s": (statistics.median(j.wall_s for j in jobs), "s"),
        "cpu_s": (statistics.median(j.cpu_s for j in jobs), "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    info = {"jobs": len(jobs), "setup_probes": len(setup),
            "job_s_samples": [round(j.wall_s, 4) for j in jobs]}
    return metrics, info


def traced(pm, wl, seed, seconds, work, env, gate):
    """Untraced and traced jobs alternate, so the overhead estimate sees the
    same machine state on both sides."""
    plain, marked, layers, spans_out = [], [], [], []
    outside = {}
    t0 = time.perf_counter()
    if wl.route == "library":
        warm_up_library(pm, wl, seed)
        top = "beta_sweep"

        def one(s, tracer=None):
            return run_library_job(pm, wl, s, call=tracer.call if tracer else None)
    else:
        # the process pool hides the layers below the CLI, so the cli layer
        # is timed from outside a run with the workload's workers, and the
        # other layers are traced in-process with one worker
        sub = run_cli_job(wl, job_seed(seed, 0), work, env)
        gate.job(wl, sub)
        outside = {
            "cli.sweep_s": sub.info["sweep_s"],
            "cli.worker_util": sub.info["worker_util"],
            "cli.checkpoint_bytes": sub.info["checkpoint_bytes"],
            "cli.checkpoint_records": sub.info.get("checkpoint_records"),
            "cli.csv_bytes": sub.info["csv_bytes"],
            "cli.fit_s": sub.info["fit_s"],
            "cli.report_s": sub.info["report_s"],
        }
        pm_cli = importlib.import_module("polymermc.cli")
        top = "cli_sweep"

        def one(s, tracer=None):
            return run_cli_inprocess_job(pm_cli, wl, s, work)

    missing = set()
    i = 1
    while True:
        plain.append(one(job_seed(seed, i)))
        with Tracer() as tr:
            marked.append(one(job_seed(seed, i + 1), tr))
        spans = tr.take()
        missing |= tr.missing | tr.uncounted
        # reliable=False is only visible on the estimates the tracer sees
        gate.flags["reliable_false"] = gate.flags.get("reliable_false", 0) + sum(
            s.get("counts", {}).get("unreliable", False) for s in spans)
        layers.append(layer_metrics(spans, top))
        spans_out.append(spans)
        for r in (plain[-1], marked[-1]):
            gate.job(wl, r)
        i += 2
        pair = plain[-1].wall_s + marked[-1].wall_s
        if time.perf_counter() - t0 + pair > seconds:
            break

    def med(key):
        vals = [m[key] for m in layers if m[key] is not None]
        return statistics.median(vals) if vals else None

    values = {name: med(name) if name in layers[0] else outside.get(name)
              for name in LAYER_METRICS}
    absent = sorted(name for name, (_, _, hooks) in LAYER_METRICS.items()
                    if values[name] is None or (hooks and set(hooks) <= missing))
    metrics = {name: (0 if name in absent else values[name], LAYER_METRICS[name][0])
               for name in LAYER_METRICS}
    base = statistics.median(j.sweep_s for j in plain)
    traced_sweep = statistics.median(j.sweep_s for j in marked)
    info = {
        "traced_jobs": len(marked), "untraced_jobs": len(plain),
        "trace_overhead_s": traced_sweep - base,
        "trace_overhead_frac": (traced_sweep - base) / base,
        "trace_coverage": med("trace.coverage"),
        "missing_hooks": sorted(missing),
        "absent": absent,
    }
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    (ROOT / ".perfbench" / f"spans-{wl.name}.json").write_text(json.dumps(spans_out, default=str))
    return metrics, info


def src_identity(src: Path) -> dict:
    files = sorted((src / "polymermc").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16], "src_lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "polymermc" / "__init__.py").is_file():
        print(f"perfbench: no polymermc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import polymermc as pm

    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(src)
    gate = Gate()
    try:
        run = traced if args.trace else untraced
        metrics, info = run(pm, wl, args.seed, args.seconds, work, env, gate)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    manifest = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "workers": wl.workers, "values_per_job": wl.n_values,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, **src_identity(src), **info,
        "checks": {"attempted": gate.attempted, "failed": gate.failed,
                   "error_rate": gate.failed / max(gate.attempted, 1),
                   "ref_rtol": REF_RTOL, "failures": gate.failures[:10]},
        "quality_flags": gate.flags,
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>14.6g} {unit}")
    print("manifest " + json.dumps(manifest))
    print(json.dumps({
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
