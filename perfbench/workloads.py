"""The benchmark's workloads and the jobs that run them.

A job is one user-visible unit of work on one workload: a library
`beta_sweep`, or the CLI chain `sweep` + `fit` + `report` in subprocesses.
Every job returns its timings and its outputs in one shape (`JobResult`),
so the correctness gate reads library and CLI results alike.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# a single subprocess may not outlive the benchmark's own 180 s limit
SUBPROCESS_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    name: str
    route: str  # "library": in-process beta_sweep; "cli": polymermc subprocesses
    model: dict  # ModelConfig fields; the covariance spec sits under "spec"
    betas: tuple
    horizons: tuple
    n_replicas: int
    workers: int = 1
    fit: dict | None = None

    @property
    def n_values(self) -> int:
        """(beta, t, replica) log Z values one job delivers."""
        return len(self.betas) * len(self.horizons) * self.n_replicas


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="walk-d1-white",
            route="library",
            model={"kind": "lattice-walk", "d": 1, "extent": 64,
                   "spec": {"family": "white_noise", "q0": 1.0}},
            betas=(0.0, 1.0, 2.0, 4.0, 8.0),
            horizons=(2.0, 4.0, 8.0),
            n_replicas=8,
        ),
        Workload(
            name="brownian-d1-powexp",
            route="library",
            model={"kind": "brownian-eps", "d": 1, "extent": 64, "n_paths": 2048,
                   "spec": {"family": "powered_exponential", "q0": 1.0,
                            "holder_h": 0.5, "length_scale": 1.0}},
            betas=(1.5, 3.0, 6.0),
            horizons=(1.0, 2.0, 4.0),
            n_replicas=4,
        ),
        Workload(
            name="cli-walk-d2-spectral",
            route="cli",
            model={"kind": "lattice-walk", "d": 2, "extent": 32,
                   "spec": {"family": "powered_exponential", "q0": 1.0,
                            "holder_h": 0.5, "length_scale": 1.0}},
            betas=(0.5, 1.0, 2.0, 3.0, 4.0),
            horizons=(1.0, 2.0, 4.0),
            n_replicas=8,
            workers=2,
            # at beta=0.5 the 8-replica mean_p is <= 0 in ~0.3% of seeds
            # (0.098 +- 0.036), and fit_power_law then refuses the window;
            # from beta=1 (0.40 +- 0.07) the fit cannot fail that way
            fit={"kind": "power-law", "beta_min": 1.0},
        ),
    )
}


def job_seed(seed: int, job: int) -> int:
    """Master seed of the job-th job of a run: every job sees fresh inputs,
    so no result can be reused from an earlier job."""
    return seed * 1000 + job


@dataclass
class JobResult:
    seed: int
    wall_s: float  # the user-visible job
    sweep_s: float  # the sweep alone
    cpu_s: float  # user + sys of this process and its children
    points: list  # dicts beta, t, mean_p, stderr, boundary_mass for every (beta, t)
    finals: list  # dicts beta, stabilized for the final row per beta
    log_z: dict  # (beta, t) -> per-replica log Z, replica order
    problems: list = field(default_factory=list)  # failed job-level checks
    n_checked: int = 0  # job-level checks attempted
    info: dict = field(default_factory=dict)


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def children_cpu_seconds() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


def build_model(pm, wl: Workload):
    fields = dict(wl.model)
    spec = pm.CovarianceSpec(**fields.pop("spec"))
    return pm.ModelConfig(spec=spec, **fields)


# ---------------------------------------------------------------------------
# library route

def run_library_job(pm, wl: Workload, seed: int, call=None) -> JobResult:
    """One `beta_sweep`; `call(layer, name, fn, *args)` lets a tracer span it."""
    model = build_model(pm, wl)
    args = (model, list(wl.betas), list(wl.horizons), wl.n_replicas, seed)
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    curve = call("free_energy", "beta_sweep", pm.beta_sweep, *args) if call else pm.beta_sweep(*args)
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - c0
    points = [{"beta": p.beta, "t": p.t, "mean_p": p.mean_p, "stderr": p.stderr,
               "boundary_mass": p.boundary_mass} for p in curve.all_points]
    finals = [{"beta": p.beta, "stabilized": p.stabilized} for p in curve.points]
    log_z = {(p.beta, p.t): [float(x) for x in p.log_zs] for p in curve.all_points}
    return JobResult(seed=seed, wall_s=wall, sweep_s=wall, cpu_s=cpu,
                     points=points, finals=finals, log_z=log_z)


def warm_up_library(pm, wl: Workload, seed: int) -> None:
    """Touch every code path of a job once (lazy imports, FFT plans) on the
    smallest sweep with the job's time step: largest beta, shortest horizon."""
    pm.beta_sweep(build_model(pm, wl), [max(wl.betas)], [min(wl.horizons)], 2, seed)


# ---------------------------------------------------------------------------
# CLI route

def cli_config(wl: Workload, seed: int, betas=None, horizons=None, n_replicas=None) -> dict:
    spec = dict(wl.model["spec"])
    cfg = {
        "model": wl.model["kind"],
        "covariance": spec,
        "lattice": {"d": wl.model["d"], "extent": wl.model["extent"]},
        "time": {"horizons": list(horizons or wl.horizons)},
        "sweep": {"betas": list(betas or wl.betas),
                  "n_replicas": n_replicas or wl.n_replicas, "master_seed": seed},
    }
    if wl.fit:
        cfg["fit"] = dict(wl.fit)
    return cfg


def write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=1))  # JSON is valid YAML
    return path


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("POLYMER_THREADS", None)
    return env


def run_cli(argv, env) -> tuple:
    """One `polymermc` subcommand in a fresh interpreter: (exit code,
    output, wall seconds, child CPU seconds)."""
    cmd = [sys.executable, "-m", "polymermc.cli"] + [str(a) for a in argv]
    c0 = children_cpu_seconds()
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    wall = time.perf_counter() - t0
    return proc.returncode, proc.stdout + proc.stderr, wall, children_cpu_seconds() - c0


def run_cli_job(wl: Workload, seed: int, work: Path, env: dict) -> JobResult:
    """`sweep` with the workload's workers, then `fit` and `report`."""
    out = work / f"job-{seed}"
    cfg = write_config(out / "config.yaml", cli_config(wl, seed))
    common = ["--config", cfg, "--out", out, "--seed", seed]
    c0 = resource.getrusage(resource.RUSAGE_SELF)
    sweep_rc, _, sweep_s, sweep_cpu = run_cli(["sweep", *common, "--threads", wl.workers], env)
    fit_rc, _, fit_s, fit_cpu = run_cli(["fit", *common], env)
    rep_rc, rep_log, rep_s, rep_cpu = run_cli(["report", *common], env)
    c1 = resource.getrusage(resource.RUSAGE_SELF)
    own = (c1.ru_utime - c0.ru_utime) + (c1.ru_stime - c0.ru_stime)
    res = read_cli_outputs(wl, seed, out, sweep_rc, fit_rc, rep_rc, rep_log)
    res.wall_s = sweep_s + fit_s + rep_s
    res.sweep_s = sweep_s
    res.cpu_s = own + sweep_cpu + fit_cpu + rep_cpu
    res.info.update({
        "sweep_s": sweep_s, "fit_s": fit_s, "report_s": rep_s,
        "worker_util": sweep_cpu / (wl.workers * sweep_s),
        "checkpoint_bytes": (out / "checkpoint.jsonl").stat().st_size
        if (out / "checkpoint.jsonl").exists() else 0,
        "csv_bytes": sum(p.stat().st_size for p in out.glob("*.csv")),
    })
    return res


def run_cli_inprocess_job(pm_cli, wl: Workload, seed: int, work: Path) -> JobResult:
    """The CLI chain in this process with one worker, so a tracer sees every
    layer below the CLI."""
    out = work / f"inproc-{seed}"
    cfg = write_config(out / "config.yaml", cli_config(wl, seed))
    common = ["--config", str(cfg), "--out", str(out), "--seed", str(seed)]
    c0 = cpu_seconds()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        sweep_rc = pm_cli.main(["sweep", *common, "--threads", "1"])
        t1 = time.perf_counter()
        fit_rc = pm_cli.main(["fit", *common])
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            rep_rc = pm_cli.main(["report", *common])
    wall = time.perf_counter() - t0
    res = read_cli_outputs(wl, seed, out, sweep_rc, fit_rc, rep_rc, report.getvalue())
    res.wall_s, res.sweep_s, res.cpu_s = wall, t1 - t0, cpu_seconds() - c0
    return res


def read_cli_outputs(wl, seed, out: Path, sweep_rc, fit_rc, rep_rc, report_text) -> JobResult:
    """Parse curve.csv, checkpoint.jsonl and fit.csv; record exit-code and
    file checks as job-level checks."""
    res = JobResult(seed=seed, wall_s=0.0, sweep_s=0.0, cpu_s=0.0,
                    points=[], finals=[], log_z={})

    def check(ok, what):
        res.n_checked += 1
        if not ok:
            res.problems.append(what)

    check(sweep_rc == 0, f"sweep exit code {sweep_rc}")
    check(fit_rc == 0, f"fit exit code {fit_rc}")
    # report exits 1 when its battery flags a row; that is a quality flag
    check(rep_rc in (0, 1) and "annealed upper bound" in report_text,
          f"report exit code {rep_rc}")
    curve = out / "curve.csv"
    ckpt = out / "checkpoint.jsonl"
    if sweep_rc != 0 or not curve.exists() or not ckpt.exists():
        return res
    with open(curve, newline="") as fh:
        for row in csv.DictReader(fh):
            res.points.append({k: float(row[k]) for k in
                               ("beta", "t", "mean_p", "stderr", "boundary_mass")})
            if row["stabilized"] != "":
                res.finals.append({"beta": float(row["beta"]),
                                   "stabilized": row["stabilized"] == "1"})
    by_key = {}
    with open(ckpt) as fh:
        lines = fh.read().splitlines()
    for line in lines[1:]:
        rec = json.loads(line)
        by_key[(rec["beta"], rec["t"], rec["replica"])] = rec["log_z"]
    res.info["checkpoint_records"] = len(lines) - 1
    check(len(by_key) == wl.n_values, f"checkpoint holds {len(by_key)} of {wl.n_values} records")
    for beta in wl.betas:
        for t in wl.horizons:
            res.log_z[(beta, t)] = [by_key.get((beta, t, r), math.nan)
                                    for r in range(wl.n_replicas)]
    if fit_rc == 0 and (out / "fit.csv").exists():
        with open(out / "fit.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        est, lo, hi = (float(row[k]) for k in ("estimate", "ci_lo", "ci_hi"))
        check(math.isfinite(est) and lo <= est <= hi, f"fit estimate {est} outside CI ({lo}, {hi})")
    else:
        check(False, "fit.csv missing")
    return res


# ---------------------------------------------------------------------------
# set-up time

def probe_command(wl: Workload, seed: int, root: Path, work: Path) -> list:
    """A fresh interpreter that stops right after its first log Z: the
    smallest job with the workload's time step (largest beta, shortest
    horizon, two replicas, the minimum a sweep accepts)."""
    if wl.route == "cli":
        cfg = cli_config(wl, seed, betas=[max(wl.betas)], horizons=[min(wl.horizons)],
                         n_replicas=2)
        path = write_config(work / "probe" / "config.yaml", cfg)
        return [sys.executable, "-m", "polymermc.cli", "sweep", "--config", str(path),
                "--out", str(work / "probe"), "--threads", str(wl.workers)]
    return [sys.executable, str(root / "perfbench" / "setup_probe.py"), wl.name, str(seed)]


def setup_seconds(wl: Workload, seed: int, root: Path, work: Path, env: dict) -> float:
    """Seconds from spawning a fresh interpreter to its first line of output,
    which it prints once the first log Z exists."""
    cmd = probe_command(wl, seed, root, work)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not first:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err[-2000:]}")
    return elapsed
