"""Configuration-driven front end: sweeps, validation batteries, fits.

Subcommands: validate-env, sweep, fit, oracle-check, report.
Exit codes: 0 ok, 1 validation failure, 2 config error, 3 resume mismatch.

The sweep is resumable and deterministic: a task is one replica at every
(beta, t), its results are keyed by (beta, t, replica), each key is a pure
function of the config digest and master seed, and results are reduced in
key order, so worker count and interruption never change an output byte.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from .covariance import CovarianceSpec, Lattice, validate_spec
from .environment import TimeGrid, empirical_covariance_check, max_pair_identity_check, sample_slab
from .free_energy import (
    FreeEnergyCurve,
    FreeEnergyPoint,
    ModelConfig,
    compensated_values,
    fit_log_corrected,
    fit_power_law,
    invariant_report,
    single_replica_log_z,
    sweep_curve,
    sweep_grids,
)
from .partition import WalkKernel, annealed_mean_check, enumerate_logZ, transfer_matrix_logZ

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RESUME = 3

_SCHEMA = {
    "model": None,
    "covariance": {"family", "q0", "holder_h", "length_scale", "gamma", "amplitude",
                   "cutoff", "table"},
    "lattice": {"d", "extent"},
    "time": {"horizons"},
    "sweep": {"betas", "n_replicas", "master_seed"},
    "fit": {"kind", "gamma", "beta_min"},
    "brownian": {"eps_prefactor", "n_paths"},
    "output": {"dir"},
}

_REQUIRED = {
    "covariance": ("family", "q0"),
    "lattice": ("d", "extent"),
    "time": ("horizons",),
    "sweep": ("betas", "n_replicas", "master_seed"),
}

CURVE_COLUMNS = [
    "model", "d", "family", "params_digest", "beta", "t", "n_steps", "epsilon",
    "n_replicas", "mean_p", "stderr", "margin", "stabilized", "boundary_mass",
    "seed", "config_digest",
]


class ConfigError(ValueError):
    pass


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    for key, val in raw.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        allowed = _SCHEMA[key]
        if allowed is not None:
            if not isinstance(val, dict):
                raise ConfigError(f"config block {key!r} must be a mapping")
            for sub in val:
                if sub not in allowed:
                    raise ConfigError(f"unknown config key {key!r}.{sub!r}")
    for required in ("model", "covariance", "lattice", "time", "sweep"):
        if required not in raw:
            raise ConfigError(f"missing config block {required!r}")
    for block, keys in _REQUIRED.items():
        for key in keys:
            if key not in raw[block]:
                raise ConfigError(f"missing config key {block!r}.{key!r}")
    return raw


def config_digest(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def build_model(raw: dict) -> ModelConfig:
    cov = dict(raw["covariance"])
    table = cov.pop("table", None)
    if table is not None:
        table = {tuple(json.loads(k) if isinstance(k, str) else k): v for k, v in table.items()}
    spec = CovarianceSpec(table=table, **cov)
    lat = raw["lattice"]
    br = raw.get("brownian", {})
    return ModelConfig(
        kind=raw["model"],
        spec=spec,
        d=int(lat["d"]),
        extent=int(lat["extent"]),
        eps_prefactor=float(br.get("eps_prefactor", 1.0)),
        n_paths=int(br.get("n_paths", 2048)),
    )


# ---------------------------------------------------------------------------
# sweep driver

def _run_tasks(model, betas, grids, seed, replicas, threads):
    """(replica, {(beta, t): (log Z, boundary mass)}) per task, in
    completion order."""
    if threads <= 1:
        for r in replicas:
            yield r, single_replica_log_z(model, betas, grids, seed, r)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            futures = {pool.submit(single_replica_log_z, model, betas, grids, seed, r): r
                       for r in replicas}
            for fut in concurrent.futures.as_completed(futures):
                yield futures[fut], fut.result()


def _read_checkpoint(path: Path, digest: str, seed: int):
    """Records of an interrupted sweep, {(beta, t, replica): (log Z,
    boundary mass)}, or None when not even the header line survived.

    A crash mid-write leaves a torn last line; the file is cut back to its
    last complete line, and the replicas with missing keys are recomputed.
    """
    data = path.read_bytes()
    complete = data.rfind(b"\n") + 1
    lines = data[:complete].decode().splitlines()
    if not lines:
        return None
    header = json.loads(lines[0])
    if header.get("config_digest") != digest or header.get("master_seed") != seed:
        raise ResumeMismatch(
            f"checkpoint digest {header.get('config_digest')} does not match {digest}"
        )
    if complete < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(complete)
    done = {}
    for line in lines[1:]:
        rec = json.loads(line)
        done[(rec["beta"], rec["t"], rec["replica"])] = (rec["log_z"], rec["boundary_mass"])
    return done


def run_sweep(raw, out_dir: Path, seed_override=None, threads=1, resume=False):
    model = build_model(raw)
    digest = config_digest(raw)
    sweep = raw["sweep"]
    seed = int(seed_override if seed_override is not None else sweep["master_seed"])
    betas = sorted(float(b) for b in sweep["betas"])
    n_replicas = int(sweep["n_replicas"])
    grids = sweep_grids(model, betas, sorted(float(t) for t in raw["time"]["horizons"]))
    keys = [(beta, grid.horizon) for beta in betas for grid in grids]

    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "checkpoint.jsonl"
    done = _read_checkpoint(ckpt_path, digest, seed) if resume and ckpt_path.exists() else None
    if done is None:
        done = {}
        ckpt = open(ckpt_path, "w")
        ckpt.write(json.dumps({"config_digest": digest, "master_seed": seed}) + "\n")
        ckpt.flush()
    else:
        ckpt = open(ckpt_path, "a")

    # a task is one replica with every (beta, t) pair; a replica missing any
    # key is recomputed whole, and only its missing records are written
    replicas = [r for r in range(n_replicas) if any(k + (r,) not in done for k in keys)]
    try:
        for r, values in _run_tasks(model, betas, grids, seed, replicas, threads):
            records = []
            for beta, t in keys:
                if (beta, t, r) in done:
                    continue
                log_z, boundary = done[(beta, t, r)] = values[(beta, t)]
                records.append(json.dumps({
                    "beta": beta, "t": t, "replica": r,
                    "log_z": log_z, "boundary_mass": boundary,
                }) + "\n")
            ckpt.write("".join(records))
            ckpt.flush()
    finally:
        ckpt.close()

    curve = sweep_curve(model, betas, grids, n_replicas, done, seed, digest)
    write_curve_csv(out_dir / "curve.csv", curve, digest)
    return curve


def write_curve_csv(path, curve: FreeEnergyCurve, digest: str):
    model = curve.model
    q0 = model.spec.q0
    final_by_key = {(p.beta, p.t): p for p in curve.points}
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=CURVE_COLUMNS)
        w.writeheader()
        for p in curve.all_points:
            final = final_by_key.get((p.beta, p.t))
            stab = "" if final is None else str(int(bool(final.stabilized)))
            w.writerow({
                "model": p.model,
                "d": model.d,
                "family": model.spec.family,
                "params_digest": model.spec.params_digest(),
                "beta": repr(p.beta),
                "t": repr(p.t),
                "n_steps": p.n_steps,
                "epsilon": repr(p.epsilon),
                "n_replicas": p.n_replicas,
                "mean_p": repr(p.mean_p),
                "stderr": repr(p.stderr),
                "margin": repr(p.margin(q0)),
                "stabilized": stab,
                "boundary_mass": repr(p.boundary_mass),
                "seed": curve.master_seed,
                "config_digest": digest,
            })


def read_curve_csv(path, model: ModelConfig, seed: int) -> FreeEnergyCurve:
    finals, all_points = [], []
    with open(path) as fh:
        for row in csv.DictReader(fh):
            pt = FreeEnergyPoint(
                beta=float(row["beta"]),
                t=float(row["t"]),
                n_steps=int(row["n_steps"]),
                mean_p=float(row["mean_p"]),
                stderr=float(row["stderr"]),
                n_replicas=int(row["n_replicas"]),
                model=row["model"],
                epsilon=float(row["epsilon"]),
                boundary_mass=float(row["boundary_mass"]),
                stabilized=bool(int(row["stabilized"])) if row["stabilized"] else None,
            )
            all_points.append(pt)
            if row["stabilized"] != "":
                finals.append(pt)
    finals.sort(key=lambda p: p.beta)
    return FreeEnergyCurve(points=finals, all_points=all_points, model=model,
                           master_seed=seed)


class ResumeMismatch(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# subcommands

def cmd_validate_env(raw, out_dir, seed, threads):
    model = build_model(raw)
    lattice = model.lattice(beta=1.0)
    report = validate_spec(model.spec, lattice)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "validation.csv", "w", newline="") as fh:
        row = report.csv_row()
        row["config_digest"] = config_digest(raw)
        row["seed"] = seed
        w = csv.DictWriter(fh, fieldnames=list(row))
        w.writeheader()
        w.writerow(row)

    grid = TimeGrid(horizon=1.0, n_steps=20)
    env = empirical_covariance_check(model.spec, lattice, grid, n_replicas=400, seed=seed)
    site_b = np.zeros(model.d, int)
    site_b[0] = 1
    pair = max_pair_identity_check(model.spec, lattice, np.zeros(model.d, int), site_b,
                                   duration=1.0, n_replicas=2000, seed=seed)
    with open(out_dir / "environment_checks.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["probe", "target", "estimate", "stderr", "z", "pass",
                    "config_digest", "seed"])
        for rep in (env, pair):
            for p in rep.probes:
                w.writerow([p.label, repr(p.target), repr(p.estimate), repr(p.stderr),
                            repr(p.z), int(abs(p.z) <= 4), config_digest(raw), seed])
    ok = report.passed and env.passed and pair.passed
    print(f"validate-env: spec {'PASS' if report.passed else 'FAIL'}, "
          f"covariance battery {'PASS' if env.passed else 'FAIL'}, "
          f"max-pair identity {'PASS' if pair.passed else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_oracle_check(raw, out_dir, seed, threads):
    model = build_model(raw)
    spec = model.spec
    ok = True
    for d, L, n in ((1, 7, 6), (2, 5, 4)):
        lattice = Lattice(dim=d, extent=L)
        grid = TimeGrid(horizon=n * 0.04 / d, n_steps=n)
        kernel = WalkKernel(d, grid.dt)
        for rep in range(5):
            slab = sample_slab(spec, lattice, grid, seed, rep)
            a = transfer_matrix_logZ(slab, 1.0, kernel).log_z
            b = enumerate_logZ(slab, 1.0, kernel).log_z
            rel = abs(a - b) / max(1.0, abs(b))
            if rel > 1e-10:
                ok = False
            print(f"oracle d={d} L={L} n={n} rep={rep}: transfer={a:.12f} "
                  f"enumerate={b:.12f} rel={rel:.2e}")
    lattice = model.lattice(beta=0.5)
    grid = TimeGrid(horizon=2.0, n_steps=max(40, int(2.0 / model.dt_target(0.5))))
    ann = annealed_mean_check(spec, lattice, grid, WalkKernel(model.d, grid.dt),
                              beta=0.5, n_replicas=2000, seed=seed)
    for p in ann.probes:
        print(f"annealed: target={p.target:.6f} estimate={p.estimate:.6f} z={p.z:+.2f}")
    ok = ok and ann.passed
    print(f"oracle-check: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_fit(raw, out_dir, seed, threads):
    model = build_model(raw)
    curve_path = out_dir / "curve.csv"
    if not curve_path.exists():
        print("fit: no curve.csv in output dir; run sweep first", file=sys.stderr)
        return EXIT_CHECK_FAILED
    curve = read_curve_csv(curve_path, model, seed)
    fit_cfg = raw.get("fit", {})
    kind = fit_cfg.get("kind", "power-law")
    beta_min = float(fit_cfg.get("beta_min", 0.0))
    gamma = float(fit_cfg.get("gamma", 0.5))
    if kind == "power-law":
        fit = fit_power_law(curve, beta_min)
    else:
        fit = fit_log_corrected(curve, gamma, beta_min)
    with open(out_dir / "fit.csv", "w", newline="") as fh:
        row = fit.csv_row()
        row["config_digest"] = config_digest(raw)
        row["seed"] = seed
        w = csv.DictWriter(fh, fieldnames=list(row))
        w.writeheader()
        w.writerow(row)
    if kind == "log-corrected":
        pts, beta, v, se = compensated_values(curve, gamma, beta_min)
        with open(out_dir / "compensated.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["beta", "mean_p", "stderr", "compensated_v", "compensated_se"])
            for p, b, vv, ss in zip(pts, beta, v, se):
                w.writerow([repr(b), repr(p.mean_p), repr(p.stderr), repr(vv), repr(ss)])
    print(f"fit [{fit.kind}] window [{fit.window_lo:g}, {fit.window_hi:g}]: "
          f"estimate={fit.estimate:.4f} CI=({fit.ci_lo:.4f}, {fit.ci_hi:.4f}) "
          f"max/min={fit.max_min_ratio:.3f}")
    return EXIT_OK


def cmd_report(raw, out_dir, seed, threads):
    model = build_model(raw)
    curve_path = out_dir / "curve.csv"
    if not curve_path.exists():
        print("report: no curve.csv in output dir; run sweep first", file=sys.stderr)
        return EXIT_CHECK_FAILED
    curve = read_curve_csv(curve_path, model, seed)
    rep = invariant_report(curve)
    print(rep.summary())
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="polymermc")
    parser.add_argument("subcommand",
                        choices=["validate-env", "sweep", "fit", "oracle-check", "report"])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--threads", type=int,
                        default=int(os.environ.get("POLYMER_THREADS", "1")))
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    args = parser.parse_args(argv)

    try:
        raw = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out if args.out else raw.get("output", {}).get("dir", "out"))
    seed = args.seed if args.seed is not None else int(raw["sweep"]["master_seed"])

    try:
        if args.subcommand == "sweep":
            run_sweep(raw, out_dir, seed_override=args.seed, threads=args.threads,
                      resume=args.resume)
            print(f"sweep complete: {out_dir / 'curve.csv'}")
            return EXIT_OK
        handler = {
            "validate-env": cmd_validate_env,
            "fit": cmd_fit,
            "oracle-check": cmd_oracle_check,
            "report": cmd_report,
        }[args.subcommand]
        return handler(raw, out_dir, seed, args.threads)
    except ResumeMismatch as exc:
        print(f"resume error: {exc}", file=sys.stderr)
        return EXIT_RESUME
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
