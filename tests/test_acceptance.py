"""Acceptance battery: one test per criterion, one PASS/FAIL line each.

Criterion 9 (the brownian exponent window, about a minute on 2 cores) runs
only when POLYMERMC_LONG=1 is set; everything else, criterion 8 (the walk
exponent shape, about 7 s) included, runs in the normal suite.
"""

import csv
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

from polymermc.covariance import CovarianceSpec, Lattice, q_value
from polymermc.environment import (
    EnvironmentSlab,
    TimeGrid,
    empirical_covariance_check,
    max_pair_identity_check,
    sample_slab,
)
from polymermc.free_energy import (
    ModelConfig,
    beta_sweep,
    convexity_defect,
    estimate_pt,
    fit_log_corrected,
    fit_power_law,
    invariant_report,
)
from polymermc.partition import (
    WalkKernel,
    annealed_mean_check,
    enumerate_logZ,
    transfer_matrix_logZ,
)
from polymermc.polymer import discretize_brownian_path

WHITE1 = CovarianceSpec(family="white_noise", q0=1.0)
POWEXP = CovarianceSpec(family="powered_exponential", q0=1.0, holder_h=0.5, length_scale=1.0)
LOGREG = CovarianceSpec(family="log_regular", q0=1.0, gamma=0.5, amplitude=0.5, cutoff=0.5)

LONG = os.environ.get("POLYMERMC_LONG") == "1"


def verdict(num, desc, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"\nCRITERION {num}: {tag} - {desc}{extra}")
    assert passed, f"criterion {num} failed: {desc}{extra}"


def test_criterion_1_oracle_equality():
    worst = 0.0
    for d, L, n in ((1, 7, 6), (2, 5, 4)):
        lat = Lattice(dim=d, extent=L)
        grid = TimeGrid(horizon=n * 0.04 / d, n_steps=n)
        kernel = WalkKernel(d, grid.dt)
        for rep in range(10):
            slab = sample_slab(WHITE1, lat, grid, 1000 + d, rep)
            a = transfer_matrix_logZ(slab, 1.0, kernel).log_z
            b = enumerate_logZ(slab, 1.0, kernel).log_z
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    verdict(1, "transfer matrix equals enumeration on 20 seeded instances",
            worst <= 1e-10, f"worst relative gap {worst:.2e}")


def test_criterion_2_annealed_identity():
    zs = []
    for spec in (WHITE1, POWEXP):
        lat = Lattice(dim=1, extent=16)
        for beta, t in ((0.5, 2.0), (1.0, 1.0)):
            grid = TimeGrid(horizon=t, n_steps=int(round(t / 0.04)))
            rep = annealed_mean_check(spec, lat, grid, WalkKernel(1, grid.dt),
                                      beta, n_replicas=10000, seed=2024)
            zs.append((spec.family, beta, t, rep.probes[0].z))
    ok = all(abs(z) <= 4 for *_, z in zs)
    verdict(2, "replica mean of Z matches exp(beta^2 Q(0) t / 2)", ok,
            "; ".join(f"{f} b={b} t={t}: z={z:+.2f}" for f, b, t, z in zs))


def test_criterion_3_gaussian_battery():
    grid = TimeGrid(horizon=0.5, n_steps=5)
    fails = []
    for spec in (WHITE1, POWEXP, LOGREG):
        for d, L in ((1, 32), (2, 12)):
            lat = Lattice(dim=d, extent=L)
            rep = empirical_covariance_check(spec, lat, grid, n_replicas=400,
                                             seed=31)
            if not rep.passed:
                fails.append((spec.family, d, max(abs(p.z) for p in rep.probes)))
    lat = Lattice(dim=1, extent=16)
    pair = max_pair_identity_check(WHITE1, lat, [0], [1], duration=1.0,
                                   n_replicas=100000, seed=32)
    p = pair.probes[0]
    target_ok = abs(p.target - 1 / math.sqrt(math.pi)) < 1e-9
    verdict(3, "covariance battery over all families; E[max] identity 1/sqrt(pi)",
            not fails and pair.passed and target_ok,
            f"E[max]={p.estimate:.5f} target={p.target:.5f} z={p.z:+.2f}; "
            f"covariance failures: {fails}")


@pytest.fixture(scope="module")
def walk_sweep():
    model = ModelConfig(kind="lattice-walk", spec=WHITE1, d=1, extent=64)
    return beta_sweep(model, [0.0, 1.0, 2.0, 4.0, 8.0], [2.0, 4.0, 8.0],
                      n_replicas=8, master_seed=600)


def test_criterion_4_exact_invariants(walk_sweep):
    curve = walk_sweep
    p0 = [p for p in curve.points if p.beta == 0.0][0]
    exact_zero = p0.mean_p == 0.0

    defect = convexity_defect(curve.betas, curve.replica_log_z)

    lat = Lattice(dim=1, extent=16)
    grid = TimeGrid(horizon=1.0, n_steps=20)
    k = WalkKernel(1, grid.dt)
    slab = sample_slab(WHITE1, lat, grid, 41, 0)
    scale_exact = (transfer_matrix_logZ(slab.scaled(2.0), 0.75, k).log_z
                   == transfer_matrix_logZ(slab, 1.5, k).log_z)

    verdict(4, "p_t(0)=0 exact; per-replica convexity; scaling identity exact",
            exact_zero and defect >= -1e-9 and scale_exact,
            f"p(0)={p0.mean_p!r}, convexity defect {defect:.2e}, "
            f"scaling exact={scale_exact}")


def test_criterion_5_bound_battery(walk_sweep):
    curve = walk_sweep
    q0 = WHITE1.q0
    bound_ok = all(p.bound_ok(q0) for p in curve.all_points)
    big = [p for p in curve.points if p.beta >= 8.0 and p.t >= 8.0]
    strong = all(p.margin(q0) > 4 * p.stderr for p in big) and big
    detail = "; ".join(
        f"beta={p.beta:g}: margin={p.margin(q0):.3f} (4se={4 * p.stderr:.3f})"
        for p in big
    )
    verdict(5, "annealed upper bound everywhere; strong-disorder margin at "
               "beta>=8, t>=8", bool(bound_ok and strong), detail)


def _aggregated(slab, factor):
    """Coarsen a slab by summing blocks of `factor` consecutive increments
    (exact Brownian consistency, so refinement comparisons share randomness)."""
    n = slab.grid.n_steps // factor
    inc = slab.increments[: n * factor].reshape((n, factor) + slab.lattice.shape).sum(axis=1)
    grid = TimeGrid(horizon=slab.grid.horizon, n_steps=n)
    return EnvironmentSlab(increments=inc, spec=slab.spec, lattice=slab.lattice,
                           grid=grid, seed=slab.seed, replica_id=slab.replica_id)


def test_criterion_6_dt_refinement():
    beta, t = 2.0, 4.0
    lat = Lattice(dim=1, extent=64)
    dt0 = 0.1 / beta**2  # base step from the dt rule
    n_fine = int(round(t / dt0)) * 8
    fine_grid = TimeGrid(horizon=t, n_steps=n_fine)
    n_rep = 32
    levels = [8, 4, 2, 1]  # aggregation factors: dt0, dt0/2, dt0/4, dt0/8
    p = np.empty((n_rep, len(levels)))
    for r in range(n_rep):
        fine = sample_slab(WHITE1, lat, fine_grid, 660, r)
        for j, f in enumerate(levels):
            slab = _aggregated(fine, f)
            k = WalkKernel(1, slab.grid.dt)
            p[r, j] = transfer_matrix_logZ(slab, beta, k).log_z / t
    diffs = np.diff(p, axis=1)  # per-replica refinement changes (CRN)
    deltas = np.abs(diffs.mean(axis=0))
    ses = diffs.std(axis=0, ddof=1) / math.sqrt(n_rep)
    shrinking = all(
        deltas[i + 1] <= deltas[i] + 2 * math.hypot(ses[i], ses[i + 1])
        for i in range(len(deltas) - 1)
    )
    final_tol = max(2 * ses[-1], 0.01 * abs(p.mean(axis=0)[-1]))
    final_ok = deltas[-1] <= final_tol
    verdict(6, "halving dt: changes shrink monotonically, final within tolerance",
            shrinking and final_ok,
            f"|dp| = {np.array2string(deltas, precision=5)} "
            f"(se {np.array2string(ses, precision=5)}), final tol {final_tol:.5f}")


def _embed_levels(fine_path, fine_times, eps):
    """Band-exit embedding of a fine 1d Brownian path at spacing eps."""
    b = fine_path[:, 0]
    levels = np.zeros(b.size, int)
    level, i = 0, 0
    while True:
        out = np.abs(b[i:] - level * eps) >= eps
        if not out.any():
            break
        k = i + int(np.argmax(out))
        level += 1 if b[k] > level * eps else -1
        levels[k:] = level
        i = k
    return levels


def test_criterion_7_brownian_discretization():
    # hard assert: sup distance <= eps sqrt(d) on every trace
    rng = np.random.default_rng(71)
    sup_ok = True
    for _ in range(10):
        tr = discretize_brownian_path(2, 0.5, eps=0.25, h=0.25**2 / 100, rng=rng)
        if tr.sup_distance() > tr.eps * math.sqrt(2) + 1e-12:
            sup_ok = False

    # mean exit time of the +-eps band is eps^2 (h well below the bound so
    # discrete-monitoring bias is inside the statistical tolerance)
    eps = 0.1
    h = eps**2 / 2000
    t = 6 * eps**2
    firsts = []
    for _ in range(2000):
        tr = discretize_brownian_path(1, t, eps=eps, h=h, rng=rng)
        taus = tr.exit_times[0]
        firsts.append(taus[0] if taus.size else t)
    firsts = np.asarray(firsts)
    se = firsts.std(ddof=1) / math.sqrt(firsts.size)
    exit_ok = abs(firsts.mean() - eps**2) <= 4 * se

    # Hamiltonian-error proxy: Var[H(emb_eps) - H(emb_eps/2)] per unit time,
    # computed analytically from Q along shared Brownian paths; halving eps
    # must change it by a factor in [2^{2H}/2, 2^{2H}*2] = [1, 4] at H=1/2
    H = 0.5
    eps0, t2 = 0.4, 2.0
    h2 = (eps0 / 4) ** 2 / 100
    n_fine = int(round(t2 / h2))
    times = np.arange(n_fine + 1) * h2
    proxies = {eps0: [], eps0 / 2: []}
    for _ in range(40):
        incs = rng.standard_normal((n_fine, 1)) * math.sqrt(h2)
        path = np.vstack([np.zeros((1, 1)), np.cumsum(incs, axis=0)])
        pos = {e: _embed_levels(path, times, e) * e for e in (eps0, eps0 / 2, eps0 / 4)}
        for e in (eps0, eps0 / 2):
            sep = np.abs(pos[e] - pos[e / 2])[:-1]
            var = float(np.sum(2 * (POWEXP.q0 - POWEXP.q0 * np.exp(
                -((sep / POWEXP.length_scale) ** (2 * H))))) * h2)
            proxies[e].append(var / t2)
    ratio = np.mean(proxies[eps0]) / np.mean(proxies[eps0 / 2])
    lo, hi = 2 ** (2 * H) * 0.5, 2 ** (2 * H) * 2.0
    ratio_ok = lo <= ratio <= hi

    verdict(7, "sup distance bound; mean exit time eps^2; error-proxy halving ratio",
            sup_ok and exit_ok and ratio_ok,
            f"exit mean {firsts.mean():.5f} vs {eps**2} (4se={4 * se:.5f}); "
            f"proxy ratio {ratio:.2f} in [{lo:g}, {hi:g}]")


def test_criterion_8_walk_exponent_shape():
    model = ModelConfig(kind="lattice-walk", spec=WHITE1, d=1, extent=64)
    betas = [4.0, 6.0, 10.0, 16.0, 25.0, 40.0]
    curve = beta_sweep(model, betas, [1.0, 2.0, 4.0], n_replicas=8,
                       master_seed=800)
    logfit = fit_log_corrected(curve, gamma=0.5, beta_min=3.0)
    trend_ok = (logfit.ci_lo <= 0.0 <= logfit.ci_hi) or abs(logfit.estimate) <= 0.05
    powfit = fit_power_law(curve, beta_min=3.0)
    slope_ok = 1.6 <= powfit.estimate <= 2.0
    verdict(8, "white-noise walk: compensated p log(beta)/beta^2 bounded, "
               "slope in [1.6, 2.0]",
            logfit.max_min_ratio <= 3.0 and trend_ok and slope_ok,
            f"max/min={logfit.max_min_ratio:.2f}, trend={logfit.estimate:+.3f} "
            f"CI=({logfit.ci_lo:+.3f},{logfit.ci_hi:+.3f}), "
            f"slope={powfit.estimate:.3f}")


@pytest.mark.skipif(not LONG, reason="about a minute; set POLYMERMC_LONG=1")
def test_criterion_9_brownian_exponent_window():
    model = ModelConfig(kind="brownian-eps", spec=POWEXP, d=1, extent=64,
                        eps_prefactor=1.0, n_paths=4096)
    betas = [1.5, 2.0, 3.0, 4.0, 6.0, 8.0]
    curve = beta_sweep(model, betas, [1.0, 2.0, 4.0], n_replicas=8,
                       master_seed=900)
    fit = fit_power_law(curve, beta_min=1.0)
    lo, hi = 4.0 / 3.0 - 0.15, 8.0 / 5.0 + 0.15
    verdict(9, "Brownian H=1/2 model: fitted exponent in [4/3-0.15, 8/5+0.15]",
            lo <= fit.estimate <= hi,
            f"exponent {fit.estimate:.3f} CI=({fit.ci_lo:.3f},{fit.ci_hi:.3f}) "
            f"window [{lo:.3f},{hi:.3f}]")


def test_criterion_10_reproducibility(tmp_path):
    cfg = {
        "model": "lattice-walk",
        "covariance": {"family": "white_noise", "q0": 1.0},
        "lattice": {"d": 1, "extent": 32},
        "time": {"horizons": [1.0, 2.0, 4.0]},
        "sweep": {"betas": [0.5, 1.0, 2.0], "n_replicas": 4, "master_seed": 1010},
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))

    def run(out, *extra):
        proc = subprocess.run(
            [sys.executable, "-m", "polymermc.cli", "sweep", "--config",
             str(path), "--out", str(out), *extra],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return (out / "curve.csv").read_bytes()

    ref = run(tmp_path / "w1", "--threads", "1")
    same = all(run(tmp_path / f"w{n}", "--threads", str(n)) == ref for n in (2, 8))

    part = tmp_path / "part"
    run(part)
    ck = part / "checkpoint.jsonl"
    lines = ck.read_text().splitlines(keepends=True)
    ck.write_text("".join(lines[: 1 + (len(lines) - 1) // 2]))
    (part / "curve.csv").unlink()
    resumed = run(part, "--resume") == ref

    verdict(10, "byte-identical CSVs across 1/2/8 workers and after resume",
            same and resumed)
