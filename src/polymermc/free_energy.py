"""Replica estimation of the free energy p_t(beta), horizon extrapolation,
scaling fits, and the invariant battery.

p_t(beta) = E[log Z_t] / t is estimated over independent environment
replicas.  Sweeps share one time grid (the finest the beta grid demands) so
that every replica sees the same slab at every beta: per-slab convexity of
log Z in beta is then exact and the common-random-number comparisons across
beta are meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .covariance import CovarianceSpec, Lattice, circulant_spectrum
from .environment import TimeGrid, sample_slab
from .partition import BrownianPathSampler, WalkKernel, montecarlo_logZ, propagate

LATTICE_WALK = "lattice-walk"
BROWNIAN_EPS = "brownian-eps"


class FreeEnergyError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    """Everything needed to evaluate one replica at one (beta, t).

    kind : "lattice-walk" (transfer matrix on the intrinsic lattice) or
        "brownian-eps" (Monte Carlo over eps-embedded Brownian paths).
    extent : lattice sites per axis.
    eps_prefactor : Brownian model only; the lattice spacing is
        eps = eps_prefactor * beta**(-1/(1+3H)) with H = spec.holder_h,
        falling back to eps_prefactor itself when beta <= 1 or H is unset.
    n_paths : Brownian model only; Monte Carlo paths per replica.
    """

    kind: str
    spec: CovarianceSpec
    d: int
    extent: int
    eps_prefactor: float = 1.0
    n_paths: int = 2048

    def __post_init__(self):
        if self.kind not in (LATTICE_WALK, BROWNIAN_EPS):
            raise FreeEnergyError(f"unknown model kind {self.kind!r}")

    def dt_target(self, beta: float) -> float:
        """Step-size rule dt <= min(0.05/d, 0.1/(beta^2 q0))."""
        dt = 0.05 / self.d
        if beta > 0:
            dt = min(dt, 0.1 / (beta**2 * self.spec.q0))
        return dt

    def epsilon(self, beta: float) -> float:
        if self.kind == LATTICE_WALK:
            return 1.0
        h = self.spec.holder_h
        if h is None or beta <= 1.0:
            return self.eps_prefactor
        return self.eps_prefactor * beta ** (-1.0 / (1.0 + 3.0 * h))

    def lattice(self, beta: float) -> Lattice:
        return Lattice(dim=self.d, extent=self.extent, spacing=self.epsilon(beta))


@dataclass(frozen=True)
class FreeEnergyPoint:
    beta: float
    t: float
    n_steps: int
    mean_p: float
    stderr: float
    n_replicas: int
    model: str
    epsilon: float
    boundary_mass: float = 0.0
    stabilized: bool | None = None
    monotone_in_t: bool | None = None
    log_zs: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.stderr < 0 or self.n_replicas < 2:
            raise FreeEnergyError("need stderr >= 0 and n_replicas >= 2")

    def margin(self, q0: float) -> float:
        """Annealed-bound margin beta^2 q0 / 2 - p; positive at large beta
        is the empirical strong-disorder indicator."""
        return 0.5 * self.beta**2 * q0 - self.mean_p

    def bound_ok(self, q0: float) -> bool:
        return self.mean_p <= 0.5 * self.beta**2 * q0 + 4 * self.stderr + 1e-12


@dataclass(frozen=True)
class FreeEnergyCurve:
    points: list  # final (largest-t / extrapolated) FreeEnergyPoint per beta
    all_points: list  # every (beta, t) point computed
    model: ModelConfig = field(repr=False)
    master_seed: int = 0
    provenance: str = ""
    # per-replica log Z at the largest horizon, shape (n_beta, n_replicas);
    # valid for convexity checks because the sweep shares slabs across beta
    replica_log_z: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        betas = [p.beta for p in self.points]
        if betas != sorted(betas) or len(set(betas)) != len(betas):
            raise FreeEnergyError("curve betas must be strictly increasing")

    @property
    def betas(self) -> np.ndarray:
        return np.asarray([p.beta for p in self.points])

    @property
    def values(self) -> np.ndarray:
        return np.asarray([p.mean_p for p in self.points])

    @property
    def stderrs(self) -> np.ndarray:
        return np.asarray([p.stderr for p in self.points])


def make_grid(model: ModelConfig, beta: float, t: float, dt: float | None = None) -> TimeGrid:
    if dt is None:
        dt = model.dt_target(beta)
    n_steps = max(1, math.ceil(t / dt - 1e-9))
    return TimeGrid(horizon=t, n_steps=n_steps)


def sweep_grids(model: ModelConfig, betas, horizons) -> list:
    """One time grid per horizon, all from the step the largest beta needs,
    so every beta sees the same slabs (common random numbers)."""
    dt = model.dt_target(max(betas))
    return [make_grid(model, max(betas), t, dt) for t in horizons]


def sweep_spectra(model: ModelConfig, betas) -> dict:
    """Circulant spectrum of each distinct lattice of a sweep, keyed by
    lattice; empty for white noise, which needs none."""
    spectra = {}
    if model.spec.family != "white_noise":
        for beta in betas:
            lattice = model.lattice(beta)
            if lattice not in spectra:
                spectra[lattice] = circulant_spectrum(model.spec, lattice)
    return spectra


def single_replica_log_z(model: ModelConfig, betas, grids, master_seed: int, replica: int,
                         spectra=None) -> dict:
    """{(beta, t): (log Z, boundary mass)} of one environment replica at
    every beta and horizon grid of a sweep.  Pure in its arguments; this is
    the unit of parallel work.

    lattice-walk: one slab per distinct dt, drawn at the longest horizon
    with that dt, and one batched propagation reading every beta and every
    horizon as a prefix.  Horizons share a prefix only when their dt are
    equal floats.  brownian-eps: eps, and so the lattice, changes with beta,
    so each (beta, t) gets its own slab and Monte Carlo estimate.
    """
    if spectra is None:
        spectra = sweep_spectra(model, betas)
    out = {}
    if model.kind == LATTICE_WALK:
        lattice = model.lattice(betas[0])
        by_dt = {}
        for grid in grids:
            by_dt.setdefault(grid.dt, []).append(grid)
        for same_dt in by_dt.values():
            longest = max(same_dt, key=lambda g: g.n_steps)
            # the slab is a temporary: it is freed before the next one is drawn
            log_z, boundary = propagate(
                sample_slab(model.spec, lattice, longest, master_seed, replica,
                            spectra.get(lattice)).increments[:, None],
                betas, WalkKernel(model.d, longest.dt), lattice,
                [g.n_steps for g in same_dt])
            for i, grid in enumerate(same_dt):
                for j, beta in enumerate(betas):
                    out[(beta, grid.horizon)] = (float(log_z[i, j]), float(boundary[i, j]))
        return out
    for beta in betas:
        lattice = model.lattice(beta)
        eps = model.epsilon(beta)
        for grid in grids:
            slab = sample_slab(model.spec, lattice, grid, master_seed, replica,
                               spectra.get(lattice))
            per = max(1, math.ceil(100.0 * grid.dt / (eps * eps)))
            sampler = BrownianPathSampler(model.d, eps, grid.dt / per)
            est = montecarlo_logZ(slab, beta, sampler, model.n_paths, master_seed, replica)
            out[(beta, grid.horizon)] = (est.log_z, est.boundary_mass)
    return out


def estimate_pt(
    model: ModelConfig,
    beta: float,
    t: float,
    n_replicas: int,
    master_seed: int,
    dt: float | None = None,
) -> FreeEnergyPoint:
    """Replica average of log Z_t / t."""
    if n_replicas < 2:
        raise FreeEnergyError("need n_replicas >= 2")
    grid = make_grid(model, beta, t, dt)
    spectra = sweep_spectra(model, [beta])
    per = [single_replica_log_z(model, [beta], [grid], master_seed, r, spectra)[(beta, t)]
           for r in range(n_replicas)]
    return point_from_replicas(model, beta, grid, [p[0] for p in per], max(p[1] for p in per))


def point_from_replicas(model, beta, grid, logs, boundary) -> FreeEnergyPoint:
    logs = np.asarray(logs, float)
    if not np.all(np.isfinite(logs)):
        raise FreeEnergyError(f"non-finite replica log Z at beta={beta}")
    t = grid.horizon
    mean_p = float(logs.mean() / t)
    stderr = float(logs.std(ddof=1) / (math.sqrt(logs.size) * t))
    return FreeEnergyPoint(
        beta=beta,
        t=t,
        n_steps=grid.n_steps,
        mean_p=mean_p,
        stderr=stderr,
        n_replicas=logs.size,
        model=model.kind,
        epsilon=model.epsilon(beta),
        boundary_mass=boundary,
        log_zs=logs,
    )


def extrapolate_in_t(points) -> FreeEnergyPoint:
    """Largest-horizon point with monotonicity and stabilization flags.

    p_t is nondecreasing in t (sup characterization); violation beyond
    3 stderr is flagged, not fatal.  Stabilized means the last doubling of
    t moved the estimate by at most max(2 stderr, 2%).
    """
    if len(points) < 3:
        raise FreeEnergyError("need >= 3 horizons to extrapolate")
    pts = sorted(points, key=lambda p: p.t)
    if len({p.beta for p in pts}) != 1:
        raise FreeEnergyError("extrapolation points must share beta")
    monotone = True
    for a, b in zip(pts, pts[1:]):
        tol = 3.0 * math.hypot(a.stderr, b.stderr)
        if b.mean_p < a.mean_p - tol:
            monotone = False
    a, b = pts[-2], pts[-1]
    gap = abs(b.mean_p - a.mean_p)
    stabilized = gap <= max(2.0 * math.hypot(a.stderr, b.stderr), 0.02 * abs(b.mean_p))
    return replace(b, stabilized=stabilized, monotone_in_t=monotone)


def beta_sweep(
    model: ModelConfig,
    betas,
    horizons,
    n_replicas: int,
    master_seed: int,
    provenance: str = "",
) -> FreeEnergyCurve:
    """Estimate p_t over a beta grid with common replica slabs, one replica
    (every beta and every horizon) at a time."""
    if n_replicas < 2:
        raise FreeEnergyError("need n_replicas >= 2")
    betas = sorted(float(b) for b in betas)
    grids = sweep_grids(model, betas, sorted(float(t) for t in horizons))
    spectra = sweep_spectra(model, betas)
    results = {}
    for r in range(n_replicas):
        for (beta, t), value in single_replica_log_z(model, betas, grids, master_seed, r,
                                                     spectra).items():
            results[(beta, t, r)] = value
    return sweep_curve(model, betas, grids, n_replicas, results, master_seed, provenance)


def sweep_curve(model: ModelConfig, betas, grids, n_replicas: int, results: dict,
                master_seed: int, provenance: str = "") -> FreeEnergyCurve:
    """Keyed reduction of {(beta, t, replica): (log Z, boundary mass)} to a
    curve, independent of the order in which the results were computed."""
    finals, all_points = [], []
    log_matrix = np.empty((len(betas), n_replicas))
    for bi, beta in enumerate(betas):
        pts = []
        for grid in grids:
            per = [results[(beta, grid.horizon, r)] for r in range(n_replicas)]
            pts.append(point_from_replicas(model, beta, grid, [p[0] for p in per],
                                           max(p[1] for p in per)))
        all_points.extend(pts)
        finals.append(extrapolate_in_t(pts) if len(pts) >= 3 else pts[-1])
        log_matrix[bi] = pts[-1].log_zs
    return FreeEnergyCurve(
        points=finals,
        all_points=all_points,
        model=model,
        master_seed=master_seed,
        provenance=provenance,
        replica_log_z=log_matrix,
    )


# ---------------------------------------------------------------------------
# scaling fits

@dataclass(frozen=True)
class ScalingFit:
    kind: str  # power-law | log-corrected
    estimate: float  # exponent (power-law) or trend slope (log-corrected)
    ci_lo: float
    ci_hi: float
    intercept: float
    window_lo: float
    window_hi: float
    max_min_ratio: float  # nan for power-law
    trend_ci: tuple = (float("nan"), float("nan"))
    residuals: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if not (self.ci_lo - 1e-12 <= self.estimate <= self.ci_hi + 1e-12):
            raise FreeEnergyError("confidence interval must contain the estimate")

    def csv_row(self) -> dict:
        return {
            "kind": self.kind,
            "window_lo": repr(self.window_lo),
            "window_hi": repr(self.window_hi),
            "estimate": repr(self.estimate),
            "ci_lo": repr(self.ci_lo),
            "ci_hi": repr(self.ci_hi),
            "max_min_ratio": repr(self.max_min_ratio),
            "trend_slope": repr(self.estimate if self.kind == "log-corrected" else float("nan")),
        }


def _wls(x, y, w):
    """Weighted least squares line fit; returns slope, intercept, fitted."""
    x, y, w = np.asarray(x, float), np.asarray(y, float), np.asarray(w, float)
    sw = w.sum()
    xm = (w * x).sum() / sw
    ym = (w * y).sum() / sw
    sxx = (w * (x - xm) ** 2).sum()
    slope = (w * (x - xm) * (y - ym)).sum() / sxx
    intercept = ym - slope * xm
    return slope, intercept, slope * x + intercept


def _bootstrap_slope(x, y, w, n_boot, seed):
    slope, intercept, fitted = _wls(x, y, w)
    resid = y - fitted
    # inflate by the regression degrees of freedom so resampled residuals
    # have the right scale for small point counts
    n = resid.size
    std_resid = resid * np.sqrt(w) * math.sqrt(n / max(n - 2, 1))
    rng = np.random.default_rng(seed)
    slopes = np.empty(n_boot)
    for b in range(n_boot):
        e = rng.choice(std_resid, size=std_resid.size, replace=True)
        yb = fitted + e / np.sqrt(w)
        slopes[b], _, _ = _wls(x, yb, w)
    lo, hi = np.percentile(slopes, [2.5, 97.5])
    # residual resampling can only shrink around the fit; keep the estimate in
    return (float(slope), float(intercept),
            float(min(lo, slope)), float(max(hi, slope)), resid)


def _fit_weights(stderrs):
    se = np.asarray(stderrs, float)
    if np.any(se <= 0):
        return np.ones_like(se)
    return 1.0 / se**2


def fit_power_law(curve: FreeEnergyCurve, beta_min: float, n_boot: int = 1000,
                  seed: int = 0) -> ScalingFit:
    """Weighted fit of log p against log beta above the cutoff; CI from a
    weighted residual bootstrap."""
    pts = [p for p in curve.points if p.beta >= beta_min]
    if len(pts) < 4:
        raise FreeEnergyError("need >= 4 points above the cutoff")
    if any(p.mean_p <= 0 for p in pts):
        raise FreeEnergyError("non-positive free energy above the cutoff")
    x = np.log([p.beta for p in pts])
    y = np.log([p.mean_p for p in pts])
    se_y = np.asarray([p.stderr / p.mean_p for p in pts])
    w = _fit_weights(se_y)
    slope, intercept, lo, hi, resid = _bootstrap_slope(x, y, w, n_boot, seed)
    return ScalingFit(
        kind="power-law",
        estimate=slope,
        ci_lo=lo,
        ci_hi=hi,
        intercept=intercept,
        window_lo=pts[0].beta,
        window_hi=pts[-1].beta,
        max_min_ratio=float("nan"),
        residuals=resid,
    )


def compensated_values(curve: FreeEnergyCurve, gamma: float, beta_min: float):
    """v(beta) = p(beta) * log(beta)**(2 gamma) / beta^2 over the window."""
    pts = [p for p in curve.points if p.beta >= beta_min]
    if any(p.beta <= 1.0 for p in pts):
        raise FreeEnergyError("log compensation needs beta > 1 in the window")
    beta = np.asarray([p.beta for p in pts])
    comp = np.log(beta) ** (2 * gamma) / beta**2
    v = np.asarray([p.mean_p for p in pts]) * comp
    se = np.asarray([p.stderr for p in pts]) * comp
    return pts, beta, v, se


def fit_log_corrected(curve: FreeEnergyCurve, gamma: float, beta_min: float,
                      n_boot: int = 1000, seed: int = 0) -> ScalingFit:
    """Constancy diagnostics for the compensated free energy: max/min ratio
    and the trend of v against log beta with a bootstrap CI."""
    pts, beta, v, se = compensated_values(curve, gamma, beta_min)
    if len(pts) < 4:
        raise FreeEnergyError("need >= 4 points above the cutoff")
    x = np.log(beta)
    w = _fit_weights(se)
    slope, intercept, lo, hi, resid = _bootstrap_slope(x, v, w, n_boot, seed)
    ratio = float(v.max() / v.min()) if v.min() > 0 else float("inf")
    return ScalingFit(
        kind="log-corrected",
        estimate=slope,
        ci_lo=lo,
        ci_hi=hi,
        intercept=intercept,
        window_lo=pts[0].beta,
        window_hi=pts[-1].beta,
        max_min_ratio=ratio,
        residuals=resid,
    )


# ---------------------------------------------------------------------------
# invariant battery

@dataclass(frozen=True)
class InvariantCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class InvariantReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        return "\n".join(lines)


def invariant_report(curve: FreeEnergyCurve) -> InvariantReport:
    """Aggregate battery: p(0) = 0, monotonicity in beta, per-replica
    convexity (common random numbers), the annealed upper bound, the
    strong-disorder margin, and the stabilization/boundary flags."""
    q0 = curve.model.spec.q0
    checks = []

    zero_pts = [p for p in curve.points if p.beta == 0.0]
    if zero_pts:
        ok = all(p.mean_p == 0.0 for p in zero_pts)
        checks.append(InvariantCheck("p(0) = 0", ok, f"p(0) = {zero_pts[0].mean_p!r}"))

    vals, ses = curve.values, curve.stderrs
    mono = True
    for i in range(len(vals) - 1):
        if vals[i + 1] < vals[i] - 3.0 * math.hypot(ses[i], ses[i + 1]):
            mono = False
    checks.append(InvariantCheck("nondecreasing in beta (3 stderr)", mono,
                                 f"{len(vals)} points"))

    if curve.replica_log_z is not None and len(curve.betas) >= 3:
        worst = convexity_defect(curve.betas, curve.replica_log_z)
        checks.append(InvariantCheck("per-replica convexity in beta", worst >= -1e-9,
                                     f"min divided-difference gap {worst:.3e}"))

    bound = all(p.bound_ok(q0) for p in curve.points)
    checks.append(InvariantCheck("annealed upper bound", bound,
                                 "mean_p <= beta^2 q0/2 + 4 stderr everywhere"))

    margins = [(p.beta, p.margin(q0), p.stderr) for p in curve.points if p.beta > 0]
    strong = [b for b, m, s in margins if m > 4 * s]
    checks.append(InvariantCheck("strong-disorder margin (info)", True,
                                 f"margin > 4 stderr at beta in {strong}"))

    unstab = [p.beta for p in curve.points if p.stabilized is False]
    checks.append(InvariantCheck("t-stabilization", not unstab,
                                 f"unstabilized betas: {unstab}" if unstab else "all stabilized"))

    flagged = [p.beta for p in curve.all_points if p.boundary_mass > 1e-3]
    checks.append(InvariantCheck("boundary mass <= 1e-3", not flagged,
                                 f"flagged betas: {sorted(set(flagged))}" if flagged else "ok"))
    return InvariantReport(checks=checks)


def convexity_defect(betas, log_z_matrix) -> float:
    """Min over replicas of the divided-difference gap of log Z in beta;
    convexity holds iff this is >= 0 (up to roundoff)."""
    betas = np.asarray(betas, float)
    z = np.asarray(log_z_matrix, float)  # (n_beta, n_replicas)
    slopes = np.diff(z, axis=0) / np.diff(betas)[:, None]
    return float(np.diff(slopes, axis=0).min()) if slopes.shape[0] >= 2 else 0.0
