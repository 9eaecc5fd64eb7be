"""Correctness gate and the reference it compares against.

The reference is an independent, batched re-implementation of the
lattice-walk model: it re-derives each replica's environment from the same
seeded streams (numpy SeedSequence, spawn key (0, replica)), and propagates
every beta and replica of one horizon in a single numpy pass.  It shares no
code with polymermc, so it is computed for whatever seed a run uses, and a
change that alters a reported number beyond rounding shows as a failed check.
"""

from __future__ import annotations

import math

import numpy as np

# |mean_p - reference| <= REF_RTOL * max(1, |reference|); the reference sums
# the same terms in the same order per replica, so agreement is at the level
# of rounding (observed below 1e-13), and reordering the arithmetic stays
# far inside this tolerance
REF_RTOL = 1e-9
CONVEXITY_TOL = 1e-9  # divided-difference gap of log Z in beta, per replica
BOUNDARY_FLAG = 1e-3  # the program's boundary-mass flag threshold
BOUND_ALPHA = 1e-9  # false-alarm probability of one annealed-bound check
# the realized variance Q(0) exceeds q0 by at most the spectral mass the
# program may clip (1e-3 of the total), i.e. by a factor below 1 + 2e-3
CLIP_SLACK = 2e-3


def annealed_limit(beta: float, t: float, q0: float, n_replicas: int) -> float:
    """Largest replica-mean p_t the annealed bound allows.

    E[log Z_t] <= log E[Z_t] = beta^2 Q(0) t / 2 (Jensen).  log Z_t, and the
    path Monte Carlo estimate for any fixed set of paths, is a
    beta*sqrt(Q(0) t)-Lipschitz function of the environment's standard
    normals, so by Gaussian concentration the mean of n independent replicas
    exceeds that bound by r with probability at most
    exp(-n r^2 / (2 beta^2 Q(0) t)).  The margin is set for BOUND_ALPHA;
    unlike a margin in estimated standard errors it stays calibrated with
    four or eight replicas.
    """
    q = q0 * (1.0 + CLIP_SLACK)
    return 0.5 * beta**2 * q + beta * math.sqrt(
        2.0 * q * math.log(1.0 / BOUND_ALPHA) / (n_replicas * t))


def _dt(model: dict, betas) -> float:
    """The program's step rule dt <= min(0.05/d, 0.1/(beta^2 q0)) at the
    largest beta, shared by every beta of a sweep."""
    dt = 0.05 / model["d"]
    b = max(betas)
    if b > 0:
        dt = min(dt, 0.1 / (b * b * model["spec"]["q0"]))
    return dt


def _amplitude(model: dict):
    """sqrt of the clipped circulant eigenvalues of the periodized covariance
    row, or None for white noise."""
    spec, d, L = model["spec"], model["d"], model["extent"]
    if spec["family"] == "white_noise":
        return None
    if spec["family"] != "powered_exponential":
        raise ValueError(f"no reference for family {spec['family']}")
    off = (np.arange(L) + L // 2) % L - L // 2
    grids = np.meshgrid(*([off] * d), indexing="ij")
    r = np.sqrt(sum(g.astype(float) ** 2 for g in grids))
    row = spec["q0"] * np.exp(-((r / spec["length_scale"]) ** (2 * spec["holder_h"])))
    return np.sqrt(np.clip(np.fft.fftn(row).real, 0.0, None))


def _slab(model: dict, amp, seed: int, replica: int, n_steps: int, dt: float):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0, replica))
    rng = np.random.Generator(np.random.PCG64(ss))
    d, L = model["d"], model["extent"]
    white = rng.standard_normal((n_steps,) + (L,) * d)
    if amp is None:
        return white * (math.sqrt(dt) * math.sqrt(model["spec"]["q0"]))
    axes = tuple(range(1, d + 1))
    return np.fft.ifftn(np.fft.fftn(white, axes=axes) * amp, axes=axes).real * math.sqrt(dt)


def reference_log_z(model: dict, betas, horizons, n_replicas: int, seed: int) -> dict:
    """(beta, t) -> per-replica log Z of the lattice walk, by renormalized
    transfer propagation of the origin indicator."""
    d = model["d"]
    site_axes = tuple(range(2, 2 + d))
    amp = _amplitude(model)
    dt_target = _dt(model, betas)
    b = np.asarray(betas, float).reshape((1, -1) + (1,) * d)
    out = {}
    for t in horizons:
        n = max(1, math.ceil(t / dt_target - 1e-9))
        dt = t / n
        stay, move = 1.0 - 2 * d * dt, dt
        slabs = np.stack([_slab(model, amp, seed, r, n, dt) for r in range(n_replicas)], axis=1)
        u = np.zeros((n_replicas, len(betas)) + (model["extent"],) * d)
        u[(slice(None), slice(None)) + (0,) * d] = 1.0
        acc = np.zeros((n_replicas, len(betas)))
        for k in range(n):
            expo = b * slabs[k][:, None]
            m = expo.max(axis=site_axes, keepdims=True)
            u = u * np.exp(expo - m)
            s = u.sum(axis=site_axes, keepdims=True)
            acc += (m + np.log(s)).reshape(acc.shape)
            u = u / s
            v = stay * u
            for ax in site_axes:
                v = v + move * (np.roll(u, 1, axis=ax) + np.roll(u, -1, axis=ax))
            s = v.sum(axis=site_axes, keepdims=True)
            acc += np.log(s).reshape(acc.shape)
            u = v / s
        for i, beta in enumerate(betas):
            out[(beta, t)] = acc[:, i]
    return out


class Gate:
    """Counts checks attempted and failed, plus quality flags, which are
    reported as counts and never as failures."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.flags = {"boundary_mass_gt_1e-3": 0, "unstabilized": 0}

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def job(self, wl, res):
        """Every check of one job's outputs."""
        q0 = wl.model["spec"]["q0"]
        before = self.failed
        self.attempted += res.n_checked
        self.failures.extend(f"seed {res.seed}: {p}" for p in res.problems)
        keys = [(b, t) for b in wl.betas for t in wl.horizons]
        self.check(len(res.points) == len(keys), f"seed {res.seed}: {len(res.points)} rows")
        for p in res.points:
            self.check(math.isfinite(p["mean_p"]) and math.isfinite(p["stderr"]),
                       f"seed {res.seed}: non-finite row at beta={p['beta']} t={p['t']}")
            bound = annealed_limit(p["beta"], p["t"], q0, wl.n_replicas)
            self.check(p["mean_p"] <= bound,
                       f"seed {res.seed}: annealed bound broken at beta={p['beta']} t={p['t']}")
            self.flags["boundary_mass_gt_1e-3"] += p["boundary_mass"] > BOUNDARY_FLAG
        self.flags["unstabilized"] += sum(f["stabilized"] is False for f in res.finals)
        for key in keys:
            logs = res.log_z.get(key, [])
            self.check(len(logs) == wl.n_replicas and all(math.isfinite(x) for x in logs),
                       f"seed {res.seed}: non-finite replica log Z at {key}")
        # the brownian model checks finiteness and the bound only: eps(beta)
        # changes its lattice with beta, so convexity per replica does not hold
        if wl.model["kind"] == "lattice-walk" and self.failed == before:
            self._walk(wl, res)

    def _walk(self, wl, res):
        """Exact identities of the lattice walk and the reference values."""
        for t in wl.horizons:
            if 0.0 in wl.betas:
                for r, x in enumerate(res.log_z[(0.0, t)]):
                    self.check(x == 0.0, f"seed {res.seed}: log Z = {x!r} at beta=0 t={t} "
                                         f"replica {r}")
            # per-replica convexity in beta: every beta shares the replica's slab
            z = np.asarray([res.log_z[(b, t)] for b in wl.betas])
            slopes = np.diff(z, axis=0) / np.diff(np.asarray(wl.betas))[:, None]
            gaps = np.diff(slopes, axis=0).min(axis=0)
            for r, g in enumerate(gaps):
                self.check(g >= -CONVEXITY_TOL,
                           f"seed {res.seed}: convexity gap {g:.3e} t={t} replica {r}")
        ref = reference_log_z(wl.model, wl.betas, wl.horizons, wl.n_replicas, res.seed)
        for p in res.points:
            want = float(np.mean(ref[(p["beta"], p["t"])]) / p["t"])
            self.check(abs(p["mean_p"] - want) <= REF_RTOL * max(1.0, abs(want)),
                       f"seed {res.seed}: mean_p {p['mean_p']!r} vs reference {want!r} "
                       f"at beta={p['beta']} t={p['t']}")
