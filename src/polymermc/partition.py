"""log Z for a frozen environment: transfer matrix, exact enumeration, and
Monte Carlo over sampled paths, plus the annealed-mean oracle.

All three stochastic-model routes share the same weight convention: during
step k the walk sits at site y, collects weight exp(beta * dW_k(y)), and then
moves according to the kernel.  This ordering makes the annealed mean exact
at any dt, because the step weights are lognormal with mean
exp(beta^2 Q(0) dt / 2) independently of the walk.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceSpec, Lattice, circulant_spectrum
from .environment import (
    EnvironmentSlab,
    ProbeResult,
    StatReport,
    TimeGrid,
    replica_rng,
    sample_slab,
)
from .polymer import occupancy_energy

BOUNDARY_FLAG_THRESHOLD = 1e-3


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class WalkKernel:
    """Discrete-time approximation of the rate-2d nearest-neighbor walk."""

    d: int
    dt: float

    def __post_init__(self):
        if self.d < 1 or self.dt <= 0:
            raise PartitionError("need d >= 1 and dt > 0")
        if 2 * self.d * self.dt > 0.1 + 1e-12:
            raise PartitionError(
                f"2*d*dt = {2 * self.d * self.dt:.4f} exceeds 0.1; decrease dt"
            )

    @property
    def stay(self) -> float:
        return 1.0 - 2 * self.d * self.dt

    @property
    def move(self) -> float:
        return self.dt


@dataclass(frozen=True)
class PartitionEstimate:
    log_z: float
    stderr: float
    method: str  # transfer | enumerate | montecarlo
    boundary_mass: float = 0.0
    ess: float = float("nan")
    reliable: bool = True

    def __post_init__(self):
        if not math.isfinite(self.log_z):
            raise PartitionError(f"non-finite log_z from method {self.method}")

    @property
    def boundary_flagged(self) -> bool:
        return self.boundary_mass > BOUNDARY_FLAG_THRESHOLD


def _seam_mask(lattice: Lattice) -> np.ndarray:
    """Sites within 2 of the periodic wrap seam on any axis."""
    L = lattice.extent
    w = np.abs(lattice.min_image(np.arange(L)))
    near = w >= max(L // 2 - 2, 1)
    mask = np.zeros(lattice.shape, bool)
    for axis in range(lattice.dim):
        shape = [1] * lattice.dim
        shape[axis] = L
        mask |= near.reshape(shape)
    return mask


# the step exponents of one propagation are precomputed this many bytes at
# a time: enough steps to amortize the per-chunk calls, small enough to stay
# in cache and out of the peak resident set
_CHUNK_BYTES = 1 << 16
# slab bytes stacked into one block of replicas by annealed_mean_check
_BLOCK_BYTES = 1 << 22


def _check_kernel(kernel: WalkKernel, grid: TimeGrid) -> None:
    if abs(kernel.dt - grid.dt) > 1e-12 * grid.dt:
        raise PartitionError("kernel inconsistent with slab grid")


def _axis_operator(kernel: WalkKernel, extent: int) -> np.ndarray:
    """Circulant tridiagonal matrix of the kernel along one axis; summing it
    over the d axes gives the full kernel (the stay weight is split evenly)."""
    op = np.zeros((extent, extent))
    idx = np.arange(extent)
    op[idx, idx] = kernel.stay / kernel.d
    op[idx, (idx + 1) % extent] = kernel.move
    op[idx, (idx - 1) % extent] = kernel.move
    return op


def propagate(increments: np.ndarray, betas, kernel: WalkKernel, lattice: Lattice, stops):
    """Batched Feynman-Kac propagation of the origin indicator.

    increments : shape (n_steps, R) + lattice.shape; R = 1 shares one slab
        across every beta, otherwise row r propagates slab r.
    betas : shape (B,) with B = 1, B = R or R = 1; the state has max(B, R)
        rows.
    stops : step counts at which to read out; stop n sees exactly the first
        n steps, so one pass serves every horizon that shares dt.

    Returns (log_z, boundary_mass), each of shape (len(stops), rows).
    Each step weights the state (with max-subtraction), applies the kernel
    and renormalizes to unit mass, so log Z of order thousands never
    overflows.  log Z is exactly 0.0 in every row whose beta
    is 0 or whose increments up to the stop are all zero.
    """
    betas = np.asarray(betas, float).reshape(-1)
    stops = [int(n) for n in stops]
    n_steps = increments.shape[0]
    if np.any(betas < 0):
        raise PartitionError("beta must be >= 0")
    if increments.shape[2:] != lattice.shape or kernel.d != lattice.dim:
        raise PartitionError("kernel inconsistent with slab grid")
    if not stops or min(stops) < 1 or max(stops) > n_steps:
        raise PartitionError(f"stops must lie in [1, {n_steps}]")
    n_run = max(stops)
    L, d = lattice.extent, lattice.dim
    ones = (1,) * d
    site_axes = tuple(range(2, 2 + d))
    rows = np.broadcast_shapes(betas.shape, increments.shape[1:2])[0]
    beta_col = betas.reshape((1, -1) + ones)
    op = _axis_operator(kernel, L)
    # one matmul per step yields each row's total mass and its seam mass
    proj = np.stack([np.ones(lattice.n_sites), _seam_mask(lattice).reshape(-1)], axis=1)

    u = np.zeros((rows,) + lattice.shape)
    u[(slice(None),) + (0,) * d] = 1.0
    v = np.empty_like(u)
    # views of the fixed state buffers for the per-axis kernel products: the
    # last axis as rows of a matrix, every other axis as the middle of three
    u_last, v_last = u.reshape(-1, L), v.reshape(-1, L)
    inner = [(u.reshape(shape), v.reshape(shape))
             for shape in ((rows * L**a, L, L ** (d - 1 - a)) for a in range(d - 1))]
    v_flat = v.reshape(rows, -1)
    acc = np.zeros(rows)
    bmax = np.zeros(rows)
    log_z = np.empty((len(stops), rows))
    boundary = np.empty((len(stops), rows))
    chunk = max(1, _CHUNK_BYTES // u.nbytes)
    masses = np.empty((chunk, rows, 2))
    totals = masses[(slice(None), slice(None), 0) + (None,) * d]  # a view
    for k0 in range(0, n_run, chunk):
        c = min(chunk, n_run - k0)
        # a zero or non-finite mass poisons the rest of the chunk quietly;
        # the guard after the loop turns it into PartitionError
        with np.errstate(all="ignore"):
            w = beta_col * increments[k0:k0 + c]
            m = w.max(axis=site_axes, keepdims=True)
            w -= m
            np.exp(w, out=w)
            for k in range(c):
                np.multiply(u, w[k], out=u)
                np.matmul(u_last, op, out=v_last)
                for u_ax, v_ax in inner:
                    v_ax += op @ u_ax
                np.matmul(v_flat, proj, out=masses[k])
                np.divide(v, totals[k], out=u)
            total = masses[:c, :, 0]
            step_log = m.reshape(c, rows) + np.log(total)
            if not np.isfinite(step_log).all():
                raise PartitionError(
                    "non-finite transfer intermediate: beta*increment too large; "
                    "reduce dt or check lattice configuration"
                )
            step_bnd = masses[:c, :, 1] / total
        for i, n in enumerate(stops):
            if k0 < n <= k0 + c:
                log_z[i] = acc + step_log[: n - k0].sum(axis=0)
                boundary[i] = np.maximum(bmax, step_bnd[: n - k0].max(axis=0))
        acc += step_log.sum(axis=0)
        np.maximum(bmax, step_bnd.max(axis=0), out=bmax)

    active = increments[:n_run].any(axis=site_axes)  # (n_run, R)
    first_active = np.where(active.any(axis=0), active.argmax(axis=0), n_run)
    trivial = (betas == 0.0) | (np.asarray(stops)[:, None] <= first_active)
    log_z[np.broadcast_to(trivial, log_z.shape)] = 0.0
    return log_z, boundary


def transfer_matrix_logZ(
    slab: EnvironmentSlab, beta: float, kernel: WalkKernel
) -> PartitionEstimate:
    """log Z of one slab at one beta: `propagate` with one row and one stop."""
    _check_kernel(kernel, slab.grid)
    log_z, boundary = propagate(slab.increments[:, None], [beta], kernel, slab.lattice,
                                [slab.grid.n_steps])
    return PartitionEstimate(log_z=float(log_z[0, 0]), stderr=0.0, method="transfer",
                             boundary_mass=float(boundary[0, 0]))


def enumerate_logZ(
    slab: EnvironmentSlab, beta: float, kernel: WalkKernel, max_steps: int = 14
) -> PartitionEstimate:
    """Exact oracle: brute-force sum over all (2d+1)^n_steps discrete-time
    walk trajectories of the same model as transfer_matrix_logZ."""
    n = slab.grid.n_steps
    d = slab.lattice.dim
    if n > max_steps or (2 * d + 1) ** n > 10**8:
        raise PartitionError("instance too large for enumeration")
    moves = [(np.zeros(d, int), kernel.stay)]
    for i in range(d):
        for sign in (1, -1):
            e = np.zeros(d, int)
            e[i] = sign
            moves.append((e, kernel.move))
    lattice = slab.lattice
    flat = slab.flat
    terms = []
    for choice in itertools.product(range(2 * d + 1), repeat=n):
        pos = np.zeros(d, int)
        prob = 1.0
        energy = 0.0
        for k, c in enumerate(choice):
            idx = int(np.ravel_multi_index(tuple(lattice.wrap(pos)), lattice.shape))
            energy += flat[k, idx]
            step, p = moves[c]
            pos = pos + step
            prob *= p
        terms.append(prob * math.exp(beta * energy))
    z = math.fsum(terms)
    return PartitionEstimate(log_z=math.log(z), stderr=0.0, method="enumerate")


# ---------------------------------------------------------------------------
# path samplers for the Monte Carlo route

class KernelPathSampler:
    """Discrete-time walk paths drawn from the kernel probabilities
    (identical model to the transfer matrix)."""

    def __init__(self, kernel: WalkKernel):
        self.kernel = kernel

    def occupancies(self, grid: TimeGrid, n_paths: int, rng) -> np.ndarray:
        d = self.kernel.d
        probs = [self.kernel.stay] + [self.kernel.move] * (2 * d)
        choice = rng.choice(2 * d + 1, size=(n_paths, grid.n_steps), p=probs)
        disp = np.zeros((n_paths, grid.n_steps, d), int)
        for i in range(d):
            disp[..., i] = (choice == 1 + 2 * i).astype(int) - (choice == 2 + 2 * i)
        occ = np.zeros_like(disp)
        occ[:, 1:] = np.cumsum(disp, axis=1)[:, :-1]
        return occ


class JumpPathSampler:
    """Continuous-time rate-2d walk; jump times snapped to the slab grid
    (jumps landing in the same step compose)."""

    def __init__(self, d: int):
        self.d = d

    def occupancies(self, grid: TimeGrid, n_paths: int, rng) -> np.ndarray:
        d, n = self.d, grid.n_steps
        counts = rng.poisson(2 * d * grid.horizon, size=n_paths)
        disp = np.zeros((n_paths, n + 1, d), int)
        for p in range(n_paths):
            c = counts[p]
            if c == 0:
                continue
            taus = np.sort(rng.uniform(0.0, grid.horizon, size=c))
            steps = np.clip(np.rint(taus / grid.dt).astype(int), 1, n)
            axes = rng.integers(0, d, size=c)
            signs = rng.integers(0, 2, size=c) * 2 - 1
            np.add.at(disp[p], (steps, axes), signs)
        occ = np.cumsum(disp, axis=1)[:, :n]
        return occ


class BrownianPathSampler:
    """Brownian paths at fine resolution h, embedded into eps * Z^d by the
    band-exit rule; occupancy read per slab step (h must divide dt)."""

    def __init__(self, d: int, eps: float, h: float):
        if h > eps * eps / 100.0 + 1e-15:
            raise PartitionError("need h <= eps^2 / 100")
        self.d = d
        self.eps = eps
        self.h = h

    def occupancies(self, grid: TimeGrid, n_paths: int, rng) -> np.ndarray:
        per_step = grid.dt / self.h
        if abs(per_step - round(per_step)) > 1e-9:
            raise PartitionError("slab dt must be a multiple of h")
        per_step = int(round(per_step))
        n_fine = per_step * grid.n_steps
        sq = math.sqrt(self.h)
        b = np.zeros((n_paths, self.d))
        level = np.zeros((n_paths, self.d), int)
        occ = np.zeros((n_paths, grid.n_steps, self.d), int)
        # site during step k = embedded level at time (k + 1/2) dt, which is
        # where round-to-nearest jump snapping places the step boundary
        sample_at = {per_step * k + per_step // 2: k for k in range(grid.n_steps)}
        for i in range(1, n_fine + 1):
            b += rng.standard_normal((n_paths, self.d)) * sq
            dev = b - level * self.eps
            out = np.abs(dev) >= self.eps
            if out.any():
                level = level + np.where(out, np.trunc(dev / self.eps).astype(int), 0)
            k = sample_at.get(i)
            if k is not None:
                occ[:, k] = level
        return occ


def montecarlo_logZ(
    slab: EnvironmentSlab,
    beta: float,
    sampler,
    n_paths: int,
    seed: int,
    replica_id: int = 0,
) -> PartitionEstimate:
    """log of the empirical mean of exp(beta * H) over sampled paths, with a
    delta-method standard error and effective sample size."""
    if n_paths < 100:
        raise PartitionError("need n_paths >= 100")
    if isinstance(sampler, WalkKernel):
        sampler = KernelPathSampler(sampler)
    rng = replica_rng(seed, replica_id, stream=1)
    occ = sampler.occupancies(slab.grid, n_paths, rng)
    energies = occupancy_energy(occ, slab)
    x = beta * energies
    m = float(x.max())
    w = np.exp(x - m)
    mean_w = float(w.mean())
    log_z = m + math.log(mean_w)
    stderr = float(w.std(ddof=1) / (mean_w * math.sqrt(n_paths)))
    ess = float(w.sum() ** 2 / (w**2).sum())
    return PartitionEstimate(
        log_z=log_z,
        stderr=stderr,
        method="montecarlo",
        ess=ess,
        reliable=ess >= 10,
    )


def annealed_mean_check(
    spec: CovarianceSpec,
    lattice: Lattice,
    grid: TimeGrid,
    kernel: WalkKernel,
    beta: float,
    n_replicas: int,
    seed: int,
) -> StatReport:
    """Replica mean of Z_t against the annealed value exp(beta^2 Q(0) t / 2).

    Q(0) is the realized zero-offset variance (equal to q0 up to clipped
    spectral mass), so the identity is exact at any dt.  Replicas propagate
    in blocks of stacked slabs, one row per replica.
    """
    if spec.family != "white_noise":
        spectrum = circulant_spectrum(spec, lattice)
        q0 = spectrum.variance
    else:
        spectrum = None
        q0 = spec.q0
    if beta**2 * q0 * grid.horizon > 8 + 1e-9:
        raise PartitionError("beta^2 q0 t too large: annealed mean not estimable")
    _check_kernel(kernel, grid)
    n = grid.n_steps
    block = max(1, _BLOCK_BYTES // (8 * n * lattice.n_sites))
    zs = np.empty(n_replicas)
    for r0 in range(0, n_replicas, block):
        count = min(block, n_replicas - r0)
        slabs = np.empty((n, count) + lattice.shape)
        for j in range(count):
            slabs[:, j] = sample_slab(spec, lattice, grid, seed, r0 + j, spectrum).increments
        log_z, _ = propagate(slabs, [beta], kernel, lattice, [n])
        zs[r0:r0 + count] = np.exp(log_z[0])
    target = math.exp(0.5 * beta**2 * q0 * grid.horizon)
    probe = ProbeResult(
        label=f"annealed mean beta={beta} t={grid.horizon}",
        target=target,
        estimate=float(zs.mean()),
        stderr=float(zs.std(ddof=1) / math.sqrt(n_replicas)),
    )
    return StatReport(probes=[probe], n_replicas=n_replicas)
