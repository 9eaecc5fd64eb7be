"""Property tests of the batched transfer engine `partition.propagate` over
random seeded slabs in d = 1 and 2."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polymermc.covariance import CovarianceSpec, Lattice
from polymermc.environment import EnvironmentSlab, TimeGrid, sample_slab
from polymermc.free_energy import ModelConfig, single_replica_log_z, sweep_grids
from polymermc.partition import PartitionError, WalkKernel, enumerate_logZ, propagate

SPECS = {
    "white_noise": CovarianceSpec(family="white_noise", q0=1.0),
    "powered_exponential": CovarianceSpec(family="powered_exponential", q0=1.0,
                                          holder_h=0.5, length_scale=1.0),
}

PROPS = settings(max_examples=25, deadline=None)


@st.composite
def instances(draw, max_steps=40):
    """(slab, kernel, betas, stops) on a small periodic lattice."""
    d = draw(st.sampled_from([1, 2]))
    extent = draw(st.integers(3, 9 if d == 1 else 5))
    n = draw(st.integers(1, max_steps))
    spec = SPECS[draw(st.sampled_from(sorted(SPECS)))]
    seed = draw(st.integers(0, 2**31 - 1))
    grid = TimeGrid(horizon=n * 0.04 / d, n_steps=n)
    slab = sample_slab(spec, Lattice(dim=d, extent=extent), grid, seed)
    # no subnormal betas: the power-of-two scaling identity is exact only
    # while beta * increment neither underflows nor overflows
    betas = draw(st.lists(st.just(0.0) | st.floats(1e-3, 4.0), min_size=1, max_size=5))
    stops = draw(st.lists(st.integers(1, n), min_size=1, max_size=4, unique=True))
    return slab, WalkKernel(d, grid.dt), betas, stops


def _run(slab, kernel, betas, stops):
    return propagate(slab.increments[:, None], betas, kernel, slab.lattice, stops)


@PROPS
@given(instances())
def test_batched_equals_one_beta_one_horizon_runs(inst):
    slab, kernel, betas, stops = inst
    log_z, boundary = _run(slab, kernel, betas, stops)
    for i, n in enumerate(stops):
        for j, beta in enumerate(betas):
            one_z, one_b = propagate(slab.increments[:n, None], [beta], kernel,
                                     slab.lattice, [n])
            assert abs(log_z[i, j] - one_z[0, 0]) <= 1e-12
            assert abs(boundary[i, j] - one_b[0, 0]) <= 1e-12


@PROPS
@given(instances())
def test_beta_zero_rows_exactly_zero(inst):
    slab, kernel, betas, stops = inst
    log_z, _ = _run(slab, kernel, betas + [0.0], stops)
    assert np.all(log_z[:, -1] == 0.0)


@PROPS
@given(instances(), st.lists(st.floats(0.0, 4.0), min_size=3, max_size=6, unique=True))
def test_convex_in_beta_per_slab(inst, betas):
    slab, kernel, _, stops = inst
    betas = np.sort(betas)
    assume(np.diff(betas).min() > 1e-3)
    log_z, _ = _run(slab, kernel, betas, stops)
    slopes = np.diff(log_z, axis=1) / np.diff(betas)
    assert np.diff(slopes, axis=1).min() >= -1e-9


@PROPS
@given(instances(), st.integers(-3, 3))
def test_power_of_two_scaling_identity(inst, power):
    slab, kernel, betas, stops = inst
    lam = 2.0**power
    a, _ = _run(slab.scaled(lam), kernel, betas, stops)
    b, _ = _run(slab, kernel, [lam * beta for beta in betas], stops)
    assert np.array_equal(a, b)


@PROPS
@given(instances())
def test_huge_increment_raises(inst):
    slab, kernel, _, stops = inst
    inc = np.array(slab.increments)
    site = np.unravel_index(1, slab.lattice.shape)  # next to the origin
    inc[(0,) + site] = 1e6
    with pytest.raises(PartitionError, match="non-finite transfer intermediate"):
        propagate(inc[:, None], [1.0], kernel, slab.lattice, stops)


@settings(max_examples=10, deadline=None)
@given(instances(max_steps=6))
def test_multi_beta_multi_horizon_equals_enumeration(inst):
    slab, kernel, betas, stops = inst
    if slab.lattice.dim == 2:  # 5^n paths: keep enumeration quick
        stops = sorted({min(n, 4) for n in stops})
    log_z, _ = _run(slab, kernel, betas, stops)
    for i, n in enumerate(stops):
        grid = TimeGrid(horizon=n * slab.grid.dt, n_steps=n)
        prefix = EnvironmentSlab(increments=slab.increments[:n], spec=slab.spec,
                                 lattice=slab.lattice, grid=grid, seed=slab.seed,
                                 replica_id=slab.replica_id)
        for j, beta in enumerate(betas):
            ref = enumerate_logZ(prefix, beta, kernel).log_z
            assert abs(log_z[i, j] - ref) <= 1e-10 * max(1.0, abs(ref))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([1, 2]), st.integers(0, 2**31 - 1),
       st.lists(st.sampled_from([1.0, 1.1, 1.5, 2.0, 2.7]), min_size=2, max_size=4,
                unique=True))
def test_horizons_with_distinct_dt_match_separate_runs(d, seed, horizons):
    model = ModelConfig(kind="lattice-walk", spec=SPECS["white_noise"], d=d,
                        extent=8 if d == 1 else 5)
    betas = [0.0, 0.5, 2.5**0.5]  # dt_target 0.04 at d = 1
    grids = sweep_grids(model, betas, sorted(horizons))
    assume(len({g.dt for g in grids}) >= 2)
    together = single_replica_log_z(model, betas, grids, seed, 0)
    for grid in grids:
        alone = single_replica_log_z(model, betas, [grid], seed, 0)
        for beta in betas:
            assert together[(beta, grid.horizon)] == alone[(beta, grid.horizon)]


def test_horizons_1_5_and_2_have_distinct_dt():
    # the example behind the test above: t = 1.5 takes 38 steps of 1.5/38,
    # t = 2 takes 50 steps of 0.04, so they share no prefix
    model = ModelConfig(kind="lattice-walk", spec=SPECS["white_noise"], d=1, extent=8)
    g15, g2 = sweep_grids(model, [2.5**0.5], [1.5, 2.0])
    assert (g15.n_steps, g2.n_steps) == (38, 50) and g15.dt != g2.dt
