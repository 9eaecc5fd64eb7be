"""Monte Carlo toolkit for continuous-time directed polymers in Gaussian
random environments: environment synthesis, partition-function estimation,
and free-energy scaling diagnostics."""

from .covariance import (
    CirculantSpectrum,
    CovarianceError,
    CovarianceSpec,
    Lattice,
    ValidationReport,
    circulant_spectrum,
    delta_metric,
    q_value,
    validate_spec,
)
from .environment import (
    EnvironmentSlab,
    TimeGrid,
    empirical_covariance_check,
    max_pair_identity_check,
    replica_rng,
    sample_slab,
)
from .free_energy import (
    FreeEnergyCurve,
    FreeEnergyPoint,
    ModelConfig,
    ScalingFit,
    beta_sweep,
    estimate_pt,
    extrapolate_in_t,
    fit_log_corrected,
    fit_power_law,
    invariant_report,
)
from .partition import (
    BrownianPathSampler,
    JumpPathSampler,
    KernelPathSampler,
    PartitionEstimate,
    WalkKernel,
    annealed_mean_check,
    enumerate_logZ,
    montecarlo_logZ,
    propagate,
    transfer_matrix_logZ,
)
from .polymer import (
    BrownianTrace,
    JumpPath,
    discretize_brownian_path,
    hamiltonian,
    sample_jump_path,
)

__version__ = "0.1.0"
