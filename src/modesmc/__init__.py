"""Sequential Monte Carlo with partition-restricted mutation kernels.

The engine propagates particles through an annealed family of targets,
resampling by importance weight at every stage and mutating each particle
with a Markov kernel confined to its current partition cell, so it keeps
multimodal targets covered even when no kernel mixes globally. Companion
modules evaluate the finite-sample particle and mixing-step requirements
in closed form, and verify the engine's distributional guarantees
exhaustively on small enumerated instances.
"""

__version__ = "0.1.0"

from .families import (
    AnnealedFamily,
    GaussianMixtureCatalog,
    InvalidStateError,
    IsingCatalog,
    Partition,
    analytic_catalog,
    gaussian_mixture_target,
    geometric_schedule,
    half_space_partition,
    index_family,
    index_partition,
    ising_target,
    linear_schedule,
    spin_sign_partition,
)
from .kernels import (
    DiscreteNeighborWalk,
    RadialWalk,
    RandomWalkMetropolis,
    RestrictedKernel,
    SingleSiteFlip,
    mixing_time_bound,
    restrict_transition_matrix,
    spectral_gap,
    stage_kernel,
    stationary_distribution,
    transition_matrix,
)
from .engine import (
    RunConfig,
    RunReport,
    StepDiagnostics,
    WeightCollapseError,
    cell_tracking_error,
    estimate,
    run,
)
from .bounds import (
    WARM_START_M,
    bounds_table,
    gap_based_t_bound,
    lambda_of,
    mutation_tv_target,
    overlap_discrete,
    overlap_lower_bound,
    overlap_monte_carlo,
    particle_bound,
    persistence,
    phi,
    phi_power_ok,
)
from .discrete import (
    DiscreteSpace,
    ising_space,
    random_tempered_space,
    reference_four_state,
)
from .checks import (
    CoupledPair,
    coupling_map,
    conditional_weight_identity,
    local_warmness_report,
    stage_weight_concentration,
    tv_distance,
    warm_mixing_time,
    warm_mixing_times,
    warm_start_vertices,
)
from .tempering import (
    ModeCrossingReport,
    mode_crossing_report,
    pt_run,
    st_run,
)
