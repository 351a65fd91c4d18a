"""Critical points of nonlocal aggregation-diffusion energies on [0, L].

Compute swarm equilibria by relaxed fixed-point iteration on the Gibbs map,
verify them against the critical-point identity and boundary diagnostics,
benchmark against the closed-form truncated-Gaussian family, and relate
domain geometry to existence thresholds via the effective volume dimension.
"""

from .analytic import (
    TruncatedGaussian,
    UnitIntervalState,
    critical_slope,
    erf,
    exact_minimizer,
    log_retained_mass,
    solve_critical_shift,
    truncated_gaussian_energy,
    truncated_gaussian_energy_derivative,
    unit_interval_limit_state,
)
from .diagnostics import (
    DiagnosticsReport,
    Moments,
    boundary_condition_error,
    com_drift,
    diagnose,
    euler_lagrange_residual,
    moments,
)
from .energy import (
    EnergyBreakdown,
    Problem,
    entropy,
    total_energy,
)
from .geometry import (
    DomainSpec,
    VolumeProfile,
    ball_cylinder_domain,
    ball_domain,
    ball_volume,
    box_domain,
    estimate_effective_dimension,
    estimate_volume_profile,
    estimate_volume_profiles,
    half_space_domain,
    paraboloid_domain,
    slab_domain,
    wedge_domain,
)
from .gibbs import GibbsMapError, apply_gibbs_map, fixed_point_residual
from .grid import (
    Density,
    Grid,
    KernelOperator,
    convolve_kernel,
    indicator_density,
    integrate,
    make_grid,
)
from .potentials import (
    ExistenceRegime,
    ExternalPotential,
    InteractionKernel,
    LinearPotential,
    PowerLawKernel,
    RegularizedQanrKernel,
    ShiftedKernel,
    TabulatedKernel,
    TabulatedPotential,
    ZeroPotential,
    classify_existence,
)
from .solver import (
    ContinuationSchedule,
    SolveReport,
    SolverConfig,
    count_aggregates,
    solve,
    solve_with_continuation,
)

__version__ = "0.1.0"
