"""Linearized rotating shallow water on a rectangle: regimes, boundary
conditions, energy-stable evolution, and the first-order elliptic subsystem.

The library computes on (3, nx, ny) stacks of (u, v, phi); StateField is
the view of one state that runs take and return, the CSV files hold and
the energy quadrature reads.  The public surface is re-exported here;
submodules group it as

    regime    -- parameter validation, which fixes the regime, Delta and kappa
    algebra   -- symmetrizer, characteristic/elliptic transforms, diagnostics
    boundary  -- admissible boundary-row catalogs (forward and adjoint),
                 trace data, discrete enforcement
    operator  -- discrete transport operator, lifting, energy, boundary
                 quadratic forms
    elliptic  -- the first-order system T/T*: solves, duality, a-priori bounds
    evolve    -- SSP-RK2 time stepping, contraction and convergence checks
    config    -- strict sectioned key=value run configurations
    io_csv    -- deterministic CSV round-trip for fields and energy logs
    cli       -- `swerect` command-line driver
"""

from .algebra import (
    CharTransform,
    CoefficientMatrices,
    DiagnosticReport,
    EllipticTransform,
    coefficient_matrices,
    elliptic_transform,
    from_characteristic,
    hyperbolic_transform,
    to_characteristic,
    verify_diagonalization,
)
from .boundary import (
    SIDES,
    BcEnforcer,
    BoundaryData,
    BoundarySpec,
    IncomingCountReport,
    Side,
    adjoint_bc_catalog,
    bc_catalog,
    incoming_count_check,
)
from .config import ConfigDocument, build_run_config, load_config, parse_config
from .elliptic import (
    AprioriReport,
    EllipticCoeffs,
    ThetaField,
    apply_T,
    apply_T_star,
    apriori_check,
    build_coeffs,
    cross_gradient_residual,
    manufactured_convergence_T,
    manufactured_solution_T,
    manufactured_solution_T_star,
    neumann_crosscheck,
    solve_T,
    solve_T_star,
    swe_elliptic_block,
    theta_inner,
    theta_norm,
)
from .errors import (
    BcViolation,
    DegenerateCase,
    InvalidValue,
    IoError,
    MissingKey,
    NonConvergence,
    NonFinite,
    NonPositiveParameter,
    NotElliptic,
    NotHyperbolic,
    ParseError,
    RegimeMismatch,
    ShapeMismatch,
    SingularSystem,
    SweRectError,
    UnknownKey,
    ViolatesCondition,
)
from .evolve import (
    ContractionReport,
    MmsReport,
    RunConfig,
    RunResult,
    cfl_dt,
    contraction_check,
    mms_convergence,
    refinement_ladder,
    run,
)
from .fields import EnergyLog, Grid, StateField, inner_product, l2_norm
from .io_csv import (
    read_energy_csv,
    read_field_csv,
    write_energy_csv,
    write_field_csv,
)
from .manufactured import DEFAULT_SOLUTION, ManufacturedSolution
from .operator import (
    DiscreteOperator,
    ProbeReport,
    apply_B,
    band_limited_fields,
    boundary_quadratic_forms,
    energy_value,
    flux_split,
    lift_nonhomogeneous,
    positivity_probe,
)
from .regime import TAU_GEN, PhysicalConstants, Regime, classify, validate_params
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
