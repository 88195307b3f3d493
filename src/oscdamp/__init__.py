"""Eigenvalue sensitivity of grid oscillation modes to generator redispatch."""

from .errors import (
    ConvergenceError,
    DegenerateModeError,
    DomainError,
    GridFormatError,
    ModeMatchingError,
    OracleError,
    OscdampError,
    ReductionError,
    SingularityError,
    UsageError,
    ValidationError,
)
from .network import (
    Bus,
    Line,
    LineState,
    Network,
    OperatingPoint,
    build_incidence,
    line_states,
    parse_grid_file,
    potential_energy,
    solve_power_flow,
)
from .laplacian import LaplacianBundle, coord_jacobian, hessian
from .modal import (
    DynamicMatrices,
    Mode,
    alpha,
    build_dynamic_matrices,
    extended_jacobian,
    reduced_jacobian,
    solve_qep,
)
from .sensitivity import (
    SensitivityReport,
    const_v_coefficients,
    dlambda,
    sensitivity_coefficients,
)
from .dispatch import (
    ModePrediction,
    PairSensitivity,
    RedispatchPlan,
    flow_response,
    plan_between,
    rank_pairs,
    sweep,
    unit_dlambda,
)
from .study import Study, build_study

__version__ = "0.1.0"
