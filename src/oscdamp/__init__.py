"""Eigenvalue sensitivity of grid oscillation modes to generator redispatch.

The top level holds what README ``## Library`` documents and every package
error; everything else is imported from its module.
"""

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
from .network import Bus, Line, Network, parse_grid_file, solve_power_flow
from .modal import Mode
from .sensitivity import const_v_coefficients, dlambda, sensitivity_coefficients
from .dispatch import RedispatchPlan, flow_response, plan_between, rank_pairs, sweep, unit_dlambda
from .study import Study, build_study

__all__ = [
    "ConvergenceError", "DegenerateModeError", "DomainError", "GridFormatError",
    "ModeMatchingError", "OracleError", "OscdampError", "ReductionError",
    "SingularityError", "UsageError", "ValidationError",
    "Bus", "Line", "Network", "parse_grid_file", "solve_power_flow",
    "Mode",
    "const_v_coefficients", "dlambda", "sensitivity_coefficients",
    "RedispatchPlan", "flow_response", "plan_between", "rank_pairs", "sweep", "unit_dlambda",
    "Study", "build_study",
]

__version__ = "0.1.0"
