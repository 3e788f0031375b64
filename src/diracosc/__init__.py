"""Bound states of a 2D Dirac particle in an anharmonic oscillator under
uniform magnetic and Aharonov-Bohm flux fields."""

from .model import (
    Admissibility,
    FieldConfiguration,
    ReducedCoefficients,
    StateIndex,
    SymmetryLimit,
    admissible,
    effective_angular,
    reduced_coefficients,
)
from .oracle import OracleComparison, RadialGrid, compare, fd_eigenvalue, self_consistent_energy
from .spectrum import (
    BoundState,
    InadmissibleEnergy,
    SearchWindow,
    SweepSpec,
    SweepTable,
    default_window,
    energy_condition,
    find_states,
    sweep,
)
from .wavefunc import RadialProfile, count_nodes, ode_residual, radial_profile

__all__ = [
    "Admissibility",
    "BoundState",
    "FieldConfiguration",
    "InadmissibleEnergy",
    "OracleComparison",
    "RadialGrid",
    "RadialProfile",
    "ReducedCoefficients",
    "SearchWindow",
    "StateIndex",
    "SweepSpec",
    "SweepTable",
    "SymmetryLimit",
    "admissible",
    "compare",
    "count_nodes",
    "default_window",
    "effective_angular",
    "energy_condition",
    "fd_eigenvalue",
    "find_states",
    "ode_residual",
    "radial_profile",
    "reduced_coefficients",
    "self_consistent_energy",
    "sweep",
]

__version__ = "0.1.0"
