"""Bound states of a 2D Dirac particle in an anharmonic oscillator under
uniform magnetic and Aharonov-Bohm flux fields."""

import importlib

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

# oracle and wavefunc need numpy (and the oracle scipy), which would be most of
# the import time; they load on first use of one of their names (PEP 562)
_LAZY = {
    "OracleComparison": "oracle",
    "RadialGrid": "oracle",
    "compare": "oracle",
    "fd_eigenvalue": "oracle",
    "self_consistent_energy": "oracle",
    "RadialProfile": "wavefunc",
    "count_nodes": "wavefunc",
    "ode_residual": "wavefunc",
    "radial_profile": "wavefunc",
}

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


def __getattr__(name: str):
    if name in _LAZY.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(__getattr__(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
