"""Physical configuration and the energy-dependent radial coefficients.

The planar problem reduces, for either symmetry limit, to a radial equation
    g'' - [ p2 * r^2 + delta / r^2 + q ] g = 0
whose three coefficients depend on the trial energy E through a mass factor
mu: (E - M) in the pseudospin limit, (E + M) in the spin limit.

Conventions:
- natural units with hbar = 1; the light-speed symbol c is kept as an
  explicit parameter (default 1) so formulas can be checked literally;
- e is a positive charge magnitude, field and flux signs live in B and
  phi_AB;
- the -1/4 centrifugal correction from the 1/sqrt(r) wave-function ansatz
  is folded into delta and never handled separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class ExcludedEnergy(ValueError):
    """Trial energy sits exactly on the forbidden mass shell."""


class SymmetryLimit(Enum):
    PSEUDOSPIN = "pseudospin"
    SPIN = "spin"

    def mass_factor(self, E: float, M: float) -> float:
        """mu = E - M (pseudospin) or E + M (spin)."""
        return E - M if self is SymmetryLimit.PSEUDOSPIN else E + M

    def forbidden_energy(self, M: float) -> float:
        """Energy at which the eliminated spinor component is undefined."""
        return M if self is SymmetryLimit.PSEUDOSPIN else -M


class Admissibility(Enum):
    ADMISSIBLE = "admissible"
    NOT_CONFINING = "not_confining"
    SUPERCRITICAL_INVERSE_SQUARE = "supercritical_inverse_square"
    EXCLUDED_ENERGY = "excluded_energy"


@dataclass(frozen=True)
class FieldConfiguration:
    """Problem parameters: V(r) = a r^2 + b / r^2 plus uniform field B and
    solenoid flux phi_AB."""

    M: float
    a: float
    b: float
    B: float = 0.0
    phi_AB: float = 0.0
    e: float = 1.0
    c: float = 1.0

    def __post_init__(self) -> None:
        for name in ("M", "a", "b", "B", "phi_AB", "e", "c"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.M > 0.0:
            raise ValueError(f"M must be > 0, got {self.M}")
        if self.a < 0.0:
            raise ValueError(f"a must be >= 0, got {self.a}")
        if not self.c > 0.0:
            raise ValueError(f"c must be > 0, got {self.c}")
        if not self.e > 0.0:
            raise ValueError(f"e must be > 0, got {self.e}")


@dataclass(frozen=True)
class StateIndex:
    """Radial quantum number n >= 0 and magnetic quantum number m."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")


@dataclass(frozen=True)
class ReducedCoefficients:
    """Coefficients (p2, q, delta) of the radial bracket at one trial energy,
    plus the flux-shifted angular number m_eff.

    By construction delta + 1/4 = m_eff^2 + 2 mu b.
    """

    p2: float
    q: float
    delta: float
    m_eff: float


def effective_angular(m: int, cfg: FieldConfiguration) -> float:
    """Flux-shifted magnetic quantum number m' = m - e phi_AB / (2 pi c)."""
    return m - cfg.e * cfg.phi_AB / (2.0 * math.pi * cfg.c)


def field_cross_term(cfg: FieldConfiguration, m: int) -> float:
    """Energy-independent part of q: e^2 B phi_AB / (2 pi c^2) - e m B / (2 c)."""
    return (
        cfg.e**2 * cfg.B * cfg.phi_AB / (2.0 * math.pi * cfg.c**2)
        - cfg.e * m * cfg.B / (2.0 * cfg.c)
    )


def reduced_coefficients(
    cfg: FieldConfiguration, sym: SymmetryLimit, m: int, E: float
) -> ReducedCoefficients:
    """Radial-bracket coefficients at trial energy E.

    With mu the symmetry-dependent mass factor:
        p2    = 2 mu a + e^2 B^2 / (4 c^2)
        q     = e^2 B phi_AB / (2 pi c^2) - e m B / (2 c) - (E^2 - M^2)
        delta = m'^2 - 1/4 + 2 mu b

    Raises ExcludedEnergy when E equals the forbidden mass shell.
    """
    if E == sym.forbidden_energy(cfg.M):
        raise ExcludedEnergy(
            f"E = {E} is the excluded mass-shell energy for {sym.value} symmetry"
        )
    mu = sym.mass_factor(E, cfg.M)
    m_eff = effective_angular(m, cfg)
    p2 = 2.0 * mu * cfg.a + (cfg.e * cfg.B) ** 2 / (4.0 * cfg.c**2)
    q = field_cross_term(cfg, m) - (E**2 - cfg.M**2)
    delta = m_eff**2 + 2.0 * mu * cfg.b - 0.25
    return ReducedCoefficients(p2=p2, q=q, delta=delta, m_eff=m_eff)


def coefficient_polynomials(
    cfg: FieldConfiguration, sym: SymmetryLimit, m: int, origin: float = 0.0
) -> tuple[tuple[float, float], tuple[float, float], tuple[float, float, float]]:
    """The coefficients of ``reduced_coefficients`` as polynomials in
    x = E - origin.

    Returns (p2, d, q) as ascending coefficient tuples, with d = delta + 1/4:
    p2 and d are linear in x, q is quadratic.  About origin = +-M the
    constant term of q is the field cross term alone, free of the
    cancellation M^2 - E^2 suffers near the mass shell.
    """
    mu0 = sym.mass_factor(origin, cfg.M)  # mu at x = 0
    p2 = (2.0 * mu0 * cfg.a + (cfg.e * cfg.B) ** 2 / (4.0 * cfg.c**2), 2.0 * cfg.a)
    d = (effective_angular(m, cfg) ** 2 + 2.0 * mu0 * cfg.b, 2.0 * cfg.b)
    q = (field_cross_term(cfg, m) + (cfg.M - origin) * (cfg.M + origin), -2.0 * origin, -1.0)
    return p2, d, q


def admissible(coeffs: ReducedCoefficients) -> Admissibility:
    """Reality check on both radicands of the bound-state condition.

    Confinement needs p2 > 0; the inverse-square term must stay subcritical,
    delta + 1/4 >= 0.  A configuration with a = 0 and B = 0 fails the first
    test at every energy.
    """
    if not coeffs.p2 > 0.0:
        return Admissibility.NOT_CONFINING
    if coeffs.delta + 0.25 < 0.0:
        return Admissibility.SUPERCRITICAL_INVERSE_SQUARE
    return Admissibility.ADMISSIBLE
