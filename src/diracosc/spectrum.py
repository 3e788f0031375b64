"""Transcendental energy condition and bound-state root isolation.

For a state (symmetry, n, m) the bound-state energies are the zeros of

    F(E) = 2 sqrt(p2) (2n + 1 + sqrt(delta + 1/4)) + q

with (p2, q, delta) the energy-dependent coefficients from ``model``.  F is
defined only where the coefficients are admissible.  The solver scans a
window on a uniform grid, brackets every sign change between adjacent
admissible points, and refines each bracket by bisection: F is only
piecewise smooth across admissibility boundaries, so guaranteed bracketing
beats Newton here.  Both positive- and negative-energy roots are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model, special
from .model import Admissibility, FieldConfiguration, StateIndex, SymmetryLimit

# exclusion half-width around the forbidden mass shell, in units of the
# window tolerance
_SHELL_EXCLUSION = 10.0


class InadmissibleEnergy(ValueError):
    """Energy where the bound-state condition is undefined."""

    def __init__(self, verdict: Admissibility, E: float):
        self.verdict = verdict
        self.E = E
        super().__init__(f"E = {E} inadmissible: {verdict.value}")


@dataclass
class SearchWindow:
    e_min: float
    e_max: float
    scan_points: int = 20000
    tol: float = 1e-12

    def __post_init__(self) -> None:
        if not self.e_min < self.e_max:
            raise ValueError(f"need e_min < e_max, got [{self.e_min}, {self.e_max}]")
        if self.scan_points < 2:
            raise ValueError(f"scan_points must be >= 2, got {self.scan_points}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be > 0, got {self.tol}")


def default_window(cfg: FieldConfiguration, scan_points: int = 20000, tol: float = 1e-12) -> SearchWindow:
    """[-(M + 20), M + 20], wide enough for desk-scale configurations."""
    return SearchWindow(-(cfg.M + 20.0), cfg.M + 20.0, scan_points, tol)


@dataclass(frozen=True)
class BoundState:
    """A solved level, self-contained for wave-function reconstruction."""

    symmetry: SymmetryLimit
    index: StateIndex
    E: float
    p_tilde: float
    alpha: float
    residual: float
    norm_const: float

    @property
    def n(self) -> int:
        return self.index.n

    @property
    def m(self) -> int:
        return self.index.m


@dataclass
class ScanDiagnostics:
    """Mutable recorder for root-isolation pathologies."""

    boundary_discards: int = 0
    failed_brackets: int = 0


def energy_condition(cfg: FieldConfiguration, sym: SymmetryLimit, idx: StateIndex, E: float) -> float:
    """F(E); raises InadmissibleEnergy outside the admissible set."""
    try:
        coeffs = model.reduced_coefficients(cfg, sym, idx.m, E)
    except model.ExcludedEnergy:
        raise InadmissibleEnergy(Admissibility.EXCLUDED_ENERGY, E) from None
    verdict = model.admissible(coeffs)
    if verdict is not Admissibility.ADMISSIBLE:
        raise InadmissibleEnergy(verdict, E)
    return (
        2.0 * math.sqrt(coeffs.p2) * (2.0 * idx.n + 1.0 + math.sqrt(coeffs.delta + 0.25))
        + coeffs.q
    )


def _condition_grid(cfg: FieldConfiguration, sym: SymmetryLimit, idx: StateIndex, E: np.ndarray, tol: float):
    """Vectorized F over an energy grid; NaN marks inadmissible points."""
    mu = sym.mass_factor(E, cfg.M)
    m_eff = model.effective_angular(idx.m, cfg)
    p2 = 2.0 * mu * cfg.a + (cfg.e * cfg.B) ** 2 / (4.0 * cfg.c**2)
    q = model.field_cross_term(cfg, idx.m) - (E**2 - cfg.M**2)
    alpha2 = m_eff**2 + 2.0 * mu * cfg.b
    ok = (
        (p2 > 0.0)
        & (alpha2 >= 0.0)
        & (np.abs(E - sym.forbidden_energy(cfg.M)) > _SHELL_EXCLUSION * tol)
    )
    F = np.full_like(E, np.nan)
    F[ok] = 2.0 * np.sqrt(p2[ok]) * (2.0 * idx.n + 1.0 + np.sqrt(alpha2[ok])) + q[ok]
    return F


def _near_boundary(cfg: FieldConfiguration, sym: SymmetryLimit, E: float, m: int, tol: float) -> bool:
    """True when E is within ~tol of a point where a radicand crosses zero.

    The crossing distance is measured in energy via the exact slopes
    d(p2)/dE = 2a and d(delta)/dE = 2b; a radicand that does not vary with E
    (a = 0 or b = 0) has no boundary to cross.
    """
    coeffs = model.reduced_coefficients(cfg, sym, m, E)
    if cfg.a > 0.0 and coeffs.p2 / (2.0 * cfg.a) <= _SHELL_EXCLUSION * tol:
        return True
    if cfg.b != 0.0 and (coeffs.delta + 0.25) / (2.0 * abs(cfg.b)) <= _SHELL_EXCLUSION * tol:
        return True
    return False


def find_states(
    cfg: FieldConfiguration,
    sym: SymmetryLimit,
    idx: StateIndex,
    window: SearchWindow,
    diagnostics: ScanDiagnostics | None = None,
) -> list[BoundState]:
    """All roots of F in the window, ascending in E.

    Roots landing within the tolerance of an admissibility boundary are
    discarded as numerically untrustworthy; the optional diagnostics recorder
    counts them.  An empty list is a valid result.
    """
    diag = diagnostics if diagnostics is not None else ScanDiagnostics()
    grid = np.linspace(window.e_min, window.e_max, window.scan_points)
    F = _condition_grid(cfg, sym, idx, grid, window.tol)

    def f(E: float) -> float:
        return energy_condition(cfg, sym, idx, E)

    states: list[BoundState] = []
    valid = np.isfinite(F)
    for i in range(len(grid) - 1):
        if not (valid[i] and valid[i + 1]):
            continue
        if F[i] == 0.0:
            root = float(grid[i])
        elif F[i] * F[i + 1] < 0.0:
            root = _bisect(f, float(grid[i]), float(grid[i + 1]), window.tol, diag)
            if root is None:
                continue
        else:
            continue
        if _near_boundary(cfg, sym, root, idx.m, window.tol):
            diag.boundary_discards += 1
            continue
        states.append(_package(cfg, sym, idx, root))
    # trailing grid point can itself be an exact zero
    if valid[-1] and F[-1] == 0.0 and not _near_boundary(cfg, sym, float(grid[-1]), idx.m, window.tol):
        states.append(_package(cfg, sym, idx, float(grid[-1])))
    states.sort(key=lambda s: s.E)
    return states


def _bisect(f, lo: float, hi: float, tol: float, diag: ScanDiagnostics) -> float | None:
    flo = f(lo)
    fhi = f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        try:
            fmid = f(mid)
        except InadmissibleEnergy:
            # admissibility gap narrower than the scan resolution
            diag.failed_brackets += 1
            return None
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    candidates = [(lo, flo), (hi, fhi)]
    mid = 0.5 * (lo + hi)
    try:
        candidates.append((mid, f(mid)))
    except InadmissibleEnergy:
        pass
    return min(candidates, key=lambda p: abs(p[1]))[0]


def _package(cfg: FieldConfiguration, sym: SymmetryLimit, idx: StateIndex, E: float) -> BoundState:
    coeffs = model.reduced_coefficients(cfg, sym, idx.m, E)
    p_tilde = math.sqrt(coeffs.p2)
    alpha = math.sqrt(coeffs.delta + 0.25)
    residual = abs(energy_condition(cfg, sym, idx, E))
    # closed form N^2 = 2 p~^(alpha+1) n! / Gamma(n + alpha + 1)
    log_n2 = (
        math.log(2.0)
        + (alpha + 1.0) * math.log(p_tilde)
        + special.log_gamma(idx.n + 1.0)
        - special.log_gamma(idx.n + alpha + 1.0)
    )
    return BoundState(
        symmetry=sym,
        index=idx,
        E=E,
        p_tilde=p_tilde,
        alpha=alpha,
        residual=residual,
        norm_const=math.exp(0.5 * log_n2),
    )


@dataclass
class SweepSpec:
    """Grid over one external-field parameter."""

    parameter: str  # "B" or "phi_AB"
    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        if self.parameter not in ("B", "phi_AB"):
            raise ValueError(f"parameter must be 'B' or 'phi_AB', got {self.parameter!r}")
        if self.steps < 2:
            raise ValueError(f"steps must be >= 2, got {self.steps}")

    def values(self) -> list[float]:
        return [
            self.start + (self.stop - self.start) * i / (self.steps - 1)
            for i in range(self.steps)
        ]


@dataclass
class SweepTable:
    """One row per grid value, one energy column per state; None marks an
    empty cell (no root in the window)."""

    parameter: str
    values: list[float]
    states: list[StateIndex]
    energies: list[list[float | None]] = field(default_factory=list)

    def column(self, j: int) -> list[float | None]:
        return [row[j] for row in self.energies]


def sweep(
    cfg_template: FieldConfiguration,
    sym: SymmetryLimit,
    states: list[StateIndex],
    vary: SweepSpec,
    window: SearchWindow,
) -> SweepTable:
    """Track each requested state across the parameter grid.

    Grid points are processed in order: from the second point on, the search
    window is recentered on the previous root of the same state so the sweep
    follows one branch continuously; the first point (and a fresh start after
    a gap) takes the lowest root in the base window.
    """
    table = SweepTable(parameter=vary.parameter, values=vary.values(), states=list(states))
    width = window.e_max - window.e_min
    last: list[float | None] = [None] * len(states)
    for value in table.values:
        cfg = replace(cfg_template, **{vary.parameter: value})
        row: list[float | None] = []
        for j, idx in enumerate(states):
            if last[j] is None:
                w = window
            else:
                w = SearchWindow(
                    last[j] - 0.5 * width,
                    last[j] + 0.5 * width,
                    window.scan_points,
                    window.tol,
                )
            roots = find_states(cfg, sym, idx, w)
            if not roots:
                row.append(None)
                continue
            if last[j] is None:
                best = roots[0]
            else:
                best = min(roots, key=lambda s: abs(s.E - last[j]))
            last[j] = best.E
            row.append(best.E)
        table.energies.append(row)
    return table
