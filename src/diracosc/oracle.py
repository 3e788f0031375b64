"""Independent finite-volume eigensolver for cross-checking the
analytic spectrum.

At fixed trial energy E the radial equation is a linear Sturm-Liouville
problem: -u'' + (P r^2 + D / r^2) u = mu u on (0, r_max).  The analytic
bound-state condition is equivalent to the self-consistency requirement

    mu_n(P(E), D(E)) + q(E) = 0,

with (P, D, q) = (p2, delta, q) the radial-bracket coefficients of
``model.reduced_coefficients``.  The oracle confirms an analytic root and
does not search for one: ``compare`` brackets each root of ``find_states``
1e-8 wide, and a sign change of G(E) = mu_n + q there, from two eigensolve
pairs and without the polynomial machinery of the analytic route, confirms
it.  The Sturm index check runs on the matrices already built at one end.

Discretization: the Frobenius factor at r = 0 comes out exactly.  With
nu = sqrt(D + 1/4) and u = r^(nu + 1/2) y, the remainder y is smooth and
even in r for every D >= -1/4, critical coupling included, and solves
-r^-k (r^k y')' + P r^2 y = mu y with k = 2 nu + 1.  Finite volumes on
uniform cells: face conductance r_face^k / h, closed faces at r = 0 and
r = r_max, cell weight int r^k dr and potential int P r^(k+2) dr, both exact
over each cell, symmetrized by the square root of the weights into a
symmetric tridiagonal matrix.  The eigenvalue by index comes from tridiagonal
bisection, and Richardson extrapolation (4 mu_{h/2} - mu_h) / 3 over the
cells and their halves leaves an h^4 error.  On a grid in units of P^(-1/4)
the discrete operator at P is exactly sqrt(P) times the one at P = 1, so one
grid, ``GRID``, serves every P at the accuracy of P = 1.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import model
from .model import Admissibility, FieldConfiguration, StateIndex, SymmetryLimit
from .spectrum import SearchWindow, find_states


# the oracle's bracket in E: a sign change of G within it confirms a root
_TOL = 1e-8


class GridTooCoarse(RuntimeError):
    """The h and h/2 discretizations disagree about the requested level."""


class NoSignChange(RuntimeError):
    """The self-consistency function does not change sign in the window."""


@dataclass(frozen=True)
class RadialGrid:
    """``points`` uniform cells on (0, r_max)."""

    r_max: float
    points: int

    def __post_init__(self) -> None:
        if not self.r_max > 0.0:
            raise ValueError(f"r_max must be > 0, got {self.r_max}")
        if self.points < 100:
            raise ValueError(f"points must be >= 100, got {self.points}")


# the oracle's grid, in units of P^(-1/4): exponentially small tail error
# for the Gaussian-decaying states at every P; measured at n <= 3 and ten D
# from -1/4 to 30, mu is within 2.1e-10 (relative) of 4n + 2 nu + 2
GRID = RadialGrid(12.0, 1500)


def sturm_count(diag: np.ndarray, off2: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal matrix below x.

    Standard LDL^T pivot sign count; off2[i - 1] is the squared off-diagonal
    entry between rows i - 1 and i.
    """
    count = 0
    d = math.inf  # 0 / inf = 0: the first pivot is diag[0] - x
    # Python floats: the same IEEE doubles as numpy scalars, without the
    # per-element numpy scalar overhead
    for a, b2 in zip(diag.tolist(), [0.0] + off2.tolist()):
        d = (a - x) - b2 / d
        if d == 0.0:
            d = -1e-300
        if d < 0.0:
            count += 1
    return count


def _single_grid_eigenvalue(D: float, r_max: float, cells: int, n: int):
    # imported at the first solve, not with the module: scipy.linalg takes
    # longer to import than the rest of the package, and only this needs it
    from scipy.linalg import eigvalsh_tridiagonal

    k = 2.0 * math.sqrt(D + 0.25) + 1.0
    h = r_max / cells
    i = np.arange(1, cells + 1, dtype=float)
    # every power of r relative to the cell's outer face r = i h, where r^k
    # would overflow for large k: t = (i - 1) / i, and w = weight / (i h)^k
    t = (i - 1.0) / i
    w = h * i * (1.0 - t ** (k + 1.0)) / (k + 1.0)
    potential = h**3 * i**3 * (1.0 - t ** (k + 3.0)) / (k + 3.0)
    # face conductances r_face^k / h, relative to (i h)^k; the faces r = 0
    # and r = r_max are closed
    inner = t**k / h
    outer = np.full(cells, 1.0 / h)
    outer[-1] = 0.0
    diag = (inner + outer + potential) / w
    off = -np.sqrt(t[1:] ** k / (w[:-1] * w[1:])) / h
    mu = eigvalsh_tridiagonal(diag, off, select="i", select_range=(n, n))
    return float(mu[0]), diag, off * off


def fd_eigenvalue(P: float, D: float, grid: RadialGrid, n: int) -> tuple[float, Callable[[], None]]:
    """(n+1)-th smallest eigenvalue of the discretized operator on a grid in
    units of P^(-1/4), Richardson-extrapolated from the grids h and h/2, and
    its index check.

    check() re-checks the eigenvalue index against Sturm counts on both
    grids, on the P = 1 matrices of this solve, and raises GridTooCoarse if
    they disagree (meant for final answers, not for every solve).
    """
    if not P > 0.0:
        raise ValueError(f"P must be > 0, got {P}")
    if D < -0.25:
        raise ValueError(f"D must be >= -1/4, got {D}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    mu_h, diag_h, off2_h = _single_grid_eigenvalue(D, grid.r_max, grid.points, n)
    # the nested grid: every cell split in two
    mu_f, diag_f, off2_f = _single_grid_eigenvalue(D, grid.r_max, 2 * grid.points, n)
    if abs(mu_h - mu_f) > 0.1 * (1.0 + abs(mu_f)):
        raise GridTooCoarse(
            f"h and h/2 eigenvalues disagree: {mu_h} vs {mu_f} (n = {n})"
        )

    def check_index() -> None:
        eps = 1e-8 * (1.0 + abs(mu_f))
        below = sturm_count(diag_f, off2_f, mu_f - eps)
        above = sturm_count(diag_f, off2_f, mu_f + eps)
        if below != n or above < n + 1:
            raise GridTooCoarse(
                f"fine-grid Sturm count brackets index [{below}, {above}) instead of {n}"
            )
        coarse = sturm_count(diag_h, off2_h, mu_f + eps)
        if coarse not in (n, n + 1):
            raise GridTooCoarse(
                f"coarse-grid Sturm count {coarse} inconsistent with index {n}"
            )

    mu = math.sqrt(P) * (4.0 * mu_f - mu_h) / 3.0
    return mu, check_index


def self_consistent_energy(
    cfg: FieldConfiguration,
    sym: SymmetryLimit,
    idx: StateIndex,
    grid: RadialGrid,
    window: tuple[float, float],
) -> float:
    """Zero of G(E) = mu_n(P(E), D(E)) + q(E) in a window 1e-8 wide, from
    one G evaluation at each end.

    Callers center the window on an analytic root of ``find_states``; both
    ends must be admissible energies, and a window wider than twice 1e-8
    (room for the rounding of its ends) raises ValueError.  Without a sign
    change of G between the ends this raises NoSignChange: the root is not
    the oracle's to within 1e-8.

    Unless G is exactly zero at an end, the result is the secant point of
    the two G values: a measurement, not an end of the window.  The
    eigenvalue index is verified by Sturm counts at the end with the
    smaller |G|, on the matrices G built there, so the check solves nothing.
    """
    lo, hi = window
    if not lo <= hi <= lo + 2.0 * _TOL:
        raise ValueError(f"window [{lo}, {hi}] must be an interval at most {_TOL} wide")

    def G(E: float) -> tuple[float, Callable[[], None]]:
        coeffs = model.reduced_coefficients(cfg, sym, idx.m, E)
        if model.admissible(coeffs) is not Admissibility.ADMISSIBLE:
            raise ValueError(f"window reaches inadmissible energy E = {E}")
        mu, check = fd_eigenvalue(coeffs.p2, coeffs.delta, grid, idx.n)
        return mu + coeffs.q, check

    glo, check_lo = G(lo)
    ghi, check_hi = G(hi)
    if glo * ghi > 0.0:
        raise NoSignChange(f"G has no sign change on [{lo}, {hi}]")
    # b is the end with the smaller |G| (hi on a tie)
    if abs(glo) < abs(ghi):
        b, gb, c, gc, check = lo, glo, hi, ghi, check_lo
    else:
        b, gb, c, gc, check = hi, ghi, lo, glo, check_hi
    check()
    if gb == 0.0:
        return b
    return b - gb * (c - b) / (gc - gb)


@dataclass(frozen=True)
class OracleComparison:
    """Paired analytic / finite-volume result for one analytic root
    (oracle_E and abs_diff are None when the oracle does not confirm it)."""

    analytic_E: float
    oracle_E: float | None
    abs_diff: float | None


def compare(
    cfg: FieldConfiguration,
    sym: SymmetryLimit,
    idx: StateIndex,
    grid: RadialGrid | None,
    window: SearchWindow,
) -> list[OracleComparison]:
    """Confirm each analytic root in the window with the oracle; one
    comparison per root of ``find_states``, ascending in E, and [] when
    there is none.

    Each root E gets one bracket E -+ 1e-8 / 2 (narrower next to another
    root or to the state's origin) and two eigensolve pairs: a sign change
    of G there confirms it, and no sign change leaves oracle_E None.  No
    threshold is enforced here, this is reporting only.  grid=None means
    GRID.  Of each analytic state only E and origin are read.
    """
    grid = GRID if grid is None else grid
    analytic = find_states(cfg, sym, idx, window)
    reports = []
    for i, state in enumerate(analytic):
        half = _TOL / 2
        if i > 0:
            half = min(half, 0.45 * (state.E - analytic[i - 1].E))
        if i + 1 < len(analytic):
            half = min(half, 0.45 * (analytic[i + 1].E - state.E))
        # half the distance to the state's origin, the nearest edge or mass
        # shell, keeps both ends of the bracket admissible
        half = min(half, 0.5 * abs(state.E - state.origin))
        try:
            oracle_E = self_consistent_energy(
                cfg, sym, idx, grid, (state.E - half, state.E + half)
            )
        except NoSignChange:
            oracle_E = None
        diff = None if oracle_E is None else abs(state.E - oracle_E)
        reports.append(OracleComparison(state.E, oracle_E, diff))
    return reports
