"""Radial wave-function construction and validation.

The radial component for a solved level is

    g(r) = N exp(-p~ r^2 / 2) r^(alpha + 1/2) L_n^alpha(p~ r^2)

for either symmetry limit (the lower spinor component in the pseudospin
case, the upper one in the spin case).  Phase convention: N > 0, so
g(0+) > 0.  The angular factor is e^(i m phi) / sqrt(2 pi), which makes the
radial normalization condition simply  integral g^2 dr = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special
from .model import FieldConfiguration
from .spectrum import BoundState, edge_coefficients, log_norm_squared


@dataclass(frozen=True)
class RadialProfile:
    state: BoundState | None
    r: np.ndarray
    g: np.ndarray


def peak_radius(state: BoundState) -> float:
    """Location of the single maximum of the nodeless (n = 0) profile,
    r* = sqrt((alpha + 1/2) / p~); a convenient length scale for any n."""
    return math.sqrt((state.alpha + 0.5) / state.p_tilde)


def default_r_max(state: BoundState) -> float:
    """8 / sqrt(p~): the Gaussian factor alone is below 1e-13 there."""
    return 8.0 / math.sqrt(state.p_tilde)


def radial_profile(state: BoundState, r_max: float | None = None, samples: int = 2000) -> RadialProfile:
    """Sample the normalized g on a uniform grid over (0, r_max]."""
    if r_max is None:
        r_max = default_r_max(state)
    if not 0.0 < r_max < math.inf:
        raise ValueError(f"r_max must be finite and > 0, got {r_max}")
    r = np.linspace(r_max / samples, r_max, samples)
    return RadialProfile(state=state, r=r, g=radial_value(state, r))


def radial_value(state: BoundState, r):
    """g(r) for scalar or array r, normalized by ``state.norm_const``."""
    u = state.p_tilde * r * r
    return (
        state.norm_const
        * np.exp(-0.5 * u)
        * r ** (state.alpha + 0.5)
        * special.laguerre(state.n, state.alpha, u)
    )


def normalization(state: BoundState) -> float:
    """N with integral g^2 dr = 1: N^2 = 2 p~^(alpha+1) n! / Gamma(n+alpha+1).

    Follows from u = p~ r^2 turning the norm integral into the Laguerre
    orthogonality integral.  ``BoundState.norm_const`` holds the same value
    for a solved state.
    """
    return math.exp(0.5 * log_norm_squared(state.n, state.alpha, state.p_tilde))


def count_nodes(profile: RadialProfile) -> int:
    """Strict interior sign changes, ignoring samples below 1e-12 * max|g|."""
    g = np.asarray(profile.g)
    cut = 1e-12 * np.max(np.abs(g))
    signs = np.sign(g[np.abs(g) > cut])
    return int(np.sum(signs[1:] != signs[:-1]))


def ode_residual(state: BoundState, cfg: FieldConfiguration) -> float:
    """Defect of g in the radial equation, max |g'' - V g| / max |g''|.

    V(r) = p2 r^2 + delta / r^2 + q with the coefficients recomputed from cfg
    at the state's origin and offset, not read from the state; g'' comes
    from 5-point central differences (O(h^4)).
    The step 1e-3 / sqrt(p~) scales with the width of the state, so every
    state gets 8000 samples over ``default_r_max``: at a fixed step
    the round-off of the stencil, about eps / (h^2 p~), would swamp the
    defect of a wide (weakly confined) state.
    Points with r < max(0.05 r_peak, 40 h) are excluded: below 0.05 r_peak
    the centrifugal term makes the ratio meaningless, and for non-integer
    exponents alpha + 1/2 the stencil needs r >> h to see a smooth function.
    """
    r_max = default_r_max(state)
    h = 1e-3 / math.sqrt(state.p_tilde)
    p2, d, q = edge_coefficients(cfg, state.symmetry, state.m, state.origin, state.offset)
    samples = int(round(r_max / h))
    r = np.arange(1, samples + 1) * h
    g = radial_value(state, r)
    d2 = (-g[:-4] + 16.0 * g[1:-3] - 30.0 * g[2:-2] + 16.0 * g[3:-1] - g[4:]) / (12.0 * h * h)
    ri = r[2:-2]
    v = p2 * ri * ri + (d - 0.25) / (ri * ri) + q
    res = d2 - v * g[2:-2]
    keep = ri >= max(0.05 * peak_radius(state), 40.0 * h)
    return float(np.max(np.abs(res[keep])) / np.max(np.abs(d2[keep])))
