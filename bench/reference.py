"""Independent reference for the bound-state energies.

Nothing here imports ``diracosc``: the radial coefficients are written out
again from the paper's definitions, in mpmath arithmetic.  Squaring

    F(E) = 2 sqrt(p2) (K + sqrt(d)) + q = 0,   K = 2n + 1,  d = delta + 1/4,

twice gives the degree-8 polynomial

    P(E) = (q^2 - 4 p2 (K^2 + d))^2 - 64 K^2 p2^2 d

(p2 and d are linear in E, q is quadratic).  Every bound state is a real
root of P.  A real root of P is a bound state when p2 > 0, d >= 0, q < 0 and
the inner bracket q^2 - 4 p2 (K^2 + d) >= 0; the survivors are polished on F
with ``mpmath.findroot``.  No scan, so no root can fall between grid points.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

DPS = 50
# a real root of P has |Im| of order 10^-DPS; a tangent (double) root splits
# into a complex pair of order 10^-(DPS/2)
_IMAG_TOL = mpmath.mpf(10) ** (-DPS // 2 + 5)
# float eigenvalues further than this from the real axis are complex roots
_CANDIDATE_IMAG = 1e-3
# F at a polished root, relative to the size of its terms
_F_TOL = mpmath.mpf(10) ** (-DPS // 2)
# distance (in E) to an admissibility edge below which a root counts as near it
NEAR_EDGE = 1e-3


@dataclass(frozen=True)
class Config:
    """Plain copy of the field configuration (M, a, b, B, phi_AB, e, c)."""

    M: float
    a: float
    b: float
    B: float = 0.0
    phi_AB: float = 0.0
    e: float = 1.0
    c: float = 1.0


@dataclass(frozen=True)
class Root:
    E: float
    near_edge: bool


def _terms(cfg: Config, spin: bool, m: int):
    """(p2, d, q) as mpmath polynomial coefficient lists in E, ascending."""
    mp = mpmath.mpf
    M, a, b, B, phi, e, c = (mp(x) for x in (cfg.M, cfg.a, cfg.b, cfg.B, cfg.phi_AB, cfg.e, cfg.c))
    shift = M if spin else -M  # mu = E + shift
    m_eff = m - e * phi / (2 * mpmath.pi * c)
    gamma = e**2 * B * phi / (2 * mpmath.pi * c**2) - e * m * B / (2 * c)
    p2 = [2 * a * shift + (e * B) ** 2 / (4 * c**2), 2 * a]
    d = [m_eff**2 + 2 * b * shift, 2 * b]
    q = [gamma + M**2, mp(0), mp(-1)]
    return p2, d, q


def _mul(u, v):
    out = [mpmath.mpf(0)] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    return out


def _add(u, v, s=1):
    n = max(len(u), len(v))
    u = list(u) + [mpmath.mpf(0)] * (n - len(u))
    v = list(v) + [mpmath.mpf(0)] * (n - len(v))
    return [x + s * y for x, y in zip(u, v)]


def _horner(coeffs, x):
    acc = mpmath.mpf(0)
    for cf in reversed(coeffs):
        acc = acc * x + cf
    return acc


def energy_condition(cfg: Config, spin: bool, n: int, m: int, E):
    """F(E) in mpmath; complex outside the admissible set."""
    p2, d, q = (_horner(t, E) for t in _terms(cfg, spin, m))
    return 2 * mpmath.sqrt(p2) * (2 * n + 1 + mpmath.sqrt(d)) + q


def polynomial(cfg: Config, spin: bool, n: int, m: int):
    """Ascending mpmath coefficients of the degree-8 polynomial P(E)."""
    p2, d, q = _terms(cfg, spin, m)
    K2 = mpmath.mpf(2 * n + 1) ** 2
    inner = _add(_mul(q, q), [4 * x for x in _mul(p2, _add([K2], d))], -1)
    return _add(_mul(inner, inner), [64 * K2 * x for x in _mul(_mul(p2, p2), d)], -1)


def bound_states(cfg: Config, spin: bool, n: int, m: int) -> list[Root]:
    """Every bound-state energy of (cfg, symmetry, n, m) on the real line,
    ascending; ``spin`` selects the spin limit, else pseudospin."""
    with mpmath.workdps(DPS):
        coeffs = polynomial(cfg, spin, n, m)
        found: list[Root] = []
        for E in real_roots(coeffs):
            E = _bound_state(cfg, spin, n, m, E)
            if E is None or any(abs(E - r.E) <= 1e-12 * (1 + abs(E)) for r in found):
                continue
            found.append(Root(E=float(E), near_edge=edge_distance(cfg, spin, m, E) < NEAR_EDGE))
        found.sort(key=lambda r: r.E)
        return found


def real_roots(coeffs) -> list:
    """Real roots of an mpmath polynomial (ascending coefficients).

    The float companion-matrix eigenvalues locate every root; each one near
    the real axis is then refined on the polynomial at working precision
    (it keeps its speed at the double roots critical coupling produces), and
    kept when the refinement stays real.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    top = coeffs[-1]
    monic = [float(c / top) for c in reversed(coeffs)]
    out = []
    for z in np.roots(monic):
        if abs(z.imag) > _CANDIDATE_IMAG * (1 + abs(z.real)):
            continue
        x = _refine(coeffs, mpmath.mpc(z.real, z.imag))
        if x is not None and abs(x.imag) <= _IMAG_TOL * (1 + abs(x.real)):
            out.append(x.real)
    return out


def _refine(coeffs, x, steps: int = 60):
    """Schroeder's iteration x -= P P' / (P'^2 - P P''): Newton on P / P',
    quadratic at simple and multiple roots alike.  A double root is only
    resolved to about half the working digits; ``_polish`` finishes on F.
    None if it stalls."""
    eps = mpmath.mpf(10) ** (-DPS // 2)
    for _ in range(steps):
        p = dp = d2p = mpmath.mpc(0)
        for c in reversed(coeffs):
            d2p = d2p * x + 2 * dp
            dp = dp * x + p
            p = p * x + c
        den = dp * dp - p * d2p
        if den == 0:
            return x if p == 0 else None
        step = p * dp / den
        x -= step
        if abs(step) <= eps * (1 + abs(x)):
            return x
    return None


def edge_distance(cfg: Config, spin: bool, m: int, E) -> float:
    """Distance in E from an admissible energy to the nearest admissibility
    edge (p2 = 0 or d = 0); inf when neither coefficient depends on E."""
    p2c, dc, _ = _terms(cfg, spin, m)
    p2, d = _horner(p2c, E), _horner(dc, E)
    return float(min(
        p2 / (2 * cfg.a) if cfg.a > 0 else mpmath.inf,
        d / (2 * abs(cfg.b)) if cfg.b != 0 else mpmath.inf,
    ))


def _bound_state(cfg: Config, spin: bool, n: int, m: int, E):
    """E polished on F when the real root E of P is a bound state, else None."""
    p2, d, q = (_horner(t, E) for t in _terms(cfg, spin, m))
    K2 = (2 * n + 1) ** 2
    slack = _IMAG_TOL * (1 + abs(q) ** 2 + abs(p2) * (K2 + abs(d)))
    inner = q * q - 4 * p2 * (K2 + d)
    if not (p2 > 0 and d >= -_IMAG_TOL and q < 0 and inner >= -slack):
        return None
    if E == (-cfg.M if spin else cfg.M):
        return None  # excluded mass shell
    return _polish(cfg, spin, n, m, E)


def _polish(cfg: Config, spin: bool, n: int, m: int, E0):
    """Refine a candidate on F itself; None if F does not vanish there."""

    def F(E):
        return energy_condition(cfg, spin, n, m, E)

    try:
        E = mpmath.findroot(F, E0, tol=mpmath.mpf(10) ** (-2 * DPS + 10))
    except (ValueError, ZeroDivisionError):
        # findroot missed its tolerance (a double root of P is only known to
        # half the digits); the residual test below decides
        E = E0
    if isinstance(E, mpmath.mpc):
        if abs(E.imag) > _IMAG_TOL:
            return None
        E = E.real
    value = F(E)
    p2, d, q = (_horner(t, E) for t in _terms(cfg, spin, m))
    scale = abs(q) + 2 * mpmath.sqrt(abs(p2)) * (2 * n + 1 + mpmath.sqrt(abs(d)))
    if abs(value) > _F_TOL * scale:
        return None
    return E
