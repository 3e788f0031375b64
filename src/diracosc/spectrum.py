"""Transcendental energy condition and exact bound-state enumeration.

For a state (symmetry, n, m) the bound-state energies are the zeros of

    F(E) = 2 sqrt(p2) (K + sqrt(d)) + q,   K = 2n + 1,  d = delta + 1/4,

with (p2, q, delta) the energy-dependent coefficients from ``model``.  F is
defined only where the coefficients are admissible.  p2 and d are linear in
E and q is quadratic, so squaring F = 0 twice gives the degree-8 polynomial

    P(E) = (q^2 - 4 p2 (K^2 + d))^2 - 64 K^2 p2^2 d

whose real roots include every zero of F.  The solver takes the near-real
roots of P as candidates, drops those where a zero of F is impossible (it
needs q < 0 and q^2 - 4 p2 (K^2 + d) >= 0), and polishes each survivor on F
itself by Brent's method, inside the admissible interval, whose edges are
exact because p2 and d are linear.  A root is accepted only where F changes
sign, or touches zero at rounding level, so the spurious roots that
squaring adds are never reported.  Both positive- and negative-energy roots
are reported, down to a few ulps from an edge.  There E resolves p2 only to
ulp(E) / (E - edge), so each root is solved again in its offset from the
nearest edge or mass shell, and the state's coefficients come from that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import model, special
from .model import Admissibility, FieldConfiguration, StateIndex, SymmetryLimit

# a root of P further than this (relative) from the real axis is complex
_IMAG_TOL = 1e-3
# distance (relative) a float root of P may sit from the exact one, on top of
# its imaginary part; clustered and double roots are resolved only to
# about sqrt(machine epsilon)
_CANDIDATE_SPREAD = 1e-6
# first half-width (relative) of the sign-change search around a candidate,
# and its growth per step
_FIRST_STEP = 1e-9
_STEP_GROWTH = 100.0
# polished roots closer than this (relative) are one root: rounding splits a
# tangent root into two nearby sign changes of the computed F
_SAME_ROOT = 1e-7
# |F| at or below this share of the size of its terms is zero to rounding
_ROUNDING = 64.0 * math.ulp(1.0)


class InadmissibleEnergy(ValueError):
    """Energy where the bound-state condition is undefined."""

    def __init__(self, verdict: Admissibility, E: float):
        self.verdict = verdict
        self.E = E
        super().__init__(f"E = {E} inadmissible: {verdict.value}")


@dataclass(frozen=True)
class SearchWindow:
    """Energy interval [e_min, e_max] to enumerate; every root of F in it is
    reported, up to the edges of the admissible set."""

    e_min: float
    e_max: float

    def __post_init__(self) -> None:
        if not self.e_min < self.e_max:
            raise ValueError(f"need e_min < e_max, got [{self.e_min}, {self.e_max}]")


def default_window(cfg: FieldConfiguration) -> SearchWindow:
    """[-(M + 20), M + 20], wide enough for desk-scale configurations."""
    return SearchWindow(-(cfg.M + 20.0), cfg.M + 20.0)


@dataclass(frozen=True)
class BoundState:
    """A solved level, self-contained for wave-function reconstruction.
    offset is the root less origin, the nearest of ``_boundaries``, to full
    relative precision; p_tilde, alpha, residual and the norm come from it."""

    symmetry: SymmetryLimit
    index: StateIndex
    E: float
    origin: float
    offset: float
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


def energy_condition(cfg: FieldConfiguration, sym: SymmetryLimit, idx: StateIndex, E: float) -> float:
    """F(E); raises InadmissibleEnergy outside the admissible set."""
    coeffs = model.reduced_coefficients(cfg, sym, idx.m, E)
    verdict = model.admissible(coeffs)
    if verdict is not Admissibility.ADMISSIBLE:
        raise InadmissibleEnergy(verdict, E)
    return _condition(coeffs.p2, coeffs.delta + 0.25, coeffs.q, idx.n)


def _condition(p2: float, d: float, q: float, n: int) -> float:
    return 2.0 * math.sqrt(p2) * (2.0 * n + 1.0 + math.sqrt(d)) + q


def _condition_polynomial(p2, d, q, n: int) -> np.ndarray:
    """Ascending coefficients of P = (q^2 - 4 p2 (K^2 + d))^2 - 64 K^2 p2^2 d
    from the coefficient polynomials of ``model.coefficient_polynomials``."""
    K2 = (2.0 * n + 1.0) ** 2
    inner = np.convolve(q, q)
    inner[:3] -= 4.0 * np.convolve(p2, (K2 + d[0], d[1]))
    P = np.convolve(inner, inner)
    P[:4] -= 64.0 * K2 * np.convolve(np.convolve(p2, p2), d)
    return P


def _condition_roots(cfg: FieldConfiguration, sym: SymmetryLimit, idx: StateIndex) -> np.ndarray:
    """The complex roots of P, as energies.

    Bound states gather near E = -M and E = +M, four roots of P around
    each, and in powers of E the coefficients of P lose those clusters to
    rounding once M is large (at M = 1e4 a root moves by 0.1).  So the roots
    below E = 0 come from P expanded about -M and the rest from P expanded
    about +M: two companion matrices, one eigenvalue call.
    """
    companion = np.zeros((2, 8, 8))
    companion[:, 1:, :-1] = np.eye(7)
    origins = (-cfg.M, cfg.M)
    for k, origin in enumerate(origins):
        P = _condition_polynomial(*model.coefficient_polynomials(cfg, sym, idx.m, origin), idx.n)
        companion[k, 0, :] = -P[-2::-1] / P[-1]
    try:
        eigvals = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError:
        raise OverflowError("the coefficients of P(E) overflow float range") from None
    below, above = (x + o for x, o in zip(eigvals, origins))
    # an overlap of one candidate spread around E = 0 loses no root there
    return np.concatenate((below[below.real <= _CANDIDATE_SPREAD], above[above.real >= -_CANDIDATE_SPREAD]))


def _boundaries(cfg: FieldConfiguration, sym: SymmetryLimit, p2, d) -> list[float]:
    """The mass shell and the energies where p2 or d = delta + 1/4 crosses
    zero, from their coefficient polynomials (``model.coefficient_polynomials``).

    Both are linear in E; one that does not vary with E (a = 0 or b = 0) has
    no crossing.
    """
    return [sym.forbidden_energy(cfg.M)] + [-c[0] / c[1] for c in (p2, d) if c[1] != 0.0]


def _local_polynomials(cfg: FieldConfiguration, sym: SymmetryLimit, m: int, origin: float):
    """(p2, d, q) of ``model.coefficient_polynomials`` about origin, one of
    ``_boundaries``, with an exact zero constant term for the radicand that
    vanishes there: each keeps its relative precision down to x = 0."""
    p2, d, _ = model.coefficient_polynomials(cfg, sym, m)
    zeros = [c[1] != 0.0 and origin == -c[0] / c[1] for c in (p2, d)]
    p2, d, q = model.coefficient_polynomials(cfg, sym, m, origin)
    p2, d = ((0.0, c[1]) if z else c for c, z in zip((p2, d), zeros))
    return p2, d, q


def _evaluate(polys, x: float) -> tuple[float, float, float]:
    p2, d, q = polys
    return p2[0] + p2[1] * x, d[0] + d[1] * x, q[0] + x * (q[1] + x * q[2])


def edge_coefficients(cfg: FieldConfiguration, sym: SymmetryLimit, m: int, origin: float, offset: float):
    """(p2, d, q), d = delta + 1/4, at E = origin + offset (``_local_polynomials``)."""
    return _evaluate(_local_polynomials(cfg, sym, m, origin), offset)


def _admissible_end(cfg: FieldConfiguration, sym: SymmetryLimit, m: int, E: float, inward: float) -> float:
    """The first energy from E in the direction of ``inward`` (+1 or -1)
    that is admissible in floating point; E when it is.  The exact edges
    are only rounded, so this is a few ulps away at most."""
    # mu = E -+ M rounds on the scale of |E| + M
    x, gap = E, math.ulp(abs(E) + cfg.M)
    for _ in range(64):
        if model.admissible(model.reduced_coefficients(cfg, sym, m, x)) is Admissibility.ADMISSIBLE:
            return x
        x = E + inward * gap
        gap *= 2.0
    return x


def _admissible_segments(
    cfg: FieldConfiguration, sym: SymmetryLimit, m: int, window: SearchWindow, p2, d
) -> list[tuple[float, float]]:
    """The admissible part of the window: p2 > 0 and d >= 0 make one interval
    (both are linear in E), cut in two where it contains the mass shell.
    Both ends of each segment are admissible."""
    lo, hi = window.e_min, window.e_max
    if p2[1] > 0.0:
        lo = max(lo, -p2[0] / p2[1])
    elif not p2[0] > 0.0:
        return []
    if d[1] > 0.0:
        lo = max(lo, -d[0] / d[1])
    elif d[1] < 0.0:
        hi = min(hi, -d[0] / d[1])
    elif d[0] < 0.0:
        return []
    if not lo <= hi:
        return []
    lo = _admissible_end(cfg, sym, m, lo, 1.0)
    hi = _admissible_end(cfg, sym, m, hi, -1.0)
    if not lo <= hi:
        return []
    shell = sym.forbidden_energy(cfg.M)
    if lo < shell < hi:
        return [(lo, math.nextafter(shell, -math.inf)), (math.nextafter(shell, math.inf), hi)]
    return [(lo, hi)]


def _candidates(roots, p2, d, q, n: int, lo: float, hi: float) -> list[float]:
    """The roots of P in [lo, hi] where F can vanish, clamped into [lo, hi],
    ascending and distinct.

    ``roots`` are the complex roots of P.  A near-real root stands for a
    real root within its spread; it is kept when, at its clamped real part
    and within that spread, q < 0 and q^2 - 4 p2 (K^2 + d) >= 0, which every
    zero of F satisfies.  Nothing here evaluates F.
    """
    K2 = (2.0 * n + 1.0) ** 2
    out = set()
    for z in roots:
        x, y = float(z.real), abs(float(z.imag))
        spread = y + _CANDIDATE_SPREAD * (1.0 + abs(x))
        if y > _IMAG_TOL * (1.0 + abs(x)) or not lo - spread <= x <= hi + spread:
            continue
        x = min(max(x, lo), hi)
        p2x, dx, qx = _evaluate((p2, d, q), x)
        dq = q[1] + 2.0 * q[2] * x
        inner = qx * qx - 4.0 * p2x * (K2 + dx)
        dinner = 2.0 * qx * dq - 4.0 * p2[1] * (K2 + dx) - 4.0 * p2x * d[1]
        if qx < abs(dq) * spread and inner >= -abs(dinner) * spread:
            out.add(x)
    return sorted(out)


def _polish(f, c: float, fc: float, left: float, right: float, w: float) -> float | None:
    """Zero of f nearest the candidate c within [left, right], or None when
    f does not change sign there.

    Searches both sides of c, widening by _STEP_GROWTH from the half-width
    w, for a sign change of f, and refines the bracket found by Brent's
    method to a few ulps.  Never evaluates f outside [left, right].
    """
    if fc == 0.0:
        return c
    # per open side: its limit, the outermost point searched and f there
    # (same sign as fc)
    sides = [[limit, c, fc] for limit in (right, left) if limit != c]
    while sides:
        for side in list(sides):
            limit, x_in, f_in = side
            x = min(c + w, limit) if limit > c else max(c - w, limit)
            fx = f(x)
            if fx == 0.0 or (fx > 0.0) != (fc > 0.0):
                return _brent(f, x_in, x, f_in, fx, 0.0)
            if x == limit:
                sides.remove(side)
            side[1:] = x, fx
        w *= _STEP_GROWTH
    return None


def _brent(f, lo: float, hi: float, flo: float, fhi: float, tol: float) -> float:
    """Zero of f in [lo, hi], given f(lo) = flo and f(hi) = fhi of opposite
    signs (or one of them exactly zero).

    Brent's method (Brent 1973, Algorithms for Minimization without
    Derivatives, ch. 4): inverse-quadratic or secant steps, falling back to
    bisection whenever an interpolated step would leave the bracket or not
    shrink it fast enough.  Every evaluation lies inside the current
    sign-change bracket [b, c].  Stops once its half-width is <= tol / 2 plus
    two ulps of b, and returns the end b with the smaller |f|, so a sign
    change of f lies within tol (a few ulps with tol = 0) of the result.
    """
    a, fa, b, fb = lo, flo, hi, fhi
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        # the smallest positive float keeps the step non-zero at b = 0
        tol1 = 2.0 * math.ulp(1.0) * abs(b) + 0.5 * tol + math.ulp(0.0)
        m = 0.5 * (c - b)
        if fb == 0.0 or abs(m) <= tol1:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic through a, b, c
                qa, r = fa / fc, fb / fc
                p = s * (2.0 * m * qa * (qa - r) - (b - a) * (r - 1.0))
                q = (qa - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        fb = f(b)


def find_states(
    cfg: FieldConfiguration,
    sym: SymmetryLimit,
    idx: StateIndex,
    window: SearchWindow,
) -> list[BoundState]:
    """All roots of F in the window, ascending in E, down to a few ulps
    from an admissibility edge; only the mass shell itself is excluded, where
    F is undefined.  An empty list is a valid result.
    """
    p2, d, q = model.coefficient_polynomials(cfg, sym, idx.m)
    segments = _admissible_segments(cfg, sym, idx.m, window, p2, d)
    if not segments:
        return []
    roots_of_p = _condition_roots(cfg, sym, idx)

    def f(E: float) -> float:
        return energy_condition(cfg, sym, idx, E)

    roots: list[float] = []
    for lo, hi in segments:
        cands = _candidates(roots_of_p, p2, d, q, idx.n, lo, hi)
        for i, c in enumerate(cands):
            # disjoint search ranges: each root of F lies nearest its own root of P
            left = lo if i == 0 else 0.5 * (cands[i - 1] + c)
            right = hi if i + 1 == len(cands) else 0.5 * (c + cands[i + 1])
            fc = f(c)
            root = _polish(f, c, fc, left, right, _FIRST_STEP * (1.0 + abs(c)))
            if root is None:
                # a tangent root: F touches zero at c without changing sign;
                # the size of F's terms is |q| + |F - q|
                q_c = model.reduced_coefficients(cfg, sym, idx.m, c).q
                if abs(fc) > _ROUNDING * (abs(q_c) + abs(fc - q_c)):
                    continue
                root = c
            if roots and root - roots[-1] <= _SAME_ROOT * (1.0 + abs(root)):
                continue
            roots.append(root)
    boundaries = _boundaries(cfg, sym, p2, d)
    return [_package(cfg, sym, idx, root, boundaries) for root in roots]


def log_norm_squared(n: int, alpha: float, p_tilde: float) -> float:
    """log N^2 of the normalized radial profile, integral g^2 dr = 1:
    N^2 = 2 p~^(alpha+1) n! / Gamma(n + alpha + 1), from u = p~ r^2 turning
    the norm integral into the Laguerre orthogonality integral."""
    return (
        math.log(2.0)
        + (alpha + 1.0) * math.log(p_tilde)
        + special.log_gamma(n + 1.0)
        - special.log_gamma(n + alpha + 1.0)
    )


def _package(
    cfg: FieldConfiguration, sym: SymmetryLimit, idx: StateIndex, E: float, boundaries: list[float]
) -> BoundState:
    """The state at the root E of F, its offset from the nearest of the
    ``boundaries`` solved on F in x = E - origin: from E - origin, two ulps
    of E out, on the side where the radicand vanishing there is positive
    (E's side of a mass shell).  A tangent root keeps E - origin."""
    origin = min(boundaries, key=lambda x: abs(E - x))
    polys = _local_polynomials(cfg, sym, idx.m, origin)
    x0 = E - origin
    side = math.copysign(1.0, next((r[1] for r in polys[:2] if r[0] == 0.0 and r[1] != 0.0), x0))
    c = x0 if side * x0 > 0.0 else 0.0
    w = 2.0 * math.ulp(abs(E) + cfg.M)

    def f(x: float) -> float:
        return _condition(*_evaluate(polys, x), idx.n)

    # from the origin to half way past E: every other edge is further away
    left, right = sorted((0.0, c + side * (0.5 * abs(c) + 4.0 * w)))
    offset = _polish(f, c, f(c), left, right, w)
    offset = c if offset is None else offset
    p2, d, q = _evaluate(polys, offset)
    p_tilde, alpha = math.sqrt(p2), math.sqrt(d)
    return BoundState(symmetry=sym, index=idx, E=E, origin=origin, offset=offset, p_tilde=p_tilde,
                      alpha=alpha, residual=abs(_condition(p2, d, q, idx.n)),
                      norm_const=math.exp(0.5 * log_norm_squared(idx.n, alpha, p_tilde)))


@dataclass(frozen=True)
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
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"start and stop must be finite, got {self.start}, {self.stop}")

    def values(self) -> list[float]:
        return [
            self.start + (self.stop - self.start) * i / (self.steps - 1)
            for i in range(self.steps)
        ]


@dataclass(frozen=True)
class SweepTable:
    """One row per grid value, one energy column per state; None marks an
    empty cell (no root in the window)."""

    parameter: str
    values: list[float]
    states: list[StateIndex]
    energies: list[list[float | None]]

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

    Grid points are processed in order.  Until a state has its first root,
    each point takes the lowest root in the base window; from then on, the
    root nearest the last one found, in a window of the base width centered
    on it.  An empty cell does not reset this: the search after a gap is
    still centered on the last root found.
    """
    values = vary.values()
    energies = []
    width = window.e_max - window.e_min
    last: list[float | None] = [None] * len(states)
    for value in values:
        cfg = replace(cfg_template, **{vary.parameter: value})
        row: list[float | None] = []
        for j, idx in enumerate(states):
            w = window if last[j] is None else SearchWindow(last[j] - 0.5 * width, last[j] + 0.5 * width)
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
        energies.append(row)
    return SweepTable(vary.parameter, values, list(states), energies)
