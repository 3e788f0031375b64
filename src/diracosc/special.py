"""Special-function kernel on the standard library alone.

Generalized Laguerre polynomials, log-gamma (``math.lgamma`` with a domain
check) and exp-sinh (double-exponential) quadrature on the half line.  Free
of numpy and scipy, so the normalization and orthogonality checks elsewhere
in the package do not share a code path with the eigensolver stack.
"""

from __future__ import annotations

import math


class NoConvergence(ArithmeticError):
    """Half-line quadrature failed: the integrand is not finite at a node, or
    is still significant where the nodes leave the float range."""


def laguerre(n: int, alpha: float, x):
    """Evaluate the generalized Laguerre polynomial L_n^alpha(x).

    Uses the stable three-term recurrence
        k L_k = (2k - 1 + alpha - x) L_{k-1} - (k - 1 + alpha) L_{k-2}
    with L_0 = 1 and L_1 = 1 + alpha - x.  Works elementwise when ``x`` is a
    numpy array.
    """
    if n < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {n}")
    if alpha <= -1.0:
        raise ValueError(f"alpha must be > -1, got {alpha}")
    prev = 1.0 + 0.0 * x
    if n == 0:
        return prev
    cur = 1.0 + alpha - x
    for k in range(2, n + 1):
        prev, cur = cur, ((2.0 * k - 1.0 + alpha - x) * cur - (k - 1.0 + alpha) * prev) / k
    return cur


def laguerre_series(n: int, alpha: float, x: float) -> float:
    """L_n^alpha(x) from the explicit finite sum
    sum_k (-1)^k binom(n + alpha, n - k) x^k / k!.

    Brute-force reference for the recurrence; the two routes share nothing
    but the definition.  The binomial is the gamma ratio
    Gamma(n+alpha+1) / (Gamma(k+alpha+1) (n-k)!) = prod_{i=k+1..n} (alpha+i) / (n-k)!,
    so with float inputs every term is an exact rational and the sum is
    evaluated without rounding (the alternating terms cancel catastrophically
    in plain floating point for moderate x).
    """
    from fractions import Fraction  # only this test reference needs it

    if n < 0:
        raise ValueError(f"polynomial degree must be >= 0, got {n}")
    if alpha <= -1.0:
        raise ValueError(f"alpha must be > -1, got {alpha}")
    if n > 30:
        raise OverflowError(f"series evaluation limited to n <= 30, got {n}")
    xq = Fraction(x)
    aq = Fraction(alpha)
    total = Fraction(0)
    for k in range(n + 1):
        binom = Fraction(1)
        for i in range(k + 1, n + 1):
            binom *= aq + i
        binom /= math.factorial(n - k)
        total += (-1) ** k * binom * xq**k / math.factorial(k)
    return float(total)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def integrate_halfline(f, rel_tol: float = 1e-10) -> float:
    """Integrate f over (0, inf) by the exp-sinh (double-exponential) rule.

    x = exp(pi/2 sinh t) maps the t axis onto the half line, where the
    trapezoid sum converges double exponentially for f analytic on (0, inf)
    (Takahashi and Mori, Publ. RIMS 9 (1974) 721).  The step halves from
    h = 1/2, each level adding the odd nodes, until two levels agree within
    rel_tol of the L1 mass of the integrand; that relative meaning keeps
    near-zero integrals (orthogonality cases) terminating.

    f is called with one float at a time, and not far out, where it may
    overflow: each level walks out from t = 0, the x < 1 side first, and
    ends a side past the previous level's reach at a term below round-off
    against the mass so far and no larger than the one before.
    """

    def term(t: float) -> float:
        s = 0.5 * math.pi * math.sinh(t)
        if abs(s) > 709.0:  # exp(s) leaves the float range
            raise NoConvergence(f"integrand still significant at x = exp({s:.0f})")
        x = math.exp(s)
        v = float(f(x)) * x * (0.5 * math.pi * math.cosh(t))
        if not math.isfinite(v):
            raise NoConvergence(f"integrand term is {v} at x = {x!r}")
        return v

    mass = 0.0

    def walk(t: float, step: float, reach: float) -> tuple[float, float]:
        """Sum of the terms at t, t + step, ...; returns it and the last t."""
        nonlocal mass
        total, prev = 0.0, math.inf
        while True:
            v = term(t)
            total += v
            mass += abs(v)
            if abs(t + step) > abs(reach) and abs(v) <= prev and abs(v) < math.ulp(1.0) * mass:
                return total, t
            prev = abs(v)
            t += step

    h = 0.5
    left, lo = walk(0.0, -h, 0.0)
    right, hi = walk(h, h, 0.0)
    total = left + right
    while True:
        h *= 0.5
        left, t_lo = walk(-h, -2.0 * h, lo)
        right, t_hi = walk(h, 2.0 * h, hi)
        lo, hi = min(lo, t_lo), max(hi, t_hi)
        refined = total + left + right
        # |I_h - I_2h| <= rel_tol * L1_h, with h cancelled
        if abs(refined - 2.0 * total) <= rel_tol * mass:
            return h * refined
        total = refined
