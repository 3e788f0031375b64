"""Special-function kernel on the standard library alone.

Generalized Laguerre polynomials, log-gamma (``math.lgamma`` with a domain
check) and adaptive quadrature on the half line.  Free of numpy and scipy,
so the normalization and orthogonality checks elsewhere in the package do
not share a code path with the eigensolver stack.
"""

from __future__ import annotations

import math
from fractions import Fraction


class NoConvergence(ArithmeticError):
    """Adaptive quadrature hit the subdivision depth limit."""


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
    """Integrate f over (0, inf) by adaptive Simpson quadrature.

    The substitution x = t/(1-t) maps the half line onto (0, 1); the
    integrand is assumed continuous and decaying faster than 1/x^2, so the
    transformed integrand vanishes at t = 1.  The tolerance is relative to
    the L1 mass of the integrand, which keeps near-zero integrals
    (orthogonality cases) terminating.
    """

    def g(t: float) -> float:
        if t >= 1.0:
            return 0.0
        u = 1.0 - t
        return f(t / u) / (u * u)

    # 2^6 panels, which give the L1 scale (it only sets the absolute
    # tolerance floor) and seed the recursion at depth 6: a start from one
    # 3-point panel can converge falsely on an integrand whose mass sits in
    # a sliver of (0, 1), such as a weakly confined state near t = 1
    start_depth = 6
    max_depth = 72
    panels = 2**start_depth
    t = [i / panels for i in range(panels + 1)]
    gt = [g(x) for x in t]
    scale = (sum(abs(x) for x in gt) - 0.5 * (abs(gt[0]) + abs(gt[-1]))) / panels
    tol = rel_tol * max(scale, 1e-300)

    def simpson(a: float, fa: float, fm: float, fb: float, b: float) -> float:
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def adapt(a, fa, fm, fb, b, whole, eps, depth):
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            raise NoConvergence(
                f"interval [{a}, {b}] reached float resolution without converging"
            )
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = g(lm)
        frm = g(rm)
        left = simpson(a, fa, flm, fm, m)
        right = simpson(m, fm, frm, fb, b)
        if abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        if depth >= max_depth:
            raise NoConvergence(
                f"adaptive quadrature did not converge on [{a}, {b}] at depth {depth}"
            )
        return adapt(a, fa, flm, fm, m, left, 0.5 * eps, depth + 1) + adapt(
            m, fm, frm, fb, b, right, 0.5 * eps, depth + 1
        )

    total = 0.0
    for i in range(panels):
        a, b = t[i], t[i + 1]
        fm = g(0.5 * (a + b))
        whole = simpson(a, gt[i], fm, gt[i + 1], b)
        total += adapt(a, gt[i], fm, gt[i + 1], b, whole, tol / panels, start_depth)
    return total
