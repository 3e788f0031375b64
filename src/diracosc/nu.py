"""Semi-numeric Nikiforov-Uvarov engine.

Works on hypergeometric-type equations

    psi'' + (tau_t / sigma) psi' + (sigma_t / sigma^2) psi = 0

with deg(sigma) <= 2, deg(tau_t) <= 1, deg(sigma_t) <= 2.  The auxiliary
linear polynomial is

    pi(s) = h(s) +/- sqrt(h(s)^2 - sigma_t + k sigma),   h = (sigma' - tau_t)/2,

where k is fixed by requiring the radicand to be the square of a linear
polynomial (zero discriminant).  The bound-state branch is the one whose
tau = tau_t + 2 pi has negative slope; the eigenvalue constant is
lambda = k + pi' and the quantization ladder lambda_n = -n tau' - n(n-1)/2 sigma''.

Polynomials are coefficient tuples in ascending order, handled numerically
(floating point); perfect-square detection uses a relative tolerance scaled
by the coefficient magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

_DISC_TOL = 1e-10


class DegenerateSigma(ValueError):
    """sigma(s) is identically zero."""


class NoRealK(ValueError):
    """The zero-discriminant condition has no real solution for k."""


class NoBoundBranch(ValueError):
    """No candidate has tau' < 0."""


def _pad(coeffs, length: int) -> tuple[float, ...]:
    out = tuple(float(c) for c in coeffs)
    if len(out) > length:
        raise ValueError(f"polynomial degree too high: {coeffs}")
    return out + (0.0,) * (length - len(out))


@dataclass(frozen=True)
class HypergeometricProblem:
    """Input polynomials (ascending coefficient tuples)."""

    sigma: tuple[float, ...]
    tau_tilde: tuple[float, ...]
    sigma_tilde: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigma", _pad(self.sigma, 3))
        object.__setattr__(self, "tau_tilde", _pad(self.tau_tilde, 2))
        object.__setattr__(self, "sigma_tilde", _pad(self.sigma_tilde, 3))
        if all(c == 0.0 for c in self.sigma):
            raise DegenerateSigma("sigma(s) must not vanish identically")


@dataclass(frozen=True)
class NUSolution:
    """One (k, pi) candidate with its derived tau and lambda."""

    pi: tuple[float, float]
    k: float
    tau: tuple[float, float]
    lam: float
    branch_id: str

    @property
    def tau_slope(self) -> float:
        return self.tau[1]


def _k_roots(ka: float, kb: float, kc: float, sizes: tuple[float, float, float]) -> list[float]:
    """Real roots of ka k^2 + kb k + kc.  Each coefficient is zero to rounding
    against the size of its own terms (``sizes``), not against the others: a
    leading coefficient of 4 beside kc ~ q^2 is still a genuine k^2 term."""
    if not all(isfinite(c) for c in (ka, kb, kc)):
        raise OverflowError("k-condition coefficients leave the float range")
    a_zero, b_zero, c_zero = (abs(c) <= _DISC_TOL * size for c, size in zip((ka, kb, kc), sizes))
    if a_zero:
        if b_zero:
            if c_zero:
                # radicand is a perfect square for every k; pick the canonical one
                return [0.0]
            raise NoRealK("zero-discriminant condition is unsatisfiable")
        return [-kc / kb]
    disc = kb * kb - 4.0 * ka * kc
    if not isfinite(disc):
        raise OverflowError("k-discriminant leaves the float range")
    if disc < -_DISC_TOL * (kb * kb + abs(4.0 * ka * kc) + 1e-300):
        raise NoRealK(f"k-discriminant is negative: {disc}")
    root = sqrt(max(disc, 0.0))
    k1 = (-kb - root) / (2.0 * ka) + 0.0  # + 0.0 normalizes -0.0
    k2 = (-kb + root) / (2.0 * ka) + 0.0
    return sorted({k1, k2})


def pi_candidates(problem: HypergeometricProblem) -> list[NUSolution]:
    """All (k, +/-) candidates for the auxiliary polynomial pi(s).

    Solves the zero-discriminant condition for k (quadratic, both real roots
    kept) and extracts the exact linear square root of the radicand for each.
    Candidates whose radicand is not a nonnegative perfect square are
    dropped.
    """
    s0, s1, s2 = problem.sigma
    t0, t1 = problem.tau_tilde
    g0, g1, g2 = problem.sigma_tilde

    h0 = (s1 - t0) / 2.0
    h1 = (2.0 * s2 - t1) / 2.0

    # radicand h^2 - sigma_t + k sigma = A s^2 + B s + C, each linear in k
    a0 = h1 * h1 - g2
    b0 = 2.0 * h0 * h1 - g1
    c0 = h0 * h0 - g0

    ka = s1 * s1 - 4.0 * s0 * s2
    kb = 2.0 * b0 * s1 - 4.0 * (a0 * s0 + c0 * s2)
    kc = b0 * b0 - 4.0 * a0 * c0
    sizes = (
        s1 * s1 + abs(4.0 * s0 * s2),
        abs(2.0 * b0 * s1) + 4.0 * (abs(a0 * s0) + abs(c0 * s2)),
        b0 * b0 + abs(4.0 * a0 * c0),
    )

    candidates: list[NUSolution] = []
    for i, k in enumerate(_k_roots(ka, kb, kc, sizes)):
        A = a0 + k * s2
        B = b0 + k * s1
        C = c0 + k * s0
        # A and C are zero to rounding against the size of their own terms:
        # a small A beside a large B or C is still a genuine s^2 term
        a_size = h1 * h1 + abs(g2) + abs(k * s2)
        if A > _DISC_TOL * a_size:
            w1 = sqrt(A)
            w0 = B / (2.0 * w1)
        elif A >= -_DISC_TOL * a_size:
            if C < -_DISC_TOL * (h0 * h0 + abs(g0) + abs(k * s0)):
                continue  # sqrt of a negative constant: no real pi
            w1 = 0.0
            w0 = sqrt(max(C, 0.0))
        else:
            continue  # leading coefficient negative: radicand not a square
        for sign, tag in ((+1.0, "+"), (-1.0, "-")):
            pi0 = h0 + sign * w0
            pi1 = h1 + sign * w1
            tau = (t0 + 2.0 * pi0, t1 + 2.0 * pi1)
            candidates.append(
                NUSolution(
                    pi=(pi0, pi1),
                    k=k,
                    tau=tau,
                    lam=k + pi1,
                    branch_id=f"k{i}{tag}",
                )
            )
    return candidates


def select_solution(candidates: list[NUSolution]) -> NUSolution:
    """Pick the bound-state branch: tau' < 0, most negative pi slope first,
    largest pi constant term on a slope tie."""
    bound = [c for c in candidates if c.tau_slope < 0.0]
    if not bound:
        raise NoBoundBranch("no candidate has tau' < 0")
    return min(bound, key=lambda c: (c.pi[1], -c.pi[0]))


def eigen_condition(solution: NUSolution, problem: HypergeometricProblem, n: int) -> float:
    """Residual lambda - lambda_n; zero iff n indexes an eigenstate."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    sigma_dd = 2.0 * problem.sigma[2]
    lam_n = -n * solution.tau_slope - 0.5 * n * (n - 1) * sigma_dd
    return solution.lam - lam_n


def oscillator_problem(p2: float, q: float, delta: float) -> HypergeometricProblem:
    """The s = r^2 instance family: sigma = 2s, tau_t = 1,
    sigma_t = -(p2 s^2 + q s + delta)."""
    return HypergeometricProblem(
        sigma=(0.0, 2.0),
        tau_tilde=(1.0,),
        sigma_tilde=(-delta, -q, -p2),
    )
