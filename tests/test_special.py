import math

import mpmath
import pytest

from diracosc.special import (
    NoConvergence,
    integrate_halfline,
    laguerre,
    laguerre_series,
    log_gamma,
)


def test_laguerre_base_cases():
    for alpha in (0.0, 0.5, 2.5):
        for x in (0.0, 1.3, 7.0):
            assert laguerre(0, alpha, x) == 1.0
            assert laguerre(1, alpha, x) == 1.0 + alpha - x


def test_laguerre_n2_explicit():
    # L_2^0(x) = (x^2 - 4x + 2)/2, so L_2^0(2) = -1
    assert abs(laguerre(2, 0.0, 2.0) - (-1.0)) < 1e-15


def test_laguerre_series_base_cases():
    assert laguerre_series(0, 0.5, 3.7) == 1.0
    assert abs(laguerre_series(2, 0.0, 2.0) - (-1.0)) < 1e-15
    # x = 0 value is binomial(n + alpha, n)
    expected = math.gamma(7.5) / (math.gamma(2.5) * 120.0)
    assert abs(laguerre_series(5, 1.5, 0.0) - expected) < 1e-12 * expected


def test_laguerre_recurrence_matches_series():
    for n in range(11):
        for alpha in (0.0, 0.5, 1.5, 3.0):
            for x in (0.1, 1.0, 5.0, 20.0):
                a = laguerre(n, alpha, x)
                b = laguerre_series(n, alpha, x)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (n, alpha, x)


def test_laguerre_derivative_identity():
    # d/dx L_n^alpha = -L_{n-1}^{alpha+1}, against central differences
    h = 1e-5
    for n in range(1, 11):
        for alpha in (0.0, 0.5, 1.5, 3.0):
            for x in (0.1, 1.0, 5.0, 20.0):
                fd = (laguerre(n, alpha, x + h) - laguerre(n, alpha, x - h)) / (2.0 * h)
                exact = -laguerre(n - 1, alpha + 1.0, x)
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact)), (n, alpha, x)


def test_laguerre_domain_errors():
    with pytest.raises(ValueError):
        laguerre(2, -1.0, 1.0)
    with pytest.raises(ValueError):
        laguerre(-1, 0.0, 1.0)
    with pytest.raises(ValueError):
        laguerre_series(3, -1.5, 1.0)
    with pytest.raises(OverflowError):
        laguerre_series(31, 0.0, 1.0)


def test_laguerre_orthogonality():
    for alpha in (0.0, 0.5, 1.5, 3.0):
        for n in range(4):
            for m in range(n, 4):
                val = integrate_halfline(
                    lambda x, n=n, m=m, alpha=alpha: x**alpha
                    * math.exp(-x)
                    * laguerre(m, alpha, x)
                    * laguerre(n, alpha, x),
                    rel_tol=1e-12,
                )
                if m == n:
                    norm = math.gamma(n + alpha + 1.0) / math.factorial(n)
                    assert abs(val - norm) <= 1e-8 * norm, (n, alpha)
                else:
                    assert abs(val) < 1e-8, (n, m, alpha)


def test_log_gamma_spot_values():
    assert abs(log_gamma(1.0)) < 1e-14
    assert abs(log_gamma(6.0) - math.log(120.0)) < 1e-13
    # Gamma(1/2) = sqrt(pi) via the duplication identity at x = 1/2
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-13


def reference_log_gamma(x: float) -> float:
    """log Gamma(x) from mpmath at 40 digits, independent of libm."""
    with mpmath.workdps(40):
        return float(mpmath.loggamma(mpmath.mpf(x)))


def test_log_gamma_accuracy_sweep():
    x = 0.5
    while x <= 200.0:
        ref = reference_log_gamma(x)
        assert abs(log_gamma(x) - ref) <= 1e-12 * max(1.0, abs(ref)), x
        x *= 1.07


def test_log_gamma_reflection_region():
    # below x = 1/2, where a Lanczos-type fit needs the reflection formula
    for x in (0.05, 0.2, 0.4):
        ref = reference_log_gamma(x)
        assert abs(log_gamma(x) - ref) <= 1e-12 * abs(ref), x


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-3.0)


def test_integrate_halfline_exponential():
    assert abs(integrate_halfline(lambda x: math.exp(-x), 1e-12) - 1.0) < 1e-11


def test_integrate_halfline_gaussian_moments():
    # int x exp(-x^2) = 1/2 and int x^3 exp(-x^2) = Gamma(2)/2 = 1/2
    one = integrate_halfline(lambda x: x * math.exp(-x * x), 1e-12)
    three = integrate_halfline(lambda x: x**3 * math.exp(-x * x), 1e-12)
    assert abs(one - 0.5) < 1e-12
    assert abs(three - 0.5) < 1e-12


def test_integrate_halfline_no_convergence():
    with pytest.raises(NoConvergence):
        integrate_halfline(lambda x: 1.0 / (1.0 + x), 1e-10)
