import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from diracosc.model import FieldConfiguration, StateIndex, SymmetryLimit, reduced_coefficients
from diracosc.special import integrate_halfline
from diracosc.spectrum import BoundState, SearchWindow, find_states, log_norm_squared
from diracosc.wavefunc import (
    RadialProfile,
    count_nodes,
    default_r_max,
    ode_residual,
    peak_radius,
    radial_profile,
    radial_value,
)

PS = SymmetryLimit.PSEUDOSPIN
SP = SymmetryLimit.SPIN
BARE = FieldConfiguration(M=1, a=1, b=0, B=0, phi_AB=0)


def bare_state(n: int, m: int) -> BoundState:
    states = find_states(BARE, SP, StateIndex(n, m), SearchWindow(1.0001, 20.0))
    assert len(states) == 1
    return states[0]


def synthetic_state(p_tilde: float, alpha: float, n: int = 0) -> BoundState:
    return BoundState(
        symmetry=SP,
        index=StateIndex(n, 0),
        E=2.0,
        origin=-1.0,
        offset=3.0,
        p_tilde=p_tilde,
        alpha=alpha,
        residual=0.0,
        norm_const=1.0,
    )


def test_nodeless_profile_peak_location():
    state = bare_state(0, 1)
    prof = radial_profile(state, samples=40000)
    assert count_nodes(prof) == 0
    r_star = math.sqrt((state.alpha + 0.5) / state.p_tilde)
    assert abs(peak_radius(state) - r_star) < 1e-15
    r_peak_sampled = prof.r[np.argmax(np.abs(prof.g))]
    assert abs(r_peak_sampled - r_star) < 2.0 * (prof.r[1] - prof.r[0])


def test_node_counts_match_n():
    for n in (1, 2, 3):
        prof = radial_profile(bare_state(n, 0))
        assert count_nodes(prof) == n, n


def test_profile_decays_at_default_r_max(regression_matrix):
    # the Gaussian factor alone is 1.3e-14 at 8/sqrt(p~); the polynomial
    # factor r^(alpha+1/2) L_n(p~ r^2) costs up to ~1e8 of that at n = 3,
    # alpha ~ 5 (measured worst over the matrix: 1.1e-6)
    for n, m in [(0, 0), (0, 1), (1, 0)]:
        state = bare_state(n, m)
        prof = radial_profile(state)
        tail = abs(radial_value(state, default_r_max(state)))
        assert tail < 1e-10 * np.max(np.abs(prof.g))
    for _, _, _, state in regression_matrix:
        prof = radial_profile(state)
        tail = abs(radial_value(state, default_r_max(state)))
        assert tail < 5e-6 * np.max(np.abs(prof.g))


def test_profile_positive_near_origin():
    for n in range(3):
        prof = radial_profile(bare_state(n, 1))
        assert prof.g[0] > 0.0


def test_count_nodes_on_synthetic_sine():
    r = np.linspace(0.01, 3.0, 1500)
    prof = RadialProfile(state=None, r=r, g=np.sin(3.0 * math.pi * r / 3.0))
    assert count_nodes(prof) == 2


def closed_form_norm(state: BoundState) -> float:
    """N from the closed form N^2 = 2 p~^(alpha+1) n! / Gamma(n + alpha + 1)."""
    return math.exp(0.5 * log_norm_squared(state.n, state.alpha, state.p_tilde))


def test_normalization_closed_form_values():
    # n=0, alpha=1, p~=1: integral of 2 r^3 exp(-r^2) is 1, so N = sqrt(2)
    assert abs(closed_form_norm(synthetic_state(1.0, 1.0)) - math.sqrt(2.0)) < 1e-14
    # n=0, alpha=0, p~=1: N^2 = 2/Gamma(1) = 2
    assert abs(closed_form_norm(synthetic_state(1.0, 0.0)) ** 2 - 2.0) < 1e-13


def test_normalization_matches_quadrature():
    for n, m in [(0, 0), (1, 1), (3, -2)]:
        state = bare_state(n, m)
        total = integrate_halfline(lambda r: radial_value(state, r) ** 2, rel_tol=1e-12)
        assert abs(total - 1.0) <= 1e-10, (n, m)


def test_norm_const_equals_normalization(regression_matrix):
    for _, _, _, state in regression_matrix:
        assert abs(state.norm_const - closed_form_norm(state)) <= 1e-12 * state.norm_const


def test_norm_const_matches_mpmath(regression_matrix):
    # N = sqrt(2 p~^(alpha+1) n! / Gamma(n + alpha + 1)) at 40 digits from the
    # state's own p~ and alpha; measured worst 2.0e-15 relative
    for _, _, _, state in regression_matrix:
        with mpmath.workdps(40):
            p, alpha = mpmath.mpf(state.p_tilde), mpmath.mpf(state.alpha)
            ref = float(mpmath.sqrt(2 * p ** (alpha + 1) * mpmath.factorial(state.n)
                                    / mpmath.gamma(state.n + alpha + 1)))
        assert abs(state.norm_const - ref) <= 1e-13 * ref, state


def test_ode_residual_small_for_true_states():
    cfg = FieldConfiguration(M=1, a=1, b=1, B=2, phi_AB=1.0)
    states = find_states(cfg, PS, StateIndex(1, 1), SearchWindow(1.1, 21.0))
    assert states
    assert ode_residual(states[0], cfg) <= 1e-6


def test_ode_residual_bare_oscillator():
    # simplest instance: b = B = flux = 0, n = 0, m = 0 (pure harmonic)
    state = bare_state(0, 0)
    assert ode_residual(state, BARE) <= 1e-6


def test_ode_residual_detects_wrong_energy():
    cfg = FieldConfiguration(M=1, a=1, b=1, B=2, phi_AB=1.0)
    state = find_states(cfg, PS, StateIndex(0, 0), SearchWindow(1.1, 21.0))[0]
    E_bad = state.E + 0.01
    rc = reduced_coefficients(cfg, PS, 0, E_bad)
    shifted = BoundState(
        symmetry=PS,
        index=state.index,
        E=E_bad,
        origin=state.origin,
        offset=E_bad - state.origin,
        p_tilde=math.sqrt(rc.p2),
        alpha=math.sqrt(rc.delta + 0.25),
        residual=0.0,
        norm_const=1.0,
    )
    assert ode_residual(shifted, cfg) >= 1e-3


def test_radial_profile_validation():
    state = bare_state(0, 0)
    # r_max = inf gave NaN samples: r^(alpha + 1/2) exp(-p~ r^2 / 2) is inf * 0
    for r_max in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            radial_profile(state, r_max=r_max)
    # at least one grid point, like a positive r_max
    for samples in (0, -3):
        with pytest.raises(ValueError):
            radial_profile(state, samples=samples)


def test_norm_quadrature_of_weakly_confined_state():
    # p~ = 2.8e-5, alpha = 2.6: the mass of g^2 sits at r ~ 400, t > 0.997
    # after the half-line map; a quadrature started from one 3-point panel
    # returned 3e-12 here
    state = synthetic_state(2.8228100508637435e-05, 2.587160569959473, n=4)
    state = replace(state, norm_const=closed_form_norm(state))
    total = integrate_halfline(lambda r: radial_value(state, r) ** 2)
    assert abs(total - 1.0) <= 1e-9
