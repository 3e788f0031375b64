import math
from dataclasses import replace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracosc import model, nu
from diracosc.model import Admissibility, FieldConfiguration, StateIndex, SymmetryLimit
from diracosc.spectrum import (
    InadmissibleEnergy,
    SearchWindow,
    SweepSpec,
    default_window,
    energy_condition,
    find_states,
    sweep,
)

PS = SymmetryLimit.PSEUDOSPIN
SP = SymmetryLimit.SPIN

CLEAN = FieldConfiguration(M=1, a=1, b=1, B=2, phi_AB=math.pi)
BARE = FieldConfiguration(M=1, a=1, b=0, B=0, phi_AB=0)  # oscillator only


def cubic_root(K: float, lo: float = 1.0, hi: float = 30.0) -> float:
    """Independent oracle for the b=B=flux=0 spin case with M=a=1:
    bisection on (E-1)^2 (E+1) - 8 K^2."""

    def f(E):
        return (E - 1.0) ** 2 * (E + 1.0) - 8.0 * K * K

    assert f(lo) < 0.0 < f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_energy_condition_clean_config():
    val = energy_condition(CLEAN, PS, StateIndex(0, 1), 2.0)
    assert abs(val - (5.0 * math.sqrt(3.0) - 3.0)) < 1e-12


def test_energy_condition_bare_oscillator():
    # F(E) = 2 sqrt(2(E+1)) - (E^2 - 1); F(1) = 4
    assert abs(energy_condition(BARE, SP, StateIndex(0, 0), 1.0) - 4.0) < 1e-14


def test_energy_condition_inadmissible():
    with pytest.raises(InadmissibleEnergy) as err:
        energy_condition(BARE, PS, StateIndex(0, 0), 0.0)
    assert err.value.verdict is Admissibility.NOT_CONFINING
    with pytest.raises(InadmissibleEnergy) as err:
        energy_condition(CLEAN, PS, StateIndex(0, 0), 1.0)
    assert err.value.verdict is Admissibility.EXCLUDED_ENERGY


def test_find_states_cubic_oracle():
    window = SearchWindow(1.0001, 10.0)
    for n, m in [(0, 0), (1, 0), (0, 1)]:
        states = find_states(BARE, SP, StateIndex(n, m), window)
        assert len(states) == 1, (n, m)
        expected = cubic_root(2 * n + 1 + abs(m))
        assert abs(states[0].E - expected) < 1e-9, (n, m)


def test_find_states_quoted_values():
    # the three quoted levels; the cubic oracle carries the full precision,
    # the 4-digit literals are course-grained references
    window = SearchWindow(1.0001, 10.0)
    quoted = {(0, 0): 2.5096, (1, 0): 4.5893, (0, 1): 3.6290}
    for (n, m), approx in quoted.items():
        E = find_states(BARE, SP, StateIndex(n, m), window)[0].E
        assert abs(E - approx) < 2.5e-4


def test_found_states_satisfy_residual_bound(regression_matrix):
    from diracosc.model import reduced_coefficients

    for cfg, sym, idx, state in regression_matrix:
        q = reduced_coefficients(cfg, sym, idx.m, state.E).q
        assert state.residual <= 1e-10 * (1.0 + abs(q)), (sym, idx, state.E)


def test_state_fields_consistency(regression_matrix):
    from diracosc.model import reduced_coefficients

    for cfg, sym, idx, state in regression_matrix:
        rc = reduced_coefficients(cfg, sym, idx.m, state.E)
        assert state.p_tilde > 0.0
        assert state.alpha >= 0.0
        assert abs(state.p_tilde - math.sqrt(rc.p2)) < 1e-12
        assert abs(state.alpha - math.sqrt(rc.delta + 0.25)) < 1e-12
        assert state.E != sym.forbidden_energy(cfg.M)


def test_empty_window_is_valid_result():
    # pseudospin with B = 0 is not confining below the mass shell
    states = find_states(BARE, PS, StateIndex(0, 0), SearchWindow(-5.0, 0.9))
    assert states == []


def _poly_mul(u, v):
    out = [mpmath.mpf(0)] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    return out


def _poly_sub(u, v):
    n = max(len(u), len(v))
    u = list(u) + [0] * (n - len(u))
    v = list(v) + [0] * (n - len(v))
    return [x - y for x, y in zip(u, v)]


def reference_roots(cfg, sym, n, m, window, dps=50):
    """Bound states in the window from the exact polynomial, at dps digits.

    Written out from the paper's coefficients, independently of
    ``diracosc``: P(E) = (q^2 - 4 p2 (K^2 + d))^2 - 64 K^2 p2^2 d has every
    zero of F(E) = 2 sqrt(p2) (K + sqrt(d)) + q among its roots, found here
    by ``mpmath.polyroots``.  A root is kept when it is real, admissible
    and a zero of F, however close to an admissibility edge.
    """
    with mpmath.workdps(dps):
        mp = mpmath.mpf
        M, a, b, B, phi, e, c = (mp(x) for x in (cfg.M, cfg.a, cfg.b, cfg.B, cfg.phi_AB, cfg.e, cfg.c))
        shift = M if sym is SP else -M  # mass factor mu = E + shift
        m_eff = m - e * phi / (2 * mpmath.pi * c)
        gamma = e**2 * B * phi / (2 * mpmath.pi * c**2) - e * m * B / (2 * c)
        p2 = [2 * a * shift + (e * B) ** 2 / (4 * c**2), 2 * a]
        d = [m_eff**2 + 2 * b * shift, 2 * b]
        q = [gamma + M**2, mp(0), mp(-1)]
        K = 2 * n + 1
        inner = _poly_sub(_poly_mul(q, q), [4 * x for x in _poly_mul(p2, [K * K + d[0], d[1]])])
        P = _poly_sub(_poly_mul(inner, inner), [64 * K * K * x for x in _poly_mul(_poly_mul(p2, p2), d)])
        zs = mpmath.polyroots(P[::-1], maxsteps=500, extraprec=4 * dps)
        tiny = mp(10) ** (-(dps // 3))
        found = []
        for z in zs:
            E = mpmath.re(z)
            if abs(mpmath.im(z)) > tiny * (1 + abs(E)):
                continue
            p2E, dE, qE = p2[0] + p2[1] * E, d[0] + d[1] * E, q[0] + q[2] * E * E
            if not (p2E > 0 and dE >= 0 and window.e_min <= E <= window.e_max):
                continue
            term = 2 * mpmath.sqrt(p2E) * (K + mpmath.sqrt(dE))
            if abs(term + qE) > tiny * (term + abs(qE)):
                continue  # a root of P only, from squaring
            if not any(abs(E - x) <= tiny * (1 + abs(E)) for x in found):
                found.append(E)
        return sorted(float(E) for E in found)


def assert_matches_reference(cfg, sym, idx, window):
    got = [s.E for s in find_states(cfg, sym, idx, window)]
    want = reference_roots(cfg, sym, idx.n, idx.m, window)
    assert len(got) == len(want), (cfg, sym, idx, got, want)
    for E, ref in zip(got, want):
        assert abs(E - ref) <= 1e-10 * (1.0 + abs(ref)), (cfg, sym, idx, got, want)
    return got


def test_regression_matrix_matches_polynomial_reference(regression_configs, regression_matrix):
    total = 0
    for sym, cfg in regression_configs.items():
        for n in range(4):
            for m in range(-2, 3):
                got = assert_matches_reference(cfg, sym, StateIndex(n, m), default_window(cfg))
                total += len(got)
                if sym is SP and (n, m) in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2)):
                    # the root ~1e-4 above the p2 = 0 edge at E = -1.03125
                    assert any(-1.032 < E < -1.030 for E in got), (n, m, got)
    assert total == len(regression_matrix) == 52


def test_closed_relation_spin_no_fields():
    # 8 a (2n+1+|m|)^2 (E+M) = (E^2 - M^2)^2 for b = B = flux = 0
    cfg = FieldConfiguration(M=1.5, a=0.7, b=0, B=0, phi_AB=0)
    window = SearchWindow(cfg.M + 1e-4, 40.0)
    for n in range(3):
        for m in (-2, 0, 1):
            states = find_states(cfg, SP, StateIndex(n, m), window)
            assert len(states) == 1
            E = states[0].E
            lhs = 8.0 * cfg.a * (2 * n + 1 + abs(m)) ** 2 * (E + cfg.M)
            rhs = (E * E - cfg.M**2) ** 2
            assert abs(lhs - rhs) <= 1e-9 * rhs, (n, m)


def mp_root(cfg, sym, n, m, origin, x0, *, edge_at_origin, dps=60):
    """Root of F(origin + x) in x between x0 / 2 and 2 x0, at dps digits.

    Written out from the paper's coefficients, independently of
    ``diracosc``.  With edge_at_origin, p2 = 2 a x puts the p2 = 0 edge
    exactly at the float origin, as the solver does; the true edge is a
    rounding of the origin away, so this changes p2 by one rounding of its
    constant term.  Without it, the coefficients are exact for the float
    parameters.
    """
    with mpmath.workdps(dps):
        mp = mpmath.mpf
        M, a, b, B, phi, e, c = (mp(v) for v in (cfg.M, cfg.a, cfg.b, cfg.B, cfg.phi_AB, cfg.e, cfg.c))
        shift = M if sym is SP else -M  # mass factor mu = E + shift
        m_eff = m - e * phi / (2 * mpmath.pi * c)
        gamma = e**2 * B * phi / (2 * mpmath.pi * c**2) - e * m * B / (2 * c)

        def F(x):
            E = mp(origin) + x
            p2 = 2 * a * x if edge_at_origin else 2 * a * (E + shift) + (e * B) ** 2 / (4 * c**2)
            d = m_eff**2 + 2 * b * (E + shift)
            return 2 * mpmath.sqrt(p2) * (2 * n + 1 + mpmath.sqrt(d)) + gamma + M**2 - E**2

        # a bracket keeps the iterates off the inadmissible side of the edge
        return mpmath.findroot(F, (mp(x0) / 2, 2 * mp(x0)), solver="illinois")


def test_root_next_to_the_p2_edge_is_reported():
    # root manufactured ~5e-12 above the p2 = 0 edge at E_b = 1 - B^2/8:
    # with a = 1, B = 1, m = 0 and flux tuned so q(E_b) = -7.8e-6
    E_b = 1.0 - 1.0 / 8.0
    flux = 2.0 * math.pi * (E_b**2 - 1.0 - 7.8e-6)
    cfg = FieldConfiguration(M=1, a=1, b=0, B=1.0, phi_AB=flux)
    states = find_states(cfg, PS, StateIndex(0, 0), SearchWindow(E_b - 1e-9, E_b + 1e-9))
    assert len(states) == 1
    (state,) = states
    assert state.origin == E_b
    ref = mp_root(cfg, PS, 0, 0, state.origin, state.offset, edge_at_origin=True)
    assert 4e-12 < ref < 6e-12
    # q(E_b) = -7.8e-6 is the difference of terms of size 0.23, so one
    # rounding of them (and of pi in the cross term) moves the offset by
    # ~1e-11 relative; the data fix it no better
    assert abs(state.offset - ref) <= 1e-10 * ref


# random_spectra seed 2: spin, critical coupling (b = 0, m = 0), q < 0 at the
# p2 = 0 edge, so every n has a root just above it
EDGE_CFG = FieldConfiguration(M=1.7304190877928598, a=0.28343286697585257, b=0,
                              B=-0.0032663294292079037, phi_AB=0)


def edge_state(n):
    """The one state of EDGE_CFG whose origin is the p2 = 0 edge."""
    states = find_states(EDGE_CFG, SP, StateIndex(n, 0), default_window(EDGE_CFG))
    p2, _, _ = model.coefficient_polynomials(EDGE_CFG, SP, 0)
    near = [s for s in states if s.origin == -p2[0] / p2[1]]
    assert len(near) == 1, states
    return near[0]


def test_seed_2_edge_state_is_found_and_accurate():
    # 4.7e-12 above the edge, where E alone resolves p2 only to ~5e-5
    from diracosc.wavefunc import ode_residual

    state = edge_state(2)
    assert ode_residual(state, EDGE_CFG) <= 1e-6
    rc = model.reduced_coefficients(EDGE_CFG, SP, 0, state.E)
    problem = nu.oscillator_problem(rc.p2, rc.q, rc.delta)
    solution = nu.select_solution(nu.pi_candidates(problem))
    assert abs(nu.eigen_condition(solution, problem, 2)) <= 1e-9 * (1.0 + abs(solution.lam))


@pytest.mark.parametrize("n", [0, 1, 2, 5, 10, 50, 275, 295, 400])
def test_edge_offsets_match_a_60_digit_root(n):
    # distance from the edge ~ q^2 / (4 p2' (2n + 1)^2): 1.2e-10 at n = 0
    # down to 1.2e-14 at n = 50, below 52 ulps of E; from n = 275 on it is
    # below the first admissible float, 1.8e-16 at n = 400
    state = edge_state(n)
    ref = mp_root(EDGE_CFG, SP, n, 0, state.origin, state.offset, edge_at_origin=True)
    assert abs(state.offset - ref) <= 1e-15 * ref, (state.offset, ref)
    x = mp_root(EDGE_CFG, SP, n, 0, state.origin, state.offset, edge_at_origin=False)
    assert abs(state.E - (state.origin + x)) <= math.ulp(state.E)


@pytest.mark.parametrize("B, m, count", [(-5.84e-162, -1, 1), (1.6e-297, 1, 1), (1e-9, 1, 2)])
def test_p2_edge_that_rounds_onto_the_mass_shell(B, m, count):
    # spin, b = 0: the p2 = 0 edge -M - B^2 / (8 a) rounds to the mass shell.
    # F there is q = -e m B / 2 < 0; below 1e-161 it is zero to rounding and
    # only the bulk state is left, at 1e-9 a second root lies 2.5e-19 above
    # the edge, closer than the first admissible float
    cfg = FieldConfiguration(M=1, a=0.03125, b=0, B=B, phi_AB=0)
    states = find_states(cfg, SP, StateIndex(0, m), default_window(cfg))
    assert len(states) == count
    assert abs(states[-1].E - (1.0 + math.sqrt(5.0)) / 2.0) <= 1e-9
    if count == 2:
        ref = mp_root(cfg, SP, 0, m, states[0].origin, states[0].offset, edge_at_origin=True)
        assert states[0].origin == -1.0
        assert abs(states[0].offset - ref) <= 1e-12 * ref
        assert states[0].p_tilde > 0.0


def test_huge_field_roots_far_outside_the_default_window():
    # F = 2 sqrt(p2) + 1 - E^2 with p2 = B^2 / 4 + 2 (E + 1): E = -+1e50
    cfg = FieldConfiguration(M=1, a=1, b=0, B=1e100, phi_AB=0)
    assert find_states(cfg, SP, StateIndex(0, 0), default_window(cfg)) == []
    got = [s.E for s in find_states(cfg, SP, StateIndex(0, 0), SearchWindow(-1e60, 1e60))]
    assert got == pytest.approx([-1e50, 1e50], rel=1e-15)


def test_default_window_needs_room_past_the_mass_shell():
    assert default_window(FieldConfiguration(M=1e17, a=1, b=0)).e_max > 1e17
    with pytest.raises(OverflowError):
        default_window(FieldConfiguration(M=1e77, a=1, b=0))


def test_window_validation():
    with pytest.raises(ValueError):
        SearchWindow(2.0, 1.0)
    for edges in ((-30.0, math.inf), (-math.inf, 30.0), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            SearchWindow(*edges)
    with pytest.raises(ValueError):
        SweepSpec("a", 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        SweepSpec("B", 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        SweepSpec("B", 0.0, float("inf"), 5)
    with pytest.raises(ValueError):
        SweepSpec("phi_AB", float("nan"), 1.0, 5)


def test_sweep_shape():
    cfg = FieldConfiguration(M=1, a=1, b=1, B=0.5, phi_AB=1)
    table = sweep(cfg, PS, [StateIndex(0, 0), StateIndex(1, 0)],
                  SweepSpec("B", 0.5, 1.5, 3), default_window(cfg))
    assert len(table.values) == 3
    assert len(table.energies) == 3
    assert all(len(row) == 2 for row in table.energies)
    assert table.values == [0.5, 1.0, 1.5]


def test_sweep_b_column_strictly_increasing():
    cfg = FieldConfiguration(M=1, a=1, b=1, B=0.5, phi_AB=1.0)
    table = sweep(cfg, PS, [StateIndex(0, 0)], SweepSpec("B", 0.5, 5.0, 10), default_window(cfg))
    col = table.column(0)
    assert all(e is not None for e in col)
    assert all(a < b for a, b in zip(col, col[1:]))


def test_sweep_flux_tracking_continuity():
    # consecutive grid points stay on the same branch (no jumps)
    cfg = FieldConfiguration(M=1, a=1, b=1, B=2.0, phi_AB=0.0)
    table = sweep(cfg, PS, [StateIndex(0, 1)], SweepSpec("phi_AB", 0.0, 20.0, 11),
                  SearchWindow(1.05, 21.0))
    col = table.column(0)
    assert all(e is not None for e in col)
    jumps = [abs(b - a) for a, b in zip(col, col[1:])]
    assert max(jumps) < 1.0


def test_nonrelativistic_limit_smoke():
    # (E - M) ~ 2 sqrt(a/M) (2n + 1 + sqrt(m^2 + 4 M b)) for huge M
    M = 1e4
    cfg = FieldConfiguration(M=M, a=1, b=1, B=0, phi_AB=0)
    for n, m in [(0, 0), (1, -1)]:
        states = find_states(cfg, SP, StateIndex(n, m), SearchWindow(M - 1.0, M + 50.0))
        assert len(states) == 1
        eps = states[0].E - M
        ref = 2.0 * math.sqrt(1.0 / M) * (2 * n + 1 + math.sqrt(m * m + 4.0 * M))
        assert abs(eps - ref) <= 1e-3 * ref, (n, m)


@pytest.mark.parametrize(
    "sym, n, m, cfg",
    [
        # critical coupling (b = 0, m = 0), ground state 5.7e-8 above p2 = 0
        (SP, 0, 0, FieldConfiguration(M=1.5444139620065414, a=0.4310578905580324, b=0,
                                      B=0.02227165092411454, phi_AB=0)),
        # n = 5 root 1.2e-6 above p2 = 0 (p~ = 1.7e-3): its NU residual needs
        # it polished to a few ulps
        (PS, 5, 1, FieldConfiguration(M=1.8664430669846859, a=1.1686366118338694,
                                      b=0.5104122972824934, B=1.215368145147461,
                                      phi_AB=0.018043446014577746)),
    ],
)
def test_near_edge_roots(sym, n, m, cfg):
    states = find_states(cfg, sym, StateIndex(n, m), default_window(cfg))
    assert_matches_reference(cfg, sym, StateIndex(n, m), default_window(cfg))
    p2, _, _ = model.coefficient_polynomials(cfg, sym, m)
    edge = -p2[0] / p2[1]
    assert 0.0 < states[0].E - edge < 2e-6
    for s in states:
        rc = model.reduced_coefficients(cfg, sym, m, s.E)
        problem = nu.oscillator_problem(rc.p2, rc.q, rc.delta)
        solution = nu.select_solution(nu.pi_candidates(problem))
        residual = nu.eigen_condition(solution, problem, n)
        assert abs(residual) <= 1e-9 * (1.0 + abs(solution.lam)), (s.E, residual)


def test_heavy_mass_roots_near_the_mass_shell():
    # M = 178: four roots of P within 0.16 of E = -M; in powers of E their
    # float values move by 3e-3 and the bound state's one left the
    # admissible interval, so P is expanded about -M and +M
    cfg = FieldConfiguration(M=178.3411950212476, a=29.421926154496866, b=4.6698039210188425,
                             B=-2.6855044372054486, phi_AB=0.0)
    window = default_window(cfg)
    got = [s.E for s in find_states(cfg, SP, StateIndex(2, 3), window)]
    assert got == pytest.approx(reference_roots(cfg, SP, 2, 3, window, dps=100), rel=1e-12)
    assert len(got) == 1 and abs(got[0] + 178.369394) < 1e-6


def test_tangent_root_reported_once():
    # spin, b = 0, n = 0, m = 4, flux 5 quanta: F is concave on the admissible
    # interval; M is tuned at 50 digits so that its maximum is exactly zero
    a, B, phi, n, m = 0.2, -2.0, 10.0 * math.pi, 0, 4
    with mpmath.workdps(50):
        K = 2 * n + 1
        L = K + abs(m - mpmath.mpf(phi) / (2 * mpmath.pi))
        gamma = mpmath.mpf(B) * phi / (2 * mpmath.pi) - m * mpmath.mpf(B) / 2

        def p2(E, M):
            return 2 * a * (E + M) + mpmath.mpf(B) ** 2 / 4

        def F(E, M):
            return 2 * mpmath.sqrt(p2(E, M)) * L + gamma + M**2 - E**2

        def dF(E, M):
            return 2 * a * L / mpmath.sqrt(p2(E, M)) - 2 * E

        E_t, M_t = mpmath.findroot([F, dF], (0.32, 1.06))
    cfg = FieldConfiguration(M=float(M_t), a=a, b=0, B=B, phi_AB=phi)
    states = find_states(cfg, SP, StateIndex(n, m), default_window(cfg))
    assert len(states) == 1
    # a double root is only determined to about sqrt(machine epsilon)
    assert abs(states[0].E - float(E_t)) <= 1e-7
    # half a percent higher in M: two roots; lower: none
    for scale, count in ((1.005, 2), (0.995, 0)):
        cfg = FieldConfiguration(M=float(M_t) * scale, a=a, b=0, B=B, phi_AB=phi)
        assert len(find_states(cfg, SP, StateIndex(n, m), default_window(cfg))) == count


def _drawn_request(draw):
    """A configuration drawn like the random_spectra benchmark: m = 0 at
    critical coupling, odd n + m weakly confined, the rest generic."""
    n = draw(st.integers(0, 5))
    m = draw(st.integers(-3, 3))
    sym = draw(st.sampled_from((SP, PS)))
    M = draw(st.floats(0.5, 2.0))
    if m == 0:
        cfg = FieldConfiguration(M=M, a=draw(st.floats(0.2, 2.0)), b=0.0,
                                 B=draw(st.floats(-2.0, 2.0)), phi_AB=0.0)
    elif (n + m) % 2:
        cfg = FieldConfiguration(M=M, a=draw(st.floats(0.005, 0.05)), b=draw(st.floats(-0.3, 1.5)),
                                 B=draw(st.floats(-0.5, 0.5)), phi_AB=draw(st.floats(-3.0, 3.0)))
    else:
        cfg = FieldConfiguration(M=M, a=draw(st.floats(0.2, 2.0)), b=draw(st.floats(-0.3, 1.5)),
                                 B=draw(st.floats(-3.0, 3.0)), phi_AB=draw(st.floats(-3.0, 3.0)))
    return cfg, sym, StateIndex(n, m)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.data())
def test_random_configurations_match_polynomial_reference(data):
    cfg, sym, idx = _drawn_request(data.draw)
    assert_matches_reference(cfg, sym, idx, default_window(cfg))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_condition_is_strictly_concave_with_at_most_two_roots(data):
    # sqrt(p2) and sqrt(p2 d) are concave for linear p2 and d, and q carries
    # -E^2: every second difference of F is at most q's, -2 h^2, to rounding
    cfg, sym, idx = _drawn_request(data.draw)
    window = default_window(cfg)
    assert len(find_states(cfg, sym, idx, window)) <= 2
    p2, d, _ = model.coefficient_polynomials(cfg, sym, idx.m)
    lo = max([window.e_min] + [-c[0] / c[1] for c in (p2, d) if c[1] > 0.0])
    hi = min([window.e_max] + [-c[0] / c[1] for c in (p2, d) if c[1] < 0.0])
    if p2[0] + p2[1] * hi <= 0.0 or not lo < hi:
        return
    h = (hi - lo) / 64
    grid = [lo + h * i for i in range(1, 64)]
    values = []
    for E in grid:
        try:
            values.append(energy_condition(cfg, sym, idx, E))
        except InadmissibleEnergy:
            values.append(None)  # the mass shell, or rounding at an edge
    for E, (left, mid, right) in zip(grid[1:], zip(values, values[1:], values[2:])):
        if None in (left, mid, right):
            continue
        size = cfg.M**2 + (abs(E) + h) ** 2 + abs(left) + 2.0 * abs(mid) + abs(right)
        assert left - 2.0 * mid + right <= -2.0 * h * h + 1e-13 * size, (E, left, mid, right)


def _energies(cfg, sym, idx):
    return [state.E for state in find_states(cfg, sym, idx, default_window(cfg))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_field_reversal_leaves_every_energy_bit_identical(data):
    # (B, phi_AB, m) -> (-B, -phi_AB, -m) negates m_eff and the factors of
    # both cross-term products, so (p2, q, delta) and every root are the
    # same floats
    cfg, sym, idx = _drawn_request(data.draw)
    mirror = replace(cfg, B=-cfg.B, phi_AB=-cfg.phi_AB)
    assert _energies(mirror, sym, StateIndex(idx.n, -idx.m)) == _energies(cfg, sym, idx)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_flux_quantum_with_m_plus_one_leaves_energies_unchanged(data):
    # at B = 0, phi_AB -> phi_AB + 2 pi c / e with m -> m + 1 keeps m_eff up
    # to rounding, and there is no cross term
    cfg, sym, idx = _drawn_request(data.draw)
    cfg = replace(cfg, B=0.0)
    shifted = replace(cfg, phi_AB=cfg.phi_AB + 2.0 * math.pi * cfg.c / cfg.e)
    energies = _energies(cfg, sym, idx)
    moved = _energies(shifted, sym, StateIndex(idx.n, idx.m + 1))
    assert len(moved) == len(energies)
    for E, E_moved in zip(energies, moved):
        assert abs(E_moved - E) <= 1e-14 * abs(E)
