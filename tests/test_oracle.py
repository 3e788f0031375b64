import math

import pytest

from diracosc import oracle
from diracosc.model import FieldConfiguration, StateIndex, SymmetryLimit
from diracosc.oracle import (
    GRID,
    GridTooCoarse,
    NoSignChange,
    RadialGrid,
    _single_grid_eigenvalue,
    compare,
    fd_eigenvalue,
    self_consistent_energy,
    sturm_count,
)
from diracosc.spectrum import SearchWindow, _brent, default_window, find_states

PS = SymmetryLimit.PSEUDOSPIN
SP = SymmetryLimit.SPIN
BARE = FieldConfiguration(M=1, a=1, b=0, B=0, phi_AB=0)


def exact_mu(P: float, D: float, n: int) -> float:
    return 2.0 * math.sqrt(P) * (2 * n + 1 + math.sqrt(D + 0.25))


def fd_mu(P: float, D: float, grid: RadialGrid, n: int) -> float:
    mu, _ = fd_eigenvalue(P, D, grid, n)
    return mu


def test_fd_eigenvalue_reduced_oscillator():
    assert abs(fd_mu(1.0, 0.0, GRID, 0) - 3.0) < 1e-8
    assert abs(fd_mu(1.0, 0.0, GRID, 1) - 7.0) < 1e-8
    assert abs(fd_mu(1.0, 0.75, GRID, 0) - 4.0) < 1e-6


def test_fd_eigenvalue_verify_index_path():
    grid = RadialGrid(12.0, 1500)
    mu, check = fd_eigenvalue(2.0, 0.75, grid, 2)
    check()
    assert abs(mu - exact_mu(2.0, 0.75, 2)) < 1e-5


def test_fd_eigenvalue_validation():
    grid = RadialGrid(12.0, 200)
    with pytest.raises(ValueError):
        fd_eigenvalue(0.0, 0.0, grid, 0)
    with pytest.raises(ValueError):
        fd_eigenvalue(1.0, -0.3, grid, 0)
    with pytest.raises(ValueError):
        fd_eigenvalue(1.0, 0.0, grid, -1)
    with pytest.raises(ValueError):
        RadialGrid(12.0, 99)
    with pytest.raises(ValueError):
        RadialGrid(0.0, 500)


def test_grid_convergence_is_second_order():
    # |mu(h) - mu(h/2)| shrinks by ~4x per refinement on the P=1, D=0 instance
    mus = {}
    for cells in (500, 1000, 2000):
        mus[cells], _, _ = _single_grid_eigenvalue(0.0, 12.0, cells, 0)
    d1 = abs(mus[500] - mus[1000])
    d2 = abs(mus[1000] - mus[2000])
    assert 3.0 < d1 / d2 < 5.0


def test_sturm_count_brackets_index():
    # eigenvalue index equals the count of eigenvalues strictly below it
    for n in (0, 1, 3):
        mu, diag, off2 = _single_grid_eigenvalue(0.0, 12.0, 800, n)
        assert sturm_count(diag, off2, mu - 1e-8) == n
        assert sturm_count(diag, off2, mu + 1e-8) == n + 1


def test_sturm_count_matches_numpy_scalar_loop():
    # reference: the same LDL^T recurrence over numpy float64 scalars
    def reference(diag, off2, x):
        count = 0
        d = None
        for i, a in enumerate(diag):
            d = (a - x) if d is None else (a - x) - off2[i - 1] / d
            if d == 0.0:
                d = -1e-300
            if d < 0.0:
                count += 1
        return count

    mu, diag, off2 = _single_grid_eigenvalue(0.4, 12.0, 2003, 3)
    xs = [mu - 1e-8, mu, mu + 1e-8, -5.0, 0.0, 50.0, 4.0 / (12.0 / 2003) ** 2]
    for x in xs:
        assert sturm_count(diag, off2, x) == reference(diag, off2, x)


def _recording(f):
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return g, points


def test_brent_cubic_root_within_tol():
    f = lambda x: (x - 0.3) * (x * x + 1.0) * (x + 2.0)
    g, points = _recording(f)
    lo, hi, tol = -1.0, 2.0, 1e-10
    root = _brent(g, lo, hi, f(lo), f(hi), tol)
    assert abs(root - 0.3) <= tol
    assert len(points) < 20


def test_brent_exact_zero_at_endpoint():
    f = lambda x: x * x - 1.0
    g, points = _recording(f)
    assert _brent(g, 1.0, 3.0, 0.0, f(3.0), 1e-8) == 1.0
    assert _brent(g, -0.5, 1.0, f(-0.5), 0.0, 1e-8) == 1.0
    assert points == []


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        (lambda x: (x - 0.3) ** 3, -1.0, 2.0),  # triple root: flat, slow interpolation
        (lambda x: math.tanh(50.0 * (x - 1.9)), 0.0, 2.0),  # steep, near one end
        (lambda x: math.exp(x) - 1e4, 0.0, 20.0),  # strongly convex
        (lambda x: 1.0 if x > 0.25 else -1.0, 0.0, 1.0),  # sign only
    ],
)
def test_brent_never_leaves_bracket(f, lo, hi):
    g, points = _recording(f)
    tol = 1e-9
    root = _brent(g, lo, hi, f(lo), f(hi), tol)
    assert all(lo < x < hi for x in points)
    # a sign change of f lies within tol of the returned point
    assert f(root - tol) * f(root + tol) <= 0.0


def _count_eigensolves(monkeypatch) -> list[tuple]:
    """Arguments of every oracle.fd_eigenvalue call from now on."""
    calls = []
    solve = oracle.fd_eigenvalue

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(oracle, "fd_eigenvalue", counting)
    return calls


def tol_bracket(E: float) -> tuple[float, float]:
    """The bracket compare gives a root far from its neighbours and edges.

    The result lies inside it, within 5e-9 of E by construction, so the
    bounds below (1e-9) test the secant measurement, not the bracket."""
    return E - 5e-9, E + 5e-9


def test_self_consistent_eigensolve_count(monkeypatch):
    # one G evaluation per end; the index check runs on the matrices of the
    # end with the smaller |G| and solves nothing
    calls = _count_eigensolves(monkeypatch)
    state = find_states(BARE, SP, StateIndex(0, 1), SearchWindow(1.0001, 10.0))[0]
    self_consistent_energy(BARE, SP, StateIndex(0, 1), GRID, tol_bracket(state.E))
    assert len(calls) == 2


def test_self_consistent_rejects_a_wide_window(monkeypatch):
    # the oracle confirms a root and does not search for one
    state = find_states(BARE, SP, StateIndex(0, 1), SearchWindow(1.0001, 10.0))[0]
    for window in ((state.E - 0.2, state.E + 0.2), (state.E - 2e-8, state.E + 2e-8),
                   (state.E + 5e-9, state.E - 5e-9)):
        with pytest.raises(ValueError):
            self_consistent_energy(BARE, SP, StateIndex(0, 1), GRID, window)
    # a window that starts on the spin mass shell E = -M is rejected before
    # any eigensolve
    calls = _count_eigensolves(monkeypatch)
    with pytest.raises(ValueError):
        self_consistent_energy(BARE, SP, StateIndex(0, 1), GRID, (-1.0, -1.0 + 5e-9))
    assert calls == []


def test_tol_wide_bracket_costs_two_eigensolves(monkeypatch):
    # the regression entry of test_compare_regression_entry
    cfg = FieldConfiguration(M=1, a=1, b=1, B=0.5, phi_AB=0.6)
    idx = StateIndex(0, 0)
    calls = _count_eigensolves(monkeypatch)
    state = find_states(cfg, SP, idx, SearchWindow(1.1, 21.0))[0]
    bracket = (state.E - 5e-9, state.E + 5e-9)
    E_fd = self_consistent_energy(cfg, SP, idx, GRID, bracket)
    assert len(calls) == 2
    # a measurement inside the bracket, not one of its ends
    assert bracket[0] < E_fd < bracket[1]

    # the index check still runs, on the matrices G built
    monkeypatch.setattr(oracle, "sturm_count", lambda diag, off2, x: -1)
    with pytest.raises(GridTooCoarse):
        self_consistent_energy(cfg, SP, idx, GRID, bracket)


def test_compare_regression_matrix_eigensolve_count(monkeypatch, regression_matrix):
    # the analytic root lies within Brent's 1e-8 stop of the oracle's, so
    # the tol-wide bracket confirms every root with one G evaluation per end
    calls = _count_eigensolves(monkeypatch)
    requests = {(sym, idx): cfg for cfg, sym, idx, _ in regression_matrix}
    roots = 0
    for (sym, idx), cfg in requests.items():
        for rep in compare(cfg, sym, idx, None, default_window(cfg)):
            assert rep.abs_diff is not None and rep.abs_diff <= 1e-8
            roots += 1
    assert roots == len(regression_matrix) == 52
    assert len(calls) == 2 * roots


def test_compare_reports_a_disagreement_as_unconfirmed(monkeypatch):
    # b = 0, m = 0 with flux: alpha = 1/(2 pi), below the regression matrix.
    # GRID confirms it; on a coarse grid the oracle's root is 4.4e-8 away,
    # so G has no sign change in the tol-wide bracket and the root stays
    # unconfirmed
    cfg = FieldConfiguration(M=1, a=1, b=0, B=0.5, phi_AB=1)
    calls = _count_eigensolves(monkeypatch)
    [rep] = compare(cfg, PS, StateIndex(0, 0), None, default_window(cfg))
    assert rep.abs_diff is not None and rep.abs_diff <= 1e-9
    assert len(calls) == 2

    calls.clear()
    [rep] = compare(cfg, PS, StateIndex(0, 0), RadialGrid(12.0, 200), default_window(cfg))
    assert rep.analytic_E is not None
    assert rep.oracle_E is None and rep.abs_diff is None
    assert len(calls) == 2


def test_compare_fallback_without_a_root(monkeypatch):
    # a box of 3 units cuts off the bare spin n = 3 state: the bracket has
    # no sign change
    calls = _count_eigensolves(monkeypatch)
    [rep] = compare(BARE, SP, StateIndex(3, 0), RadialGrid(3.0, 200), default_window(BARE))
    assert rep.analytic_E is not None
    assert rep.oracle_E is None and rep.abs_diff is None
    assert len(calls) == 2


def test_grid_too_coarse():
    # the grid is in units of the wavefunction scale P^(-1/4), so P cannot
    # coarsen it; h ~ 12 of those units: the two grids disagree wildly
    with pytest.raises(GridTooCoarse):
        fd_eigenvalue(1.0, 0.0, RadialGrid(1200.0, 100), 0)


@pytest.mark.parametrize("P", [1e-12, 1e-6, 1e-2, 1e2, 1e4])
def test_fd_eigenvalue_accuracy_is_independent_of_P(P):
    # r -> r P^(-1/4) maps the discrete operator at P exactly onto sqrt(P)
    # times the one at P = 1, so the grid compare uses is as good at every P
    for D in (0.0, 0.75, 3.75):
        for n in (0, 3):
            exact = exact_mu(P, D, n)
            assert abs(fd_mu(P, D, GRID, n) - exact) <= 1e-7 * exact, (D, n)


@pytest.mark.parametrize("D", [-0.25, -0.2, -0.1, 0.0, 0.3, 0.75, 2.0, 3.75, 10.0, 30.0])
def test_fd_eigenvalue_is_accurate_for_every_inverse_square_coupling(D):
    # the Frobenius factor r^(nu + 1/2) leaves a smooth remainder at every
    # D >= -1/4, critical coupling included
    for n in range(4):
        exact = exact_mu(1.0, D, n)
        assert abs(fd_mu(1.0, D, GRID, n) - exact) <= 1e-8 * exact, n


def test_compare_confirms_every_b0_fractional_flux_state(monkeypatch):
    # the AB flux regime: b = 0, alpha = |m - phi_AB / (2 pi)| from 0 to 0.8,
    # below every state of the regression matrix (alpha >= 0.869)
    calls = _count_eigensolves(monkeypatch)
    roots = 0
    for sym in (PS, SP):
        for m in (0, 1):
            for alpha in [0.05 * j for j in range(17)]:
                cfg = FieldConfiguration(M=1, a=1, b=0, B=0, phi_AB=2 * math.pi * (m - alpha))
                for n in range(4):
                    for rep in compare(cfg, sym, StateIndex(n, m), None, default_window(cfg)):
                        assert rep.abs_diff is not None and rep.abs_diff <= 1e-6, (sym, m, alpha, n)
                        roots += 1
    assert roots == 272
    assert len(calls) == 2 * roots


def test_compare_confirms_a_weakly_confined_state_near_an_edge():
    # pseudospin b = 0, m = 2, n = 1: the flux places a root at E_b = 7/8,
    # where P = p2 is 8.5e-13
    E_b, q_b, m = 7 / 8, -7.8e-6, 2
    cfg = FieldConfiguration(M=1, a=1, b=0, B=1, phi_AB=2 * math.pi * (q_b + m / 2 + E_b**2 - 1))
    [rep] = compare(cfg, PS, StateIndex(1, m), None, SearchWindow(E_b - 1e-9, E_b + 1e-9))
    assert rep.abs_diff is not None and rep.abs_diff <= 1e-12


def test_truncation_radius_is_converged():
    # doubling r_max (at fixed h) leaves the eigenvalue unchanged to
    # far below the agreement threshold: the truncation error of the closed
    # face at r_max is exponentially small for Gaussian-decaying states
    base = fd_mu(1.0, 0.75, RadialGrid(12.0, 3000), 1)
    wide = fd_mu(1.0, 0.75, RadialGrid(24.0, 6000), 1)
    assert abs(base - wide) < 1e-8


def test_self_consistent_matches_analytic_with_fields(monkeypatch):
    calls = _count_eigensolves(monkeypatch)
    cfg = FieldConfiguration(M=1, a=1, b=1, B=2, phi_AB=math.pi)
    state = find_states(cfg, PS, StateIndex(0, 1), SearchWindow(1.1, 21.0))[0]
    E_fd = self_consistent_energy(cfg, PS, StateIndex(0, 1), GRID, tol_bracket(state.E))
    assert abs(E_fd - state.E) <= 1e-9
    assert len(calls) == 2


def test_self_consistent_matches_analytic_bare_m1(monkeypatch):
    # b = 0, m = 1: D = 3/4, regular at the origin
    calls = _count_eigensolves(monkeypatch)
    state = find_states(BARE, SP, StateIndex(0, 1), SearchWindow(1.0001, 10.0))[0]
    E_fd = self_consistent_energy(BARE, SP, StateIndex(0, 1), GRID, tol_bracket(state.E))
    assert abs(E_fd - state.E) <= 1e-9
    assert len(calls) == 2


def test_self_consistent_bare_m0_n0_critical(monkeypatch):
    # delta = -1/4 exactly (b = 0, m = 0): the reduced solution goes like
    # sqrt(r) at the origin, and the Frobenius factor takes that out
    calls = _count_eigensolves(monkeypatch)
    state = find_states(BARE, SP, StateIndex(0, 0), SearchWindow(1.0001, 10.0))[0]
    E_fd = self_consistent_energy(BARE, SP, StateIndex(0, 0), GRID, tol_bracket(state.E))
    assert abs(E_fd - state.E) <= 1e-9
    assert len(calls) == 2


def test_self_consistent_bare_m0_n1_critical(monkeypatch):
    calls = _count_eigensolves(monkeypatch)
    state = find_states(BARE, SP, StateIndex(1, 0), SearchWindow(1.0001, 10.0))[0]
    E_fd = self_consistent_energy(BARE, SP, StateIndex(1, 0), GRID, tol_bracket(state.E))
    assert abs(E_fd - state.E) <= 1e-9
    assert len(calls) == 2


def test_self_consistent_critical_coupling_is_accurate():
    state = find_states(BARE, SP, StateIndex(0, 0), SearchWindow(1.0001, 10.0))[0]
    E_fd = self_consistent_energy(BARE, SP, StateIndex(0, 0), GRID, tol_bracket(state.E))
    assert abs(E_fd - state.E) <= 1e-9


def test_no_sign_change(monkeypatch):
    # bare spin n = 0, m = 0 has no root in (1.05, 1.5)
    calls = _count_eigensolves(monkeypatch)
    with pytest.raises(NoSignChange):
        self_consistent_energy(BARE, SP, StateIndex(0, 0), RadialGrid(12.0, 500), tol_bracket(1.3))
    assert len(calls) == 2


def test_compare_regression_entry():
    cfg = FieldConfiguration(M=1, a=1, b=1, B=0.5, phi_AB=0.6)
    reports = compare(cfg, SP, StateIndex(0, 0), None, SearchWindow(1.1, 21.0))
    assert len(reports) == 1
    rep = reports[0]
    assert rep.analytic_E is not None and rep.oracle_E is not None
    assert rep.abs_diff <= 1e-6


def test_compare_confirms_roots_near_an_edge():
    # the n = 5 state of test_near_edge_roots: its ground root lies 1.2e-6
    # above p2 = 0, so the bracket is cut to half its distance from the edge
    cfg = FieldConfiguration(M=1.8664430669846859, a=1.1686366118338694, b=0.5104122972824934,
                             B=1.215368145147461, phi_AB=0.018043446014577746)
    reports = compare(cfg, PS, StateIndex(5, 1), None, default_window(cfg))
    assert len(reports) == 2
    assert all(rep.abs_diff is not None and rep.abs_diff <= 1e-8 for rep in reports)


def test_compare_absent_in_both(monkeypatch):
    # no analytic root in the window: nothing to confirm, nothing solved
    calls = _count_eigensolves(monkeypatch)
    reports = compare(BARE, SP, StateIndex(0, 0), RadialGrid(12.0, 500), SearchWindow(1.05, 1.5))
    assert reports == []
    assert len(calls) == 0


def test_wrong_symmetry_negative_control(monkeypatch):
    # analytic level from the spin problem, oracle run with pseudospin
    # coefficients: G has no sign change at the spin root
    calls = _count_eigensolves(monkeypatch)
    spin_E = find_states(BARE, SP, StateIndex(0, 0), SearchWindow(1.0001, 10.0))[0].E
    with pytest.raises(NoSignChange):
        self_consistent_energy(BARE, PS, StateIndex(0, 0), GRID, tol_bracket(spin_E))
    assert len(calls) == 2


def test_scipy_loads_with_the_first_eigensolve():
    # scipy.linalg dominates import time and only the oracle needs it
    import os
    import subprocess
    import sys

    code = (
        "import sys, diracosc; from diracosc import oracle; "
        "before = 'scipy.linalg' in sys.modules; "
        "oracle.fd_eigenvalue(1.0, 0.0, oracle.RadialGrid(12.0, 200), 0); "
        "print(before, 'scipy.linalg' in sys.modules)"
    )
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["False", "True"]
