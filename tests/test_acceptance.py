"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured worst case (run with `pytest -s tests/test_acceptance.py` to see
them all).  The regression matrix is both symmetries x n = 0..3 x m = -2..2
over the two field configurations defined in conftest.py."""

import math
import time

import pytest

from diracosc.model import (
    FieldConfiguration,
    StateIndex,
    SymmetryLimit,
    reduced_coefficients,
)
from diracosc.nu import eigen_condition, oscillator_problem, pi_candidates, select_solution
from diracosc.oracle import compare
from diracosc.special import integrate_halfline, laguerre, laguerre_series, log_gamma
from diracosc.spectrum import SearchWindow, SweepSpec, default_window, find_states, sweep
from diracosc.wavefunc import count_nodes, normalization, ode_residual, radial_profile, radial_value

SP = SymmetryLimit.SPIN
PS = SymmetryLimit.PSEUDOSPIN


def report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion}] PASS - {detail}")


def test_criterion_1_energy_condition_residual(regression_matrix):
    assert regression_matrix, "regression matrix must not be empty"
    worst = 0.0
    for cfg, sym, idx, state in regression_matrix:
        q = reduced_coefficients(cfg, sym, idx.m, state.E).q
        bound = 1e-10 * (1.0 + abs(q))
        assert state.residual <= bound, (sym, idx, state.E, state.residual)
        worst = max(worst, state.residual / (1.0 + abs(q)))
    report(1, f"{len(regression_matrix)} states, worst |F(E)|/(1+|q|) = {worst:.2e} <= 1e-10")


def test_criterion_2_oracle_equivalence(regression_matrix):
    # finite-volume oracle (1500 cells, Richardson-extrapolated)
    # against every analytic root of criterion 1, within the 30 s budget
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    seen = set()
    for cfg, sym, idx, _ in regression_matrix:
        if (sym, idx) in seen:
            continue
        seen.add((sym, idx))
        window = default_window(cfg)
        reports = compare(cfg, sym, idx, None, window)
        analytic = [r for r in reports if r.analytic_E is not None]
        assert analytic, (sym, idx)
        for rep in analytic:
            assert rep.oracle_E is not None, (sym, idx, rep.analytic_E)
            assert rep.abs_diff <= 1e-6, (sym, idx, rep.analytic_E, rep.abs_diff)
            worst = max(worst, rep.abs_diff)
            count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30.0, f"oracle sweep took {elapsed:.1f} s"
    assert count == len(regression_matrix)
    report(2, f"{count} roots, worst |analytic - oracle| = {worst:.2e} <= 1e-6 in {elapsed:.1f} s")


def test_criterion_3_closed_form_special_case():
    cfg = FieldConfiguration(M=1, a=1, b=0, B=0, phi_AB=0)
    window = SearchWindow(1.0001, 10.0)

    def cubic_root(K: float) -> float:
        lo, hi = 1.0, 30.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (mid - 1.0) ** 2 * (mid + 1.0) > 8.0 * K * K:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    worst_rel = 0.0
    for n in range(3):
        for m in range(-2, 3):
            states = find_states(cfg, SP, StateIndex(n, m), window)
            assert len(states) == 1
            E = states[0].E
            lhs = 8.0 * cfg.a * (2 * n + 1 + abs(m)) ** 2 * (E + cfg.M)
            rhs = (E * E - cfg.M**2) ** 2
            rel = abs(lhs - rhs) / rhs
            assert rel <= 1e-9, (n, m, rel)
            worst_rel = max(worst_rel, rel)

    quoted = {(0, 0): 2.5096, (1, 0): 4.5893, (0, 1): 3.6290}
    worst_abs = 0.0
    for (n, m), approx in quoted.items():
        E = find_states(cfg, SP, StateIndex(n, m), window)[0].E
        oracle = cubic_root(2 * n + 1 + abs(m))
        assert abs(E - oracle) <= 1e-4, (n, m, E, oracle)
        worst_abs = max(worst_abs, abs(E - oracle))
        # the quoted literals are 4-digit roundings of the cubic roots; they
        # sit up to ~1.9e-4 from the true values, so they are cross-checked
        # loosely while the oracle comparison above is the strict one
        assert abs(E - approx) <= 2.5e-4, (n, m, E, approx)
    report(3, f"closed relation rel <= {worst_rel:.2e}; |E - cubic oracle| <= {worst_abs:.2e}")


def test_criterion_4_nonrelativistic_limit():
    M = 1e4
    cfg = FieldConfiguration(M=M, a=1, b=1, B=0, phi_AB=0)
    window = SearchWindow(M - 1.0, M + 50.0)
    worst = 0.0
    for n in range(3):
        for m in range(-2, 3):
            states = find_states(cfg, SP, StateIndex(n, m), window)
            assert len(states) == 1, (n, m)
            eps = states[0].E - M
            ref = 2.0 * math.sqrt(cfg.a / M) * (2 * n + 1 + math.sqrt(m * m + 4.0 * M * cfg.b))
            rel = abs(eps - ref) / ref
            assert rel <= 1e-3, (n, m, rel)
            worst = max(worst, rel)
    report(4, f"Schrodinger pseudoharmonic limit matched, worst rel = {worst:.2e} <= 1e-3")


def test_criterion_5_nu_engine_equivalence():
    import random

    rng = random.Random(2024)
    worst = 0.0
    samples = 0
    while samples < 200:
        p2 = rng.uniform(0.05, 25.0)
        q = rng.uniform(-40.0, 40.0)
        delta = rng.uniform(-0.25, 30.0)
        problem = oscillator_problem(p2, q, delta)
        selected = select_solution(pi_candidates(problem))
        assert selected.tau_slope < 0.0
        p_tilde = math.sqrt(p2)
        for n in range(4):
            closed = p_tilde * (4.0 * n + 2.0 + math.sqrt(4.0 * delta + 1.0)) + q
            engine = -2.0 * eigen_condition(selected, problem, n)
            rel = abs(engine - closed) / (1.0 + abs(closed))
            assert rel <= 1e-12, (p2, q, delta, n)
            worst = max(worst, rel)
        samples += 1
    report(5, f"200 random instances x n = 0..3, worst closed-form deviation = {worst:.2e} <= 1e-12")


def test_criterion_6_wavefunction_validity(regression_matrix):
    worst_ode = worst_norm = 0.0
    for cfg, sym, idx, state in regression_matrix:
        res = ode_residual(state, cfg)
        assert res <= 1e-6, (sym, idx, state.E, res)
        worst_ode = max(worst_ode, res)

        assert count_nodes(radial_profile(state)) == idx.n, (sym, idx, state.E)

        quad = integrate_halfline(lambda r: radial_value(state, r) ** 2, rel_tol=1e-12)
        closed = normalization(state)
        # closed form vs quadrature on the normalized profile: N is baked into
        # radial_value, so the integral itself must be 1 within 1e-10
        diff = abs(quad - 1.0)
        assert diff <= 1e-10, (sym, idx, state.E, diff)
        assert abs(closed - state.norm_const) <= 1e-12 * closed
        worst_norm = max(worst_norm, diff)
    report(
        6,
        f"{len(regression_matrix)} states: ode residual <= {worst_ode:.2e}, "
        f"node counts exact, norm closed-vs-quadrature <= {worst_norm:.2e}",
    )


def test_criterion_7_special_function_kernel():
    worst = 0.0
    for n in range(11):
        for alpha in (0.0, 0.5, 1.5, 3.0):
            for x in (0.1, 1.0, 5.0, 20.0):
                a = laguerre(n, alpha, x)
                b = laguerre_series(n, alpha, x)
                rel = abs(a - b) / max(1.0, abs(b))
                assert rel <= 1e-12, (n, alpha, x)
                worst = max(worst, rel)

    worst_orth = 0.0
    for alpha in (0.0, 1.5):
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
                    err = abs(val - norm) / norm
                else:
                    err = abs(val)
                assert err <= 1e-8, (n, m, alpha)
                worst_orth = max(worst_orth, err)

    assert abs(log_gamma(1.0)) <= 1e-12
    assert abs(log_gamma(6.0) - math.log(120.0)) <= 1e-12 * math.log(120.0)
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) <= 1e-12
    report(
        7,
        f"recurrence-vs-series <= {worst:.2e}; orthogonality <= {worst_orth:.2e}; "
        "log-gamma spot values at 1e-12",
    )


# frozen regression snapshots (first solver run; solver is deterministic)
FIG1_B = [0.5 + 0.5 * i for i in range(10)]
FIG1 = [
    (4.554000306, 6.619261081),
    (4.629283538, 6.676716122),
    (4.736128799, 6.762410409),
    (4.868147269, 6.872882687),
    (5.019237890, 7.004288143),
    (5.184241269, 7.152838148),
    (5.359093600, 7.315080712),
    (5.540720632, 7.488032014),
    (5.726846371, 7.669202638),
    (5.915803311, 7.856563797),
]
FIG2 = [
    (4.805108613, 5.181125445),
    (5.271025171, 6.381130570),
    (6.323708690, 7.590344149),
    (7.484862579, 8.741124907),
    (8.617727224, 9.830755039),
    (9.700053937, 10.866290400),
    (10.732708710, 11.855254215),
    (11.720864044, 12.804070905),
    (12.669918554, 13.717986521),
    (13.584622985, 14.601262628),
    (14.468981394, 15.457384031),
    (15.326337281, 16.289229645),
    (16.159488957, 17.099204062),
]
FIG4 = [
    (6.169865090, 6.233353942),
    (6.190171546, 6.921471621),
    (6.770855741, 7.818656221),
    (7.627081469, 8.768036569),
    (8.564414793, 9.714347287),
    (9.509294386, 10.639794682),
    (10.437235564, 11.539441379),
    (11.340797723, 12.412898583),
    (12.218595737, 13.261386064),
    (13.071435844, 14.086627456),
    (13.900870081, 14.890420847),
    (14.708630863, 15.674474178),
    (15.496408304, 16.440349087),
]


def test_criterion_8_figure_narratives():
    # B sweep, pseudospin, m = 0 states: strictly increasing with B
    cfg = FieldConfiguration(M=1, a=1, b=1, B=0.5, phi_AB=1.0)
    table = sweep(cfg, PS, [StateIndex(0, 0), StateIndex(1, 0)],
                  SweepSpec("B", 0.5, 5.0, 10), default_window(cfg))
    for j in range(2):
        col = table.column(j)
        assert all(e is not None for e in col)
        assert all(x < y for x, y in zip(col, col[1:])), "energies must increase with B"
    for row, frozen in zip(table.energies, FIG1):
        for e, f in zip(row, frozen):
            assert abs(e - f) <= 1e-5, (row, frozen)

    # flux sweeps, m = +1 vs m = -1: branches approach each other at large flux
    for sym, B, frozen in ((PS, 2.0, FIG2), (SP, 0.5, FIG4)):
        cfg = FieldConfiguration(M=1, a=1, b=1, B=B, phi_AB=0.0)
        table = sweep(cfg, sym, [StateIndex(0, 1), StateIndex(0, -1)],
                      SweepSpec("phi_AB", 0.0, 120.0, 13), SearchWindow(1.05, 21.0))
        gaps = [abs(row[0] - row[1]) for row in table.energies]
        tail = gaps[-6:]
        assert all(x > y for x, y in zip(tail, tail[1:])), f"{sym}: tail gaps must shrink"
        assert gaps[-1] < 0.85 * max(gaps), sym
        for row, snap in zip(table.energies, frozen):
            for e, f in zip(row, snap):
                assert abs(e - f) <= 1e-5, (sym, row, snap)

    report(8, "B sweep strictly increasing; m = +/-1 flux branches converge; snapshots stable")
