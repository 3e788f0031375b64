"""The independent reference against closed forms, mpmath.polyroots and the
program's own roots.

Run from the repository root: python3 -m pytest bench/tests
"""

import random

import mpmath
import pytest

import reference
import workloads
from reference import Config, bound_states


@pytest.mark.parametrize("M, a", [(1.0, 1.0), (1.3, 0.7), (0.6, 0.05)])
def test_spin_closed_form(M, a):
    """b = B = phi_AB = 0, spin: (E - M)^2 (E + M) = 8 a K^2, K = 2n + 1 + |m|,
    with exactly one bound state per (n, m)."""
    for n in range(4):
        for m in range(-2, 3):
            roots = bound_states(Config(M=M, a=a, b=0.0), True, n, m)
            assert len(roots) == 1, (n, m, roots)
            E = roots[0].E
            K = 2 * n + 1 + abs(m)
            rhs = 8.0 * a * K * K
            assert abs((E - M) ** 2 * (E + M) - rhs) <= 1e-12 * rhs, (n, m, E)
            with mpmath.workdps(30):
                cubic = mpmath.polyroots([1, -M, -M * M, M**3 - rhs])
            assert any(abs(complex(z) - E) <= 1e-12 * E for z in cubic)


def test_fast_isolation_matches_polyroots():
    """real_roots (float companion matrix + refinement) finds every real root
    mpmath.polyroots finds, on every family of the random workload."""
    rng = random.Random(7)
    for trial in range(24):
        n, m = rng.randrange(6), rng.randrange(-3, 4)
        cfg = workloads.draw_config(rng, n, m)
        spin = bool(trial % 2)
        with mpmath.workdps(reference.DPS):
            coeffs = reference.polynomial(cfg, spin, n, m)
            fast = reference.real_roots(coeffs)
            slow = mpmath.polyroots(list(reversed(coeffs)), maxsteps=400, extraprec=200)
            real = [z.real for z in map(mpmath.mpc, slow) if abs(z.imag) <= 1e-15 * (1 + abs(z))]
        for x in real:
            assert any(abs(x - y) <= 1e-12 * (1 + abs(x)) for y in fast), (cfg, spin, n, m, x)


def test_superset_of_find_states_on_regression_matrix():
    """Every root find_states reports on the regression matrix is a
    reference root; the reference has 52 roots there, find_states 47."""
    from diracosc.model import FieldConfiguration, StateIndex, SymmetryLimit
    from diracosc.spectrum import default_window, find_states

    reported = expected = 0
    for spin, cfg in workloads.MATRIX_CONFIGS.items():
        fc = FieldConfiguration(M=cfg.M, a=cfg.a, b=cfg.b, B=cfg.B, phi_AB=cfg.phi_AB)
        sym = SymmetryLimit.SPIN if spin else SymmetryLimit.PSEUDOSPIN
        window = default_window(fc)
        for n in range(4):
            for m in range(-2, 3):
                refs = [r.E for r in bound_states(cfg, spin, n, m)
                        if window.e_min <= r.E <= window.e_max]
                found = [s.E for s in find_states(fc, sym, StateIndex(n, m), window)]
                _, extra = workloads.compare_roots(found, refs)
                assert not extra, (spin, n, m, extra)
                reported += len(found)
                expected += len(refs)
    assert expected == 52
    assert reported <= expected


def test_sweep_expectation_matches_program_where_no_root_is_near_an_edge():
    """The sweep selection policy replayed on reference roots gives the
    program's own table on the README sweeps."""
    from diracosc.model import FieldConfiguration, StateIndex, SymmetryLimit
    from diracosc.spectrum import SearchWindow, SweepSpec, sweep

    cases = [
        (False, dict(M=1.0, a=1.0, b=1.0, B=0.5, phi_AB=1.0), "B", 0.5, 5.0, 10, [(0, 0), (1, 0)],
         (-21.0, 21.0)),
        (True, dict(M=1.0, a=1.0, b=1.0, B=0.5, phi_AB=0.0), "flux", 0.0, 120.0, 13, [(0, 1), (0, -1)],
         (1.05, 21.0)),
    ]
    for spin, base, vary, start, stop, steps, states, window in cases:
        spec = SweepSpec("B" if vary == "B" else "phi_AB", start, stop, steps)
        expected, near = workloads.sweep_expectation(spin, base, vary, spec.values(), states, window)
        assert not any(near)
        table = sweep(
            FieldConfiguration(**base),
            SymmetryLimit.SPIN if spin else SymmetryLimit.PSEUDOSPIN,
            [StateIndex(n, m) for n, m in states],
            spec,
            SearchWindow(*window),
        )
        for row, want in zip(table.energies, expected):
            for got, E in zip(row, want):
                assert got is not None and E is not None
                assert abs(got - E) <= workloads.ROOT_TOL * (1 + abs(E))
