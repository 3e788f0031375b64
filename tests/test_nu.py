import math
import random

import pytest

from diracosc.model import FieldConfiguration, SymmetryLimit, reduced_coefficients
from diracosc.nu import (
    DegenerateSigma,
    HypergeometricProblem,
    NoBoundBranch,
    NoRealK,
    eigen_condition,
    oscillator_problem,
    pi_candidates,
    select_solution,
)

SQRT3 = math.sqrt(3.0)


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol * (1.0 + abs(b))


def test_candidates_worked_instance():
    # sigma = 2s, tau_t = 1, sigma_t = -(3 s^2 - 3 s + 2)
    prob = oscillator_problem(3.0, -3.0, 2.0)
    cands = pi_candidates(prob)
    assert len(cands) == 4
    ks = sorted({c.k for c in cands})
    assert close(ks[0], 1.5 - 1.5 * SQRT3)
    assert close(ks[1], 1.5 + 1.5 * SQRT3)
    # the lower-k branch admits pi(s) = 2 - sqrt(3) s
    target = [c for c in cands if close(c.k, 1.5 - 1.5 * SQRT3) and c.pi[1] < 0]
    assert len(target) == 1
    assert close(target[0].pi[0], 2.0)
    assert close(target[0].pi[1], -SQRT3)


def test_candidates_unit_instance():
    # sigma_t = -s^2: k = +/- 1/2, and k = -1/2 admits pi = 1 - s
    prob = oscillator_problem(1.0, 0.0, 0.0)
    cands = pi_candidates(prob)
    ks = sorted({c.k for c in cands})
    assert close(ks[0], -0.5) and close(ks[1], 0.5)
    neg = [c for c in cands if close(c.k, -0.5) and c.pi[1] < 0]
    assert close(neg[0].pi[0], 1.0) and close(neg[0].pi[1], -1.0)


def test_candidates_zero_source_term():
    # sigma_t = 0 forces k = 0 and constant pi branches 1/2 +/- 1/2
    prob = HypergeometricProblem((0.0, 2.0), (1.0,), (0.0,))
    cands = pi_candidates(prob)
    assert all(c.k == 0.0 for c in cands)
    assert sorted(c.pi[0] for c in cands) == [0.0, 1.0]
    assert all(c.pi[1] == 0.0 for c in cands)
    with pytest.raises(NoBoundBranch):
        select_solution(cands)  # all tau slopes are zero


def test_no_real_k():
    # p2 = 1, delta = -1 (supercritical): the k-discriminant is negative
    with pytest.raises(NoRealK):
        pi_candidates(oscillator_problem(1.0, 0.0, -1.0))


def test_degenerate_sigma():
    with pytest.raises(DegenerateSigma):
        HypergeometricProblem((0.0, 0.0, 0.0), (1.0,), (1.0,))


def test_select_worked_instance():
    prob = oscillator_problem(3.0, -3.0, 2.0)
    sel = select_solution(pi_candidates(prob))
    assert close(sel.pi[0], 2.0) and close(sel.pi[1], -SQRT3)
    assert close(sel.tau[0], 5.0) and close(sel.tau[1], -2.0 * SQRT3)
    assert sel.tau_slope < 0.0


def test_select_unit_instance():
    prob = oscillator_problem(1.0, 0.0, 0.0)
    sel = select_solution(pi_candidates(prob))
    assert close(sel.pi[0], 1.0) and close(sel.pi[1], -1.0)
    assert close(sel.tau[0], 3.0) and close(sel.tau[1], -2.0)


def test_eigen_condition_examples():
    prob = oscillator_problem(3.0, -3.0, 2.0)
    sel = select_solution(pi_candidates(prob))
    # at n = 0 the residual is lambda itself
    assert close(eigen_condition(sel, prob, 0), 1.5 - 2.5 * SQRT3)
    assert close(eigen_condition(sel, prob, 0), sel.lam)

    # constructed eigenstate: q = -p (4n + 2 + sqrt(4 delta + 1)), n = 1
    prob_eig = oscillator_problem(1.0, -7.0, 0.0)
    sel_eig = select_solution(pi_candidates(prob_eig))
    assert abs(eigen_condition(sel_eig, prob_eig, 1)) < 1e-12


def test_residual_at_zero_is_lambda():
    rng = random.Random(5)
    for _ in range(25):
        prob = oscillator_problem(
            rng.uniform(0.2, 9.0), rng.uniform(-20, 20), rng.uniform(-0.2, 12.0)
        )
        sel = select_solution(pi_candidates(prob))
        assert eigen_condition(sel, prob, 0) == sel.lam


def test_pi_is_exact_radicand_root():
    # pi^2 - pi (sigma' - tau_t) + (sigma_t - k sigma) = 0 as a polynomial
    rng = random.Random(19)
    checked = 0
    problems = [
        oscillator_problem(rng.uniform(0.2, 9), rng.uniform(-15, 15), rng.uniform(-0.2, 10))
        for _ in range(20)
    ]
    # a couple of degree-2 sigma instances exercise the general path
    problems.append(HypergeometricProblem((0.0, 1.0, -1.0), (1.0, -2.0), (-0.1, 0.3, -0.5)))
    problems.append(HypergeometricProblem((1.0, 0.0, 1.0), (0.0, 1.0), (-0.4, 0.0, -0.3)))
    for prob in problems:
        try:
            cands = pi_candidates(prob)
        except NoRealK:
            continue
        s0, s1, s2 = prob.sigma
        t0, t1 = prob.tau_tilde
        g0, g1, g2 = prob.sigma_tilde
        for c in cands:
            p0, p1 = c.pi
            coeffs = (
                p0 * p0 - p0 * (s1 - t0) + (g0 - c.k * s0),
                2.0 * p0 * p1 - p0 * (2.0 * s2 - t1) - p1 * (s1 - t0) + (g1 - c.k * s1),
                p1 * p1 - p1 * (2.0 * s2 - t1) + (g2 - c.k * s2),
            )
            scale = sum(abs(x) for x in (p0, p1, c.k, g0, g1, g2, s0, s1, s2)) + 1.0
            for coeff in coeffs:
                assert abs(coeff) <= 1e-10 * scale, (prob, c)
            checked += 1
    assert checked >= 40


def test_radicand_discriminant_vanishes_at_solved_k():
    # rebuild A s^2 + B s + C = h^2 - sigma_t + k sigma for each candidate's
    # k: its discriminant must vanish (the perfect-square condition)
    rng = random.Random(13)
    for _ in range(20):
        prob = oscillator_problem(
            rng.uniform(0.2, 16.0), rng.uniform(-25, 25), rng.uniform(-0.2, 20.0)
        )
        s0, s1, s2 = prob.sigma
        t0, t1 = prob.tau_tilde
        g0, g1, g2 = prob.sigma_tilde
        h0 = (s1 - t0) / 2.0
        h1 = (2.0 * s2 - t1) / 2.0
        for c in pi_candidates(prob):
            A = h1 * h1 - g2 + c.k * s2
            B = 2.0 * h0 * h1 - g1 + c.k * s1
            C = h0 * h0 - g0 + c.k * s0
            disc = B * B - 4.0 * A * C
            assert abs(disc) <= 1e-10 * (B * B + abs(4.0 * A * C) + 1.0), (prob, c.k)


def test_bound_branch_tau_is_the_laguerre_weight():
    # (sigma rho)' = tau rho with sigma = 2s and rho = s^alpha exp(-p~ s), the
    # weight of L_n^alpha(p~ s), gives tau = (2 + 2 alpha, -2 p~): the bound
    # branch must carry wavefunc's alpha = sqrt(delta + 1/4) and p~ = sqrt(p2)
    rng = random.Random(31)
    for _ in range(10):
        p2, delta = rng.uniform(0.2, 9.0), rng.uniform(-0.2, 10.0)
        prob = oscillator_problem(p2, rng.uniform(-15, 15), delta)
        sel = select_solution(pi_candidates(prob))
        assert close(sel.tau[0], 2.0 + 2.0 * math.sqrt(delta + 0.25)), prob
        assert close(sel.tau[1], -2.0 * math.sqrt(p2)), prob


def test_family_eigencondition_matches_closed_form():
    # engine condition lambda = lambda_n is algebraically the closed relation
    # p~ (4n + 2 + sqrt(4 delta + 1)) + q = 0; lambda_n = 2 p~ n for this family
    rng = random.Random(43)
    for _ in range(50):
        p2 = rng.uniform(0.05, 25.0)
        q = rng.uniform(-40.0, 40.0)
        delta = rng.uniform(-0.25, 30.0)
        prob = oscillator_problem(p2, q, delta)
        sel = select_solution(pi_candidates(prob))
        p_tilde = math.sqrt(p2)
        for n in range(5):
            closed = p_tilde * (4.0 * n + 2.0 + math.sqrt(4.0 * delta + 1.0)) + q
            engine = -2.0 * eigen_condition(sel, prob, n)
            assert abs(engine - closed) <= 1e-12 * (1.0 + abs(closed))
            lam_n = sel.lam - eigen_condition(sel, prob, n)
            assert abs(lam_n - 2.0 * p_tilde * n) <= 1e-12 * (1.0 + 2.0 * p_tilde * n)


def test_bound_branch_of_weakly_confined_state():
    # pseudospin n = 3, m = -2 root 7e-9 above the p2 = 0 edge: A = p2 = 4e-10
    # beside |q| = 3.6e-4 and delta = 4.08 is a genuine s^2 term, so the bound
    # branch exists and has pi slope -sqrt(p2)
    cfg = FieldConfiguration(M=1.4005175738552251, a=0.028931403512483585, b=0.9327215090425947,
                             B=-0.09146022511954033, phi_AB=0.6066942147501027)
    rc = reduced_coefficients(cfg, SymmetryLimit.PSEUDOSPIN, -2, 1.3643761749194634)
    prob = oscillator_problem(rc.p2, rc.q, rc.delta)
    sel = select_solution(pi_candidates(prob))
    assert close(sel.pi[1], -math.sqrt(rc.p2), 1e-9)
    assert abs(eigen_condition(sel, prob, 3)) <= 1e-9 * (1.0 + abs(sel.lam))
