import math
import random

import pytest

from diracosc.model import (
    Admissibility,
    ExcludedEnergy,
    FieldConfiguration,
    StateIndex,
    SymmetryLimit,
    admissible,
    effective_angular,
    reduced_coefficients,
)

PS = SymmetryLimit.PSEUDOSPIN
SP = SymmetryLimit.SPIN


def bracket_termwise(cfg, sym, m, E, r):
    """Direct evaluation of the radial-equation bracket, term by term."""
    mu = sym.mass_factor(E, cfg.M)
    m_eff = effective_angular(m, cfg)
    return (
        2.0 * mu * cfg.a * r * r
        + (cfg.e * cfg.B * r) ** 2 / (4.0 * cfg.c**2)
        + 2.0 * mu * cfg.b / (r * r)
        + (m_eff**2 - 0.25) / (r * r)
        + cfg.e**2 * cfg.B * cfg.phi_AB / (2.0 * math.pi * cfg.c**2)
        - cfg.e * m * cfg.B / (2.0 * cfg.c)
        - (E * E - cfg.M**2)
    )


def test_effective_angular_examples():
    assert effective_angular(1, FieldConfiguration(M=1, a=1, b=0, phi_AB=0.0)) == 1.0
    assert abs(effective_angular(1, FieldConfiguration(M=1, a=1, b=0, phi_AB=2 * math.pi))) < 1e-15
    assert effective_angular(2, FieldConfiguration(M=1, a=1, b=0, phi_AB=math.pi)) == 1.5


def test_effective_angular_square_expansion():
    rng = random.Random(7)
    for _ in range(100):
        cfg = FieldConfiguration(
            M=1.0, a=1.0, b=0.0, phi_AB=rng.uniform(-30, 30), e=rng.uniform(0.5, 2), c=rng.uniform(0.5, 2)
        )
        m = rng.randint(-6, 6)
        m_eff = effective_angular(m, cfg)
        expanded = (
            m * m
            + cfg.e**2 * cfg.phi_AB**2 / (4.0 * math.pi**2 * cfg.c**2)
            - cfg.e * m * cfg.phi_AB / (math.pi * cfg.c)
        )
        assert abs(m_eff * m_eff - expanded) <= 1e-14 * (1.0 + abs(expanded))


def test_flux_quantum_shifts_m_eff_by_one():
    # one flux quantum 2 pi c / e lowers the effective angular number by 1
    rng = random.Random(17)
    for _ in range(20):
        e = rng.uniform(0.5, 2.0)
        c = rng.uniform(0.5, 2.0)
        flux = rng.uniform(-10, 10)
        m = rng.randint(-4, 4)
        cfg0 = FieldConfiguration(M=1, a=1, b=0, phi_AB=flux, e=e, c=c)
        cfg1 = FieldConfiguration(M=1, a=1, b=0, phi_AB=flux + 2 * math.pi * c / e, e=e, c=c)
        shift = effective_angular(m, cfg1) - effective_angular(m, cfg0)
        assert abs(shift + 1.0) < 1e-12


def test_reduced_coefficients_clean_config():
    cfg = FieldConfiguration(M=1, a=1, b=1, B=2, phi_AB=math.pi)
    rc = reduced_coefficients(cfg, PS, 1, 2.0)
    assert abs(rc.p2 - 3.0) < 1e-14
    assert abs(rc.q - (-3.0)) < 1e-14
    assert abs(rc.delta - 2.0) < 1e-14
    assert abs(rc.m_eff - 0.5) < 1e-15


def test_reduced_coefficients_all_fields_off():
    cfg = FieldConfiguration(M=1, a=1, b=0, B=0, phi_AB=0)
    rc = reduced_coefficients(cfg, SP, 0, 1.0)  # E = M is fine for spin
    assert rc.p2 == 4.0
    assert rc.q == 0.0
    assert rc.delta == -0.25


def test_excluded_energy():
    cfg = FieldConfiguration(M=1, a=1, b=1, B=2, phi_AB=1)
    with pytest.raises(ExcludedEnergy):
        reduced_coefficients(cfg, PS, 0, 1.0)
    with pytest.raises(ExcludedEnergy):
        reduced_coefficients(cfg, SP, 0, -1.0)
    # the other shell is allowed per symmetry
    reduced_coefficients(cfg, PS, 0, -1.0)
    reduced_coefficients(cfg, SP, 0, 1.0)


def test_bracket_reconstruction_is_exact():
    rng = random.Random(11)
    for _ in range(20):
        cfg = FieldConfiguration(
            M=rng.uniform(0.5, 3),
            a=rng.uniform(0, 4),
            b=rng.uniform(-3, 3),
            B=rng.uniform(-4, 4),
            phi_AB=rng.uniform(-10, 10),
            e=rng.uniform(0.5, 2),
            c=rng.uniform(0.5, 2),
        )
        sym = rng.choice([PS, SP])
        m = rng.randint(-4, 4)
        E = rng.uniform(-8, 8)
        if E == sym.forbidden_energy(cfg.M):
            continue
        rc = reduced_coefficients(cfg, sym, m, E)
        radii = [1.3] + [rng.uniform(0.05, 6.0) for _ in range(100)]
        for r in radii:
            direct = bracket_termwise(cfg, sym, m, E, r)
            recon = rc.p2 * r * r + rc.q + rc.delta / (r * r)
            scale = (
                abs(rc.p2 * r * r) + abs(rc.q) + abs(rc.delta) / (r * r) + 1.0
            )
            assert abs(direct - recon) <= 1e-14 * scale, (cfg, sym, m, E, r)


def test_delta_quarter_identity():
    rng = random.Random(3)
    for _ in range(50):
        cfg = FieldConfiguration(
            M=rng.uniform(0.5, 2), a=1.0, b=rng.uniform(-2, 2), B=1.0, phi_AB=rng.uniform(-5, 5)
        )
        sym = rng.choice([PS, SP])
        E = rng.uniform(-5, 5)
        if E == sym.forbidden_energy(cfg.M):
            continue
        m = rng.randint(-3, 3)
        rc = reduced_coefficients(cfg, sym, m, E)
        mu = sym.mass_factor(E, cfg.M)
        lhs = rc.delta + 0.25
        rhs = rc.m_eff**2 + 2.0 * mu * cfg.b
        assert abs(lhs - rhs) <= 1e-15 * (1.0 + abs(rhs))


def test_symmetry_switch_property():
    # spin coefficients at E equal pseudospin coefficients at E + 2M for the
    # a- and b-terms (same mass factor mu = E + M); q has no mu dependence,
    # so it agrees between the symmetries at equal E
    rng = random.Random(23)
    for _ in range(30):
        cfg = FieldConfiguration(
            M=rng.uniform(0.5, 2),
            a=rng.uniform(0, 3),
            b=rng.uniform(-2, 2),
            B=rng.uniform(-3, 3),
            phi_AB=rng.uniform(-6, 6),
        )
        E = rng.uniform(-4, 4)
        if E in (cfg.M, -cfg.M):
            continue
        m = rng.randint(-3, 3)
        spin = reduced_coefficients(cfg, SP, m, E)
        shifted = reduced_coefficients(cfg, PS, m, E + 2.0 * cfg.M)
        assert abs(spin.p2 - shifted.p2) <= 1e-14 * (1.0 + abs(spin.p2))
        assert abs(spin.delta - shifted.delta) <= 1e-14 * (1.0 + abs(spin.delta))
        pseudo = reduced_coefficients(cfg, PS, m, E)
        assert spin.q == pseudo.q


def test_admissible_verdicts():
    cfg = FieldConfiguration(M=1, a=1, b=1, B=2, phi_AB=math.pi)
    assert admissible(reduced_coefficients(cfg, PS, 1, 2.0)) is Admissibility.ADMISSIBLE

    # pseudospin, a = 1, B = 0, E = 0: p2 = -2
    weak = FieldConfiguration(M=1, a=1, b=0, B=0, phi_AB=0)
    rc = reduced_coefficients(weak, PS, 0, 0.0)
    assert rc.p2 == -2.0
    assert admissible(rc) is Admissibility.NOT_CONFINING

    # p2 > 0 via B alone but delta + 1/4 = 1 - 2 = -1
    strong_b = FieldConfiguration(M=1, a=0, b=1, B=2, phi_AB=0)
    rc = reduced_coefficients(strong_b, PS, 1, 0.0)
    assert rc.delta + 0.25 == -1.0
    assert admissible(rc) is Admissibility.SUPERCRITICAL_INVERSE_SQUARE


def test_no_confinement_at_all_energies_when_a_and_B_vanish():
    cfg = FieldConfiguration(M=1, a=0, b=1, B=0, phi_AB=0)
    for E in (-5.0, 0.0, 0.5, 3.0):
        rc = reduced_coefficients(cfg, SP, 1, E)
        assert admissible(rc) is not Admissibility.ADMISSIBLE


def test_configuration_validation():
    with pytest.raises(ValueError):
        FieldConfiguration(M=0.0, a=1, b=0)
    with pytest.raises(ValueError):
        FieldConfiguration(M=1, a=-0.5, b=0)
    with pytest.raises(ValueError):
        FieldConfiguration(M=1, a=1, b=0, c=0.0)
    with pytest.raises(ValueError):
        FieldConfiguration(M=1, a=1, b=0, e=-1.0)
    with pytest.raises(ValueError):
        StateIndex(-1, 0)
    # b, B, phi_AB of any sign are fine
    FieldConfiguration(M=1, a=0, b=-2, B=-3, phi_AB=-7)


@pytest.mark.parametrize("field", ["M", "a", "b", "B", "phi_AB", "e", "c"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_configuration_rejects_non_finite_fields(field, value):
    params = {"M": 1.0, "a": 1.0, "b": 0.0, **{field: value}}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        FieldConfiguration(**params)
