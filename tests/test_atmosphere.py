"""Turbulence profile, path integrals, and scalar channel diagnostics.

Oracle discipline: every quadrature-backed value is checked against an
independently coded fixed-step trapezoid rule evaluated inside this file,
plus frozen regression constants computed before the build from
single-expression evaluations.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duallink.atmosphere as atm
from duallink.atmosphere import (
    AtmosphereProfile,
    LinkGeometry,
    bufton_wind,
    cn2,
    fried_parameter,
    greenwood_and_coherence,
    integrated_cn2,
    rms_wind,
    rytov_variance,
)
from duallink.errors import UsageError

from conftest import make_geometry
from oracles import scintillation_index


# ---------------------------------------------------------------------------
# independent quadrature oracle


def trapezoid_oracle(f, a: float, b: float, n: int = 2_000_001) -> float:
    """Fixed-step trapezoid rule; deliberately brute force and separate from
    the production integrator."""
    h = np.linspace(a, b, n)
    return float(np.trapezoid(f(h), h))


def cn2_vectorized(h, profile: AtmosphereProfile):
    v = profile.rms_wind_speed
    return profile.cn2_scale * (
        0.00594 * (v / 27.0) ** 2 * (h * 1e-5) ** 10 * np.exp(-h / 1000.0)
        + 2.7e-16 * np.exp(-h / 1500.0)
        + profile.ground_cn2 * np.exp(-h / 100.0)
    )


# ---------------------------------------------------------------------------
# profile pieces


def test_cn2_at_ground(baseline_profile):
    # At h = 0 the wind-driven term vanishes and both exponentials are 1.
    assert cn2(0.0, baseline_profile) == pytest.approx(9.627e-14, rel=1e-3)


def test_cn2_decays_to_zero(baseline_profile):
    assert cn2(120e3, baseline_profile) < 1e-30


def test_cn2_at_1km_frozen_value(baseline_profile):
    # Single-expression evaluation with v_rms = 21.212278572061745.
    assert cn2(1000.0, baseline_profile) == pytest.approx(1.4298102888373507e-16, rel=1e-9)


def test_cn2_rejects_negative_altitude(baseline_profile):
    with pytest.raises(UsageError):
        cn2(-1.0, baseline_profile)


def test_bufton_peak_at_tropopause():
    assert bufton_wind(9400.0, 3.0) == pytest.approx(33.0, abs=1e-12)


def test_bufton_far_above_bump():
    assert bufton_wind(80e3, 3.0) == pytest.approx(3.0, abs=1e-9)


def test_bufton_one_e_folding():
    assert bufton_wind(4600.0, 3.0) == pytest.approx(14.03638323514327, rel=1e-12)


def test_rms_wind_baseline():
    assert rms_wind(3.0) == pytest.approx(21.0, abs=0.5)
    # frozen production value for regression
    assert rms_wind(3.0) == pytest.approx(21.212278572061745, rel=1e-9)


def test_rms_wind_vg_zero_against_brute_force():
    oracle = math.sqrt(
        trapezoid_oracle(lambda h: (30.0 * np.exp(-(((h - 9400) / 4800) ** 2))) ** 2, 5e3, 20e3)
        / 15e3
    )
    assert rms_wind(0.0) == pytest.approx(oracle, rel=1e-6)


@pytest.mark.parametrize("vg", [0.0, 3.0, 10.0, 25.0])
def test_rms_wind_closed_form_matches_quadrature(vg):
    from scipy.integrate import quad

    total, _ = quad(lambda h: bufton_wind(h, vg) ** 2, 5e3, 20e3, limit=200)
    assert rms_wind(vg) == pytest.approx(math.sqrt(total / 15e3), rel=1e-12)


def test_rms_wind_speed_is_derived_from_ground_wind():
    profile = AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01
    )
    assert profile.rms_wind_speed == rms_wind(3.0)
    with pytest.raises(TypeError):
        AtmosphereProfile(
            ground_cn2=9.6e-14,
            ground_wind=3.0,
            outer_scale=5.0,
            inner_scale=0.01,
            rms_wind_speed=15.0,
        )
    with pytest.raises(UsageError):
        AtmosphereProfile(ground_cn2=9.6e-14, ground_wind=-1.0, outer_scale=5.0, inner_scale=0.01)


def test_profile_rejects_inverted_scales():
    with pytest.raises(UsageError):
        AtmosphereProfile(ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=0.01, inner_scale=5.0)


# ---------------------------------------------------------------------------
# geometry


def test_path_length_scales_with_secant():
    g0 = make_geometry(0.0)
    g60 = make_geometry(60.0)
    assert g0.path_length == pytest.approx(500e3)
    assert g60.path_length == pytest.approx(1000e3, rel=1e-12)


def test_geometry_rejects_horizon():
    with pytest.raises(UsageError):
        make_geometry(90.0)


def test_geometry_rejects_satellite_below_ground():
    with pytest.raises(UsageError):
        LinkGeometry(
            ground_altitude=1000.0,
            satellite_altitude=500.0,
            zenith_angle=0.0,
            wavelength=1.064e-6,
            beam_waist=0.15,
            aperture_radius=0.5,
        )


def valid_profile() -> AtmosphereProfile:
    return AtmosphereProfile(ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01)


@pytest.mark.parametrize(
    "refused, match",
    [
        (lambda: replace(make_geometry(), wavelength=0.0), "wavelength must be positive"),
        (lambda: replace(make_geometry(), beam_waist=-0.15), "beam_waist must be positive"),
        (lambda: replace(make_geometry(), aperture_radius=0.0), "aperture_radius must be positive"),
        (lambda: replace(valid_profile(), ground_cn2=0.0), "strength A must be positive"),
        (lambda: replace(valid_profile(), ground_cn2=-1e-14), "strength A must be positive"),
        (lambda: replace(valid_profile(), cn2_scale=-0.5), "cn2_scale must be nonnegative"),
        # a band must lie inside [ground, satellite] and be ordered
        (lambda: integrated_cn2(make_geometry(), valid_profile(), 600e3), "outside the path"),
        (lambda: rytov_variance(make_geometry(), valid_profile(), 0.0, -1.0), "outside the path"),
        (lambda: fried_parameter(make_geometry(), valid_profile(), 5e3, 5e3), "outside the path"),
    ],
)
def test_nonphysical_geometry_profile_and_band_are_refused(refused, match):
    with pytest.raises(UsageError, match=match):
        refused()


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "build, name",
    [
        pytest.param(build, field.name, id=field.name)
        for build, cls in ((make_geometry, LinkGeometry), (valid_profile, AtmosphereProfile))
        for field in fields(cls)
    ],
)
def test_non_finite_geometry_and_profile_values_are_refused(build, name, value):
    # the config parser refuses these first; library callers meet the dataclasses' check
    with pytest.raises(UsageError, match=f"^{name} must be finite, got {value}$"):
        replace(build(), **{name: value})


# ---------------------------------------------------------------------------
# integrated quantities vs the trapezoid oracle


def test_integrated_cn2_against_oracle(baseline_profile):
    oracle = trapezoid_oracle(lambda h: cn2_vectorized(h, baseline_profile), 0.0, 500e3)
    value = integrated_cn2(make_geometry(0.0), baseline_profile)
    assert value == pytest.approx(oracle, rel=1e-3)
    assert value == pytest.approx(1.013805e-11, rel=1e-4)  # frozen


def test_rytov_variance_against_oracle(baseline_profile):
    geom = make_geometry(0.0)
    oracle = (
        2.25
        * geom.wavenumber ** (7.0 / 6.0)
        * trapezoid_oracle(
            lambda h: cn2_vectorized(h, baseline_profile) * h ** (5.0 / 6.0), 0.0, 500e3
        )
    )
    assert rytov_variance(geom, baseline_profile) == pytest.approx(oracle, rel=1e-3)
    assert rytov_variance(geom, baseline_profile) == pytest.approx(0.160134, rel=1e-4)


def test_rytov_zero_turbulence():
    dead = AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01, cn2_scale=0.0
    )
    assert rytov_variance(make_geometry(0.0), dead) == 0.0


def test_rytov_secant_factorization(baseline_profile):
    # The altitude integrand does not depend on the zenith angle, so the
    # ratio between slant and zenith values is purely the secant power.
    r0deg = rytov_variance(make_geometry(0.0), baseline_profile)
    r60deg = rytov_variance(make_geometry(60.0), baseline_profile)
    assert r60deg / r0deg == pytest.approx(2.0 ** (11.0 / 6.0), rel=1e-9)


def test_rytov_additivity_over_bands(baseline_profile):
    geom = make_geometry(30.0)
    whole = rytov_variance(geom, baseline_profile)
    parts = sum(
        rytov_variance(geom, baseline_profile, h_lo, h_hi)
        for h_lo, h_hi in [(0.0, 2e3), (2e3, 10e3), (10e3, 60e3), (60e3, 500e3)]
    )
    assert parts == pytest.approx(whole, rel=1e-6)


def test_fried_parameter_against_oracle(baseline_profile):
    geom = make_geometry(0.0)
    integral = trapezoid_oracle(lambda h: cn2_vectorized(h, baseline_profile), 0.0, 500e3)
    oracle = (0.423 * geom.wavenumber**2 * integral) ** (-3.0 / 5.0)
    assert fried_parameter(geom, baseline_profile) == pytest.approx(oracle, rel=1e-3)
    assert fried_parameter(geom, baseline_profile) == pytest.approx(0.049561, rel=1e-4)


def test_fried_parameter_sentinel():
    dead = AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01, cn2_scale=0.0
    )
    assert fried_parameter(make_geometry(0.0), dead) == math.inf


def test_fried_scaling_with_cn2_multiplier(baseline_profile):
    geom = make_geometry(0.0)
    r_full = fried_parameter(geom, baseline_profile)
    halved = AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01, cn2_scale=0.5
    )
    assert fried_parameter(geom, halved) == pytest.approx(r_full * 2.0 ** (3.0 / 5.0), rel=1e-9)


def test_rytov_linear_in_cn2_multiplier(baseline_profile):
    geom = make_geometry(15.0)
    base = rytov_variance(geom, baseline_profile)
    for mult in (0.5, 2.0):
        scaled = AtmosphereProfile(
            ground_cn2=9.6e-14,
            ground_wind=3.0,
            outer_scale=5.0,
            inner_scale=0.01,
            cn2_scale=mult,
        )
        assert rytov_variance(geom, scaled) == pytest.approx(mult * base, rel=1e-9)


# ---------------------------------------------------------------------------
# scintillation index


def test_scintillation_zero():
    assert scintillation_index(0.0) == 0.0


def test_scintillation_unit_rytov():
    assert scintillation_index(1.0) == pytest.approx(0.7064384959192418, rel=1e-12)


def test_scintillation_large_argument():
    # Saturation: the first term dies and the second approaches
    # 0.51/0.69^(5/6), so sigma_I^2 -> exp(0.695...) - 1, about 1.0033.
    assert scintillation_index(1e6) == pytest.approx(1.006780143032664, rel=1e-9)
    assert scintillation_index(1e12) == pytest.approx(
        math.exp(0.51 / 0.69 ** (5.0 / 6.0)) - 1.0, rel=1e-3
    )


# ---------------------------------------------------------------------------
# Greenwood frequency and coherence time


def test_coherence_time_at_sixty_degrees(baseline_profile):
    _, tau0 = greenwood_and_coherence(make_geometry(60.0), baseline_profile)
    assert tau0 == pytest.approx(2.29e-3, rel=0.10)
    assert tau0 == pytest.approx(2.2919e-3, rel=1e-3)  # frozen


def test_greenwood_against_oracle(baseline_profile):
    geom = make_geometry(0.0)
    weighted = trapezoid_oracle(
        lambda h: cn2_vectorized(h, baseline_profile)
        * (3.0 + 30.0 * np.exp(-(((h - 9400) / 4800) ** 2))) ** (5.0 / 3.0),
        0.0,
        500e3,
    )
    oracle = 2.31 * geom.wavelength ** (-6.0 / 5.0) * weighted ** (3.0 / 5.0)
    f_g, _ = greenwood_and_coherence(geom, baseline_profile)
    assert f_g == pytest.approx(oracle, rel=1e-3)
    assert f_g == pytest.approx(38.5733, rel=1e-4)  # frozen


def test_coherence_product_invariant(baseline_profile):
    for theta in (0.0, 30.0, 60.0):
        f_g, tau0 = greenwood_and_coherence(make_geometry(theta), baseline_profile)
        assert tau0 * f_g == pytest.approx(0.134, rel=1e-12)


def test_greenwood_sentinel_for_dead_atmosphere():
    dead = AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01, cn2_scale=0.0
    )
    assert greenwood_and_coherence(make_geometry(0.0), dead) == (0.0, math.inf)


def test_coherence_time_infinite_when_path_r0_is():
    # the wind weighting lifts the Greenwood integral over the floor while
    # the plain Cn2 integral stays under it; at grazing zenith such a path
    # still plans (as vacuum slabs), so tau0 must follow r0 = inf
    faint = AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01, cn2_scale=5e-20
    )
    for theta in (0.0, 89.9):
        geom = make_geometry(theta)
        assert fried_parameter(geom, faint) == math.inf
        assert greenwood_and_coherence(geom, faint) == (0.0, math.inf)


# ---------------------------------------------------------------------------
# monotonicity properties


@settings(max_examples=25, deadline=None)
@given(
    theta_pair=st.tuples(
        st.floats(min_value=0.0, max_value=60.0), st.floats(min_value=0.0, max_value=60.0)
    )
)
def test_rytov_monotone_in_zenith_angle(theta_pair):
    profile = AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01
    )
    lo, hi = sorted(theta_pair)
    assert rytov_variance(make_geometry(lo), profile) <= rytov_variance(
        make_geometry(hi), profile
    ) * (1 + 1e-12)


@settings(max_examples=25, deadline=None)
@given(
    theta_pair=st.tuples(
        st.floats(min_value=0.0, max_value=60.0), st.floats(min_value=0.0, max_value=60.0)
    )
)
def test_fried_antimonotone_in_zenith_angle(theta_pair):
    profile = AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01
    )
    lo, hi = sorted(theta_pair)
    assert fried_parameter(make_geometry(hi), profile) <= fried_parameter(
        make_geometry(lo), profile
    ) * (1 + 1e-12)
