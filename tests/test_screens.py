"""Slab planning and von Karman phase screen synthesis."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0

import duallink.screens
from duallink.atmosphere import (
    AtmosphereProfile,
    _cumulative_integral,
    cn2,
    rytov_variance,
)
from duallink.errors import UsageError
from duallink.optics import choose_receiver_window
from duallink.screens import (
    _KERNEL_REACH,
    _MAX_SLABS,
    _SCREEN_R0_CELLS,
    _SCREEN_RYTOV_CAP,
    _SUBHARMONIC_LEVELS,
    ScreenStreams,
    Slab,
    SlabPlan,
    Workspace,
    _cell_integrated_psd,
    _draw_spectrum,
    _fft_amplitude_factor,
    _row_tiles,
    generate_screen,
    mvk_psd,
    plan_slabs,
    screen_spectrum,
)

from conftest import make_geometry
from oracles import (
    full_grid_fft_amplitude_factor,
    full_grid_generate_screen,
    full_grid_spectrum,
    screen_structure_function,
    weak_kernel,
    weak_scintillation_index,
)


def kolmogorov_like_profile(inner_scale: float = 0.04) -> AtmosphereProfile:
    # Outer scale far beyond any grid window, so the inertial power law is
    # the correct reference across all measurable separations.
    return AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=1e6, inner_scale=inner_scale
    )


def plan_boundaries(plan) -> tuple[float, ...]:
    return tuple(s.h_lo for s in plan.slabs) + (plan.slabs[-1].h_hi,)


def plan_path_length(plan) -> float:
    return sum(s.path_length for s in plan.slabs)


def draw(slabs, n, spacing, rng, profile):
    """The screens of one draw, on screen factors built for it alone."""
    return generate_screen(slabs, screen_spectrum(n, spacing, profile), rng)


def make_screens(slab, n, spacing, profile, count, seed=11):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", duallink.screens.ScreenResolutionWarning)
        spectrum = screen_spectrum(n, spacing, profile)
    return [
        generate_screen((slab,), spectrum, ScreenStreams(seed, i).generator(0))[0]
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# slab planning


def receiver_spacing(geom, n: int) -> float:
    return choose_receiver_window(geom, (0.5,)) / n


PLAN_CASES = [(zenith, n) for zenith in (0.0, 30.0, 60.0) for n in (256, 512, 1024)]


def test_zero_turbulence_plan_is_single_vacuum_slab(baseline_profile):
    dead = AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01, cn2_scale=0.0
    )
    geom = make_geometry(0.0)
    plan = plan_slabs(geom, dead, receiver_spacing(geom, 512))
    assert len(plan.slabs) == 1
    assert not plan.slabs[0].has_screen
    assert plan_path_length(plan) == pytest.approx(geom.path_length, rel=1e-12)


@pytest.mark.parametrize("theta", [0.0, 30.0, 60.0])
def test_slab_conditions_hold(baseline_profile, theta):
    # every screen meets both bounds, on every grid
    geom = make_geometry(theta)
    for n in (256, 512, 1024):
        spacing = receiver_spacing(geom, n)
        for slab in plan_slabs(geom, baseline_profile, spacing).slabs:
            assert slab.has_screen
            assert slab.fried >= _SCREEN_R0_CELLS * spacing
            ryt = rytov_variance(geom, baseline_profile, slab.h_lo, slab.h_hi)
            assert ryt <= _SCREEN_RYTOV_CAP


@pytest.mark.parametrize("zenith, n", PLAN_CASES)
def test_plan_is_contiguous_from_ground_to_satellite(baseline_profile, zenith, n):
    geom = make_geometry(zenith)
    plan = plan_slabs(geom, baseline_profile, receiver_spacing(geom, n))
    bounds = plan_boundaries(plan)
    assert bounds[0] == geom.ground_altitude
    assert bounds[-1] == geom.satellite_altitude
    assert all(b2 > b1 for b1, b2 in zip(bounds[:-1], bounds[1:]))
    assert plan_path_length(plan) == pytest.approx(geom.path_length, rel=1e-9)


@pytest.mark.parametrize("zenith, n", PLAN_CASES)
def test_screens_sit_where_the_grid_kernel_keeps_their_band(baseline_profile, zenith, n):
    # The oracle's truncated kernel at each screen equals its Cn2-weighted
    # mean over the band; a band wholly past _KERNEL_REACH z_c, where the
    # kernel is a z^(5/6) law less a constant, has its screen at h*, with
    # (h* - h0)^(5/6) = int Cn2 (h - h0)^(5/6) / int Cn2.  Each integral is
    # taken on its own over [h_lo, h_hi].
    geom = make_geometry(zenith)
    spacing = receiver_spacing(geom, n)
    plan = plan_slabs(geom, baseline_profile, spacing)
    kernel = weak_kernel(geom, baseline_profile, spacing)
    h_c = geom.wavenumber * spacing**2 / (math.pi**2 * geom.sec_zenith)
    weight = lambda h: cn2(h, baseline_profile)
    weighted = lambda h: weight(h) * kernel(h)
    moment = lambda h: weight(h) * h ** (5.0 / 6.0)
    for slab in plan.slabs:
        mass = _cumulative_integral(weight, slab.h_lo, slab.h_hi)[1][-1]
        mean = _cumulative_integral(weighted, slab.h_lo, slab.h_hi)[1][-1] / mass
        assert kernel(slab.screen_altitude) == pytest.approx(mean, rel=2e-3)
        if slab.h_lo >= _KERNEL_REACH * h_c:
            first = _cumulative_integral(moment, slab.h_lo, slab.h_hi)[1][-1]
            assert slab.screen_altitude == pytest.approx((first / mass) ** (6.0 / 5.0), rel=2e-3)
        assert slab.h_lo < slab.screen_altitude < slab.h_hi


@pytest.mark.parametrize("zenith, n", PLAN_CASES)
def test_no_band_straddles_the_nyquist_fresnel_distance(baseline_profile, zenith, n):
    geom = make_geometry(zenith)
    spacing = receiver_spacing(geom, n)
    plan = plan_slabs(geom, baseline_profile, spacing)
    h_c = geom.wavenumber * spacing**2 / (math.pi**2 * geom.sec_zenith)
    assert not any(slab.h_lo < h_c < slab.h_hi for slab in plan.slabs)


@pytest.mark.parametrize(
    "zenith, n, expected",
    [(0.0, None, 0.1339), (0.0, 256, 0.0756), (0.0, 512, 0.0997), (0.0, 1024, 0.1256),
     (60.0, 512, 0.3099)],
)
def test_weak_scintillation_oracle_values(baseline_profile, zenith, n, expected):
    # the full-spectrum and grid-truncated plane-wave values, to 4 decimals
    geom = make_geometry(zenith)
    spacing = None if n is None else receiver_spacing(geom, n)
    value = weak_scintillation_index(geom, baseline_profile, spacing)
    assert round(value, 4) == expected


@pytest.mark.parametrize("zenith, n", PLAN_CASES)
def test_plan_keeps_the_weak_scintillation_of_the_path(baseline_profile, zenith, n):
    # Discrete weak-fluctuation sigma_I^2, each screen carrying its band's
    # Cn2 at its screen altitude, against the continuous path, both on the
    # grid's truncated spectrum.
    geom = make_geometry(zenith)
    spacing = receiver_spacing(geom, n)
    plan = plan_slabs(geom, baseline_profile, spacing)
    continuous = weak_scintillation_index(geom, baseline_profile, spacing)
    discrete = weak_scintillation_index(geom, baseline_profile, spacing, plan)
    assert discrete == pytest.approx(continuous, rel=2e-3)


def test_zenith_zero_grid_1024_plan_has_at_most_six_screens(baseline_profile):
    # the old share cap gave every plan at least ten screens
    geom = make_geometry(0.0)
    plan = plan_slabs(geom, baseline_profile, receiver_spacing(geom, 1024))
    assert sum(slab.has_screen for slab in plan.slabs) <= 6


def test_slab_count_at_sixty_degrees(baseline_profile):
    # The Rytov cap sets the count at zenith 60 (sigma_R^2 = 0.57), the r0
    # bound adds ground bands on coarse grids.  Counts are regression-pinned.
    geom = make_geometry(60.0)
    counts = [
        len(plan_slabs(geom, baseline_profile, receiver_spacing(geom, n)).slabs)
        for n in (256, 512, 1024)
    ]
    assert counts == [17, 12, 11]  # snapshot


def test_slab_rytov_additivity(baseline_profile):
    geom = make_geometry(30.0)
    plan = plan_slabs(geom, baseline_profile, receiver_spacing(geom, 512))
    total = sum(
        rytov_variance(geom, baseline_profile, s.h_lo, s.h_hi) for s in plan.slabs
    )
    assert total == pytest.approx(rytov_variance(geom, baseline_profile), rel=1e-6)


def test_slab_cap_exceeded_is_config_error(baseline_profile):
    violent = AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01, cn2_scale=1e4
    )
    geom = make_geometry(60.0)
    with pytest.raises(UsageError, match=f"more than {_MAX_SLABS} slabs"):
        plan_slabs(geom, violent, receiver_spacing(geom, 512))


def test_slab_screen_defaults_to_mid_band_and_stays_inside():
    assert Slab(0.0, 100.0, 200.0, 0.1).screen_altitude == 50.0
    assert Slab(0.0, 100.0, 200.0, 0.1, 25.0).screen_depth == 150.0
    with pytest.raises(UsageError):
        Slab(0.0, 100.0, 200.0, 0.1, 120.0)


def test_plan_rejects_noncontiguous_slabs():
    a = Slab(0.0, 100.0, 100.0, 0.1)
    b = Slab(200.0, 300.0, 100.0, 0.1)
    with pytest.raises(UsageError):
        SlabPlan((a, b))


# ---------------------------------------------------------------------------
# spectrum


def test_mvk_psd_finite_at_zero_frequency():
    assert mvk_psd(0.0, 0.1, 5.0, 0.01) == pytest.approx(390.1975323855177, rel=1e-12)


def test_mvk_psd_gaussian_rolloff():
    fm = 0.9422 / 0.01
    assert mvk_psd(5 * fm, 0.1, 5.0, 0.01) < 1e-12 * mvk_psd(fm, 0.1, 5.0, 0.01)


def test_mvk_psd_frozen_value():
    assert mvk_psd(1.0, 0.1, 5.0, 0.01) == pytest.approx(0.9933854454493568, rel=1e-12)


def test_mvk_psd_rejects_negative_frequency():
    with pytest.raises(UsageError):
        mvk_psd(-1.0, 0.1, 5.0, 0.01)


# ---------------------------------------------------------------------------
# screen synthesis


def test_vacuum_slab_yields_zero_screen(baseline_profile):
    vac = Slab(16e3, 500e3, 484e3, math.inf)
    (screen,) = draw(
        (vac,), 64, 0.05, ScreenStreams(1, 0).generator(0), baseline_profile
    )
    assert np.all(screen == 0.0)


def test_screens_are_deterministic(baseline_profile):
    slab = Slab(0.0, 100.0, 100.0, 0.08)
    a = draw((slab,), 128, 0.05, ScreenStreams(42, 7).generator(3), baseline_profile)[0]
    b = draw((slab,), 128, 0.05, ScreenStreams(42, 7).generator(3), baseline_profile)[0]
    assert np.array_equal(a, b)


def test_distinct_streams_give_distinct_screens(baseline_profile):
    slab = Slab(0.0, 100.0, 100.0, 0.08)
    a = draw((slab,), 64, 0.05, ScreenStreams(42, 7).generator(3), baseline_profile)[0]
    b = draw((slab,), 64, 0.05, ScreenStreams(42, 8).generator(3), baseline_profile)[0]
    assert not np.array_equal(a, b)


def test_grid_size_must_be_power_of_two(baseline_profile):
    slab = Slab(0.0, 100.0, 100.0, 0.08)
    with pytest.raises(UsageError):
        draw((slab,), 100, 0.05, ScreenStreams(1, 0).generator(0), baseline_profile)


def test_under_resolved_outer_scale_warns():
    profile = kolmogorov_like_profile()
    slab = Slab(0.0, 100.0, 100.0, 0.1)
    with pytest.warns(duallink.screens.ScreenResolutionWarning):
        spectrum = screen_spectrum(64, 0.01, profile)
    with warnings.catch_warnings():
        warnings.simplefilter("error", duallink.screens.ScreenResolutionWarning)
        generate_screen((slab,), spectrum, ScreenStreams(1, 0).generator(0))


def test_ensemble_pixel_means_near_zero():
    profile = kolmogorov_like_profile()
    slab = Slab(0.0, 100.0, 100.0, 0.1)
    screens = make_screens(slab, 64, 0.01, profile, 200, seed=5)
    stack = np.stack(screens)
    mean = stack.mean(axis=0)
    sigma = stack.std(axis=0, ddof=1) / math.sqrt(len(screens))
    assert np.all(np.abs(mean) < 5.0 * sigma)


def test_screen_variance_scales_with_integrated_turbulence():
    # Doubling integrated Cn2 in a slab divides r0 by 2^(3/5) and must
    # double the pixel variance (r0^(-5/3) scaling).  Both slabs draw from
    # the same streams, so the law holds to rounding, free of sampling error.
    profile = kolmogorov_like_profile()
    base = Slab(0.0, 100.0, 100.0, 0.1)
    doubled = Slab(0.0, 100.0, 100.0, 0.1 * 2 ** (-3.0 / 5.0))
    base_screens = make_screens(base, 128, 0.01, profile, 200, seed=5)
    doubled_screens = make_screens(doubled, 128, 0.01, profile, 200, seed=5)
    v1 = np.mean([np.var(s) for s in base_screens])
    v2 = np.mean([np.var(s) for s in doubled_screens])
    assert v2 / v1 == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# spectral draws


def unit_spectrum(n, rng):
    """One spectral draw with every amplitude factor 1: N^2 complex normals."""
    ws = Workspace(n)
    _draw_spectrum(rng, np.ones((n, n)), ws)
    return ws.spectrum


# Fixed before the first run of the Box-Muller draw.  Against float64
# Box-Muller of the same uniforms, each unit normal is off by at most
# R * 3 * 2^-23: 2^-23 from the float32 cast of |theta| <= pi, and 2 float32
# ulps (<= 2^-22) of cos or sin, the accuracy numpy's own suite holds.  The
# float64 modulus and products add a few ulps of R.  R <= sqrt(106 ln 2).
TRIG_BOUND = 3.0 * 2.0**-23
MODULUS_MAX = math.sqrt(106.0 * math.log(2.0))


@pytest.mark.parametrize("n", [64, 512])
def test_spectral_draws_within_float32_trig_bound(n):
    streams = ScreenStreams(29, 4)
    ref_rng = streams.generator(1)
    rng = streams.generator(1)
    spectrum = unit_spectrum(n, rng)
    modulus = np.sqrt(-2.0 * np.log(1.0 - ref_rng.random((n, n))))
    theta = 2.0 * np.pi * (ref_rng.random((n, n)) - 0.5)
    assert modulus.max() <= MODULUS_MAX
    bound = modulus * (TRIG_BOUND + 2.0**-50)
    assert np.all(np.abs(spectrum.real - modulus * np.cos(theta)) <= bound)
    assert np.all(np.abs(spectrum.imag - modulus * np.sin(theta)) <= bound)
    np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


def test_unit_spectral_draws_are_standard_normal():
    # Both halves are N(0, 1) and independent of each other: each sample
    # moment sits within 5 standard errors of its value.
    spectrum = unit_spectrum(512, ScreenStreams(31, 0).generator(2))
    x, y = spectrum.real.ravel(), spectrum.imag.ravel()
    m = x.size
    tail = math.erfc(3.0 / math.sqrt(2.0))  # P(|z| > 3)
    for z in (x, y):
        assert abs(z.mean()) <= 5.0 * math.sqrt(1.0 / m)
        assert abs(np.mean(z**2) - 1.0) <= 5.0 * math.sqrt(2.0 / m)
        assert abs(np.mean(z**4) - 3.0) <= 5.0 * math.sqrt(96.0 / m)
        beyond = np.mean(np.abs(z) > 3.0)
        assert abs(beyond - tail) <= 5.0 * math.sqrt(tail * (1.0 - tail) / m)
    assert abs(np.mean(x * y)) <= 5.0 * math.sqrt(1.0 / m)


PINNED_AMPLITUDES = [
    "-0x1.5d86856da704fp-2", "0x1.db7d9eecacdd2p-3",
    "0x1.5ccda19c75781p-4", "-0x1.dd2cd81b42645p-1",
    "0x1.92ce696105f79p-2", "-0x1.63742338bea1ap+0",
]


def test_first_spectral_amplitudes_are_pinned():
    # ensemble format 6's stream: SFC64 keyed by (seed, realization, slab
    # index), all modulus uniforms, then all phase uniforms
    spectrum = unit_spectrum(64, ScreenStreams(13, 0).generator(0))
    got = [value.hex() for z in spectrum.ravel()[:3].tolist() for value in (z.real, z.imag)]
    assert got == PINNED_AMPLITUDES


def reference_generate_screen(slabs, n, spacing, rng, profile):
    """Complex-phasor synthesis: one ifft2 of the spectral draw, whose real
    and imaginary parts serve the first and second slab, plus, per slab and
    subharmonic level, Re(P^T A P) with P the 3 x N axis phasors
    exp(i k theta x), k = -1, 0, 1."""
    l_out, l_in = profile.outer_scale, profile.inner_scale
    factor = _fft_amplitude_factor(n, spacing, l_out, l_in)
    transform = np.fft.ifft2(full_grid_spectrum(rng, factor)) * (n * n)

    df = 1.0 / (n * spacing)
    coords = (np.arange(n) - n // 2) * spacing
    screens = []
    for slab, half in zip(slabs, (transform.real, transform.imag)):
        scale = slab.fried ** (-5.0 / 6.0)
        sub = np.zeros((n, n), dtype=complex)
        for level in range(1, _SUBHARMONIC_LEVELS + 1):
            dfb = df / 3.0**level
            w = np.empty((3, 3))
            for a, i in enumerate((-1, 0, 1)):
                for b, j in enumerate((-1, 0, 1)):
                    w[a, b] = _cell_integrated_psd(i * dfb, j * dfb, dfb, 1.0, l_out, l_in)
            w[1, 1] = 0.0
            phasor = np.exp(2j * np.pi * dfb * np.outer([-1.0, 0.0, 1.0], coords))
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            a *= scale * np.sqrt(w)
            sub += phasor.T @ (a @ phasor)
        sub_real = sub.real
        screens.append(scale * half + (sub_real - sub_real.mean()))
    return screens


# Fixed before the real-form rewrite: reordering float64 sums may move each
# pixel by a few ulps of the screen's scale, far below 1e-12 of its rms.
SCREEN_MATCH_TOLERANCE = 1e-12


@pytest.mark.parametrize("n, spacing", [(64, 0.05), (256, 0.02)])
@pytest.mark.parametrize("seed", [1, 42, 2024])
def test_screen_matches_complex_phasor_reference(baseline_profile, n, spacing, seed):
    slab = Slab(0.0, 100.0, 100.0, 0.08)
    streams = ScreenStreams(seed, 3)
    ref_rng = streams.generator(5)
    rng = streams.generator(5)
    (expected,) = reference_generate_screen((slab,), n, spacing, ref_rng, baseline_profile)
    got = draw((slab,), n, spacing, rng, baseline_profile)[0]
    rms = float(np.sqrt(np.mean(expected**2)))
    assert np.max(np.abs(got - expected)) <= SCREEN_MATCH_TOLERANCE * rms
    # same draws, consumed in the same order
    np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


@pytest.mark.parametrize("n, spacing", [(64, 0.05), (256, 0.02)])
@pytest.mark.parametrize("seed", [1, 42, 2024])
def test_screen_pair_matches_complex_phasor_reference(baseline_profile, n, spacing, seed):
    # two slabs of different strength: each half carries its own r0
    slabs = (Slab(0.0, 100.0, 100.0, 0.08), Slab(100.0, 400.0, 300.0, 0.2))
    streams = ScreenStreams(seed, 3)
    ref_rng = streams.generator(5)
    rng = streams.generator(5)
    expected = reference_generate_screen(slabs, n, spacing, ref_rng, baseline_profile)
    got = draw(slabs, n, spacing, rng, baseline_profile)
    assert len(got) == 2
    for screen, reference in zip(got, expected):
        rms = float(np.sqrt(np.mean(reference**2)))
        assert np.max(np.abs(screen - reference)) <= SCREEN_MATCH_TOLERANCE * rms
    np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


@pytest.mark.parametrize("n, spacing", [(64, 0.05), (256, 0.02), (1024, 0.01)])
@pytest.mark.parametrize("count", [1, 2])
def test_tiled_screens_equal_full_grid_reference(baseline_profile, n, spacing, count):
    # grid 64 is one row tile; 256 and 1024 are many
    assert (len(_row_tiles(n)) == 1) == (n == 64)
    slabs = (Slab(0.0, 100.0, 100.0, 0.08), Slab(100.0, 400.0, 300.0, 0.2))[:count]
    streams = ScreenStreams(17, 2)
    ref_rng = streams.generator(3)
    rng = streams.generator(3)
    expected = full_grid_generate_screen(slabs, n, spacing, ref_rng, baseline_profile)
    got = draw(slabs, n, spacing, rng, baseline_profile)
    assert len(got) == count
    for screen, reference in zip(got, expected):
        assert np.array_equal(screen, reference)
    np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


@pytest.mark.parametrize("n", [512, 1024])
def test_tiled_amplitude_factor_equals_full_grid(n):
    spacing, l_out, l_in = 0.9 / n, 5.0, 0.01
    expected = full_grid_fft_amplitude_factor(n, spacing, l_out, l_in)
    assert np.array_equal(_fft_amplitude_factor(n, spacing, l_out, l_in), expected)


def test_pair_first_screen_is_the_one_slab_screen(baseline_profile):
    slabs = (Slab(0.0, 100.0, 100.0, 0.08), Slab(100.0, 400.0, 300.0, 0.2))
    streams = ScreenStreams(8, 2)
    (alone,) = draw(slabs[:1], 128, 0.05, streams.generator(4), baseline_profile)
    first, _ = draw(slabs, 128, 0.05, streams.generator(4), baseline_profile)
    assert np.array_equal(alone, first)


def test_pair_with_vacuum_slab_gives_zero_screen(baseline_profile):
    slab = Slab(0.0, 100.0, 100.0, 0.08)
    vac = Slab(16e3, 500e3, 484e3, math.inf)
    turbulent, flat = draw(
        (slab, vac), 64, 0.05, ScreenStreams(1, 0).generator(0), baseline_profile
    )
    assert np.all(flat == 0.0)
    assert np.std(turbulent) > 0.0


def test_screen_call_takes_one_or_two_slabs(baseline_profile):
    slab = Slab(0.0, 100.0, 100.0, 0.08)
    for slabs in ((), (slab,) * 3):
        with pytest.raises(UsageError):
            draw(slabs, 64, 0.05, ScreenStreams(1, 0).generator(0), baseline_profile)


def test_screen_halves_are_uncorrelated(baseline_profile):
    # Over many pairs, the mean pixel correlation of the two halves, and of
    # their 0.32 m increments along both axes, sits within 4 standard errors
    # of zero.  Per-pair correlations scatter widely because each screen is
    # dominated by a few large-scale modes, hence the ensemble average.
    slab = Slab(0.0, 100.0, 100.0, 0.1)
    shift = 16  # 0.32 m at 0.02 m spacing
    values, increments = [], []
    spectrum = screen_spectrum(256, 0.02, baseline_profile)
    for i in range(128):
        a, b = generate_screen((slab, slab), spectrum, ScreenStreams(77, i).generator(0))
        values.append(np.corrcoef(a.ravel(), b.ravel())[0, 1])
        da = np.concatenate(
            [(a[:, shift:] - a[:, :-shift]).ravel(),
             (a[shift:] - a[:-shift]).ravel()]
        )
        db = np.concatenate(
            [(b[:, shift:] - b[:, :-shift]).ravel(),
             (b[shift:] - b[:-shift]).ravel()]
        )
        increments.append(np.corrcoef(da, db)[0, 1])
    for corr in (np.array(values), np.array(increments)):
        stderr = corr.std(ddof=1) / math.sqrt(corr.size)
        assert abs(corr.mean()) <= 4.0 * stderr


# ---------------------------------------------------------------------------
# structure function


def exact_mvk_structure_function(r, fried, outer_scale, inner_scale):
    """Quadrature oracle: D(r) = 4 pi Int PSD(f) [1 - J0(2 pi f r)] f df."""

    def integrand(f):
        return mvk_psd(f, fried, outer_scale, inner_scale) * (1.0 - j0(2 * np.pi * f * r)) * f

    edges = np.geomspace(1e-7, 1e4, 120)
    total = quad(integrand, 0.0, edges[0], limit=100)[0]
    total += sum(quad(integrand, a, b, limit=100)[0] for a, b in zip(edges[:-1], edges[1:]))
    return 4.0 * np.pi * total


def test_structure_function_zero_for_zero_screens(baseline_profile):
    zeros = [np.zeros((32, 32))] * 50
    values = screen_structure_function(zeros, 0.1, [0.1, 0.5, 1.0])
    assert values == [0.0, 0.0, 0.0]


def test_structure_function_requires_enough_screens(baseline_profile):
    zeros = [np.zeros((32, 32))] * 10
    with pytest.raises(UsageError):
        screen_structure_function(zeros, 0.1, [0.1])


def test_structure_function_rejects_off_grid_separation():
    zeros = [np.zeros((32, 32))] * 50
    with pytest.raises(UsageError):
        screen_structure_function(zeros, 0.1, [0.15])
    with pytest.raises(UsageError):
        screen_structure_function(zeros, 0.1, [3.3])


def test_structure_function_nondecreasing():
    profile = kolmogorov_like_profile()
    slab = Slab(0.0, 100.0, 100.0, 0.1)
    screens = make_screens(slab, 128, 0.01, profile, 60, seed=9)
    rs = [0.02, 0.04, 0.08, 0.16, 0.32]
    d = screen_structure_function(screens, 0.01, rs)
    assert all(b > a for a, b in zip(d[:-1], d[1:]))


def test_structure_function_matches_exact_spectrum_with_table_scales():
    # Production-scale spectrum (5 m outer scale): compare against the
    # exact quadrature of the model PSD, not the inertial power law, since
    # outer-scale saturation is part of the model.
    profile = AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01
    )
    slab = Slab(0.0, 100.0, 100.0, 0.25)
    screens = make_screens(slab, 256, 0.02, profile, 120, seed=13)
    rs = [0.08, 0.32, 1.28]
    measured = screen_structure_function(screens, 0.02, rs)
    for r, d in zip(rs, measured):
        exact = exact_mvk_structure_function(r, 0.25, 5.0, 0.01)
        assert d == pytest.approx(exact, rel=0.10)


def test_structure_function_matches_kolmogorov_power_law():
    # Effectively infinite outer scale: the 5/3 power law is the reference
    # over separations resolved by the grid, from twice the inner scale up
    # to a quarter of the window.
    profile = kolmogorov_like_profile(inner_scale=0.04)
    r0 = 0.1
    slab = Slab(0.0, 100.0, 100.0, r0)
    screens = make_screens(slab, 256, 0.01, profile, 200, seed=17)
    rs = [0.08, 0.16, 0.32, 0.64]
    measured = screen_structure_function(screens, 0.01, rs)
    for r, d in zip(rs, measured):
        assert d == pytest.approx(6.88 * (r / r0) ** (5.0 / 3.0), rel=0.10)
