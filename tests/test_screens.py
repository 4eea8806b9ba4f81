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
    rytov_variance,
    scintillation_index,
)
from duallink.errors import UsageError
from duallink.screens import (
    _SUBHARMONIC_LEVELS,
    PhaseScreen,
    ScreenStreams,
    Slab,
    SlabPlan,
    _cell_integrated_psd,
    _fft_amplitude_factor,
    _row_tiles,
    generate_screen,
    mvk_psd,
    plan_slabs,
)

from conftest import make_geometry
from oracles import (
    full_grid_fft_amplitude_factor,
    full_grid_generate_screen,
    screen_structure_function,
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


def make_screens(slab, n, spacing, profile, count, seed=11):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", duallink.screens.ScreenResolutionWarning)
        return [
            generate_screen((slab,), n, spacing, ScreenStreams(seed, i).generator(0), profile)[0]
            for i in range(count)
        ]


# ---------------------------------------------------------------------------
# slab planning


def test_zero_turbulence_plan_is_single_vacuum_slab(baseline_profile):
    dead = AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01, cn2_scale=0.0
    )
    geom = make_geometry(0.0)
    plan = plan_slabs(geom, dead)
    assert len(plan.slabs) == 1
    assert not plan.slabs[0].has_screen
    assert plan_path_length(plan) == pytest.approx(geom.path_length, rel=1e-12)


@pytest.mark.parametrize("theta", [0.0, 30.0, 60.0])
def test_slab_conditions_hold(baseline_profile, theta):
    geom = make_geometry(theta)
    plan = plan_slabs(geom, baseline_profile)
    cap = min(0.1, 0.1 * scintillation_index(rytov_variance(geom, baseline_profile)))
    for slab in plan.slabs:
        local = scintillation_index(
            rytov_variance(geom, baseline_profile, slab.h_lo, slab.h_hi)
        )
        assert local < 0.1
        assert local < cap or not slab.has_screen
    # contiguous, non-overlapping, and covering the whole slant path
    assert plan_path_length(plan) == pytest.approx(geom.path_length, rel=1e-9)
    bounds = plan_boundaries(plan)
    assert all(b2 > b1 for b1, b2 in zip(bounds[:-1], bounds[1:]))


def test_slab_count_at_sixty_degrees(baseline_profile):
    # Each slab carries less than 10% of the total scintillation, so at
    # least ten turbulent slabs are forced by additivity of the Rytov
    # variance. Count and coarse boundaries are regression-pinned.
    geom = make_geometry(60.0)
    plan = plan_slabs(geom, baseline_profile)
    turbulent = [s for s in plan.slabs if s.has_screen]
    assert len(turbulent) >= 10
    assert len(turbulent) == 12  # snapshot
    assert plan.slabs[-1].has_screen is False
    assert plan_boundaries(plan)[-2] == pytest.approx(16037.4, abs=2.0)  # snapshot
    assert plan_boundaries(plan)[-1] == pytest.approx(500e3)


def test_slab_rytov_additivity(baseline_profile):
    geom = make_geometry(30.0)
    plan = plan_slabs(geom, baseline_profile)
    total = sum(
        rytov_variance(geom, baseline_profile, s.h_lo, s.h_hi) for s in plan.slabs
    )
    assert total == pytest.approx(rytov_variance(geom, baseline_profile), rel=1e-6)


def test_slab_cap_exceeded_is_config_error(baseline_profile):
    violent = AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01, cn2_scale=1e4
    )
    geom = make_geometry(60.0)
    with pytest.raises(UsageError):
        plan_slabs(geom, violent)


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
    (screen,) = generate_screen(
        (vac,), 64, 0.05, ScreenStreams(1, 0).generator(0), baseline_profile
    )
    assert np.all(screen.grid == 0.0)


def test_screens_are_deterministic(baseline_profile):
    slab = Slab(0.0, 100.0, 100.0, 0.08)
    a = generate_screen((slab,), 128, 0.05, ScreenStreams(42, 7).generator(3), baseline_profile)[0]
    b = generate_screen((slab,), 128, 0.05, ScreenStreams(42, 7).generator(3), baseline_profile)[0]
    assert np.array_equal(a.grid, b.grid)


def test_distinct_streams_give_distinct_screens(baseline_profile):
    slab = Slab(0.0, 100.0, 100.0, 0.08)
    a = generate_screen((slab,), 64, 0.05, ScreenStreams(42, 7).generator(3), baseline_profile)[0]
    b = generate_screen((slab,), 64, 0.05, ScreenStreams(42, 8).generator(3), baseline_profile)[0]
    assert not np.array_equal(a.grid, b.grid)


def test_grid_size_must_be_power_of_two(baseline_profile):
    slab = Slab(0.0, 100.0, 100.0, 0.08)
    with pytest.raises(UsageError):
        generate_screen((slab,), 100, 0.05, ScreenStreams(1, 0).generator(0), baseline_profile)


def test_under_resolved_outer_scale_warns():
    profile = kolmogorov_like_profile()
    slab = Slab(0.0, 100.0, 100.0, 0.1)
    with pytest.warns(duallink.screens.ScreenResolutionWarning):
        generate_screen((slab,), 64, 0.01, ScreenStreams(1, 0).generator(0), profile)


def test_ensemble_pixel_means_near_zero():
    profile = kolmogorov_like_profile()
    slab = Slab(0.0, 100.0, 100.0, 0.1)
    screens = make_screens(slab, 64, 0.01, profile, 200, seed=5)
    stack = np.stack([s.grid for s in screens])
    mean = stack.mean(axis=0)
    sigma = stack.std(axis=0, ddof=1) / math.sqrt(len(screens))
    assert np.all(np.abs(mean) < 5.0 * sigma)


def test_screen_variance_scales_with_integrated_turbulence():
    # Doubling integrated Cn2 in a slab divides r0 by 2^(3/5) and must
    # double the pixel variance (r0^(-5/3) scaling).
    profile = kolmogorov_like_profile()
    base = Slab(0.0, 100.0, 100.0, 0.1)
    doubled = Slab(0.0, 100.0, 100.0, 0.1 * 2 ** (-3.0 / 5.0))
    base_screens = make_screens(base, 128, 0.01, profile, 200, seed=5)
    doubled_screens = make_screens(doubled, 128, 0.01, profile, 200, seed=6)
    v1 = np.mean([np.var(s.grid) for s in base_screens])
    v2 = np.mean([np.var(s.grid) for s in doubled_screens])
    assert v2 / v1 == pytest.approx(2.0, rel=0.05)


def reference_generate_screen(slabs, n, spacing, rng, profile):
    """Complex-phasor synthesis: one ifft2 whose real and imaginary parts
    serve the first and second slab, plus, per slab and subharmonic level,
    Re(P^T A P) with P the 3 x N axis phasors exp(i k theta x), k = -1, 0, 1."""
    l_out, l_in = profile.outer_scale, profile.inner_scale
    factor = _fft_amplitude_factor(n, spacing, l_out, l_in)
    amplitude = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    transform = np.fft.ifft2(amplitude * factor) * (n * n)

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
    got = generate_screen((slab,), n, spacing, rng, baseline_profile)[0].grid
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
    got = generate_screen(slabs, n, spacing, rng, baseline_profile)
    assert len(got) == 2
    for screen, reference in zip(got, expected):
        rms = float(np.sqrt(np.mean(reference**2)))
        assert np.max(np.abs(screen.grid - reference)) <= SCREEN_MATCH_TOLERANCE * rms
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
    got = generate_screen(slabs, n, spacing, rng, baseline_profile)
    assert len(got) == count
    for screen, reference in zip(got, expected):
        assert np.array_equal(screen.grid, reference)
    np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)


@pytest.mark.parametrize("n", [512, 1024])
def test_tiled_amplitude_factor_equals_full_grid(n):
    spacing, l_out, l_in = 0.9 / n, 5.0, 0.01
    expected = full_grid_fft_amplitude_factor(n, spacing, l_out, l_in)
    assert np.array_equal(_fft_amplitude_factor(n, spacing, l_out, l_in), expected)


def test_pair_first_screen_is_the_one_slab_screen(baseline_profile):
    slabs = (Slab(0.0, 100.0, 100.0, 0.08), Slab(100.0, 400.0, 300.0, 0.2))
    streams = ScreenStreams(8, 2)
    (alone,) = generate_screen(slabs[:1], 128, 0.05, streams.generator(4), baseline_profile)
    first, _ = generate_screen(slabs, 128, 0.05, streams.generator(4), baseline_profile)
    assert np.array_equal(alone.grid, first.grid)


def test_pair_with_vacuum_slab_gives_zero_screen(baseline_profile):
    slab = Slab(0.0, 100.0, 100.0, 0.08)
    vac = Slab(16e3, 500e3, 484e3, math.inf)
    turbulent, flat = generate_screen(
        (slab, vac), 64, 0.05, ScreenStreams(1, 0).generator(0), baseline_profile
    )
    assert np.all(flat.grid == 0.0)
    assert np.std(turbulent.grid) > 0.0


def test_screen_call_takes_one_or_two_slabs(baseline_profile):
    slab = Slab(0.0, 100.0, 100.0, 0.08)
    for slabs in ((), (slab,) * 3):
        with pytest.raises(UsageError):
            generate_screen(slabs, 64, 0.05, ScreenStreams(1, 0).generator(0), baseline_profile)


def test_screen_halves_are_uncorrelated(baseline_profile):
    # Over many pairs, the mean pixel correlation of the two halves, and of
    # their 0.32 m increments along both axes, sits within 4 standard errors
    # of zero.  Per-pair correlations scatter widely because each screen is
    # dominated by a few large-scale modes, hence the ensemble average.
    slab = Slab(0.0, 100.0, 100.0, 0.1)
    shift = 16  # 0.32 m at 0.02 m spacing
    values, increments = [], []
    for i in range(128):
        a, b = generate_screen(
            (slab, slab), 256, 0.02, ScreenStreams(77, i).generator(0), baseline_profile
        )
        values.append(np.corrcoef(a.grid.ravel(), b.grid.ravel())[0, 1])
        da = np.concatenate(
            [(a.grid[:, shift:] - a.grid[:, :-shift]).ravel(),
             (a.grid[shift:] - a.grid[:-shift]).ravel()]
        )
        db = np.concatenate(
            [(b.grid[:, shift:] - b.grid[:, :-shift]).ravel(),
             (b.grid[shift:] - b.grid[:-shift]).ravel()]
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
    zeros = [PhaseScreen(np.zeros((32, 32)), 0.1) for _ in range(50)]
    values = screen_structure_function(zeros, [0.1, 0.5, 1.0])
    assert values == [0.0, 0.0, 0.0]


def test_structure_function_requires_enough_screens(baseline_profile):
    zeros = [PhaseScreen(np.zeros((32, 32)), 0.1) for _ in range(10)]
    with pytest.raises(UsageError):
        screen_structure_function(zeros, [0.1])


def test_structure_function_rejects_off_grid_separation():
    zeros = [PhaseScreen(np.zeros((32, 32)), 0.1) for _ in range(50)]
    with pytest.raises(UsageError):
        screen_structure_function(zeros, [0.15])
    with pytest.raises(UsageError):
        screen_structure_function(zeros, [3.3])


def test_structure_function_nondecreasing():
    profile = kolmogorov_like_profile()
    slab = Slab(0.0, 100.0, 100.0, 0.1)
    screens = make_screens(slab, 128, 0.01, profile, 60, seed=9)
    rs = [0.02, 0.04, 0.08, 0.16, 0.32]
    d = screen_structure_function(screens, rs)
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
    measured = screen_structure_function(screens, rs)
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
    measured = screen_structure_function(screens, rs)
    for r, d in zip(rs, measured):
        assert d == pytest.approx(6.88 * (r / r0) ** (5.0 / 3.0), rel=0.10)
