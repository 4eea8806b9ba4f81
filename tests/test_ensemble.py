"""Ensemble orchestration, fading moments, persistence, and step series."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duallink import optics, screens
from duallink.atmosphere import AtmosphereProfile
from duallink.ensemble import (
    _FORMAT_VERSION,
    ChannelEnsemble,
    FadingStats,
    coherence_step_series,
    fading_stats,
    load_ensemble,
    loss_histogram,
    run_ensemble,
    run_ensembles,
    save_ensemble,
)
from duallink.errors import DataIntegrityError, UsageError
from duallink.optics import (
    aperture_transmissivity,
    choose_receiver_window,
    gaussian_source,
    propagate_vacuum,
    vacuum_beam_radius,
)

from conftest import make_geometry


def dead_profile() -> AtmosphereProfile:
    return AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01, cn2_scale=0.0
    )


def synthetic_ensemble(etas, coherence_time=2.29e-3) -> ChannelEnsemble:
    return ChannelEnsemble(
        etas=tuple(etas),
        geometry=make_geometry(),
        profile=dead_profile(),
        grid_size=256,
        master_seed=0,
        coherence_time=coherence_time,
    )


# ---------------------------------------------------------------------------
# orchestration


def test_zero_turbulence_single_realization_matches_diffraction():
    geom = make_geometry()
    ens = run_ensemble(geom, dead_profile(), 1, master_seed=5, grid_size=256)
    assert len(ens) == 1
    direct = propagate_vacuum(
        gaussian_source(geom, 256),
        geom.path_length,
        target_spacing=choose_receiver_window(geom, (0.5,)) / 256,
    )
    assert ens.etas[0] == pytest.approx(aperture_transmissivity(direct, 0.5), abs=1e-7)
    spread = vacuum_beam_radius(geom, geom.path_length)
    analytic = 1.0 - math.exp(-2.0 * 0.5**2 / spread**2)
    assert ens.etas[0] == pytest.approx(analytic, rel=0.02)
    assert math.isinf(ens.coherence_time)


def test_thread_count_does_not_change_results(baseline_profile):
    geom = make_geometry(30.0)
    inline = run_ensemble(geom, baseline_profile, 4, master_seed=9, grid_size=128)
    pooled = run_ensemble(
        geom, baseline_profile, 4, master_seed=9, grid_size=128, threads=3
    )
    assert inline.etas == pooled.etas
    assert inline.coherence_time == pooled.coherence_time


def test_multi_radius_run_shares_fields(baseline_profile):
    geom = make_geometry()
    small, large = run_ensembles(
        geom, baseline_profile, 3, master_seed=2, aperture_radii=(0.3, 0.5), grid_size=128
    )
    assert small.geometry.aperture_radius == 0.3
    assert large.geometry.aperture_radius == 0.5
    # a bigger telescope on the same fields always collects more
    assert all(a < b for a, b in zip(small.etas, large.etas))
    single = run_ensemble(geom, baseline_profile, 3, master_seed=2, grid_size=128)
    assert single.etas == large.etas


@pytest.mark.parametrize(
    "module, name",
    [
        pytest.param(module, name, id=name)
        for module, name in (
            (optics, "_angular_spectrum_kernel"),
            (optics, "_fresnel_factors"),
            (optics, "_apodization_mask"),
            (optics, "_aperture_weights"),
            (screens, "_fft_amplitude_factor"),
            (screens, "_subharmonic_factors"),
        )
    ],
)
def test_concurrent_workers_build_each_kernel_once(baseline_profile, module, name):
    # more workers than cores, and frequent thread switches, to make
    # simultaneous misses likely
    cache = getattr(module, name)
    geom = make_geometry(30.0)
    misses = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in (1, 2, 4):
            cache.cache_clear()
            run_ensembles(
                geom, baseline_profile, 4, 9, (0.5,), grid_size=256, threads=threads
            )
            misses[threads] = cache.cache_info().misses
    finally:
        sys.setswitchinterval(interval)
    assert misses[2] == misses[1]
    assert misses[4] == misses[1]


def test_kernel_cache_keeps_every_hop_between_realizations(baseline_profile):
    # zenith 75 plans 19 screens: each realization walks 19 fixed-grid hops
    geom = make_geometry(75.0)
    plan = screens.plan_slabs(geom, baseline_profile)
    cache = optics._angular_spectrum_kernel
    cache.cache_clear()
    run_ensemble(geom, baseline_profile, 1, 3, grid_size=256)
    first = cache.cache_info().misses
    assert first == sum(slab.has_screen for slab in plan.slabs)
    run_ensemble(geom, baseline_profile, 1, 4, grid_size=256)
    assert cache.cache_info().misses == first


def test_ensemble_size_must_be_positive(baseline_profile):
    with pytest.raises(UsageError):
        run_ensemble(make_geometry(), baseline_profile, 0, master_seed=1)


def test_aperture_must_span_receiver_cells(baseline_profile):
    geom = make_geometry(aperture_radius=0.05)
    with pytest.raises(UsageError):
        run_ensemble(geom, baseline_profile, 1, master_seed=1, grid_size=128)


# ---------------------------------------------------------------------------
# fading statistics


def test_constant_ensemble_moments():
    stats = fading_stats(synthetic_ensemble([0.25] * 8))
    assert stats.mean_eta == 0.25
    assert stats.eta_f == 0.25
    assert stats.var_sqrt == 0.0
    assert stats.mean_loss_db == pytest.approx(-10.0 * math.log10(0.25), rel=1e-12)
    assert stats.std_loss_db == 0.0


def test_two_point_ensemble_moments():
    stats = fading_stats([0.0, 1.0, 0.0, 1.0])
    assert stats.mean_eta == 0.5
    assert stats.eta_f == 0.25
    assert stats.var_sqrt == 0.25


def test_ensemble_statistics_read_its_validated_array():
    # the etas are converted and checked once, on construction; every
    # statistic of the ensemble equals its value over the plain sequence
    etas = [0.31, 0.52, 0.77, 0.4, 0.66]
    ens = synthetic_ensemble(etas)
    assert ens.eta_array.tolist() == etas
    assert not ens.eta_array.flags.writeable
    assert fading_stats(ens) == fading_stats(etas)
    assert loss_histogram(ens, 0.5) == loss_histogram(etas, 0.5)
    with pytest.raises(DataIntegrityError):
        synthetic_ensemble([0.5, 1.2])


def test_fading_stats_rejects_out_of_range():
    with pytest.raises(DataIntegrityError):
        fading_stats([0.5, 1.2])
    with pytest.raises(DataIntegrityError):
        fading_stats([-0.1])
    with pytest.raises(UsageError):
        fading_stats([])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=200
    )
)
def test_jensen_ordering_on_arbitrary_ensembles(etas):
    stats = fading_stats(etas)
    assert stats.eta_f <= stats.mean_eta + 1e-12
    assert stats.var_sqrt >= 0.0
    assert stats.eta_f + stats.var_sqrt == pytest.approx(stats.mean_eta, abs=1e-15)


# ---------------------------------------------------------------------------
# histogram


def test_constant_ensemble_occupies_one_bin():
    rows = loss_histogram(synthetic_ensemble([0.25] * 10), bin_width_db=0.5)
    occupied = [(c, d) for c, d in rows if d > 0]
    assert len(occupied) == 1
    assert occupied[0][1] == pytest.approx(1.0 / 0.5)


def test_histogram_normalizes(baseline_profile):
    rng = np.random.default_rng(8)
    etas = rng.uniform(0.05, 0.95, size=500)
    rows = loss_histogram(synthetic_ensemble(etas), bin_width_db=0.25)
    total = sum(d for _, d in rows) * 0.25
    assert total == pytest.approx(1.0, abs=1e-9)
    assert all(d >= 0.0 for _, d in rows)


def test_histogram_rejects_zero_eta():
    with pytest.raises(UsageError):
        loss_histogram(synthetic_ensemble([0.0, 0.5]), bin_width_db=0.5)
    with pytest.raises(UsageError):
        loss_histogram(synthetic_ensemble([0.5]), bin_width_db=0.0)


def test_aperture_averaging_tightens_loss_spread(baseline_profile):
    # fixed zenith angle, growing telescope: fading spread must not grow
    geom = make_geometry(60.0)
    ensembles = run_ensembles(
        geom,
        baseline_profile,
        24,
        master_seed=31,
        aperture_radii=(0.15, 0.30, 0.50),
        grid_size=256,
    )
    spreads = [fading_stats(e).std_loss_db for e in ensembles]
    assert spreads[0] >= spreads[1] >= spreads[2]


# ---------------------------------------------------------------------------
# persistence


def test_round_trip_preserves_everything(tmp_path, baseline_profile):
    geom = make_geometry(30.0)
    ens = run_ensemble(geom, baseline_profile, 4, master_seed=77, grid_size=128)
    path = tmp_path / "channel.ens"
    save_ensemble(ens, path)
    loaded = load_ensemble(path)
    assert loaded.etas == ens.etas
    assert loaded.geometry == ens.geometry
    assert loaded.profile == ens.profile
    assert loaded.grid_size == ens.grid_size
    assert loaded.master_seed == ens.master_seed
    assert loaded.coherence_time == ens.coherence_time


def test_save_is_byte_stable(tmp_path):
    ens = synthetic_ensemble([0.1, 0.2, 0.3])
    a, b = tmp_path / "a.ens", tmp_path / "b.ens"
    save_ensemble(ens, a)
    save_ensemble(ens, b)
    assert a.read_bytes() == b.read_bytes()


def test_truncated_file_refused(tmp_path):
    ens = synthetic_ensemble([0.1, 0.2, 0.3, 0.4])
    path = tmp_path / "channel.ens"
    save_ensemble(ens, path)
    text = path.read_text()
    path.write_text(text[: len(text) - 10])
    with pytest.raises(DataIntegrityError):
        load_ensemble(path)


def test_tampered_value_refused(tmp_path):
    ens = synthetic_ensemble([0.1, 0.2, 0.3, 0.4])
    path = tmp_path / "channel.ens"
    save_ensemble(ens, path)
    path.write_text(path.read_text().replace("0.2", "0.21", 1))
    with pytest.raises(DataIntegrityError):
        load_ensemble(path)


def test_version_mismatch_refused(tmp_path):
    ens = synthetic_ensemble([0.5])
    path = tmp_path / "channel.ens"
    save_ensemble(ens, path)
    header = f"duallink-ensemble {_FORMAT_VERSION}\n"
    text = path.read_text()
    assert text.startswith(header)
    path.write_text(text.replace(header, "duallink-ensemble 9\n", 1))
    with pytest.raises(DataIntegrityError):
        load_ensemble(path)


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_format_one_file_refused(tmp_path, version):
    # format 1 drew one spectral FFT per screen, format 2 integrated the
    # altitude profile by adaptive quadrature, format 3 imprinted with
    # float64 cos and sin, format 4 hopped with the exact N x N angular
    # spectrum kernel, and format 5 drew Philox normals; their etas differ
    ens = synthetic_ensemble([0.5])
    path = tmp_path / "channel.ens"
    save_ensemble(ens, path)
    text = path.read_text()
    path.write_text(f"duallink-ensemble {version}\n" + text.partition("\n")[2])
    with pytest.raises(DataIntegrityError, match=f"format version {version}"):
        load_ensemble(path)


def test_alien_file_refused(tmp_path):
    path = tmp_path / "not-an-ensemble.txt"
    path.write_text("hello\nworld\n")
    with pytest.raises(DataIntegrityError):
        load_ensemble(path)


# ---------------------------------------------------------------------------
# coherence step series


def test_one_step_per_coherence_time():
    ens = synthetic_ensemble([0.4, 0.5, 0.6], coherence_time=2.0e-3)
    steps = coherence_step_series(ens)
    assert steps == [(0.0, 0.4), (2.0e-3, 0.5), (4.0e-3, 0.6)]


def test_step_series_bounds():
    frozen = synthetic_ensemble([0.4], coherence_time=math.inf)
    with pytest.raises(UsageError):
        coherence_step_series(frozen)
