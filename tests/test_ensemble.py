"""Ensemble orchestration, fading moments, persistence, and step series."""

import dataclasses
import functools
import hashlib
import math
import re
import sys
import threading
import warnings

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
from duallink.errors import DataIntegrityError, NumericalError, UsageError
from duallink.optics import (
    aperture_transmissivity,
    choose_receiver_window,
    circular_aperture,
    vacuum_beam_radius,
)

from conftest import make_geometry
from oracles import gaussian_source, two_step_hop


def dead_profile() -> AtmosphereProfile:
    return AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01, cn2_scale=0.0
    )


def synthetic_ensemble(etas, coherence_time=2.29e-3) -> ChannelEnsemble:
    return ChannelEnsemble(
        etas=etas,
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
    spacing = choose_receiver_window(geom, (0.5,)) / 256
    direct = two_step_hop(gaussian_source(geom, 256), geom.path_length, spacing)
    aperture = circular_aperture(256, spacing, 0.5)
    assert ens.etas[0] == pytest.approx(aperture_transmissivity(direct, aperture), abs=1e-7)
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
    # four threads for four realizations: every member walks alone
    alone = run_ensemble(geom, baseline_profile, 4, master_seed=9, grid_size=128, threads=4)
    assert np.array_equal(inline.etas, pooled.etas)
    assert np.array_equal(inline.etas, alone.etas)
    assert inline.coherence_time == pooled.coherence_time == alone.coherence_time


def one_sign_etas(geom, profile, seed: int, streams, sign: int, grid: int = 128):
    """The 0.5 m etas of one-sign walks of ``streams``, one walk per call."""
    radii = (0.5,)
    plan = screens.plan_slabs(geom, profile, choose_receiver_window(geom, radii) / grid)
    channel = optics.build_channel(geom, profile, plan, grid, radii)
    etas = []
    for stream in streams:
        (field,) = optics.split_step(channel, screens.ScreenStreams(seed, stream), (sign,))
        etas.append(aperture_transmissivity(field, channel.apertures[0]))
    return etas


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_antithetic_layout_at_any_thread_count(baseline_profile, n):
    # etas[:h] are the streams' own walks (format 9's first h, bit for bit)
    # and etas[h + k] the mirror of stream k, at 1 thread (lockstep pairs) up
    # to 8 (every member alone); an odd n leaves the last stream unpaired
    geom = make_geometry(30.0)
    half = (n + 1) // 2
    plus = one_sign_etas(geom, baseline_profile, 22002, range(half), 1)
    minus = one_sign_etas(geom, baseline_profile, 22002, range(n - half), -1)
    for threads in (1, 2, 4, 8):
        ens = run_ensemble(geom, baseline_profile, n, 22002, grid_size=128, threads=threads)
        assert np.array_equal(ens.etas, plus + minus)
    # a mirror is another draw of the channel, not a copy of its walk
    assert all(a != b for a, b in zip(plus, minus))


def test_pooled_walks_fill_every_row_under_frequent_switches(baseline_profile):
    # workers write disjoint rows of one shared table: with more workers than
    # cores and a 10 us switch interval, a lost or misplaced row would differ
    # from the one-thread run, in lockstep pairs (3 threads) or alone (8)
    args = (make_geometry(30.0), baseline_profile, 8, 23041, (0.3, 0.5), 128)
    inline = run_ensembles(*args, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pooled = [run_ensembles(*args, threads=threads) for threads in (3, 8)]
    finally:
        sys.setswitchinterval(interval)
    for run in pooled:
        for ens, reference in zip(run, inline):
            assert np.array_equal(ens.etas, reference.etas)


@pytest.mark.parametrize("threads", [0, -2])
def test_fewer_than_one_thread_is_refused(baseline_profile, threads):
    with pytest.raises(UsageError, match=f"thread count must be at least 1, got {threads}"):
        run_ensemble(make_geometry(), baseline_profile, 2, 23041, grid_size=128, threads=threads)


def test_a_failed_walk_names_its_realizations(baseline_profile, monkeypatch):
    def overflow(*args, **kwargs):
        raise NumericalError("edge")

    monkeypatch.setattr("duallink.ensemble.split_step", overflow)
    geom = make_geometry()
    with pytest.raises(NumericalError, match="^realizations 0 and 2: edge"):
        run_ensemble(geom, baseline_profile, 3, 22003, grid_size=128)
    with pytest.raises(NumericalError, match="^realization 0: edge"):
        run_ensemble(geom, baseline_profile, 2, 22003, grid_size=128, threads=2)


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
    assert np.array_equal(single.etas, large.etas)


@pytest.mark.parametrize(
    "module, name",
    [
        pytest.param(module, name, id=name)
        for module, name in (
            (optics, "_angular_spectrum_kernel"),
            (optics, "gaussian_beam"),
            (optics, "_apodization_mask"),
            (optics, "_aperture_weights"),
            (screens, "_fft_amplitude_factor"),
            (screens, "_subharmonic_factors"),
        )
    ],
)
def test_concurrent_workers_build_each_kernel_once(baseline_profile, monkeypatch, module, name):
    # Every array is built in the calling thread, before the pool starts,
    # and as often at any worker count.  More workers than cores, and
    # frequent thread switches, give a worker every chance to build one.
    original = getattr(module, name)
    build = getattr(original, "__wrapped__", original)
    callers = []

    def counted(*args):
        callers.append(threading.current_thread())
        return build(*args)

    # the hop kernels stay behind a cache: count its misses
    patched = counted if build is original else functools.lru_cache(counted)
    monkeypatch.setattr(module, name, patched)
    geom = make_geometry(30.0)
    builds = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in (1, 2, 4):
            optics.build_channel.cache_clear()
            getattr(patched, "cache_clear", lambda: None)()
            callers.clear()
            run_ensembles(
                geom, baseline_profile, 4, 9, (0.5,), grid_size=256, threads=threads
            )
            builds[threads] = len(callers)
            assert set(callers) == {threading.main_thread()}
    finally:
        sys.setswitchinterval(interval)
        optics.build_channel.cache_clear()
    assert builds[2] == builds[1]
    assert builds[4] == builds[1]


def test_one_config_builds_its_channel_once_at_any_thread_count(baseline_profile):
    optics.build_channel.cache_clear()
    runs = [
        run_ensembles(
            make_geometry(30.0), baseline_profile, 4, 16053, (0.3, 0.5), 128, threads
        )
        for threads in (1, 2, 4)
    ]
    assert optics.build_channel.cache_info().misses == 1
    for run in runs[1:]:
        for ens, first in zip(run, runs[0]):
            assert np.array_equal(ens.etas, first.etas)
            assert (ens.geometry, ens.coherence_time) == (first.geometry, first.coherence_time)


def test_rebuilt_channel_gives_the_memo_hit_etas(baseline_profile):
    args = (make_geometry(60.0), baseline_profile, 3, 16052, (0.5,), 128)
    run_ensembles(*args)
    hits = optics.build_channel.cache_info().hits
    memo = run_ensembles(*args)
    assert optics.build_channel.cache_info().hits == hits + 1
    optics.build_channel.cache_clear()
    rebuilt = run_ensembles(*args)
    assert np.array_equal(rebuilt[0].etas, memo[0].etas)


def arrays_of(value):
    """Every numpy array reachable through dataclass fields and tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for item in dataclasses.fields(value):
            yield from arrays_of(getattr(value, item.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from arrays_of(item)


def test_channel_arrays_are_read_only(baseline_profile):
    geom = make_geometry()
    radii = (0.3, 0.5)
    plan = screens.plan_slabs(
        geom, baseline_profile, optics.choose_receiver_window(geom, radii) / 128
    )
    channel = optics.build_channel(geom, baseline_profile, plan, 128, radii)
    arrays = list(arrays_of(channel))
    # entry field, apodizer, amplitude factor, 3 subharmonic weights,
    # basis, means and one weight block per aperture
    assert len(arrays) == 10
    assert not any(array.flags.writeable for array in arrays)


def test_under_resolved_ensemble_warns_once():
    # the screen factors are built, and their window checked, once per channel
    profile = AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=1e3, inner_scale=0.01
    )
    optics.build_channel.cache_clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_ensemble(make_geometry(), profile, 3, master_seed=16051, grid_size=64)
    assert [w.category for w in caught] == [screens.ScreenResolutionWarning]


def test_kernel_cache_keeps_every_hop_between_realizations(baseline_profile):
    # zenith 60 plans 17 screens at grid 256: each realization walks 17
    # fixed-grid hops, more than the 16 kernels the cache once held
    geom = make_geometry(60.0)
    window = optics.choose_receiver_window(geom, (geom.aperture_radius,))
    plan = screens.plan_slabs(geom, baseline_profile, window / 256)
    assert sum(slab.has_screen for slab in plan.slabs) > 16
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
    stats = fading_stats(synthetic_ensemble([0.25] * 8).etas)
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
    # statistic of the ensemble's array equals its value over the plain sequence
    etas = [0.31, 0.52, 0.77, 0.4, 0.66]
    ens = synthetic_ensemble(etas)
    assert ens.etas.tolist() == etas
    assert not ens.etas.flags.writeable
    assert fading_stats(ens.etas) == fading_stats(etas)
    assert loss_histogram(ens.etas, 0.5) == loss_histogram(etas, 0.5)
    with pytest.raises(DataIntegrityError):
        synthetic_ensemble([0.5, 1.2])


def test_ensemble_holds_its_own_read_only_float64_copy():
    values = np.random.default_rng(17001).uniform(0.05, 0.95, 7)
    ensembles = [synthetic_ensemble(etas) for etas in (tuple(values), values.tolist(), values)]
    for ens in ensembles:
        assert ens.etas.dtype == np.float64
        assert not ens.etas.flags.writeable
        assert np.array_equal(ens.etas, values)
    # the caller's array stays writable, and writing to it leaves the ensemble alone
    assert values.flags.writeable
    values[0] = 0.5
    assert ensembles[2].etas[0] == ensembles[0].etas[0] != 0.5


def test_ensemble_refuses_etas_that_are_not_one_row():
    for bad in ([], 0.5, [[0.5, 0.6]]):
        with pytest.raises(UsageError):
            synthetic_ensemble(bad)


def test_fading_stats_rejects_out_of_range():
    with pytest.raises(DataIntegrityError):
        fading_stats([0.5, 1.2])
    with pytest.raises(DataIntegrityError):
        fading_stats([-0.1])
    with pytest.raises(UsageError):
        fading_stats([])


@pytest.mark.parametrize(
    "mean_eta, eta_f, var_sqrt",
    [(0.5, 0.5 + 1e-13, 0.0), (1.5, 1.5, 0.0), (math.nan, 0.2, 0.0), (0.5, -0.1, 0.6)],
)
def test_fading_stats_refuses_what_the_covariance_matrix_refuses(mean_eta, eta_f, var_sqrt):
    # 0 <= eta_f <= mean_eta <= 1, as covariance_matrix requires
    with pytest.raises(DataIntegrityError):
        FadingStats(mean_eta, eta_f, var_sqrt, 3.0, 0.0)


def test_fading_stats_refuses_a_var_sqrt_that_is_not_a_nonnegative_number():
    for var_sqrt in (math.nan, -0.1):
        with pytest.raises(DataIntegrityError, match=r"negative Var\(sqrt\(eta\)\)"):
            FadingStats(0.5, 0.4, var_sqrt, 3.0, 0.0)


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
    rows = loss_histogram(synthetic_ensemble([0.25] * 10).etas, bin_width_db=0.5)
    occupied = [(c, d) for c, d in rows if d > 0]
    assert len(occupied) == 1
    assert occupied[0][1] == pytest.approx(1.0 / 0.5)


def test_histogram_normalizes(baseline_profile):
    rng = np.random.default_rng(8)
    etas = rng.uniform(0.05, 0.95, size=500)
    rows = loss_histogram(synthetic_ensemble(etas).etas, bin_width_db=0.25)
    total = sum(d for _, d in rows) * 0.25
    assert total == pytest.approx(1.0, abs=1e-9)
    assert all(d >= 0.0 for _, d in rows)


def test_histogram_rejects_zero_eta():
    with pytest.raises(UsageError):
        loss_histogram([0.0, 0.5], bin_width_db=0.5)
    with pytest.raises(UsageError):
        loss_histogram([0.5], bin_width_db=0.0)


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
    spreads = [fading_stats(e.etas).std_loss_db for e in ensembles]
    assert spreads[0] >= spreads[1] >= spreads[2]


# ---------------------------------------------------------------------------
# persistence


def test_round_trip_preserves_everything(tmp_path, baseline_profile):
    geom = make_geometry(30.0)
    ens = run_ensemble(geom, baseline_profile, 4, master_seed=77, grid_size=128)
    path = tmp_path / "channel.ens"
    save_ensemble(ens, path)
    loaded = load_ensemble(path)
    assert np.array_equal(loaded.etas, ens.etas)
    assert loaded.geometry == ens.geometry
    assert loaded.profile == ens.profile
    assert loaded.grid_size == ens.grid_size
    assert loaded.master_seed == ens.master_seed
    assert loaded.coherence_time == ens.coherence_time


def test_load_then_save_rewrites_a_large_file_byte_for_byte(tmp_path):
    # gamma-distributed loss in dB, the shape of the benchmark's synthetic sweep
    loss_db = np.random.default_rng(17002).gamma(6.0, 4.0 / 6.0, 10_000)
    etas = 10.0 ** (-loss_db / 10.0)
    first, again, floats = tmp_path / "first.ens", tmp_path / "again.ens", tmp_path / "floats.ens"
    save_ensemble(synthetic_ensemble(etas), first)
    save_ensemble(load_ensemble(first), again)
    save_ensemble(synthetic_ensemble(tuple(etas.tolist())), floats)
    assert again.read_bytes() == first.read_bytes()
    assert floats.read_bytes() == first.read_bytes()


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
    path.write_text(text.replace(header, f"duallink-ensemble {_FORMAT_VERSION + 1}\n", 1))
    with pytest.raises(DataIntegrityError):
        load_ensemble(path)


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 9])
def test_format_one_file_refused(tmp_path, version):
    # format 1 drew one spectral FFT per screen, format 2 integrated the
    # altitude profile by adaptive quadrature, format 3 imprinted with
    # float64 cos and sin, format 4 hopped with the exact N x N angular
    # spectrum kernel, format 5 drew Philox normals, format 6 planned ten
    # or more mid-slab screens, format 7 hopped by one fftn, format 8
    # hopped the sampled source to the first screen and format 9 drew every
    # eta independently; their etas differ
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


def with_data(text: str, data: str) -> str:
    """The saved file with its data section replaced and its checksum made to match."""
    head = text.partition("\ndata:\n")[0]
    checksum = hashlib.sha256(data.encode("ascii")).hexdigest()
    return re.sub("checksum = [0-9a-f]+", f"checksum = {checksum}", head) + "\ndata:\n" + data


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (lambda t: t.replace("duallink-ensemble", "duallink-ensembles", 1), "not a duallink"),
        (lambda t: t.replace("grid_size = 256", "grid_size 256"), "malformed header line"),
        (
            lambda t: t.replace("grid_size = 256", "grid_size = 256\ngrid_size = 256"),
            "malformed header line 'grid_size = 256'",
        ),
        (lambda t: t.replace("master_seed = 0\n", ""), "missing header field 'master_seed'"),
        (lambda t: t.replace("grid_size = 256", "grid_size = 256.5"), "unparsable header value"),
        (
            lambda t: t.replace("count = 4", "count = 4\ncolour = blue"),
            r"unknown header fields \['colour'\]",
        ),
        (lambda t: t.replace("count = 4", "count = 3"), "promises 3 realizations, found 4"),
        (lambda t: with_data(t, "0.1\n0.2\nhalf\n0.4\n"), "unparsable transmissivity"),
    ],
)
def test_corrupt_header_or_data_refused(tmp_path, corrupt, match):
    path = tmp_path / "channel.ens"
    save_ensemble(synthetic_ensemble([0.1, 0.2, 0.3, 0.4]), path)
    text = path.read_text()
    path.write_text(corrupt(text))
    assert path.read_text() != text
    with pytest.raises(DataIntegrityError, match=match):
        load_ensemble(path)


# ---------------------------------------------------------------------------
# coherence step series


def test_one_step_per_coherence_time():
    ens = synthetic_ensemble([0.4, 0.5, 0.6], coherence_time=2.0e-3)
    steps = coherence_step_series(ens)
    assert steps == [(0.0, 0.4), (2.0e-3, 0.5), (4.0e-3, 0.6)]
    # Python floats, so a CSV row's %r prints 0.4 and not np.float64(0.4)
    assert all(type(eta) is float for _, eta in steps)


def test_step_series_bounds():
    frozen = synthetic_ensemble([0.4], coherence_time=math.inf)
    with pytest.raises(UsageError):
        coherence_step_series(frozen)
