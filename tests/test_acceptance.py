"""Acceptance suite: one test per shipping criterion, slowest items desk-scale.

Every test prints exactly one PASS/FAIL line (run pytest with -s or -rA to
see them); the assertion carries the same detail so failures are
self-describing.  The two 500-realization ensembles are session fixtures so
the trend and positivity checks share one propagation run per zenith angle.
"""

import functools
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import norm

from conftest import make_geometry
from oracles import (
    eve_bob_correlation,
    scintillation_index,
    screen_structure_function,
    weak_scintillation_index,
)
from duallink.atmosphere import (
    AtmosphereProfile,
    greenwood_and_coherence,
    rms_wind,
)
from duallink.cli import main as cli_main
from duallink.ensemble import (
    ChannelEnsemble,
    fading_stats,
    run_ensembles,
)
from duallink.keyrate import (
    DetectorModel,
    FiniteSizeParams,
    asymptotic_rate,
    finite_size_rate,
    ideal_rate,
    max_tolerable_loss,
    mutual_information,
    plob_bound,
)
from duallink.optics import (
    aperture_transmissivity,
    build_channel,
    choose_receiver_window,
    split_step,
    vacuum_beam_radius,
)
from duallink.protocol import (
    ClassicalLayer,
    SqueezingParams,
    covariance_matrix,
    mc_quadrature_sim,
)
from duallink.screens import (
    ScreenResolutionWarning,
    ScreenStreams,
    Slab,
    generate_screen,
    plan_slabs,
    screen_spectrum,
)

TABLE_PROFILE = AtmosphereProfile(
    ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01
)
REFERENCE_DETECTOR = DetectorModel(efficiency=0.61, electronic_noise=0.12)

DESK_N = 500
DESK_GRID = 512
DESK_RADII = (0.15, 0.30, 0.50)
DESK_SEED = 2026
# Products are identical at any thread count (criterion 12), so the desk
# ensembles use two workers to halve their wall time on two cores.
DESK_THREADS = 2

_desk_seconds: dict[str, float] = {}


def verdict(index: int, label: str, ok: bool, detail: str) -> None:
    line = f"acceptance {index:02d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def reference_finite_size(block_size: float) -> FiniteSizeParams:
    # Detector-era security budget: 1e-9 total, quarter split, d = 5,
    # half the block spent before hashing.
    return FiniteSizeParams.from_total_epsilon(
        block_size=block_size,
        kept_length=block_size / 2.0,
        recon_efficiency=0.98,
        discretisation=5,
        total_epsilon=1e-9,
    )


@pytest.fixture(scope="session")
def desk_ensembles(baseline_profile):
    out = {}
    start = time.perf_counter()
    for zenith in (0.0, 60.0):
        out[zenith] = run_ensembles(
            make_geometry(zenith),
            baseline_profile,
            DESK_N,
            DESK_SEED,
            DESK_RADII,
            grid_size=DESK_GRID,
            threads=DESK_THREADS,
        )
    _desk_seconds["both_zeniths"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="session")
def desk_thirty_degrees(baseline_profile):
    (ens,) = run_ensembles(
        make_geometry(30.0),
        baseline_profile,
        DESK_N,
        DESK_SEED,
        (0.50,),
        grid_size=DESK_GRID,
        threads=DESK_THREADS,
    )
    return ens


def test_criterion_01_coherence_time_at_sixty_degrees():
    start = time.perf_counter()
    _, tau0 = greenwood_and_coherence(make_geometry(60.0), TABLE_PROFILE)
    elapsed = time.perf_counter() - start
    ok = abs(tau0 - 2.29e-3) <= 0.10 * 2.29e-3 and elapsed < 1.0
    verdict(
        1,
        "coherence time at 60 deg zenith",
        ok,
        f"tau0 = {tau0 * 1e3:.4f} ms vs 2.29 ms +-10%, {elapsed:.3f} s",
    )


def test_criterion_02_rms_wind_speed():
    v = rms_wind(3.0)
    ok = abs(v - 21.0) <= 0.5
    verdict(2, "rms wind from 3 m/s ground wind", ok, f"v_rms = {v:.3f} m/s vs 21 +- 0.5")


def test_criterion_03_vacuum_diffraction_oracle():
    quiet = AtmosphereProfile(
        ground_cn2=9.6e-14,
        ground_wind=3.0,
        outer_scale=5.0,
        inner_scale=0.01,
        cn2_scale=0.0,
    )
    geom = make_geometry(0.0)
    w = vacuum_beam_radius(geom, geom.path_length)
    start = time.perf_counter()
    worst: dict[int, float] = {}
    for grid in (1024, 512):
        ensembles = run_ensembles(geom, quiet, 1, 1, DESK_RADII, grid_size=grid)
        errors = []
        for radius, ens in zip(DESK_RADII, ensembles):
            expected = 1.0 - math.exp(-2.0 * radius**2 / w**2)
            errors.append(abs(ens.etas[0] - expected) / expected)
        worst[grid] = max(errors)
    elapsed = time.perf_counter() - start
    ok = worst[1024] <= 0.01 and worst[512] <= 0.02 and elapsed < 120.0
    verdict(
        3,
        "zero-turbulence aperture power vs closed form",
        ok,
        f"worst rel err {worst[1024]:.4f} at N=1024 (<=1%), "
        f"{worst[512]:.4f} at N=512 (<=2%), {elapsed:.1f} s",
    )


STRUCTURE_SEEDS = range(1, 7)
STRUCTURE_SEPARATIONS = (0.10, 0.16, 0.32, 0.64, 1.28)
STRUCTURE_R0 = 0.1


@functools.lru_cache(maxsize=1)
def structure_function_errors() -> np.ndarray:
    """Relative error of the measured structure function against
    6.88 (r/r0)^(5/3), by (seed, half, separation): 256 screen pairs per
    seed, the real half of each spectral draw and its imaginary half."""
    # Outer scale pushed far beyond the window so the inertial-range power
    # law is the valid reference over every measurable separation; the
    # sampled r values span twice the inner scale up to a quarter of the
    # 5.12 m window.
    profile = AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=1e6, inner_scale=0.04
    )
    slab = Slab(0.0, 100.0, 100.0, STRUCTURE_R0)
    reference = np.array([6.88 * (r / STRUCTURE_R0) ** (5.0 / 3.0) for r in STRUCTURE_SEPARATIONS])
    errors = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ScreenResolutionWarning)
        spectrum = screen_spectrum(256, 0.02, profile)
        for seed in STRUCTURE_SEEDS:
            halves = ([], [])
            for i in range(256):
                pair = generate_screen((slab, slab), spectrum, ScreenStreams(seed, i).generator(0))
                for screens, screen in zip(halves, pair):
                    screens.append(screen.copy())
            measured = [
                screen_structure_function(screens, 0.02, STRUCTURE_SEPARATIONS)
                for screens in halves
            ]
            errors.append(np.array(measured) / reference - 1.0)
    return np.array(errors)


def structure_function_gate(errors: np.ndarray) -> tuple[bool, float]:
    """Per separation, the mean relative error over independent runs plus
    three standard errors must stay within 10%; returns the verdict and the
    largest |mean| + 3 SE."""
    mean = errors.mean(axis=0)
    se = errors.std(axis=0, ddof=1) / math.sqrt(errors.shape[0])
    worst = float(np.max(np.abs(mean) + 3.0 * se))
    return worst <= 0.10, worst


def test_criterion_04_phase_screen_structure_function():
    # Seeds 1-6, both halves of every draw: twelve independent runs of 256
    # screens.  The bound (|mean| + 3 SE <= 10% at every separation) was
    # fixed before the first run.
    start = time.perf_counter()
    errors = structure_function_errors().reshape(-1, len(STRUCTURE_SEPARATIONS))
    ok, worst = structure_function_gate(errors)
    elapsed = time.perf_counter() - start
    verdict(
        4,
        "structure function vs 6.88 (r/r0)^(5/3)",
        ok and elapsed < 300.0,
        f"{errors.shape[0]} runs of 256 screens, mean rel err by separation "
        f"{np.round(errors.mean(axis=0), 4).tolist()}, worst |mean| + 3 SE {worst:.4f} "
        f"(<=10%), {elapsed:.1f} s",
    )


def test_imaginary_half_screens_pass_structure_function_oracle():
    # Criterion 04's gate on the screens that ride on the imaginary half
    # of each spectral draw alone: six runs of 256 screens.
    errors = structure_function_errors()[:, 1]
    ok, worst = structure_function_gate(errors)
    verdict(
        4,
        "imaginary-half structure function vs 6.88 (r/r0)^(5/3)",
        ok,
        f"{errors.shape[0]} runs of 256 screens, worst |mean| + 3 SE {worst:.4f} (<=10%)",
    )


def test_criterion_05_channel_statistics_trends(desk_ensembles):
    stats = {
        zenith: [fading_stats(ens.etas) for ens in ensembles]
        for zenith, ensembles in desk_ensembles.items()
    }
    zenith_trend = all(
        stats[60.0][i].mean_loss_db > stats[0.0][i].mean_loss_db
        for i in range(len(DESK_RADII))
    )
    aperture_trend = all(
        s[0].mean_loss_db > s[1].mean_loss_db > s[2].mean_loss_db
        for s in stats.values()
    )
    spread_trend = all(
        s[0].std_loss_db >= s[1].std_loss_db >= s[2].std_loss_db
        for s in stats.values()
    )
    elapsed = _desk_seconds["both_zeniths"]
    ok = zenith_trend and aperture_trend and spread_trend and elapsed < 3600.0
    means = {
        zenith: [round(s.mean_loss_db, 2) for s in row] for zenith, row in stats.items()
    }
    verdict(
        5,
        "desk ensemble loss trends",
        ok,
        f"mean dB by (zenith, aperture) {means}, zenith up {zenith_trend}, "
        f"aperture down {aperture_trend}, spread nonincreasing {spread_trend}, "
        f"{elapsed:.0f} s",
    )


# (zenith deg, grid, master seeds, realizations per seed).  The statistic,
# the reference, the tolerance and the sample sizes were fixed before the
# first run on these seeds.  Statistic: Var(I) / <I>^2 of each pixel of a
# 5 x 5 lattice, 4 cells apart and centred on the axis (nearly independent
# samples of the on-axis value), averaged over the lattice; its bootstrap
# standard error resamples whole realizations, pooled over the seeds, and
# is about 1% of the value, so the gate resolves a bias of 3-4%.
# Reference: the scintillation index of the truncated weak-fluctuation
# sigma_I^2 of the collimated Gaussian beam that the satellite sends.  Pass
# when |sim - ref| <= 3 SE.
SCINTILLATION_CASES = [
    (0.0, 256, (1531, 1532, 1533, 1534), 250),
    (0.0, 512, (1541, 1542, 1543, 1544), 200),
    (60.0, 512, (1551, 1552, 1553, 1554), 250),
]
SCINTILLATION_LATTICE = np.arange(-8, 9, 4)


def lattice_intensities(geom, profile, grid: int, seeds, count: int):
    """|E|^2 on the receiver lattice, by (seed, realization, pixel), and the plan."""
    radii = (geom.aperture_radius,)
    plan = plan_slabs(geom, profile, choose_receiver_window(geom, radii) / grid)
    channel = build_channel(geom, profile, plan, grid, radii)
    lattice = np.ix_(grid // 2 + SCINTILLATION_LATTICE, grid // 2 + SCINTILLATION_LATTICE)

    def pixels(key: tuple[int, int]) -> np.ndarray:
        (field,) = split_step(channel, ScreenStreams(*key))
        return np.abs(field.grid[lattice].ravel()) ** 2

    keys = [(seed, index) for seed in seeds for index in range(count)]
    with ThreadPoolExecutor(max_workers=DESK_THREADS) as pool:
        rows = np.array(list(pool.map(pixels, keys)))
    return rows.reshape(len(seeds), count, -1), plan


def lattice_scintillation(intensities: np.ndarray) -> float:
    """Var(I) / <I>^2 per pixel over the realizations (rows), averaged over pixels."""
    return float(np.mean(intensities.var(axis=0) / intensities.mean(axis=0) ** 2))


def scintillation_index_with_se(intensities: np.ndarray) -> tuple[float, float]:
    """The lattice sigma_I^2 and its bootstrap standard error (1000 resamples)."""
    rng = np.random.default_rng(1514)
    n = len(intensities)
    boot = [lattice_scintillation(intensities[rng.integers(0, n, n)]) for _ in range(1000)]
    return lattice_scintillation(intensities), float(np.std(boot, ddof=1))


@pytest.mark.parametrize("zenith, grid, seeds, count", SCINTILLATION_CASES)
def test_pixel_scintillation_matches_weak_theory(baseline_profile, zenith, grid, seeds, count):
    # Pixel sigma_I^2 near the axis against the scintillation of the
    # spectrum that the receiver grid can hold.
    geom = make_geometry(zenith)
    start = time.perf_counter()
    by_seed, plan = lattice_intensities(geom, baseline_profile, grid, seeds, count)
    simulated, se = scintillation_index_with_se(by_seed.reshape(-1, by_seed.shape[-1]))
    spacing = choose_receiver_window(geom, (geom.aperture_radius,)) / grid
    weak = weak_scintillation_index(geom, baseline_profile, spacing, beam=True)
    reference = scintillation_index(weak)
    plane = scintillation_index(weak_scintillation_index(geom, baseline_profile, spacing))
    elapsed = time.perf_counter() - start
    screens = sum(slab.has_screen for slab in plan.slabs)
    verdict(
        13,
        f"pixel sigma_I^2 vs truncated-spectrum theory, zenith {zenith:g}, grid {grid}",
        abs(simulated - reference) <= 3.0 * se,
        f"{simulated:.4f} +- {se:.4f} vs {reference:.4f} (weak {weak:.4f}; plane wave "
        f"{plane:.4f}) ({(simulated - reference) / se:+.2f} SE, <= 3), by seed "
        f"{[round(lattice_scintillation(rows), 4) for rows in by_seed]}, {screens} screens, "
        f"{len(seeds)} x {count} realizations, {elapsed:.1f} s",
    )


# Antithetic pairs (ensemble format 10): (zenith deg, grid, antithetic seed,
# plain seed, pairs), aperture 0.5 m.  The statistics, seeds, sample sizes and
# tolerances were fixed before the first run on these seeds.  The antithetic
# ensemble is run_ensembles of 2P etas, pair k being etas k and P + k; the
# plain ensemble is P one-sign walks (format 9's etas) of another seed.  Each
# side estimates <eta> as the mean of its units (pair means, or plain etas)
# and eta_f as the squared mean of their sqrt(eta) (pair means of sqrt(eta)),
# with the standard error of the mean (2 <sqrt(eta)> SE for eta_f).  Pass when
# both agree within 3 combined SE, and when the variance of mean eta over 2P
# plain etas, Var(eta) / 2P, is at least 10x that over P pairs, Var(pair
# mean) / P.
ANTITHETIC_CASES = [
    (0.0, 256, 22011, 22012, 100),
    (60.0, 512, 22013, 22014, 40),
]


def moments_with_se(etas: np.ndarray, roots: np.ndarray):
    """(<eta>, SE) and (eta_f, SE) from independent units' etas and sqrt(etas)."""
    scale = 1.0 / math.sqrt(len(etas))
    root = roots.mean()
    return (
        (etas.mean(), etas.std(ddof=1) * scale),
        (root**2, 2.0 * root * roots.std(ddof=1) * scale),
    )


@pytest.mark.parametrize("zenith, grid, seed, plain_seed, pairs", ANTITHETIC_CASES)
def test_antithetic_pairs_match_plain_ensembles_with_less_variance(
    baseline_profile, zenith, grid, seed, plain_seed, pairs
):
    geom = make_geometry(zenith)
    radii = (0.5,)
    start = time.perf_counter()
    (ens,) = run_ensembles(
        geom, baseline_profile, 2 * pairs, seed, radii, grid_size=grid, threads=DESK_THREADS
    )
    plan = plan_slabs(geom, baseline_profile, choose_receiver_window(geom, radii) / grid)
    channel = build_channel(geom, baseline_profile, plan, grid, radii)

    def plain_eta(index: int) -> float:
        (field,) = split_step(channel, ScreenStreams(plain_seed, index))
        return aperture_transmissivity(field, channel.apertures[0])

    with ThreadPoolExecutor(max_workers=DESK_THREADS) as pool:
        plain = np.array(list(pool.map(plain_eta, range(pairs))))
    members = ens.etas.reshape(2, pairs)  # the streams' walks, then their mirrors
    pair_means = members.mean(axis=0)
    antithetic = moments_with_se(pair_means, np.sqrt(members).mean(axis=0))
    reference = moments_with_se(plain, np.sqrt(plain))
    gaps = [
        (a - b) / math.hypot(se_a, se_b)
        for (a, se_a), (b, se_b) in zip(antithetic, reference)
    ]
    reduction = plain.var(ddof=1) / (2.0 * pair_means.var(ddof=1))
    elapsed = time.perf_counter() - start
    (mean_a, se_a), (eta_f_a, se_f_a) = antithetic
    (mean_b, se_b), (eta_f_b, se_f_b) = reference
    verdict(
        14,
        f"antithetic pairs vs plain walks, zenith {zenith:g}, grid {grid}",
        all(abs(gap) <= 3.0 for gap in gaps) and reduction >= 10.0,
        f"<eta> {mean_a:.6f} +- {se_a:.6f} vs {mean_b:.6f} +- {se_b:.6f} ({gaps[0]:+.2f} SE), "
        f"eta_f {eta_f_a:.6f} +- {se_f_a:.6f} vs {eta_f_b:.6f} +- {se_f_b:.6f} "
        f"({gaps[1]:+.2f} SE), <= 3; Var(mean eta) cut {reduction:.0f}x (>= 10), "
        f"{pairs} pairs and {pairs} plain walks, {elapsed:.1f} s",
    )


def test_criterion_06_zero_leakage_algebra():
    rng = np.random.default_rng(606)
    worst_tx = 0.0
    worst_bq = 0.0
    worst_eve = 0.0
    for _ in range(1000):
        vs = rng.uniform(0.05, 0.95)
        va = rng.uniform(1.05, 60.0)
        params = SqueezingParams.zero_leakage(vs, va)
        worst_tx = max(worst_tx, abs(params.transmitted_q_variance - 1.0))
        stats = fading_stats(rng.uniform(0.05, 0.95, 5))
        cm = covariance_matrix(params, stats.mean_eta, stats.eta_f)
        worst_bq = max(worst_bq, abs(cm.b_q - 1.0))
        worst_eve = max(worst_eve, abs(eve_bob_correlation(params, rng.uniform(0.05, 0.95))))
    ok = worst_tx <= 1e-12 and worst_bq <= 1e-12 and worst_eve == 0.0
    verdict(
        6,
        "zero-leakage tap algebra over 1000 random pairs",
        ok,
        f"|V_tx - 1| <= {worst_tx:.2e}, |b_q - 1| <= {worst_bq:.2e}, "
        f"max |eve-bob| = {worst_eve}",
    )


def test_criterion_07_monte_carlo_vs_closed_form():
    rng_etas = np.random.default_rng(707)
    etas = tuple(rng_etas.uniform(0.2, 0.9, 100))
    channel = ChannelEnsemble(
        etas=etas,
        geometry=make_geometry(),
        profile=TABLE_PROFILE,
        grid_size=DESK_GRID,
        master_seed=707,
        coherence_time=2.29e-3,
    )
    stats = fading_stats(channel.etas)
    params = SqueezingParams.zero_leakage(0.7)
    # Large displacement keeps the decided-bit subtraction unbiased, so
    # the post-subtraction moments sit on the closed-form matrix.
    classical = ClassicalLayer(displacement=10.0, carrier_amplitude=100.0)

    start = time.perf_counter()
    moments = mc_quadrature_sim(
        params, classical, channel.etas, 10_000, np.random.default_rng(77)
    )
    cm = covariance_matrix(params, stats.mean_eta, stats.eta_f)
    tol = 4.0 / math.sqrt(moments.n_shots)
    eve_q = 1.0 + (1.0 - stats.mean_eta) * (params.transmitted_q_variance - 1.0)
    eve_p = 1.0 + (1.0 - stats.mean_eta) * (params.transmitted_p_variance - 1.0)
    # The tap cancels Eve-Bob correlation only in the key quadrature; in p
    # it survives as sqrt(eta (1 - eta)) times the excess tap variance.
    cross_gain = float(np.mean(np.sqrt(np.array(etas) * (1.0 - np.array(etas)))))
    eve_bob_p = cross_gain * (params.transmitted_p_variance - 1.0)
    predicted = {
        "xa_xa": cm.a_q,
        "pa_pa": cm.a_p,
        "xb_xb": cm.b_q,
        "pb_pb": cm.b_p,
        "xa_xb": cm.c_q,
        "pa_pb": cm.c_p,
        "xe_xe": eve_q,
        "pe_pe": eve_p,
        "xe_xb": 0.0,
        "pe_pb": eve_bob_p,
    }
    worst_moment = max(
        abs(getattr(moments, name) - value) for name, value in predicted.items()
    )
    # Product of two unit-variance uncorrelated quadratures: the sample
    # mean of xe*xb has variance 1/n, so the z-score is mean * sqrt(n).
    z_eve = abs(moments.xe_xb) * math.sqrt(moments.n_shots)

    # Separate small run at unit displacement where bit errors are common
    # enough for a meaningful binomial comparison.
    ber_etas = (0.36, 0.81)
    shots = 100_000
    ber_run = mc_quadrature_sim(
        params,
        ClassicalLayer(displacement=1.0, carrier_amplitude=100.0),
        ber_etas,
        shots,
        np.random.default_rng(78),
    )
    per_eta_p = [norm.sf(2.0 * 1.0 * math.sqrt(eta)) for eta in ber_etas]
    expected_errors = shots * sum(per_eta_p)
    sigma = math.sqrt(shots * sum(p * (1.0 - p) for p in per_eta_p))
    z_ber = abs(ber_run.bit_errors - expected_errors) / sigma
    elapsed = time.perf_counter() - start

    ok = (
        worst_moment <= tol
        and z_eve < 4.0
        and moments.bit_errors == 0
        and z_ber <= 3.0
        and elapsed < 120.0
    )
    verdict(
        7,
        "1e6-shot Monte Carlo vs covariance predictions",
        ok,
        f"worst moment err {worst_moment:.5f} (tol {tol:.5f}), eve-bob z = {z_eve:.2f}, "
        f"ber z = {z_ber:.2f} over {ber_run.bit_errors} errors, {elapsed:.1f} s",
    )


def test_criterion_08_rate_identities():
    half = ideal_rate(0.5)
    worst = abs(half - 0.5)
    for eta in np.linspace(0.01, 0.99, 50):
        worst = max(worst, abs(plob_bound(eta) - 2.0 * ideal_rate(eta)))
    ok = worst <= 1e-12
    verdict(
        8,
        "ideal-rate and repeaterless-bound identities",
        ok,
        f"ideal(0.5) = {half}, worst identity gap {worst:.2e}",
    )


def test_criterion_09_rate_ordering_chain():
    fin = reference_finite_size(1e10)
    violations = 0
    for vs in (0.1, 0.3, 0.5, 0.7, 0.9):
        params = SqueezingParams.zero_leakage(vs)
        for eta in np.linspace(1e-3, 0.999, 100):
            info = mutual_information(covariance_matrix(params, eta, eta), REFERENCE_DETECTOR)
            asym = asymptotic_rate(fin.recon_efficiency, info)
            clamped = max(0.0, finite_size_rate(fin, info))
            chain = clamped <= asym <= ideal_rate(eta) + 1e-15
            chain = chain and ideal_rate(eta) <= plob_bound(eta) + 1e-15
            violations += 0 if chain else 1
    ok = violations == 0
    verdict(
        9,
        "finite <= asymptotic <= ideal <= repeaterless over 500 points",
        ok,
        f"{violations} violations",
    )


def test_criterion_10_max_tolerable_loss():
    start = time.perf_counter()
    loss = max_tolerable_loss(reference_finite_size(1e14), REFERENCE_DETECTOR, 10.0)
    elapsed = time.perf_counter() - start
    ok = abs(loss - 40.0) <= 3.0 and elapsed < 1.0
    verdict(
        10,
        "zero crossing of the finite-size rate at N=1e14",
        ok,
        f"{loss:.2f} dB vs 40 +- 3 dB, {elapsed:.3f} s",
    )


def test_criterion_11_end_to_end_positive_key(desk_ensembles, desk_thirty_degrees):
    params = SqueezingParams.from_squeezing_db(10.0)
    fin = reference_finite_size(1e10)
    rates = {}
    for zenith, ens in ((0.0, desk_ensembles[0.0][2]), (30.0, desk_thirty_degrees)):
        stats = fading_stats(ens.etas)
        cm = covariance_matrix(params, stats.mean_eta, stats.eta_f)
        info = mutual_information(cm, REFERENCE_DETECTOR)
        rates[zenith] = finite_size_rate(fin, info)
    ok = all(rate > 0.0 for rate in rates.values())
    verdict(
        11,
        "positive finite-size key through 50 cm desk ensembles",
        ok,
        f"K(0 deg) = {rates[0.0]:.4f}, K(30 deg) = {rates[30.0]:.4f} bits/use",
    )


CLI_CONFIG = """\
[scenario]
name = accept

[geometry]
wavelength = 1.064e-6
beam_waist = 0.15
zenith_angle = 0.0
satellite_altitude = 500e3
aperture_radius = 0.5

[atmosphere]
ground_cn2 = 9.6e-14
ground_wind = 3.0
outer_scale = 5.0
inner_scale = 0.01

[grid]
size = 64

[ensemble]
realizations = 5
master_seed = 12

[squeezing]
squeezing_db = 10.0

[classical]
displacement = 10.0
carrier_amplitude = 100.0

[detector]
efficiency = 0.61
electronic_noise = 0.12

[finite_size]
block_size = 1e10
kept_fraction = 0.5
recon_efficiency = 0.98
discretisation = 5
total_epsilon = 1e-9

[output]
directory = {out}
"""


def test_criterion_12_byte_identical_reruns(tmp_path):
    config = tmp_path / "accept.ini"
    out = tmp_path / "out"
    config.write_text(CLI_CONFIG.format(out=out))

    def run_everything(threads: str) -> dict[str, bytes]:
        base = ["--config", str(config), "--threads", threads]
        assert cli_main(["simulate-channel", *base]) == 0
        ensemble = str(out / "accept.ensemble")
        assert cli_main(["key-rate", *base, "--ensemble", ensemble]) == 0
        assert cli_main(["link-budget", *base, "--ensemble", ensemble]) == 0
        assert cli_main(["protocol-verify", *base]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = run_everything("1")
    second = run_everything("2")
    identical = first == second
    ok = identical and len(first) >= 7
    verdict(
        12,
        "command pipeline rerun determinism across thread counts",
        ok,
        f"{len(first)} products byte-identical: {identical}",
    )