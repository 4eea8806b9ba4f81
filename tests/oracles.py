"""Estimators that only the tests use: field power, beam radius, phase
structure function, and the Eve-Bob correlation; full-grid references
for the separable hop factors, the block-metered aperture, and the
row-tiled screen synthesis, imprint and cached grids; and per-eta
references for the array-native link budget and quadrature Monte Carlo."""

import math

import numpy as np

from duallink.config import _render_value
from duallink.errors import UsageError
from duallink.optics import (
    _APODIZATION_ORDER,
    _APODIZATION_STRENGTH,
    _TURN,
    ComplexField,
    _signed_corner_area,
)
from duallink.protocol import ClassicalLayer, EmpiricalMoments, SqueezingParams
from duallink.screens import (
    _LEVEL_ROWS,
    _PHASOR_FROM_REAL,
    PhaseScreen,
    _centered_coords,
    _subharmonic_factors,
    mvk_psd,
)


def field_power(field: ComplexField) -> float:
    """Total power, the sum of |E|^2 times the cell area."""
    return float(np.sum(np.abs(field.grid) ** 2)) * field.spacing**2


def second_moment_radius(field: ComplexField) -> float:
    """Beam radius from the intensity second moment (w0 recovers sqrt(2)<r^2>)."""
    intensity = np.abs(field.grid) ** 2
    total = float(intensity.sum())
    if total <= 0.0:
        raise UsageError("cannot measure the radius of an empty field")
    x = _centered_coords(field.size, field.spacing)
    r2 = x[:, None] ** 2 + x[None, :] ** 2
    return math.sqrt(2.0 * float((intensity * r2).sum()) / total)


def screen_structure_function(screens: list[PhaseScreen], separations) -> list[float]:
    """Empirical phase structure function, averaged over pixels and screens.

    D(r) = <(phi(x + r) - phi(x))^2> along both grid axes; separations must
    be grid-aligned (integer multiples of the common spacing).
    """
    if len(screens) < 50:
        raise UsageError(f"need at least 50 screens for a stable estimate, got {len(screens)}")
    spacing = screens[0].spacing
    n = screens[0].grid.shape[0]
    for s in screens:
        if s.spacing != spacing or s.grid.shape != (n, n):
            raise UsageError("screens must share grid geometry")

    shifts = []
    for r in separations:
        m = round(r / spacing)
        if not math.isclose(m * spacing, r, rel_tol=1e-6, abs_tol=1e-12):
            raise UsageError(f"separation {r} is not a multiple of the grid spacing {spacing}")
        if m < 1 or m >= n:
            raise UsageError(f"separation {r} outside the grid (max {(n - 1) * spacing})")
        shifts.append(m)

    totals = np.zeros(len(shifts))
    counts = np.zeros(len(shifts))
    for s in screens:
        g = s.grid
        for idx, m in enumerate(shifts):
            dx = g[:, m:] - g[:, :-m]
            dy = g[m:, :] - g[:-m, :]
            totals[idx] += float(np.sum(dx * dx)) + float(np.sum(dy * dy))
            counts[idx] += dx.size + dy.size
    return list(totals / counts)


def eve_bob_correlation(params: SqueezingParams, eta: float) -> float:
    """<X_E X_B> for a passive eavesdropper holding the lost light.

    The correlation is sqrt(eta(1-eta)) times the excess of the
    transmitted q-variance over vacuum, so it vanishes identically for
    a zero-leakage tap and at either end of the transmissivity range.
    """
    if params.is_zero_leakage:
        return 0.0
    return math.sqrt(eta * (1.0 - eta)) * (params.transmitted_q_variance - 1.0)


def exact_transfer_function(n: int, spacing: float, wavelength: float, distance: float):
    """N x N exp(i (kz - k) d) of the angular spectrum, evanescent entries zero."""
    k = 2.0 * math.pi / wavelength
    f = np.fft.fftfreq(n, d=spacing)
    f2 = f[:, None] ** 2 + f[None, :] ** 2
    kz2 = k * k - 4.0 * math.pi**2 * f2
    traveling = kz2 > 0.0
    kz = np.sqrt(np.where(traveling, kz2, 0.0))
    # (kz - k) written without cancellation
    phase = -4.0 * math.pi**2 * f2 / (kz + k) * distance
    return np.where(traveling, np.exp(1j * phase), 0.0)


def full_grid_fresnel_chirps(n: int, d1: float, wavelength: float, distance: float, d2: float):
    """The two-step hop's three N x N chirps, checkerboard and scale included."""
    m = d2 / d1
    dz1 = distance / (1.0 + m)
    dz2 = distance - dz1
    di = wavelength * dz1 / (n * d1)
    k = 2.0 * math.pi / wavelength

    def chirp(spacing: float, curvature: float) -> np.ndarray:
        x = _centered_coords(n, spacing)
        r2 = x[:, None] ** 2 + x[None, :] ** 2
        return np.exp(1j * (0.5 * k * curvature) * r2)

    checkerboard = 1 - 2 * (np.add.outer(np.arange(n), np.arange(n)) % 2)
    scale = -(d1 * d1) * (di * di) / (wavelength**2 * dz1 * dz2)
    return (
        chirp(d1, 1.0 / dz1) * checkerboard,
        chirp(di, 1.0 / dz1 + 1.0 / dz2),
        chirp(d2, 1.0 / dz2) * (scale * checkerboard),
    )


def full_grid_aperture_weights(n: int, spacing: float, radius: float) -> np.ndarray:
    """Per-cell area fraction inside the centered disc, over the whole N x N grid."""
    centers = _centered_coords(n, spacing)
    lo = (centers - 0.5 * spacing)[:, None]
    hi = (centers + 0.5 * spacing)[:, None]
    area = (
        _signed_corner_area(hi, hi.T, radius)
        - _signed_corner_area(lo, hi.T, radius)
        - _signed_corner_area(hi, lo.T, radius)
        + _signed_corner_area(lo, lo.T, radius)
    )
    return np.clip(area / spacing**2, 0.0, 1.0)


def full_grid_transmissivity(field: ComplexField, radius: float) -> float:
    """Aperture power summed over every cell of the grid."""
    weights = full_grid_aperture_weights(field.size, field.spacing, radius)
    return float(np.sum(weights * np.abs(field.grid) ** 2)) * field.spacing**2


def full_grid_fft_amplitude_factor(n: int, spacing: float, l_out: float, l_in: float):
    """The spectral amplitude factor built as one N x N expression."""
    fx = np.fft.fftfreq(n, spacing)
    psd_geo = mvk_psd(np.hypot(fx[:, None], fx[None, :]), 1.0, l_out, l_in)
    psd_geo[0, 0] = 0.0
    return np.sqrt(psd_geo) / (n * spacing)


def full_grid_apodization_mask(n: int) -> np.ndarray:
    """The edge absorber built as one N x N expression."""
    v = (np.arange(n) - n // 2) / (n / 2.0)
    r = np.sqrt(v[:, None] ** 2 + v[None, :] ** 2)
    return np.exp(-_APODIZATION_STRENGTH * r**_APODIZATION_ORDER)


def full_grid_generate_screen(slabs, n: int, spacing: float, rng, profile) -> list[np.ndarray]:
    """Screen synthesis with whole-grid buffers: one N x N draw per half,
    and each screen finished as one N x N einsum plus its half, then scaled."""
    l_out, l_in = profile.outer_scale, profile.inner_scale
    factor = full_grid_fft_amplitude_factor(n, spacing, l_out, l_in)
    spectrum = np.empty((n, n), dtype=complex)
    draws = np.empty((n, n))
    rng.standard_normal(out=draws)
    np.multiply(draws, factor, out=spectrum.real)
    rng.standard_normal(out=draws)
    np.multiply(draws, factor, out=spectrum.imag)
    np.fft.ifftn(spectrum, norm="forward", out=spectrum)

    weights, basis, means = _subharmonic_factors(n, spacing, l_out, l_in)
    screens = []
    for slab, half in zip(slabs, (spectrum.real, spectrum.imag)):
        coeff = np.zeros((len(basis), len(basis)))
        for sqrt_w, rows in zip(weights, _LEVEL_ROWS):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            a *= sqrt_w
            coeff[rows] += (_PHASOR_FROM_REAL.T @ a @ _PHASOR_FROM_REAL).real
        coeff[0, 0] -= means @ coeff @ means
        screen = np.einsum("ki,kj->ij", basis, np.einsum("kl,lj->kj", coeff, basis))
        screen += half
        screen *= slab.fried ** (-5.0 / 6.0)
        screens.append(screen)
    return screens


def full_grid_apply_screen(field: ComplexField, phase: np.ndarray) -> np.ndarray:
    """The imprint with whole-grid buffers: turn-reduced float64 angle,
    float32 cos and sin, one float64 Newton step, one N x N multiply."""
    angle = np.rint(phase * (1.0 / _TURN))
    angle *= _TURN
    reduced = (phase - angle).astype(np.float32)
    phasor = np.empty(phase.shape, dtype=complex)
    phasor.real = np.cos(reduced)
    phasor.imag = np.sin(reduced)
    newton = np.abs(phasor)
    np.square(newton, out=newton)
    np.subtract(3.0, newton, out=newton)
    newton *= 0.5
    phasor *= newton
    return field.grid * phasor


def per_eta_link_budget_rows(displacement: float, etas) -> str:
    """The link-budget CSV rows and mean-BER footer, one eta at a time."""
    rows = []
    for i, eta in enumerate(etas):
        snr = 4.0 * eta * displacement**2
        ber = 0.5 * math.erfc(math.sqrt(snr) / math.sqrt(2.0))
        rows.append((i, eta, snr, ber))
    mean_ber = sum(row[3] for row in rows) / len(rows)
    lines = [",".join(_render_value(cell) for cell in row) + "\n" for row in rows]
    return "".join(lines) + f"# ensemble_mean_ber = {_render_value(mean_ber)}\n"


def per_eta_mc_quadrature_sim(
    params: SqueezingParams,
    classical: ClassicalLayer,
    etas,
    shots_per_eta: int,
    rng: np.random.Generator,
) -> EmpiricalMoments:
    """The quadrature Monte Carlo with fresh arrays for every draw and step."""
    eps = params.tap_transmissivity
    va = params.modulation_variance
    vs = params.squeezed_variance
    alpha = classical.displacement

    keep_a = math.sqrt(1.0 - eps)
    keep_s = math.sqrt(eps)
    sums = np.zeros(10)
    bit_errors = 0
    for eta in etas:
        t = math.sqrt(eta)
        r = math.sqrt(1.0 - eta)
        signal = 2.0 * alpha * t

        bits = np.where(rng.integers(0, 2, shots_per_eta) == 1, 1.0, -1.0)
        x_a = rng.standard_normal(shots_per_eta) * math.sqrt(va)
        x_s = rng.standard_normal(shots_per_eta) * math.sqrt(vs)
        x_v = rng.standard_normal(shots_per_eta)
        p_a = rng.standard_normal(shots_per_eta) / math.sqrt(va)
        p_s = rng.standard_normal(shots_per_eta) / math.sqrt(vs)
        p_v = rng.standard_normal(shots_per_eta)

        x_alice = keep_a * x_a - keep_s * x_s
        x_tx = keep_s * x_a + keep_a * x_s
        x_out = t * (x_tx + 2.0 * alpha * bits) + r * x_v
        x_eve_raw = r * (x_tx + 2.0 * alpha * bits) - t * x_v

        decided = np.where(x_out >= 0.0, 1.0, -1.0)
        bit_errors += int(np.count_nonzero(decided != bits))
        x_bob = x_out - signal * decided
        x_eve = x_eve_raw - 2.0 * alpha * r * bits

        p_alice = keep_a * p_a - keep_s * p_s
        p_tx = keep_s * p_a + keep_a * p_s
        p_bob = t * p_tx + r * p_v
        p_eve = r * p_tx - t * p_v

        sums += [
            np.sum(x_alice * x_alice),
            np.sum(x_bob * x_bob),
            np.sum(x_eve * x_eve),
            np.sum(x_alice * x_bob),
            np.sum(x_eve * x_bob),
            np.sum(p_alice * p_alice),
            np.sum(p_bob * p_bob),
            np.sum(p_eve * p_eve),
            np.sum(p_alice * p_bob),
            np.sum(p_eve * p_bob),
        ]

    n = shots_per_eta * len(etas)
    moments = sums / n
    return EmpiricalMoments(n, bit_errors, *moments)
