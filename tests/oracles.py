"""Estimators that only the tests use: field power, beam radius, phase
structure function, the Eve-Bob correlation, the plane-wave
scintillation index from the Rytov variance and the weak-fluctuation
scintillation index of the downlink; the sampled source and two-step
Fresnel hop that the closed-form entry field is checked against; full-grid
references for the block-metered aperture, and the row-tiled screen
synthesis, imprint and channel grids, format 7's one-fftn hop, and the
realization walked from the entry with every array built per call; per-eta
references for the array-native link budget and quadrature Monte Carlo;
and the finite-size penalty over four separately stored epsilons."""

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from duallink.atmosphere import (
    AtmosphereProfile,
    LinkGeometry,
    _cumulative_integral,
    cn2,
    integrated_cn2,
)
from duallink.config import _render_value
from duallink.errors import UsageError
from duallink.optics import (
    _APODIZATION_ORDER,
    _APODIZATION_STRENGTH,
    _TURN,
    ComplexField,
    _angular_spectrum_kernel,
    _apodization_mask,
    _signed_corner_area,
    apply_screen,
    gaussian_beam,
    propagate_vacuum,
)
from duallink.protocol import ClassicalLayer, EmpiricalMoments, SqueezingParams
from duallink.screens import (
    _LEVEL_ROWS,
    _PHASOR_FROM_REAL,
    Workspace,
    _centered_coords,
    _subharmonic_factors,
    generate_screen,
    mvk_psd,
    screen_spectrum,
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


def screen_structure_function(screens: list[np.ndarray], spacing: float, separations):
    """Empirical phase structure function, averaged over pixels and screens.

    D(r) = <(phi(x + r) - phi(x))^2> along both grid axes, for square screens
    sampled at ``spacing``; separations must be grid-aligned (integer
    multiples of the spacing).
    """
    if len(screens) < 50:
        raise UsageError(f"need at least 50 screens for a stable estimate, got {len(screens)}")
    n = screens[0].shape[0]
    if any(g.shape != (n, n) for g in screens):
        raise UsageError("screens must share one square grid")

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
    for g in screens:
        for idx, m in enumerate(shifts):
            dx = g[:, m:] - g[:, :-m]
            dy = g[m:, :] - g[:-m, :]
            totals[idx] += float(np.sum(dx * dx)) + float(np.sum(dy * dy))
            counts[idx] += dx.size + dy.size
    return list(totals / counts)


# Gauss-Legendre rule of the wavenumber integral: log cells up to
# _KAPPA_LOG_TOP rad/m, where the spectrum is steep, then linear cells of at
# most _KAPPA_STEP rad/m, narrow enough for the oscillation of
# cos(kappa^2 z / k) wherever Cn2 is not negligible.
_KAPPA_FLOOR = 1e-3
_KAPPA_LOG_TOP = 10.0
_KAPPA_LOG_CELLS = 60
_KAPPA_STEP = 0.5
_KAPPA_GL = np.polynomial.legendre.leggauss(8)


def _kappa_rule(breaks) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights over consecutive [breaks[i], breaks[i+1]] cells."""
    edges = [np.geomspace(_KAPPA_FLOOR, _KAPPA_LOG_TOP, _KAPPA_LOG_CELLS + 1)]
    lo = _KAPPA_LOG_TOP
    for hi in breaks:
        edges.append(np.linspace(lo, hi, max(1, math.ceil((hi - lo) / _KAPPA_STEP)) + 1)[1:])
        lo = hi
    edges = np.concatenate(edges)
    half = 0.5 * np.diff(edges)
    nodes = (edges[:-1] + half)[:, None] + half[:, None] * _KAPPA_GL[0]
    return nodes.ravel(), (half[:, None] * _KAPPA_GL[1]).ravel()


def weak_kernel(
    geom: LinkGeometry, profile: AtmosphereProfile, spacing: float | None = None, beam=False
):
    """h -> int d^2kappa Phi(kappa) [1 - cos(kappa^2 s / k)], s = (h - h0) sec(zeta):
    the weak-fluctuation sigma_I^2 per unit Cn2 at altitude h, less the factor
    4 pi k^2 sec(zeta); see ``weak_scintillation_index``."""
    k = geom.wavenumber
    sec = geom.sec_zenith
    km = 2.0 * math.pi * 0.9422 / profile.inner_scale
    k0 = 2.0 * math.pi / profile.outer_scale
    if spacing is None:
        kappa, weight = _kappa_rule([4.0 * km])
        fraction = np.ones_like(kappa)
    else:
        cut = math.pi / spacing
        kappa, weight = _kappa_rule([cut, math.sqrt(2.0) * cut])
        fraction = np.where(
            kappa <= cut, 1.0, 1.0 - (4.0 / math.pi) * np.arccos(np.minimum(cut / kappa, 1.0))
        )
    ring = 2.0 * math.pi * kappa * weight * fraction
    ring *= 0.033 * np.exp(-((kappa / km) ** 2)) / (kappa**2 + k0**2) ** (11.0 / 6.0)
    h0 = geom.ground_altitude
    path = geom.path_length
    theta = 1.0 / (1.0 + (2.0 * path / (k * geom.beam_waist**2)) ** 2)
    lam = theta * 2.0 * path / (k * geom.beam_waist**2)

    def kernel(h: float) -> float:
        s = (h - h0) * sec
        if not beam:
            return float(ring @ (1.0 - np.cos(kappa**2 * (s / k))))
        damped = ring * np.exp(-lam * kappa**2 * s**2 / (k * path))
        return float(damped @ (1.0 - np.cos(kappa**2 * (s * (1.0 - (1.0 - theta) * s / path) / k))))

    return np.vectorize(kernel)


def weak_scintillation_index(
    geom: LinkGeometry,
    profile: AtmosphereProfile,
    spacing: float | None = None,
    plan=None,
    beam: bool = False,
) -> float:
    """Plane-wave downlink sigma_I^2 of weak-fluctuation theory (Andrews and
    Phillips 2005, ch. 12), with the screens' own modified von Karman spectrum.

    sigma_I^2 = 4 pi k^2 sec(zeta) int dh Cn2(h) int d^2kappa Phi(kappa)
    [1 - cos(kappa^2 (h - h0) sec(zeta) / k)], from the ground up to the
    satellite, with Phi = 0.033 exp(-kappa^2 / km^2) / (kappa^2 + k0^2)^(11/6),
    km = 2 pi 0.9422 / l0 and k0 = 2 pi / L0.  Given a grid ``spacing``, only
    the square |kappa_x|, |kappa_y| <= K = pi / spacing is kept: in polar
    form, the angular fraction 1 - (4 / pi) acos(K / kappa) of each ring
    with K < kappa <= sqrt(2) K.  Given a slab ``plan``, the h integral
    becomes a sum over its screens, each carrying its band's Cn2 at its
    screen altitude.  With ``beam``, the on-axis value for the collimated
    Gaussian beam that the satellite sends (same chapter): at
    s = (h - h0) sec(zeta) from the receiver the cosine's argument is
    kappa^2 s (1 - Theta_bar s / L) / k, and the integrand is damped by
    exp(-Lambda kappa^2 s^2 / (k L)), where L is the slant path,
    Theta_bar = 1 - Theta, and Theta = 1 / (1 + Lambda0^2) and
    Lambda = Lambda0 Theta are the receiver-plane beam parameters of a beam
    leaving its waist W0, Lambda0 = 2 L / (k W0^2).
    """
    kernel = weak_kernel(geom, profile, spacing, beam)
    if plan is None:
        density = lambda h: cn2(h, profile) * kernel(h)
        total = float(
            _cumulative_integral(density, geom.ground_altitude, geom.satellite_altitude)[1][-1]
        )
    else:
        total = sum(
            integrated_cn2(geom, profile, slab.h_lo, slab.h_hi) * kernel(slab.screen_altitude)
            for slab in plan.slabs
            if slab.has_screen
        )
    return 4.0 * math.pi * geom.wavenumber**2 * geom.sec_zenith * total


def scintillation_index(rytov_var: float) -> float:
    """Plane-wave intensity variance from the Rytov variance, valid into
    strong fluctuation (Andrews and Phillips 2005, ch. 9)."""
    if rytov_var < 0.0:
        raise UsageError("Rytov variance must be nonnegative")
    if rytov_var == 0.0:
        return 0.0
    s = math.sqrt(rytov_var)  # sigma_R
    term1 = 0.49 * rytov_var / (1.0 + 1.11 * s ** (12.0 / 5.0)) ** (7.0 / 6.0)
    term2 = 0.51 * rytov_var / (1.0 + 0.69 * s ** (12.0 / 5.0)) ** (5.0 / 6.0)
    return math.exp(term1 + term2) - 1.0


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


def gaussian_source(geom: LinkGeometry, grid_size: int) -> ComplexField:
    """Unit-power fundamental Gaussian at its waist on an 8 w0 window, its
    discrete power renormalized to exactly one."""
    n = grid_size
    w0 = geom.beam_waist
    spacing = 8.0 * w0 / n
    x = _centered_coords(n, spacing)
    r2 = x[:, None] ** 2 + x[None, :] ** 2
    grid = ((math.sqrt(2.0 / math.pi) / w0) * np.exp(-r2 / w0**2)).astype(complex)
    grid /= math.sqrt(np.sum(np.abs(grid) ** 2) * spacing**2)
    return ComplexField(grid, spacing, geom.wavelength)


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


def two_step_hop(field: ComplexField, distance: float, target_spacing: float) -> ComplexField:
    """The two-step Fresnel hop of an upright field (Schmidt 2010, ch. 8): two
    centered FFTs whose intermediate plane takes the spacing to target_spacing."""
    args = (field.size, field.spacing, field.wavelength, distance, target_spacing)
    q1, qi, q2 = full_grid_fresnel_chirps(*args)
    grid = np.fft.fft2(np.fft.fft2(field.grid * q1) * qi) * q2
    return ComplexField(grid, target_spacing, field.wavelength)


def reference_entry(geom: LinkGeometry, n: int, spacing: float, depth: float) -> ComplexField:
    """The sampled source, apodized and carried by the two-step hop ``depth``
    down the path onto the receiver ``spacing``."""
    source = gaussian_source(geom, n)
    absorbed = replace(source, grid=source.grid * full_grid_apodization_mask(n))
    return two_step_hop(absorbed, depth, spacing)


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


def full_grid_spectrum(rng, factor: np.ndarray) -> np.ndarray:
    """The Box-Muller spectral draw with whole-grid buffers: all N^2 modulus
    uniforms, then all N^2 phase uniforms, and float32 cos and sin."""
    n = factor.shape[0]
    u = rng.random((n, n))
    v = rng.random((n, n))
    amplitude = np.sqrt(-2.0 * np.log(1.0 - u)) * factor
    theta = ((v - 0.5) * (2.0 * np.pi)).astype(np.float32)
    spectrum = np.empty((n, n), dtype=complex)
    spectrum.real = amplitude * np.cos(theta)
    spectrum.imag = amplitude * np.sin(theta)
    return spectrum


def full_grid_generate_screen(slabs, n: int, spacing: float, rng, profile) -> list[np.ndarray]:
    """Screen synthesis with whole-grid buffers: one N x N spectral draw,
    and each screen finished as one N x N einsum plus its half, then scaled."""
    l_out, l_in = profile.outer_scale, profile.inner_scale
    spectrum = full_grid_spectrum(rng, full_grid_fft_amplitude_factor(n, spacing, l_out, l_in))
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


def upright(field: ComplexField) -> ComplexField:
    """The field with its grid in the upright orientation, copied if it was transposed."""
    if not field.transposed:
        return field
    return replace(field, grid=field.grid.T.copy(), transposed=False)


def fftn_hop(field: ComplexField, distance: float, out=None):
    """Format 7's fixed-grid hop: one fftn, both axis factors, one ifftn, on an
    upright field and leaving it upright.  A hop whose kernel would alias is
    ``propagate_vacuum``'s."""
    if distance == 0.0 or field.spacing * field.window < field.wavelength * distance:
        return propagate_vacuum(field, distance, out=out)
    if field.transposed:
        raise UsageError("format 7's hop needs an upright field")
    h = _angular_spectrum_kernel(field.size, field.spacing, field.wavelength, distance)
    grid = np.empty_like(field.grid) if out is None else out
    np.fft.fftn(field.grid, out=grid)
    grid *= h
    grid *= h[:, None]
    np.fft.ifftn(grid, out=grid)
    return ComplexField(grid, field.spacing, field.wavelength)


def reference_split_step(
    geom, n, plan, profile, streams, receiver_window, propagate=propagate_vacuum, negate=False
) -> ComplexField:
    """One realization walked from the closed-form entry at the first screen
    (or the ground), building every array per call: the apodizer before each
    hop, the screen factors before each draw.

    It hops from screen to screen by ``propagate``, then to the ground.
    Screens are paired in walk order: one spectral draw from the stream of the
    pair's first slab serves both.  A screen due on a transposed field is
    imprinted as its transposed view, and the result is returned upright.
    With ``negate`` every screen is imprinted negated: the antithetic mirror.
    ``depth`` is the field's slant distance below the top of the plan.
    """
    stops, above = [], 0.0  # (slab index, slant depth) per screen, top down
    for idx, slab in reversed(list(enumerate(plan.slabs))):
        if slab.has_screen:
            stops.append((idx, above + slab.screen_depth))
        above += slab.path_length
    partner = {upper[0]: lower[0] for upper, lower in zip(stops[0::2], stops[1::2])}
    workspace = Workspace(n)
    depth = stops[0][1] if stops else above
    entry = gaussian_beam(geom, n, receiver_window / n, depth)

    def hop(field, distance):
        nonlocal depth
        if distance <= 0.0:
            return field
        depth += distance
        out = workspace.fields[0]
        np.multiply(field.grid, _apodization_mask(n), out=out)
        absorbed = replace(field, grid=out)
        return propagate(absorbed, distance, out=out)

    field = entry
    held: list[np.ndarray] = []
    for idx, stop in stops:
        field = hop(field, stop - depth)
        if held:
            screen = held.pop()
        else:
            slab = plan.slabs[idx]
            pair = (slab, plan.slabs[partner[idx]]) if idx in partner else (slab,)
            spectrum = screen_spectrum(n, field.spacing, profile)
            screen, *held = generate_screen(pair, spectrum, streams.generator(idx), workspace)
        screen = screen.T if field.transposed else screen
        (field,) = apply_screen((field,), -screen if negate else screen, workspace=workspace)
    field = hop(field, above - depth)
    return replace(field, grid=field.grid.copy()) if field is entry else upright(field)


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


class FourEpsilonParams(NamedTuple):
    """Finite-size parameters with each share of the security budget stored
    on its own and the total composed from them."""

    block_size: float
    kept_length: float
    recon_efficiency: float
    discretisation: int
    eps_smooth: float
    eps_bar: float
    eps_pe: float
    eps_cor: float
    aep_interior_eps: str = "composed"

    @property
    def total_epsilon(self) -> float:
        return 2.0 * self.eps_smooth + self.eps_bar + self.eps_pe + self.eps_cor

    @classmethod
    def even_split(
        cls,
        block_size: float,
        kept_length: float,
        recon_efficiency: float,
        discretisation: int,
        total_epsilon: float,
        aep_interior_eps: str = "composed",
    ) -> "FourEpsilonParams":
        """eps_sm = eps_bar = eps_cor = eps/4, eps_pe = 0."""
        quarter = total_epsilon / 4.0
        return cls(
            block_size, kept_length, recon_efficiency, discretisation,
            quarter, quarter, 0.0, quarter, aep_interior_eps,
        )


def four_epsilon_aep_delta(p: FourEpsilonParams) -> float:
    """Entropy-accumulation penalty coefficient read from the four epsilons."""
    if p.eps_smooth <= 0.0:
        raise UsageError("smoothing epsilon must be positive for the penalty term")
    eps = p.total_epsilon if p.aep_interior_eps == "composed" else p.eps_bar
    if eps <= 0.0:
        raise UsageError("interior epsilon must be positive for the penalty term")
    d = float(p.discretisation)
    eps_sm = p.eps_smooth
    return (
        (d + 1.0) ** 2
        + 4.0 * (d + 1.0) * math.sqrt(math.log2(2.0 / (2.0 * eps_sm**2)))
        + 2.0 * math.log2(2.0 / (2.0 * eps**2 * eps_sm))
        + 4.0 * eps_sm * d / (eps * math.sqrt(p.kept_length))
    )


def four_epsilon_finite_size_rate(p: FourEpsilonParams, mutual_info: float) -> float:
    """Composable finite-size key rate read from the four epsilons."""
    if mutual_info < 0.0:
        raise UsageError(f"mutual information must be nonnegative, got {mutual_info}")
    if p.eps_bar <= 0.0:
        raise UsageError("eps_bar must be positive for the correctness term")
    n_kept = p.kept_length
    return (
        n_kept * p.recon_efficiency * mutual_info
        - math.sqrt(n_kept) * four_epsilon_aep_delta(p)
        - 2.0 * math.log2(1.0 / (2.0 * p.eps_bar))
    ) / p.block_size
