"""Slab partitioning of the turbulent path and random phase screen synthesis.

A slab is an altitude band whose turbulence one random phase screen carries,
at the altitude that keeps the band's weak-fluctuation sigma_I^2 on the
receiver grid; the band's Rytov variance stays small and its r0 spans a few
receiver cells.  Screens are drawn from the modified von Karman spectrum.

The FFT sampling of the spectrum misses power below one grid-window cycle,
which shows up as a structure-function deficit at large separations. Three
levels of 3x3 subharmonic patches repair this; each patch amplitude carries
the PSD integrated over its frequency cell (tensor Gauss-Legendre) rather
than a midpoint sample, because near zero frequency the spectrum is so steep
that midpoint weighting underfills the cells by tens of percent.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .atmosphere import (
    AtmosphereProfile,
    LinkGeometry,
    _cumulative_integral,
    _rytov_density,
    cn2,
    fried_parameter,
)
from .errors import UsageError

# Both bounds on every screen: the Rytov variance of its band, and its r0
# in receiver cells.  24 Gauss-Legendre nodes per side resolve the grid's
# kernel to 5e-6 out to _KERNEL_REACH z_c.
_SCREEN_RYTOV_CAP = 0.055
_SCREEN_R0_CELLS = 2.0
_KERNEL_REACH = 32.0
_MAX_SLABS = 64
# Cell edges of the running Cn2 and Rytov integrals that place the slab edges.
_PLANNING_EDGES = 2000


class ScreenResolutionWarning(UserWarning):
    """Grid window too small to resolve the outer scale of the spectrum."""


@dataclass(frozen=True)
class Slab:
    """One altitude band of the propagation path and the altitude of its screen."""

    h_lo: float
    h_hi: float
    path_length: float  # slant distance across the band
    fried: float  # local r0 over the band; r0 = inf is vacuum
    screen_altitude: float | None = None  # None: the middle of the band

    def __post_init__(self) -> None:
        if self.screen_altitude is None:
            object.__setattr__(self, "screen_altitude", 0.5 * (self.h_lo + self.h_hi))
        if not self.h_lo <= self.screen_altitude <= self.h_hi:
            raise UsageError("a slab's screen must sit inside its band")

    @property
    def has_screen(self) -> bool:
        return self.fried < math.inf

    @property
    def screen_depth(self) -> float:  # slant distance from the band's top to its screen
        return self.path_length * (self.h_hi - self.screen_altitude) / (self.h_hi - self.h_lo)


@dataclass(frozen=True)
class SlabPlan:
    """Contiguous slabs from the ground up to the satellite."""

    slabs: tuple[Slab, ...]

    def __post_init__(self) -> None:
        if not self.slabs:
            raise UsageError("a slab plan needs at least one slab")
        for a, b in zip(self.slabs[:-1], self.slabs[1:]):
            if not math.isclose(a.h_hi, b.h_lo, rel_tol=0.0, abs_tol=1e-6):
                raise UsageError("slabs must be contiguous and non-overlapping")


# Row tiles hold at most this many bytes of complex128: 64 rows at grid 512,
# 32 at 1024, the whole grid at 128 and below.
_TILE_BYTES = 1 << 19


def _row_tiles(n: int) -> list[slice]:
    """Slices of at most ``_TILE_BYTES // (16 N)`` rows that cover N rows."""
    step = max(1, min(n, _TILE_BYTES // (16 * n)))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


class Workspace:
    """The buffers of one walk of ``members`` realizations in lockstep, written in place.

    ``fields`` (complex128, members x N x N) and ``spectrum`` (complex128,
    N x N) are the only full grids: each member's running field, and a screen
    pair's spectral draw, whose real and imaginary halves become the pair's
    two screens and hold the second until its slab.  Everything else runs over
    row tiles: ``phasor`` (complex128) is a tile's imprint phasor or phase
    uniforms, and ``scratch`` (float64, the same rows) a tile of modulus
    uniforms or of a finished screen, or the float32 angles and cos/sin of a
    spectral draw or of the imprint.  Never shared between walks or workers; a
    call given none makes a fresh one and touches only the buffers it uses.
    """

    def __init__(self, n: int, members: int = 1) -> None:
        self.fields = np.empty((members, n, n), dtype=complex)
        self.spectrum = np.empty((n, n), dtype=complex)
        rows = _row_tiles(n)[0].stop
        self.phasor = np.empty((rows, n), dtype=complex)
        self.scratch = np.empty((rows, n))


@dataclass(frozen=True)
class ScreenStreams:
    """Independent random substreams, one per (realization, screen pair).

    A realization's screens are drawn in pairs of consecutive turbulent
    slabs, and each pair's stream is keyed by the slab index of the pair's
    first slab (an odd last screen is a pair of one).  Every stream is an
    SFC64 generator seeded by ``SeedSequence(master seed, spawn_key=
    (realization, slab index))``, so any subset of realizations can be
    regenerated bit-identically in any execution order and on any worker
    count.  A realization's antithetic mirror (``split_step`` with sign -1)
    reads the same streams.
    """

    master_seed: int
    realization: int

    def generator(self, slab_index: int) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.realization, slab_index)
        )
        return np.random.Generator(np.random.SFC64(seq))


def plan_slabs(geom: LinkGeometry, profile: AtmosphereProfile, spacing: float) -> SlabPlan:
    """Fewest contiguous bands, ground to satellite, whose screens meet both bounds.

    Bands grow from the ground up until the band's Rytov variance would pass
    ``_SCREEN_RYTOV_CAP`` or its r0 fall below ``_SCREEN_R0_CELLS`` receiver
    cells (``spacing``); both budgets add over bands, so the greedy cut is the
    fewest.  No band straddles z_c = k dx^2 / pi^2, where the Nyquist
    wavenumber has unit Fresnel phase and the grid's kernel turns from z^2
    towards a z^(5/6) law.  Each screen keeps its band's weak sigma_I^2 on
    the grid: it sits where ``_nyquist_kernel`` equals its Cn2-weighted band
    mean, which far beyond z_c is the 5/6 moment of the band's altitudes.
    """
    h0, top, sec = geom.ground_altitude, geom.satellite_altitude, geom.sec_zenith
    if profile.cn2_scale == 0.0:
        return SlabPlan((Slab(h0, top, (top - h0) * sec, math.inf),))

    density = lambda h: cn2(h, profile)
    hs, cum_cn2 = _cumulative_integral(density, h0, top, _PLANNING_EDGES)
    _, cum_ryt = _cumulative_integral(_rytov_density(geom, profile), h0, top, _PLANNING_EDGES)
    # r0 goes as the band's Cn2 integral to the -3/5; 0.1% covers interpolation
    r0_cells = fried_parameter(geom, profile) / (_SCREEN_R0_CELLS * spacing)
    budgets = (1.0 - 1e-3) * np.array([cum_cn2[-1] * r0_cells ** (5.0 / 3.0), _SCREEN_RYTOV_CAP])
    cums = (cum_cn2, cum_ryt)
    at = lambda h: np.array([np.interp(h, hs, cum) for cum in cums])
    h_c = h0 + geom.wavenumber * spacing**2 / (math.pi**2 * sec)
    edges = [h0]
    while np.any(at(top) - at(edges[-1]) > budgets) or edges[-1] < h_c < top:
        if len(edges) > _MAX_SLABS:
            raise UsageError(
                f"slab conditions need more than {_MAX_SLABS} slabs; "
                "refine the grid or check the turbulence profile and geometry"
            )
        targets = at(edges[-1]) + budgets
        edge = min(float(np.interp(t, cum, hs)) for t, cum in zip(targets, cums))
        edges.append(min(edge, h_c) if edges[-1] < h_c else edge)
    edges.append(top)

    kernel = _nyquist_kernel(spacing, profile)
    u = lambda h: (h - h0) / (h_c - h0)
    slabs = []
    for h_lo, h_hi in zip(edges[:-1], edges[1:]):
        mean = _cumulative_integral(lambda h: density(h) * kernel(u(h)), h_lo, h_hi)[1][-1]
        mean /= at(h_hi)[0] - at(h_lo)[0]
        us = np.linspace(u(h_lo), u(h_hi), 257)
        h_star = h0 + (h_c - h0) * float(np.interp(mean, kernel(us), us))
        r0 = fried_parameter(geom, profile, h_lo, h_hi)
        slabs.append(Slab(h_lo, h_hi, (h_hi - h_lo) * sec, r0, min(max(h_star, h_lo), h_hi)))
    return SlabPlan(tuple(slabs))


def _nyquist_kernel(spacing: float, profile: AtmosphereProfile):
    """u -> int d^2kappa PSD [1 - cos(u kappa^2 dx^2 / pi^2)] over the Nyquist square, up to
    a constant: the weak sigma_I^2 of unit Cn2 at u = z / z_c (a ring t pi / dx keeps
    1 - (4 / pi) acos(1 / t) of its circle past t = 1); past _KERNEL_REACH, where the nodes
    stop resolving the cosines, a z^(5/6) law less a constant through its half-reach value."""
    x, w = np.polynomial.legendre.leggauss(24)
    t = np.concatenate([1.0 + x, 2.0 + (math.sqrt(2.0) - 1.0) * (1.0 + x)]) / 2.0
    w = np.concatenate([w, (math.sqrt(2.0) - 1.0) * w]) / 2.0
    w *= t * (1.0 - (4.0 / math.pi) * np.arccos(1.0 / np.maximum(t, 1.0)))
    w *= mvk_psd(t / (2.0 * spacing), 1.0, profile.outer_scale, profile.inner_scale)
    near = lambda u: (1.0 - np.cos(np.multiply.outer(np.minimum(u, _KERNEL_REACH), t * t))) @ w
    ends = np.array([0.5, 1.0]) * _KERNEL_REACH
    (a, b), (pa, pb) = near(ends), ends ** (5.0 / 6.0)
    return lambda u: near(u) + (b - a) / (pb - pa) * (np.maximum(u, ends[1]) ** (5.0 / 6.0) - pb)


def _centered_coords(n: int, spacing: float) -> np.ndarray:
    return (np.arange(n) - n // 2) * spacing


def mvk_psd(f, fried: float, outer_scale: float, inner_scale: float):
    """Modified von Karman phase PSD, frequency in cycles per meter."""
    f = np.asarray(f, dtype=float)
    if np.any(f < 0.0):
        raise UsageError("spatial frequency must be nonnegative")
    f0 = 1.0 / outer_scale
    fm = 0.9422 / inner_scale
    out = 0.023 * fried ** (-5.0 / 3.0) * np.exp(-((f / fm) ** 2)) / (f**2 + f0**2) ** (11.0 / 6.0)
    return out if out.shape else float(out)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def _cell_integrated_psd(
    fx0: float, fy0: float, width: float, fried: float, outer_scale: float, inner_scale: float
) -> float:
    """Integral of the PSD over one square frequency cell centered at (fx0, fy0)."""
    half = 0.5 * width
    gx = fx0 + half * _GL_NODES
    gy = fy0 + half * _GL_NODES
    f = np.hypot(gx[:, None], gy[None, :])
    vals = mvk_psd(f, fried, outer_scale, inner_scale)
    return float(_GL_WEIGHTS @ vals @ _GL_WEIGHTS) * half * half


_SUBHARMONIC_LEVELS = 3


def _fft_amplitude_factor(n: int, spacing: float, l_out: float, l_in: float) -> np.ndarray:
    """sqrt(PSD / r0^(-5/3)) * df on the FFT lattice, DC zeroed; built by row tiles."""
    fx = np.fft.fftfreq(n, spacing)
    out = np.empty((n, n))
    for tile in _row_tiles(n):
        psd_geo = mvk_psd(np.hypot(fx[tile, None], fx[None, :]), 1.0, l_out, l_in)
        np.sqrt(psd_geo, out=psd_geo)
        np.divide(psd_geo, n * spacing, out=out[tile])
    out[0, 0] = 0.0
    out.setflags(write=False)
    return out


# A level's axis phasors exp(i k theta x), k = -1, 0, 1, are this fixed map
# of the real rows (1, cos theta x, sin theta x).  With P = T B and B real,
# Re(P^T A P) = B^T Re(T^T A T) B, so every level folds into one real
# coefficient matrix over a shared basis: the constant row, then a cos and
# a sin row per level.
_PHASOR_FROM_REAL = np.array([[0.0, 1.0, -1j], [1.0, 0.0, 0.0], [0.0, 1.0, 1j]])
_LEVEL_ROWS = tuple(
    np.ix_(rows, rows)
    for rows in ((0, 2 * level - 1, 2 * level) for level in range(1, _SUBHARMONIC_LEVELS + 1))
)


def _subharmonic_factors(n: int, spacing: float, l_out: float, l_in: float):
    """Per-level sqrt cell weights (3x3, r0 factored out), the real axis
    basis ((2L+1) x N) and its row means."""
    df = 1.0 / (n * spacing)
    coords = _centered_coords(n, spacing)
    weights = []
    rows = [np.ones(n)]
    for level in range(1, _SUBHARMONIC_LEVELS + 1):
        dfb = df / 3.0**level
        w = np.empty((3, 3))
        for a, i in enumerate((-1, 0, 1)):
            for b, j in enumerate((-1, 0, 1)):
                w[a, b] = _cell_integrated_psd(i * dfb, j * dfb, dfb, 1.0, l_out, l_in)
        w[1, 1] = 0.0  # center cell: owned by the next level, or DC at the last
        weights.append(np.sqrt(w))
        theta = 2.0 * np.pi * dfb * coords
        rows += [np.cos(theta), np.sin(theta)]
    basis = np.array(rows)
    means = basis.mean(axis=1)
    for array in (*weights, basis, means):
        array.setflags(write=False)
    return tuple(weights), basis, means


def _draw_spectrum(rng: np.random.Generator, factor: np.ndarray, ws: Workspace) -> None:
    """factor * R e^(i theta) into ``ws.spectrum``: circular-Gaussian amplitudes.

    Box-Muller: R = sqrt(-2 ln(1 - u)) and theta = 2 pi (v - 1/2) from two
    row-major N x N uniform draws, all N^2 of u, then all N^2 of v.  They are
    drawn one row tile at a time, and the generator fills sequentially, so the
    stream is the same at any tile height.  R * factor is float64 and waits in
    the real half; theta is cast to float32 for SIMD cos and sin, which are
    widened in the final multiplies.  1 - u is exact and at least 2^-53, so R
    <= sqrt(106 ln 2) < 8.57.  Against float64 Box-Muller of the same uniforms,
    each unit normal is off by at most R * 3 * 2^-23: 2^-23 from the cast of
    |theta| <= pi, and 2 float32 ulps (<= 2^-22) of cos or sin.
    """
    spectrum = ws.spectrum
    tiles = _row_tiles(spectrum.shape[0])
    for tile in tiles:
        modulus = ws.scratch[: tile.stop - tile.start]
        rng.random(out=modulus)
        np.subtract(1.0, modulus, out=modulus)
        np.log(modulus, out=modulus)
        modulus *= -2.0
        np.sqrt(modulus, out=modulus)
        np.multiply(modulus, factor[tile], out=spectrum.real[tile])
    for tile in tiles:
        shape = (tile.stop - tile.start, spectrum.shape[1])
        angle = ws.phasor.reshape(-1).view(np.float64)[: shape[0] * shape[1]].reshape(shape)
        rng.random(out=angle)
        angle -= 0.5
        angle *= 2.0 * math.pi
        theta, cosine = ws.scratch.reshape(-1).view(np.float32)[: 2 * angle.size].reshape(
            2, *shape
        )
        np.copyto(theta, angle, casting="same_kind")
        np.cos(theta, out=cosine)
        np.sin(theta, out=theta)
        np.multiply(spectrum.real[tile], theta, out=spectrum.imag[tile])
        spectrum.real[tile] *= cosine


@dataclass(frozen=True, eq=False)
class ScreenSpectrum:
    """The read-only, r0-independent factors of the screens on one N x N grid: the
    spectral amplitude factor, and the subharmonic weights, axis basis and its means."""

    amplitude: np.ndarray
    weights: tuple[np.ndarray, ...]
    basis: np.ndarray
    means: np.ndarray


def screen_spectrum(grid_size: int, spacing: float, profile: AtmosphereProfile) -> ScreenSpectrum:
    """The factors of the N x N screens at ``spacing``; warns if the window
    cannot resolve the outer scale."""
    n = grid_size
    if n <= 0 or n & (n - 1):
        raise UsageError(f"grid size must be a power of two, got {n}")
    if spacing <= 0.0:
        raise UsageError("grid spacing must be positive")
    l_out, l_in = profile.outer_scale, profile.inner_scale
    if n * spacing < l_out / 2.0:
        warnings.warn(
            f"grid window {n * spacing:.3g} m resolves less than half the outer scale "
            f"{l_out:.3g} m; low-frequency phase power will be underrepresented",
            ScreenResolutionWarning,
            stacklevel=2,
        )
    amplitude = _fft_amplitude_factor(n, spacing, l_out, l_in)
    return ScreenSpectrum(amplitude, *_subharmonic_factors(n, spacing, l_out, l_in))


def generate_screen(
    slabs: tuple[Slab, ...],
    spectrum: ScreenSpectrum,
    rng: np.random.Generator,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, ...]:
    """Draw the phase screens of one or two slabs on the spectrum's N x N grid.

    Spectral synthesis: circular-Gaussian amplitudes, each a Rayleigh modulus
    times a uniform phase (``_draw_spectrum``), weighted by sqrt(PSD) * df on
    the FFT lattice, plus three levels of 3x3 subharmonic patches whose
    amplitudes carry the cell-integrated PSD. The real and imaginary parts of
    the inverse transform are two independent screens: the real part goes to
    the first slab and the imaginary part to the second, each with its own
    subharmonic draws taken in slab order after the spectral draw.  A one-slab
    call makes only the first slab's draws.  A vacuum slab (r0 = inf) gets a
    zero screen, since its r0^(-5/6) scale is exactly zero.  The screens, in
    radians, are the real and imaginary halves of the workspace's ``spectrum``
    (strided float64 views), so they last until its next draw.
    """
    if not 1 <= len(slabs) <= 2:
        raise UsageError(f"one or two slabs per spectral draw, got {len(slabs)}")
    n = len(spectrum.amplitude)

    # DC cell is zeroed in the amplitude factor; the subharmonic levels own
    # everything below one window cycle.  Each slab's r0 scale is applied
    # once, to its finished screen.
    ws = Workspace(n) if workspace is None else workspace
    _draw_spectrum(rng, spectrum.amplitude, ws)
    draw = ws.spectrum
    tiles = _row_tiles(n)
    # ifftn rather than ifft2: numpy's ifft2 ignores out=
    np.fft.ifftn(draw, norm="forward", out=draw)

    basis, means = spectrum.basis, spectrum.means
    halves = (draw.real, draw.imag)[: len(slabs)]
    for slab, half in zip(slabs, halves):
        coeff = np.zeros((len(basis), len(basis)))
        for sqrt_w, rows in zip(spectrum.weights, _LEVEL_ROWS):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            a *= sqrt_w
            coeff[rows] += (_PHASOR_FROM_REAL.T @ a @ _PHASOR_FROM_REAL).real
        # zero-mean subharmonic part: the grid mean of B^T C B is m^T C m
        coeff[0, 0] -= means @ coeff @ means
        # B^T (C B) as einsums, which run in numpy's own loops; a BLAS
        # product here would wake its thread pool once per screen.  The
        # screen is finished in place, tile by tile, over its own half.
        cb = np.einsum("kl,lj->kj", coeff, basis)
        scale = slab.fried ** (-5.0 / 6.0)
        for tile in tiles:
            screen = ws.scratch[: tile.stop - tile.start]
            np.einsum("ki,kj->ij", basis[:, tile], cb, out=screen)
            screen += half[tile]
            screen *= scale
            half[tile] = screen
    return halves
