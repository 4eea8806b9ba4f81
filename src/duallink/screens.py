"""Slab partitioning of the turbulent path and random phase screen synthesis.

A slab is a horizontal altitude band thin enough that its own scintillation
is negligible, both in absolute terms and relative to the whole channel;
each turbulent slab is represented by one random phase screen placed at the
middle of its slant extent. Screens are drawn from the modified von Karman
spectrum with the slab's local Fried parameter.

The FFT sampling of the spectrum misses power below one grid-window cycle,
which shows up as a structure-function deficit at large separations. Three
levels of 3x3 subharmonic patches repair this; each patch amplitude carries
the PSD integrated over its frequency cell (tensor Gauss-Legendre) rather
than a midpoint sample, because near zero frequency the spectrum is so steep
that midpoint weighting underfills the cells by tens of percent.
"""

from __future__ import annotations

import functools
import math
import threading
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
    rytov_variance,
    scintillation_index,
)
from .errors import UsageError

# Both slab conditions: absolute scintillation bound and share of the total.
_SLAB_SIGMA_CAP = 0.1
_SLAB_SHARE_CAP = 0.1
_MAX_SLABS = 64
# Cell edges of the running Cn2 and Rytov integrals that place the slab edges.
_PLANNING_EDGES = 2000
# Fraction of the integrated Cn2 kept below the modeled turbulence top.
_EFFECTIVE_ATMOSPHERE_FRACTION = 0.999


def locked_cache(maxsize: int):
    """``lru_cache`` for per-geometry arrays shared by concurrent workers.

    Every lookup holds one lock per decorated function, so workers that
    miss together build each entry once instead of once per worker.  The
    decorated name keeps ``cache_info()`` and ``cache_clear()``.
    """

    def decorate(func):
        cached = functools.lru_cache(maxsize=maxsize)(func)
        lock = threading.Lock()

        @functools.wraps(func)
        def lookup(*args):
            with lock:
                return cached(*args)

        lookup.cache_info = cached.cache_info
        lookup.cache_clear = cached.cache_clear
        return lookup

    return decorate


class ScreenResolutionWarning(UserWarning):
    """Grid window too small to resolve the outer scale of the spectrum."""


@dataclass(frozen=True)
class Slab:
    """One altitude band of the propagation path."""

    h_lo: float
    h_hi: float
    path_length: float  # slant distance across the band
    fried: float  # local r0 over the band; r0 = inf is vacuum

    @property
    def has_screen(self) -> bool:
        return self.fried < math.inf


@dataclass(frozen=True)
class SlabPlan:
    """Contiguous slabs from the ground up; the last is pure vacuum."""

    slabs: tuple[Slab, ...]

    def __post_init__(self) -> None:
        if not self.slabs:
            raise UsageError("a slab plan needs at least one slab")
        for a, b in zip(self.slabs[:-1], self.slabs[1:]):
            if not math.isclose(a.h_hi, b.h_lo, rel_tol=0.0, abs_tol=1e-6):
                raise UsageError("slabs must be contiguous and non-overlapping")


@dataclass(frozen=True, eq=False)
class PhaseScreen:
    """One random phase realization on a square grid (radians)."""

    grid: np.ndarray
    spacing: float


# Row tiles hold at most this many bytes of complex128: 64 rows at grid 512,
# 32 at 1024, the whole grid at 128 and below.
_TILE_BYTES = 1 << 19


def _row_tiles(n: int) -> list[slice]:
    """Slices of at most ``_TILE_BYTES // (16 N)`` rows that cover N rows."""
    step = max(1, min(n, _TILE_BYTES // (16 * n)))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


class Workspace:
    """The buffers of one channel realization, written in place.

    ``field`` and ``spectrum`` (complex128, N x N) are the only full grids:
    the running field, and a screen pair's spectral draw, whose real and
    imaginary halves become the pair's two screens and hold the second
    until its slab.  Everything else runs over row tiles: ``phasor``
    (complex128) is a tile's imprint phasor, and ``scratch`` (float64, the
    same rows) a tile of normal draws or of a finished screen, or the
    imprint's float32 angles and cos/sin.  Never shared between
    realizations or workers; a call given none makes a fresh one and
    touches only the buffers it uses.
    """

    def __init__(self, n: int) -> None:
        self.field = np.empty((n, n), dtype=complex)
        self.spectrum = np.empty((n, n), dtype=complex)
        rows = _row_tiles(n)[0].stop
        self.phasor = np.empty((rows, n), dtype=complex)
        self.scratch = np.empty((rows, n))


@dataclass(frozen=True)
class ScreenStreams:
    """Counter-based random substreams, one per (realization, screen pair).

    A realization's screens are drawn in pairs of consecutive turbulent
    slabs, and each pair's stream is keyed by the slab index of the pair's
    first slab (an odd last screen is a pair of one).  Every stream is
    derived from (master seed, realization, slab index) alone, so any
    subset of realizations can be regenerated bit-identically in any
    execution order and on any worker count.
    """

    master_seed: int
    realization: int

    def generator(self, slab_index: int) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.realization, slab_index)
        )
        return np.random.Generator(np.random.Philox(seq))


def plan_slabs(geom: LinkGeometry, profile: AtmosphereProfile) -> SlabPlan:
    """Greedy bottom-up partition of the turbulent path.

    Each slab grows upward until its locally evaluated scintillation index
    would reach the cap (the lesser of 0.1 and 10% of the whole-channel
    value); everything above the altitude holding 99.9% of the integrated
    Cn2 becomes a single vacuum slab with no screen.
    """
    h0 = geom.ground_altitude
    top = geom.satellite_altitude
    sec = geom.sec_zenith

    def vacuum(h_lo: float, h_hi: float) -> Slab:
        return Slab(h_lo, h_hi, (h_hi - h_lo) * sec, math.inf)

    if profile.cn2_scale == 0.0:
        return SlabPlan((vacuum(h0, top),))

    hs, cum_cn2 = _cumulative_integral(lambda h: cn2(h, profile), h0, top, _PLANNING_EDGES)
    _, cum_ryt = _cumulative_integral(_rytov_density(geom, profile), h0, top, _PLANNING_EDGES)

    h_top = float(
        np.interp(_EFFECTIVE_ATMOSPHERE_FRACTION * cum_cn2[-1], cum_cn2, hs)
    )

    sigma_total = scintillation_index(rytov_variance(geom, profile))
    cap = min(_SLAB_SIGMA_CAP, _SLAB_SHARE_CAP * sigma_total)
    if cap <= 0.0:
        raise UsageError("whole-channel scintillation index must be positive to plan slabs")
    # Rytov budget per slab for a scintillation index just under the cap,
    # by bisection: the index rises monotonically from 0 and exceeds 0.7 at 1.
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if scintillation_index(mid) < cap * (1.0 - 1e-3):
            lo = mid
        else:
            hi = mid
    budget = 0.5 * (lo + hi)

    edges = [h0]
    ryt_at = lambda h: float(np.interp(h, hs, cum_ryt))
    while edges[-1] < h_top:
        if len(edges) > _MAX_SLABS:
            raise UsageError(
                f"slab conditions need more than {_MAX_SLABS} slabs; "
                "check the turbulence profile and geometry"
            )
        target = ryt_at(edges[-1]) + budget
        if target >= ryt_at(h_top):
            edges.append(h_top)
        else:
            edges.append(float(np.interp(target, cum_ryt, hs)))

    slabs = [
        Slab(h_lo, h_hi, (h_hi - h_lo) * sec, fried_parameter(geom, profile, h_lo, h_hi))
        for h_lo, h_hi in zip(edges[:-1], edges[1:])
    ]
    if h_top < top:
        slabs.append(vacuum(h_top, top))
    return SlabPlan(tuple(slabs))


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

# The r0-independent spectral factors repeat across every screen of a run,
# so they are cached per grid geometry (r0 enters as a scalar power).
@locked_cache(maxsize=8)
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


@locked_cache(maxsize=8)
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


def generate_screen(
    slabs: tuple[Slab, ...],
    grid_size: int,
    spacing: float,
    rng: np.random.Generator,
    profile: AtmosphereProfile,
    workspace: Workspace | None = None,
) -> tuple[PhaseScreen, ...]:
    """Draw the phase screens of one or two slabs on an N x N grid.

    Spectral synthesis: circular-Gaussian amplitudes weighted by
    sqrt(PSD) * df on the FFT lattice, plus three levels of 3x3
    subharmonic patches whose amplitudes carry the cell-integrated PSD.
    The real and imaginary parts of the inverse transform are two
    independent screens: the real part goes to the first slab and the
    imaginary part to the second, each with its own subharmonic draws
    taken in slab order after the spectral draw.  A one-slab call makes
    only the first slab's draws.  A vacuum slab (r0 = inf) gets a zero
    screen, since its r0^(-5/6) scale is exactly zero.  The screens are
    the real and imaginary halves of the workspace's ``spectrum`` (strided
    views), so they last until its next draw.
    """
    n = grid_size
    if n <= 0 or n & (n - 1):
        raise UsageError(f"grid size must be a power of two, got {n}")
    if spacing <= 0.0:
        raise UsageError("grid spacing must be positive")
    if not 1 <= len(slabs) <= 2:
        raise UsageError(f"one or two slabs per spectral draw, got {len(slabs)}")
    l_out, l_in = profile.outer_scale, profile.inner_scale
    if n * spacing < l_out / 2.0:
        warnings.warn(
            f"grid window {n * spacing:.3g} m resolves less than half the outer scale "
            f"{l_out:.3g} m; low-frequency phase power will be underrepresented",
            ScreenResolutionWarning,
            stacklevel=2,
        )

    # DC cell is zeroed in the cached factor; the subharmonic levels own
    # everything below one window cycle.  The N^2 real-part normals, then
    # the N^2 imaginary-part normals, are drawn one row tile at a time (the
    # generator fills sequentially, so the stream is that of one N x N
    # draw).  Each slab's r0 scale is applied once, to its finished screen.
    ws = Workspace(n) if workspace is None else workspace
    factor = _fft_amplitude_factor(n, spacing, l_out, l_in)
    spectrum = ws.spectrum
    tiles = _row_tiles(n)
    for half in (spectrum.real, spectrum.imag):
        for tile in tiles:
            draws = ws.scratch[: tile.stop - tile.start]
            rng.standard_normal(out=draws)
            np.multiply(draws, factor[tile], out=half[tile])
    # ifftn rather than ifft2: numpy's ifft2 ignores out=
    np.fft.ifftn(spectrum, norm="forward", out=spectrum)

    weights, basis, means = _subharmonic_factors(n, spacing, l_out, l_in)
    screens = []
    for slab, half in zip(slabs, (spectrum.real, spectrum.imag)):
        coeff = np.zeros((len(basis), len(basis)))
        for sqrt_w, rows in zip(weights, _LEVEL_ROWS):
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
        screens.append(PhaseScreen(half, spacing))
    return tuple(screens)
