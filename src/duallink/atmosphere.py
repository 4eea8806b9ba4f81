"""Deterministic turbulence characterization for a slant satellite-to-Earth path.

The refractive-index structure "constant" Cn2 varies by roughly fourteen
orders of magnitude between the ground layer and the upper atmosphere, so
every path integral here is a fixed Gauss-Legendre rule on log-spaced
altitude cells rather than one rule over the whole path: a single pass
over [0, 500 km] steps straight over the 100 m thick ground layer and
silently loses a percent-level fraction of the integral, while log cells
make the lowest ones a few meters wide. A thin linear cell covers the
first meter, since log spacing needs a positive start. The same routine
returns the running integral at every cell edge, which is what slab
planning inverts. It is cross-checked in the test suite against an
independently coded fixed-step trapezoid rule.

Altitudes are measured vertically in meters; zenith angles enter only
through secant factors on the path integrals. Angles cross the API
boundary in degrees and are converted to radians exactly once.

A path with no turbulence (integrated Cn2 below a fixed floor) is its
physical limit rather than a special value: r0 = inf, whose r0^(-5/6)
screen scale is exactly zero, and tau0 = inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UsageError

# Altitude band (m) over which the rms wind is defined.
_WIND_BAND = (5.0e3, 20.0e3)
# Integrated-Cn2 floor below which a segment counts as turbulence free.
_TURBULENCE_FLOOR = 1e-30
# Log-spaced altitude cell edges per path integral, and Gauss-Legendre
# nodes per cell.
_CELL_EDGES = 60
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class LinkGeometry:
    """Physical scene: ground station, satellite, beam, and receive aperture."""

    ground_altitude: float
    satellite_altitude: float
    zenith_angle: float  # degrees
    wavelength: float
    beam_waist: float
    aperture_radius: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.ground_altitude < self.satellite_altitude:
            raise UsageError(
                "require 0 <= ground altitude < satellite altitude, got "
                f"{self.ground_altitude} and {self.satellite_altitude}"
            )
        if not 0.0 <= self.zenith_angle < 90.0:
            raise UsageError(f"zenith angle must lie in [0, 90) deg, got {self.zenith_angle}")
        for name in ("wavelength", "beam_waist", "aperture_radius"):
            if getattr(self, name) <= 0.0:
                raise UsageError(f"{name} must be positive")

    @property
    def zenith_rad(self) -> float:
        return math.radians(self.zenith_angle)

    @property
    def sec_zenith(self) -> float:
        return 1.0 / math.cos(self.zenith_rad)

    @property
    def path_length(self) -> float:
        """Slant distance from satellite to ground station."""
        return (self.satellite_altitude - self.ground_altitude) * self.sec_zenith

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def rayleigh_range(self) -> float:
        return math.pi * self.beam_waist**2 / self.wavelength


def bufton_wind(h, Vg: float):
    """Wind speed (m/s) at altitude h (scalar or array): ground value plus a
    tropopause gust bump."""
    if np.any(h < 0.0):
        raise UsageError(f"altitude must be nonnegative, got {np.min(h)}")
    return Vg + 30.0 * np.exp(-(((h - 9400.0) / 4800.0) ** 2))


def rms_wind(Vg: float) -> float:
    """Root-mean-square wind over the 5-20 km band that drives high-altitude Cn2."""
    if Vg < 0.0:
        raise UsageError("ground wind speed must be nonnegative")
    # Closed form of the integral of (Vg + 30 exp(-u^2))^2 over the band,
    # u = (h - 9400) / 4800: a constant, an erf and an erf at sqrt(2) u.
    lo, hi = _WIND_BAND
    u_lo, u_hi = (lo - 9400.0) / 4800.0, (hi - 9400.0) / 4800.0
    root2 = math.sqrt(2.0)
    gust = 0.5 * math.sqrt(math.pi) * 4800.0 * (math.erf(u_hi) - math.erf(u_lo))
    gust_sq = (
        0.5 * math.sqrt(0.5 * math.pi) * 4800.0
        * (math.erf(root2 * u_hi) - math.erf(root2 * u_lo))
    )
    total = Vg * Vg * (hi - lo) + 60.0 * Vg * gust + 900.0 * gust_sq
    return math.sqrt(total / (hi - lo))


@dataclass(frozen=True)
class AtmosphereProfile:
    """Hufnagel-Valley style turbulence profile plus spectrum scale bounds.

    ``cn2_scale`` is a global multiplier on Cn2 (0 disables turbulence
    entirely), used for scaling-law checks and vacuum baselines.
    """

    ground_cn2: float  # A, m^(-2/3)
    ground_wind: float  # Vg, m/s
    outer_scale: float  # m
    inner_scale: float  # m
    cn2_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.ground_cn2 <= 0.0:
            raise UsageError("ground turbulence strength A must be positive")
        if not 0.0 < self.inner_scale < self.outer_scale:
            raise UsageError("require 0 < inner scale < outer scale")
        if self.cn2_scale < 0.0:
            raise UsageError("cn2_scale must be nonnegative")
        if self.ground_wind < 0.0:
            raise UsageError("ground wind speed must be nonnegative")

    @property
    def rms_wind_speed(self) -> float:
        """Rms wind over the 5-20 km band, derived from ``ground_wind``."""
        return rms_wind(self.ground_wind)


def cn2(h, profile: AtmosphereProfile):
    """Refractive-index structure parameter Cn2(h) in m^(-2/3), h scalar or array.

    Three additive layers: a high-altitude term driven by the rms wind, a
    mid-altitude exponential, and the ground layer with strength A.
    """
    if np.any(h < 0.0):
        raise UsageError(f"altitude must be nonnegative, got {np.min(h)}")
    v = profile.rms_wind_speed
    high = 0.00594 * (v / 27.0) ** 2 * (h * 1e-5) ** 10 * np.exp(-h / 1000.0)
    mid = 2.7e-16 * np.exp(-h / 1500.0)
    ground = profile.ground_cn2 * np.exp(-h / 100.0)
    return profile.cn2_scale * (high + mid + ground)


def _cumulative_integral(f, a: float, b: float, edges: int = _CELL_EDGES):
    """Running integral of the vectorized integrand f from a to each cell edge.

    The cells are a linear sliver [a, 1 m] when a < 1 m, then ``edges - 1``
    log-spaced cells up to b; each takes a fixed Gauss-Legendre rule, so
    narrow low-altitude structure is resolved however wide [a, b] is.
    Returns the cell edges and the integral at each of them (0 at a).
    """
    lo = min(max(a, 1.0), b)
    h = np.geomspace(lo, b, edges)
    if a < lo:
        h = np.concatenate(([a], h))
    half = 0.5 * np.diff(h)
    nodes = (h[:-1] + half)[:, None] + half[:, None] * _GL_NODES
    cells = (f(nodes) * _GL_WEIGHTS).sum(axis=1) * half
    if not np.all(np.isfinite(cells)):
        raise NumericalError(f"altitude integral over [{a}, {b}] is not finite")
    return h, np.concatenate(([0.0], np.cumsum(cells)))


def _band(geom: LinkGeometry, h_lo: float | None, h_hi: float | None) -> tuple[float, float]:
    a = geom.ground_altitude if h_lo is None else h_lo
    b = geom.satellite_altitude if h_hi is None else h_hi
    if not geom.ground_altitude <= a < b <= geom.satellite_altitude:
        raise UsageError(f"integration band [{a}, {b}] outside the path")
    return a, b


def _rytov_density(geom: LinkGeometry, profile: AtmosphereProfile):
    """Integrand of the downlink Rytov variance per meter of altitude.

    The altitude kernel (h - h0)^(5/6) is always anchored at the whole
    channel's ground altitude, so restricted bands add up to the full-path
    value and a slab partition conserves total scintillation.
    """
    scale = 2.25 * geom.wavenumber ** (7.0 / 6.0) * geom.sec_zenith ** (11.0 / 6.0)
    h0 = geom.ground_altitude
    return lambda h: scale * cn2(h, profile) * (h - h0) ** (5.0 / 6.0)


def integrated_cn2(
    geom: LinkGeometry,
    profile: AtmosphereProfile,
    h_lo: float | None = None,
    h_hi: float | None = None,
) -> float:
    """Vertical integral of Cn2 over [h_lo, h_hi] (defaults: full path)."""
    a, b = _band(geom, h_lo, h_hi)
    return float(_cumulative_integral(lambda h: cn2(h, profile), a, b)[1][-1])


def rytov_variance(
    geom: LinkGeometry,
    profile: AtmosphereProfile,
    h_lo: float | None = None,
    h_hi: float | None = None,
) -> float:
    """Weak-fluctuation log-amplitude variance for a downlink slant path,
    the integral of ``_rytov_density`` over [h_lo, h_hi] (defaults: full path)."""
    a, b = _band(geom, h_lo, h_hi)
    return float(_cumulative_integral(_rytov_density(geom, profile), a, b)[1][-1])


def fried_parameter(
    geom: LinkGeometry,
    profile: AtmosphereProfile,
    h_lo: float | None = None,
    h_hi: float | None = None,
) -> float:
    """Atmospheric coherence length r0 for the (optionally restricted) path.

    Restricting [h_lo, h_hi] yields the local r0 of one altitude slab, which
    is what the phase-screen synthesis consumes.  A turbulence-free segment
    has r0 = inf.
    """
    integral = integrated_cn2(geom, profile, h_lo, h_hi)
    if integral < _TURBULENCE_FLOOR:
        return math.inf
    k = geom.wavenumber
    return (0.423 * k**2 * geom.sec_zenith * integral) ** (-3.0 / 5.0)


def greenwood_and_coherence(geom: LinkGeometry, profile: AtmosphereProfile) -> tuple[float, float]:
    """Whole-channel Greenwood frequency f_G and coherence time tau0 = 0.134 / f_G.

    The Greenwood integral weights Cn2 by the 5/3 power of the wind speed;
    tau0 is the interval over which the channel transmissivity is treated
    as frozen.  A turbulence-free channel, by its wind-weighted integral
    or by its whole-path r0 = inf, gives (0, inf): it never decorrelates.
    """
    weighted = float(_cumulative_integral(
        lambda h: cn2(h, profile) * bufton_wind(h, profile.ground_wind) ** (5.0 / 3.0),
        geom.ground_altitude,
        geom.satellite_altitude,
    )[1][-1])
    if weighted < _TURBULENCE_FLOOR or fried_parameter(geom, profile) == math.inf:
        return 0.0, math.inf
    f_g = 2.31 * geom.wavelength ** (-6.0 / 5.0) * (geom.sec_zenith * weighted) ** (3.0 / 5.0)
    return f_g, 0.134 / f_g
