"""Complex-field beam propagation from satellite to ground.

A realization of the channel is one pass of a sampled Gaussian beam through
the slab plan: vacuum transfer-function hops alternate with mid-slab phase
screens, and the received power inside the telescope aperture, relative to
the unit-power source, is the transmissivity of that realization.

Vacuum hops are paraxial, within pi N lambda^2 / (16 dx^2) rad of the exact
angular spectrum (see ``propagate_vacuum``), and separable: every transfer
function and chirp exp(ia(x^2 + y^2)) is cached as its length-N axis factor
exp(iax^2) and applied along each axis in turn.  Kernels are referenced to
the on-axis plane wave (the carrier phase exp(ikz) is dropped), so composing
many short hops agrees with one long hop to machine precision.

Fields, kernels and hops are float64 throughout.  The one exception is the
screen imprint: its phasor is the float32 cos and sin of the phase reduced
by whole turns in float64, restored to unit modulus by one float64 Newton
step, so its angle is good to 3e-7 rad and its modulus to 1e-13.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .atmosphere import AtmosphereProfile, LinkGeometry
from .errors import NumericalError, UsageError
from .screens import (
    _MAX_SLABS,
    PhaseScreen,
    ScreenStreams,
    SlabPlan,
    Workspace,
    _centered_coords,
    _row_tiles,
    generate_screen,
    locked_cache,
)

# Outermost frame, in cells, that the aliasing guard inspects after a hop,
# and the power fraction there beyond which the window is declared too small.
_EDGE_GUARD_CELLS = 2
_EDGE_GUARD_FRACTION = 1e-4

# Super-Gaussian absorber exp(-strength * v**order), v = radius in units of
# the half window.  Order 128 keeps the inner 90% to better than 2e-5 in
# amplitude while pulling the edge down to exp(-12).
_APODIZATION_STRENGTH = 12.0
_APODIZATION_ORDER = 128

_TURN = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class ComplexField:
    """Square sampled complex amplitude at one plane along the path."""

    grid: np.ndarray
    spacing: float
    wavelength: float
    z: float = 0.0

    def __post_init__(self) -> None:
        g = self.grid
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise UsageError(f"field grid must be square, got shape {g.shape}")
        if self.spacing <= 0.0:
            raise UsageError("grid spacing must be positive")
        if self.wavelength <= 0.0:
            raise UsageError("wavelength must be positive")

    @property
    def size(self) -> int:
        return self.grid.shape[0]

    @property
    def window(self) -> float:
        return self.size * self.spacing


def gaussian_source(geom: LinkGeometry, grid_size: int = 1024) -> ComplexField:
    """Unit-power fundamental Gaussian at its waist, on an 8*w0 window.

    The discrete power is renormalized to exactly one so that every
    downstream loss (clipping, apodization, aperture) is charged against
    a clean unit budget.
    """
    n = grid_size
    if n <= 0 or n & (n - 1):
        raise UsageError(f"grid size must be a power of two, got {n}")
    w0 = geom.beam_waist
    spacing = 8.0 * w0 / n
    if spacing > w0 / 8.0:
        raise UsageError(
            f"grid size {n} leaves fewer than 8 samples across the beam waist"
        )
    x = _centered_coords(n, spacing)
    r2 = x[:, None] ** 2 + x[None, :] ** 2
    grid = (math.sqrt(2.0 / math.pi) / w0) * np.exp(-r2 / w0**2)
    grid = grid.astype(np.complex128)
    grid /= math.sqrt(np.sum(np.abs(grid) ** 2) * spacing**2)
    return ComplexField(grid, spacing, geom.wavelength, 0.0)


def vacuum_beam_radius(geom: LinkGeometry, z: float) -> float:
    """1/e^2 intensity radius of the unperturbed beam a distance z from the waist."""
    return geom.beam_waist * math.sqrt(1.0 + (z / geom.rayleigh_range) ** 2)


def choose_receiver_window(geom: LinkGeometry, aperture_radii) -> float:
    """Receiver-plane window: max(8 x diffracted beam radius, 4 x largest aperture)."""
    return max(8.0 * vacuum_beam_radius(geom, geom.path_length), 4.0 * max(aperture_radii))


# one entry per fixed-grid hop of a realization: at most one per screen
@locked_cache(maxsize=_MAX_SLABS)
def _angular_spectrum_kernel(
    n: int, spacing: float, wavelength: float, distance: float
) -> np.ndarray:
    """Axis factor of the paraxial transfer function exp(-i pi lambda d (fx^2 + fy^2))."""
    f = np.fft.fftfreq(n, d=spacing)
    kernel = np.exp(1j * (-math.pi * wavelength * distance) * (f * f))
    kernel.setflags(write=False)
    return kernel


@locked_cache(maxsize=4)
def _fresnel_factors(n: int, d1: float, wavelength: float, distance: float, d2: float):
    """Axis factors of the chirps of the two-step transform d1 -> d2 over distance.

    Each step is a centered FFT, fftshift(fft2(ifftshift(x))).  On an even
    grid that equals s * fft2(s * x) with the checkerboard s = (-1)^(i+j),
    so s is folded into the input and output chirps (s * s = 1 between the
    steps) and the hop needs no shifted copies; a sign flip is exact.  The
    output chirp also carries the scale, as its square root on each axis.
    """
    if n % 2:
        raise UsageError(f"a rescaling hop needs an even grid size, got {n}")
    m = d2 / d1
    dz1 = distance / (1.0 + m)
    dz2 = distance - dz1
    di = wavelength * dz1 / (n * d1)
    k = 2.0 * math.pi / wavelength

    def chirp(spacing: float, curvature: float) -> np.ndarray:
        x = _centered_coords(n, spacing)
        return np.exp(1j * (0.5 * k * curvature) * (x * x))

    sign = 1 - 2 * (np.arange(n) % 2)
    q1 = chirp(d1, 1.0 / dz1) * sign
    # outgoing chirp of the first step and incoming chirp of the second
    qi = chirp(di, 1.0 / dz1 + 1.0 / dz2)
    # the scale is -(d1 di)^2 / (lambda^2 dz1 dz2); its square root is imaginary
    root = 1j * d1 * di / (wavelength * math.sqrt(dz1 * dz2))
    q2 = chirp(d2, 1.0 / dz2) * (root * sign)
    for factor in (q1, qi, q2):
        factor.setflags(write=False)
    return q1, qi, q2


def _power_sum(grid: np.ndarray) -> float:
    """Sum of |E|^2 without an |E|^2 array (einsum loops, not a BLAS dot)."""
    return float(
        np.einsum("ij,ij->", grid.real, grid.real) + np.einsum("ij,ij->", grid.imag, grid.imag)
    )


def _edge_power_fraction(grid: np.ndarray) -> float:
    flat = grid.reshape(-1).view(np.float64)  # one pass for the total
    total = float(np.einsum("i,i->", flat, flat))
    if total <= 0.0:
        return 0.0
    c = _EDGE_GUARD_CELLS
    frame = (
        _power_sum(grid[:c])
        + _power_sum(grid[-c:])
        + _power_sum(grid[c:-c, :c])
        + _power_sum(grid[c:-c, -c:])
    )
    return frame / total


def propagate_vacuum(
    field: ComplexField,
    distance: float,
    target_spacing: float | None = None,
    workspace: Workspace | None = None,
) -> ComplexField:
    """Diffract the field forward through vacuum.

    With no rescaling and a kernel that stays Nyquist-sampled
    (dx * N dx >= lambda d) the paraxial transfer function
    exp(-i pi lambda d f^2) is applied on the fixed grid, one axis at a time;
    otherwise the hop runs as two Fresnel steps whose intermediate plane
    magnifies the window from the current spacing to target_spacing.
    The paraxial phase is off the exact (kz - k) d by pi d lambda^3 f^4 / 4
    to leading order: pi d lambda^3 / (16 dx^4) at the Nyquist corner, at
    most pi N lambda^2 / (16 dx^2) under the sampling condition.  While
    dx >= lambda no component is evanescent.
    The result is a new array, or a workspace's ``field``, which may be
    the input's own grid.
    """
    if distance < 0.0:
        raise UsageError("propagation distance must be nonnegative")
    if target_spacing is not None and target_spacing <= 0.0:
        raise UsageError("target spacing must be positive")
    resize = target_spacing is not None and not math.isclose(
        target_spacing, field.spacing, rel_tol=1e-12
    )
    if distance == 0.0:
        if resize:
            raise UsageError("cannot rescale the grid over a zero-length hop")
        return field
    n = field.size
    grid = (Workspace(n) if workspace is None else workspace).field
    # fftn and ifftn rather than fft2 and ifft2, which ignore out=
    if not resize and field.spacing * field.window >= field.wavelength * distance:
        h = _angular_spectrum_kernel(n, field.spacing, field.wavelength, distance)
        np.fft.fftn(field.grid, out=grid)
        grid *= h
        grid *= h[:, None]
        np.fft.ifftn(grid, out=grid)
        spacing = field.spacing
    else:
        spacing = target_spacing if resize else field.spacing
        q1, qi, q2 = _fresnel_factors(n, field.spacing, field.wavelength, distance, spacing)
        np.multiply(field.grid, q1, out=grid)
        grid *= q1[:, None]
        np.fft.fftn(grid, out=grid)
        grid *= qi
        grid *= qi[:, None]
        np.fft.fftn(grid, out=grid)
        grid *= q2
        grid *= q2[:, None]
    out = ComplexField(grid, spacing, field.wavelength, field.z + distance)
    fraction = _edge_power_fraction(grid)
    if fraction > _EDGE_GUARD_FRACTION:
        raise NumericalError(
            f"{fraction:.3e} of the power sits within {_EDGE_GUARD_CELLS} cells of "
            f"the grid edge after a {distance:.6g} m hop "
            f"(n={n}, spacing={out.spacing:.6g} m, window={out.window:.6g} m); "
            "enlarge the window or rescale the grid"
        )
    return out


def _unit_phasor(phase: np.ndarray, phasor: np.ndarray, scratch: np.ndarray) -> None:
    """exp(i phase) into the complex128 phasor, through float32 (SIMD) cos and sin.

    The phase is reduced by whole turns in float64, and one float64 Newton
    step p *= (3 - |p|^2) / 2 restores unit modulus.  ``phasor`` and
    ``scratch`` (float64) are contiguous arrays of the phase's shape.  The
    reduced angles sit in the phasor's first half until their cast into
    ``scratch``, read as two float32 arrays, which then hold cos and sin;
    once they are widened, ``scratch`` takes the float64 Newton factor.
    """
    shape = phase.shape
    angle = phasor.reshape(-1).view(np.float64)[: phase.size].reshape(shape)
    np.multiply(phase, 1.0 / _TURN, out=angle)
    np.rint(angle, out=angle)
    angle *= _TURN
    np.subtract(phase, angle, out=angle)
    reduced, cosine = scratch.reshape(-1).view(np.float32).reshape(2, *shape)
    np.copyto(reduced, angle, casting="same_kind")
    np.cos(reduced, out=cosine)
    np.sin(reduced, out=reduced)
    phasor.real = cosine
    phasor.imag = reduced
    newton = scratch
    np.abs(phasor, out=newton)
    np.square(newton, out=newton)
    np.subtract(3.0, newton, out=newton)
    newton *= 0.5
    phasor *= newton


def apply_screen(
    field: ComplexField, screen: PhaseScreen, workspace: Workspace | None = None
) -> ComplexField:
    """Imprint one phase screen; unit-modulus, so power is untouched.

    The phasor's angle is float32-accurate (within 3e-7 rad of the phase)
    and its modulus float64-accurate (|p|^2 within 1e-13 of one).  It is
    built and multiplied in one row tile at a time, in the workspace's
    ``phasor`` and ``scratch`` tiles, so the screen may be a half of the
    workspace's ``spectrum``.  The result is a new array, or a workspace's
    ``field``, which may be the input's own grid.
    """
    if screen.grid.shape != field.grid.shape:
        raise UsageError(
            f"screen shape {screen.grid.shape} does not match field {field.grid.shape}"
        )
    if not math.isclose(screen.spacing, field.spacing, rel_tol=1e-9):
        raise UsageError(
            f"screen spacing {screen.spacing!r} does not match field {field.spacing!r}"
        )
    ws = Workspace(field.size) if workspace is None else workspace
    for tile in _row_tiles(field.size):
        rows = tile.stop - tile.start
        phasor = ws.phasor[:rows]
        _unit_phasor(screen.grid[tile], phasor, ws.scratch[:rows])
        np.multiply(field.grid[tile], phasor, out=ws.field[tile])
    return ComplexField(ws.field, field.spacing, field.wavelength, field.z)


@locked_cache(maxsize=8)
def _apodization_mask(n: int) -> np.ndarray:
    """Super-Gaussian absorber on the N x N grid, built by row tiles."""
    v = (np.arange(n) - n // 2) / (n / 2.0)
    mask = np.empty((n, n))
    for tile in _row_tiles(n):
        r = np.sqrt(v[tile, None] ** 2 + v[None, :] ** 2)
        np.exp(-_APODIZATION_STRENGTH * r**_APODIZATION_ORDER, out=mask[tile])
    mask.setflags(write=False)
    return mask


def split_step(
    source: ComplexField,
    plan: SlabPlan,
    profile: AtmosphereProfile,
    streams: ScreenStreams,
    receiver_window: float,
) -> ComplexField:
    """One channel realization: source plane to receiver plane through the plan.

    Slabs are walked from the top of the atmosphere down.  Consecutive
    vacuum stretches (the exoatmospheric gap plus half slabs on either
    side of each screen) coalesce into single hops, and the first hop
    also rescales the grid to the receiver window.  The soft edge
    absorber runs before every hop; whatever it removes stays removed
    and is charged to the measured transmissivity.  Turbulent slabs are
    paired in walk order: one spectral draw from the stream of the pair's
    first slab serves both, and the second screen is held until its slab.
    Everything runs in one workspace: the first hop copies the source into
    it, and after that no N x N array is allocated.
    """
    if receiver_window <= 0.0:
        raise UsageError("receiver window must be positive")
    n = source.size
    target = receiver_window / n
    walk = range(len(plan.slabs) - 1, -1, -1)
    turbulent = [idx for idx in walk if plan.slabs[idx].has_screen]
    partner = dict(zip(turbulent[0::2], turbulent[1::2]))
    workspace = Workspace(n)

    def hop(field: ComplexField, dist: float, first: bool) -> ComplexField:
        if dist == 0.0 and not first:
            return field
        # the first hop reads the source, which every realization and
        # worker shares, and writes the workspace; later hops run in place
        np.multiply(field.grid, _apodization_mask(n), out=workspace.field)
        absorbed = ComplexField(workspace.field, field.spacing, field.wavelength, field.z)
        return propagate_vacuum(absorbed, dist, target if first else None, workspace=workspace)

    field = source
    pending = 0.0
    first = True
    held: list[PhaseScreen] = []
    for idx in walk:
        slab = plan.slabs[idx]
        if not slab.has_screen:
            pending += slab.path_length
            continue
        half = 0.5 * slab.path_length
        field = hop(field, pending + half, first)
        first = False
        if held:
            screen = held.pop()
        else:
            pair = (slab, plan.slabs[partner[idx]]) if idx in partner else (slab,)
            screen, *held = generate_screen(
                pair, n, field.spacing, streams.generator(idx), profile, workspace=workspace
            )
        field = apply_screen(field, screen, workspace=workspace)
        pending = half
    return hop(field, pending, first)


def _quadrant_area(x: np.ndarray, y: np.ndarray, radius: float) -> np.ndarray:
    """Area of [0,x] x [0,y] intersected with the origin-centered disk (x,y >= 0)."""
    x = np.minimum(x, radius)
    y = np.minimum(y, radius)
    corner_inside = x * x + y * y <= radius * radius

    def arc_integral(u: np.ndarray) -> np.ndarray:
        # antiderivative of sqrt(radius^2 - u^2)
        s = np.sqrt(np.maximum(radius * radius - u * u, 0.0))
        return 0.5 * (u * s + radius * radius * np.arcsin(np.clip(u / radius, 0.0, 1.0)))

    crossover = np.minimum(x, np.sqrt(np.maximum(radius * radius - y * y, 0.0)))
    clipped = y * crossover + arc_integral(x) - arc_integral(crossover)
    return np.where(corner_inside, x * y, clipped)


def _signed_corner_area(x: np.ndarray, y: np.ndarray, radius: float) -> np.ndarray:
    return np.sign(x) * np.sign(y) * _quadrant_area(np.abs(x), np.abs(y), radius)


def _aperture_span(n: int, spacing: float, radius: float) -> slice:
    """Rows (and columns) of the cells that the centered disc can touch."""
    reach = math.ceil(radius / spacing + 0.5)
    return slice(max(n // 2 - reach, 0), min(n // 2 + reach + 1, n))


@locked_cache(maxsize=32)
def _aperture_weights(n: int, spacing: float, radius: float) -> np.ndarray:
    """Per-cell fraction of area inside the circular aperture, exact at the rim.

    Only the block ``[span, span]`` of ``_aperture_span`` is held; other cells weigh zero.
    """
    centers = _centered_coords(n, spacing)[_aperture_span(n, spacing, radius)]
    lo = (centers - 0.5 * spacing)[:, None]
    hi = (centers + 0.5 * spacing)[:, None]
    area = (
        _signed_corner_area(hi, hi.T, radius)
        - _signed_corner_area(lo, hi.T, radius)
        - _signed_corner_area(hi, lo.T, radius)
        + _signed_corner_area(lo, lo.T, radius)
    )
    weights = np.clip(area / spacing**2, 0.0, 1.0)
    weights.setflags(write=False)
    return weights


def aperture_transmissivity(field: ComplexField, radius: float) -> float:
    """Power collected by a centered circular aperture, per unit source power."""
    if radius < 2.0 * field.spacing:
        raise UsageError(
            f"aperture radius {radius!r} m spans fewer than 2 grid cells "
            f"(spacing {field.spacing!r} m); refine the receiver grid"
        )
    weights = _aperture_weights(field.size, field.spacing, radius)
    span = _aperture_span(field.size, field.spacing, radius)
    block = field.grid[span, span]
    power = np.einsum("ij,ij,ij->", weights, block.real, block.real) + np.einsum(
        "ij,ij,ij->", weights, block.imag, block.imag
    )
    return min(float(power) * field.spacing**2, 1.0)
