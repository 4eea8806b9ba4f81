"""Complex-field beam propagation from satellite to ground.

A realization of the channel is one pass of a sampled Gaussian beam through
the slab plan: vacuum transfer-function hops alternate with the slabs' phase
screens, and the received power inside the telescope aperture, relative to
the unit-power source, is the transmissivity of that realization.  What all
realizations read is built once, into a read-only ``Channel``.

Vacuum hops are paraxial, within pi N lambda^2 / (16 dx^2) rad of the exact
angular spectrum (see ``propagate_vacuum``), and separable: every transfer
function and chirp exp(ia(x^2 + y^2)) is built as its length-N axis factor
exp(iax^2) and applied along each axis in turn.  Kernels are referenced to
the on-axis plane wave (the carrier phase exp(ikz) is dropped), so composing
many short hops agrees with one long hop to machine precision.

Fields, kernels and hops are float64 throughout.  The one exception is the
screen imprint: its phasor is the float32 cos and sin of the phase reduced
by whole turns in float64, restored to unit modulus by one float64 Newton
step, so its angle is good to 3e-7 rad and its modulus to 1e-13.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .atmosphere import AtmosphereProfile, LinkGeometry
from .errors import NumericalError, UsageError
from .screens import (
    ScreenSpectrum,
    ScreenStreams,
    Slab,
    SlabPlan,
    Workspace,
    _centered_coords,
    _row_tiles,
    generate_screen,
    screen_spectrum,
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

# Edge of the blocks _transpose_in_place swaps: the fastest size tried at grids 512 and 1024.
_TRANSPOSE_BLOCK = 64


@dataclass(frozen=True, eq=False)
class ComplexField:
    """Square sampled complex amplitude at one plane, held as its transpose if ``transposed``."""

    grid: np.ndarray
    spacing: float
    wavelength: float
    transposed: bool = False

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
    return ComplexField(grid, spacing, geom.wavelength)


def vacuum_beam_radius(geom: LinkGeometry, z: float) -> float:
    """1/e^2 intensity radius of the unperturbed beam a distance z from the waist."""
    return geom.beam_waist * math.sqrt(1.0 + (z / geom.rayleigh_range) ** 2)


def choose_receiver_window(geom: LinkGeometry, aperture_radii) -> float:
    """Receiver-plane window: max(8 x diffracted beam radius, 4 x largest aperture)."""
    return max(8.0 * vacuum_beam_radius(geom, geom.path_length), 4.0 * max(aperture_radii))


# build_channel fills it with every hop of the walk; bench/run.py reports its cache_info()
@functools.lru_cache
def _angular_spectrum_kernel(
    n: int, spacing: float, wavelength: float, distance: float
) -> np.ndarray:
    """Axis factor of the paraxial transfer function exp(-i pi lambda d (fx^2 + fy^2))."""
    f = np.fft.fftfreq(n, d=spacing)
    kernel = np.exp(1j * (-math.pi * wavelength * distance) * (f * f))
    kernel.setflags(write=False)
    return kernel


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


def _transpose_in_place(grid: np.ndarray) -> None:
    """grid[...] = grid.T, each block swapped with its mirror through one staging block: no N x N
    temporary.  ``grid`` may be strided, such as one float64 half of a complex grid."""
    n = grid.shape[0]
    edge = min(_TRANSPOSE_BLOCK, n)
    stage = np.empty((edge, edge), dtype=grid.dtype)
    for i in range(0, n, edge):
        for j in range(i, n, edge):
            upper = grid[i : i + edge, j : j + edge]
            lower = grid[j : j + edge, i : i + edge]
            held = stage[: upper.shape[0], : upper.shape[1]]
            np.copyto(held, upper)
            if j > i:
                np.copyto(upper, lower.T)
            np.copyto(lower, held.T)


def propagate_vacuum(
    field: ComplexField,
    distance: float,
    target_spacing: float | None = None,
    out: np.ndarray | None = None,
) -> ComplexField:
    """Diffract the field forward through vacuum.

    With no rescaling and a kernel that stays Nyquist-sampled
    (dx * N dx >= lambda d) the paraxial transfer function
    exp(-i pi lambda d f^2) is applied on the fixed grid as two row passes
    (FFT, axis factor, inverse FFT) around one in-place transpose, which
    flips the field's ``transposed``; otherwise the hop runs as two Fresnel
    steps whose intermediate plane magnifies the window from the current
    spacing to target_spacing.  The paraxial phase is off the exact
    (kz - k) d by pi d lambda^3 f^4 / 4 to leading order: pi d lambda^3 /
    (16 dx^4) at the Nyquist corner, at most pi N lambda^2 / (16 dx^2) under
    the sampling condition.  While dx >= lambda no component is evanescent.
    The result is a new array, or ``out``, which may be the input's own grid.
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
    grid = np.empty_like(field.grid) if out is None else out
    spacing = target_spacing if resize else field.spacing
    fixed = not resize and field.spacing * field.window >= field.wavelength * distance
    if fixed:
        # one kernel serves both axes: the grid is square with one spacing
        h = _angular_spectrum_kernel(n, field.spacing, field.wavelength, distance)
        np.fft.fft(field.grid, out=grid)
        grid *= h
        np.fft.ifft(grid, out=grid)
        _transpose_in_place(grid)
        np.fft.fft(grid, out=grid)
        grid *= h
        np.fft.ifft(grid, out=grid)
    else:
        # both axes take the same factors, so a hop that does not rescale keeps the orientation
        if resize and field.transposed:
            raise UsageError("a rescaling hop needs an upright field")
        # fftn rather than fft2, which ignores out=
        q1, qi, q2 = _fresnel_factors(n, field.spacing, field.wavelength, distance, spacing)
        np.multiply(field.grid, q1, out=grid)
        grid *= q1[:, None]
        np.fft.fftn(grid, out=grid)
        grid *= qi
        grid *= qi[:, None]
        np.fft.fftn(grid, out=grid)
        grid *= q2
        grid *= q2[:, None]
    out = ComplexField(grid, spacing, field.wavelength, field.transposed != fixed)
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
    field: ComplexField, phase: np.ndarray, workspace: Workspace | None = None
) -> ComplexField:
    """Imprint one phase screen, a phase map (radians) on the field's own grid;
    unit-modulus, so power is untouched.

    The phasor's angle is float32-accurate (within 3e-7 rad of the phase)
    and its modulus float64-accurate (|p|^2 within 1e-13 of one).  It is
    built and multiplied in one row tile at a time, in the workspace's
    ``phasor`` and ``scratch`` tiles, so the phase may be a half of the
    workspace's ``spectrum``.  The result is a new array, or a workspace's
    ``field``, which may be the input's own grid.
    """
    if phase.shape != field.grid.shape:
        raise UsageError(f"screen shape {phase.shape} does not match field {field.grid.shape}")
    ws = Workspace(field.size) if workspace is None else workspace
    for tile in _row_tiles(field.size):
        rows = tile.stop - tile.start
        phasor = ws.phasor[:rows]
        _unit_phasor(phase[tile], phasor, ws.scratch[:rows])
        np.multiply(field.grid[tile], phasor, out=ws.field[tile])
    return replace(field, grid=ws.field)


def _apodization_mask(n: int) -> np.ndarray:
    """Super-Gaussian absorber on the N x N grid by row tiles, symmetric bit for bit."""
    v = (np.arange(n) - n // 2) / (n / 2.0)
    mask = np.empty((n, n))
    for tile in _row_tiles(n):
        r = np.sqrt(v[tile, None] ** 2 + v[None, :] ** 2)
        np.exp(-_APODIZATION_STRENGTH * r**_APODIZATION_ORDER, out=mask[tile])
    mask.setflags(write=False)
    return mask


def _hop(field: ComplexField, distance: float, target: float | None, mask, out) -> ComplexField:
    """Apodize into ``out`` (what the absorber takes is lost) and hop at ``target`` spacing."""
    if distance <= 0.0:
        return field
    np.multiply(field.grid, mask, out=out)
    absorbed = replace(field, grid=out)
    return propagate_vacuum(absorbed, distance, target, out=out)


@dataclass(frozen=True, eq=False)
class Channel:
    """What every realization of one ensemble reads and none writes.

    ``entry`` is the apodized, rescaled hop from ``gaussian_source`` to the
    first screen (or the ground).  ``draws`` is the walk from there, one
    spectral draw per pair of screens: its stream key (the upper slab's
    index), its slabs, and the hop before each screen.  ``last_hop`` reaches
    the ground.  ``screens`` is None for a vacuum plan."""

    entry: ComplexField
    draws: tuple[tuple[int, tuple[Slab, ...], tuple[float, ...]], ...]
    last_hop: float
    screens: ScreenSpectrum | None
    apodizer: np.ndarray
    apertures: tuple[Aperture, ...]


@functools.lru_cache(maxsize=1)
def build_channel(
    geom: LinkGeometry, profile: AtmosphereProfile, plan: SlabPlan, grid_size: int, radii: tuple
) -> Channel:
    """The channel of ``plan`` on an N x N grid whose receiver window holds every
    aperture radius; the last one built is kept, so a rerun of one config reuses it."""
    window = choose_receiver_window(geom, radii)
    apertures = tuple(circular_aperture(grid_size, window / grid_size, r) for r in radii)
    # (slab index, slant depth below the top) per screen, top down
    stops, ground = [], 0.0
    for idx, slab in reversed(list(enumerate(plan.slabs))):
        if slab.has_screen:
            stops.append((idx, ground + slab.screen_depth))
        ground += slab.path_length
    depths = [depth for _, depth in stops] + [ground]

    apodizer = _apodization_mask(grid_size)
    source = gaussian_source(geom, grid_size)
    entry = _hop(source, depths[0], window / grid_size, apodizer, source.grid)
    entry.grid.setflags(write=False)
    # each hop runs from the sum of the hops before it, begun at the entry's depth,
    # not from the previous depth: so every hop length, and every eta, keeps format
    # 7's bits.  Its kernel is built here
    hops, reached = [], depths[0]
    for depth in depths:
        hops.append(depth - reached)
        if hops[-1] > 0.0:
            reached += hops[-1]
            _angular_spectrum_kernel(grid_size, entry.spacing, entry.wavelength, hops[-1])
    draws = []
    for i in range(0, len(stops), 2):
        slabs = tuple(plan.slabs[idx] for idx, _ in stops[i : i + 2])
        draws.append((stops[i][0], slabs, tuple(hops[i : i + len(slabs)])))
    spectrum = screen_spectrum(grid_size, entry.spacing, profile) if stops else None
    return Channel(entry, tuple(draws), hops[-1], spectrum, apodizer, apertures)


def split_step(channel: Channel, streams: ScreenStreams) -> ComplexField:
    """One channel realization: the channel's entry field to the receiver plane.

    Screens are drawn in pairs: one spectral draw from the stream of the
    pair's upper slab serves both, each imprinted in the field's orientation.
    Everything runs in one workspace; the result is upright and never shares
    the entry's grid.
    """
    workspace = Workspace(channel.entry.size)
    field = channel.entry
    for index, slabs, hops in channel.draws:
        pair = generate_screen(slabs, channel.screens, streams.generator(index), workspace)
        for screen, distance in zip(pair, hops):
            field = _hop(field, distance, None, channel.apodizer, workspace.field)
            if field.transposed:
                _transpose_in_place(screen)
            field = apply_screen(field, screen, workspace=workspace)
    field = _hop(field, channel.last_hop, None, channel.apodizer, workspace.field)
    if field.transposed:  # never the entry, which a rescaling hop made
        _transpose_in_place(field.grid)
        return replace(field, transposed=False)
    return replace(field, grid=field.grid.copy()) if field is channel.entry else field


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


def _aperture_weights(n: int, spacing: float, radius: float) -> tuple[slice, np.ndarray]:
    """The rows (and columns) of the cells that the centered disc can touch, and
    their fractions of area inside it, exact at the rim; other cells weigh zero."""
    reach = math.ceil(radius / spacing + 0.5)
    span = slice(max(n // 2 - reach, 0), min(n // 2 + reach + 1, n))
    centers = _centered_coords(n, spacing)[span]
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
    return span, weights


@dataclass(frozen=True, eq=False)
class Aperture:
    """A centered circular aperture on one N x N grid, as ``_aperture_weights``."""

    size: int
    spacing: float
    span: slice
    weights: np.ndarray


def circular_aperture(grid_size: int, spacing: float, radius: float) -> Aperture:
    """The aperture of ``radius`` on the grid; refused below 2 cells of radius."""
    if radius < 2.0 * spacing:
        raise UsageError(
            f"aperture radius {radius!r} m spans fewer than 2 receiver cells "
            f"({spacing!r} m); increase the grid size"
        )
    return Aperture(grid_size, spacing, *_aperture_weights(grid_size, spacing, radius))


def aperture_transmissivity(field: ComplexField, aperture: Aperture) -> float:
    """Power collected by a centered circular aperture, per unit source power."""
    if (field.size, field.spacing) != (aperture.size, aperture.spacing):
        raise UsageError("the aperture was built for another grid")
    if field.transposed:
        raise UsageError("an aperture meters an upright field")
    block = field.grid[aperture.span, aperture.span]
    weights = aperture.weights
    power = np.einsum("ij,ij,ij->", weights, block.real, block.real) + np.einsum(
        "ij,ij,ij->", weights, block.imag, block.imag
    )
    return min(float(power) * field.spacing**2, 1.0)
