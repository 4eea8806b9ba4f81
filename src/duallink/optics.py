"""Complex-field beam propagation from satellite to ground.

A realization of the channel is one pass of the Gaussian beam through the
slab plan: it enters at the first screen in closed form, then vacuum
transfer-function hops alternate with the slabs' phase screens, and the
received power inside the telescope aperture, relative to the unit-power
beam, is the transmissivity of that realization.  Its antithetic mirror is
the same walk with every screen negated, which has the same law; the two
can walk in lockstep, sharing each screen and each imprint phasor.  What
all realizations read is built once, into a read-only ``Channel``.

Vacuum hops are paraxial, within pi N lambda^2 / (16 dx^2) rad per step of
the exact angular spectrum (see ``propagate_vacuum``), and separable: every
transfer function exp(ia(fx^2 + fy^2)) is built as its length-N axis factor
exp(ia fx^2) and applied along each axis in turn.  Kernels are referenced to
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


def gaussian_beam(geom: LinkGeometry, grid_size: int, spacing: float, z: float) -> ComplexField:
    """The unit-power Gaussian beam a distance z past its waist, sampled on an N x N grid.

    E = (sqrt(2 / pi) / w0) (q0 / q) a(x) a(y) with a(x) = exp(i k x^2 / 2q), the
    complex beam parameter q = z - i z_R and q0 = -i z_R (Schmidt 2010, ch. 8).
    """
    q = complex(z, -geom.rayleigh_range)
    a = np.exp((0.5j * geom.wavenumber / q) * _centered_coords(grid_size, spacing) ** 2)
    grid = np.outer(a, a)
    grid *= (math.sqrt(2.0 / math.pi) / geom.beam_waist) * (-1j * geom.rayleigh_range / q)
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


def _hop_kernel(
    n: int, spacing: float, wavelength: float, distance: float
) -> tuple[int, np.ndarray]:
    """The fewest equal steps that take a hop of ``distance`` with a Nyquist-sampled
    kernel (dx * N dx >= lambda d each), and that kernel."""
    steps = math.ceil(wavelength * distance / (n * spacing * spacing))
    return steps, _angular_spectrum_kernel(n, spacing, wavelength, distance / steps)


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
    field: ComplexField, distance: float, out: np.ndarray | None = None
) -> ComplexField:
    """Diffract the field forward through vacuum on its own grid.

    The paraxial transfer function exp(-i pi lambda d f^2) is applied as two
    row passes (FFT, axis factor, inverse FFT) around one in-place transpose,
    which flips the field's ``transposed``.  A hop too long for its kernel to
    be Nyquist-sampled (dx * N dx < lambda d) runs as the fewest equal steps
    that are, each one such a pass that flips the orientation.  After every
    step the edge guard refuses a field with more than ``_EDGE_GUARD_FRACTION``
    of its power within ``_EDGE_GUARD_CELLS`` of the grid edge.  The paraxial
    phase is off the exact (kz - k) d by pi d lambda^3 f^4 / 4 to leading
    order: pi d lambda^3 / (16 dx^4) at the Nyquist corner, at most
    pi N lambda^2 / (16 dx^2) per sampled step.  While dx >= lambda no
    component is evanescent.  The result is a new array, or ``out``, which may
    be the input's own grid.
    """
    if distance < 0.0:
        raise UsageError("propagation distance must be nonnegative")
    if distance == 0.0:
        return field
    n = field.size
    # one kernel serves both axes: the grid is square with one spacing
    steps, h = _hop_kernel(n, field.spacing, field.wavelength, distance)
    grid = np.empty_like(field.grid) if out is None else out
    source = field.grid
    for step in range(1, steps + 1):
        np.fft.fft(source, out=grid)
        grid *= h
        np.fft.ifft(grid, out=grid)
        _transpose_in_place(grid)
        np.fft.fft(grid, out=grid)
        grid *= h
        np.fft.ifft(grid, out=grid)
        source = grid
        fraction = _edge_power_fraction(grid)
        if fraction > _EDGE_GUARD_FRACTION:
            where = f"step {step} of {steps} of a" if steps > 1 else "a"
            raise NumericalError(
                f"{fraction:.3e} of the power sits within {_EDGE_GUARD_CELLS} cells of "
                f"the grid edge after {where} {distance:.6g} m hop "
                f"(n={n}, spacing={field.spacing:.6g} m, window={field.window:.6g} m); "
                "enlarge the window"
            )
    transposed = field.transposed != (steps % 2 == 1)
    return ComplexField(grid, field.spacing, field.wavelength, transposed)


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
    fields: tuple[ComplexField, ...],
    phase: np.ndarray,
    signs: tuple[int, ...] = (1,),
    workspace: Workspace | None = None,
) -> tuple[ComplexField, ...]:
    """Imprint one phase screen, a phase map (radians) on the fields' own grid,
    times ``signs[k]`` (+1 or -1) on member k; unit-modulus, so power is untouched.

    The phasor's angle is float32-accurate (within 3e-7 rad of the phase)
    and its modulus float64-accurate (|p|^2 within 1e-13 of one).  It is
    built once per row tile, in the workspace's ``phasor`` and ``scratch``
    tiles, so the phase may be a half of the workspace's ``spectrum``, and
    multiplied into every member in turn; a -1 member takes it conjugated in
    place, which is bit for bit the phasor of the negated phase.  Member k's
    result is a new array, or the workspace's ``fields[k]``, which may be its
    input's own grid.
    """
    if len(signs) != len(fields) or any(sign not in (1, -1) for sign in signs):
        raise UsageError(f"one sign, +1 or -1, per field; got {signs!r} for {len(fields)}")
    size = fields[0].size
    if phase.shape != (size, size):
        raise UsageError(f"screen shape {phase.shape} does not match field {(size, size)}")
    ws = Workspace(size, len(fields)) if workspace is None else workspace
    for tile in _row_tiles(size):
        rows = tile.stop - tile.start
        phasor = ws.phasor[:rows]
        _unit_phasor(phase[tile], phasor, ws.scratch[:rows])
        held = 1
        for field, sign, out in zip(fields, signs, ws.fields):
            if sign != held:
                np.conjugate(phasor, out=phasor)
                held = sign
            np.multiply(field.grid[tile], phasor, out=out[tile])
    return tuple(replace(field, grid=out) for field, out in zip(fields, ws.fields))


def _apodization_mask(n: int) -> np.ndarray:
    """Super-Gaussian absorber on the N x N grid by row tiles, symmetric bit for bit."""
    v = (np.arange(n) - n // 2) / (n / 2.0)
    mask = np.empty((n, n))
    for tile in _row_tiles(n):
        r = np.sqrt(v[tile, None] ** 2 + v[None, :] ** 2)
        np.exp(-_APODIZATION_STRENGTH * r**_APODIZATION_ORDER, out=mask[tile])
    mask.setflags(write=False)
    return mask


def _hop(field: ComplexField, distance: float, mask, out) -> ComplexField:
    """Apodize into ``out`` (what the absorber takes is lost) and hop."""
    if distance <= 0.0:
        return field
    np.multiply(field.grid, mask, out=out)
    return propagate_vacuum(replace(field, grid=out), distance, out=out)


@dataclass(frozen=True, eq=False)
class Channel:
    """What every realization of one ensemble reads and none writes.

    ``entry`` is the closed-form ``gaussian_beam`` on the receiver grid at the
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
    if grid_size < 64 or grid_size & (grid_size - 1):
        raise UsageError(f"grid size must be a power of two of at least 64, got {grid_size}")
    spacing = choose_receiver_window(geom, radii) / grid_size
    apertures = tuple(circular_aperture(grid_size, spacing, r) for r in radii)
    # (slab index, slant depth below the top) per screen, top down
    stops, ground = [], 0.0
    for idx, slab in reversed(list(enumerate(plan.slabs))):
        if slab.has_screen:
            stops.append((idx, ground + slab.screen_depth))
        ground += slab.path_length
    depths = [depth for _, depth in stops] + [ground]

    apodizer = _apodization_mask(grid_size)
    entry = gaussian_beam(geom, grid_size, spacing, depths[0])
    entry.grid.setflags(write=False)
    # each hop runs from the sum of the hops before it, begun at the entry's depth,
    # not from the previous depth: so every hop length keeps format 7's bits.  Its
    # kernel (its step's, for a hop too long to sample at once) is built here
    hops, reached = [], depths[0]
    for depth in depths:
        hops.append(depth - reached)
        if hops[-1] > 0.0:
            reached += hops[-1]
            _hop_kernel(grid_size, spacing, geom.wavelength, hops[-1])
    draws = []
    for i in range(0, len(stops), 2):
        slabs = tuple(plan.slabs[idx] for idx, _ in stops[i : i + 2])
        draws.append((stops[i][0], slabs, tuple(hops[i : i + len(slabs)])))
    spectrum = screen_spectrum(grid_size, spacing, profile) if stops else None
    return Channel(entry, tuple(draws), hops[-1], spectrum, apodizer, apertures)


def split_step(
    channel: Channel, streams: ScreenStreams, signs: tuple[int, ...] = (1,)
) -> tuple[ComplexField, ...]:
    """Channel realizations, one per member sign, walked in lockstep from the
    channel's entry field to the receiver plane.

    The +1 member imprints every screen and the -1 member every screen
    negated: its antithetic mirror.  Screens are drawn in pairs: one spectral
    draw from the stream of the pair's upper slab serves both, each imprinted
    in the fields' shared orientation.  Each member hops in its own field of
    one workspace, and its arithmetic does not depend on what walks beside
    it, so a member walked alone gives the same bits.  The results are
    upright and never share the entry's grid.
    """
    workspace = Workspace(channel.entry.size, len(signs))
    fields = (channel.entry,) * len(signs)
    for index, slabs, hops in channel.draws:
        pair = generate_screen(slabs, channel.screens, streams.generator(index), workspace)
        for screen, distance in zip(pair, hops):
            fields = tuple(
                _hop(field, distance, channel.apodizer, out)
                for field, out in zip(fields, workspace.fields)
            )
            if fields[0].transposed:
                _transpose_in_place(screen)
            fields = apply_screen(fields, screen, signs, workspace)
    results = []
    for field, out in zip(fields, workspace.fields):
        field = _hop(field, channel.last_hop, channel.apodizer, out)
        if field.transposed:  # never the entry, which is upright
            _transpose_in_place(field.grid)
            field = replace(field, transposed=False)
        elif field is channel.entry:
            field = replace(field, grid=field.grid.copy())
        results.append(field)
    return tuple(results)


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
