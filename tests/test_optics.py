"""Vacuum diffraction oracles, unitarity, screen algebra, and aperture clipping."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from duallink.atmosphere import AtmosphereProfile, fried_parameter
from duallink.errors import NumericalError, UsageError
from duallink.optics import (
    _EDGE_GUARD_CELLS,
    ComplexField,
    _angular_spectrum_kernel,
    _aperture_weights,
    _apodization_mask,
    _edge_power_fraction,
    _hop,
    _hop_kernel,
    _transpose_in_place,
    aperture_transmissivity,
    apply_screen,
    build_channel,
    choose_receiver_window,
    circular_aperture,
    gaussian_beam,
    propagate_vacuum,
    split_step,
    vacuum_beam_radius,
)
from duallink.screens import (
    _TILE_BYTES,
    ScreenStreams,
    Slab,
    SlabPlan,
    Workspace,
    _row_tiles,
    generate_screen,
    plan_slabs,
    screen_spectrum,
)

from conftest import make_geometry
from oracles import (
    exact_transfer_function,
    fftn_hop,
    field_power,
    full_grid_aperture_weights,
    full_grid_apodization_mask,
    full_grid_apply_screen,
    full_grid_transmissivity,
    gaussian_source,
    reference_entry,
    reference_split_step,
    second_moment_radius,
    two_step_hop,
    upright,
)


def dead_profile() -> AtmosphereProfile:
    return AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01, cn2_scale=0.0
    )


def relative_field_error(a: ComplexField, b: ComplexField) -> float:
    diff = np.linalg.norm(a.grid - b.grid)
    return float(diff / np.linalg.norm(b.grid))


def encircled_power(radius: float, beam_radius: float) -> float:
    return 1.0 - math.exp(-2.0 * radius**2 / beam_radius**2)


def waist(geom, n: int):
    """The beam at its waist on an 8 w0 window."""
    return gaussian_beam(geom, n, 8.0 * geom.beam_waist / n, 0.0)


def vacuum_plan(geom, n: int) -> SlabPlan:
    return plan_slabs(geom, dead_profile(), choose_receiver_window(geom, (0.5,)) / n)


# ---------------------------------------------------------------------------
# the closed-form beam at its waist, and the grids a channel is built on


def test_source_has_unit_power():
    field = waist(make_geometry(), 256)
    assert field_power(field) == pytest.approx(1.0, abs=1e-12)
    assert field.window == pytest.approx(8.0 * 0.15)


def test_source_intensity_profile():
    geom = make_geometry()
    field = waist(geom, 512)
    n = field.size
    center = abs(field.grid[n // 2, n // 2]) ** 2
    # w0 sits exactly 64 cells off axis when the window is 8 w0 at n=512
    at_waist = abs(field.grid[n // 2, n // 2 + 64]) ** 2
    assert at_waist / center == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_source_second_moment_radius():
    geom = make_geometry()
    field = waist(geom, 256)
    # rms radius of the intensity pattern recovers w0 / sqrt(2)
    assert second_moment_radius(field) == pytest.approx(geom.beam_waist, rel=1e-6)


def test_source_grid_must_be_power_of_two():
    geom = make_geometry()
    with pytest.raises(UsageError, match="power of two"):
        build_channel(geom, dead_profile(), vacuum_plan(geom, 300), 300, (0.5,))


def test_source_must_resolve_waist():
    # the grid floor is 64: a 1 m aperture spans 8 cells of a grid-32 receiver
    # window, so only the floor refuses it
    geom = make_geometry(aperture_radius=1.0)
    window = choose_receiver_window(geom, (1.0,))
    assert circular_aperture(32, window / 32, 1.0)
    with pytest.raises(UsageError, match="at least 64"):
        build_channel(geom, dead_profile(), vacuum_plan(geom, 32), 32, (1.0,))
    assert build_channel(geom, dead_profile(), vacuum_plan(geom, 64), 64, (1.0,))


# ---------------------------------------------------------------------------
# vacuum propagation


def test_zero_distance_is_identity():
    field = waist(make_geometry(), 128)
    assert propagate_vacuum(field, 0.0) is field


def test_negative_distance_rejected():
    field = waist(make_geometry(), 128)
    with pytest.raises(UsageError):
        propagate_vacuum(field, -1.0)


def test_angular_spectrum_conserves_power():
    field = waist(make_geometry(), 256)
    out = propagate_vacuum(field, 1000.0)
    assert out.spacing == field.spacing
    assert field_power(out) == pytest.approx(1.0, abs=1e-9)


def test_two_step_conserves_power_and_matches_beam_spread():
    # the reference that the closed-form entry is checked against
    geom = make_geometry()
    z_r = geom.rayleigh_range
    field = gaussian_source(geom, 512)
    target = 8.0 * vacuum_beam_radius(geom, z_r) / 512
    out = two_step_hop(field, z_r, target)
    assert out.spacing == target
    assert field_power(out) == pytest.approx(1.0, abs=1e-6)
    expected = geom.beam_waist * math.sqrt(2.0)
    assert second_moment_radius(out) == pytest.approx(expected, rel=0.01)


def test_hops_compose_to_single_hop():
    field = waist(make_geometry(), 256)
    total = 4000.0
    hopped = propagate_vacuum(propagate_vacuum(field, 1500.0), total - 1500.0)
    direct = upright(propagate_vacuum(field, total))
    assert relative_field_error(hopped, direct) < 1e-8


def test_aliasing_guard_trips_when_window_overflows():
    # 500 km on the fixed transmitter window cannot contain the spread beam
    field = waist(make_geometry(), 512)
    with pytest.raises(NumericalError):
        propagate_vacuum(field, 500e3)


def test_split_hop_refuses_at_its_first_overflowing_step():
    # the guard looks after every step: the split hop stops where the same
    # steps taken one hop at a time first trip it, long before its last step
    field = waist(make_geometry(), 256)
    steps, _ = _hop_kernel(256, field.spacing, field.wavelength, 500e3)
    with pytest.raises(NumericalError, match="after a "):
        for first in range(1, steps + 1):
            field = propagate_vacuum(field, 500e3 / steps)
    assert 1 < first < steps
    with pytest.raises(NumericalError, match=f"after step {first} of {steps} of a 500000 m hop"):
        propagate_vacuum(waist(make_geometry(), 256), 500e3)


# ---------------------------------------------------------------------------
# orientation: fixed-grid hops leave the field transposed


@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 100, 128, 512, 1024])
def test_transpose_in_place_equals_transpose(n):
    # under, at and over the 64-cell block edge, with ragged last blocks
    rng = np.random.default_rng(20041)
    grid = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    expected = grid.T.copy()
    _transpose_in_place(grid)
    assert np.array_equal(grid, expected)
    for half in ("real", "imag"):
        other = "imag" if half == "real" else "real"
        before = getattr(grid, other).copy()
        expected = getattr(grid, half).T.copy()
        _transpose_in_place(getattr(grid, half))
        assert np.array_equal(getattr(grid, half), expected)
        assert np.array_equal(getattr(grid, other), before)


def test_transpose_in_place_allocates_no_grid():
    # a 1024 complex grid is 16.8 MB; one staging block is 64 KiB
    grid = np.zeros((1024, 1024), dtype=complex)
    tracemalloc.start()
    try:
        _transpose_in_place(grid)
        _transpose_in_place(grid.imag)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_fixed_grid_hop_flips_orientation():
    field = waist(make_geometry(), 256)
    (field,) = apply_screen((field,), np.random.default_rng(20042).normal(size=(256, 256)))
    once = propagate_vacuum(field, 1000.0)
    twice = propagate_vacuum(once, 1000.0)
    assert once.transposed and not twice.transposed
    assert not field.transposed
    # the transposed result holds format 7's hop, mirrored
    reference = fftn_hop(field, 1000.0)
    assert not reference.transposed
    assert relative_field_error(upright(once), reference) < 1e-14
    assert propagate_vacuum(once, 0.0) is once


def test_aperture_refuses_a_transposed_field():
    flipped = propagate_vacuum(waist(make_geometry(), 128), 1000.0)
    assert flipped.transposed
    with pytest.raises(UsageError):
        aperture_transmissivity(flipped, circular_aperture(128, flipped.spacing, 0.1))
    assert aperture_transmissivity(upright(flipped), circular_aperture(128, flipped.spacing, 0.1))


def test_unsampled_hop_keeps_a_transposed_field_transposed():
    # past dx * N dx / lambda (10.6 km here) a hop runs as the fewest equal
    # fixed-grid steps whose kernels are sampled, two over 20 km, each
    # flipping the field; a tilt along one axis makes the beam differ from
    # its transpose
    field = waist(make_geometry(), 128)
    (field,) = apply_screen((field,), np.broadcast_to(0.2 * np.arange(128.0), (128, 128)))
    flipped = propagate_vacuum(field, 1000.0)
    limit = flipped.spacing * flipped.window / flipped.wavelength
    assert math.ceil(20e3 / limit) == 2
    half = propagate_vacuum(flipped, 10e3)
    composed = propagate_vacuum(half, 10e3)
    out = propagate_vacuum(flipped, 20e3)
    assert flipped.transposed and not half.transposed and out.transposed
    assert composed.transposed and np.array_equal(out.grid, composed.grid)
    reference = two_step_hop(upright(flipped), 20e3, flipped.spacing)
    assert not np.allclose(reference.grid, reference.grid.T)
    assert relative_field_error(upright(out), reference) < 1e-5


@pytest.mark.parametrize("n, distance, steps", [(128, 30e3, 3), (256, 50e3, 10)])
def test_split_hop_is_its_steps_composed(n, distance, steps):
    field = waist(make_geometry(), n)
    (field,) = apply_screen((field,), np.broadcast_to(0.05 * np.arange(float(n)), (n, n)))
    assert _hop_kernel(n, field.spacing, field.wavelength, distance)[0] == steps
    composed = field
    for _ in range(steps):
        composed = propagate_vacuum(composed, distance / steps)
    out = propagate_vacuum(field, distance)
    assert out.transposed == composed.transposed == (steps % 2 == 1)
    assert np.array_equal(out.grid, composed.grid)


@pytest.mark.parametrize("n", [64, 100, 512])
def test_apodization_mask_is_its_own_transpose(n):
    mask = _apodization_mask(n)
    assert np.array_equal(mask, mask.T)


def full_grid_edge_fraction(grid: np.ndarray) -> float:
    p = np.abs(grid) ** 2
    total = float(p.sum())
    if total <= 0.0:
        return 0.0
    c = _EDGE_GUARD_CELLS
    return (total - float(p[c:-c, c:-c].sum())) / total


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_edge_fraction_frame_sum_matches_full_grid(seed):
    rng = np.random.default_rng(seed)
    grid = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    assert _edge_power_fraction(grid) == pytest.approx(full_grid_edge_fraction(grid), rel=1e-12)


def test_edge_fraction_of_strided_and_propagated_fields():
    # a transposed view is not contiguous; a diffracted beam is what the guard sees
    rng = np.random.default_rng(3)
    grid = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    assert _edge_power_fraction(grid.T) == pytest.approx(full_grid_edge_fraction(grid), rel=1e-12)
    beam = propagate_vacuum(waist(make_geometry(), 256), 1000.0).grid
    assert _edge_power_fraction(beam) == pytest.approx(full_grid_edge_fraction(beam), rel=1e-12)


def test_edge_fraction_of_empty_and_frame_only_fields():
    assert _edge_power_fraction(np.zeros((32, 32), dtype=complex)) == 0.0
    c = _EDGE_GUARD_CELLS
    frame = np.full((32, 32), 1.0 - 2.0j)
    frame[c:-c, c:-c] = 0.0
    assert _edge_power_fraction(frame) == 1.0


# ---------------------------------------------------------------------------
# separable hop factors


def paraxial_phase_bound(spacing: float, wavelength: float, distance: float) -> float:
    """Largest gap between the paraxial and exact hop phases on a grid.

    With u = 4 pi^2 f^2, kz - k = -u / 2k - u^2 / 8k^3 - ..., so the gap is
    pi d lambda^3 f^4 / 4 to leading order and at most that times
    (1 - lambda^2 f^2)^(-3/2); both grow with f, up to the Nyquist corner
    f^2 = 1 / (2 dx^2).
    """
    f2 = 0.5 / spacing**2
    return (
        math.pi * distance * wavelength**3 * f2**2 / 4.0
        / (1.0 - wavelength**2 * f2) ** 1.5
    )


def receiver_spacing(zenith: float, n: int) -> float:
    return choose_receiver_window(make_geometry(zenith), (0.5,)) / n


@pytest.mark.parametrize(
    "n, spacing, distance",
    [
        pytest.param(256, 1.2 / 256, 4000.0, id="256-at-4km"),
        # channel-512 (zenith 60), at the longest hop the sampling condition allows
        pytest.param(
            512, receiver_spacing(60.0, 512),
            512 * receiver_spacing(60.0, 512) ** 2 / make_geometry().wavelength,
            id="channel-512-receiver",
        ),
    ],
)
def test_paraxial_kernel_within_bound_of_exact_transfer_function(n, spacing, distance):
    wavelength = make_geometry().wavelength
    assert spacing * n * spacing >= wavelength * distance * (1.0 - 1e-12)
    h = _angular_spectrum_kernel(n, spacing, wavelength, distance)
    exact = exact_transfer_function(n, spacing, wavelength, distance)
    gap = np.max(np.abs(np.outer(h, h) - exact))
    bound = paraxial_phase_bound(spacing, wavelength, distance)
    assert bound <= math.pi * n * wavelength**2 / (16.0 * spacing**2) * (1.0 + 1e-6)
    # the bound is attained at the corner, up to the phase rounding
    assert 0.5 * bound < gap <= bound + 1e-12


def test_paraxial_hop_within_bound_of_exact_hop():
    field = waist(make_geometry(), 256)
    exact = np.fft.ifft2(
        np.fft.fft2(field.grid)
        * exact_transfer_function(256, field.spacing, field.wavelength, 4000.0)
    )
    out = upright(propagate_vacuum(field, 4000.0))
    error = np.linalg.norm(out.grid - exact) / np.linalg.norm(exact)
    assert error <= paraxial_phase_bound(field.spacing, field.wavelength, 4000.0)


def test_hop_caches_hold_axis_factors():
    n = 256
    field = waist(make_geometry(), n)
    entries = [
        _angular_spectrum_kernel(n, field.spacing, field.wavelength, 4000.0),
        _hop_kernel(n, field.spacing, field.wavelength, 50e3)[1],
    ]
    for entry in entries:
        assert entry.shape == (n,)
        assert not entry.flags.writeable


# ---------------------------------------------------------------------------
# screen application


def test_zero_screen_is_identity():
    field = waist(make_geometry(), 128)
    (out,) = apply_screen((field,), np.zeros((128, 128)))
    assert np.array_equal(out.grid, field.grid)


def test_screen_preserves_power():
    field = waist(make_geometry(), 128)
    rng = np.random.default_rng(3)
    (out,) = apply_screen((field,), rng.normal(size=(128, 128)))
    assert field_power(out) == pytest.approx(field_power(field), rel=1e-13)


# Error of one imprint against E exp(i phi), in units of max|E|: the float32
# cast of the turn-reduced angle (2^-23 rad), numpy's float32 cos and sin
# (2 ulp each, sqrt(2) 2^-23 on the phasor), and below 1e-13 for every
# float64 step.  The Newton step removes the modulus part of the error.
IMPRINT_BOUND = (1.0 + math.sqrt(2.0)) * 2.0**-23 + 1e-13


def test_screen_phases_add():
    field = waist(make_geometry(), 128)
    rng = np.random.default_rng(4)
    a = rng.normal(size=(128, 128))
    b = rng.normal(size=(128, 128))
    (twice,) = apply_screen(apply_screen((field,), a), b)
    (once,) = apply_screen((field,), a + b)
    # three imprints, each within the bound of the exact phasor
    assert relative_field_error(twice, once) < 3.0 * IMPRINT_BOUND


def test_screen_imprint_matches_complex_exponential():
    field = waist(make_geometry(), 128)
    phase = 30.0 * np.random.default_rng(5).normal(size=(128, 128))
    expected = field.grid * np.exp(1j * phase)
    (out,) = apply_screen((field,), phase)
    assert np.max(np.abs(out.grid - expected)) <= IMPRINT_BOUND * np.max(np.abs(field.grid))


def test_screen_phasor_has_unit_modulus():
    # on a unit field the imprint is the phasor itself
    n = 128
    field = ComplexField(np.ones((n, n), dtype=complex), 0.01, 1e-6)
    phase = 30.0 * np.random.default_rng(6).normal(size=(n, n))
    (out,) = apply_screen((field,), phase)
    assert np.max(np.abs(np.abs(out.grid) ** 2 - 1.0)) <= 1e-13


@pytest.mark.parametrize("n", [64, 256, 300, 1024])
def test_tiled_imprint_equals_full_grid_reference(n):
    # 64 is one row tile, 256 and 1024 many, and 300 ends on a shorter tile
    tiles = _row_tiles(n)
    assert (len(tiles) == 1) == (n == 64)
    assert sum(t.stop - t.start for t in tiles) == n
    rng = np.random.default_rng(n)
    grid = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    field = ComplexField(grid, 0.01, 1e-6)
    phase = 30.0 * rng.normal(size=(n, n))
    expected = full_grid_apply_screen(field, phase)
    assert np.array_equal(apply_screen((field,), phase)[0].grid, expected)
    # in place on a workspace field, with the phase in a half of its spectrum
    ws = Workspace(n)
    ws.fields[0] = grid
    ws.spectrum.imag = phase
    in_place = ComplexField(ws.fields[0], 0.01, 1e-6)
    (out,) = apply_screen((in_place,), ws.spectrum.imag, workspace=ws)
    assert np.shares_memory(out.grid, ws.fields[0])
    assert np.array_equal(out.grid, expected)
    assert np.array_equal(ws.spectrum.imag, phase)


@pytest.mark.parametrize("n", [64, 300])
def test_mirrored_imprint_is_the_negated_phase_bit_for_bit(n):
    # the shared phasor, conjugated in place for the -1 member, is the phasor
    # of the negated phase; either member order, and a -1 member alone
    rng = np.random.default_rng(22004 + n)
    field = ComplexField(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 0.01, 1e-6)
    phase = 30.0 * rng.normal(size=(n, n))
    (plus,) = apply_screen((field,), phase)
    (minus,) = apply_screen((field,), -phase)
    for signs, expected in (((1, -1), (plus, minus)), ((-1, 1), (minus, plus))):
        for out, reference in zip(apply_screen((field, field), phase, signs), expected):
            assert np.array_equal(out.grid, reference.grid)
    (alone,) = apply_screen((field,), phase, (-1,))
    assert np.array_equal(alone.grid, minus.grid)
    for signs in ((1, 1, 1), (0,), (2,), (1, -1)):
        with pytest.raises(UsageError):
            apply_screen((field,), phase, signs)


def test_public_hops_and_imprint_leave_input_untouched():
    geom = make_geometry()
    field = waist(geom, 256)
    before = field.grid.copy()
    phase = np.random.default_rng(7).normal(size=(256, 256))
    outputs = [
        propagate_vacuum(field, 1000.0),
        propagate_vacuum(field, 50e3),
        *apply_screen((field,), phase),
    ]
    assert np.array_equal(field.grid, before)
    assert all(out.grid is not field.grid for out in outputs)


def test_screen_geometry_must_match():
    field = waist(make_geometry(), 128)
    with pytest.raises(UsageError):
        apply_screen((field,), np.zeros((64, 64)))


# ---------------------------------------------------------------------------
# aperture transmissivity


def meter(field: ComplexField, radius: float) -> float:
    return aperture_transmissivity(field, circular_aperture(field.size, field.spacing, radius))


def test_aperture_weights_integrate_to_disk_area():
    geom = make_geometry()
    field = gaussian_beam(geom, 512, receiver_spacing(0.0, 512), geom.path_length)
    _, weights = _aperture_weights(field.size, field.spacing, 0.5)
    area = float(weights.sum()) * field.spacing**2
    assert area == pytest.approx(math.pi * 0.25, rel=1e-9)


@pytest.mark.parametrize("cells", [2.0, 7.3, 40.0, 127.6, 200.0])
def test_block_metering_matches_full_grid(cells):
    # 127.6 cells reaches the edge of the 256 grid; 200 cells covers all of it
    n = 256
    rng = np.random.default_rng(11)
    grid = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    field = ComplexField(grid / (0.01 * np.linalg.norm(grid)), 0.01, 1e-6)  # unit power
    radius = cells * field.spacing
    span, weights = _aperture_weights(n, field.spacing, radius)
    full = full_grid_aperture_weights(n, field.spacing, radius)
    outside = full.copy()
    outside[span, span] = 0.0
    assert np.array_equal(weights, full[span, span])
    assert not outside.any()
    eta = meter(field, radius)
    assert eta == pytest.approx(min(full_grid_transmissivity(field, radius), 1.0), rel=1e-14)
    assert (span.start == 0) == (cells > 127.0)


def test_full_window_aperture_collects_all_power():
    field = waist(make_geometry(), 128)
    assert meter(field, field.window) == pytest.approx(1.0, abs=1e-12)


def test_small_aperture_matches_encircled_power():
    geom = make_geometry()
    field = waist(geom, 256)
    for cells in (4.0, 8.0):
        radius = cells * field.spacing
        expected = encircled_power(radius, geom.beam_waist)
        assert meter(field, radius) == pytest.approx(expected, rel=0.01)


def test_under_resolved_aperture_rejected():
    field = waist(make_geometry(), 128)
    with pytest.raises(UsageError):
        circular_aperture(field.size, field.spacing, 1.9 * field.spacing)


def test_aperture_refuses_a_field_on_another_grid():
    field = waist(make_geometry(), 128)
    for n, spacing in ((64, field.spacing), (128, 1.5 * field.spacing)):
        with pytest.raises(UsageError):
            aperture_transmissivity(field, circular_aperture(n, spacing, 8.0 * field.spacing))


def test_downlink_transmissivity_matches_diffraction_oracle():
    # the beam's waist on the receiver grid, hopped down the whole path (in
    # seven sampled steps), all three telescope radii, against the
    # closed-form encircled power of the diffracted Gaussian
    geom = make_geometry()
    radii = (0.15, 0.30, 0.50)
    spacing = choose_receiver_window(geom, radii) / 1024
    field = upright(propagate_vacuum(gaussian_beam(geom, 1024, spacing, 0.0), geom.path_length))
    spread = vacuum_beam_radius(geom, geom.path_length)
    for radius in radii:
        eta = meter(field, radius)
        assert eta == pytest.approx(encircled_power(radius, spread), rel=0.01)


# ---------------------------------------------------------------------------
# split-step pipeline


def channel_of(geom, profile, plan, n: int):
    """The channel of ``plan`` metered by a 0.5 m aperture."""
    return build_channel(geom, profile, plan, n, (0.5,))


def test_zero_turbulence_split_step_is_vacuum_diffraction():
    geom = make_geometry()
    profile = dead_profile()
    window = choose_receiver_window(geom, (0.5,))
    plan = plan_slabs(geom, profile, window / 512)
    (out,) = split_step(channel_of(geom, profile, plan, 512), ScreenStreams(7, 0))
    direct = two_step_hop(gaussian_source(geom, 512), geom.path_length, window / 512)
    assert relative_field_error(out, direct) < 1e-6
    eta_split = meter(out, 0.5)
    eta_direct = meter(direct, 0.5)
    # the edge absorber perturbs the far tail at the 1e-7 level, nothing more
    assert eta_split == pytest.approx(eta_direct, abs=1e-7)


VACUUM_WALK_CASES = [(0.0, 256), (0.0, 512), (60.0, 512)]
VACUUM_WALK_RADII = (0.15, 0.25, 0.5)


def entry_depth(plan: SlabPlan) -> float:
    """Slant depth of the plan's first screen below its top, or the whole path."""
    depth = 0.0
    for slab in reversed(plan.slabs):
        if slab.has_screen:
            return depth + slab.screen_depth
        depth += slab.path_length
    return depth


@pytest.mark.parametrize("zenith, n", VACUUM_WALK_CASES)
def test_closed_form_entry_matches_the_two_step_reference(baseline_profile, zenith, n):
    # the sampled source, apodized and carried by the two-step Fresnel hop to
    # the first screen, cut at +-4 w0 where the beam's amplitude is e^-16
    geom = make_geometry(zenith)
    spacing = choose_receiver_window(geom, VACUUM_WALK_RADII) / n
    plan = plan_slabs(geom, baseline_profile, spacing)
    channel = build_channel(geom, baseline_profile, plan, n, VACUUM_WALK_RADII)
    reference = reference_entry(geom, n, spacing, entry_depth(plan))
    assert relative_field_error(channel.entry, reference) < 1e-6


@pytest.mark.parametrize("zenith, n", VACUUM_WALK_CASES)
def test_vacuum_walk_of_the_entry_matches_the_closed_form(baseline_profile, zenith, n):
    # the entry walked to the ground through the channel's own hops and
    # apodizer, with no screen imprinted, is the closed-form beam there
    geom = make_geometry(zenith)
    spacing = choose_receiver_window(geom, VACUUM_WALK_RADII) / n
    plan = plan_slabs(geom, baseline_profile, spacing)
    channel = build_channel(geom, baseline_profile, plan, n, VACUUM_WALK_RADII)
    assert channel.draws
    workspace = Workspace(n)
    field = channel.entry
    for distance in [hop for _, _, pair in channel.draws for hop in pair] + [channel.last_hop]:
        field = _hop(field, distance, channel.apodizer, workspace.fields[0])
    field = upright(field)
    expected = gaussian_beam(geom, n, spacing, geom.path_length)
    assert relative_field_error(field, expected) < 1e-6
    for aperture in channel.apertures:
        eta = aperture_transmissivity(expected, aperture)
        assert aperture_transmissivity(field, aperture) == pytest.approx(eta, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("n", [512, 1024])
def test_tiled_apodization_mask_equals_full_grid(n):
    assert np.array_equal(_apodization_mask(n), full_grid_apodization_mask(n))


# A workspace is two N x N complex128 grids (32 N^2 bytes) plus its tiles:
# a complex128 phasor tile of at most _TILE_BYTES and a float64 scratch
# tile of half that.
def workspace_bound(n: int) -> int:
    return 32 * n * n + 3 * _TILE_BYTES // 2


@pytest.mark.parametrize("n", [64, 256, 300, 1024])
def test_workspace_is_two_grids_plus_tiles(n):
    assert sum(a.nbytes for a in vars(Workspace(n)).values()) <= workspace_bound(n)
    # a lockstep walk holds one more field
    lockstep = sum(a.nbytes for a in vars(Workspace(n, 2)).values())
    assert lockstep <= workspace_bound(n) + 16 * n * n


def warm_walk_peak(profile, signs) -> int:
    """Peak traced bytes of a second zenith-60 walk at grid 256, the first
    having built everything the channel keeps."""
    geom = make_geometry(60.0)
    window = choose_receiver_window(geom, (0.5,))
    plan = plan_slabs(geom, profile, window / 256)
    channel = channel_of(geom, profile, plan, 256)
    split_step(channel, ScreenStreams(19, 0), signs)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        split_step(channel, ScreenStreams(19, 1), signs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_warm_split_step_peak_memory(baseline_profile):
    # Bound fixed from the arithmetic above, before the first run: the
    # workspace at grid 256 (2.75 MiB), plus one more tile budget (0.5 MiB)
    # for what else a realization allocates, all of it O(N) or O(1): the
    # 7 x N subharmonic product, 3 x 3 draws and FFT line buffers.  The
    # channel holds every N x N array that the walk reads.
    assert warm_walk_peak(baseline_profile, (1,)) <= workspace_bound(256) + _TILE_BYTES


def test_warm_lockstep_split_step_peak_memory(baseline_profile):
    # a two-member walk: the same budget plus the second member's field
    bound = workspace_bound(256) + _TILE_BYTES + 16 * 256 * 256
    assert warm_walk_peak(baseline_profile, (1, -1)) <= bound


def test_split_step_realization(baseline_profile):
    geom = make_geometry()
    window = choose_receiver_window(geom, (0.5,))
    plan = plan_slabs(geom, baseline_profile, window / 256)
    channel = channel_of(geom, baseline_profile, plan, 256)
    (out,) = split_step(channel, ScreenStreams(19, 0))
    (again,) = split_step(channel, ScreenStreams(19, 0))
    # only losses: edge absorber and evanescent masking remove power
    assert field_power(out) <= 1.0 + 1e-6
    eta = meter(out, 0.5)
    assert 0.0 <= eta <= 1.0
    # same streams, same realization, bit for bit
    assert np.array_equal(out.grid, again.grid)


@pytest.mark.parametrize("zenith, n", [(0.0, 128), (60.0, 256)])
def test_split_step_matches_the_reference_walk(baseline_profile, zenith, n):
    # the channel's shared entry field, schedule and arrays give the bits
    # of the walk from the closed-form entry that builds every array as it goes
    geom = make_geometry(zenith)
    window = choose_receiver_window(geom, (0.5,))
    for profile in (baseline_profile, dead_profile()):
        plan = plan_slabs(geom, profile, window / n)
        channel = channel_of(geom, profile, plan, n)
        for realization in range(2):
            streams = ScreenStreams(16041, realization)
            expected = reference_split_step(geom, n, plan, profile, streams, window)
            (got,) = split_step(channel, streams)
            assert np.array_equal(got.grid, expected.grid)
            # the vacuum plan's entry stands at the ground: still a fresh grid
            assert not np.shares_memory(got.grid, channel.entry.grid)


@pytest.mark.parametrize("zenith, n", [(0.0, 128), (60.0, 256)])
def test_lockstep_members_are_their_one_sign_walks(baseline_profile, zenith, n):
    # the + member is the one-sign walk, and the - member the reference walk
    # with every screen negated, bit for bit, walked alone or in lockstep
    geom = make_geometry(zenith)
    window = choose_receiver_window(geom, (0.5,))
    plan = plan_slabs(geom, baseline_profile, window / n)
    channel = channel_of(geom, baseline_profile, plan, n)
    for realization in range(2):
        streams = ScreenStreams(22005, realization)
        plus, minus = split_step(channel, streams, (1, -1))
        (alone,) = split_step(channel, streams)
        assert np.array_equal(plus.grid, alone.grid)
        mirror = reference_split_step(
            geom, n, plan, baseline_profile, streams, window, negate=True
        )
        (alone,) = split_step(channel, streams, (-1,))
        assert not minus.transposed and not alone.transposed
        assert np.array_equal(minus.grid, mirror.grid)
        assert np.array_equal(alone.grid, mirror.grid)
        assert not np.shares_memory(plus.grid, minus.grid)
        assert not np.array_equal(plus.grid, minus.grid)
    # a vacuum plan has no screen to negate: two copies of its entry field
    plan = plan_slabs(geom, dead_profile(), window / n)
    plus, minus = split_step(channel_of(geom, dead_profile(), plan, n), streams, (1, -1))
    assert np.array_equal(plus.grid, minus.grid)
    assert not np.shares_memory(plus.grid, minus.grid)


@pytest.mark.parametrize("zenith, n", [(0.0, 128), (0.0, 256), (60.0, 128), (60.0, 256)])
def test_split_step_etas_within_rounding_of_the_fftn_walk(baseline_profile, zenith, n):
    # row passes around a transpose reorder format 7's one-fftn hop: the same
    # sums in another order, so every eta moves at rounding level only
    geom = make_geometry(zenith)
    window = choose_receiver_window(geom, (0.3, 0.5))
    plan = plan_slabs(geom, baseline_profile, window / n)
    channel = build_channel(geom, baseline_profile, plan, n, (0.3, 0.5))
    for realization in range(2):
        streams = ScreenStreams(20043, realization)
        expected = reference_split_step(
            geom, n, plan, baseline_profile, streams, window, fftn_hop
        )
        (got,) = split_step(channel, streams)
        for aperture in channel.apertures:
            eta = aperture_transmissivity(expected, aperture)
            assert aperture_transmissivity(got, aperture) == pytest.approx(eta, rel=1e-12, abs=0.0)


def test_split_step_returns_upright_fields(baseline_profile):
    # three screens end on an odd number of fixed-grid hops, zenith 0's four
    # screens on an even one; either way the receiver gets an upright field
    geom = make_geometry()
    window = choose_receiver_window(geom, (0.5,))
    n = 128
    three = three_screen_plan(geom, baseline_profile)
    for plan in (three, plan_slabs(geom, baseline_profile, window / n)):
        streams = ScreenStreams(20044, 0)
        (out,) = split_step(channel_of(geom, baseline_profile, plan, n), streams)
        expected = reference_split_step(
            geom, n, plan, baseline_profile, streams, window, fftn_hop
        )
        assert not out.transposed
        assert relative_field_error(out, expected) < 1e-12


@pytest.mark.parametrize("zenith", [0.0, 60.0])
def test_channel_walk_spans_the_slant_path(baseline_profile, zenith):
    # the entry's depth (its first screen's, or the ground's), every hop of
    # the draws and the last hop add up to the plan's whole slant path
    geom = make_geometry(zenith)
    window = choose_receiver_window(geom, (0.5,))
    for profile in (baseline_profile, dead_profile()):
        plan = plan_slabs(geom, profile, window / 256)
        channel = channel_of(geom, profile, plan, 256)
        hops = [hop for _, _, pair in channel.draws for hop in pair] + [channel.last_hop]
        slant = sum(slab.path_length for slab in plan.slabs)
        assert sum(hops, entry_depth(plan)) == pytest.approx(slant, rel=1e-12, abs=0.0)


def test_split_step_leaves_source_untouched(baseline_profile):
    # the entry field is read-only, and the result is the realization's own
    geom = make_geometry()
    window = choose_receiver_window(geom, (0.5,))
    plan = plan_slabs(geom, baseline_profile, window / 128)
    channel = channel_of(geom, baseline_profile, plan, 128)
    before = channel.entry.grid.copy()
    (out,) = split_step(channel, ScreenStreams(19, 0))
    assert np.array_equal(channel.entry.grid, before)
    assert not channel.entry.grid.flags.writeable
    assert out.grid.flags.writeable


def test_interleaved_split_steps_on_two_threads_agree(baseline_profile):
    # each realization owns its workspace, so two of them running at once
    # on the same shared channel cannot disturb each other
    geom = make_geometry()
    window = choose_receiver_window(geom, (0.5,))
    plan = plan_slabs(geom, baseline_profile, window / 128)
    channel = channel_of(geom, baseline_profile, plan, 128)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            (a,), (b,) = pool.map(lambda _: split_step(channel, ScreenStreams(19, 3)), range(2))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(a.grid, b.grid)


def three_screen_plan(geom, profile) -> SlabPlan:
    edges = (0.0, 500.0, 3e3, 15e3)
    slabs = [
        Slab(lo, hi, hi - lo, fried_parameter(geom, profile, lo, hi))
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    slabs.append(Slab(15e3, geom.satellite_altitude, 485e3, math.inf))
    return SlabPlan(tuple(slabs))


def test_odd_screen_count_runs_and_reruns_identically(baseline_profile):
    # three screens: the top two share a spectral draw, the lowest is drawn alone
    geom = make_geometry()
    plan = three_screen_plan(geom, baseline_profile)
    assert sum(slab.has_screen for slab in plan.slabs) == 3
    channel = channel_of(geom, baseline_profile, plan, 128)
    (out,) = split_step(channel, ScreenStreams(31, 4))
    (again,) = split_step(channel, ScreenStreams(31, 4))
    assert np.array_equal(out.grid, again.grid)
    assert 0.0 < meter(out, 0.5) <= 1.0


def test_split_step_pairs_screens_on_the_upper_slab_stream(baseline_profile):
    # Slabs 2 and 1 share the draw of stream 2 (slab 2 takes the real half);
    # slab 0 is drawn alone from stream 0.  Apodize, hop, imprint by hand.
    geom = make_geometry()
    plan = three_screen_plan(geom, baseline_profile)
    s0, s1, s2, gap = plan.slabs
    window = choose_receiver_window(geom, (0.5,))
    n = 128
    streams = ScreenStreams(31, 4)
    mask = _apodization_mask(n)

    def hop(field, dist):
        absorbed = ComplexField(field.grid * mask, field.spacing, field.wavelength, field.transposed)
        return propagate_vacuum(absorbed, dist)

    field = gaussian_beam(geom, n, window / n, gap.path_length + 0.5 * s2.path_length)
    spectrum = screen_spectrum(n, field.spacing, baseline_profile)
    top, middle = generate_screen((s2, s1), spectrum, streams.generator(2))
    (bottom,) = generate_screen((s0,), spectrum, streams.generator(0))
    # each fixed-grid hop flips the field, so the middle screen goes on transposed
    (field,) = apply_screen((field,), top)
    (field,) = apply_screen((hop(field, 0.5 * (s2.path_length + s1.path_length)),), middle.T)
    (field,) = apply_screen((hop(field, 0.5 * (s1.path_length + s0.path_length)),), bottom)
    expected = upright(hop(field, 0.5 * s0.path_length))
    (out,) = split_step(channel_of(geom, baseline_profile, plan, n), streams)
    assert not out.transposed
    assert np.array_equal(out.grid, expected.grid)


def test_single_screen_scattering_broadens_beam():
    # one strongly turbulent band far above ground leaves 100 km of lever
    # arm for its phase gradients to turn into transverse spread
    geom = make_geometry()
    profile = AtmosphereProfile(
        ground_cn2=9.6e-14, ground_wind=3.0, outer_scale=5.0, inner_scale=0.01
    )
    plan = SlabPlan(
        (
            Slab(0.0, 99e3, 99e3, math.inf),
            Slab(99e3, 101e3, 2e3, 0.05),
            Slab(101e3, geom.satellite_altitude, 399e3, math.inf),
        )
    )
    window = choose_receiver_window(geom, (0.5,))
    vacuum = gaussian_beam(geom, 256, window / 256, geom.path_length)
    w_vac = second_moment_radius(vacuum)
    channel = channel_of(geom, profile, plan, 256)
    for realization in range(3):
        (out,) = split_step(channel, ScreenStreams(29, realization))
        assert second_moment_radius(out) > 1.3 * w_vac


def test_turbulence_broadens_beam_and_drops_coupling(baseline_profile):
    geom = make_geometry()
    window = choose_receiver_window(geom, (0.5,))
    plan = plan_slabs(geom, baseline_profile, window / 512)
    vacuum = gaussian_beam(geom, 512, window / 512, geom.path_length)
    w_vac = second_moment_radius(vacuum)
    eta_vac = meter(vacuum, 0.5)
    channel = channel_of(geom, baseline_profile, plan, 512)
    radii = []
    etas = []
    for realization in range(24):
        (out,) = split_step(channel, ScreenStreams(23, realization))
        radii.append(second_moment_radius(out))
        etas.append(meter(out, 0.5))
    # downlink broadening is faint (the screens sit at the very end of the
    # path) but systematic; mean coupling stays pinned near the diffraction
    # value while scintillation makes it fluctuate realization to realization
    assert np.mean(radii) > w_vac
    assert np.mean(etas) == pytest.approx(eta_vac, rel=0.05)
    assert np.std(etas) > 0.005 * np.mean(etas)
