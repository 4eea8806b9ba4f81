"""Estimators that only the tests use: field power, beam radius, phase
structure function, and the Eve-Bob correlation."""

import math

import numpy as np

from duallink.errors import UsageError
from duallink.optics import ComplexField
from duallink.protocol import SqueezingParams
from duallink.screens import PhaseScreen, _centered_coords


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
