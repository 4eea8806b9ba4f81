"""Squeezed-state protocol layer: covariance matrices, quadrature
simulation, and the classical bit stream sharing the same mode.

Alice taps a displaced, modulated mode (q-variance ``Va``) with a
squeezed ancilla (q-variance ``Vs``) on a beamsplitter of
transmissivity ``eps``.  The transmitted port carries q-variance
``eps*Va + (1-eps)*Vs``; choosing ``eps`` so that this equals the
vacuum variance makes the amplitude quadrature of the channel output
indistinguishable from vacuum, and a passive eavesdropper collecting
the lost light learns nothing from it.  All variances are in shot-noise
units where vacuum has variance 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import PhysicalityError, UsageError

# |eps*Va + (1-eps)*Vs - 1| below this counts as zero-leakage.
_LEAKAGE_TOLERANCE = 1e-12

# Symplectic eigenvalues may dip this far below 1 from rounding.
_SYMPLECTIC_SLACK = 1e-9


def zero_leakage_epsilon(squeezed_variance: float, modulation_variance: float) -> float:
    """Tap transmissivity that makes the transmitted q-variance exactly 1.

    Solves eps*Va + (1-eps)*Vs = 1 for eps, which lands in (0, 1)
    whenever 0 < Vs < 1 < Va.
    """
    _require_variance_ordering(squeezed_variance, modulation_variance)
    return (1.0 - squeezed_variance) / (modulation_variance - squeezed_variance)


def _require_variance_ordering(vs: float, va: float) -> None:
    if not (0.0 < vs < 1.0):
        raise UsageError(f"squeezed variance must be in (0, 1), got {vs}")
    if not (va > 1.0):
        raise UsageError(f"modulation variance must exceed 1, got {va}")
    if not (math.isfinite(vs) and math.isfinite(va)):
        raise UsageError("variances must be finite")


@dataclass(frozen=True)
class SqueezingParams:
    """Source settings: squeezed variance, modulation variance, tap ratio.

    ``tap_transmissivity`` is the beamsplitter transmissivity applied to
    the modulated mode; the squeezed ancilla enters the other port.
    """

    squeezed_variance: float
    modulation_variance: float
    tap_transmissivity: float

    def __post_init__(self) -> None:
        _require_variance_ordering(self.squeezed_variance, self.modulation_variance)
        if not (0.0 < self.tap_transmissivity < 1.0):
            raise UsageError(
                f"tap transmissivity must be in (0, 1), got {self.tap_transmissivity}"
            )

    @classmethod
    def zero_leakage(
        cls, squeezed_variance: float, modulation_variance: float | None = None
    ) -> "SqueezingParams":
        """Parameters with the tap set for zero leakage.

        Omitting ``modulation_variance`` pairs the squeezing with the
        anti-squeezed variance 1/Vs, so quoting a squeezing level in dB
        fixes both variances at once.
        """
        vs = squeezed_variance
        va = 1.0 / vs if modulation_variance is None else modulation_variance
        return cls(vs, va, zero_leakage_epsilon(vs, va))

    @classmethod
    def from_squeezing_db(cls, squeezing_db: float) -> "SqueezingParams":
        """Zero-leakage parameters from a squeezing level in dB (positive)."""
        if squeezing_db <= 0.0:
            raise UsageError(f"squeezing level must be positive dB, got {squeezing_db}")
        return cls.zero_leakage(10.0 ** (-squeezing_db / 10.0))

    @property
    def transmitted_q_variance(self) -> float:
        eps = self.tap_transmissivity
        return eps * self.modulation_variance + (1.0 - eps) * self.squeezed_variance

    @property
    def transmitted_p_variance(self) -> float:
        eps = self.tap_transmissivity
        return eps / self.modulation_variance + (1.0 - eps) / self.squeezed_variance

    @property
    def is_zero_leakage(self) -> bool:
        return abs(self.transmitted_q_variance - 1.0) <= _LEAKAGE_TOLERANCE


@dataclass(frozen=True)
class CovarianceMatrix:
    """Two-mode Gaussian covariance matrix in block-diagonal form.

    Basis order is (q_A, p_A, q_B, p_B); the q and p sectors do not
    mix, so six entries determine the matrix.  Construction verifies
    that both single-mode blocks obey the uncertainty relation and that
    the joint state is physical (symplectic eigenvalues >= 1).
    """

    a_q: float
    a_p: float
    b_q: float
    b_p: float
    c_q: float
    c_p: float

    def __post_init__(self) -> None:
        for name in ("a_q", "a_p", "b_q", "b_p"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise PhysicalityError(f"{name} must be positive and finite, got {value}")
        if self.a_q * self.a_p < 1.0 - _SYMPLECTIC_SLACK:
            raise PhysicalityError(
                f"mode A violates uncertainty: a_q*a_p = {self.a_q * self.a_p}"
            )
        if self.b_q * self.b_p < 1.0 - _SYMPLECTIC_SLACK:
            raise PhysicalityError(
                f"mode B violates uncertainty: b_q*b_p = {self.b_q * self.b_p}"
            )
        # Physicality means both symplectic eigenvalues are >= 1, i.e.
        # both roots of t^2 - delta*t + det lie at or above 1.  Testing
        # root location polynomially avoids the catastrophic
        # cancellation the explicit square-root formula hits for pure
        # states, where the two eigenvalues coincide at 1.
        delta, det_full = self._invariants()
        scale = 1.0 + delta + abs(det_full)
        tol = _SYMPLECTIC_SLACK * scale
        if delta < 2.0 - tol or 1.0 - delta + det_full < -tol:
            nu_minus = self.symplectic_eigenvalues()[1]
            raise PhysicalityError(
                f"unphysical covariance matrix: smaller symplectic eigenvalue {nu_minus}"
            )

    def _invariants(self) -> tuple[float, float]:
        det_a = self.a_q * self.a_p
        det_b = self.b_q * self.b_p
        det_c = self.c_q * self.c_p
        det_full = (self.a_q * self.b_q - self.c_q**2) * (
            self.a_p * self.b_p - self.c_p**2
        )
        return det_a + det_b + 2.0 * det_c, det_full

    def symplectic_eigenvalues(self) -> tuple[float, float]:
        """Symplectic spectrum (larger first) of the two-mode matrix.

        Near-degenerate spectra (pure states) lose about half the
        working precision to cancellation under the square root, so
        the returned values are accurate to roughly 1e-7 there.
        """
        delta, det_full = self._invariants()
        # Clamp tiny negative discriminants from cancellation.
        disc = math.sqrt(max(delta**2 - 4.0 * det_full, 0.0))
        nu_plus = math.sqrt(max((delta + disc) / 2.0, 0.0))
        nu_minus = math.sqrt(max((delta - disc) / 2.0, 0.0))
        return nu_plus, nu_minus


def covariance_matrix(params: SqueezingParams, mean_eta: float, eta_f: float) -> CovarianceMatrix:
    """Alice-Bob covariance matrix over a fading channel.

    The channel enters only through ``mean_eta`` = <eta> and ``eta_f`` =
    <sqrt(eta)>^2, and 0 <= eta_f <= mean_eta <= 1 is required; a channel
    frozen at eta passes eta twice.  Alice's block depends only on the
    source.  Bob's variances mix the transmitted variance with vacuum
    using the full mean transmissivity, while the correlations scale with
    <sqrt(eta)>, so fading (the gap between the two averages) decorrelates
    the modes without changing Bob's marginal.  With the tap set for zero
    leakage the transmitted q-variance is 1 and b_q stays at the vacuum
    level for any fading distribution.
    """
    if not (0.0 <= eta_f <= mean_eta <= 1.0):
        raise UsageError(
            f"need 0 <= eta_f <= mean_eta <= 1, got eta_f {eta_f}, mean_eta {mean_eta}"
        )
    eps = params.tap_transmissivity
    va = params.modulation_variance
    vs = params.squeezed_variance

    a_q = (1.0 - eps) * va + eps * vs
    a_p = (1.0 - eps) / va + eps / vs
    b_q = 1.0 + mean_eta * (params.transmitted_q_variance - 1.0)
    b_p = 1.0 + mean_eta * (params.transmitted_p_variance - 1.0)
    root_eta_f = math.sqrt(eta_f)
    cross = math.sqrt(eps * (1.0 - eps))
    c_q = root_eta_f * cross * (va - vs)
    c_p = root_eta_f * cross * (1.0 / va - 1.0 / vs)
    return CovarianceMatrix(a_q, a_p, b_q, b_p, c_q, c_p)


def _require_transmissivity(eta) -> np.ndarray:
    """One eta or an array of them as float64, every entry in [0, 1]."""
    etas = np.asarray(eta, dtype=float)
    bad = ~((etas >= 0.0) & (etas <= 1.0))
    if bad.any():
        raise UsageError(f"transmissivity must be in [0, 1], got {etas[bad][0].item()}")
    return etas


@dataclass(frozen=True)
class ClassicalLayer:
    """Binary classical signal riding the amplitude quadrature.

    Each symbol displaces the transmitted mode by +-2*displacement in q
    (displacement in amplitude units, so the mean separation between
    the two symbols at the receiver is 4*displacement*sqrt(eta)).  The
    bright carrier of amplitude ``carrier_amplitude`` provides the
    phase reference and the per-shot transmissivity estimate.  The model
    takes that estimate as exact, so ``carrier_amplitude`` is validated
    and hashed with the config but enters no computed number.
    """

    displacement: float
    carrier_amplitude: float

    def __post_init__(self) -> None:
        # displacement 0 is allowed: it turns the classical layer off,
        # which is useful for isolating the quantum statistics.
        if self.displacement < 0.0 or not math.isfinite(self.displacement):
            raise UsageError(f"displacement must be nonnegative, got {self.displacement}")
        if self.carrier_amplitude <= 0.0 or not math.isfinite(self.carrier_amplitude):
            raise UsageError(
                f"carrier amplitude must be positive, got {self.carrier_amplitude}"
            )


@dataclass(frozen=True)
class EmpiricalMoments:
    """Second moments and bit errors from a quadrature-level simulation.

    Moments are raw second moments (not mean-subtracted) over all shots
    and all channel realizations.  Eve's p-quadrature moments are
    reported for completeness even though no key-rate quantity uses
    them.
    """

    n_shots: int
    bit_errors: int
    xa_xa: float
    xb_xb: float
    xe_xe: float
    xa_xb: float
    xe_xb: float
    pa_pa: float
    pb_pb: float
    pe_pe: float
    pa_pb: float
    pe_pb: float

    @property
    def bit_error_rate(self) -> float:
        return self.bit_errors / self.n_shots


def mc_quadrature_sim(
    params: SqueezingParams,
    classical: ClassicalLayer,
    etas: Sequence[float],
    shots_per_eta: int,
    rng: np.random.Generator,
) -> EmpiricalMoments:
    """Monte Carlo run of the full transmitter-channel-receiver chain.

    For each channel realization, draws ``shots_per_eta`` independent
    shots: Gaussian modes through the tap, the channel beamsplitter
    against vacuum, the classical displacement, Bob's threshold bit
    decision at zero, and subtraction of the decided classical signal
    scaled by the carrier-derived transmissivity estimate, which the
    model takes as exact (sqrt(eta) itself).  Eve's
    moments subtract the true symbol, crediting her with perfect
    knowledge of the classical stream.  Bob's post-subtraction moments
    therefore carry his decision errors while Eve's do not.
    """
    etas = _require_transmissivity(etas).reshape(-1).tolist()
    if not etas:
        raise UsageError("channel must contain at least one realization")
    if shots_per_eta < 1:
        raise UsageError(f"shots_per_eta must be at least 1, got {shots_per_eta}")

    eps = params.tap_transmissivity
    va = params.modulation_variance
    vs = params.squeezed_variance
    alpha = classical.displacement

    keep_a = math.sqrt(1.0 - eps)
    keep_s = math.sqrt(eps)
    # Buffers shared by every eta.  standard_normal(out=) draws the same
    # stream as standard_normal(m), each in-place step is the same IEEE
    # operation as its out-of-place form (up to commuted operands), and
    # each moment sums a contiguous 1-D product pairwise, as np.sum(a * b)
    # does, so the moments match fresh-array arithmetic bit for bit.
    m = shots_per_eta
    bits = np.empty(m)
    x_a, x_s, x_v, p_a, p_s, p_v = (np.empty(m) for _ in range(6))
    alice, work, prod = np.empty(m), np.empty(m), np.empty(m)
    mask = np.empty(m, dtype=bool)
    row = np.empty(10)
    sums = np.zeros(10)
    bit_errors = 0

    def tap(a, s) -> None:
        # alice = keep_a a - keep_s s; s becomes the transmitted keep_s a + keep_a s
        np.multiply(a, keep_a, out=alice)
        np.subtract(alice, np.multiply(s, keep_s, out=work), out=alice)
        np.multiply(a, keep_s, out=work)
        s *= keep_a
        s += work

    def channel(tx, v, bob, t: float, r: float) -> None:
        # bob = t tx + r v; tx becomes Eve's r tx - t v
        np.multiply(tx, t, out=bob)
        bob += np.multiply(v, r, out=work)
        tx *= r
        v *= t
        tx -= v

    def second_moments(first: int, pairs) -> None:
        for k, (a, b) in enumerate(pairs, first):
            row[k] = np.multiply(a, b, out=prod).sum()

    for eta in etas:
        t = math.sqrt(eta)
        r = math.sqrt(1.0 - eta)

        np.multiply(rng.integers(0, 2, m), 2.0, out=bits)
        bits -= 1.0  # symbols +-1
        for draw in (x_a, x_s, x_v, p_a, p_s, p_v):
            rng.standard_normal(out=draw)
        x_a *= math.sqrt(va)
        x_s *= math.sqrt(vs)
        p_a /= math.sqrt(va)
        p_s /= math.sqrt(vs)

        # q: x_a carries the transmitted q plus the symbol into the channel;
        # x_s ends as Bob's received q, x_a as Eve's
        tap(x_a, x_s)
        np.multiply(bits, 2.0 * alpha, out=x_a)
        x_a += x_s
        channel(x_a, x_v, x_s, t, r)
        # Bob subtracts his threshold decision (+-1), Eve the true symbol
        np.greater_equal(x_s, 0.0, out=mask)
        np.multiply(mask, 2.0, out=work)
        work -= 1.0
        bit_errors += int(np.count_nonzero(np.not_equal(work, bits, out=mask)))
        work *= 2.0 * alpha * t
        x_s -= work
        x_a -= np.multiply(bits, 2.0 * alpha * r, out=work)
        second_moments(0, ((alice, alice), (x_s, x_s), (x_a, x_a), (alice, x_s), (x_a, x_s)))

        # p: the same beamsplitters without a symbol; p_a ends as Bob's, p_s as Eve's
        tap(p_a, p_s)
        channel(p_s, p_v, p_a, t, r)
        second_moments(5, ((alice, alice), (p_a, p_a), (p_s, p_s), (alice, p_a), (p_s, p_a)))
        sums += row

    n = shots_per_eta * len(etas)
    moments = sums / n
    return EmpiricalMoments(n, bit_errors, *moments)


def verify_predictions(params: SqueezingParams, etas, displacement: float):
    """Pooled closed-form moments of ``mc_quadrature_sim`` and their per-shot
    sampling variances, keyed by the names of ``EmpiricalMoments``; then the
    mean bit error rate and its value at each eta.

    Alice's and Bob's moments at each eta are the covariance matrix of a
    channel frozen at that eta; Eve holds the lost light, so her variances
    are Bob's at 1 - eta.  Bob subtracts his decided symbol, so at
    separation s = 2 alpha sqrt(eta / b_q) a wrong decision leaves twice the
    signal in his q: his variance becomes b_q (1 - 4 s phi(s) + 4 s^2 Q(s)),
    and by Stein's lemma his q correlations shrink by 1 - 2 s phi(s).  For
    zero-mean Gaussian quadratures the per-shot variance of <xy> is
    <xx><yy> + <xy>^2, which is 2 <xx>^2 on the diagonal.
    """
    names = [field.name for field in fields(EmpiricalMoments)][2:]  # past the counts
    excess_q = params.transmitted_q_variance - 1.0
    excess_p = params.transmitted_p_variance - 1.0
    bob = [covariance_matrix(params, eta, eta) for eta in etas]
    snrs = classical_snr(displacement, etas) / np.array([cm.b_q for cm in bob])
    ber = classical_ber(snrs).tolist()
    rows = []
    for eta, cm, snr, tail in zip(etas, bob, snrs.tolist(), ber):
        eve = covariance_matrix(params, 1.0 - eta, 1.0 - eta)
        s = math.sqrt(snr)
        phi = math.exp(-s * s / 2.0) / math.sqrt(2.0 * math.pi)
        shrink = 1.0 - 2.0 * s * phi
        # Not forced to an exact 0.0 under zero leakage: the report prints
        # the rounding residue of the excess variance (e.g. -0.000000 at
        # 7.5 dB).
        mix = math.sqrt(eta * (1.0 - eta))
        b_q = cm.b_q * (1.0 - 4.0 * s * phi + 4.0 * s * s * tail)
        # per sector: Alice, Bob and Eve variances, Alice-Bob and Eve-Bob covariances
        q = (cm.a_q, b_q, eve.b_q, shrink * cm.c_q, shrink * mix * excess_q)
        p = (cm.a_p, cm.b_p, eve.b_p, cm.c_p, mix * excess_p)
        row = []
        for a, b, e, ab, eb in (q, p):
            row += [(v, 2.0 * v**2) for v in (a, b, e)]
            row += [(ab, a * b + ab**2), (eb, e * b + eb**2)]
        rows.append(row)

    predictions = {
        name: (
            sum(v for v, _ in column) / len(column),
            sum(var for _, var in column) / len(column),
        )
        for name, column in zip(names, zip(*rows))
    }
    return predictions, sum(ber) / len(ber), ber


def classical_snr(displacement: float, eta):
    """Signal-to-noise ratio of the binary classical stream at Bob.

    Symbol means sit at +-2*displacement*sqrt(eta) against unit vacuum
    noise (the zero-leakage condition pins Bob's q-variance at 1), so
    the SNR is 4 * eta * displacement^2.  One eta gives a float; an
    array of them gives an array.
    """
    if displacement < 0.0 or not math.isfinite(displacement):
        raise UsageError(f"displacement must be nonnegative, got {displacement}")
    snr = 4.0 * _require_transmissivity(eta) * displacement**2
    return float(snr) if snr.ndim == 0 else snr


def classical_ber(snr):
    """Bit error rate of threshold detection at the given SNR.

    Gaussian tail probability Q(sqrt(snr)).  One SNR gives a float; an
    array of them gives an array.
    """
    snrs = np.asarray(snr, dtype=float)
    bad = ~(snrs >= 0.0) | (snrs == math.inf)
    if bad.any():
        raise UsageError(f"SNR must be nonnegative and finite, got {snrs[bad][0].item()}")
    # numpy has no erfc, so the tail is taken per element over Python floats
    root2 = math.sqrt(2.0)
    bers = [0.5 * math.erfc(x / root2) for x in np.sqrt(snrs).ravel().tolist()]
    return bers[0] if snrs.ndim == 0 else np.array(bers)
