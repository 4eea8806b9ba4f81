"""Key rates: mutual information with detector imperfections, the
asymptotic and ideal rates, and the composable finite-size rate.

Rates are in bits per channel use.  The eavesdropper is passive and the
source runs at the zero-leakage point, so the Holevo term vanishes and
the asymptotic rate is just the reconciliation-scaled mutual
information; finite-size effects enter as explicit penalty terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .ensemble import FadingStats
from .errors import PhysicalityError, UsageError
from .protocol import CovarianceMatrix, SqueezingParams, covariance_matrix

_AEP_POLICIES = ("composed", "smoothing_bar")
# The rates of one channel, in the order key_rate_summary returns them and
# the report and the key-rate CSV list them.
RATE_NAMES = (
    "mutual_information", "asymptotic_rate", "finite_size_rate_raw",
    "finite_size_rate", "ideal_rate", "plob_bound",
)
# Constant-loss range (dB) that max_tolerable_loss searches for the zero crossing.
_LOSS_BRACKET_DB = (0.0, 100.0)


@dataclass(frozen=True)
class DetectorModel:
    """Homodyne detector with sub-unit efficiency and electronic noise.

    The detector contributes (1 - efficiency) + electronic_noise of
    added variance relative to the signal, which is the finite form of
    (1 - eta_B) * (1 + v_B / (1 - eta_B)) and stays well defined in the
    unit-efficiency limit.
    """

    efficiency: float
    electronic_noise: float

    def __post_init__(self) -> None:
        if not (0.0 < self.efficiency <= 1.0):
            raise UsageError(f"detector efficiency must be in (0, 1], got {self.efficiency}")
        if self.electronic_noise < 0.0 or not math.isfinite(self.electronic_noise):
            raise UsageError(
                f"electronic noise must be nonnegative, got {self.electronic_noise}"
            )

    @property
    def added_variance(self) -> float:
        return (1.0 - self.efficiency) + self.electronic_noise


@dataclass(frozen=True)
class FiniteSizeParams:
    """Block accounting and the composable security budget of the finite-size rate.

    The one budget ``total_epsilon`` composes as 2 eps_smooth + eps_bar +
    eps_pe + eps_cor and is split evenly: eps_smooth = eps_bar = eps_cor =
    total_epsilon / 4 and eps_pe = 0, since Bob's q-variance is pinned at
    the vacuum level and needs no parameter estimation.  A budget so small
    that the finite-size penalty is not finite is refused.

    ``aep_interior_eps`` selects which security parameter feeds the
    entropy-accumulation penalty: "composed" uses the total epsilon (as
    the rate formula prints it), "smoothing_bar" substitutes eps_bar, a
    reading some formulations prefer.  The choice only shifts the
    penalty logarithmically and is exposed for sensitivity analysis.
    """

    block_size: float
    kept_length: float
    recon_efficiency: float
    discretisation: int
    total_epsilon: float
    aep_interior_eps: str = field(default="composed")

    def __post_init__(self) -> None:
        if not (0.0 < self.total_epsilon < 1.0):
            raise UsageError(f"total epsilon must be in (0, 1), got {self.total_epsilon}")
        if not (1.0 <= self.kept_length <= self.block_size):
            raise UsageError(
                f"kept length must satisfy 1 <= N' <= N, got N'={self.kept_length}, "
                f"N={self.block_size}"
            )
        if not (0.0 < self.recon_efficiency <= 1.0):
            raise UsageError(
                f"reconciliation efficiency must be in (0, 1], got {self.recon_efficiency}"
            )
        if self.discretisation < 1:
            raise UsageError(f"discretisation must be at least 1 bit, got {self.discretisation}")
        if self.aep_interior_eps not in _AEP_POLICIES:
            raise UsageError(
                f"aep_interior_eps must be one of {_AEP_POLICIES}, got {self.aep_interior_eps!r}"
            )
        # A finite AEP penalty needs eps_smooth**2 > 0, so the correctness
        # term, which divides by eps_bar = eps_smooth, is then finite too.
        try:
            finite = math.isfinite(aep_delta(self))
        except ZeroDivisionError:  # a product of the shares underflowed to 0
            finite = False
        if not finite:
            raise UsageError(
                f"total_epsilon {self.total_epsilon!r} is too small: "
                "the finite-size penalty is not finite"
            )

    @property
    def split(self) -> dict[str, float]:
        """The budget's shares by name, in the order the report prints them."""
        quarter = self.total_epsilon / 4.0
        return {"eps_smooth": quarter, "eps_bar": quarter, "eps_pe": 0.0, "eps_cor": quarter}

    @classmethod
    def from_total_epsilon(
        cls,
        block_size: float,
        kept_length: float,
        recon_efficiency: float,
        discretisation: int,
        total_epsilon: float,
        aep_interior_eps: str = "composed",
    ) -> "FiniteSizeParams":
        """Same as the constructor; the name says which budget it takes."""
        return cls(
            block_size, kept_length, recon_efficiency, discretisation,
            total_epsilon, aep_interior_eps,
        )


def mutual_information(cm: CovarianceMatrix, det: DetectorModel) -> float:
    """Alice-Bob mutual information of q-quadrature homodyne readout.

    Detector imperfections add (1 - eta_B) + v_B of variance to Bob's
    measured quadrature, diluting the conditional variance reduction.
    """
    noisy_b = cm.b_q + det.added_variance
    conditional = cm.a_q - cm.c_q**2 / noisy_b
    if conditional <= 0.0:
        raise PhysicalityError(
            f"conditional variance {conditional} <= 0; covariance matrix and "
            "detector model are inconsistent"
        )
    return 0.5 * math.log2(cm.a_q / conditional)


def asymptotic_rate(recon_efficiency: float, mutual_info: float) -> float:
    """Reverse-reconciliation rate with a passive eavesdropper.

    The zero-leakage condition empties the eavesdropper's accessible
    information, so the rate is the reconciliation-scaled mutual
    information with no Holevo subtraction.
    """
    if not (0.0 <= recon_efficiency <= 1.0):
        raise UsageError(
            f"reconciliation efficiency must be in [0, 1], got {recon_efficiency}"
        )
    if mutual_info < 0.0:
        raise UsageError(f"mutual information must be nonnegative, got {mutual_info}")
    return recon_efficiency * mutual_info


def ideal_rate(eta_f: float) -> float:
    """Envelope rate at infinite squeezing with ideal devices."""
    if not (0.0 <= eta_f <= 1.0):
        raise UsageError(f"effective transmissivity must be in [0, 1], got {eta_f}")
    if eta_f == 1.0:
        return math.inf
    return -0.5 * math.log2(1.0 - eta_f)


def plob_bound(eta: float) -> float:
    """Repeaterless capacity bound of the pure-loss channel."""
    if not (0.0 <= eta <= 1.0):
        raise UsageError(f"transmissivity must be in [0, 1], got {eta}")
    if eta == 1.0:
        return math.inf
    return -math.log2(1.0 - eta)


def aep_delta(p: FiniteSizeParams) -> float:
    """Entropy-accumulation penalty coefficient.

    Grows quadratically with the discretisation depth and
    logarithmically as the security parameters tighten; the kept-length
    term is a vanishing correction for any realistic block.
    """
    split = p.split
    eps_sm = split["eps_smooth"]
    eps = p.total_epsilon if p.aep_interior_eps == "composed" else split["eps_bar"]
    d = float(p.discretisation)
    return (
        (d + 1.0) ** 2
        + 4.0 * (d + 1.0) * math.sqrt(math.log2(2.0 / (2.0 * eps_sm**2)))
        + 2.0 * math.log2(2.0 / (2.0 * eps**2 * eps_sm))
        + 4.0 * eps_sm * d / (eps * math.sqrt(p.kept_length))
    )


def finite_size_rate(p: FiniteSizeParams, mutual_info: float) -> float:
    """Composable finite-size key rate; negative values are meaningful.

    The raw value is preserved because root finding needs the sign; a
    report that quotes deliverable key should clamp at zero.
    """
    if mutual_info < 0.0:
        raise UsageError(f"mutual information must be nonnegative, got {mutual_info}")
    n_kept = p.kept_length
    return (
        n_kept * p.recon_efficiency * mutual_info
        - math.sqrt(n_kept) * aep_delta(p)
        - 2.0 * math.log2(1.0 / (2.0 * p.split["eps_bar"]))
    ) / p.block_size


def _rate_at_loss_db(
    loss_db: float,
    p: FiniteSizeParams,
    det: DetectorModel,
    params: SqueezingParams,
) -> float:
    eta = 10.0 ** (-loss_db / 10.0)
    cm = covariance_matrix(params, eta, eta)
    return finite_size_rate(p, mutual_information(cm, det))


def max_tolerable_loss(p: FiniteSizeParams, det: DetectorModel, squeezing_db: float) -> float:
    """Constant-loss level where the finite-size rate crosses zero.

    Bisects 0-100 dB of loss to 0.01 dB.  Requires the rate to be
    positive at 0 dB and negative at 100 dB.
    """
    params = SqueezingParams.from_squeezing_db(squeezing_db)
    lo, hi = _LOSS_BRACKET_DB
    rate_lo = _rate_at_loss_db(lo, p, det, params)
    rate_hi = _rate_at_loss_db(hi, p, det, params)
    if rate_lo <= 0.0 or rate_hi >= 0.0:
        raise UsageError(
            f"no zero crossing in [{lo}, {hi}] dB: rate({lo} dB) = {rate_lo}, "
            f"rate({hi} dB) = {rate_hi}"
        )
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        if _rate_at_loss_db(mid, p, det, params) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def key_rate_summary(
    params: SqueezingParams,
    stats: FadingStats,
    det: DetectorModel,
    fin: FiniteSizeParams,
) -> dict[str, float]:
    """All rates for one channel: raw and clamped finite-size included."""
    cm = covariance_matrix(params, stats.mean_eta, stats.eta_f)
    info = mutual_information(cm, det)
    raw = finite_size_rate(fin, info)
    rates = (
        info,
        asymptotic_rate(fin.recon_efficiency, info),
        raw,
        max(raw, 0.0),
        ideal_rate(stats.eta_f),
        plob_bound(stats.eta_f),
    )
    return dict(zip(RATE_NAMES, rates))


def render_key_rate_report(
    params: SqueezingParams,
    stats: FadingStats,
    det: DetectorModel,
    fin: FiniteSizeParams,
    rates: dict[str, float],
) -> str:
    """Human-readable report echoing all inputs next to their
    ``key_rate_summary`` rates."""
    inputs = [
        ("squeezed_variance", params.squeezed_variance),
        ("modulation_variance", params.modulation_variance),
        ("tap_transmissivity", params.tap_transmissivity),
        ("mean_eta", stats.mean_eta),
        ("eta_f", stats.eta_f),
        ("var_sqrt", stats.var_sqrt),
        ("mean_loss_db", stats.mean_loss_db),
        ("detector_efficiency", det.efficiency),
        ("electronic_noise", det.electronic_noise),
        ("block_size", fin.block_size),
        ("kept_length", fin.kept_length),
        ("recon_efficiency", fin.recon_efficiency),
        ("discretisation", fin.discretisation),
        *fin.split.items(),
        ("total_epsilon", fin.total_epsilon),
    ]

    def table(rows) -> list[str]:
        # the discretisation is an int and prints whole
        return [f"  {name:<22} {v if isinstance(v, int) else f'{v:.12g}'}" for name, v in rows]

    lines = [
        "key rate report",
        "",
        "inputs",
        *table(inputs),
        "",
        "rates (bits/use)",
        *table((name, rates[name]) for name in RATE_NAMES),
    ]
    return "\n".join(lines) + "\n"
