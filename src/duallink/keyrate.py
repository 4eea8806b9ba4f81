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
    """Block accounting and security parameters for the finite-size rate.

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
    eps_smooth: float
    eps_bar: float
    eps_pe: float
    eps_cor: float
    aep_interior_eps: str = field(default="composed")

    def __post_init__(self) -> None:
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
        for name in ("eps_smooth", "eps_bar", "eps_pe", "eps_cor"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0):
                raise UsageError(f"{name} must be in [0, 1), got {value}")
        if not (0.0 < self.total_epsilon < 1.0):
            raise UsageError(
                f"composed security parameter must be in (0, 1), got {self.total_epsilon}"
            )
        if self.aep_interior_eps not in _AEP_POLICIES:
            raise UsageError(
                f"aep_interior_eps must be one of {_AEP_POLICIES}, got {self.aep_interior_eps!r}"
            )

    @property
    def total_epsilon(self) -> float:
        return 2.0 * self.eps_smooth + self.eps_bar + self.eps_pe + self.eps_cor

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
        """Even budget split: eps_sm = eps_bar = eps_cor = eps/4, eps_pe = 0.

        Parameter estimation is unnecessary for this protocol (Bob's
        q-variance is pinned at the vacuum level), so its share of the
        budget is zero and the remaining quarter weights make the
        composition 2*eps_sm + eps_bar + eps_cor equal the total.
        """
        if not (0.0 < total_epsilon < 1.0):
            raise UsageError(f"total epsilon must be in (0, 1), got {total_epsilon}")
        quarter = total_epsilon / 4.0
        return cls(
            block_size=block_size,
            kept_length=kept_length,
            recon_efficiency=recon_efficiency,
            discretisation=discretisation,
            eps_smooth=quarter,
            eps_bar=quarter,
            eps_pe=0.0,
            eps_cor=quarter,
            aep_interior_eps=aep_interior_eps,
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
    if p.eps_smooth <= 0.0:
        raise UsageError("smoothing epsilon must be positive for the penalty term")
    eps = p.total_epsilon if p.aep_interior_eps == "composed" else p.eps_bar
    if eps <= 0.0:
        raise UsageError("interior epsilon must be positive for the penalty term")
    d = float(p.discretisation)
    eps_sm = p.eps_smooth
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
    if p.eps_bar <= 0.0:
        raise UsageError("eps_bar must be positive for the correctness term")
    n_kept = p.kept_length
    return (
        n_kept * p.recon_efficiency * mutual_info
        - math.sqrt(n_kept) * aep_delta(p)
        - 2.0 * math.log2(1.0 / (2.0 * p.eps_bar))
    ) / p.block_size


def _rate_at_loss_db(
    loss_db: float,
    p: FiniteSizeParams,
    det: DetectorModel,
    params: SqueezingParams,
) -> float:
    eta = 10.0 ** (-loss_db / 10.0)
    stats = FadingStats(
        mean_eta=eta,
        eta_f=eta,
        var_sqrt=0.0,
        mean_loss_db=loss_db,
        std_loss_db=0.0,
    )
    cm = covariance_matrix(params, stats)
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
    cm = covariance_matrix(params, stats)
    info = mutual_information(cm, det)
    raw = finite_size_rate(fin, info)
    return {
        "mutual_information": info,
        "asymptotic_rate": asymptotic_rate(fin.recon_efficiency, info),
        "finite_size_rate_raw": raw,
        "finite_size_rate": max(raw, 0.0),
        "ideal_rate": ideal_rate(stats.eta_f),
        "plob_bound": plob_bound(stats.eta_f),
    }


def render_key_rate_report(
    params: SqueezingParams,
    stats: FadingStats,
    det: DetectorModel,
    fin: FiniteSizeParams,
    rates: dict[str, float],
) -> str:
    """Human-readable report echoing all inputs next to their
    ``key_rate_summary`` rates."""
    lines = [
        "key rate report",
        "",
        "inputs",
        f"  squeezed_variance      {params.squeezed_variance:.12g}",
        f"  modulation_variance    {params.modulation_variance:.12g}",
        f"  tap_transmissivity     {params.tap_transmissivity:.12g}",
        f"  mean_eta               {stats.mean_eta:.12g}",
        f"  eta_f                  {stats.eta_f:.12g}",
        f"  var_sqrt               {stats.var_sqrt:.12g}",
        f"  mean_loss_db           {stats.mean_loss_db:.12g}",
        f"  detector_efficiency    {det.efficiency:.12g}",
        f"  electronic_noise       {det.electronic_noise:.12g}",
        f"  block_size             {fin.block_size:.12g}",
        f"  kept_length            {fin.kept_length:.12g}",
        f"  recon_efficiency       {fin.recon_efficiency:.12g}",
        f"  discretisation         {fin.discretisation}",
        f"  eps_smooth             {fin.eps_smooth:.12g}",
        f"  eps_bar                {fin.eps_bar:.12g}",
        f"  eps_pe                 {fin.eps_pe:.12g}",
        f"  eps_cor                {fin.eps_cor:.12g}",
        f"  total_epsilon          {fin.total_epsilon:.12g}",
        "",
        "rates (bits/use)",
        f"  mutual_information     {rates['mutual_information']:.12g}",
        f"  asymptotic_rate        {rates['asymptotic_rate']:.12g}",
        f"  finite_size_rate_raw   {rates['finite_size_rate_raw']:.12g}",
        f"  finite_size_rate       {rates['finite_size_rate']:.12g}",
        f"  ideal_rate             {rates['ideal_rate']:.12g}",
        f"  plob_bound             {rates['plob_bound']:.12g}",
    ]
    return "\n".join(lines) + "\n"
