"""Rate formulas, finite-size penalties, and the tolerable-loss search."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duallink.ensemble import fading_stats
from duallink.errors import PhysicalityError, UsageError
from duallink.keyrate import (
    DetectorModel,
    FiniteSizeParams,
    aep_delta,
    asymptotic_rate,
    finite_size_rate,
    ideal_rate,
    key_rate_summary,
    max_tolerable_loss,
    mutual_information,
    plob_bound,
    render_key_rate_report,
)
from duallink.protocol import SqueezingParams, covariance_matrix

from oracles import FourEpsilonParams, four_epsilon_aep_delta, four_epsilon_finite_size_rate

# Regression constant: four-term penalty expression evaluated at 40
# significant digits for d=5, eps_sm=eps_bar=eps_cor=2.5e-10, eps_pe=0,
# N'=5e9.
AEP_DELTA_REFERENCE = 411.07599905195616

IDEAL_DETECTOR = DetectorModel(efficiency=1.0, electronic_noise=0.0)


def reference_detector() -> DetectorModel:
    return DetectorModel(efficiency=0.61, electronic_noise=0.12)


def reference_finite_size(
    block_size: float = 1e10, kept_length: float | None = None
) -> FiniteSizeParams:
    return FiniteSizeParams.from_total_epsilon(
        block_size=block_size,
        kept_length=block_size / 2.0 if kept_length is None else kept_length,
        recon_efficiency=0.98,
        discretisation=5,
        total_epsilon=1e-9,
    )


# ------------------------------------------------------------- components


def test_detector_model_validation():
    with pytest.raises(UsageError):
        DetectorModel(efficiency=0.0, electronic_noise=0.1)
    with pytest.raises(UsageError):
        DetectorModel(efficiency=1.2, electronic_noise=0.1)
    with pytest.raises(UsageError):
        DetectorModel(efficiency=0.5, electronic_noise=-0.1)


def test_detector_added_variance():
    assert reference_detector().added_variance == pytest.approx(0.51, rel=1e-12)
    assert IDEAL_DETECTOR.added_variance == 0.0
    # Unit-efficiency limit keeps the electronic term.
    assert DetectorModel(1.0, 0.12).added_variance == pytest.approx(0.12, rel=1e-12)


def test_finite_size_params_validation():
    with pytest.raises(UsageError):
        reference_finite_size(kept_length=2e10)  # N' > N
    with pytest.raises(UsageError):
        FiniteSizeParams.from_total_epsilon(1e10, 5e9, 0.0, 5, 1e-9)
    with pytest.raises(UsageError):
        FiniteSizeParams.from_total_epsilon(1e10, 5e9, 0.98, 0, 1e-9)
    with pytest.raises(UsageError):
        FiniteSizeParams.from_total_epsilon(1e10, 5e9, 0.98, 5, 2.0)
    with pytest.raises(UsageError):
        FiniteSizeParams(1e10, 5e9, 0.98, 5, 1e-9, "typo")
    # budgets whose penalty overflows, divides by zero, or whose quarter is 0
    for tiny in (1e-105, 1e-150, 1e-323):
        for policy in ("composed", "smoothing_bar"):
            with pytest.raises(UsageError, match="total_epsilon"):
                FiniteSizeParams(1e10, 5e9, 0.98, 5, tiny, policy)


def test_even_epsilon_split():
    split = reference_finite_size().split
    assert split["eps_smooth"] == split["eps_bar"] == split["eps_cor"] == pytest.approx(2.5e-10)
    assert split["eps_pe"] == 0.0
    composed = 2.0 * split["eps_smooth"] + split["eps_bar"] + split["eps_pe"] + split["eps_cor"]
    assert composed == pytest.approx(1e-9, rel=1e-12)


# ------------------------------------------------------ mutual information


def test_mutual_information_ideal_detector_hand_case():
    params = SqueezingParams(0.25, 4.0, 0.2)
    cm = covariance_matrix(params, 1.0, 1.0)
    info = mutual_information(cm, IDEAL_DETECTOR)
    assert info == pytest.approx(0.5 * math.log2(3.25), rel=1e-12)
    assert info == pytest.approx(0.8502, abs=5e-5)


def test_mutual_information_dead_channel_is_zero():
    params = SqueezingParams.zero_leakage(0.25)
    cm = covariance_matrix(params, 0.0, 0.0)
    assert mutual_information(cm, IDEAL_DETECTOR) == 0.0


def test_mutual_information_decreases_with_electronic_noise():
    params = SqueezingParams.zero_leakage(0.25)
    cm = covariance_matrix(params, 0.5, 0.5)
    values = [
        mutual_information(cm, DetectorModel(0.61, v_b))
        for v_b in (0.0, 0.06, 0.12, 0.5, 2.0)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_mutual_information_continuous_at_unit_efficiency():
    params = SqueezingParams.zero_leakage(0.25)
    cm = covariance_matrix(params, 0.7, 0.7)
    near = mutual_information(cm, DetectorModel(1.0 - 1e-9, 0.12))
    limit = mutual_information(cm, DetectorModel(1.0, 0.12))
    assert near == pytest.approx(limit, abs=1e-6)


# ------------------------------------------------------------ simple rates


def test_asymptotic_rate():
    assert asymptotic_rate(1.0, 0.8502) == 0.8502
    assert asymptotic_rate(0.0, 0.8502) == 0.0
    assert asymptotic_rate(0.98, 0.8502) == pytest.approx(0.8332, abs=5e-5)
    with pytest.raises(UsageError):
        asymptotic_rate(1.1, 0.5)


def test_ideal_rate_values():
    assert ideal_rate(0.5) == pytest.approx(0.5, abs=1e-12)
    assert ideal_rate(0.0) == 0.0
    assert ideal_rate(0.75) == pytest.approx(1.0, abs=1e-12)
    assert ideal_rate(1.0) == math.inf
    with pytest.raises(UsageError):
        ideal_rate(-0.1)
    with pytest.raises(UsageError):
        ideal_rate(1.1)


def test_plob_bound_doubles_ideal_rate():
    assert plob_bound(0.5) == pytest.approx(1.0, abs=1e-12)
    assert plob_bound(0.75) == pytest.approx(2.0, abs=1e-12)
    assert plob_bound(1.0) == math.inf
    for eta in np.linspace(0.01, 0.99, 50):
        assert plob_bound(eta) == pytest.approx(2.0 * ideal_rate(eta), rel=1e-12)


# -------------------------------------------------------------- penalties


def test_aep_delta_regression_value():
    fin = reference_finite_size()
    assert aep_delta(fin) == pytest.approx(AEP_DELTA_REFERENCE, rel=1e-12)


def test_aep_delta_increases_with_discretisation():
    values = []
    for d in (1, 3, 5, 8, 12):
        fin = FiniteSizeParams.from_total_epsilon(1e10, 5e9, 0.98, d, 1e-9)
        values.append(aep_delta(fin))
    assert all(a < b for a, b in zip(values, values[1:]))


def test_aep_delta_kept_length_limit():
    huge = FiniteSizeParams.from_total_epsilon(1e40, 1e40, 0.98, 5, 1e-9)
    eps_sm = 2.5e-10
    eps = 1e-9
    three_terms = (
        36.0
        + 24.0 * math.sqrt(math.log2(2.0 / (2.0 * eps_sm**2)))
        + 2.0 * math.log2(2.0 / (2.0 * eps**2 * eps_sm))
    )
    assert aep_delta(huge) == pytest.approx(three_terms, rel=1e-12)


def test_aep_delta_interior_epsilon_policy():
    composed = reference_finite_size()
    bar = FiniteSizeParams(1e10, 5e9, 0.98, 5, 1e-9, "smoothing_bar")
    eps_sm = 2.5e-10
    eps_bar = 2.5e-10
    expected = (
        36.0
        + 24.0 * math.sqrt(math.log2(2.0 / (2.0 * eps_sm**2)))
        + 2.0 * math.log2(2.0 / (2.0 * eps_bar**2 * eps_sm))
        + 4.0 * eps_sm * 5.0 / (eps_bar * math.sqrt(5e9))
    )
    assert aep_delta(bar) == pytest.approx(expected, rel=1e-12)
    assert aep_delta(bar) > aep_delta(composed)


@settings(max_examples=300, deadline=None)
@given(
    total_epsilon=st.floats(3e-103, 1.0, exclude_max=True),
    policy=st.sampled_from(["composed", "smoothing_bar"]),
    discretisation=st.integers(1, 16),
    lengths=st.lists(st.floats(1.0, 1e14), min_size=2, max_size=2),
    recon_efficiency=st.floats(0.0, 1.0, exclude_min=True),
    info=st.floats(0.0, 10.0),
)
def test_penalty_equals_four_epsilon_reference(
    total_epsilon, policy, discretisation, lengths, recon_efficiency, info
):
    kept_length, block_size = sorted(lengths)
    args = (block_size, kept_length, recon_efficiency, discretisation, total_epsilon, policy)
    reference = FourEpsilonParams.even_split(*args)
    expected = four_epsilon_aep_delta(reference)
    if not math.isfinite(expected):
        # only under smoothing_bar, below a budget of about 7.1e-103
        with pytest.raises(UsageError, match="total_epsilon"):
            FiniteSizeParams(*args)
        return
    fin = FiniteSizeParams(*args)
    assert fin.total_epsilon == reference.total_epsilon
    assert aep_delta(fin) == expected
    assert finite_size_rate(fin, info) == four_epsilon_finite_size_rate(reference, info)


# --------------------------------------------------------- finite-size rate


def test_finite_size_rate_is_pure_penalty_at_zero_information():
    fin = reference_finite_size()
    assert finite_size_rate(fin, 0.0) < 0.0


def test_finite_size_rate_asymptotic_limit():
    fin = FiniteSizeParams.from_total_epsilon(1e30, 1e30, 0.98, 5, 1e-9)
    info = 0.8502
    assert finite_size_rate(fin, info) == pytest.approx(0.98 * info, abs=1e-12)


def test_finite_size_rate_positive_at_reference_point():
    params = SqueezingParams.from_squeezing_db(10.0)
    cm = covariance_matrix(params, 0.3, 0.3)
    info = mutual_information(cm, reference_detector())
    assert finite_size_rate(reference_finite_size(), info) > 0.0


def test_finite_size_rate_monotonicities():
    params = SqueezingParams.from_squeezing_db(10.0)
    cm = covariance_matrix(params, 0.3, 0.3)
    info = mutual_information(cm, reference_detector())

    # Longer kept block helps whenever the rate is in the positive regime.
    kept = [1e9, 2e9, 4e9, 5e9]
    rates = [finite_size_rate(reference_finite_size(kept_length=k), info) for k in kept]
    assert all(a < b for a, b in zip(rates, rates[1:]))

    # Better reconciliation always helps.
    betas = [0.5, 0.8, 0.98, 1.0]
    rates = [
        finite_size_rate(
            FiniteSizeParams.from_total_epsilon(1e10, 5e9, b, 5, 1e-9), info
        )
        for b in betas
    ]
    assert all(a < b for a, b in zip(rates, rates[1:]))

    # Finer discretisation costs key through the penalty term.
    rates = [
        finite_size_rate(
            FiniteSizeParams.from_total_epsilon(1e10, 5e9, 0.98, d, 1e-9), info
        )
        for d in (3, 5, 8)
    ]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_ordering_chain_over_parameter_sweep():
    det = reference_detector()
    fin = reference_finite_size()
    for vs in (0.05, 0.1, 0.3, 0.6, 0.9):
        params = SqueezingParams.zero_leakage(vs)
        for eta in np.linspace(0.01, 0.99, 25):
            eta = float(eta)
            info = mutual_information(covariance_matrix(params, eta, eta), det)
            k_fin = max(finite_size_rate(fin, info), 0.0)
            k_asym = asymptotic_rate(fin.recon_efficiency, info)
            k_ideal = ideal_rate(eta)
            k_plob = plob_bound(eta)
            assert k_fin <= k_asym + 1e-15
            assert k_asym <= k_ideal + 1e-15
            assert k_ideal <= k_plob + 1e-15


# ------------------------------------------------------------- loss search


def test_max_tolerable_loss_reference_point():
    fin = reference_finite_size(block_size=1e14)
    start = time.perf_counter()
    loss = max_tolerable_loss(fin, reference_detector(), 10.0)
    elapsed = time.perf_counter() - start
    assert 37.0 <= loss <= 43.0
    assert elapsed < 1.0


def test_max_tolerable_loss_grows_with_block_size():
    det = reference_detector()
    small = max_tolerable_loss(reference_finite_size(block_size=1e12), det, 10.0)
    large = max_tolerable_loss(reference_finite_size(block_size=1e14), det, 10.0)
    assert large > small


def test_max_tolerable_loss_root_brackets_sign_change():
    fin = reference_finite_size(block_size=1e14)
    det = reference_detector()
    loss = max_tolerable_loss(fin, det, 10.0)
    params = SqueezingParams.from_squeezing_db(10.0)

    def rate_at(db: float) -> float:
        eta = 10.0 ** (-db / 10.0)
        cm = covariance_matrix(params, eta, eta)
        return finite_size_rate(fin, mutual_information(cm, det))

    assert rate_at(loss - 0.02) > 0.0
    assert rate_at(loss + 0.02) < 0.0


def test_max_tolerable_loss_requires_sign_change():
    # Reconciliation too poor for any positive rate.
    with pytest.raises(UsageError):
        FiniteSizeParams.from_total_epsilon(1e10, 5e9, 0.0, 5, 1e-9)
    # Noise floor high enough to keep the rate negative everywhere.
    deaf = DetectorModel(efficiency=0.01, electronic_noise=50.0)
    fin = FiniteSizeParams.from_total_epsilon(1e6, 5e5, 0.5, 5, 1e-9)
    with pytest.raises(UsageError):
        max_tolerable_loss(fin, deaf, 3.0)


# ----------------------------------------------------------------- reports


def test_key_rate_summary_keys_and_clamping():
    params = SqueezingParams.from_squeezing_db(10.0)
    det = reference_detector()
    fin = reference_finite_size()
    rates = key_rate_summary(params, fading_stats([1e-4]), det, fin)
    assert rates["finite_size_rate_raw"] < 0.0
    assert rates["finite_size_rate"] == 0.0
    assert rates["plob_bound"] == pytest.approx(2.0 * rates["ideal_rate"], rel=1e-12)


def test_render_key_rate_report_echoes_inputs():
    params = SqueezingParams.from_squeezing_db(10.0)
    stats = fading_stats([0.3])
    det = reference_detector()
    fin = reference_finite_size()
    report = render_key_rate_report(
        params, stats, det, fin, key_rate_summary(params, stats, det, fin)
    )
    for token in (
        "squeezed_variance",
        "mean_eta",
        "detector_efficiency",
        "block_size",
        "mutual_information",
        "asymptotic_rate",
        "finite_size_rate",
        "ideal_rate",
        "plob_bound",
        "0.61",
    ):
        assert token in report