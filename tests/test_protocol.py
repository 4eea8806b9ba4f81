"""Covariance structure, correlations, and the quadrature Monte Carlo."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duallink.ensemble import fading_stats
from duallink.errors import PhysicalityError, UsageError
from duallink.protocol import (
    ClassicalLayer,
    CovarianceMatrix,
    SqueezingParams,
    classical_ber,
    classical_snr,
    covariance_matrix,
    mc_quadrature_sim,
    zero_leakage_epsilon,
)

from oracles import eve_bob_correlation, per_eta_mc_quadrature_sim


def gaussian_tail(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def extraction_second_moment(separation: float) -> float:
    # E[(X - s*sign(X))^2] for X = s*b + N(0,1): the decided-bit
    # subtraction folds sign errors back toward zero.
    s = separation
    phi = math.exp(-s * s / 2.0) / math.sqrt(2.0 * math.pi)
    return 1.0 - 4.0 * s * phi + 4.0 * s * s * gaussian_tail(s)


# ---------------------------------------------------------------- tap ratio


def test_zero_leakage_epsilon_hand_value():
    assert zero_leakage_epsilon(0.25, 4.0) == pytest.approx(0.2, rel=1e-15)


def test_zero_leakage_epsilon_cancels_transmitted_variance():
    for vs, va in [(0.1, 10.0), (0.5, 2.0), (0.9, 1.2), (0.25, 7.0)]:
        eps = zero_leakage_epsilon(vs, va)
        assert 0.0 < eps < 1.0
        assert eps * va + (1.0 - eps) * vs == pytest.approx(1.0, abs=1e-15)


def test_zero_leakage_epsilon_rejects_bad_ordering():
    with pytest.raises(UsageError):
        zero_leakage_epsilon(0.5, 0.5)
    with pytest.raises(UsageError):
        zero_leakage_epsilon(1.2, 4.0)
    with pytest.raises(UsageError):
        zero_leakage_epsilon(0.5, 0.9)


def test_squeezing_params_validation():
    with pytest.raises(UsageError):
        SqueezingParams(0.0, 4.0, 0.2)
    with pytest.raises(UsageError):
        SqueezingParams(0.25, 1.0, 0.2)
    with pytest.raises(UsageError):
        SqueezingParams(0.25, 4.0, 1.0)


def test_zero_leakage_constructor_defaults_to_pure_squeezing():
    params = SqueezingParams.zero_leakage(0.25)
    assert params.modulation_variance == pytest.approx(4.0, rel=1e-15)
    assert params.is_zero_leakage
    # eps = (1 - Vs) / (1/Vs - Vs) = Vs/(1+Vs)
    assert params.tap_transmissivity == pytest.approx(0.2, rel=1e-14)


def test_from_squeezing_db():
    params = SqueezingParams.from_squeezing_db(10.0)
    assert params.squeezed_variance == pytest.approx(0.1, rel=1e-14)
    assert params.modulation_variance == pytest.approx(10.0, rel=1e-14)
    with pytest.raises(UsageError):
        SqueezingParams.from_squeezing_db(-3.0)


@given(
    vs=st.floats(0.01, 0.99),
    va=st.floats(1.01, 50.0),
)
@settings(max_examples=200, deadline=None)
def test_zero_leakage_identity_over_random_parameters(vs, va):
    params = SqueezingParams.zero_leakage(vs, va)
    assert abs(params.transmitted_q_variance - 1.0) < 1e-12
    assert params.is_zero_leakage


# ------------------------------------------------------- covariance matrix


def fading_matrix(params: SqueezingParams, etas):
    """The covariance matrix over the sample moments of etas."""
    stats = fading_stats(etas)
    return covariance_matrix(params, stats.mean_eta, stats.eta_f)


def test_covariance_matrix_hand_case():
    params = SqueezingParams(0.25, 4.0, 0.2)
    cm = covariance_matrix(params, 1.0, 1.0)
    assert cm.a_q == pytest.approx(3.25, rel=1e-14)
    assert cm.a_p == pytest.approx(1.0, rel=1e-14)
    assert cm.b_q == pytest.approx(1.0, abs=1e-14)
    assert cm.b_p == pytest.approx(3.25, rel=1e-14)
    assert cm.c_q == pytest.approx(1.5, rel=1e-14)
    assert cm.c_p == pytest.approx(-1.5, rel=1e-14)


def test_quantum_noise_locked_b_q_for_any_fading():
    params = SqueezingParams.zero_leakage(0.25, 4.0)
    for etas in ([0.3], [0.1, 0.9], [0.0, 0.25, 0.5, 1.0], [1e-6] * 5 + [0.99]):
        cm = fading_matrix(params, etas)
        assert abs(cm.b_q - 1.0) < 1e-12


def test_dead_channel_kills_correlations():
    params = SqueezingParams.zero_leakage(0.25)
    cm = covariance_matrix(params, 0.0, 0.0)
    assert cm.c_q == 0.0
    assert cm.c_p == 0.0
    assert cm.b_q == pytest.approx(1.0, abs=1e-14)
    assert cm.b_p == pytest.approx(1.0, abs=1e-14)


def test_fading_decorrelates_without_changing_marginals():
    # Same mean transmissivity, different spread: b entries agree,
    # c entries shrink with the spread.
    params = SqueezingParams(0.3, 5.0, 0.4)
    narrow = fading_matrix(params, [0.5, 0.5])
    wide = fading_matrix(params, [0.1, 0.9])
    assert wide.b_q == pytest.approx(narrow.b_q, rel=1e-12)
    assert wide.b_p == pytest.approx(narrow.b_p, rel=1e-12)
    assert abs(wide.c_q) < abs(narrow.c_q)
    assert abs(wide.c_p) < abs(narrow.c_p)


def test_covariance_sign_structure():
    params = SqueezingParams.zero_leakage(0.25, 4.0)
    cm = covariance_matrix(params, 0.7, 0.7)
    assert cm.c_q > 0.0 > cm.c_p


def test_physicality_sweep_over_parameter_grid():
    for vs in (0.05, 0.25, 0.5, 0.75, 0.95):
        for va in (1.05, 2.0, 5.0, 20.0):
            params = SqueezingParams.zero_leakage(vs, va)
            for etas in ([0.001], [1.0], [0.2, 0.8], [0.001, 0.5, 1.0]):
                # Construction itself certifies physicality at the
                # 1e-9 level; the explicit eigenvalues are only good
                # to ~1e-7 near degeneracy.
                cm = fading_matrix(params, etas)
                nu_plus, nu_minus = cm.symplectic_eigenvalues()
                assert nu_minus >= 1.0 - 1e-7
                assert nu_plus >= nu_minus


@given(
    vs=st.floats(0.05, 0.95),
    va=st.floats(1.05, 20.0),
    etas=st.lists(st.floats(0.001, 1.0), min_size=1, max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_physicality_over_random_fading(vs, va, etas):
    params = SqueezingParams.zero_leakage(vs, va)
    cm = fading_matrix(params, etas)
    assert cm.symplectic_eigenvalues()[1] >= 1.0 - 1e-7


@pytest.mark.parametrize(
    "mean_eta, eta_f",
    [(0.4, 0.5), (1.2, 0.5), (0.5, -0.1), (math.nan, 0.3), (0.5, math.nan)],
    ids=["eta_f-above-mean", "mean-above-1", "negative-eta_f", "nan-mean", "nan-eta_f"],
)
def test_covariance_matrix_refuses_inconsistent_moments(mean_eta, eta_f):
    with pytest.raises(UsageError, match="0 <= eta_f <= mean_eta <= 1"):
        covariance_matrix(SqueezingParams.zero_leakage(0.25, 4.0), mean_eta, eta_f)


def test_unphysical_matrix_rejected():
    # Correlations stronger than the marginals allow.
    with pytest.raises(PhysicalityError):
        CovarianceMatrix(1.0, 1.0, 1.0, 1.0, 0.9, -0.9)
    with pytest.raises(PhysicalityError):
        CovarianceMatrix(0.5, 0.5, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(PhysicalityError):
        CovarianceMatrix(-1.0, 1.0, 1.0, 1.0, 0.0, 0.0)


# ------------------------------------------------------------- correlations


def alice_bob_correlation(params: SqueezingParams, eta: float) -> float:
    """<X_A X_B> through a channel frozen at transmissivity eta."""
    return covariance_matrix(params, eta, eta).c_q


def test_alice_bob_correlation_hand_case():
    params = SqueezingParams.zero_leakage(0.25, 4.0)
    got = alice_bob_correlation(params, 1.0)
    assert got == pytest.approx(1.5, rel=1e-12)
    # Closed form for the zero-leakage tap.
    assert got == pytest.approx(math.sqrt(3.0) * math.sqrt(0.75), rel=1e-12)
    assert alice_bob_correlation(params, 0.0) == 0.0
    assert alice_bob_correlation(params, 0.25) == pytest.approx(0.75, rel=1e-12)


def test_alice_bob_correlation_matches_zero_leakage_closed_form():
    for vs, va in [(0.1, 3.0), (0.5, 2.0), (0.8, 9.0)]:
        params = SqueezingParams.zero_leakage(vs, va)
        for eta in (0.25, 0.7, 1.0):
            expected = math.sqrt(eta) * math.sqrt((va - 1.0) * (1.0 - vs))
            assert alice_bob_correlation(params, eta) == pytest.approx(expected, rel=1e-12)


def test_eve_bob_correlation_vanishes_for_zero_leakage():
    params = SqueezingParams.zero_leakage(0.25, 4.0)
    for eta in (0.0, 0.3, 0.5, 0.99, 1.0):
        assert eve_bob_correlation(params, eta) == 0.0


def test_eve_bob_correlation_against_moment_oracle():
    # Oracle: write every output mode as a linear combination of the
    # three independent input modes (modulated, squeezed, vacuum) and
    # contract against the diagonal input covariance.
    vs, va, eps, eta = 0.5, 4.0, 0.5, 0.5
    params = SqueezingParams(vs, va, eps)
    cov_in = np.diag([va, vs, 1.0])
    tx = np.array([math.sqrt(eps), math.sqrt(1.0 - eps), 0.0])
    bob = math.sqrt(eta) * tx + np.array([0.0, 0.0, math.sqrt(1.0 - eta)])
    eve = math.sqrt(1.0 - eta) * tx - np.array([0.0, 0.0, math.sqrt(eta)])
    oracle = float(eve @ cov_in @ bob)
    assert oracle == pytest.approx(0.625, rel=1e-12)
    assert eve_bob_correlation(params, eta) == pytest.approx(oracle, rel=1e-12)


def test_eve_bob_correlation_vanishes_at_transmissivity_endpoints():
    params = SqueezingParams(0.5, 4.0, 0.5)
    assert eve_bob_correlation(params, 0.0) == 0.0
    assert eve_bob_correlation(params, 1.0) == 0.0
    assert eve_bob_correlation(params, 0.5) > 0.0


# --------------------------------------------------------------- mc engine


def test_mc_moments_match_covariance_matrix():
    params = SqueezingParams.zero_leakage(0.7)
    classical = ClassicalLayer(displacement=10.0, carrier_amplitude=100.0)
    etas = [0.2, 0.45, 0.8, 0.95]
    moments = mc_quadrature_sim(
        params, classical, etas, shots_per_eta=50_000, rng=np.random.default_rng(11)
    )
    n = moments.n_shots
    assert n == 200_000
    tol = 4.0 / math.sqrt(n)

    cm = fading_matrix(params, etas)
    assert moments.xa_xa == pytest.approx(cm.a_q, abs=tol)
    assert moments.xb_xb == pytest.approx(cm.b_q, abs=tol)
    assert moments.xa_xb == pytest.approx(cm.c_q, abs=tol)
    assert moments.xe_xb == pytest.approx(0.0, abs=tol)
    assert moments.pa_pa == pytest.approx(cm.a_p, abs=tol)
    assert moments.pb_pb == pytest.approx(cm.b_p, abs=tol)
    assert moments.pa_pb == pytest.approx(cm.c_p, abs=tol)
    # Eve's variance: untransmitted fraction of the source plus vacuum.
    v_q = params.transmitted_q_variance
    v_p = params.transmitted_p_variance
    mean_eta = sum(etas) / len(etas)
    assert moments.xe_xe == pytest.approx(1.0 + (1.0 - mean_eta) * (v_q - 1.0), abs=tol)
    assert moments.pe_pe == pytest.approx(1.0 + (1.0 - mean_eta) * (v_p - 1.0), abs=tol)
    # At this symbol separation decision errors are absent.
    assert moments.bit_errors == 0


def test_mc_is_deterministic_for_fixed_seed():
    params = SqueezingParams.zero_leakage(0.5)
    classical = ClassicalLayer(displacement=1.0, carrier_amplitude=50.0)
    a = mc_quadrature_sim(params, classical, [0.5], 4000, np.random.default_rng(42))
    b = mc_quadrature_sim(params, classical, [0.5], 4000, np.random.default_rng(42))
    assert a == b


def test_mc_bit_error_rate_tracks_gaussian_tail():
    # Moderate separation: BER is Q(2 alpha sqrt(eta)) per realization.
    params = SqueezingParams.zero_leakage(0.25)
    classical = ClassicalLayer(displacement=1.0, carrier_amplitude=100.0)
    etas = [0.36, 0.81]
    shots = 100_000
    moments = mc_quadrature_sim(
        params, classical, etas, shots, np.random.default_rng(19)
    )
    expected = sum(classical_ber(classical_snr(1.0, eta)) for eta in etas) / len(etas)
    n = moments.n_shots
    sigma = math.sqrt(expected * (1.0 - expected) / n)
    assert abs(moments.bit_error_rate - expected) < 3.0 * sigma


def test_mc_without_classical_layer_gives_coin_flip_bits():
    params = SqueezingParams.zero_leakage(0.25)
    classical = ClassicalLayer(displacement=0.0, carrier_amplitude=100.0)
    moments = mc_quadrature_sim(
        params, classical, [0.5], 50_000, np.random.default_rng(5)
    )
    n = moments.n_shots
    assert abs(moments.bit_error_rate - 0.5) < 3.0 * 0.5 / math.sqrt(n)
    # No subtraction happens at zero displacement, so Bob's quantum
    # statistics are untouched.
    assert moments.xb_xb == pytest.approx(1.0, abs=4.0 / math.sqrt(n))


def test_mc_small_separation_biases_extracted_moment_low():
    # With the symbols only one noise-sigma apart, subtracting the
    # decided symbol folds the error tail back toward zero and drags
    # Bob's extracted second moment well below the true quantum value.
    # This is the quantitative reason the displacement must be large.
    params = SqueezingParams.zero_leakage(0.25)
    classical = ClassicalLayer(displacement=0.5, carrier_amplitude=100.0)
    eta = 0.81
    shots = 200_000
    moments = mc_quadrature_sim(
        params, classical, [eta], shots, np.random.default_rng(13)
    )
    predicted = extraction_second_moment(2.0 * 0.5 * math.sqrt(eta))
    assert predicted < 0.9
    assert moments.xb_xb == pytest.approx(predicted, abs=0.01)
    # The same run keeps Eve clean because her subtraction uses the
    # true symbol.
    v_q = params.transmitted_q_variance
    expected_eve = 1.0 + (1.0 - eta) * (v_q - 1.0)
    assert moments.xe_xe == pytest.approx(expected_eve, abs=4.0 / math.sqrt(shots))


@pytest.mark.parametrize("seed", [23, 24])
@pytest.mark.parametrize("shots", [1, 20_000])
@pytest.mark.parametrize("sabotage", [False, True])
@pytest.mark.parametrize("displacement", [0.0, 2.0, 10.0])
def test_mc_equals_per_eta_reference(displacement, sabotage, shots, seed):
    # exact equality of every moment and of the generator state left
    # behind: the buffered, in-place run is the fresh-array run
    params = SqueezingParams.from_squeezing_db(8.0)
    if sabotage:
        detuned = min(0.9, params.tap_transmissivity * 1.3)
        params = SqueezingParams(params.squeezed_variance, params.modulation_variance, detuned)
    classical = ClassicalLayer(displacement=displacement, carrier_amplitude=100.0)
    etas = np.sort(np.random.default_rng(seed).uniform(0.15, 0.85, 6))
    etas = np.concatenate([[0.0], etas, [1.0]])
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    moments = mc_quadrature_sim(params, classical, etas, shots, rng)
    expected = per_eta_mc_quadrature_sim(params, classical, etas, shots, reference_rng)
    assert moments == expected
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_mc_rejects_bad_arguments():
    params = SqueezingParams.zero_leakage(0.25)
    classical = ClassicalLayer(displacement=1.0, carrier_amplitude=50.0)
    rng = np.random.default_rng(0)
    with pytest.raises(UsageError):
        mc_quadrature_sim(params, classical, [], 100, rng)
    with pytest.raises(UsageError):
        mc_quadrature_sim(params, classical, [1.5], 100, rng)
    with pytest.raises(UsageError):
        mc_quadrature_sim(params, classical, [0.5], 0, rng)
    with pytest.raises(UsageError, match="got nan"):
        mc_quadrature_sim(params, classical, [0.5, 0.2, math.nan], 100, rng)


def test_classical_snr_and_ber():
    assert classical_snr(1.0, 1.0) == pytest.approx(4.0, rel=1e-15)
    assert classical_snr(2.0, 0.25) == pytest.approx(4.0, rel=1e-15)
    assert classical_snr(1.0, 0.0) == 0.0
    assert classical_ber(4.0) == pytest.approx(gaussian_tail(2.0), rel=1e-12)
    assert classical_ber(4.0) == pytest.approx(0.0227501319, abs=1e-9)
    assert classical_ber(0.0) == 0.5
    with pytest.raises(UsageError):
        classical_snr(-1.0, 0.5)
    with pytest.raises(UsageError):
        classical_ber(-0.1)


def test_classical_snr_and_ber_of_arrays_equal_scalar_calls():
    etas = [0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0]
    for displacement in (0.0, 2.0, 30.0):
        snrs = classical_snr(displacement, np.array(etas))
        assert isinstance(snrs, np.ndarray)
        assert snrs.tolist() == [classical_snr(displacement, eta) for eta in etas]
        bers = classical_ber(snrs)
        assert isinstance(bers, np.ndarray)
        assert bers.tolist() == [classical_ber(snr) for snr in snrs.tolist()]
    assert type(classical_snr(2.0, 0.5)) is float
    assert type(classical_ber(4.0)) is float
    assert classical_ber([]).shape == (0,)


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 3, 6])
def test_array_validation_names_the_bad_entry_as_a_scalar_call_does(bad, where):
    good = [0.0, 0.25, 0.5, 0.75, 1.0, 0.1]
    values = np.array(good[:where] + [bad] + good[where:])
    for call in (lambda x: classical_snr(2.0, x), classical_ber):
        with pytest.raises(UsageError) as scalar:
            call(bad)
        with pytest.raises(UsageError) as array:
            call(values)
        assert str(array.value) == str(scalar.value)
        assert repr(bad) in str(array.value)
