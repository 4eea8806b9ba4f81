"""Dual classical/quantum optical downlink simulator and key-rate analyzer."""

__version__ = "0.1.0"

from .atmosphere import (
    NO_TURBULENCE,
    AtmosphereProfile,
    LinkGeometry,
    TurbulenceDiagnostics,
    bufton_wind,
    cn2,
    fried_parameter,
    greenwood_and_coherence,
    rms_wind,
    rytov_variance,
    scintillation_index,
)
from .config import RunConfig, config_hash, load_config, parse_config, render_config
from .ensemble import (
    ChannelEnsemble,
    FadingStats,
    coherence_step_series,
    fading_stats,
    load_ensemble,
    loss_histogram,
    run_ensemble,
    run_ensembles,
    save_ensemble,
)
from .errors import (
    DataIntegrityError,
    DuallinkError,
    NumericalError,
    PhysicalityError,
    UsageError,
    VerificationError,
)
from .keyrate import (
    IDEAL_DETECTOR,
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
from .optics import (
    ComplexField,
    aperture_transmissivity,
    apply_screen,
    choose_receiver_window,
    gaussian_source,
    propagate_vacuum,
    second_moment_radius,
    split_step,
    vacuum_beam_radius,
)
from .protocol import (
    ClassicalLayer,
    CovarianceMatrix,
    EmpiricalMoments,
    SqueezingParams,
    classical_ber,
    classical_snr,
    covariance_matrix,
    eve_bob_correlation,
    mc_quadrature_sim,
    zero_leakage_epsilon,
)
from .screens import PhaseScreen, ScreenStreams, Slab, SlabPlan, generate_screen, plan_slabs
