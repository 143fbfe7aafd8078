"""Active damping and dual-loop control design toolkit for lightly damped
resonant plants: transfer-function algebra, constant-gain non-minimum-phase
damping-controller synthesis, inner/outer loop analysis, dual closed-loop
sensitivity shaping, discrete-time simulation and chirp identification."""

from .lti import (
    Polynomial,
    PoleZeroSet,
    RationalTF,
    dc_gain,
    freq_response,
    log_grid,
    pade1,
    poles_zeros,
    poly_roots,
    tf_feedback,
    tf_series,
)
from .plants import (
    ModeSpec,
    PlantSpec,
    build_plant,
    modal_state_space,
    nanopositioner_surrogate,
    scale_load,
    two_mode_zero,
)
from .nrc import (
    NrcSpec,
    StateSpaceRealization,
    min_damping_n,
    nrc,
    nrc_gains,
    nrc_state_space,
    synthesize_nrc,
    tame_nrc,
)
from .loops import (
    InnerLoopResult,
    RootLocusTrace,
    RouthReport,
    SecondModePeak,
    damped_second_peak,
    damping_ratio,
    delayed_inner_loop,
    inner_charpoly,
    inner_closed_loop,
    inner_poles_closed_form,
    loaded_damping_check,
    loaded_inner_charpoly,
    m_for_phase_lag,
    m_from_tau,
    root_locus_n,
    routh_cubic,
    tamed_inner_loop,
    two_mode_inner_loop,
)
from .tracking import (
    BandwidthReport,
    MarginsReport,
    NotchSpec,
    ObjectiveReport,
    PiSpec,
    SensitivityBundle,
    TrackerSpec,
    bandwidth,
    build_tracker,
    dual_sensitivities,
    kp_plant_inverse_approx,
    margins,
    nyquist_net_crossings,
    objective_report,
    pm_feasibility,
    real_error_budget,
    steady_state_error,
    tune_kp,
)
from .sim import (
    DiscreteSS,
    FrfEstimate,
    SimTrace,
    chirp_identify,
    discretize,
    discrete_frf,
    dual_loop_state_space,
    log_chirp,
    make_reference,
    make_uniform_noise,
    open_loop_response,
    phase_compensate,
    run_state_space,
    simulate_dual_loop,
    sinusoid_amplitude,
    sinusoid_phasor,
    spectral_radius,
    tracking_metrics,
)

__version__ = "0.1.0"
