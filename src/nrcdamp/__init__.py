"""Active damping and dual-loop control design toolkit for lightly damped
resonant plants: transfer-function algebra, constant-gain non-minimum-phase
damping-controller synthesis, inner/outer loop analysis, dual closed-loop
sensitivity shaping, discrete-time simulation and chirp identification.

The package holds what the command line runs. The paper's hand-expanded
closed forms (closed-form poles, the delayed, loaded, two-mode and tamed
inner loops, the load threshold, the steady-state-error law) are test
oracles of its generic closures and live in ``tests/closed_forms.py``."""

from .lti import (
    FrfStack,
    Polynomial,
    PoleZeroSet,
    RationalTF,
    dc_gain,
    freq_response,
    log_grid,
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
)
from .nrc import (
    NrcSpec,
    nrc,
    synthesize_nrc,
    tame_nrc,
)
from .loops import (
    InnerLoopResult,
    RootLocusTrace,
    RouthReport,
    damping_ratio,
    inner_charpoly,
    inner_closed_loop,
    root_locus_n,
    routh_cubic,
)
from .tracking import (
    BandwidthReport,
    Frf,
    MarginsReport,
    NotchSpec,
    ObjectiveReport,
    PiSpec,
    TrackerSpec,
    bandwidth,
    build_tracker,
    dual_sensitivities,
    margins,
    nyquist_net_crossings,
    objective_report,
    pm_feasibility,
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
    run_state_space,
    simulate_dual_loop,
    sinusoid_amplitude,
    sinusoid_phasor,
    spectral_radius,
    tracking_metrics,
)
from .design import Design

__version__ = "0.1.0"
