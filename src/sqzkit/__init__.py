"""sqzkit: simulate, distribute, and measure two-mode squeezed light.

A Gaussian-state model of a two-mode squeezed vacuum source feeding two lossy
fiber arms, a synthesizer for the dual homodyne-detector voltage traces such
an experiment records, and the post-processing chain that turns those traces
back into calibrated squeezing numbers.
"""

from .budget import (
    ChannelBudget,
    LossItem,
    ScenarioPrediction,
    db_to_transmittance,
    electronics_effective_loss_db,
    electronics_effective_transmittance,
    predict,
    transmittance_to_db,
)
from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    InvalidArgumentError,
    ScenarioFormatError,
    SqzkitError,
)
from .gaussian import (
    GaussianState,
    JointVariances,
    SymplecticMap,
    analytic_joint_variances,
    analytic_squeezing,
    apply_map,
    beamsplitter_map,
    joint_variances,
    lossy_tmsv_state,
    phase_rotation_map,
    symplectic_form,
    two_mode_squeeze_map,
    vacuum_state,
    variance_to_db,
)
from .pipeline import (
    QuadratureTrace,
    ShotNoiseStats,
    align,
    analysis_report,
    average4,
    delay_search,
    dip_fwhm,
    discard_trigger_region,
    normalize,
    raw_to_quadratures,
    rolling_variance,
    shot_noise_stats,
    squeezing_report,
    variance_vs_delay,
)
from .synth import (
    PhaseModel,
    RawTrace,
    SynthConfig,
    synthesize_pair,
    synthesize_shot_noise,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SqzkitError",
    "InvalidArgumentError",
    "DimensionMismatchError",
    "DegenerateInputError",
    "ScenarioFormatError",
    # gaussian states
    "GaussianState",
    "SymplecticMap",
    "JointVariances",
    "symplectic_form",
    "vacuum_state",
    "two_mode_squeeze_map",
    "beamsplitter_map",
    "phase_rotation_map",
    "apply_map",
    "joint_variances",
    "lossy_tmsv_state",
    "variance_to_db",
    "analytic_joint_variances",
    "analytic_squeezing",
    # loss budgets
    "LossItem",
    "ChannelBudget",
    "ScenarioPrediction",
    "db_to_transmittance",
    "transmittance_to_db",
    "electronics_effective_transmittance",
    "electronics_effective_loss_db",
    "predict",
    # synthesis
    "PhaseModel",
    "SynthConfig",
    "RawTrace",
    "synthesize_pair",
    "synthesize_shot_noise",
    # processing pipeline
    "ShotNoiseStats",
    "QuadratureTrace",
    "average4",
    "discard_trigger_region",
    "normalize",
    "shot_noise_stats",
    "raw_to_quadratures",
    "rolling_variance",
    "delay_search",
    "align",
    "squeezing_report",
    "variance_vs_delay",
    "dip_fwhm",
    "analysis_report",
]
