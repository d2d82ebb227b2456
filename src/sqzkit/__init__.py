"""sqzkit: simulate, distribute, and measure two-mode squeezed light.

A Gaussian-state model of a two-mode squeezed vacuum source feeding two lossy
fiber arms, a synthesizer for the dual homodyne-detector voltage traces such
an experiment records, and the post-processing chain that turns those traces
back into calibrated squeezing numbers.

The names below are loaded from their home modules on first use (PEP 562),
so ``import sqzkit`` loads none of them, and a name from a numpy-free
module, such as ``analytic_squeezing`` or ``predict``, loads no numpy.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by the module that defines them.
_HOMES = {
    "errors": (
        "SqzkitError",
        "InvalidArgumentError",
        "DimensionMismatchError",
        "DegenerateInputError",
        "ScenarioFormatError",
    ),
    "gaussian": (
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
    ),
    "tmsv": ("variance_to_db", "analytic_joint_variances", "analytic_squeezing"),
    "budget": (
        "LossItem",
        "ChannelBudget",
        "ScenarioPrediction",
        "db_to_transmittance",
        "transmittance_to_db",
        "electronics_effective_transmittance",
        "electronics_effective_loss_db",
        "predict",
    ),
    "settings": ("PhaseModel", "SynthConfig"),
    "synth": ("RawTrace", "synthesize_pair", "synthesize_shot_noise"),
    "pipeline": (
        "ShotNoiseStats",
        "QuadratureTrace",
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
        "analyze_traces",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
