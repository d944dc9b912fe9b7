"""Compressive wideband spectrum sensing laboratory.

A cognitive-radio receiver that samples below the Nyquist rate, recovers the
sparse wideband spectrum greedily, validates the estimate on held-out
measurements, and halts acquisition the moment the recovery is provably good,
freeing the rest of the frame for transmission.  The package splits into:

``signals``
    Sparse wideband signal models and DFT helpers.
``sensing``
    Random measurement matrices and acquisition into training/testing rows.
``validation``
    The validation parameter, its error interval, halting rules and sizing.
``recovery``
    Orthogonal pursuit and its validation-halted sparsity-blind variant.
``engine``
    The sequential sensing frame loop and band-occupancy decisions.
``experiments``
    Seeded Monte Carlo sweeps with CSV/JSON result tables, plus the CLI in
    ``widesense.cli``.
"""

from .engine import (
    BandDecision,
    DetectorConfig,
    FrameConfig,
    SensingOutcome,
    calibrate_lambda,
    energy_detect,
    iter_frame_steps,
    max_steps,
    run_frame,
    uniform_bands,
)
from .errors import (
    CriterionUnsatisfiableWarning,
    DimensionError,
    InvalidSpecError,
    ParameterError,
)
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentConfig,
    ResultTable,
    default_config,
    load_config,
    run_experiment,
    significant_relative_mse,
)
from .recovery import (
    FourierDictionary,
    RecoveryResult,
    omp,
    sasr,
)
from .rng import stream_seed
from .sensing import (
    MeasurementSet,
    acquire,
    draw_matrix,
)
from .signals import (
    GridSpectrumSpec,
    GridTone,
    Spectrum,
    SubbandSpec,
    TimeSeries,
    WidebandSignalSpec,
    dft,
    idft,
    random_grid_spectrum,
    signal_time_series,
    synthesize_grid_signal,
    synthesize_signal,
)
from .validation import (
    HaltingConfig,
    ValidationReport,
    accuracy_from_confidence,
    confidence_floor_noisy,
    confidence_interval,
    halting_rule,
    noiseless_threshold,
    scaled_validation_parameter,
    testing_size_noiseless,
    testing_size_noisy,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # signals
    "SubbandSpec", "WidebandSignalSpec", "GridTone", "GridSpectrumSpec",
    "TimeSeries", "Spectrum", "synthesize_signal", "synthesize_grid_signal",
    "signal_time_series", "dft", "idft", "random_grid_spectrum",
    # sensing
    "MeasurementSet", "draw_matrix", "acquire",
    # validation
    "HaltingConfig", "ValidationReport",
    "scaled_validation_parameter", "confidence_interval",
    "testing_size_noiseless", "noiseless_threshold", "halting_rule",
    "testing_size_noisy", "confidence_floor_noisy",
    "accuracy_from_confidence",
    # recovery
    "RecoveryResult", "FourierDictionary", "omp", "sasr",
    # engine
    "FrameConfig", "DetectorConfig", "BandDecision", "SensingOutcome",
    "max_steps", "iter_frame_steps", "run_frame", "energy_detect",
    "calibrate_lambda", "uniform_bands",
    # experiments
    "ExperimentConfig", "ResultTable", "EXPERIMENT_NAMES",
    "default_config", "load_config", "run_experiment",
    "significant_relative_mse",
    # infrastructure
    "stream_seed",
    "InvalidSpecError", "DimensionError", "ParameterError",
    "CriterionUnsatisfiableWarning",
]
