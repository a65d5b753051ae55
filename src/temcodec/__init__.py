"""Time encoding of bandpass signals and reconstruction from spike times.

Integrate-and-fire encoders turn a bounded continuous-time signal into
strictly increasing threshold-crossing times; this package simulates the
single- and two-channel variants, relates the two-channel record to
classic periodic nonuniform sampling, and reconstructs the signal by
least-squares fitting of interpolation-kernel expansions to the
amplitude integrals carried by the spike gaps.
"""

from .signals import (
    BandSpec,
    Constant,
    ModulatedTone,
    QuadratureError,
    SignalSum,
    SincTone,
    Tone,
    band_spec_from_edges,
    integrate,
    modulated_test_signal,
)
from .tem import (
    AmplitudeIntegralSeq,
    InterleavingError,
    MergedTrain,
    SpikeTrain,
    TemParams,
    amplitude_integrals,
    encode,
    encode_two_channel,
    interleave,
    read_spike_file,
    snap_time,
    write_spike_file,
)
from .pns import (
    DegenerateShiftError,
    PnsGrid,
    PnsSamples,
    kernel_gbp,
    reconstruct_pns,
    sample_pns,
    shift_is_degenerate,
)
from .recon import (
    BandpassKnots,
    DegenerateSystemError,
    GramSystem,
    ReconModel,
    SolveResult,
    build_gram_bandpass,
    build_gram_lowpass,
    evaluate_model,
    knots_and_shifts,
    model_from,
    solve_coefficients,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    PipelineError,
    compare_runs,
    load_config,
    run_experiment,
)

__version__ = "0.1.0"
