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
    Tone,
    integrate,
)
from .tem import (
    InterleavingError,
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
    PnsGrid,
    PnsSamples,
    reconstruct_pns,
    sample_pns,
)
from .recon import (
    DegenerateShiftError,
    DegenerateSystemError,
    GramSystem,
    ReconModel,
    SolveResult,
    bandpass_segments,
    build_gram_bandpass,
    build_gram_lowpass,
    evaluate_model,
    kernel_gbp,
    lowpass_segments,
    pair_shifts,
    shift_is_degenerate,
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
