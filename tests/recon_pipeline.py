"""Assemble, solve and package a reconstruction model in one call, for tests.

The experiment pipeline runs these steps itself, stage by stage; tests that
only need the solved model and its system call these.
"""

from temcodec.recon import (
    DEFAULT_SV_CUTOFF,
    ReconModel,
    build_gram_bandpass,
    build_gram_lowpass,
    solve_coefficients,
)


def reconstruct_lowpass(train, omega, sv_cutoff=DEFAULT_SV_CUTOFF):
    """Assemble, solve and package a lowpass model; returns (model, system, solution)."""
    system = build_gram_lowpass(train, omega)
    solution = solve_coefficients(system, sv_cutoff=sv_cutoff)
    return ReconModel(system.knot_times, solution.coefficients, system.segments), system, solution


def reconstruct_bandpass(merged, band, sv_cutoff=DEFAULT_SV_CUTOFF):
    """Assemble, solve and package a bandpass model; returns (model, system, solution)."""
    system = build_gram_bandpass(merged, band)
    solution = solve_coefficients(system, sv_cutoff=sv_cutoff)
    return ReconModel(system.knot_times, solution.coefficients, system.segments), system, solution
