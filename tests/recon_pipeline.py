"""Assemble, solve and package a reconstruction model in one call, for tests.

The experiment pipeline runs these steps itself, stage by stage; tests that
only need the solved model and its system call these.  Tests that solve
hand-made factors reduce them with :func:`reduced_system`, as the Gram
builders reduce theirs.
"""

import numpy as np

from temcodec import recon
from temcodec.recon import (
    GramSystem,
    ReconModel,
    build_gram_bandpass,
    build_gram_lowpass,
    lowpass_segments,
    solve_coefficients,
)


def reduced_system(left, right, rhs, knot_times=None, segments=None):
    """The :class:`GramSystem` of ``G = left @ right.T`` and right-hand side ``rhs``.

    The factors go through the builders' two reductions (``recon._reduce``):
    the R of ``[left, rhs]`` and the packed QR of ``right``.  The knots
    default to ``0, 1, ...`` and their kernels to ``lowpass_segments(knots,
    1.0)``; a hand-made system has no row intervals, so it has no dense
    ``matrix``.
    """
    knots = right.shape[0]
    if knot_times is None:
        knot_times = np.arange(float(knots))
    if segments is None:
        segments = lowpass_segments(knots, 1.0)
    reduced = recon._reduce(lambda: np.column_stack([left, rhs]), lambda: right)
    return GramSystem(*reduced, rhs, knot_times, segments, None, None)


def reconstruct_lowpass(train, omega):
    """Assemble, solve and package a lowpass model; returns (model, system, solution)."""
    system = build_gram_lowpass(train, omega)
    solution = solve_coefficients(system)
    return ReconModel(system.knot_times, solution.coefficients, system.segments), system, solution


def reconstruct_bandpass(merged, band):
    """Assemble, solve and package a bandpass model; returns (model, system, solution)."""
    system = build_gram_bandpass(merged, band)
    solution = solve_coefficients(system)
    return ReconModel(system.knot_times, solution.coefficients, system.segments), system, solution
