"""Assemble, solve and package a reconstruction model in one call, for tests.

The experiment pipeline runs these steps itself, stage by stage; tests that
only need the solved model and its system call these.  Tests that solve
hand-made factors hold them in a system made by :func:`hand_made_system`,
as the Gram builders hold theirs.
"""

import numpy as np

from temcodec.recon import (
    GramSystem,
    build_gram_bandpass,
    build_gram_lowpass,
    lowpass_segments,
    solve_coefficients,
)


def hand_made_system(left, right, rhs, knot_times=None, segments=None):
    """The :class:`GramSystem` of ``G = left @ right.T`` and right-hand side ``rhs``.

    ``rhs`` becomes the held left factor's last column.  The knots default to
    ``0, 1, ...`` and their kernels to ``lowpass_segments(knots, 1.0)``.
    """
    knots = right.shape[0]
    if knot_times is None:
        knot_times = np.arange(float(knots))
    if segments is None:
        segments = lowpass_segments(knots, 1.0)
    return GramSystem(np.column_stack([left, rhs]), right, knot_times, segments)


def reconstruct_lowpass(train, omega):
    """Assemble, solve and package a lowpass model; returns (model, system, solution)."""
    system = build_gram_lowpass(train, omega)
    solution = solve_coefficients(system)
    return solution.model, system, solution


def reconstruct_bandpass(merged, band):
    """Assemble, solve and package a bandpass model; returns (model, system, solution)."""
    system = build_gram_bandpass(merged, band)
    solution = solve_coefficients(system)
    return solution.model, system, solution
