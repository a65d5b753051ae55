"""Two-channel periodic nonuniform sampling (PNS) of bandpass signals.

A real signal with spectrum confined to ``(omega_l, omega_u)`` and its
mirror can be sampled by two uniform streams of period ``T = 2*pi/B``
(``B`` the bandwidth; a :class:`PnsGrid` takes ``T`` from its band) offset
by a shift ``d`` and reconstructed exactly, provided ``d*K0/T`` and
``d*(K0+1)/T`` are not integers, where ``K0 = ceil(2*omega_l/B)``.  The
interpolant is Kohlenberg's second-order sampling kernel ``g_bp``: its
spectrum is piecewise constant on the two sub-segments of the band that
alias onto the mirror band under shifts of ``K0*B`` and ``(K0+1)*B``
respectively, which is what makes the alias contributions of the two
sample streams cancel.  :mod:`temcodec.recon` owns that kernel
(:func:`temcodec.recon.kernel_gbp`) and its degeneracy rule
(:func:`temcodec.recon.shift_is_degenerate`); this module holds only the
sampling geometry.

A sample record is a special case of the bandpass kernel expansion of
:mod:`temcodec.recon`: the samples are the coefficients, every shift is
``d`` and the odd samples carry the time-reversed kernel.
:func:`reconstruct_pns` evaluates it with :func:`temcodec.recon.evaluate_model`
from the samples and the grid that took them; a :class:`PnsSamples` holds
only the sample times and values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import recon
from .signals import BandSpec

__all__ = [
    "PnsGrid",
    "PnsSamples",
    "sample_pns",
    "reconstruct_pns",
]


@dataclass(frozen=True)
class PnsGrid:
    """Sampling geometry: channel A at ``k*period``, channel B at ``k*period + shift``,
    where ``period`` is the band's ``2*pi/B``."""

    shift: float
    window: tuple
    band: BandSpec

    @property
    def period(self) -> float:
        return self.band.period

    @property
    def indices(self) -> tuple:
        """The first and last ``k`` with ``k*period`` and ``k*period + shift`` in the window."""
        w0, w1 = self.window
        return (math.ceil(w0 / self.period - 1e-12),
                math.floor((w1 - self.shift) / self.period + 1e-12))

    def __post_init__(self):
        object.__setattr__(self, "window", (float(self.window[0]), float(self.window[1])))
        if not (0.0 < self.shift < self.period):
            raise ValueError(f"shift must lie in (0, period), got {self.shift}")
        if recon.shift_is_degenerate(self.shift, self.period, self.band.k0):
            raise recon.DegenerateShiftError(
                f"shift {self.shift} is degenerate for k0={self.band.k0}: "
                f"shift*k/period hits an integer for k in (k0, k0+1)"
            )


@dataclass(frozen=True)
class PnsSamples:
    """Interleaved sample record: even entries from channel A, odd from B."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shapes")


def sample_pns(sig, grid: PnsGrid) -> PnsSamples:
    """Sample ``sig`` on the grid at the indices :attr:`PnsGrid.indices` bound."""
    k_min, k_max = grid.indices
    ks = np.arange(k_min, k_max + 1)
    times = np.empty(2 * ks.size)
    times[0::2] = ks * grid.period
    times[1::2] = ks * grid.period + grid.shift
    return PnsSamples(times, np.asarray(sig(times), dtype=float))


def reconstruct_pns(samples: PnsSamples, grid: PnsGrid, t):
    """Evaluate the truncated interpolation series at times ``t``.

    Even samples contribute ``x_2k * g_bp(t - k*T, d)``; odd samples the
    time-reversed kernel about their own instants.  The sum runs over all
    samples in the record, so accuracy near the window edges is limited by
    the 1/t kernel decay; callers should evaluate inside a guard margin.

    The record is a :class:`~temcodec.recon.ReconModel` whose coefficients
    are the samples and whose segments are the
    :func:`~temcodec.recon.bandpass_segments` with every shift ``d`` and
    every odd sample reflected; :func:`~temcodec.recon.evaluate_model`
    evaluates it, looked up on its module at each call.
    """
    n = samples.times.size
    segments = recon.bandpass_segments(np.full(n, grid.shift), np.arange(n) % 2 == 1, grid.band)
    return recon.evaluate_model(recon.ReconModel(samples.times, samples.values, segments), t)
