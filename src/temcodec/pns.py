"""Two-channel periodic nonuniform sampling (PNS) of bandpass signals.

A real signal with spectrum confined to ``(omega_l, omega_u)`` and its
mirror can be sampled by two uniform streams of period ``T = 2*pi/B``
(``B`` the bandwidth) offset by a shift ``d`` and reconstructed exactly,
provided ``d*K0/T`` and ``d*(K0+1)/T`` are not integers, where
``K0 = ceil(2*omega_l/B)``.  The interpolant ``g_bp`` below is
Kohlenberg's second-order sampling kernel: its spectrum is piecewise
constant on the two sub-segments of the band that alias onto the mirror
band under shifts of ``K0*B`` and ``(K0+1)*B`` respectively, which is
what makes the alias contributions of the two sample streams cancel.

A sample record is a special case of the bandpass kernel expansion of
:mod:`temcodec.recon`: the samples are the coefficients, every shift is
``d`` and the odd samples carry the time-reversed kernel.
:func:`reconstruct_pns` evaluates it with :func:`temcodec.recon.evaluate_model`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import BandSpec, TWO_PI, sinc_pi

__all__ = [
    "PnsGrid",
    "PnsSamples",
    "DegenerateShiftError",
    "shift_is_degenerate",
    "sample_pns",
    "kernel_gbp",
    "reconstruct_pns",
]

DEGENERACY_TOL = 1e-9


class DegenerateShiftError(ValueError):
    """The channel shift makes the interpolation kernel singular."""


def shift_is_degenerate(shift: float, period: float, k0: int, tol: float = DEGENERACY_TOL) -> bool:
    """True when ``shift*k0/period`` or ``shift*(k0+1)/period`` is an integer.

    At those shifts one of the kernel's ``sin`` denominators vanishes and
    the two sample streams no longer separate the spectral aliases.
    """
    for k in (k0, k0 + 1):
        frac = shift * k / period
        if abs(frac - round(frac)) <= tol:
            return True
    return False


@dataclass(frozen=True)
class PnsGrid:
    """Sampling geometry: channel A at ``k*period``, channel B at ``k*period + shift``."""

    period: float
    shift: float
    window: tuple
    band: BandSpec

    def __post_init__(self):
        object.__setattr__(self, "window", (float(self.window[0]), float(self.window[1])))
        if not (0.0 < self.shift < self.period):
            raise ValueError(f"shift must lie in (0, period), got {self.shift}")
        nominal = self.band.period
        if abs(self.period - nominal) > 1e-12 * nominal:
            raise ValueError(
                f"period {self.period} does not match 2*pi/bandwidth = {nominal}"
            )
        if shift_is_degenerate(self.shift, self.period, self.band.k0):
            raise DegenerateShiftError(
                f"shift {self.shift} is degenerate for k0={self.band.k0}: "
                f"shift*k/period hits an integer for k in (k0, k0+1)"
            )


@dataclass(frozen=True)
class PnsSamples:
    """Interleaved sample record: even entries from channel A, odd from B."""

    times: np.ndarray
    values: np.ndarray
    grid: PnsGrid

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shapes")


def sample_pns(sig, grid: PnsGrid) -> PnsSamples:
    """Sample ``sig`` on the grid; keeps indices k with both instants in window."""
    w0, w1 = grid.window
    T, d = grid.period, grid.shift
    k_min = math.ceil(w0 / T - 1e-12)
    k_max = math.floor((w1 - d) / T + 1e-12)
    ks = np.arange(k_min, k_max + 1)
    times = np.empty(2 * ks.size)
    times[0::2] = ks * T
    times[1::2] = ks * T + d
    return PnsSamples(times, np.asarray(sig(times), dtype=float), grid)


def _kernel_factors(d, band: BandSpec):
    """Frequencies, phases and weights of the kernel's two cosine-pair terms.

    Each term is ``-2*sin(p*t - phi)*sin(q*t) / (B*t*sin(phi))``; written
    with sin(q*t)/(q*t) it has no singularity at t = 0.  Returns
    ``((p2, q2, phi2), (p1, q1, phi1))`` for the outer and inner spectral
    segments, with ``phi`` broadcast against ``d``.
    """
    b_ = band.bandwidth
    a_hi = band.omega_u
    a_mid = band.k0 * b_ - band.omega_l
    a_lo = band.omega_l
    d = np.asarray(d, dtype=float)
    phi2 = 0.5 * (band.k0 + 1) * b_ * d
    phi1 = 0.5 * band.k0 * b_ * d
    return (
        (0.5 * (a_hi + a_mid), 0.5 * (a_hi - a_mid), phi2),
        (0.5 * (a_mid + a_lo), 0.5 * (a_mid - a_lo), phi1),
    )


def kernel_gbp(t, d, band: BandSpec):
    """Bandpass interpolation kernel ``g_bp(t, d)``; broadcasts over t and d.

    ``kernel_gbp(0, d, band) == 1`` and the kernel vanishes at every other
    grid instant ``k*period`` and ``k*period + d`` (channel A viewpoint);
    the channel-B interpolant is its time reverse ``kernel_gbp(-t, d, band)``.

    Raises :class:`DegenerateShiftError` when a ``sin`` denominator is
    within tolerance of zero.
    """
    t = np.asarray(t, dtype=float)
    b_ = band.bandwidth
    out = 0.0
    for p, q, phi in _kernel_factors(d, band):
        sin_phi = np.sin(phi)
        if np.any(np.abs(sin_phi) < math.pi * DEGENERACY_TOL):
            raise DegenerateShiftError(
                f"kernel denominator sin(phi) ~ 0 for shift(s) {d!r} with k0={band.k0}"
            )
        # sin(q*t)/(q*t) * q = sin(q*t)/t without the t=0 singularity
        out = out - 2.0 * np.sin(p * t - phi) * sinc_pi(q * t / math.pi) * q / (b_ * sin_phi)
    return out


def reconstruct_pns(samples: PnsSamples, grid: PnsGrid, t):
    """Evaluate the truncated interpolation series at times ``t``.

    Even samples contribute ``x_2k * g_bp(t - k*T, d)``; odd samples the
    time-reversed kernel about their own instants.  The sum runs over all
    samples in the record, so accuracy near the window edges is limited by
    the 1/t kernel decay; callers should evaluate inside a guard margin.

    The record is a bandpass :class:`~temcodec.recon.ReconModel` whose
    coefficients are the samples, every shift ``d`` and every odd sample
    reflected; :func:`~temcodec.recon.evaluate_model` evaluates it.
    """
    from .recon import ReconModel, evaluate_model  # recon imports this module

    n = samples.times.size
    model = ReconModel(
        "bandpass", samples.times, samples.values, band=grid.band,
        shifts=np.full(n, grid.shift), reflected=np.arange(n) % 2 == 1,
    )
    return evaluate_model(model, t)
