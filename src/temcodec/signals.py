"""Analytic test signals, band descriptions, and the quadrature oracle.

Every signal in this module is an immutable dataclass that maps a time
(scalar or ndarray, seconds) to an amplitude and carries an exact
``amplitude_bound``.  The bounds are analytic, never estimated, so that
time-encoder bias settings derived from them are safe.

``integrate`` is the integration oracle used throughout the package:
deterministic globally-adaptive Gauss-Legendre quadrature with error
control by panel halving.  Every Gauss-Legendre rule of the package, the
encoder's 15-point panels and each Gram order, comes from
:func:`gauss_legendre`.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Constant",
    "Tone",
    "ModulatedTone",
    "SignalSum",
    "BandSpec",
    "integrate",
    "QuadratureError",
    "gauss_legendre",
    "sinc_pi",
]

TWO_PI = 2.0 * math.pi


def sinc_pi(x):
    """``sin(pi*x)/(pi*x)`` with ``sinc_pi(0) == 1``: bit-identical to ``np.sinc``.

    The same three operations as ``np.sinc`` on float64 input, without its
    per-call ``asanyarray`` and ``finfo`` lookups.
    """
    y = np.pi * x
    y = np.where(y, y, sys.float_info.epsilon)
    return np.sin(y) / y


def _sinc(z):
    """sin(z)/z with the removable singularity filled (``_sinc(0) == 1``).

    ``z`` is a float ndarray that is overwritten: the steps of
    ``sinc_pi(z / pi)`` run in place, in the same order, so the values are
    bit-identical to it while only the result is allocated.
    """
    z /= np.pi
    z *= np.pi
    z[z == 0.0] = sys.float_info.epsilon
    out = np.sin(z)
    out /= z
    return out


# ---------------------------------------------------------------------------
# Signals


@dataclass(frozen=True)
class Constant:
    """Constant signal ``x(t) = value``."""

    value: float

    @property
    def amplitude_bound(self) -> float:
        return abs(self.value)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, self.value)


@dataclass(frozen=True)
class Tone:
    """Pure tone ``x(t) = amplitude * cos(omega*t + phase)``."""

    amplitude: float
    omega: float  # rad/s
    phase: float = 0.0

    @property
    def amplitude_bound(self) -> float:
        return abs(self.amplitude)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.amplitude * np.cos(self.omega * t + self.phase)


@dataclass(frozen=True)
class ModulatedTone:
    """Amplitude- and phase-modulated tone.

    ``x(t) = amplitude * sinc(am_omega*t) * cos(carrier_omega*t + sinc(pm_omega*t))``

    with sinc(z) = sin(z)/z.  The sinc amplitude envelope confines most of the
    energy to ``carrier_omega +/- am_omega``; the slowly varying sinc phase
    term smears it slightly further.  Since |sinc| <= 1 and |cos| <= 1 the
    amplitude bound is exactly ``|amplitude|``.
    """

    carrier_omega: float  # rad/s
    am_omega: float  # rad/s, must be nonzero
    pm_omega: float  # rad/s, must be nonzero
    amplitude: float = 2.0

    def __post_init__(self):
        if self.am_omega == 0.0 or self.pm_omega == 0.0:
            raise ValueError("am_omega and pm_omega must be nonzero")
        if not all(
            math.isfinite(v)
            for v in (self.carrier_omega, self.am_omega, self.pm_omega, self.amplitude)
        ):
            raise ValueError("signal parameters must be finite")

    @property
    def amplitude_bound(self) -> float:
        return abs(self.amplitude)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        # Both sinc factors in one pass: row 0 the envelope's, row 1 the phase's.
        sinc = _sinc(np.multiply.outer((self.am_omega, self.pm_omega), t))
        envelope = sinc[0]
        envelope *= self.amplitude
        phase = self.carrier_omega * t
        phase += sinc[1]
        out = np.cos(phase)
        out *= envelope
        return out


@dataclass(frozen=True)
class SignalSum:
    """Finite sum of component signals; bound is the sum of component bounds."""

    parts: tuple

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(parts))

    @property
    def amplitude_bound(self) -> float:
        return sum(p.amplitude_bound for p in self.parts)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for p in self.parts:
            out = out + p(t)
        return out


# ---------------------------------------------------------------------------
# Band description


@dataclass(frozen=True)
class BandSpec:
    """Positive-frequency support ``(omega_l, omega_u)`` of a real bandpass signal.

    ``k0 = ceil(2*omega_l / bandwidth)`` is the band-position integer that
    governs which spectral aliases overlap under two-channel periodic
    sampling at the bandwidth rate, and ``period`` is the per-channel
    sampling period ``2*pi/bandwidth`` that attains the Landau rate.
    """

    omega_l: float  # rad/s
    omega_u: float  # rad/s
    bandwidth: float = field(init=False)
    k0: int = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.omega_l < self.omega_u):
            raise ValueError(
                f"band edges must satisfy 0 < omega_l < omega_u, "
                f"got ({self.omega_l}, {self.omega_u})"
            )
        bandwidth = self.omega_u - self.omega_l
        ratio = 2.0 * self.omega_l / bandwidth
        # Snap to the nearest integer before ceil so float noise in an exact
        # integer band position cannot bump k0 by one.
        if abs(ratio - round(ratio)) < 1e-9:
            k0 = int(round(ratio))
        else:
            k0 = int(math.ceil(ratio))
        object.__setattr__(self, "bandwidth", bandwidth)
        object.__setattr__(self, "k0", k0)

    @property
    def period(self) -> float:
        """Nominal per-channel sampling period, 2*pi/bandwidth (seconds)."""
        return TWO_PI / self.bandwidth


# ---------------------------------------------------------------------------
# Quadrature oracle


class QuadratureError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""


# bounded because a Gram rule's order follows the record span: a process decoding
# many spans would otherwise keep every order's rule (16*order bytes each)
@functools.lru_cache(maxsize=64)
def gauss_legendre(order: int):
    """Nodes and weights of the ``order``-point Gauss-Legendre rule on ``[-1, 1]``.

    ``leggauss`` solves an eigenproblem of the order's size, so each order's
    rule is built once per process and its read-only arrays are shared by
    every later caller.
    """
    rule = np.polynomial.legendre.leggauss(order)
    for values in rule:
        values.flags.writeable = False  # one cached copy serves every caller
    return rule


_GL_NODES, _GL_WEIGHTS = gauss_legendre(15)


def _panel(f, a: float, b: float):
    """Single 15-point Gauss-Legendre panel of f over [a, b]."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _GL_NODES
    fx = np.asarray(f(x), dtype=float)
    if fx.ndim == 1:
        return half * float(_GL_WEIGHTS @ fx)
    return half * (_GL_WEIGHTS @ fx)


def _adaptive(f, a: float, b: float, tol: float, max_panels: int):
    """Depth-first adaptive bisection with panel-halving error estimates.

    ``f`` maps a node array of shape (m,) to values of shape (m,) or
    (m, ncol); error control uses the max over columns.  Returns the value;
    raises :class:`QuadratureError` once ``max_panels`` panels are spent.
    """
    total = None
    panels = 0
    width_floor = 1e-15 * max(abs(a), abs(b), 1.0)
    stack = [(a, b, _panel(f, a, b), tol)]
    while stack:
        lo, hi, coarse, tol_loc = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        panels += 2
        fine = left + right
        if isinstance(fine, float):  # a scalar integrand: skip numpy's overhead
            err = abs(fine - coarse)
        else:
            err = float(np.max(np.abs(fine - coarse)))
        if err <= tol_loc or (hi - lo) <= width_floor:
            total = fine if total is None else total + fine
        elif panels >= max_panels:
            raise QuadratureError(f"quadrature did not converge within {max_panels} panels")
        else:
            stack.append((mid, hi, right, 0.5 * tol_loc))
            stack.append((lo, mid, left, 0.5 * tol_loc))
    return total


def integrate(sig, a: float, b: float, tol: float = 1e-10, max_panels: int = 4096) -> float:
    """Integrate ``sig`` over [a, b] to absolute accuracy ``tol``.

    Parameters
    ----------
    sig : callable
        Maps an ndarray of times to an ndarray of values (all signals in
        this module qualify).
    a, b : float
        Integration limits, ``a <= b``.
    tol : float
        Absolute error target, > 0.
    max_panels : int
        Subdivision budget; exceeding it raises :class:`QuadratureError`.

    Deterministic: identical inputs always produce the identical result.
    """
    if a > b:
        raise ValueError(f"integration limits must satisfy a <= b, got ({a}, {b})")
    if not tol > 0.0:  # NaN fails too
        raise ValueError(f"tol must be positive, got {tol}")
    if a == b:
        return 0.0
    return float(_adaptive(sig, a, b, tol, max_panels))


def integrate_columns(f, a: float, b: float, tol: float = 1e-10, max_panels: int = 4096):
    """Vector-valued variant of :func:`integrate` for kernel-row assembly.

    ``f`` maps node times of shape (m,) to shape (m, ncol); returns the
    (ncol,) integrals with per-column error controlled jointly by the
    max-norm of the panel-halving estimate.
    """
    if a > b:
        raise ValueError(f"integration limits must satisfy a <= b, got ({a}, {b})")
    if not tol > 0.0:  # NaN fails too
        raise ValueError(f"tol must be positive, got {tol}")
    if a == b:
        probe = np.asarray(f(np.array([a])), dtype=float)
        return np.zeros(probe.shape[1])
    return np.asarray(_adaptive(f, a, b, tol, max_panels), dtype=float)
