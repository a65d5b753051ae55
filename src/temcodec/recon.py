"""Kernel-expansion reconstruction of signals from spike data.

The decoder posits ``x(t) = sum_l c_l * kernel_l(t)`` with one kernel per
knot, equates the integral of that expansion over every spike interval to
the amplitude integrals recovered from the spike gaps, and solves the
resulting linear system ``G c = q`` with a truncated-SVD pseudo-inverse,
cut at the rounding floor ``eps * max(shape)`` of the system's core.  Knot
``l`` is the midpoint of row ``l``'s spike interval: every builder's
:class:`GramSystem` comes from :func:`_gram_system`, which derives the knots
from the rows.

The recovery condition is local, so a record need not be one system:
:func:`block_split` cuts it into overlapping blocks, equal cores of
``BLOCK_CORE_HALF_PERIODS*pi/a_max`` widened by a guard of spikes, and
:func:`temcodec.experiment.run_experiment` builds, solves and evaluates
each block's system on its own (the overcomplete stitching of Lazar,
Simonyi & Toth, *IEEE TCAS-I*, 2008).  A block is the record with its
times sliced, so its system and model are those of a record of its spikes.

Two kernel families are supported:

* lowpass: ``sin(omega*t)/(pi*t)`` shifted to each knot;
* bandpass: the two-channel PNS interpolant ``g_bp`` (:func:`kernel_gbp`),
  with per-knot shifts derived from the interleaved two-channel spike record
  (:func:`pair_shifts`), a ``"merged"`` spike train read at stride 2.
  Knots pair up (one per channel); the pair's first knot carries the plain
  kernel and its partner the time-reversed kernel, mirroring the even/odd
  roles of exact PNS.

:func:`lowpass_segments` and :func:`bandpass_segments` describe every
knot's kernel once, as spectral segments ``w_l * integral_lo^hi
cos(nu*(t - s_l) - psi_l) dnu``; the latter is the one place that rejects a
degenerate bandpass shift (:func:`shift_is_degenerate`).  A
:class:`GramSystem` and the :class:`ReconModel` solved from it carry those
segments, and everything else is derived from them:

* the kernel ``g_bp`` itself: :func:`kernel_gbp` sums its segments
  directly (:func:`_segment_kernel`);
* Gram assembly: one Gauss-Legendre rule in the frequency ``nu`` per segment
  writes the Gram matrix exactly as ``G = A @ B.T``, both factors from one
  cos/sin table per segment, made in place (:func:`_gram_system`); each
  order's rule is built once per process
  (:func:`temcodec.signals.gauss_legendre`).  In ``nu`` the integrand is
  entire, of exponential type the record span, so an a-priori error bound
  fixes each rule's order at ``QUAD_TOL`` per entry; it grows with the span
  (234 nodes, 468 columns, for the 779 rows of the whole 2 s single-channel
  preset; 48-56 nodes for its eight decoding blocks).  Both factors are
  column-major, the layout LAPACK reads; a :class:`GramSystem` holds them,
  the amplitude integrals in a spare last column of the left one.  The solve
  never forms ``G``: the left factor's QR reduces it to a truncated least
  squares problem with no more rows than factor columns (the
  trigonometric-space view of TEM decoding of Lazar & Pnevmatikakis, *EURASIP
  J. Adv. Signal Process.*, 2009, applied here to the paper's own Gram
  matrix), solved on one BLAS thread for the knot coefficients.  The dense
  ``G`` is formed only on request (:attr:`GramSystem.matrix`).
* Evaluation: :func:`evaluate_model`, the single evaluator for both
  families and for PNS records (:func:`temcodec.pns.reconstruct_pns`
  builds a bandpass model), writes the model as ``cos(a*t)`` and
  ``sin(a*t)`` times Cauchy sums ``sum_l W_l/(t - s_l)``, two weight
  columns per segment edge ``a``.  Up to ``DENSE_TERMS`` point-knot terms,
  every preset's evaluations among them, are summed densely.  Otherwise the
  points and knots are cut into the equal leaves of a binary tree: the
  knots of a point's leaf and its neighbours are summed directly, pairs
  closer than half the shortest kernel period through the segments'
  cancellation-free form, and the far knots' sums come from expansions at
  ``CHEB_POINTS`` Chebyshev nodes per box, a number an a-priori bound fixes
  at machine precision, passed up and down the tree a level at a time (the
  multilevel black-box fast multipole method, Fong & Darve, *J. Comput.
  Phys.* 2009).  The cost is linear in the points and knots.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .signals import BandSpec, gauss_legendre, sinc_pi
# integrate_columns is not called here; the benchmark tracer (perfbench/tracing.py)
# patches and restores the name recon.integrate_columns, so it stays importable.
from .signals import integrate_columns  # noqa: F401
from .tem import SpikeTrain, amplitude_integrals

__all__ = [
    "DegenerateShiftError",
    "shift_is_degenerate",
    "kernel_gbp",
    "GramSystem",
    "SolveResult",
    "ReconModel",
    "DegenerateSystemError",
    "pair_shifts",
    "lowpass_segments",
    "bandpass_segments",
    "build_gram_lowpass",
    "build_gram_bandpass",
    "block_count",
    "block_split",
    "solve_coefficients",
    "evaluate_model",
]

# absolute error allowed in each Gram entry
QUAD_TOL = 1e-9
# distance of shift*k/period from an integer below which a bandpass shift is degenerate
DEGENERACY_TOL = 1e-9
# entries of one 1/(t - s) block in evaluate_model: a chunk of points against
# their near knots.  1 MiB of float64, half the 2 MiB per-core L2 cache of the
# x86-64 host it was measured on, so a block stays in cache from subtraction
# through reciprocal to product.  One block is live at a time: made as its points
# repeated, less its knots in place (one broadcast operand: one 64 kB ufunc buffer),
# inverted in place and released before the next is made, so the evaluator's memory
# is bounded by this budget.  Beside the tree's blocks (a piece's near-knot block or
# its points' reciprocals to its leaves' nodes, and the far field's knot-node and
# box products) its leaves' expansions are live, so those blocks take half of it.
EVAL_CHUNK_ELEMENTS = 1 << 17
# point-knot terms up to which evaluate_model sums every knot at every point
# directly (see _tree_depth).  On a 2-core x86-64 host the two broke even at 0.41 to
# 0.44 M terms on lowpass and PNS models (median of 101, tree against dense: 1.16 /
# 1.11 / 0.98 at the PNS preset widened to 0.32 / 0.38 / 0.44 M); every preset's
# evaluation, 0.24 M terms at most, is dense.
DENSE_TERMS = 3 << 17
# a decoding block's core, and the guard of spikes it adds on each inner side, in
# half-periods pi/a_max of the kernel's highest frequency a_max (see block_split):
# 0.25 s and 61 ms at 65 Hz, eight blocks of at most 147 rows and 112 factor
# columns on the single-channel preset.  A block's Gram build and solve are a run's
# working set, so the core sets the peak: against cores of 64 (up to 244 rows and
# 148 columns) a 2 s preset peaked at 0.95 instead of 1.50 MB single-channel and
# 0.42 instead of 0.73 MB two-channel, for up to 7% more run time.  Now the solve
# frees each factor at its last use, and the build and evaluator write into arrays
# they keep, so a block's solve at its left factor's QR, level with its dense
# evaluation, sets the single-channel peak, at 0.49 MB.  The shorter
# blocks also decode closer to the signal: 145.7 and 144.3 dB instead of 127.0 and
# 124.2 on the presets; from the encoder's unrounded spike times over (2, 4) and
# (0, 8), 154.8 and 155.8 dB instead of 153.5 and 153.5 single-channel, 160.2 and
# 158.7 instead of 160.5 and 153.3 two-channel.  Cores of 48 save only a fifth of
# the memory; at core 32 guards of 16 take 1.12 and 0.58 MB, and guards of 4 lose
# another 0.9-1.0 dB off t = 0 two-channel.  Without a guard in-band tone sums read
# 129-150 dB, with one 154-177 dB.
BLOCK_CORE_HALF_PERIODS = 32
BLOCK_GUARD_HALF_PERIODS = 8


class DegenerateSystemError(RuntimeError):
    """The system has no nonzero singular value; it carries no information."""


class DegenerateShiftError(ValueError):
    """The channel shift makes the bandpass interpolation kernel singular."""


def shift_is_degenerate(shift, period: float, k0: int):
    """True when ``shift*k0/period`` or ``shift*(k0+1)/period`` is within
    ``DEGENERACY_TOL`` of an integer.

    At those shifts one of the bandpass kernel's ``sin`` denominators
    vanishes (see :func:`bandpass_segments`) and the two sample streams no
    longer separate the spectral aliases.  ``shift`` may be an array; the
    answer is then a boolean array of its shape.
    """
    shift = np.asarray(shift, dtype=float)
    degenerate = np.zeros(shift.shape, dtype=bool)
    for k in (k0, k0 + 1):
        frac = shift * k / period
        degenerate |= np.abs(frac - np.round(frac)) <= DEGENERACY_TOL
    return degenerate if degenerate.ndim else bool(degenerate)


def _midpoints(starts, ends):
    """Midpoints of the intervals ``[starts[r], ends[r]]``: every knot and every Gram row centre."""
    return 0.5 * (starts + ends)


def pair_shifts(merged_times) -> np.ndarray:
    """Kernel shifts of the bandpass knots, the midpoints of ``[t[l], t[l+2]]``, of merged times.

    Even knots are channel A's, odd ones B's.  A knot ``2j`` and the B knot
    ``2j+1`` after it pair up, as in Kohlenberg's second-order interpolant,
    and both take the pair gap as their shift: the local B-behind-A delay,
    the channel shift of a uniform record.  With an odd knot count the last
    knot copies its predecessor's shift; a single knot takes ``t[1] - t[0]``.
    """
    t = np.asarray(merged_times, dtype=float)
    if t.size < 3:
        raise ValueError(f"need at least 3 merged times, got {t.size}")
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("merged times must be strictly increasing")
    knots = _midpoints(t[:-2], t[2:])
    if knots.size == 1:
        return np.array([t[1] - t[0]])
    shifts = np.repeat(np.diff(knots)[0::2], 2)
    if knots.size % 2:
        shifts = np.append(shifts, shifts[-1])
    return shifts


@dataclass(frozen=True)
class GramSystem:
    """Linear system ``G c = q`` linking kernel coefficients to amplitude integrals, as two factors.

    ``G = left[:, :-1] @ right.T`` has one row of ``left`` per spike interval
    and one row of ``right`` per knot, whose kernel is in ``segments``; the
    right-hand side ``q`` is ``left``'s spare last column.  Every builder makes
    it through :func:`_gram_system`, both factors column-major;
    :func:`solve_coefficients` reduces the system by ``left``'s QR.
    """

    left: np.ndarray
    right: np.ndarray
    knot_times: np.ndarray
    segments: tuple
    gap_premise_ok: bool = True

    @property
    def rhs(self) -> np.ndarray:
        return self.left[:, -1]

    @property
    def matrix(self) -> np.ndarray:
        """The dense Gram matrix, the product of the held factors; the solve never forms it."""
        return self.left[:, :-1] @ self.right.T

    @property
    def shape(self):
        return self.left.shape[0], self.right.shape[0]


@dataclass(frozen=True)
class SolveResult:
    """A solved :class:`GramSystem`: coefficients, diagnostics and what is read of the system after.

    Besides the solve's own figures it carries the system's ``shape``, its
    factors' column count, the norm of its right-hand side, its gap premise,
    and the knots and kernels the coefficients belong to, so that no caller
    needs the system, and its factors, past the solve; :attr:`model` is the
    solved :class:`ReconModel`.
    """

    coefficients: np.ndarray
    residual_norm: float
    effective_rank: int
    sigma_max: float
    sigma_min: float
    sv_cutoff: float
    shape: tuple
    factor_cols: int
    rhs_norm: float
    gap_premise_ok: bool
    knot_times: np.ndarray
    segments: tuple
    blas_threads: Optional[int] = None  # 1 when the solve ran pinned; None: the caller's threads

    @property
    def model(self) -> "ReconModel":
        return ReconModel(self.knot_times, self.coefficients, self.segments)


def lowpass_segments(n: int, omega: float):
    """Spectral segments, a tuple of ``(lo, hi, w, psi)``, of ``n`` kernels ``sin(omega*u)/(pi*u)``.

    Knot ``l``'s kernel at offset ``u = t - s_l`` is the sum over segments of
    ``w[l] * integral_lo^hi cos(nu*u - psi[l]) dnu``, ``0 <= lo <= hi``; a
    segment from ``nu = 0`` has ``psi = 0``.  Here: ``[0, omega]``, ``w = 1/pi``.
    """
    return ((0.0, omega, np.full(n, 1.0 / math.pi), np.zeros(n)),)


def bandpass_segments(shifts, reflected, band: BandSpec):
    """Spectral segments of bandpass knot kernels with per-knot ``shifts``.

    Segments are as in :func:`lowpass_segments`.  Kohlenberg's second-order
    sampling kernel ``g_bp`` (:func:`kernel_gbp`) with the knot's shift
    ``d`` is piecewise constant in frequency: ``[k0*B - omega_l, omega_u]``
    with ``k = k0 + 1`` and ``[omega_l, k0*B - omega_l]`` with ``k = k0``,
    each contributing ``-(1/(B*sin(phi)))*integral_lo^hi sin(nu*u - phi)
    dnu`` with ``phi = k*B*d/2``.  A ``reflected`` knot (a boolean, or a
    mask over the knots) carries the time-reversed kernel; with ``sigma`` -1
    there and +1 elsewhere, ``sin(nu*sigma*u - phi) = sigma*cos(nu*u -
    psi)`` for ``psi = sigma*phi + pi/2``.

    Raises :class:`DegenerateShiftError` naming the first knot whose shift
    :func:`shift_is_degenerate` rejects.
    """
    bad = np.flatnonzero(shift_is_degenerate(shifts, band.period, band.k0))
    if bad.size:
        raise DegenerateShiftError(
            f"knot {bad[0]}: shift {shifts[bad[0]]} is degenerate for k0={band.k0}"
        )
    b_ = band.bandwidth
    a_mid = band.k0 * b_ - band.omega_l
    sigma = np.where(reflected, -1.0, 1.0)
    segments = []
    for k, lo, hi in ((band.k0 + 1, a_mid, band.omega_u), (band.k0, band.omega_l, a_mid)):
        phi = 0.5 * k * b_ * shifts
        segments.append((lo, hi, -sigma / (b_ * np.sin(phi)), sigma * phi + 0.5 * math.pi))
    return tuple(segments)


def _segment_kernel(segments, u, idx):
    """The kernels of knots ``idx`` at offsets ``u``, summed directly from their segments.

    ``integral_lo^hi cos(nu*u - psi) dnu = (hi - lo)*sinc((hi - lo)*u/2)*cos(mid*u - psi)``
    with ``mid`` the segment's centre and ``sinc(x) = sin(x)/x``: no
    cancellation as ``u`` goes to 0, where it takes its limit.
    """
    out = np.zeros(np.shape(u))
    for lo, hi, w, psi in segments:
        width = hi - lo
        out += w[idx] * width * sinc_pi((0.5 / math.pi) * width * u) * np.cos(
            0.5 * (hi + lo) * u - psi[idx])
    return out


def kernel_gbp(t, d, band: BandSpec):
    """Bandpass interpolation kernel ``g_bp(t, d)``; broadcasts over t and d.

    ``kernel_gbp(0, d, band) == 1`` and the kernel vanishes at every other
    grid instant ``k*period`` and ``k*period + d`` (channel A viewpoint);
    the channel-B interpolant is its time reverse ``kernel_gbp(-t, d, band)``.
    Summed directly from its :func:`bandpass_segments`.

    Raises :class:`DegenerateShiftError` where :func:`shift_is_degenerate`
    rejects a shift.
    """
    t, d = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(d, dtype=float))
    segments = bandpass_segments(d.ravel(), False, band)
    # [()] turns a 0-d result into a scalar and leaves arrays as they are
    return _segment_kernel(segments, t.ravel(), np.arange(d.size)).reshape(t.shape)[()]


def _gl_order(h: float, k_max: float, a_max: float, tol: float) -> int:
    """Least order of the Gauss-Legendre rule that meets ``tol`` on a length-``h`` interval.

    The rule integrates ``f`` over ``[c - h/2, c + h/2]`` as the rule in ``x``
    on ``[-1, 1]`` applied to ``(h/2)*f(c + (h/2)*x)``.  ``f`` is entire with
    ``|f(z)| <= k_max*exp(a_max*|Im z|)``, and ``max|Im x| = (rho - 1/rho)/2``
    on the Bernstein ellipse ``E_rho``, so there the integrand is at most
    ``(h/2)*M`` with ``M = k_max*exp(a_max*h*(rho - 1/rho)/4)``, and an
    ``m``-point rule errs by at most ``(h/2)*(64/15)*M*rho**(-2*(m - 1))/(rho**2 - 1)``
    (Trefethen, *Approximation Theory and Approximation Practice*, Thm 19.3).
    Each ``rho`` of a log grid, made per call, gives the least ``m`` meeting
    ``tol``; the order is the smallest of those, and at least 2.  Gram
    assembly asks each segment for an equal share of ``QUAD_TOL``
    (:func:`_gram_system`).
    """
    rho = 1.0 + np.logspace(-6.0, 6.0, 481)
    log_scale = math.log(0.5 * h * (64.0 / 15.0) * k_max)
    log_rest = 0.25 * a_max * h * (rho - 1.0 / rho) - np.log(rho * rho - 1.0)
    needed = 1.0 + (log_scale + log_rest - math.log(tol)) / (2.0 * np.log(rho))
    return math.ceil(max(2.0, float(np.min(needed))))


def _gram_system(starts, ends, segments, rhs, gap_premise_ok=True) -> GramSystem:
    """The :class:`GramSystem` of rows ``[starts[r], ends[r]]``, knots at their midpoints.

    Its factors ``(A, B)`` have ``(A @ B.T)[r, l] = integral_{starts[r]}^{ends[r]}
    kernel_l(u) du``, knot ``l`` at ``s_l = (starts[l] + ends[l])/2`` with its
    kernel given by ``segments`` (see :func:`lowpass_segments`) at offsets
    ``u - s_l``; ``rhs`` fills ``A``'s spare last column.  Each non-empty
    segment's ``nu`` integral is one Gauss-Legendre rule
    (:func:`temcodec.signals.gauss_legendre`), scaled to the segment as nodes
    ``nu_j`` and weights ``q_j``.  Splitting the cosine gives per node the column pair

    * ``A[r] = q_j*2h_r*sinc(nu_j*h_r)*[cos, sin](nu_j*m_r)``, the exact
      integrals of ``cos(nu*u)`` and ``sin(nu*u)`` over the row interval
      (midpoint ``m_r``, half-width ``h_r``), free of cancellation;
    * ``B[l] = w_l*[cos, sin](nu_j*s_l + psi_l)``.

    Since ``s_l = m_l``, one ``[cos, sin](nu_j*m)`` table per segment serves
    both factors; a segment whose ``psi`` is not all zero recomputes ``B``'s
    from the shifted phases.  Each table is made in the factor columns it
    ends in (``sin(nu_j*h)`` in ``A``'s sine columns, ``nu_j*m`` in ``B``'s
    cosine ones) by a broadcast copy and in-place ufuncs: numpy buffers each
    broadcast operand of an arithmetic ufunc (64 kB), two in an outer product.
    Both factors are column-major, so each node's column is contiguous: the
    solve's QR reads ``A`` without a transposing copy, and ``B.T`` is row-major.

    Times are measured from the record midpoint.  In ``nu`` an entry is entire
    and bounded by ``|w|*2h*exp(span*|Im nu|)`` (``span`` the record span), so
    :func:`_gl_order` fixes each segment's order at an equal share of
    ``QUAD_TOL``, read at call time.  The orders are 234 for the whole 2 s
    single-channel preset, 46 and 81 for the two segments of the two-channel
    one.
    """
    knots = _midpoints(starts, ends)
    span = float(ends[-1] - starts[0])
    half = 0.5 * (ends - starts)
    mid = knots - 0.5 * (starts[0] + ends[-1])
    live = [seg for seg in segments if seg[1] > seg[0]]
    longest = 2.0 * float(np.max(half))
    rules = [gauss_legendre(_gl_order(hi - lo, longest * float(np.max(np.abs(w))), span,
                                      QUAD_TOL / len(live)))
             for lo, hi, w, _ in live]
    width = 2 * sum(nodes.size for nodes, _ in rules)
    left = np.empty((half.size, width + 1), order="F")
    right = np.empty((half.size, width), order="F")
    left[:, -1] = rhs
    col = 0
    for (lo, hi, w, psi), (nodes, weights) in zip(live, rules):
        nu = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
        cols = (slice(col, col + nu.size), slice(col + nu.size, col + 2 * nu.size))
        amp, arg = left[:, cols[1]], right[:, cols[0]]
        # q*2h*sinc(nu*h) = q*2*sin(nu*h)/nu, and nu > 0 at every node
        amp[...] = half[:, None]
        amp *= nu
        np.sin(amp, out=amp)
        amp *= (0.5 * (hi - lo) * weights) * 2.0 / nu
        for shift in (None, psi) if np.any(psi) else (None,):
            arg[...] = mid[:, None]
            arg *= nu
            if shift is not None:  # right's own phases, once left has its table
                arg += shift[:, None]
            np.sin(arg, out=right[:, cols[1]])
            np.cos(arg, out=arg)
            if shift is None:
                np.multiply(arg, amp, out=left[:, cols[0]])
                amp *= right[:, cols[1]]
        right[:, col:col + 2 * nu.size] *= w[:, None]
        col += 2 * nu.size
    return GramSystem(left, right, knots, segments, gap_premise_ok)


def build_gram_lowpass(train: SpikeTrain, omega: float) -> GramSystem:
    """Gram system ``G[k,l] = integral over spike interval k of g_lp(u - s_l)``.

    Knots ``s_l`` are the spike-interval midpoints; the right-hand side is
    the amplitude-integral sequence of the train.  ``G`` is built as the
    spectral factors of the kernel's one segment, every entry within
    ``QUAD_TOL`` (see :func:`_gram_system`).
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    if len(train) < 2:
        raise ValueError("need at least 2 spikes to assemble a system")
    t = train.times
    return _gram_system(t[:-1], t[1:], lowpass_segments(t.size - 1, omega),
                        amplitude_integrals(train))


def build_gram_bandpass(merged: SpikeTrain, band: BandSpec) -> GramSystem:
    """Gram system over stride-2 intervals of a merged two-channel record.

    ``merged`` is the record :func:`temcodec.tem.interleave` makes, or a
    slice of its times.  Row ``l`` integrates every knot kernel over
    ``[t[l], t[l+2]]``, with right-hand side ``amplitude_integrals(merged,
    2)``; column ``k`` holds the kernel of knot ``k`` (time-reversed for a
    channel-B knot, odd ``k``), whose pair shift ``d`` (:func:`pair_shifts`)
    fixes its two spectral segments (see :func:`bandpass_segments`).  ``G``
    is built as their spectral factors, every entry within ``QUAD_TOL`` (see
    :func:`_gram_system`).  If the record's largest spike gap reaches the
    kernel period ``2*pi/B``, reconstruction is no longer guaranteed: a
    warning is issued, the system's ``gap_premise_ok`` is False, and
    assembly proceeds.

    Raises ``ValueError`` for fewer than 3 merged spikes, and
    :class:`DegenerateShiftError`, naming the knot, if some pair shift makes
    the kernel singular (:func:`shift_is_degenerate`).
    """
    t = merged.times
    shifts = pair_shifts(t)
    segments = bandpass_segments(shifts, np.arange(shifts.size) % 2 == 1, band)
    max_gap = float(np.max(np.diff(t)))
    premise_ok = max_gap < band.period
    if not premise_ok:
        warnings.warn(
            f"max merged spike gap {max_gap:.6g} s reaches the kernel period "
            f"{band.period:.6g} s; reconstruction quality is not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )
    return _gram_system(t[:-2], t[2:], segments, amplitude_integrals(merged, 2), premise_ok)


def block_count(window, a_max: float) -> int:
    """The number of decoding blocks of a record over ``window``: ``max(1, round(span/core))``.

    ``core = BLOCK_CORE_HALF_PERIODS*pi/a_max``, ``a_max`` the kernel's
    highest frequency, so a window shorter than about 1.5 cores is one block.
    """
    w0, w1 = window
    return max(1, round((w1 - w0) / (BLOCK_CORE_HALF_PERIODS * (math.pi / a_max))))


def block_split(times, window, a_max: float, stride: int):
    """The overlapping blocks a record of spike ``times`` is decoded in: ``(edges, spans)``.

    ``window`` is cut into ``n`` equal cores, ``n`` the :func:`block_count` of the
    window at the kernel's highest frequency ``a_max``.  ``edges`` holds the
    ``n + 1`` core edges, from ``window[0]`` to ``window[1]``.  Block
    ``k`` decodes the spikes ``times[start:stop]`` of ``spans[k]``, whose rows, the
    intervals ``[t[j], t[j + stride]]``, cover its core ``[edges[k], edges[k+1]]``
    widened on each inner side by the guard ``BLOCK_GUARD_HALF_PERIODS*pi/a_max``;
    the first and last blocks reach the record's ends, and every block keeps at
    least one row.  With ``stride`` 2, a merged two-channel record, a block starts
    on an even index, a channel-A spike, so its knots keep their A/B parity
    (:func:`build_gram_bandpass`).
    """
    t = np.asarray(times, dtype=float)
    edges = np.linspace(window[0], window[1], block_count(window, a_max) + 1)
    guard = BLOCK_GUARD_HALF_PERIODS * (math.pi / a_max)
    # the last spike at or before each inner edge less the guard, and one past the
    # first spike at or after the edge plus the guard
    firsts = np.maximum(np.searchsorted(t, edges[1:-1] - guard, side="right") - 1, 0)
    stops = np.searchsorted(t, edges[1:-1] + guard, side="left") + 1
    spans = []
    for start, stop in zip([0, *firsts.tolist()], [*stops.tolist(), t.size]):
        stop = min(max(stop, start + stride + 1), t.size)
        start = max(min(start, stop - stride - 1), 0)
        spans.append((start - start % stride, stop))
    return edges, spans


@functools.cache
def _blas_thread_controls():
    """The ``(get, set)`` thread-count functions of numpy's bundled OpenBLAS, or ``None``.

    Wheels of numpy 2 ship ``scipy_openblas`` in ``numpy.libs``, numpy 1.x
    ``openblas``, both with the 64-bit-integer symbol suffix; ``ctypes``
    reaches the copy numpy has already loaded.  ``None`` when no such library
    or symbols are found (another BLAS, another platform's layout).  Looked up
    on first use, not at import.
    """
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads64_", None)
            put = getattr(lib, f"{prefix}_set_num_threads64_", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


# held while the process-wide BLAS thread count is pinned, so that pinned blocks
# in several Python threads cannot save one another's pinned count as the caller's;
# reentrant, so a solve inside a pinned block saves 1 and the outer block restores
_PIN_LOCK = threading.RLock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread, then restore the caller's count.

    Yields 1 when pinned and ``None`` when no OpenBLAS controls were found,
    in which case the block runs on the caller's threads.  The count is
    process-wide: BLAS calls from other Python threads run single-threaded
    meanwhile, and pinned blocks in several threads run one at a time.  A
    block nested in another on the same thread stays pinned.
    """
    controls = _blas_thread_controls()
    if controls is None:
        yield None
        return
    get, put = controls
    with _PIN_LOCK:
        before = get()
        put(1)
        try:
            yield 1
        finally:
            put(before)


def solve_coefficients(system: GramSystem) -> SolveResult:
    """Minimum-norm least squares truncated at the rounding floor of its core.

    The system (see :class:`GramSystem`) holds ``left = [A, q]`` and
    ``right`` with ``G = A @ right.T``.  With the QR factorisation ``A = Qa
    Ra``, ``G = Qa (Ra right^T)`` and ``Qa`` has orthonormal columns, so the
    reduced system ``(Ra right^T) c = Qa^T q`` has ``G``'s singular values and
    its truncated minimum-norm least-squares solution.  Householder QR goes
    column by column, so the R of ``left``, ``r_aug`` (from ``mode="raw"``,
    made row-major), is ``Ra`` with ``Qa^T q`` as its last column; numpy
    returns R in a layout that follows its input's, and fixing it fixes the
    summation order of the product.  Neither ``G`` nor ``Qa`` is formed.  The
    reduced system is solved by LAPACK's ``gelsd`` (``np.linalg.lstsq``),
    which keeps the singular values ``sv > sv_cutoff * sigma_max``, never
    forms singular vectors, and returns the knot coefficients directly.  The
    relative cutoff ``sv_cutoff`` is ``eps * max(min(rows, factor_cols),
    min(knots, factor_cols))``, the rounding floor of ``G``'s singular values
    on the smallest core that holds them.  Returns the coefficients together
    with the residual norm ``||G c - q||``, effective rank, and the
    singular-value extremes; ``sigma_min`` is 0.0 when the factors are
    narrower than the system, since ``G`` then has exactly zero singular
    values.  The residual comes from the reduced system, not from ``G c``: it
    is ``sqrt(||Ra right^T c - Qa^T q||^2 + r^2)``, ``r`` the entry of
    ``r_aug`` below ``Ra`` in its last column (0 when ``A`` has no more rows
    than columns).

    The result carries what is read of the system after the solve (see
    :class:`SolveResult`); the solve drops ``system`` at once, ``left`` once
    its QR is taken, and ``right`` and ``r_aug`` once the reduced system is
    made, before ``gelsd`` runs.  So a caller that passes a builder's result
    straight in, ``solve_coefficients(build_gram_lowpass(train, omega))``, has
    both factors freed there (CPython, from 3.11, hands a call's arguments to
    the callee's frame without keeping them).  The result is the same either
    way.

    The whole solve runs on one OpenBLAS thread (see
    :func:`_one_blas_thread`), so its result does not depend on the
    caller's thread count; ``blas_threads`` is 1 then.  Where numpy's
    OpenBLAS controls are not found it runs on the caller's threads and
    ``blas_threads`` is ``None``.  Deterministic: solving the same system
    twice is bit-identical.

    Raises :class:`DegenerateSystemError` when the system has no nonzero
    singular value; with a cutoff below 1, ``gelsd`` keeps the largest
    singular value whenever it is nonzero.
    """
    of_system = dict(shape=system.shape, factor_cols=system.right.shape[1],
                     rhs_norm=float(np.linalg.norm(system.rhs)),
                     gap_premise_ok=bool(system.gap_premise_ok),
                     knot_times=system.knot_times, segments=system.segments)
    left, right = system.left, system.right
    del system
    with _one_blas_thread() as threads:
        raw, _ = np.linalg.qr(left, mode="raw")
        del left
        # raw is the packed QR transposed: R on and above the diagonal of raw.T
        r_aug = np.ascontiguousarray(raw.T[:min(raw.shape)])
        del raw
        r_aug[np.tri(*r_aug.shape, k=-1, dtype=bool)] = 0.0
        # Ra is square, of the smaller of A's row and column counts
        inner = min(r_aug.shape[0], r_aug.shape[1] - 1)
        reduced = r_aug[:inner, :-1] @ right.T
        del right
        projected = r_aug[:inner, -1].copy()
        # the part of q outside the column space of A: the entry below Ra in
        # the last column, where left = [A, q] has a row there
        outside = float(r_aug[inner, -1]) if r_aug.shape[0] > inner else 0.0
        del r_aug
        sv_cutoff = float(np.finfo(float).eps
                          * max(inner, min(reduced.shape[1], of_system["factor_cols"])))
        coeff, _, rank, sv = np.linalg.lstsq(reduced, projected, rcond=sv_cutoff)
        if sv.size == 0 or sv[0] <= 0.0:
            raise DegenerateSystemError("system has no nonzero singular values")
        # G c - q = Qa (Ra B^T c - Qa^T q) plus q's part outside A's columns
        residual = math.hypot(float(np.linalg.norm(reduced @ coeff - projected)), outside)
    return SolveResult(
        coefficients=coeff,
        residual_norm=residual,
        effective_rank=int(rank),
        sigma_max=float(sv[0]),
        sigma_min=float(sv[-1]) if sv.size == min(of_system["shape"]) else 0.0,
        sv_cutoff=sv_cutoff,
        blas_threads=threads,
        **of_system,
    )


@dataclass(frozen=True)
class ReconModel:
    """Solved kernel expansion ``sum_l c_l * kernel_l(t)``, evaluable at any time (callable).

    ``segments`` holds the knot kernels.  Raises ``ValueError`` unless ``coefficients``
    and every segment's ``w`` and ``psi`` hold one entry per knot.
    """

    knot_times: np.ndarray
    coefficients: np.ndarray
    segments: tuple

    def __post_init__(self):
        object.__setattr__(self, "knot_times", np.asarray(self.knot_times, dtype=float))
        object.__setattr__(self, "coefficients", np.asarray(self.coefficients, dtype=float))
        arrays = [self.coefficients] + [a for seg in self.segments for a in seg[2:]]
        if any(np.shape(a) != np.shape(self.knot_times) for a in arrays):
            raise ValueError("coefficients and segment weights need one entry per knot")

    def __call__(self, t):
        return evaluate_model(self, t)


def _chebyshev_points(tol: float) -> int:
    """Fewest Chebyshev points that interpolate every far-field term to ``tol``.

    In a box's normalised coordinate ``x`` in ``[-1, 1]`` a far knot (one at
    least a box width beyond the box) contributes ``1/(x - z)`` with real
    ``|z| >= 3``.  That term is analytic inside the Bernstein ellipse of
    parameter ``rho < 3 + sqrt(8)`` and bounded there by
    ``M = 1/(3 - (rho + 1/rho)/2)``, so its interpolant in ``p`` Chebyshev
    points errs by at most ``4*M*rho**(1 - p)/(rho - 1)`` (Trefethen,
    *Approximation Theory and Approximation Practice*, Thm 8.2), minimised
    here over a grid of ``rho``.  The bound is held to ``tol`` times 1/4,
    the smallest value the term takes on the box.  The evaluator's far field
    interpolates on both sides of each interaction, in the target box and in
    the source box, and each sees the other at least a box width away.
    """
    rho = 1.0 + (2.0 + math.sqrt(8.0)) * np.linspace(1e-3, 1.0 - 1e-3, 999)
    log_rest = np.log(4.0 / ((3.0 - 0.5 * (rho + 1.0 / rho)) * (rho - 1.0)))
    log_rho, log_tol = np.log(rho), math.log(0.25 * tol)
    p = 2
    while np.min(log_rest - (p - 1) * log_rho) > log_tol:
        p += 1
    return p


CHEB_POINTS = _chebyshev_points(np.finfo(float).eps)  # 24
# Chebyshev points of the second kind on [-1, 1], ascending: the nodes of every
# box of the evaluator's tree, in the box's normalised coordinate; and their
# barycentric weights
_CHEB_NODES = np.sin(0.5 * math.pi * np.arange(1 - CHEB_POINTS, CHEB_POINTS, 2) / (CHEB_POINTS - 1))
_CHEB_WEIGHTS = (-1.0) ** np.arange(CHEB_POINTS)
_CHEB_WEIGHTS[[0, -1]] *= 0.5


def _interpolate(u, values) -> np.ndarray:
    """The interpolants at normalised points ``u`` of ``values`` at a box's Chebyshev nodes.

    ``values`` is ``(..., CHEB_POINTS, columns)``, its leading axes those of
    ``u`` but the last, and the result ``u.shape + (columns,)``; the values
    ``np.eye(CHEB_POINTS)`` give the Lagrange basis at ``u``.  It is the
    barycentric formula ``sum_j w_j*f_j/(u - x_j) / sum_j w_j/(u - x_j)``,
    forward stable on Chebyshev points (Higham, *IMA J. Numer. Anal.* 2004),
    its two sums taken as matrix products.  A point on a node takes that
    node's value.
    """
    u = np.asarray(u, dtype=float)
    r = u[..., None] - _CHEB_NODES
    with np.errstate(divide="ignore", invalid="ignore"):
        np.reciprocal(r, out=r)
        den = r @ _CHEB_WEIGHTS
        out = r @ (_CHEB_WEIGHTS[:, None] * values)
        del r
        out /= den[..., None]
    hit = np.isinf(den)
    if hit.any():
        at = np.nonzero(hit)
        out[at] = ((u[at][:, None] == _CHEB_NODES)[:, :, None] * values[at[:-1]]).sum(axis=1)
    return out


def _far_operators():
    """The far field's fixed operators ``(to_parent, m2l)``.

    They are made for each far field, in about 0.1 ms, and kept in no cache:
    a process that only sums densely never makes them.

    ``to_parent``, M2M: a left and a right child box's node values onto its
    parent's nodes; the transposes carry a parent's values at its nodes onto
    a child's (L2L).  Exact up to rounding: a child's interpolant of a
    polynomial of the parent's degree is that polynomial.

    ``m2l``, M2L: the node values of a source box ``offset`` box widths right
    of a target box onto the target's nodes, for boxes of width 2: entries
    ``1/(x_i - x_j - 2*offset)``, scaled by ``2/h`` for boxes of width
    ``h``.  In 1-D a box's interaction list, the children of its parent's
    neighbours that are not its own neighbours, holds the boxes at offsets
    +-2, +3 for a left child and -3 for a right one: each offset's
    ``(offset, kernel, targets, sources)``, the last two slices of a level's
    boxes.
    """
    to_parent = tuple(_interpolate(0.5 * (_CHEB_NODES + side), np.eye(CHEB_POINTS)).T
                      for side in (-1.0, 1.0))
    m2l = tuple(
        (offset, 1.0 / (_CHEB_NODES[:, None] - _CHEB_NODES - 2.0 * offset), targets, sources)
        for offset, targets, sources in (
            (2, slice(None, -2), slice(2, None)),
            (-2, slice(2, None), slice(None, -2)),
            (3, slice(0, -3, 2), slice(3, None, 2)),
            (-3, slice(3, None, 2), slice(0, -3, 2)),
        )
    )
    return to_parent, m2l


def _tree_depth(x: np.ndarray, s: np.ndarray, near: float) -> int:
    """Depth of the binary tree of equal leaves over sorted points ``x`` and knots ``s``.

    Depth 0 is one leaf, the dense sum of every knot at every point, taken up
    to ``DENSE_TERMS`` point-knot terms: below that the tree's fixed costs
    outweigh the terms it saves.  Above it the depth is the greatest whose
    leaves, of width ``L/2**depth`` (``L`` the span of points and knots
    together), are at least ``near`` wide, so that every pair closer than
    ``near`` has its knot in the point's leaf or a neighbour, and hold, with
    both neighbours, at least ``CHEB_POINTS`` knots on average, so that no
    point's direct sum is shorter than its interpolation from the
    ``CHEB_POINTS`` nodes of its leaf.
    """
    n = s.size
    if x.size * n <= DENSE_TERMS:
        return 0
    whole = max(x[-1], s[-1]) - min(x[0], s[0])
    depth = 0
    while whole / 2 ** (depth + 1) >= near and 3 * n >= 2 ** (depth + 1) * CHEB_POINTS:
        depth += 1
    return depth


def _leaf_edges(x: np.ndarray, s: np.ndarray, depth: int) -> np.ndarray:
    """The ``2**depth + 1`` edges of the equal leaves over sorted points ``x`` and knots ``s``."""
    lo, hi = min(x[0], s[0]), max(x[-1], s[-1])
    leaves = 1 << depth
    edges = lo + ((hi - lo) / leaves) * np.arange(leaves + 1)
    edges[-1] = hi
    return edges


def _far_field(s: np.ndarray, weights: np.ndarray, edges: np.ndarray,
               kstart: np.ndarray) -> np.ndarray:
    """Every leaf's far-field Cauchy sums at its nodes, ``(CHEB_POINTS, leaves, columns)``.

    The far field of a leaf is the knots outside it and its two neighbours;
    leaf ``b`` holds the sorted knots ``s[kstart[b]:kstart[b+1]]`` and spans
    ``[edges[b], edges[b+1]]``.  This is the multilevel scheme of the
    black-box fast multipole method (Fong & Darve, *J. Comput. Phys.* 2009;
    Greengard & Rokhlin, *J. Comput. Phys.* 1987) on the binary tree above
    the leaves.  Each leaf takes its knots' weights onto its ``CHEB_POINTS``
    Chebyshev nodes through their Lagrange basis (P2M), each parent its
    children's (M2M), and each box takes the sums of its interaction list
    at its nodes (M2L) and its parent's (L2L).  Every step but P2M is a
    matrix product per level, or per offset and level, over runs of the
    level's boxes; expansions are held as ``(CHEB_POINTS, boxes, columns)``.
    Besides the expansions, at most ``EVAL_CHUNK_ELEMENTS // 2`` entries of
    knot-node or box products and their operands are live at a time.  The
    cost is linear in the knots and the leaves.
    """
    to_parent, m2l = _far_operators()
    leaves = edges.size - 1
    depth = leaves.bit_length() - 1
    p, cols = CHEB_POINTS, weights.shape[1]
    whole = edges[-1] - edges[0]
    leaf = np.repeat(np.arange(leaves), np.diff(kstart))
    multipoles = {depth: np.zeros((p, leaves, cols))}
    # a chunk's Lagrange basis values and their products with one weight column
    step = max(1, EVAL_CHUNK_ELEMENTS // (4 * p))
    for lo in range(0, s.size, step):
        part = leaf[lo:lo + step]
        basis = _interpolate((s[lo:lo + step] - edges[part]) * (2.0 * leaves / whole) - 1.0,
                             np.eye(p))
        first = np.flatnonzero(np.diff(part, prepend=-1))
        for col in range(cols):
            multipoles[depth][:, part[first], col] += np.add.reduceat(
                basis * weights[lo:lo + step, col, None], first).T
        del basis
    # a run of boxes and its product with an operator
    chunk = max(1, EVAL_CHUNK_ELEMENTS // (4 * p * cols))

    def add(op, src, dst):
        """``dst += op @ src`` for runs of boxes ``(p, boxes, cols)``, ``chunk`` boxes at a time."""
        for lo in range(0, src.shape[1], chunk):
            run = src[:, lo:lo + chunk]
            dst[:, lo:lo + chunk] += (op @ run.reshape(p, -1)).reshape(run.shape)

    for level in range(depth, 2, -1):
        multipoles[level - 1] = np.zeros((p, 1 << (level - 1), cols))
        for side, move in enumerate(to_parent):
            add(move, multipoles[level][:, side::2], multipoles[level - 1])
    here = None
    for level in range(2, depth + 1):
        boxes = 1 << level
        parent, here = here, np.zeros((p, boxes, cols))
        if parent is not None:
            for side, move in enumerate(to_parent):
                add(move.T, parent, here[:, side::2])
            del parent
        sources = multipoles.pop(level)
        for _, kernel, to, frm in m2l:
            # a box of this level is whole/boxes wide
            add((2.0 * boxes / whole) * kernel, sources[:, frm], here[:, to])
        del sources
    return here


def _near_pairs(x: np.ndarray, s: np.ndarray, near: float, lo, hi):
    """Pairs ``(row, knot)`` of points ``x`` and sorted knots ``s`` closer than ``near``.

    Only knots ``lo[row] <= knot < hi[row]`` count: a point's near field.
    Pairs come row by row, knots ascending: the k-th pair of a row is knot
    ``first[row] + k``, ``first`` the row's first such knot above ``x - near``.
    """
    first = np.maximum(np.searchsorted(s, x - near, side="right"), lo)
    count = np.maximum(np.minimum(np.searchsorted(s, x + near, side="left"), hi), first)
    count -= first
    row = np.repeat(np.arange(x.size), count)
    knot = np.arange(row.size)
    knot += np.repeat(first - np.cumsum(count) + count, count)
    return row, knot


def evaluate_model(model: ReconModel, t):
    """Evaluate ``sum_l c_l * kernel_l(t)``; accepts scalars or arrays.

    This is the one evaluator for lowpass, bandpass and PNS models.  Each
    kernel segment of ``model.segments`` integrates to
    ``w*[sin(hi*u - psi) - sin(lo*u - psi)]/u`` at ``u = t - s``, and with
    ``theta = a*s + psi``, ``sin(a*(t - s) - psi) = sin(a*t)*cos(theta) -
    cos(a*t)*sin(theta)``.  So the model is ``sum_f cos(a_f*t)*C_f(t) +
    sin(a_f*t)*S_f(t)`` over its ``F`` distinct segment edges ``a_f``, with
    ``2F`` Cauchy sums ``C_f, S_f = sum_l W_l/(t - s_l)`` whose weights fold
    in each knot's coefficient, shift and reflection.  An edge at ``nu = 0``
    starts a segment with ``psi = 0``, where its term ``sin(-psi)/u``
    vanishes, so it gets no columns.

    The sorted points and the knots are cut into the equal leaves of a
    binary tree (see :func:`_tree_depth`).  For the points of a leaf, the
    knots of the leaf and of its two neighbours (the near field) are summed
    directly: one ``1/(t - s)`` block times the ``(n, 2F)`` weight matrix.
    Point-knot pairs closer than ``pi/a_max``, where that expansion cancels
    badly, are left out of the block and added back from the segments
    directly (:func:`_segment_kernel`).  The remaining knots' Cauchy sums
    come from the multilevel far field (:func:`_far_field`), to machine
    precision per term (:func:`_chebyshev_points`), interpolated from the
    leaf's Chebyshev nodes (:func:`_interpolate`).  Both run on pieces of
    whole leaves, their points padded to the piece's fullest leaf, as
    batched matrix products; a leaf with more points than a block holds is
    cut into chunks of points, each a piece of one leaf.  A block holds
    ``EVAL_CHUNK_ELEMENTS`` entries, half that beside the far field's
    expansions.  The cost is linear in the points and knots.  Up to
    ``DENSE_TERMS`` point-knot terms the tree is one leaf and every knot is
    near: the dense sum.
    Non-finite points evaluate to NaN.
    """
    t_in = np.asarray(t, dtype=float)
    order = np.argsort(model.knot_times, kind="stable")
    s, coeff = model.knot_times[order], model.coefficients[order]
    segments = [(lo, hi, coeff * w[order], psi[order]) for lo, hi, w, psi in model.segments]
    freqs = sorted({edge for seg in segments for edge in seg[:2] if edge > 0.0}, reverse=True)
    weights = np.zeros((s.size, 2 * len(freqs)))
    for lo, hi, w, psi in segments:
        for edge, sign in ((hi, 1.0), (lo, -1.0)):
            if edge > 0.0:
                f = freqs.index(edge)
                theta = edge * s + psi
                weights[:, 2 * f] -= sign * w * np.sin(theta)
                weights[:, 2 * f + 1] += sign * w * np.cos(theta)
    near = math.pi / freqs[0]

    points = t_in.ravel()
    finite = np.isfinite(points)
    x = points if finite.all() else points[finite]
    perm = None
    if np.any(x[1:] < x[:-1]):
        perm = np.argsort(x, kind="stable")
        x = x[perm]

    depth = _tree_depth(x, s, near)
    leaves = 1 << depth
    # leaf b holds the points x[pstart[b]:pstart[b+1]] and the knots s[kstart[b]:kstart[b+1]]
    pstart, kstart = np.array([0, x.size]), np.array([0, s.size])
    far = None
    if depth:
        edges = _leaf_edges(x, s, depth)
        pstart = np.concatenate(([0], np.searchsorted(x, edges[1:-1]), [x.size]))
        kstart = np.concatenate(([0], np.searchsorted(s, edges[1:-1]), [s.size]))
        if depth >= 2:
            far = _far_field(s, weights, edges, kstart)
    # each leaf's near field: the knots of it and its neighbours
    index = np.arange(leaves)
    near_lo = kstart[np.maximum(index - 1, 0)]
    near_hi = kstart[np.minimum(index + 2, leaves)]
    # counts are taken as Python ints: leaves number at most a few thousand
    width = max(*(near_hi - near_lo).tolist(), CHEB_POINTS)
    fullest = max(np.diff(pstart).tolist())
    # the leaves' expansions are live beside a tree's blocks: they take half the budget
    budget = EVAL_CHUNK_ELEMENTS if far is None else EVAL_CHUNK_ELEMENTS // 2
    rows = max(1, min(fullest, budget // width))
    bounds = pstart.tolist()
    if rows < fullest:  # one leaf at a time, in chunks of its points
        pieces = ((b, b + 1, i, min(i + rows, bounds[b + 1]))
                  for b in range(leaves) for i in range(bounds[b], bounds[b + 1], rows))
    else:  # as many whole leaves as one block and their points' sums hold
        group = max(1, budget // (rows * (width + 2 * weights.shape[1])))
        pieces = ((b, min(b + group, leaves), bounds[b], bounds[min(b + group, leaves)])
                  for b in range(0, leaves, group))

    values = np.empty_like(x)  # made after the far field, so the two are not live together

    def piece(b0, b1, i0, i1):
        """``values[i0:i1]`` for leaves ``b0:b1``: near knots directly, the rest from ``far``.

        The leaves' points, clipped to ``i0:i1``, are padded to the fullest:
        points NaN, knots at infinity of weight 0.  A chunk of one leaf's
        points is a group of one leaf.
        """
        block = x[i0:i1]
        bounds = np.clip(pstart[b0:b1 + 1], i0, i1) - i0
        counts = np.diff(bounds)
        leaf = np.repeat(np.arange(b1 - b0), counts)
        lo_k, hi_k = near_lo[b0:b1], near_hi[b0:b1]
        pair_row, idx = _near_pairs(block, s, near, lo_k[leaf], hi_k[leaf])  # the pairs' knots
        acc = values[i0:i1]
        acc[:] = np.bincount(
            pair_row, _segment_kernel(segments, block[pair_row] - s[idx], idx),
            minlength=block.size,
        )
        height = max(counts.tolist())
        slot = leaf * height + np.arange(block.size) - bounds[leaf]  # row in the padding
        knot = lo_k[:, None] + np.arange(max((hi_k - lo_k).tolist()))
        # a near pair's entry in the block below: its row in the padding, and its
        # knot's place among its leaf's near knots
        entry = slot[pair_row] * knot.shape[1] + idx - lo_k[leaf[pair_row]]
        del leaf, pair_row, idx  # released before the block is made
        inside = knot < hi_k[:, None]
        knot = np.minimum(knot, s.size - 1)
        s_near = np.where(inside, s[knot], np.inf)
        w_near = np.where(inside[:, :, None], weights[knot], 0.0)
        del knot, inside
        padded = np.full((b1 - b0) * height, np.nan)  # padding rows are computed and dropped
        padded[slot] = block
        recip = np.repeat(padded.reshape(b1 - b0, height, 1), s_near.shape[1], axis=2)
        recip -= s_near[:, None, :]
        recip.reshape(-1)[entry] = np.inf  # 1/inf = 0
        del entry
        np.reciprocal(recip, out=recip)
        sums = recip @ w_near
        del recip, s_near, w_near  # released before the far field is interpolated
        if far is not None:
            u = (padded.reshape(b1 - b0, height) - edges[b0:b1, None]) * (
                2.0 * leaves / (edges[-1] - edges[0])) - 1.0
            sums += _interpolate(u, far[:, b0:b1].transpose(1, 0, 2))
        sums = sums.reshape(padded.size, -1)[slot]
        for f, a in enumerate(freqs):
            acc += np.cos(a * block) * sums[:, 2 * f] + np.sin(a * block) * sums[:, 2 * f + 1]

    for b0, b1, i0, i1 in pieces:
        if i0 < i1:
            piece(b0, b1, i0, i1)
    if perm is not None:
        values[perm] = values.copy()
    if not finite.all():
        out = np.full(points.shape, np.nan)
        out[finite] = values
        values = out
    return values.reshape(t_in.shape) if t_in.ndim else float(values[0])
