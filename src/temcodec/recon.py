"""Kernel-expansion reconstruction of signals from spike data.

The decoder posits ``x(t) = sum_l c_l * kernel_l(t)`` with one kernel per
knot (knots are spike-interval midpoints), equates the integral of that
expansion over every spike interval to the amplitude integrals recovered
from the spike gaps, and solves the resulting linear system ``G c = q``
with a truncated-SVD pseudo-inverse.

Two kernel families are supported:

* lowpass: ``sin(omega*t)/(pi*t)`` shifted to each knot;
* bandpass: the two-channel PNS interpolant of :mod:`temcodec.pns`, with
  per-knot shifts derived from the interleaved two-channel spike record.
  Knots pair up (one per channel); the pair's first knot carries the
  plain kernel and its partner the time-reversed kernel, mirroring the
  even/odd roles of exact PNS.

:func:`evaluate_model` is the single evaluator for both families and for
PNS records (:func:`temcodec.pns.reconstruct_pns` builds a bandpass
model).  It evaluates every kernel in a separated form, one matrix
product per block of points, and uses the direct kernel only to repair
point-knot pairs closer than half the shortest kernel period.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .signals import BandSpec, QuadratureError, integrate_columns
from .tem import MergedTrain, SpikeTrain, amplitude_integrals
from .pns import DEGENERACY_TOL, DegenerateShiftError, kernel_gbp, shift_is_degenerate

__all__ = [
    "BandpassKnots",
    "GramSystem",
    "SolveResult",
    "ReconModel",
    "DegenerateSystemError",
    "knots_and_shifts",
    "build_gram_lowpass",
    "build_gram_bandpass",
    "solve_coefficients",
    "evaluate_model",
    "model_from",
    "reconstruct_lowpass",
    "reconstruct_bandpass",
]

ENTRY_ZERO_FLOOR = 1e-14  # Gram entries below this magnitude stored as exact zeros
DEFAULT_SV_CUTOFF = 1e-8
DEFAULT_QUAD_TOL = 1e-9
EVAL_CHUNK_ELEMENTS = 1 << 19  # entries of one 1/(t - s) block in evaluate_model (4 MB)


class DegenerateSystemError(RuntimeError):
    """Every singular value fell below the cutoff; the system carries no information."""


@dataclass(frozen=True)
class BandpassKnots:
    """Knot positions and per-knot kernel shifts for bandpass reconstruction.

    ``times[l]`` is the midpoint of the stride-2 spike interval starting at
    merged index ``l``; even indices are channel-A knots, odd channel-B.
    ``shifts`` assigns each knot of a pair the gap between the pair's two
    knots.  ``anchor`` selects the pairing: ``"even"`` pairs each A knot
    with the following B knot (the pair gap is then the local B-behind-A
    delay, reducing to the fixed channel shift for a uniform record);
    ``"odd"`` pairs each B knot with the following A knot.  Knots left
    unpaired at the boundaries copy the nearest assigned shift.
    """

    times: np.ndarray
    shifts: np.ndarray
    anchor: str

    @property
    def reflected(self) -> np.ndarray:
        """Mask of knots carrying the time-reversed kernel (the pair partners)."""
        parity = 1 if self.anchor == "even" else 0
        return np.arange(self.times.size) % 2 == parity


def knots_and_shifts(merged_times, anchor: str = "even") -> BandpassKnots:
    """Derive knots ``(t[l] + t[l+2])/2`` and paired shifts from merged spike times."""
    if anchor not in ("even", "odd"):
        raise ValueError(f"anchor must be 'even' or 'odd', got {anchor!r}")
    t = np.asarray(merged_times, dtype=float)
    if t.size < 3:
        raise ValueError(f"need at least 3 merged times, got {t.size}")
    if not np.all(np.diff(t) > 0.0):
        raise ValueError("merged times must be strictly increasing")
    knots = 0.5 * (t[:-2] + t[2:])
    n = knots.size
    gaps = np.diff(knots)
    shifts = np.full(n, np.nan)
    start = 0 if anchor == "even" else 1
    for k in range(start, n - 1, 2):
        shifts[k] = shifts[k + 1] = gaps[k]
    unassigned = np.flatnonzero(np.isnan(shifts))
    assigned = np.flatnonzero(~np.isnan(shifts))
    if assigned.size == 0:
        # Single knot; no pair exists, fall back to the spike gap.
        shifts[:] = t[1] - t[0]
    else:
        for k in unassigned:
            shifts[k] = shifts[assigned[np.argmin(np.abs(assigned - k))]]
    return BandpassKnots(knots, shifts, anchor)


@dataclass(frozen=True)
class GramSystem:
    """Assembled linear system linking kernel coefficients to amplitude integrals."""

    matrix: np.ndarray
    rhs: np.ndarray
    kind: str  # "lowpass" | "bandpass"
    knot_times: np.ndarray
    omega: Optional[float] = None
    band: Optional[BandSpec] = None
    shifts: Optional[np.ndarray] = None
    reflected: Optional[np.ndarray] = None
    gap_premise_ok: bool = True

    @property
    def shape(self):
        return self.matrix.shape


@dataclass(frozen=True)
class SolveResult:
    coefficients: np.ndarray
    residual_norm: float
    effective_rank: int
    sigma_max: float
    sigma_min: float
    sv_cutoff: float


def _lowpass_kernel(t, omega):
    # sin(omega*t)/(pi*t); np.sinc fills the t = 0 limit omega/pi
    return (omega / math.pi) * np.sinc(omega * np.asarray(t) / math.pi)


def _assemble(row_intervals, row_fn, workers: int):
    if workers <= 1:
        rows = [row_fn(a, b) for a, b in row_intervals]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda ab: row_fn(*ab), row_intervals))
    matrix = np.vstack(rows)
    matrix[np.abs(matrix) < ENTRY_ZERO_FLOOR] = 0.0
    return matrix


def build_gram_lowpass(
    train: SpikeTrain,
    omega: float,
    quad_tol: float = DEFAULT_QUAD_TOL,
    workers: int = 1,
) -> GramSystem:
    """Gram matrix ``G[k,l] = integral over spike interval k of g_lp(u - s_l)``.

    Knots ``s_l`` are the spike-interval midpoints; the right-hand side is
    the amplitude-integral sequence of the train.  Entries are computed
    with the adaptive quadrature oracle at ``quad_tol``.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    if len(train) < 2:
        raise ValueError("need at least 2 spikes to assemble a system")
    t = train.times
    knots = 0.5 * (t[:-1] + t[1:])

    def row(a, b):
        return integrate_columns(
            lambda u: _lowpass_kernel(u[:, None] - knots[None, :], omega), a, b, quad_tol
        )

    matrix = _assemble(list(zip(t[:-1], t[1:])), row, workers)
    rhs = amplitude_integrals(train).values
    return GramSystem(matrix, rhs, "lowpass", knots, omega=omega)


def build_gram_bandpass(
    merged: MergedTrain,
    band: BandSpec,
    quad_tol: float = DEFAULT_QUAD_TOL,
    anchor: str = "even",
    workers: int = 1,
) -> GramSystem:
    """Gram matrix over stride-2 intervals of a merged two-channel record.

    Row ``l`` integrates every knot kernel over ``[t[l], t[l+2]]``; column
    ``k`` holds the kernel of knot ``k`` (time-reversed where the knot is a
    pair partner).  If the largest stride-1 spike gap reaches the kernel
    period ``2*pi/B``, reconstruction is no longer guaranteed: a warning
    diagnostic is attached and assembly proceeds.

    Raises :class:`~temcodec.pns.DegenerateShiftError`, naming the knot,
    if some pair shift makes the kernel singular.
    """
    t = merged.times
    if t.size < 3:
        raise ValueError(f"need at least 3 merged spikes, got {t.size}")
    knots = knots_and_shifts(t, anchor=anchor)
    for k, d_k in enumerate(knots.shifts):
        if shift_is_degenerate(d_k, band.period, band.k0):
            raise DegenerateShiftError(
                f"knot {k}: pair shift {d_k} is degenerate for k0={band.k0}"
            )
    premise_ok = merged.max_gap < band.period
    if not premise_ok:
        warnings.warn(
            f"max merged spike gap {merged.max_gap:.6g} s reaches the kernel period "
            f"{band.period:.6g} s; reconstruction quality is not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )
    sign = np.where(knots.reflected, -1.0, 1.0)
    s_times = knots.times
    shifts = knots.shifts

    def row(a, b):
        return integrate_columns(
            lambda u: kernel_gbp(
                (u[:, None] - s_times[None, :]) * sign[None, :], shifts[None, :], band
            ),
            a, b, quad_tol,
        )

    matrix = _assemble(list(zip(t[:-2], t[2:])), row, workers)
    rhs = merged.integrals.values
    return GramSystem(
        matrix, rhs, "bandpass", s_times,
        band=band, shifts=shifts, reflected=knots.reflected,
        gap_premise_ok=premise_ok,
    )


def solve_coefficients(system: GramSystem, sv_cutoff: float = DEFAULT_SV_CUTOFF) -> SolveResult:
    """Minimum-norm least squares via SVD with a relative singular-value cutoff.

    Singular values below ``sv_cutoff * sigma_max`` are zeroed.  Returns the
    coefficients together with the residual norm ``||G c - q||``, effective
    rank, and the singular-value extremes.  Deterministic: solving the same
    system twice is bit-identical.
    """
    matrix, rhs = system.matrix, system.rhs
    u, sv, vt = np.linalg.svd(matrix, full_matrices=False)
    if sv.size == 0 or sv[0] <= 0.0:
        raise DegenerateSystemError("system has no nonzero singular values")
    keep = sv >= sv_cutoff * sv[0]
    if not np.any(keep):
        raise DegenerateSystemError(
            f"all singular values below cutoff {sv_cutoff} * {sv[0]:.3e}"
        )
    coeff = vt[keep].T @ ((u[:, keep].T @ rhs) / sv[keep])
    residual = float(np.linalg.norm(matrix @ coeff - rhs))
    return SolveResult(
        coefficients=coeff,
        residual_norm=residual,
        effective_rank=int(np.count_nonzero(keep)),
        sigma_max=float(sv[0]),
        sigma_min=float(sv[-1]),
        sv_cutoff=sv_cutoff,
    )


@dataclass(frozen=True)
class ReconModel:
    """Solved kernel expansion, evaluable at any time (callable)."""

    kind: str
    knot_times: np.ndarray
    coefficients: np.ndarray
    omega: Optional[float] = None
    band: Optional[BandSpec] = None
    shifts: Optional[np.ndarray] = None
    reflected: Optional[np.ndarray] = None

    def __call__(self, t):
        return evaluate_model(self, t)


def model_from(system: GramSystem, solution: SolveResult) -> ReconModel:
    return ReconModel(
        kind=system.kind,
        knot_times=system.knot_times,
        coefficients=solution.coefficients,
        omega=system.omega,
        band=system.band,
        shifts=system.shifts,
        reflected=system.reflected,
    )


def _cosine_terms(model: ReconModel):
    """The model as terms ``w_l*cos(a*(t - s_l) - phi_l)/(t - s_l)``, plus its direct kernel.

    Returns ``(freqs, terms, kernel)``.  ``terms`` lists ``(f, w, phi)``:
    per-knot weight and phase arrays of one term at frequency ``freqs[f]``.
    ``kernel(u, idx)`` is the direct kernel of knots ``idx`` at offsets
    ``u = t - s``.  A reflected knot's term is ``-cos(a*(t - s) + phi)/(t - s)``,
    so reflection flips the weight's sign and negates the phase.
    """
    coeff = model.coefficients
    if model.kind == "lowpass":
        omega = model.omega
        # sin(omega*u)/(pi*u) = cos(omega*u - pi/2)/(pi*u)
        terms = [(0, coeff / math.pi, np.full(coeff.size, 0.5 * math.pi))]
        return (omega,), terms, lambda u, idx: _lowpass_kernel(u, omega)
    if model.kind != "bandpass":
        raise ValueError(
            f"unknown ReconModel.kind {model.kind!r}; expected 'lowpass' or 'bandpass'"
        )
    band, shifts = model.band, model.shifts
    b_ = band.bandwidth
    sigma = np.where(model.reflected, -1.0, 1.0)
    terms = []
    # Each spectral segment of kernel_gbp (outer: k = k0 + 1 from freqs[1] to
    # freqs[0]; inner: k = k0 from freqs[2] to freqs[1]) contributes
    # [cos(hi*u - phi) - cos(lo*u - phi)] / (B*u*sin(phi)) with phi = k*B*d/2.
    for k, f_hi in ((band.k0 + 1, 0), (band.k0, 1)):
        phi = 0.5 * k * b_ * shifts
        sin_phi = np.sin(phi)
        bad = np.flatnonzero(np.abs(sin_phi) < math.pi * DEGENERACY_TOL)
        if bad.size:
            raise DegenerateShiftError(
                f"knot {bad[0]}: pair shift {shifts[bad[0]]} is degenerate for k0={band.k0}"
            )
        w = sigma * coeff / (b_ * sin_phi)
        terms += [(f_hi, w, sigma * phi), (f_hi + 1, -w, sigma * phi)]
    freqs = (band.omega_u, band.k0 * b_ - band.omega_l, band.omega_l)
    return freqs, terms, lambda u, idx: kernel_gbp(u * sigma[idx], shifts[idx], band)


def evaluate_model(model: ReconModel, t):
    """Evaluate ``sum_l c_l * kernel_l(t)``; accepts scalars or arrays.

    This is the one evaluator for lowpass, bandpass and PNS models.  Every
    kernel is a sum of terms ``cos(a*(t - s_l) - phi_l)/(t - s_l)``; expanding
    the cosine of the difference folds each knot's coefficient, shift and
    reflection into weights, so a block of points costs one ``1/(t - s)``
    matrix times an ``(n, 2F)`` weight matrix (``F`` distinct frequencies),
    combined with ``cos(a*t)`` and ``sin(a*t)``.  Point-knot pairs closer than
    ``pi/a_max``, where that expansion cancels badly, are left out of the
    matrix and added back with the direct kernel.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    freqs, terms, kernel = _cosine_terms(model)
    knots, coeff = model.knot_times, model.coefficients
    weights = np.zeros((knots.size, 2 * len(freqs)))
    for f, w, phi in terms:
        arg = freqs[f] * knots + phi
        weights[:, 2 * f] += w * np.cos(arg)
        weights[:, 2 * f + 1] += w * np.sin(arg)
    order = np.argsort(knots, kind="stable")
    s, weights = knots[order], weights[order]
    near = math.pi / max(freqs)
    rows = max(1, EVAL_CHUNK_ELEMENTS // max(1, s.size))
    out = np.empty_like(t_arr)
    for lo in range(0, t_arr.size, rows):
        block = t_arr[lo:lo + rows]
        first = np.searchsorted(s, block - near, side="right")
        count = np.searchsorted(s, block + near, side="left") - first
        # near pairs as (row, column): the k-th pair of a row is knot first[row] + k
        pair_row = np.repeat(np.arange(block.size), count)
        pair_col = np.arange(pair_row.size) + np.repeat(first - np.cumsum(count) + count, count)
        recip = np.subtract.outer(block, s)
        recip[pair_row, pair_col] = np.inf  # 1/inf = 0 drops the near pairs
        np.reciprocal(recip, out=recip)
        sums = recip @ weights
        idx = order[pair_col]
        acc = out[lo:lo + rows]
        acc[:] = np.bincount(
            pair_row, coeff[idx] * kernel(block[pair_row] - knots[idx], idx),
            minlength=block.size,
        )
        for f, a in enumerate(freqs):
            acc += np.cos(a * block) * sums[:, 2 * f] + np.sin(a * block) * sums[:, 2 * f + 1]
    return out if np.ndim(t) else float(out[0])


def reconstruct_lowpass(
    train: SpikeTrain,
    omega: float,
    quad_tol: float = DEFAULT_QUAD_TOL,
    sv_cutoff: float = DEFAULT_SV_CUTOFF,
    workers: int = 1,
):
    """Assemble, solve and package a lowpass model; returns (model, system, solution)."""
    system = build_gram_lowpass(train, omega, quad_tol=quad_tol, workers=workers)
    solution = solve_coefficients(system, sv_cutoff=sv_cutoff)
    return model_from(system, solution), system, solution


def reconstruct_bandpass(
    merged: MergedTrain,
    band: BandSpec,
    quad_tol: float = DEFAULT_QUAD_TOL,
    sv_cutoff: float = DEFAULT_SV_CUTOFF,
    anchor: str = "even",
    workers: int = 1,
):
    """Assemble, solve and package a bandpass model; returns (model, system, solution)."""
    system = build_gram_bandpass(
        merged, band, quad_tol=quad_tol, anchor=anchor, workers=workers
    )
    solution = solve_coefficients(system, sv_cutoff=sv_cutoff)
    return model_from(system, solution), system, solution
