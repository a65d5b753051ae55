"""Kernel-expansion reconstruction of signals from spike data.

The decoder posits ``x(t) = sum_l c_l * kernel_l(t)`` with one kernel per
knot (knots are spike-interval midpoints), equates the integral of that
expansion over every spike interval to the amplitude integrals recovered
from the spike gaps, and solves the resulting linear system ``G c = q``
with a truncated-SVD pseudo-inverse.

Both kernels are Fourier integrals over their band: each is a sum of
terms ``w_l * integral_lo^hi cos(nu*(u - s_l) - psi_l) dnu``.  One
Gauss-Legendre rule in the frequency ``nu`` per band segment therefore
writes the Gram matrix exactly as ``G = A @ B.T``: the integral of
``cos(nu*u)`` and ``sin(nu*u)`` over a spike interval is closed-form, so
``A`` holds it per row and node, and ``B`` holds ``cos(nu*s_l + psi_l)``
and ``sin(nu*s_l + psi_l)`` times the knot's weight.  In ``nu`` the
integrand is entire, of exponential type the record span, so an a-priori
error bound fixes each rule's order at ``quad_tol`` per entry; it grows
with the span (234 nodes, 468 columns, for the 779 rows of the 2 s
single-channel preset).  The solve never forms ``G``: a QR of each factor
reduces it to the SVD of a small core (the trigonometric-space view of
TEM decoding of Lazar & Pnevmatikakis, *EURASIP J. Adv. Signal Process.*,
2009, applied here to the paper's own Gram matrix).

Two kernel families are supported:

* lowpass: ``sin(omega*t)/(pi*t)`` shifted to each knot;
* bandpass: the two-channel PNS interpolant of :mod:`temcodec.pns`, with
  per-knot shifts derived from the interleaved two-channel spike record.
  Knots pair up (one per channel); the pair's first knot carries the
  plain kernel and its partner the time-reversed kernel, mirroring the
  even/odd roles of exact PNS.

:func:`evaluate_model` is the single evaluator for both families and for
PNS records (:func:`temcodec.pns.reconstruct_pns` builds a bandpass
model).  Every kernel is a sum of terms ``cos(a*(t - s) - phi)/(t - s)``,
so the model is ``cos(a*t)`` and ``sin(a*t)`` times Cauchy sums
``sum_l W_l/(t - s_l)`` (two weight columns per distinct frequency ``a``).
The sorted points are cut into equal boxes whose width balances near- and
far-field work.  Knots in a box or within one box width of it are summed
directly, with the direct kernel repairing pairs closer than half the
shortest kernel period.  The other knots' sums are smooth on the box: they
are evaluated at ``CHEB_POINTS`` Chebyshev points, a number an a-priori
bound fixes at machine precision, and interpolated to the box's points
(the one-level core of the black-box fast multipole method, Fong & Darve,
*J. Comput. Phys.* 2009).  Few points make one box, every knot direct.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .signals import BandSpec, sinc_pi
# integrate_columns is not called here; the benchmark tracer (perfbench/tracing.py)
# patches and restores the name recon.integrate_columns, so it stays importable.
from .signals import integrate_columns  # noqa: F401
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

DEFAULT_SV_CUTOFF = 1e-8
DEFAULT_QUAD_TOL = 1e-9
# entries of one 1/(t - s) block in evaluate_model (4 MB): a chunk of a box's
# points against its near knots, or its Chebyshev points against far knots
EVAL_CHUNK_ELEMENTS = 1 << 19
# fixed cost of one evaluate_model box in direct 1/(t - s) terms: its numpy call
# overhead measured about 200 us against about 4 ns per term on a 2-core x86-64 host
BOX_OVERHEAD_TERMS = 50_000


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
    """Linear system ``G c = q`` linking kernel coefficients to amplitude integrals.

    ``G`` is held as two factors, ``G = left @ right.T``: one row of ``left``
    per spike interval, one row of ``right`` per knot.  A dense ``G`` is the
    pair ``(G, np.eye(cols))``.
    """

    left: np.ndarray
    right: np.ndarray
    rhs: np.ndarray
    kind: str  # "lowpass" | "bandpass"
    knot_times: np.ndarray
    omega: Optional[float] = None
    band: Optional[BandSpec] = None
    shifts: Optional[np.ndarray] = None
    reflected: Optional[np.ndarray] = None
    gap_premise_ok: bool = True

    @property
    def matrix(self) -> np.ndarray:
        """The Gram matrix ``left @ right.T``, formed on each access."""
        return self.left @ self.right.T

    @property
    def shape(self):
        return self.left.shape[0], self.right.shape[0]


@dataclass(frozen=True)
class SolveResult:
    coefficients: np.ndarray
    residual_norm: float
    effective_rank: int
    sigma_max: float
    sigma_min: float
    sv_cutoff: float


def _lowpass_kernel(t, omega):
    # sin(omega*t)/(pi*t); sinc_pi fills the t = 0 limit omega/pi
    return (omega / math.pi) * sinc_pi(omega * np.asarray(t) / math.pi)


def _gl_order(h: float, k_max: float, a_max: float, tol: float) -> int:
    """Smallest Gauss-Legendre order whose error bound on a length-``h`` interval is <= ``tol``.

    The integrand is entire with ``|f(z)| <= k_max*exp(a_max*|Im z|)``, so on
    the Bernstein ellipse of parameter ``rho`` about the interval it is at most
    ``M = k_max*exp(a_max*h*(rho - 1/rho)/4)``, and an ``m``-point rule errs by
    at most ``(h/2)*(64/15)*M*rho**(-2*(m - 1))/(rho**2 - 1)`` (Trefethen,
    *Approximation Theory and Approximation Practice*, Thm 19.3).  Each
    ``rho`` of a log grid gives the least ``m`` meeting ``tol``; the order
    is the smallest of those, and at least 2.
    """
    rho = 1.0 + np.logspace(-6.0, 6.0, 481)
    log_scale = math.log(0.5 * h * (64.0 / 15.0) * k_max)
    log_rest = 0.25 * a_max * h * (rho - 1.0 / rho) - np.log(rho * rho - 1.0)
    needed = 1.0 + (log_scale + log_rest - math.log(tol)) / (2.0 * np.log(rho))
    return math.ceil(max(2.0, float(np.min(needed))))


def _spectral_factors(starts, ends, knots, segments, quad_tol: float):
    """Factors ``(A, B)`` with ``(A @ B.T)[r, l] = integral_{starts[r]}^{ends[r]} kernel_l(u) du``.

    Knot ``l``'s kernel is ``sum w_l*integral_lo^hi cos(nu*(u - knots[l]) - psi_l) dnu``
    over ``segments``, a list of ``(lo, hi, w, psi)`` with ``0 <= lo`` and
    per-knot arrays ``w`` and ``psi``.  Each segment's ``nu`` integral is one
    Gauss-Legendre rule with nodes ``nu_j`` and weights ``g_j``, and splitting
    the cosine gives per node the column pair

    * ``A[r] = g_j*2h_r*sinc(nu_j*h_r)*[cos, sin](nu_j*m_r)``, the exact
      integrals of ``cos(nu*u)`` and ``sin(nu*u)`` over the row interval
      (midpoint ``m_r``, half-width ``h_r``), free of cancellation;
    * ``B[l] = w_l*[cos, sin](nu_j*s_l + psi_l)``.

    Times are measured from the record midpoint.  In ``nu`` an entry is entire
    and bounded by ``|w|*2h*exp(span*|Im nu|)`` (``span`` the record span), so
    :func:`_gl_order` fixes each segment's order at an equal share of
    ``quad_tol``.  Empty segments are skipped.
    """
    if not quad_tol > 0.0:
        raise ValueError(f"quad_tol must be positive, got {quad_tol}")
    centre = 0.5 * (starts[0] + ends[-1])
    span = float(ends[-1] - starts[0])
    half = 0.5 * (ends - starts)
    mid = 0.5 * (ends + starts) - centre
    s = knots - centre
    segments = [seg for seg in segments if seg[1] > seg[0]]
    orders = [
        _gl_order(hi - lo, 2.0 * float(np.max(half)) * float(np.max(np.abs(w))), span,
                  quad_tol / len(segments))
        for lo, hi, w, _ in segments
    ]
    left = np.empty((half.size, 2 * sum(orders)))
    right = np.empty((s.size, 2 * sum(orders)))
    col = 0
    for (lo, hi, w, psi), order in zip(segments, orders):
        nodes, weights = np.polynomial.legendre.leggauss(order)
        nu = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
        cos_cols, sin_cols = slice(col, col + order), slice(col + order, col + 2 * order)
        col += 2 * order
        # g*2h*sinc(nu*h) = g*2*sin(nu*h)/nu, and nu > 0 at every node
        amp = np.sin(np.outer(half, nu))
        amp *= (0.5 * (hi - lo) * weights) * 2.0 / nu
        phase = np.outer(s, nu)
        phase += psi[:, None]
        for out, arg, scale in ((left, np.outer(mid, nu), amp), (right, phase, w[:, None])):
            np.cos(arg, out=out[:, cos_cols])
            out[:, cos_cols] *= scale
            np.sin(arg, out=arg)
            np.multiply(arg, scale, out=out[:, sin_cols])
    return left, right


def build_gram_lowpass(
    train: SpikeTrain,
    omega: float,
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> GramSystem:
    """Gram system ``G[k,l] = integral over spike interval k of g_lp(u - s_l)``.

    Knots ``s_l`` are the spike-interval midpoints; the right-hand side is
    the amplitude-integral sequence of the train.  ``G`` is built as its
    spectral factors from ``sin(omega*u)/(pi*u) = (1/pi)*integral_0^omega
    cos(nu*u) dnu`` (see :func:`_spectral_factors`), every entry within
    ``quad_tol``.
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    if len(train) < 2:
        raise ValueError("need at least 2 spikes to assemble a system")
    t = train.times
    knots = 0.5 * (t[:-1] + t[1:])
    left, right = _spectral_factors(
        t[:-1], t[1:], knots,
        [(0.0, omega, np.full(knots.size, 1.0 / math.pi), np.zeros(knots.size))],
        quad_tol,
    )
    rhs = amplitude_integrals(train).values
    return GramSystem(left, right, rhs, "lowpass", knots, omega=omega)


def build_gram_bandpass(
    merged: MergedTrain,
    band: BandSpec,
    quad_tol: float = DEFAULT_QUAD_TOL,
    anchor: str = "even",
) -> GramSystem:
    """Gram system over stride-2 intervals of a merged two-channel record.

    Row ``l`` integrates every knot kernel over ``[t[l], t[l+2]]``; column
    ``k`` holds the kernel of knot ``k`` (time-reversed where the knot is a
    pair partner).  Each of the kernel's two spectral segments, with
    ``phi = k*B*d/2``, contributes ``-(1/(B*sin(phi)))*integral_lo^hi
    sin(nu*u - phi) dnu``: ``[k0*B - omega_l, omega_u]`` with ``k = k0 + 1``
    and ``[omega_l, k0*B - omega_l]`` with ``k = k0``.  ``G`` is built as its
    spectral factors (see :func:`_spectral_factors`), every entry within
    ``quad_tol``.  If the largest stride-1 spike gap reaches the kernel
    period ``2*pi/B``, reconstruction is no longer guaranteed: a warning
    diagnostic is attached and assembly proceeds.

    Raises :class:`~temcodec.pns.DegenerateShiftError`, naming the knot,
    if some pair shift makes the kernel singular.
    """
    t = merged.times
    if t.size < 3:
        raise ValueError(f"need at least 3 merged spikes, got {t.size}")
    knots = knots_and_shifts(t, anchor=anchor)
    bad = np.flatnonzero(shift_is_degenerate(knots.shifts, band.period, band.k0))
    if bad.size:
        raise DegenerateShiftError(
            f"knot {bad[0]}: pair shift {knots.shifts[bad[0]]} is degenerate for k0={band.k0}"
        )
    premise_ok = merged.max_gap < band.period
    if not premise_ok:
        warnings.warn(
            f"max merged spike gap {merged.max_gap:.6g} s reaches the kernel period "
            f"{band.period:.6g} s; reconstruction quality is not guaranteed",
            RuntimeWarning,
            stacklevel=2,
        )
    b_ = band.bandwidth
    a_mid = band.k0 * b_ - band.omega_l
    sigma = np.where(knots.reflected, -1.0, 1.0)
    segments = []
    for k, lo, hi in ((band.k0 + 1, a_mid, band.omega_u), (band.k0, band.omega_l, a_mid)):
        # sin(nu*sigma*u - phi) = sigma*cos(nu*u - psi) with psi = sigma*phi + pi/2
        phi = 0.5 * k * b_ * knots.shifts
        segments.append((lo, hi, -sigma / (b_ * np.sin(phi)), sigma * phi + 0.5 * math.pi))
    left, right = _spectral_factors(t[:-2], t[2:], knots.times, segments, quad_tol)
    rhs = merged.integrals.values
    return GramSystem(
        left, right, rhs, "bandpass", knots.times,
        band=band, shifts=knots.shifts, reflected=knots.reflected,
        gap_premise_ok=premise_ok,
    )


def solve_coefficients(system: GramSystem, sv_cutoff: float = DEFAULT_SV_CUTOFF) -> SolveResult:
    """Minimum-norm least squares via SVD with a relative singular-value cutoff.

    With ``G = left @ right.T`` and QR factorisations ``left = Qa Ra`` and
    ``right = Qb Rb``, ``G = Qa (Ra Rb^T) Qb^T``, so the SVD of the small core
    ``Ra Rb^T`` is that of ``G``.  Neither ``G`` nor ``Qa`` is formed: only
    ``Qa^T q`` is needed, and the QR of ``[left, q]`` gives it.  Singular
    values below ``sv_cutoff * sigma_max`` are zeroed.  Returns the
    coefficients together with the residual norm ``||G c - q||``, effective
    rank, and the singular-value extremes; ``sigma_min`` is 0.0 when the
    factors are narrower than the system, since ``G`` then has exactly
    zero singular values.  Deterministic: solving the same system twice is
    bit-identical.
    """
    left, right, rhs = system.left, system.right, system.rhs
    inner = min(left.shape)
    # Householder QR goes column by column: the R of [left, rhs] is R_left
    # with Q_left^T rhs as its last column
    r_aug = np.linalg.qr(np.column_stack([left, rhs]), mode="r")
    q_right, r_right = np.linalg.qr(right)
    core, projected = r_aug[:inner, :-1] @ r_right.T, r_aug[:inner, -1].copy()
    del r_aug, r_right  # not held through the SVD, whose outputs set the peak memory
    u, sv, vt = np.linalg.svd(core, full_matrices=False)
    if sv.size == 0 or sv[0] <= 0.0:
        raise DegenerateSystemError("system has no nonzero singular values")
    keep = sv >= sv_cutoff * sv[0]
    if not np.any(keep):
        raise DegenerateSystemError(
            f"all singular values below cutoff {sv_cutoff} * {sv[0]:.3e}"
        )
    coeff = q_right @ (vt[keep].T @ ((u[:, keep].T @ projected) / sv[keep]))
    residual = float(np.linalg.norm(left @ (right.T @ coeff) - rhs))
    return SolveResult(
        coefficients=coeff,
        residual_norm=residual,
        effective_rank=int(np.count_nonzero(keep)),
        sigma_max=float(sv[0]),
        sigma_min=float(sv[-1]) if sv.size == min(system.shape) else 0.0,
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
    the smallest value the term takes on the box.
    """
    rho = 1.0 + (2.0 + math.sqrt(8.0)) * np.linspace(1e-3, 1.0 - 1e-3, 999)
    log_rest = np.log(4.0 / ((3.0 - 0.5 * (rho + 1.0 / rho)) * (rho - 1.0)))
    log_rho, log_tol = np.log(rho), math.log(0.25 * tol)
    p = 2
    while np.min(log_rest - (p - 1) * log_rho) > log_tol:
        p += 1
    return p


CHEB_POINTS = _chebyshev_points(np.finfo(float).eps)  # 24
# Chebyshev points of the second kind on [0, 1], and their barycentric weights
_CHEB_UNIT = np.sin(0.5 * math.pi * np.arange(CHEB_POINTS) / (CHEB_POINTS - 1)) ** 2
_CHEB_WEIGHTS = (-1.0) ** np.arange(CHEB_POINTS)
_CHEB_WEIGHTS[[0, -1]] *= 0.5


def _box_nodes(lo: float, hi: float) -> np.ndarray:
    """The Chebyshev points of the box ``[lo, hi]``."""
    return lo + (hi - lo) * _CHEB_UNIT


def _box_edges(x: np.ndarray, s: np.ndarray, near: float) -> Optional[np.ndarray]:
    """Edges of the equal boxes that split sorted points ``x``; ``None`` for one dense box.

    Work is counted in direct ``1/(t - s)`` terms.  A box of width ``w``
    sums about ``3*w*n/L`` knots per point directly (the box and one width
    either side; ``n`` knots, ``L`` the span of points and knots together)
    and interpolates at a cost of about ``2*p`` per point; it evaluates
    ``p*n`` terms at its ``p = CHEB_POINTS`` nodes and has a fixed cost of
    ``BOX_OVERHEAD_TERMS``.  For ``m`` points over ``span`` the total is least
    at ``w = sqrt(span*L*(p*n + overhead)/(3*m*n))``, taken at least ``near``
    so that every pair closer than ``near`` is in the near field.  One box,
    every knot near, when fewer than two boxes fit or they would not beat the
    ``m*n`` terms of the dense sum.
    """
    m, n = x.size, s.size
    if m < 2 or n == 0:
        return None
    span = x[-1] - x[0]
    whole = max(x[-1], s[-1]) - min(x[0], s[0])
    per_box = CHEB_POINTS * n + BOX_OVERHEAD_TERMS
    width = max(near, math.sqrt(span * whole * per_box / (3.0 * m * n)))
    boxes = int(span // width)
    if boxes < 2 or m * (3.0 * width * n / whole + 2.0 * CHEB_POINTS) + boxes * per_box >= m * n:
        return None
    edges = x[0] + (span / boxes) * np.arange(boxes + 1)
    edges[-1] = x[-1]
    return edges


def _cauchy_sums(x: np.ndarray, s: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_l weights[l]/(x - s_l)`` at a few points ``x`` that are on no knot."""
    out = np.zeros((x.size, weights.shape[1]))
    cols = max(1, EVAL_CHUNK_ELEMENTS // x.size)
    for lo in range(0, s.size, cols):
        out += (1.0 / np.subtract.outer(x, s[lo:lo + cols])) @ weights[lo:lo + cols]
    return out


def _barycentric(x: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Matrix taking values at a box's Chebyshev ``nodes`` to their interpolant at ``x``."""
    d = np.subtract.outer(x, nodes)
    hit = d == 0.0
    d[hit] = 1.0
    q = _CHEB_WEIGHTS / d
    on_node = hit.any(axis=1)
    q[on_node] = hit[on_node]  # a point on a node takes that node's value
    q /= q.sum(axis=1, keepdims=True)
    return q


def evaluate_model(model: ReconModel, t):
    """Evaluate ``sum_l c_l * kernel_l(t)``; accepts scalars or arrays.

    This is the one evaluator for lowpass, bandpass and PNS models.  Every
    kernel is a sum of terms ``cos(a*(t - s_l) - phi_l)/(t - s_l)``; expanding
    the cosine of the difference folds each knot's coefficient, shift and
    reflection into weights, so the model is ``sum_f cos(a_f*t)*C_f(t) +
    sin(a_f*t)*S_f(t)`` over its ``F`` distinct frequencies, with ``2F``
    Cauchy sums ``C_f, S_f = sum_l W_l/(t - s_l)``.

    The sorted points are cut into equal boxes (see :func:`_box_edges`).  For
    the points of a box, the knots inside it and within one box width of it
    (the near field) are summed directly: one ``1/(t - s)`` block times the
    ``(n, 2F)`` weight matrix per chunk of points.  Point-knot pairs closer
    than ``pi/a_max``, where that expansion cancels badly, are left out of
    the block and added back with the direct kernel.  The remaining knots'
    Cauchy sums are smooth on the box; they are evaluated exactly at its
    ``CHEB_POINTS`` Chebyshev points and carried to its points by barycentric
    interpolation, to machine precision per term (:func:`_chebyshev_points`).
    With few points the whole input is one box and every knot is near.
    Non-finite points evaluate to NaN.
    """
    t_in = np.asarray(t, dtype=float)
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

    points = t_in.ravel()
    finite = np.isfinite(points)
    x = points if finite.all() else points[finite]
    perm = None
    if np.any(x[1:] < x[:-1]):
        perm = np.argsort(x, kind="stable")
        x = x[perm]
    values = np.empty_like(x)

    def box(lo, hi, i0, i1, nodes=None):
        """``values[lo:hi]``: knots ``i0:i1`` summed directly, the rest through ``nodes``."""
        s_near, w_near = s[i0:i1], weights[i0:i1]
        if nodes is not None:
            far = _cauchy_sums(nodes, s[:i0], weights[:i0])
            far += _cauchy_sums(nodes, s[i1:], weights[i1:])
        rows = max(1, EVAL_CHUNK_ELEMENTS // max(s_near.size, CHEB_POINTS))
        for r in range(lo, hi, rows):
            block = x[r:min(r + rows, hi)]
            first = np.searchsorted(s_near, block - near, side="right")
            count = np.searchsorted(s_near, block + near, side="left") - first
            # near pairs as (row, column): the k-th pair of a row is knot first[row] + k
            pair_row = np.repeat(np.arange(block.size), count)
            pair_col = np.arange(pair_row.size)
            pair_col += np.repeat(first - np.cumsum(count) + count, count)
            recip = np.subtract.outer(block, s_near)
            recip[pair_row, pair_col] = np.inf  # 1/inf = 0 drops the near pairs
            np.reciprocal(recip, out=recip)
            sums = recip @ w_near
            if nodes is not None:
                sums += _barycentric(block, nodes) @ far
            idx = order[i0 + pair_col]
            acc = values[r:r + block.size]
            acc[:] = np.bincount(
                pair_row, coeff[idx] * kernel(block[pair_row] - knots[idx], idx),
                minlength=block.size,
            )
            for f, a in enumerate(freqs):
                acc += np.cos(a * block) * sums[:, 2 * f] + np.sin(a * block) * sums[:, 2 * f + 1]

    edges = _box_edges(x, s, near)
    if edges is None:
        box(0, x.size, 0, s.size)
    else:
        # far knots lie at least a box width (the interpolation bound) and
        # at least ``near`` (the direct-kernel repair) beyond their box
        reach = max(edges[1] - edges[0], near)
        bounds = np.concatenate(([0], np.searchsorted(x, edges[1:-1]), [x.size]))
        for b in np.flatnonzero(np.diff(bounds)):
            lo, hi = edges[b], edges[b + 1]
            box(
                bounds[b], bounds[b + 1],
                np.searchsorted(s, lo - reach, side="left"),
                np.searchsorted(s, hi + reach, side="right"),
                _box_nodes(lo, hi),
            )
    if perm is not None:
        values[perm] = values.copy()
    if not finite.all():
        out = np.full(points.shape, np.nan)
        out[finite] = values
        values = out
    return values.reshape(t_in.shape) if t_in.ndim else float(values[0])


def reconstruct_lowpass(
    train: SpikeTrain,
    omega: float,
    quad_tol: float = DEFAULT_QUAD_TOL,
    sv_cutoff: float = DEFAULT_SV_CUTOFF,
):
    """Assemble, solve and package a lowpass model; returns (model, system, solution)."""
    system = build_gram_lowpass(train, omega, quad_tol=quad_tol)
    solution = solve_coefficients(system, sv_cutoff=sv_cutoff)
    return model_from(system, solution), system, solution


def reconstruct_bandpass(
    merged: MergedTrain,
    band: BandSpec,
    quad_tol: float = DEFAULT_QUAD_TOL,
    sv_cutoff: float = DEFAULT_SV_CUTOFF,
    anchor: str = "even",
):
    """Assemble, solve and package a bandpass model; returns (model, system, solution)."""
    system = build_gram_bandpass(merged, band, quad_tol=quad_tol, anchor=anchor)
    solution = solve_coefficients(system, sv_cutoff=sv_cutoff)
    return model_from(system, solution), system, solution
