"""Integrate-and-fire time encoding, single- and two-channel.

The encoder adds a bias ``b`` to the input, scales by ``1/kappa`` and
integrates; every time the running integral reaches the threshold
``delta`` a spike time is recorded and the integrator resets to
``-delta``.  With ``|x| <= c < b`` the biased integrand is strictly
positive, so every threshold crossing is a unique root of a strictly
increasing function whose slope ``x + b`` lies in ``[b - c, b + c]``.

Because the reset is exact, spike ``k`` is where the one global
antiderivative ``F(t) = integral_{t0}^{t} (x + b)`` reaches
``kappa*(delta - z0) + 2*kappa*delta*k`` (the t-transform of Lazar and
Toth, IEEE TCAS-I 2004).  :func:`encode` first builds ``F`` once from
15-point Gauss-Legendre panels, each at most ``min_gap/2`` wide, in blocks
of ``SEED_BLOCK_PANELS`` panels with ``F`` carried across blocks, and
inverts every target a block reaches at once; the pass's working set is one
block's values, not the record's, so a longer record costs the pass time,
not memory.  The seed is within rounding of the crossing, so each spike
takes one path: one adaptive :func:`~temcodec.signals.integrate` call from
the previous spike to the seed gives the interval identity's miss, and one
Newton step, with the slope ``x + b`` from the global pass's interpolant at
its last iterate (within ``4*eps`` of the seed in the panel's coordinate
once that iteration has converged), corrects it.  The step must land inside
the bracket the slope range gives and move the seed by at most
``SPIKE_TOL``; otherwise the encoder fails loudly rather than search.  That
is one quadrature call per spike, plus one to the window end, never
fixed-step simulation.  ``x + b > 0`` is checked at every node of the global
pass and of each per-spike integral, and wherever a slope is sampled; a
violation names the spike by how many spikes precede the offending point.

Every record is a :class:`SpikeTrain`, the two channels' merged one too
(:func:`interleave`); :func:`amplitude_integrals` reads either's gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import legendre

from .signals import _GL_NODES, _GL_WEIGHTS, integrate

__all__ = [
    "TemParams",
    "SpikeTrain",
    "InterleavingError",
    "encode",
    "amplitude_integrals",
    "encode_two_channel",
    "interleave",
    "snap_time",
    "write_spike_file",
    "read_spike_file",
]

# Largest Newton step (seconds) allowed from a seed to its spike, or a few
# ulps if that is more; a longer step means the global pass missed the crossing
SPIKE_TOL = 1e-10
# absolute tolerance of each per-spike adaptive integral
QUAD_TOL = 1e-12


@dataclass(frozen=True)
class TemParams:
    """Integrate-and-fire encoder parameters.

    Attributes
    ----------
    kappa : float
        Integrator scale, > 0.
    delta : float
        Firing threshold, > 0; the integrator runs over [-delta, delta).
    bias : float
        Bias added to the input; must exceed ``amplitude_bound`` so the
        integrator output is strictly increasing.
    amplitude_bound : float
        Bound c on the input signal, ``|x(t)| <= c``.
    """

    kappa: float
    delta: float
    bias: float
    amplitude_bound: float

    def __post_init__(self):
        if not self.kappa > 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not self.amplitude_bound >= 0.0:
            raise ValueError(f"amplitude bound must be >= 0, got {self.amplitude_bound}")
        if not self.bias > self.amplitude_bound:
            raise ValueError(
                f"bias must exceed the signal amplitude bound "
                f"(bias={self.bias}, bound={self.amplitude_bound})"
            )

    @property
    def max_gap(self) -> float:
        """Largest admissible inter-spike gap, 2*kappa*delta/(bias - bound)."""
        return 2.0 * self.kappa * self.delta / (self.bias - self.amplitude_bound)

    @property
    def min_gap(self) -> float:
        """Smallest possible inter-spike gap, 2*kappa*delta/(bias + bound)."""
        return 2.0 * self.kappa * self.delta / (self.bias + self.amplitude_bound)


@dataclass(frozen=True)
class SpikeTrain:
    """Strictly increasing spike times from one encoder channel, or two merged."""

    times: np.ndarray
    channel: str  # "A" | "B" | "single" | "merged"
    params: TemParams
    window: tuple

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "window", (float(self.window[0]), float(self.window[1])))
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("spike times must be strictly increasing")

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(self.times)


class InterleavingError(ValueError):
    """Two spike trains are not strictly interleaved; ``index`` points at the offender."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


def _bound_error(spike, value, t, bound) -> ValueError:
    return ValueError(
        f"spike {spike}: x + bias = {value!r} <= 0 at t={t!r}; "
        f"the signal exceeds its amplitude bound {bound!r}"
    )


def _legendre_maps():
    """Maps from values at the 15 Gauss-Legendre nodes of ``[-1, 1]``.

    ``to_coef`` (15 x 15) gives the Legendre coefficients of the
    interpolant through the values, ``to_int`` (16 x 15) those of its
    antiderivative that vanishes at -1.
    """
    n = _GL_NODES.size
    to_coef = (np.arange(n) + 0.5)[:, None] * (legendre.legvander(_GL_NODES, n - 1).T * _GL_WEIGHTS)
    return to_coef, legendre.legint(to_coef, lbnd=-1.0, axis=0)


# Built once, at import, like the rule itself (``signals._GL_NODES``).
_TO_COEF, _TO_INT = _legendre_maps()

# Newton steps (or bisections) per target before the global pass stops refining.
MAX_SEED_STEPS = 64
# Panels per block of the global pass, and per signal call in a block.  A block's
# values and Newton arrays are freed before the next block's, a call's nodes and
# signal tables before the next call.  On the preset's 2 s window (2,600 panels;
# 2-core Xeon, numpy 2.4) the pass peaks at 0.19 MB in 4.5 ms (best of 100); calls
# of 64 / 256 / 512 panels peak at 0.19 / 0.26 / 0.41 MB in 4.8 / 4.4 / 4.3 ms, and
# blocks of 4096 / 1024 / 256 panels, one call each, took 3.0 / 3.1 / 5.6 ms.
SEED_BLOCK_PANELS = 512
SEED_CALL_PANELS = 128


def _seed_times(sig, params: TemParams, t0: float, t1: float, first: float):
    """Where ``F(t) = integral_{t0}^{t} (x + bias)`` reaches each spike target.

    The targets are ``first + 2*kappa*delta*k``.  ``F`` is built from 15-point
    Gauss-Legendre panels at most ``min_gap/2`` wide (so a panel holds at most
    one crossing), with ``x + bias > 0`` checked at every node.  The panels are
    taken in blocks of ``SEED_BLOCK_PANELS``, with ``F`` carried from block to
    block, and a block's values filled by one signal call per
    ``SEED_CALL_PANELS`` panels, each call's nodes made for it: one block's
    arrays are alive at a time, whatever the window.  Every target a block's
    ``F`` reaches is inverted at once by a vectorised Newton iteration inside
    the target's panel, bisecting whenever a step leaves the panel's shrinking
    bracket.

    Returns ``(seeds, slopes)``, one of each per target ``F`` reaches by
    ``t1``; ``slopes[k]`` is the panel's interpolant of ``x + bias`` at the
    iteration's last iterate, from which its final step moved to seed ``k``:
    by at most ``4*eps`` in the panel coordinate on ``[-1, 1]`` when the
    iteration stops on that tolerance, and by up to one Newton step or
    bisection when it runs out its ``MAX_SEED_STEPS`` steps.

    Raises ValueError at the first node where ``x + bias <= 0``; the spike
    index is the number of targets ``F`` has reached at that node.
    """
    step = 2.0 * params.kappa * params.delta
    n_panels = max(1, math.ceil((t1 - t0) / (0.5 * params.min_gap)))
    width = (t1 - t0) / n_panels

    def reached(f):
        """How many targets lie at or below ``f``."""
        return max(0, math.floor((f - first) / step) + 1)

    seeds, slopes = [], []
    f_start, n_reached = 0.0, 0
    for start in range(0, n_panels, SEED_BLOCK_PANELS):
        stop = min(start + SEED_BLOCK_PANELS, n_panels)
        # the block's edges of np.linspace(t0, t1, n_panels + 1), bit for bit,
        # without the window's whole edge array
        block = np.arange(start, stop + 1) * width + t0
        if stop == n_panels:
            block[-1] = t1
        half = 0.5 * np.diff(block)
        mid = block[:-1] + half
        values = np.empty((half.size, _GL_NODES.size))
        for a in range(0, half.size, SEED_CALL_PANELS):
            b = a + SEED_CALL_PANELS
            values[a:b] = np.reshape(sig((mid[a:b, None] + half[a:b, None] * _GL_NODES).ravel()),
                                     (-1, _GL_NODES.size))
        values += params.bias
        # F at the block's panel edges: the carried value, then the running
        # panel sums, in the same sequential order as one sum over the window.
        f_edges = np.cumsum(np.concatenate(([f_start], half * (values @ _GL_WEIGHTS))))

        if not values.min() > 0.0:  # a NaN fails too
            bad = int(np.argmax(~(values.ravel() > 0.0)))  # the first offending node
            panel, node = divmod(bad, _GL_NODES.size)
            f_node = f_edges[panel] + half[panel] * float(
                legendre.legval(_GL_NODES[node], _TO_INT @ values[panel]))
            if math.isnan(f_node):  # a NaN in the panel: count up to its left edge
                f_node = f_edges[panel]
            raise _bound_error(reached(f_node), float(values.flat[bad]),
                               float(mid[panel] + half[panel] * _GL_NODES[node]),
                               params.amplitude_bound)

        count = reached(f_edges[-1])
        targets = first + step * np.arange(n_reached, count)
        j = np.clip(np.searchsorted(f_edges, targets, side="right") - 1, 0, half.size - 1)
        # Solve A_j(x) = r on [-1, 1], A_j the scaled local antiderivative.
        coef = values[j] @ _TO_COEF.T
        coef_int = values[j] @ _TO_INT.T
        r = (targets - f_edges[j]) / half[j]
        lo, hi = np.full(targets.size, -1.0), np.ones(targets.size)
        x = 2.0 * (targets - f_edges[j]) / (f_edges[j + 1] - f_edges[j]) - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(MAX_SEED_STEPS):
                vander = legendre.legvander(x, coef_int.shape[1] - 1)
                g = np.einsum("ij,ij->i", vander, coef_int) - r
                slope = np.einsum("ij,ij->i", vander[:, :-1], coef)
                hi = np.where(g > 0.0, x, hi)
                lo = np.where(g < 0.0, x, lo)
                x_next = x - g / slope
                x_next = np.where((lo <= x_next) & (x_next <= hi), x_next, 0.5 * (lo + hi))
                moved = np.abs(x_next - x)
                x = x_next
                if not moved.size or moved.max() <= 4.0 * np.finfo(float).eps:
                    break
        seeds.append(mid[j] + half[j] * x)
        slopes.append(slope)
        f_start, n_reached = f_edges[-1], count
        del values, coef, coef_int, vander  # not alive beside the next block's
    return np.concatenate(seeds), np.concatenate(slopes)


def encode(
    sig,
    params: TemParams,
    window,
    initial_integrator: Optional[float] = None,
    channel: str = "single",
) -> SpikeTrain:
    """Encode a signal into spike times over ``window = (t0, t1)``.

    The k-th recorded time satisfies
    ``(1/kappa) * integral_{t_k}^{t_{k+1}} (x(u) + bias) du = 2*delta``;
    the first one satisfies the same with right side
    ``delta - initial_integrator``.  The caller guarantees
    ``|sig| <= params.amplitude_bound`` on the window.

    A global pass first builds ``F(t) = integral_{t0}^{t} (x + bias)`` on
    Gauss-Legendre panels at most ``min_gap/2`` wide, from vectorised calls
    of ``sig`` (see :func:`_seed_times`), and seeds every spike where ``F``
    reaches its target by ``t1``; its memory does not grow with the window.
    Each seed, chained from the previous spike, then takes one path: one
    adaptive ``integrate`` call to the seed (three calls of ``sig``, one
    per panel) gives the identity's miss ``g``, and one Newton step
    corrects it, with the slope the global pass's interpolant of ``x + bias``
    at its last iterate (see :func:`_seed_times`) if that value is finite and
    positive, else a sample of ``sig``.  A corrected time past ``t1`` ends the train.  After
    the seeds, one integral to ``t1`` decides a crossing within rounding of
    the window end: it is a spike, by the same step from ``t1``, if
    ``g >= 0``.
    Each integral is taken to ``QUAD_TOL``.

    Parameters
    ----------
    sig : callable
        Signal to encode; must accept an ndarray of times.
    params : TemParams
    window : (float, float)
        Encoding interval; a spike whose defining integral would extend
        past ``t1`` is dropped.
    initial_integrator : float, optional
        Integrator state at ``t0``, in ``[-delta, delta)``.  Default
        ``-delta`` (as if a spike had just occurred at ``t0``).
    channel : str
        Tag stored on the returned train.

    Raises
    ------
    ValueError
        If ``x + bias <= 0`` at a node of the global pass, at a quadrature
        node of a per-spike integral or at a sampled slope point, or a
        corrected time lies outside the gap bracket ``[min_gap, max_gap]``
        scaled to its interval integral (by more than an integral error of
        ``QUAD_TOL`` moves it); either means ``|sig|`` exceeded
        ``params.amplitude_bound``.  Also if a Newton step moves its seed
        by more than ``max(SPIKE_TOL, 4 ulp)``: the global pass missed that
        crossing.  The message names the spike index, the number of spikes
        before the offending point (for the global pass, the number of
        targets ``F`` has reached there), and the time.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t1 >= t0:
        raise ValueError(f"window must satisfy t0 <= t1, got ({t0}, {t1})")
    delta, kappa, bias = params.delta, params.kappa, params.bias
    bound = params.amplitude_bound
    z0 = -delta if initial_integrator is None else float(initial_integrator)
    if not (-delta <= z0 < delta):
        raise ValueError(f"initial integrator {z0} outside [-delta, delta)")

    n = 0  # spikes recorded so far, the index of the next

    def biased(u):
        # Every quadrature node and sampled slope passes through here, so the
        # whole premise x + bias > 0 is checked wherever x is sampled.
        values = np.asarray(sig(u), dtype=float) + bias
        if not values.min() > 0.0:  # a NaN fails too
            bad = int(np.argmax(~(values > 0.0)))  # the first offending point
            raise _bound_error(n, float(values[bad]), float(u[bad]), bound)
        return values

    def corrected(t, g, slope):
        """One Newton step from ``t``, where the identity misses by ``g``, checked."""
        if not 0.0 < slope < math.inf:  # none from the seed (a NaN fails too)
            slope = float(biased(np.array([t]))[0])
        t_next = t - g / slope
        # With |x| <= bound the integral of x + bias grows at a rate in
        # [bias - bound, bias + bound], which brackets the crossing; an error
        # of QUAD_TOL in g moves the step's end by QUAD_TOL/slope.
        lo = base + target / (bias + bound)
        hi = base + target / (bias - bound)
        slack = QUAD_TOL / slope
        if not lo - slack <= t_next <= hi + slack:
            raise ValueError(
                f"spike {n}: crossing outside [{lo!r}, {hi!r}] seen at "
                f"t={t_next!r}; the signal exceeds its amplitude bound {bound!r}"
            )
        # A step of a few ulps is rounding noise, whatever SPIKE_TOL asks.
        tol = max(SPIKE_TOL, 4.0 * math.ulp(t))
        if not abs(t_next - t) <= tol:
            raise ValueError(
                f"spike {n}: the Newton step from t={t!r} is {t_next - t!r} s, "
                f"more than {tol!r}; the global pass missed this crossing"
            )
        return t_next

    base = t0
    target = kappa * (delta - z0)
    seeds, slopes = _seed_times(sig, params, t0, t1, target)
    # one slot per seed and one for a crossing at t1: 8 bytes a spike, where a
    # list of Python floats takes 32 and a copy at the end
    times = np.empty(seeds.size + 1)
    # walked by index: lists of every seed and slope as Python floats would
    # outweigh the arrays themselves
    for k in range(seeds.size):
        seed = float(seeds[k])
        t = corrected(seed, integrate(biased, base, seed, QUAD_TOL) - target, float(slopes[k]))
        if t > t1:
            break
        times[n] = t
        n += 1
        # Exact reset to -delta: the next interval integrates 2*kappa*delta.
        base = t
        target = 2.0 * kappa * delta
    # A crossing within rounding of t1 may be one the global pass did not
    # reach by t1: the integral to t1 decides whether it lies in the window.
    g = integrate(biased, base, t1, QUAD_TOL) - target
    if g >= 0.0:
        times[n] = corrected(t1, g, math.nan)
        n += 1
    return SpikeTrain(times[:n], channel, params, (t0, t1))


def amplitude_integrals(train: SpikeTrain, stride: int = 1) -> np.ndarray:
    """Signal integrals recovered from the spike gaps at ``stride``.

    Entry ``k`` is ``2*kappa*delta - bias*(t[k+stride] - t[k])``, the integral
    of the raw signal over ``[t[k], t[k+stride]]``; empty for ``stride`` or
    fewer spikes.  At stride 2 a merged record (:func:`interleave`) gives
    both channels' stride-1 sequences in merged order.
    """
    p = train.params
    t = train.times
    return 2.0 * p.kappa * p.delta - p.bias * (t[stride:] - t[:-stride])


def channel_offset(delta: float, alpha: Optional[float] = None) -> float:
    """The two-channel integrator offset ``alpha``, ``1.5*delta`` when ``None``.

    Raises ``ValueError`` unless ``delta < alpha <= 2*delta`` (NaN fails too).
    """
    alpha = 1.5 * delta if alpha is None else float(alpha)
    if not (delta < alpha <= 2.0 * delta):
        raise ValueError(f"alpha {alpha} outside (delta, 2*delta] for delta={delta}")
    return alpha


def encode_two_channel(
    sig,
    params: TemParams,
    window,
    alpha: Optional[float] = None,
):
    """Encode with two identical machines whose integrators are offset.

    Channel B starts at the reset value ``-delta``; channel A starts at
    ``delta - alpha`` with ``delta < alpha <= 2*delta``, so A reaches its
    threshold first and the two trains interleave strictly
    (``t_k[A] < t_k[B] < t_{k+1}[A]``) for ``alpha < 2*delta``.  At
    ``alpha == 2*delta`` the channels coincide and interleaving degenerates
    to equality; :func:`interleave` then rejects the pair.

    Returns ``(train_a, train_b)``; ``alpha`` is checked and defaulted by
    :func:`channel_offset`.
    """
    delta = params.delta
    alpha = channel_offset(delta, alpha)
    train_a = encode(sig, params, window, initial_integrator=delta - alpha, channel="A")
    train_b = encode(sig, params, window, initial_integrator=-delta, channel="B")
    return train_a, train_b


def interleave(train_a: SpikeTrain, train_b: SpikeTrain) -> SpikeTrain:
    """Merge two strictly interleaved trains into one ordered record.

    The record is a :class:`SpikeTrain` of channel ``"merged"`` with the
    channels' shared parameters and window, its times alternating A and B
    (A first); it is decoded through ``amplitude_integrals(merged, 2)``.

    Raises :class:`InterleavingError` (with the offending pair index) if
    the trains do not satisfy ``t_k[A] < t_k[B] < t_{k+1}[A]`` on their
    overlap, and ValueError if the trains disagree on parameters or window.
    """
    if train_a.params != train_b.params:
        raise ValueError("channels must share TEM parameters")
    if train_a.window != train_b.window:
        raise ValueError("channels must share the encoding window")
    a, b = train_a.times, train_b.times
    if not (len(b) <= len(a) <= len(b) + 1):
        raise InterleavingError(
            f"channel lengths {len(a)}/{len(b)} cannot alternate starting with A",
            index=min(len(a), len(b)),
        )
    for k in range(len(b)):
        if not a[k] < b[k]:
            raise InterleavingError(f"t_A[{k}]={a[k]!r} not ahead of t_B[{k}]={b[k]!r}", index=k)
        if k + 1 < len(a) and not b[k] < a[k + 1]:
            raise InterleavingError(
                f"t_B[{k}]={b[k]!r} not ahead of t_A[{k + 1}]={a[k + 1]!r}", index=k
            )
    merged = np.empty(len(a) + len(b))
    merged[0::2] = a
    merged[1::2] = b
    return SpikeTrain(merged, "merged", train_a.params, train_a.window)


# ---------------------------------------------------------------------------
# Spike-train files
#
# Plain text, one record per line: ``channel_tag,spike_index,time_seconds``
# with the time printed to 12 significant digits.  The single header line
# carries the encoder parameters and window at full precision.

# spike lines formatted per write in write_spike_file: bounds the line text
# alive at once
_FILE_CHUNK_LINES = 1024


def snap_time(t: float) -> float:
    """Round a time to its 12-significant-digit file representation.

    Idempotent, so trains that pass through :func:`write_spike_file` and
    :func:`read_spike_file` round-trip exactly.
    """
    return float(f"{t:.12g}")


def write_spike_file(path, trains) -> None:
    """Write one or more same-parameter spike trains to ``path``.

    Lines are formatted and written ``_FILE_CHUNK_LINES`` at a time, each
    chunk of times taken as Python floats with ``tolist()``, so no list of
    every line is built.
    """
    trains = list(trains)
    if not trains:
        raise ValueError("no trains to write")
    p = trains[0].params
    w = trains[0].window
    for tr in trains[1:]:
        if tr.params != p or tr.window != w:
            raise ValueError("all trains in one file must share parameters and window")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(
            f"# tem kappa={p.kappa!r} delta={p.delta!r} bias={p.bias!r} "
            f"bound={p.amplitude_bound!r} window={w[0]!r},{w[1]!r}\n"
        )
        for tr in trains:
            for start in range(0, len(tr), _FILE_CHUNK_LINES):
                chunk = tr.times[start:start + _FILE_CHUNK_LINES].tolist()
                fh.write("".join(f"{tr.channel},{idx},{t:.12g}\n"
                                 for idx, t in enumerate(chunk, start)))


def read_spike_file(path):
    """Parse a spike-train file back into a list of :class:`SpikeTrain`.

    Raises ``ValueError`` naming the path and the line of a malformed file,
    including a header value or spike time that is not a finite number
    (``inf``, ``nan``, or a literal such as ``1e999`` that overflows).
    """

    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"{text!r} is not a finite number")
        return value

    with open(path, "r", encoding="ascii") as fh:
        lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("# tem "):
        raise ValueError(f"{path}: missing spike-file header")
    by_channel: dict = {}
    no, ln = lines[0]
    try:
        fields = dict(item.split("=", 1) for item in ln[len("# tem "):].split(" "))
        w0, w1 = (finite(v) for v in fields["window"].split(","))
        params = TemParams(
            kappa=finite(fields["kappa"]),
            delta=finite(fields["delta"]),
            bias=finite(fields["bias"]),
            amplitude_bound=finite(fields["bound"]),
        )
        for no, ln in lines[1:]:
            tag, idx, t = ln.split(",")
            by_channel.setdefault(tag, []).append((int(idx), finite(t)))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}, line {no}: cannot parse {ln!r}: {exc!r}") from exc
    trains = []
    for tag, rows in by_channel.items():
        if [i for i, _ in rows] != list(range(len(rows))):
            raise ValueError(f"{path}: non-contiguous spike indices for channel {tag}")
        trains.append(SpikeTrain(np.array([t for _, t in rows]), tag, params, (w0, w1)))
    return trains
