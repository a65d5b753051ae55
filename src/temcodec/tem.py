"""Integrate-and-fire time encoding, single- and two-channel.

The encoder adds a bias ``b`` to the input, scales by ``1/kappa`` and
integrates; every time the running integral reaches the threshold
``delta`` a spike time is recorded and the integrator resets to
``-delta``.  With ``|x| <= c < b`` the biased integrand is strictly
positive, so every threshold crossing is a unique root of a strictly
increasing function whose slope ``x + b`` lies in ``[b - c, b + c]``.
Spike times are located by a safeguarded Newton iteration inside the
bracket that slope range gives, never by fixed-step simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .signals import integrate

__all__ = [
    "TemParams",
    "SpikeTrain",
    "AmplitudeIntegralSeq",
    "MergedTrain",
    "InterleavingError",
    "encode",
    "amplitude_integrals",
    "encode_two_channel",
    "interleave",
    "snap_time",
    "write_spike_file",
    "read_spike_file",
]

DEFAULT_SPIKE_TOL = 1e-10
DEFAULT_QUAD_TOL = 1e-12


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
    """Strictly increasing spike times from one encoder channel."""

    times: np.ndarray
    channel: str  # "A" | "B" | "single"
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


@dataclass(frozen=True)
class AmplitudeIntegralSeq:
    """Signal integrals recovered from spike gaps.

    ``values[k] = 2*kappa*delta - bias*(t[k+stride] - t[k])`` equals the
    integral of the raw signal over ``[t[k], t[k+stride]]``.
    ``start_times[k]`` is the left endpoint of that interval.
    """

    start_times: np.ndarray
    values: np.ndarray
    stride: int

    def __len__(self) -> int:
        return int(self.values.size)


class InterleavingError(ValueError):
    """Two spike trains are not strictly interleaved; ``index`` points at the offender."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


def encode(
    sig,
    params: TemParams,
    window,
    initial_integrator: Optional[float] = None,
    spike_tol: float = DEFAULT_SPIKE_TOL,
    quad_tol: float = DEFAULT_QUAD_TOL,
    channel: str = "single",
) -> SpikeTrain:
    """Encode a signal into spike times over ``window = (t0, t1)``.

    The k-th recorded time satisfies
    ``(1/kappa) * integral_{t_k}^{t_{k+1}} (x(u) + bias) du = 2*delta``;
    the first one satisfies the same with right side
    ``delta - initial_integrator``.  The caller guarantees
    ``|sig| <= params.amplitude_bound`` on the window.

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
    spike_tol : float
        Newton step tolerance (seconds): the search for a spike time stops
        once a step, Newton or bisection, moves it by at most this much.
    quad_tol : float
        Absolute tolerance for each segment integral.
    channel : str
        Tag stored on the returned train.

    Raises
    ------
    ValueError
        If ``x + bias <= 0`` at a quadrature node or a Newton point, or a
        crossing lies outside the gap bracket ``[min_gap, max_gap]`` scaled
        to its interval integral; either means ``|sig|`` exceeded
        ``params.amplitude_bound``.
        The message names the spike index and the time.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t1 >= t0:
        raise ValueError(f"window must satisfy t0 <= t1, got ({t0}, {t1})")
    delta, kappa, bias = params.delta, params.kappa, params.bias
    bound = params.amplitude_bound
    z0 = -delta if initial_integrator is None else float(initial_integrator)
    if not (-delta <= z0 < delta):
        raise ValueError(f"initial integrator {z0} outside [-delta, delta)")

    times = []

    def biased(u):
        # Every quadrature node and Newton point passes through here, so the
        # whole premise x + bias > 0 is checked wherever x is sampled.
        values = np.asarray(sig(u), dtype=float) + bias
        if not values.min() > 0.0:  # a NaN fails too
            bad = int(np.argmax(~(values > 0.0)))  # the first offending point
            raise ValueError(
                f"spike {len(times)}: x + bias = {float(values[bad])!r} <= 0 at "
                f"t={float(u[bad])!r}; the signal exceeds its amplitude bound {bound!r}"
            )
        return values

    base = t0
    target = kappa * (delta - z0)
    while True:
        # With |x| <= bound the integral of x + bias grows at a rate in
        # [bias - bound, bias + bound], which brackets the crossing.
        lo = base + target / (bias + bound)
        hi = base + target / (bias - bound)
        if hi > t1:
            if integrate(biased, base, t1, quad_tol) < target:
                break  # the crossing, if any, lies past the window end
            hi = t1
        t = min(base + target / bias, hi)
        while True:
            g = integrate(biased, base, t, quad_tol) - target
            slope = float(biased(np.array([t]))[0])
            # The crossing lies at least |g|/(bias + bound) from t, on the side
            # the sign of g points to; beyond the bracket end means the
            # integrand left [bias - bound, bias + bound] somewhere.
            reach = t - lo if g > 0.0 else hi - t
            if abs(g) > (bias + bound) * reach + quad_tol:
                raise ValueError(
                    f"spike {len(times)}: crossing outside [{lo!r}, {hi!r}] seen at "
                    f"t={t!r}; the signal exceeds its amplitude bound {bound!r}"
                )
            if g > 0.0:
                hi = t
            elif g < 0.0:
                lo = t
            # A step of a few ulps is rounding noise, whatever spike_tol asks.
            tol = max(spike_tol, 4.0 * math.ulp(t))
            t_next = t - g / slope
            if abs(t_next - t) > tol and not lo <= t_next <= hi:
                t_next = 0.5 * (lo + hi)  # Newton left the bracket: bisect
            done = abs(t_next - t) <= tol
            t = t_next
            if done:
                break
        times.append(t)
        # Exact reset to -delta: the next interval integrates 2*kappa*delta.
        base = t
        target = 2.0 * kappa * delta
    return SpikeTrain(np.asarray(times), channel, params, (t0, t1))


def amplitude_integrals(train: SpikeTrain) -> AmplitudeIntegralSeq:
    """Per-interval signal integrals ``2*kappa*delta - bias*gap`` (stride 1)."""
    p = train.params
    if len(train) < 2:
        return AmplitudeIntegralSeq(np.empty(0), np.empty(0), stride=1)
    values = 2.0 * p.kappa * p.delta - p.bias * np.diff(train.times)
    return AmplitudeIntegralSeq(train.times[:-1].copy(), values, stride=1)


def encode_two_channel(
    sig,
    params: TemParams,
    window,
    alpha: Optional[float] = None,
    spike_tol: float = DEFAULT_SPIKE_TOL,
    quad_tol: float = DEFAULT_QUAD_TOL,
):
    """Encode with two identical machines whose integrators are offset.

    Channel B starts at the reset value ``-delta``; channel A starts at
    ``delta - alpha`` with ``delta < alpha <= 2*delta``, so A reaches its
    threshold first and the two trains interleave strictly
    (``t_k[A] < t_k[B] < t_{k+1}[A]``) for ``alpha < 2*delta``.  At
    ``alpha == 2*delta`` the channels coincide and interleaving degenerates
    to equality; :func:`interleave` then rejects the pair.

    Returns ``(train_a, train_b)``.
    """
    delta = params.delta
    if alpha is None:
        alpha = 1.5 * delta
    alpha = float(alpha)
    if not (delta < alpha <= 2.0 * delta):
        raise ValueError(f"alpha must lie in (delta, 2*delta], got {alpha} with delta={delta}")
    train_a = encode(
        sig, params, window,
        initial_integrator=delta - alpha,
        spike_tol=spike_tol, quad_tol=quad_tol, channel="A",
    )
    train_b = encode(
        sig, params, window,
        initial_integrator=-delta,
        spike_tol=spike_tol, quad_tol=quad_tol, channel="B",
    )
    return train_a, train_b


@dataclass(frozen=True)
class MergedTrain:
    """Interleaved two-channel spike record.

    ``times`` alternates A and B spikes (A first); ``integrals`` holds the
    stride-2 sequence ``2*kappa*delta - bias*(t[l+2] - t[l])``, i.e. the
    per-channel amplitude integrals in merged order.  ``max_gap`` is the
    largest stride-1 gap, the quantity that must stay below the kernel
    period 2*pi/B for bandpass reconstruction.
    """

    times: np.ndarray
    integrals: AmplitudeIntegralSeq
    max_gap: float
    params: TemParams
    window: tuple


def interleave(train_a: SpikeTrain, train_b: SpikeTrain) -> MergedTrain:
    """Merge two strictly interleaved trains into one ordered record.

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
    p = train_a.params
    if merged.size >= 3:
        values = 2.0 * p.kappa * p.delta - p.bias * (merged[2:] - merged[:-2])
        integrals = AmplitudeIntegralSeq(merged[:-2].copy(), values, stride=2)
    else:
        integrals = AmplitudeIntegralSeq(np.empty(0), np.empty(0), stride=2)
    max_gap = float(np.max(np.diff(merged))) if merged.size > 1 else 0.0
    return MergedTrain(merged, integrals, max_gap, p, train_a.window)


# ---------------------------------------------------------------------------
# Spike-train files
#
# Plain text, one record per line: ``channel_tag,spike_index,time_seconds``
# with the time printed to 12 significant digits.  The single header line
# carries the encoder parameters and window at full precision.


def snap_time(t: float) -> float:
    """Round a time to its 12-significant-digit file representation.

    Idempotent, so trains that pass through :func:`write_spike_file` and
    :func:`read_spike_file` round-trip exactly.
    """
    return float(f"{t:.12g}")


def write_spike_file(path, trains) -> None:
    """Write one or more same-parameter spike trains to ``path``."""
    trains = list(trains)
    if not trains:
        raise ValueError("no trains to write")
    p = trains[0].params
    w = trains[0].window
    for tr in trains[1:]:
        if tr.params != p or tr.window != w:
            raise ValueError("all trains in one file must share parameters and window")
    lines = [
        f"# tem kappa={p.kappa!r} delta={p.delta!r} bias={p.bias!r} "
        f"bound={p.amplitude_bound!r} window={w[0]!r},{w[1]!r}"
    ]
    for tr in trains:
        for idx, t in enumerate(tr.times):
            lines.append(f"{tr.channel},{idx},{t:.12g}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_spike_file(path):
    """Parse a spike-train file back into a list of :class:`SpikeTrain`."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("# tem "):
        raise ValueError(f"{path}: missing spike-file header")
    fields = dict(item.split("=", 1) for item in lines[0][len("# tem "):].split(" "))
    w0, w1 = (float(v) for v in fields["window"].split(","))
    params = TemParams(
        kappa=float(fields["kappa"]),
        delta=float(fields["delta"]),
        bias=float(fields["bias"]),
        amplitude_bound=float(fields["bound"]),
    )
    by_channel: dict = {}
    for ln in lines[1:]:
        tag, idx, t = ln.split(",")
        by_channel.setdefault(tag, []).append((int(idx), float(t)))
    trains = []
    for tag, rows in by_channel.items():
        if [i for i, _ in rows] != list(range(len(rows))):
            raise ValueError(f"{path}: non-contiguous spike indices for channel {tag}")
        trains.append(SpikeTrain(np.array([t for _, t in rows]), tag, params, (w0, w1)))
    return trains
