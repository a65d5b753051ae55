"""Spans and work counters recorded around temcodec's public functions.

The pipeline in ``temcodec.experiment`` reaches every stage through a
module attribute (``tem.encode``, ``recon.build_gram_lowpass``,
``pns.reconstruct_pns``, ...), and the encoder and Gram assembly reach
their quadrature through the names ``tem.integrate`` and
``recon.integrate_columns``.  :func:`traced` swaps those attributes for
recording wrappers and puts the originals back on exit, so a traced run
executes the unmodified program.  Spans and counts stay in memory on a
:class:`Tracer`; :meth:`Tracer.layer_metrics` reduces them to the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

import numpy as np

from temcodec import experiment, pns, recon, signals, tem

# Unit of every per-layer metric.  ``layer_metrics`` gives all but the last
# three, which need more than one run or the written files.
LAYER_UNITS = {
    "tem.encode.s": "s",
    "tem.encode.spikes": "count",
    "tem.encode.integrate_calls": "count",
    "tem.encode.spikes_per_integrate_call": "1",
    "tem.interleave.s": "s",
    "tem.write_spike_file.s": "s",
    "tem.snap_time.calls": "count",
    "signals.integrate.s": "s",
    "signals.integrate.panels": "count",
    "recon.build_gram.s": "s",
    "recon.build_gram.rows": "count",
    "recon.build_gram.panels": "count",
    "recon.build_gram.kernel_evals": "count",
    "recon.solve.s": "s",
    "recon.solve.n": "count",
    "recon.solve.rank": "count",
    "recon.solve.rank_ratio": "1",
    "recon.evaluate.s": "s",
    "recon.evaluate.points": "count",
    "recon.evaluate.kernel_evals": "count",
    "pns.sample.s": "s",
    "pns.reconstruct.s": "s",
    "pns.reconstruct.points": "count",
    "pns.reconstruct.kernel_terms": "count",
    "experiment.self_s": "s",
    "tem.encode.identity_residual_max": "1",
    "experiment.bytes_written": "B",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans ``(name, start, end, parent)`` and counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.encoded = []  # (signal, unsnapped SpikeTrain) from each tem.encode call
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def seconds(self, name) -> float:
        """Total duration of the spans called ``name``."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_seconds(self, name) -> float:
        """Duration of the spans called ``name`` minus their direct children's."""
        total = 0.0
        for index, (n, start, end, _) in enumerate(self.spans):
            if n != name:
                continue
            children = sum(e - s for _, s, e, p in self.spans if p == index)
            total += (end - start) - children
        return total

    def identity_residual_max(self) -> float:
        """Worst |integral of x over [t_k, t_k+1] - (2*kappa*delta - bias*gap)|.

        Taken over the unsnapped trains ``tem.encode`` returned, with the
        adaptive quadrature oracle at a tolerance far below the encoder's.
        """
        worst = 0.0
        for sig, train in self.encoded:
            p = train.params
            t = train.times
            expected = 2.0 * p.kappa * p.delta - p.bias * np.diff(t)
            for a, b, q in zip(t[:-1], t[1:], expected):
                worst = max(worst, abs(signals.integrate(sig, a, b, tol=1e-14) - q))
        return worst

    def layer_metrics(self) -> dict:
        """Per-layer times, counts and ratios of this run (see ``LAYER_UNITS``)."""
        c = self.counts
        n = c["recon.solve.n"]
        return {
            "tem.encode.s": self.seconds("tem.encode"),
            "tem.encode.spikes": c["tem.encode.spikes"],
            "tem.encode.integrate_calls": c["tem.encode.integrate_calls"],
            "tem.encode.spikes_per_integrate_call": (
                c["tem.encode.spikes"] / c["tem.encode.integrate_calls"]
                if c["tem.encode.integrate_calls"] else 0.0
            ),
            "tem.interleave.s": self.seconds("tem.interleave"),
            "tem.write_spike_file.s": self.seconds("tem.write_spike_file"),
            "tem.snap_time.calls": c["tem.snap_time.calls"],
            "signals.integrate.s": self.seconds("signals.integrate"),
            "signals.integrate.panels": c["signals.integrate.panels"],
            "recon.build_gram.s": self.seconds("recon.build_gram"),
            "recon.build_gram.rows": c["recon.build_gram.rows"],
            "recon.build_gram.panels": c["recon.build_gram.panels"],
            "recon.build_gram.kernel_evals": c["recon.build_gram.kernel_evals"],
            "recon.solve.s": self.seconds("recon.solve"),
            "recon.solve.n": n,
            "recon.solve.rank": c["recon.solve.rank"],
            "recon.solve.rank_ratio": c["recon.solve.rank"] / n if n else 0.0,
            "recon.evaluate.s": self.seconds("recon.evaluate"),
            "recon.evaluate.points": c["recon.evaluate.points"],
            "recon.evaluate.kernel_evals": c["recon.evaluate.kernel_evals"],
            "pns.sample.s": self.seconds("pns.sample"),
            "pns.reconstruct.s": self.seconds("pns.reconstruct"),
            "pns.reconstruct.points": c["pns.reconstruct.points"],
            "pns.reconstruct.kernel_terms": c["pns.reconstruct.kernel_terms"],
            "experiment.self_s": self.self_seconds("experiment.run"),
        }


def _spanned(tracer, name, fn, record=None):
    """``fn`` inside a span; ``record(args, result)`` adds counts."""

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if record is not None:
            record(args, result)
        return result

    return wrapper


def _patches(tracer):
    """``(module, attribute, replacement)`` for every traced public function."""
    c = tracer.counts
    real_encode, real_integrate, real_snap_time = tem.encode, tem.integrate, tem.snap_time
    real_integrate_columns = recon.integrate_columns

    def counting_signal(sig):
        def call(u):
            c["signals.integrate.panels"] += 1
            return sig(u)

        return call

    def encode(sig, *args, **kwargs):
        with tracer.span("tem.encode"):
            train = real_encode(counting_signal(sig), *args, **kwargs)
        c["tem.encode.spikes"] += len(train)
        tracer.encoded.append((sig, train))
        return train

    def integrate(*args, **kwargs):
        c["tem.encode.integrate_calls"] += 1
        with tracer.span("signals.integrate"):
            return real_integrate(*args, **kwargs)

    def integrate_columns(f, *args, **kwargs):
        def panel(u):
            values = f(u)
            c["recon.build_gram.panels"] += 1
            c["recon.build_gram.kernel_evals"] += values.size
            return values

        return real_integrate_columns(panel, *args, **kwargs)

    def snap_time(t):
        c["tem.snap_time.calls"] += 1
        return real_snap_time(t)

    def gram_rows(args, system):
        c["recon.build_gram.rows"] += system.matrix.shape[0]

    def solved(args, solution):
        c["recon.solve.n"] += args[0].matrix.shape[0]
        c["recon.solve.rank"] += solution.effective_rank

    def evaluated(args, values):
        model, points = args[0], np.size(args[1])
        c["recon.evaluate.points"] += points
        c["recon.evaluate.kernel_evals"] += points * model.knot_times.size

    def reconstructed(args, values):
        samples, points = args[0], np.size(args[2])
        c["pns.reconstruct.points"] += points
        c["pns.reconstruct.kernel_terms"] += points * samples.times.size

    return [
        (tem, "encode", encode),
        (tem, "integrate", integrate),
        (tem, "snap_time", snap_time),
        (tem, "interleave", _spanned(tracer, "tem.interleave", tem.interleave)),
        (tem, "write_spike_file",
         _spanned(tracer, "tem.write_spike_file", tem.write_spike_file)),
        (recon, "integrate_columns", integrate_columns),
        (recon, "build_gram_lowpass",
         _spanned(tracer, "recon.build_gram", recon.build_gram_lowpass, gram_rows)),
        (recon, "build_gram_bandpass",
         _spanned(tracer, "recon.build_gram", recon.build_gram_bandpass, gram_rows)),
        (recon, "solve_coefficients",
         _spanned(tracer, "recon.solve", recon.solve_coefficients, solved)),
        (recon, "evaluate_model",
         _spanned(tracer, "recon.evaluate", recon.evaluate_model, evaluated)),
        (pns, "sample_pns", _spanned(tracer, "pns.sample", pns.sample_pns)),
        (pns, "reconstruct_pns",
         _spanned(tracer, "pns.reconstruct", pns.reconstruct_pns, reconstructed)),
    ]


@contextlib.contextmanager
def traced(tracer):
    """Route temcodec's public calls through ``tracer`` for the duration."""
    patches = _patches(tracer)
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, replacement in patches:
            setattr(module, name, replacement)
        yield tracer
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def run_traced(cfg, out_dir):
    """One ``run_experiment`` call under a fresh tracer; returns ``(tracer, report)``."""
    tracer = Tracer()
    with traced(tracer), tracer.span("experiment.run"):
        report = experiment.run_experiment(cfg, out_dir)
    return tracer, report
