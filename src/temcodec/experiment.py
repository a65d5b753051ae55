"""Config-driven experiment pipeline: signal -> encoder -> reconstruction -> report.

A config file (INI syntax, numbers may be plain floats or exact fractions
like ``1/260``) fully determines a run; re-running the same config always
produces byte-identical output files.  Spike times, the evaluation grid
and both signal traces are snapped to their 12-significant-digit file
representation before any downstream use, so every emitted file parses
back to exactly the arrays the pipeline used, and the metrics recomputed
from ``recon.csv`` equal the report's.  :func:`_snap` and :func:`_write_csv`
take their arrays as Python numbers ``CSV_CHUNK_ROWS`` values at a time, so
neither a whole column of them nor the whole table's text is held at once.

Emitted per run: a spike-train file (or PNS sample file), the
reconstruction trace ``recon.csv`` (``t,x_true,x_hat,abs_err``), a
periodogram ``psd.csv`` of the analytic signal, and ``report.json`` with
spike statistics, system diagnostics (per decoding block, and summed over
the blocks), error metrics and a hashed file manifest.  Wall-clock runtime
is reported on stdout only, never in the files, to keep outputs
reproducible.
"""

from __future__ import annotations

import configparser
import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import pns, recon, tem
from .signals import (
    BandSpec,
    Constant,
    ModulatedTone,
    SignalSum,
    Tone,
    TWO_PI,
)

__all__ = [
    "ConfigError",
    "PipelineError",
    "ExperimentConfig",
    "ExperimentReport",
    "load_config",
    "run_size",
    "run_experiment",
    "compare_runs",
]

MODES = ("single_tem", "two_tem", "pns")
# values snapped per slice in _snap and rows formatted per write in _write_csv, bounding the
# Python numbers and text alive at once: 0.16 MB at 4 columns, 0.31 at 1024 (256 slows runs 2-4%)
CSV_CHUNK_ROWS = 512


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; ``stage`` names it."""

    def __init__(self, stage, cause):
        super().__init__(f"pipeline failure at stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


# every number read from a config or a report is 0 or of magnitude in this range
NUMBER_MIN, NUMBER_MAX = 1e-100, 1e100
NUMBER_RANGE = f"0 or of magnitude in [{NUMBER_MIN:g}, {NUMBER_MAX:g}]"


def _in_range(value) -> bool:
    """Whether a number read from a config or a report lies in :data:`NUMBER_RANGE`.

    Every quantity derived from in-range numbers is then finite and nonzero:
    window span, grid count, the encoder's gap bounds ``2*kappa*delta/(bias -+
    bound)`` (at ``1e+-150`` the smaller underflows to 0), row span, block
    count, and ``compare``'s rates, mean-gap ratio and deltas.  Exact for an
    int of any size; ``inf`` and ``nan`` lie outside.
    """
    return value == 0 or NUMBER_MIN <= abs(value) <= NUMBER_MAX


def _num(text: str, key: str) -> float:
    """Parse the config number ``text`` of ``key``: a decimal/scientific float or a fraction a/b.

    Raises :class:`ConfigError` naming ``key`` for text that is not a number
    and for a value outside :data:`NUMBER_RANGE` (``inf``, ``nan``, a zero
    denominator and a fraction beyond the float range included): no
    setting takes one, and every check :func:`load_config` makes after it
    works on finite numbers.
    """
    text = text.strip()
    try:
        value = float(Fraction(text)) if "/" in text else float(text)
    except (ZeroDivisionError, OverflowError):
        value = math.nan
    except ValueError:
        raise ConfigError(f"{key} must be a number or a fraction a/b, got {text!r}") from None
    if not _in_range(value):
        raise ConfigError(f"{key} must be {NUMBER_RANGE}, got {text!r}")
    return value


@dataclass
class ExperimentConfig:
    mode: str
    signal: object
    signal_desc: dict
    window: tuple
    grid_step: float
    guard_fraction: float
    tem_params: Optional[tem.TemParams] = None
    alpha: Optional[float] = None
    band: Optional[BandSpec] = None
    lowpass_cutoff: Optional[float] = None
    pns_shift: Optional[float] = None


class _Section:
    """Read access to config section ``name`` that records which keys were read."""

    def __init__(self, name, proxy):
        self.name = name
        self._proxy = proxy
        self._read = set()

    def __contains__(self, key):
        return key in self._proxy

    def get(self, key, default=None):
        self._read.add(key)
        return self._proxy.get(key, default)

    def num(self, key, default=None) -> float:
        """The number at ``key``, or at ``default`` when absent; no ``default``: required."""
        text = self.get(key, default)
        if text is None:
            raise ConfigError(f"missing {self.name}.{key}")
        return _num(text, f"{self.name}.{key}")

    def nums(self, key) -> list:
        """The comma-separated numbers at ``key``; an absent key is an empty list."""
        return [_num(v, f"{self.name}.{key}") for v in self.get(key, "").split(",") if v.strip()]

    def unread(self) -> list:
        return [key for key in self._proxy if key not in self._read]


def _build_signal(section) -> tuple:
    kind = section.get("kind", "").strip()
    if kind == "modulated_tone":
        desc = {
            "kind": kind,
            "carrier_hz": section.num("carrier_hz", "50"),
            "am_hz": section.num("am_hz", "10"),
            "pm_hz": section.num("pm_hz", "2.5"),
            "amplitude": section.num("amplitude", "2"),
        }
        sig = ModulatedTone(
            carrier_omega=TWO_PI * desc["carrier_hz"],
            am_omega=TWO_PI * desc["am_hz"],
            pm_omega=TWO_PI * desc["pm_hz"],
            amplitude=desc["amplitude"],
        )
    elif kind == "tone":
        desc = {
            "kind": kind,
            "freq_hz": section.num("freq_hz", "50"),
            "amplitude": section.num("amplitude", "1"),
            "phase": section.num("phase", "0"),
        }
        sig = Tone(desc["amplitude"], TWO_PI * desc["freq_hz"], desc["phase"])
    elif kind == "tone_sum":
        freqs = section.nums("freqs_hz")
        amps = section.nums("amplitudes")
        phases = section.nums("phases")
        if not (len(freqs) == len(amps) == len(phases)) or not freqs:
            raise ConfigError("tone_sum needs matching freqs_hz, amplitudes, phases lists")
        desc = {"kind": kind, "freqs_hz": freqs, "amplitudes": amps, "phases": phases}
        sig = SignalSum(
            [Tone(a, TWO_PI * f, p) for a, f, p in zip(amps, freqs, phases)]
        )
    elif kind == "constant":
        desc = {"kind": kind, "value": section.num("value", "0")}
        sig = Constant(desc["value"])
    elif kind == "zero":
        desc = {"kind": kind}
        sig = Constant(0.0)
    else:
        raise ConfigError(f"unknown signal kind {kind!r}")
    return sig, desc


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate an experiment config file.

    Every number is in :data:`NUMBER_RANGE` (:func:`_num`), so the window
    span, grid point count and encoder gap bounds are finite and nonzero.
    Every cross-module constraint (encoder parameter bounds, band edges,
    PNS shift degeneracy, alpha range, and a TEM window no shorter than the
    span ``kappa*(delta - z0 + 2*delta)/(bias - bound)`` in which the
    encoder bounds guarantee one Gram row's spikes, ``z0`` the integrator's
    start, ``-delta`` or channel A's ``delta - alpha``) is checked here, so
    a config that loads is a config that runs.  Every mode reads
    ``[experiment]`` and ``[signal]``; ``single_tem`` also reads ``[tem]``
    and ``[recon]``, ``two_tem`` ``[tem]`` and ``[band]``, and ``pns``
    ``[band]`` and ``[pns]``.  A key the mode does not read, such as a misspelt one or any
    key of a section the mode does not use (``[solver]`` in every mode: the
    solve has no settings), is rejected with its ``section.key`` name, and
    so is a missing or malformed number.  A file that cannot be parsed (a
    duplicate key or section, no section header, bytes that do not decode)
    is rejected naming its path.
    """
    # values are read literally: a "%" is text, never an interpolation
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    sections = {name: _Section(name, parser[name]) for name in parser.sections()}
    try:
        exp = sections["experiment"]
        mode = exp.get("mode", "").strip()
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        w0 = exp.num("window_start", "-1")
        w1 = exp.num("window_end", "1")
        if not w0 < w1:
            raise ConfigError(
                f"experiment.window_end {w1} must exceed experiment.window_start {w0}")
        grid_step = exp.num("grid_step", "1/1000")
        if not 0 < grid_step <= (w1 - w0):
            raise ConfigError(f"experiment.grid_step {grid_step} outside (0, window span]")
        guard = exp.num("guard_fraction", "0.15")
        if not 0 <= guard < 0.5:
            raise ConfigError(f"experiment.guard_fraction must lie in [0, 0.5), got {guard}")
        c0, c1 = _central_window((w0, w1), guard)
        # the first grid point at or after c0 must not lie past c1
        if w0 + grid_step * math.ceil((c0 - w0) / grid_step) > c1:
            raise ConfigError(
                f"experiment.grid_step {grid_step} leaves no evaluation point in the central "
                f"window [{c0}, {c1}]"
            )

        if "signal" not in sections:
            raise ConfigError("missing [signal] section")
        sig, desc = _build_signal(sections["signal"])

        band = None
        if mode in ("two_tem", "pns"):
            if "band" not in sections:
                raise ConfigError(f"mode {mode} requires a [band] section")
            lo_hz = sections["band"].num("omega_l_hz", "35")
            hi_hz = sections["band"].num("omega_u_hz", "65")
            try:
                band = BandSpec(TWO_PI * lo_hz, TWO_PI * hi_hz)
            except ValueError:
                raise ConfigError(f"band.omega_l_hz and band.omega_u_hz must satisfy 0 < "
                                  f"omega_l_hz < omega_u_hz, got ({lo_hz}, {hi_hz})") from None

        tem_params = alpha = lowpass_cutoff = pns_shift = None
        if mode in ("single_tem", "two_tem"):
            if "tem" not in sections:
                raise ConfigError(f"mode {mode} requires a [tem] section")
            sec = sections["tem"]
            kappa, delta, bias = sec.num("kappa", "1"), sec.num("delta"), sec.num("bias")
            try:
                # each message starts with the field it rejects, which is the [tem] key
                tem_params = tem.TemParams(kappa, delta, bias, sig.amplitude_bound)
            except ValueError as exc:
                raise ConfigError(f"tem.{exc}") from None
            if mode == "two_tem":
                try:
                    alpha = tem.channel_offset(delta, sec.num("alpha") if "alpha" in sec else None)
                except ValueError as exc:
                    raise ConfigError(f"tem.alpha: {exc}") from None
            # The encoder bounds place the second spike of the channel starting at z0
            # (two_tem: channel A, with B's first spike before it) within this span of
            # the window start: the spikes of one Gram row.
            z0 = -delta if mode == "single_tem" else delta - alpha
            row_span = kappa * (delta - z0 + 2.0 * delta) / (bias - sig.amplitude_bound)
            if w1 - w0 < row_span:
                raise ConfigError(
                    f"experiment.window_end {w1}: the window from {w0} is shorter than "
                    f"{row_span:.6g} s, the span in which the encoder is sure to fire the "
                    f"spikes of one Gram row")
        if mode == "single_tem":
            recon_sec = sections.get("recon", _Section("recon", {}))
            cutoff_hz = recon_sec.num("lowpass_cutoff_hz")
            if not cutoff_hz > 0:
                raise ConfigError(f"recon.lowpass_cutoff_hz must be positive, got {cutoff_hz}")
            lowpass_cutoff = TWO_PI * cutoff_hz
        if mode == "pns":
            pns_shift = sections.get("pns", _Section("pns", {})).num("shift")
            try:
                # constructing the grid performs the full validity check
                pns.PnsGrid(pns_shift, (w0, w1), band)
            except ValueError as exc:
                raise ConfigError(f"pns.shift: {exc}") from None
        # A key nothing read would silently leave its setting at the default.
        unread = [f"{name}.{key}" for name, sec in sections.items() for key in sec.unread()]
        if unread:
            raise ConfigError(
                f"unknown config key(s) {', '.join(unread)}: misspelt, or not used "
                f"in mode {mode}"
            )
    except ConfigError:
        raise
    except (KeyError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    return ExperimentConfig(
        mode=mode,
        signal=sig,
        signal_desc=desc,
        window=(w0, w1),
        grid_step=grid_step,
        guard_fraction=guard,
        tem_params=tem_params,
        alpha=alpha,
        band=band,
        lowpass_cutoff=lowpass_cutoff,
        pns_shift=pns_shift,
    )


@dataclass
class ExperimentReport:
    """In-memory run result: the report document plus non-reproducible extras."""

    data: dict
    runtime_seconds: float
    out_dir: Path


def _snap(values) -> np.ndarray:
    """Float array ``values`` snapped one by one to their 12-significant-digit file form.

    Each value goes through one ``tem.snap_time`` call, in order; the
    function is looked up on the module when the call starts, so a patched
    ``snap_time`` sees every value.  The input is walked ``CSV_CHUNK_ROWS``
    values at a time, each slice taken as Python floats with ``tolist()``
    (formatting a Python float is cheaper than formatting an
    ``np.float64``), so no more than one slice of them is alive at once.
    """
    snap = tem.snap_time
    out = np.empty(values.size)
    for start in range(0, values.size, CSV_CHUNK_ROWS):
        chunk = values[start:start + CSV_CHUNK_ROWS].tolist()
        out[start:start + len(chunk)] = np.fromiter(map(snap, chunk), dtype=float, count=len(chunk))
    return out


def _grid_points(window, step) -> int:
    """Point count of the grid ``w0 + k*step`` up to ``w1``.

    The count is floored, not rounded, so no point passes ``w1``; the
    tolerance keeps a step that divides the window exactly in float noise
    from losing its last point.
    """
    return math.floor((window[1] - window[0]) / step + 1e-9) + 1


def _snap_grid(window, step):
    """The grid ``w0 + k*step`` of :func:`_grid_points` points, snapped to 12 significant digits."""
    return _snap(window[0] + step * np.arange(_grid_points(window, step)))


def _snap_train(train: tem.SpikeTrain) -> tem.SpikeTrain:
    return replace(train, times=_snap(train.times))


def _gap_stats(times: np.ndarray) -> dict:
    gaps = np.diff(times)
    if gaps.size == 0:
        return {"count": int(times.size), "gap_min": None, "gap_max": None, "gap_mean": None}
    return {
        "count": int(times.size),
        "gap_min": float(gaps.min()),
        "gap_max": float(gaps.max()),
        "gap_mean": float(gaps.mean()),
    }


def _central_window(window, guard) -> tuple:
    """The window without its guard margins: where error metrics are taken."""
    w0, w1 = window
    span = w1 - w0
    return w0 + guard * span, w1 - guard * span


def _metrics(t_eval, x_true, x_hat, window, guard) -> dict:
    c0, c1 = _central_window(window, guard)
    central = (t_eval >= c0) & (t_eval <= c1)
    err = x_hat - x_true
    ss = float(np.sum(x_true[central] ** 2))
    se = float(np.sum(err[central] ** 2))
    defined = ss > 0.0 and se > 0.0
    snr = 10.0 * math.log10(ss / se) if defined else None
    return {
        "snr_db": snr,
        "snr_defined": defined,
        "max_abs_err": float(np.max(np.abs(err[central]))),
        "n_eval": int(t_eval.size),
        "n_central": int(np.count_nonzero(central)),
        "central_start": c0,
        "central_end": c1,
    }


def _write_csv(path: Path, header: str, columns) -> None:
    """Write equal-length array ``columns`` under ``header``, each value as ``%.12g``.

    Rows are formatted ``CSV_CHUNK_ROWS`` at a time, by one ``%`` of a
    repeated row template over the chunk's values taken as Python numbers
    with ``tolist()``, column by column; an integer column stays integer.
    The bytes equal one ``f"{v:.12g}"`` per value, and no copy of the
    whole table is made.
    """
    row_format = ",".join(["%.12g"] * len(columns)) + "\n"
    n_rows = len(columns[0])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, n_rows, CSV_CHUNK_ROWS):
            chunk = [col[start:start + CSV_CHUNK_ROWS].tolist() for col in columns]
            values = tuple(itertools.chain.from_iterable(zip(*chunk)))
            fh.write(row_format * len(chunk[0]) % values)


def _psd(x, step) -> tuple:
    """Hann-windowed periodogram of the dense signal trace; plotting aid only."""
    n = x.size
    win = np.hanning(n)
    scale = (1.0 / step) * float(np.sum(win ** 2))
    win *= x  # the windowed trace, in place of the window
    spectrum = np.fft.rfft(win)
    del win
    # the power spectrum in place: each step overwrites its input
    psd = np.abs(spectrum)
    del spectrum
    psd **= 2
    psd /= scale
    return np.fft.rfftfreq(n, d=step), psd


def _manifest(out_dir: Path, names) -> list:
    """Size and sha256 of each named file, read into one reused 64 kB buffer."""
    entries, buf = [], bytearray(1 << 16)
    for name in names:
        digest, size = hashlib.sha256(), 0
        with open(out_dir / name, "rb") as fh:
            while n := fh.readinto(buf):
                digest.update(memoryview(buf)[:n])
                size += n
        entries.append({"name": name, "bytes": size, "sha256": digest.hexdigest()})
    return entries


def _decoding_kernel(cfg: ExperimentConfig) -> tuple:
    """A TEM mode's kernel's highest frequency and the record's Gram row stride."""
    return (cfg.band.omega_u, 2) if cfg.mode == "two_tem" else (cfg.lowpass_cutoff, 1)


def run_size(cfg: ExperimentConfig) -> dict:
    """The size of the run of ``cfg``, worked out without running it.

    ``grid_points``: the evaluation grid's point count, in every mode.  In
    ``pns`` mode ``samples``: the sample count.  In a TEM mode ``spikes``:
    bounds ``(span/max_gap, span/min_gap)`` on each channel's spike count,
    from the encoder's gap bounds, each rounded to an exact integer (the
    ratio of two in-range floats can pass the float range); and ``blocks``:
    the decoding block count (:func:`temcodec.recon.block_count`).
    """
    size = {"grid_points": _grid_points(cfg.window, cfg.grid_step)}
    if cfg.mode == "pns":
        first, last = pns.PnsGrid(cfg.pns_shift, cfg.window, cfg.band).indices
        size["samples"] = 2 * max(0, last - first + 1)
    else:
        span, params = cfg.window[1] - cfg.window[0], cfg.tem_params
        size["spikes"] = tuple(round(Fraction(span) / Fraction(gap))
                               for gap in (params.max_gap, params.min_gap))
        size["blocks"] = recon.block_count(cfg.window, _decoding_kernel(cfg)[0])
    return size


def run_experiment(cfg: ExperimentConfig, out_dir) -> ExperimentReport:
    """Execute the configured pipeline and write all output files.

    Both TEM modes take one path.  The encoder's one or two snapped trains
    are written to ``spikes.txt`` and give the record: the single train, or
    the two interleaved into one ``"merged"`` :class:`~temcodec.tem.SpikeTrain`
    (:func:`temcodec.tem.interleave`).  The record is decoded in the
    overlapping blocks of :func:`temcodec.recon.block_split`, one after
    another: each block, ``replace(record, times=record.times[start:stop])``,
    is built into a Gram system by ``recon.build_gram_lowpass`` or
    ``recon.build_gram_bandpass``, solved, and its model evaluated only at
    the evaluation points of its core, so the system of one block, never of
    the whole record, is alive at a time; a block whose core holds no
    evaluation point is skipped.  A window shorter than about 1.5 cores is
    one block, the whole-record decode.  The report's ``gram`` sums rows,
    knots and ranks over the decoded blocks and lists each one.

    Raises :class:`PipelineError` naming the failing stage (``evaluate``
    when the evaluation grid or the signal on it cannot be built, ``write``
    when ``out_dir`` cannot be made).  Deterministic: identical configs
    produce byte-identical files.
    """
    started = time.perf_counter()
    out_path = Path(out_dir)
    files = []

    report = {
        "schema": 4,
        "mode": cfg.mode,
        "window": [cfg.window[0], cfg.window[1]],
        "grid_step": cfg.grid_step,
        "guard_fraction": cfg.guard_fraction,
        "signal": cfg.signal_desc,
    }

    try:
        stage = "evaluate"  # the grid and the signal on it
        t_eval = _snap_grid(cfg.window, cfg.grid_step)
        x_true = np.asarray(cfg.signal(t_eval), dtype=float)
        stage = "write"  # a directory that cannot be made fails as an output write
        out_path.mkdir(parents=True, exist_ok=True)
        if cfg.mode == "pns":
            stage = "encode"
            grid = pns.PnsGrid(cfg.pns_shift, cfg.window, cfg.band)
            samples = pns.sample_pns(cfg.signal, grid)
            _write_csv(
                out_path / "samples.csv", "index,t,x",
                (np.arange(samples.times.size), samples.times, samples.values),
            )
            files.append("samples.csv")
            report["band"] = _band_dict(cfg.band)
            report["pns"] = {
                "period": grid.period,
                "shift": grid.shift,
                "count": int(samples.times.size),
            }
            stage = "evaluate"
            x_hat = pns.reconstruct_pns(samples, grid, t_eval)
        else:  # a TEM mode: encode, then decode the record block by block
            stage = "encode"
            two = cfg.mode == "two_tem"
            if two:
                trains = tem.encode_two_channel(
                    cfg.signal, cfg.tem_params, cfg.window, alpha=cfg.alpha)
            else:
                trains = [tem.encode(cfg.signal, cfg.tem_params, cfg.window)]
            trains = [_snap_train(train) for train in trains]
            record = tem.interleave(*trains) if two else trains[0]
            tem.write_spike_file(out_path / "spikes.txt", trains)
            files.append("spikes.txt")
            report["tem"] = _tem_dict(cfg.tem_params, alpha=cfg.alpha)
            if two:
                report["band"] = _band_dict(cfg.band)
            else:
                report["recon_kernel"] = {"kind": "lowpass",
                                          "cutoff_hz": cfg.lowpass_cutoff / TWO_PI}
            report["spikes"] = {train.channel: _gap_stats(train.times) for train in trains}
            if two:
                report["merged"] = {"count": len(record), "max_gap": float(np.max(record.gaps))}

            a_max, stride = _decoding_kernel(cfg)
            edges, spans = recon.block_split(record.times, cfg.window, a_max, stride)
            # the evaluation points of each block's core, [edges[k], edges[k+1])
            points = [0, *np.searchsorted(t_eval, edges[1:-1]).tolist(), t_eval.size]
            x_hat = np.empty_like(t_eval)
            blocks = []
            for k, (start, stop) in enumerate(spans):
                lo, hi = points[k], points[k + 1]
                if lo == hi:  # a core without evaluation points is not decoded
                    continue
                stage = "decode"
                block = replace(record, times=record.times[start:stop])
                # the system, held by no name here, is freed factor by factor in the solve
                solution = recon.solve_coefficients(
                    recon.build_gram_bandpass(block, cfg.band) if two
                    else recon.build_gram_lowpass(block, cfg.lowpass_cutoff))
                blocks.append(_block_dict(edges[k:k + 2], (start, stop), solution))
                stage = "evaluate"
                x_hat[lo:hi] = recon.evaluate_model(solution.model, t_eval[lo:hi])
            report["gram"] = _gram_dict(blocks)

        stage = "metrics"
        # metrics are computed on the 12-digit values the CSV will carry, so
        # recomputing them from the emitted file reproduces the report exactly
        x_true_q = _snap(x_true)
        x_hat_q = _snap(x_hat)
        del x_hat  # the snapped trace is the one every later step reads
        report["metrics"] = _metrics(t_eval, x_true_q, x_hat_q, cfg.window, cfg.guard_fraction)
        stage = "write"
        _write_csv(
            out_path / "recon.csv", "t,x_true,x_hat,abs_err",
            (t_eval, x_true_q, x_hat_q, np.abs(x_true_q - x_hat_q)),
        )
        files.append("recon.csv")
        freqs, psd_vals = _psd(x_true, cfg.grid_step)
        _write_csv(out_path / "psd.csv", "freq_hz,psd", (freqs, psd_vals))
        files.append("psd.csv")
        report["files"] = _manifest(out_path, files)
        _check_report(report, "report")  # no run writes what compare rejects
        payload = json.dumps(report, indent=2, allow_nan=False) + "\n"
        (out_path / "report.json").write_text(payload, encoding="ascii", newline="\n")
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(stage, exc) from exc

    return ExperimentReport(report, time.perf_counter() - started, out_path)


def _tem_dict(p: tem.TemParams, alpha=None) -> dict:
    out = {
        "kappa": p.kappa,
        "delta": p.delta,
        "bias": p.bias,
        "amplitude_bound": p.amplitude_bound,
        "max_gap_bound": p.max_gap,
    }
    if alpha is not None:
        out["alpha"] = alpha
    return out


def _band_dict(band: BandSpec) -> dict:
    return {
        "omega_l_hz": band.omega_l / TWO_PI,
        "omega_u_hz": band.omega_u / TWO_PI,
        "bandwidth_hz": band.bandwidth / TWO_PI,
        "k0": band.k0,
        "period": band.period,
    }


def _gram_dict(blocks) -> dict:
    """The report's ``gram``: row, knot and rank sums over the decoding blocks, and each block."""
    return {
        "rows": sum(b["rows"] for b in blocks),
        "cols": sum(b["cols"] for b in blocks),
        "effective_rank": sum(b["effective_rank"] for b in blocks),
        "gap_premise_ok": all(b["gap_premise_ok"] for b in blocks),
        "blocks": blocks,
    }


def _block_dict(core, spikes, sol: recon.SolveResult) -> dict:
    """One decoding block's core, spike span, system and solve diagnostics."""
    return {
        "core": [float(core[0]), float(core[1])],
        "spike_range": [int(spikes[0]), int(spikes[1])],
        "rows": sol.shape[0],
        "cols": sol.shape[1],
        "factor_cols": sol.factor_cols,
        "sigma_max": sol.sigma_max,
        "sigma_min": sol.sigma_min,
        "effective_rank": sol.effective_rank,
        "residual_norm": sol.residual_norm,
        "relative_residual": sol.residual_norm / sol.rhs_norm if sol.rhs_norm > 0 else None,
        "sv_cutoff": sol.sv_cutoff,
        "solve_blas_threads": sol.blas_threads,
        "gap_premise_ok": sol.gap_premise_ok,
    }


def _number(v) -> bool:
    """A JSON number, not ``true`` or ``false``, in :data:`NUMBER_RANGE`."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and _in_range(v)


_KINDS = {  # each kind a read report value can be, under the phrase that names it
    "two increasing numbers": lambda v: (isinstance(v, list) and len(v) == 2
                                         and all(map(_number, v)) and v[0] < v[1]),
    "a number or null": lambda v: v is None or _number(v),
    "an integer >= 0": lambda v: isinstance(v, int) and _number(v) and 0 <= v <= 2**53,
}
# The report values compare_runs reads, each with its kind; a dict is an object holding its keys.
REPORT_VALUES = {
    "window": "two increasing numbers",
    "signal": {},  # an object, compared for equality only
    "metrics": {"snr_db": "a number or null"},
    "spikes": {"*": {"count": "an integer >= 0", "gap_mean": "a number or null",  # "*": a channel
                     "gap_max": "a number or null"}},  # "spikes" alone may be absent (PNS)
}


def _check_report(value, name: str, spec=REPORT_VALUES, path=()) -> None:
    """Raise ValueError naming report ``name`` and the key unless ``value`` holds ``spec``."""
    where = f"{name} {'.'.join(path)!r}" if path else name
    if isinstance(spec, str) and not _KINDS[spec](value):
        raise ValueError(f"{where} is not {spec}: {value!r} "
                         f"(a number is {NUMBER_RANGE}, a count at most 2**53)")
    if isinstance(spec, dict) and not isinstance(value, dict):
        raise ValueError(f"{where} is a JSON {type(value).__name__}, not an object")
    for key, sub in spec.items() if isinstance(spec, dict) else ():
        for k in value if key == "*" else [key]:
            if key == "*":  # a spike channel, named as one: "spikes channel 'B'"
                _check_report(value[k], f"{name} {'.'.join(path)} channel {k!r}", sub)
            elif k in value:
                _check_report(value[k], name, sub, path + (k,))
            elif k != "spikes":
                raise ValueError(f"{where} has no {k!r} key")


def compare_runs(report_a: dict, report_b: dict) -> dict:
    """Tabulate spike-rate, max-gap and SNR deltas between two reports of one window and signal.

    A ValueError names the report and key of a value not of its :data:`REPORT_VALUES` kind,
    each number in :data:`NUMBER_RANGE` and each count at most ``2**53``: under that
    range every table value is finite.
    """
    _check_report(report_a, "report_a")
    _check_report(report_b, "report_b")
    if report_a["window"] != report_b["window"]:
        raise ValueError(f"windows differ: {report_a['window']} vs {report_b['window']}")
    if report_a["signal"] != report_b["signal"]:
        raise ValueError("signals differ between reports")

    def rate_and_gaps(rep):
        channels = list(rep.get("spikes", {}).values())
        w0, w1 = rep["window"]
        means = [ch["gap_mean"] for ch in channels if ch["gap_mean"] is not None]
        maxes = [ch["gap_max"] for ch in channels if ch["gap_max"] is not None]
        # below 2**52 spikes over one or two channels the first division is exact
        rate = sum(ch["count"] for ch in channels) / len(channels) / (w1 - w0) if channels else None
        return rate, (sum(means) / len(means) if means else None), (max(maxes) if maxes else None)

    rate_a, mean_a, max_a = rate_and_gaps(report_a)
    rate_b, mean_b, max_b = rate_and_gaps(report_b)
    snr_a, snr_b = report_a["metrics"]["snr_db"], report_b["metrics"]["snr_db"]
    return {
        "window": report_a["window"],
        "spike_rate_a": rate_a,
        "spike_rate_b": rate_b,
        "spike_rate_delta": None if None in (rate_a, rate_b) else rate_b - rate_a,
        "mean_gap_a": mean_a,
        "mean_gap_b": mean_b,
        "mean_gap_ratio": None if None in (mean_a, mean_b) or mean_a == 0 else mean_b / mean_a,
        "max_gap_a": max_a,
        "max_gap_b": max_b,
        "max_gap_delta": None if None in (max_a, max_b) else max_b - max_a,
        "snr_db_a": snr_a,
        "snr_db_b": snr_b,
        "snr_db_delta": None if None in (snr_a, snr_b) else snr_b - snr_a,
    }
