"""Config-driven experiment pipeline: signal -> encoder -> reconstruction -> report.

A config file (INI syntax, numbers may be plain floats or exact fractions
like ``1/260``) fully determines a run; re-running the same config always
produces byte-identical output files.  Spike times and the evaluation
grid are snapped to their 12-significant-digit file representation before
any downstream use, so every emitted file parses back to exactly the
arrays the pipeline used.

Emitted per run: a spike-train file (or PNS sample file), the
reconstruction trace ``recon.csv`` (``t,x_true,x_hat,abs_err``), a
periodogram ``psd.csv`` of the analytic signal, and ``report.json`` with
spike statistics, system diagnostics, error metrics and a hashed file
manifest.  Wall-clock runtime is reported on stdout only, never in the
files, to keep outputs reproducible.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import time
from dataclasses import dataclass
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
    band_spec_from_edges,
)

__all__ = [
    "ConfigError",
    "PipelineError",
    "ExperimentConfig",
    "ExperimentReport",
    "load_config",
    "run_experiment",
    "compare_runs",
]

MODES = ("single_tem", "two_tem", "pns")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class PipelineError(RuntimeError):
    """A pipeline stage failed; ``stage`` names it."""

    def __init__(self, stage, cause):
        super().__init__(f"pipeline failure at stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


def _num(text: str) -> float:
    """Parse a config number: decimal/scientific float or exact fraction a/b."""
    text = text.strip()
    if "/" in text:
        return float(Fraction(text))
    return float(text)


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
    pair_anchor: str = "even"
    sv_cutoff: float = recon.DEFAULT_SV_CUTOFF
    quad_tol: float = recon.DEFAULT_QUAD_TOL
    spike_tol: float = tem.DEFAULT_SPIKE_TOL
    out_dir: Optional[str] = None


class _Section:
    """Read access to one config section that records which keys were read."""

    def __init__(self, proxy):
        self._proxy = proxy
        self._read = set()

    def __contains__(self, key):
        return key in self._proxy

    def __getitem__(self, key):
        self._read.add(key)
        return self._proxy[key]

    def get(self, key, default=None):
        self._read.add(key)
        return self._proxy.get(key, default)

    def unread(self) -> list:
        return [key for key in self._proxy if key not in self._read]


def _build_signal(section) -> tuple:
    kind = section.get("kind", "").strip()
    if kind == "modulated_tone":
        desc = {
            "kind": kind,
            "carrier_hz": _num(section.get("carrier_hz", "50")),
            "am_hz": _num(section.get("am_hz", "10")),
            "pm_hz": _num(section.get("pm_hz", "2.5")),
            "amplitude": _num(section.get("amplitude", "2")),
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
            "freq_hz": _num(section.get("freq_hz", "50")),
            "amplitude": _num(section.get("amplitude", "1")),
            "phase": _num(section.get("phase", "0")),
        }
        sig = Tone(desc["amplitude"], TWO_PI * desc["freq_hz"], desc["phase"])
    elif kind == "tone_sum":
        freqs = [_num(v) for v in section.get("freqs_hz", "").split(",") if v.strip()]
        amps = [_num(v) for v in section.get("amplitudes", "").split(",") if v.strip()]
        phases = [_num(v) for v in section.get("phases", "").split(",") if v.strip()]
        if not (len(freqs) == len(amps) == len(phases)) or not freqs:
            raise ConfigError("tone_sum needs matching freqs_hz, amplitudes, phases lists")
        desc = {"kind": kind, "freqs_hz": freqs, "amplitudes": amps, "phases": phases}
        sig = SignalSum(
            [Tone(a, TWO_PI * f, p) for a, f, p in zip(amps, freqs, phases)]
        )
    elif kind == "constant":
        desc = {"kind": kind, "value": _num(section.get("value", "0"))}
        sig = Constant(desc["value"])
    elif kind == "zero":
        desc = {"kind": kind}
        sig = Constant(0.0)
    else:
        raise ConfigError(f"unknown signal kind {kind!r}")
    return sig, desc


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate an experiment config file.

    Every cross-module constraint (encoder parameter bounds, band edges,
    PNS shift degeneracy, alpha range) is checked here, so a config that
    loads is a config that runs.  A key the mode does not read, such as a
    misspelt one, is rejected with its ``section.key`` name.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    sections = {name: _Section(parser[name]) for name in parser.sections()}
    empty = _Section({})
    try:
        exp = sections["experiment"]
        mode = exp.get("mode", "").strip()
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        w0 = _num(exp.get("window_start", "-1"))
        w1 = _num(exp.get("window_end", "1"))
        if not w0 < w1:
            raise ConfigError(f"window must be nonempty, got ({w0}, {w1})")
        grid_step = _num(exp.get("grid_step", "1/1000"))
        if not 0 < grid_step <= (w1 - w0):
            raise ConfigError(f"grid_step {grid_step} outside (0, window span]")
        guard = _num(exp.get("guard_fraction", "0.15"))
        if not 0 <= guard < 0.5:
            raise ConfigError(f"guard_fraction must lie in [0, 0.5), got {guard}")
        c0, c1 = _central_window((w0, w1), guard)
        # the first grid point at or after c0 must not lie past c1
        if w0 + grid_step * math.ceil((c0 - w0) / grid_step) > c1:
            raise ConfigError(
                f"grid_step {grid_step} leaves no evaluation point in the central "
                f"window [{c0}, {c1}]"
            )
        out_dir = exp.get("out_dir", None)

        if "signal" not in sections:
            raise ConfigError("missing [signal] section")
        sig, desc = _build_signal(sections["signal"])

        solver = sections.get("solver", empty)
        sv_cutoff = _num(solver.get("sv_cutoff", "1e-8"))
        quad_tol = _num(solver.get("quad_tol", "1e-9"))
        spike_tol = _num(solver.get("spike_tol", "1e-10"))
        for name, v in (("sv_cutoff", sv_cutoff), ("quad_tol", quad_tol),
                        ("spike_tol", spike_tol)):
            if not v > 0:
                raise ConfigError(f"{name} must be positive, got {v}")
        pair_anchor = str(solver.get("pair_anchor", "even")).strip()
        if pair_anchor not in ("even", "odd"):
            raise ConfigError(f"pair_anchor must be 'even' or 'odd', got {pair_anchor!r}")

        band = None
        if "band" in sections:
            band = band_spec_from_edges(
                TWO_PI * _num(sections["band"].get("omega_l_hz", "35")),
                TWO_PI * _num(sections["band"].get("omega_u_hz", "65")),
            )

        tem_params = alpha = lowpass_cutoff = pns_shift = None
        if mode in ("single_tem", "two_tem"):
            if "tem" not in sections:
                raise ConfigError(f"mode {mode} requires a [tem] section")
            sec = sections["tem"]
            tem_params = tem.TemParams(
                kappa=_num(sec.get("kappa", "1")),
                delta=_num(sec.get("delta", "")),
                bias=_num(sec.get("bias", "")),
                amplitude_bound=sig.amplitude_bound,
            )
            if mode == "two_tem":
                alpha = (
                    _num(sec["alpha"]) if "alpha" in sec else 1.5 * tem_params.delta
                )
                if not (tem_params.delta < alpha <= 2.0 * tem_params.delta):
                    raise ConfigError(
                        f"alpha {alpha} outside (delta, 2*delta] for delta={tem_params.delta}"
                    )
                if band is None:
                    raise ConfigError("mode two_tem requires a [band] section")
        if mode == "single_tem":
            recon_sec = sections.get("recon", empty)
            if "lowpass_cutoff_hz" not in recon_sec:
                raise ConfigError("mode single_tem requires [recon] lowpass_cutoff_hz")
            lowpass_cutoff = TWO_PI * _num(recon_sec["lowpass_cutoff_hz"])
            if not lowpass_cutoff > 0:
                raise ConfigError("lowpass_cutoff_hz must be positive")
        if mode == "pns":
            if band is None:
                raise ConfigError("mode pns requires a [band] section")
            pns_sec = sections.get("pns", empty)
            if "shift" not in pns_sec:
                raise ConfigError("mode pns requires [pns] shift")
            pns_shift = _num(pns_sec["shift"])
            # constructing the grid performs the full validity check
            pns.PnsGrid(band.period, pns_shift, (w0, w1), band)
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
        pair_anchor=pair_anchor,
        sv_cutoff=sv_cutoff,
        quad_tol=quad_tol,
        spike_tol=spike_tol,
        out_dir=out_dir,
    )


@dataclass
class ExperimentReport:
    """In-memory run result: the report document plus non-reproducible extras."""

    data: dict
    runtime_seconds: float
    out_dir: Path


def _snap_grid(window, step):
    """Grid ``w0 + k*step`` up to ``w1``, snapped to 12 significant digits.

    The point count is floored, not rounded, so no point passes ``w1``; the
    tolerance keeps a step that divides the window exactly in float noise
    from losing its last point.
    """
    w0, w1 = window
    n = math.floor((w1 - w0) / step + 1e-9)
    raw = w0 + step * np.arange(n + 1)
    return np.array([tem.snap_time(v) for v in raw])


def _snap_train(train: tem.SpikeTrain) -> tem.SpikeTrain:
    snapped = np.array([tem.snap_time(v) for v in train.times])
    return tem.SpikeTrain(snapped, train.channel, train.params, train.window)


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
    row_format = ",".join(["%.12g"] * len(columns)) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(row_format % row for row in zip(*columns))


def _psd(t_eval, x, step) -> tuple:
    """Hann-windowed periodogram of the dense signal trace; plotting aid only."""
    n = x.size
    win = np.hanning(n)
    spectrum = np.fft.rfft(x * win)
    fs = 1.0 / step
    scale = fs * float(np.sum(win ** 2))
    psd = (np.abs(spectrum) ** 2) / scale
    freqs = np.fft.rfftfreq(n, d=step)
    return freqs, psd


def _manifest(out_dir: Path, names) -> list:
    entries = []
    for name in names:
        blob = (out_dir / name).read_bytes()
        entries.append(
            {"name": name, "bytes": len(blob), "sha256": hashlib.sha256(blob).hexdigest()}
        )
    return entries


def run_experiment(cfg: ExperimentConfig, out_dir) -> ExperimentReport:
    """Execute the configured pipeline and write all output files.

    Raises :class:`PipelineError` naming the failing stage.  Deterministic:
    identical configs produce byte-identical files.
    """
    started = time.perf_counter()
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    t_eval = _snap_grid(cfg.window, cfg.grid_step)
    x_true = np.asarray(cfg.signal(t_eval), dtype=float)
    files = []

    report = {
        "schema": 2,
        "mode": cfg.mode,
        "window": [cfg.window[0], cfg.window[1]],
        "grid_step": cfg.grid_step,
        "guard_fraction": cfg.guard_fraction,
        "signal": cfg.signal_desc,
    }

    try:
        if cfg.mode == "single_tem":
            stage = "encode"
            train = _snap_train(
                tem.encode(cfg.signal, cfg.tem_params, cfg.window, spike_tol=cfg.spike_tol)
            )
            tem.write_spike_file(out_path / "spikes.txt", [train])
            files.append("spikes.txt")
            report["tem"] = _tem_dict(cfg.tem_params)
            report["recon_kernel"] = {"kind": "lowpass", "cutoff_hz": cfg.lowpass_cutoff / TWO_PI}
            report["spikes"] = {"single": _gap_stats(train.times)}
            stage = "assemble"
            system = recon.build_gram_lowpass(train, cfg.lowpass_cutoff, quad_tol=cfg.quad_tol)
            stage = "solve"
            solution = recon.solve_coefficients(system, sv_cutoff=cfg.sv_cutoff)
            model = recon.model_from(system, solution)
            report["gram"] = _gram_dict(system, solution)
            stage = "evaluate"
            x_hat = model(t_eval)

        elif cfg.mode == "two_tem":
            stage = "encode"
            train_a, train_b = tem.encode_two_channel(
                cfg.signal, cfg.tem_params, cfg.window,
                alpha=cfg.alpha, spike_tol=cfg.spike_tol,
            )
            train_a, train_b = _snap_train(train_a), _snap_train(train_b)
            merged = tem.interleave(train_a, train_b)
            tem.write_spike_file(out_path / "spikes.txt", [train_a, train_b])
            files.append("spikes.txt")
            report["tem"] = _tem_dict(cfg.tem_params, alpha=cfg.alpha)
            report["band"] = _band_dict(cfg.band)
            report["spikes"] = {
                "A": _gap_stats(train_a.times),
                "B": _gap_stats(train_b.times),
            }
            report["merged"] = {
                "count": int(merged.times.size),
                "max_gap": merged.max_gap,
                "kernel_period": cfg.band.period,
                "gap_premise_ok": bool(merged.max_gap < cfg.band.period),
            }
            stage = "assemble"
            system = recon.build_gram_bandpass(
                merged, cfg.band, quad_tol=cfg.quad_tol, anchor=cfg.pair_anchor
            )
            stage = "solve"
            solution = recon.solve_coefficients(system, sv_cutoff=cfg.sv_cutoff)
            model = recon.model_from(system, solution)
            report["gram"] = _gram_dict(system, solution)
            stage = "evaluate"
            x_hat = model(t_eval)

        else:  # pns
            stage = "encode"
            grid = pns.PnsGrid(cfg.band.period, cfg.pns_shift, cfg.window, cfg.band)
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

        stage = "metrics"
        # metrics are computed on the 12-digit values the CSV will carry, so
        # recomputing them from the emitted file reproduces the report exactly
        x_true_q = np.array([tem.snap_time(v) for v in x_true])
        x_hat_q = np.array([tem.snap_time(v) for v in x_hat])
        report["metrics"] = _metrics(t_eval, x_true_q, x_hat_q, cfg.window, cfg.guard_fraction)
        stage = "write"
        _write_csv(
            out_path / "recon.csv", "t,x_true,x_hat,abs_err",
            (t_eval, x_true_q, x_hat_q, np.abs(x_true_q - x_hat_q)),
        )
        files.append("recon.csv")
        freqs, psd_vals = _psd(t_eval, x_true, cfg.grid_step)
        _write_csv(out_path / "psd.csv", "freq_hz,psd", (freqs, psd_vals))
        files.append("psd.csv")
        report["files"] = _manifest(out_path, files)
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


def _gram_dict(system: recon.GramSystem, sol: recon.SolveResult) -> dict:
    rhs_norm = float(np.linalg.norm(system.rhs))
    return {
        "rows": int(system.matrix.shape[0]),
        "cols": int(system.matrix.shape[1]),
        "sigma_max": sol.sigma_max,
        "sigma_min": sol.sigma_min,
        "effective_rank": sol.effective_rank,
        "residual_norm": sol.residual_norm,
        "relative_residual": sol.residual_norm / rhs_norm if rhs_norm > 0 else None,
        "sv_cutoff": sol.sv_cutoff,
        "gap_premise_ok": bool(system.gap_premise_ok),
    }


def compare_runs(report_a: dict, report_b: dict) -> dict:
    """Tabulate spike-rate, max-gap and SNR deltas between two run reports.

    Both reports must cover the same window and signal; mismatches are
    rejected with ValueError.
    """
    if report_a.get("window") != report_b.get("window"):
        raise ValueError(
            f"windows differ: {report_a.get('window')} vs {report_b.get('window')}"
        )
    if report_a.get("signal") != report_b.get("signal"):
        raise ValueError("signals differ between reports")

    def rate_and_gaps(rep):
        spikes = rep.get("spikes")
        if not spikes:
            return None, None, None
        w0, w1 = rep["window"]
        span = w1 - w0
        counts = [ch["count"] for ch in spikes.values()]
        means = [ch["gap_mean"] for ch in spikes.values() if ch["gap_mean"] is not None]
        maxes = [ch["gap_max"] for ch in spikes.values() if ch["gap_max"] is not None]
        rate = sum(counts) / span / len(counts)
        return rate, (sum(means) / len(means) if means else None), (max(maxes) if maxes else None)

    rate_a, mean_a, max_a = rate_and_gaps(report_a)
    rate_b, mean_b, max_b = rate_and_gaps(report_b)
    snr_a = report_a["metrics"]["snr_db"]
    snr_b = report_b["metrics"]["snr_db"]
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
