#!/usr/bin/env python3
"""Benchmark of the temcodec experiment pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload single_tem|two_tem|pns_long|all \
        [--seed N] [--seconds S] [--trace 0|1]

One process, ``workers=1`` (the CLI default), closed loop: each
``run_experiment`` call starts when the previous one has returned.  The
workload config is generated from ``--seed`` (see ``workloads.py``) and
is all the program receives.  Every run writes into a fresh output
directory and passes the correctness gate: no ``PipelineError``, SNR at or
above the workload's floor, the merged two-channel gap below ``2*pi/B``,
exactly the files the report lists, and the same sha256 for every output
file as the workload's first run in this process.

``--trace 0`` reports the end-to-end metrics: ``run_rel`` (median, over
the calls of ``--seconds`` and at least 11 calls, of each call's wall time
divided by that of ``reference_seconds`` timed just before it; the sample
count and the median, highest percentile with 10 samples above it and
fastest wall time in seconds are printed alongside), ``setup_s`` (median
over fresh interpreters of ``import temcodec`` plus ``load_config``),
``snr_db`` and ``max_abs_err`` over the central window, and
``peak_mem_mb`` (tracemalloc peak of one call, in a pass of its own that
also serves as the warm-up of the timed calls).  ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics of
``tracing.py``, plus ``trace.overhead_s``, the fastest traced minus the
fastest untraced call.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every run passed the gate, 1 when one failed, and 2 when the
benchmark cannot run (no temcodec sources under ``src/``).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIG_DIR = ROOT / "configs"
RUNS_DIR = ROOT / ".perfbench_runs"

# SNR floors (dB): 25 dB is the TEM acceptance floor; pns_long gave
# 55.01 +- 0.01 dB on every seed tried, and 50 dB leaves room for round-off.
SNR_FLOOR_DB = {"single_tem": 25.0, "two_tem": 25.0, "pns_long": 50.0}
# 11 timed calls leave 10 samples above the lowest, so a percentile exists
MIN_TIMED_RUNS = 11
SETUP_REPS = 7
SUBPROCESS_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "run_rel": "1",
    "setup_s": "s",
    "snr_db": "dB",
    "max_abs_err": "1",
    "peak_mem_mb": "MB",
}

SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import temcodec
from temcodec.experiment import load_config
load_config(sys.argv[2])
print(time.perf_counter() - start)
"""


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS at the cores this process may use; returns the thread count.

    BLAS reads these variables when numpy is first imported, so this runs
    before anything imports numpy.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        threads = int(value) if value.isdigit() and int(value) > 0 else nproc
        os.environ[var] = str(min(threads, nproc))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def fail_unrunnable(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import temcodec from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "temcodec" / "__init__.py").is_file() or not CONFIG_DIR.is_dir():
        fail_unrunnable(f"no temcodec sources under {SRC} or no presets in {CONFIG_DIR}")
    sys.path.insert(0, str(SRC))
    import temcodec

    if SRC not in Path(temcodec.__file__).resolve().parents:
        fail_unrunnable(f"imported temcodec from {temcodec.__file__}, not from {SRC}")


class Workload:
    """Runs one workload's config and gates every run's outputs."""

    def __init__(self, name: str, seed: int, workdir: Path):
        from temcodec.experiment import load_config

        import workloads

        self.name = name
        self.workdir = workdir
        self.cfg_path = workloads.write_config(name, seed, CONFIG_DIR, workdir / "workload.cfg")
        self.cfg = load_config(str(self.cfg_path))
        self.digests = None
        self.bytes_written = None
        self.report = None  # first passing run's report; later runs match it byte for byte
        self.attempted = 0
        self.failures = []

    def run(self, call=None):
        """One gated call; returns ``(seconds, result of call)``, seconds None on failure."""
        from temcodec.experiment import PipelineError, run_experiment

        call = call or run_experiment
        out = self.workdir / f"run-{self.attempted:04d}"
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call(self.cfg, out)
        except PipelineError as exc:
            shutil.rmtree(out, ignore_errors=True)
            self.failures.append(f"{out.name}: {exc}")
            return None, None
        elapsed = time.perf_counter() - start
        report = result[-1] if isinstance(result, tuple) else result
        problems = self.check(report.data, out)
        shutil.rmtree(out)
        if problems:
            self.failures.append(f"{out.name}: " + "; ".join(problems))
            return None, result
        self.report = self.report or report.data
        return elapsed, result

    def check(self, data: dict, out: Path) -> list:
        problems = []
        snr = data["metrics"]["snr_db"]
        floor = SNR_FLOOR_DB[self.name]
        if snr is None or snr < floor:
            problems.append(f"snr_db {snr} below the {floor} dB floor")
        if self.name == "two_tem" and not data["merged"]["max_gap"] < data["band"]["period"]:
            problems.append(
                f"merged max_gap {data['merged']['max_gap']} not below 2*pi/B "
                f"= {data['band']['period']}"
            )
        listed = {entry["name"] for entry in data["files"]} | {"report.json"}
        present = {p.name for p in out.iterdir()}
        if present != listed:
            problems.append(f"output files {sorted(present)} differ from {sorted(listed)}")
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
        }
        if self.digests is None:
            self.digests = digests
            self.bytes_written = sum(p.stat().st_size for p in out.iterdir())
        elif digests != self.digests:
            changed = sorted(k for k in digests.keys() | self.digests.keys()
                             if digests.get(k) != self.digests.get(k))
            problems.append(f"output differs from the first run in {changed}")
        return problems


@functools.cache
def reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.standard_normal((400, 400)), rng.standard_normal((1000, 2400))


def reference_seconds() -> float:
    """Wall time of a fixed computation that does not use temcodec.

    Shared machines change speed for minutes at a time as other tenants
    load them, by up to 70% for a whole 30 s run on a 2-core host.  A call's
    time divided by this, taken just before the call, cancels most of that:
    over 20 s windows of one closed loop the median of the ratio spread
    6-8% where the raw median spread 16-22%.  The work mixes what the
    pipeline does: threaded matrix products, like the Gram, SVD and kernel
    evaluation; elementwise cosines over arrays larger than the cache, like
    the PNS kernel; and float formatting, like the CSV writer.  It takes
    0.1-0.2 s there.
    """
    import numpy as np

    square, wide = reference_inputs()
    start = time.perf_counter()
    m = square
    for _ in range(6):
        m = np.tanh(square @ m)
    for _ in range(3):
        np.cos(wide * 0.5).sum()
    for row in wide[:, :4]:
        ",".join(f"{v:.12g}" for v in row)
    return time.perf_counter() - start


def timed_runs(workload: Workload, seconds: float) -> list:
    """Closed-loop calls for ``seconds`` (at least MIN_TIMED_RUNS).

    Returns ``(call seconds, reference seconds)`` for each passing call.
    """
    samples = []
    start = time.perf_counter()
    done = 0
    while done < MIN_TIMED_RUNS or time.perf_counter() - start < seconds:
        reference = reference_seconds()
        elapsed, _ = workload.run()
        done += 1
        if elapsed is not None:
            samples.append((elapsed, reference))
    return samples


def setup_seconds(cfg_path: Path) -> float:
    """Median of fresh-interpreter ``import temcodec`` + ``load_config`` times."""
    samples = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(cfg_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def peak_memory_mb(workload: Workload):
    tracemalloc.start()
    try:
        elapsed, _ = workload.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6 if elapsed is not None else None


def highest_percentile(times: list):
    """Highest percentile with at least 10 samples above it, or None."""
    n = len(times)
    if n < 11:
        return None
    rank = n - 10  # 1-based rank of the sample with 10 samples above it
    return 100.0 * (rank - 1) / (n - 1), sorted(times)[rank - 1]


def measure_end_to_end(workload: Workload, seconds: float) -> dict:
    setup = setup_seconds(workload.cfg_path)
    peak = peak_memory_mb(workload)  # also the warm-up call of the timed loop
    samples = timed_runs(workload, seconds)
    times = [elapsed for elapsed, _ in samples]
    first = workload.report["metrics"] if workload.report else {}
    values = {
        "run_rel": statistics.median(t / r for t, r in samples) if samples else None,
        "setup_s": setup,
        "snr_db": first.get("snr_db"),
        "max_abs_err": first.get("max_abs_err"),
        "peak_mem_mb": peak,
    }
    pct = highest_percentile(times)
    pct_text = (f"p{pct[0]:.0f} {pct[1]:.4f} s" if pct
                else "no percentile with 10 samples above it (needs 11 samples)")
    if times:
        pct_text = (f"median {statistics.median(times):.4f} s; {pct_text}; "
                    f"fastest {min(times):.4f} s; reference median "
                    f"{statistics.median(r for _, r in samples):.4f} s")
    print(f"  run samples: {len(times)}; {pct_text}")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def measure_layers(workload: Workload, seconds: float) -> dict:
    import tracing

    workload.run()  # warm-up
    untraced, traced, tracers = [], [], []
    pairs = 0
    start = time.perf_counter()
    # bounded by pairs tried, not passed, so a gate that always fails ends the loop
    while pairs < 2 or time.perf_counter() - start < seconds:
        pairs += 1
        elapsed, _ = workload.run()
        if elapsed is not None:
            untraced.append(elapsed)
        elapsed, result = workload.run(tracing.run_traced)
        if elapsed is not None:
            traced.append(elapsed)
            tracers.append(result[0])
    print(f"  traced runs: {len(traced)}, untraced runs: {len(untraced)}")
    if not traced or not untraced:
        return {name: {"value": None, "unit": unit} for name, unit in tracing.LAYER_UNITS.items()}
    if any(t.counts != tracers[0].counts for t in tracers[1:]):
        workload.failures.append("work counters differ between traced runs")
    per_run = [t.layer_metrics() for t in tracers]
    # times vary from run to run; counts were just checked to repeat exactly
    values = {
        name: statistics.median(r[name] for r in per_run)
        if tracing.LAYER_UNITS[name] == "s" else per_run[0][name]
        for name in per_run[0]
    }
    values["tem.encode.identity_residual_max"] = float(tracers[0].identity_residual_max())
    values["experiment.bytes_written"] = workload.bytes_written
    values["trace.overhead_s"] = min(traced) - min(untraced)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in tracing.LAYER_UNITS.items()}


def environment(blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:  # no git on this machine
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "loadavg": list(os.getloadavg()),
    }


def bench(name: str, seed: int, seconds: float, trace: bool):
    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUNS_DIR))
    try:
        workload = Workload(name, seed, workdir)
        print(f"workload {name} seed {seed}")
        if trace:
            metrics = measure_layers(workload, seconds)
        else:
            metrics = measure_end_to_end(workload, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(workload.failures)
    for line in workload.failures:
        print(f"  FAILED {line}")
    print(f"  fail_rate: {failed}/{workload.attempted}")
    for key, metric in metrics.items():
        print(f"  {key:40s} {metric['value']!r} {metric['unit']}")
    return workload.attempted, failed, metrics


def main(argv=None) -> int:
    blas_threads = cap_blas_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    import_program()
    import workloads

    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import tracing  # noqa: F401  (fails here, not mid-run, if the layers moved)

    print("env " + json.dumps(environment(blas_threads), sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = bench(name, args.seed, args.seconds, bool(args.trace))
        attempted += a
        failed += f
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    correct = failed == 0 and all(m["value"] is not None for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
