"""Tests of the benchmark's workload generator, tracer and metric catalogue."""

import dataclasses
import json
from pathlib import Path

import pytest

import run
import tracing
import workloads
from temcodec import recon, tem
from temcodec.experiment import load_config

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def _load(workload, seed, tmp_path):
    path = workloads.write_config(workload, seed, CONFIG_DIR, tmp_path / f"{workload}-{seed}.cfg")
    return load_config(str(path))


@pytest.mark.parametrize("workload", ["single_tem", "two_tem"])
def test_seed_zero_is_the_shipped_preset(workload, tmp_path):
    preset = load_config(str(CONFIG_DIR / workloads.PRESETS[workload]))
    assert _load(workload, 0, tmp_path) == preset


def test_seed_zero_pns_long_is_the_pns_preset_over_40_s(tmp_path):
    preset = load_config(str(CONFIG_DIR / "pns.cfg"))
    assert _load("pns_long", 0, tmp_path) == dataclasses.replace(preset, window=(-20.0, 20.0))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_same_seed_same_config(workload, seed, tmp_path):
    first = workloads.write_config(workload, seed, CONFIG_DIR, tmp_path / "a.cfg")
    second = workloads.write_config(workload, seed, CONFIG_DIR, tmp_path / "b.cfg")
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seeds_shift_the_window(workload, tmp_path):
    base = _load(workload, 0, tmp_path)
    windows = set()
    for seed in range(1, 6):
        cfg = _load(workload, seed, tmp_path)
        tau = cfg.window[0] - base.window[0]
        assert 0.0 < tau < workloads.TAU_MAX
        assert cfg.window[1] - base.window[1] == pytest.approx(tau, abs=1e-12)
        assert dataclasses.replace(cfg, window=base.window) == base
        windows.add(cfg.window)
    assert len(windows) == 5


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.make_config("nope", 0, CONFIG_DIR)


def test_traced_run_counts_match_the_report_and_restores_the_modules(tmp_path):
    cfg = dataclasses.replace(_load("two_tem", 0, tmp_path), window=(-0.2, 0.2))
    originals = (tem.encode, tem.integrate, tem.snap_time, recon.integrate_columns,
                 recon.build_gram_bandpass, recon.solve_coefficients, recon.evaluate_model)
    tracer, report = tracing.run_traced(cfg, tmp_path / "out")
    assert (tem.encode, tem.integrate, tem.snap_time, recon.integrate_columns,
            recon.build_gram_bandpass, recon.solve_coefficients,
            recon.evaluate_model) == originals

    data = report.data
    layers = tracer.layer_metrics()
    assert layers["tem.encode.spikes"] == sum(ch["count"] for ch in data["spikes"].values())
    assert layers["tem.encode.integrate_calls"] > layers["tem.encode.spikes"]
    assert layers["signals.integrate.panels"] >= 3 * layers["tem.encode.integrate_calls"]
    assert layers["recon.build_gram.rows"] == data["gram"]["rows"]
    assert layers["recon.build_gram.kernel_evals"] == (
        15 * layers["recon.build_gram.panels"] * data["gram"]["cols"])
    assert layers["recon.solve.rank"] == data["gram"]["effective_rank"]
    assert layers["recon.evaluate.points"] == data["metrics"]["n_eval"]
    n_snapped = data["merged"]["count"] + 3 * data["metrics"]["n_eval"]
    assert layers["tem.snap_time.calls"] == n_snapped
    assert 0.0 < tracer.identity_residual_max() < 1e-8
    spans = {name for name, *_ in tracer.spans}
    assert {"experiment.run", "tem.encode", "signals.integrate", "tem.interleave",
            "recon.build_gram", "recon.solve", "recon.evaluate"} <= spans
    assert 0.0 < layers["experiment.self_s"] < tracer.seconds("experiment.run")


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS


def test_pipeline_error_counts_as_a_failure_and_leaves_no_output(tmp_path):
    from temcodec.experiment import PipelineError

    workload = run.Workload("two_tem", 0, tmp_path)

    def broken(cfg, out):
        out.mkdir()
        raise PipelineError("encode", "broken")

    assert workload.run(broken) == (None, None)
    assert workload.attempted == 1 and len(workload.failures) == 1
    assert not list(tmp_path.glob("run-*"))


def test_traced_loop_ends_when_every_run_fails():
    class Failing:
        failures = []
        attempted = 0

        def run(self, call=None):
            self.attempted += 1
            return None, None

    workload = Failing()
    metrics = run.measure_layers(workload, seconds=0.0)
    assert workload.attempted == 5  # warm-up, then two untraced/traced pairs
    assert all(m["value"] is None for m in metrics.values())
