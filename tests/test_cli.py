import json
import math
import textwrap
from pathlib import Path

import numpy as np
import pytest

from temcodec.cli import main
from temcodec.experiment import PipelineError, load_config, run_experiment
from temcodec.signals import TWO_PI, Tone
from temcodec.tem import TemParams, read_spike_file

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

SMALL_TWO = """\
[experiment]
mode = two_tem
window_start = -0.3
window_end = 0.3
grid_step = 1/500
guard_fraction = 0.15

[signal]
kind = modulated_tone
carrier_hz = 50
am_hz = 10
pm_hz = 5/2
amplitude = 2

[tem]
kappa = 1
delta = 1/60
bias = 3
alpha = 1/40

[band]
omega_l_hz = 35
omega_u_hz = 65
"""

ZERO_SINGLE = """\
[experiment]
mode = single_tem
window_start = -0.5
window_end = 0.5
grid_step = 1/1000
guard_fraction = 0.15

[signal]
kind = zero

[tem]
kappa = 1
delta = 1/260
bias = 3

[recon]
lowpass_cutoff_hz = 65

[solver]
spike_tol = 1e-12
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def run_cli(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("small_two")
    cfg = write_cfg(tmp, SMALL_TWO)
    out = tmp / "out"
    assert run_cli("run", cfg, "--out-dir", str(out)) == 0
    return tmp, cfg, out


class TestValidate:
    @pytest.mark.parametrize(
        "preset", ["single_channel.cfg", "two_channel.cfg", "pns.cfg"]
    )
    def test_presets_are_valid(self, preset):
        assert run_cli("validate", str(CONFIG_DIR / preset)) == 0

    def test_missing_file(self):
        assert run_cli("validate", "/nonexistent/x.cfg") == 2

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda s: s.replace("mode = two_tem", "mode = warp_drive"),
            lambda s: s.replace("alpha = 1/40", "alpha = 1/20"),  # > 2*delta
            lambda s: s.replace("bias = 3", "bias = 1"),  # below signal bound
            lambda s: s.replace("window_end = 0.3", "window_end = -0.4"),
            lambda s: s.replace("[band]\nomega_l_hz = 35\nomega_u_hz = 65\n", ""),
            lambda s: s.replace("grid_step = 1/500", "grid_step = 0.6"),
            lambda s: s.replace("grid_step = 1/500", "grid_stp = 1/500"),  # misspelt key
        ],
    )
    def test_broken_configs_exit_2(self, tmp_path, mangle):
        cfg = write_cfg(tmp_path, mangle(SMALL_TWO))
        assert run_cli("validate", cfg) == 2

    def test_degenerate_pns_shift_exit_2(self, tmp_path):
        text = SMALL_TWO.replace("mode = two_tem", "mode = pns") + "\n[pns]\nshift = 1/90\n"
        cfg = write_cfg(tmp_path, text)
        assert run_cli("validate", cfg) == 2  # shift*k0/period = 1, degenerate


class TestRun:
    def test_pipeline_failure_exits_3(self, tmp_path):
        # a full-cycle integrator offset collapses the channels; the merge
        # stage rejects the pair and the run reports a pipeline failure
        cfg = write_cfg(tmp_path, SMALL_TWO.replace("alpha = 1/40", "alpha = 1/30"))
        assert run_cli("run", cfg, "--out-dir", str(tmp_path / "out")) == 3

    def test_amplitude_bound_violation_fails_at_encode(self, tmp_path):
        # load_config takes the bound from the signal, so understate it directly
        cfg = load_config(write_cfg(tmp_path, SMALL_TWO))
        cfg.signal = Tone(2.0, TWO_PI * 5.0)
        cfg.tem_params = TemParams(kappa=1.0, delta=0.01, bias=1.5, amplitude_bound=1.0)
        cfg.alpha = 0.015
        with pytest.raises(PipelineError) as info:
            run_experiment(cfg, tmp_path / "out")
        assert info.value.stage == "encode"

    def test_zero_signal_run(self, tmp_path):
        cfg = write_cfg(tmp_path, ZERO_SINGLE)
        out = tmp_path / "out"
        assert run_cli("run", cfg, "--out-dir", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["snr_db"] is None
        assert report["metrics"]["snr_defined"] is False
        assert report["metrics"]["max_abs_err"] <= 1e-9
        # recovered amplitude integrals vanish with the signal
        train = read_spike_file(out / "spikes.txt")[0]
        p = train.params
        y = 2.0 * p.kappa * p.delta - p.bias * np.diff(train.times)
        assert np.max(np.abs(y)) < 1e-8

    def test_emits_expected_files(self, small_run):
        _, _, out = small_run
        names = {p.name for p in out.iterdir()}
        assert names == {"spikes.txt", "recon.csv", "psd.csv", "report.json"}

    def test_report_schema_and_manifest(self, small_run):
        _, _, out = small_run
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 2
        assert list(report)[0] == "schema"
        manifest = {entry["name"]: entry for entry in report["files"]}
        assert set(manifest) == {"spikes.txt", "recon.csv", "psd.csv"}
        import hashlib

        for name, entry in manifest.items():
            blob = (out / name).read_bytes()
            assert entry["bytes"] == len(blob)
            assert entry["sha256"] == hashlib.sha256(blob).hexdigest()

    def test_spike_file_round_trips(self, small_run):
        _, _, out = small_run
        trains = {tr.channel: tr for tr in read_spike_file(out / "spikes.txt")}
        assert set(trains) == {"A", "B"}
        # writing the parsed trains again reproduces the file byte for byte
        from temcodec.tem import write_spike_file

        copy = out.parent / "copy.txt"
        write_spike_file(copy, [trains["A"], trains["B"]])
        assert copy.read_bytes() == (out / "spikes.txt").read_bytes()

    def test_snr_recomputable_from_csv(self, small_run):
        _, _, out = small_run
        report = json.loads((out / "report.json").read_text())
        rows = np.loadtxt(out / "recon.csv", delimiter=",", skiprows=1)
        t, x_true, x_hat = rows[:, 0], rows[:, 1], rows[:, 2]
        m = report["metrics"]
        central = (t >= m["central_start"]) & (t <= m["central_end"])
        snr = 10.0 * math.log10(
            float(np.sum(x_true[central] ** 2)) / float(np.sum((x_hat - x_true)[central] ** 2))
        )
        assert abs(snr - m["snr_db"]) <= 1e-9

    def test_rerun_is_byte_identical(self, small_run):
        tmp, cfg, out = small_run
        out2 = tmp / "out2"
        assert run_cli("run", cfg, "--out-dir", str(out2)) == 0
        for name in ("spikes.txt", "recon.csv", "psd.csv", "report.json"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_flag_overrides_recorded(self, small_run):
        tmp, cfg, _ = small_run
        out = tmp / "out_flags"
        assert run_cli(
            "run", cfg, "--out-dir", str(out),
            "--sv-cutoff", "1e-10",
        ) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["gram"]["sv_cutoff"] == 1e-10

    def test_bad_flag_values_exit_2(self, small_run):
        tmp, cfg, _ = small_run
        assert run_cli("run", cfg, "--quad-tol", "-1") == 2


class TestPnsRun:
    def test_samples_match_closed_form(self, tmp_path):
        from temcodec.signals import modulated_test_signal

        out = tmp_path / "pns"
        assert run_cli("run", str(CONFIG_DIR / "pns.cfg"), "--out-dir", str(out)) == 0
        rows = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
        t, x = rows[:, 1], rows[:, 2]
        sig = modulated_test_signal()
        assert t.size == 120
        assert np.max(np.abs(x - sig(t))) < 1e-9
        gaps = np.diff(t)
        assert np.allclose(gaps[0::2], 0.01, atol=1e-9)
        assert np.allclose(gaps[1::2], 1.0 / 30.0 - 0.01, atol=1e-9)


class TestCompare:
    def test_identical_reports_zero_deltas(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, ZERO_SINGLE)
        out = tmp_path / "out"
        assert run_cli("run", cfg, "--out-dir", str(out)) == 0
        rc = run_cli("compare", str(out / "report.json"), str(out / "report.json"))
        assert rc == 0
        lines = capsys.readouterr().out
        assert "spike_rate_delta  0" in lines
        assert "max_gap_delta     0" in lines

    def test_mismatched_windows_rejected(self, tmp_path):
        cfg_a = write_cfg(tmp_path, ZERO_SINGLE, "a.cfg")
        cfg_b = write_cfg(
            tmp_path, ZERO_SINGLE.replace("window_end = 0.5", "window_end = 0.6"), "b.cfg"
        )
        out_a, out_b = tmp_path / "oa", tmp_path / "ob"
        assert run_cli("run", cfg_a, "--out-dir", str(out_a)) == 0
        assert run_cli("run", cfg_b, "--out-dir", str(out_b)) == 0
        rc = run_cli("compare", str(out_a / "report.json"), str(out_b / "report.json"))
        assert rc == 2

    def test_unreadable_report_rejected(self, tmp_path):
        assert run_cli("compare", str(tmp_path / "nope.json"), str(tmp_path / "nope.json")) == 2


class TestOutputHelpers:
    def test_csv_rows_format_each_value_to_12_digits(self, tmp_path):
        from temcodec.experiment import _write_csv

        columns = (
            np.arange(6),
            np.array([-0.0, 5e-324, 1e300, 1.0 / 3.0, -2.5e-7, 123456789012345.0]),
            np.array([np.inf, -np.inf, np.nan, 0.1, 1e-5, -7.0]),
        )
        path = tmp_path / "x.csv"
        _write_csv(path, "i,a,b", columns)
        # one f"{v:.12g}" per value, joined by commas
        expect = "i,a,b\n" + "".join(
            ",".join(f"{v:.12g}" for v in row) + "\n" for row in zip(*columns)
        )
        assert path.read_bytes() == expect.encode("ascii")
        assert path.read_text().splitlines()[1:4] == [
            "0,-0,inf", "1,4.94065645841e-324,-inf", "2,1e+300,nan"]

    @pytest.mark.parametrize(
        "window, step, count",
        [((-1.0, 1.0), 1 / 1000, 2001), ((-20.0, 20.0), 1 / 1000, 40001),
         ((-1.0, 1.0), 0.3, 7), ((-0.3, 0.3), 1 / 500, 301)],
    )
    def test_grid_stays_inside_window(self, window, step, count):
        from temcodec.experiment import _snap_grid

        grid = _snap_grid(window, step)
        assert grid.size == count
        assert grid[0] == window[0]
        assert grid[-1] <= window[1]
        assert window[1] - grid[-1] < step
