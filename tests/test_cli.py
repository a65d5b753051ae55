import json
import math
import re
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from temcodec import experiment, recon
from temcodec.cli import main
from temcodec.experiment import PipelineError, compare_runs, load_config, run_experiment
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

SMALL_TWO_SIGNAL = (
    "kind = modulated_tone\ncarrier_hz = 50\nam_hz = 10\npm_hz = 5/2\namplitude = 2\n"
)
SMALL_TWO_TEM = "[tem]\nkappa = 1\ndelta = 1/60\nbias = 3\nalpha = 1/40\n"
SMALL_TWO_BAND = "[band]\nomega_l_hz = 35\nomega_u_hz = 65\n"
assert all(part in SMALL_TWO for part in (SMALL_TWO_SIGNAL, SMALL_TWO_TEM, SMALL_TWO_BAND))


def as_pns(s):
    """SMALL_TWO as a valid PNS config: its [tem] section becomes a [pns] one."""
    s = s.replace("mode = two_tem", "mode = pns")
    return s.replace(SMALL_TWO_TEM, "[pns]\nshift = 1/100\n")


def as_single(s):
    """SMALL_TWO as a valid single-channel config: no alpha, [recon] in place of [band]."""
    s = s.replace("mode = two_tem", "mode = single_tem").replace("alpha = 1/40\n", "")
    return s.replace(SMALL_TWO_BAND, "[recon]\nlowpass_cutoff_hz = 65\n")


def with_signal(body):
    """A mangle that turns SMALL_TWO into a PNS config whose [signal] keys are ``body``.

    PNS has no encoder, so no amplitude-bound check can reject the signal first.
    """
    def mangle(s):
        return as_pns(s).replace(SMALL_TWO_SIGNAL, body)

    return mangle


def short_window(end, single=False):
    """A mangle that moves SMALL_TWO's window to ``(0, end)``; with ``single``, a
    single-channel config with the single-channel preset's encoder (delta 1/260)."""
    def mangle(s):
        s = s.replace("window_start = -0.3", "window_start = 0")
        s = s.replace("window_end = 0.3", f"window_end = {end}")
        return as_single(s).replace("delta = 1/60", "delta = 1/260") if single else s

    return mangle


def pns_preset(window, guard=None, step=None):
    """A mangle that ignores its input: the PNS preset over ``window``, and with
    ``guard`` that guard fraction, with ``step`` that grid step."""
    def mangle(_):
        s = (CONFIG_DIR / "pns.cfg").read_text()
        s = s.replace("window_start = -1\n", f"window_start = {window[0]}\n")
        s = s.replace("window_end = 1\n", f"window_end = {window[1]}\n")
        if guard is not None:
            s = s.replace("guard_fraction = 0.15", f"guard_fraction = {guard}")
        if step is not None:
            s = s.replace("grid_step = 1/1000", f"grid_step = {step}")
        return s

    return mangle


def single_preset_tem(kappa, delta, bias):
    """A mangle that ignores its input: the single-channel preset with these [tem] values."""
    def mangle(_):
        s = (CONFIG_DIR / "single_channel.cfg").read_text()
        for key, value in (("kappa", kappa), ("delta", delta), ("bias", bias)):
            s, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", s, flags=re.M)
            assert n == 1
        return s

    return mangle


# the encoder's min_gap, 2*kappa*delta/(bias + bound), is 0 in floats here
UNDERFLOWING_GAP_BOUND = single_preset_tem("1e-200", "1e-200", "1e300")


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
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def run_cli(*args):
    return main(list(args))


def assert_metrics_recomputable(out):
    """The report's snr_db, max_abs_err and n_central follow exactly from recon.csv."""
    report = json.loads((out / "report.json").read_text())
    rows = np.loadtxt(out / "recon.csv", delimiter=",", skiprows=1)
    t, x_true, x_hat = rows[:, 0], rows[:, 1], rows[:, 2]
    m = report["metrics"]
    central = (t >= m["central_start"]) & (t <= m["central_end"])
    err = (x_hat - x_true)[central]
    snr = 10.0 * math.log10(float(np.sum(x_true[central] ** 2)) / float(np.sum(err ** 2)))
    assert snr == m["snr_db"]
    assert float(np.max(np.abs(err))) == m["max_abs_err"]
    assert int(np.count_nonzero(central)) == m["n_central"]


class Raw(str):
    """A JSON literal written into a report's text as is.

    ``json.dumps(math.inf)`` writes ``Infinity``, which ``compare`` rejects
    while parsing, before any report value is checked.
    """


@pytest.fixture(scope="module")
def preset_reports(tmp_path_factory):
    """The reports of runs of the single- and two-channel presets."""
    reports = {}
    for preset in ("single_channel", "two_channel"):
        out = tmp_path_factory.mktemp(preset)
        assert run_cli("run", str(CONFIG_DIR / f"{preset}.cfg"), "--out-dir", str(out)) == 0
        reports[preset] = json.loads((out / "report.json").read_text())
    return reports


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

    @pytest.mark.parametrize("preset, size", [
        ("single_channel.cfg", "2,001 grid points, 260 to 1,300 spikes per channel, "
                               "8 decoding blocks"),
        ("two_channel.cfg", "2,001 grid points, 60 to 300 spikes per channel, 8 decoding blocks"),
        ("pns.cfg", "2,001 grid points, 120 samples"),
    ])
    def test_presets_print_their_run_size(self, capsys, preset, size):
        # the counts a run of the preset makes: grid points, spikes (bounded by
        # span/max_gap and span/min_gap) or samples, and decoding blocks
        assert run_cli("validate", str(CONFIG_DIR / preset)) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"  run size: {size}"

    def test_spike_bounds_past_the_float_range_print_exactly(self, tmp_path, capsys):
        # span/min_gap of in-range numbers passes the float range (about 1e400 here):
        # the bounds are exact integers, not inf
        text = single_preset_tem("1e-100", "1e-100", "1e100")(None)
        for key, value in (("window_start", "-1e100"), ("window_end", "1e100"),
                           ("grid_step", "1e99")):
            text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
            assert n == 1
        path = write_cfg(tmp_path, text)
        assert run_cli("validate", path) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        match = re.fullmatch(r"  run size: 21 grid points, ([\d,]+) to ([\d,]+) spikes per "
                             r"channel, [\d,]+ decoding blocks", line)
        assert match is not None, line
        low, high = (int(group.replace(",", "")) for group in match.groups())
        params = load_config(path).tem_params
        assert (low, high) == tuple(round(Fraction(2e100) / Fraction(gap))
                                    for gap in (params.max_gap, params.min_gap))
        assert 0 < low <= high and high > 10**308

    def test_run_size_matches_the_run(self, tmp_path):
        # the sizes validate prints are those of the run, not a restatement of them
        cfg = experiment.load_config(CONFIG_DIR / "two_channel.cfg")
        size = experiment.run_size(cfg)
        report = experiment.run_experiment(cfg, tmp_path).data
        rows = (tmp_path / "recon.csv").read_text().count("\n") - 1  # less the header
        assert (size["grid_points"], size["blocks"]) == (rows, len(report["gram"]["blocks"]))
        low, high = size["spikes"]
        assert all(low <= report["spikes"][ch]["count"] <= high for ch in ("A", "B"))
        pns_cfg = experiment.load_config(CONFIG_DIR / "pns.cfg")
        report = experiment.run_experiment(pns_cfg, tmp_path / "pns").data
        assert experiment.run_size(pns_cfg)["samples"] == report["pns"]["count"]

    def test_missing_file(self):
        assert run_cli("validate", "/nonexistent/x.cfg") == 2

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda s: s.replace("mode = two_tem", "mode = warp_drive"),
            lambda s: s.replace("alpha = 1/40", "alpha = 1/20"),  # > 2*delta
            lambda s: s.replace("bias = 3", "bias = 1"),  # below signal bound
            lambda s: s.replace("window_end = 0.3", "window_end = -0.4"),
            lambda s: s.replace(SMALL_TWO_BAND, ""),
            lambda s: s.replace("grid_step = 1/500", "grid_step = 0.6"),
            lambda s: s.replace("grid_step = 1/500", "grid_stp = 1/500"),  # misspelt key
            lambda s: s + "\n[solver]\nsv_cutoff = nan\n",
            lambda s: s + "\n[solver]\nsv_cutoff = inf\n",
            lambda s: s + "\n[solver]\nsv_cutoff = -inf\n",
            lambda s: s + "\n[solver]\nsv_cutoff = -1\n",
            lambda s: s + "\n[solver]\nsv_cutoff = 0\n",
            lambda s: s + "\n[solver]\nsv_cutoff = 1\n",
            lambda s: s + "\n[solver]\nsv_cutoff = 2\n",
            lambda s: s + "\n[solver]\nspike_tol = 1e-10\n",  # no longer a key
            lambda s: s.replace("window_end = 0.3", "window_end = inf"),
            lambda s: s.replace("window_end = 0.3", "window_end = 1/0"),
            lambda s: s.replace("window_end = 0.3", "window_end = 1" + "0" * 400 + "/3"),
            with_signal("kind = tone\nfreq_hz = inf\n"),
            with_signal("kind = tone\nfreq_hz = nan\n"),
            with_signal("kind = tone\nphase = inf\n"),
            with_signal("kind = tone\namplitude = nan\n"),
            with_signal("kind = constant\nvalue = inf\n"),
        ],
    )
    def test_broken_configs_exit_2(self, tmp_path, mangle):
        cfg = write_cfg(tmp_path, mangle(SMALL_TWO))
        assert run_cli("validate", cfg) == 2

    @pytest.mark.parametrize(
        "body", ["kind = tone\nfreq_hz = 40\n", "kind = constant\nvalue = 1\n"]
    )
    def test_finite_signal_variants_are_valid(self, tmp_path, body):
        # with finite values the configs above validate: they fail on the value alone
        assert run_cli("validate", write_cfg(tmp_path, with_signal(body)(SMALL_TWO))) == 0

    @pytest.mark.parametrize(
        "mangle, key",
        [
            (lambda s: s.replace("delta = 1/60\n", ""), "missing tem.delta"),
            (lambda s: s.replace("omega_l_hz = 35", "omega_l_hz = abc"), "band.omega_l_hz"),
            (lambda s: s + "\n[solver]\nspike_tol = 1e-10\n", "solver.spike_tol"),
            (lambda s: s + "\n[solver]\nsv_cutoff = 1\n", "solver.sv_cutoff"),
            # the Gram tolerance is the constant recon.QUAD_TOL, and --out-dir
            # alone chooses the output directory
            (lambda s: s + "\n[solver]\nquad_tol = 1e-9\n", "solver.quad_tol"),
            (lambda s: s.replace("[experiment]\n", "[experiment]\nout_dir = runs/x\n"),
             "experiment.out_dir"),
            # values are literal text: "%" is not an interpolation
            (with_signal("kind = tone\nfreq_hz = 40%\n"), "signal.freq_hz"),
            # no setting selects the knot pairing
            (lambda s: s + "\n[solver]\npair_anchor = even\n", "solver.pair_anchor"),
            # a section the mode does not read is rejected key by key
            (lambda s: as_pns(s) + "\n[solver]\nsv_cutoff = 0.5\n", "solver.sv_cutoff"),
            (lambda s: as_single(s) + "\n" + SMALL_TWO_BAND, "band.omega_l_hz"),
            # range errors name the key whose value is out of range
            (lambda s: s.replace("alpha = 1/40", "alpha = 1/20"), "tem.alpha"),
            (lambda s: s.replace("delta = 1/60", "delta = -1/60"), "tem.delta"),
            (lambda s: s.replace("kappa = 1", "kappa = 0"), "tem.kappa"),
            (lambda s: s.replace("bias = 3", "bias = 1"), "tem.bias"),
            # band edges are reported in the Hz the config gives
            (lambda s: s.replace("omega_u_hz = 65", "omega_u_hz = 30"),
             "band.omega_u_hz must satisfy 0 < omega_l_hz < omega_u_hz, got (35.0, 30.0)"),
            (lambda s: s.replace("guard_fraction = 0.15", "guard_fraction = 0.5"),
             "experiment.guard_fraction"),
            (lambda s: s.replace("window_end = 0.3", "window_end = -0.4"),
             "experiment.window_end"),
            (lambda s: as_pns(s).replace("shift = 1/100", "shift = 1/10"), "pns.shift"),
            (lambda s: as_pns(s).replace("shift = 1/100", "shift = 1/90"), "pns.shift"),
            (lambda s: as_single(s).replace("lowpass_cutoff_hz = 65", "lowpass_cutoff_hz = 0"),
             "recon.lowpass_cutoff_hz"),
            # windows shorter than the span in which the encoder is sure to fire one
            # Gram row's spikes (15.4 ms single-channel, 58.3 ms two-channel)
            (short_window(0.005, single=True), "experiment.window_end"),
            (short_window(0.005), "experiment.window_end"),
            (short_window(0.012), "experiment.window_end"),
            (short_window(0.02), "experiment.window_end"),
            # numbers out of range, where the window span w1 - w0 would overflow to
            # inf, the grid point count w1 - w0 over the step too, and the
            # encoder's min_gap 2*kappa*delta/(bias + bound) would underflow to 0
            (pns_preset((-1e308, 1e308)), "experiment.window_start"),
            (pns_preset((-1e308, 1e308), guard=0), "experiment.window_start"),
            (pns_preset((-1, 1e10), step=1e-300), "experiment.grid_step"),
            (UNDERFLOWING_GAP_BOUND, f"tem.kappa must be {experiment.NUMBER_RANGE}, got '1e-200'"),
        ],
    )
    def test_config_error_names_the_key(self, tmp_path, capsys, mangle, key):
        cfg = write_cfg(tmp_path, mangle(SMALL_TWO))
        assert run_cli("validate", cfg) == 2
        assert key in capsys.readouterr().err

    def test_run_of_overflowing_grid_exits_2(self, tmp_path, capsys):
        # validated above; run once ended in an uncaught OverflowError (exit 1)
        cfg = write_cfg(tmp_path, pns_preset((-1, 1e10), step=1e-300)(SMALL_TWO))
        assert run_cli("run", cfg, "--out-dir", str(tmp_path / "out")) == 2
        assert "experiment.grid_step" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_of_underflowing_gap_bound_exits_2(self, tmp_path, capsys):
        # rejected before the encoder runs, as validate rejects it above
        cfg = write_cfg(tmp_path, UNDERFLOWING_GAP_BOUND(None))
        assert run_cli("run", cfg, "--out-dir", str(tmp_path / "out")) == 2
        assert "tem.kappa" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text",
        [
            SMALL_TWO.replace("mode = two_tem\n", "mode = two_tem\nmode = two_tem\n").encode(),
            (SMALL_TWO + "\n" + SMALL_TWO_BAND).encode(),  # [band] twice
            ("mode = two_tem\n" + SMALL_TWO).encode(),  # a key before any section header
            b"\xff\xfe" + SMALL_TWO.encode(),  # a UTF-16 byte-order mark
        ],
        ids=["duplicate_key", "duplicate_section", "no_section_header", "undecodable"],
    )
    def test_unparsable_file_exits_2_naming_the_path(self, tmp_path, capsys, text):
        path = tmp_path / "exp.cfg"
        path.write_bytes(text)
        assert run_cli("validate", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot parse config file") and str(path) in err

    @pytest.mark.parametrize("mangle", [short_window(0.016, single=True), short_window(0.059)])
    def test_window_just_above_one_row_span_runs(self, tmp_path, mangle):
        cfg = write_cfg(tmp_path, mangle(SMALL_TWO))
        assert run_cli("validate", cfg) == 0
        assert run_cli("run", cfg, "--out-dir", str(tmp_path / "out")) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["gram"]["rows"] >= 1

    @pytest.mark.parametrize("mangle", [as_pns, as_single])
    def test_other_mode_bases_are_valid(self, tmp_path, mangle):
        # the bases the section-rejection cases above build on validate as they are
        assert run_cli("validate", write_cfg(tmp_path, mangle(SMALL_TWO))) == 0

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

    def test_violation_only_quadrature_nodes_see_fails_at_encode(self, tmp_path):
        # the SMALL_TWO signal under a bias of 1.5: x + bias dips to -0.44 near
        # t = 0 between Newton points, inside brackets that still hold
        cfg = load_config(write_cfg(tmp_path, SMALL_TWO))
        cfg.tem_params = TemParams(kappa=1.0, delta=1.0 / 60.0, bias=1.5, amplitude_bound=1.0)
        with pytest.raises(PipelineError) as info:
            run_experiment(cfg, tmp_path / "out")
        assert info.value.stage == "encode"
        assert str(info.value.cause).startswith("spike 13: x + bias = -")
        assert not (tmp_path / "out" / "spikes.txt").exists()

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

    def test_report_schema_and_manifest(self, tmp_path):
        # a window of one core at SMALL_TWO's 65 Hz is one decoding block
        half = recon.BLOCK_CORE_HALF_PERIODS * math.pi / (TWO_PI * 65.0) / 2
        text = SMALL_TWO.replace("window_start = -0.3", f"window_start = {-half!r}")
        cfg = write_cfg(tmp_path, text.replace("window_end = 0.3", f"window_end = {half!r}"))
        out = tmp_path / "out"
        assert run_cli("run", cfg, "--out-dir", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 4
        assert list(report)[0] == "schema"
        assert report["window"] == [-half, half]
        gram = report["gram"]
        # the totals are the one block's own
        (block,) = gram["blocks"]
        assert block["core"] == report["window"]
        assert [gram[k] for k in ("rows", "cols", "effective_rank", "gap_premise_ok")] == [
            block[k] for k in ("rows", "cols", "effective_rank", "gap_premise_ok")]
        # cols counts knots; factor_cols is the width 2Q of the factors the solve sees
        assert block["factor_cols"] % 2 == 0 and block["factor_cols"] > 0
        controls = recon._blas_thread_controls()
        assert block["solve_blas_threads"] == (1 if controls is not None else None)
        manifest = {entry["name"]: entry for entry in report["files"]}
        assert set(manifest) == {"spikes.txt", "recon.csv", "psd.csv"}
        import hashlib

        for name, entry in manifest.items():
            blob = (out / name).read_bytes()
            assert entry["bytes"] == len(blob)
            assert entry["sha256"] == hashlib.sha256(blob).hexdigest()

    def test_two_channel_report_has_one_gap_premise(self, preset_reports):
        # the premise has one owner, the Gram system; merged keeps what it alone knows
        report = preset_reports["two_channel"]
        assert report["gram"]["gap_premise_ok"] is True
        assert "gap_premise_ok" not in report["merged"]
        assert "kernel_period" not in report["merged"]
        assert set(report["merged"]) == {"count", "max_gap"}

    @pytest.mark.parametrize("preset", ["single_channel", "two_channel"])
    def test_gram_totals_sum_the_preset_blocks(self, preset_reports, preset):
        report = preset_reports[preset]
        gram, blocks = report["gram"], report["gram"]["blocks"]
        cfg = load_config(CONFIG_DIR / f"{preset}.cfg")
        assert len(blocks) == experiment.run_size(cfg)["blocks"] > 1
        for key in ("rows", "cols", "effective_rank"):
            assert gram[key] == sum(block[key] for block in blocks)
        # the cores tile the window in order; spike ranges overlap by the guards
        assert blocks[0]["core"][0] == report["window"][0]
        assert blocks[-1]["core"][1] == report["window"][1]
        for before, after in zip(blocks, blocks[1:]):
            assert before["core"][1] == after["core"][0]
            assert after["spike_range"][0] < before["spike_range"][1]
        for block in blocks:
            width = block["factor_cols"]
            core_shape = (min(block["rows"], width), min(block["cols"], width))
            assert block["sv_cutoff"] == np.finfo(float).eps * max(core_shape)

    def test_gap_premise_holds_only_if_every_block_holds_it(self):
        blocks = [{"rows": 3, "cols": 3, "effective_rank": 2, "gap_premise_ok": ok}
                  for ok in (True, False, True)]
        gram = experiment._gram_dict(blocks)
        assert gram["gap_premise_ok"] is False
        assert (gram["rows"], gram["cols"], gram["effective_rank"]) == (9, 9, 6)
        assert experiment._gram_dict(blocks[:1])["gap_premise_ok"] is True

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
        assert_metrics_recomputable(out)

    def test_rerun_is_byte_identical(self, small_run):
        tmp, cfg, out = small_run
        out2 = tmp / "out2"
        assert run_cli("run", cfg, "--out-dir", str(out2)) == 0
        for name in ("spikes.txt", "recon.csv", "psd.csv", "report.json"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("to_mode", [as_single, lambda s: s, as_pns],
                             ids=["single_tem", "two_tem", "pns"])
    def test_sv_cutoff_is_the_rounding_floor_not_a_setting(self, small_run, capsys, to_mode):
        # the report records the cutoff the solve worked out, the rounding floor
        # of the smallest core that holds G's singular values, of shape
        # (min(rows, factor_cols), min(cols, factor_cols)); no mode reads a
        # [solver] section
        tmp, _, out = small_run
        for block in json.loads((out / "report.json").read_text())["gram"]["blocks"]:
            width = block["factor_cols"]
            core_shape = (min(block["rows"], width), min(block["cols"], width))
            assert block["sv_cutoff"] == np.finfo(float).eps * max(core_shape)
        cfg = write_cfg(tmp, to_mode(SMALL_TWO) + "\n[solver]\nsv_cutoff = 1e-8\n",
                        name="solver.cfg")
        assert run_cli("validate", cfg) == 2
        assert "solver.sv_cutoff" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--sv-cutoff", "--quad-tol"])
    def test_config_setting_flags_rejected(self, small_run, capsys, flag):
        # every run setting comes from the config file; argparse rejects the flag
        tmp, cfg, _ = small_run
        with pytest.raises(SystemExit) as info:
            run_cli("run", cfg, flag, "1e-8", "--out-dir", str(tmp / "out_flag"))
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp / "out_flag").exists()

    def test_report_compare_would_reject_is_not_written(self, tmp_path, monkeypatch):
        metrics = experiment._metrics
        monkeypatch.setattr(experiment, "_metrics",
                            lambda *args: {**metrics(*args), "snr_db": "80"})
        out = tmp_path / "out"
        with pytest.raises(PipelineError) as info:
            run_experiment(load_config(write_cfg(tmp_path, as_pns(SMALL_TWO))), out)
        assert info.value.stage == "write"
        assert "report 'metrics.snr_db' is not a number or null: '80'" in str(info.value)
        assert not (out / "report.json").exists()

    def test_unbuildable_grid_exits_3_at_evaluate(self, tmp_path, capsys):
        # (0, 1e90) validates, but its evaluation grid has more points than an
        # array can hold: the run fails at a named stage and makes no directory
        cfg = write_cfg(tmp_path, pns_preset((0, 1e90))(None))
        assert run_cli("validate", cfg) == 0
        capsys.readouterr()
        assert run_cli("run", cfg, "--out-dir", str(tmp_path / "out")) == 3
        assert "pipeline failure at stage 'evaluate'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_uncreatable_out_dir_exits_3_at_write(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli("run", str(CONFIG_DIR / "pns.cfg"), "--out-dir", str(blocker)) == 3
        assert "pipeline failure at stage 'write'" in capsys.readouterr().err
        with pytest.raises(PipelineError) as info:
            run_experiment(load_config(CONFIG_DIR / "pns.cfg"), blocker / "sub")
        assert info.value.stage == "write"


class TestPnsRun:
    def test_metrics_recomputable_from_csv(self, tmp_path):
        out = tmp_path / "pns"
        assert run_cli("run", str(CONFIG_DIR / "pns.cfg"), "--out-dir", str(out)) == 0
        assert_metrics_recomputable(out)

    def test_samples_match_closed_form(self, tmp_path, test_signal):
        out = tmp_path / "pns"
        assert run_cli("run", str(CONFIG_DIR / "pns.cfg"), "--out-dir", str(out)) == 0
        rows = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
        t, x = rows[:, 1], rows[:, 2]
        assert t.size == 120
        assert np.max(np.abs(x - test_signal(t))) < 1e-9
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

    @pytest.mark.parametrize("preset", ["single_channel", "two_channel", "pns"])
    def test_every_preset_report_compares_with_itself(self, tmp_path, preset):
        # run checks its report against the table compare reads
        out = tmp_path / "out"
        assert run_cli("run", str(CONFIG_DIR / f"{preset}.cfg"), "--out-dir", str(out)) == 0
        path = str(out / "report.json")
        assert run_cli("compare", path, path) == 0
        report = json.loads((out / "report.json").read_text())
        table = compare_runs(report, report)
        no_spikes = preset == "pns"
        assert table["spike_rate_delta"] == (None if no_spikes else 0.0)
        assert table["mean_gap_ratio"] == (None if no_spikes else 1.0)
        assert table["max_gap_delta"] == (None if no_spikes else 0.0)
        assert table["snr_db_delta"] == 0.0

    def test_spike_rate_of_a_window_whose_span_overflows(self, preset_reports):
        # w1 - w0 overflows to inf on [-1e308, 1e308], which once gave a rate of 0.0;
        # its ends are out of range, and the widest in-range window gives a normal rate
        report = dict(preset_reports["two_channel"])
        preset_rate = compare_runs(report, report)["spike_rate_a"]
        assert preset_rate == 90.0  # 180 spikes a channel over 2 s
        report["window"] = [-1e308, 1e308]
        with pytest.raises(ValueError, match=r"^report_a 'window' is not two increasing numbers"):
            compare_runs(report, report)
        report["window"] = [-1e100, 1e100]
        table = compare_runs(report, report)
        # 180 spikes a channel over 2e100 s, the preset's span times 1e100
        assert table["spike_rate_a"] == preset_rate / 1e100
        assert table["spike_rate_delta"] == 0.0

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

    @pytest.mark.parametrize("text, named", [("{}", "'window' key"), ("[1]", "list")])
    def test_non_report_json_rejected(self, small_run, tmp_path, capsys, text, named):
        _, _, out = small_run
        other = tmp_path / "other.json"
        other.write_text(text)
        assert run_cli("compare", str(out / "report.json"), str(other)) == 2
        err = capsys.readouterr().err
        assert err.startswith("compare error: report_b") and named in err

    @pytest.mark.parametrize("path, value, named", [
        (("spikes",), {"B": {"gap_mean": 0.01, "gap_max": 0.02}},
         "channel 'B' has no 'count' key"),
        (("spikes",), {"B": {"count": 9, "gap_max": 0.02}}, "channel 'B' has no 'gap_mean' key"),
        (("spikes",), {"B": {"count": 9, "gap_mean": 0.01}}, "channel 'B' has no 'gap_max' key"),
        (("spikes",), {"A": 3}, "channel 'A' is a JSON int, not an object"),
        (("spikes",), [1, 2], "'spikes' is a JSON list"),
        # mistyped values compare reads
        (("spikes", "B", "count"), "780", "channel 'B' 'count' is not an integer"),
        (("spikes", "B", "count"), 9.5, "channel 'B' 'count' is not an integer"),
        (("spikes", "B", "count"), True, "channel 'B' 'count' is not an integer"),
        (("spikes", "B", "gap_max"), "x", "channel 'B' 'gap_max' is not a number or null"),
        (("spikes", "B", "gap_mean"), [0.01], "channel 'B' 'gap_mean' is not a number or null"),
        (("window",), "ab", "'window' is not two increasing numbers"),
        (("window",), [-0.3], "'window' is not two increasing numbers"),
        (("window",), [-0.3, "0.3"], "'window' is not two increasing numbers"),
        (("window",), [0.3, -0.3], "'window' is not two increasing numbers"),
        (("metrics", "snr_db"), "80", "'metrics.snr_db' is not a number or null"),
        (("spikes", "B", "count"), -5, "channel 'B' 'count' is not an integer >= 0: -5"),
        # literals that parse to inf, or to an int past the float range
        pytest.param(("metrics", "snr_db"), Raw("1e999"),
                     "'metrics.snr_db' is not a number or null: inf", id="snr_db-1e999"),
        pytest.param(("window", 1), Raw("1e999"),
                     "'window' is not two increasing numbers: [-0.3, inf]", id="window-1e999"),
        pytest.param(("spikes", "B", "gap_mean"), Raw("1e999"),
                     "channel 'B' 'gap_mean' is not a number or null: inf", id="gap_mean-1e999"),
        pytest.param(("spikes", "B", "count"), Raw("9" * 400),
                     "channel 'B' 'count' is not an integer >= 0", id="count-400-digits"),
        pytest.param(("spikes", "B", "gap_mean"), Raw("9" * 400),
                     "channel 'B' 'gap_mean' is not a number or null", id="gap_mean-400-digits"),
        # counts past 2**53, whose sum once passed the float range
        pytest.param(("spikes",), {ch: {"count": 10**308, "gap_mean": 0.01, "gap_max": 0.02}
                                   for ch in "AB"},
                     "channel 'A' 'count' is not an integer >= 0", id="count-sum-overflow"),
        pytest.param(("spikes", "B", "count"), 2**53 + 1, "channel 'B' 'count' is not an "
                     f"integer >= 0: 9007199254740993 (a number is {experiment.NUMBER_RANGE}, "
                     "a count at most 2**53)", id="count-past-2**53"),
    ])
    def test_malformed_report_value_rejected(self, small_run, tmp_path, capsys, path, value,
                                             named):
        _, _, out = small_run
        report = json.loads((out / "report.json").read_text())
        entry = report
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        text = json.dumps(report)
        if isinstance(value, Raw):
            text = text.replace(json.dumps(value), value)
            assert value in text and json.dumps(value) not in text
        other = tmp_path / "other.json"
        other.write_text(text)
        assert run_cli("compare", str(out / "report.json"), str(other)) == 2
        err = capsys.readouterr().err
        assert err.startswith("compare error: report_b") and named in err

    @pytest.mark.parametrize("edits_a, edits_b, named", [
        # values from which a rate, mean, ratio or delta would pass the float range
        # are out of range themselves
        pytest.param({("window",): [0.0, 1e-310]}, {("window",): [0.0, 1e-310]},
                     "report_a 'window' is not two increasing numbers: [0.0, 1e-310]",
                     id="subnormal-window"),
        # the least subnormal span: w1/2 - w0/2 rounds to 0 there
        pytest.param({("window",): [0.0, 5e-324]}, {("window",): [0.0, 5e-324]},
                     "report_a 'window' is not two increasing numbers: [0.0, 5e-324]",
                     id="least-subnormal-window"),
        pytest.param({("metrics", "snr_db"): -1e308}, {("metrics", "snr_db"): 1e308},
                     "report_a 'metrics.snr_db' is not a number or null: -1e+308",
                     id="snr_db-delta"),
        pytest.param({("spikes", ch, "gap_max"): -1e308 for ch in "AB"},
                     {("spikes", "A", "gap_max"): 1e308},
                     "report_a spikes channel 'A' 'gap_max' is not a number or null: -1e+308",
                     id="gap_max-delta"),
        pytest.param({("spikes", ch, "gap_max"): -10**308 for ch in "AB"},
                     {("spikes", ch, "gap_max"): 10**308 for ch in "AB"},
                     "report_a spikes channel 'A' 'gap_max' is not a number or null: -1000",
                     id="gap_max-int-delta"),
        pytest.param({("spikes", ch, "gap_mean"): 1e-300 for ch in "AB"},
                     {("spikes", ch, "gap_mean"): 1e300 for ch in "AB"},
                     "report_a spikes channel 'A' 'gap_mean' is not a number or null: 1e-300",
                     id="gap_mean-ratio"),
        pytest.param({}, {("spikes", ch, "gap_mean"): 1e308 for ch in "AB"},
                     "report_b spikes channel 'A' 'gap_mean' is not a number or null: 1e+308",
                     id="gap_mean-sum"),
    ])
    def test_table_value_past_the_float_range_rejected(self, small_run, tmp_path, capsys,
                                                         edits_a, edits_b, named):
        _, _, out = small_run
        paths = []
        for name, edits in (("a", edits_a), ("b", edits_b)):
            report = json.loads((out / "report.json").read_text())
            for path, value in edits.items():
                entry = report
                for key in path[:-1]:
                    entry = entry[key]
                entry[path[-1]] = value
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(report, allow_nan=False))
        assert run_cli("compare", *map(str, paths)) == 2
        assert capsys.readouterr().err.startswith(f"compare error: {named}")

    @pytest.mark.parametrize("value, token", [
        (math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")])
    def test_non_finite_token_rejected(self, small_run, tmp_path, capsys, value, token):
        # json.loads accepts these tokens; no run writes them (allow_nan=False)
        _, _, out = small_run
        report = json.loads((out / "report.json").read_text())
        report["metrics"]["snr_db"] = value
        other = tmp_path / "other.json"
        other.write_text(json.dumps(report))
        assert token in other.read_text()
        assert run_cli("compare", str(out / "report.json"), str(other)) == 2
        assert capsys.readouterr().err == (
            f"cannot read report {other}: {token} is not a JSON number\n")


# experiment.NUMBER_RANGE: 0, or a magnitude in [LO, HI]
LO, HI = experiment.NUMBER_MIN, experiment.NUMBER_MAX
MAGNITUDES = (st.sampled_from([LO, HI, 1.0]) | st.floats(LO, HI) | st.floats(
    math.log10(LO), math.log10(HI)).map(lambda e: min(max(10.0 ** e, LO), HI)))
NUMBERS = st.just(0.0) | MAGNITUDES.flatmap(lambda m: st.sampled_from([m, -m]))


PRESET_TEXTS = [(CONFIG_DIR / f"{preset}.cfg").read_text()
                for preset in ("single_channel", "two_channel", "pns")]
REPLACE = st.sampled_from([False, False, False, True])  # a quarter of the numbers


@st.composite
def in_range_configs(draw):
    """A preset config with any of its numbers replaced by in-range numbers."""
    def replace(match):
        return f"{match[1]} = {draw(NUMBERS)!r}" if draw(REPLACE) else match[0]

    return re.sub(r"^(\w+) = ([-\d./]+)$", replace, draw(st.sampled_from(PRESET_TEXTS)),
                  flags=re.M)


@st.composite
def in_range_report_pairs(draw):
    """Two reports of one window and signal, each value compare reads in range."""
    w0, w1 = sorted(draw(st.lists(NUMBERS, min_size=2, max_size=2)))
    assume(w0 < w1)

    def report():
        names = draw(st.lists(st.sampled_from(["A", "B", "single", "merged"]), max_size=3,
                              unique=True))
        rep = {"window": [w0, w1], "signal": {},
               "metrics": {"snr_db": draw(NUMBERS | st.none())}}
        if names or draw(st.booleans()):
            rep["spikes"] = {name: {"count": draw(st.integers(0, 2**53)),
                                    "gap_mean": draw(NUMBERS | st.none()),
                                    "gap_max": draw(NUMBERS | st.none())} for name in names}
        return rep

    return report(), report()


class TestNumberRange:
    """Every number read from a config or a report lies in range, so that no check after
    it needs a guard against a quantity derived from it overflowing or underflowing."""

    @settings(max_examples=400, deadline=None)
    @given(text=in_range_configs())
    @example(text=single_preset_tem(LO, LO, HI)(None))  # the least min_gap in range
    def test_in_range_config_loads_and_sizes_or_is_rejected(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "in_range.cfg"
        path.write_text(text)
        try:
            cfg = load_config(path)
        except experiment.ConfigError:
            return
        size = experiment.run_size(cfg)
        assert size["grid_points"] >= 1
        if cfg.tem_params is not None:
            assert 0 < cfg.tem_params.min_gap <= cfg.tem_params.max_gap < math.inf
            assert all(isinstance(bound, int) for bound in size["spikes"])
            assert size["blocks"] >= 1

    @settings(max_examples=400, deadline=None)
    @given(reports=in_range_report_pairs())
    def test_in_range_reports_compare_to_finite_values(self, reports):
        table = compare_runs(*reports)
        for key, value in table.items():
            assert key == "window" or value is None or math.isfinite(value), key


EDGE_VALUES = [-0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan, 1.0 / 3.0, -2.5e-7]


class TestOutputHelpers:
    # chunks*CSV_CHUNK_ROWS + extra rows: 0, 1, chunk - 1, chunk, chunk + 1, 2*chunk + 1
    @pytest.mark.parametrize("chunks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
    def test_chunked_csv_equals_per_value_format(self, tmp_path, chunks, extra):
        from temcodec.experiment import CSV_CHUNK_ROWS, _write_csv

        n = chunks * CSV_CHUNK_ROWS + extra
        rng = np.random.default_rng(n)
        floats = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        floats[: len(EDGE_VALUES)] = EDGE_VALUES[:n]
        columns = (np.arange(n), floats, floats[::-1].copy())
        path = tmp_path / "x.csv"
        _write_csv(path, "i,a,b", columns)
        expect = "i,a,b\n" + "".join(
            ",".join(f"{v:.12g}" for v in row) + "\n" for row in zip(*columns)
        )
        assert path.read_bytes() == expect.encode("ascii")
        assert len(path.read_text().splitlines()) == n + 1

    # sizes 0, 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1 and 3*CSV_CHUNK_ROWS + 7
    @pytest.mark.parametrize("chunks, extra", [(0, 0), (0, 1), (1, 0), (1, 1), (3, 7)])
    def test_snap_equals_per_value_snap_time(self, monkeypatch, chunks, extra):
        from temcodec import tem
        from temcodec.experiment import CSV_CHUNK_ROWS, _snap

        n = chunks * CSV_CHUNK_ROWS + extra
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        values[: len(EDGE_VALUES)] = EDGE_VALUES[:n]
        expect = np.array([tem.snap_time(v) for v in values], dtype=float)
        seen = []
        real = tem.snap_time

        def counting(v):
            seen.append(v)
            return real(v)

        monkeypatch.setattr(tem, "snap_time", counting)
        snapped = _snap(values)
        assert snapped.dtype == np.float64 and snapped.shape == values.shape
        assert snapped.tobytes() == expect.tobytes()
        # one snap_time call per value, in order
        assert len(seen) == n
        assert np.array_equal(seen, values, equal_nan=True)

    def test_csv_holds_one_chunk_of_rows(self, tmp_path):
        # a 40 s record's recon.csv, 40,001 rows of 4 columns: its rows' numbers and
        # text live a chunk at a time, 0.16 MB above the columns (0.31 MB in chunks
        # of 1024 rows, which then set the two-channel preset's peak)
        from temcodec.experiment import _write_csv

        n = 40_001
        rng = np.random.default_rng(4)
        columns = (np.linspace(-20.0, 20.0, n),) + tuple(rng.standard_normal(n) for _ in range(3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _write_csv(tmp_path / "x.csv", "t,a,b,c", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 0.175e6

    def test_manifest_reads_through_one_buffer(self, tmp_path):
        # a 1 MB file is hashed 64 kB at a time through one reused buffer (137 kB
        # above the base when each read made a new block, kept while the next was read)
        import hashlib

        from temcodec.experiment import _manifest

        (tmp_path / "big").write_bytes(np.random.default_rng(5).bytes(1 << 20))
        (tmp_path / "empty").write_bytes(b"")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            entries = _manifest(tmp_path, ["big", "empty"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 0.1e6
        assert entries == [
            {"name": name, "bytes": (tmp_path / name).stat().st_size,
             "sha256": hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()}
            for name in ("big", "empty")]

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
