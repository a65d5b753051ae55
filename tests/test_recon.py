import dataclasses
import functools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import temcodec
from temcodec.signals import (
    BandSpec, Constant, Tone, SignalSum, TWO_PI, integrate_columns,
)
from temcodec.tem import (
    SpikeTrain, TemParams, amplitude_integrals, encode, encode_two_channel, interleave,
)
from temcodec import experiment, recon, signals
from temcodec.pns import PnsGrid, sample_pns
from temcodec.recon import (
    DegenerateShiftError,
    DegenerateSystemError,
    ReconModel,
    bandpass_segments,
    build_gram_bandpass,
    build_gram_lowpass,
    evaluate_model,
    lowpass_segments,
    pair_shifts,
    solve_coefficients,
)

from kernel_oracle import closed_form_gbp
from recon_pipeline import hand_made_system, reconstruct_bandpass, reconstruct_lowpass


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
PRESETS = ("single_channel", "two_channel", "pns")


def uniform_interleaved(period, shift, n):
    t = np.empty(2 * n)
    t[0::2] = period * np.arange(n)
    t[1::2] = period * np.arange(n) + shift
    return t


def gram_at(quad_tol, starts, ends, segments):
    """Dense ``G`` of the rows ``[starts, ends]``, built with ``recon.QUAD_TOL`` at ``quad_tol``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recon, "QUAD_TOL", quad_tol)
        return recon._gram_system(starts, ends, segments, np.zeros(starts.size)).matrix


def lowpass_gram(times, omega, quad_tol):
    """Dense ``G`` of ``build_gram_lowpass`` on spike ``times``, assembled at ``quad_tol``."""
    return gram_at(quad_tol, times[:-1], times[1:], lowpass_segments(times.size - 1, omega))


def bandpass_knots(times):
    """Knot times, pair shifts and reflected-knot mask of merged ``times``, as
    ``build_gram_bandpass`` places them: knot ``l`` at the midpoint of ``[t[l], t[l+2]]``,
    the B knots (odd ``l``) reflected."""
    t = np.asarray(times, dtype=float)
    shifts = pair_shifts(t)
    return 0.5 * (t[:-2] + t[2:]), shifts, np.arange(shifts.size) % 2 == 1


def bandpass_gram(times, band, quad_tol):
    """Dense ``G`` of ``build_gram_bandpass`` on merged ``times``, assembled at ``quad_tol``."""
    _, shifts, reflected = bandpass_knots(times)
    return gram_at(quad_tol, times[:-2], times[2:], bandpass_segments(shifts, reflected, band))


class TestPairShifts:
    def test_three_times_single_knot(self):
        knots, shifts, _ = bandpass_knots([0.0, 1.0, 2.0])
        assert np.array_equal(knots, [1.0])
        assert np.array_equal(shifts, [1.0])

    def test_uniform_record_recovers_channel_shift(self):
        T, d = 0.05, 0.017
        knots, shifts, reflected = bandpass_knots(uniform_interleaved(T, d, 12))
        # knots are sample instants pushed half a period up
        assert np.allclose(knots[0::2], T * np.arange(11) + T / 2, atol=1e-12)
        assert np.allclose(shifts, d, atol=1e-12)
        assert not reflected[0] and reflected[1]

    def test_jittered_records_of_both_parities(self):
        # merged counts 4..61 give knot counts 2..59, odd and even alike
        rng = np.random.default_rng(7)
        for count in range(4, 62):
            knots, shifts, reflected = bandpass_knots(np.cumsum(rng.uniform(0.5, 1.5, count)))
            n = knots.size
            end = n // 2 * 2
            gap = knots[1:end:2] - knots[0:end:2]
            # each pair (2j, 2j+1) shares its own gap
            assert np.array_equal(shifts[0:end:2], gap)
            assert np.array_equal(shifts[1:end:2], gap)
            # a trailing unpaired knot copies its predecessor's shift
            assert shifts.size == n
            assert n == end or shifts[-1] == shifts[-2]
            assert np.array_equal(np.flatnonzero(reflected), np.arange(1, n, 2))

    def test_knots_strictly_increasing(self, two_channel_record):
        _, _, _, merged = two_channel_record
        knots, shifts, _ = bandpass_knots(merged.times)
        assert np.all(np.diff(knots) > 0.0)
        assert np.all(shifts > 0.0)

    def test_too_few_times_rejected(self):
        with pytest.raises(ValueError):
            pair_shifts([0.0, 1.0])

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            pair_shifts([0.0, 1.0, 1.0])


@pytest.fixture(scope="module")
def small_system(test_signal):
    params = TemParams(1.0, 1.0 / 260.0, 3.0, 2.0)
    train = encode(test_signal, params, (-0.15, 0.15))
    return train, build_gram_lowpass(train, TWO_PI * 65.0)


class TestGramLowpass:

    def test_shape_and_rhs(self, small_system):
        train, system = small_system
        n = len(train) - 1
        assert system.matrix.shape == (n, n)
        p = train.params
        expect = 2.0 * p.kappa * p.delta - p.bias * np.diff(train.times)
        assert np.array_equal(system.rhs, expect)

    def test_entries_match_sine_integral_closed_form(self, small_system):
        # int sin(w(u-s))/(pi(u-s)) du = [Si(w(u-s))/pi] between the endpoints
        train, system = small_system
        t = train.times
        omega = TWO_PI * 65.0  # the fixture's cutoff
        s = system.knot_times
        upper = scipy.special.sici(omega * (t[1:, None] - s[None, :]))[0]
        lower = scipy.special.sici(omega * (t[:-1, None] - s[None, :]))[0]
        oracle = (upper - lower) / np.pi
        assert np.max(np.abs(system.matrix - oracle)) < 2e-9

    def test_symmetric_interval_positive_value(self):
        # interval centred on its own knot: 2*Si(omega*h)/pi, positive
        omega = TWO_PI * 65.0
        params = TemParams(1.0, 0.002, 3.0, 0.0)
        train = SpikeTrain(np.array([0.1, 0.104]), "single", params, (0.0, 0.2))
        system = build_gram_lowpass(train, omega)
        h = 0.002
        expect = 2.0 * scipy.special.sici(omega * h)[0] / np.pi
        assert system.matrix[0, 0] == pytest.approx(expect, abs=1e-10)
        assert system.matrix[0, 0] > 0.0

    def test_needs_two_spikes(self):
        params = TemParams(1.0, 0.002, 3.0, 0.0)
        train = SpikeTrain(np.array([0.1]), "single", params, (0.0, 0.2))
        with pytest.raises(ValueError):
            build_gram_lowpass(train, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        quad_tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
        omega=st.floats(min_value=TWO_PI * 5.0, max_value=TWO_PI * 120.0),
        periods=st.lists(st.floats(min_value=0.01, max_value=4.0), min_size=1, max_size=10),
        start=st.floats(min_value=-1.0, max_value=1.0),
    )
    # short records: one 65 Hz interval of 0.1 ms, 1 ms, 10 ms and 0.1 s, and
    # five short gaps
    @example(quad_tol=1e-9, omega=TWO_PI * 65.0, periods=[0.0065], start=0.0)
    @example(quad_tol=1e-12, omega=TWO_PI * 65.0, periods=[0.065], start=0.3)
    @example(quad_tol=1e-9, omega=TWO_PI * 65.0, periods=[0.65], start=-0.2)
    @example(quad_tol=1e-6, omega=TWO_PI * 65.0, periods=[6.5], start=0.0)
    @example(quad_tol=1e-12, omega=TWO_PI * 65.0, periods=[0.01, 0.2, 0.05, 0.3, 0.02], start=0.7)
    def test_entries_within_quad_tol_of_closed_form(self, quad_tol, omega, periods, start):
        # spike gaps from a hundredth of a kernel period 2*pi/omega to four periods
        times = start + (TWO_PI / omega) * np.concatenate([[0.0], np.cumsum(periods)])
        s = 0.5 * (times[:-1] + times[1:])
        upper = scipy.special.sici(omega * (times[1:, None] - s[None, :]))[0]
        lower = scipy.special.sici(omega * (times[:-1, None] - s[None, :]))[0]
        gram = lowpass_gram(times, omega, quad_tol)
        assert np.max(np.abs(gram - (upper - lower) / np.pi)) <= quad_tol

    def test_builder_assembles_at_quad_tol(self, small_system):
        # the bound tests above call the builder's assembly at other tolerances
        train, system = small_system
        gram = lowpass_gram(train.times, TWO_PI * 65.0, recon.QUAD_TOL)
        assert np.array_equal(system.matrix, gram)

    def test_ten_second_interval_matches_closed_form(self):
        # a 10 s gap spans 650 kernel periods; centred on its knot the entry is
        # 2*Si(omega*5)/pi, and the rule's order grows with the span to meet it
        omega = TWO_PI * 65.0
        params = TemParams(1.0, 0.002, 3.0, 0.0)
        train = SpikeTrain(np.array([0.0, 10.0]), "single", params, (0.0, 10.0))
        system = build_gram_lowpass(train, omega)
        expect = 2.0 * scipy.special.sici(omega * 5.0)[0] / np.pi
        assert abs(system.matrix[0, 0] - expect) <= recon.QUAD_TOL

    def test_three_second_record_rows_within_quad_tol(self, test_signal):
        # the single-channel preset's spike rate over 3 s: the nu rule needs
        # more than 256 nodes, and sampled rows still meet quad_tol
        omega = TWO_PI * 65.0
        params = TemParams(1.0, 1.0 / 260.0, 3.0, 2.0)
        train = encode(test_signal, params, (-1.5, 1.5))
        system = build_gram_lowpass(train, omega)
        assert system.right.shape[1] > 2 * 256
        t, s = train.times, system.knot_times
        rows = np.arange(0, len(train) - 1, 37)
        upper = scipy.special.sici(omega * (t[rows + 1, None] - s[None, :]))[0]
        lower = scipy.special.sici(omega * (t[rows, None] - s[None, :]))[0]
        entries = system.left[rows, :-1] @ system.right.T
        assert np.max(np.abs(entries - (upper - lower) / np.pi)) <= recon.QUAD_TOL


@pytest.fixture(scope="module")
def preset_records():
    """Per single- and two-channel preset, :func:`preset_record`: the config, the
    snapped spike record the pipeline writes, the kernel's highest frequency and
    the row stride."""
    return {name: preset_record(name) for name in ("single_channel", "two_channel")}


@pytest.fixture(scope="module")
def preset_systems(preset_records):
    """The Gram systems of the single- and two-channel presets' whole records."""
    cfg, train, _, _ = preset_records["single_channel"]
    two, merged, _, _ = preset_records["two_channel"]
    return {"single_channel": build_gram_lowpass(train, cfg.lowpass_cutoff),
            "two_channel": build_gram_bandpass(merged, two.band)}


def preset_rows(preset_records, preset):
    """The row intervals ``(starts, ends)`` of ``preset``'s whole-record system."""
    _, record, _, stride = preset_records[preset]
    return record.times[:-stride], record.times[stride:]


def test_knot_times_are_the_row_midpoints_bit_for_bit(preset_records, preset_systems,
                                                     band_35_65):
    # a jittered record without its last B spike: an odd knot count, the last knot unpaired
    full = jittered_record(band_35_65, 0.4, 5)
    t = full.times[:-1]
    odd = dataclasses.replace(full, times=t)
    odd_system = build_gram_bandpass(odd, band_35_65)
    assert odd_system.knot_times.size % 2 == 1
    assert odd_system.knot_times.tobytes() == (0.5 * (t[:-2] + t[2:])).tobytes()
    assert odd_system.rhs.size == t.size - 2
    for preset, system in preset_systems.items():
        starts, ends = preset_rows(preset_records, preset)
        assert starts.size == ends.size == system.rhs.size
        assert system.knot_times.tobytes() == (0.5 * (starts + ends)).tobytes()


def brute_force_order(h, k_max, a_max, tol):
    """The plain rule's least order by its error bound (see ``recon._gl_order``), minimised
    over a dense grid of Bernstein parameters ``rho``."""
    rho = 1.0 + np.logspace(-8.0, 8.0, 200_001)
    bound = (np.log(0.5 * h * (64.0 / 15.0) * k_max) + 0.25 * a_max * h * (rho - 1.0 / rho)
             - np.log(rho * rho - 1.0) - np.log(tol))
    return int(np.ceil(max(2.0, np.min(1.0 + bound / (2.0 * np.log(rho))))))


def gram_orders(preset_records, preset, system):
    """The rule orders ``recon._gram_system`` asks for on ``preset``'s whole record."""
    got, rule = [], signals.gauss_legendre
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recon, "gauss_legendre", lambda order: got.append(order) or rule(order))
        recon._gram_system(*preset_rows(preset_records, preset), system.segments, system.rhs)
    return got


class TestGramRule:
    @pytest.mark.parametrize("h, k_max, a_max, tol", [
        (TWO_PI * 65.0, 2.0 / (260.0 * np.pi), 2.0, 1e-9),  # the lowpass preset
        (TWO_PI * 10.0, 1e-4, 2.0, 5e-10),  # the bandpass preset's two segments
        (TWO_PI * 20.0, 1.2e-4, 2.0, 5e-10),
        (TWO_PI * 65.0, 0.01, 0.01, 1e-6),
        (TWO_PI * 65.0, 0.01, 0.1, 1e-12),
        (TWO_PI * 65.0, 0.01, 0.4, 1e-9),
        (TWO_PI * 65.0, 0.01, 10.0, 1e-11),
        (TWO_PI * 65.0, 0.01, 40.0, 1e-9),
        (TWO_PI * 30.0, 5.0, 3.0, 1e-6),
        (1e-3, 1.0, 1.0, 1e-9),
    ])
    def test_order_is_the_dense_grid_minimum(self, h, k_max, a_max, tol):
        assert recon._gl_order(h, k_max, a_max, tol) == brute_force_order(h, k_max, a_max, tol)

    @pytest.mark.parametrize("order", [2, 15, 46, 234])
    def test_rule_is_cached_read_only(self, order):
        nodes, weights = signals.gauss_legendre(order)
        again = signals.gauss_legendre(order)
        assert again[0] is nodes and again[1] is weights
        assert not nodes.flags.writeable and not weights.flags.writeable
        x, c = np.polynomial.legendre.leggauss(order)
        assert nodes.tobytes() == x.tobytes() and weights.tobytes() == c.tobytes()

    def test_encoder_panels_use_the_cached_rule(self):
        assert signals._GL_NODES is signals.gauss_legendre(15)[0]
        assert signals._GL_WEIGHTS is signals.gauss_legendre(15)[1]

    def test_preset_orders(self, preset_records, preset_systems):
        got = {name: gram_orders(preset_records, name, system)
               for name, system in preset_systems.items()}
        assert got == {"single_channel": [234], "two_channel": [46, 81]}

    def test_preset_factor_widths(self, preset_systems):
        assert preset_systems["single_channel"].right.shape[1] == 468
        assert preset_systems["two_channel"].right.shape[1] == 254

    def test_import_and_config_loading_build_no_gram_rule(self):
        # the cache holds the encoder's 15-point rule, made at import, and nothing else
        probe = (
            "import sys\n"
            "import temcodec\n"
            "from temcodec import signals\n"
            "from temcodec.experiment import load_config\n"
            "for path in sys.argv[1:]:\n"
            "    load_config(path)\n"
            "print(signals.gauss_legendre.cache_info().currsize)\n"
            "signals.gauss_legendre(15)\n"
            "print(signals.gauss_legendre.cache_info().currsize)\n"
        )
        src = str(Path(temcodec.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", probe, *(str(CONFIG_DIR / f"{p}.cfg") for p in PRESETS)],
            capture_output=True, text=True, check=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.stdout.split() == ["1", "1"]


# A fresh interpreter's first run of a config: prints the tracemalloc peak in bytes.
FIRST_USE_PROBE = """
import sys, tempfile, tracemalloc
from temcodec.experiment import load_config, run_experiment
cfg = load_config(sys.argv[1])
with tempfile.TemporaryDirectory() as out:
    tracemalloc.start()
    run_experiment(cfg, out)
    print(tracemalloc.get_traced_memory()[1])
"""


def first_use_peak(cfg) -> int:
    src = str(Path(temcodec.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", FIRST_USE_PROBE, cfg],
        capture_output=True, text=True, check=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    return int(out.stdout.split()[-1])


class TestFirstUseMemory:
    """Peak memory of each process's first decode."""

    def test_two_channel_preset(self):
        # a decoding block's evaluation, level with the CSV writes and the file
        # manifest, sets the peak, 0.34 MB (CPython 3.11, numpy 2.4); 0.35 MB with
        # the conformally mapped Gram rule, 0.41 MB while the manifest held its last
        # read through the next and the encoder's global pass made a block's nodes
        # whole, 0.75 MB with cores twice as long, 1.95 MB decoded as one system
        assert first_use_peak(str(CONFIG_DIR / "two_channel.cfg")) < 0.38e6

    def test_single_channel_preset(self):
        # a decoding block's solve at its left factor's QR, level with its dense
        # evaluation, sets the peak, 0.51 MB (CPython 3.11, numpy 2.4), as when the
        # solve also took the right factor's QR; 0.52 MB with the conformally mapped
        # Gram rule's narrower factors and a whole triangular copy of that QR's R
        # (0.55 MB with the plain rule's), 0.62 MB when the Gram build made its
        # tables as new arrays and the evaluator its block by a broadcast
        # subtraction, 0.77 MB when the run also held each block's system through
        # its solve, 0.95 MB when the encoder's global pass also held the previous
        # block's arrays beside the next one's, 1.52 MB with decoding cores of
        # twice the length
        assert first_use_peak(str(CONFIG_DIR / "single_channel.cfg")) < 0.58e6

    # Long records: past one block's working set, memory is the run's own
    # full-length arrays (grid, traces), about 30 kB per second of record.
    # One 3119-row system took 80 MB over 8 s single-channel.
    @pytest.mark.parametrize("preset, seconds, bound", [
        ("single_channel", 8, 0.77e6),  # 0.70 MB; 0.80 with the build's tables and
        # the evaluator's block made apart, 0.94 with each system held through its
        # solve too, 1.10 with the pass's arrays held longer too
        ("two_channel", 16, 1.3e6),  # 1.14 MB; 1.20 MB with the arrays held longer
    ])
    def test_long_record(self, tmp_path, preset, seconds, bound):
        window = (-seconds // 2, seconds // 2)
        assert first_use_peak(str(preset_config(tmp_path, preset, window))) <= bound


def direct_right(times, knots, segments, orders):
    """The right factor computed entry by entry: per segment and rule node,
    the columns ``w*cos(nu*s + psi)`` and ``w*sin(nu*s + psi)`` at the knots ``s``
    measured from the record midpoint."""
    s = knots - 0.5 * (times[0] + times[-1])
    columns = []
    for (lo, hi, w, psi), order in zip(segments, orders):
        nu = 0.5 * (hi + lo) + 0.5 * (hi - lo) * signals.gauss_legendre(order)[0]
        phase = np.outer(s, nu) + psi[:, None]
        columns += [np.cos(phase) * w[:, None], np.sin(phase) * w[:, None]]
    return np.hstack(columns)


def outer_product_factors(starts, ends, segments, rhs):
    """The factors of rows ``[starts, ends]`` from whole-table formulas, each table a new
    array: per segment the amplitude table ``sin(np.outer(nu, half).T)`` and the phase table
    ``np.outer(nu, mid).T``.  :func:`recon._gram_system` makes the same tables in its factor
    columns, by the same operations on the same operands."""
    half = 0.5 * (ends - starts)
    mid = 0.5 * (starts + ends) - 0.5 * (starts[0] + ends[-1])
    live = [seg for seg in segments if seg[1] > seg[0]]
    left, right = [], []
    for lo, hi, w, psi in live:
        order = recon._gl_order(hi - lo, 2.0 * float(np.max(half)) * float(np.max(np.abs(w))),
                                float(ends[-1] - starts[0]), recon.QUAD_TOL / len(live))
        nodes, weights = signals.gauss_legendre(order)
        nu = 0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
        amp = np.sin(np.outer(nu, half).T)
        amp *= (0.5 * (hi - lo) * weights) * 2.0 / nu
        arg = np.outer(nu, mid).T
        left += [np.cos(arg) * amp, np.sin(arg) * amp]
        if np.any(psi):
            arg = arg + psi[:, None]
        right += [np.cos(arg) * w[:, None], np.sin(arg) * w[:, None]]
    return np.column_stack(left + [rhs]), np.column_stack(right)


class TestFactorLayout:
    """Column-major factors, their trig tables, and a layout-blind solve."""

    @pytest.mark.parametrize("preset", ["single_channel", "two_channel"])
    def test_block_factors_are_the_outer_product_tables_built_in_place(self, preset_records,
                                                                       preset):
        # a run's largest decoding block: its factors equal those of the whole-table
        # formulas bit for bit, and the build's peak above them stays under the left
        # factor's bytes (71 and 35 kB; single-channel 251 kB above a 123 kB factor,
        # two-channel 76 kB above 52 kB, when the tables were new arrays)
        cfg, record, a_max, stride = preset_records[preset]
        _, spans = recon.block_split(record.times, cfg.window, a_max, stride)
        start, stop = max(spans, key=lambda span: span[1] - span[0])
        block = dataclasses.replace(record, times=record.times[start:stop])
        if stride == 1:
            build = functools.partial(build_gram_lowpass, block, cfg.lowpass_cutoff)
        else:
            build = functools.partial(build_gram_bandpass, block, cfg.band)
        build()  # the first build makes and caches the rule
        tracemalloc.start()
        try:
            system = build()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert any(np.any(psi) for _, _, _, psi in system.segments) == (stride == 2)
        t = block.times
        left, right = outer_product_factors(t[:-stride], t[stride:], system.segments, system.rhs)
        assert system.left.tobytes() == left.tobytes()
        assert system.right.tobytes() == right.tobytes()
        assert peak - held < system.left.nbytes

    @pytest.mark.parametrize("preset", ["single_channel", "two_channel"])
    def test_preset_factors_are_column_major(self, preset_systems, preset):
        system = preset_systems[preset]
        assert system.left.flags.f_contiguous and system.right.flags.f_contiguous

    def test_lowpass_right_is_the_direct_table(self, small_system):
        # the knots are the row midpoints, so right's table is left's; it must
        # equal the table computed at the knots, bit for bit
        train, system = small_system
        right = system.right
        expect = direct_right(train.times, system.knot_times, system.segments,
                              [right.shape[1] // 2])
        assert np.array_equal(right, expect)

    def test_bandpass_right_is_the_direct_table(self, monkeypatch, two_channel_record,
                                                band_35_65):
        # a segment with nonzero psi adds the phase to right's table
        merged = two_channel_record[3]
        orders, rule = [], signals.gauss_legendre
        monkeypatch.setattr(recon, "gauss_legendre", lambda order: orders.append(order) or rule(order))
        system = build_gram_bandpass(merged, band_35_65)
        right = system.right
        assert len(orders) == 2 and 2 * sum(orders) == right.shape[1]
        expect = direct_right(merged.times, system.knot_times, system.segments, orders)
        assert np.array_equal(right, expect)

    @pytest.mark.parametrize("preset", ["single_channel", "two_channel"])
    def test_solve_independent_of_factor_layout(self, preset_systems, preset):
        system = preset_systems[preset]
        row_major = dataclasses.replace(system, left=np.ascontiguousarray(system.left),
                                        right=np.ascontiguousarray(system.right))
        assert row_major.left.flags.c_contiguous and row_major.right.flags.c_contiguous
        a = solve_coefficients(system)
        b = solve_coefficients(row_major)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert (a.residual_norm, a.effective_rank, a.sigma_max) == (
            b.residual_norm, b.effective_rank, b.sigma_max)


class TestHeldFactors:
    """A Gram system holds its two spectral factors, and its matrix is their product."""

    @pytest.mark.parametrize("preset, factor_cols", [("single_channel", 468), ("two_channel", 254)])
    def test_held_factors_equal_the_spectral_factors(self, preset_records, preset_systems,
                                                     preset, factor_cols):
        system = preset_systems[preset]
        again = recon._gram_system(*preset_rows(preset_records, preset), system.segments,
                                   system.rhs)
        left, right = again.left, again.right
        assert np.array_equal(system.left, left) and np.array_equal(system.right, right)
        assert system.shape == (left.shape[0], right.shape[0])
        block = experiment._block_dict((-1.0, 1.0), (0, system.rhs.size),
                                       solve_coefficients(system))
        assert block["factor_cols"] == right.shape[1] == left.shape[1] - 1 == factor_cols

    def test_matrix_is_the_product_of_the_held_factors(self, monkeypatch, small_system):
        train, system = small_system
        again = recon._gram_system(train.times[:-1], train.times[1:], system.segments,
                                   system.rhs)

        def rebuilt(*args):
            raise AssertionError("the matrix rebuilt a factor")

        for name in ("_gram_system", "gauss_legendre"):
            monkeypatch.setattr(recon, name, rebuilt)
        gram = system.matrix
        assert np.array_equal(gram, system.left[:, :-1] @ system.right.T)
        assert np.array_equal(gram, again.left[:, :-1] @ again.right.T)

    def test_hand_made_system_has_a_matrix(self):
        rng = np.random.default_rng(3)
        left, right = rng.standard_normal((6, 4)), rng.standard_normal((5, 4))
        system = hand_made_system(left, right, rng.standard_normal(6))
        assert system.shape == (6, 5)
        assert np.array_equal(system.matrix, left @ right.T)


def premise_violating_record(band):
    """Merged record whose largest spike gap exceeds the kernel period ``2*pi/B``."""
    params = TemParams(1.0, band.period / 2.0, 3.0, 2.0)
    a = SpikeTrain(np.array([0.0, 0.05, 0.10]), "A", params, (0.0, 0.2))
    b = SpikeTrain(np.array([0.04, 0.09, 0.14]), "B", params, (0.0, 0.2))
    return interleave(a, b)


@pytest.fixture(scope="module")
def bandpass_oracle(test_signal, band_35_65):
    """Short encoded and premise-violating records with their Gram matrices by the
    adaptive quadrature at tolerance 1e-14, one row at a time."""
    params = TemParams(1.0, band_35_65.period / 2.0, 3.0, 2.0)
    a, b = encode_two_channel(test_signal, params, (-0.2, 0.2), alpha=1.5 * params.delta)
    out = {}
    for name, merged in (("encoded", interleave(a, b)),
                         ("premise_violating", premise_violating_record(band_35_65))):
        t = merged.times
        knots, shifts, reflected = bandpass_knots(t)
        sign = np.where(reflected, -1.0, 1.0)

        def kernel(u):
            return closed_form_gbp((u[:, None] - knots) * sign, shifts, band_35_65)

        rows = [integrate_columns(kernel, lo, hi, tol=1e-14) for lo, hi in zip(t[:-2], t[2:])]
        out[name] = (merged, np.array(rows))
    return out


def bandpass_closed_form(merged, band):
    """Bandpass Gram entries from the sine and cosine integrals.

    A segment ``(lo, hi, w, psi)`` of knot ``s`` integrates over ``[a, b]`` to
    ``w*integral_lo^hi [sin(nu*(b - s) - psi) - sin(nu*(a - s) - psi)]/nu dnu``, and
    ``integral_lo^hi sin(nu*x - psi)/nu dnu = cos(psi)*sign(x)*(Si(hi*|x|) - Si(lo*|x|))
    - sin(psi)*(Ci(hi*|x|) - Ci(lo*|x|))``, with ``log(hi/lo)`` for the cosine
    integrals' difference at ``x = 0``.
    """
    t = merged.times
    knots, shifts, reflected = bandpass_knots(t)
    segments = bandpass_segments(shifts, reflected, band)
    out = np.zeros((t.size - 2, knots.size))
    for lo, hi, w, psi in segments:
        if not hi > lo:
            continue
        for edge, sign in ((t[2:], 1.0), (t[:-2], -1.0)):
            x = edge[:, None] - knots[None, :]
            ax = np.abs(x)
            si_hi, ci_hi = scipy.special.sici(hi * ax)
            si_lo, ci_lo = scipy.special.sici(lo * ax)
            ci = np.where(ax > 0.0, ci_hi - ci_lo, np.log(hi / lo))
            out += sign * w * (np.cos(psi) * np.sign(x) * (si_hi - si_lo) - np.sin(psi) * ci)
    return out


def jittered_record(band, span, seed):
    """Two-channel record over ``span`` s: channel gaps about ``0.45*period`` with
    jitter, channel B a varying fraction of a gap behind A."""
    rng = np.random.default_rng(seed)
    step = 0.45 * band.period
    n = int(span / step) + 1
    a_times = step * (np.arange(n) + rng.uniform(-0.15, 0.15, n))
    b_times = a_times + step * rng.uniform(0.3, 0.7, n)
    params = TemParams(1.0, step / 2.0, 3.0, 2.0)
    window = (a_times[0], b_times[-1])
    return interleave(SpikeTrain(a_times, "A", params, window),
                      SpikeTrain(b_times, "B", params, window))


class TestGramBandpass:
    @settings(max_examples=30, deadline=None)
    @given(
        omega_l_hz=st.floats(min_value=5.0, max_value=80.0),
        bandwidth_hz=st.floats(min_value=8.0, max_value=40.0),
        span=st.floats(min_value=0.2, max_value=3.0),
        quad_tol=st.sampled_from([1e-6, 1e-9, 1e-11]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # short records of 4 and 8 merged spikes (spans of 20 and 50 ms)
    @example(omega_l_hz=35.0, bandwidth_hz=30.0, span=0.02, quad_tol=1e-9, seed=0)
    @example(omega_l_hz=35.0, bandwidth_hz=30.0, span=0.05, quad_tol=1e-11, seed=3)
    @example(omega_l_hz=5.0, bandwidth_hz=40.0, span=0.02, quad_tol=1e-6, seed=0)
    def test_entries_within_quad_tol_of_si_ci_closed_form(
        self, omega_l_hz, bandwidth_hz, span, quad_tol, seed
    ):
        band = BandSpec(TWO_PI * omega_l_hz, TWO_PI * (omega_l_hz + bandwidth_hz))
        merged = jittered_record(band, span, seed)
        shifts = pair_shifts(merged.times)
        # keep every kernel weight 1/(B*sin(phi)) within 10/B: near a degenerate
        # shift the entries, and their rounding, grow without bound
        for k in (band.k0, band.k0 + 1):
            assume(np.min(np.abs(np.sin(0.5 * k * band.bandwidth * shifts))) > 0.1)
        oracle = bandpass_closed_form(merged, band)
        gram = bandpass_gram(merged.times, band, quad_tol)
        assert np.max(np.abs(gram - oracle)) <= quad_tol

    def test_closed_form_matches_adaptive_oracle(self, bandpass_oracle, band_35_65):
        merged, oracle = bandpass_oracle["encoded"]
        assert np.max(np.abs(bandpass_closed_form(merged, band_35_65) - oracle)) <= 1e-13

    def test_zero_signal_gives_null_system(self, band_35_65):
        T = band_35_65.period
        params = TemParams(1.0, T / 2.0, 3.0, 0.0)
        a, b = encode_two_channel(Constant(0.0), params, (-1.0, 1.0))
        merged = interleave(a, b)
        model, system, sol = reconstruct_bandpass(merged, band_35_65)
        assert np.max(np.abs(system.rhs)) < 1e-8
        t = np.linspace(-0.6, 0.6, 301)
        assert np.max(np.abs(model(t))) < 1e-6

    def test_uniform_record_rows_are_near_toeplitz(self, band_35_65):
        T = band_35_65.period
        params = TemParams(1.0, T / 2.0, 3.0, 0.0)
        a, b = encode_two_channel(Constant(0.0), params, (-1.0, 1.0), alpha=0.75 * T)
        merged = interleave(a, b)
        system = build_gram_bandpass(merged, band_35_65)
        g = system.matrix
        n = g.shape[0]
        # shifting a row by one period (two merged indices) reproduces the
        # next-next row away from the boundary columns
        dev = 0.0
        for row in range(10, n - 14, 2):
            dev = max(dev, np.max(np.abs(g[row, 10:n - 14] - g[row + 2, 12:n - 12])))
        assert dev < 1e-8

    def test_degenerate_pair_shift_names_knot(self, band_35_65):
        T = band_35_65.period
        times = uniform_interleaved(T, T / 3.0, 8)  # pair shift T/3, k0 = 3
        params = TemParams(1.0, T / 2.0, 3.0, 2.0)
        a = SpikeTrain(times[0::2], "A", params, (0.0, 1.0))
        b = SpikeTrain(times[1::2], "B", params, (0.0, 1.0))
        merged = interleave(a, b)
        with pytest.raises(DegenerateShiftError, match="knot 0"):
            build_gram_bandpass(merged, band_35_65)

    def test_degenerate_pair_shift_names_the_first_bad_knot(self, band_35_65):
        # channel B lags A by 0.3*T for three spikes, then by T/3; pair m of
        # knots (2m, 2m + 1) has shift (s_m + s_{m+1})/2, first T/3 at pair 3
        T = band_35_65.period
        lag = np.array([0.3, 0.3, 0.3] + [1.0 / 3.0] * 5) * T
        params = TemParams(1.0, T / 2.0, 3.0, 2.0)
        a = SpikeTrain(T * np.arange(8), "A", params, (0.0, 8.0 * T))
        b = SpikeTrain(T * np.arange(8) + lag, "B", params, (0.0, 8.0 * T))
        with pytest.raises(DegenerateShiftError, match=r"^knot 6: "):
            build_gram_bandpass(interleave(a, b), band_35_65)

    def test_gap_premise_violation_warns_and_proceeds(self, band_35_65):
        merged = premise_violating_record(band_35_65)
        assert np.max(merged.gaps) >= band_35_65.period
        with pytest.warns(RuntimeWarning, match="kernel period"):
            system = build_gram_bandpass(merged, band_35_65)
        assert not system.gap_premise_ok
        assert np.all(np.isfinite(system.matrix))

    @pytest.mark.filterwarnings("ignore:max merged spike gap:RuntimeWarning")
    @pytest.mark.parametrize("quad_tol", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("record", ["encoded", "premise_violating"])
    def test_entries_within_quad_tol_of_adaptive_oracle(
        self, bandpass_oracle, band_35_65, record, quad_tol
    ):
        merged, oracle = bandpass_oracle[record]
        gram = bandpass_gram(merged.times, band_35_65, quad_tol)
        assert np.max(np.abs(gram - oracle)) <= quad_tol

    def test_integer_band_position_within_quad_tol_of_adaptive_oracle(self):
        # 40-60 Hz: 2*omega_l/B = 4 = k0, so the inner segment [omega_l, k0*B - omega_l]
        # is empty (its ends differ by rounding only) and the kernel is one segment
        band = BandSpec(TWO_PI * 40.0, TWO_PI * 60.0)
        params = TemParams(1.0, band.period / 2.0, 3.0, 0.5)
        a, b = encode_two_channel(Tone(0.5, TWO_PI * 50.0, 0.3), params, (-0.25, 0.25),
                                  alpha=1.5 * params.delta)
        merged = interleave(a, b)
        system = build_gram_bandpass(merged, band)
        t = merged.times
        knots, shifts, reflected = bandpass_knots(t)
        sign = np.where(reflected, -1.0, 1.0)

        def kernel(u):
            return closed_form_gbp((u[:, None] - knots) * sign, shifts, band)

        oracle = [integrate_columns(kernel, lo, hi, tol=1e-14) for lo, hi in zip(t[:-2], t[2:])]
        assert np.max(np.abs(system.matrix - np.array(oracle))) <= recon.QUAD_TOL

    def test_builder_assembles_at_quad_tol(self, bandpass_oracle, band_35_65):
        # the bound tests above call the builder's assembly at other tolerances
        merged, _ = bandpass_oracle["encoded"]
        system = build_gram_bandpass(merged, band_35_65)
        gram = bandpass_gram(merged.times, band_35_65, recon.QUAD_TOL)
        assert np.array_equal(system.matrix, gram)


@pytest.fixture
def blas_threads():
    """Set numpy's OpenBLAS thread count for the test, restoring it after; skips
    where the solve finds no thread controls."""
    controls = recon._blas_thread_controls()
    if controls is None:
        pytest.skip("no OpenBLAS thread controls in this numpy")
    get, put = controls
    before = get()
    yield get, put
    put(before)


class TestSolve:
    @pytest.mark.parametrize("rows, cols, width", [(10, 9, 4), (6, 8, 10), (12, 5, 8)],
                             ids=["narrow", "wide", "fewer_knots_than_columns"])
    def test_cutoff_is_the_rounding_floor_of_the_core(self, rows, cols, width):
        # G = U diag(s) V^T through factors padded to ``width`` columns; the
        # smallest core that holds its singular values has shape (min(rows,
        # width), min(cols, width)), and the cutoff is that core's rounding
        # floor.  A singular value 1e3 times that floor is kept (a hand-set 1e-8
        # would drop it); the exactly zero one, a zero column of the left factor,
        # is not
        rng = np.random.default_rng(rows * cols * width)
        k = min(rows, cols, width)
        floor = np.finfo(float).eps * max(min(rows, width), min(cols, width))
        s = np.concatenate([np.linspace(1.0, 0.5, k - 2), [1e3 * floor, 0.0]])
        u = np.linalg.qr(rng.standard_normal((rows, k)))[0]
        v = np.linalg.qr(rng.standard_normal((cols, k)))[0]
        left = np.zeros((rows, width))
        left[:, :k] = u * s
        right = rng.standard_normal((cols, width))
        right[:, :k] = v
        sol = solve_coefficients(hand_made_system(left, right, rng.standard_normal(rows)))
        assert sol.sv_cutoff == floor
        assert sol.effective_rank == k - 1
        assert sol.sigma_max == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("preset", ["single_channel", "two_channel"])
    def test_coefficients_independent_of_caller_blas_threads(
        self, preset_systems, blas_threads, preset
    ):
        system = preset_systems[preset]
        _, put = blas_threads
        solutions = []
        for threads in (1, 2):
            put(threads)
            solutions.append(solve_coefficients(system))
        one, two = solutions
        assert one.blas_threads == two.blas_threads == 1
        assert np.array_equal(one.coefficients, two.coefficients)
        assert (one.residual_norm, one.sigma_max) == (two.residual_norm, two.sigma_max)

    def test_solve_frees_the_factors_a_caller_does_not_hold(self, preset_records, monkeypatch):
        # one preset-sized block's system, solved once while the caller holds it
        # and once passed straight from its builder, as run_experiment does: the
        # same result bit for bit, and, when only the solve holds the system, both
        # factors gone by the core solve.  The solve drops left after its QR and
        # right and r_aug once the reduced system is made, so at the core solve
        # the traced memory above the built system less both factors is the
        # reduced system and its right-hand side, plus small objects (1.8 kB
        # measured; 8 kB more in a process's first solve)
        cfg, train, _, _ = preset_records["single_channel"]
        block = dataclasses.replace(train, times=train.times[100:248])
        built, at_core = [], []
        lstsq = np.linalg.lstsq

        def measured(system):
            # the traced memory with the system built
            built.append(tracemalloc.get_traced_memory()[0])
            return system

        def core_solve(*args, **kwargs):
            at_core.append(tracemalloc.get_traced_memory()[0])
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", core_solve)
        results = []
        for hold in (True, False):
            tracemalloc.start()
            try:
                if hold:
                    system = build_gram_lowpass(block, cfg.lowpass_cutoff)
                    factor_bytes = system.left.nbytes + system.right.nbytes
                    results.append(solve_coefficients(measured(system)))
                    del system
                else:
                    results.append(solve_coefficients(
                        measured(build_gram_lowpass(block, cfg.lowpass_cutoff))))
            finally:
                tracemalloc.stop()
        held, released = results
        for name in ("coefficients", "knot_times"):
            assert getattr(held, name).tobytes() == getattr(released, name).tobytes()
        figures = ("residual_norm", "effective_rank", "sigma_max", "sigma_min", "sv_cutoff",
                   "shape", "factor_cols", "rhs_norm", "gap_premise_ok", "blas_threads")
        assert [getattr(held, f) for f in figures] == [getattr(released, f) for f in figures]
        rows, knots = released.shape
        inner = min(rows, released.factor_cols)
        reduced_bytes = 8 * inner * (knots + 1)
        # held: the factors are the caller's, alive beside the reduced system
        assert at_core[0] - built[0] >= reduced_bytes
        assert at_core[1] - (built[1] - factor_bytes) <= reduced_bytes + 16_000

    def test_caller_blas_threads_restored(self, blas_threads):
        get, put = blas_threads
        put(2)
        q = np.array([3.0, -1.0, 0.5])
        solve_coefficients(hand_made_system(np.eye(3), np.eye(3), q))
        assert get() == 2
        with pytest.raises(DegenerateSystemError):
            solve_coefficients(hand_made_system(np.zeros((3, 3)), np.eye(3), q))
        assert get() == 2

    def test_concurrent_solves_restore_caller_blas_threads(self, blas_threads):
        get, put = blas_threads
        put(2)
        rng = np.random.RandomState(5)
        system = hand_made_system(rng.randn(40, 12), rng.randn(30, 12), rng.randn(40))
        expect = solve_coefficients(system).coefficients
        results, errors = [], []

        def work():
            try:
                for _ in range(25):
                    results.append(solve_coefficients(system).coefficients)
            except Exception as exc:  # reported through the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers) and not errors
        assert len(results) == 100 and all(np.array_equal(r, expect) for r in results)
        assert get() == 2

    def test_solve_inside_a_pinned_block(self, blas_threads):
        get, put = blas_threads
        put(2)
        q = np.array([3.0, -1.0, 0.5])
        with recon._one_blas_thread():
            sol = solve_coefficients(hand_made_system(np.eye(3), np.eye(3), q))
            assert get() == 1
        assert sol.blas_threads == 1 and get() == 2

    def test_without_thread_controls_solves_on_caller_threads(self, monkeypatch):
        monkeypatch.setattr(recon, "_blas_thread_controls", lambda: None)
        q = np.array([3.0, -1.0, 0.5])
        sol = solve_coefficients(hand_made_system(np.eye(3), np.eye(3), q))
        assert sol.blas_threads is None
        assert np.allclose(sol.coefficients, q, atol=1e-14)

    def test_identity_system(self):
        q = np.array([3.0, -1.0, 0.5])
        system = hand_made_system(np.eye(3), np.eye(3), q)
        sol = solve_coefficients(system)
        assert np.allclose(sol.coefficients, q, atol=1e-14)
        assert sol.effective_rank == 3
        assert sol.residual_norm < 1e-14

    def test_zero_rhs_gives_exact_zero(self):
        rng = np.random.RandomState(7)
        system = hand_made_system(rng.randn(6, 4), np.eye(4), np.zeros(6))
        sol = solve_coefficients(system)
        assert np.all(sol.coefficients == 0.0)

    def test_duplicate_columns_share_mass_equally(self):
        # minimum-norm solution splits the coefficient across identical columns
        col = np.array([1.0, 2.0])
        system = hand_made_system(np.column_stack([col, col]), np.eye(2), np.array([1.0, 2.0]))
        sol = solve_coefficients(system)
        assert np.allclose(sol.coefficients, [0.5, 0.5], atol=1e-12)
        assert sol.effective_rank == 1

    def test_all_below_cutoff_rejected(self):
        system = hand_made_system(np.zeros((3, 3)), np.eye(3), np.ones(3))
        with pytest.raises(DegenerateSystemError):
            solve_coefficients(system)

    def test_solving_twice_is_bit_identical(self, two_channel_record, band_35_65):
        _, _, _, merged = two_channel_record
        system = build_gram_bandpass(merged, band_35_65)
        a = solve_coefficients(system)
        b = solve_coefficients(system)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.residual_norm == b.residual_norm

    @settings(max_examples=25, deadline=None)
    @given(gamma=st.floats(min_value=-8.0, max_value=8.0).filter(lambda g: abs(g) > 1e-3))
    def test_scaling_rhs_scales_coefficients(self, gamma):
        rng = np.random.RandomState(11)
        matrix = rng.randn(8, 5)
        q = rng.randn(8)
        base = hand_made_system(matrix, np.eye(5), q)
        scaled = hand_made_system(matrix, np.eye(5), gamma * q)
        ca = solve_coefficients(base).coefficients
        cb = solve_coefficients(scaled).coefficients
        assert np.allclose(cb, gamma * ca, rtol=1e-11, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.integers(min_value=1, max_value=12),
        cols=st.integers(min_value=1, max_value=12),
        width=st.integers(min_value=1, max_value=16),
        inner=st.integers(min_value=1, max_value=16),
        zeroed=st.sampled_from(["left", "right"]),
    )
    @example(seed=1, rows=10, cols=9, width=4, inner=4, zeroed="left")  # narrow
    @example(seed=2, rows=6, cols=8, width=10, inner=10, zeroed="left")  # wide
    @example(seed=3, rows=9, cols=9, width=8, inner=3, zeroed="left")  # rank-deficient
    @example(seed=3, rows=9, cols=9, width=8, inner=3, zeroed="right")  # rank-deficient
    @example(seed=5, rows=12, cols=10, width=16, inner=6, zeroed="right")  # wide, rank-deficient
    @example(seed=4, rows=12, cols=5, width=8, inner=8, zeroed="left")  # fewer knots than columns
    def test_factored_solve_matches_dense_truncated_svd(
        self, seed, rows, cols, width, inner, zeroed
    ):
        # narrow (width < min(rows, cols)), wide (width >= rows) and, through
        # zero columns from ``inner`` on in one factor, exactly rank-deficient
        # factor pairs; the right factor has more knots than columns (cols >
        # width) or fewer (cols <= width)
        rng = np.random.default_rng(seed)
        left = rng.standard_normal((rows, width)) @ rng.standard_normal((width, width))
        right = rng.standard_normal((cols, width))
        (left if zeroed == "left" else right)[:, inner:] = 0.0
        q = rng.standard_normal(rows)
        dense = left @ right.T
        u, sv, vt = np.linalg.svd(dense, full_matrices=False)
        # G's exact rank; its other singular values are rounding noise in ``sv``
        rank = min(inner, width, rows, cols)
        core_shape = (min(rows, width), min(cols, width))
        cutoff = np.finfo(float).eps * max(core_shape) * sv[0]
        # a singular value at the cutoff would make either rank a coin toss
        genuine = sv[:rank]
        assume(sv[0] > 0.0 and not np.any((genuine > 1e-3 * cutoff) & (genuine < 1e3 * cutoff)))
        keep = (sv >= cutoff) & (np.arange(sv.size) < rank)
        expect = vt[keep].T @ ((u[:, keep].T @ q) / sv[keep])
        sol = solve_coefficients(
            hand_made_system(left, right, q)
        )
        assert sol.effective_rank == np.count_nonzero(keep)
        scale = np.linalg.norm(expect) + np.linalg.norm(q) / sv[0]
        assert np.max(np.abs(sol.coefficients - expect)) <= 1e-9 * scale
        assert sol.residual_norm == pytest.approx(
            np.linalg.norm(dense @ expect - q), abs=1e-9 * (sv[0] * scale + np.linalg.norm(q))
        )
        assert sol.sigma_max == pytest.approx(sv[0], rel=1e-12)
        if width < min(rows, cols):
            assert sol.sigma_min == 0.0
        else:
            assert sol.sigma_min == pytest.approx(sv[-1], rel=1e-9, abs=1e-13 * sv[0])

    @pytest.mark.parametrize("rows, width, cols", [
        (40, 12, 30),  # tall: rhs has a part outside the column space of left
        (25, 8, 6),  # tall, fewer knots than factor columns
        (12, 12, 30),  # rows equal to factor columns: [left, rhs] has no row below R
        (8, 16, 20),  # wide
        (5, 16, 3),  # wide, fewer knots than rows
    ])
    @pytest.mark.parametrize("seed", range(4))
    def test_residual_from_r_matches_direct_norm(self, rows, width, cols, seed):
        rng = np.random.default_rng(seed)
        left = rng.standard_normal((rows, width))
        right = rng.standard_normal((cols, width))
        q = rng.standard_normal(rows)
        sol = solve_coefficients(
            hand_made_system(left, right, q)
        )
        direct = np.linalg.norm(left @ (right.T @ sol.coefficients) - q)
        # relative to the residual, or to q where the system is solved exactly
        assert sol.residual_norm == pytest.approx(
            direct, rel=1e-12, abs=1e-12 * np.linalg.norm(q))

    @pytest.mark.parametrize("rows, width, cols", [
        (14, 11, 13),  # tall: G of rank 11, below both of its sides
        (13, 11, 14),  # tall, more knots than rows
        (8, 11, 6),  # fewer knots than factor columns
        (9, 11, 9),  # fewer rows than factor columns, one knot a row: two-channel blocks
        (6, 11, 9),  # fewer rows than knots, both below the factor columns
        (9, 11, 14),  # fewer rows than factor columns, more knots
    ])
    def test_one_qr_solve_matches_dense_lstsq(self, rows, width, cols):
        # well-conditioned factors: the solve from left's QR equals lstsq on the
        # dense G at the solve's own cutoff
        rng = np.random.default_rng(rows * 100 + cols)
        system = hand_made_system(rng.standard_normal((rows, width)),
                                  rng.standard_normal((cols, width)), rng.standard_normal(rows))
        sol = solve_coefficients(system)
        expect, _, rank, _ = np.linalg.lstsq(system.matrix, system.rhs, rcond=sol.sv_cutoff)
        assert sol.effective_rank == rank == min(rows, width, cols)
        assert np.max(np.abs(sol.coefficients - expect)) <= 1e-12 * np.linalg.norm(expect)

    @pytest.mark.parametrize("rows, width, cols", [
        (14, 11, 13),  # tall: G of rank 11, below both of its sides
        (8, 11, 6),  # fewer knots than factor columns
    ])
    @pytest.mark.parametrize("columns", [1, 3, 4, 16])
    def test_core_blocks_equal_one_product(self, rows, width, cols, columns):
        # the reduced system Ra B^T c = Qa^T q assembled here in blocks of one
        # knot column, of widths that end inside the last block or at it, and of
        # one block wider than the core, against the solve's core made in one
        # product: the same solve up to the summation order of each block
        rng = np.random.default_rng(cols * 100 + columns)
        left = rng.standard_normal((rows, width))
        right = rng.standard_normal((cols, width))
        q = rng.standard_normal(rows)
        sol = solve_coefficients(hand_made_system(left, right, q))
        qa, ra = np.linalg.qr(left)
        core = np.hstack([ra @ right[a:a + columns].T for a in range(0, cols, columns)])
        projected = qa.T @ q
        expect, _, rank, sv = np.linalg.lstsq(core, projected, rcond=sol.sv_cutoff)
        assert sol.effective_rank == rank == min(rows, width, cols)
        scale = np.linalg.norm(expect)
        assert np.max(np.abs(sol.coefficients - expect)) <= 1e-12 * scale
        assert sol.sigma_max == pytest.approx(sv[0], rel=1e-13)
        outside = np.linalg.norm(q - qa @ projected)
        assert sol.residual_norm == pytest.approx(
            math.hypot(np.linalg.norm(core @ expect - projected), outside),
            rel=1e-9, abs=1e-12 * np.linalg.norm(q))

    @pytest.mark.parametrize("preset, stop",[("single_channel", 248), ("two_channel", 172)])
    def test_block_solve_takes_one_qr_of_the_left_factor(self, preset_records, monkeypatch,
                                                         preset, stop):
        # a preset-sized block, 147 or 70 rows, is reduced by the QR of [A, q]
        # alone; the right factor enters one product
        cfg, record, _, stride = preset_records[preset]
        block = dataclasses.replace(record, times=record.times[100:stop])
        system = (build_gram_bandpass(block, cfg.band) if stride == 2
                  else build_gram_lowpass(block, cfg.lowpass_cutoff))
        # two-channel blocks have fewer rows than factor columns
        assert (system.shape[0] < system.right.shape[1]) == (stride == 2)
        qr, shapes = np.linalg.qr, []

        def counted(a, *args, **kwargs):
            shapes.append(a.shape)
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        sol = solve_coefficients(system)
        assert shapes == [system.left.shape]
        assert sol.effective_rank > 0

    @pytest.mark.parametrize("preset, rank", [("single_channel", 280), ("two_channel", 154)])
    def test_whole_record_rank_and_residual(self, preset_systems, preset, rank):
        # the whole preset records' systems (779 x 779 and 358 x 358): the rank the
        # goldens pin, and the residual read from the reduced system equal to
        # ||G c - q|| formed from the dense G, up to that product's rounding,
        # about sqrt(rows)*eps*||G||*||c|| (1-4% of the residual; 0.004-0.04% seen)
        system = preset_systems[preset]
        first = solve_coefficients(system)
        again = solve_coefficients(system)
        gram = system.matrix
        direct = np.linalg.norm(gram @ first.coefficients - system.rhs)
        rounding = (math.sqrt(gram.shape[0]) * np.finfo(float).eps
                    * np.linalg.norm(gram, 2) * np.linalg.norm(first.coefficients))
        assert first.effective_rank == rank
        assert first.residual_norm == pytest.approx(direct, abs=rounding)
        assert np.array_equal(first.coefficients, again.coefficients)

    def test_residual_consistency_at_full_effective_rank(self, band_35_65):
        # near-Landau spike density keeps the kernel frame well conditioned;
        # the solve then reproduces the amplitude integrals essentially exactly
        T = band_35_65.period
        sig = Tone(0.1, TWO_PI * 48.0, 0.4)
        params = TemParams(1.0, T / 2.0, 1.1, 0.1)
        a, b = encode_two_channel(sig, params, (-0.6, 0.6), alpha=1.5 * params.delta)
        merged = interleave(a, b)
        system = build_gram_bandpass(merged, band_35_65)
        sol = solve_coefficients(system)
        assert sol.effective_rank == system.matrix.shape[1]
        rel = sol.residual_norm / np.linalg.norm(system.rhs)
        assert rel <= 1e-6


class TestFarField:
    ROUNDING = 4.0 * np.finfo(float).eps

    def test_nearest_far_term_interpolates_to_rounding(self):
        # on a box [-1, 1], a far knot is at least one box width beyond it:
        # the term 1/(x - z) with |z| >= 3, interpolated at the box's nodes
        nodes = recon._CHEB_NODES
        x = np.linspace(-1.0, 1.0, 2001)
        for z in (3.0, -3.0, 4.0, 10.0):
            exact = 1.0 / (x - z)
            err = np.max(np.abs(recon._interpolate(x, (1.0 / (nodes - z))[:, None])[:, 0] - exact))
            assert err <= self.ROUNDING * np.max(np.abs(exact))

    def test_point_on_a_node_takes_its_value(self):
        # the barycentric formula divides by zero there; a row of points takes
        # the values of its own box
        p = recon.CHEB_POINTS
        np.testing.assert_array_equal(recon._interpolate(recon._CHEB_NODES, np.eye(p)), np.eye(p))
        values = np.random.default_rng(0).standard_normal((2, p, 3))
        u = np.stack([recon._CHEB_NODES, np.linspace(-1.0, 1.0, p)])  # the ends are nodes
        got = recon._interpolate(u, values)
        np.testing.assert_array_equal(got[0], values[0])
        np.testing.assert_array_equal(got[1, [0, -1]], values[1, [0, -1]])
        assert np.isfinite(got).all()

    @pytest.mark.parametrize("offset", [2, -2, 3, -3])
    def test_interaction_interpolates_to_rounding_on_both_sides(self, offset):
        # boxes of width 2: the target [-1, 1] and a source box ``offset`` box
        # widths to its right, one box width beyond it at the nearest offset,
        # +-2.  A unit weight at y goes onto the source's nodes (P2M), across to
        # the target's (M2L) and to x (L2P): 1/(x - y) interpolated in x and y.
        # Dyadic x and y make x - y exact, so the reference is rounded once.  Each
        # of the two interpolations rounds at the scale of the term's largest
        # value between the boxes, which a source at the near edge reaches.
        kernel = next(k for o, k, _, _ in recon._far_operators()[1] if o == offset)
        x = np.arange(-1024, 1025) / 1024.0
        largest = 1.0 / (2 * abs(offset) - 2)  # the term's largest value between the boxes
        for eta in np.arange(-32, 33) / 32.0:  # y's place in the source box
            exact = 1.0 / (x - (2.0 * offset + eta))
            multipole = recon._interpolate(np.array([eta]), np.eye(recon.CHEB_POINTS))[0]
            got = recon._interpolate(x, (kernel @ multipole)[:, None])[:, 0]
            assert np.max(np.abs(got - exact)) <= self.ROUNDING * largest

    @pytest.mark.parametrize("side", [0, 1])
    def test_child_to_parent_keeps_polynomials(self, side):
        # M2M and, transposed, L2L: a polynomial of the parent's degree is its
        # own interpolant on either half of the parent box; the monomials x**k
        # are rounded once at each node
        powers = np.arange(recon.CHEB_POINTS)
        child = 0.5 * (recon._CHEB_NODES + (2 * side - 1))  # child nodes in the parent
        got = recon._far_operators()[0][side].T @ recon._CHEB_NODES[:, None] ** powers
        np.testing.assert_allclose(got, child[:, None] ** powers, rtol=0, atol=self.ROUNDING)


def near_offsets(a_max):
    """Offsets the evaluator's near-pair repair sees: 0, +-1e-300 and up to pi/a_max."""
    near = np.pi / a_max
    return np.concatenate(([0.0, 1e-300, -1e-300], np.linspace(-near, near, 401)))


class TestSegmentKernel:
    """The direct segment sum against each kernel's own closed form."""

    @pytest.mark.parametrize("edges_hz", [(35.0, 65.0), (20.0, 50.0), (40.0, 55.0)])
    def test_bandpass_equals_kernel_gbp(self, edges_hz):
        band = BandSpec(TWO_PI * edges_hz[0], TWO_PI * edges_hz[1])
        shifts = band.period * np.array([0.3, 0.3, 0.45, 0.45])
        reflected = np.array([False, True, False, True])
        segments = bandpass_segments(shifts, reflected, band)
        u = near_offsets(band.omega_u)
        for k in range(shifts.size):
            got = recon._segment_kernel(segments, u, np.full(u.size, k))
            expect = closed_form_gbp(-u if reflected[k] else u, shifts[k], band)
            # relative to the kernel's scale: both forms round near its zeros
            scale = np.max(np.abs(expect))
            np.testing.assert_allclose(got, expect, rtol=1e-13, atol=1e-13 * scale)
            assert got[0] == pytest.approx(1.0, abs=1e-14)

    def test_lowpass_equals_sinc(self):
        omega = TWO_PI * 65.0
        u = near_offsets(omega)
        segments = lowpass_segments(3, omega)
        got = recon._segment_kernel(segments, u, np.full(u.size, 2))
        safe = np.where(u == 0.0, 1.0, u)
        expect = np.where(u == 0.0, omega / np.pi, np.sin(omega * u) / (np.pi * safe))
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=1e-13 * omega / np.pi)


class TestModel:
    def test_zero_coefficients_evaluate_to_zero(self, band_35_65):
        segments = bandpass_segments(np.array([0.01, 0.01]), np.array([False, True]), band_35_65)
        model = ReconModel(np.array([0.0, 0.01]), np.zeros(2), segments)
        t = np.linspace(-1, 1, 55)
        assert np.all(model(t) == 0.0)

    def test_single_unit_coefficient_is_shifted_kernel(self, band_35_65):
        t = np.linspace(-0.4, 0.4, 111)
        lp = ReconModel(np.array([0.07]), np.array([1.0]), lowpass_segments(1, TWO_PI * 65.0))
        expect = (TWO_PI * 65.0 / np.pi) * np.sinc(65.0 * 2.0 * (t - 0.07))
        assert np.allclose(lp(t), expect, atol=1e-12)
        bp = ReconModel(
            np.array([0.07]), np.array([1.0]),
            bandpass_segments(np.array([0.01]), np.array([True]), band_35_65),
        )
        assert np.allclose(bp(t), closed_form_gbp(0.07 - t, 0.01, band_35_65), atol=1e-12)

    def test_scalar_evaluation_returns_float(self):
        lp = ReconModel(np.array([0.0]), np.array([1.0]), lowpass_segments(1, 1.0))
        assert isinstance(lp(0.3), float)
        assert lp(0.3) == evaluate_model(lp, 0.3)

    def test_empty_input_returns_empty_float_array(self):
        lp = ReconModel(np.array([0.0]), np.array([1.0]), lowpass_segments(1, 1.0))
        out = evaluate_model(lp, np.array([]))
        assert out.shape == (0,) and out.dtype == float

    @pytest.fixture(scope="class")
    def boxed(self):
        """A lowpass model and points that the evaluator cuts into a tree with a far field."""
        rng = np.random.default_rng(5)
        knots = rng.uniform(-1.0, 1.0, 400)
        model = ReconModel(knots, rng.uniform(-1.0, 1.0, 400), lowpass_segments(400, TWO_PI * 65.0))
        t = np.linspace(-1.2, 1.2, 5001)
        assert recon._tree_depth(t, np.sort(knots), 1.0 / 130.0) >= 2
        return model, t

    def test_non_finite_points_yield_nan_only_there(self, boxed):
        model, t = boxed
        values = evaluate_model(model, t)
        spoilt = np.insert(t, [0, 1000, 5001], [np.nan, np.inf, -np.inf])
        out = evaluate_model(model, spoilt)
        bad = ~np.isfinite(spoilt)
        assert np.all(np.isnan(out[bad]))
        assert np.array_equal(out[~bad], values)

    def test_permuted_input_permutes_output(self, boxed):
        model, t = boxed
        perm = np.random.default_rng(6).permutation(t.size)
        assert np.array_equal(evaluate_model(model, t[perm]), evaluate_model(model, t)[perm])

    @pytest.fixture(scope="class")
    def dense(self):
        """A lowpass model of 358 knots and 1,098 points that the evaluator sums
        densely, in three chunks of 366 points."""
        rng = np.random.default_rng(7)
        knots = rng.uniform(-1.0, 1.0, 358)
        model = ReconModel(knots, rng.uniform(-1.0, 1.0, 358), lowpass_segments(358, TWO_PI * 65.0))
        t = np.linspace(-1.0, 1.0, 1098)
        assert recon._tree_depth(t, np.sort(knots), 1.0 / 130.0) == 0
        return model, t

    def test_dense_box_holds_one_block_at_a_time(self, dense):
        model, t = dense
        budget = 8 * recon.EVAL_CHUNK_ELEMENTS  # bytes of one 1/(t - s) block
        # the box's first two chunks of points together outweigh the bound, so
        # holding one chunk's block while making the next would fail the test
        rows = recon.EVAL_CHUNK_ELEMENTS // model.knot_times.size
        assert 8 * min(2 * rows, t.size) * model.knot_times.size > 1.5 * budget
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluate_model(model, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 1.5 * budget

    def test_dense_block_is_filled_in_place(self):
        # a single-channel preset block's evaluation: 250 points of a 0.25 s core
        # against 147 knots over core and guards.  Besides its 1/(t - s) block it
        # holds a ufunc buffer and the near pairs (1.35 times the block); a block
        # made by a broadcast subtraction took 1.57 times its bytes
        rng = np.random.default_rng(8)
        knots = np.sort(rng.uniform(-0.19, 0.19, 147))
        model = ReconModel(knots, rng.uniform(-1.0, 1.0, 147), lowpass_segments(147, TWO_PI * 65.0))
        t = np.linspace(-0.125, 0.125, 250)
        assert recon._tree_depth(t, knots, 1.0 / 130.0) == 0
        evaluate_model(model, t)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluate_model(model, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 1.45 * 8 * t.size * knots.size

    def test_dense_up_to_dense_terms(self):
        # 768 points against 512 knots are DENSE_TERMS terms, summed densely;
        # one point more takes the leaf rule: leaves of 2/2**6 hold, with both
        # neighbours, 24 knots on average (2/2**7 would hold 12)
        knots = np.linspace(-1.0, 1.0, 512)
        assert 768 * knots.size == recon.DENSE_TERMS
        assert recon._tree_depth(np.linspace(-1.0, 1.0, 768), knots, 1.0 / 130.0) == 0
        assert recon._tree_depth(np.linspace(-1.0, 1.0, 769), knots, 1.0 / 130.0) == 6

    def test_pns_4s_tree_matches_dense_sum(self, test_signal, band_35_65, monkeypatch):
        # the PNS preset over 4 s, 240 samples at 4,001 points: 0.96 M terms, on
        # the tree at depth 4 (the 2 s preset's 0.24 M are summed densely)
        grid = PnsGrid(0.01, (-2.0, 2.0), band_35_65)
        samples = sample_pns(test_signal, grid)
        n = samples.times.size
        model = ReconModel(samples.times, samples.values, bandpass_segments(
            np.full(n, grid.shift), np.arange(n) % 2 == 1, band_35_65))
        t = np.linspace(-2.0, 2.0, 4001)
        near = np.pi / band_35_65.omega_u
        assert (n, recon._tree_depth(t, model.knot_times, near)) == (240, 4)
        expect = evaluate_model(model, t)
        monkeypatch.setattr(recon, "DENSE_TERMS", t.size * model.knot_times.size)
        dense = evaluate_model(model, t)
        assert np.max(np.abs(expect - dense)) <= 1e-13 * np.max(np.abs(dense))

    def test_long_pns_record_holds_one_block_at_a_time(self, test_signal, band_35_65):
        # the 40 s PNS record, 2,400 samples at 40,001 points: the tree's blocks and
        # its leaves' expansions together stay within the dense sum's bound
        grid = PnsGrid(0.01, (-20.0, 20.0), band_35_65)
        samples = sample_pns(test_signal, grid)
        n = samples.times.size
        model = ReconModel(samples.times, samples.values, bandpass_segments(
            np.full(n, grid.shift), np.arange(n) % 2 == 1, band_35_65))
        t = np.linspace(-20.0, 20.0, 40001)
        near = np.pi / band_35_65.omega_u
        assert (n, recon._tree_depth(t, model.knot_times, near)) == (2400, 8)
        budget = 8 * recon.EVAL_CHUNK_ELEMENTS
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluate_model(model, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 1.5 * budget

    def test_every_preset_evaluates_densely(self, tmp_path, monkeypatch):
        # the presets' files were written by the dense sum, which is bit for bit
        # the same as before the tree; a preset evaluated by the tree would drift
        depths = []
        real = recon._tree_depth

        def spy(x, s, near):
            depths.append(real(x, s, near))
            return depths[-1]

        monkeypatch.setattr(recon, "_tree_depth", spy)
        config_dir = Path(__file__).resolve().parent.parent / "configs"
        evaluations = 0
        for preset in ("single_channel", "two_channel", "pns"):
            cfg = experiment.load_config(config_dir / f"{preset}.cfg")
            experiment.run_experiment(cfg, tmp_path / preset)
            # each block of a TEM preset, and the PNS record
            evaluations += experiment.run_size(cfg).get("blocks", 1)
        assert depths == [0] * evaluations

    @pytest.mark.parametrize("case", ["dense", "boxed"])
    def test_small_budget_matches_default(self, request, monkeypatch, case):
        # 1,000 elements: a chunk of a few points, so near pairs straddle chunk
        # edges, and in the tree (boxed) leaves cut into chunks of their points
        # where the default groups whole leaves, and P2M chunks of 10 knots
        # that split leaves
        model, t = request.getfixturevalue(case)
        expect = evaluate_model(model, t)
        monkeypatch.setattr(recon, "EVAL_CHUNK_ELEMENTS", 1000)
        got = evaluate_model(model, t)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("n_coeff", [1, 3])
    def test_coefficients_not_one_per_knot_rejected(self, n_coeff):
        # three coefficients once evaluated silently, dropping the third
        with pytest.raises(ValueError, match="one entry per knot"):
            ReconModel(np.array([0.0, 0.1]), np.ones(n_coeff), lowpass_segments(2, TWO_PI * 65.0))

    def test_model_from_lists_evaluates_as_from_arrays(self):
        # lists once passed the length check, then raised a bare TypeError
        segments = lowpass_segments(2, TWO_PI * 65.0)
        from_lists = ReconModel([0.0, 0.1], [1.0, 1.0], segments)
        from_arrays = ReconModel(np.array([0.0, 0.1]), np.array([1.0, 1.0]), segments)
        assert from_lists(0.05) == from_arrays(0.05) == 12.732395447351628

    def test_segments_not_one_per_knot_rejected(self):
        with pytest.raises(ValueError, match="one entry per knot"):
            ReconModel(np.array([0.0, 0.1]), np.ones(2), lowpass_segments(3, TWO_PI * 65.0))

    def test_degenerate_knot_shift_names_knot(self, band_35_65):
        shifts = np.array([0.01, band_35_65.period / 3.0])
        with pytest.raises(DegenerateShiftError, match="knot 1"):
            bandpass_segments(shifts, np.array([False, True]), band_35_65)

    def test_lowpass_tone_snr(self):
        # tone below the cutoff, encoder interval under the Nyquist interval
        sig = Tone(1.0, TWO_PI * 30.0, 0.9)
        params = TemParams(1.0, 1.0 / 170.0, 2.0, 1.0)
        train = encode(sig, params, (-0.5, 0.5))
        assert params.max_gap < 1.0 / 80.0
        model, _, _ = reconstruct_lowpass(train, TWO_PI * 40.0)
        t = np.arange(-0.5, 0.5005, 1e-3)
        central = (t >= -0.35) & (t <= 0.35)
        xt, xh = sig(t), model(t)
        snr = 10 * np.log10(np.sum(xt[central] ** 2) / np.sum((xh - xt)[central] ** 2))
        assert snr >= 40.0

    def test_round_trip_on_in_band_signal(self, band_35_65):
        # an in-band signal satisfies the kernel model, so the solved
        # expansion reproduces every amplitude integral and re-encoding
        # anchored at a spike walks the original train to within ten times
        # the spike-location tolerance
        T = band_35_65.period
        sig = SignalSum([
            Tone(0.8, TWO_PI * 40.0, 0.3),
            Tone(0.7, TWO_PI * 50.5, 1.1),
            Tone(0.5, TWO_PI * 58.0, 2.0),
        ])
        params = TemParams(1.0, T / 2.0, 3.0, 2.0)
        a, b = encode_two_channel(sig, params, (-1.0, 1.0), alpha=1.5 * params.delta)
        merged = interleave(a, b)
        model, _, _ = reconstruct_bandpass(merged, band_35_65)
        worst = 0.0
        for train in (a, b):
            inside = np.flatnonzero((train.times >= -0.7) & (train.times <= 0.7))
            start = inside[0]
            redo = encode(model, params, (train.times[start], 0.7),
                          initial_integrator=-params.delta)
            orig = train.times[start + 1 : start + 1 + len(redo)]
            n = min(orig.size, len(redo))
            worst = max(worst, float(np.max(np.abs(redo.times[:n] - orig[:n]))))
        assert worst <= 1e-9


def preset_record(preset, window=None):
    """The snapped spike times a run of ``preset`` (over ``window``, if given) decodes,
    with the run's config and the kernel's highest frequency and row stride."""
    cfg = experiment.load_config(CONFIG_DIR / f"{preset}.cfg")
    if window is not None:
        cfg = dataclasses.replace(cfg, window=window)
    if cfg.mode == "single_tem":
        train = experiment._snap_train(encode(cfg.signal, cfg.tem_params, cfg.window))
        return cfg, train, cfg.lowpass_cutoff, 1
    a, b = encode_two_channel(cfg.signal, cfg.tem_params, cfg.window, alpha=cfg.alpha)
    merged = interleave(experiment._snap_train(a), experiment._snap_train(b))
    return cfg, merged, cfg.band.omega_u, 2


def preset_config(tmp_path, preset, window=None, signal=None):
    """The path of ``preset``'s config over ``window`` with ``[signal]`` keys ``signal``."""
    text = (CONFIG_DIR / f"{preset}.cfg").read_text()
    if window is not None:
        text = text.replace("window_start = -1", f"window_start = {window[0]}")
        text = text.replace("window_end = 1", f"window_end = {window[1]}")
    if signal is not None:
        head, rest = text.split("[signal]\n")
        text = head + "[signal]\n" + signal + rest[rest.index("\n["):]
    path = tmp_path / f"{preset}.cfg"
    path.write_text(text)
    return path


class TestBlockSplit:
    """recon.block_split: the cores tile the window, the rows cover core and guard."""

    @pytest.mark.parametrize("preset, window", [
        ("single_channel", None), ("two_channel", None),
        ("single_channel", (-3.0, 3.0)), ("two_channel", (-2.5, 3.5)),
    ])
    def test_preset_blocks(self, preset, window):
        cfg, record, a_max, stride = preset_record(preset, window)
        t = record.times
        edges, spans = recon.block_split(t, cfg.window, a_max, stride)
        core = recon.BLOCK_CORE_HALF_PERIODS * np.pi / a_max
        guard = recon.BLOCK_GUARD_HALF_PERIODS * np.pi / a_max
        span = cfg.window[1] - cfg.window[0]
        assert len(spans) == edges.size - 1 == round(span / core) > 1
        assert (edges[0], edges[-1]) == cfg.window
        assert np.allclose(np.diff(edges), span / len(spans), rtol=1e-12, atol=0.0)
        # each evaluation point falls in exactly one core [edges[k], edges[k+1])
        t_eval = experiment._snap_grid(cfg.window, cfg.grid_step)
        owners = np.searchsorted(edges[1:-1], t_eval, side="right")
        inside = [(t_eval >= edges[k]) & ((t_eval < edges[k + 1]) | (k == len(spans) - 1))
                  for k in range(len(spans))]
        assert np.array_equal(np.sum(inside, axis=0), np.ones(t_eval.size))
        assert np.array_equal(np.argmax(inside, axis=0), owners)
        for k, (start, stop) in enumerate(spans):
            # rows [t[j], t[j + stride]] for j in start..stop-1-stride
            first, last = t[start], t[stop - 1]
            assert first <= (edges[k] - guard if k else t[0])
            assert last >= (edges[k + 1] + guard if k < len(spans) - 1 else t[-1])
            assert start % stride == 0
        # the guards reach no further than one spike gap (two with stride 2) past their need
        gap = np.max(np.diff(t)) * stride
        for k, (start, stop) in enumerate(spans[1:], 1):
            assert t[start] > edges[k] - guard - gap
        for k, (start, stop) in enumerate(spans[:-1]):
            assert t[stop - 1] < edges[k + 1] + guard + gap

    @pytest.mark.parametrize("preset", ["single_channel", "two_channel"])
    def test_a_block_sliced_from_the_record_keeps_its_integrals_bit_for_bit(self, preset):
        # run_experiment decodes dataclasses.replace(record, times=record.times[start:stop]):
        # its amplitude integrals are the record's over the block's rows, exactly
        cfg, record, a_max, stride = preset_record(preset)
        whole = amplitude_integrals(record, stride)
        _, spans = recon.block_split(record.times, cfg.window, a_max, stride)
        assert len(spans) > 1
        for start, stop in spans:
            block = dataclasses.replace(record, times=record.times[start:stop])
            assert (amplitude_integrals(block, stride).tobytes()
                    == whole[start:stop - stride].tobytes())

    @pytest.mark.parametrize("cores, blocks", [(1.48, 1), (1.52, 2), (2.44, 2), (2.52, 3)])
    def test_block_count_rounds_the_cores(self, cores, blocks):
        # a window under 1.5 cores is one block, the whole record
        a_max = TWO_PI * 65.0
        span = cores * recon.BLOCK_CORE_HALF_PERIODS * np.pi / a_max
        t = np.linspace(0.0, span, 200)
        edges, spans = recon.block_split(t, (0.0, span), a_max, 1)
        assert len(spans) == blocks
        if blocks == 1:
            assert spans == [(0, t.size)] and list(edges) == [0.0, span]

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=st.lists(st.floats(min_value=1e-3, max_value=0.4), min_size=3, max_size=300),
        stride=st.sampled_from([1, 2]),
        lead=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_every_block_has_rows_and_parity(self, gaps, stride, lead):
        # sparse and dense records alike: each block keeps one row, starts on its parity
        t = -1.0 + lead + np.concatenate([[0.0], np.cumsum(gaps)])
        window = (-1.0, max(float(t[-1]), 0.0))
        edges, spans = recon.block_split(t, window, TWO_PI * 65.0, stride)
        assert len(spans) == edges.size - 1
        for start, stop in spans:
            assert 0 <= start and stop <= t.size and stop - start >= min(stride + 1, t.size)
            assert start % stride == 0
        assert spans[0][0] == 0 and spans[-1][1] == t.size


class TestBlockDecode:
    """run_experiment's blocks: one is the whole-record decode; many keep accuracy and memory."""

    @pytest.mark.parametrize("preset", ["single_channel", "two_channel"])
    def test_one_block_is_the_single_system_decode_bit_for_bit(self, monkeypatch, tmp_path,
                                                                 preset):
        core = recon.BLOCK_CORE_HALF_PERIODS * np.pi / (TWO_PI * 65.0)  # both presets' a_max
        window = (-round(0.7 * core, 3), round(0.7 * core, 3))  # 1.4 cores, under 1.5
        values = []
        evaluate = recon.evaluate_model
        monkeypatch.setattr(recon, "evaluate_model",
                            lambda model, t: values.append(evaluate(model, t)) or values[-1])
        report = experiment.run_experiment(
            experiment.load_config(preset_config(tmp_path, preset, window)), tmp_path / "out")
        assert len(report.data["gram"]["blocks"]) == 1
        cfg, record, _, _ = preset_record(preset, window)
        if preset == "single_channel":
            model, _, solution = reconstruct_lowpass(record, cfg.lowpass_cutoff)
        else:
            model, _, solution = reconstruct_bandpass(record, cfg.band)
        expect = evaluate(model, experiment._snap_grid(cfg.window, cfg.grid_step))
        (got,) = values
        assert got.tobytes() == expect.tobytes()
        assert report.data["gram"]["effective_rank"] == solution.effective_rank

    # an in-band signal fits the kernel model exactly, so only rounding and the
    # blocks' truncation limit the decode; whole-record decodes read 160.8 and
    # 176.0 dB on these tone sums, and the runs' blocks 165.3 and 167.4 dB (159.4
    # and 163.7 over (2, 4); 160.7 and 161.7 with cores of twice the length); with
    # those longer cores random in-band sums read 155.7-165.8 (lowpass) and
    # 158.0-180.4 dB (bandpass), and blocks without a guard 129-150 dB
    @pytest.mark.parametrize("preset, freqs, floor", [
        ("single_channel", "20, 41.5, 58", 150.0),
        ("two_channel", "40, 50.5, 58", 155.0),
    ])
    def test_in_band_tones_through_blocks(self, tmp_path, preset, freqs, floor):
        signal = (f"kind = tone_sum\nfreqs_hz = {freqs}\namplitudes = 0.8, 0.7, 0.5\n"
                  "phases = 0.3, 1.1, 2.0\n")
        cfg = experiment.load_config(preset_config(tmp_path, preset, signal=signal))
        data = experiment.run_experiment(cfg, tmp_path / "out").data
        assert len(data["gram"]["blocks"]) == experiment.run_size(cfg)["blocks"] > 1
        assert data["metrics"]["snr_db"] >= floor

    # every other window sits at t = 0; away from it the 12-digit spike times a run
    # decodes cap the SNR (131.1 and 125.4 dB over (2, 4); the encoder's raw times
    # read 154.8 and 160.2 dB)
    @pytest.mark.parametrize("preset, floor", [("single_channel", 130.0),
                                               ("two_channel", 124.0)])
    def test_window_away_from_t0(self, tmp_path, preset, floor):
        cfg = experiment.load_config(preset_config(tmp_path, preset, (2, 4)))
        data = experiment.run_experiment(cfg, tmp_path / "out").data
        assert data["window"] == [2.0, 4.0]
        assert len(data["gram"]["blocks"]) > 1
        assert data["metrics"]["snr_db"] >= floor

    def test_cores_without_evaluation_points_are_not_decoded(self, monkeypatch, tmp_path):
        # 4 s is 8 cores; the 5 points of a 1 s grid fall in 5 of them
        path = preset_config(tmp_path, "single_channel", (-2, 2))
        path.write_text(path.read_text().replace("grid_step = 1/1000", "grid_step = 1"))
        cfg = experiment.load_config(path)
        built, build = [], recon.build_gram_lowpass
        monkeypatch.setattr(recon, "build_gram_lowpass",
                            lambda *args: built.append(args) or build(*args))
        blocks = experiment.run_experiment(cfg, tmp_path / "out").data["gram"]["blocks"]
        assert len(blocks) == len(built) == 5
        t_eval = experiment._snap_grid(cfg.window, cfg.grid_step)
        assert t_eval.size == 5
        for block in blocks:
            lo, hi = block["core"]
            holds = (t_eval >= lo) & ((t_eval < hi) | (hi == cfg.window[1]))
            assert np.any(holds)
