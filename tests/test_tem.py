import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from temcodec import tem
from temcodec.experiment import load_config
from temcodec.signals import Constant, Tone, TWO_PI, integrate
from temcodec.tem import (
    InterleavingError,
    SpikeTrain,
    TemParams,
    amplitude_integrals,
    encode,
    encode_two_channel,
    interleave,
    read_spike_file,
    snap_time,
    write_spike_file,
)

SPIKE_TOL = 1e-10
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def params_free():
    # generous bias for bound-2 signals
    return TemParams(kappa=1.0, delta=1.0 / 60.0, bias=3.0, amplitude_bound=2.0)


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kappa=0.0, delta=1.0, bias=2.0, amplitude_bound=1.0),
            dict(kappa=1.0, delta=0.0, bias=2.0, amplitude_bound=1.0),
            dict(kappa=1.0, delta=1.0, bias=1.0, amplitude_bound=1.0),
            dict(kappa=1.0, delta=1.0, bias=2.0, amplitude_bound=-0.5),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TemParams(**kwargs)

    def test_gap_bounds(self):
        p = TemParams(kappa=2.0, delta=0.25, bias=3.0, amplitude_bound=1.0)
        assert p.max_gap == pytest.approx(0.5, rel=1e-15)
        assert p.min_gap == pytest.approx(0.25, rel=1e-15)


class TestEncode:
    def test_zero_signal_uniform_period(self):
        p = TemParams(1.0, 0.01, 2.5, 0.0)
        train = encode(Constant(0.0), p, (0.0, 0.5))
        period = 2.0 * p.kappa * p.delta / p.bias
        assert len(train) == int(0.5 / period)
        # absolute positions drift by at most one step tolerance per spike
        assert np.allclose(train.times, period * np.arange(1, len(train) + 1),
                           atol=len(train) * SPIKE_TOL, rtol=0)
        assert np.allclose(np.diff(train.times), period, atol=5 * SPIKE_TOL, rtol=0)

    # at +-2.0, the amplitude bound, each crossing sits on an end of its bracket
    @pytest.mark.parametrize("level", [1.5, -1.2, 2.0, -2.0])
    def test_constant_signal_period(self, level):
        p = TemParams(1.0, 0.01, 2.5, 2.0)
        train = encode(Constant(level), p, (0.0, 0.4))
        period = 2.0 * p.kappa * p.delta / (p.bias + level)
        assert np.allclose(np.diff(train.times), period, atol=5 * SPIKE_TOL, rtol=0)

    def test_initial_integrator_sets_first_spike(self):
        p = TemParams(1.0, 0.01, 2.0, 0.0)
        # first crossing needs integral kappa*(delta - z0), rate is bias/kappa
        for z0 in (-p.delta, 0.0, 0.5 * p.delta):
            train = encode(Constant(0.0), p, (0.0, 0.2), initial_integrator=z0)
            expect = (p.delta - z0) * p.kappa / p.bias
            assert train.times[0] == pytest.approx(expect, abs=5 * SPIKE_TOL)

    def test_initial_integrator_range_enforced(self, params_free):
        for bad in (params_free.delta, -params_free.delta * 1.01, 2.0):
            with pytest.raises(ValueError):
                encode(Constant(0.0), params_free, (0.0, 1.0), initial_integrator=bad)

    def test_window_validation(self, params_free):
        with pytest.raises(ValueError):
            encode(Constant(0.0), params_free, (1.0, 0.0))

    def test_empty_window_no_spikes(self, params_free):
        assert len(encode(Constant(0.0), params_free, (0.3, 0.3))) == 0

    def test_trailing_partial_interval_dropped(self):
        p = TemParams(1.0, 0.01, 2.0, 0.0)
        period = 2.0 * p.kappa * p.delta / p.bias  # 0.01
        train = encode(Constant(0.0), p, (0.0, 0.035))
        assert len(train) == 3  # fourth spike would land at 0.04, past the end

    def test_gap_bounds_on_modulated_signal(self, test_signal, two_channel_record):
        params, train_a, train_b, _ = two_channel_record
        for tr in (train_a, train_b):
            assert np.all(tr.gaps <= params.max_gap + 1e-9)
            assert np.all(tr.gaps >= params.min_gap - 1e-9)

    def test_deterministic(self, test_signal, params_free):
        t1 = encode(test_signal, params_free, (-0.2, 0.2))
        t2 = encode(test_signal, params_free, (-0.2, 0.2))
        assert np.array_equal(t1.times, t2.times)

    def test_strictly_increasing_enforced(self, params_free):
        with pytest.raises(ValueError):
            SpikeTrain(np.array([0.0, 0.1, 0.1]), "single", params_free, (0.0, 1.0))

    @pytest.mark.parametrize("phase", [0.0, np.pi])
    def test_amplitude_bound_violation_names_spike(self, phase):
        # |x| reaches 2 under a declared bound of 1, so x + bias dips below 0
        p = TemParams(kappa=1.0, delta=0.01, bias=1.5, amplitude_bound=1.0)
        with pytest.raises(ValueError, match=r"spike \d+: .*t=.*amplitude bound"):
            encode(Tone(2.0, TWO_PI * 5.0, phase), p, (0.0, 1.0))

    # x + bias stays positive, but its rate leaves [bias - bound, bias + bound]:
    # the first crossing lies before (level 1.5) or after (level -1.5) its bracket
    @pytest.mark.parametrize("level, seen", [(1.5, 0.02 / 3.5), (-1.5, 0.04)])
    def test_crossing_outside_its_bracket_names_spike_0(self, level, seen):
        p = TemParams(kappa=1.0, delta=0.01, bias=2.0, amplitude_bound=1.0)
        with pytest.raises(ValueError) as info:
            encode(Constant(level), p, (0.0, 0.2))
        found = re.fullmatch(r"spike 0: crossing outside \[(\S+), (\S+)\] seen at t=(\S+); "
                             r"the signal exceeds its amplitude bound 1\.0", str(info.value))
        assert found, str(info.value)
        assert float(found.group(1)) == pytest.approx(0.02 / 3.0, abs=1e-15)
        assert float(found.group(2)) == pytest.approx(0.02, abs=1e-15)
        assert float(found.group(3)) == pytest.approx(seen, abs=1e-15)

    def test_violation_between_newton_points_caught_at_a_quadrature_node(self, test_signal):
        # x + bias reaches -0.44 near t = 0, but stays positive at every Newton
        # point and every crossing stays inside its bracket: only the nodes see it
        sig = test_signal
        p = TemParams(kappa=1.0, delta=1.0 / 60.0, bias=1.5, amplitude_bound=1.0)
        with pytest.raises(ValueError) as info:
            encode_two_channel(sig, p, (-0.3, 0.3), alpha=1.0 / 40.0)
        message = str(info.value)
        assert "np." not in message  # plain floats, not numpy reprs
        found = re.fullmatch(
            r"spike (\d+): x \+ bias = (\S+) <= 0 at t=(\S+); the signal exceeds "
            r"its amplitude bound 1\.0", message)
        assert found, message
        value, t = float(found.group(2)), float(found.group(3))
        assert int(found.group(1)) == 13 and -0.3 < t < 0.3
        assert value <= 0.0 and value == float(sig(np.array([t]))[0]) + p.bias

    @staticmethod
    def _dip(center):
        """x(t) = -2 exp(-((t - center)/0.002)^2): x + 1.5 < 0 within 1 ms of center."""
        return lambda t: -2.0 * np.exp(-((np.asarray(t) - center) / 0.002) ** 2)

    # kappa = 1, delta = 0.01, bias 1.5: F(t) is about 1.5*(t - t0) outside the
    # dip, and spike k fires where it reaches 0.02 + 0.02*k
    @pytest.mark.parametrize("center, spike", [
        (0.005, 0),  # F is about 0.006 there, short of the first target 0.02
        (0.1, 7),  # F is about 0.147: targets 0.02 ... 0.14 are reached, 0.16 is not
    ])
    # 27 panels of 4 ms: one block, or seven with the dip at 0.1 s in the last
    @pytest.mark.parametrize("block", [tem.SEED_BLOCK_PANELS, 4])
    def test_violation_off_every_crossing_names_the_spikes_before_it(
            self, center, spike, block, monkeypatch):
        monkeypatch.setattr(tem, "SEED_BLOCK_PANELS", block)
        p = TemParams(kappa=1.0, delta=0.01, bias=1.5, amplitude_bound=1.0)
        with pytest.raises(ValueError) as info:
            encode(self._dip(center), p, (0.0, 0.105))
        found = re.fullmatch(r"spike (\d+): x \+ bias = (\S+) <= 0 at t=(\S+); .*", str(info.value))
        assert found and int(found.group(1)) == spike, str(info.value)
        assert abs(float(found.group(3)) - center) < 0.001


def _count_integrate_calls(monkeypatch):
    calls = []
    real = tem.integrate

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(tem, "integrate", counting)
    return calls


def _count_signal_calls(sig):
    calls = []

    def counting(t):
        calls.append(np.size(t))
        return sig(t)

    return counting, calls


class TestQuadratureBudget:
    """The global pass seeds each spike within rounding of its crossing, so
    each costs one adaptive integral, plus one integral to the window end.
    The signal is called once per ``SEED_CALL_PANELS`` panels of each block of
    the global pass and once for each of an integral's three panels: the
    Newton slope at a seed comes from the global pass."""

    def test_single_channel_preset(self, monkeypatch):
        cfg = load_config(str(CONFIG_DIR / "single_channel.cfg"))
        calls = _count_integrate_calls(monkeypatch)
        sig, signal_calls = _count_signal_calls(cfg.signal)
        train = encode(sig, cfg.tem_params, (-1.0, 1.0))
        assert len(train) == 780
        assert len(calls) == len(train) + 1
        # the 2 s window's 2,600 panels take five blocks of 512 panels, four
        # calls each, and one of 40, one call
        assert len(signal_calls) == 5 * 4 + 1 + 3 * len(calls) == 2364

    def test_two_channel_preset_each_channel(self, monkeypatch):
        cfg = load_config(str(CONFIG_DIR / "two_channel.cfg"))
        p = cfg.tem_params
        calls = _count_integrate_calls(monkeypatch)
        sig, signal_calls = _count_signal_calls(cfg.signal)
        for z0 in (p.delta - cfg.alpha, -p.delta):  # channel A, then channel B
            del calls[:], signal_calls[:]
            train = encode(sig, p, (-1.0, 1.0), initial_integrator=z0)
            assert len(train) == 180
            assert len(calls) == len(train) + 1
            # the 2 s window's 600 panels take a block of 512 panels, four
            # calls, and one of 88, one call
            assert len(signal_calls) == 4 + 1 + 3 * len(calls) == 548

    # twelve shifts of the window across [0, 1/30) s, one two-channel period
    @pytest.mark.parametrize("shift", [k / 360.0 for k in range(12)])
    def test_both_presets_on_shifted_windows(self, monkeypatch, shift):
        calls = _count_integrate_calls(monkeypatch)
        for preset in ("single_channel.cfg", "two_channel.cfg"):
            cfg = load_config(str(CONFIG_DIR / preset))
            p, window = cfg.tem_params, (-1.0 + shift, 1.0 + shift)
            starts = [-p.delta] if cfg.alpha is None else [p.delta - cfg.alpha, -p.delta]
            for z0 in starts:
                del calls[:]
                train = encode(cfg.signal, p, window, initial_integrator=z0)
                assert len(train) > 0 and len(calls) == len(train) + 1


def _seeds_with_slopes(monkeypatch, slopes_from):
    """Make ``_seed_times`` return its seeds with ``slopes_from(slopes)``."""
    real = tem._seed_times

    def patched(*args):
        seeds, slopes = real(*args)
        return seeds, slopes_from(slopes)

    monkeypatch.setattr(tem, "_seed_times", patched)


class TestSeedSlopes:
    """A seed slope that is not finite and positive is replaced by a sample."""

    @pytest.mark.parametrize("slopes_from", [
        lambda s: np.full_like(s, np.nan),
        lambda s: -s,
        lambda s: np.zeros_like(s),
        lambda s: np.full_like(s, np.inf),
    ], ids=["nan", "negative", "zero", "inf"])
    def test_spike_times_bit_identical_to_a_normal_run(self, test_signal, monkeypatch,
                                                      slopes_from):
        cfg = load_config(str(CONFIG_DIR / "single_channel.cfg"))
        expect = encode(test_signal, cfg.tem_params, (-1.0, 1.0))
        _seeds_with_slopes(monkeypatch, slopes_from)
        got = encode(test_signal, cfg.tem_params, (-1.0, 1.0))
        assert got.times.tobytes() == expect.times.tobytes()

    def test_seed_slope_is_x_plus_bias_at_the_seed(self, test_signal, params_free):
        # the global pass's interpolant of x + bias, in place of a sample there
        p = params_free
        seeds, slopes = tem._seed_times(test_signal, p, -0.2, 0.2, p.kappa * p.delta)
        assert seeds.size == slopes.size > 0 and seeds[-1] <= 0.2
        sampled = test_signal(seeds) + p.bias
        assert np.max(np.abs(slopes - sampled)) <= 1e-12


class TestSeedBlocks:
    """The global pass takes ``SEED_BLOCK_PANELS`` panels per block, and
    ``SEED_CALL_PANELS`` (128) of a block's panels per signal call."""

    # the preset's 2 s window is 2,600 panels: blocks of 1 take a call each, of
    # 100 (26 blocks) one call each, and of 1,299 (two, then one of 2 panels)
    # 11, 11 and 1 calls, of up to 128 panels
    @pytest.mark.parametrize("block, n_calls, max_nodes",
                             [(1, 2600, 15), (100, 26, 1500), (1299, 23, 1920)])
    def test_blocks_match_one_block(self, test_signal, monkeypatch, block, n_calls,
                                    max_nodes):
        p = load_config(str(CONFIG_DIR / "single_channel.cfg")).tem_params
        first = 2.0 * p.kappa * p.delta
        seeds, slopes = tem._seed_times(test_signal, p, -1.0, 1.0, first)
        expect = encode(test_signal, p, (-1.0, 1.0))
        monkeypatch.setattr(tem, "SEED_BLOCK_PANELS", block)
        sig, signal_calls = _count_signal_calls(test_signal)
        blocked_seeds, blocked_slopes = tem._seed_times(sig, p, -1.0, 1.0, first)
        assert len(signal_calls) == n_calls
        assert max(signal_calls) == max_nodes
        assert blocked_seeds.size == seeds.size and blocked_slopes.size == slopes.size
        assert np.max(np.abs(blocked_seeds - seeds)) <= 1e-14
        got = encode(test_signal, p, (-1.0, 1.0))
        assert len(got) == len(expect) == 780
        assert np.max(np.abs(got.times - expect.times)) <= 1e-14

    @staticmethod
    def _seed_count_and_peak(sig, half_span):
        """Seeds and tracemalloc peak of the preset's pass over ``(-half_span, half_span)``."""
        p = load_config(str(CONFIG_DIR / "single_channel.cfg")).tem_params
        tracemalloc.start()
        try:
            seeds, _ = tem._seed_times(sig, p, -half_span, half_span, 2.0 * p.kappa * p.delta)
            return seeds.size, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_preset_window_memory_is_bounded(self, test_signal):
        # the preset's 2 s window peaks at 0.19 MB: one block's node values and
        # Newton arrays, and one call's nodes and signal tables (0.35 MB when a
        # block's nodes were made whole for one signal call)
        n_seeds, peak = self._seed_count_and_peak(test_signal, 1.0)
        assert n_seeds == 780
        assert peak < 0.25e6

    def test_long_window_memory_is_bounded(self, test_signal):
        # a 40 s window is 52,000 panels, whose node values all held at once
        # would take 45 MB; one block of them at a time keeps the pass near
        # 0.58 MB, most of it the seeds and slopes (0.64 MB when a block's nodes
        # were made whole, 0.76 MB when its arrays outlived it, 1.19 MB with
        # blocks of 1024 panels, 4.2 MB with 4096)
        n_seeds, peak = self._seed_count_and_peak(test_signal, 20.0)
        assert n_seeds == 15600
        assert peak <= 0.63e6


def _oracle_times(sig, p, window, z0):
    """Spike times by scipy: chained quad + brentq, window-end rule as the encoder's."""
    quad = pytest.importorskip("scipy.integrate").quad
    brentq = pytest.importorskip("scipy.optimize").brentq

    def biased(u):
        return float(sig(np.array([u]))[0]) + p.bias

    def integral(a, b):
        return quad(biased, a, b, epsabs=1e-15, epsrel=1e-15, limit=200)[0]

    t0, t1 = window
    base, target, times = t0, p.kappa * (p.delta - z0), []
    while True:
        hi = base + target / (p.bias - p.amplitude_bound)
        if hi > t1:
            if integral(base, t1) < target:
                return np.array(times)
            hi = t1
        if integral(base, hi) < target:  # a target below the resolution of t
            times.append(hi)
        else:
            times.append(brentq(lambda t: integral(base, t) - target, base, hi,
                                xtol=1e-15, rtol=8.9e-16))
        base, target = times[-1], 2.0 * p.kappa * p.delta


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestEdgeWindows:
    P = TemParams(kappa=1.0, delta=1.0 / 60.0, bias=3.0, amplitude_bound=2.0)
    Z0 = -0.25 / 60.0

    @pytest.mark.parametrize("t1", [-0.2, -0.195])  # t0 == t1; before the first crossing
    def test_window_without_a_crossing(self, test_signal, t1):
        train = encode(test_signal, self.P, (-0.2, t1), initial_integrator=self.Z0)
        assert len(train) == len(_oracle_times(test_signal, self.P, (-0.2, t1), self.Z0)) == 0

    @pytest.fixture(scope="class")
    def crossings(self, test_signal):
        return _oracle_times(test_signal, self.P, (-0.2, -0.05), self.Z0)

    @pytest.mark.parametrize("k", [3, 11])
    @pytest.mark.parametrize("ulps", [-64, -6, -1, 0, 1, 6, 64])
    def test_window_ending_at_a_crossing(self, test_signal, crossings, k, ulps):
        # Within a few ulps of crossing k, whether it lies inside the window is
        # rounding: the global pass, the chained encoder and the oracle may each
        # decide either way, and only a spike at the window end may differ.
        crossing = crossings[k]
        window = (-0.2, crossing + ulps * math.ulp(crossing))
        oracle = _oracle_times(test_signal, self.P, window, self.Z0)
        train = encode(test_signal, self.P, window, initial_integrator=self.Z0)
        if abs(ulps) > 16:
            assert len(train) == len(oracle) == k + (ulps > 0)
        assert k <= len(train) <= k + 1 and k <= len(oracle) <= k + 1
        assert np.max(np.abs(train.times[:k] - oracle[:k])) <= 1e-13
        if len(train) > k:
            assert abs(train.times[k] - crossing) <= 1e-13 and train.times[k] <= window[1]

    def test_crossing_at_the_window_end_past_the_seeds(self):
        # spike 29 falls on t1 = 0.2 itself: the global pass seeds 29 spikes,
        # and the integral to t1 decides the thirtieth
        p = TemParams(1.0, 0.01, 2.0, 1.0)
        assert tem._seed_times(Constant(1.0), p, 0.0, 0.2, 0.02)[0].size == 29
        train = encode(Constant(1.0), p, (0.0, 0.2))
        assert len(train) == 30
        assert abs(train.times[-1] - 0.2) <= 1e-15

    def test_seed_off_its_crossing_fails_loudly(self, test_signal, monkeypatch):
        # a seed the global pass got wrong is not searched for: its Newton
        # step exceeds SPIKE_TOL and names the spike
        real = tem._seed_times

        def shifted(*args):
            seeds, slopes = real(*args)
            return seeds + 1e-7, slopes

        monkeypatch.setattr(tem, "_seed_times", shifted)
        with pytest.raises(ValueError, match=r"^spike 0: the Newton step from t=\S+ is "
                                             r"\S+ s, more than 1e-10; the global pass missed"):
            encode(test_signal, self.P, (-0.2, 0.0), initial_integrator=self.Z0)

    @settings(max_examples=15, deadline=None)
    @given(z0_frac=st.floats(min_value=-1.0, max_value=1.0, exclude_max=True))
    @example(z0_frac=-1.0)
    @example(z0_frac=0.9999999999999999)  # first target below the resolution of t0
    def test_initial_integrator_matches_oracle(self, test_signal, z0_frac):
        z0 = z0_frac * self.P.delta
        window = (-0.05, 0.05)
        train = encode(test_signal, self.P, window, initial_integrator=z0)
        oracle = _oracle_times(test_signal, self.P, window, z0)
        assert len(train) == len(oracle)
        assert np.max(np.abs(train.times - oracle)) <= 1e-13


def _identity_residuals(sig, train, t0, z0):
    """|integral of x - (target - bias*gap)| for the first and every later interval."""
    p = train.params
    edges = np.concatenate(([t0], train.times))
    targets = np.full(len(train), 2.0 * p.kappa * p.delta)
    targets[0] = p.kappa * (p.delta - z0)
    expected = targets - p.bias * np.diff(edges)
    return np.array([
        abs(integrate(sig, a, b, tol=1e-14) - q)
        for a, b, q in zip(edges[:-1], edges[1:], expected)
    ])


class TestEncoderAccuracy:
    def test_interval_identity_on_every_interval(self, test_signal, two_channel_record):
        params, train_a, train_b, _ = two_channel_record
        for tr, z0 in ((train_a, -0.5 * params.delta), (train_b, -params.delta)):
            assert len(tr) == 180
            assert np.max(_identity_residuals(test_signal, tr, -1.0, z0)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        amplitude=st.floats(min_value=-2.0, max_value=2.0),
        freq_hz=st.floats(min_value=0.5, max_value=120.0),
        phase=st.floats(min_value=0.0, max_value=TWO_PI),
        z0_frac=st.floats(min_value=-1.0, max_value=1.0, exclude_max=True),
    )
    def test_tone_within_bound_meets_identity(self, amplitude, freq_hz, phase, z0_frac):
        p = TemParams(kappa=1.0, delta=0.01, bias=2.5, amplitude_bound=2.0)
        sig = Tone(amplitude, TWO_PI * freq_hz, phase)
        z0 = z0_frac * p.delta
        train = encode(sig, p, (0.0, 0.1), initial_integrator=z0)
        assert len(train) >= int(0.1 / p.max_gap) - 1
        # the first entry is the first-spike target kappa*(delta - z0)
        assert np.max(_identity_residuals(sig, train, 0.0, z0)) <= 1e-12

    def test_first_spikes_match_scipy_oracle(self, test_signal, two_channel_record):
        quad = pytest.importorskip("scipy.integrate").quad
        brentq = pytest.importorskip("scipy.optimize").brentq
        p, train_a, _, _ = two_channel_record

        def biased(u):
            return float(test_signal(np.array([u]))[0]) + p.bias

        z0 = -0.5 * p.delta  # channel A at alpha = 1.5*delta
        base, target = -1.0, p.kappa * (p.delta - z0)
        for k in range(20):
            def excess(t, base=base, target=target):
                return quad(biased, base, t, epsabs=1e-14, epsrel=1e-14)[0] - target

            hi = base + target / (p.bias - p.amplitude_bound)
            t = brentq(excess, base, hi, xtol=1e-15, rtol=8.9e-16)
            assert train_a.times[k] == pytest.approx(t, abs=1e-13), k
            base, target = t, 2.0 * p.kappa * p.delta


class TestAmplitudeIntegrals:
    def test_zero_signal_integrals_vanish(self):
        p = TemParams(1.0, 0.01, 2.5, 0.0)
        train = encode(Constant(0.0), p, (0.0, 0.5))
        seq = amplitude_integrals(train)
        assert seq.shape == (len(train) - 1,)
        assert np.max(np.abs(seq)) < 1e-8

    def test_constant_signal_integrals(self):
        level = 0.75
        p = TemParams(1.0, 0.01, 2.5, 1.0)
        train = encode(Constant(level), p, (0.0, 0.5))
        seq = amplitude_integrals(train)
        assert np.allclose(seq, level * np.diff(train.times), atol=1e-8, rtol=0)

    def test_matches_quadrature_oracle(self, test_signal, two_channel_record):
        _, train_a, _, _ = two_channel_record
        seq = amplitude_integrals(train_a)
        for k in range(0, len(seq), 17):
            oracle = integrate(test_signal, train_a.times[k], train_a.times[k + 1], 1e-10)
            assert seq[k] == pytest.approx(oracle, abs=1e-8)

    def test_short_train_yields_empty(self, params_free):
        train = SpikeTrain(np.array([0.5]), "single", params_free, (0.0, 1.0))
        assert len(amplitude_integrals(train)) == 0


class TestTwoChannel:
    def test_constant_signal_lag_formula(self):
        # B fires (2*delta - alpha)*kappa/bias after A, channels otherwise identical
        p = TemParams(1.0, 1.0 / 60.0, 3.0, 0.0)
        for frac in (1.1, 1.5, 1.9):
            alpha = frac * p.delta
            a, b = encode_two_channel(Constant(0.0), p, (0.0, 0.5), alpha=alpha)
            expect = (2.0 * p.delta - alpha) * p.kappa / p.bias
            n = min(len(a), len(b))
            assert np.allclose(b.times[:n] - a.times[:n], expect, atol=5e-10, rtol=0)
            assert np.allclose(np.diff(a.times), 2 * p.kappa * p.delta / p.bias,
                               atol=5e-10, rtol=0)

    def test_alpha_three_halves_delta_lag(self):
        # alpha = 3*delta/2 gives lag kappa*delta/(2*bias)
        p = TemParams(1.0, 0.02, 4.0, 0.0)
        a, b = encode_two_channel(Constant(0.0), p, (0.0, 0.3), alpha=1.5 * p.delta)
        assert b.times[0] - a.times[0] == pytest.approx(
            p.kappa * p.delta / (2.0 * p.bias), abs=5e-10
        )

    @pytest.mark.parametrize("frac", [1.1, 1.5, 1.999])
    def test_strict_interleaving(self, test_signal, params_free, frac):
        a, b = encode_two_channel(
            test_signal, params_free, (-0.5, 0.5), alpha=frac * params_free.delta
        )
        n = min(len(a), len(b))
        assert np.all(a.times[:n] < b.times[:n])
        assert np.all(b.times[: len(a) - 1] < a.times[1:n + 1][: len(a) - 1])
        interleave(a, b)  # must not raise

    def test_full_cycle_offset_degenerates_to_identical_trains(
        self, test_signal, params_free
    ):
        # alpha == 2*delta means zero phase difference mod the integrator swing;
        # the channels coincide exactly and interleaving cannot be strict.
        a, b = encode_two_channel(
            test_signal, params_free, (-0.5, 0.5), alpha=2.0 * params_free.delta
        )
        assert np.array_equal(a.times, b.times)
        with pytest.raises(InterleavingError):
            interleave(a, b)

    @pytest.mark.parametrize("frac", [0.5, 1.0, 2.001])
    def test_alpha_outside_range_rejected(self, test_signal, params_free, frac):
        with pytest.raises(ValueError):
            encode_two_channel(
                test_signal, params_free, (0.0, 0.5), alpha=frac * params_free.delta
            )

    def test_channel_tags(self, test_signal, params_free):
        a, b = encode_two_channel(test_signal, params_free, (-0.1, 0.1))
        assert a.channel == "A" and b.channel == "B"


class TestInterleave:
    def test_uniform_trains_alternate_with_two_gaps(self):
        p = TemParams(1.0, 0.01, 2.0, 0.0)
        a, b = encode_two_channel(Constant(0.0), p, (0.0, 0.5), alpha=1.5 * p.delta)
        merged = interleave(a, b)
        gaps = np.diff(merged.times)
        assert np.allclose(gaps[0::2], gaps[0], atol=2e-9, rtol=0)
        assert np.allclose(gaps[1::2], gaps[1], atol=2e-9, rtol=0)
        assert np.max(merged.gaps) == pytest.approx(np.max(gaps), rel=0, abs=0)

    def test_merged_integrals_equal_channel_integrals(self, two_channel_record):
        _, train_a, train_b, merged = two_channel_record
        ya = amplitude_integrals(train_a)
        yb = amplitude_integrals(train_b)
        merged_integrals = amplitude_integrals(merged, 2)
        assert merged_integrals.shape == (merged.times.size - 2,)
        assert np.array_equal(merged_integrals[0::2], ya)
        assert np.array_equal(merged_integrals[1::2][: yb.size], yb)

    def test_merged_record_is_a_spike_train_of_the_channels_params_and_window(
            self, two_channel_record):
        params, train_a, train_b, merged = two_channel_record
        assert isinstance(merged, SpikeTrain)
        assert merged.channel == "merged"
        assert merged.params == train_a.params == train_b.params == params
        assert merged.window == train_a.window == train_b.window
        assert len(merged) == len(train_a) + len(train_b)

    def test_merged_times_follow_channel_order(self, two_channel_record):
        _, train_a, train_b, merged = two_channel_record
        assert np.array_equal(merged.times[0::2], train_a.times)
        assert np.array_equal(merged.times[1::2], train_b.times)

    def test_violation_reports_index(self, params_free):
        a = SpikeTrain(np.array([0.0, 1.0, 2.0]), "A", params_free, (0.0, 3.0))
        b = SpikeTrain(np.array([0.5, 0.9, 2.5]), "B", params_free, (0.0, 3.0))
        with pytest.raises(InterleavingError) as info:
            interleave(a, b)
        assert info.value.index == 1

    def test_mismatched_params_rejected(self, params_free):
        other = TemParams(1.0, 0.02, 3.0, 2.0)
        a = SpikeTrain(np.array([0.0, 1.0]), "A", params_free, (0.0, 2.0))
        b = SpikeTrain(np.array([0.5, 1.5]), "B", other, (0.0, 2.0))
        with pytest.raises(ValueError):
            interleave(a, b)


class TestSpikeFiles:
    def test_round_trip_exact(self, tmp_path, test_signal, params_free):
        raw = encode(test_signal, params_free, (-0.3, 0.3), channel="A")
        snapped = SpikeTrain(
            np.array([snap_time(t) for t in raw.times]), "A", params_free, raw.window
        )
        other = SpikeTrain(
            np.array([snap_time(t + 0.004) for t in snapped.times]),
            "B", params_free, raw.window,
        )
        path = tmp_path / "spikes.txt"
        write_spike_file(path, [snapped, other])
        back = {tr.channel: tr for tr in read_spike_file(path)}
        assert np.array_equal(back["A"].times, snapped.times)
        assert back["A"].params == params_free
        assert back["A"].window == snapped.window
        assert np.array_equal(back["B"].times, other.times)

    def test_file_format(self, tmp_path, params_free):
        train = SpikeTrain(np.array([0.125, 0.25]), "single", params_free, (0.0, 1.0))
        path = tmp_path / "s.txt"
        write_spike_file(path, [train])
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# tem kappa=")
        assert lines[1] == "single,0,0.125"
        assert lines[2] == "single,1,0.25"

    @pytest.mark.parametrize("n_spikes", [0, 2 * tem._FILE_CHUNK_LINES + 3])
    def test_chunked_write_equals_one_join(self, tmp_path, params_free, n_spikes):
        # the reference: the whole file as one join of every line
        times = np.linspace(0.0, 1.0, n_spikes, endpoint=False) + np.pi / 1e4
        trains = [SpikeTrain(times, "A", params_free, (0.0, 1.0)),
                  SpikeTrain(times + 1e-4, "B", params_free, (0.0, 1.0))]
        p, w = params_free, trains[0].window
        lines = [f"# tem kappa={p.kappa!r} delta={p.delta!r} bias={p.bias!r} "
                 f"bound={p.amplitude_bound!r} window={w[0]!r},{w[1]!r}"]
        for tr in trains:
            lines += [f"{tr.channel},{idx},{t:.12g}" for idx, t in enumerate(tr.times)]
        path = tmp_path / "s.txt"
        write_spike_file(path, trains)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("ascii")

    @pytest.mark.parametrize("text", [
        "A,0,0.5\n",
        "# tem kappa=1.0 delta=0.01 bias=3.0 bound=2.0\nA,0,0.5\n",
        "# tem kappa=1.0 delta=0.01 bias=3.0 bound=2.0 window=0.0,1.0 extra\nA,0,0.5\n",
        "# tem kappa=1.0 delta=0.01 bias=3.0 bound=2.0 window=0.0,1.0\nA,0\n",
    ], ids=["no_header", "header_without_window", "header_field_without_equals", "short_record"])
    def test_missing_header_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_spike_file(path)

    @pytest.mark.parametrize("good, bad", [
        ("A,1,0.2", "A,1,inf"),
        ("A,1,0.2", "A,1,nan"),
        ("A,1,0.2", "A,1,1e999"),
        ("bias=3.0", "bias=inf"),
        ("kappa=1.0", "kappa=1e999"),
        ("window=0.0,1.0", "window=nan,1.0"),
    ], ids=["time_inf", "time_nan", "time_overflow", "bias_inf", "kappa_overflow", "window_nan"])
    def test_non_finite_value_rejected(self, tmp_path, good, bad):
        text = "# tem kappa=1.0 delta=0.01 bias=3.0 bound=2.0 window=0.0,1.0\nA,0,0.1\nA,1,0.2\n"
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert read_spike_file(path)[0].times.tolist() == [0.1, 0.2]
        path.write_text(text.replace(good, bad))
        line = 3 if good.startswith("A,") else 1
        with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: cannot parse")):
            read_spike_file(path)

    def test_mixed_params_rejected(self, tmp_path, params_free):
        other = TemParams(1.0, 0.02, 3.0, 2.0)
        a = SpikeTrain(np.array([0.1]), "A", params_free, (0.0, 1.0))
        b = SpikeTrain(np.array([0.2]), "B", other, (0.0, 1.0))
        with pytest.raises(ValueError):
            write_spike_file(tmp_path / "s.txt", [a, b])

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_snap_is_idempotent(self, value):
        once = snap_time(value)
        assert snap_time(once) == once
