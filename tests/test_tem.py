import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from temcodec import tem
from temcodec.experiment import load_config
from temcodec.signals import Constant, Tone, TWO_PI, integrate, modulated_test_signal
from temcodec.tem import (
    AmplitudeIntegralSeq,
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

    def test_violation_between_newton_points_caught_at_a_quadrature_node(self):
        # x + bias reaches -0.44 near t = 0, but stays positive at every Newton
        # point and every crossing stays inside its bracket: only the nodes see it
        sig = modulated_test_signal()
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
    def test_violation_off_every_crossing_names_the_spikes_before_it(self, center, spike):
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


class TestQuadratureBudget:
    """The global pass seeds each spike within rounding of its crossing, so
    each costs one adaptive integral, plus one per spike whose bracket passes
    the window end."""

    def test_single_channel_preset(self, monkeypatch):
        cfg = load_config(str(CONFIG_DIR / "single_channel.cfg"))
        calls = _count_integrate_calls(monkeypatch)
        train = encode(cfg.signal, cfg.tem_params, (-1.0, 1.0), spike_tol=cfg.spike_tol)
        assert len(train) == 780
        assert len(calls) <= len(train) + 4

    def test_two_channel_preset_each_channel(self, monkeypatch):
        cfg = load_config(str(CONFIG_DIR / "two_channel.cfg"))
        p = cfg.tem_params
        calls = _count_integrate_calls(monkeypatch)
        for z0 in (p.delta - cfg.alpha, -p.delta):  # channel A, then channel B
            del calls[:]
            train = encode(cfg.signal, p, (-1.0, 1.0), initial_integrator=z0,
                           spike_tol=cfg.spike_tol)
            assert len(train) == 180
            assert len(calls) <= len(train) + 4


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

    def test_spikes_past_the_seeds_start_at_the_window_end(self, test_signal, monkeypatch):
        # A chained loop that outruns the global pass seeds at t1 and still
        # converges: here every spike does.
        window = (-0.2, 0.0)
        monkeypatch.setattr(tem, "_seed_times", lambda sig, p, t0, t1, first: np.array([t1]))
        train = encode(test_signal, self.P, window, initial_integrator=self.Z0)
        oracle = _oracle_times(test_signal, self.P, window, self.Z0)
        assert len(train) == len(oracle) > 0
        assert np.max(np.abs(train.times - oracle)) <= 1e-13

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
        assert seq.stride == 1
        assert np.max(np.abs(seq.values)) < 1e-8

    def test_constant_signal_integrals(self):
        level = 0.75
        p = TemParams(1.0, 0.01, 2.5, 1.0)
        train = encode(Constant(level), p, (0.0, 0.5))
        seq = amplitude_integrals(train)
        assert np.allclose(seq.values, level * np.diff(train.times), atol=1e-8, rtol=0)

    def test_matches_quadrature_oracle(self, test_signal, two_channel_record):
        _, train_a, _, _ = two_channel_record
        seq = amplitude_integrals(train_a)
        for k in range(0, len(seq), 17):
            oracle = integrate(test_signal, train_a.times[k], train_a.times[k + 1], 1e-10)
            assert seq.values[k] == pytest.approx(oracle, abs=1e-8)

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
        assert merged.max_gap == pytest.approx(np.max(gaps), rel=0, abs=0)

    def test_merged_integrals_equal_channel_integrals(self, two_channel_record):
        _, train_a, train_b, merged = two_channel_record
        ya = amplitude_integrals(train_a).values
        yb = amplitude_integrals(train_b).values
        assert merged.integrals.stride == 2
        assert np.array_equal(merged.integrals.values[0::2], ya)
        assert np.array_equal(merged.integrals.values[1::2][: yb.size], yb)

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

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("A,0,0.5\n")
        with pytest.raises(ValueError):
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
