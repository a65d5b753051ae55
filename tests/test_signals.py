import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from temcodec.signals import (
    BandSpec,
    Constant,
    ModulatedTone,
    QuadratureError,
    SignalSum,
    Tone,
    TWO_PI,
    integrate,
    integrate_columns,
    sinc_pi,
)

# High-precision references computed with a 50-digit evaluation of the
# closed forms (independent of the numpy implementation under test).
X_AT_0137 = 0.14402944138855554
INT_0_TO_01 = -0.0052486586766862803
INT_M025_TO_04 = 0.00013408754548247837


class TestEval:
    def test_value_at_zero_is_limit(self, test_signal):
        # both sinc factors -> 1, leaving 2*cos(1)
        assert test_signal(0.0) == pytest.approx(2.0 * math.cos(1.0), rel=1e-15)

    def test_pure_tone_at_zero(self):
        assert Tone(1.7, TWO_PI * 50.0)(0.0) == pytest.approx(1.7, rel=1e-15)

    def test_golden_point_value(self, test_signal):
        assert test_signal(0.137) == pytest.approx(X_AT_0137, abs=1e-14)

    def test_vectorized_matches_scalar(self, test_signal):
        t = np.linspace(-0.3, 0.3, 7)
        vec = test_signal(t)
        assert vec.shape == t.shape
        for ti, vi in zip(t, vec):
            assert test_signal(float(ti)) == vi

    def test_total_at_sinc_singularities(self):
        # t = 0 is the removable singularity of both sinc factors: envelope 1,
        # phase term 1, so the value is amplitude*cos(1) at +0 and at -0
        sig = ModulatedTone(TWO_PI * 60.0, TWO_PI * 5.0, TWO_PI * 1.5, 0.8)
        for t in (0.0, -0.0):
            assert np.isfinite(sig(t))
            assert sig(t) == pytest.approx(0.8 * math.cos(1.0), rel=1e-15)

    def test_modulated_tone_rejects_zero_rates(self):
        with pytest.raises(ValueError):
            ModulatedTone(TWO_PI * 50.0, 0.0, TWO_PI * 2.5)

    @pytest.mark.parametrize(
        "sig",
        [
            ModulatedTone(TWO_PI * 50.0, TWO_PI * 10.0, TWO_PI * 2.5, 2.0),
            Tone(1.3, TWO_PI * 41.0, 0.2),
            Constant(-1.1),
            SignalSum([Tone(0.5, TWO_PI * 40.0), Tone(0.25, TWO_PI * 55.0, 1.0)]),
        ],
    )
    def test_amplitude_bound_holds_on_dense_grid(self, sig):
        t = np.linspace(-2.0, 2.0, 40001)
        assert np.max(np.abs(sig(t))) <= sig.amplitude_bound + 1e-12

    def test_signal_sum_bound_is_sum(self):
        s = SignalSum([Tone(0.5, 1.0), Constant(0.25)])
        assert s.amplitude_bound == 0.75


SINC_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1.0, -3.0, 0.5, 1e308,
              np.inf, -np.inf, np.nan]


class TestSincPi:
    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 40),
                      elements=st.floats(allow_nan=True, allow_infinity=True,
                                         allow_subnormal=True)))
    @example(np.array(SINC_EDGES))
    def test_bit_identical_to_numpy_sinc(self, x):
        with np.errstate(invalid="ignore", over="ignore"):
            got, expect = sinc_pi(x), np.sinc(x)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("x", SINC_EDGES)
    def test_scalar_bit_identical_to_numpy_sinc(self, x):
        with np.errstate(invalid="ignore", over="ignore"):
            got, expect = np.float64(sinc_pi(x)), np.float64(np.sinc(x))
        assert got.tobytes() == expect.tobytes()


def modulated_tone_oracle(sig, t):
    """``ModulatedTone``'s value as two separate sinc calls, one per factor."""
    t = np.asarray(t, dtype=float)
    envelope = sig.amplitude * np.sinc(np.asarray(sig.am_omega * t) / np.pi)
    return envelope * np.cos(sig.carrier_omega * t + np.sinc(np.asarray(sig.pm_omega * t) / np.pi))


TONES = [
    ModulatedTone(TWO_PI * 50.0, TWO_PI * 10.0, TWO_PI * 2.5, 2.0),  # the presets' waveform
    ModulatedTone(-TWO_PI * 7.0, -TWO_PI * 3.3, TWO_PI * 0.7, -0.6),
]


class TestModulatedToneOneSincPass:
    """Both sinc factors share one pass; the values stay those of two calls."""

    @pytest.mark.parametrize("sig", TONES)
    @settings(max_examples=100, deadline=None)
    @given(t=hnp.arrays(np.float64, st.integers(0, 40),
                        elements=st.floats(-1e6, 1e6, allow_subnormal=True)))
    @example(t=np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.137]))
    def test_arrays_bit_identical_to_two_sinc_calls(self, sig, t):
        got, expect = sig(t), modulated_tone_oracle(sig, t)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("sig", TONES)
    @pytest.mark.parametrize("t", [0.0, -0.0, 0.137, -0.9, 1e-300])
    def test_scalars_bit_identical_to_two_sinc_calls(self, sig, t):
        for value in (t, np.float64(t), np.array(t)):
            got, expect = sig(value), modulated_tone_oracle(sig, value)
            assert type(got) is type(expect) is np.float64
            assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("sig", TONES)
    def test_two_dimensional_input_bit_identical_to_two_sinc_calls(self, sig):
        t = np.linspace(-0.3, 0.3, 15).reshape(3, 5)  # holds t = 0
        got, expect = sig(t), modulated_tone_oracle(sig, t)
        assert got.shape == (3, 5) and got.tobytes() == expect.tobytes()

    def test_input_left_unchanged(self, test_signal):
        t = np.linspace(-0.3, 0.3, 15)
        before = t.copy()
        test_signal(t)
        assert np.array_equal(t, before)


class TestIntegrate:
    def test_zero_integrand(self):
        assert integrate(Constant(0.0), -1.0, 3.0, 1e-12) == 0.0

    def test_full_period_cosine(self):
        omega = TWO_PI * 50.0
        assert abs(integrate(Tone(1.0, omega), 0.0, TWO_PI / omega, 1e-12)) < 1e-12

    def test_golden_interval(self, test_signal):
        assert integrate(test_signal, 0.0, 0.1, 1e-10) == pytest.approx(
            INT_0_TO_01, abs=2e-10
        )
        assert integrate(test_signal, -0.25, 0.4, 1e-10) == pytest.approx(
            INT_M025_TO_04, abs=2e-10
        )

    def test_cross_check_second_quadrature(self, test_signal):
        mine = integrate(test_signal, 0.0, 0.1, 1e-12)
        other, est = scipy.integrate.quad(lambda t: float(test_signal(t)), 0.0, 0.1,
                                          epsabs=1e-12, limit=200)
        assert est < 1e-10
        assert mine == pytest.approx(other, abs=1e-11)

    def test_empty_interval(self, test_signal):
        assert integrate(test_signal, 0.3, 0.3) == 0.0

    def test_reversed_limits_rejected(self, test_signal):
        with pytest.raises(ValueError):
            integrate(test_signal, 0.5, 0.2)
        with pytest.raises(ValueError):
            integrate(test_signal, 0.0, 1.0, tol=0.0)

    def test_nan_tol_rejected_before_any_panel(self):
        calls = []

        def sig(t):
            calls.append(t)
            return np.cos(t)

        for tol in (float("nan"), 0.0, -1.0):
            with pytest.raises(ValueError, match="tol must be positive"):
                integrate(sig, 0.0, 1.0, tol=tol)
            with pytest.raises(ValueError, match="tol must be positive"):
                integrate_columns(lambda t: sig(t)[:, None], 0.0, 1.0, tol=tol)
        assert calls == []

    def test_budget_exhaustion_reports_estimate(self):
        with pytest.raises(QuadratureError, match="within 8 panels"):
            integrate(Tone(1.0, TWO_PI * 50.0), 0.0, 1.0, tol=1e-30, max_panels=8)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(-1.0, 1.0),
        b=st.floats(-1.0, 1.0),
        c=st.floats(-1.0, 1.0),
    )
    def test_additive_over_subintervals(self, test_signal, a, b, c):
        lo, mid, hi = sorted((a, b, c))
        sig = test_signal
        tol = 1e-10
        whole = integrate(sig, lo, hi, tol)
        parts = integrate(sig, lo, mid, tol) + integrate(sig, mid, hi, tol)
        assert whole == pytest.approx(parts, abs=2 * tol)

    def test_tone_antiderivative_on_random_intervals(self):
        rng = np.random.RandomState(1234)
        tol = 1e-11
        for _ in range(100):
            amp = rng.uniform(0.1, 2.0)
            omega = rng.uniform(5.0, 500.0)
            phase = rng.uniform(0.0, TWO_PI)
            a, b = np.sort(rng.uniform(-2.0, 2.0, size=2))
            sig = Tone(amp, omega, phase)
            exact = amp / omega * (math.sin(omega * b + phase) - math.sin(omega * a + phase))
            assert integrate(sig, a, b, tol) == pytest.approx(exact, abs=5 * tol)


class TestBandSpec:
    def test_reference_band(self, band_35_65):
        assert band_35_65.bandwidth == pytest.approx(TWO_PI * 30.0, rel=1e-12)
        assert band_35_65.k0 == 3
        # per-channel period at the Landau rate
        assert band_35_65.period == pytest.approx(1.0 / 30.0, rel=1e-12)

    def test_integer_band_position(self):
        b = 10.0
        spec = BandSpec(b, 2.0 * b)
        assert spec.k0 == 2

    def test_bandwidth_is_exact_difference(self):
        spec = BandSpec(217.3, 421.9)
        assert spec.bandwidth + spec.omega_l == spec.omega_u

    @settings(max_examples=50, deadline=None)
    @given(
        lo=st.floats(0.1, 1e4),
        width=st.floats(0.1, 1e4),
    )
    def test_invariants_hold_generically(self, lo, width):
        spec = BandSpec(lo, lo + width)
        assert spec.bandwidth + spec.omega_l == spec.omega_u
        ratio = 2.0 * spec.omega_l / spec.bandwidth
        assert spec.k0 >= math.ceil(ratio - 1e-9)
        assert spec.k0 <= math.ceil(ratio + 1e-9)

    @pytest.mark.parametrize("edges", [(0.0, 1.0), (-1.0, 2.0), (2.0, 1.0), (1.0, 1.0)])
    def test_bad_edges_rejected(self, edges):
        with pytest.raises(ValueError):
            BandSpec(*edges)
