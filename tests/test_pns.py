import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, example, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from temcodec.signals import BandSpec, Constant, Tone, TWO_PI
from temcodec import recon
from temcodec.pns import PnsGrid, PnsSamples, reconstruct_pns, sample_pns
from temcodec.recon import (
    DegenerateShiftError,
    ReconModel,
    bandpass_segments,
    evaluate_model,
    kernel_gbp,
    lowpass_segments,
    shift_is_degenerate,
)

from kernel_oracle import closed_form_gbp


@pytest.fixture
def grid_35_65(band_35_65):
    # 0.3*T; note T/3 itself is degenerate for this band position (k0 = 3)
    return PnsGrid(0.01, (-2.0, 2.0), band_35_65)


class TestGridValidation:
    def test_shift_out_of_range(self, band_35_65):
        T = band_35_65.period
        for bad in (0.0, -0.1, T, 1.5 * T):
            with pytest.raises(ValueError):
                PnsGrid(bad, (-1.0, 1.0), band_35_65)

    def test_period_is_the_band_period(self, grid_35_65, band_35_65):
        assert grid_35_65.period == band_35_65.period

    @pytest.mark.parametrize("frac", [1.0 / 3.0, 0.25, 2.0 / 3.0, 0.5])
    def test_degenerate_shifts_rejected(self, band_35_65, frac):
        # k0 = 3: shift*k/period integer for k in (3, 4) at these fractions
        with pytest.raises(DegenerateShiftError):
            PnsGrid(frac * band_35_65.period, (-1.0, 1.0), band_35_65)

    def test_detector_matches_definition(self, band_35_65):
        T, k0 = band_35_65.period, band_35_65.k0
        for m in range(1, k0 + 1):
            assert shift_is_degenerate(m * T / k0, T, k0)
        for m in range(1, k0 + 2):
            assert shift_is_degenerate(m * T / (k0 + 1), T, k0)
        assert not shift_is_degenerate(0.3 * T, T, k0)
        assert not shift_is_degenerate(0.1 * T, T, k0)

    @settings(max_examples=100, deadline=None)
    @given(frac=st.floats(0.001, 0.999))
    def test_detector_matches_near_integer_distance(self, band_35_65, frac):
        T, k0 = band_35_65.period, band_35_65.k0
        d = frac * T
        expected = any(
            abs(d * k / T - round(d * k / T)) <= 1e-9 for k in (k0, k0 + 1)
        )
        assert shift_is_degenerate(d, T, k0) == expected

    @settings(max_examples=50, deadline=None)
    @given(fracs=st.lists(st.sampled_from([0.25, 1.0 / 3.0, 0.5]) | st.floats(0.001, 0.999),
                          min_size=1, max_size=12))
    def test_detector_on_an_array_matches_it_per_value(self, band_35_65, fracs):
        T, k0 = band_35_65.period, band_35_65.k0
        shifts = np.array(fracs) * T
        flags = shift_is_degenerate(shifts, T, k0)
        assert flags.shape == shifts.shape and flags.dtype == bool
        assert flags.tolist() == [shift_is_degenerate(float(d), T, k0) for d in shifts]


class TestSampling:
    def test_zero_signal(self, grid_35_65):
        s = sample_pns(Constant(0.0), grid_35_65)
        assert np.all(s.values == 0.0)

    def test_tone_values_and_instants(self, band_35_65):
        T = band_35_65.period
        d = T / 4.37
        grid = PnsGrid(d, (-1.0, 1.0), band_35_65)
        tone = Tone(1.0, TWO_PI * 50.0)
        s = sample_pns(tone, grid)
        ks = np.round(s.times[0::2] / T).astype(int)
        assert np.allclose(s.times[0::2], ks * T, atol=1e-15)
        assert np.allclose(s.values[0::2], np.cos(TWO_PI * 50.0 * ks * T), atol=1e-15)
        assert np.allclose(s.times[1::2] - s.times[0::2], d, atol=1e-15)
        gaps = np.diff(s.times)
        assert np.allclose(gaps[0::2], d, atol=1e-12)
        assert np.allclose(gaps[1::2], T - d, atol=1e-12)

    def test_both_instants_must_fit_window(self, band_35_65):
        T = band_35_65.period
        grid = PnsGrid(0.01, (0.0, 2.0 * T + 0.005), band_35_65)
        s = sample_pns(Constant(1.0), grid)
        # k = 0, 1, 2 have k*T in window but k = 2 has k*T + d past the end
        assert s.times.size == 4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PnsSamples(np.array([0.0, 1.0]), np.array([1.0]))


class TestKernel:
    def test_unit_value_at_origin(self, band_35_65):
        assert kernel_gbp(0.0, 0.01, band_35_65) == pytest.approx(1.0, abs=1e-14)

    def test_origin_limit_by_richardson_extrapolation(self, band_35_65):
        # numerical limit from +/-1e-4 .. +/-1e-6 confirms the filled value
        d = 0.01
        estimates = []
        for h in (1e-4, 1e-5, 1e-6):
            sym = 0.5 * (kernel_gbp(h, d, band_35_65) + kernel_gbp(-h, d, band_35_65))
            estimates.append(sym)
        r1 = (100.0 * estimates[1] - estimates[0]) / 99.0
        r2 = (100.0 * estimates[2] - estimates[1]) / 99.0
        limit = (10000.0 * r2 - r1) / 9999.0
        assert limit == pytest.approx(float(kernel_gbp(0.0, d, band_35_65)), abs=1e-8)
        assert limit == pytest.approx(1.0, abs=1e-8)

    def test_vanishes_at_other_grid_instants(self, band_35_65):
        T, d = band_35_65.period, 0.01
        ks = np.arange(-40, 41)
        own = kernel_gbp(ks[ks != 0] * T, d, band_35_65)
        other = kernel_gbp(ks * T + d, d, band_35_65)
        assert np.max(np.abs(own)) < 1e-12
        assert np.max(np.abs(other)) < 1e-12

    def test_degenerate_shift_raises(self, band_35_65):
        with pytest.raises(DegenerateShiftError):
            kernel_gbp(0.1, band_35_65.period / 3.0, band_35_65)

    @settings(max_examples=100, deadline=None)
    @given(frac=st.sampled_from([0.25, 1.0 / 3.0, 0.5, 0.75]) | st.floats(0.001, 0.999))
    # just inside and just outside the 1e-9 band around shift*3/period = 1
    @example(frac=(1.0 + 0.9e-9) / 3.0)
    @example(frac=(1.0 + 1.1e-9) / 3.0)
    def test_raises_exactly_where_the_shift_is_degenerate(self, band_35_65, frac):
        T, k0 = band_35_65.period, band_35_65.k0
        d = frac * T
        shifts = np.array([0.3 * T, d])  # an array raises if any of its shifts is degenerate
        if shift_is_degenerate(d, T, k0):
            for shift in (d, shifts):
                with pytest.raises(DegenerateShiftError):
                    kernel_gbp(0.1, shift, band_35_65)
        else:
            assert np.all(np.isfinite(kernel_gbp(0.1, shifts, band_35_65)))

    def test_broadcasts_t_against_d(self, band_35_65):
        t = np.linspace(-0.3, 0.3, 7)[:, None]
        d = np.array([0.01, 0.0121, 0.02])
        got = kernel_gbp(t, d, band_35_65)
        assert got.shape == (7, 3)
        for j, dj in enumerate(d):
            assert np.array_equal(got[:, j], kernel_gbp(t[:, 0], dj, band_35_65))
        np.testing.assert_allclose(got, closed_form_gbp(t, d, band_35_65), rtol=0, atol=1e-13)
        assert isinstance(kernel_gbp(0.1, 0.01, band_35_65), float)

    @pytest.mark.parametrize("edges_hz", [(35.0, 65.0), (20.0, 50.0), (40.0, 55.0)])
    def test_matches_spectral_construction(self, edges_hz):
        # Rebuild the interpolant from first principles: its transform is
        # piecewise constant on the two sub-segments of the band coupled to
        # the mirror band by shifts of k0*B and (k0+1)*B, with values fixed
        # by the alias-cancellation conditions.  Integrate that spectrum
        # numerically and compare with kernel_gbp and the closed form.
        band = BandSpec(TWO_PI * edges_hz[0], TWO_PI * edges_hz[1])
        d = 0.0121
        b_, k0 = band.bandwidth, band.k0
        seg_edge = k0 * b_ - band.omega_l
        segments = [
            (band.omega_l, seg_edge, 0.5 * k0 * b_ * d),
            (seg_edge, band.omega_u, 0.5 * (k0 + 1) * b_ * d),
        ]
        T = band.period

        def spectral(t):
            total = 0.0
            for lo, hi, phi in segments:
                amp = -T * np.exp(-1j * phi) / (2j * math.sin(phi))
                re, _ = scipy.integrate.quad(lambda w: math.cos(w * t), lo, hi, limit=400)
                im, _ = scipy.integrate.quad(lambda w: math.sin(w * t), lo, hi, limit=400)
                total += (amp * (re + 1j * im)).real
            return total / math.pi

        assert not shift_is_degenerate(d, T, k0)
        for t in (0.0131, 0.2, -0.37, 1.1, -0.004):
            expect = spectral(t)
            assert float(kernel_gbp(t, d, band)) == pytest.approx(expect, abs=1e-9)
            assert float(closed_form_gbp(t, d, band)) == pytest.approx(expect, abs=1e-9)


class TestReconstruction:
    def test_all_zero_samples(self, grid_35_65):
        s = sample_pns(Constant(0.0), grid_35_65)
        t = np.linspace(-0.5, 0.5, 101)
        assert np.all(reconstruct_pns(s, grid_35_65, t) == 0.0)

    def test_interpolation_identity_at_sample_instants(self, band_35_65):
        grid = PnsGrid(0.01, (-2.0, 2.0), band_35_65)
        tone = Tone(1.0, TWO_PI * 50.0, 0.7)
        s = sample_pns(tone, grid)
        central = (s.times >= -2.0 + 0.8) & (s.times <= 2.0 - 0.8)
        got = reconstruct_pns(s, grid, s.times[central])
        assert np.max(np.abs(got - s.values[central])) <= 1e-9 * np.max(np.abs(s.values))

    def test_evaluates_through_the_recon_module_attribute(self, grid_35_65, monkeypatch):
        # the benchmark tracer replaces recon.evaluate_model; pns must reach it
        s = sample_pns(Tone(1.0, TWO_PI * 50.0), grid_35_65)
        t = np.linspace(-0.1, 0.1, 5)
        calls = []
        real = recon.evaluate_model

        def spy(model, points):
            calls.append((model, points))
            return real(model, points)

        monkeypatch.setattr(recon, "evaluate_model", spy)
        got = reconstruct_pns(s, grid_35_65, t)
        assert len(calls) == 1
        model, points = calls[0]
        assert points is t
        assert np.array_equal(model.knot_times, s.times)
        assert np.array_equal(model.coefficients, s.values)
        n = s.times.size
        odd = np.arange(n) % 2 == 1
        expect = bandpass_segments(np.full(n, grid_35_65.shift), odd, grid_35_65.band)
        assert len(model.segments) == len(expect)
        for got_seg, expect_seg in zip(model.segments, expect):
            assert all(np.array_equal(a, b) for a, b in zip(got_seg, expect_seg))
        assert np.array_equal(got, real(model, t))

    def test_scalar_evaluation(self, grid_35_65):
        s = sample_pns(Tone(1.0, TWO_PI * 50.0), grid_35_65)
        out = reconstruct_pns(s, grid_35_65, 0.05)
        assert isinstance(out, float)

    @pytest.mark.parametrize("freq_hz", [40.0, 46.0, 50.0, 55.0, 60.0])
    def test_in_band_tone_error_decays_like_inverse_distance(self, band_35_65, freq_hz):
        # 1/t kernel tails: error at the window centre halves when the
        # window doubles; fitted log-log slope -1 up to fit noise.
        T = band_35_65.period
        tone = Tone(1.0, TWO_PI * freq_hz, 0.3)
        halves = np.array([30, 60, 120, 240])
        errs = []
        for n_half in halves:
            grid = PnsGrid(0.01, (-n_half * T, n_half * T), band_35_65)
            s = sample_pns(tone, grid)
            t = np.linspace(-2 * T, 2 * T, 161)
            errs.append(np.max(np.abs(reconstruct_pns(s, grid, t) - tone(t))))
        errs = np.array(errs)
        assert np.all(np.diff(errs) < 0.0)
        slope = np.polyfit(np.log(halves), np.log(errs), 1)[0]
        assert slope <= -1.0 + 0.05

    def test_reversed_kernel_equals_complementary_shift(self, band_35_65):
        # the channel-B interpolant for shift d is the channel-A interpolant
        # for shift T-d; this is what makes channel relabeling consistent
        T = band_35_65.period
        d = 0.01
        tau = np.linspace(-0.4, 0.4, 1001)
        lhs = kernel_gbp(-tau, d, band_35_65)
        rhs = kernel_gbp(tau, T - d, band_35_65)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_shift_consistency_under_channel_relabeling(self, band_35_65):
        # the instants {kT} u {kT+d} reconstruct identically when read as a
        # grid with swapped roles (B first, shift T-d); the finite records
        # differ only by the two samples the relabeling drops at the ends
        T = band_35_65.period
        d = 0.01
        tone = Tone(1.0, TWO_PI * 52.0, 1.3)
        grid = PnsGrid(d, (-2.0, 2.0), band_35_65)
        s = sample_pns(tone, grid)
        old_even_t, old_odd_t = s.times[0::2], s.times[1::2]
        old_even_v, old_odd_v = s.values[0::2], s.values[1::2]
        n = old_even_t.size - 1
        times2 = np.empty(2 * n)
        values2 = np.empty(2 * n)
        times2[0::2], values2[0::2] = old_odd_t[:n], old_odd_v[:n]
        times2[1::2], values2[1::2] = old_even_t[1:], old_even_v[1:]
        grid2 = PnsGrid(T - d, (-2.0, 2.0), band_35_65)
        s2 = PnsSamples(times2, values2)
        t = np.linspace(-0.8, 0.8, 501)
        x1 = reconstruct_pns(s, grid, t)
        x2 = reconstruct_pns(s2, grid2, t)
        dropped = old_even_v[0] * kernel_gbp(t - old_even_t[0], d, band_35_65)
        dropped += old_odd_v[-1] * kernel_gbp(old_odd_t[-1] - t, d, band_35_65)
        assert np.max(np.abs(x1 - x2 - dropped)) < 1e-9


def lowpass_kernel(omega):
    """The lowpass kernel ``sin(omega*u)/(pi*u)`` of every knot, from ``np.sinc``."""
    return lambda u: (omega / math.pi) * np.sinc(omega * u / math.pi)


def bandpass_kernel(shifts, reflected, band):
    """Each knot's bandpass kernel, from its closed form."""
    sign = np.where(reflected, -1.0, 1.0)
    return lambda u: closed_form_gbp(u * sign, shifts, band)


def direct_kernel_sum(knots, coeff, kernel, t):
    """``sum_l c_l * kernel_l(t)`` with every kernel evaluated directly, as ``kernel(t - s_l)``."""
    return kernel(t[:, None] - knots[None, :]) @ coeff


class TestEvaluatorMatchesDirectSum:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["lowpass", "bandpass"]),
        knots=hnp.arrays(float, st.integers(1, 30), elements=st.floats(-1.0, 1.0)),
        data=st.data(),
    )
    def test_evaluate_model_equals_direct_kernel_sum(self, band_35_65, kind, knots, data):
        n = knots.size
        unit = st.floats(-1.0, 1.0)
        coeff = data.draw(hnp.arrays(float, n, elements=unit))
        if kind == "lowpass":
            segments = lowpass_segments(n, TWO_PI * 65.0)
            kernel = lowpass_kernel(TWO_PI * 65.0)
        else:
            frac = data.draw(hnp.arrays(float, n, elements=st.floats(0.01, 0.99)))
            # keep |sin(phi)| of both kernel segments away from 0 (degenerate shifts)
            k0 = band_35_65.k0
            assume(all(np.min(np.abs(np.sin(k * np.pi * frac))) > 0.05 for k in (k0, k0 + 1)))
            shifts = frac * band_35_65.period
            reflected = data.draw(hnp.arrays(bool, n))
            segments = bandpass_segments(shifts, reflected, band_35_65)
            kernel = bandpass_kernel(shifts, reflected, band_35_65)
        model = ReconModel(knots, coeff, segments)
        offsets = data.draw(hnp.arrays(float, n, elements=st.floats(-1e-9, 1e-9)))
        free = data.draw(hnp.arrays(float, 16, elements=st.floats(-1.5, 1.5)))
        tol = 1e-11 * (1.0 + np.sum(np.abs(coeff)))
        # ``free`` alone may have no point near a knot
        for t in (free, np.concatenate([free, knots, knots + offsets])):
            direct = direct_kernel_sum(knots, coeff, kernel, t)
            assert np.max(np.abs(evaluate_model(model, t) - direct)) <= tol

    @settings(max_examples=8, deadline=None)
    @given(
        kind=st.sampled_from(["lowpass", "bandpass"]),
        n=st.integers(300, 600),
        m=st.integers(4000, 6000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_box_path_equals_direct_kernel_sum(self, band_35_65, kind, n, m, seed):
        # enough points per knot that the evaluator builds a tree with a far field
        rng = np.random.default_rng(seed)
        knots = rng.uniform(-1.0, 1.0, n)
        coeff = rng.uniform(-1.0, 1.0, n)
        if kind == "lowpass":
            segments = lowpass_segments(n, TWO_PI * 65.0)
            kernel = lowpass_kernel(TWO_PI * 65.0)
            near = 1.0 / 130.0
        else:
            frac = rng.uniform(0.01, 0.99, n)
            k0 = band_35_65.k0
            bad = np.zeros(n, dtype=bool)
            for k in (k0, k0 + 1):
                bad |= np.abs(np.sin(k * np.pi * frac)) <= 0.05
            frac[bad] = 0.3  # the pns preset's shift ratio, non-degenerate for k0 = 3
            shifts, reflected = frac * band_35_65.period, rng.random(n) < 0.5
            segments = bandpass_segments(shifts, reflected, band_35_65)
            kernel = bandpass_kernel(shifts, reflected, band_35_65)
            near = math.pi / band_35_65.omega_u
        model = ReconModel(knots, coeff, segments)
        s = np.sort(knots)

        def layout(t):
            x = np.sort(t)
            depth = recon._tree_depth(x, s, near)
            assert depth >= 2  # some leaves are in others' interaction lists
            return recon._leaf_edges(x, s, depth)

        # points beyond the knot span on both sides; the end points fix the
        # span, so with the count they fix the leaves
        t = rng.uniform(-1.5, 1.5, m)
        t[:2] = -1.5, 1.5
        edges = layout(t)
        # the rest exercises: points on a knot, duplicates, leaf edges, Chebyshev nodes
        special = [knots[:20], t[-20:], edges[1:-1]]
        half = 0.5 * (edges[1] - edges[0])
        special += [edges[:-1, None] + half * (1.0 + recon._CHEB_NODES)]
        special = np.concatenate([np.ravel(a) for a in special])
        t[2:2 + special.size] = special
        assert np.unique(t).size < t.size
        rng.shuffle(t)
        assert np.array_equal(layout(t), edges)
        # a block of points with no pair closer than pi/a_max
        t_clear = rng.uniform(1.0 + 2.0 * near, 2.5, m)
        layout(t_clear)

        tol = 1e-11 * (1.0 + np.sum(np.abs(coeff)))
        for pts in (t, t_clear):
            direct = np.concatenate(
                [direct_kernel_sum(knots, coeff, kernel, c) for c in np.array_split(pts, 16)]
            )
            assert np.max(np.abs(evaluate_model(model, pts) - direct)) <= tol
