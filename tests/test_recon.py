import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from temcodec.signals import (
    Constant, Tone, SignalSum, TWO_PI, band_spec_from_edges, integrate_columns,
)
from temcodec.tem import SpikeTrain, TemParams, encode, encode_two_channel, interleave
from temcodec.pns import DegenerateShiftError, kernel_gbp
from temcodec import recon
from temcodec.recon import (
    DegenerateSystemError,
    GramSystem,
    ReconModel,
    build_gram_bandpass,
    build_gram_lowpass,
    evaluate_model,
    knots_and_shifts,
    model_from,
    reconstruct_bandpass,
    reconstruct_lowpass,
    solve_coefficients,
)


def uniform_interleaved(period, shift, n):
    t = np.empty(2 * n)
    t[0::2] = period * np.arange(n)
    t[1::2] = period * np.arange(n) + shift
    return t


class TestKnotsAndShifts:
    def test_three_times_single_knot(self):
        k = knots_and_shifts([0.0, 1.0, 2.0])
        assert np.array_equal(k.times, [1.0])
        assert np.array_equal(k.shifts, [1.0])

    def test_uniform_record_even_anchor_recovers_channel_shift(self):
        T, d = 0.05, 0.017
        k = knots_and_shifts(uniform_interleaved(T, d, 12), anchor="even")
        # knots are sample instants pushed half a period up
        assert np.allclose(k.times[0::2], T * np.arange(11) + T / 2, atol=1e-12)
        assert np.allclose(k.shifts, d, atol=1e-12)
        assert not k.reflected[0] and k.reflected[1]

    def test_uniform_record_odd_anchor_gives_complement(self):
        T, d = 0.05, 0.017
        k = knots_and_shifts(uniform_interleaved(T, d, 12), anchor="odd")
        assert np.allclose(k.shifts, T - d, atol=1e-12)
        assert k.reflected[0] and not k.reflected[1]

    def test_knots_strictly_increasing(self, two_channel_record):
        _, _, _, merged = two_channel_record
        k = knots_and_shifts(merged.times)
        assert np.all(np.diff(k.times) > 0.0)
        assert np.all(k.shifts > 0.0)

    def test_too_few_times_rejected(self):
        with pytest.raises(ValueError):
            knots_and_shifts([0.0, 1.0])

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            knots_and_shifts([0.0, 1.0, 1.0])

    def test_unknown_anchor_rejected(self):
        with pytest.raises(ValueError):
            knots_and_shifts([0.0, 1.0, 2.0], anchor="middle")


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
        omega = system.omega
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
    def test_entries_within_quad_tol_of_closed_form(self, quad_tol, omega, periods, start):
        # spike gaps from a hundredth of a kernel period 2*pi/omega to four periods
        times = start + (TWO_PI / omega) * np.concatenate([[0.0], np.cumsum(periods)])
        params = TemParams(1.0, 0.002, 3.0, 0.0)
        train = SpikeTrain(times, "single", params, (times[0], times[-1]))
        system = build_gram_lowpass(train, omega, quad_tol=quad_tol)
        s = system.knot_times
        upper = scipy.special.sici(omega * (times[1:, None] - s[None, :]))[0]
        lower = scipy.special.sici(omega * (times[:-1, None] - s[None, :]))[0]
        assert np.max(np.abs(system.matrix - (upper - lower) / np.pi)) <= quad_tol

    @pytest.mark.parametrize("quad_tol", [0.0, -1e-9, float("nan")])
    def test_nonpositive_quad_tol_rejected(self, small_system, quad_tol):
        train, _ = small_system
        with pytest.raises(ValueError, match="quad_tol"):
            build_gram_lowpass(train, TWO_PI * 65.0, quad_tol=quad_tol)

    def test_ten_second_interval_matches_closed_form(self):
        # a 10 s gap spans 650 kernel periods; centred on its knot the entry is
        # 2*Si(omega*5)/pi, and the rule's order grows with the span to meet it
        omega = TWO_PI * 65.0
        params = TemParams(1.0, 0.002, 3.0, 0.0)
        train = SpikeTrain(np.array([0.0, 10.0]), "single", params, (0.0, 10.0))
        system = build_gram_lowpass(train, omega)
        expect = 2.0 * scipy.special.sici(omega * 5.0)[0] / np.pi
        assert abs(system.matrix[0, 0] - expect) <= recon.DEFAULT_QUAD_TOL

    def test_three_second_record_rows_within_quad_tol(self, test_signal):
        # the single-channel preset's spike rate over 3 s: the nu rule needs
        # more than 256 nodes, and sampled rows still meet quad_tol
        omega = TWO_PI * 65.0
        params = TemParams(1.0, 1.0 / 260.0, 3.0, 2.0)
        train = encode(test_signal, params, (-1.5, 1.5))
        system = build_gram_lowpass(train, omega)
        assert system.left.shape[1] > 2 * 256
        t, s = train.times, system.knot_times
        rows = np.arange(0, len(train) - 1, 37)
        upper = scipy.special.sici(omega * (t[rows + 1, None] - s[None, :]))[0]
        lower = scipy.special.sici(omega * (t[rows, None] - s[None, :]))[0]
        entries = system.left[rows] @ system.right.T
        assert np.max(np.abs(entries - (upper - lower) / np.pi)) <= recon.DEFAULT_QUAD_TOL


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
        knots = knots_and_shifts(t)
        sign = np.where(knots.reflected, -1.0, 1.0)

        def kernel(u):
            return kernel_gbp((u[:, None] - knots.times) * sign, knots.shifts, band_35_65)

        rows = [integrate_columns(kernel, lo, hi, tol=1e-14) for lo, hi in zip(t[:-2], t[2:])]
        out[name] = (merged, np.array(rows))
    return out


class TestGramBandpass:
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
        assert merged.max_gap >= band_35_65.period
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
        system = build_gram_bandpass(merged, band_35_65, quad_tol=quad_tol)
        assert np.max(np.abs(system.matrix - oracle)) <= quad_tol

    def test_integer_band_position_within_quad_tol_of_adaptive_oracle(self):
        # 40-60 Hz: 2*omega_l/B = 4 = k0, so the inner segment [omega_l, k0*B - omega_l]
        # is empty (its ends differ by rounding only) and the kernel is one segment
        band = band_spec_from_edges(TWO_PI * 40.0, TWO_PI * 60.0)
        params = TemParams(1.0, band.period / 2.0, 3.0, 0.5)
        a, b = encode_two_channel(Tone(0.5, TWO_PI * 50.0, 0.3), params, (-0.25, 0.25),
                                  alpha=1.5 * params.delta)
        merged = interleave(a, b)
        system = build_gram_bandpass(merged, band)
        t = merged.times
        knots = knots_and_shifts(t)
        sign = np.where(knots.reflected, -1.0, 1.0)

        def kernel(u):
            return kernel_gbp((u[:, None] - knots.times) * sign, knots.shifts, band)

        oracle = [integrate_columns(kernel, lo, hi, tol=1e-14) for lo, hi in zip(t[:-2], t[2:])]
        assert np.max(np.abs(system.matrix - np.array(oracle))) <= recon.DEFAULT_QUAD_TOL

    @pytest.mark.parametrize("quad_tol", [0.0, -1e-9, float("nan")])
    def test_nonpositive_quad_tol_rejected(self, bandpass_oracle, band_35_65, quad_tol):
        merged, _ = bandpass_oracle["encoded"]
        with pytest.raises(ValueError, match="quad_tol"):
            build_gram_bandpass(merged, band_35_65, quad_tol=quad_tol)


class TestSolve:
    def test_identity_system(self):
        q = np.array([3.0, -1.0, 0.5])
        system = GramSystem(np.eye(3), np.eye(3), q, "lowpass", np.arange(3.0), omega=1.0)
        sol = solve_coefficients(system)
        assert np.allclose(sol.coefficients, q, atol=1e-14)
        assert sol.effective_rank == 3
        assert sol.residual_norm < 1e-14

    def test_zero_rhs_gives_exact_zero(self):
        rng = np.random.RandomState(7)
        system = GramSystem(rng.randn(6, 4), np.eye(4), np.zeros(6), "lowpass",
                            np.arange(4.0), omega=1.0)
        sol = solve_coefficients(system)
        assert np.all(sol.coefficients == 0.0)

    def test_duplicate_columns_share_mass_equally(self):
        # minimum-norm solution splits the coefficient across identical columns
        col = np.array([1.0, 2.0])
        system = GramSystem(np.column_stack([col, col]), np.eye(2), np.array([1.0, 2.0]),
                            "lowpass", np.arange(2.0), omega=1.0)
        sol = solve_coefficients(system)
        assert np.allclose(sol.coefficients, [0.5, 0.5], atol=1e-12)
        assert sol.effective_rank == 1

    def test_all_below_cutoff_rejected(self):
        system = GramSystem(np.zeros((3, 3)), np.eye(3), np.ones(3), "lowpass",
                            np.arange(3.0), omega=1.0)
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
        base = GramSystem(matrix, np.eye(5), q, "lowpass", np.arange(5.0), omega=1.0)
        scaled = GramSystem(matrix, np.eye(5), gamma * q, "lowpass", np.arange(5.0), omega=1.0)
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
    )
    @example(seed=1, rows=10, cols=9, width=4, inner=4)  # narrow
    @example(seed=2, rows=6, cols=8, width=10, inner=10)  # wide
    @example(seed=3, rows=9, cols=9, width=8, inner=3)  # rank-deficient
    def test_factored_solve_matches_dense_truncated_svd(self, seed, rows, cols, width, inner):
        # narrow (width < min(rows, cols)), wide (width >= rows) and, through a
        # shared inner dimension below the width, rank-deficient factor pairs
        rng = np.random.default_rng(seed)
        mix = rng.standard_normal((min(inner, width), width))
        left = rng.standard_normal((rows, mix.shape[0])) @ mix
        right = rng.standard_normal((cols, width))
        q = rng.standard_normal(rows)
        dense = left @ right.T
        u, sv, vt = np.linalg.svd(dense, full_matrices=False)
        cutoff = recon.DEFAULT_SV_CUTOFF * sv[0]
        # a singular value at the cutoff would make either rank a coin toss
        assume(sv[0] > 0.0 and not np.any((sv > 1e-3 * cutoff) & (sv < 1e3 * cutoff)))
        keep = sv >= cutoff
        expect = vt[keep].T @ ((u[:, keep].T @ q) / sv[keep])
        sol = solve_coefficients(
            GramSystem(left, right, q, "lowpass", np.arange(float(cols)), omega=1.0)
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
    def test_nearest_far_term_interpolates_to_rounding(self):
        # on a box [-1, 1], a far knot is at least one box width beyond it:
        # the term 1/(x - z) with |z| >= 3, interpolated at the box's nodes
        nodes = recon._box_nodes(-1.0, 1.0)
        x = np.linspace(-1.0, 1.0, 2001)
        interp = recon._barycentric(x, nodes)
        for z in (3.0, -3.0, 4.0, 10.0):
            exact = 1.0 / (x - z)
            err = np.max(np.abs(interp @ (1.0 / (nodes - z)) - exact))
            assert err <= 4.0 * np.finfo(float).eps * np.max(np.abs(exact))


class TestModel:
    def test_zero_coefficients_evaluate_to_zero(self, band_35_65):
        model = ReconModel(
            kind="bandpass",
            knot_times=np.array([0.0, 0.01]),
            coefficients=np.zeros(2),
            band=band_35_65,
            shifts=np.array([0.01, 0.01]),
            reflected=np.array([False, True]),
        )
        t = np.linspace(-1, 1, 55)
        assert np.all(model(t) == 0.0)

    def test_single_unit_coefficient_is_shifted_kernel(self, band_35_65):
        t = np.linspace(-0.4, 0.4, 111)
        lp = ReconModel("lowpass", np.array([0.07]), np.array([1.0]), omega=TWO_PI * 65.0)
        expect = (TWO_PI * 65.0 / np.pi) * np.sinc(65.0 * 2.0 * (t - 0.07))
        assert np.allclose(lp(t), expect, atol=1e-12)
        bp = ReconModel(
            "bandpass", np.array([0.07]), np.array([1.0]),
            band=band_35_65, shifts=np.array([0.01]), reflected=np.array([True]),
        )
        assert np.allclose(bp(t), kernel_gbp(0.07 - t, 0.01, band_35_65), atol=1e-12)

    def test_scalar_evaluation_returns_float(self):
        lp = ReconModel("lowpass", np.array([0.0]), np.array([1.0]), omega=1.0)
        assert isinstance(lp(0.3), float)
        assert lp(0.3) == evaluate_model(lp, 0.3)

    def test_empty_input_returns_empty_float_array(self):
        lp = ReconModel("lowpass", np.array([0.0]), np.array([1.0]), omega=1.0)
        out = evaluate_model(lp, np.array([]))
        assert out.shape == (0,) and out.dtype == float

    @pytest.fixture(scope="class")
    def boxed(self):
        """A lowpass model and points that the evaluator cuts into several boxes."""
        rng = np.random.default_rng(5)
        knots = rng.uniform(-1.0, 1.0, 400)
        model = ReconModel("lowpass", knots, rng.uniform(-1.0, 1.0, 400), omega=TWO_PI * 65.0)
        t = np.linspace(-1.2, 1.2, 5001)
        assert recon._box_edges(t, np.sort(knots), 1.0 / 130.0).size > 2
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

    def test_unknown_kind_rejected(self):
        model = ReconModel("highpass", np.array([0.0]), np.array([1.0]), omega=1.0)
        with pytest.raises(ValueError, match="highpass"):
            evaluate_model(model, 0.3)

    def test_degenerate_knot_shift_names_knot(self, band_35_65):
        model = ReconModel(
            "bandpass", np.array([0.0, 0.01]), np.array([1.0, 1.0]), band=band_35_65,
            shifts=np.array([0.01, band_35_65.period / 3.0]),
            reflected=np.array([False, True]),
        )
        with pytest.raises(DegenerateShiftError, match="knot 1"):
            evaluate_model(model, 0.3)

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
        model, _, _ = reconstruct_bandpass(
            merged, band_35_65, sv_cutoff=1e-12, quad_tol=1e-10
        )
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

    def test_anchor_variants_both_reconstruct(self, two_channel_record, band_35_65, test_signal):
        _, _, _, merged = two_channel_record
        t = np.arange(-0.7, 0.7005, 1e-3)
        xt = test_signal(t)
        snrs = {}
        for anchor in ("even", "odd"):
            model, _, _ = reconstruct_bandpass(merged, band_35_65, anchor=anchor)
            xh = model(t)
            snrs[anchor] = 10 * np.log10(np.sum(xt ** 2) / np.sum((xh - xt) ** 2))
        assert snrs["even"] >= 25.0
        assert snrs["odd"] >= 25.0
        # pairing knots within a channel-A..channel-B pair tracks the actual
        # integrator stagger and reconstructs better than the alternative
        assert snrs["even"] >= snrs["odd"]

    def test_model_from_carries_system_fields(self, two_channel_record, band_35_65):
        _, _, _, merged = two_channel_record
        system = build_gram_bandpass(merged, band_35_65)
        sol = solve_coefficients(system)
        model = model_from(system, sol)
        assert model.kind == "bandpass"
        assert np.array_equal(model.knot_times, system.knot_times)
        assert np.array_equal(model.coefficients, sol.coefficients)
