import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stme.evd import (
    XI_MIN,
    EvdError,
    METHODS,
    GpdFits,
    GpdParams,
    fit_gpd,
    fit_gpd_mle,
    fit_gpd_pwm,
    fit_gpd_rows,
    gpd_cdf,
    gpd_pdf,
    gpd_quantile,
)


def gpd_sample(params, rng, size):
    """Inverse-transform generator used as the fitting oracle."""
    return np.asarray(gpd_quantile(params, rng.uniform(size=size)))


def assert_same_fits(got: GpdFits, want: GpdFits):
    """Every column of two batches of fits equal, bit for bit (NaN equal)."""
    for name, g, w in zip(GpdFits._fields, got, want):
        assert np.array_equal(g, w, equal_nan=g.dtype.kind == "f"), name


class TestCdfQuantile:
    def test_exponential_branch_value(self):
        p = GpdParams(0.0, 1.0, 0.0)
        assert gpd_cdf(p, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_closed_form_shape_one(self):
        p = GpdParams(0.0, 1.0, 1.0)
        assert gpd_cdf(p, 3.0) == pytest.approx(0.75, abs=1e-12)

    def test_below_threshold_zero(self):
        p = GpdParams(5.0, 2.0, 0.1)
        assert gpd_cdf(p, 4.0) == 0.0

    def test_beyond_upper_endpoint_one(self):
        p = GpdParams(0.0, 1.0, -0.5)
        assert gpd_cdf(p, 2.0) == 1.0  # the upper endpoint 0 - 1 / -0.5
        assert gpd_cdf(p, 2.5) == 1.0

    def test_cdf_matches_density_quadrature(self):
        # independent oracle: trapezoid quadrature of the density
        p = GpdParams(5.0, 2.0, 0.1)
        grid = np.linspace(5.0, 30.0, 11)
        s_fine = np.linspace(5.0, 30.0, 2_000_001)
        dens = np.asarray(gpd_pdf(p, s_fine))
        cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(s_fine))])
        for s in grid:
            idx = int(round((s - 5.0) / 25.0 * (len(s_fine) - 1)))
            assert gpd_cdf(p, s) == pytest.approx(cum[idx], abs=1e-9)

    def test_quantile_exponential_inverse(self):
        p = GpdParams(0.0, 1.0, 0.0)
        assert gpd_quantile(p, 1.0 - math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_quantile_shape_one(self):
        p = GpdParams(0.0, 1.0, 1.0)
        assert gpd_quantile(p, 0.75) == pytest.approx(3.0, abs=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = GpdParams(
                float(rng.uniform(-5, 10)),
                float(rng.uniform(0.1, 10)),
                float(rng.uniform(-0.5, 1.0)),
            )
            probs = rng.uniform(0.01, 0.999, size=20)
            back = np.asarray(gpd_cdf(p, np.asarray(gpd_quantile(p, probs))))
            assert np.max(np.abs(back - probs)) <= 1e-10

    def test_branch_continuity_at_switch(self):
        grid = np.linspace(0.0, 20.0, 101)
        expo = np.asarray(gpd_cdf(GpdParams(0.0, 2.0, 0.0), grid))
        for xi in (1e-6, -1e-6):
            near = np.asarray(gpd_cdf(GpdParams(0.0, 2.0, xi), grid))
            assert np.max(np.abs(near - expo)) <= 1e-9

    def test_invalid_probability(self):
        p = GpdParams(0.0, 1.0, 0.1)
        with pytest.raises(EvdError):
            gpd_quantile(p, 1.0)

    def test_invalid_params(self):
        with pytest.raises(EvdError):
            GpdParams(0.0, 0.0, 0.1)


class TestMle:
    def test_recovers_generator_parameters(self):
        rng = np.random.default_rng(10)
        sample = gpd_sample(GpdParams(0.0, 2.0, 0.1), rng, 10_000)
        report = fit_gpd_mle(sample, 0.0)
        assert report.converged
        assert report.params.shape == pytest.approx(0.1, abs=0.05)
        assert report.params.scale == pytest.approx(2.0, abs=0.1)
        assert report.loglik is not None

    def test_exponential_sample_gives_near_zero_shape(self):
        rng = np.random.default_rng(11)
        sample = -2.0 * np.log(rng.uniform(size=20_000))  # GPD with zero shape
        report = fit_gpd_mle(sample, 0.0)
        assert report.converged
        assert abs(report.params.shape) < 0.03

    def test_degenerate_sample(self):
        with pytest.raises(EvdError, match="degenerate"):
            fit_gpd_mle([1.0, 1.0], 0.0)

    def test_too_few_points(self):
        with pytest.raises(EvdError, match="at least 5"):
            fit_gpd_mle([1.0, 2.0, 3.0], 0.0)

    def test_exceedances_below_threshold_rejected(self):
        with pytest.raises(EvdError):
            fit_gpd_mle([0.5, 1.0, 2.0, 3.0, 4.0], 1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        sample = gpd_sample(GpdParams(3.0, 1.5, 0.2), rng, 500)
        a = fit_gpd_mle(sample, 3.0)
        b = fit_gpd_mle(sample, 3.0)
        assert a == b


def gpd_loglik(y, shape, scale):
    """GPD log-likelihood of excesses y, written out independently of the fit."""
    z = 1.0 + shape * y / scale
    if np.any(z <= 0):
        return -math.inf
    return -y.size * math.log(scale) - (1.0 + 1.0 / shape) * float(np.sum(np.log(z)))


# The 20 largest STM values of one T0 = 50 experiment sample. Its
# likelihood is higher at the XI_MIN edge than at the interior maximum near
# shape -0.2437 that a local search from the PWM start reaches.
EDGE_HIGHER_SAMPLE = np.array([
    13.52320607, 13.32103724, 13.20748061, 13.15815711, 12.96928674, 10.44206449,
    9.875357054, 9.643506423, 8.274401183, 7.916321792, 7.902917881, 7.842640362,
    7.790039929, 7.781635507, 7.771938591, 7.563438454, 7.307555542, 7.134420203,
    6.937768337, 6.852483175,
])
EDGE_HIGHER_THRESHOLD = 6.842232384


class TestMleSearch:
    def test_interior_maximum_is_a_local_maximum_of_the_likelihood(self):
        # independent of the profile-likelihood formula: no nearby (shape,
        # scale) in the plane has a higher likelihood
        rng = np.random.default_rng(31)
        for shape in (-0.4, -0.1, 0.05, 0.3, 0.8):
            sample = gpd_sample(GpdParams(0.0, 1.5, shape), rng, 40)
            report = fit_gpd_mle(sample, 0.0)
            assert report.converged
            xi, sigma = report.params.shape, report.params.scale
            best = gpd_loglik(sample, xi, sigma)
            assert report.loglik == pytest.approx(best, abs=1e-9)
            for dxi in (-1e-3, 0.0, 1e-3):
                for ds in (-1e-3, 0.0, 1e-3):
                    assert gpd_loglik(sample, xi + dxi, sigma * (1 + ds)) <= best + 1e-12

    def test_search_climbs_from_the_start_not_to_the_global_maximum(self):
        report = fit_gpd_mle(EDGE_HIGHER_SAMPLE, EDGE_HIGHER_THRESHOLD)
        assert report.converged
        assert report.params.shape == pytest.approx(-0.24368, abs=1e-5)
        y = EDGE_HIGHER_SAMPLE - EDGE_HIGHER_THRESHOLD
        scales = -XI_MIN * y.max() * (1.0 + np.logspace(-8, 1, 2000))
        edge = max(gpd_loglik(y, XI_MIN, s) for s in scales)
        assert edge > report.loglik + 0.1

    @pytest.mark.parametrize("sample, threshold", [
        pytest.param(np.arange(2, 13) ** 6.0, 1.0, id="XI_MAX"),
        # the 10 largest STM values of a T0 = 50 experiment sample
        pytest.param(np.array([7.962161543, 7.370385372, 6.6650925, 6.462856665, 6.353783057,
                               6.170963296, 5.743603751, 5.498495289, 4.613458087, 4.333423853]),
                     3.877133059, id="XI_MIN"),
    ])
    def test_shape_at_search_boundary(self, sample, threshold):
        report = fit_gpd_mle(sample, threshold)
        assert not report.converged and report.params is None
        assert report.message == "shape at search boundary"

    def test_rows_fail_one_by_one(self):
        rng = np.random.default_rng(32)
        good = gpd_sample(GpdParams(0.0, 1.0, 0.1), rng, 8)
        boundary = np.arange(2, 10) ** 6.0
        fits = fit_gpd_rows(np.array([good, np.full(8, 2.0), good - good.min(), boundary]),
                            [0.0, 0.0, 0.0, 1.0], "MLE")
        report = fit_gpd_mle(good, 0.0)
        assert (fits.threshold[0], fits.scale[0], fits.shape[0], fits.loglik[0]) == (
            report.params.threshold, report.params.scale, report.params.shape, report.loglik)
        # a row that cannot be fitted has an error, a fit that did not
        # converge a message
        assert fits.error.tolist() == [
            "", "degenerate sample: all exceedances equal",
            "exceedances must lie strictly above the threshold", ""]
        assert fits.message.tolist() == ["", "", "", "shape at search boundary"]
        assert fits.iterations[3] == fit_gpd_mle(boundary, 1.0).iterations > 0
        assert np.isnan(fits.scale[1:]).all() and np.isnan(fits.loglik[1:]).all()

    def test_unknown_method(self):
        with pytest.raises(EvdError, match="unknown fit method"):
            fit_gpd_rows(np.ones((1, 5)), [0.0], "LSQ")
        with pytest.raises(EvdError, match="unknown fit method 'LSQ'"):
            fit_gpd(np.ones(5), 0.0, "lsq")

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 40).flatmap(lambda n: st.lists(
               st.lists(st.one_of(st.just(1.5), st.floats(0.0, 50.0)), min_size=n, max_size=n),
               min_size=2, max_size=2)),
           threshold=st.floats(-1.0, 1.0), method=st.sampled_from(METHODS))
    def test_fit_gpd_is_one_row_of_fit_gpd_rows(self, rows, threshold, method):
        # the one-sample fit is a view of row 0 of a batch, raising that
        # row's error
        fits = fit_gpd_rows(np.array(rows), [threshold, 0.5], method.lower())
        if fits.error[0]:
            with pytest.raises(EvdError) as err:
                fit_gpd(rows[0], threshold, method)
            assert str(err.value) == fits.error[0]
            return
        report = fit_gpd(rows[0], threshold, method)
        assert (report.n, report.method, report.converged, report.message, report.iterations) == (
            len(rows[0]), method, not fits.message[0], fits.message[0], fits.iterations[0])
        assert report.loglik == (None if np.isnan(fits.loglik[0]) else fits.loglik[0])
        if report.converged:
            assert (report.params.threshold, report.params.scale, report.params.shape) == (
                fits.threshold[0], fits.scale[0], fits.shape[0])
        else:
            assert report.params is None and np.isnan(fits.shape[0])
        fitter = fit_gpd_mle if method == "MLE" else fit_gpd_pwm
        assert fitter(rows[0], threshold) == report

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 6),
        n=st.integers(5, 40),
        method=st.sampled_from(["MLE", "PWM"]),
        degenerate=st.booleans(),
    )
    def test_batched_fit_equals_single_fits(self, seed, k, n, method, degenerate):
        rng = np.random.default_rng(seed)
        shapes = rng.uniform(-0.6, 1.2, size=k)
        thresholds = rng.uniform(0.0, 10.0, size=k)
        rows = np.array([
            t + gpd_sample(GpdParams(0.0, rng.uniform(0.2, 5.0), xi), rng, n)
            for t, xi in zip(thresholds, shapes)
        ])
        if degenerate:
            rows[0] = thresholds[0] + 1.0
        batch = fit_gpd_rows(rows, thresholds, method)
        fitter = fit_gpd_mle if method == "MLE" else fit_gpd_pwm
        for k, (row, threshold) in enumerate(zip(rows, thresholds)):
            try:
                want = fitter(row, threshold)
            except EvdError as err:
                assert batch.error[k] == str(err)
                continue
            assert (not batch.message[k], batch.message[k], batch.iterations[k]) == (
                want.converged, want.message, want.iterations)
            if want.converged:
                assert abs(batch.shape[k] - want.params.shape) <= 1e-9
                assert batch.scale[k] == pytest.approx(want.params.scale, rel=1e-9)


    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 8), n=st.integers(5, 60),
           method=st.sampled_from(["MLE", "PWM"]))
    def test_stacked_rows_equal_rows_alone_bit_for_bit(self, seed, k, n, method):
        # rows in event order and in descending order, some that cannot be
        # fitted, share one call; each report equals that of its row alone
        rng = np.random.default_rng(seed)
        rows, thresholds = [], []
        for i in range(k):
            t = rng.uniform(0.0, 10.0)
            row = t + gpd_sample(GpdParams(0.0, rng.uniform(0.2, 5.0), rng.uniform(-0.6, 1.2)),
                                 rng, n)
            if i % 2:
                row = np.sort(row)[::-1]
            if rng.uniform() < 0.15:
                row[:] = t + 1.0
            rows.append(row)
            thresholds.append(t)
        batch = fit_gpd_rows(np.array(rows), thresholds, method)
        for k, (row, t) in enumerate(zip(rows, thresholds)):
            assert_same_fits(batch.take([k]), fit_gpd_rows(row[None], [t], method))


class TestPwm:
    def test_recovers_generator_parameters(self):
        rng = np.random.default_rng(20)
        sample = gpd_sample(GpdParams(0.0, 2.0, 0.1), rng, 10_000)
        report = fit_gpd_pwm(sample, 0.0)
        assert report.converged
        assert report.params.shape == pytest.approx(0.1, abs=0.05)
        assert report.params.scale == pytest.approx(2.0, abs=0.1)

    def test_moments_match_hand_summation(self):
        from stme.evd import _pwm_estimates

        y = np.array([1.0, 2.0, 3.0, 4.0])
        b0, b1, _, _ = _pwm_estimates(y)
        # plotting positions (n - i)/(n - 1) on ascending order statistics
        expected_b1 = (1.0 * 3 / 3 + 2.0 * 2 / 3 + 3.0 * 1 / 3 + 4.0 * 0 / 3) / 4
        assert b0 == pytest.approx(2.5)
        assert b1 == pytest.approx(expected_b1)

    def test_agrees_with_mle_on_large_exponential(self):
        rng = np.random.default_rng(11)
        sample = -2.0 * np.log(rng.uniform(size=20_000))
        pwm = fit_gpd_pwm(sample, 0.0)
        mle = fit_gpd_mle(sample, 0.0)
        assert pwm.params.shape == pytest.approx(mle.params.shape, abs=0.04)
        assert pwm.params.scale == pytest.approx(mle.params.scale, abs=0.08)

    def test_estimator_undefined_guard(self):
        # b0 - 2*b1 = (y_max - y_min) + 0.5*(y_(n-1) - y_(1)) + ... >= 0 with
        # equality only for constant samples, so the undefined branch is only
        # reachable at the boundary; check the guard returns NaN there
        from stme.evd import _pwm_estimates

        b0, b1, xi, sigma = _pwm_estimates(np.ones(5))
        assert b0 - 2.0 * b1 == pytest.approx(0.0)
        assert math.isnan(xi) and math.isnan(sigma)

    def test_both_fitters_consistent(self):
        true = GpdParams(0.0, 2.0, 0.1)
        for fitter in (fit_gpd_mle, fit_gpd_pwm):
            errors = []
            for size in (100, 1000, 10_000):
                errs = []
                for seed in range(5):
                    rng = np.random.default_rng(1000 * size + seed)
                    report = fitter(gpd_sample(true, rng, size), 0.0)
                    errs.append(abs(report.params.shape - 0.1))
                errors.append(np.mean(errs))
            assert errors[0] > errors[2]
