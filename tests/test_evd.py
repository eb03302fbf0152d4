import math

import numpy as np
import pytest

from stme.evd import (
    EvdError,
    GpdParams,
    fit_gpd_mle,
    fit_gpd_pwm,
    gpd_cdf,
    gpd_pdf,
    gpd_quantile,
)


def gpd_sample(params, rng, size):
    """Inverse-transform generator used as the fitting oracle."""
    return np.asarray(gpd_quantile(params, rng.uniform(size=size)))


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
        assert p.upper_endpoint == 2.0
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
