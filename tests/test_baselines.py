import numpy as np
import pytest

from stme.baselines import (
    empirical_rv,
    location_series,
    single_location_rv,
    single_location_rvs,
)
from stme.catalog import CatalogError, RegionSpec
from stme.evd import EvdError, GpdParams, fit_gpd, gpd_quantile
from stme.experiments import SynthWorldConfig, synth_catalog
from stme.returns import BISECTION_TOL, run_stme, target_probability
from tests.test_returns import exposure_world


def gpd_sample(params, rng, size):
    return np.asarray(gpd_quantile(params, rng.uniform(size=size)))


class TestLocationSeries:
    def test_collects_values_in_event_order(self):
        cat = exposure_world({1: 1.0, 2: 0.5}, [2.0, 4.0, 6.0])
        series = location_series(cat, 2)
        assert series.values.tolist() == [1.0, 2.0, 3.0]

    def test_unknown_location(self):
        cat = exposure_world({1: 1.0}, [2.0])
        with pytest.raises(CatalogError, match="unknown location"):
            location_series(cat, 42)


class TestSingleLocationRv:
    def test_recovers_generator_quantile(self):
        true = GpdParams(3.0, 2.0, 0.1)
        rng = np.random.default_rng(0)
        series = location_series(
            exposure_world({1: 1.0}, gpd_sample(true, rng, 20_000), duration=3200.0), 1
        )
        est = single_location_rv(series, 2000, T=500.0, T0=200.0, method="MLE")
        p = target_probability(500.0, 200.0, 2000)
        # threshold stability: exceedances of psi are GPD with the same shape
        # and scale sigma + xi * (psi - threshold)
        from stme.catalog import threshold_for_top_n

        psi = threshold_for_top_n(series.values, 2000)
        cond = GpdParams(psi, true.scale + true.shape * (psi - true.threshold), true.shape)
        truth = float(gpd_quantile(cond, p))
        assert est.value == pytest.approx(truth, rel=0.15)
        assert est.estimator == "SINGLE"

    def test_matches_explicit_fit(self):
        rng = np.random.default_rng(1)
        values = gpd_sample(GpdParams(2.0, 1.5, 0.05), rng, 120)
        series = location_series(exposure_world({1: 1.0}, values), 1)
        est = single_location_rv(series, 30, 500.0, 200.0, "PWM")
        desc = np.sort(values)[::-1]
        report = fit_gpd(desc[:30], np.sort(values)[-31], "PWM")
        expected = gpd_quantile(report.params, target_probability(500.0, 200.0, 30))
        assert est.value == pytest.approx(expected, abs=1e-12)

    def test_too_short_series(self):
        series = location_series(exposure_world({1: 1.0}, [1.0, 2.0, 3.0]), 1)
        with pytest.raises(CatalogError):
            single_location_rv(series, 30, 500.0, 200.0)

    def test_one_location_region_matches_stme(self):
        rng = np.random.default_rng(2)
        values = gpd_sample(GpdParams(4.0, 2.0, 0.1), rng, 150)
        cat = exposure_world({1: 1.0}, values)
        stme = run_stme(cat, RegionSpec(), n=30, T=500.0, method="MLE")[0]
        single = single_location_rv(location_series(cat, 1), 30, 500.0, 200.0, "MLE")
        assert stme.value == pytest.approx(single.value, abs=2 * BISECTION_TOL)


class TestEmpiricalRv:
    def test_fractional_rank_interpolation(self):
        # T_L/T = 6.4: interpolate between 6th and 7th largest
        values = [10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
        series = location_series(exposure_world({1: 1.0}, values, duration=320.0), 1)
        est = empirical_rv(series, T=50.0, T_L=320.0)
        assert est.value == pytest.approx(0.6 * 5.0 + 0.4 * 4.0)
        assert est.estimator == "EMPIRICAL"

    def test_integer_rank_exact(self):
        values = [10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0]
        series = location_series(exposure_world({1: 1.0}, values, duration=400.0), 1)
        est = empirical_rv(series, T=100.0, T_L=400.0)
        assert est.value == 7.0  # 4th largest

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(1, 20, size=40)
        a = empirical_rv(
            location_series(exposure_world({1: 1.0}, values, duration=640.0), 1),
            T=100.0, T_L=640.0,
        )
        b = empirical_rv(
            location_series(exposure_world({1: 1.0}, rng.permutation(values), duration=640.0), 1),
            T=100.0, T_L=640.0,
        )
        assert a.value == b.value

    def test_monotone_in_return_period(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(1, 20, size=100)
        series = location_series(exposure_world({1: 1.0}, values, duration=3200.0), 1)
        estimates = [empirical_rv(series, T=T, T_L=3200.0).value for T in (50, 100, 200, 400)]
        assert estimates == sorted(estimates)

    def test_recovers_generator_quantile(self):
        # long catalog: the empirical estimate should sit near the true
        # T-year level, i.e. the (1 - (T_L/n)/T) quantile of the event maxima
        true = GpdParams(3.0, 2.0, 0.1)
        rng = np.random.default_rng(5)
        n = 20_000
        values = gpd_sample(true, rng, n)
        T_L = n / 0.6
        series = location_series(exposure_world({1: 1.0}, values, duration=T_L), 1)
        est = empirical_rv(series, T=100.0, T_L=T_L)
        truth = float(gpd_quantile(true, 1.0 - (T_L / n) / 100.0))
        assert est.value == pytest.approx(truth, rel=0.1)

    def test_series_too_short(self):
        series = location_series(exposure_world({1: 1.0}, [1.0, 2.0], duration=320.0), 1)
        with pytest.raises(CatalogError, match="too short"):
            empirical_rv(series, T=50.0, T_L=320.0)

    def test_period_validation(self):
        series = location_series(exposure_world({1: 1.0}, list(range(1, 20)), duration=100.0), 1)
        with pytest.raises(CatalogError):
            empirical_rv(series, T=200.0, T_L=100.0)


class TestSingleLocationRvs:
    @pytest.mark.parametrize("method", ["MLE", "PWM"])
    @pytest.mark.parametrize("n", [4, 10, 30])
    def test_equals_single_location_rv(self, method, n):
        world = synth_catalog(SynthWorldConfig(duration_years=60.0, seed=4))
        series = [location_series(world, loc) for loc in world.location_ids]
        batch = single_location_rvs(series, n, T=500.0, T0=60.0, method=method)
        assert len(batch) == len(series)
        for s, got in zip(series, batch):
            try:
                want = single_location_rv(s, n, T=500.0, T0=60.0, method=method)
            except (CatalogError, EvdError) as err:
                assert type(got) is type(err) and str(got) == str(err)
            else:
                assert got.location_id == want.location_id and got.flag == want.flag
                assert got.value == pytest.approx(want.value, rel=1e-9, abs=0)

