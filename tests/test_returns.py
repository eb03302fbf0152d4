import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stme.catalog import (
    CatalogError,
    CycloneCatalog,
    Location,
    RegionSpec,
    extract_exposures,
    extract_stm,
    top_n_events,
)
from stme.evd import EvdError, GpdParams, fit_gpd, gpd_cdf, gpd_pdf, gpd_quantile
from stme.returns import (
    BISECTION_TOL,
    ExposureEcdf,
    exposure_ecdf,
    return_value,
    return_values,
    run_stme,
    stme_return_values,
    swh_cdf,
    target_probability,
)


def quadrature_swh_cdf(params, atoms, h, n_points=1_000_000):
    """Independent oracle: trapezoid quadrature of the integral
    F_H(h) = int F_E(h/s) f_S(s) ds with the grid refined at the steps of the
    exposure ECDF so the discontinuities are integrated exactly."""
    atoms = np.sort(np.asarray(atoms, dtype=float))
    s_max = params.threshold + params.scale * 60.0  # exp(-60) tail mass
    grid = np.linspace(params.threshold, s_max, n_points)
    breaks = []
    for e in atoms:
        if e > 0 and params.threshold < h / e < s_max:
            breaks.extend([h / e - 1e-12, h / e + 1e-12])
    grid = np.sort(np.concatenate([grid, np.asarray(breaks)]))
    with np.errstate(divide="ignore"):
        f_e = np.searchsorted(atoms, np.where(grid > 0, h / grid, np.inf), side="right") / atoms.size
    integrand = f_e * np.asarray(gpd_pdf(params, grid))
    return float(np.trapezoid(integrand, grid))


def exposure_world(exposure_by_loc, stm_values, duration=200.0):
    """Catalog where event e has footprint stm_values[e] * exposure_by_loc[j]."""
    loc_ids = sorted(exposure_by_loc)
    locations = tuple(Location(id=j, lon=-61.0 + 0.01 * j, lat=16.0) for j in loc_ids)
    stm_values = np.asarray(stm_values, dtype=float)
    swh = stm_values[:, None] * np.array([exposure_by_loc[j] for j in loc_ids], dtype=float)
    return CycloneCatalog(
        locations=locations, event_ids=np.arange(1, stm_values.size + 1), swh=swh,
        duration_years=duration,
    )


class TestExposureEcdf:
    def make_matrix(self, columns):
        loc_ids = sorted(columns)
        n_events = len(next(iter(columns.values())))
        from stme.catalog import ExposureMatrix

        values = np.column_stack([columns[j] for j in loc_ids])
        return ExposureMatrix(np.arange(1, n_events + 1), np.array(loc_ids), values)

    def test_sorted_atoms(self):
        mat = self.make_matrix({1: [0.2, 1.0, 0.6]})
        ecdf = exposure_ecdf(mat, 1)
        assert ecdf.atoms.tolist() == [0.2, 0.6, 1.0]

    def test_retained_subset(self):
        mat = self.make_matrix({1: [0.2, 1.0, 0.6]})
        ecdf = exposure_ecdf(mat, 1, retained_event_ids=[2])
        assert ecdf.atoms.tolist() == [1.0]

    def test_missing_entries_skipped(self):
        mat = self.make_matrix({1: [0.2, np.nan, 0.6]})
        ecdf = exposure_ecdf(mat, 1)
        assert ecdf.atoms.tolist() == [0.2, 0.6]

    def test_no_data_error(self):
        mat = self.make_matrix({1: [np.nan, np.nan]})
        with pytest.raises(CatalogError, match="no exposure data"):
            exposure_ecdf(mat, 1)

    def test_cdf_is_rank_over_m(self):
        rng = np.random.default_rng(5)
        atoms = rng.uniform(0, 1, size=17)
        ecdf = ExposureEcdf(location_id=1, atoms=atoms)
        for rank, atom in enumerate(ecdf.atoms, start=1):
            assert ecdf.cdf(atom) == pytest.approx(rank / 17)


class TestSwhCdf:
    def test_degenerate_exposure_equals_gpd(self):
        params = GpdParams(5.0, 2.0, 0.1)
        ecdf = ExposureEcdf(1, np.array([1.0]))
        grid = np.linspace(0.0, 40.0, 50)
        assert np.allclose(swh_cdf(params, ecdf, grid), gpd_cdf(params, grid))

    def test_half_exposure_scales_argument(self):
        params = GpdParams(5.0, 2.0, 0.1)
        ecdf = ExposureEcdf(1, np.array([0.5]))
        for h in (1.0, 4.0, 10.0):
            assert swh_cdf(params, ecdf, h) == pytest.approx(gpd_cdf(params, 2 * h))

    def test_matches_quadrature_oracle(self):
        params = GpdParams(0.0, 1.0, 0.0)
        atoms = np.array([0.5, 1.0])
        ecdf = ExposureEcdf(1, atoms)
        for h in np.linspace(0.5, 12.0, 12):
            oracle = quadrature_swh_cdf(params, atoms, h, n_points=100_000)
            assert swh_cdf(params, ecdf, h) == pytest.approx(oracle, abs=1e-6)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(6)
        params = GpdParams(3.0, 1.5, 0.2)
        ecdf = ExposureEcdf(1, rng.uniform(0.1, 1.0, size=9))
        grid = np.linspace(0.0, 60.0, 500)
        probs = np.asarray(swh_cdf(params, ecdf, grid))
        assert np.all(np.diff(probs) >= 0)
        assert probs[0] >= 0.0 and probs[-1] <= 1.0

    def test_zero_atom_contributes_one(self):
        params = GpdParams(5.0, 2.0, 0.1)
        ecdf = ExposureEcdf(1, np.array([0.0, 1.0]))
        assert swh_cdf(params, ecdf, 0.0) == pytest.approx(0.5)


fits = st.builds(
    GpdParams,
    threshold=st.floats(0.0, 10.0),
    scale=st.floats(0.05, 5.0),
    shape=st.one_of(st.just(0.0), st.floats(-0.8, 1.5)),
)
atom_sets = st.lists(
    st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-3, 1.0)), min_size=1, max_size=25
)


class TestSwhCdfProperties:
    @settings(max_examples=200, deadline=None)
    @given(fit=fits, atoms=atom_sets, h=st.lists(st.floats(0.0, 200.0), min_size=2, max_size=30))
    def test_monotone_and_in_unit_interval(self, fit, atoms, h):
        grid = np.sort(np.asarray(h))
        probs = np.asarray(swh_cdf(fit, ExposureEcdf(1, np.asarray(atoms)), grid))
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        assert np.all(np.diff(probs) >= 0.0)


class TestReturnValues:
    @settings(max_examples=200, deadline=None)
    @given(fit=fits, atom_lists=st.lists(atom_sets, min_size=1, max_size=8),
           n=st.integers(5, 60), T=st.floats(300.0, 5000.0))
    @example(fit=GpdParams(0.0, 4.0, -2.2250738585072014e-308), atom_lists=[[0.0]], n=5, T=300.0)
    def test_equals_return_value_per_location(self, fit, atom_lists, n, T):
        ecdfs = [ExposureEcdf(j, np.asarray(a)) for j, a in enumerate(atom_lists, start=1)]
        batch = return_values(fit, ecdfs, T, 200.0, n, method="MLE", estimator="STME")
        for ecdf, got in zip(ecdfs, batch):
            try:
                want = return_value(fit, ecdf, T, 200.0, n, method="MLE", estimator="STME")
            except (CatalogError, EvdError) as err:
                assert type(got) is type(err) and str(got) == str(err)
            else:
                assert got == want  # value and flag, bit for bit

    def test_location_errors_stay_per_location(self):
        params = GpdParams(5.0, 2.0, 0.1)
        ecdfs = [ExposureEcdf(1, np.array([0.5, 1.0])), ExposureEcdf(2, np.array([0.0, 0.0]))]
        good, bad = return_values(params, ecdfs, 500.0, 200.0, 30)
        assert good == return_value(params, ecdfs[0], 500.0, 200.0, 30)
        assert isinstance(bad, CatalogError) and str(bad) == "location 2: all exposures zero"

    def test_shape_just_below_zero_bracketed_as_exponential(self):
        # the upper endpoint 5 + 2 / 1e-300 overflows to inf
        ecdfs = [ExposureEcdf(1, np.array([0.5, 1.0])), ExposureEcdf(2, np.array([0.0]))]
        tiny, bad = return_values(GpdParams(5.0, 2.0, -1e-300), ecdfs, 500.0, 200.0, 30)
        assert tiny == return_value(GpdParams(5.0, 2.0, 0.0), ecdfs[0], 500.0, 200.0, 30)
        assert isinstance(bad, CatalogError) and str(bad) == "location 2: all exposures zero"

    def test_upper_bound_flag(self):
        # survival (1 - 2 z)^(1/2) near the upper endpoint 6: the quantile
        # at p* = 1 - 6.7e-6 lies within 1e-6 m of it
        params = GpdParams(5.0, 2.0, -2.0)
        ecdfs = [ExposureEcdf(1, np.array([1.0])), ExposureEcdf(2, np.array([0.0, 0.5]))]
        first, second = return_values(params, ecdfs, 1e6, 200.0, 30)
        assert (first.flag, second.flag) == ("at_upper_bound", "at_upper_bound")
        assert first.value == pytest.approx(6.0, abs=2 * BISECTION_TOL)
        assert second.value == pytest.approx(3.0, abs=2 * BISECTION_TOL)


class TestReturnValue:
    def test_target_probability_value(self):
        assert target_probability(500.0, 200.0, 30) == pytest.approx(0.9866667, abs=1e-6)

    def test_closed_form_exponential(self):
        params = GpdParams(10.0, 1.0, 0.0)
        ecdf = ExposureEcdf(1, np.array([1.0]))
        # p* = 0.99 for T=500, T0=200, n=40
        est = return_value(params, ecdf, T=500.0, T0=200.0, n=40)
        assert est.value == pytest.approx(10.0 + np.log(100.0), abs=1e-5)

    def test_matches_oracle_quantile(self):
        params = GpdParams(0.0, 1.0, 0.0)
        atoms = np.array([0.5, 1.0])
        ecdf = ExposureEcdf(1, atoms)
        est = return_value(params, ecdf, T=500.0, T0=200.0, n=30)
        p_target = target_probability(500.0, 200.0, 30)
        # invert the quadrature oracle by bisection
        lo, hi = 0.0, 50.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if quadrature_swh_cdf(params, atoms, mid, n_points=200_000) >= p_target:
                hi = mid
            else:
                lo = mid
        assert est.value == pytest.approx(hi, abs=1e-4)

    def test_negative_shape_capped(self):
        params = GpdParams(5.0, 1.0, -0.5)  # endpoint 7.0
        ecdf = ExposureEcdf(1, np.array([0.8, 1.0]))
        est = return_value(params, ecdf, T=500.0, T0=200.0, n=30)
        assert est.value <= 7.0 + BISECTION_TOL

    def test_exposure_scaling_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            params = GpdParams(
                float(rng.uniform(0, 10)), float(rng.uniform(0.5, 3.0)),
                float(rng.uniform(-0.2, 0.5)),
            )
            atoms = rng.uniform(0.2, 1.0, size=8)
            atoms = atoms / atoms.max()
            c = float(rng.uniform(0.3, 0.9))
            base = return_value(params, ExposureEcdf(1, atoms), 500.0, 200.0, 30)
            scaled = return_value(params, ExposureEcdf(1, c * atoms), 500.0, 200.0, 30)
            assert scaled.value == pytest.approx(c * base.value, abs=3 * BISECTION_TOL)

    def test_degenerate_exposure_equals_gpd_quantile(self):
        params = GpdParams(8.0, 2.0, 0.15)
        est = return_value(params, ExposureEcdf(1, np.array([1.0])), 500.0, 200.0, 30)
        expected = gpd_quantile(params, target_probability(500.0, 200.0, 30))
        assert est.value == pytest.approx(expected, abs=2 * BISECTION_TOL)

    def test_monte_carlo_equivalence(self):
        # stochastic route: sample S from the conditional GPD, sample E,
        # empirical quantile of E*S
        params = GpdParams(5.0, 2.0, 0.1)
        atoms = np.array([0.4, 0.7, 1.0])
        ecdf = ExposureEcdf(1, atoms)
        p_target = target_probability(500.0, 200.0, 30)
        est = return_value(params, ecdf, 500.0, 200.0, 30)
        rng = np.random.default_rng(8)
        n_draws = 1_000_000
        s = np.asarray(gpd_quantile(params, rng.uniform(size=n_draws)))
        e = rng.choice(atoms, size=n_draws)
        h = np.sort(e * s)
        q = float(np.quantile(h, p_target))
        # 3 standard errors of the sample quantile via the density at q
        k = int(p_target * n_draws)
        window = h[min(k + 5000, n_draws - 1)] - h[max(k - 5000, 0)]
        density = 10_000 / n_draws / window
        se = np.sqrt(p_target * (1 - p_target) / n_draws) / density
        assert abs(est.value - q) < 3 * se

    def test_invalid_inputs(self):
        params = GpdParams(0.0, 1.0, 0.0)
        ecdf = ExposureEcdf(1, np.array([1.0]))
        with pytest.raises(CatalogError):
            return_value(params, ecdf, T=100.0, T0=200.0, n=30)


class TestRunStme:
    def test_exposure_collapse_matches_single_location(self):
        rng = np.random.default_rng(9)
        stm_values = np.asarray(gpd_quantile(GpdParams(4.0, 2.0, 0.1), rng.uniform(size=120)))
        cat = exposure_world({1: 1.0, 2: 1.0, 3: 1.0}, stm_values)
        estimates = run_stme(cat, RegionSpec(), n=30, T=500.0, method="MLE")
        from stme.baselines import location_series, single_location_rv

        single = single_location_rv(location_series(cat, 1), 30, 500.0, 200.0, "MLE")
        for est in estimates:
            assert est.value == pytest.approx(single.value, abs=2 * BISECTION_TOL)

    def test_hand_computed_pipeline(self):
        # 6 events, 2 locations; n = 5 tail fit by PWM traced by hand below
        stm_values = [2.0, 3.0, 5.0, 7.0, 11.0, 13.0]
        cat = exposure_world({1: 1.0, 2: 0.5}, stm_values, duration=10.0)
        estimates = run_stme(cat, RegionSpec(), n=5, T=100.0, method="PWM")
        stm = extract_stm(cat)
        retained, psi = top_n_events(stm, 5)
        assert psi == 2.0
        report = fit_gpd(retained.values, psi, "PWM")
        p_target = 1.0 - (10.0 / 5) / 100.0
        expected_loc1 = gpd_quantile(report.params, p_target)
        by_loc = {e.location_id: e.value for e in estimates}
        assert by_loc[1] == pytest.approx(expected_loc1, abs=2 * BISECTION_TOL)
        assert by_loc[2] == pytest.approx(0.5 * expected_loc1, abs=2 * BISECTION_TOL)

    def test_per_location_independence(self):
        rng = np.random.default_rng(10)
        stm_values = np.asarray(gpd_quantile(GpdParams(4.0, 2.0, 0.1), rng.uniform(size=80)))
        cat = exposure_world({1: 1.0, 2: 0.7, 3: 0.4}, stm_values)
        all_three = run_stme(cat, RegionSpec(), n=20, T=500.0, method="MLE")
        just_two = run_stme(cat, RegionSpec(), n=20, T=500.0, method="MLE", location_ids=[1, 3])
        by_loc = {e.location_id: e.value for e in all_three}
        for est in just_two:
            assert est.value == by_loc[est.location_id]

    def test_failed_fit_raises(self):
        cat = exposure_world({1: 1.0, 2: 0.5}, np.arange(1, 13) ** 6.0)
        with pytest.raises(EvdError, match="tail fit failed: shape at search boundary"):
            run_stme(cat, RegionSpec(), n=10, T=500.0, method="MLE")

    def test_location_without_estimate_warns(self):
        rng = np.random.default_rng(11)
        stm_values = np.asarray(gpd_quantile(GpdParams(4.0, 2.0, 0.1), rng.uniform(size=60)))
        cat = exposure_world({1: 1.0, 2: 0.6}, stm_values)
        with pytest.warns(UserWarning, match="location 7: location 7 not in exposure matrix"):
            estimates = run_stme(cat, RegionSpec(), n=20, T=500.0, method="PWM",
                                 location_ids=[1, 7, 2])
        assert [e.location_id for e in estimates] == [1, 2]


class TestStmeReturnValues:
    def test_matches_return_value_per_location(self):
        rng = np.random.default_rng(12)
        stm_values = np.asarray(gpd_quantile(GpdParams(4.0, 2.0, 0.1), rng.uniform(size=60)))
        cat = exposure_world({1: 1.0, 2: 0.6, 3: 0.3}, stm_values)
        stm = extract_stm(cat)
        exposures = extract_exposures(cat, stm)
        results = stme_return_values(stm, exposures, 20, 500.0, 200.0, "pwm", [3, 1])
        assert list(results) == [3, 1]
        retained, psi = top_n_events(stm, 20)
        report = fit_gpd(retained.values, psi, "PWM")
        for loc, est in results.items():
            expected = return_value(
                report.params, exposure_ecdf(exposures, loc, retained.event_ids),
                T=500.0, T0=200.0, n=20, method="PWM",
            )
            assert est == expected

    def test_failed_fit_gives_every_location_the_reason(self):
        cat = exposure_world({1: 1.0, 2: 0.5}, np.arange(1, 13) ** 6.0)
        stm = extract_stm(cat)
        results = stme_return_values(stm, extract_exposures(cat, stm), 10, 500.0, 200.0, "MLE",
                                     [1, 2])
        assert results == dict.fromkeys([1, 2], "tail fit failed: shape at search boundary")
