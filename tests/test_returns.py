import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stme.catalog import (
    CatalogError,
    CycloneCatalog,
    ExposureMatrix,
    Location,
    RegionSpec,
    extract_exposures,
    extract_stm,
    top_n_events,
)
from stme.evd import EvdError, GpdParams, fit_gpd, gpd_cdf, gpd_pdf, gpd_quantile
from stme.experiments import estimate_cells
from stme.returns import (
    BISECTION_TOL,
    ExposureEcdf,
    exposure_ecdf,
    return_value,
    return_values,
    run_stme,
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
    # the sorted break points go in where they belong: the grid of a sort
    # over all points, without that sort's cost
    breaks = np.sort(breaks)
    grid = np.insert(grid, np.searchsorted(grid, breaks), breaks)
    with np.errstate(divide="ignore"):
        f_e = np.searchsorted(atoms, np.where(grid > 0, h / grid, np.inf), side="right") / atoms.size
    integrand = f_e * np.asarray(gpd_pdf(params, grid))
    return float(np.trapezoid(integrand, grid))


def atom_block(atom_lists, seed=None):
    """Events x locations block with column k holding atom_lists[k], padded
    with NaN; with a seed, each column's entries are shuffled among its rows."""
    block = np.full((max(map(len, atom_lists)), len(atom_lists)), np.nan)
    for k, atoms in enumerate(atom_lists):
        block[: len(atoms), k] = atoms
    return block if seed is None else np.random.default_rng(seed).permuted(block, axis=0)


def columns_of(fits):
    """The (threshold, scale, shape) arrays of a list of GpdParams."""
    return np.array([[f.threshold, f.scale, f.shape] for f in fits]).T


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
        values = np.column_stack([columns[j] for j in loc_ids])
        return ExposureMatrix(np.arange(1, n_events + 1), np.array(loc_ids), values)

    def test_sorted_atoms(self):
        mat = self.make_matrix({1: [0.2, 1.0, 0.6]})
        ecdf = exposure_ecdf(mat, 1)
        assert ecdf.atoms.tolist() == [0.2, 0.6, 1.0]

    def test_missing_entries_skipped(self):
        mat = self.make_matrix({1: [0.2, np.nan, 0.6]})
        ecdf = exposure_ecdf(mat, 1)
        assert ecdf.atoms.tolist() == [0.2, 0.6]

    def test_no_data_error(self):
        mat = self.make_matrix({1: [np.nan, np.nan]})
        with pytest.raises(CatalogError, match="no exposure data"):
            exposure_ecdf(mat, 1)

    def test_cdf_is_rank_over_m(self):
        # with S just above 1 almost surely, F_H(h) = F_E(h): the share of
        # atoms at or below h
        rng = np.random.default_rng(5)
        atoms = rng.uniform(0, 1, size=17)
        ecdf = ExposureEcdf(location_id=1, atoms=atoms)
        near_one = GpdParams(1.0, 1e-12, 0.0)
        for rank, atom in enumerate(ecdf.atoms, start=1):
            assert swh_cdf(near_one, ecdf, atom * (1 + 1e-9)) == pytest.approx(rank / 17)


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
           n=st.integers(5, 60), T=st.floats(300.0, 5000.0), seed=st.integers(0, 2**32 - 1))
    @example(fit=GpdParams(0.0, 4.0, -2.2250738585072014e-308), atom_lists=[[0.0]], n=5, T=300.0,
             seed=0)
    def test_equals_return_value_per_location(self, fit, atom_lists, n, T, seed):
        ecdfs = [ExposureEcdf(j, np.asarray(a)) for j, a in enumerate(atom_lists, start=1)]
        batch = return_values(columns_of([fit] * len(ecdfs)), atom_block(atom_lists, seed),
                              [e.location_id for e in ecdfs], T, 200.0, n)
        for ecdf, value, at_bound, reason in zip(ecdfs, *batch, strict=True):
            try:
                want = return_value(fit, ecdf, T, 200.0, n, method="MLE", estimator="STME")
            except (CatalogError, EvdError) as err:
                assert np.isnan(value) and not at_bound and reason == str(err)
            else:  # value and flag, bit for bit
                assert (value, at_bound, reason) == (
                    want.value, want.flag == "at_upper_bound", "")

    def test_location_errors_stay_per_location(self):
        params = GpdParams(5.0, 2.0, 0.1)
        block = atom_block([[0.5, 1.0], [0.0, 0.0], []])
        values, _, reasons = return_values(columns_of([params] * 3), block, [1, 2, 3], 500.0,
                                           200.0, 30)
        assert values[0] == return_value(params, ExposureEcdf(1, block[:, 0]), 500.0, 200.0,
                                         30).value
        assert np.isnan(values[1:]).all()
        assert reasons.tolist() == ["", "location 2: all exposures zero",
                                    "location 3: no exposure data among retained events"]

    def test_shape_just_below_zero_bracketed_as_exponential(self):
        # the upper endpoint 5 + 2 / 1e-300 overflows to inf
        block = atom_block([[0.5, 1.0], [0.0]])
        values, _, reasons = return_values(columns_of([GpdParams(5.0, 2.0, -1e-300)] * 2), block,
                                           [1, 2], 500.0, 200.0, 30)
        exponential = GpdParams(5.0, 2.0, 0.0)
        assert values[0] == return_value(exponential, ExposureEcdf(1, block[:, 0]), 500.0, 200.0,
                                         30).value
        assert reasons[1] == "location 2: all exposures zero"

    def test_upper_bound_flag(self):
        # survival (1 - 2 z)^(1/2) near the upper endpoint 6: the quantile
        # at p* = 1 - 6.7e-6 lies within 1e-6 m of it
        params = GpdParams(5.0, 2.0, -2.0)
        values, at_bound, _ = return_values(columns_of([params] * 2),
                                            atom_block([[1.0], [0.0, 0.5]]), [1, 2], 1e6, 200.0, 30)
        assert at_bound.tolist() == [True, True]
        assert values[0] == pytest.approx(6.0, abs=2 * BISECTION_TOL)
        assert values[1] == pytest.approx(3.0, abs=2 * BISECTION_TOL)


def assert_columns_match(fits, atom_lists, n, T, seed=None):
    """return_values with a fit per column equals its one-column calls, bit
    for bit; returns the batch."""
    block = atom_block(atom_lists, seed)
    ids = list(range(1, len(fits) + 1))
    batch = values, at_bound, reasons = return_values(columns_of(fits), block, ids, T, 200.0, n)
    for k in range(len(fits)):
        want = return_values(columns_of([fits[k]]), block[:, [k]], [ids[k]], T, 200.0, n)
        assert np.array_equal(values[[k]], want[0], equal_nan=True)
        assert (at_bound[k], reasons[k]) == (want[1][0], want[2][0])
    return batch


class TestReturnValuesPerColumn:
    @settings(max_examples=150, deadline=None)
    @given(columns=st.lists(st.tuples(
               st.builds(GpdParams, threshold=st.floats(0.0, 10.0), scale=st.floats(0.05, 5.0),
                         shape=st.one_of(st.sampled_from([0.0, 5e-7, -1e-6, -2.0, 2.0]),
                                         st.floats(-0.8, 1.5))),
               st.one_of(st.just([]), st.just([0.0, 0.0]), atom_sets)), min_size=1, max_size=8),
           n=st.integers(5, 60), T=st.sampled_from([300.0, 5000.0, 1e6, 1e9]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_one_column_calls(self, columns, n, T, seed):
        assert_columns_match([f for f, _ in columns], [a for _, a in columns], n, T, seed)

    def test_every_outcome_in_one_call(self):
        fits = [GpdParams(5.0, 2.0, 0.1), GpdParams(5.0, 2.0, 0.0), GpdParams(5.0, 2.0, 5e-7),
                GpdParams(5.0, 2.0, -2.0), GpdParams(10.0, 5.0, 1.5), GpdParams(5.0, 2.0, 0.1),
                GpdParams(5.0, 2.0, 0.1)]
        atoms = [[0.5, 1.0], [0.5, 1.0], [0.2, 0.9], [1.0], [1.0], [], [0.0, 0.0]]
        values, at_bound, reasons = assert_columns_match(fits, atoms, 60, 1e9)
        assert np.isnan(values).tolist() == [False] * 4 + [True] * 3
        assert at_bound.tolist() == [False, False, False, True, False, False, False]
        assert reasons.tolist() == [""] * 4 + [
            "return-value bracket exceeded 1e12 m",
            "location 6: no exposure data among retained events",
            "location 7: all exposures zero"]
        # the one-column view raises each reason as the error it names
        with pytest.raises(EvdError, match="bracket exceeded"):
            return_value(fits[4], ExposureEcdf(5, np.array([1.0])), 1e9, 200.0, 60)
        with pytest.raises(CatalogError, match="all exposures zero"):
            return_value(fits[6], ExposureEcdf(7, np.array([0.0, 0.0])), 1e9, 200.0, 60)


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

    def test_n_above_event_count_raises(self):
        cat = exposure_world({1: 1.0, 2: 0.5}, np.linspace(1.0, 7.0, 60))
        with pytest.raises(EvdError) as err:
            run_stme(cat, RegionSpec(), n=500, T=500.0, method="MLE")
        assert str(err.value) == (
            "MLE STM-E: no estimate at any location (n=500 exceeds sample size 60)")


class TestStmeCells:
    def test_matches_return_value_per_location(self):
        rng = np.random.default_rng(12)
        stm_values = np.asarray(gpd_quantile(GpdParams(4.0, 2.0, 0.1), rng.uniform(size=60)))
        cat = exposure_world({1: 1.0, 2: 0.6, 3: 0.3}, stm_values)
        stm = extract_stm(cat)
        exposures = extract_exposures(cat, stm)
        cells = estimate_cells(cat, 500.0, 200.0, (20,), ("pwm",), ("STME",), [3, 1])
        retained, psi = top_n_events(stm, 20)
        report = fit_gpd(retained.values, psi, "PWM")
        rows = np.isin(exposures.event_ids, retained.event_ids)
        kept = ExposureMatrix(exposures.event_ids[rows], exposures.location_ids,
                              exposures.values[rows])
        assert cells.keys == ((3, "STME", "pwm", 20), (1, "STME", "pwm", 20))
        for loc, value, flag in zip([3, 1], cells.values[0], cells.flags[0], strict=True):
            expected = return_value(
                report.params, exposure_ecdf(kept, loc), T=500.0, T0=200.0, n=20,
                method="PWM",
            )
            assert (value, flag) == (expected.value, expected.flag)

    def test_failed_fit_gives_every_location_the_reason(self):
        cat = exposure_world({1: 1.0, 2: 0.5}, np.arange(1, 13) ** 6.0)
        cells = estimate_cells(cat, 500.0, 200.0, (10,), ("MLE",), ("STME",), [1, 2])
        assert np.isnan(cells.values).all()
        assert cells.flags.tolist() == [["tail fit failed: shape at search boundary"] * 2]
