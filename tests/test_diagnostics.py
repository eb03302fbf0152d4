import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stme.catalog import ExposureMatrix, StmSeries
from stme.diagnostics import (
    DiagnosticsError,
    exposure_kl_test,
    kendall_tau,
    kendall_tau_null_sd,
    kl_symmetric,
    ks_uniformity,
    tau_map,
    trend_permutation_test,
)


def stm_series(values):
    values = np.asarray(values, dtype=float)
    return StmSeries(
        event_ids=np.arange(1, values.size + 1),
        values=values,
        argmax_location_ids=np.ones(values.size, dtype=int),
    )


def matrix(columns):
    loc_ids = sorted(columns)
    n_events = len(next(iter(columns.values())))
    values = np.column_stack([np.asarray(columns[j], dtype=float) for j in loc_ids])
    return ExposureMatrix(np.arange(1, n_events + 1), np.array(loc_ids), values)


class TestKendallTau:
    def test_perfect_concordance(self):
        tau, _ = kendall_tau([1, 2, 3, 4, 5], [2, 4, 6, 8, 10])
        assert tau == pytest.approx(1.0)

    def test_perfect_discordance(self):
        tau, _ = kendall_tau([1, 2, 3, 4, 5], [10, 8, 6, 4, 2])
        assert tau == pytest.approx(-1.0)

    def test_hand_counted_pairs(self):
        # pairs of (x, y) = (1,1),(2,3),(3,2): concordant 2, discordant 1
        tau, _ = kendall_tau([1, 2, 3], [1, 3, 2])
        assert tau == pytest.approx((2 - 1) / 3)

    def test_null_sd_closed_form(self):
        # n = 60: sqrt(2 * 125 / (9 * 60 * 59))
        assert kendall_tau_null_sd(60) == pytest.approx(
            math.sqrt(250.0 / (9 * 60 * 59)), abs=1e-15
        )
        assert kendall_tau_null_sd(60) == pytest.approx(0.0885823, abs=1e-6)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=40)
        y = rng.uniform(size=40)
        a, _ = kendall_tau(x, y)
        b, _ = kendall_tau(np.exp(x), y**3)
        assert a == pytest.approx(b)

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=40)
        y = rng.uniform(size=40)
        a, _ = kendall_tau(x, y)
        b, _ = kendall_tau(x, -y)
        assert a == pytest.approx(-b)

    def test_too_short(self):
        with pytest.raises(DiagnosticsError):
            kendall_tau([1, 2], [3, 4])

    def test_nan_propagates(self):
        tau, _ = kendall_tau([1.0, 2.0, np.nan, 4.0], [1.0, 3.0, 2.0, 4.0])
        assert math.isnan(tau)


def draw_values(draw, shape, levels):
    """Floats, or few distinct levels (many ties) when `levels` is small."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if levels:
        return rng.integers(0, levels, size=shape).astype(float)
    return rng.normal(size=shape)


@st.composite
def tau_cases(draw):
    """An STM-like x and an exposure-like matrix with ties in x and y, NaN
    cells, constant columns and columns with fewer than 3 valid rows."""
    n_events = draw(st.integers(3, 70))
    n_cols = draw(st.integers(1, 7))
    x = draw_values(draw, n_events, draw(st.sampled_from([0, 1, 2, 3, 6])))
    y = draw_values(draw, (n_events, n_cols), draw(st.sampled_from([0, 1, 2, 4, 9])))
    nan_share = draw(st.sampled_from([0.0, 0.2, 0.6, 0.95]))
    mask_seed = draw(st.integers(0, 2**32 - 1))
    y[np.random.default_rng(mask_seed).uniform(size=y.shape) < nan_share] = np.nan
    return x, y


class TestTauBAgainstScipy:
    """scipy is the oracle: the batched tau-b must equal
    scipy.stats.kendalltau(variant="b") bit for bit."""

    @staticmethod
    def scipy_tau(x, y):
        from scipy import stats

        return stats.kendalltau(x, y, variant="b").statistic

    @settings(max_examples=150, deadline=None)
    @given(case=tau_cases())
    def test_tau_map_equals_scipy(self, case):
        x, y = case
        loc_ids = np.arange(1, y.shape[1] + 1)
        exposures = ExposureMatrix(np.arange(1, len(x) + 1), loc_ids, y)
        counts = (~np.isnan(y)).sum(axis=0)
        if counts.max() < 3:
            with pytest.raises(DiagnosticsError, match="no location"):
                tau_map(stm_series(x), exposures)
            return
        results, _ = tau_map(stm_series(x), exposures)
        assert [r.location_id for r in results] == loc_ids[counts >= 3].tolist()
        for r in results:
            col = y[:, r.location_id - 1]
            keep = ~np.isnan(col)
            assert r.n_events == keep.sum()
            np.testing.assert_array_equal(r.tau, self.scipy_tau(x[keep], col[keep]))

    @settings(max_examples=100, deadline=None)
    @given(case=tau_cases())
    def test_kendall_tau_equals_scipy(self, case):
        x, y = case
        tau, _ = kendall_tau(x, y[:, 0])
        np.testing.assert_array_equal(tau, self.scipy_tau(x, y[:, 0]))

    def test_larger_than_one_block(self):
        # 1,000 events pad to 1,024 rows: 16 columns per block, 3 blocks
        rng = np.random.default_rng(4)
        x = np.round(rng.uniform(5, 20, size=1000), 1)
        y = np.round(rng.uniform(0, 1, size=(1000, 40)), 2)
        y[rng.uniform(size=y.shape) < 0.3] = np.nan
        results, _ = tau_map(stm_series(x), ExposureMatrix(np.arange(1, 1001), np.arange(40), y))
        for r in results:
            keep = ~np.isnan(y[:, r.location_id])
            assert r.tau == self.scipy_tau(x[keep], y[keep, r.location_id])


class TestTauMap:
    def test_independent_exposures_calibrated(self):
        # under independence about 10% of locations fall outside a 90% band
        rng = np.random.default_rng(2)
        n_events, n_locs = 60, 400
        stm = stm_series(rng.uniform(5, 20, size=n_events))
        cols = {j: rng.uniform(0, 1, size=n_events) for j in range(1, n_locs + 1)}
        results, frac = tau_map(stm, matrix(cols), band=0.90)
        assert len(results) == n_locs
        assert 0.06 <= frac <= 0.14

    def test_dependent_exposure_flagged(self):
        stm = stm_series(np.linspace(5, 20, 30))
        cols = {1: np.linspace(0.1, 1.0, 30), 2: np.linspace(1.0, 0.1, 30)}
        results, frac = tau_map(stm, matrix(cols), band=0.90)
        flags = {r.location_id: r.flag for r in results}
        assert flags[1] == "above"
        assert flags[2] == "below"
        assert frac == 1.0

    def test_band_monotone(self):
        rng = np.random.default_rng(3)
        stm = stm_series(rng.uniform(5, 20, size=50))
        cols = {j: rng.uniform(0, 1, size=50) for j in range(1, 201)}
        _, frac_wide = tau_map(stm, matrix(cols), band=0.99)
        _, frac_narrow = tau_map(stm, matrix(cols), band=0.50)
        assert frac_wide <= frac_narrow

    def test_invalid_band(self):
        stm = stm_series([1.0, 2.0, 3.0])
        with pytest.raises(DiagnosticsError):
            tau_map(stm, matrix({1: [0.1, 0.2, 0.3]}), band=1.5)

    def test_flags_match_scipy_critical_value(self):
        # the acceptance-criterion-5 world: 500 independent locations
        from scipy import stats

        rng = np.random.default_rng(500)
        stm = stm_series(rng.uniform(5, 20, size=60))
        cols = {j: rng.uniform(0, 1, size=60) for j in range(1, 501)}
        for band in (0.5, 0.9, 0.99):
            results, frac = tau_map(stm, matrix(cols), band=band)
            z_crit = stats.norm.ppf(0.5 + band / 2.0)
            expected = [
                "above" if r.tau > z_crit * r.null_sd
                else "below" if r.tau < -z_crit * r.null_sd else "inside"
                for r in results
            ]
            assert [r.flag for r in results] == expected
            assert frac == sum(f != "inside" for f in expected) / len(results)


class TestTrendPermutation:
    def test_strong_trend_minimal_p(self):
        lons = np.linspace(-62, -60, 30)
        lats = np.full(30, 16.0)
        stm = stm_series(np.linspace(5, 20, 30) + 0.0)
        p = trend_permutation_test(stm, lons, lats, 0.0, n_perm=199, rng=np.random.default_rng(4))
        assert p == pytest.approx(1 / 200)

    def test_orthogonal_orientation_insensitive(self):
        # trend purely in longitude: projecting on latitude (90 deg) sees none
        rng = np.random.default_rng(5)
        lons = np.linspace(-62, -60, 40)
        lats = rng.uniform(15.8, 16.6, size=40)
        stm = stm_series(5.0 + 7.0 * (lons + 62.0) + rng.normal(0, 0.1, size=40))
        p_along = trend_permutation_test(stm, lons, lats, 0.0, n_perm=199, rng=np.random.default_rng(6))
        p_across = trend_permutation_test(stm, lons, lats, 90.0, n_perm=199, rng=np.random.default_rng(7))
        assert p_along < 0.05 < p_across

    def test_null_uniform_p(self):
        # under no trend the p-values should be roughly uniform
        rng = np.random.default_rng(8)
        lons = rng.uniform(-62, -60, size=20)
        lats = rng.uniform(15.8, 16.6, size=20)
        ps = []
        for _ in range(200):
            stm = stm_series(rng.uniform(5, 20, size=20))
            ps.append(trend_permutation_test(stm, lons, lats, 45.0, n_perm=99, rng=rng))
        _, pvalue = ks_uniformity(ps)
        assert pvalue > 0.01

    def test_degenerate_projection(self):
        stm = stm_series(np.arange(10, dtype=float) + 1)
        with pytest.raises(DiagnosticsError, match="degenerate"):
            trend_permutation_test(stm, np.zeros(10), np.ones(10), 0.0, n_perm=99)

    def test_too_few_events(self):
        stm = stm_series([1.0, 2.0, 3.0])
        with pytest.raises(DiagnosticsError):
            trend_permutation_test(stm, [0, 1, 2], [0, 0, 0], 0.0)


class TestKl:
    def test_identical_samples_zero(self):
        s = np.array([0.1, 0.4, 0.9])
        assert kl_symmetric(s, s) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(size=30)
        b = rng.uniform(size=30)
        assert kl_symmetric(a, b) == pytest.approx(kl_symmetric(b, a))

    def test_hand_computed_two_bins(self):
        # all of a in bin 0, all of b in bin 9; other bins cancel
        a = np.full(4, 0.01)
        b = np.full(4, 0.99)
        p0 = 4.5 / 9.0  # (4 + 0.5) / (4 + 10 * 0.5)
        q0 = 0.5 / 9.0
        expected = 2 * (p0 - q0) * math.log(p0 / q0)
        assert kl_symmetric(a, b) == pytest.approx(expected, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            assert kl_symmetric(rng.uniform(size=12), rng.uniform(size=12)) >= 0.0


class TestExposureKlTest:
    def test_typical_extremes_mid_rank(self):
        rng = np.random.default_rng(11)
        n_events, n_locs = 40, 25
        stm = stm_series(rng.uniform(5, 20, size=n_events))
        cols = {j: rng.uniform(0, 1, size=n_events) for j in range(1, n_locs + 1)}
        res = exposure_kl_test(matrix(cols), stm, location_id=1,
                               n_null=400, rng=np.random.default_rng(12))
        assert 0.0 <= res.non_exceedance <= 1.0
        assert res.null_sample.size == 400
        assert res.n_events == n_events

    def test_distinct_extreme_profile_high_rank(self):
        rng = np.random.default_rng(13)
        n_events, n_locs = 40, 25
        values = rng.uniform(5, 15, size=n_events)
        values[7] = 30.0  # the extreme event gets a concentrated profile
        cols = {j: rng.uniform(0.4, 0.6, size=n_events) for j in range(1, n_locs + 1)}
        for j in cols:
            cols[j][7] = rng.uniform(0.0, 0.05)
        res = exposure_kl_test(matrix(cols), stm_series(values), location_id=3,
                               n_null=400, rng=np.random.default_rng(14))
        assert res.non_exceedance > 0.9

    def test_calibration_under_null(self):
        # the non-exceedance probabilities should be roughly uniform when
        # exposure is independent of STM
        rng = np.random.default_rng(15)
        probs = []
        for _ in range(150):
            stm = stm_series(rng.uniform(5, 20, size=25))
            cols = {j: rng.uniform(0, 1, size=25) for j in range(1, 16)}
            res = exposure_kl_test(matrix(cols), stm, location_id=1, n_null=200, rng=rng)
            probs.append(res.non_exceedance)
        _, pvalue = ks_uniformity(probs)
        assert pvalue > 0.01

    def test_n_null_validation(self):
        stm = stm_series([1.0, 2.0, 3.0])
        with pytest.raises(DiagnosticsError):
            exposure_kl_test(matrix({1: [0.1, 0.5, 1.0]}), stm, 1, n_null=10)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_events=st.integers(3, 40),
        n_locs=st.integers(1, 12),
        nan_share=st.sampled_from([0.0, 0.3, 0.8]),
    )
    def test_equals_per_pair_recomputation(self, seed, n_events, n_locs, nan_share):
        rng = np.random.default_rng(seed)
        stm = stm_series(rng.uniform(5, 20, size=n_events))
        values = rng.uniform(0, 1, size=(n_events, n_locs))
        values[rng.uniform(size=values.shape) < nan_share] = np.nan
        values[rng.uniform(size=values.shape) < 0.1] = 1.0  # the last bin edge
        exposures = ExposureMatrix(stm.event_ids, np.arange(n_locs), values)
        res = exposure_kl_test(exposures, stm, 0, n_null=100, rng=np.random.default_rng(seed))
        samples = [row[~np.isnan(row)] for row in values]
        draw = np.random.default_rng(seed)
        expected = []
        for _ in range(100):
            i, j = draw.choice(n_events, size=2, replace=False)
            expected.append(kl_symmetric(samples[i], samples[j]))
        np.testing.assert_array_equal(res.null_sample, expected)
        assert res.kl_star == kl_symmetric(
            samples[int(np.argmax(stm.values))], samples[int(np.argmin(stm.values))]
        )


class TestKsUniformity:
    def test_uniform_sample_high_p(self):
        rng = np.random.default_rng(16)
        _, p = ks_uniformity(rng.uniform(size=500))
        assert p > 0.05

    def test_nonuniform_sample_low_p(self):
        rng = np.random.default_rng(17)
        _, p = ks_uniformity(rng.uniform(size=500) ** 3)
        assert p < 1e-6

    def test_statistic_hand_value(self):
        # ECDF of {0.5} jumps from 0 to 1 at 0.5: sup gap = 0.5
        stat, _ = ks_uniformity([0.5, 0.5, 0.5, 0.5, 0.5])
        assert stat == pytest.approx(0.5)

    def test_out_of_range(self):
        with pytest.raises(DiagnosticsError):
            ks_uniformity([0.1, 0.2, 0.3, 0.4, 1.4])
