import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stme import diagnostics
from stme.catalog import ExposureMatrix, StmSeries
from stme.diagnostics import (
    KL_BINS,
    KL_BLOCK_PAIRS,
    KL_NULL_MAX_BYTES,
    KL_SMOOTHING,
    DiagnosticsError,
    KlResult,
    _tau_b,
    check_sample_sizes,
    exposure_kl_test,
    exposure_profiles,
    kendall_tau_null_sd,
    kl_profile_test,
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


def kendall_tau(x, y):
    """Tau-b of two samples through the batched _tau_b, with its Gaussian
    null sd; NaN when either sample holds a NaN."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    null_sd = kendall_tau_null_sd(x.size)  # checks n >= 3
    if np.isnan(x).any() or np.isnan(y).any():
        return math.nan, null_sd
    return float(_tau_b(x, y.reshape(-1, 1))[0]), null_sd


def histogram_profile(sample, bins=KL_BINS):
    """The smoothed exposure histogram of one sample by np.histogram: the
    oracle of exposure_profiles."""
    counts, _ = np.histogram(sample, bins=bins, range=(0.0, 1.0))
    smoothed = counts + KL_SMOOTHING
    return smoothed / smoothed.sum()


def divergence(p, q):
    return float(np.sum((p - q) * np.log(p / q)))


def kl_symmetric(a, b):
    """J-divergence between the smoothed exposure histograms of two samples,
    as two NaN-padded rows through exposure_profiles."""
    rows = np.full((2, max(len(a), len(b), 1)), np.nan)
    rows[0, :len(a)], rows[1, :len(b)] = a, b
    return divergence(*exposure_profiles(rows))


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

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(10, 400), n_perm=st.integers(99, 700), seed=st.integers(0, 2**32 - 1))
    def test_equals_unblocked_computation(self, n, n_perm, seed):
        # the permutations come in blocks of rows; the p-value is that of one
        # n_perm x events matrix built from the same draws
        rng = np.random.default_rng(seed)
        lons, lats = rng.uniform(-62, -60, size=n), rng.uniform(15.8, 16.6, size=n)
        stm = stm_series(5.0 + 0.3 * (lons + 62.0) + rng.uniform(0, 2, size=n))
        proj_c = lons * math.cos(math.radians(30.0)) + lats * math.sin(math.radians(30.0))
        proj_c -= proj_c.mean()
        ss = float(np.sum(proj_c**2))
        values = stm.values - stm.values.mean()
        draws = np.random.default_rng(seed + 1)
        perms = np.empty((n_perm, n))
        for i in range(n_perm):
            perms[i] = draws.permutation(values)
        n_ge = int(np.sum(np.abs(perms @ proj_c / ss) >= abs(float(proj_c @ values) / ss)))
        p = trend_permutation_test(stm, lons, lats, 30.0, n_perm=n_perm,
                                   rng=np.random.default_rng(seed + 1))
        assert p == (1 + n_ge) / (n_perm + 1)

    def test_degenerate_projection(self):
        stm = stm_series(np.arange(10, dtype=float) + 1)
        with pytest.raises(DiagnosticsError, match="degenerate"):
            trend_permutation_test(stm, np.zeros(10), np.ones(10), 0.0, n_perm=99)

    def test_too_few_events(self):
        stm = stm_series([1.0, 2.0, 3.0])
        with pytest.raises(DiagnosticsError):
            trend_permutation_test(stm, [0, 1, 2], [0, 0, 0], 0.0)


def edge_values(bins, ulps=1):
    """Bin edges as np.histogram computes them and as k / bins, each with its
    floating-point neighbours up to `ulps` away: below 0 and above 1 fall
    outside the range."""
    values = [np.linspace(0.0, 1.0, bins + 1), np.arange(bins + 1) / bins]
    for direction in (-np.inf, np.inf):
        below_or_above = values[:2]
        for _ in range(ulps):
            below_or_above = [np.nextafter(v, direction) for v in below_or_above]
            values.extend(below_or_above)
    return np.unique(np.concatenate(values))


EDGE_VALUES = edge_values(KL_BINS)


@st.composite
def profile_cases(draw):
    """An exposure-like matrix with values on and next to the bin edges,
    exact 0 and 1, NaN holes and single rows or columns, and a block size
    that puts block boundaries inside it."""
    n_rows, n_cols = draw(st.integers(1, 40)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(size=(n_rows, n_cols))
    on_edge = rng.uniform(size=values.shape) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    values[on_edge] = rng.choice(EDGE_VALUES, size=int(on_edge.sum()))
    values[rng.uniform(size=values.shape) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = np.nan
    block = draw(st.sampled_from([1, n_cols - 1, n_cols, 2 * n_cols + 1, 1 << 14]))
    return values, block


class TestExposureProfiles:
    @settings(max_examples=300, deadline=None)
    @given(case=profile_cases())
    def test_equals_np_histogram(self, case):
        values, block = case
        with mock.patch.object(diagnostics, "TAU_BLOCK_CELLS", block):
            profiles = exposure_profiles(values)
        expected = np.array([histogram_profile(row[~np.isnan(row)]) for row in values])
        assert profiles.shape == (len(values), KL_BINS) and profiles.dtype == np.float64
        np.testing.assert_array_equal(profiles.view(np.int64), expected.view(np.int64))

    def test_every_edge_value_alone(self):
        values = EDGE_VALUES.reshape(-1, 1)
        expected = np.array([histogram_profile(row) for row in values])
        np.testing.assert_array_equal(exposure_profiles(values), expected)
        assert exposure_profiles(np.array([[1.0]]))[0].argmax() == KL_BINS - 1

    @pytest.mark.parametrize("bins", [7, KL_BINS, 49])
    def test_edge_corrections_at_other_bin_counts(self, bins):
        # with 10 bins no value needs the upward correction; with 7 some do
        values = edge_values(bins, ulps=4).reshape(-1, 1)
        with mock.patch.object(diagnostics, "KL_BINS", bins):
            profiles = exposure_profiles(values)
        expected = np.array([histogram_profile(row, bins) for row in values])
        np.testing.assert_array_equal(profiles, expected)

    def test_default_blocks_split_rows(self):
        # 7,000 columns: two rows per block of 1 << 14 cells, three blocks
        rng = np.random.default_rng(18)
        values = rng.uniform(size=(5, 7000))
        values[rng.uniform(size=values.shape) < 0.2] = np.nan
        expected = np.array([histogram_profile(row[~np.isnan(row)]) for row in values])
        np.testing.assert_array_equal(exposure_profiles(values), expected)


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
            expected.append(divergence(histogram_profile(samples[i]),
                                       histogram_profile(samples[j])))
        np.testing.assert_array_equal(res.null_sample, expected)
        assert res.kl_star == divergence(histogram_profile(samples[int(np.argmax(stm.values))]),
                                         histogram_profile(samples[int(np.argmin(stm.values))]))


def per_pair_kl_test(profiles, stm, location_id, n_null, rng):
    """The KL test one null pair at a time: the oracle of kl_profile_test."""
    kl_star = divergence(profiles[int(np.argmax(stm.values))],
                         profiles[int(np.argmin(stm.values))])
    m = len(profiles)
    null = np.empty(n_null)
    for k in range(n_null):
        i, j = rng.choice(m, size=2, replace=False)
        null[k] = divergence(profiles[i], profiles[j])
    return KlResult(location_id=int(location_id), n_events=m, kl_star=kl_star,
                    null_sample=null, non_exceedance=float(np.mean(null <= kl_star)))


class TestKlProfileTest:
    @pytest.mark.parametrize("n_null", [100, KL_BLOCK_PAIRS - 1, KL_BLOCK_PAIRS,
                                        KL_BLOCK_PAIRS + 1])
    def test_equals_per_pair_loop(self, n_null):
        rng = np.random.default_rng(n_null)
        stm = stm_series(rng.uniform(5, 20, size=60))
        values = rng.uniform(0, 1, size=(60, 30))
        values[rng.uniform(size=values.shape) < 0.3] = np.nan
        profiles = np.array([histogram_profile(row[~np.isnan(row)]) for row in values])
        got_rng, want_rng = np.random.default_rng(19), np.random.default_rng(19)
        got = kl_profile_test(profiles, stm, 7, n_null=n_null, rng=got_rng)
        want = per_pair_kl_test(profiles, stm, 7, n_null, want_rng)
        assert (got.location_id, got.n_events, got.kl_star, got.non_exceedance) == (
            want.location_id, want.n_events, want.kl_star, want.non_exceedance)
        np.testing.assert_array_equal(got.null_sample, want.null_sample)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state  # same draws

    def test_exposure_kl_test_is_the_profile_test(self):
        rng = np.random.default_rng(20)
        stm = stm_series(rng.uniform(5, 20, size=30))
        exposures = ExposureMatrix(stm.event_ids, np.arange(12), rng.uniform(size=(30, 12)))
        a = exposure_kl_test(exposures, stm, 4, n_null=300, rng=np.random.default_rng(21))
        b = kl_profile_test(exposure_profiles(exposures.values), stm, 4, n_null=300,
                            rng=np.random.default_rng(21))
        assert (a.kl_star, a.non_exceedance) == (b.kl_star, b.non_exceedance)
        np.testing.assert_array_equal(a.null_sample, b.null_sample)

    def test_null_sample_cap(self):
        profiles = exposure_profiles(np.random.default_rng(22).uniform(size=(5, 4)))
        stm = stm_series([1.0, 2.0, 3.0, 4.0, 5.0])
        with mock.patch.object(diagnostics, "KL_NULL_MAX_BYTES", 8 * 150):
            assert kl_profile_test(profiles, stm, 1, n_null=150).null_sample.size == 150
            with pytest.raises(DiagnosticsError, match="null sample cap"):
                kl_profile_test(profiles, stm, 1, n_null=151)


class TestSampleSizes:
    def test_bounds(self):
        cap = KL_NULL_MAX_BYTES // 8
        check_sample_sizes(99, 100)
        check_sample_sizes(10**9, cap)  # n_perm costs time, not memory: no cap
        for n_perm, n_null, message in [(98, 100, "n_perm >= 99"), (99, 99, "n_null >= 100"),
                                        (99, cap + 1, "null sample cap"),
                                        (99, 10**9, "null sample cap")]:
            with pytest.raises(DiagnosticsError, match=message):
                check_sample_sizes(n_perm, n_null)

    def test_cap_is_stated_in_bytes(self):
        with pytest.raises(DiagnosticsError) as err:
            check_sample_sizes(n_null=10**9)
        assert f"{KL_NULL_MAX_BYTES} bytes" in str(err.value)


@st.composite
def ks_samples(draw):
    """5 to 140 probabilities: arbitrary floats in [0, 1] (0, 1, ties and
    subnormals included), or uniform draws raised to a power, rounded to
    two digits or not, which spreads D over (0, 1]."""
    if draw(st.booleans()):
        return np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=140)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.uniform(size=draw(st.integers(5, 140))) ** draw(st.floats(0.05, 20.0))
    return np.round(probs, 2) if draw(st.booleans()) else probs


@st.composite
def statistic_pairs(draw):
    """n and statistics d1 <= d2, either anywhere in [0, 1] or a few ulps on
    either side of a point where _kolmogorov_sf changes its matrix or its
    formula: j/n, 1 - 1/n and sqrt(18/n)."""
    n = draw(st.integers(5, 500))
    if draw(st.booleans()):
        return (n, *sorted([draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))]))
    edge = min(1.0, draw(st.one_of(st.integers(1, n).map(lambda j: j / n),
                                   st.just(1.0 - 1.0 / n), st.just(math.sqrt(18.0 / n)))))
    lo, hi = edge, edge
    for _ in range(draw(st.integers(1, 4))):
        lo = math.nextafter(lo, 0.0)
    for _ in range(draw(st.integers(0, 4))):
        hi = math.nextafter(hi, 1.0)
    return n, lo, min(hi, 1.0)


class TestKsUniformity:
    """scipy.stats.kstest is the oracle for the statistic and the p-value."""

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

    @settings(max_examples=200, deadline=None)
    @given(probs=ks_samples())
    def test_equals_scipy_kstest(self, probs):
        from scipy import stats

        stat, p = ks_uniformity(probs)
        reference = stats.kstest(probs, "uniform")
        assert stat == reference.statistic
        assert abs(p - reference.pvalue) <= 1e-12

    # up to n = 140 scipy's kstwo.sf is Durbin's or Pomeranz's exact formula,
    # or Miller's approximation where n d^2 > 4, which is off by 1e-14 at
    # most; above n = 140 it may be Pelz-Good's asymptotic series
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(5, 500), d=st.floats(0.0, 1.0))
    @example(n=140, d=0.2)  # scipy's Miller branch; a Durbin matrix here
    @example(n=141, d=0.12)  # scipy's Pelz-Good branch
    def test_p_equals_scipy_kstwo(self, n, d):
        from scipy import stats

        tolerance = 1e-12 if n <= 140 else 1e-5
        assert abs(diagnostics._kolmogorov_sf(n, d) - stats.kstwo.sf(d, n)) <= tolerance

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(5, 10_000), share=st.floats(0.0, 1.0))
    def test_p_is_one_up_to_half_a_step(self, n, share):
        assert diagnostics._kolmogorov_sf(n, share * 0.5 / n) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(5, 10_000), share=st.floats(0.0, 1.0))
    def test_closed_form_from_one_step_below_one(self, n, share):
        d = 1.0 - share / n
        assert diagnostics._kolmogorov_sf(n, d) == pytest.approx(2.0 * (1.0 - d) ** n, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(case=statistic_pairs())
    @example(case=(10, math.nextafter(0.9, 0.0), 0.9))
    @example(case=(11, math.nextafter(10 / 11, 0.0), 10 / 11))
    def test_p_in_unit_interval_and_not_increasing(self, case):
        n, d1, d2 = case
        p1, p2 = diagnostics._kolmogorov_sf(n, d1), diagnostics._kolmogorov_sf(n, d2)
        assert 0.0 <= p2 <= 1.0 and 0.0 <= p1 <= 1.0
        assert p2 <= p1 + 1e-15

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(5, 1000), d=st.floats(0.0, 1.0))
    @example(n=500, d=math.nextafter(math.sqrt(18 / 500), 0.0))
    def test_durbin_matrix_rows_are_capped(self, n, d):
        # every matrix _kolmogorov_sf builds goes through _durbin_matrix,
        # which this records
        rows = self.matrix_rows(n, d)
        assert all(r <= 2 * math.ceil(math.sqrt(18 * n)) + 1 for r in rows)

    def test_largest_durbin_matrix_is_built_below_the_cap(self):
        # n = 500: n d^2 is 17.99 at d = 0.1897, where k = ceil(n d) = 95 gives
        # 2k - 1 rows, two fewer than the cap; it is 18.05 at d = 0.19, where
        # no matrix is built
        assert self.matrix_rows(500, 0.1897) == [189]
        assert self.matrix_rows(500, 0.19) == []

    @staticmethod
    def matrix_rows(n, d):
        rows, build = [], diagnostics._durbin_matrix

        def recording(k, h):
            H = build(k, h)
            rows.append(len(H))
            return H

        with mock.patch.object(diagnostics, "_durbin_matrix", recording):
            diagnostics._kolmogorov_sf(n, d)
        return rows
