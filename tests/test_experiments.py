import numpy as np
import pytest

from stme.baselines import empirical_rv, location_series
from stme.catalog import CatalogError, RegionSpec, extract_stm
import stme.experiments
from stme.experiments import (
    CellStats,
    ExperimentConfig,
    ReplicateResult,
    SynthWorldConfig,
    analysis_locations,
    estimate_cells,
    performance_metrics,
    replicate_rng,
    run_experiment,
    sample_period,
    summarize,
    synth_catalog,
)
from tests.test_catalog import footprint_dicts
from tests.test_returns import exposure_world


class TestExperimentConfig:
    def test_normalises_case(self):
        cfg = ExperimentConfig(T0=200.0, T=500.0, n_ladder=(20,), methods=("mle",),
                               estimators=("stme",))
        assert cfg.methods == ("MLE",)
        assert cfg.estimators == ("STME",)

    def test_rejects_bad_period(self):
        with pytest.raises(CatalogError):
            ExperimentConfig(T0=500.0, T=200.0, n_ladder=(20,))

    def test_rejects_unknown_method(self):
        with pytest.raises(CatalogError):
            ExperimentConfig(T0=200.0, T=500.0, n_ladder=(20,), methods=("MAP",))


class TestSamplePeriod:
    def test_expected_count(self):
        # 1971 events over 3200 years: a 200-year window keeps round(1971/16)
        cat = exposure_world({1: 1.0}, np.linspace(1, 30, 1971), duration=3200.0)
        sub = sample_period(cat, 200.0, np.random.default_rng(0))
        assert len(sub.event_ids) == round(1971 * 200 / 3200)
        assert sub.duration_years == 200.0

    def test_full_period_identity(self):
        cat = exposure_world({1: 1.0}, [1.0, 2.0, 3.0], duration=100.0)
        sub = sample_period(cat, 100.0, np.random.default_rng(1))
        assert sub.event_ids.tolist() == [1, 2, 3]

    def test_subset_without_replacement_in_order(self):
        cat = exposure_world({1: 1.0}, np.arange(1.0, 41.0), duration=400.0)
        sub = sample_period(cat, 100.0, np.random.default_rng(2))
        ids = sub.event_ids.tolist()
        assert len(ids) == len(set(ids)) == 10
        assert ids == sorted(ids)

    def test_too_long_period(self):
        cat = exposure_world({1: 1.0}, [1.0, 2.0], duration=100.0)
        with pytest.raises(CatalogError):
            sample_period(cat, 200.0, np.random.default_rng(3))

    def test_replicate_rng_independent_of_order(self):
        a = replicate_rng(7, 3).uniform(size=4)
        replicate_rng(7, 2).uniform(size=10)
        b = replicate_rng(7, 3).uniform(size=4)
        assert np.array_equal(a, b)


class TestSummarize:
    def rep(self, index, value):
        return ReplicateResult(index=index, estimates={(1, "STME", "MLE", 20): value},
                               failures={})

    def test_hand_percentiles(self):
        results = [self.rep(i, v) for i, v in enumerate([1.0, 2.0, 3.0, 4.0, 5.0])]
        stats = summarize(results).cells[(1, "STME", "MLE", 20)]
        assert stats.count == 5
        assert stats.mean == 3.0
        assert stats.median == 3.0
        assert stats.q25 == 2.0
        assert stats.q75 == 4.0
        assert stats.w50 == 2.0

    def test_normal_quantile_oracle(self):
        rng = np.random.default_rng(4)
        results = [self.rep(i, float(v)) for i, v in enumerate(rng.standard_normal(20_000))]
        stats = summarize(results).cells[(1, "STME", "MLE", 20)]
        assert stats.q025 == pytest.approx(-1.96, abs=0.05)
        assert stats.q975 == pytest.approx(1.96, abs=0.05)
        assert stats.q25 == pytest.approx(-0.6745, abs=0.03)

    def test_outliers_outside_whiskers(self):
        values = list(np.linspace(0, 1, 99)) + [100.0]
        results = [self.rep(i, float(v)) for i, v in enumerate(values)]
        stats = summarize(results).cells[(1, "STME", "MLE", 20)]
        assert 100.0 in stats.outliers
        assert all(v > stats.q975 or v < stats.q025 for v in stats.outliers)

    def test_all_failed_cell_reported_empty(self):
        results = [
            ReplicateResult(index=i, estimates={}, failures={(1, "STME", "MLE", 20): "x"})
            for i in range(3)
        ]
        summary = summarize(results)
        assert summary.cells == {}
        assert summary.empty_cells == ((1, "STME", "MLE", 20),)


class TestPerformanceMetrics:
    def test_hand_arithmetic(self):
        def cell(median, w):
            return CellStats(count=10, mean=median, median=median, q25=median - w / 2,
                             q75=median + w / 2, q025=median - w, q975=median + w,
                             outliers=())

        from stme.experiments import SummaryStats

        summary = SummaryStats(cells={
            (1, "STME", "MLE", 20): cell(10.0, 1.0),
            (2, "STME", "MLE", 20): cell(12.0, 2.0),
            (1, "SINGLE", "MLE", 20): cell(11.0, 2.0),
            (2, "SINGLE", "MLE", 20): cell(11.0, 3.0),
        })
        emp = [
            empirical_rv(location_series(
                exposure_world({1: 1.0, 2: 1.0},
                               [9.5 + 0.1 * k for k in range(40)], duration=640.0), loc),
                T=100.0, T_L=640.0)
            for loc in (1, 2)
        ]
        emp_val = {e.location_id: e.value for e in emp}
        metrics = {(m.estimator, m.method, m.n): m
                   for m in performance_metrics(summary, emp)}
        stme = metrics[("STME", "MLE", 20)]
        assert stme.bias_mean == pytest.approx(
            ((10.0 - emp_val[1]) + (12.0 - emp_val[2])) / 2)
        assert stme.w50 == pytest.approx(1.5)
        # width ratios: 1/2 - 1 and 2/3 - 1
        assert stme.width_ratio_u == pytest.approx(((0.5 - 1) + (2 / 3 - 1)) / 2)
        single = metrics[("SINGLE", "MLE", 20)]
        assert single.width_ratio_u == pytest.approx(((2.0 - 1) + (1.5 - 1)) / 2)

    def test_shift_linearity_of_bias(self):
        def cell(median, w):
            return CellStats(count=10, mean=median, median=median, q25=median - w / 2,
                             q75=median + w / 2, q025=median - w, q975=median + w,
                             outliers=())

        from stme.experiments import SummaryStats

        base = SummaryStats(cells={(1, "STME", "MLE", 20): cell(10.0, 1.0)})
        shifted = SummaryStats(cells={(1, "STME", "MLE", 20): cell(13.0, 1.0)})
        emp = [empirical_rv(location_series(
            exposure_world({1: 1.0}, [5.0 + 0.1 * k for k in range(40)], duration=640.0), 1),
            T=100.0, T_L=640.0)]
        m0 = performance_metrics(base, emp)[0]
        m1 = performance_metrics(shifted, emp)[0]
        assert m1.bias_mean - m0.bias_mean == pytest.approx(3.0)
        assert m1.w50 == m0.w50

    def test_missing_location_skips_row(self):
        from stme.experiments import SummaryStats

        def cell(median, w):
            return CellStats(count=10, mean=median, median=median, q25=median - w / 2,
                             q75=median + w / 2, q025=median - w, q975=median + w,
                             outliers=())

        # SINGLE has no summary at location 2: only its row is left out
        summary = SummaryStats(cells={
            (1, "STME", "MLE", 20): cell(10.0, 1.0),
            (2, "STME", "MLE", 20): cell(12.0, 2.0),
            (1, "SINGLE", "MLE", 20): cell(11.0, 2.0),
        })
        emp = [empirical_rv(location_series(
            exposure_world({1: 1.0, 2: 1.0}, [5.0 + 0.1 * k for k in range(40)],
                           duration=640.0), loc), T=100.0, T_L=640.0)
            for loc in (1, 2)]
        with pytest.warns(UserWarning, match=r"cell \('SINGLE', 'MLE', 20\): no summary "
                                             r"at locations \[2\]") as record:
            metrics = performance_metrics(summary, emp)
        assert len(record) == 1
        assert [(m.estimator, m.method, m.n, m.n_locations) for m in metrics] == [
            ("STME", "MLE", 20, 2)
        ]
        assert metrics[0].w50 == pytest.approx(1.5)
        # the skipped row still serves as the reference width at location 1
        assert metrics[0].width_ratio_u == pytest.approx(0.5 - 1)


class TestRunExperiment:
    @pytest.fixture(scope="class")
    @staticmethod
    def world():
        return synth_catalog(SynthWorldConfig(duration_years=800.0, seed=1))

    def test_deterministic_across_runs(self, world):
        cfg = ExperimentConfig(T0=100.0, T=200.0, n_ladder=(10,), replicates=4,
                               methods=("PWM",), location_ids=(1, 2), master_seed=5)
        a = run_experiment(world, RegionSpec(), cfg)
        b = run_experiment(world, RegionSpec(), cfg)
        assert a == b

    def test_jobs_do_not_change_results(self, world):
        cfg = ExperimentConfig(T0=100.0, T=200.0, n_ladder=(10,), replicates=4,
                               methods=("PWM",), location_ids=(1, 2), master_seed=5)
        serial = run_experiment(world, RegionSpec(), cfg, jobs=1)
        parallel = run_experiment(world, RegionSpec(), cfg, jobs=3)
        assert serial == parallel

    def test_pool_tasks_carry_only_the_index(self, world, monkeypatch):
        # the catalog and config reach each worker once, through the pool
        # initializer; each task is one replicate index
        tasks = []

        class RecordingPool(stme.experiments.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                tasks.extend(zip(*iterables))
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(stme.experiments, "ProcessPoolExecutor", RecordingPool)
        cfg = ExperimentConfig(T0=100.0, T=200.0, n_ladder=(10,), replicates=3,
                               methods=("MLE",), location_ids=(1, 2), master_seed=5)
        parallel = run_experiment(world, RegionSpec(), cfg, jobs=2)
        assert tasks == [(0,), (1,), (2,)]
        assert parallel == run_experiment(world, RegionSpec(), cfg, jobs=1)

    def test_grid_coverage(self, world):
        cfg = ExperimentConfig(T0=100.0, T=200.0, n_ladder=(10, 15), replicates=3,
                               methods=("PWM", "MLE"), location_ids=(1,), master_seed=6)
        results = run_experiment(world, RegionSpec(), cfg)
        for rep in results:
            keys = set(rep.estimates) | set(rep.failures)
            assert keys == {
                (1, est, method, n)
                for est in ("STME", "SINGLE")
                for method in ("PWM", "MLE")
                for n in (10, 15)
            }

    def test_unknown_location_rejected(self, world):
        cfg = ExperimentConfig(T0=100.0, T=200.0, n_ladder=(10,), replicates=2,
                               location_ids=(9999,))
        with pytest.raises(CatalogError, match="not in region"):
            run_experiment(world, RegionSpec(), cfg)


class TestEstimateCells:
    def test_cell_order_and_one_series_per_location(self, monkeypatch):
        world = synth_catalog(SynthWorldConfig(duration_years=200.0, seed=3))
        calls = []

        def counted(catalog, loc):
            calls.append(loc)
            return location_series(catalog, loc)

        monkeypatch.setattr(stme.experiments, "location_series", counted)
        cells = estimate_cells(world, 500.0, 200.0, (10, 20), ("MLE", "PWM"),
                               ("STME", "SINGLE"), (3, 1, 2))
        assert list(cells) == [
            (loc, est, method, n)
            for n in (10, 20)
            for method in ("MLE", "PWM")
            for est in ("STME", "SINGLE")
            for loc in (3, 1, 2)
        ]
        assert calls == [3, 1, 2]
        for (loc, est, method, n), result in cells.items():
            assert (result.location_id, result.estimator, result.method, result.n) == (
                loc, est, method, n)

    def test_n_beyond_sample_fails_every_cell(self):
        world = exposure_world({1: 1.0, 2: 0.5}, [5.0 + 0.1 * k for k in range(12)])
        cells = estimate_cells(world, 500.0, 200.0, (20,), ("PWM",), ("STME", "SINGLE"), (1, 2))
        assert len(cells) == 4
        assert set(cells.values()) == {"n=20 exceeds sample size 12"}

    def test_failed_fit_gives_every_stme_cell_the_reason(self):
        world = exposure_world({1: 1.0, 2: 0.5}, np.arange(1, 13) ** 6.0)
        cells = estimate_cells(world, 500.0, 200.0, (10,), ("MLE",), ("STME",), (1, 2))
        assert cells == {
            (loc, "STME", "MLE", 10): "tail fit failed: shape at search boundary"
            for loc in (1, 2)
        }

    def test_analysis_locations(self):
        world = exposure_world({1: 1.0, 2: 0.5, 3: 0.2}, [5.0 + 0.1 * k for k in range(12)])
        assert analysis_locations(world, None) == (1, 2, 3)
        assert analysis_locations(world, ()) == (1, 2, 3)
        assert analysis_locations(world, [3, 1, 3]) == (3, 1)
        with pytest.raises(CatalogError, match=r"\[7, 9\] not in region"):
            analysis_locations(world, (1, 9, 7))


class TestSynthWorld:
    def test_grid_shape_and_ids(self):
        cat = synth_catalog(SynthWorldConfig(duration_years=10.0, seed=0))
        # 7 lons x 5 lats at 0.2 degree spacing
        assert len(cat.locations) == 35
        assert [loc.id for loc in cat.locations] == list(range(1, 36))

    def test_event_count_from_rate(self):
        cat = synth_catalog(SynthWorldConfig(duration_years=100.0, seed=0))
        assert len(cat.event_ids) == 60

    def test_seed_reproducible(self):
        a = synth_catalog(SynthWorldConfig(duration_years=50.0, seed=3))
        b = synth_catalog(SynthWorldConfig(duration_years=50.0, seed=3))
        assert footprint_dicts(a) == footprint_dicts(b)

    def test_no_decay_no_noise_uniform_footprint(self):
        cfg = SynthWorldConfig(duration_years=50.0, seed=4, decay_km=1e9,
                               noise_sigma_log=0.0)
        cat = synth_catalog(cfg)
        for fp in footprint_dicts(cat).values():
            vals = np.array(list(fp.values()))
            assert np.allclose(vals, vals[0], rtol=1e-6)
            assert vals[0] >= cfg.intensity_threshold

    def test_stm_bounded_by_noisy_peak(self):
        # without noise the spatial max never exceeds the track peak intensity
        cfg = SynthWorldConfig(duration_years=200.0, seed=5, noise_sigma_log=0.0)
        cat = synth_catalog(cfg)
        stm = extract_stm(cat)
        # peaks are GPD(5, 2, 0.1) draws; the max footprint is peak * exp(-d/decay)
        assert np.all(stm.values <= 5.0 + 2.0 / 0.1 * (np.power(1e-9, -0.1)))

    def test_decay_orders_distance(self):
        # a location near the track sees more than a far one (no noise)
        cfg = SynthWorldConfig(duration_years=400.0, seed=6, noise_sigma_log=0.0)
        cat = synth_catalog(cfg)
        for vals in list(footprint_dicts(cat).values())[:50]:
            assert max(vals.values()) > 0.0

    def test_poisson_counts_vary(self):
        counts = {
            len(synth_catalog(SynthWorldConfig(duration_years=100.0, seed=s,
                                               poisson_counts=True)).event_ids)
            for s in range(6)
        }
        assert len(counts) > 1

    def test_invalid_config(self):
        with pytest.raises(CatalogError):
            SynthWorldConfig(rate=-1.0)
