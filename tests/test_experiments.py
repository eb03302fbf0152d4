import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stme.baselines import empirical_rv, location_series, single_location_rv
from stme.catalog import CatalogError, CycloneCatalog, RegionSpec, extract_stm
from stme.evd import EvdError
from stme.returns import run_stme
import stme.baselines
import stme.evd
import stme.experiments
import stme.returns
from stme.experiments import (
    MIN_CHUNK_REPLICATES,
    CellStats,
    CellTable,
    ExperimentConfig,
    SynthWorldConfig,
    analysis_locations,
    cell_keys,
    estimate_cells,
    performance_metrics,
    _chunks,
    _run_chunk,
    replicate_rng,
    run_experiment,
    run_replicates,
    sample_period,
    summarize,
    synth_catalog,
)
from tests.test_catalog import footprint_dicts
from tests.test_returns import exposure_world


def result_rows(table):
    """A cell table in comparable form: its keys, then each row's values,
    with None for NaN, and flags."""
    return table.keys, [([None if v != v else v for v in values], flags) for values, flags
                        in zip(table.values.tolist(), table.flags.tolist())]


def row(table, r):
    """Row r of a cell table, as a one-row table."""
    return CellTable(table.keys, table.values[r : r + 1], table.flags[r : r + 1])


def cell_dict(cells, row=0):
    """Sample `row` of a cell table as {key: (value or None, flag)}."""
    return {key: (None if np.isnan(value) else value, flag)
            for key, value, flag in zip(cells.keys, cells.values[row].tolist(), cells.flags[row])}


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
    KEYS = ((1, "STME", "MLE", 20),)

    def table(self, values):
        """A one-cell experiment table, a row per value."""
        values = np.array(values, dtype=float)[:, None]
        return CellTable(self.KEYS, values, np.where(np.isnan(values), "x", "").astype(object))

    def test_hand_percentiles(self):
        stats = summarize(self.table([1.0, 2.0, 3.0, 4.0, 5.0])).cells[(1, "STME", "MLE", 20)]
        assert stats.count == 5
        assert stats.mean == 3.0
        assert stats.median == 3.0
        assert stats.q25 == 2.0
        assert stats.q75 == 4.0
        assert stats.w50 == 2.0

    def test_normal_quantile_oracle(self):
        rng = np.random.default_rng(4)
        stats = summarize(self.table(rng.standard_normal(20_000))).cells[(1, "STME", "MLE", 20)]
        assert stats.q025 == pytest.approx(-1.96, abs=0.05)
        assert stats.q975 == pytest.approx(1.96, abs=0.05)
        assert stats.q25 == pytest.approx(-0.6745, abs=0.03)

    def test_outliers_outside_whiskers(self):
        values = list(np.linspace(0, 1, 99)) + [100.0]
        stats = summarize(self.table(values)).cells[(1, "STME", "MLE", 20)]
        assert 100.0 in stats.outliers
        assert all(v > stats.q975 or v < stats.q025 for v in stats.outliers)

    def test_all_failed_cell_reported_empty(self):
        assert summarize(self.table([np.nan] * 3)).cells == {}

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 4).flatmap(lambda k: st.integers(2, 40).flatmap(
        lambda n: st.lists(st.one_of(
            st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=n, max_size=n),
            st.lists(st.sampled_from([0.0, 1.5, 2.0, -3.25]), min_size=n, max_size=n),
            st.floats(-1e6, 1e6).map(lambda v: [v] * n)), min_size=k, max_size=k))))
    def test_percentiles_equal_numpy(self, rows):
        # ties, two values and constant rows included: np.percentile's linear
        # rule, bit for bit
        arr = np.array(rows, dtype=float)
        want = np.percentile(arr, [2.5, 25.0, 50.0, 75.0, 97.5], axis=1)
        assert np.array_equal(stme.experiments._box_percentiles(arr), want)


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
        assert result_rows(a) == result_rows(b)

    def test_jobs_do_not_change_results(self, world):
        cfg = ExperimentConfig(T0=100.0, T=200.0, n_ladder=(10,), replicates=4,
                               methods=("PWM",), location_ids=(1, 2), master_seed=5)
        serial = run_experiment(world, RegionSpec(), cfg, jobs=1)
        parallel = run_experiment(world, RegionSpec(), cfg, jobs=3)
        assert result_rows(serial) == result_rows(parallel)

    def test_pool_tasks_carry_only_replicate_indices(self, world, monkeypatch):
        # the catalog and config reach each worker once, through the pool
        # initializer; each task is a chunk of replicate indices, at least
        # one per worker once chunks may be that short
        monkeypatch.setattr(stme.experiments, "MIN_CHUNK_REPLICATES", 1)
        tasks = []

        class RecordingPool(stme.experiments.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                tasks.extend(zip(*iterables))
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(stme.experiments, "ProcessPoolExecutor", RecordingPool)
        cfg = ExperimentConfig(T0=100.0, T=200.0, n_ladder=(10,), replicates=3,
                               methods=("MLE",), location_ids=(1, 2), master_seed=5)
        parallel = run_experiment(world, RegionSpec(), cfg, jobs=2)
        assert tasks == [([0],), ([1, 2],)]
        assert result_rows(parallel) == result_rows(run_experiment(world, RegionSpec(), cfg))

    def test_pool_starts_a_worker_per_chunk_at_most(self, world, monkeypatch):
        # the pool starts all of its workers at the first task, so 8 jobs on
        # 3 replicates start 1 worker for their one chunk; with chunks of
        # one replicate allowed, 8 jobs on 3 chunks, or on the 1 replicate a
        # rerun has left, start 3 and 1
        workers = []

        class RecordingPool(stme.experiments.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(stme.experiments, "ProcessPoolExecutor", RecordingPool)
        cfg = ExperimentConfig(T0=100.0, T=200.0, n_ladder=(10,), replicates=3,
                               methods=("PWM",), location_ids=(1, 2), master_seed=5)
        serial = run_experiment(world, RegionSpec(), cfg)
        assert result_rows(run_experiment(world, RegionSpec(), cfg, jobs=8)) == result_rows(serial)
        monkeypatch.setattr(stme.experiments, "MIN_CHUNK_REPLICATES", 1)
        parallel = run_experiment(world, RegionSpec(), cfg, jobs=8)
        (chunk, last), = run_replicates(world, cfg, [2], jobs=8)
        assert workers == [1, 3, 1]
        assert chunk == [2]
        assert result_rows(last) == result_rows(row(parallel, 2))
        assert result_rows(parallel) == result_rows(serial)

    def test_replicates_come_as_indexed_rows_of_the_experiment(self, world, monkeypatch):
        # a chunk at a time: its indices in order, and its table, a row each
        cfg = ExperimentConfig(T0=100.0, T=200.0, n_ladder=(10, 15), replicates=5,
                               location_ids=(1, 2), master_seed=7)
        table = run_experiment(world, RegionSpec(), cfg)
        whole = list(run_replicates(world, cfg, [4, 0, 3]))
        monkeypatch.setattr(stme.experiments, "CHUNK_CELLS", 1)
        split = list(run_replicates(world, cfg, [4, 0, 3]))
        assert [chunk for chunk, _ in whole] == [[4, 0, 3]]
        assert [chunk for chunk, _ in split] == [[4], [0], [3]]
        for chunk, part in whole + split:
            assert part.values.shape == part.flags.shape == (len(chunk), len(table.keys))
            for r, index in enumerate(chunk):
                assert result_rows(row(part, r)) == result_rows(row(table, index))

    def test_grid_coverage(self, world):
        cfg = ExperimentConfig(T0=100.0, T=200.0, n_ladder=(10, 15), replicates=3,
                               methods=("PWM", "MLE"), location_ids=(1,), master_seed=6)
        table = run_experiment(world, RegionSpec(), cfg)
        assert table.values.shape == table.flags.shape == (3, len(table.keys))
        assert set(table.keys) == {
            (1, est, method, n)
            for est in ("STME", "SINGLE")
            for method in ("PWM", "MLE")
            for n in (10, 15)
        }

    def test_one_fit_call_per_n_and_method_whatever_the_chunk(self, world, monkeypatch):
        # STM-E and SINGLE rows of every replicate in a chunk share one fit
        calls = []
        fit = stme.evd.fit_gpd_rows
        monkeypatch.setattr(stme.experiments, "fit_gpd_rows",
                            lambda x, t, method: calls.append(len(x)) or fit(x, t, method))
        cfg = ExperimentConfig(T0=100.0, T=200.0, n_ladder=(10, 15), replicates=8,
                               location_ids=(1, 2, 3), master_seed=5)
        rows = {}
        for chunk in ([4], list(range(8))):
            calls.clear()
            _run_chunk(chunk, world, cfg)
            rows[len(chunk)] = list(calls)
        assert len(rows[1]) == len(rows[8]) == 4  # (n, method) pairs
        assert rows[8] == [8 * r for r in rows[1]]

    def test_chunks(self):
        grain = MIN_CHUNK_REPLICATES
        assert _chunks(range(4), 1, 64) == [[0, 1, 2, 3]]
        # a small run stays one chunk whatever the jobs, so one worker runs it
        assert _chunks(range(4), 2, 64) == [[0, 1, 2, 3]]
        assert _chunks([0, 1, 3], 4, 64) == [[0, 1, 3]]
        assert _chunks(range(2 * grain - 1), 2, 64) == [list(range(2 * grain - 1))]
        assert _chunks([], 2, 64) == []
        # split for jobs into near-equal chunks of at least the grain
        assert [len(c) for c in _chunks(range(2 * grain), 2, 64)] == [grain, grain]
        assert [len(c) for c in _chunks(range(3 * grain + 1), 3, 64)] == [grain, grain, grain + 1]
        assert [len(c) for c in _chunks(range(3 * grain + 1), 8, 64)] == [grain, grain, grain + 1]
        # `longest` splits below the grain, as it always did
        long = _chunks(range(16), 2, 5)
        assert [i for chunk in long for i in chunk] == list(range(16))
        assert [len(chunk) for chunk in long] == [4, 4, 4, 4]
        # protocol scale: 100 replicates in the criterion-6 regimes, where a
        # chunk holds at most 27 (T0 = 200) or 109 (T0 = 50) replicates
        quarters = [list(range(k, k + 25)) for k in range(0, 100, 25)]
        for jobs in (1, 2, 4):
            assert _chunks(range(100), jobs, 27) == quarters
        assert _chunks(range(100), 2, 109) == [list(range(50)), list(range(50, 100))]
        assert _chunks(range(100), 4, 109) == quarters

    @given(n=st.integers(0, 300), jobs=st.integers(1, 12), longest=st.integers(1, 120),
           start=st.integers(0, 5), step=st.integers(1, 3))
    def test_chunks_partition_at_the_grain(self, n, jobs, longest, start, step):
        indices = list(range(start, start + n * step, step))
        chunks = _chunks(indices, jobs, longest)
        lengths = [len(chunk) for chunk in chunks]
        fewest = max(1, math.ceil(n / longest))
        assert [i for chunk in chunks for i in chunk] == indices
        assert all(1 <= length <= longest for length in lengths)
        assert len(chunks) <= max(jobs, fewest)  # no idle worker
        if len(chunks) > fewest:  # split for jobs, not for `longest`
            assert min(lengths) >= MIN_CHUNK_REPLICATES
        assert not chunks or max(lengths) - min(lengths) <= 1  # near-equal

    def test_unknown_location_rejected(self, world):
        cfg = ExperimentConfig(T0=100.0, T=200.0, n_ladder=(10,), replicates=2,
                               location_ids=(9999,))
        with pytest.raises(CatalogError, match="not in region"):
            run_experiment(world, RegionSpec(), cfg)


class TestEstimateCells:
    def test_cell_order_and_one_series_per_location(self, monkeypatch):
        world = synth_catalog(SynthWorldConfig(duration_years=200.0, seed=3))
        calls = []
        columns = CycloneCatalog.columns

        def counted(catalog, location_ids):
            calls.append(tuple(location_ids))
            return columns(catalog, location_ids)

        monkeypatch.setattr(CycloneCatalog, "columns", counted)
        cells = estimate_cells(world, 500.0, 200.0, (10, 20), ("MLE", "PWM"),
                               ("STME", "SINGLE"), (3, 1, 2))
        assert cells.keys == tuple(
            (loc, est, method, n)
            for n in (10, 20)
            for method in ("MLE", "PWM")
            for est in ("STME", "SINGLE")
            for loc in (3, 1, 2)
        )
        assert calls == [(3, 1, 2)]  # the locations' columns are taken once
        assert cells.values.shape == (1, len(cells.keys)) and not np.isnan(cells.values).any()

    def test_n_beyond_sample_fails_every_cell(self):
        world = exposure_world({1: 1.0, 2: 0.5}, [5.0 + 0.1 * k for k in range(12)])
        cells = estimate_cells(world, 500.0, 200.0, (20,), ("PWM",), ("STME", "SINGLE"), (1, 2))
        assert len(cells.keys) == 4 and np.isnan(cells.values).all()
        assert set(cells.flags[0]) == {"n=20 exceeds sample size 12"}

    def test_degenerate_stm_is_an_error(self):
        # an event whose footprint is all zero has no exposures
        world = exposure_world({1: 1.0, 2: 0.5}, [(5.0 + 0.1 * k) * (k != 3) for k in range(12)])
        with pytest.raises(CatalogError, match="event 4: degenerate STM 0.0"):
            estimate_cells(world, 500.0, 200.0, (10,), ("PWM",), ("STME",), (1, 2))

    def test_failed_fit_gives_every_stme_cell_the_reason(self):
        world = exposure_world({1: 1.0, 2: 0.5}, np.arange(1, 13) ** 6.0)
        cells = estimate_cells(world, 500.0, 200.0, (10,), ("MLE",), ("STME",), (1, 2))
        assert cell_dict(cells) == {
            (loc, "STME", "MLE", 10): (None, "tail fit failed: shape at search boundary")
            for loc in (1, 2)
        }

    @staticmethod
    @functools.cache
    def holed_world():
        """A synthetic world with a fifth of its entries missing, and location
        35 present in only three events."""
        world = synth_catalog(SynthWorldConfig(duration_years=200.0, seed=4))
        swh = world.swh.copy()
        swh[np.random.default_rng(4).uniform(size=swh.shape) < 0.2] = np.nan
        swh[3:, -1] = np.nan
        swh[np.isnan(swh).all(axis=1), 0] = 1.0
        return CycloneCatalog(world.locations, world.event_ids, swh, world.duration_years)

    @staticmethod
    @functools.cache
    def all_cells():
        world = TestEstimateCells.holed_world()
        return cell_dict(estimate_cells(world, 500.0, 200.0, (10, 40), ("MLE", "PWM"),
                                        ("STME", "SINGLE"), world.location_ids))

    @settings(max_examples=25, deadline=None)
    @given(ids=st.lists(st.integers(1, 35), min_size=1, max_size=8, unique=True))
    def test_cell_independent_of_other_locations(self, ids):
        # a cell is bit-identical whatever other locations share the call, in
        # whatever order
        cells = estimate_cells(self.holed_world(), 500.0, 200.0, (10, 40), ("MLE", "PWM"),
                               ("STME", "SINGLE"), ids)
        assert {loc for loc, *_ in cells.keys} == set(ids)
        for key, cell in cell_dict(cells).items():
            assert cell == self.all_cells()[key]

    def test_holed_world_covers_failures(self):
        cells = self.all_cells()
        assert cells[(35, "SINGLE", "PWM", 40)] == (None, "location 35: n=40 exceeds 3 values")
        assert cells[(35, "STME", "PWM", 40)] == (
            None, "location 35: no exposure data among retained events")
        assert all(cells[(1, e, "PWM", 40)][0] is not None for e in ("STME", "SINGLE"))

    @settings(max_examples=12, deadline=None)
    @given(indices=st.lists(st.integers(0, 99), min_size=1, max_size=4, unique=True),
           T0=st.sampled_from([20.0, 50.0, 150.0]), seed=st.integers(0, 2**16),
           ids=st.lists(st.integers(1, 35), min_size=1, max_size=4, unique=True))
    def test_chunk_equals_replicates_one_at_a_time(self, indices, T0, seed, ids):
        # a chunk's batched fits and inversions give each replicate what
        # sample_period and estimate_cells give it alone
        world = self.holed_world()
        cfg = ExperimentConfig(T0=T0, T=500.0, n_ladder=(5, 15, 40), replicates=2,
                               location_ids=tuple(ids), master_seed=seed)
        chunk = _run_chunk(indices, world, cfg)
        assert chunk.values.shape == (len(indices), len(chunk.keys))
        for r, i in enumerate(indices):
            sample = sample_period(world, T0, replicate_rng(seed, i))
            cells = estimate_cells(sample, 500.0, T0, cfg.n_ladder, cfg.methods,
                                   cfg.estimators, tuple(ids))
            # a replicate's row carries no at_upper_bound flag
            flags = np.where(np.isnan(cells.values), cells.flags, "")
            assert result_rows(row(chunk, r)) == result_rows(CellTable(cells.keys, cells.values,
                                                                       flags))

    def test_repeated_list_values_give_one_cell_each(self):
        world = self.holed_world()
        once = estimate_cells(world, 500.0, 200.0, (10, 20), ("MLE", "PWM"), ("STME", "SINGLE"),
                              (3, 1))
        twice = estimate_cells(world, 500.0, 200.0, (10, 20, 10), ("MLE", "PWM", "MLE"),
                               ("SINGLE", "STME", "SINGLE"), (3, 1, 3))
        assert twice.keys == once.keys == cell_keys((3, 1), (10, 20), ("MLE", "PWM"),
                                                    ("STME", "SINGLE"))
        assert len(set(once.keys)) == len(once.keys) == 16
        assert cell_dict(twice) == cell_dict(once)
        none = estimate_cells(world, 500.0, 200.0, (10,), ("MLE",), ("EMPIRICAL",), (3, 1))
        assert none.keys == () and none.values.shape == none.flags.shape == (1, 0)
        cfg = ExperimentConfig(T0=200.0, T=500.0, n_ladder=(10, 20, 10), methods=("mle", "MLE"),
                               estimators=("single", "stme", "SINGLE"))
        assert (cfg.n_ladder, cfg.methods, cfg.estimators) == ((10, 20), ("MLE",),
                                                               ("SINGLE", "STME"))

    def test_analysis_locations(self):
        world = exposure_world({1: 1.0, 2: 0.5, 3: 0.2}, [5.0 + 0.1 * k for k in range(12)])
        assert analysis_locations(world, None) == (1, 2, 3)
        assert analysis_locations(world, ()) == (1, 2, 3)
        assert analysis_locations(world, [3, 1, 3]) == (3, 1)
        with pytest.raises(CatalogError, match=r"\[7, 9\] not in region"):
            analysis_locations(world, (1, 9, 7))


class TestOneDriver:
    """run_stme and single_location_rv are views of estimate_cells, which
    builds only the blocks that the requested estimators read."""

    @settings(max_examples=20, deadline=None)
    @given(ids=st.lists(st.integers(1, 38), min_size=1, max_size=6, unique=True),
           n=st.sampled_from([5, 10, 40]), method=st.sampled_from(["MLE", "pwm"]))
    def test_run_stme_is_the_stme_cells(self, ids, n, method):
        world = TestEstimateCells.holed_world()  # locations 1-35
        known = [loc for loc in ids if loc <= 35]
        cells = estimate_cells(world, 500.0, world.duration_years, (n,), (method,), ("STME",),
                               known)
        want = [(loc, value, flag) for (loc, *_), (value, flag) in cell_dict(cells).items()
                if value is not None]
        reasons = {loc: f"location {loc} not in exposure matrix" for loc in ids}
        reasons.update((loc, None if value is not None else flag)
                       for (loc, *_), (value, flag) in cell_dict(cells).items())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                got = run_stme(world, RegionSpec(), n, 500.0, method, ids)
            except EvdError as err:
                assert not want
                assert str(err) == (
                    f"{method} STM-E: no estimate at any location ({reasons[ids[0]]})")
                return
        assert [(e.location_id, e.value, e.flag) for e in got] == want
        assert {(e.T, e.T0, e.n, e.method, e.estimator) for e in got} == {
            (500.0, world.duration_years, n, method.upper(), "STME")}
        assert [str(w.message) for w in caught] == [
            f"location {loc}: {r}" for loc, r in reasons.items() if r is not None]

    @pytest.mark.parametrize("method", ["MLE", "PWM"])
    def test_single_location_rv_is_the_single_cell(self, method):
        world = TestEstimateCells.holed_world()
        cells = cell_dict(estimate_cells(world, 500.0, 200.0, (10,), (method,), ("SINGLE",),
                                         world.location_ids))
        for loc in world.location_ids:
            cell = cells[loc, "SINGLE", method, 10]
            try:
                got = single_location_rv(location_series(world, loc), 10, 500.0, 200.0, method)
            except (CatalogError, EvdError) as err:
                assert cell == (None, str(err))
            else:
                assert cell == (got.value, got.flag)

    def test_builds_no_per_cell_object(self, monkeypatch):
        # the batched path carries cells as columns: a chunk of replicates
        # builds no fit or estimate object, and run_stme one estimate per
        # location that has a value
        built = dict.fromkeys(("GpdParams", "FitReport", "ReturnValueEstimate"), 0)

        def counting(cls):
            class Counted(cls):
                def __init__(self, *args, **kwargs):
                    built[cls.__name__] += 1
                    super().__init__(*args, **kwargs)

            return Counted

        counted = {name: counting(getattr(stme.evd, name)) for name in ("GpdParams", "FitReport")}
        counted["ReturnValueEstimate"] = counting(stme.returns.ReturnValueEstimate)
        for module in (stme.evd, stme.returns, stme.baselines, stme.experiments):
            for name, cls in counted.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, cls)
        world = TestEstimateCells.holed_world()
        cfg = ExperimentConfig(T0=50.0, T=500.0, n_ladder=(5, 15, 40), replicates=4)
        results = _run_chunk([0, 1, 2, 3], world, cfg)
        assert np.count_nonzero(~np.isnan(results.values)) > 900
        assert built == {"GpdParams": 0, "FitReport": 0, "ReturnValueEstimate": 0}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            estimates = run_stme(world, RegionSpec(), 40, 500.0, "PWM")
        assert len(estimates) == 34  # location 35 is hit by three events only
        assert built == {"GpdParams": 0, "FitReport": 0, "ReturnValueEstimate": 34}

    # a SINGLE-only request builds no STM series and no exposures; STME
    # builds the exposures of each (n, method) block's retained events only
    @pytest.mark.parametrize("estimator, stm_calls, atoms_calls, single_calls", [
        ("STME", 1, 2, 0), ("SINGLE", 0, 0, 2)])
    def test_builds_only_the_requested_blocks(self, monkeypatch, estimator, stm_calls,
                                              atoms_calls, single_calls):
        calls = {"extract_stm": 0, "exposure_atoms": 0, "single_tails": 0}

        def counted(name):
            original = getattr(stme.experiments, name)

            def count(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return count

        for name in calls:
            monkeypatch.setattr(stme.experiments, name, counted(name))
        world = TestEstimateCells.holed_world()
        cells = estimate_cells(world, 500.0, 200.0, (10,), ("MLE", "PWM"), (estimator,), (1, 2))
        assert {est for _, est, _, _ in cells.keys} == {estimator}
        assert calls == {"extract_stm": stm_calls, "exposure_atoms": atoms_calls,
                         "single_tails": single_calls}


class TestMemory:
    """What estimate_cells holds on top of the catalog, in units of its
    events x locations table: the footprints of the samples at the analysed
    locations for SINGLE, and one (n, method) block's exposures for STME."""

    @pytest.fixture(scope="class")
    def world(self):
        return synth_catalog(SynthWorldConfig(duration_years=800.0, spacing_deg=0.05, seed=11))

    @staticmethod
    def tables_above(world, estimators):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            estimate_cells(world, 500.0, 200.0, (60,), ("MLE",), estimators, world.location_ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - before) / world.swh.nbytes

    @pytest.mark.parametrize("estimators, bound", [
        (("STME",), 1.1), (("STME", "SINGLE"), 2.3)])
    def test_peak_above_the_catalog(self, world, estimators, bound):
        assert world.swh.shape == (480, 425)
        assert self.tables_above(world, estimators) <= bound


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

    @settings(max_examples=60, deadline=None)
    @given(lon_steps=st.integers(0, 12), lat_steps=st.integers(0, 12),
           jitter=st.sampled_from([0.0, 1e-12, -1e-12, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9]),
           spacing=st.floats(0.05, 1.0), years=st.floats(1.0, 100.0))
    def test_shape_is_the_table_shape(self, lon_steps, lat_steps, jitter, spacing, years):
        # spans a whole number of steps apart, give or take the 1e-9 that
        # the grid adds to its upper bounds
        lon_max, lat_max = -62.0 + lon_steps * spacing + jitter, 15.8 + lat_steps * spacing
        assume(lon_max >= -62.0)
        cfg = SynthWorldConfig(lon_max=lon_max, lat_max=lat_max, spacing_deg=spacing,
                               duration_years=years, seed=0)
        assert synth_catalog(cfg).swh.shape == cfg.shape

    @settings(max_examples=200, deadline=None)
    @given(lo=st.floats(-180.0, 180.0), span=st.floats(0.0, 50.0),
           spacing=st.floats(1e-2, 10.0))
    def test_grid_size_is_the_arange_length(self, lo, span, spacing):
        cfg = SynthWorldConfig(lon_min=lo, lon_max=lo + span, lat_min=lo, lat_max=lo,
                               spacing_deg=spacing, duration_years=1.0)
        assert cfg.shape[1] == len(np.arange(lo, lo + span + 1e-9, spacing))

    @pytest.mark.parametrize("world", [
        {"duration_years": 1e12}, {"duration_years": 1e300}, {"rate": 1e300},
        {"rate": 1e300, "duration_years": 1e300}, {"spacing_deg": 1e-6},
        {"spacing_deg": 1e-300}, {"lon_min": -1e308, "lon_max": 1e308},
    ])
    def test_oversized_world_rejected_up_front(self, world):
        # only the config is made, so the check comes before any allocation
        with pytest.raises(CatalogError, match=r"events x \S+ locations: a table of \S+ bytes"):
            SynthWorldConfig(**world)

    def test_caps_are_inclusive(self, monkeypatch):
        assert SynthWorldConfig(duration_years=100.0).shape == (60, 35)
        monkeypatch.setattr(stme.experiments, "SYNTH_MAX_BYTES", 8 * 60 * 35)
        monkeypatch.setattr(stme.experiments, "SYNTH_MAX_LOCATIONS", 35)
        SynthWorldConfig(duration_years=100.0)
        with pytest.raises(CatalogError, match="^61 events x 35 locations: a table of 17080 "):
            SynthWorldConfig(duration_years=101.0)
        with pytest.raises(CatalogError, match="^6 events x 40 locations"):
            SynthWorldConfig(duration_years=10.0, lon_max=-60.6)

    @pytest.mark.parametrize("bounds", [
        {"lon_min": 0.0, "lon_max": -1.0}, {"lat_min": 16.0, "lat_max": 15.0},
        {"lon_max": -62.0 - 1e-10},  # np.arange still gives one point here
    ])
    def test_empty_grid_rejected(self, bounds):
        with pytest.raises(CatalogError, match="empty grid"):
            SynthWorldConfig(**bounds)

    def test_one_point_grid(self):
        cat = synth_catalog(SynthWorldConfig(duration_years=10.0, lon_max=-62.0, lat_max=15.8))
        assert cat.swh.shape == (6, 1)

    def test_invalid_config(self):
        with pytest.raises(CatalogError):
            SynthWorldConfig(rate=-1.0)
        for key in ("rate", "lon_max", "intensity_shape"):
            with pytest.raises(CatalogError, match=f"{key} must be finite"):
                SynthWorldConfig(**{key: np.nan})
