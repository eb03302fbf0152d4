"""Resampling experiment harness and synthetic ground-truth worlds.

Runs the short-observation-period protocol: sample a T0-year subset of the
catalog, fit the STM tail for each sample size n on a ladder, estimate
T-year return values per location with STM-E and the single-location
competitor, and repeat over replicates. Summaries (box-whisker percentiles)
and bias/uncertainty metrics are computed against direct empirical estimates
from the full catalog. A seeded synthetic cyclone world with straight-line
tracks and GPD peak intensities provides a desk-scale ground truth.

Cells travel as columns: estimate_cells gives a CellTable, one key per
(location, estimator, method, n) cell and a row of values and flags per
sample, and an experiment is one such table with a row per replicate.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .baselines import empirical_rv, location_series, single_cells, single_tails
from .catalog import (
    CatalogError,
    CycloneCatalog,
    Location,
    RegionSpec,
    exposure_atoms,
    extract_stm,
    select_region,
    top_n_positions,
)
from .evd import METHODS, MIN_TAIL_N, GpdParams, fit_gpd_rows, gpd_quantile
from .returns import ReturnValueEstimate, stme_cells

# The estimators that fit a tail, in the order their cells come.
ESTIMATORS = ("STME", "SINGLE")

# Footprint cells (replicates x sampled events x analysed locations) that a
# chunk of replicates, the unit of work, holds at most, unless one replicate
# holds more: bounds the memory of its blocks.
CHUNK_CELLS = 1 << 16

# Replicates that a chunk holds at least when it is split off for another
# worker. On the criterion-6 world (2-vCPU Xeon) a chunk costs about 17 ms
# fixed and a pool worker about 21 ms to start cold (fork, numpy.random,
# first calls), against 2.2 (T0 = 50) to 4.0 (T0 = 200) ms per replicate:
# 10 to 17 replicates' worth. That cost ratio sets the value; no end-to-end
# run has picked it (the benchmark's 4-replicate --jobs workload gets the
# same chunks from any value of 3 up).
MIN_CHUNK_REPLICATES = 16

KM_PER_DEG_LAT = 110.57
KM_PER_DEG_LON_EQ = 111.32


def _unique(values) -> tuple:
    """`values` with repeats dropped, each kept at its first place."""
    return tuple(dict.fromkeys(values))


@dataclass(frozen=True)
class ExperimentConfig:
    T0: float
    T: float
    n_ladder: tuple[int, ...]
    replicates: int = 100
    methods: tuple[str, ...] = METHODS
    estimators: tuple[str, ...] = ESTIMATORS
    location_ids: tuple[int, ...] | None = None  # None = all region locations
    master_seed: int = 0

    def __post_init__(self):
        if not self.T > self.T0 > 0:
            raise CatalogError(f"need T > T0 > 0, got T={self.T}, T0={self.T0}")
        if self.replicates < 2:
            raise CatalogError(f"need >= 2 replicates, got {self.replicates}")
        if any(n < MIN_TAIL_N for n in self.n_ladder):
            raise CatalogError(f"every n on the ladder must be >= {MIN_TAIL_N}")
        object.__setattr__(self, "n_ladder", _unique(int(n) for n in self.n_ladder))
        if self.location_ids is not None:
            object.__setattr__(self, "location_ids", _unique(self.location_ids))
        for field, known in (("methods", METHODS), ("estimators", ESTIMATORS)):
            names = _unique(name.upper() for name in getattr(self, field))
            if set(names) - set(known):
                raise CatalogError(f"unknown {field} {sorted(set(names) - set(known))}")
            object.__setattr__(self, field, names)


# Cell key: (location_id, estimator, method, n)
CellKey = tuple[int, str, str, int]


class CellTable(NamedTuple):
    """The cells of one or more samples: column c of `values` (samples x
    cells, NaN where a cell has no value) and of `flags` (the reason a cell
    has no value, "at_upper_bound" or "") belongs to keys[c]."""

    keys: tuple[CellKey, ...]
    values: np.ndarray
    flags: np.ndarray  # str objects


def cell_keys(location_ids, n_ladder, methods, estimators) -> tuple[CellKey, ...]:
    """The cells of an estimation in order: ladder, method, STME before SINGLE,
    location. A value repeated in a list gives one cell, at its first place."""
    return tuple((loc, e, method, n)
                 for n, method in itertools.product(_unique(n_ladder), _unique(methods))
                 for e in ESTIMATORS if e in estimators for loc in _unique(location_ids))


def stack_cells(tables) -> CellTable:
    """The rows of cell tables that share their keys, in order, as one table."""
    keys, values, flags = zip(*tables)
    return CellTable(keys[0], np.concatenate(values), np.concatenate(flags))


def replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    """Child generator for one replicate; independent of execution order."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(index)]))


def period_size(catalog: CycloneCatalog, T0: float) -> int:
    """Events in a T0-year observation period of the catalog: round(n0 * T0 / T_L)."""
    if T0 > catalog.duration_years:
        raise CatalogError(f"T0={T0} exceeds catalog duration {catalog.duration_years}")
    return int(round(len(catalog.event_ids) * T0 / catalog.duration_years))


def period_rows(catalog: CycloneCatalog, T0: float, rng: np.random.Generator) -> np.ndarray:
    """Rows of a random T0-year observation period: period_size of the
    catalog's n0 events, drawn uniformly without replacement, ascending; all
    rows, with no draw, when that is every event."""
    n0, m = len(catalog.event_ids), period_size(catalog, T0)
    return np.arange(n0) if m == n0 else np.sort(rng.choice(n0, size=m, replace=False))


def sample_period(
    catalog: CycloneCatalog, T0: float, rng: np.random.Generator
) -> CycloneCatalog:
    """Random T0-year observation period: the catalog at period_rows, with
    duration T0."""
    rows = period_rows(catalog, T0, rng)
    return CycloneCatalog(
        locations=catalog.locations, event_ids=catalog.event_ids[rows], swh=catalog.swh[rows],
        duration_years=float(T0),
    )


def analysis_locations(regional: CycloneCatalog, location_ids) -> tuple[int, ...]:
    """The analysed location ids: all of the region's when `location_ids` is
    empty or None, else those ids, each of which must be in the region."""
    if not location_ids:
        return regional.location_ids
    missing = set(location_ids) - set(regional.location_ids)
    if missing:
        raise CatalogError(f"locations {sorted(missing)} not in region")
    return _unique(location_ids)


def estimate_cells(
    catalog: CycloneCatalog, T: float, T0: float, n_ladder: Sequence[int],
    methods: Sequence[str], estimators: Sequence[str], location_ids: Sequence[int],
    samples: np.ndarray | None = None,
) -> CellTable:
    """Every (location, estimator, method, n) cell of each sample of a T0-year
    catalog, a row of ascending row positions in `samples` (by default one
    sample of every row): its T-year estimate, or NaN and the reason there is
    none. For each (n, method) the tails of every sample go to one fit and
    one inversion; only the blocks the requested estimators read are built.
    Besides the catalog, this holds at most the footprints of the samples at
    the analysed locations, which the single-location tails are sorted in,
    and one (n, method) block's exposures at its retained events."""
    if samples is None:
        samples = np.arange(len(catalog.event_ids))[None]
    location_ids, n_ladder, methods = map(_unique, (location_ids, n_ladder, methods))
    columns = catalog.columns(location_ids)
    (n_samples, m), n_loc = samples.shape, len(location_ids)
    stme, single = "STME" in estimators, "SINGLE" in estimators
    keys = cell_keys(location_ids, n_ladder, methods, estimators)
    if not keys:  # no estimator that fits a tail was requested, or an empty list
        return CellTable(keys, np.empty((n_samples, 0)), np.empty((n_samples, 0), dtype=object))
    if stme:
        stm = extract_stm(catalog)
    if single:
        # a column per (sample, location), sample-major
        block = catalog.swh[samples.T[:, :, None], columns].reshape(m, -1)
        block_ids = list(location_ids) * n_samples
    # a samples x locations slab per (n, method) block and estimator, STME first
    shape = (n_samples, len(n_ladder) * len(methods), stme + single, n_loc)
    values, flags = np.full(shape, np.nan), np.full(shape, "", dtype=object)
    for b, (n, method) in enumerate(itertools.product(n_ladder, methods)):
        if n > m:
            flags[:, b] = f"n={n} exceeds sample size {m}"
            continue
        tails = []  # the (tail rows, thresholds) of each estimator
        if stme:  # each sample's n largest STM values, in event order
            keep, psi = top_n_positions(stm.values[samples], stm.event_ids[samples], n)
            events = np.take_along_axis(samples, keep, axis=1)
            tails.append((stm.values[events], psi))
        if single:
            reason, *tail = single_tails(block, block_ids, n)
            tails.append(tail)
        fits = fit_gpd_rows(*(np.concatenate(part) for part in zip(*tails)), method)
        if stme:
            atoms = exposure_atoms(catalog, stm, events.T, columns)
            found = stme_cells(fits.take(slice(n_samples)), atoms, location_ids, T, T0, n)
            values[:, b, 0], flags[:, b, 0] = (a.reshape(n_samples, n_loc) for a in found)
        if single:
            found = single_cells(reason, fits.take(slice(stme * n_samples, None)), block_ids, T,
                                 T0, n, method)
            values[:, b, -1], flags[:, b, -1] = (a.reshape(n_samples, n_loc) for a in found)
    return CellTable(keys, values.reshape(n_samples, len(keys)),
                     flags.reshape(n_samples, len(keys)))


def empirical_estimates(
    catalog: CycloneCatalog, T: float, location_ids: Sequence[int]
) -> dict[int, ReturnValueEstimate | str]:
    """The direct empirical T-year estimate at each location from the whole
    catalog, or the reason there is none. Raises CatalogError when the
    catalog does not span T years."""
    T_L = catalog.duration_years
    if not T_L > T > 0:
        raise CatalogError(f"need T_L > T > 0, got T_L={T_L}, T={T}")
    found: dict[int, ReturnValueEstimate | str] = {}
    for loc in location_ids:
        try:
            found[loc] = empirical_rv(location_series(catalog, loc), T=T, T_L=T_L)
        except CatalogError as err:
            found[loc] = str(err)
    return found


def _run_chunk(indices: Sequence[int], regional: CycloneCatalog,
               config: ExperimentConfig) -> CellTable:
    """The cell table of the replicates at `indices`, a row each, estimated
    together; no row depends on the others, and no valued cell has a flag."""
    samples = np.array([period_rows(regional, config.T0, replicate_rng(config.master_seed, i))
                        for i in indices])
    keys, values, flags = estimate_cells(
        regional, config.T, config.T0, config.n_ladder, config.methods, config.estimators,
        analysis_locations(regional, config.location_ids), samples)
    return CellTable(keys, values, np.where(np.isnan(values), flags, ""))


def _run_replicate(index: int, regional: CycloneCatalog, config: ExperimentConfig) -> CellTable:
    return _run_chunk([index], regional, config)


def _chunks(indices: Sequence[int], jobs: int, longest: int) -> list[list[int]]:
    """`indices` in contiguous chunks of near-equal length, none longer than
    `longest`: as few as that allows, or up to `jobs` if each then holds at
    least MIN_CHUNK_REPLICATES."""
    indices = list(indices)
    n = len(indices)
    count = max(math.ceil(n / longest), min(jobs, n // MIN_CHUNK_REPLICATES))
    return [indices[n * k // count : n * (k + 1) // count] for k in range(count)]


def run_replicates(
    regional: CycloneCatalog,
    config: ExperimentConfig,
    indices: Sequence[int],
    jobs: int = 1,
) -> Iterator[tuple[list[int], CellTable]]:
    """Run the replicates at `indices` on a region catalog a chunk at a time,
    yielding each chunk's indices and cell table, a row per index, once it
    and every earlier chunk are done. The location ids and the period's
    event count are checked before this returns; rows do not depend on `jobs`."""
    locations = analysis_locations(regional, config.location_ids)
    size = period_size(regional, config.T0)
    if not size:
        raise CatalogError(f"T0={config.T0} samples 0 of {len(regional.event_ids)} events")
    chunks = _chunks(indices, jobs, max(1, CHUNK_CELLS // (size * len(locations))))
    tables = (_pooled_chunks(regional, config, chunks, jobs) if jobs > 1 and chunks
              else (_run_chunk(chunk, regional, config) for chunk in chunks))
    return zip(chunks, tables)


# The region catalog and config of this worker process, set once by the
# pool initializer so that each task sends only its replicate indices.
_worker_args: tuple[CycloneCatalog, ExperimentConfig] | None = None


def _init_worker(regional: CycloneCatalog, config: ExperimentConfig):
    global _worker_args
    _worker_args = (regional, config)


def _worker_chunk(indices: list[int]) -> CellTable:
    return _run_chunk(indices, *_worker_args)


def _pooled_chunks(regional, config, chunks, jobs) -> Iterator[CellTable]:
    # a generator, so that run_replicates checks its arguments when called;
    # a worker per chunk at most, since the pool starts all at the first task
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(chunks)), initializer=_init_worker, initargs=(regional, config)
    ) as pool:
        yield from pool.map(_worker_chunk, chunks)


def run_experiment(
    catalog: CycloneCatalog,
    region: RegionSpec,
    config: ExperimentConfig,
    jobs: int = 1,
) -> CellTable:
    """Run the full replicate grid: a replicates x cells table that depends
    only on (catalog, region, config), not on the number of workers."""
    regional = select_region(catalog, region)
    return stack_cells(table for _, table in run_replicates(regional, config,
                                                            range(config.replicates), jobs))


@dataclass(frozen=True)
class CellStats:
    count: int
    mean: float
    median: float
    q25: float
    q75: float
    q025: float
    q975: float
    outliers: tuple[float, ...]

    def __post_init__(self):
        if not self.q025 <= self.q25 <= self.median <= self.q75 <= self.q975:
            raise CatalogError("percentile ordering violated")

    @property
    def w50(self) -> float:
        return self.q75 - self.q25


@dataclass(frozen=True)
class SummaryStats:
    cells: dict[CellKey, CellStats]


_BOX_QUANTILES = np.array([2.5, 25.0, 50.0, 75.0, 97.5]) / 100


def _box_percentiles(rows: np.ndarray) -> np.ndarray:
    """np.percentile(rows, [2.5, 25, 50, 75, 97.5], axis=1) of rows of two or
    more values, by numpy's linear rule and arithmetic, bit for bit, but
    without np.percentile's call of np.unique, which imports numpy.ma."""
    ordered = np.sort(rows, axis=1)
    virtual = (rows.shape[1] - 1) * _BOX_QUANTILES
    below = np.floor(virtual)
    gamma, lo = virtual - below, below.astype(int)
    a, b = ordered[:, lo], ordered[:, lo + 1]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma).T


def summarize(table: CellTable) -> SummaryStats:
    """Box-whisker summary of each cell with at least two estimates over the
    rows of an experiment's cell table, a row per replicate; percentiles by
    linear interpolation of order statistics, outliers outside the 2.5-97.5%
    whiskers. Cells with equal counts are summarised together, a row each;
    the cells come in the order in which they first have a value, replicate
    by replicate."""
    keys, values = table.keys, table.values.T  # cells x replicates
    valued = ~np.isnan(values)
    counts = valued.sum(axis=1)
    order = np.argsort(valued.argmax(axis=1), kind="stable")
    order = order[counts[order] >= 2]
    cells = dict.fromkeys(keys[c] for c in order.tolist())
    for count in dict.fromkeys(counts[order].tolist()):
        group = order[counts[order] == count]
        arr = values[group][valued[group]].reshape(len(group), count)
        q = _box_percentiles(arr)
        outside = (arr < q[0][:, None]) | (arr > q[4][:, None])
        for c, row, mean, out, (q025, q25, q50, q75, q975) in zip(
                group.tolist(), arr, arr.mean(axis=1).tolist(), outside, q.T.tolist()):
            cells[keys[c]] = CellStats(
                count=count, mean=mean, median=q50, q25=q25, q75=q75, q025=q025, q975=q975,
                outliers=tuple(row[out].tolist()),
            )
    return SummaryStats(cells=cells)


@dataclass(frozen=True)
class PerformanceMetrics:
    estimator: str
    method: str
    n: int
    bias_mean: float  # mean over locations of (mean estimate - empirical)
    bias_median: float  # mean over locations of (median estimate - empirical)
    w50: float  # mean 50% interval width (metres)
    width_ratio_u: float  # mean(width / competitor width - 1); NaN if no competitor
    n_locations: int


def performance_metrics(
    summary: SummaryStats, empirical: list[ReturnValueEstimate]
) -> list[PerformanceMetrics]:
    """Bias and uncertainty per (estimator, method, n) averaged over the
    locations covered by the empirical estimates. The width ratio uses the
    competing estimator's 50% interval at the same (method, n) as reference.
    A row without a summary at one of those locations is left out with a
    warning."""
    emp = {e.location_id: e.value for e in empirical}
    groups: dict[tuple[str, str, int], list[tuple[int, CellStats]]] = {}
    for (loc, estimator, method, n), cell in summary.cells.items():
        if loc in emp:
            groups.setdefault((estimator, method, n), []).append((loc, cell))
    for key, cells in list(groups.items()):
        miss = set(emp) - {loc for loc, _ in cells}
        if miss:
            warnings.warn(f"cell {key}: no summary at locations {sorted(miss)}", stacklevel=2)
            del groups[key]
    other = {"STME": "SINGLE", "SINGLE": "STME"}
    metrics = []
    for (estimator, method, n), cells in sorted(groups.items()):
        bias_mean = float(np.mean([c.mean - emp[loc] for loc, c in cells]))
        bias_median = float(np.mean([c.median - emp[loc] for loc, c in cells]))
        w50 = float(np.mean([c.w50 for loc, c in cells]))
        ratios = []
        for loc, c in cells:
            ref = summary.cells.get((loc, other.get(estimator, ""), method, n))
            if ref is not None and ref.w50 > 0:
                ratios.append(c.w50 / ref.w50 - 1.0)
        u = float(np.mean(ratios)) if ratios else math.nan
        metrics.append(
            PerformanceMetrics(
                estimator=estimator, method=method, n=n, bias_mean=bias_mean,
                bias_median=bias_median, w50=w50, width_ratio_u=u,
                n_locations=len(cells),
            )
        )
    return metrics


# synth_catalog holds the world's events x locations table of float64
# footprints, and a Python Location object per grid point: at most 1 GiB of
# the one and 2**20 of the other.
SYNTH_MAX_BYTES = 1 << 30
SYNTH_MAX_LOCATIONS = 1 << 20


@dataclass(frozen=True)
class SynthWorldConfig:
    """Synthetic cyclone world: straight-line tracks crossing a lon/lat grid,
    GPD peak intensities, exponential footprint decay away from the track and
    multiplicative lognormal noise."""

    lon_min: float = -62.0
    lon_max: float = -60.8
    lat_min: float = 15.8
    lat_max: float = 16.6
    spacing_deg: float = 0.2
    rate: float = 0.6  # events per year
    duration_years: float = 3200.0
    direction_mean_deg: float = 315.0  # track heading, degrees clockwise from north
    direction_sd_deg: float = 20.0
    intensity_threshold: float = 5.0  # GPD location of peak SWH (m)
    intensity_scale: float = 2.0
    intensity_shape: float = 0.1
    decay_km: float = 80.0
    noise_sigma_log: float = 0.1
    poisson_counts: bool = False
    seed: int = 0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise CatalogError(f"{name} must be finite, got {value}")
        if self.rate <= 0 or self.decay_km <= 0 or self.intensity_scale <= 0:
            raise CatalogError("rate, decay_km and intensity_scale must be positive")
        if self.duration_years <= 0 or self.spacing_deg <= 0:
            raise CatalogError("duration_years and spacing_deg must be positive")
        if self.noise_sigma_log < 0:
            raise CatalogError("noise_sigma_log must be >= 0")
        if self.lon_min > self.lon_max or self.lat_min > self.lat_max:
            raise CatalogError(f"empty grid: lon {self.lon_min}..{self.lon_max}, "
                               f"lat {self.lat_min}..{self.lat_max}")
        events, locations = self.shape
        if 8 * events * locations > SYNTH_MAX_BYTES or locations > SYNTH_MAX_LOCATIONS:
            raise CatalogError(
                f"{events:.6g} events x {locations:.6g} locations: a table of "
                f"{8 * events * locations:.6g} bytes (caps {SYNTH_MAX_BYTES} bytes and "
                f"{SYNTH_MAX_LOCATIONS} locations)")

    @property
    def shape(self) -> tuple[float, float]:
        """The events (the rounded mean count with poisson_counts) x grid
        locations of the world, as whole floats that overflow to inf."""
        lons, lats = (float(np.ceil((hi + 1e-9 - lo) / self.spacing_deg))  # len(np.arange)
                      for lo, hi in ((self.lon_min, self.lon_max), (self.lat_min, self.lat_max)))
        return float(np.rint(self.rate * self.duration_years)), lons * lats


def _grid_locations(config: SynthWorldConfig) -> list[Location]:
    lons = np.arange(config.lon_min, config.lon_max + 1e-9, config.spacing_deg)
    lats = np.arange(config.lat_min, config.lat_max + 1e-9, config.spacing_deg)
    grid = [(lon, lat) for lat in lats for lon in lons]
    return [
        Location(id=k, lon=float(lon), lat=float(lat), depth=100.0 + 50.0 * (k - 1))
        for k, (lon, lat) in enumerate(grid, start=1)
    ]


def synth_catalog(config: SynthWorldConfig) -> CycloneCatalog:
    """Generate a reproducible synthetic catalog from the world config.

    Each event draws a track heading, a uniformly placed track anchor and a
    GPD peak intensity; the footprint at a location is
    peak * exp(-distance_to_track / decay_km) * lognormal noise.
    """
    rng = np.random.default_rng(config.seed)
    locations = _grid_locations(config)
    lon_c = 0.5 * (config.lon_min + config.lon_max)
    lat_c = 0.5 * (config.lat_min + config.lat_max)
    km_per_deg_lon = KM_PER_DEG_LON_EQ * math.cos(math.radians(lat_c))
    xy = np.array(
        [
            [(loc.lon - lon_c) * km_per_deg_lon, (loc.lat - lat_c) * KM_PER_DEG_LAT]
            for loc in locations
        ]
    )
    half_x = 0.65 * (config.lon_max - config.lon_min) * km_per_deg_lon
    half_y = 0.65 * (config.lat_max - config.lat_min) * KM_PER_DEG_LAT
    mean_count = config.rate * config.duration_years
    n_events = int(rng.poisson(mean_count)) if config.poisson_counts else int(config.shape[0])
    if n_events == 0:
        raise CatalogError(f"0 events in {config.duration_years:g} years at rate {config.rate:g} "
                           "a year: the world is empty")
    intensity_dist = GpdParams(
        threshold=config.intensity_threshold,
        scale=config.intensity_scale,
        shape=config.intensity_shape,
    )
    swh = np.empty((n_events, len(locations)))
    for row in swh:
        heading = math.radians(
            config.direction_mean_deg + config.direction_sd_deg * rng.standard_normal()
        )
        # compass heading -> unit vector in (east, north) km coordinates
        unit = np.array([math.sin(heading), math.cos(heading)])
        anchor = np.array(
            [rng.uniform(-half_x, half_x), rng.uniform(-half_y, half_y)]
        )
        peak = float(gpd_quantile(intensity_dist, rng.uniform()))
        rel = xy - anchor
        dist = np.abs(rel[:, 0] * unit[1] - rel[:, 1] * unit[0])
        factor = np.exp(-dist / config.decay_km)
        if config.noise_sigma_log > 0:
            factor = factor * np.exp(config.noise_sigma_log * rng.standard_normal(len(locations)))
        row[:] = peak * factor
    return CycloneCatalog(
        locations=tuple(locations), event_ids=np.arange(1, n_events + 1), swh=swh,
        duration_years=config.duration_years,
    )
