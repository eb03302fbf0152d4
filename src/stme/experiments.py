"""Resampling experiment harness and synthetic ground-truth worlds.

Runs the short-observation-period protocol: sample a T0-year subset of the
catalog, fit the STM tail for each sample size n on a ladder, estimate
T-year return values per location with STM-E and the single-location
competitor, and repeat over replicates. Summaries (box-whisker percentiles)
and bias/uncertainty metrics are computed against direct empirical estimates
from the full catalog. A seeded synthetic cyclone world with straight-line
tracks and GPD peak intensities provides a desk-scale ground truth.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .baselines import LocationSeries, location_series, single_location_rvs
from .catalog import (
    CatalogError,
    CycloneCatalog,
    Location,
    RegionSpec,
    extract_exposures,
    extract_stm,
    select_region,
)
from .evd import GpdParams, gpd_quantile
from .returns import ReturnValueEstimate, stme_return_values

KM_PER_DEG_LAT = 110.57
KM_PER_DEG_LON_EQ = 111.32


@dataclass(frozen=True)
class ExperimentConfig:
    T0: float
    T: float
    n_ladder: tuple[int, ...]
    replicates: int = 100
    methods: tuple[str, ...] = ("MLE", "PWM")
    estimators: tuple[str, ...] = ("STME", "SINGLE")
    location_ids: tuple[int, ...] | None = None  # None = all region locations
    master_seed: int = 0

    def __post_init__(self):
        if not self.T > self.T0 > 0:
            raise CatalogError(f"need T > T0 > 0, got T={self.T}, T0={self.T0}")
        if self.replicates < 2:
            raise CatalogError(f"need >= 2 replicates, got {self.replicates}")
        if any(n < 5 for n in self.n_ladder):
            raise CatalogError("every n on the ladder must be >= 5")
        bad = set(m.upper() for m in self.methods) - {"MLE", "PWM"}
        if bad:
            raise CatalogError(f"unknown methods {sorted(bad)}")
        bad = set(e.upper() for e in self.estimators) - {"STME", "SINGLE"}
        if bad:
            raise CatalogError(f"unknown estimators {sorted(bad)}")
        object.__setattr__(self, "n_ladder", tuple(int(n) for n in self.n_ladder))
        object.__setattr__(self, "methods", tuple(m.upper() for m in self.methods))
        object.__setattr__(self, "estimators", tuple(e.upper() for e in self.estimators))


# Cell key: (location_id, estimator, method, n)
CellKey = tuple[int, str, str, int]


@dataclass(frozen=True)
class ReplicateResult:
    index: int
    estimates: dict[CellKey, float]
    failures: dict[CellKey, str]


def replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    """Child generator for one replicate; independent of execution order."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(index)]))


def sample_period(
    catalog: CycloneCatalog, T0: float, rng: np.random.Generator
) -> CycloneCatalog:
    """Random T0-year observation period: round(n0 * T0 / T_L) events drawn
    uniformly without replacement; the result's duration is T0."""
    if T0 > catalog.duration_years:
        raise CatalogError(f"T0={T0} exceeds catalog duration {catalog.duration_years}")
    n0 = len(catalog.event_ids)
    m = int(round(n0 * T0 / catalog.duration_years))
    if m == n0:
        return replace(catalog, duration_years=float(T0))
    idx = np.sort(rng.choice(n0, size=m, replace=False))
    return CycloneCatalog(
        locations=catalog.locations, event_ids=catalog.event_ids[idx], swh=catalog.swh[idx],
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
    return tuple(dict.fromkeys(location_ids))


def estimate_cells(
    catalog: CycloneCatalog,
    T: float,
    T0: float,
    n_ladder: Sequence[int],
    methods: Sequence[str],
    estimators: Sequence[str],
    location_ids: Sequence[int],
) -> dict[CellKey, ReturnValueEstimate | str]:
    """Every (location, estimator, method, n) cell of a T0-year catalog,
    mapped to its T-year estimate or to the reason there is none. Cells come
    in ladder, then method order; STME before SINGLE, locations innermost."""
    stm = extract_stm(catalog)
    exposures = extract_exposures(catalog, stm)
    series: dict[int, LocationSeries | str] = {}
    if "SINGLE" in estimators:
        for loc in location_ids:
            try:
                series[loc] = location_series(catalog, loc)
            except CatalogError as err:
                series[loc] = str(err)
    cells: dict[CellKey, ReturnValueEstimate | str] = {}
    for n in n_ladder:
        short = f"n={n} exceeds sample size {len(stm)}" if n > len(stm) else ""
        for method in methods:
            if "STME" in estimators:
                found = (
                    dict.fromkeys(location_ids, short) if short
                    else stme_return_values(stm, exposures, n, T, T0, method, location_ids)
                )
                cells.update(((loc, "STME", method, n), r) for loc, r in found.items())
            if "SINGLE" in estimators:
                found = dict.fromkeys(location_ids, short) if short else _single(
                    series, n, T, T0, method
                )
                cells.update(((loc, "SINGLE", method, n), r) for loc, r in found.items())
    return cells


def _single(series: dict[int, LocationSeries | str], n, T, T0, method):
    """SINGLE estimate or reason at each location, with one batched fit."""
    found: dict[int, ReturnValueEstimate | str] = dict(series)
    fitted = [loc for loc, s in series.items() if not isinstance(s, str)]
    estimates = single_location_rvs([series[loc] for loc in fitted], n, T, T0, method)
    for loc, result in zip(fitted, estimates):
        found[loc] = str(result) if isinstance(result, Exception) else result
    return found


def _run_replicate(
    index: int, regional: CycloneCatalog, config: ExperimentConfig
) -> ReplicateResult:
    sample = sample_period(regional, config.T0, replicate_rng(config.master_seed, index))
    cells = estimate_cells(
        sample, config.T, config.T0, config.n_ladder, config.methods, config.estimators,
        analysis_locations(sample, config.location_ids),
    )
    return ReplicateResult(
        index=index,
        estimates={k: r.value for k, r in cells.items() if not isinstance(r, str)},
        failures={k: r for k, r in cells.items() if isinstance(r, str)},
    )


def run_replicates(
    regional: CycloneCatalog,
    config: ExperimentConfig,
    indices: Sequence[int],
    jobs: int = 1,
) -> Iterator[ReplicateResult]:
    """Run the replicates at `indices` on a region catalog, yielding each result
    in index order as soon as it and every earlier one are done. The location
    ids are checked before this returns; results do not depend on `jobs`."""
    analysis_locations(regional, config.location_ids)
    if jobs > 1 and indices:
        return _pooled_replicates(regional, config, indices, jobs)
    return (_run_replicate(i, regional, config) for i in indices)


# The region catalog and config of this worker process, set once by the
# pool initializer so that each task sends only its replicate index.
_worker_args: tuple[CycloneCatalog, ExperimentConfig] | None = None


def _init_worker(regional: CycloneCatalog, config: ExperimentConfig):
    global _worker_args
    _worker_args = (regional, config)


def _worker_replicate(index: int) -> ReplicateResult:
    return _run_replicate(index, *_worker_args)


def _pooled_replicates(regional, config, indices, jobs) -> Iterator[ReplicateResult]:
    # a generator of its own, so that run_replicates checks its arguments
    # when called rather than at the first result
    with ProcessPoolExecutor(
        max_workers=jobs, initializer=_init_worker, initargs=(regional, config)
    ) as pool:
        yield from pool.map(_worker_replicate, indices)


def run_experiment(
    catalog: CycloneCatalog,
    region: RegionSpec,
    config: ExperimentConfig,
    jobs: int = 1,
) -> list[ReplicateResult]:
    """Run the full replicate grid; results depend only on (catalog, region,
    config), not on the number of workers."""
    regional = select_region(catalog, region)
    return list(run_replicates(regional, config, range(config.replicates), jobs))


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
    empty_cells: tuple[CellKey, ...] = ()


def summarize(results: list[ReplicateResult]) -> SummaryStats:
    """Box-whisker summary per cell; percentiles by linear interpolation of
    order statistics, outliers outside the 2.5-97.5% whiskers."""
    pooled: dict[CellKey, list[float]] = {}
    seen: set[CellKey] = set()
    for rep in results:
        for key, value in rep.estimates.items():
            pooled.setdefault(key, []).append(value)
        seen.update(rep.failures)
    cells = {}
    empty = [k for k in seen if k not in pooled]
    for key, values in pooled.items():
        if len(values) < 2:
            empty.append(key)
            continue
        arr = np.asarray(values)
        q025, q25, q50, q75, q975 = np.percentile(arr, [2.5, 25.0, 50.0, 75.0, 97.5])
        outliers = tuple(float(v) for v in arr[(arr < q025) | (arr > q975)])
        cells[key] = CellStats(
            count=len(values), mean=float(arr.mean()), median=float(q50),
            q25=float(q25), q75=float(q75), q025=float(q025), q975=float(q975),
            outliers=outliers,
        )
    return SummaryStats(cells=cells, empty_cells=tuple(sorted(empty)))


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
        if self.rate <= 0 or self.decay_km <= 0 or self.intensity_scale <= 0:
            raise CatalogError("rate, decay_km and intensity_scale must be positive")
        if self.duration_years <= 0 or self.spacing_deg <= 0:
            raise CatalogError("duration_years and spacing_deg must be positive")
        if self.noise_sigma_log < 0:
            raise CatalogError("noise_sigma_log must be >= 0")


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
    n_events = int(rng.poisson(mean_count)) if config.poisson_counts else int(round(mean_count))
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
