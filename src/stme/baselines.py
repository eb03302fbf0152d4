"""Competitor return-value estimators: single-location peaks-over-threshold
analysis and the direct empirical estimate from a long catalog."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import CatalogError, CycloneCatalog, threshold_for_top_n
from .evd import EvdError, fit_gpd_rows, gpd_quantile
from .returns import ReturnValueEstimate, target_probability


@dataclass(frozen=True)
class LocationSeries:
    """Per-event maximum SWH at one location (events without data excluded)."""

    location_id: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise CatalogError(f"location {self.location_id}: invalid SWH values")

    def __len__(self) -> int:
        return len(self.values)


def location_series(catalog: CycloneCatalog, location_id: int) -> LocationSeries:
    """Collect the per-event footprint values at one location."""
    loc_ids = catalog.location_ids
    if location_id not in loc_ids:
        raise CatalogError(f"unknown location id {location_id}")
    column = catalog.swh[:, loc_ids.index(location_id)]
    values = column[~np.isnan(column)]
    if not values.size:
        raise CatalogError(f"location {location_id}: no footprint data")
    return LocationSeries(location_id=int(location_id), values=values)


def single_location_rvs(
    series, n: int, T: float, T0: float, method: str = "MLE"
) -> list[ReturnValueEstimate | CatalogError | EvdError]:
    """Conventional single-location POT analysis at each of `series`: a GPD
    fit to the location's own n largest values, all locations in one batched
    fit, and the quantile at p* = 1 - (T0/n)/T. A location without a value
    maps to the error saying why."""
    if n < 5:
        return [CatalogError(f"n={n} too small for a tail fit")] * len(series)
    results: list[ReturnValueEstimate | CatalogError | EvdError | None] = [
        CatalogError(f"location {s.location_id}: n={n} exceeds {len(s)} values")
        if len(s) < n else None
        for s in series
    ]
    fitted = [i for i, r in enumerate(results) if r is None]
    tails = np.array([np.sort(series[i].values)[::-1][:n] for i in fitted]).reshape(-1, n)
    thresholds = [threshold_for_top_n(series[i].values, n) for i in fitted]
    try:
        p_target = target_probability(T, T0, n)
    except CatalogError as err:
        p_target = err
    for i, report in zip(fitted, fit_gpd_rows(tails, thresholds, method)):
        location = series[i].location_id
        if isinstance(report, EvdError):
            results[i] = report
        elif not report.converged:
            results[i] = EvdError(f"location {location}: {method} fit failed: {report.message}")
        elif isinstance(p_target, CatalogError):
            results[i] = p_target
        else:
            results[i] = ReturnValueEstimate(
                location_id=location, T=float(T), T0=float(T0), n=int(n),
                value=float(gpd_quantile(report.params, p_target)),
                method=method.upper(), estimator="SINGLE",
            )
    return results


def single_location_rv(
    series: LocationSeries, n: int, T: float, T0: float, method: str = "MLE"
) -> ReturnValueEstimate:
    """Single-location return value at one location; see single_location_rvs."""
    (result,) = single_location_rvs([series], n, T, T0, method)
    if isinstance(result, Exception):
        raise result
    return result


def empirical_rv(series: LocationSeries, T: float, T_L: float) -> ReturnValueEstimate:
    """Direct empirical T-year value from a catalog spanning T_L > T years.

    The expected number of exceedances in the catalog is k = T_L / T, so the
    estimate interpolates linearly between the floor(k)-th and ceil(k)-th
    largest values at fraction k - floor(k).
    """
    if not T_L > T > 0:
        raise CatalogError(f"need T_L > T > 0, got T_L={T_L}, T={T}")
    k = T_L / T
    if len(series) <= math.ceil(k):
        raise CatalogError(
            f"location {series.location_id}: series too short ({len(series)} <= ceil({k}))"
        )
    desc = np.sort(series.values)[::-1]
    lo_rank = math.floor(k)
    f = k - lo_rank
    value = (1.0 - f) * desc[lo_rank - 1] + f * desc[math.ceil(k) - 1]
    return ReturnValueEstimate(
        location_id=series.location_id, T=float(T), T0=float(T_L), n=len(series),
        value=float(value), method="", estimator="EMPIRICAL",
    )
