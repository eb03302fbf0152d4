"""Competitor return-value estimators: single-location peaks-over-threshold
analysis and the direct empirical estimate from a long catalog."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import CatalogError, CycloneCatalog, tail_thresholds
from .evd import EvdError, fit_tails, gpd_quantile_rows, params_arrays
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
    column = catalog.swh[:, catalog.columns([location_id])[0]]
    values = column[~np.isnan(column)]
    if not values.size:
        raise CatalogError(f"location {location_id}: no footprint data")
    return LocationSeries(location_id=int(location_id), values=values)


def single_tails(
    samples: np.ndarray, location_ids, n: int, T: float, T0: float, method: str = "MLE"
):
    """Single-location POT analysis at each column of the events x locations
    block `samples` (NaN: no value), column k belonging to location_ids[k],
    split around its tail fit for fit_tails: the n largest values of each
    column that has them, descending, their thresholds, and the finish that
    gives each column its quantile at p* = 1 - (T0/n)/T or the error saying
    why it has none."""
    samples = np.asarray(samples, dtype=float)
    counts = np.count_nonzero(~np.isnan(samples), axis=0).tolist()
    results: list[ReturnValueEstimate | CatalogError | EvdError | None] = [
        CatalogError(f"location {loc}: no footprint data") if not count
        else CatalogError(f"n={n} too small for a tail fit") if n < 5
        else CatalogError(f"location {loc}: n={n} exceeds {count} values") if count < n
        else None
        for loc, count in zip(location_ids, counts)
    ]
    fitted = [k for k, r in enumerate(results) if r is None]
    desc = samples.T[fitted]  # a location per row, negated in place to sort NaN last
    desc *= -1
    desc.sort(axis=1)
    desc *= -1

    def finish(reports):
        try:
            p_target = target_probability(T, T0, n)
        except CatalogError as err:
            p_target = err
        good = []  # (column, fit) of each converged fit
        for k, report in zip(fitted, reports):
            if isinstance(report, EvdError):
                results[k] = report
            elif not report.converged:
                results[k] = EvdError(
                    f"location {location_ids[k]}: {method} fit failed: {report.message}")
            elif isinstance(p_target, CatalogError):
                results[k] = p_target
            else:
                good.append((k, report.params))
        values = gpd_quantile_rows(*params_arrays([fit for _, fit in good]), np.array([[
            p_target]]))[:, 0].tolist() if good else []
        for (k, _), value in zip(good, values):
            results[k] = ReturnValueEstimate(
                location_id=location_ids[k], T=float(T), T0=float(T0), n=int(n), value=value,
                method=method.upper(), estimator="SINGLE")
        return results

    if not fitted:
        return np.empty((0, n)), np.empty(0), finish
    return desc[:, :n], tail_thresholds(desc, n), finish


def single_location_rv(
    series: LocationSeries, n: int, T: float, T0: float, method: str = "MLE"
) -> ReturnValueEstimate:
    """Single-location return value at one location; see single_tails."""
    ((result,),) = fit_tails(method, single_tails(series.values[:, None], [series.location_id],
                                                  n, T, T0, method))
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
