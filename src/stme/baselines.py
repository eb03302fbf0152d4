"""Competitor return-value estimators: single-location peaks-over-threshold
analysis and the direct empirical estimate from a long catalog."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import CatalogError, CycloneCatalog, tail_thresholds
from .evd import MIN_TAIL_N, EvdError, GpdFits, fit_gpd_rows, gpd_quantile_rows
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


def single_tails(samples: np.ndarray, location_ids, n: int):
    """Single-location POT analysis at each column of the events x locations
    block `samples` (NaN: no value), column k belonging to location_ids[k],
    up to its tail fit: the reason each column cannot be fitted ("" where it
    can), and the n largest values of each column that can, descending, with
    their thresholds. The tails are ordered in `samples`, a float array, which
    this leaves with each column sorted in descending order, NaN last."""
    counts = np.count_nonzero(~np.isnan(samples), axis=0)
    reason = np.full(len(counts), "", dtype=object)
    for k in np.flatnonzero((counts < n) | (n < MIN_TAIL_N)).tolist():
        loc, count = location_ids[k], int(counts[k])
        reason[k] = (f"location {loc}: no footprint data" if not count
                     else f"n={n} too small for a tail fit" if n < MIN_TAIL_N
                     else f"location {loc}: n={n} exceeds {count} values")
    samples *= -1  # negated, so that the sort puts NaN last
    samples.sort(axis=0)
    samples *= -1
    fitted = reason == ""
    if not fitted.any():
        return reason, np.empty((0, max(n, 0))), np.empty(0)
    # a row per column that can be fitted, as far as tail_thresholds reads;
    # contiguous rows, so that the fit sums each row in the same order
    desc = np.ascontiguousarray(samples[: n + 1, fitted].T)
    return reason, desc[:, :n], tail_thresholds(desc, n)


def single_cells(reason, fits: GpdFits, location_ids, T: float, T0: float, n: int, method: str):
    """Single-location POT analysis after the fits of the columns that
    single_tails could fit: each column's quantile at p* = 1 - (T0/n)/T, NaN
    where there is none, and the reason it has none ("" where it has one)."""
    reason = reason.copy()
    fitted = np.flatnonzero(reason == "")
    reason[fitted] = fits.error
    failed = fits.message != ""
    reason[fitted[failed]] = [f"location {location_ids[k]}: {method} fit failed: {message}"
                              for k, message in zip(fitted[failed].tolist(), fits.message[failed])]
    good = (fits.error == "") & ~failed
    values = np.full(len(reason), np.nan)
    try:
        p_target = target_probability(T, T0, n)
    except CatalogError as err:
        reason[fitted[good]] = str(err)
    else:
        values[fitted[good]] = gpd_quantile_rows(
            fits.threshold[good], fits.scale[good], fits.shape[good], np.array([[p_target]]))[:, 0]
    return values, reason


def single_location_rv(series: LocationSeries, n: int, T: float, T0: float,
                       method: str = "MLE") -> ReturnValueEstimate:
    """Single-location return value at one location: a view of one column
    of single_tails and single_cells, raising the reason when there is none."""
    ids = [series.location_id]
    reason, tail, psi = single_tails(series.values[:, None].copy(), ids, n)
    if reason[0]:
        raise CatalogError(reason[0])
    fits = fit_gpd_rows(tail, psi, method)
    (value,), (reason,) = single_cells(reason, fits, ids, T, T0, n, method)
    if reason:
        raise (EvdError if fits.error[0] or fits.message[0] else CatalogError)(reason)
    return ReturnValueEstimate(
        location_id=series.location_id, T=float(T), T0=float(T0), n=int(n), value=float(value),
        method=method.upper(), estimator="SINGLE")


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
