"""Return-value estimation combining the STM tail model with per-location
exposure distributions.

Per location j, SWH is H_j = E_j * S with S the regional space-time maximum
and E_j the location's exposure. With exposures modelled as empirical atoms
e_1..e_m, the SWH CDF is the exact finite mixture
F_H(h) = (1/m) * sum_i F_S(h / e_i), which is inverted by bisection to get
the quantile at the per-retained-event target probability
p* = 1 - (T0 / n) / T for the T-year return value.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .catalog import (
    CatalogError,
    CycloneCatalog,
    ExposureMatrix,
    RegionSpec,
    StmSeries,
    select_region,
    top_n_positions,
)
from .evd import EvdError, GpdParams, gpd_cdf_rows, params_arrays

BISECTION_TOL = 1e-6  # metres
BISECTION_MAX_ITER = 200
BRACKET_MAX = 1e12  # metres


@dataclass(frozen=True)
class ExposureEcdf:
    """Empirical exposure distribution at one location: equally weighted atoms."""

    location_id: int
    atoms: np.ndarray  # sorted, in [0, 1]

    def __post_init__(self):
        atoms = np.sort(np.asarray(self.atoms, dtype=float))
        object.__setattr__(self, "atoms", atoms)
        if atoms.size == 0:
            raise CatalogError(f"location {self.location_id}: empty exposure sample")
        if np.any((atoms < 0.0) | (atoms > 1.0)):
            raise CatalogError(f"location {self.location_id}: exposure outside [0, 1]")


@dataclass(frozen=True)
class ReturnValueEstimate:
    location_id: int
    T: float  # return period, years
    T0: float  # observation period, years
    n: int  # retained-event count used for the tail fit
    value: float  # metres
    method: str  # "MLE" | "PWM" | ""
    estimator: str  # "STME" | "SINGLE" | "EMPIRICAL"
    flag: str = ""

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value < 0:
            raise CatalogError(f"invalid return value {self.value}")


def exposure_ecdf(matrix: ExposureMatrix, location_id: int) -> ExposureEcdf:
    """Exposure atoms at a location from every event of the matrix (absent
    entries skipped)."""
    col = matrix.column(location_id)
    atoms = col[~np.isnan(col)]
    if atoms.size == 0:
        raise CatalogError(f"location {location_id}: no exposure data among retained events")
    return ExposureEcdf(location_id=int(location_id), atoms=atoms)


class _AtomRows:
    """The exposure atoms of each column of an events x locations block (NaN
    where an event has none) as one matrix: row r holds column r's atoms in
    ascending order, zero and NaN atoms masked out, next to its counts of
    zero atoms and of all atoms."""

    def __init__(self, atoms):
        ordered = np.sort(np.asarray(atoms, dtype=float), axis=0).T  # NaN last
        self.mask = ordered > 0.0
        self.scale = np.where(self.mask, ordered, 1.0)
        self.size = np.count_nonzero(~np.isnan(ordered), axis=1)
        self.n_zero = self.size - np.count_nonzero(self.mask, axis=1)

    def cdf(self, params, h: np.ndarray) -> np.ndarray:
        """SWH CDF of row r at h[r] (0 for a row without atoms) under row r's
        entry of the GPD params_arrays; with one row and one entry, at every h."""
        p = np.where(self.mask, gpd_cdf_rows(*params, h[:, None] / self.scale), 0.0)
        # a running sum, so that the masked atoms add exact zeros and leave
        # a row's total bit-identical to the sum over its positive atoms alone
        return (np.cumsum(p, axis=1)[:, -1] + self.n_zero) / np.maximum(self.size, 1)


def swh_cdf(fit: GpdParams, ecdf: ExposureEcdf, h) -> np.ndarray | float:
    """CDF of SWH at the location: mean of the conditional-on-retention GPD
    CDF over exposure atoms; zero atoms contribute 1 (no wave reaches the
    location, so any h >= 0 is not exceeded)."""
    h = np.asarray(h, dtype=float)
    if np.any(h < 0):
        raise CatalogError("SWH evaluation point must be >= 0")
    p = _AtomRows(ecdf.atoms[:, None]).cdf(params_arrays([fit]), h.reshape(-1)).reshape(h.shape)
    return p if h.ndim else float(p)


def target_probability(T: float, T0: float, n: int) -> float:
    """Per-retained-event non-exceedance probability for the T-year value."""
    if not (T > T0 > 0) or n < 1:
        raise CatalogError(f"invalid (T={T}, T0={T0}, n={n})")
    p = 1.0 - (T0 / n) / T
    if not 0.0 < p < 1.0:
        raise CatalogError(f"target probability {p} outside (0, 1)")
    return p


def return_values(
    fits, atoms: np.ndarray, location_ids, T: float, T0: float, n: int,
    method: str = "", estimator: str = "STME",
) -> list[ReturnValueEstimate | CatalogError | EvdError]:
    """T-year return value at each column of the events x locations exposure
    block `atoms` (NaN where an event has no atom), column k belonging to
    location_ids[k] and fitted by the GpdParams fits[k]: the swh_cdf quantile
    at p* = 1 - (T0/n)/T, found for all columns at once by bracketing and
    bisection (1e-6 m). A location without a value maps to the error saying
    why. A column whose shape is < 0 with an upper bound within 1e12 m is
    bracketed by the location's upper bound, and a quantile within 1e-6 m of
    it is flagged "at_upper_bound". A column's value does not depend on the
    other columns."""
    rows = _AtomRows(atoms)
    results: list[ReturnValueEstimate | CatalogError | EvdError | None] = [
        CatalogError(f"location {loc}: no exposure data among retained events") if not size
        else CatalogError(f"location {loc}: all exposures zero") if size == n_zero
        else None
        for loc, size, n_zero in zip(location_ids, rows.size.tolist(), rows.n_zero.tolist())
    ]
    live = rows.size > rows.n_zero
    try:
        p_target = target_probability(T, T0, n)
    except CatalogError as err:
        return [r or err for r in results]
    if not live.any():
        return results
    params = threshold, scale, shape = params_arrays(fits)
    e_max = np.where(rows.mask, rows.scale, 0.0).max(axis=1)
    # a shape just below zero puts the upper bound out of bisection's reach
    # (or overflows it to inf); such a column is bracketed as if unbounded
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        upper = np.where(shape < 0, threshold - scale / shape, np.inf)
        bounded = upper <= BRACKET_MAX
        hi = np.where(bounded, e_max * upper, np.maximum(1.0, e_max * (threshold + scale)))
    at_bound = np.zeros(len(live), dtype=bool)
    if bounded.any():
        at_bound = bounded & (rows.cdf(params, np.maximum(hi - BISECTION_TOL, 0.0)) < p_target)
    low = live & ~bounded
    if low.any():
        low &= rows.cdf(params, hi) < p_target
    while low.any():
        hi = np.where(low, 2.0 * hi, hi)
        for k in np.flatnonzero(low & (hi > BRACKET_MAX)):
            results[k] = EvdError("return-value bracket exceeded 1e12 m")
        low &= hi <= BRACKET_MAX
        low &= rows.cdf(params, hi) < p_target
    lo = np.zeros_like(hi)
    for _ in range(BISECTION_MAX_ITER):
        active = hi - lo > BISECTION_TOL
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        above = rows.cdf(params, mid) >= p_target
        hi = np.where(active & above, mid, hi)
        lo = np.where(active & ~above, mid, lo)
    for k, (loc, value, flag) in enumerate(zip(location_ids, hi.tolist(), at_bound.tolist())):
        if results[k] is None:
            try:
                results[k] = ReturnValueEstimate(
                    location_id=loc, T=float(T), T0=float(T0), n=int(n), value=value,
                    method=method, estimator=estimator, flag="at_upper_bound" if flag else "",
                )
            except CatalogError as err:
                results[k] = err
    return results


def return_value(
    fit: GpdParams,
    ecdf: ExposureEcdf,
    T: float,
    T0: float,
    n: int,
    method: str = "",
    estimator: str = "STME",
) -> ReturnValueEstimate:
    """T-year return value at one location; see return_values."""
    (result,) = return_values([fit], ecdf.atoms[:, None], [ecdf.location_id], T, T0, n, method,
                              estimator)
    if isinstance(result, Exception):
        raise result
    return result


def stme_tails(
    stm: StmSeries, samples: np.ndarray, exposures: np.ndarray, location_ids, n: int, T: float,
    T0: float, method: str = "MLE",
):
    """The STM-E step of each sample, split around its tail fit for
    fit_tails. A sample is a row of ascending positions into `stm` (event
    ids ascending, as extract_stm gives them) and into the rows of the
    events x locations exposure block `exposures`, column k belonging to
    location_ids[k]. Gives each sample's n largest STM values in event
    order, their threshold, and the finish that inverts the return value at
    each (sample, location) column, sample-major, or gives the error saying
    why there is none."""
    keep, psi = top_n_positions(stm.values[samples], stm.event_ids[samples], n)
    events = np.take_along_axis(samples, keep, axis=1)

    def finish(reports):
        failed = [EvdError(f"tail fit failed: {r}") if isinstance(r, EvdError)
                  else None if r.converged else EvdError(f"tail fit failed: {r.message}")
                  for r in reports]
        live = [k for k, f in enumerate(failed) if f is None]
        atoms = np.asarray(exposures)[events[live]].transpose(1, 0, 2)  # n x samples x locations
        found = iter(return_values(
            [reports[k].params for k in live for _ in location_ids], atoms.reshape(n, -1),
            list(location_ids) * len(live), T, T0, n, method.upper(), "STME"))
        width = len(location_ids)
        return [r for f in failed for r in ([f] * width if f else itertools.islice(found, width))]

    return stm.values[events], psi, finish


def run_stme(
    catalog: CycloneCatalog,
    region: RegionSpec,
    n: int,
    T: float,
    method: str = "MLE",
    location_ids=None,
) -> list[ReturnValueEstimate]:
    """Full STM-E pipeline: region selection and the STME cells of
    experiments.estimate_cells, with T0 the catalog duration. Locations
    without an estimate are reported as warnings; when no location has one,
    as after a failed tail fit, an EvdError is raised."""
    from .experiments import estimate_cells  # experiments imports this module

    sub = select_region(catalog, region)
    ids = sub.location_ids if location_ids is None else location_ids
    results = {loc: f"location {loc} not in exposure matrix" for loc in ids}
    region_ids = set(sub.location_ids)
    known = [loc for loc in results if loc in region_ids]
    cells = estimate_cells(sub, T, sub.duration_years, (n,), (method,), ("STME",), known)
    results.update((loc, r) for (loc, *_), r in cells.items())
    estimates = [r for r in results.values() if not isinstance(r, str)]
    if not estimates:
        reason = next(iter(results.values()), "no locations")
        raise EvdError(f"{method} STM-E: no estimate at any location ({reason})")
    for loc, result in results.items():
        if isinstance(result, str):
            warnings.warn(f"location {loc}: {result}", stacklevel=2)
    return estimates
