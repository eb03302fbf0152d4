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

import warnings
from dataclasses import dataclass

import numpy as np

from .catalog import (
    CatalogError,
    CycloneCatalog,
    ExposureMatrix,
    RegionSpec,
    StmSeries,
    extract_exposures,
    extract_stm,
    select_region,
    top_n_events,
)
from .evd import EvdError, GpdParams, fit_gpd, gpd_cdf

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
        if not np.isfinite(self.value) or self.value < 0:
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

    def cdf(self, fit: GpdParams, h: np.ndarray) -> np.ndarray:
        """SWH CDF of row r at h[r] (0 for a row without atoms); with one row, at every h."""
        p = np.where(self.mask, gpd_cdf(fit, h[:, None] / self.scale), 0.0)
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
    p = _AtomRows(ecdf.atoms[:, None]).cdf(fit, h.reshape(-1)).reshape(h.shape)
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
    fit: GpdParams, atoms: np.ndarray, location_ids, T: float, T0: float, n: int,
    method: str = "", estimator: str = "STME",
) -> list[ReturnValueEstimate | CatalogError | EvdError]:
    """T-year return value at each column of the events x locations exposure
    block `atoms` (NaN where an event has no atom), column k belonging to
    location_ids[k]: the swh_cdf quantile at p* = 1 - (T0/n)/T, found for all
    columns at once by bracketing and bisection (1e-6 m). A location without
    a value maps to the error saying why. For shape < 0 with an upper bound
    within 1e12 m the bracket is the location's upper bound, and a quantile
    within 1e-6 m of it is flagged "at_upper_bound"."""
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
    e_max = np.where(rows.mask, rows.scale, 0.0).max(axis=1)
    at_bound = np.zeros(len(live), dtype=bool)
    # a shape just below zero puts the upper bound out of bisection's reach
    # (or overflows it to inf); such a fit is bracketed as if unbounded
    if fit.shape < 0 and fit.upper_endpoint <= BRACKET_MAX:
        hi = e_max * fit.upper_endpoint
        at_bound = rows.cdf(fit, np.maximum(hi - BISECTION_TOL, 0.0)) < p_target
    else:
        hi = np.maximum(1.0, e_max * (fit.threshold + fit.scale))
        low = live & (rows.cdf(fit, hi) < p_target)
        while low.any():
            hi = np.where(low, 2.0 * hi, hi)
            for k in np.flatnonzero(low & (hi > BRACKET_MAX)):
                results[k] = EvdError("return-value bracket exceeded 1e12 m")
            low &= hi <= BRACKET_MAX
            low &= rows.cdf(fit, hi) < p_target
    lo = np.zeros_like(hi)
    for _ in range(BISECTION_MAX_ITER):
        active = hi - lo > BISECTION_TOL
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        above = rows.cdf(fit, mid) >= p_target
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
    (result,) = return_values(fit, ecdf.atoms[:, None], [ecdf.location_id], T, T0, n, method,
                              estimator)
    if isinstance(result, Exception):
        raise result
    return result


def stme_return_values(
    stm: StmSeries, exposures: np.ndarray, location_ids, n: int, T: float, T0: float,
    method: str = "MLE",
) -> list[ReturnValueEstimate | CatalogError | EvdError]:
    """One STM-E step: fit the tail of the n largest STM values once and
    invert the return value at each column of the events x locations
    exposure block `exposures`, whose rows are the events of `stm` (event ids
    ascending, as extract_stm gives them) and whose column k belongs to
    location_ids[k]. A location without a value maps to the error saying why."""
    retained, psi = top_n_events(stm, n)
    try:
        report = fit_gpd(retained.values, psi, method)
    except EvdError as err:  # a sample that cannot be fitted, such as a tied tail
        return [EvdError(f"tail fit failed: {err}")] * len(location_ids)
    if not report.converged:
        return [EvdError(f"tail fit failed: {report.message}")] * len(location_ids)
    atoms = np.asarray(exposures)[np.searchsorted(stm.event_ids, retained.event_ids)]
    return return_values(
        report.params, atoms, location_ids, T, T0, n, method=method.upper(), estimator="STME"
    )


def run_stme(
    catalog: CycloneCatalog,
    region: RegionSpec,
    n: int,
    T: float,
    method: str = "MLE",
    location_ids=None,
) -> list[ReturnValueEstimate]:
    """Full STM-E pipeline: region selection, STM extraction and one
    stme_return_values step, with T0 the catalog duration. Locations without
    an estimate are reported as warnings; when no location has one, as after
    a failed tail fit, an EvdError is raised."""
    sub = select_region(catalog, region)
    stm = extract_stm(sub)
    ids = sub.location_ids if location_ids is None else location_ids
    results = {loc: CatalogError(f"location {loc} not in exposure matrix") for loc in ids}
    known = [loc for loc in results if loc in sub.location_ids]
    exposures = extract_exposures(sub, stm).values[:, sub.columns(known)]
    results.update(zip(known, stme_return_values(
        stm, exposures, known, n, T, sub.duration_years, method)))
    estimates = [r for r in results.values() if not isinstance(r, Exception)]
    if not estimates:
        reason = next(iter(results.values()), "no locations")
        raise EvdError(f"{method} STM-E: no estimate at any location ({reason})")
    for loc, result in results.items():
        if isinstance(result, Exception):
            warnings.warn(f"location {loc}: {result}", stacklevel=2)
    return estimates
