"""Return-value estimation combining the STM tail model with per-location
exposure distributions.

Per location j, SWH is H_j = E_j * S with S the regional space-time maximum
and E_j the location's exposure. With exposures modelled as empirical atoms
e_1..e_m, the SWH CDF is the exact finite mixture
F_H(h) = (1/m) * sum_i F_S(h / e_i), which is inverted by bisection to get
the quantile at the per-retained-event target probability
p* = 1 - (T0 / n) / T for the T-year return value.

The batched calls take and give columns: parameter arrays in, and value,
at_upper_bound and reason arrays out. stme_cells is the STM-E step of
experiments.estimate_cells after its tail fit; a ReturnValueEstimate is a
one-row view, built by return_value and run_stme.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .catalog import (
    CatalogError,
    CycloneCatalog,
    ExposureMatrix,
    RegionSpec,
    select_region,
)
from .evd import EvdError, GpdFits, GpdParams, gpd_cdf_rows

BISECTION_TOL = 1e-6  # metres
BISECTION_MAX_ITER = 200
BRACKET_MAX = 1e12  # metres
BRACKET_EXCEEDED = "return-value bracket exceeded 1e12 m"


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
        entry of the GPD parameter arrays (threshold, scale, shape); with one
        row and one entry, at every h."""
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
    p = _AtomRows(ecdf.atoms[:, None]).cdf(fit.arrays(), h.reshape(-1)).reshape(h.shape)
    return p if h.ndim else float(p)


def target_probability(T: float, T0: float, n: int) -> float:
    """Per-retained-event non-exceedance probability for the T-year value."""
    if not (T > T0 > 0) or n < 1:
        raise CatalogError(f"invalid (T={T}, T0={T0}, n={n})")
    p = 1.0 - (T0 / n) / T
    if not 0.0 < p < 1.0:
        raise CatalogError(f"target probability {p} outside (0, 1)")
    return p


def return_values(fits, atoms: np.ndarray, location_ids, T: float, T0: float, n: int):
    """T-year return value at each column of the events x locations exposure
    block `atoms` (NaN where an event has no atom), column k belonging to
    location_ids[k] and fitted by entry k of the (threshold, scale, shape)
    arrays `fits`: the swh_cdf quantile at p* = 1 - (T0/n)/T, found for all
    columns at once by bracketing and bisection (1e-6 m). Gives the values
    (NaN where there is none), whether each is at the upper bound and the
    reason each column without a value has none ("" where it has one). A
    column whose shape is < 0 with an upper bound within 1e12 m is bracketed
    by the location's upper bound, and a quantile within 1e-6 m of it is at
    that bound. A column's value does not depend on the other columns."""
    rows = _AtomRows(atoms)
    live = rows.size > rows.n_zero
    reason = np.full(len(live), "", dtype=object)
    for k in np.flatnonzero(~live).tolist():
        reason[k] = (f"location {location_ids[k]}: all exposures zero" if rows.size[k]
                     else f"location {location_ids[k]}: no exposure data among retained events")
    value, at_bound = np.full(len(live), np.nan), np.zeros(len(live), dtype=bool)
    try:
        p_target = target_probability(T, T0, n)
    except CatalogError as err:
        reason[live] = str(err)
        return value, at_bound, reason
    if not live.any():
        return value, at_bound, reason
    params = threshold, scale, shape = fits
    e_max = np.where(rows.mask, rows.scale, 0.0).max(axis=1)
    # a shape just below zero puts the upper bound out of bisection's reach
    # (or overflows it to inf); such a column is bracketed as if unbounded
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        upper = np.where(shape < 0, threshold - scale / shape, np.inf)
        bounded = upper <= BRACKET_MAX
        hi = np.where(bounded, e_max * upper, np.maximum(1.0, e_max * (threshold + scale)))
    if bounded.any():
        at_bound = bounded & (rows.cdf(params, np.maximum(hi - BISECTION_TOL, 0.0)) < p_target)
    low = live & ~bounded
    if low.any():
        low &= rows.cdf(params, hi) < p_target
    while low.any():
        hi = np.where(low, 2.0 * hi, hi)
        reason[low & (hi > BRACKET_MAX)] = BRACKET_EXCEEDED
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
    found = reason == ""
    value[found] = hi[found]
    return value, at_bound & found, reason


def return_value(fit: GpdParams, ecdf: ExposureEcdf, T: float, T0: float, n: int,
                 method: str = "", estimator: str = "STME") -> ReturnValueEstimate:
    """T-year return value at one location: a view of one column of
    return_values, raising the reason when there is none."""
    (value,), (at_bound,), (reason,) = return_values(
        fit.arrays(), ecdf.atoms[:, None], [ecdf.location_id], T, T0, n)
    if reason:
        raise (EvdError if reason == BRACKET_EXCEEDED else CatalogError)(reason)
    return ReturnValueEstimate(
        location_id=ecdf.location_id, T=float(T), T0=float(T0), n=int(n), value=float(value),
        method=method, estimator=estimator, flag="at_upper_bound" if at_bound else "",
    )


def stme_cells(fits: GpdFits, atoms, location_ids, T: float, T0: float, n: int):
    """The STM-E step of each sample after the fit of its n largest STM values,
    `atoms` holding their exposures (n x samples x locations, location k
    being location_ids[k]): the value of each (sample, location) cell,
    sample-major, NaN where there is none, and its flag: the reason it has
    none, "at_upper_bound" or ""."""
    width = len(location_ids)
    reason = fits.error + fits.message
    live = np.flatnonzero(reason == "")
    if len(live) < len(reason):  # else no copy: the block can be as large as the catalog
        atoms = atoms[:, live]
    value, at_bound, why = return_values(
        [np.repeat(column[live], width) for column in fits[:3]], atoms.reshape(n, -1),
        list(location_ids) * len(live), T, T0, n)
    values = np.full((len(reason), width), np.nan)
    flags = np.repeat(("tail fit failed: " + reason)[:, None], width, axis=1)
    values[live] = value.reshape(len(live), width)
    flags[live] = np.where(at_bound, "at_upper_bound", why).reshape(len(live), width)
    return values.ravel(), flags.ravel()


def run_stme(catalog: CycloneCatalog, region: RegionSpec, n: int, T: float, method: str = "MLE",
             location_ids=None) -> list[ReturnValueEstimate]:
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
    for (loc, *_), value, flag in zip(cells.keys, cells.values[0].tolist(), cells.flags[0]):
        results[loc] = flag if math.isnan(value) else ReturnValueEstimate(
            location_id=loc, T=float(T), T0=float(sub.duration_years), n=int(n), value=value,
            method=method.upper(), estimator="STME", flag=flag)
    estimates = [r for r in results.values() if not isinstance(r, str)]
    if not estimates:
        reason = next(iter(results.values()), "no locations")
        raise EvdError(f"{method} STM-E: no estimate at any location ({reason})")
    for loc, result in results.items():
        if isinstance(result, str):
            warnings.warn(f"location {loc}: {result}", stacklevel=2)
    return estimates
