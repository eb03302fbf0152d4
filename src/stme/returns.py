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

    def cdf(self, x) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        p = np.searchsorted(self.atoms, x, side="right") / self.atoms.size
        return p if p.ndim else float(p)


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


def exposure_ecdf(
    matrix: ExposureMatrix, location_id: int, retained_event_ids=None
) -> ExposureEcdf:
    """Exposure atoms at a location from the retained events (absent entries
    skipped). retained_event_ids=None uses all events in the matrix."""
    col = matrix.column(location_id)
    if retained_event_ids is not None:
        col = col[np.isin(matrix.event_ids, retained_event_ids)]
    atoms = col[~np.isnan(col)]
    if atoms.size == 0:
        raise CatalogError(f"location {location_id}: no exposure data among retained events")
    return ExposureEcdf(location_id=int(location_id), atoms=atoms)


class _AtomRows:
    """The exposure atoms of several locations as one matrix: each row holds
    a location's positive atoms in ascending order, padded with ones that a
    mask excludes, next to its counts of zero atoms and of all atoms."""

    def __init__(self, ecdfs):
        positive = [e.atoms[e.atoms > 0.0] for e in ecdfs]
        self.scale = np.ones((len(positive), max([1] + [p.size for p in positive])))
        self.mask = np.zeros(self.scale.shape, dtype=bool)
        for row, atoms in enumerate(positive):
            self.scale[row, : atoms.size] = atoms
            self.mask[row, : atoms.size] = True
        self.size = np.array([e.atoms.size for e in ecdfs])
        self.n_zero = self.size - self.mask.sum(axis=1)

    def cdf(self, fit: GpdParams, h: np.ndarray) -> np.ndarray:
        """SWH CDF of row r at h[r]; with a single row, its CDF at every h."""
        p = np.where(self.mask, gpd_cdf(fit, h[:, None] / self.scale), 0.0)
        # a running sum, so that the padding at the end of a row leaves its
        # total bit-identical to the sum over its own atoms alone
        return (np.cumsum(p, axis=1)[:, -1] + self.n_zero) / self.size


def swh_cdf(fit: GpdParams, ecdf: ExposureEcdf, h) -> np.ndarray | float:
    """CDF of SWH at the location: mean of the conditional-on-retention GPD
    CDF over exposure atoms; zero atoms contribute 1 (no wave reaches the
    location, so any h >= 0 is not exceeded)."""
    h = np.asarray(h, dtype=float)
    if np.any(h < 0):
        raise CatalogError("SWH evaluation point must be >= 0")
    p = _AtomRows([ecdf]).cdf(fit, h.reshape(-1)).reshape(h.shape)
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
    fit: GpdParams,
    ecdfs,
    T: float,
    T0: float,
    n: int,
    method: str = "",
    estimator: str = "STME",
) -> list[ReturnValueEstimate | CatalogError | EvdError]:
    """T-year return value at each location of `ecdfs`: the swh_cdf
    quantile at p* = 1 - (T0/n)/T, found for all locations at once by
    bracketing and bisection (1e-6 m). A location without a value maps to
    the error saying why. For shape < 0 with an upper bound within 1e12 m
    the bracket is the location's upper bound, and a quantile within 1e-6 m
    of it is flagged "at_upper_bound"."""
    p_target = target_probability(T, T0, n)
    rows = _AtomRows(ecdfs)
    e_max = np.array([float(e.atoms[-1]) for e in ecdfs])
    errors: list[CatalogError | EvdError | None] = [
        CatalogError(f"location {e.location_id}: all exposures zero") if e.atoms[-1] == 0.0
        else None
        for e in ecdfs
    ]
    at_bound = np.zeros(len(ecdfs), dtype=bool)
    # a shape just below zero puts the upper bound out of bisection's reach
    # (or overflows it to inf); such a fit is bracketed as if unbounded
    if fit.shape < 0 and fit.upper_endpoint <= BRACKET_MAX:
        hi = e_max * fit.upper_endpoint
        at_bound = rows.cdf(fit, np.maximum(hi - BISECTION_TOL, 0.0)) < p_target
    else:
        hi = np.maximum(1.0, e_max * (fit.threshold + fit.scale))
        low = rows.cdf(fit, hi) < p_target
        while low.any():
            hi = np.where(low, 2.0 * hi, hi)
            for row in np.flatnonzero(low & (hi > BRACKET_MAX)):
                errors[row] = EvdError("return-value bracket exceeded 1e12 m")
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
    results: list[ReturnValueEstimate | CatalogError | EvdError] = []
    for ecdf, error, value, flag in zip(ecdfs, errors, hi.tolist(), at_bound.tolist()):
        try:
            results.append(error or ReturnValueEstimate(
                location_id=ecdf.location_id, T=float(T), T0=float(T0), n=int(n), value=value,
                method=method, estimator=estimator, flag="at_upper_bound" if flag else "",
            ))
        except CatalogError as err:
            results.append(err)
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
    (result,) = return_values(fit, [ecdf], T, T0, n, method, estimator)
    if isinstance(result, Exception):
        raise result
    return result


def stme_return_values(
    stm: StmSeries,
    exposures: ExposureMatrix,
    n: int,
    T: float,
    T0: float,
    method: str,
    location_ids,
) -> dict[int, ReturnValueEstimate | str]:
    """One STM-E step: fit the tail of the n largest STM values once and
    invert the return value at each location. Maps each location id to its
    estimate or to the reason there is none."""
    retained, psi = top_n_events(stm, n)
    report = fit_gpd(retained.values, psi, method)
    if not report.converged:
        return dict.fromkeys(location_ids, f"tail fit failed: {report.message}")
    results: dict[int, ReturnValueEstimate | str] = dict.fromkeys(location_ids, "")
    rows = np.isin(exposures.event_ids, retained.event_ids)
    kept = ExposureMatrix(exposures.event_ids[rows], exposures.location_ids, exposures.values[rows])
    ecdfs = {}
    for loc in results:
        try:
            ecdfs[loc] = exposure_ecdf(kept, loc)
        except CatalogError as err:
            results[loc] = str(err)
    try:
        found = return_values(
            report.params, list(ecdfs.values()), T, T0, n, method=method.upper(), estimator="STME"
        )
    except CatalogError as err:
        found = [err] * len(ecdfs)
    for loc, result in zip(ecdfs, found):
        results[loc] = str(result) if isinstance(result, Exception) else result
    return results


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
    results = stme_return_values(
        stm, extract_exposures(sub, stm), n, T, sub.duration_years, method,
        sub.location_ids if location_ids is None else location_ids,
    )
    estimates = [r for r in results.values() if not isinstance(r, str)]
    if not estimates:
        reason = next(iter(results.values()), "no locations")
        raise EvdError(f"{method} STM-E: no estimate at any location ({reason})")
    for loc, result in results.items():
        if isinstance(result, str):
            warnings.warn(f"location {loc}: {result}", stacklevel=2)
    return estimates
