"""Diagnostics for the STM-E modelling assumptions.

Checks that (i) the space-time maximum carries no spatial trend over the
region and (ii) per-location exposure does not depend on STM magnitude:
Kendall's tau between STM and exposure against its Gaussian null band,
permutation tests for linear STM trends along oriented transects, a
Kullback-Leibler comparison of extreme-STM exposure profiles against a
random-pair null, and KS aggregation of the resulting probabilities.

scipy.stats is imported inside the functions that use it, so that the
other commands never pay for importing scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import ExposureMatrix, StmSeries

# Exposure profiles are binned on [0, 1] before the KL comparison; additive
# smoothing keeps the divergence finite on disjoint supports.
KL_BINS = 10
KL_SMOOTHING = 0.5


class DiagnosticsError(ValueError):
    """Raised for invalid diagnostic inputs."""


def kendall_tau_null_sd(n: int) -> float:
    """Standard deviation of Kendall's tau under independence (no ties)."""
    if n < 3:
        raise DiagnosticsError(f"need n >= 3, got {n}")
    return math.sqrt(2.0 * (2.0 * n + 5.0) / (9.0 * n * (n - 1.0)))


def kendall_tau(x, y) -> tuple[float, float]:
    """Tie-corrected (tau-b) Kendall rank correlation and its Gaussian null sd."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DiagnosticsError("length mismatch")
    null_sd = kendall_tau_null_sd(x.size)  # checks n >= 3
    from scipy import stats

    tau = stats.kendalltau(x, y, variant="b").statistic
    return float(tau), null_sd


def _check_same_events(stm: StmSeries, exposures: ExposureMatrix):
    """The STM series and the exposure matrix must share their rows."""
    if not np.array_equal(stm.event_ids, exposures.event_ids):
        raise DiagnosticsError("STM series and exposure matrix cover different events")


@dataclass(frozen=True)
class TauResult:
    location_id: int
    tau: float
    null_sd: float
    band: float  # confidence level of the independence band, e.g. 0.90
    flag: str  # "inside" | "above" | "below"
    n_events: int


def tau_map(
    stm: StmSeries, exposures: ExposureMatrix, band: float = 0.90
) -> tuple[list[TauResult], float]:
    """Per-location Kendall's tau between STM and exposure, flagged against the
    Gaussian independence band. Returns the results and the exceedance
    fraction (locations outside the band / locations tested)."""
    if not 0.0 < band < 1.0:
        raise DiagnosticsError(f"band {band} outside (0, 1)")
    _check_same_events(stm, exposures)
    from scipy import stats

    z_crit = stats.norm.ppf(0.5 + band / 2.0)
    results = []
    n_outside = 0
    for k, loc in enumerate(exposures.location_ids.tolist()):
        col = exposures.values[:, k]
        mask = ~np.isnan(col)
        if mask.sum() < 3:
            continue
        tau, sd = kendall_tau(stm.values[mask], col[mask])
        if tau > z_crit * sd:
            flag = "above"
        elif tau < -z_crit * sd:
            flag = "below"
        else:
            flag = "inside"
        n_outside += flag != "inside"
        results.append(
            TauResult(
                location_id=loc, tau=tau, null_sd=sd, band=band, flag=flag,
                n_events=int(mask.sum()),
            )
        )
    if not results:
        raise DiagnosticsError("no location with enough data for Kendall's tau")
    return results, n_outside / len(results)


def trend_permutation_test(
    stm: StmSeries,
    lons,
    lats,
    orientation_deg: float,
    n_perm: int = 999,
    rng: np.random.Generator | None = None,
) -> float:
    """Permutation p-value for a linear STM trend along an oriented transect.

    The statistic is the least-squares slope of STM against the coordinate
    projection lon*cos(theta) + lat*sin(theta); the null distribution comes
    from random permutations of the STM values, two-sided on |slope|.
    """
    if len(stm) < 10:
        raise DiagnosticsError(f"need >= 10 events, got {len(stm)}")
    if n_perm < 99:
        raise DiagnosticsError(f"need n_perm >= 99, got {n_perm}")
    if rng is None:
        rng = np.random.default_rng()
    theta = math.radians(orientation_deg)
    proj = np.asarray(lons, dtype=float) * math.cos(theta) + np.asarray(
        lats, dtype=float
    ) * math.sin(theta)
    proj_c = proj - proj.mean()
    ss = float(np.sum(proj_c**2))
    if ss == 0.0:
        raise DiagnosticsError("degenerate coordinates: all projections equal")
    values = stm.values - stm.values.mean()
    slope_obs = float(proj_c @ values) / ss
    perms = np.empty((n_perm, len(values)))
    for i in range(n_perm):
        perms[i] = rng.permutation(values)
    slopes = perms @ proj_c / ss
    n_ge = int(np.sum(np.abs(slopes) >= abs(slope_obs)))
    return (1 + n_ge) / (n_perm + 1)


def _exposure_histogram(sample: np.ndarray) -> np.ndarray:
    counts, _ = np.histogram(sample, bins=KL_BINS, range=(0.0, 1.0))
    smoothed = counts + KL_SMOOTHING
    return smoothed / smoothed.sum()


def kl_symmetric(sample_a, sample_b) -> float:
    """Symmetrised KL (J-divergence) between smoothed exposure histograms."""
    p = _exposure_histogram(np.asarray(sample_a, dtype=float))
    q = _exposure_histogram(np.asarray(sample_b, dtype=float))
    return float(np.sum((p - q) * np.log(p / q)))


@dataclass(frozen=True)
class KlResult:
    location_id: int
    n_events: int
    kl_star: float
    null_sample: np.ndarray
    non_exceedance: float  # fraction of the null at or below kl_star


def exposure_kl_test(
    exposures: ExposureMatrix,
    stm: StmSeries,
    location_id: int,
    n_null: int = 1000,
    rng: np.random.Generator | None = None,
) -> KlResult:
    """Tests whether a location's extreme-STM exposure profiles are typical.

    A cyclone's exposure sample is its exposures over all region locations.
    kl_star is the symmetrised KL divergence between the samples of the
    largest-STM and smallest-STM cyclones; the null comes from n_null random
    distinct event pairs. location_id labels the report (the profile spans
    the whole region).
    """
    if n_null < 100:
        raise DiagnosticsError(f"need n_null >= 100, got {n_null}")
    if len(stm) < 3:
        raise DiagnosticsError("need at least 3 events")
    if rng is None:
        rng = np.random.default_rng()
    _check_same_events(stm, exposures)
    samples = [row[~np.isnan(row)] for row in exposures.values]
    i_max = int(np.argmax(stm.values))
    i_min = int(np.argmin(stm.values))
    kl_star = kl_symmetric(samples[i_max], samples[i_min])
    null = np.empty(n_null)
    m = len(samples)
    for k in range(n_null):
        i, j = rng.choice(m, size=2, replace=False)
        null[k] = kl_symmetric(samples[i], samples[j])
    return KlResult(
        location_id=int(location_id), n_events=m, kl_star=kl_star,
        null_sample=null, non_exceedance=float(np.mean(null <= kl_star)),
    )


def ks_uniformity(probs) -> tuple[float, float]:
    """One-sample KS test of probabilities against Uniform[0, 1]."""
    probs = np.asarray(probs, dtype=float)
    if probs.size < 5:
        raise DiagnosticsError(f"need >= 5 probabilities, got {probs.size}")
    if np.any((probs < 0.0) | (probs > 1.0)):
        raise DiagnosticsError("probabilities outside [0, 1]")
    from scipy import stats

    res = stats.kstest(probs, "uniform")
    return float(res.statistic), float(res.pvalue)
