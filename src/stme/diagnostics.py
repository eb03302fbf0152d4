"""Diagnostics for the STM-E modelling assumptions.

Checks that (i) the space-time maximum carries no spatial trend over the
region and (ii) per-location exposure does not depend on STM magnitude:
Kendall's tau between STM and exposure against its Gaussian null band,
permutation tests for linear STM trends along oriented transects, a
Kullback-Leibler comparison of extreme-STM exposure profiles against a
random-pair null, and KS aggregation of the resulting probabilities.

Kendall's tau-b is computed from integer pair counts, for every location
in one pass. scipy is needed only by the KS aggregation (`ks_uniformity`,
which `stme diagnostics` runs with five or more orientations) and is
imported inside it.
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
# Cells per column block of the tau-b pair counts: bounds their temporaries.
TAU_BLOCK_CELLS = 1 << 14


class DiagnosticsError(ValueError):
    """Raised for invalid diagnostic inputs."""


def kendall_tau_null_sd(n: int) -> float:
    """Standard deviation of Kendall's tau under independence (no ties)."""
    if n < 3:
        raise DiagnosticsError(f"need n >= 3, got {n}")
    return math.sqrt(2.0 * (2.0 * n + 5.0) / (9.0 * n * (n - 1.0)))


def _tie_pairs(ordered: np.ndarray, n_valid: np.ndarray) -> np.ndarray:
    """Pairs of equal values among the first n_valid[k] rows of each column k
    of a column-wise sorted array."""
    index = np.arange(len(ordered))[:, None]
    new = np.ones(ordered.shape, dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    first = np.maximum.accumulate(np.where(new, index, 0), axis=0)
    return np.where(index < n_valid, index - first, 0).sum(axis=0)


def _inversions(seq: np.ndarray) -> np.ndarray:
    """Pairs i < j with seq[i] > seq[j] in each row of a non-negative integer
    array whose width is a power of two, by a bottom-up merge count: at each
    level, every element of a sorted right run counts the elements of its
    sorted left run that exceed it."""
    rows, width = seq.shape
    count = np.zeros(rows, dtype=np.int64)
    span = int(seq.max()) + 1
    run = 1
    while run < width:
        pairs = seq.reshape(-1, 2, run)
        # offsetting each pair of runs makes all left runs one sorted array
        offset = np.arange(len(pairs))[:, None] * span
        left = (pairs[:, 0] + offset).ravel()
        not_above = np.searchsorted(left, pairs[:, 1] + offset, side="right")
        count += (run * (offset // span + 1) - not_above).reshape(rows, -1).sum(axis=1)
        seq = np.sort(seq.reshape(-1, 2 * run), axis=1)
        run *= 2
    return count


def _tau_b(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Kendall's tau-b between x and each column of y, over the rows where
    that column is not NaN; NaN where either side is constant.

    Pair counts per column (Knight 1966, JASA 61(314)): all pairs, pairs tied
    in x, in y and in both, and strictly discordant pairs by a merge count,
    O(n log n). The final arithmetic is scipy.stats.kendalltau's, so the
    value equals it bit for bit. Columns go in blocks of TAU_BLOCK_CELLS."""
    n_rows, n_cols = y.shape
    n = (~np.isnan(y)).sum(axis=0)
    rx = np.unique(x, return_inverse=True)[1].reshape(-1, 1)  # dense ranks
    width = 1 << max(0, n_rows - 1).bit_length()
    block = max(1, TAU_BLOCK_CELLS // width)
    ties_x, ties_y, ties_xy, discordant = (np.empty(n_cols, dtype=np.int64) for _ in range(4))
    for start in range(0, n_cols, block):
        cols = slice(start, start + block)
        valid = ~np.isnan(y[:, cols])
        # dense ranks over the block keep each column's order and ties; the
        # pads sort after every rank and every (x, y) key rx * span + ry
        ry = np.zeros(valid.shape, dtype=np.int64)
        ry[valid] = np.unique(y[:, cols][valid], return_inverse=True)[1]
        y_pad = int(n[cols].sum())
        ry[~valid] = y_pad
        span = y_pad + 1
        keys = np.sort(np.where(valid, rx * span + ry, n_rows * span), axis=0)
        ties_x[cols] = _tie_pairs(keys // span, n[cols])
        ties_y[cols] = _tie_pairs(np.sort(ry, axis=0), n[cols])
        ties_xy[cols] = _tie_pairs(keys, n[cols])
        # y ranks in (x, y) order, padded at the end of each column
        seq = np.full((valid.shape[1], width), y_pad, dtype=np.int64)
        seq[:, :n_rows] = np.where(np.arange(n_rows)[:, None] < n[cols], keys % span, y_pad).T
        discordant[cols] = _inversions(seq)
    total = n * (n - 1) // 2
    con_minus_dis = total - ties_x - ties_y + ties_xy - 2 * discordant
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = con_minus_dis / np.sqrt(total - ties_x) / np.sqrt(total - ties_y)
    tau = np.minimum(1.0, np.maximum(-1.0, tau))
    tau[(ties_x == total) | (ties_y == total)] = np.nan
    return tau


def kendall_tau(x, y) -> tuple[float, float]:
    """Tie-corrected (tau-b) Kendall rank correlation and its Gaussian null
    sd; NaN when either input is constant or holds a NaN."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DiagnosticsError("length mismatch")
    null_sd = kendall_tau_null_sd(x.size)  # checks n >= 3
    if np.isnan(x).any() or np.isnan(y).any():
        return math.nan, null_sd
    return float(_tau_b(x.ravel(), y.reshape(-1, 1))[0]), null_sd


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
    # imported here: statistics loads decimal and fractions, which would add
    # 0.5 MB to the peak memory of every other command
    from statistics import NormalDist

    z_crit = NormalDist().inv_cdf(0.5 + band / 2.0)
    taus = _tau_b(stm.values, exposures.values)
    counts = (~np.isnan(exposures.values)).sum(axis=0)
    results = []
    n_outside = 0
    for loc, tau, n in zip(exposures.location_ids.tolist(), taus.tolist(), counts.tolist()):
        if n < 3:
            continue
        sd = kendall_tau_null_sd(n)
        if tau > z_crit * sd:
            flag = "above"
        elif tau < -z_crit * sd:
            flag = "below"
        else:
            flag = "inside"
        n_outside += flag != "inside"
        results.append(
            TauResult(location_id=loc, tau=tau, null_sd=sd, band=band, flag=flag, n_events=n)
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


def _divergence(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum((p - q) * np.log(p / q)))


def kl_symmetric(sample_a, sample_b) -> float:
    """Symmetrised KL (J-divergence) between smoothed exposure histograms."""
    return _divergence(
        _exposure_histogram(np.asarray(sample_a, dtype=float)),
        _exposure_histogram(np.asarray(sample_b, dtype=float)),
    )


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
    hists = [_exposure_histogram(row[~np.isnan(row)]) for row in exposures.values]
    i_max = int(np.argmax(stm.values))
    i_min = int(np.argmin(stm.values))
    kl_star = _divergence(hists[i_max], hists[i_min])
    null = np.empty(n_null)
    m = len(hists)
    for k in range(n_null):
        i, j = rng.choice(m, size=2, replace=False)
        null[k] = _divergence(hists[i], hists[j])
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
