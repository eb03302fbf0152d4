"""Diagnostics for the STM-E modelling assumptions.

Checks that (i) the space-time maximum carries no spatial trend over the
region and (ii) per-location exposure does not depend on STM magnitude:
Kendall's tau between STM and exposure against its Gaussian null band,
permutation tests for linear STM trends along oriented transects, a
Kullback-Leibler comparison of extreme-STM exposure profiles against a
random-pair null, and KS aggregation of the resulting probabilities.

Kendall's tau-b comes from integer pair counts and the exposure profiles
from one bincount, for all locations or events at once. The KS aggregation
(`ks_uniformity`, which `stme diagnostics` runs with five or more
orientations) takes its exact p-value from Durbin's matrix formula.
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
# Cells per block of the tau-b pair counts and of the exposure profiles, and
# null pairs per block of the KL test: bound their temporaries.
TAU_BLOCK_CELLS = 1 << 14
KL_BLOCK_PAIRS = 1 << 12
# KlResult.null_sample holds every null divergence: at most 128 MiB of them.
KL_NULL_MAX_BYTES = 1 << 27
# The fewest events a transect trend test takes, and p-values a KS test.
MIN_TREND_EVENTS, MIN_KS_PROBABILITIES = 10, 5


class DiagnosticsError(ValueError):
    """Raised for invalid diagnostic inputs."""


def kendall_tau_null_sd(n: int) -> float:
    """Standard deviation of Kendall's tau under independence (no ties)."""
    if n < 3:
        raise DiagnosticsError(f"need n >= 3, got {n}")
    return math.sqrt(2.0 * (2.0 * n + 5.0) / (9.0 * n * (n - 1.0)))


def check_band(band: float):
    """Raises unless 0 < band < 1."""
    if not 0.0 < band < 1.0:
        raise DiagnosticsError(f"band {band} outside (0, 1)")


def check_sample_sizes(n_perm: int = 99, n_null: int = 100):
    """Raises unless n_perm >= 99 and 100 <= n_null <= KL_NULL_MAX_BYTES / 8."""
    if n_perm < 99:
        raise DiagnosticsError(f"need n_perm >= 99, got {n_perm}")
    if n_null < 100:
        raise DiagnosticsError(f"need n_null >= 100, got {n_null}")
    if n_null * 8 > KL_NULL_MAX_BYTES:
        raise DiagnosticsError(f"need n_null <= {KL_NULL_MAX_BYTES // 8} (null sample cap "
                               f"{KL_NULL_MAX_BYTES} bytes), got {n_null}")


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


def tau_map(stm: StmSeries, exposures: ExposureMatrix,
            band: float = 0.90) -> tuple[list[TauResult], float]:
    """Per-location Kendall's tau between STM and exposure, flagged against the
    Gaussian independence band. Returns the results and the exceedance
    fraction (locations outside the band / locations tested)."""
    check_band(band)
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
        flag = "above" if tau > z_crit * sd else "below" if tau < -z_crit * sd else "inside"
        n_outside += flag != "inside"
        results.append(TauResult(loc, tau, sd, band, flag, n))
    if not results:
        raise DiagnosticsError("no location with enough data for Kendall's tau")
    return results, n_outside / len(results)


def trend_permutation_test(stm: StmSeries, lons, lats, orientation_deg: float, n_perm: int = 999,
                           rng: np.random.Generator | None = None) -> float:
    """Permutation p-value for a linear STM trend along an oriented transect.

    The statistic is the least-squares slope of STM against the coordinate
    projection lon*cos(theta) + lat*sin(theta); the null distribution comes
    from random permutations of the STM values, two-sided on |slope|.
    """
    if len(stm) < MIN_TREND_EVENTS:
        raise DiagnosticsError(f"need >= {MIN_TREND_EVENTS} events, got {len(stm)}")
    check_sample_sizes(n_perm=n_perm)
    if rng is None:
        rng = np.random.default_rng()
    theta = math.radians(orientation_deg)
    proj = (np.asarray(lons, dtype=float) * math.cos(theta)
            + np.asarray(lats, dtype=float) * math.sin(theta))
    proj_c = proj - proj.mean()
    ss = float(np.sum(proj_c**2))
    if ss == 0.0:
        raise DiagnosticsError("degenerate coordinates: all projections equal")
    values = stm.values - stm.values.mean()
    slope_obs = float(proj_c @ values) / ss
    n_ge = 0
    for start in range(0, n_perm, 128):  # permutations in blocks of rows, to bound memory
        perms = np.array([rng.permutation(values) for _ in range(min(128, n_perm - start))])
        n_ge += int(np.sum(np.abs(perms @ proj_c / ss) >= abs(slope_obs)))
    return (1 + n_ge) / (n_perm + 1)


@dataclass(frozen=True)
class KlResult:
    location_id: int
    n_events: int
    kl_star: float
    null_sample: np.ndarray
    non_exceedance: float  # fraction of the null at or below kl_star


def exposure_profiles(exposures: np.ndarray) -> np.ndarray:
    """The smoothed KL_BINS-bin histogram on [0, 1] of each row's non-NaN
    values, as a rows x KL_BINS array of probabilities. Each row equals
    np.histogram(row, KL_BINS, (0, 1)) bit for bit, by its rule for uniform
    bins: index floor(x * KL_BINS), corrected by one across a bin edge, 1.0
    in the last bin, values outside [0, 1] left out. The rows are counted by
    one bincount per block of at most TAU_BLOCK_CELLS cells."""
    n_rows, n_cols = exposures.shape
    edges = np.linspace(0.0, 1.0, KL_BINS + 1)
    counts = np.empty((n_rows, KL_BINS), dtype=np.int64)
    block = max(1, TAU_BLOCK_CELLS // max(1, n_cols))
    for start in range(0, n_rows, block):
        values = exposures[start:start + block]
        kept = np.flatnonzero((values >= 0.0) & (values <= 1.0))
        x = values.ravel()[kept]
        index = (x * KL_BINS).astype(np.intp)
        index[index == KL_BINS] -= 1
        index[x < edges[index]] -= 1
        index[(x >= edges[index + 1]) & (index != KL_BINS - 1)] += 1
        counts[start:start + block] = np.bincount(
            kept // n_cols * KL_BINS + index, minlength=len(values) * KL_BINS
        ).reshape(-1, KL_BINS)
    smoothed = counts + KL_SMOOTHING
    return smoothed / smoothed.sum(axis=1, keepdims=True)


def _divergences(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Symmetrised KL (J-divergence) between profiles along the last axis."""
    return np.sum((p - q) * np.log(p / q), axis=-1)


def kl_profile_test(profiles: np.ndarray, stm: StmSeries, location_id: int, n_null: int = 1000,
                    rng: np.random.Generator | None = None) -> KlResult:
    """exposure_kl_test on the events' exposure profiles, one row per event of
    stm as exposure_profiles gives them, so the exposure matrix can go first.

    The null pairs are one rng.choice(events, 2, replace=False) each, drawn in
    order; their divergences are computed KL_BLOCK_PAIRS pairs at a time."""
    check_sample_sizes(n_null=n_null)
    if len(stm) < 3:
        raise DiagnosticsError("need at least 3 events")
    if rng is None:
        rng = np.random.default_rng()
    kl_star = float(_divergences(*profiles[[np.argmax(stm.values), np.argmin(stm.values)]]))
    null = np.empty(n_null)
    m = len(profiles)
    for start in range(0, n_null, KL_BLOCK_PAIRS):
        pairs = np.array([rng.choice(m, size=2, replace=False)
                          for _ in range(min(KL_BLOCK_PAIRS, n_null - start))])
        null[start:start + len(pairs)] = _divergences(profiles[pairs[:, 0]], profiles[pairs[:, 1]])
    return KlResult(
        location_id=int(location_id), n_events=m, kl_star=kl_star,
        null_sample=null, non_exceedance=float(np.mean(null <= kl_star)),
    )


def exposure_kl_test(exposures: ExposureMatrix, stm: StmSeries, location_id: int,
                     n_null: int = 1000, rng: np.random.Generator | None = None) -> KlResult:
    """Tests whether a location's extreme-STM exposure profiles are typical.

    A cyclone's exposure sample is its exposures over all region locations.
    kl_star is the symmetrised KL divergence between the samples of the
    largest-STM and smallest-STM cyclones; the null comes from n_null random
    distinct event pairs. location_id labels the report (the profile spans
    the whole region).
    """
    _check_same_events(stm, exposures)
    return kl_profile_test(exposure_profiles(exposures.values), stm, location_id, n_null, rng)


def _durbin_matrix(k: int, h: float) -> np.ndarray:
    """The (2k - 1)-square H of Durbin's P(D_n < d) = n!/n^n (H^n)[k-1, k-1]
    for n d = k - h, 0 <= h < 1 (Marsaglia, Tsang & Wang 2003, JSS 8(18))."""
    m = 2 * k - 1
    # integer true division rounds 1/g! correctly, to 0.0 past g = 177
    inv_fact = np.array([1 / math.factorial(g) for g in range(m + 1)])
    i = np.arange(m)
    g = i[:, None] - i + 1
    H = np.where(g >= 0, inv_fact[np.maximum(g, 0)], 0.0)
    H[:, 0] -= h ** (i + 1) * inv_fact[i + 1]
    H[-1] -= h ** (m - i) * inv_fact[m - i]
    H[-1, 0] += max(0.0, 2.0 * h - 1.0) ** m * inv_fact[m]
    return H


def _kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n >= d), D_n the two-sided KS statistic of n uniform draws. 2(1 - d)^n
    is exact for d >= 1 - 1/n, and within 2 exp(-36) = 4.6e-16 (DKW, Massart's
    constant) for n d^2 >= 18, which caps H at 2 ceil(sqrt(18 n)) + 1 rows."""
    if d <= 0.5 / n:
        return 1.0
    if d >= 1.0 - 1.0 / n or n * d * d >= 18.0:
        return 2.0 * (1.0 - d) ** n
    k = math.ceil(n * d)
    H = _durbin_matrix(k, k - n * d)
    power, e = H, 0  # H^n = power * 10^e, squared from the leading bit of n
    for bit in bin(n)[3:]:
        power, e = power @ power, 2 * e
        if bit == "1":
            power = power @ H
        if power[k - 1, k - 1] > 1e140:
            power, e = power * 1e-140, e + 140
    s = power[k - 1, k - 1]
    for i in range(1, n + 1):  # times n!/n^n
        s = s * i / n
        if s < 1e-140:
            s, e = s * 1e140, e - 140
    return min(1.0, max(0.0, 1.0 - s * 10.0 ** e))


def ks_uniformity(probs) -> tuple[float, float]:
    """One-sample KS test of probabilities against Uniform[0, 1]: D = max(D+,
    D-) by scipy.stats.kstest's arithmetic, and its exact two-sided p-value."""
    probs = np.asarray(probs, dtype=float)
    if probs.size < MIN_KS_PROBABILITIES:
        raise DiagnosticsError(f"need >= {MIN_KS_PROBABILITIES} probabilities, got {probs.size}")
    if np.any((probs < 0.0) | (probs > 1.0)):
        raise DiagnosticsError("probabilities outside [0, 1]")
    x, n = np.sort(probs, axis=None), probs.size
    d = float(max((np.arange(1.0, n + 1) / n - x).max(), (x - np.arange(0.0, n) / n).max()))
    return d, _kolmogorov_sf(n, d)
