"""Generalised Pareto tail model for space-time maxima.

Provides the GPD CDF/quantile with a numerically stable exponential branch,
and maximum-likelihood and probability-weighted-moment estimation of (scale,
shape) for threshold excesses.

Sign convention: shape xi > 0 gives a heavy upper tail; for xi < 0 the upper
endpoint threshold - scale/xi is finite.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

METHODS = ("MLE", "PWM")

# Below this |xi| the exponential (xi -> 0) form is used to avoid
# cancellation in (1 + xi z)^(-1/xi).
XI_SWITCH = 1e-6

# MLE search box for the shape; hitting a boundary is reported as
# non-convergence (the xi <= -1 likelihood is unbounded).
XI_MIN, XI_MAX = -0.9, 2.0

# The MLE search samples the profile likelihood at GRID_POINTS on each side
# of theta = shape / scale = 0 and refines the best point it climbs to by
# GOLDEN_STEPS golden-section steps. theta stays POLE_GAP (relative) above
# the pole -1 / max(excess), where log1p(theta * excess) loses precision.
GRID_POINTS = 32
GOLDEN_STEPS = 40
POLE_GAP = 1e-8

# The fewest exceedances a tail fit takes.
MIN_TAIL_N = 5


class EvdError(ValueError):
    """Raised for invalid distribution parameters or fitting preconditions."""


@dataclass(frozen=True)
class GpdParams:
    threshold: float
    scale: float
    shape: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.threshold, self.scale, self.shape))):
            raise EvdError("non-finite GPD parameters")
        if self.scale <= 0:
            raise EvdError(f"non-positive scale {self.scale}")

    def arrays(self) -> np.ndarray:
        """Threshold, scale and shape as the one-entry rows the batched calls take."""
        return np.array([[self.threshold], [self.scale], [self.shape]])


def gpd_cdf_rows(threshold, scale, shape, s) -> np.ndarray:
    """GPD non-exceedance probability at each row of the 2-D array s under
    that row's parameters, 1-D arrays with an entry per row (or one for all
    rows); 0 below the threshold. A row takes the XI_SWITCH branch of its
    shape, and each branch is evaluated on its own rows alone."""
    exponential = np.abs(shape) <= XI_SWITCH
    if exponential.any() and not exponential.all():
        p = np.empty(s.shape)
        for rows in (exponential, ~exponential):
            p[rows] = gpd_cdf_rows(threshold[rows], scale[rows], shape[rows], s[rows])
        return p
    if not np.all(np.isfinite(s)):
        raise EvdError("non-finite evaluation point")
    z = (s - threshold[:, None]) / scale[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        if exponential[0]:
            p = 1.0 - np.exp(-np.clip(z, 0.0, None))
        else:
            xi = shape[:, None]
            xz = xi * np.clip(z, 0.0, None)
            p = np.where(xz > -1.0, -np.expm1(-np.log1p(np.maximum(xz, -1.0 + 1e-300)) / xi), 1.0)
    return np.where(z < 0.0, 0.0, p)


def gpd_cdf(params: GpdParams, s) -> np.ndarray | float:
    """GPD non-exceedance probability; 0 below the threshold."""
    s = np.asarray(s, dtype=float)
    p = gpd_cdf_rows(*params.arrays(), s.reshape(1, -1)).reshape(s.shape)
    return p if p.ndim else float(p)


def gpd_pdf(params: GpdParams, s) -> np.ndarray | float:
    """GPD density; 0 outside the support."""
    s = np.asarray(s, dtype=float)
    z = (s - params.threshold) / params.scale
    xi = params.shape
    with np.errstate(invalid="ignore", divide="ignore"):
        if abs(xi) <= XI_SWITCH:
            d = np.exp(-np.clip(z, 0.0, None)) / params.scale
        else:
            arg = 1.0 + xi * z
            d = np.where(
                arg > 0.0,
                np.power(np.maximum(arg, 1e-300), -1.0 / xi - 1.0) / params.scale,
                0.0,
            )
    d = np.where(z < 0.0, 0.0, d)
    return d if d.ndim else float(d)


def gpd_quantile_rows(threshold, scale, shape, p) -> np.ndarray:
    """Inverse of gpd_cdf_rows for p in [0, 1), p broadcasting against the rows."""
    if np.any((p < 0.0) | (p >= 1.0)):
        raise EvdError("quantile probability outside [0, 1)")
    threshold, scale, xi = threshold[:, None], scale[:, None], shape[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(np.abs(xi) <= XI_SWITCH, threshold - scale * np.log1p(-p),
                        threshold + scale / xi * (np.power(1.0 - p, -xi) - 1.0))


def gpd_quantile(params: GpdParams, p) -> np.ndarray | float:
    """Inverse of gpd_cdf for p in [0, 1)."""
    p = np.asarray(p, dtype=float)
    q = gpd_quantile_rows(*params.arrays(), p.reshape(1, -1)).reshape(p.shape)
    return q if q.ndim else float(q)


@dataclass(frozen=True)
class FitReport:
    params: GpdParams | None
    n: int
    method: str  # "MLE" | "PWM"
    loglik: float | None
    converged: bool
    iterations: int
    message: str = ""

    def to_json(self) -> str:
        fields = asdict(self)
        params = fields.pop("params") or dict.fromkeys(("threshold", "scale", "shape"))
        return json.dumps({**params, **fields})


class GpdFits(NamedTuple):
    """The fits of a batch's rows, a column per field. A row that cannot be
    fitted has an `error`, a fit that did not converge a `message` ("" for
    none), and either has NaN parameters. PWM has NaN loglik, 0 iterations."""

    threshold: np.ndarray
    scale: np.ndarray
    shape: np.ndarray
    loglik: np.ndarray
    iterations: np.ndarray
    error: np.ndarray  # str objects
    message: np.ndarray  # str objects

    def take(self, rows) -> GpdFits:
        """The fits of `rows` alone."""
        return GpdFits(*(column[rows] for column in self))


def _row_errors(y: np.ndarray) -> np.ndarray:
    """Why each row of excesses y cannot be fitted, or "" when it can."""
    n = y.shape[1]
    degenerate = np.all(y == y[:, :1], axis=1) if n else np.zeros(len(y), bool)
    return np.array([
        "degenerate sample: all exceedances equal" if equal
        else f"need at least {MIN_TAIL_N} exceedances, got {n}" if n < MIN_TAIL_N
        else "exceedances must lie strictly above the threshold" if below
        else ""
        for equal, below in zip(degenerate.tolist(), np.any(y <= 0, axis=1).tolist())
    ], dtype=object)


def _pwm_estimates(y: np.ndarray):
    """Return (b0, b1, xi_hat, sigma_hat) for each excess sample along the
    last axis of y.

    b0 is the sample mean, b1 the probability-weighted moment estimating
    E[Y (1 - F(Y))] via the (n - i)/(n - 1) plotting positions on ascending
    order statistics. Estimator is undefined (NaN) when b0 - 2 b1 <= 0.
    """
    y_sorted = np.sort(y, axis=-1)
    n = y_sorted.shape[-1]
    b0 = np.mean(y_sorted, axis=-1)
    w = (n - 1.0 - np.arange(n)) / (n - 1.0)
    b1 = np.sum(w * y_sorted, axis=-1) / n
    d = b0 - 2.0 * b1
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(d > 0.0, b0 / d - 2.0, np.nan)
        sigma = np.where(d > 0.0, 2.0 * b0 * b1 / d, np.nan)
    return b0, b1, -k, sigma


def _profile(theta: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row's GPD log-likelihood at theta = shape / scale, maximised over
    the rest (Grimshaw 1993), less the constant n*log(n) - n: with s =
    sum(log1p(theta * y)), the shape is s / n and the scale s / (n * theta).
    theta must not be 0."""
    s = np.log1p(theta[:, None] * y).sum(axis=1)
    return -y.shape[1] * np.log(s / theta) - s


def _theta_for_shape(target: float, y: np.ndarray) -> np.ndarray:
    """The theta at which each row's profile shape mean(log1p(theta * y))
    equals target, by Newton's method from theta = 0. The shape increases
    and is concave in theta, so every step lands left of the root, and from
    there the steps rise to it. Theta stays above the floor
    (1 - POLE_GAP) * (-1 / max(y)), next to the pole where log1p(theta * y)
    loses precision: no step goes more than halfway to it, and a row whose
    root lies beyond it yields the floor."""
    n = y.shape[1]
    floor = -(1.0 - POLE_GAP) / np.max(y, axis=1)
    done = np.log1p(floor[:, None] * y).sum(axis=1) / n >= target
    theta = np.where(done, floor, 0.0)
    rows = np.flatnonzero(~done)  # only rows not yet within 1e-13 take a step
    for _ in range(100):
        u = theta[rows, None] * y[rows]
        gap = target - np.log1p(u).sum(axis=1) / n
        going = ~(np.abs(gap) <= 1e-13)
        rows, u, gap = rows[going], u[going], gap[going]
        if not rows.size:
            break
        step = gap / (y[rows] / (1.0 + u)).sum(axis=1) * n
        theta[rows] = np.maximum(theta[rows] + step, 0.5 * (theta[rows] + floor[rows]))
    return theta


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _mle_rows(y: np.ndarray, xi0: np.ndarray, sigma0: np.ndarray):
    """Maximum-likelihood (shape, scale, log-likelihood, iterations) of each
    row of excesses y, by a local search of the profile likelihood in theta =
    shape / scale over the theta interval that maps to [XI_MIN, XI_MAX].

    The search starts at the grid point nearest theta0 = xi0 / sigma0, climbs
    the grid to the nearest local maximum, and refines it by golden-section
    steps between that point's neighbours. iterations counts the grid steps
    climbed and the golden-section steps. Only one theta per row is
    evaluated at a time, so memory stays that of y.

    Where the pole gap cuts the interval short of XI_MIN, nothing is lost:
    there the shape's derivative in theta is so large that the likelihood,
    for shapes above -1, falls toward the pole, so no maximum lies beyond.
    """
    rows = np.arange(len(y))
    n = y.shape[1]
    lo, hi = _theta_for_shape(XI_MIN, y), _theta_for_shape(XI_MAX, y)
    side = np.linspace(0.0, 1.0, GRID_POINTS + 1)[1:]
    grid = np.column_stack([lo[:, None] * side[::-1], np.zeros(len(y)), hi[:, None] * side])
    loglik = np.column_stack(
        [_profile(theta, y) for theta in grid[:, :GRID_POINTS].T]
        + [-n * np.log(np.sum(y, axis=1))]  # the exponential limit at theta = 0
        + [_profile(theta, y) for theta in grid[:, GRID_POINTS + 1 :].T]
    )
    start = np.argmin(np.abs(grid - np.clip(xi0 / sigma0, lo, hi)[:, None]), axis=1)
    at = start
    last = grid.shape[1] - 1
    while True:
        left = loglik[rows, np.maximum(at - 1, 0)]
        right = loglik[rows, np.minimum(at + 1, last)]
        here = loglik[rows, at]
        step = np.where((right > here) & (right >= left), 1, np.where(left > here, -1, 0))
        if not step.any():
            break
        at = at + step
    a, b = grid[rows, np.maximum(at - 1, 0)], grid[rows, np.minimum(at + 1, last)]
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = _profile(c, y), _profile(d, y)
    for _ in range(GOLDEN_STEPS):
        left = fc > fd  # the maximum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        new = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        f_new = _profile(new, y)
        c, fc = np.where(left, new, kept), np.where(left, f_new, f_kept)
        d, fd = np.where(left, kept, new), np.where(left, f_kept, f_new)
    theta = np.where(fc > fd, c, d)
    xi = np.log1p(theta[:, None] * y).sum(axis=1) / n
    sigma = xi / theta
    loglik = -n * np.log(sigma) - n * (1.0 + xi)
    return xi, sigma, loglik, np.abs(at - start) + GOLDEN_STEPS


def fit_gpd_rows(exceedances, thresholds, method: str) -> GpdFits:
    """Fit the GPD to each row of a k x n array of exceedances over its own
    threshold, by maximum likelihood ("MLE") or probability-weighted moments
    ("PWM"); a row's fit does not depend on the other rows.

    MLE starts from the PWM estimate when that is valid, inside the search
    box and supports the sample, else from (0.1, mean excess); see _mle_rows.
    A shape within 1e-6 of XI_MIN or XI_MAX is reported as non-convergence.
    """
    method = method.upper()
    if method not in METHODS:
        raise EvdError(f"unknown fit method {method!r}")
    threshold = np.asarray(thresholds, dtype=float)
    y = np.asarray(exceedances, dtype=float) - threshold[:, None]
    error = _row_errors(y)
    scale, shape, loglik = (np.full(len(y), np.nan) for _ in range(3))
    iterations = np.zeros(len(y), dtype=int)
    message = np.full(len(y), "", dtype=object)
    rows = np.flatnonzero(error == "")
    if rows.size:
        y = y[rows]
        _, _, xi, sigma = _pwm_estimates(y)
        if method == "MLE":
            with np.errstate(invalid="ignore"):
                feasible = np.all(1.0 + xi[:, None] * y / sigma[:, None] > 0.0, axis=1)
                start = (np.isfinite(xi) & (XI_MIN < xi) & (xi < XI_MAX) & (sigma > 0)
                         & ((np.abs(xi) <= XI_SWITCH) | feasible))
            xi0 = np.where(start, xi, 0.1)
            sigma0 = np.where(start, sigma, np.mean(y, axis=1))
            xi, sigma, loglik[rows], iterations[rows] = _mle_rows(y, xi0, sigma0)
            failed = np.minimum(np.abs(xi - XI_MIN), np.abs(xi - XI_MAX)) < 1e-6
            message[rows[failed]] = "shape at search boundary"
        else:
            failed = ~(np.isfinite(xi) & (sigma > 0))
            message[rows[failed]] = "PWM estimator undefined (b0 - 2*b1 <= 0)"
        loglik[rows[failed]] = np.nan
        shape[rows[~failed]], scale[rows[~failed]] = xi[~failed], sigma[~failed]
    return GpdFits(threshold, scale, shape, loglik, iterations, error, message)


def fit_gpd(exceedances, threshold: float, method: str) -> FitReport:
    """Fit of the GPD to one sample of threshold exceedances: a view of the
    one-row call of fit_gpd_rows, raising the EvdError of a sample it cannot
    fit."""
    x = np.reshape(exceedances, (1, -1))
    fits = fit_gpd_rows(x, [threshold], method)
    (error,), (message,), (loglik,) = fits.error, fits.message, fits.loglik.tolist()
    if error:
        raise EvdError(error)
    return FitReport(
        params=None if message else GpdParams(*(float(column[0]) for column in fits[:3])),
        n=x.shape[1], method=method.upper(), loglik=None if math.isnan(loglik) else loglik,
        converged=not message, iterations=int(fits.iterations[0]), message=message,
    )


def fit_gpd_pwm(exceedances, threshold: float) -> FitReport:
    """Probability-weighted-moments fit of the GPD to threshold exceedances."""
    return fit_gpd(exceedances, threshold, "PWM")


def fit_gpd_mle(exceedances, threshold: float) -> FitReport:
    """Maximum-likelihood fit of the GPD to threshold exceedances; see
    fit_gpd_rows."""
    return fit_gpd(exceedances, threshold, "MLE")
