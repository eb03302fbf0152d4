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

import numpy as np
from scipy.optimize import minimize

# Below this |xi| the exponential (xi -> 0) form is used to avoid
# cancellation in (1 + xi z)^(-1/xi).
XI_SWITCH = 1e-6

# MLE search box for the shape; hitting a boundary is reported as
# non-convergence (the xi <= -1 likelihood is unbounded).
XI_MIN, XI_MAX = -0.9, 2.0


class EvdError(ValueError):
    """Raised for invalid distribution parameters or fitting preconditions."""


@dataclass(frozen=True)
class GpdParams:
    threshold: float
    scale: float
    shape: float

    def __post_init__(self):
        if not (np.isfinite(self.threshold) and np.isfinite(self.scale) and np.isfinite(self.shape)):
            raise EvdError("non-finite GPD parameters")
        if self.scale <= 0:
            raise EvdError(f"non-positive scale {self.scale}")

    @property
    def upper_endpoint(self) -> float:
        """Finite upper endpoint for shape < 0, +inf otherwise."""
        if self.shape < 0:
            return self.threshold - self.scale / self.shape
        return math.inf


def gpd_cdf(params: GpdParams, s) -> np.ndarray | float:
    """GPD non-exceedance probability; 0 below the threshold."""
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)):
        raise EvdError("non-finite evaluation point")
    z = (s - params.threshold) / params.scale
    xi = params.shape
    with np.errstate(invalid="ignore", divide="ignore"):
        if abs(xi) <= XI_SWITCH:
            p = 1.0 - np.exp(-np.clip(z, 0.0, None))
        else:
            xz = xi * np.clip(z, 0.0, None)
            p = np.where(xz > -1.0, -np.expm1(-np.log1p(np.maximum(xz, -1.0 + 1e-300)) / xi), 1.0)
    p = np.where(z < 0.0, 0.0, p)
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


def gpd_quantile(params: GpdParams, p) -> np.ndarray | float:
    """Inverse of gpd_cdf for p in [0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any((p < 0.0) | (p >= 1.0)):
        raise EvdError("quantile probability outside [0, 1)")
    xi = params.shape
    if abs(xi) <= XI_SWITCH:
        q = params.threshold - params.scale * np.log1p(-p)
    else:
        q = params.threshold + params.scale / xi * (np.power(1.0 - p, -xi) - 1.0)
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


def _check_exceedances(exceedances, threshold: float) -> np.ndarray:
    y = np.asarray(exceedances, dtype=float) - threshold
    if y.size and np.all(y == y[0]):
        raise EvdError("degenerate sample: all exceedances equal")
    if y.size < 5:
        raise EvdError(f"need at least 5 exceedances, got {y.size}")
    if np.any(y <= 0):
        raise EvdError("exceedances must lie strictly above the threshold")
    return y


def _nll(xi: float, log_sigma: float, y: np.ndarray) -> float:
    sigma = math.exp(log_sigma)
    if not (XI_MIN <= xi <= XI_MAX):
        return math.inf
    if abs(xi) <= XI_SWITCH:
        return y.size * log_sigma + float(np.sum(y)) / sigma
    arg = 1.0 + xi * y / sigma
    if np.any(arg <= 0.0):
        return math.inf
    return y.size * log_sigma + (1.0 + 1.0 / xi) * float(np.sum(np.log(arg)))


def _pwm_estimates(y: np.ndarray) -> tuple[float, float, float, float]:
    """Return (b0, b1, xi_hat, sigma_hat) from the excess sample y.

    b0 is the sample mean, b1 the probability-weighted moment estimating
    E[Y (1 - F(Y))] via the (n - i)/(n - 1) plotting positions on ascending
    order statistics. Estimator is undefined when b0 - 2 b1 <= 0.
    """
    y_sorted = np.sort(y)
    n = y_sorted.size
    b0 = float(np.mean(y_sorted))
    w = (n - 1.0 - np.arange(n)) / (n - 1.0)
    b1 = float(np.sum(w * y_sorted)) / n
    d = b0 - 2.0 * b1
    if d <= 0.0:
        return b0, b1, math.nan, math.nan
    k = b0 / d - 2.0
    sigma = 2.0 * b0 * b1 / d
    return b0, b1, -k, sigma


def fit_gpd_pwm(exceedances, threshold: float) -> FitReport:
    """Probability-weighted-moments fit of the GPD to threshold exceedances."""
    y = _check_exceedances(exceedances, threshold)
    b0, b1, xi, sigma = _pwm_estimates(y)
    if not np.isfinite(xi) or sigma <= 0:
        return FitReport(
            params=None, n=y.size, method="PWM", loglik=None, converged=False,
            iterations=0, message="PWM estimator undefined (b0 - 2*b1 <= 0)",
        )
    return FitReport(
        params=GpdParams(threshold=float(threshold), scale=sigma, shape=xi),
        n=y.size, method="PWM", loglik=None, converged=True, iterations=0,
    )


def fit_gpd_mle(exceedances, threshold: float) -> FitReport:
    """Maximum-likelihood fit of the GPD to threshold exceedances.

    Nelder-Mead over (shape, log scale) starting from the PWM estimate when
    that is valid and inside the search box, else from (0.1, mean excess).
    The support constraint is enforced by an infinite objective outside the
    feasible set; boundary-hitting in shape is reported as non-convergence.
    """
    y = _check_exceedances(exceedances, threshold)
    _, _, xi0, sigma0 = _pwm_estimates(y)
    if not (np.isfinite(xi0) and XI_MIN < xi0 < XI_MAX and sigma0 > 0
            and _nll(xi0, math.log(sigma0), y) < math.inf):
        xi0, sigma0 = 0.1, float(np.mean(y))
    res = minimize(
        lambda t: _nll(t[0], t[1], y),
        x0=np.array([xi0, math.log(sigma0)]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-10, "maxiter": 2000},
    )
    xi, log_sigma = float(res.x[0]), float(res.x[1])
    at_boundary = min(abs(xi - XI_MIN), abs(xi - XI_MAX)) < 1e-6
    if not res.success or at_boundary or not np.isfinite(res.fun):
        return FitReport(
            params=None, n=y.size, method="MLE", loglik=None, converged=False,
            iterations=int(res.nit),
            message="shape at search boundary" if at_boundary else str(res.message),
        )
    return FitReport(
        params=GpdParams(threshold=float(threshold), scale=math.exp(log_sigma), shape=xi),
        n=y.size, method="MLE", loglik=-float(res.fun), converged=True,
        iterations=int(res.nit),
    )


def fit_gpd(exceedances, threshold: float, method: str) -> FitReport:
    method = method.upper()
    if method == "MLE":
        return fit_gpd_mle(exceedances, threshold)
    if method == "PWM":
        return fit_gpd_pwm(exceedances, threshold)
    raise EvdError(f"unknown fit method {method!r}")
