"""Univariate posterior marginals on a grid.

A Marginal is a density tabulated on a strictly increasing support and
normalized so its trapezoid integral is one. Fitted quantities come out
of the engine as Gaussian mixtures over the hyperparameter grid; this
module turns those into Marginal objects and provides moments, quantiles
and monotone changes of variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import InvalidInputError, InvalidParameterError

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class Marginal:
    """Density values on a strictly increasing support grid."""

    support: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.support, dtype=float)
        d = np.asarray(self.density, dtype=float)
        if x.ndim != 1 or x.shape != d.shape or x.size < 2:
            raise InvalidInputError("support and density must be equal-length 1D arrays")
        if not np.all(np.diff(x) > 0):
            raise InvalidInputError("support must be strictly increasing")
        if np.any(d < 0) or not np.all(np.isfinite(d)):
            raise InvalidInputError("density must be finite and nonnegative")
        object.__setattr__(self, "support", x)
        object.__setattr__(self, "density", d)

    def integral(self) -> float:
        return float(np.trapezoid(self.density, self.support))

    def mean(self) -> float:
        return float(np.trapezoid(self.support * self.density, self.support))

    def variance(self) -> float:
        m = self.mean()
        second = np.trapezoid(self.support**2 * self.density, self.support)
        return float(max(second - m * m, 0.0))

    def sd(self) -> float:
        return float(np.sqrt(self.variance()))

    def quantile(self, q) -> np.ndarray | float:
        """Quantile(s) by linear interpolation of the cumulative integral."""
        q_arr = np.atleast_1d(np.asarray(q, dtype=float))
        if np.any((q_arr < 0) | (q_arr > 1)):
            raise InvalidParameterError("quantile levels must be in [0, 1]")
        x, d = self.support, self.density
        cdf = np.concatenate([[0.0], np.cumsum(np.diff(x) * (d[1:] + d[:-1]) / 2.0)])
        cdf /= cdf[-1]
        out = np.interp(q_arr, cdf, x)
        return out if np.ndim(q) else float(out[0])

    def summary(self) -> dict[str, float]:
        lo, hi = self.quantile([0.025, 0.975])
        return {
            "mean": self.mean(),
            "sd": self.sd(),
            "0.025quant": float(lo),
            "0.975quant": float(hi),
        }


def normalized(support: np.ndarray, density: np.ndarray) -> Marginal:
    """Build a Marginal, rescaling the density to integrate to one."""
    support = np.asarray(support, dtype=float)
    density = np.clip(np.asarray(density, dtype=float), 0.0, None)
    total = np.trapezoid(density, support)
    if not np.isfinite(total) or total <= 0:
        raise InvalidInputError("density does not integrate to a positive value")
    return Marginal(support=support, density=density / total)


def gaussian_mixture_marginal(
    means, variances, weights, n_points: int = 401, span: float = 6.0
) -> Marginal:
    """Marginal of a Gaussian mixture on n_points over mean +- span * sd.

    The support is the hull of the mixture-level span and every
    component's own span, so moments read off the grid stay accurate even
    when one component is wider than the mixture as a whole.
    """
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if np.any(variances < 0):
        raise InvalidInputError("mixture variances must be nonnegative")
    mix_mean = float(np.sum(weights * means))
    mix_var = float(np.sum(weights * (variances + means**2)) - mix_mean**2)
    mix_sd = np.sqrt(max(mix_var, 1e-300))
    comp_sd = np.sqrt(np.maximum(variances, 1e-300))
    lo = min(mix_mean - span * mix_sd, float(np.min(means - span * comp_sd)))
    hi = max(mix_mean + span * mix_sd, float(np.max(means + span * comp_sd)))
    x = np.linspace(lo, hi, n_points)
    sds = np.sqrt(np.maximum(variances, 1e-300))
    z = (x[None, :] - means[:, None]) / sds[:, None]
    dens = np.sum(
        weights[:, None] * np.exp(-0.5 * z**2) / (sds[:, None] * _SQRT_2PI), axis=0
    )
    return normalized(x, dens)


def probit_mixture_marginal(
    means, variances, weights, n_points: int = 401, span: float = 6.0
) -> Marginal:
    """Marginal of p = Phi(eta) for a Gaussian mixture eta, from its CDF.

    The CDF of p is F(q) = sum_g w_g Phi((Phi^{-1}(q) - m_g) / s_g). The
    support is Phi of n_points over every component's mean +- span * sd,
    points where Phi rounds to one value merged. The density at a point
    is the mass F puts between its two neighbours over their distance,
    so it stays finite and nonnegative where Phi is flat in double
    precision, and the mass on a uniform stretch of support is exact.
    """
    means = np.asarray(means, dtype=float)
    sds = np.sqrt(np.maximum(np.asarray(variances, dtype=float), 1e-300))
    weights = np.asarray(weights, dtype=float)
    # Phi(7) = 1 - 1.3e-12 is still below one, so the support keeps
    # distinct points however far into the upper tail the mixture sits.
    lo = min(float(np.min(means - span * sds)), 7.0)
    hi = max(float(np.max(means + span * sds)), -7.0)
    q = np.unique(ndtr(np.linspace(lo, hi, n_points)))
    cdf = weights @ ndtr((ndtri(q)[None, :] - means[:, None]) / sds[:, None])
    j = np.arange(q.size)
    up, down = np.minimum(j + 1, q.size - 1), np.maximum(j - 1, 0)
    return normalized(q, (cdf[up] - cdf[down]) / (q[up] - q[down]))


def gaussian_marginal(mean: float, sd: float, n_points: int = 401, span: float = 6.0) -> Marginal:
    return gaussian_mixture_marginal([mean], [sd * sd], [1.0], n_points, span)


def mixture_moments(means, variances, weights) -> tuple[float, float]:
    """Analytic (mean, variance) of a Gaussian mixture."""
    means = np.asarray(means, dtype=float)
    variances = np.asarray(variances, dtype=float)
    weights = np.asarray(weights, dtype=float)
    m = float(np.sum(weights * means))
    v = float(np.sum(weights * (variances + means**2)) - m * m)
    return m, max(v, 0.0)


def transform_marginal(
    m: Marginal,
    f: Callable[[np.ndarray], np.ndarray],
    deriv: Callable[[np.ndarray], np.ndarray],
) -> Marginal:
    """Change of variables through a strictly monotone differentiable map
    f, with the Jacobian from its exact derivative deriv."""
    x = m.support
    y = np.asarray(f(x), dtype=float)
    dy = np.diff(y)
    if np.all(dy > 0):
        increasing = True
    elif np.all(dy < 0):
        increasing = False
    else:
        raise InvalidParameterError("map is not strictly monotone on the support")
    jac = np.abs(np.asarray(deriv(x), dtype=float))
    if np.any(jac <= 0) or not np.all(np.isfinite(jac)):
        raise InvalidParameterError("map derivative vanishes or is not finite on the support")
    dens = m.density / jac
    if not increasing:
        y, dens = y[::-1], dens[::-1]
    return normalized(y, dens)


def combine_on_common_support(
    marginals: list[Marginal], weights, n_points: int = 801
) -> Marginal:
    """Probability-weighted mixture of marginals on a shared grid.

    Each component is linearly interpolated onto the union hull of the
    supports (zero outside its own support) and renormalized there before
    mixing, so the mixture integrates to one and is linear in the
    component densities.
    """
    if not marginals:
        raise InvalidInputError("no marginals to combine")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(marginals),):
        raise InvalidInputError("one weight per marginal required")
    lo = min(mm.support[0] for mm in marginals)
    hi = max(mm.support[-1] for mm in marginals)
    x = np.linspace(lo, hi, n_points)
    dens = np.zeros_like(x)
    for w_i, mm in zip(weights, marginals):
        d_i = np.interp(x, mm.support, mm.density, left=0.0, right=0.0)
        total = np.trapezoid(d_i, x)
        if total <= 0:
            raise InvalidInputError("component marginal lost all mass in regridding")
        dens += w_i * d_i / total
    return Marginal(support=x, density=dens / np.sum(weights))
