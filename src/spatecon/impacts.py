"""Average direct, indirect and total impacts.

The n x n impact matrix of covariate r is model dependent:

    SEM        : beta_r I
    SLM        : (I - rho W)^{-1} beta_r
    SDM        : (I - rho W)^{-1} (beta_r I + gamma_r W)
    SDEM, SLX  : beta_r I + gamma_r W

Average direct impact = trace / n, average total = grand sum / n,
indirect = total - direct. For SEM/SDEM/SLX the averages are linear in
the coefficients and inference is exact. For SLM/SDM the posterior of
the average impact is approximated by treating the rho-dependent factor
and the coefficient factor as independent, combining their means and
variances with the exact product-moment formulas, and reporting a
Gaussian with those moments. Probit impacts are the Gaussian-case
impacts scaled by the average standard-normal density of the linear
predictor at its posterior mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import marginals as mg
from .engine import FitResult
from .errors import InvalidInputError, InvalidParameterError, NumericFailureError
from .marginals import Marginal
from .weights import WeightsMatrix

_DENSE_TRACE_LIMIT = 2000
_SERIES_TERMS = 50


def impact_matrix_dense(
    kind: str, w: WeightsMatrix, rho: float, beta_r: float, gamma_r: float = 0.0
) -> np.ndarray:
    """Dense impact matrix; the verification oracle for the averages."""
    kind = kind.lower()
    n = w.n
    if kind == "sem":
        return beta_r * np.eye(n)
    if kind in ("sdem", "slx"):
        return beta_r * np.eye(n) + gamma_r * w.toarray()
    if kind in ("slm", "sdm"):
        if kind == "slm":
            gamma_r = 0.0
        a = np.eye(n) - rho * w.toarray()
        rhs = beta_r * np.eye(n) + gamma_r * w.toarray()
        try:
            return np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericFailureError(f"(I - rho W) singular at rho = {rho}") from exc
    raise InvalidParameterError(f"unknown model kind {kind!r}")


def trace_functions(
    w: WeightsMatrix, rho_values, method: str = "auto", series_terms: int = _SERIES_TERMS
) -> tuple[np.ndarray, np.ndarray]:
    """(tr((I - rho W)^{-1})/n, tr((I - rho W)^{-1} W)/n) for each rho.

    For n <= 2000 a single eigendecomposition of W serves all rho values;
    beyond that a truncated Neumann series in exact traces of W^k is used
    (valid for |rho| * spectral radius < 1; the truncation tail bound is
    |rho|^{K+1} / (1 - |rho|) for a row-standardized matrix).
    """
    rho_values = np.atleast_1d(np.asarray(rho_values, dtype=float))
    n = w.n
    if method == "auto":
        method = "eig" if n <= _DENSE_TRACE_LIMIT else "series"
    if method == "eig":
        lam = w.eigenvalues()
        denom = 1.0 - rho_values[:, None] * lam[None, :]
        if np.any(np.abs(denom) < 1e-12):
            raise NumericFailureError("rho hits a reciprocal eigenvalue of W")
        t1 = np.real(np.sum(1.0 / denom, axis=1)) / n
        t2 = np.real(np.sum(lam[None, :] / denom, axis=1)) / n
        return t1, t2
    if method != "series":
        raise InvalidParameterError(f"unknown trace method {method!r}")
    radius_bound = min(
        float(np.max(np.abs(w.mat).sum(axis=1))), float(np.max(np.abs(w.mat).sum(axis=0)))
    )
    bad = np.abs(rho_values) * radius_bound
    if np.any(bad >= 1.0):
        raise NumericFailureError(
            f"power series diverges: |rho| * spectral-radius bound = {bad.max():.3f} >= 1"
        )
    moments = w.trace_moments(series_terms)  # tr(W^k)/n, k = 0..K, cached on w
    powers = rho_values[:, None] ** np.arange(series_terms + 1)[None, :]
    t1 = powers @ moments
    t2 = powers[:, :-1] @ moments[1:]
    tail = np.abs(rho_values) ** (series_terms + 1) / (1.0 - np.abs(rho_values))
    if np.any(tail > 1e-8):
        import warnings

        warnings.warn(
            f"trace series truncated at K = {series_terms}; "
            f"worst tail bound {tail.max():.2e}",
            stacklevel=2,
        )
    return t1, t2


def product_moments(mu_x: float, sd_x: float, mu_y: float, sd_y: float) -> tuple[float, float]:
    """Mean and sd of the product of two independent random variables."""
    if sd_x < 0 or sd_y < 0:
        raise InvalidParameterError("standard deviations must be nonnegative")
    mean = mu_x * mu_y
    var = (mu_x * sd_y) ** 2 + (mu_y * sd_x) ** 2 + (sd_x * sd_y) ** 2
    return mean, math.sqrt(var)


@dataclass(frozen=True)
class ImpactStat:
    mean: float
    sd: float
    marginal: Marginal | None


def _gaussian_stat(mean: float, sd: float) -> ImpactStat:
    """Gaussian summary; a degenerate sd yields a point mass (no marginal)."""
    if sd <= 1e-12 * max(1.0, abs(mean)):
        return ImpactStat(mean, sd, None)
    return ImpactStat(mean, sd, mg.gaussian_marginal(mean, sd))


@dataclass(frozen=True)
class ImpactSummary:
    covariate: str
    method: str  # "exact" or "gaussian_product"
    direct: ImpactStat
    indirect: ImpactStat
    total: ImpactStat


def _scaled(stat: ImpactStat, s: float) -> ImpactStat:
    marg = None
    if stat.marginal is not None and s != 1.0:
        marg = mg.transform_marginal(
            stat.marginal, lambda x: s * x, deriv=lambda x: np.full_like(x, s)
        )
    elif stat.marginal is not None:
        marg = stat.marginal
    return ImpactStat(mean=s * stat.mean, sd=abs(s) * stat.sd, marginal=marg)


def probit_scaling(fit: FitResult) -> float:
    """Average standard-normal density at the posterior-mean linear predictor."""
    if fit.likelihood != "probit":
        raise InvalidInputError("probit_scaling applies to probit fits")
    eta = fit.eta_mean
    return float(np.mean(np.exp(-0.5 * eta * eta)) / math.sqrt(2.0 * math.pi))


def _coef_stat(fit: FitResult, name: str) -> ImpactStat:
    mean, var = fit.coef_moments(name)
    return ImpactStat(mean, math.sqrt(var), fit.coef_marginal(name))


def average_impacts_exact(fit: FitResult, covariate: str) -> ImpactSummary:
    """Exact impact averages for SEM, SDEM and SLX."""
    kind = fit.kind
    if kind not in ("sem", "sdem", "slx"):
        raise InvalidParameterError(f"exact impacts are not available for {kind!r}")
    direct = _coef_stat(fit, covariate)
    gamma_name = fit.model.gamma_name(covariate) if fit.model is not None else None
    if kind == "sem" or gamma_name is None:
        indirect = ImpactStat(0.0, 0.0, None)
        total = direct
    else:
        t_mean, t_var = fit.linear_combination_moments({covariate: 1.0, gamma_name: 1.0})
        total = ImpactStat(
            t_mean,
            math.sqrt(t_var),
            fit.linear_combination_marginal({covariate: 1.0, gamma_name: 1.0}),
        )
        ind_var = max(t_var - direct.sd**2, 0.0)
        indirect = _gaussian_stat(total.mean - direct.mean, math.sqrt(ind_var))
    return ImpactSummary(covariate, "exact", direct, indirect, total)


def _rho_factor_moments(fit: FitResult) -> tuple[float, float]:
    """Moments of 1/(1 - rho) under the external rho marginal."""
    marg = fit.rho_marginal
    if marg is None:
        raise InvalidInputError("fit has no rho marginal")
    if marg.support[-1] >= 1.0 - 1e-6:
        # mass against the upper bound makes 1/(1 - rho) blow up
        tail = marg.expectation(lambda r: (r >= 1.0 - 1e-6).astype(float))
        if tail > 1e-6:
            raise NumericFailureError(
                "rho marginal carries mass within 1e-6 of 1; total impact diverges"
            )
    transformed = mg.transform_marginal(
        marg, lambda r: 1.0 / (1.0 - r), deriv=lambda r: 1.0 / (1.0 - r) ** 2
    )
    return transformed.mean(), transformed.sd()


def _trace_moments_under_rho(fit: FitResult) -> tuple[tuple[float, float], tuple[float, float]]:
    """Quadrature moments of the two trace functions under the rho marginal."""
    marg = fit.rho_marginal
    w = fit.model.slm.w
    t1, t2 = trace_functions(w, marg.support)
    m1 = float(np.trapezoid(t1 * marg.density, marg.support))
    v1 = float(np.trapezoid(t1**2 * marg.density, marg.support)) - m1**2
    m2 = float(np.trapezoid(t2 * marg.density, marg.support))
    v2 = float(np.trapezoid(t2**2 * marg.density, marg.support)) - m2**2
    return (m1, math.sqrt(max(v1, 0.0))), (m2, math.sqrt(max(v2, 0.0)))


def average_impacts_approx(fit: FitResult, covariate: str) -> ImpactSummary:
    """Gaussian product-moment approximation for SLM and SDM."""
    kind = fit.kind
    if kind not in ("slm", "sdm"):
        raise InvalidParameterError(f"approximate impacts apply to slm/sdm, not {kind!r}")
    gamma_name = fit.model.gamma_name(covariate) if kind == "sdm" else None

    # Total: X = 1/(1 - rho), Y = beta_r (+ gamma_r), assumed independent.
    mu_x, sd_x = _rho_factor_moments(fit)
    if gamma_name is None:
        mu_y, var_y = fit.coef_moments(covariate)
    else:
        mu_y, var_y = fit.linear_combination_moments({covariate: 1.0, gamma_name: 1.0})
    t_mean, t_sd = product_moments(mu_x, sd_x, mu_y, math.sqrt(var_y))
    total = _gaussian_stat(t_mean, t_sd)

    # Direct: trace terms, each an independent product with its coefficient.
    (m1, s1), (m2, s2) = _trace_moments_under_rho(fit)
    mu_b, var_b = fit.coef_moments(covariate)
    d_mean, d_sd = product_moments(m1, s1, mu_b, math.sqrt(var_b))
    d_var = d_sd**2
    if gamma_name is not None:
        mu_g, var_g = fit.coef_moments(gamma_name)
        g_mean, g_sd = product_moments(m2, s2, mu_g, math.sqrt(var_g))
        d_mean += g_mean
        d_var += g_sd**2
    direct = _gaussian_stat(d_mean, math.sqrt(d_var))

    i_mean = total.mean - direct.mean
    i_var = max(total.sd**2 - direct.sd**2, 0.0)
    indirect = _gaussian_stat(i_mean, math.sqrt(i_var))
    return ImpactSummary(covariate, "gaussian_product", direct, indirect, total)


def average_impacts(fit: FitResult, covariates=None) -> dict[str, ImpactSummary]:
    """Impact summaries for every (or selected) covariates of a fit.

    Probit fits are scaled by probit_scaling(fit), applied to all three
    averages (the constant-density approximation of the link derivative).
    """
    if fit.model is None:
        raise InvalidInputError("fit is not attached to a model; use models.fit()")
    names = list(covariates) if covariates is not None else list(fit.model.covariate_names)
    scale = probit_scaling(fit) if fit.likelihood == "probit" else 1.0
    out: dict[str, ImpactSummary] = {}
    for name in names:
        if fit.kind in ("sem", "sdem", "slx"):
            summ = average_impacts_exact(fit, name)
        else:
            summ = average_impacts_approx(fit, name)
        if scale != 1.0:
            summ = ImpactSummary(
                covariate=summ.covariate,
                method=summ.method,
                direct=_scaled(summ.direct, scale),
                indirect=_scaled(summ.indirect, scale),
                total=_scaled(summ.total, scale),
            )
        out[name] = summ
    return out
