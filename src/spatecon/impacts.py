"""Average direct, indirect and total impacts.

The n x n impact matrix of covariate r is model dependent:

    SEM        : beta_r I
    SLM        : (I - rho W)^{-1} beta_r
    SDM        : (I - rho W)^{-1} (beta_r I + gamma_r W)
    SDEM, SLX  : beta_r I + gamma_r W

Average direct impact = trace / n, average total = grand sum / n,
indirect = total - direct. Given the hyperparameters theta_g of a grid
point, every average is linear in the coefficients c:

    direct   = t1(rho_g) beta_r + t2(rho_g) gamma_r
    total    = a(rho_g) beta_r + b(rho_g) gamma_r

with t1 = tr((I - rho W)^{-1})/n and t2 = tr((I - rho W)^{-1} W)/n for
SLM/SDM, read off the exact slope of log |I - rho W| (trace_functions),
and t1 = 1, t2 = 0 for SEM/SDEM/SLX, which take rho = 0 in the totals
(gamma_r = 0 for SEM and SLM). The total factors are
a = 1'(I - rho W)^{-1} 1 / n and b = 1'(I - rho W)^{-1} W 1 / n, both
1 / (1 - rho) when every row of W sums to one (_total_factors).
Since c | theta_g is Gaussian, each impact's posterior is the exact
Gaussian mixture sum_g w_g N(a_g . mu_g, a_g' Sigma_g a_g) over the
grid. A probit fit scales each row a_g by the link derivative averaged
over the sites under that grid point's Gaussian of the linear predictor,
s_g = mean_i E phi(eta_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import marginals as mg
from .engine import MIXTURE_POINTS, FitResult
from .errors import InvalidInputError, InvalidParameterError
from .gmrf import rho_to_external
from .marginals import Marginal
from .weights import WeightsMatrix, _row_stochastic


def trace_functions(w: WeightsMatrix, rho_values) -> tuple[np.ndarray, np.ndarray]:
    """(t1, t2) = (tr((I - rho W)^{-1})/n, tr((I - rho W)^{-1} W)/n) for
    each rho in (rho_min, rho_max), from two identities:

        n t2(rho) = -d/drho log |I - rho W|,    t1 = 1 + rho t2,

    the slope being WeightsMatrix.log_abs_det_slope, a sum over the
    spectrum or one complex LU per distinct rho (memoised on w).
    """
    rho_values = np.atleast_1d(np.asarray(rho_values, dtype=float))
    lo, hi = w.rho_range()
    if not np.all((rho_values > lo) & (rho_values < hi)):
        raise InvalidParameterError(f"rho outside the admissible range ({lo}, {hi})")
    t2 = -np.array([w.log_abs_det_slope(rho) for rho in rho_values]) / w.n
    return 1.0 + rho_values * t2, t2


def _total_factors(w: WeightsMatrix, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) = (1'(I - rho W)^{-1} 1 / n, 1'(I - rho W)^{-1} W 1 / n) for
    each rho: the weights of beta_r and gamma_r in the average total impact.
    A row-stochastic W has W1 = 1, so a = b = 1 / (1 - rho); any other W
    (islands, or a file marked standardized whose rows do not sum to one)
    takes one sparse solve of (I - rho W)'z = 1 per distinct rho."""
    if _row_stochastic(w.mat):
        factor = 1.0 / (1.0 - rho)
        return factor, factor
    distinct, inverse = np.unique(rho, return_inverse=True)
    eye, w_t = sp.identity(w.n, format="csc"), w.mat.T.tocsc()
    z = np.array([spla.spsolve(eye - r * w_t, np.ones(w.n)) for r in distinct])
    w1 = np.asarray(w.mat.sum(axis=1)).ravel()
    return z.sum(axis=1)[inverse] / w.n, (z @ w1)[inverse] / w.n


@dataclass(frozen=True)
class ImpactStat:
    mean: float
    sd: float
    marginal: Marginal | None


@dataclass(frozen=True)
class ImpactSummary:
    covariate: str
    method: str  # "exact", or "probit_scaled" for a probit fit
    direct: ImpactStat
    indirect: ImpactStat
    total: ImpactStat


def probit_scaling(fit: FitResult) -> np.ndarray:
    """Per grid point g, the standard-normal density averaged over the sites
    under eta_i ~ N(m_gi, v_gi): s_g = mean_i E phi(eta_i), where
    E phi(eta_i) = phi(m_gi / sqrt(1 + v_gi)) / sqrt(1 + v_gi) exactly."""
    if fit.likelihood != "probit":
        raise InvalidInputError("probit_scaling applies to probit fits")
    sd = np.sqrt(1.0 + fit.eta_vars)
    dens = np.exp(-0.5 * (fit.eta_means / sd) ** 2) / sd
    return np.mean(dens, axis=1) / math.sqrt(2.0 * math.pi)


def average_impacts(fit: FitResult, covariates=None) -> dict[str, ImpactSummary]:
    """Impact summaries for every (or selected) covariates of a fit.

    Each impact is the grid mixture of its conditional Gaussians. A probit
    fit scales the rows of grid point g by probit_scaling(fit)[g], for all
    three averages: the link derivative phi(eta_i) is replaced by its
    average over the sites and over eta given theta_g, independent of the
    coefficients (the approximation that remains).
    """
    if fit.model is None:
        raise InvalidInputError("fit is not attached to a model; use models.fit()")
    names = list(covariates) if covariates is not None else list(fit.model.covariate_names)
    g_count, p = fit.coef_means.shape
    if fit.kind in ("slm", "sdm"):
        rho = np.array(
            [
                rho_to_external(fit.grid.theta_at(g)["rho_internal"], fit.rho_bounds)
                for g in range(g_count)
            ]
        )
        t1, t2 = trace_functions(fit.model.slm.w, rho)
    else:
        rho, t1, t2 = np.zeros(g_count), np.ones(g_count), np.zeros(g_count)
    total_beta, total_gamma = _total_factors(fit.model.w, rho)
    if fit.likelihood == "probit":
        scale, method = probit_scaling(fit)[:, None], "probit_scaled"
    else:
        scale, method = 1.0, "exact"

    out: dict[str, ImpactSummary] = {}
    for name in names:
        beta = np.zeros(p)
        beta[fit.coef_index(name)] = 1.0
        gamma = np.zeros(p)
        gamma_name = fit.model.gamma_name(name)
        if gamma_name is not None:
            gamma[fit.coef_index(gamma_name)] = 1.0
        direct = scale * (t1[:, None] * beta + t2[:, None] * gamma)
        total = scale * (total_beta[:, None] * beta + total_gamma[:, None] * gamma)
        stats = []
        for rows in (direct, total - direct, total):
            means, variances = fit.combination_mixture(rows)
            mean, var = mg.mixture_moments(means, variances, fit.weights)
            sd = math.sqrt(var)
            marginal = None
            if sd > 1e-12 * max(1.0, abs(mean)):
                marginal = mg.gaussian_mixture_marginal(
                    means, variances, fit.weights, MIXTURE_POINTS
                )
            stats.append(ImpactStat(mean, sd, marginal))
        out[name] = ImpactSummary(name, method, *stats)
    return out
