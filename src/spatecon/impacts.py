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
    total    = (beta_r + gamma_r) / (1 - rho_g)

with t1 = tr((I - rho W)^{-1})/n and t2 = tr((I - rho W)^{-1} W)/n for
SLM/SDM, exact functions of W's spectrum or of its LU log-determinants
(trace_functions), and t1 = 1, t2 = 0, a total factor of 1 for
SEM/SDEM/SLX (gamma_r = 0 for SEM and SLM).
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

from . import marginals as mg
from .engine import MIXTURE_POINTS, FitResult
from .errors import InvalidInputError, InvalidParameterError, NumericFailureError
from .gmrf import rho_to_external
from .marginals import Marginal
from .weights import WeightsMatrix

# Richardson step as a fraction of the distance to the nearer rho bound.
# At 0.005 the O(h^4) term still showed (t2(0) = 6e-12 on a 10-site kNN W,
# 2e-11 relative at rho = -0.5 at n = 2100); at 0.001 the n = 2100 kNN W
# matches dense inverses to 1.6e-11 relative from rho = -1.5 to 0.99.
_STEP_FRACTION = 0.001


def trace_functions(w: WeightsMatrix, rho_values) -> tuple[np.ndarray, np.ndarray]:
    """(t1, t2) = (tr((I - rho W)^{-1})/n, tr((I - rho W)^{-1} W)/n) for
    each rho.

    A W with a spectrum (WeightsMatrix.spectrum) sums 1 / (1 - rho lambda)
    and lambda / (1 - rho lambda). Any other W uses two identities:

        n t2(rho) = -d/drho log |I - rho W|,    t1 = 1 + rho t2,

    the first differenced at each distinct rho by Richardson-extrapolated
    central differences of sparse-LU log-determinants (four LUs, each
    memoised on w), with the step h = _STEP_FRACTION times the distance
    to the nearer bound of rho_range(): the error is O((h / distance)^4).
    """
    rho_values = np.atleast_1d(np.asarray(rho_values, dtype=float))
    lam = w.spectrum()
    if lam is not None:
        denom = 1.0 - rho_values[:, None] * lam[None, :]
        if np.any(np.abs(denom) < 1e-12):
            raise NumericFailureError("rho hits a reciprocal eigenvalue of W")
        t1 = np.sum(1.0 / denom, axis=1) / w.n
        t2 = np.sum(lam[None, :] / denom, axis=1) / w.n
        return t1, t2
    lo, hi = w.rho_range()
    if not np.all((rho_values > lo) & (rho_values < hi)):
        raise InvalidParameterError(f"rho outside the admissible range ({lo}, {hi})")
    uniq, where = np.unique(rho_values, return_inverse=True)
    slopes = np.empty(uniq.size)
    for i, rho in enumerate(uniq):
        h = _STEP_FRACTION * min(hi - rho, rho - lo)
        d_h, d_half = (
            (w.log_abs_det(rho + s) - w.log_abs_det(rho - s)) / (2.0 * s) for s in (h, h / 2)
        )
        slopes[i] = (4.0 * d_half - d_h) / 3.0
    t2 = -slopes[where] / w.n
    return 1.0 + rho_values * t2, t2


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
        total_factor = 1.0 / (1.0 - rho)
    else:
        t1, t2, total_factor = np.ones(g_count), np.zeros(g_count), np.ones(g_count)
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
        total = scale * (total_factor[:, None] * (beta + gamma))
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
