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

with t1, t2 the trace functions below for SLM/SDM and t1 = 1, t2 = 0,
a total factor of 1 for SEM/SDEM/SLX (gamma_r = 0 for SEM and SLM).
Since c | theta_g is Gaussian, each impact's posterior is the exact
Gaussian mixture sum_g w_g N(a_g . mu_g, a_g' Sigma_g a_g) over the
grid. A probit fit scales each row a_g by the link derivative averaged
over the sites under that grid point's Gaussian of the linear predictor,
s_g = mean_i E phi(eta_i).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import marginals as mg
from .engine import FitResult
from .errors import InvalidInputError, InvalidParameterError, NumericFailureError
from .gmrf import rho_to_external
from .marginals import Marginal
from .weights import WeightsMatrix

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


def trace_functions(w: WeightsMatrix, rho_values) -> tuple[np.ndarray, np.ndarray]:
    """(tr((I - rho W)^{-1})/n, tr((I - rho W)^{-1} W)/n) for each rho.

    When w holds a dense spectrum (n <= 2000, see WeightsMatrix.spectrum)
    it serves all rho values; beyond that a Neumann series of _SERIES_TERMS
    terms in exact traces of W^k is used (valid for |rho| * spectral
    radius < 1; the truncation tail bound is |rho|^{K+1} / (1 - |rho|) for
    a row-standardized matrix).
    """
    rho_values = np.atleast_1d(np.asarray(rho_values, dtype=float))
    lam = w.spectrum()
    if lam is not None:
        denom = 1.0 - rho_values[:, None] * lam[None, :]
        if np.any(np.abs(denom) < 1e-12):
            raise NumericFailureError("rho hits a reciprocal eigenvalue of W")
        t1 = np.real(np.sum(1.0 / denom, axis=1)) / w.n
        t2 = np.real(np.sum(lam[None, :] / denom, axis=1)) / w.n
        return t1, t2
    radius_bound = min(
        float(np.max(np.abs(w.mat).sum(axis=1))), float(np.max(np.abs(w.mat).sum(axis=0)))
    )
    bad = np.abs(rho_values) * radius_bound
    if np.any(bad >= 1.0):
        raise NumericFailureError(
            f"power series diverges: |rho| * spectral-radius bound = {bad.max():.3f} >= 1"
        )
    moments = w.trace_moments(_SERIES_TERMS)  # tr(W^k)/n, k = 0..K, cached on w
    powers = rho_values[:, None] ** np.arange(_SERIES_TERMS + 1)[None, :]
    t1 = powers @ moments
    t2 = powers[:, :-1] @ moments[1:]
    tail = np.abs(rho_values) ** (_SERIES_TERMS + 1) / (1.0 - np.abs(rho_values))
    if np.any(tail > 1e-8):
        warnings.warn(
            f"trace series truncated at K = {_SERIES_TERMS}; "
            f"worst tail bound {tail.max():.2e}",
            stacklevel=2,
        )
    return t1, t2


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
                    means, variances, fit.weights, fit.settings.mixture_points
                )
            stats.append(ImpactStat(mean, sd, marginal))
        out[name] = ImpactSummary(name, method, *stats)
    return out
