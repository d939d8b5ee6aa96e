"""Compile the five econometric formulations into engine-ready structures.

Kinds and their latent layout (z = (x, c), eta = x + X_b c):

* SLM  : x is the spatial-lag effect with design [1, X] inside it; no
         direct coefficient layer (X_b = 0).
* SDM  : like SLM with design [1, X, WX].
* SEM  : x is a covariate-free spatial-lag effect (autoregressive error);
         ordinary fixed effects on [1, X].
* SDEM : covariate-free spatial-lag error effect built from M (defaults
         to W); fixed effects on [1, X, WX].
* SLX  : exchangeable iid effect with a free precision; fixed effects on
         [1, X, WX].

The intercept is always a column of ones and is never lagged (a lagged
constant is collinear with the intercept under a row-standardized W).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from . import engine
from .engine import CompiledModel, FitResult, GridSettings, HyperDim
from .errors import InvalidInputError, InvalidParameterError
from .gmrf import (
    DEFAULT_Q_BETA_DIAG,
    PrecisionTerms,
    RhoParam,
    SlmSpec,
    badly_scaled,
    joint_precision,
    rho_to_internal,
)
from .weights import WeightsMatrix

KINDS = ("sem", "slm", "sdm", "sdem", "slx")
INTERCEPT = "(Intercept)"
LAG_PREFIX = "lag."


@dataclass(frozen=True)
class ModelPriors:
    """Prior settings and fixed-value overrides.

    Defaults: vague diagonal precision on coefficients, Gaussian(0, prec 10)
    on logit of the internal rho, log-gamma(1, 5e-5) on log precisions, and
    a fixed observation copy precision of 1e8.
    """

    q_beta_diag: float = DEFAULT_Q_BETA_DIAG
    rho_prior_mean: float = 0.0
    rho_prior_prec: float = 10.0
    tau_shape: float = 1.0
    tau_rate: float = 5e-5
    tau_iid_shape: float = 1.0
    tau_iid_rate: float = 5e-5
    tau_obs: float = 1e8
    tau_obs_hyper: bool = False
    rho_fixed: float | None = None  # external scale
    tau_fixed: float | None = None
    tau_iid_fixed: float | None = None


@dataclass
class ModelSpec:
    """A compiled model: data, weights, layers, and the engine structure."""

    kind: str
    likelihood: str
    y: np.ndarray
    x: np.ndarray  # design including the intercept column
    w: WeightsMatrix
    m: WeightsMatrix | None
    priors: ModelPriors
    coef_names: tuple[str, ...]
    covariate_names: tuple[str, ...]
    slm: SlmSpec | None
    compiled: CompiledModel = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def gamma_name(self, covariate: str) -> str | None:
        lag = LAG_PREFIX + covariate
        return lag if lag in self.coef_names else None


def _as_design(x, n: int) -> np.ndarray:
    if x is None:
        return np.zeros((n, 0))
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != n:
        raise InvalidInputError(f"x has {x.shape[0]} rows, response has {n}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("covariates must be finite (no missing values)")
    return x


def build(
    kind: str,
    y,
    x=None,
    w: WeightsMatrix = None,
    m: WeightsMatrix | None = None,
    likelihood: str = "gaussian",
    priors: ModelPriors | None = None,
    covariate_names: tuple[str, ...] | None = None,
    intercept: bool = True,
) -> ModelSpec:
    """Compile a model specification. See the module docstring for layouts.

    The intercept defaults to a column of ones; intercept=False leaves the
    coefficient block empty when x is also empty (useful for pure latent
    models and tests).
    """
    kind = kind.lower()
    if kind not in KINDS:
        raise InvalidParameterError(f"unknown model kind {kind!r}; expected one of {KINDS}")
    likelihood = likelihood.lower()
    if likelihood not in ("gaussian", "probit"):
        raise InvalidParameterError(f"unknown likelihood {likelihood!r}")
    priors = priors or ModelPriors()

    y = np.asarray(y, dtype=float).ravel()
    n = y.shape[0]
    if np.all(np.isnan(y)):
        raise InvalidInputError("all responses are missing")
    if w is None or w.n != n:
        raise InvalidInputError("weights matrix missing or non-conformable with y")
    if not w.standardized:
        raise InvalidInputError("weights must be row-standardized (see row_standardize)")
    # A probit response is checked for 0/1 values by CompiledModel.
    x_raw = _as_design(x, n)
    p_raw = x_raw.shape[1]
    # Columns on wildly different scales destabilize the factorization;
    # warn, never rescale silently.
    if badly_scaled(x_raw):
        warnings.warn(
            "covariate columns differ in scale by more than 1e4; consider rescaling",
            stacklevel=2,
        )
    if covariate_names is None:
        covariate_names = tuple(f"x{j + 1}" for j in range(p_raw))
    covariate_names = tuple(covariate_names)
    if len(covariate_names) != p_raw:
        raise InvalidInputError("one name per covariate column required")

    if kind == "sdem":
        m = m if m is not None else w
        if m.n != n:
            raise InvalidInputError("SDEM error weights are non-conformable with y")
        if not m.standardized:
            raise InvalidInputError("SDEM error weights must be row-standardized")
    else:
        m = None

    one_col = np.ones((n, 1)) if intercept else np.zeros((n, 0))
    lagged = w.mat @ x_raw if (p_raw and kind in ("sdm", "sdem", "slx")) else None

    if kind in ("slm", "sdm"):
        z_design = np.hstack([one_col, x_raw] + ([lagged] if lagged is not None else []))
        b_design = np.zeros((n, z_design.shape[1]))
    else:
        if kind in ("sdem", "slx") and lagged is not None:
            b_design = np.hstack([one_col, x_raw, lagged])
        else:
            b_design = np.hstack([one_col, x_raw])
        z_design = np.zeros((n, 0))

    names = ([INTERCEPT] if intercept else []) + list(covariate_names)
    if kind in ("sdm", "sdem", "slx"):
        names += [LAG_PREFIX + c for c in covariate_names]
    coef_names = tuple(names)

    tau_fixed = priors.tau_fixed
    if likelihood == "probit" and kind != "slx":
        # The latent-error precision is not identifiable jointly with the
        # probit link scale; it is pinned to one.
        tau_fixed = 1.0

    slm_spec = None
    if kind != "slx":
        slm_w = m if kind == "sdem" else w
        slm_spec = SlmSpec(
            w=slm_w,
            x_design=z_design,
            q_beta=priors.q_beta_diag * np.eye(z_design.shape[1]),
            tau_fixed=tau_fixed,
        )
        rho_bounds = slm_w.rho_range()
    else:
        rho_bounds = None

    full_design = np.hstack(
        [one_col, x_raw] + ([lagged] if lagged is not None else [])
    )
    hyper_dims, prior, prior_weights = _layers(
        kind, slm_spec, b_design, priors, rho_bounds, tau_fixed, likelihood, y,
        full_design,
    )

    tau_obs = None if (priors.tau_obs_hyper and likelihood == "gaussian") else priors.tau_obs
    compiled = CompiledModel(
        y=y,
        b_design=b_design,
        likelihood=likelihood,
        prior=prior,
        prior_weights=prior_weights,
        hyper_dims=hyper_dims,
        coef_names=coef_names,
        rho_bounds=rho_bounds,
        tau_obs=tau_obs,
    )
    return ModelSpec(
        kind=kind,
        likelihood=likelihood,
        y=y,
        x=np.hstack([one_col, x_raw]),
        w=w,
        m=m,
        priors=priors,
        coef_names=coef_names,
        covariate_names=covariate_names,
        slm=slm_spec,
        compiled=compiled,
    )


def _initial_log_tau(y: np.ndarray, x: np.ndarray) -> float:
    """Rough innovation-precision start value from an OLS residual fit."""
    obs = ~np.isnan(y)
    y_o = y[obs]
    if x.shape[1]:
        coef, *_ = np.linalg.lstsq(x[obs], y_o, rcond=None)
        resid = y_o - x[obs] @ coef
    else:
        resid = y_o - y_o.mean()
    var = float(np.var(resid))
    return -math.log(max(var, 1e-8))


def _layers(
    kind, slm_spec, b_design, priors, rho_bounds, tau_fixed, likelihood, y, full_design
):
    n = y.shape[0]
    p_b = b_design.shape[1]
    q_fixed_diag = np.full(p_b, priors.q_beta_diag)

    dims: list[HyperDim] = []
    if likelihood == "gaussian":
        tau_init = _initial_log_tau(y, full_design)
    else:
        tau_init = 0.0

    if kind != "slx":
        rho_fixed_internal = None
        if priors.rho_fixed is not None:
            rho_fixed_internal = rho_to_internal(priors.rho_fixed, rho_bounds)
        dims.append(
            HyperDim(
                name="rho_internal",
                log_prior=lambda r, m_=priors.rho_prior_mean, p_=priors.rho_prior_prec: (
                    engine.logit_gaussian_logpdf(r, m_, p_)
                ),
                fixed=rho_fixed_internal,
                init=0.5,
            )
        )
        dims.append(
            HyperDim(
                name="log_tau",
                log_prior=lambda t, a=priors.tau_shape, b=priors.tau_rate: (
                    engine.log_gamma_logpdf(t, a, b)
                ),
                fixed=None if tau_fixed is None else math.log(tau_fixed),
                init=tau_init,
            )
        )
    else:
        dims.append(
            HyperDim(
                name="log_tau_iid",
                log_prior=lambda t, a=priors.tau_iid_shape, b=priors.tau_iid_rate: (
                    engine.log_gamma_logpdf(t, a, b)
                ),
                fixed=None
                if priors.tau_iid_fixed is None
                else math.log(priors.tau_iid_fixed),
                init=tau_init if likelihood == "gaussian" else 0.0,
            )
        )
    if priors.tau_obs_hyper and likelihood == "gaussian":
        dims.append(
            HyperDim(
                name="log_tau_obs",
                log_prior=lambda t, a=priors.tau_shape, b=priors.tau_rate: (
                    engine.log_gamma_logpdf(t, a, b)
                ),
                init=tau_init,
            )
        )

    if kind == "slx":
        logdet_fixed = float(np.sum(np.log(q_fixed_diag)))
        prior = PrecisionTerms.union(
            [
                sp.diags(np.concatenate([np.zeros(n), q_fixed_diag])),
                sp.diags(np.concatenate([np.ones(n), np.zeros(p_b)])),
            ]
        )

        def prior_weights(theta: Mapping[str, float]):
            tau_u = math.exp(theta["log_tau_iid"])
            return np.array([1.0, tau_u]), n * math.log(tau_u) + logdet_fixed

        return tuple(dims), prior, prior_weights

    # SLM and SDM carry their coefficients inside the effect; SEM and SDEM
    # join their fixed-effect diagonal to the effect's constant term.
    fixed = q_fixed_diag if kind in ("sem", "sdem") else np.empty(0)
    prior = PrecisionTerms.of(slm_spec, fixed)
    logdet_fixed = float(np.sum(np.log(fixed)))

    def prior_weights(theta: Mapping[str, float]):
        rho = RhoParam.from_internal(theta["rho_internal"], rho_bounds)
        jp = joint_precision(slm_spec, rho, math.exp(theta["log_tau"]))
        return jp.weights, jp.logdet + logdet_fixed

    return tuple(dims), prior, prior_weights


def fit(model: ModelSpec, settings: GridSettings | None = None) -> FitResult:
    """Run the inference engine on a compiled model."""
    result = engine.fit_compiled(model.compiled, settings)
    result.kind = model.kind
    result.model = model
    return result
