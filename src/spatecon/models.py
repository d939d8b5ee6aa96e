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

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import scipy.sparse as sp

from . import engine, univariate
from .engine import LIKELIHOODS, CompiledModel, FitResult, GridSettings, HyperDim
from .errors import InvalidInputError, InvalidParameterError
from .gmrf import (
    DEFAULT_Q_BETA_DIAG,
    RHO_INTERNAL_EPS,
    PrecisionTerms,
    SlmSpec,
    badly_scaled,
    joint_precision,
    rho_to_external,
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
    on logit of the internal rho, and log-gamma(1, 5e-5) on log
    precisions. The Gaussian likelihood's copy precision is not a prior
    setting: it is fixed at engine.TAU_OBS, so that the latent effect
    carries the noise. Precisions, shapes and rates must be finite and
    > 0, and rho_prior_mean finite.
    """

    q_beta_diag: float = DEFAULT_Q_BETA_DIAG
    rho_prior_mean: float = 0.0
    rho_prior_prec: float = 10.0
    tau_shape: float = 1.0
    tau_rate: float = 5e-5
    tau_iid_shape: float = 1.0
    tau_iid_rate: float = 5e-5
    rho_fixed: float | None = None  # external scale
    tau_fixed: float | None = None
    tau_iid_fixed: float | None = None

    def __post_init__(self):
        for name in (
            "q_beta_diag", "tau_shape", "tau_rate", "tau_iid_shape",
            "tau_iid_rate", "rho_prior_prec", "tau_fixed", "tau_iid_fixed",
        ):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise InvalidParameterError(f"{name} must be finite and > 0, got {value!r}")
        if not math.isfinite(self.rho_prior_mean):
            raise InvalidParameterError(f"rho_prior_mean must be finite, got {self.rho_prior_mean!r}")


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
    if likelihood not in LIKELIHOODS:
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
        )
        rho_bounds = slm_w.rho_range()
    else:
        rho_bounds = None

    full_design = np.hstack(
        [one_col, x_raw] + ([lagged] if lagged is not None else [])
    )
    starts = {"rho_internal": 0.5, "log_tau": 0.0, "log_tau_iid": 0.0}
    log_tau, y_filled = _ols_start(y, full_design)
    if likelihood == "gaussian":
        starts.update(log_tau=log_tau, log_tau_iid=log_tau)
    else:
        # 0/1 data see an iid probit effect only as a rescaled link, so its
        # evidence is nearly flat in tau and the posterior mode sits near
        # the prior's, log(shape / rate).
        starts["log_tau_iid"] = math.log(priors.tau_iid_shape / priors.tau_iid_rate)
    # Every mode search starts at these values: a probit fit's bracket lies
    # around its start, a Gaussian fit's search starts there. A free rho
    # starts at the concentrated-likelihood maximiser, for a probit model
    # that of the 0/1 responses (a linear-probability start; its tau is
    # pinned, so the log tau start goes unread).
    if slm_spec is not None and priors.rho_fixed is None:
        lag = kind in ("slm", "sdm")
        starts["rho_internal"], starts["log_tau"] = _concentrated_start(
            y_filled,
            slm_spec.w,
            z_design if lag else b_design,
            lag,
            rho_bounds,
        )
    hyper_dims, prior, prior_weights = _layers(
        kind, slm_spec, b_design, priors, rho_bounds, tau_fixed, y, starts
    )
    compiled = CompiledModel(
        y=y,
        b_design=b_design,
        likelihood=likelihood,
        prior=prior,
        prior_weights=prior_weights,
        hyper_dims=hyper_dims,
        coef_names=coef_names,
        rho_bounds=rho_bounds,
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


def _residual(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v less its least-squares projection on the columns of z."""
    if not z.shape[1]:
        return v
    coef, *_ = np.linalg.lstsq(z, v, rcond=None)
    return v - z @ coef


def _log_variance(sse: float, n: int) -> float:
    return math.log(max(sse / n, 1e-8))


def _ols_start(y: np.ndarray, x: np.ndarray) -> tuple[float, np.ndarray]:
    """From an OLS fit of the observed responses on x: a rough
    innovation-precision start (log of the inverse residual variance), and
    y with each missing response replaced by its fitted value (by the
    observed mean when x has no columns)."""
    obs = ~np.isnan(y)
    y_o = y[obs]
    filled = y.copy()
    if x.shape[1]:
        coef, *_ = np.linalg.lstsq(x[obs], y_o, rcond=None)
        resid = y_o - x[obs] @ coef
        filled[~obs] = x[~obs] @ coef
    else:
        resid = y_o - y_o.mean()
        filled[~obs] = y_o.mean()
    var = float(np.var(resid))
    return -math.log(max(var, 1e-8)), filled


def _concentrated_start(y, w: WeightsMatrix, design, lag: bool, rho_bounds) -> tuple[float, float]:
    """Start (rho_internal, log tau) of a lag or error model: the
    maximiser of the Gaussian concentrated log-likelihood

        log |I - rho W| - n/2 log e(rho)'e(rho)

    (Ord 1975; LeSage & Pace 2009, sec. 3.1) by bounded Brent on the
    internal rho, to 1e-3, and log tau = log(n / e'e) there. A lag kind
    has e(rho) = M_Z (y - rho W y), Z its effect's design; an error kind
    has e(rho) = M_{(I - rho W) B} (I - rho W) y, B its fixed-effect
    design; M_A is the residual projection of the columns of A. The
    log-determinants are the fit's own (WeightsMatrix.log_abs_det). A
    probit model passes its 0/1 responses and reads rho alone.
    """
    n = y.size
    lo, hi = rho_bounds
    wy, wd = w.mat @ y, w.mat @ design
    if lag:
        e_y, e_wy = _residual(design, y), _residual(design, wy)

        def sse(rho):
            e = e_y - rho * e_wy
            return float(e @ e)
    else:

        def sse(rho):
            e = _residual(design - rho * wd, y - rho * wy)
            return float(e @ e)

    def neg_profile(r):
        rho = lo + r * (hi - lo)
        return 0.5 * n * _log_variance(sse(rho), n) - w.log_abs_det(rho)

    res = univariate.minimize_bounded(
        neg_profile, (RHO_INTERNAL_EPS, 1.0 - RHO_INTERNAL_EPS), xatol=1e-3
    )
    r = float(res.x)
    return r, -_log_variance(sse(lo + r * (hi - lo)), n)


def _log_gamma_dim(name, shape, rate, fixed, init) -> HyperDim:
    """A log precision with a log-gamma prior (tau ~ Gamma(shape, rate))."""
    return HyperDim(
        name=name,
        log_prior=functools.partial(engine.log_gamma_logpdf, shape=shape, rate=rate),
        log_prior_slope=functools.partial(engine.log_gamma_slope, shape=shape, rate=rate),
        fixed=None if fixed is None else math.log(fixed),
        init=init,
    )


def _layers(kind, slm_spec, b_design, priors, rho_bounds, tau_fixed, y, starts):
    """The hyperparameter axes, the prior's terms and prior_weights(theta,
    wrt): the terms' weights, log|Q| and their exact derivatives with
    respect to the names in wrt (see CompiledModel). The weights are
    polynomial in rho and proportional to a precision, and log|Q| is
    linear in each log precision; its rho part, 2 log |I - rho W|, has
    the slope WeightsMatrix.log_abs_det_slope."""
    n = y.shape[0]
    p_b = b_design.shape[1]
    q_fixed_diag = np.full(p_b, priors.q_beta_diag)

    if kind == "slx":
        dims = (
            _log_gamma_dim(
                "log_tau_iid", priors.tau_iid_shape, priors.tau_iid_rate,
                priors.tau_iid_fixed, starts["log_tau_iid"],
            ),
        )
        logdet_fixed = float(np.sum(np.log(q_fixed_diag)))
        prior = PrecisionTerms.union(
            [
                sp.diags(np.concatenate([np.zeros(n), q_fixed_diag])),
                sp.diags(np.concatenate([np.ones(n), np.zeros(p_b)])),
            ]
        )

        def prior_weights(theta: Mapping[str, float], wrt=()):
            tau_u = math.exp(theta["log_tau_iid"])
            logdet = n * math.log(tau_u) + logdet_fixed
            da = np.tile([0.0, tau_u], (len(wrt), 1))
            return np.array([1.0, tau_u]), logdet, da, np.full(len(wrt), float(n))

        return dims, prior, prior_weights

    rho_fixed_internal = None
    if priors.rho_fixed is not None:
        rho_fixed_internal = rho_to_internal(priors.rho_fixed, rho_bounds)
    dims = (
        HyperDim(
            name="rho_internal",
            log_prior=functools.partial(
                engine.logit_gaussian_logpdf, mean=priors.rho_prior_mean, prec=priors.rho_prior_prec
            ),
            log_prior_slope=functools.partial(
                engine.logit_gaussian_slope, mean=priors.rho_prior_mean, prec=priors.rho_prior_prec
            ),
            fixed=rho_fixed_internal,
            init=starts["rho_internal"],
        ),
        _log_gamma_dim("log_tau", priors.tau_shape, priors.tau_rate, tau_fixed, starts["log_tau"]),
    )

    # SLM and SDM carry their coefficients inside the effect; SEM and SDEM
    # join their fixed-effect diagonal to the effect's constant term.
    fixed = q_fixed_diag if kind in ("sem", "sdem") else np.empty(0)
    prior = PrecisionTerms.of(slm_spec, fixed)
    logdet_fixed = float(np.sum(np.log(fixed)))
    # d rho / d rho_internal.
    width = rho_bounds[1] - rho_bounds[0]

    def prior_weights(theta: Mapping[str, float], wrt=()):
        rho = rho_to_external(theta["rho_internal"], rho_bounds)
        tau = math.exp(theta["log_tau"])
        jp = joint_precision(slm_spec, rho, tau)
        # The weights are [1, tau, -tau rho, tau rho^2].
        da, dlogdet = np.zeros((len(wrt), 4)), np.zeros(len(wrt))
        for i, name in enumerate(wrt):
            if name == "log_tau":
                da[i, 1:], dlogdet[i] = jp.weights[1:], n
            else:
                da[i, 2:] = width * tau * np.array([-1.0, 2.0 * rho])
                dlogdet[i] = 2.0 * width * slm_spec.w.log_abs_det_slope(rho)
        return jp.weights, jp.logdet + logdet_fixed, da, dlogdet

    return dims, prior, prior_weights


def fit(model: ModelSpec, settings: GridSettings | None = None) -> FitResult:
    """Run the inference engine on a compiled model."""
    result = engine.fit_compiled(model.compiled, settings)
    result.kind = model.kind
    result.model = model
    return result
