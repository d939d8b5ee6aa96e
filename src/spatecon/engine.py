"""Grid-based integrated-Laplace inference.

The engine works on a compiled latent structure z = (x, c): an
n-dimensional random effect x plus p coefficients c, with linear
predictor eta = x + X_b c and a sparse joint prior precision Q(theta) =
sum_t a_t(theta) K_t, fixed terms weighted by scalars that depend on
theta (Rue & Held 2005, sec. 2). Each term is mapped onto the matrix the
engine factors once per fit (Assembly); each theta then costs weighted
sums of those arrays and one sparse factorization. Two observation layers
are supported:

* Gaussian: y = eta + e with e at a fixed high "copy" precision (or a
  hyperparameter). The conditional evidence pi(y|theta) is then exact.
  To keep every intermediate at O(1) scale despite the 1e8 copy
  precision, the quadratic form is evaluated in residual-shifted
  coordinates (the observed-row residual u = y - eta is substituted for
  x as a latent coordinate; the substitution is unimodular, so the log
  determinant is unchanged).
* Probit: y_i ~ Bernoulli(Phi(eta_i)). The conditional evidence is a
  Laplace approximation at the Newton mode, multiplied by per-site
  Gauss-Hermite correction factors that make it exact when the sites are
  independent.

The hyperparameters theta (internal rho, log precisions) are explored on
a regular grid around the posterior mode; latent and coefficient
marginals are Gaussian mixtures over that grid.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.optimize
import scipy.sparse as sp
from scipy.interpolate import PchipInterpolator
from scipy.special import gammaln, log_ndtr, logsumexp, ndtr

from . import marginals as mg
from .errors import InvalidInputError, InvalidParameterError, NumericFailureError
from .gmrf import (
    RHO_INTERNAL_EPS,
    CholeskyHandle,
    PrecisionTerms,
    SymbolicFactor,
    marginal_variance_stack,
)

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * _LOG_2PI


# ---------------------------------------------------------------------------
# hyperparameter dimensions and priors
# ---------------------------------------------------------------------------


def logit_gaussian_logpdf(r: float, mean: float = 0.0, prec: float = 10.0) -> float:
    """Density of the internal rho in (0, 1) when logit(rho) is Gaussian."""
    r = float(r)
    if not 0.0 < r < 1.0:
        return -np.inf
    logit = math.log(r) - math.log1p(-r)
    return (
        0.5 * (math.log(prec) - _LOG_2PI)
        - 0.5 * prec * (logit - mean) ** 2
        - math.log(r)
        - math.log1p(-r)
    )


def log_gamma_logpdf(t: float, shape: float = 1.0, rate: float = 5e-5) -> float:
    """Density of t = log(tau) when tau ~ Gamma(shape, rate)."""
    return shape * math.log(rate) - gammaln(shape) + shape * t - rate * math.exp(t)


@dataclass(frozen=True)
class HyperDim:
    """One hyperparameter axis: a name, its log prior on the grid scale,
    an optional fixed value, and an initial value for the mode search."""

    name: str
    log_prior: Callable[[float], float]
    fixed: float | None = None
    init: float = 0.0


# Step of the log posterior's Hessian stencil at the mode, Gauss-Hermite
# nodes of the probit DIC, and points of a hyperparameter's marginal and
# of a Gaussian-mixture marginal.
_HESS_STEP = 1e-4
_DIC_GH_NODES = 21
_HYPER_MARGINAL_POINTS = 201
MIXTURE_POINTS = 401


@dataclass(frozen=True)
class GridSettings:
    k: int = 3
    step: float = 0.8
    drop: float = 6.0

    def __post_init__(self):
        step, drop = (v if isinstance(v, numbers.Real) else math.nan for v in (self.step, self.drop))
        if not (isinstance(self.k, numbers.Integral) and self.k >= 0):
            raise InvalidParameterError(f"grid k must be an integer >= 0, got {self.k!r}")
        if not (math.isfinite(step) and step > 0):
            raise InvalidParameterError(f"grid step must be finite and > 0, got {self.step!r}")
        if not (math.isfinite(drop) and drop >= 0):
            raise InvalidParameterError(f"grid drop must be finite and >= 0, got {self.drop!r}")


@dataclass
class CompiledModel:
    """Latent structure the engine consumes.

    The joint prior precision of z = (x, c) is Q(theta) = sum_t a_t K_t:
    prior holds the fixed sparse terms K_t, and prior_weights(theta)
    returns their weights a and log|Q(theta)|. The pattern of Q is the
    same at every theta, so a fit keeps one Assembly and one analysis.
    """

    y: np.ndarray
    b_design: np.ndarray
    likelihood: str
    prior: PrecisionTerms
    prior_weights: Callable[[Mapping[str, float]], tuple[np.ndarray, float]]
    hyper_dims: tuple[HyperDim, ...]
    coef_names: tuple[str, ...]
    rho_bounds: tuple[float, float] | None = None
    tau_obs: float | None = 1e8  # None means exp(theta["log_tau_obs"])
    # Analysis of the pattern the engine factors: set by the first
    # factorization, reused by every later one.
    symbolic: SymbolicFactor | None = field(
        default=None, init=False, repr=False, compare=False
    )
    # The prior's terms mapped onto the factored matrix: built at the
    # first evaluation, reused by every later one.
    assembly: "Assembly | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    # Probit latent mode of the last converged inner Newton solve: the
    # next theta's solve starts from it.
    last_mode: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.b_design = np.asarray(self.b_design, dtype=float)
        if self.b_design.ndim == 1:
            self.b_design = self.b_design[:, None]
        if self.b_design.shape[0] != self.y.shape[0]:
            raise InvalidInputError("design and response lengths differ")
        if len(self.coef_names) != self.b_design.shape[1]:
            raise InvalidInputError("one name per coefficient required")
        if self.likelihood not in ("gaussian", "probit"):
            raise InvalidInputError(f"unknown likelihood {self.likelihood!r}")
        self.obs_idx = np.flatnonzero(~np.isnan(self.y))
        self.miss_idx = np.flatnonzero(np.isnan(self.y))
        if self.obs_idx.size == 0:
            raise InvalidInputError("all responses are missing")
        if self.likelihood == "probit":
            vals = self.y[self.obs_idx]
            if not np.all(np.isin(vals, (0.0, 1.0))):
                raise InvalidInputError("probit responses must be binary 0/1")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.b_design.shape[1]

    def free_dims(self) -> tuple[HyperDim, ...]:
        return tuple(d for d in self.hyper_dims if d.fixed is None)

    def theta_from_vector(self, vec: Sequence[float]) -> dict[str, float]:
        theta = {d.name: d.fixed for d in self.hyper_dims if d.fixed is not None}
        for d, v in zip(self.free_dims(), vec):
            theta[d.name] = float(v)
        return _clamp_theta(theta)

    def tau_obs_value(self, theta: Mapping[str, float]) -> float:
        if self.tau_obs is not None:
            return self.tau_obs
        return math.exp(theta["log_tau_obs"])


# Step of the central differences in the evidence gradient, on the
# internal scale of each hyperparameter.
_DIFF_STEP = 1e-5


def _theta_bounds(name: str) -> tuple[float, float]:
    """The interval _clamp_theta holds a hyperparameter to."""
    if name == "rho_internal":
        return RHO_INTERNAL_EPS, 1.0 - RHO_INTERNAL_EPS
    return -40.0, 40.0


def _clamp_theta(theta: dict[str, float]) -> dict[str, float]:
    out = dict(theta)
    for name, value in out.items():
        lo, hi = _theta_bounds(name)
        out[name] = min(max(value, lo), hi)
    return out


@dataclass
class GaussianState:
    """Conditional Gaussian of z = (x, c) given theta and the data.

    var_x and var_eta are None while a grid row's variances are pending
    (gaussian_evidence)."""

    mean_x: np.ndarray
    var_x: np.ndarray
    mean_c: np.ndarray
    cov_c: np.ndarray
    mean_eta: np.ndarray
    var_eta: np.ndarray


@dataclass
class Assembly:
    """The prior's terms mapped onto the matrix the engine factors.

    In coordinates z' = (v, c) with z = G z' + z0, G = [[E, F], [0, I]],
    E a signed permutation and F a fixed n x p block, the prior's share of
    the factored matrix is G'QG = sum_t a_t G'K_tG. Each G'K_tG is one
    sparse product per fit, scattered onto a fixed pattern: E'AE (A the
    x-x block of the terms' union pattern), the observation diagonal, the
    full cross blocks and the coefficient block. Per theta only the
    weighted sums a @ term_data, a @ term_c and a @ term_const remain.

    The Gaussian layer uses the residual shift (E maps the observed rows
    onto -u, F = -X_b on them, z0 = y there) and adds tau_obs on the u
    diagonal; term_c = -G'K_t z0 and term_const = z0'K_t z0 give the
    linear and constant parts of the quadratic form. The probit Hessian
    uses G = I, so a @ term_data is Q itself, and adds the curvature D by
    [D, D X_b; X_b'D, X_b'D X_b].
    """

    n: int
    p: int
    indptr: np.ndarray  # CSC pattern of the factored matrix
    indices: np.ndarray
    g: sp.csc_matrix
    z0: np.ndarray | None
    term_data: np.ndarray  # (T, nnz): G'K_tG on the pattern
    term_c: np.ndarray | None  # (T, n + p)
    term_const: np.ndarray | None  # (T,)
    cross_pos: np.ndarray  # (n, p) positions of the x-c block and of its transpose
    cross_t_pos: np.ndarray
    cc_pos: np.ndarray  # (p, p)
    obs_pos: np.ndarray  # diagonal positions of the observation term
    obs_rows: np.ndarray  # the observed rows of x

    def with_curvature(self, base: np.ndarray, d: np.ndarray, xb: np.ndarray) -> np.ndarray:
        """base plus [D, D X_b; X_b'D, X_b'D X_b], D = diag(d) on the
        observed rows (d holds their curvatures)."""
        out = base.copy()
        out[self.obs_pos] += d
        if self.p:
            r = np.zeros((self.n, self.p))
            r[self.obs_rows] = d[:, None] * xb[self.obs_rows]
            out[self.cross_pos] += r
            out[self.cross_t_pos] += r
            out[self.cc_pos] += xb.T @ r
        return out

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        size = self.indptr.size - 1
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(size, size))


def _assembly(model: CompiledModel) -> Assembly:
    if model.assembly is None:
        model.assembly = _build_assembly(model)
    return model.assembly


def _build_assembly(model: CompiledModel) -> Assembly:
    n, p = model.n, model.p
    size = n + p
    prior = model.prior
    obs, mis = model.obs_idx, model.miss_idx
    v_of_x, sign = np.arange(n), np.ones(n)
    f = np.zeros((n, p))
    z0 = None
    obs_v = obs
    if model.likelihood == "gaussian":
        # v = (u_obs, x_miss): x = y - u - X_b c on observed rows.
        v_of_x[obs], v_of_x[mis] = np.arange(obs.size), obs.size + np.arange(mis.size)
        sign[obs] = -1.0
        obs_v = np.arange(obs.size)
        f[obs] = -model.b_design[obs]
        z0 = np.zeros(size)
        z0[obs] = model.y[obs]
    f_rows, f_cols = np.nonzero(f)
    g = sp.csc_matrix(
        (
            np.concatenate([sign, f[f_rows, f_cols], np.ones(p)]),
            (
                np.concatenate([np.arange(n), f_rows, n + np.arange(p)]),
                np.concatenate([v_of_x, n + f_cols, n + np.arange(p)]),
            ),
        ),
        shape=(size, size),
    )
    rows = prior.indices
    cols = np.repeat(np.arange(size), np.diff(prior.indptr))
    xx = (rows < n) & (cols < n)
    vv_keys = v_of_x[cols[xx]] * size + v_of_x[rows[xx]]
    cross_r = np.repeat(v_of_x, p).reshape(n, p)
    cross_c = np.broadcast_to(n + np.arange(p), (n, p))
    cc_r, cc_c = np.meshgrid(n + np.arange(p), n + np.arange(p), indexing="ij")
    cross_keys, cross_t_keys = cross_c * size + cross_r, cross_r * size + cross_c
    cc_keys = cc_c * size + cc_r
    obs_keys = obs_v * (size + 1)
    keys = np.unique(
        np.concatenate([vv_keys, obs_keys, cross_keys.ravel(), cross_t_keys.ravel(), cc_keys.ravel()])
    )

    def at(k):
        return np.searchsorted(keys, k)

    terms = [
        sp.csc_matrix((data, prior.indices, prior.indptr), shape=(size, size))
        for data in prior.data
    ]
    term_data = np.zeros((len(terms), keys.size))
    for row, k_t in zip(term_data, terms):
        mapped = (g.T @ (k_t @ g)).tocoo()
        mapped.sum_duplicates()
        row[at(mapped.col * size + mapped.row)] = mapped.data
    term_c = term_const = None
    if z0 is not None:
        kz0 = np.stack([k_t @ z0 for k_t in terms])
        term_c = -(g.T @ kz0.T).T
        term_const = kz0 @ z0
    return Assembly(
        n=n,
        p=p,
        indptr=at(np.arange(size + 1) * size),
        indices=keys % size,
        g=g,
        z0=z0,
        term_data=term_data,
        term_c=term_c,
        term_const=term_const,
        cross_pos=at(cross_keys),
        cross_t_pos=at(cross_t_keys),
        cc_pos=at(cc_keys),
        obs_pos=at(obs_keys),
        obs_rows=obs,
    )


def _factor(model: CompiledModel, data: np.ndarray, context: str) -> CholeskyHandle:
    """Factor the matrix with the given data on the model's assembly
    pattern, ordering and analysing the pattern on first use."""
    factor = CholeskyHandle(
        model.assembly.matrix(data), context=context, symbolic=model.symbolic
    )
    model.symbolic = factor.symbolic
    return factor


# ---------------------------------------------------------------------------
# Gaussian observation layer
# ---------------------------------------------------------------------------


def gaussian_evidence(
    model: CompiledModel,
    theta: Mapping[str, float],
    want_state: bool = False,
    wrt: Sequence[str] = (),
    pending: list | None = None,
) -> tuple[float, GaussianState | np.ndarray | None]:
    """Exact log pi(y | theta) for the Gaussian copy likelihood.

    With wrt (names of hyperparameters), the second item is the gradient
    of log pi(y | theta) with respect to them, from the same factorization
    and its selected inverse (_evidence_gradient). With want_state it is
    the conditional Gaussian of z; given a pending list, the state's
    latent variances are left for _finish_variances, which reads those of
    a whole grid row off one Takahashi sweep. The list keeps the factor's
    L and D values; the factor itself, with its SuperLU object, is
    dropped on return.
    """
    a, logdet_qp = model.prior_weights(theta)
    plan = _assembly(model)
    tau_obs = model.tau_obs_value(theta)
    n, p = model.n, model.p
    n_o = model.obs_idx.size

    a_data = a @ plan.term_data
    a_data[plan.obs_pos] += tau_obs
    c_vec = a @ plan.term_c
    const = float(a @ plan.term_const)

    factor = _factor(model, a_data, f"theta = {dict(theta)}")
    w = factor.solve(c_vec)
    s_min = const - float(c_vec @ w)
    log_z = (
        -0.5 * n_o * _LOG_2PI
        + 0.5 * n_o * math.log(tau_obs)
        + 0.5 * logdet_qp
        - 0.5 * factor.logdet()
        - 0.5 * s_min
    )
    mean_z = plan.g @ w + plan.z0
    if wrt:
        return log_z, _evidence_gradient(model, theta, wrt, factor, mean_z, w[:n_o])
    if not want_state:
        return log_z, None

    mean_x, mean_c = mean_z[:n], mean_z[n:]
    # The p coefficient columns, with cov_c and the cross terms, from one
    # solve; cov_c is copied so that a kept state holds p x p, not
    # (n+p) x p.
    cols = factor.inverse_columns(np.arange(n, n + p))
    state = GaussianState(
        mean_x=mean_x,
        var_x=None,
        mean_c=mean_c,
        cov_c=cols[n:].copy(),
        mean_eta=mean_x + model.b_design @ mean_c,
        var_eta=None,
    )
    if pending is None:
        _set_variances(model, state, factor.marginal_variances(np.arange(n)), cols)
    else:
        pending.append((state, factor.symbolic, factor.factor_values(), cols))
    return log_z, state


def _set_variances(model: CompiledModel, state: GaussianState, var_z, cols) -> None:
    """Fill in var_x and var_eta from the variances var_z of (u_obs,
    x_miss) and the coefficient columns of the inverse."""
    obs, mis = model.obs_idx, model.miss_idx
    n_o = obs.size
    var_eta = np.empty(model.n)
    var_x = np.empty(model.n)
    # Observed rows: eta = y - u, so Var(eta) is the u-block diagonal and
    # Var(x) = Var(u + X_b c). Missing rows: x is a coordinate of its own.
    var_eta[obs] = var_z[:n_o]
    var_x[obs] = _with_design_variance(
        var_z[:n_o], cols[:n_o], state.cov_c, model.b_design[obs]
    )
    var_x[mis] = var_z[n_o:]
    var_eta[mis] = _with_design_variance(
        var_z[n_o:], cols[n_o : model.n], state.cov_c, model.b_design[mis]
    )
    state.var_x = np.maximum(var_x, 0.0)
    state.var_eta = np.maximum(var_eta, 0.0)


def _finish_variances(model: CompiledModel, pending: list) -> None:
    """Set the variances of the states gaussian_evidence left pending,
    with one Takahashi sweep per run of states on one analysis (a grid
    row normally shares one), and empty the list."""
    for symbolic, run in itertools.groupby(pending, key=lambda item: item[1]):
        run = list(run)
        var_z = marginal_variance_stack(symbolic, [item[2] for item in run], np.arange(model.n))
        for (state, _, _, cols), var in zip(run, var_z):
            _set_variances(model, state, var, cols)
    pending.clear()


def _evidence_gradient(
    model: CompiledModel,
    theta: Mapping[str, float],
    wrt: Sequence[str],
    factor: CholeskyHandle,
    mean_z: np.ndarray,
    resid: np.ndarray,
) -> np.ndarray:
    """Gradient of the Gaussian log pi(y | theta) with respect to the
    hyperparameters named in wrt:

        d/dt = 1/2 d log|Q|/dt - 1/2 tr(M^{-1} dM/dt) - 1/2 mu' (dQ/dt) mu,

    with M the factored matrix and mu the conditional mean of z (the last
    term is the envelope theorem on the quadratic minimum). With da/dt the
    derivative of the prior's weights, dQ/dt = sum_t da_t/dt K_t and dM/dt
    = da/dt @ Assembly.term_data, and the trace is a dot product with the
    selected inverse (CholeskyHandle.inverse_dot). da/dt and d log|Q|/dt
    are central differences of prior_weights at t +- h (h = _DIFF_STEP;
    the mode search keeps t that far inside the clamp) and need no
    factorization: they are exact to rounding in rho, in which the weights
    are quadratic, and in log tau, in which log|Q| is linear (the weights
    gain the relative error h^2/6). log tau_obs enters through the
    likelihood alone, in closed form: n_o/2 - tau_obs/2 (tr Sigma_uu +
    u'u) for the residuals u.
    """
    grad = np.zeros(len(wrt))
    h = _DIFF_STEP
    plan = model.assembly
    for i, name in enumerate(wrt):
        if name == "log_tau_obs":
            tau_obs = model.tau_obs_value(theta)
            n_o = resid.size
            trace = float(np.sum(factor.marginal_variances(np.arange(n_o))))
            grad[i] = 0.5 * n_o - 0.5 * tau_obs * (trace + float(resid @ resid))
            continue
        a_hi, logdet_hi = model.prior_weights({**theta, name: theta[name] + h})
        a_lo, logdet_lo = model.prior_weights({**theta, name: theta[name] - h})
        da = (a_hi - a_lo) / (2.0 * h)
        grad[i] = 0.5 * (
            (logdet_hi - logdet_lo) / (2.0 * h)
            - factor.inverse_dot(plan.matrix(da @ plan.term_data))
            - float(mean_z @ (model.prior.matrix(da) @ mean_z))
        )
    return grad


# ---------------------------------------------------------------------------
# probit observation layer (inner Laplace)
# ---------------------------------------------------------------------------


def _probit_site_derivs(eta: np.ndarray, y: np.ndarray):
    """Per-site log-likelihood, gradient and negative curvature."""
    t = 2.0 * y - 1.0
    u = t * eta
    loglik = log_ndtr(u)
    zeta = np.exp(-0.5 * u * u - _LOG_SQRT_2PI - loglik)
    grad = t * zeta
    curv = zeta * (u + zeta)  # -d2/deta2, positive
    return loglik, grad, curv


def laplace_inner(
    model: CompiledModel, theta: Mapping[str, float], want_state: bool = True
) -> tuple[float, GaussianState | None]:
    """Newton mode + Laplace evidence for the probit likelihood.

    Newton starts from the model's last converged mode (model.last_mode,
    zero when there is none) and leaves the mode it finds there for the
    next call. At each iterate z it factors the Hessian H(z) and solves
    for the step; it stops at the first z whose gradient sup-norm is
    below 1e-7 and whose Newton step is below 1e-10, and that factor of
    H(z) gives the log determinant, the latent variances and the
    coefficient columns. The evidence carries the distance of z from the
    mode at first order (through log|H(z)| and the site corrections), so
    the step bound, not the gradient bound, sets how closely two starts
    agree. The objective is strictly concave, so Newton with backtracking
    reaches the same mode from any start; a repeated theta costs one
    factorization.

    The returned evidence includes per-site Gauss-Hermite correction
    factors (exact for independent sites); the Gaussian posterior is the
    plain mode/curvature approximation.
    """
    if model.likelihood != "probit":
        raise InvalidInputError("laplace_inner requires a probit model")
    a, logdet_qp = model.prior_weights(theta)
    plan = _assembly(model)
    # G = I here: the assembled prior is Q itself.
    q_data = a @ plan.term_data
    q_prior = plan.matrix(q_data)
    n, p = model.n, model.p
    obs = model.obs_idx
    y_o = model.y[obs]
    xb = model.b_design

    def eta_of(z):
        return z[:n] + xb @ z[n:]

    def objective(z):
        ll, _, _ = _probit_site_derivs(eta_of(z)[obs], y_o)
        return float(-0.5 * z @ (q_prior @ z) + ll.sum())

    z = np.zeros(n + p) if model.last_mode is None else model.last_mode
    obj = objective(z)
    for _ in range(100):
        eta = eta_of(z)
        ll, s_site, d_site = _probit_site_derivs(eta[obs], y_o)
        s_full = np.zeros(n)
        s_full[obs] = s_site
        qz = q_prior @ z
        grad = -qz + np.concatenate([s_full, xb.T @ s_full])
        gnorm = float(np.max(np.abs(grad)))
        h = plan.with_curvature(q_data, d_site, xb)
        factor = _factor(model, h, f"probit Hessian, theta = {dict(theta)}")
        delta = factor.solve(grad)
        if gnorm < 1e-7 and float(np.max(np.abs(delta))) < 1e-10:
            break
        t = 1.0
        while t >= 2.0**-30:
            cand = z + t * delta
            cand_obj = objective(cand)
            if cand_obj >= obj - 1e-12:
                break
            t *= 0.5
        z = z + t * delta
        obj = objective(z)
    else:
        raise NumericFailureError(
            f"probit Newton did not converge (last gradient sup-norm {gnorm:.3e})"
        )
    model.last_mode = z

    log_laplace = (
        float(ll.sum()) + 0.5 * logdet_qp - 0.5 * float(z @ qz)
        - 0.5 * factor.logdet()
    )

    var_x = factor.marginal_variances(np.arange(n))
    cols = factor.inverse_columns(np.arange(n, n + p))
    cov_c = cols[n:].copy()
    var_eta = np.maximum(_with_design_variance(var_x, cols[:n], cov_c, xb), 0.0)

    log_z = log_laplace + _site_corrections(eta[obs], y_o, var_eta[obs])
    if not want_state:
        return log_z, None
    state = GaussianState(
        mean_x=z[:n],
        var_x=np.maximum(var_x, 0.0),
        mean_c=z[n:],
        cov_c=cov_c,
        mean_eta=eta,
        var_eta=var_eta,
    )
    return log_z, state


def _with_design_variance(var_v, cross, cov_c, xb) -> np.ndarray:
    """Var(v + X_b c) per row from Var(v), Cov(v, c) and Cov(c)."""
    if xb.shape[1] == 0:
        return var_v.copy()
    return (
        var_v
        + 2.0 * np.einsum("ij,ij->i", xb, cross)
        + np.einsum("ij,jk,ik->i", xb, cov_c, xb)
    )


@functools.lru_cache(maxsize=None)
def _gauss_hermite(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Probabilists' Gauss-Hermite nodes and weights, computed once per
    node count and shared read-only."""
    u_nodes, w_nodes = np.polynomial.hermite_e.hermegauss(nodes)
    u_nodes.flags.writeable = w_nodes.flags.writeable = False
    return u_nodes, w_nodes


def _site_corrections(eta_hat, y_o, var_eta_o, nodes: int = 41) -> float:
    """Sum of log E[exp(remainder)] over sites.

    remainder_i(s) = l_i(eta_i + s) - l_i(eta_i) - l_i'(eta_i) s
                     + (1/2) D_i s^2 under s ~ N(0, var_i),
    i.e. the part of the site log likelihood the Gaussian approximation
    drops. Evaluated with probabilists' Gauss-Hermite nodes.
    """
    u_nodes, w_nodes = _gauss_hermite(nodes)
    log_w = np.log(w_nodes) - 0.5 * math.log(2.0 * math.pi)
    ll0, g0, d0 = _probit_site_derivs(eta_hat, y_o)
    s = np.sqrt(np.maximum(var_eta_o, 0.0))[:, None] * u_nodes[None, :]
    ll_s, _, _ = _probit_site_derivs(eta_hat[:, None] + s, y_o[:, None])
    r = ll_s - ll0[:, None] - g0[:, None] * s + 0.5 * d0[:, None] * s * s
    return float(np.sum(logsumexp(log_w[None, :] + r, axis=1)))


def log_conditional_evidence(
    model,
    theta: Mapping[str, float],
    want_state: bool = True,
    wrt: Sequence[str] = (),
    pending: list | None = None,
) -> tuple[float, GaussianState | np.ndarray | None]:
    """log pi(y | theta) and the conditional Gaussian for any likelihood.

    wrt and pending are for the Gaussian likelihood (gaussian_evidence):
    with wrt the second item is the gradient of log pi(y | theta) with
    respect to the named hyperparameters; with pending the state's latent
    variances wait for _finish_variances.
    """
    compiled = getattr(model, "compiled", model)
    theta = _clamp_theta(dict(theta))
    if compiled.likelihood == "gaussian":
        return gaussian_evidence(compiled, theta, want_state, wrt, pending)
    if wrt:
        raise InvalidInputError("evidence gradients need the Gaussian likelihood")
    return laplace_inner(compiled, theta, want_state)


# ---------------------------------------------------------------------------
# hyperparameter grid
# ---------------------------------------------------------------------------


@dataclass
class HyperGrid:
    """Evaluated hyperparameter grid with integration weights."""

    dims: tuple[str, ...]
    points: np.ndarray  # (G, D)
    log_evidence: np.ndarray
    log_prior: np.ndarray
    delta: float
    theta_fixed: dict[str, float]
    mode_point: np.ndarray
    sigma: np.ndarray

    @property
    def log_post(self) -> np.ndarray:
        return self.log_evidence + self.log_prior

    @property
    def weights(self) -> np.ndarray:
        lp = self.log_post
        w = np.exp(lp - lp.max())
        return w / w.sum()

    def theta_at(self, g: int) -> dict[str, float]:
        theta = dict(self.theta_fixed)
        for d, v in zip(self.dims, self.points[g]):
            theta[d] = float(v)
        return theta

    def axis_masses(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        j = self.dims.index(name)
        vals = np.unique(self.points[:, j])
        w = self.weights
        masses = np.array([w[self.points[:, j] == v].sum() for v in vals])
        return vals, masses


def _log_posterior_fn(model: CompiledModel):
    free = model.free_dims()

    def f(vec):
        theta = model.theta_from_vector(vec)
        log_z, _ = log_conditional_evidence(model, theta, want_state=False)
        lp = sum(d.log_prior(theta[d.name]) for d in free)
        return log_z + lp

    return f


def _log_posterior_and_gradient_fn(model: CompiledModel):
    """vec -> (log pi(theta | y) + const, its gradient), one factorization
    per call; the log priors are differentiated by central differences."""
    free = model.free_dims()
    names = tuple(d.name for d in free)

    def fg(vec):
        theta = model.theta_from_vector(vec)
        log_z, grad = log_conditional_evidence(model, theta, want_state=False, wrt=names)
        lp = sum(d.log_prior(theta[d.name]) for d in free)
        h = _DIFF_STEP
        dlp = [
            (d.log_prior(theta[d.name] + h) - d.log_prior(theta[d.name] - h)) / (2.0 * h)
            for d in free
        ]
        return log_z + lp, grad + np.array(dlp)

    return fg


def _numeric_hessian(
    f,
    x0: np.ndarray,
    h: float,
    lo: np.ndarray,
    hi: np.ndarray,
    f0: float | None = None,
    extrapolate: bool = False,
) -> np.ndarray:
    """Central-difference Hessian of f at x0 with step h per axis.

    An axis whose bound lo or hi lies within h of x0 gets half the room
    left as its step, so every stencil point stays strictly inside the
    bounds and none is clamped into a one-sided stencil. f0, when given,
    is f(x0); the stencil then costs 2 d^2 evaluations of f.

    With extrapolate, for an f whose noise lies well above rounding, each
    diagonal entry is the Richardson extrapolation (4 D(s/2) - D(s)) / 3
    of the central second differences D at s = 10 h and s/2: two more
    evaluations per axis, 17 times less noise gain than D(h) (about
    5.7 / s^2 against 4 / h^2) and a truncation error of O(s^4).
    """
    d = x0.size
    room = np.minimum(x0 - lo, hi - x0)
    if np.any(room <= 0.0):
        raise NumericFailureError(
            f"hyperparameter mode {x0.tolist()} lies on the bound of its domain"
        )
    steps = np.minimum(h, 0.5 * room)
    hess = np.empty((d, d))
    if f0 is None:
        f0 = f(x0)

    def second_difference(i, step):
        e = np.zeros(d)
        e[i] = step
        return (f(x0 + e) - 2.0 * f0 + f(x0 - e)) / step**2

    for i in range(d):
        ei = np.zeros(d)
        ei[i] = steps[i]
        if extrapolate:
            s = min(10.0 * h, 0.5 * room[i])
            hess[i, i] = (4.0 * second_difference(i, 0.5 * s) - second_difference(i, s)) / 3.0
        else:
            hess[i, i] = second_difference(i, steps[i])
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = steps[j]
            hess[i, j] = hess[j, i] = (
                f(x0 + ei + ej) - f(x0 + ei - ej) - f(x0 - ei + ej) + f(x0 - ei - ej)
            ) / (4.0 * steps[i] * steps[j])
    return hess


def _mode_and_scale(model: CompiledModel):
    """Posterior mode of the free hyperparameters and the grid's scale per
    axis (the sd of each axis under the Hessian at the mode).

    One free hyperparameter (every probit fit, SLX, a fixed rho): bounded
    Brent over its whole domain (Brent 1973). Two or more, which only the
    Gaussian likelihood has: L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) on
    the exact evidence gradient, each point one factorization
    (_evidence_gradient), within _theta_bounds narrowed by the gradient's
    difference step. The Hessian is a central-difference stencil on the
    log posterior that reuses the search's value at the mode, extrapolated
    from two wider steps for a probit evidence (see _numeric_hessian).
    """
    free = model.free_dims()
    d = len(free)
    if d == 0:
        return np.empty(0), np.empty(0)
    f = _log_posterior_fn(model)
    lo, hi = np.array([_theta_bounds(dim.name) for dim in free]).T
    if d == 1:
        res = scipy.optimize.minimize_scalar(
            lambda t: -f([t]),
            bounds=(lo[0], hi[0]),
            method="bounded",
            options={"xatol": 1e-5},
        )
    else:
        if model.likelihood != "gaussian":
            raise InvalidInputError(
                f"a {model.likelihood} model takes at most one free hyperparameter, "
                f"got {d}"
            )
        fg = _log_posterior_and_gradient_fn(model)

        def neg(vec):
            value, grad = fg(vec)
            return -value, -grad

        inner = np.column_stack([lo + _DIFF_STEP, hi - _DIFF_STEP])
        res = scipy.optimize.minimize(
            neg,
            np.clip([dim.init for dim in free], inner[:, 0], inner[:, 1]),
            jac=True,
            method="L-BFGS-B",
            bounds=inner,
            options={"ftol": 1e-10, "gtol": 1e-5, "maxiter": 200},
        )
        # A line search stalled by round-off in the log posterior (status
        # 2) is converged when the quasi-Newton estimate of the gain left,
        # g' B^{-1} g / 2, is negligible.
        if res.status == 2 and 0.5 * res.jac @ res.hess_inv.dot(res.jac) <= 1e-8:
            res.success = True
    if not res.success:
        raise NumericFailureError(
            f"hyperparameter mode search did not converge: {res.message} "
            f"(nit = {res.nit}, nfev = {res.nfev})"
        )
    x = np.atleast_1d(res.x)
    mode = np.array([model.theta_from_vector(x)[dim.name] for dim in free])
    # The optimizer's value at its x is f(mode) unless clamping moved it.
    f0 = -float(res.fun) if np.array_equal(mode, x) else None
    # A probit evidence carries the inner Newton's stopping error (about
    # 1e-11 on the test fits), and its site corrections read variances
    # whose last bits depend on the inverse that supplies them; D(h) would
    # multiply either by 4 / h^2 = 4e8.
    hess = _numeric_hessian(
        f, mode, _HESS_STEP, lo, hi, f0, extrapolate=model.likelihood == "probit"
    )
    neg_h = -hess
    try:
        eigval, eigvec = np.linalg.eigh(neg_h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericFailureError(f"Hessian eigendecomposition failed: {exc}") from exc
    floor = max(np.abs(eigval).max() * 1e-6, 1e-8)
    eigval = np.maximum(eigval, floor)
    cov = (eigvec / eigval) @ eigvec.T
    sigma = np.sqrt(np.clip(np.diag(cov), 1e-8, None))
    sigma = np.clip(sigma, 1e-3, 5.0)
    return mode, sigma


def _build_grid(model: CompiledModel, settings: GridSettings, want_states: bool):
    # Every exploration starts cold, from no mode and no analysis, so its
    # result does not depend on what was evaluated on the model before.
    model.symbolic = model.assembly = model.last_mode = None
    free = model.free_dims()
    d = len(free)
    theta_fixed = {dim.name: dim.fixed for dim in model.hyper_dims if dim.fixed is not None}
    mode, sigma = _mode_and_scale(model)

    if d == 0:
        points = np.zeros((1, 0))
        rows = np.zeros(1, dtype=int)
        delta = 1.0
    else:
        offsets = np.arange(-settings.k, settings.k + 1)
        axes = [mode[j] + settings.step * sigma[j] * offsets for j in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=1)
        # A grid row: the 2k + 1 consecutive points along the last axis.
        rows = np.arange(points.shape[0]) // offsets.size
        # rho stays strictly inside (0, 1); out-of-domain points are dropped
        # rather than piled up at the boundary.
        keep = np.ones(points.shape[0], dtype=bool)
        for j, dim in enumerate(free):
            if dim.name == "rho_internal":
                keep &= (points[:, j] > 0.0) & (points[:, j] < 1.0)
        points, rows = points[keep], rows[keep]
        delta = float(np.prod(settings.step * sigma))

    log_ev = np.empty(points.shape[0])
    log_pr = np.empty(points.shape[0])
    states: list[GaussianState] = []
    # Gaussian states leave their latent variances pending until the end
    # of their grid row, which shares one Takahashi sweep.
    pending = [] if want_states else None
    for g in range(points.shape[0]):
        theta = model.theta_from_vector(points[g])
        lz, state = log_conditional_evidence(
            model, theta, want_state=want_states, pending=pending
        )
        log_ev[g] = lz
        log_pr[g] = sum(dim.log_prior(theta[dim.name]) for dim in free)
        if want_states:
            states.append(state)
            if g + 1 == points.shape[0] or rows[g + 1] != rows[g]:
                _finish_variances(model, pending)

    log_post = log_ev + log_pr
    keep = log_post >= log_post.max() - settings.drop
    grid = HyperGrid(
        dims=tuple(dim.name for dim in free),
        points=points[keep],
        log_evidence=log_ev[keep],
        log_prior=log_pr[keep],
        delta=delta,
        theta_fixed=theta_fixed,
        mode_point=mode,
        sigma=sigma,
    )
    kept_states = [s for s, k in zip(states, keep) if k] if want_states else None
    return grid, kept_states


def explore_hypergrid(model, settings: GridSettings | None = None) -> HyperGrid:
    """Locate the hyperparameter mode and lay a weighted grid around it."""
    compiled = getattr(model, "compiled", model)
    grid, _ = _build_grid(compiled, settings or GridSettings(), want_states=False)
    return grid


def marginal_likelihood(grid: HyperGrid) -> float:
    """log pi(y | model): grid quadrature of evidence x prior."""
    return float(logsumexp(grid.log_post + math.log(grid.delta)))


def _axis_marginal(grid: HyperGrid, name: str) -> mg.Marginal | None:
    """Smooth 1D marginal of one grid axis (interpolated log density)."""
    if name not in grid.dims:
        return None
    vals, masses = grid.axis_masses(name)
    if vals.size < 3:
        return None
    h = float(np.median(np.diff(vals)))
    dens = masses / h
    log_floor = math.log(max(dens.max(), 1e-300)) - 41.0
    log_dens = np.log(np.maximum(dens, math.exp(log_floor)))
    interp = PchipInterpolator(vals, log_dens, extrapolate=True)
    lo, hi = vals[0] - h / 2.0, vals[-1] + h / 2.0
    if name == "rho_internal":
        lo, hi = max(lo, 1e-9), min(hi, 1.0 - 1e-9)
    x = np.linspace(lo, hi, _HYPER_MARGINAL_POINTS)
    return mg.normalized(x, np.exp(interp(x)))


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    """Everything downstream modules need from one fitted model."""

    likelihood: str
    coef_names: tuple[str, ...]
    n: int
    grid: HyperGrid
    weights: np.ndarray
    rho_bounds: tuple[float, float] | None
    rho_marginal: mg.Marginal | None
    tau_marginal: mg.Marginal | None
    coef_means: np.ndarray  # (G, p)
    coef_covs: np.ndarray  # (G, p, p)
    x_means: np.ndarray  # (G, n)
    x_vars: np.ndarray
    eta_means: np.ndarray
    eta_vars: np.ndarray
    log_mlik: float
    dic: float
    p_eff: float
    predictive: dict[int, mg.Marginal]
    settings: GridSettings
    kind: str | None = None
    model: object = None

    @property
    def eta_mean(self) -> np.ndarray:
        """Posterior (mixture) mean of the linear predictor."""
        return self.weights @ self.eta_means

    def coef_index(self, name_or_idx) -> int:
        if isinstance(name_or_idx, str):
            try:
                return self.coef_names.index(name_or_idx)
            except ValueError as exc:
                raise InvalidInputError(
                    f"unknown coefficient {name_or_idx!r}; have {self.coef_names}"
                ) from exc
        return int(name_or_idx)

    def coef_mixture(self, name_or_idx) -> tuple[np.ndarray, np.ndarray]:
        j = self.coef_index(name_or_idx)
        return self.coef_means[:, j], self.coef_covs[:, j, j]

    def coef_marginal(self, name_or_idx) -> mg.Marginal:
        means, variances = self.coef_mixture(name_or_idx)
        return mg.gaussian_mixture_marginal(
            means, variances, self.weights, MIXTURE_POINTS
        )

    def coef_moments(self, name_or_idx) -> tuple[float, float]:
        means, variances = self.coef_mixture(name_or_idx)
        return mg.mixture_moments(means, variances, self.weights)

    def combination_mixture(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Per-grid mean and variance of a_g . c, Gaussian given theta_g.

        rows is a (G, p) array with one weight row per grid point, a (p,)
        row shared by all of them, or a mapping from coefficient names to
        weights.
        """
        if isinstance(rows, Mapping):
            a = np.zeros(len(self.coef_names))
            for name, val in rows.items():
                a[self.coef_index(name)] = val
            rows = a
        rows = np.broadcast_to(np.asarray(rows, dtype=float), self.coef_means.shape)
        means = np.einsum("gj,gj->g", rows, self.coef_means)
        variances = np.einsum("gj,gjk,gk->g", rows, self.coef_covs, rows)
        return means, variances

    def linear_combination_moments(self, coeffs: Mapping[str, float]) -> tuple[float, float]:
        """Mixture mean/variance of sum_j a_j beta_j (within-grid covariances kept)."""
        return mg.mixture_moments(*self.combination_mixture(coeffs), self.weights)

    def latent_marginal(self, index: int) -> mg.Marginal:
        if not 0 <= index < self.n:
            raise InvalidInputError(f"latent index {index} out of range [0, {self.n})")
        return mg.gaussian_mixture_marginal(
            self.x_means[:, index],
            self.x_vars[:, index],
            self.weights,
            MIXTURE_POINTS,
        )

    def coef_summary(self) -> dict[str, dict[str, float]]:
        return {name: self.coef_marginal(name).summary() for name in self.coef_names}

    def hyper_summary(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        if self.rho_marginal is not None:
            out["rho"] = self.rho_marginal.summary()
        if self.tau_marginal is not None:
            out["tau"] = self.tau_marginal.summary()
        return out


def _gaussian_dic(model: CompiledModel, grid, weights, states) -> tuple[float, float]:
    obs = model.obs_idx
    y_o = model.y[obs]
    e_d = 0.0
    tau_mix = 0.0
    for w_g, state, g in zip(weights, states, range(len(states))):
        tau_o = model.tau_obs_value(grid.theta_at(g))
        resid2 = (y_o - state.mean_eta[obs]) ** 2 + state.var_eta[obs]
        e_d += w_g * float(np.sum(np.log(2.0 * math.pi / tau_o) + tau_o * resid2))
        tau_mix += w_g * tau_o
    eta_bar = np.zeros(model.n)
    for w_g, state in zip(weights, states):
        eta_bar += w_g * state.mean_eta
    d_plug = float(
        np.sum(np.log(2.0 * math.pi / tau_mix) + tau_mix * (y_o - eta_bar[obs]) ** 2)
    )
    dic = 2.0 * e_d - d_plug
    return dic, e_d - d_plug


def _probit_dic(
    model: CompiledModel, weights, states, nodes: int
) -> tuple[float, float]:
    obs = model.obs_idx
    y_o = model.y[obs]
    u_nodes, w_nodes = _gauss_hermite(nodes)
    wbar = w_nodes / w_nodes.sum()
    e_d = 0.0
    eta_bar = np.zeros(model.n)
    for w_g, state in zip(weights, states):
        s = np.sqrt(state.var_eta[obs])[:, None] * u_nodes[None, :]
        ll, _, _ = _probit_site_derivs(state.mean_eta[obs][:, None] + s, y_o[:, None])
        e_d += w_g * float(-2.0 * np.sum(ll @ wbar))
        eta_bar += w_g * state.mean_eta
    p_hat = ndtr(eta_bar[obs])
    if np.any(p_hat <= 1e-12) or np.any(p_hat >= 1.0 - 1e-12):
        # Degenerate fitted probabilities: deviance at the plug-in blows up.
        return math.inf, math.inf
    ll_plug = y_o * np.log(p_hat) + (1.0 - y_o) * np.log1p(-p_hat)
    d_plug = float(-2.0 * ll_plug.sum())
    dic = 2.0 * e_d - d_plug
    return dic, e_d - d_plug


def _predictive_marginals(model: CompiledModel, grid, weights, states) -> dict[int, mg.Marginal]:
    out: dict[int, mg.Marginal] = {}
    for i in model.miss_idx:
        means = np.array([s.mean_eta[i] for s in states])
        variances = np.array([s.var_eta[i] for s in states])
        if model.likelihood == "gaussian":
            noise = np.array(
                [1.0 / model.tau_obs_value(grid.theta_at(g)) for g in range(len(states))]
            )
            out[int(i)] = mg.gaussian_mixture_marginal(
                means, variances + noise, weights, MIXTURE_POINTS
            )
        else:
            out[int(i)] = mg.probit_mixture_marginal(
                means, variances, weights, MIXTURE_POINTS
            )
    return out


def fit_compiled(
    model: CompiledModel, settings: GridSettings | None = None
) -> FitResult:
    """Full inference pass: grid, marginals, evidence, DIC, predictions."""
    settings = settings or GridSettings()
    grid, states = _build_grid(model, settings, want_states=True)
    # A kept fit holds its results, not the factorization workspace or
    # the last mode; a later evaluation analyses its pattern again and
    # starts Newton from zero.
    model.symbolic = model.assembly = model.last_mode = None
    weights = grid.weights
    g_count, n, p = len(states), model.n, model.p

    coef_means = np.stack([s.mean_c for s in states]) if p else np.zeros((g_count, 0))
    coef_covs = (
        np.stack([s.cov_c for s in states]) if p else np.zeros((g_count, 0, 0))
    )
    x_means = np.stack([s.mean_x for s in states])
    x_vars = np.stack([s.var_x for s in states])
    eta_means = np.stack([s.mean_eta for s in states])
    eta_vars = np.stack([s.var_eta for s in states])

    rho_marg = None
    if model.rho_bounds is not None and "rho_internal" in grid.dims:
        internal = _axis_marginal(grid, "rho_internal")
        if internal is not None:
            lo, hi = model.rho_bounds
            rho_marg = mg.transform_marginal(
                internal,
                lambda r: lo + r * (hi - lo),
                deriv=lambda r: np.full_like(np.asarray(r, dtype=float), hi - lo),
            )
    tau_marg = None
    for tau_dim in ("log_tau", "log_tau_iid"):
        if tau_dim in grid.dims:
            log_tau_marg = _axis_marginal(grid, tau_dim)
            if log_tau_marg is not None:
                tau_marg = mg.transform_marginal(log_tau_marg, np.exp, deriv=np.exp)
            break

    if model.likelihood == "gaussian":
        dic, p_eff = _gaussian_dic(model, grid, weights, states)
    else:
        dic, p_eff = _probit_dic(model, weights, states, _DIC_GH_NODES)

    predictive = _predictive_marginals(model, grid, weights, states)

    return FitResult(
        likelihood=model.likelihood,
        coef_names=model.coef_names,
        n=n,
        grid=grid,
        weights=weights,
        rho_bounds=model.rho_bounds,
        rho_marginal=rho_marg,
        tau_marginal=tau_marg,
        coef_means=coef_means,
        coef_covs=coef_covs,
        x_means=x_means,
        x_vars=x_vars,
        eta_means=eta_means,
        eta_vars=eta_vars,
        log_mlik=marginal_likelihood(grid),
        dic=dic,
        p_eff=p_eff,
        predictive=predictive,
        settings=settings,
    )
