"""Independent oracles shared by the engine/model/impact tests.

Everything here is computed from the generative model definitions with
dense linear algebra or quadrature, deliberately avoiding the package's
sparse-factorization code paths.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy import stats
from scipy.spatial import Delaunay

from spatecon import (
    InvalidParameterError,
    NumericFailureError,
    from_dense,
    knn_adjacency,
    row_standardize,
)
from spatecon.gmrf import rho_to_external


def random_weights(rng, n, k=3):
    return row_standardize(knn_adjacency(rng.uniform(size=(n, 2)), k))


def delaunay_weights(rng, n):
    """Row-standardized Delaunay contiguity of n uniform points."""
    coords = rng.uniform(size=(n, 2))
    adj = np.zeros((n, n))
    for simplex in Delaunay(coords).simplices:
        for a in simplex:
            adj[a, simplex[simplex != a]] = 1.0
    return row_standardize(from_dense(adj))


def simulate_slm(rng, w, beta, rho, sigma):
    """Draw y from y = (I - rho W)^{-1}(X beta + eps); returns (y, x_raw)."""
    n = w.n
    p = len(beta) - 1
    x = rng.normal(size=(n, p))
    design = np.hstack([np.ones((n, 1)), x])
    eps = rng.normal(scale=sigma, size=n)
    y = np.linalg.solve(np.eye(n) - rho * w.toarray(), design @ np.asarray(beta) + eps)
    return y, x


def dense_cov_y(model, theta):
    """Covariance of the observed response assembled from the model form."""
    c = model.compiled
    n = c.n
    tau_obs = c.tau_obs if c.tau_obs is not None else math.exp(theta["log_tau_obs"])
    if model.kind in ("slm", "sdm"):
        spec = model.slm
        rho = rho_to_external(theta["rho_internal"], spec.w.rho_range())
        tau = math.exp(theta["log_tau"])
        a_inv = np.linalg.inv(np.eye(n) - rho * spec.w.toarray())
        x = spec.x_design
        inner = x @ np.linalg.solve(spec.q_beta, x.T) if spec.p else np.zeros((n, n))
        return a_inv @ (inner + np.eye(n) / tau) @ a_inv.T + np.eye(n) / tau_obs
    if model.kind in ("sem", "sdem"):
        spec = model.slm
        rho = rho_to_external(theta["rho_internal"], spec.w.rho_range())
        tau = math.exp(theta["log_tau"])
        a_inv = np.linalg.inv(np.eye(n) - rho * spec.w.toarray())
        xf = c.b_design
        qf = model.priors.q_beta_diag
        fixed = xf @ xf.T / qf if xf.shape[1] else np.zeros((n, n))
        return fixed + a_inv @ a_inv.T / tau + np.eye(n) / tau_obs
    # slx
    tau_u = math.exp(theta["log_tau_iid"])
    xf = c.b_design
    qf = model.priors.q_beta_diag
    fixed = xf @ xf.T / qf if xf.shape[1] else np.zeros((n, n))
    return fixed + np.eye(n) / tau_u + np.eye(n) / tau_obs


def dense_evidence(model, theta):
    """Exact Gaussian log evidence from the dense response covariance."""
    c = model.compiled
    obs = c.obs_idx
    cov = dense_cov_y(model, theta)[np.ix_(obs, obs)]
    y = c.y[obs]
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0
    quad = float(y @ np.linalg.solve(cov, y))
    return -0.5 * (obs.size * np.log(2 * np.pi) + logdet + quad)


def dense_cov_z(model, theta):
    """Dense covariance of the latent (x, c) from the generative form."""
    c = model.compiled
    n = c.n
    if model.kind in ("slm", "sdm"):
        spec = model.slm
        rho = rho_to_external(theta["rho_internal"], spec.w.rho_range())
        tau = math.exp(theta["log_tau"])
        a_inv = np.linalg.inv(np.eye(n) - rho * spec.w.toarray())
        q_inv = np.linalg.inv(spec.q_beta)
        x = spec.x_design
        top = a_inv @ (x @ q_inv @ x.T + np.eye(n) / tau) @ a_inv.T
        cross = a_inv @ x @ q_inv
        return np.block([[top, cross], [cross.T, q_inv]])
    if model.kind in ("sem", "sdem"):
        spec = model.slm
        rho = rho_to_external(theta["rho_internal"], spec.w.rho_range())
        tau = math.exp(theta["log_tau"])
        a_inv = np.linalg.inv(np.eye(n) - rho * spec.w.toarray())
        p = c.p
        blocks = np.zeros((n + p, n + p))
        blocks[:n, :n] = a_inv @ a_inv.T / tau
        blocks[n:, n:] = np.eye(p) / model.priors.q_beta_diag
        return blocks
    tau_u = math.exp(theta["log_tau_iid"])
    p = c.p
    blocks = np.zeros((n + p, n + p))
    blocks[:n, :n] = np.eye(n) / tau_u
    blocks[n:, n:] = np.eye(p) / model.priors.q_beta_diag
    return blocks


def dense_posterior_z(model, theta):
    """Gaussian-conditional mean and covariance of (x, c) by dense GLS."""
    c = model.compiled
    obs = c.obs_idx
    tau_obs = c.tau_obs if c.tau_obs is not None else math.exp(theta["log_tau_obs"])
    cov_z = dense_cov_z(model, theta)
    b = np.hstack([np.eye(c.n), c.b_design])[obs]
    cov_y = b @ cov_z @ b.T + np.eye(obs.size) / tau_obs
    gain = cov_z @ b.T @ np.linalg.inv(cov_y)
    mean = gain @ c.y[obs]
    cov = cov_z - gain @ b @ cov_z
    return mean, cov


def logit_normal_logpdf(r, mean=0.0, prec=10.0):
    """Reference density of internal rho (Gaussian on its logit)."""
    logit = np.log(r) - np.log1p(-r)
    return (
        0.5 * (np.log(prec) - np.log(2 * np.pi))
        - 0.5 * prec * (logit - mean) ** 2
        - np.log(r)
        - np.log1p(-r)
    )


def log_gamma_logpdf(t, shape=1.0, rate=5e-5):
    """Reference density of log tau when tau ~ Gamma(shape, rate)."""
    from scipy.special import gammaln

    return shape * np.log(rate) - gammaln(shape) + shape * t - rate * np.exp(t)


def bayes_lr_posterior(x, y, q_diag, noise_var):
    """Conjugate linear-regression posterior with known noise variance."""
    prec = np.diag(np.full(x.shape[1], q_diag)) + x.T @ x / noise_var
    cov = np.linalg.inv(prec)
    mean = cov @ (x.T @ y / noise_var)
    return mean, cov


def gradient_at_mode(compiled, theta, state):
    """Sup-norm of the log-posterior gradient of (x, c) at the probit mode."""
    from scipy.special import log_ndtr

    a, _ = compiled.prior_weights(theta)
    q = compiled.prior.matrix(a)
    z = np.concatenate([state.mean_x, state.mean_c])
    eta = state.mean_x + compiled.b_design @ state.mean_c
    obs = compiled.obs_idx
    t = 2.0 * compiled.y[obs] - 1.0
    u = t * eta[obs]
    zeta = np.exp(-0.5 * u * u - 0.5 * np.log(2 * np.pi) - log_ndtr(u))
    s = np.zeros(compiled.n)
    s[obs] = t * zeta
    grad = -(q @ z) + np.concatenate([s, compiled.b_design.T @ s])
    return float(np.max(np.abs(grad)))


def reference_prior(model, theta):
    """The engine's prior (Q, log|Q|) assembled as products at each theta:
    (I - rho W)'(I - rho W) and a block matrix, with log|det(I - rho W)|
    from a dense determinant."""
    import scipy.sparse as sp

    c = model.compiled
    n = c.n
    q_fixed = np.full(c.b_design.shape[1], model.priors.q_beta_diag)
    if model.kind == "slx":
        tau_u = math.exp(theta["log_tau_iid"])
        q = sp.diags(np.concatenate([np.full(n, tau_u), q_fixed])).tocsc()
        return q, n * math.log(tau_u) + float(np.sum(np.log(q_fixed)))
    spec = model.slm
    rho = rho_to_external(theta["rho_internal"], spec.w.rho_range())
    tau = math.exp(theta["log_tau"])
    a = sp.identity(n, format="csr") - rho * spec.w.mat
    logdet = n * math.log(tau) + 2.0 * np.linalg.slogdet(a.toarray())[1]
    top_left = tau * (a.T @ a)
    x = spec.x_design
    if spec.p:
        top_right = sp.csr_matrix(-tau * (a.T @ x))
        bottom_right = sp.csr_matrix(spec.q_beta + tau * (x.T @ x))
        q = sp.bmat([[top_left, top_right], [top_right.T, bottom_right]], format="csc")
        logdet += np.linalg.slogdet(spec.q_beta)[1]
    else:
        q = top_left.tocsc()
    if model.kind in ("sem", "sdem") and q_fixed.size:
        q = sp.block_diag([q, sp.diags(q_fixed)], format="csc")
        logdet += float(np.sum(np.log(q_fixed)))
    return q, float(logdet)


def reference_gaussian_system(model, theta):
    """The Gaussian layer's matrix G'(Q G) + shift in the residual-shifted
    coordinates (u_obs, x_miss, c), with its log evidence from dense
    linear algebra."""
    import scipy.sparse as sp

    c = model.compiled
    n, p = c.n, c.p
    obs, mis = c.obs_idx, c.miss_idx
    n_o, n_m = obs.size, mis.size
    tau_obs = c.tau_obs if c.tau_obs is not None else math.exp(theta["log_tau_obs"])
    g = np.zeros((n + p, n + p))
    g[obs, np.arange(n_o)] = -1.0
    g[np.ix_(obs, n_o + n_m + np.arange(p))] = -c.b_design[obs]
    g[mis, n_o + np.arange(n_m)] = 1.0
    g[n + np.arange(p), n_o + n_m + np.arange(p)] = 1.0
    g = sp.csr_matrix(g)
    z0 = np.zeros(n + p)
    z0[obs] = c.y[obs]
    q, logdet_q = reference_prior(model, theta)
    shift = np.concatenate([np.full(n_o, tau_obs), np.zeros(n_m + p)])
    a = (g.T @ (q @ g) + sp.diags(shift)).toarray()
    qz0 = q @ z0
    c_vec = -(g.T @ qz0)
    s_min = float(z0 @ qz0) - float(c_vec @ np.linalg.solve(a, c_vec))
    log_z = (
        -0.5 * n_o * math.log(2 * math.pi)
        + 0.5 * n_o * math.log(tau_obs)
        + 0.5 * logdet_q
        - 0.5 * np.linalg.slogdet(a)[1]
        - 0.5 * s_min
    )
    return a, log_z


def reference_probit_system(model, theta, z):
    """The probit Hessian Q + [D, D X_b; X_b' D, X_b' D X_b] at the latent
    point z, with the Laplace log evidence at z (including the per-site
    Gauss-Hermite corrections) from dense linear algebra."""
    import scipy.sparse as sp
    from scipy.special import log_ndtr, logsumexp

    c = model.compiled
    n = c.n
    obs = c.obs_idx
    xb = c.b_design
    q, logdet_q = reference_prior(model, theta)

    def site(eta, y):
        t = 2.0 * y - 1.0
        u = t * eta
        ll = log_ndtr(u)
        zeta = np.exp(-0.5 * u * u - 0.5 * math.log(2 * math.pi) - ll)
        return ll, t * zeta, zeta * (u + zeta)

    eta = z[:n] + xb @ z[n:]
    y_o = c.y[obs]
    ll, g0, d0 = site(eta[obs], y_o)
    d = np.zeros(n)
    d[obs] = d0
    dx = d[:, None] * xb
    h = (q + sp.bmat([[sp.diags(d), sp.csr_matrix(dx)],
                      [sp.csr_matrix(dx.T), sp.csr_matrix(xb.T @ dx)]])).toarray()
    cov = np.linalg.inv(h)
    b = np.hstack([np.eye(n), xb])
    var_eta = np.einsum("ij,jk,ik->i", b, cov, b)[obs]
    u_nodes, w_nodes = np.polynomial.hermite_e.hermegauss(41)
    log_w = np.log(w_nodes) - 0.5 * math.log(2 * math.pi)
    s = np.sqrt(var_eta)[:, None] * u_nodes[None, :]
    ll_s, _, _ = site(eta[obs][:, None] + s, y_o[:, None])
    r = ll_s - ll[:, None] - g0[:, None] * s + 0.5 * d0[:, None] * s * s
    corrections = float(np.sum(logsumexp(log_w[None, :] + r, axis=1)))
    log_z = (
        float(ll.sum()) + 0.5 * logdet_q - 0.5 * float(z @ (q @ z))
        - 0.5 * np.linalg.slogdet(h)[1] + corrections
    )
    return h, log_z


def impact_matrix_dense(kind, w, rho, beta_r, gamma_r=0.0):
    """Dense n x n impact matrix of one covariate; the oracle for the
    average impacts."""
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


def dense_trace_functions(w, rho_values):
    """(tr((I - rho W)^{-1})/n, tr((I - rho W)^{-1} W)/n) from dense inverses."""
    wd = w.toarray()
    t1, t2 = [], []
    for rho in rho_values:
        a_inv = np.linalg.inv(np.eye(w.n) - rho * wd)
        t1.append(np.trace(a_inv) / w.n)
        t2.append(np.sum(a_inv * wd.T) / w.n)
    return np.array(t1), np.array(t2)


def impact_weights(fit, w):
    """Weights of (beta_r, gamma_r) in the average direct and total impacts
    of an SLM or SDM fit at each grid point, as two (G, 2) arrays, read off
    the dense impact matrices at the grid point's rho."""
    direct, total = [], []
    for g in range(len(fit.weights)):
        rho = rho_to_external(fit.grid.theta_at(g)["rho_internal"], fit.rho_bounds)
        mats = [impact_matrix_dense(fit.kind, w, rho, *bg) for bg in ((1.0, 0.0), (0.0, 1.0))]
        direct.append([np.trace(s) / w.n for s in mats])
        total.append([s.sum() / w.n for s in mats])
    return np.array(direct), np.array(total)


def _impact_coefficients(fit, covariate):
    gamma = fit.model.gamma_name(covariate)
    return [fit.coef_names.index(n) for n in [covariate] + ([gamma] if gamma else [])]


def impact_mixture(fit, w, covariate, scale=None):
    """{impact: (mean, sd)} of the grid mixture of the conditional Gaussian
    impacts, built from impact_weights; scale[g], if given, multiplies the
    weights of grid point g."""
    idx = _impact_coefficients(fit, covariate)
    direct, total = impact_weights(fit, w)
    if scale is not None:
        direct, total = direct * scale[:, None], total * scale[:, None]
    out = {}
    for which, a in (("direct", direct), ("indirect", total - direct), ("total", total)):
        a = a[:, : len(idx)]
        mu = fit.coef_means[:, idx]
        cov = fit.coef_covs[:, idx][:, :, idx]
        means = np.sum(a * mu, axis=1)
        variances = np.einsum("gi,gij,gj->g", a, cov, a)
        mean = float(fit.weights @ means)
        var = float(fit.weights @ (variances + means**2)) - mean**2
        out[which] = (mean, math.sqrt(var))
    return out


def sample_impacts(fit, w, covariate, draws, rng):
    """{impact: draws} from joint draws of (grid point, beta_r, gamma_r)."""
    idx = _impact_coefficients(fit, covariate)
    direct, total = impact_weights(fit, w)
    gsel = rng.choice(len(fit.weights), size=draws, p=fit.weights)
    out = {"direct": np.empty(draws), "total": np.empty(draws)}
    for g in range(len(fit.weights)):
        mask = gsel == g
        if not mask.any():
            continue
        c = rng.multivariate_normal(
            fit.coef_means[g][idx], fit.coef_covs[g][np.ix_(idx, idx)], size=int(mask.sum())
        )
        out["direct"][mask] = c @ direct[g, : len(idx)]
        out["total"][mask] = c @ total[g, : len(idx)]
    out["indirect"] = out["total"] - out["direct"]
    return out


def monte_carlo_moments(samples):
    """(mean, sd, standard error of the mean, standard error of the sd)."""
    n = samples.size
    mean, sd = float(samples.mean()), float(samples.std())
    se_var = float(np.std((samples - mean) ** 2)) / math.sqrt(n)
    return mean, sd, sd / math.sqrt(n), se_var / (2.0 * sd)


def selected_inverse(handle):
    """The entries of a CholeskyHandle's selected inverse on the pattern of
    L + L', as a sparse matrix in the original coordinates."""
    n = handle.shape[0]
    l_indptr, l_indices, *_ = handle.symbolic.l_pattern()
    sigma = handle._selected()
    order = handle.symbolic.order
    rows = order[l_indices]
    cols = order[np.repeat(np.arange(n), np.diff(l_indptr))]
    off = rows != cols
    return sp.csc_matrix(
        (
            np.concatenate([sigma, sigma[off]]),
            (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])),
        ),
        shape=handle.shape,
    )
