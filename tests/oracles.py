"""Independent oracles shared by the engine/model/impact tests.

Everything here is computed from the generative model definitions with
dense linear algebra or quadrature, deliberately avoiding the package's
sparse-factorization code paths. The one exception is cholesky_of, which
factors a whole SPD matrix through CholeskyHandle for the tests of the
factorization itself.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy import stats
from scipy.spatial import Delaunay

from spatecon import (
    CholeskyHandle,
    InvalidInputError,
    InvalidParameterError,
    NumericFailureError,
    from_dense,
    knn_adjacency,
    row_standardize,
)
from spatecon.engine import TAU_OBS
from spatecon.gmrf import PrecisionTerms, SlmSpec, SymbolicFactor, _splu, rho_to_external


def terms_matrix(terms, weights):
    """sum_t weights[t] K_t on the terms' pattern, as a CSC matrix. terms
    is a PrecisionTerms, or an SlmSpec, whose joint precision's terms
    (PrecisionTerms.of) are built for the weights of joint_precision."""
    if isinstance(terms, SlmSpec):
        terms = PrecisionTerms.of(terms)
    size = terms.indptr.size - 1
    return sp.csc_matrix((weights @ terms.data, terms.indices, terms.indptr), shape=(size, size))


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
    if model.kind in ("slm", "sdm"):
        spec = model.slm
        rho = rho_to_external(theta["rho_internal"], spec.w.rho_range())
        tau = math.exp(theta["log_tau"])
        a_inv = np.linalg.inv(np.eye(n) - rho * spec.w.toarray())
        x = spec.x_design
        inner = x @ np.linalg.solve(spec.q_beta, x.T) if spec.p else np.zeros((n, n))
        return a_inv @ (inner + np.eye(n) / tau) @ a_inv.T + np.eye(n) / TAU_OBS
    if model.kind in ("sem", "sdem"):
        spec = model.slm
        rho = rho_to_external(theta["rho_internal"], spec.w.rho_range())
        tau = math.exp(theta["log_tau"])
        a_inv = np.linalg.inv(np.eye(n) - rho * spec.w.toarray())
        xf = c.b_design
        qf = model.priors.q_beta_diag
        fixed = xf @ xf.T / qf if xf.shape[1] else np.zeros((n, n))
        return fixed + a_inv @ a_inv.T / tau + np.eye(n) / TAU_OBS
    # slx
    tau_u = math.exp(theta["log_tau_iid"])
    xf = c.b_design
    qf = model.priors.q_beta_diag
    fixed = xf @ xf.T / qf if xf.shape[1] else np.zeros((n, n))
    return fixed + np.eye(n) / tau_u + np.eye(n) / TAU_OBS


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
    cov_z = dense_cov_z(model, theta)
    b = np.hstack([np.eye(c.n), c.b_design])[obs]
    cov_y = b @ cov_z @ b.T + np.eye(obs.size) / TAU_OBS
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

    q = terms_matrix(compiled.prior, compiled.prior_weights(theta)[0])
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


def reference_prior_matrix(model, theta):
    """The engine's prior Q assembled as products at each theta:
    (I - rho W)'(I - rho W) in a block matrix."""
    c = model.compiled
    n = c.n
    q_fixed = np.full(c.b_design.shape[1], model.priors.q_beta_diag)
    if model.kind == "slx":
        tau_u = math.exp(theta["log_tau_iid"])
        return sp.diags(np.concatenate([np.full(n, tau_u), q_fixed])).tocsc()
    spec = model.slm
    rho = rho_to_external(theta["rho_internal"], spec.w.rho_range())
    tau = math.exp(theta["log_tau"])
    a = sp.identity(n, format="csr") - rho * spec.w.mat
    top_left = tau * (a.T @ a)
    x = spec.x_design
    if spec.p:
        top_right = sp.csr_matrix(-tau * (a.T @ x))
        bottom_right = sp.csr_matrix(spec.q_beta + tau * (x.T @ x))
        q = sp.bmat([[top_left, top_right], [top_right.T, bottom_right]], format="csc")
    else:
        q = top_left.tocsc()
    if model.kind in ("sem", "sdem") and q_fixed.size:
        q = sp.block_diag([q, sp.diags(q_fixed)], format="csc")
    return q


def reference_prior(model, theta):
    """(Q, log|Q|): reference_prior_matrix, with log|det(I - rho W)| from
    a dense determinant."""
    c = model.compiled
    n = c.n
    q = reference_prior_matrix(model, theta)
    log_q_fixed = float(np.sum(np.log(np.full(c.b_design.shape[1], model.priors.q_beta_diag))))
    if model.kind == "slx":
        return q, n * math.log(math.exp(theta["log_tau_iid"])) + log_q_fixed
    spec = model.slm
    rho = rho_to_external(theta["rho_internal"], spec.w.rho_range())
    a = sp.identity(n, format="csr") - rho * spec.w.mat
    logdet = n * math.log(math.exp(theta["log_tau"])) + 2.0 * np.linalg.slogdet(a.toarray())[1]
    if spec.p:
        logdet += np.linalg.slogdet(spec.q_beta)[1]
    if model.kind in ("sem", "sdem"):
        logdet += log_q_fixed
    return q, float(logdet)


def residual_shift(model):
    """The map z = G v + z0 from the residual-shifted coordinates v =
    (u_obs, x_miss, c) onto z = (x, c), as a sparse G and z0."""
    c = model.compiled
    n, p = c.n, c.p
    obs, mis = c.obs_idx, c.miss_idx
    n_o, n_m = obs.size, mis.size
    xb = c.b_design[obs]
    coef = n_o + n_m + np.arange(p)
    rows = np.concatenate([obs, np.repeat(obs, p), mis, n + np.arange(p)])
    cols = np.concatenate([np.arange(n_o), np.tile(coef, n_o), n_o + np.arange(n_m), coef])
    vals = np.concatenate([-np.ones(n_o), -xb.ravel(), np.ones(n_m + p)])
    g = sp.csr_matrix((vals, (rows, cols)), shape=(n + p, n + p))
    z0 = np.zeros(n + p)
    z0[obs] = c.y[obs]
    return g, z0


def reference_gaussian_matrix(model, theta):
    """G'(Q G) in the residual-shifted coordinates, sparse, without the
    copy precision on the u diagonal."""
    g, _ = residual_shift(model)
    return sp.csc_matrix(g.T @ (reference_prior_matrix(model, theta) @ g))


def reference_gaussian_system(model, theta):
    """The Gaussian layer's matrix G'(Q G) + shift in the residual-shifted
    coordinates (u_obs, x_miss, c), with its log evidence from dense
    linear algebra."""
    c = model.compiled
    n_o = c.obs_idx.size
    g, z0 = residual_shift(model)
    q, logdet_q = reference_prior(model, theta)
    shift = np.concatenate([np.full(n_o, TAU_OBS), np.zeros(c.n + c.p - n_o)])
    a = (g.T @ (q @ g) + sp.diags(shift)).toarray()
    qz0 = q @ z0
    c_vec = -(g.T @ qz0)
    s_min = float(z0 @ qz0) - float(c_vec @ np.linalg.solve(a, c_vec))
    log_z = (
        -0.5 * n_o * math.log(2 * math.pi)
        + 0.5 * n_o * math.log(TAU_OBS)
        + 0.5 * logdet_q
        - 0.5 * np.linalg.slogdet(a)[1]
        - 0.5 * s_min
    )
    return a, log_z


def reference_gaussian_state(model, theta):
    """The conditional Gaussian of z = (x, c), as a dict of GaussianState's
    fields, from the dense inverse of reference_gaussian_system's matrix:
    z = G v + z0 with v ~ N(A^{-1} c, A^{-1})."""
    c = model.compiled
    n = c.n
    a, _ = reference_gaussian_system(model, theta)
    g, z0 = residual_shift(model)
    g = g.toarray()
    c_vec = -(g.T @ (reference_prior_matrix(model, theta) @ z0))
    cov_v = np.linalg.inv(a)
    mean_z = g @ np.linalg.solve(a, c_vec) + z0
    cov_z = g @ cov_v @ g.T
    b = np.hstack([np.eye(n), c.b_design]) @ g
    return {
        "mean_x": mean_z[:n],
        "var_x": np.diag(cov_z)[:n],
        "mean_c": mean_z[n:],
        "cov_c": cov_z[n:, n:],
        "mean_eta": mean_z[:n] + c.b_design @ mean_z[n:],
        "var_eta": np.einsum("ij,jk,ik->i", b, cov_v, b),
    }


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


def cholesky_of(mat, context="", symbolic=None):
    """A CholeskyHandle of the SPD matrix mat: put in canonical CSC form
    (sorted indices, no duplicates) once, its pattern analysed unless
    symbolic, which must be exactly that pattern's analysis, is given."""
    mat = sp.csc_matrix(mat)
    if not mat.has_canonical_format:
        mat = mat.copy()
        mat.sum_duplicates()
    if symbolic is None:
        symbolic = SymbolicFactor(mat.indptr, mat.indices)
    elif not (
        np.array_equal(mat.indptr, symbolic.indptr)
        and np.array_equal(mat.indices, symbolic.indices)
    ):
        raise InvalidInputError("matrix is not on the analysed pattern")
    return CholeskyHandle(symbolic, mat.data, context)


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


def reference_order(indptr, indices):
    """The fill-reducing order of a symmetric CSC pattern from SuperLU's
    minimum degree on A + A', run on a diagonally dominant stand-in with
    that pattern (n on the diagonal, 1 off it): an ordering run of its own."""
    n = indptr.size - 1
    cols = np.repeat(np.arange(n), np.diff(indptr))
    stand_in = sp.csc_matrix(
        (np.where(indices == cols, float(n), 1.0), indices, indptr), shape=(n, n)
    )
    return np.argsort(_splu(stand_in, "MMD_AT_PLUS_A").perm_c)


def reference_l_pattern(symbolic):
    """(indptr, indices) of L for an analysed pattern, by the union
    recursion column by column: struct_j = {j} + lower(A_j) + the union of
    struct_c - {c} over the children c of j in the elimination tree
    (Davis 2006, ch. 4), parent(j) the second entry of struct_j."""
    n = symbolic.n
    marks = sp.csc_matrix(
        (np.ones(symbolic._perm_indices.size), symbolic._perm_indices, symbolic._perm_indptr),
        shape=(n, n),
    )
    both = sp.csc_matrix(marks + marks.T)
    both.sort_indices()
    children = [[] for _ in range(n)]
    structs = []
    for j in range(n):
        col = both.indices[both.indptr[j] : both.indptr[j + 1]]
        parts = [np.array([j]), col[col > j]]
        parts.extend(structs[c][1:] for c in children[j])
        s = np.unique(np.concatenate(parts))
        structs.append(s)
        if s.size > 1:
            children[s[1]].append(j)
    indptr = np.zeros(n + 1, dtype=np.intp)
    indptr[1:] = np.cumsum([s.size for s in structs])
    return indptr, np.concatenate(structs).astype(np.intp)


def reference_takahashi(l_indptr, l_indices, l_vals, d):
    """Sigma = A^{-1} on the pattern of L for A = L D L', by the Takahashi
    recursion one column at a time from the last to the first:

        Sigma[S_j, j] = -Sigma[S_j, S_j] L[S_j, j],
        Sigma[j, j] = 1 / d_j - L[S_j, j]' Sigma[S_j, j]

    (Takahashi, Fagan & Chen 1973; Rue & Held 2005, sec. 2.3). l_vals and
    d are (nnz(L),) and (n,), or (nnz(L), G) and (n, G) for G factors."""
    n = d.shape[0]
    keys = _keys(l_indptr, l_indices, n)
    sigma = np.array(l_vals, dtype=float)
    for j in range(n - 1, -1, -1):
        a, b = l_indptr[j], l_indptr[j + 1]
        rows = l_indices[a + 1 : b]
        lo, hi = np.minimum.outer(rows, rows), np.maximum.outer(rows, rows)
        block = sigma[np.searchsorted(keys, (lo * n + hi).ravel())]
        block = block.reshape((rows.size, rows.size) + sigma.shape[1:])
        col = np.einsum("ik...,k...->i...", block, sigma[a + 1 : b])
        sigma[a] = 1.0 / d[j] + np.einsum("k...,k...->...", sigma[a + 1 : b], col)
        sigma[a + 1 : b] = -col
    return sigma


# ---------------------------------------------------------------------------
# The per-fit set-up as generic sparse products: the reference the engine's
# block-form construction (PrecisionTerms.of, engine._build_assembly,
# engine.CopyBlocks.split) is checked against.
# ---------------------------------------------------------------------------


def _keys(indptr, indices, n):
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return cols * n + indices


def reference_union(terms):
    """(indptr, indices, data): square sparse terms on the union of their
    patterns, by a sum of sparse structures and one searchsorted per term."""
    size = terms[0].shape[0]
    terms = [sp.csc_matrix(t) for t in terms]
    for t in terms:
        t.sum_duplicates()
    union = sp.csc_matrix((size, size))
    for t in terms:
        union = union + sp.csc_matrix((np.ones(t.nnz), t.indices, t.indptr), (size, size))
    union.sort_indices()
    keys = _keys(union.indptr, union.indices, size)
    data = np.zeros((len(terms), keys.size))
    for row, t in zip(data, terms):
        row[np.searchsorted(keys, _keys(t.indptr, t.indices, size))] = t.data
    return union.indptr, union.indices, data


def reference_prior_terms(model):
    """The model's prior terms, each a sparse block matrix (bmat) of the
    spatial-lag effect's [I, -X; -X', X'X], [W + W', -W'X; -X'W, 0],
    [W'W, 0; 0, 0] and the coefficient precisions, on their union."""
    c = model.compiled
    n = c.n
    q_fixed = np.full(c.b_design.shape[1], model.priors.q_beta_diag)
    if model.kind == "slx":
        return reference_union(
            [
                sp.diags(np.concatenate([np.zeros(n), q_fixed])),
                sp.diags(np.concatenate([np.ones(n), np.zeros(q_fixed.size)])),
            ]
        )
    spec = model.slm
    p = spec.p
    w = sp.csc_matrix(spec.w.mat)
    x = spec.x_design

    def term(top_left, top_right, bottom_right):
        if p == 0:
            return sp.csc_matrix(top_left)
        right = sp.csc_matrix(top_right)
        return sp.csc_matrix(sp.bmat([[top_left, right], [right.T, sp.csc_matrix(bottom_right)]]))

    zeros_x, zeros_p = np.zeros((n, p)), np.zeros((p, p))
    terms = [
        term(sp.csc_matrix((n, n)), zeros_x, spec.q_beta),
        term(sp.identity(n), -x, x.T @ x),
        term(w + w.T, -(w.T @ x), zeros_p),
        term(w.T @ w, zeros_x, zeros_p),
    ]
    if model.kind in ("sem", "sdem") and q_fixed.size:
        m = q_fixed.size
        tails = [sp.diags(q_fixed)] + [sp.csc_matrix((m, m))] * 3
        terms = [sp.block_diag([t, tail], format="csc") for t, tail in zip(terms, tails)]
    return reference_union(terms)


def reference_assembly(compiled, prior):
    """The prior's terms on the engine's factored matrix as generic sparse
    products: the shift G as a sparse matrix, G'(K_t G) per term, the
    pattern as one np.unique over every key. prior is (indptr, indices,
    data). Returns a dict with the pattern (indptr, indices, keys),
    term_data, term_c and term_const (None for a probit model), and the
    positions of the x-x block's entries (x_pos)."""
    n, p = compiled.n, compiled.p
    size = n + p
    indptr, indices, prior_data = prior
    obs, mis = compiled.obs_idx, compiled.miss_idx
    v_of_x, sign = np.arange(n), np.ones(n)
    f = np.zeros((n, p))
    z0 = None
    obs_v = obs
    if compiled.likelihood == "gaussian":
        v_of_x[obs], v_of_x[mis] = np.arange(obs.size), obs.size + np.arange(mis.size)
        sign[obs] = -1.0
        obs_v = np.arange(obs.size)
        f[obs] = -compiled.b_design[obs]
        z0 = np.zeros(size)
        z0[obs] = compiled.y[obs]
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
    rows = indices
    cols = np.repeat(np.arange(size), np.diff(indptr))
    xx = (rows < n) & (cols < n)
    vv_keys = v_of_x[cols[xx]].astype(np.int64) * size + v_of_x[rows[xx]]
    cross_r = np.repeat(v_of_x, p).reshape(n, p)
    cross_c = np.broadcast_to(n + np.arange(p), (n, p))
    cc_r, cc_c = np.meshgrid(n + np.arange(p), n + np.arange(p), indexing="ij")
    keys = np.unique(
        np.concatenate(
            [
                vv_keys,
                obs_v.astype(np.int64) * (size + 1),
                (cross_c.astype(np.int64) * size + cross_r).ravel(),
                (cross_r.astype(np.int64) * size + cross_c).ravel(),
                (cc_c.astype(np.int64) * size + cc_r).ravel(),
            ]
        )
    )
    terms = [sp.csc_matrix((data, indices, indptr), shape=(size, size)) for data in prior_data]
    term_data = np.zeros((len(terms), keys.size))
    for row, k_t in zip(term_data, terms):
        mapped = (g.T @ (k_t @ g)).tocoo()
        mapped.sum_duplicates()
        row[np.searchsorted(keys, mapped.col.astype(np.int64) * size + mapped.row)] = mapped.data
    out = {
        "indptr": np.searchsorted(keys, np.arange(size + 1, dtype=np.int64) * size),
        "indices": keys % size,
        "keys": keys,
        "term_data": term_data,
        "term_c": None,
        "term_const": None,
        "x_pos": np.searchsorted(keys, np.sort(vv_keys)),
    }
    if z0 is not None:
        kz0 = np.stack([k_t @ z0 for k_t in terms])
        out["term_c"] = -(g.T @ kz0.T).T
        out["term_const"] = kz0 @ z0
    return out


def reference_split(keys, size, n_obs, n_o, term_data):
    """The blocks of the assembled pattern (sorted keys col * size + row)
    after its first n_o residuals, as generic sparse products: term_uu and
    term_ur on the u blocks, and R's terms as a list of sparse matrices,
    A_rr's, then A_ru,s A_ur,t for s <= t, then q-major A_ru,s A_uu,q
    A_ur,t, then the copy diagonal J."""
    import itertools

    rows, cols = keys % size, keys // size
    r = size - n_o
    kept = np.arange(n_obs - n_o)
    u_row, u_col = rows < n_o, cols < n_o
    uu, ur, rr = u_row & u_col, u_row & ~u_col, ~u_row & ~u_col

    def on(cols_, rows_, data, shape):
        return sp.csc_matrix((data, (rows_, cols_)), shape=shape)

    term_uu, term_ur = term_data[:, uu], term_data[:, ur]
    a_uu = [on(cols[uu], rows[uu], d, (n_o, n_o)) for d in term_uu]
    a_ur = [on(cols[ur] - n_o, rows[ur], d, (n_o, r)) for d in term_ur]
    with_ur = [t for t, d in enumerate(term_ur) if d.any()]
    pairs = list(itertools.combinations_with_replacement(with_ur, 2))
    uu_terms = [q for q, d in enumerate(term_uu) if d.any()]

    def symmetric(mat, both=False):
        return mat + mat.T if both else 0.5 * (mat + mat.T)

    def product(s, t, q=None):
        prod = a_ur[s].T @ (a_ur[t] if q is None else a_uu[q] @ a_ur[t])
        return symmetric(prod, s < t)

    r_terms = (
        [symmetric(on(cols[rr] - n_o, rows[rr] - n_o, d, (r, r))) for d in term_data[:, rr]]
        + [product(s, t) for s, t in pairs]
        + [product(s, t, q) for q in uu_terms for s, t in pairs]
        + [on(kept, kept, np.ones(kept.size), (r, r))]
    )
    return {
        "term_uu": term_uu,
        "term_ur": term_ur,
        "pairs": np.array(pairs, dtype=np.intp).reshape(-1, 2),
        "uu_terms": np.array(uu_terms, dtype=np.intp),
        "r_terms": r_terms,
    }
