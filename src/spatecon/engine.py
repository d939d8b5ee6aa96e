"""Grid-based integrated-Laplace inference.

The engine works on a compiled latent structure z = (x, c): an
n-dimensional random effect x plus p coefficients c, with linear
predictor eta = x + X_b c and a sparse joint prior precision Q(theta) =
sum_t a_t(theta) K_t, fixed terms weighted by scalars that depend on
theta (Rue & Held 2005, sec. 2). Each term is mapped onto the engine's
matrix once per fit (Assembly); each theta then costs weighted sums of
those arrays and one sparse factorization. Two observation layers are
supported:

* Gaussian: y = eta + e with e at a fixed high "copy" precision, so that
  the latent effect carries the noise. The conditional evidence
  pi(y|theta) is then exact.
  To keep every intermediate at O(1) scale despite the 1e8 copy
  precision, the quadratic form is evaluated in residual-shifted
  coordinates (the observed-row residual u = y - eta is substituted for
  x as a latent coordinate; the substitution is unimodular, so the log
  determinant is unchanged). The copy precision dominates the u block,
  which is eliminated in closed form, so the factorization has n_mis + p
  rows (_Reduced). Where the bound on the terms that drops fails (a low
  copy precision, or a response of small scale, whose latent precision
  is high), the same class factors the split that eliminates no
  residual, all n + p rows.
* Probit: y_i ~ Bernoulli(Phi(eta_i)). The conditional evidence is a
  Laplace approximation at the Newton mode, multiplied by per-site
  Gauss-Hermite correction factors that make it exact when the sites are
  independent.

The hyperparameters theta (internal rho, log precisions) are explored on
a regular grid around the posterior mode, scaled by the Hessian there
(_mode_and_scale: one search and one curvature per likelihood). Latent
and coefficient marginals are Gaussian mixtures over that grid.
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
    BorderedPattern,
    PrecisionTerms,
    SymbolicFactor,
    _pattern_keys,
    gather,
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


# Step of the differences that give the Hessian at the mode, Gauss-Hermite
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


def binary_response(y: np.ndarray) -> bool:
    """True when every non-missing value of y is 0 or 1: the responses a
    probit likelihood accepts."""
    return bool(np.all(np.isin(y[~np.isnan(y)], (0.0, 1.0))))


@dataclass
class CompiledModel:
    """Latent structure the engine consumes.

    The joint prior precision of z = (x, c) is Q(theta) = sum_t a_t K_t:
    prior holds the fixed sparse terms K_t, and prior_weights(theta)
    returns their weights a and log|Q(theta)|. The pattern of Q is the
    same at every theta, so a fit keeps one Assembly, which holds the
    analysis of each pattern the engine factors.
    """

    y: np.ndarray
    b_design: np.ndarray
    likelihood: str
    prior: PrecisionTerms
    prior_weights: Callable[[Mapping[str, float]], tuple[np.ndarray, float]]
    hyper_dims: tuple[HyperDim, ...]
    coef_names: tuple[str, ...]
    rho_bounds: tuple[float, float] | None = None
    tau_obs: float = 1e8
    # The prior's terms mapped onto the factored matrix, with the analyses
    # of its patterns: built at the first evaluation, reused by every
    # later one.
    assembly: "Assembly | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    # Probit latent mode of the last converged inner Newton solve and the
    # factor of its Hessian, without its selected inverse: the next
    # theta's solve starts from the mode and steps with the factor.
    last_mode: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    last_factor: CholeskyHandle | None = field(
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
        if self.likelihood == "probit" and not binary_response(self.y):
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
    E a signed permutation and F a fixed dense n x p block, the prior's
    share of the factored matrix is G'QG = sum_t a_t G'K_tG. The prior
    holds each K_t in block form: a sparse x block K_xx, a dense or empty
    x-c block K_xc and a dense c block K_cc. So G'K_tG is E'K_xxE, K_xx's
    own entries moved by one position map (x_pos) shared by every term;
    the dense cross block E'(K_xx F + K_xc); and the p x p block F'K_xx F
    + F'K_xc + K_cx F + K_cc. It lies on a BorderedPattern: the sparse
    v-v pattern (x_pattern), bordered by the dense cross and c blocks.
    Per theta only the weighted sums a @ term_data, a @ term_c and a @
    term_const remain.

    The Gaussian layer uses the residual shift (E maps the observed rows
    onto -u, F = -X_b on them, z0 = y there) and adds tau_obs on the u
    diagonal; term_c = -G'K_t z0 and term_const = z0'K_t z0 give the
    linear and constant parts of the quadratic form. It factors one of
    two splits of the pattern: blocks, which eliminates every observed
    residual, or whole, which eliminates none and is built the first time
    blocks' bound fails (_copy_system). The probit Hessian uses G = I
    (E = I, F = 0), so a @ term_data is Q itself, and adds the curvature
    D by [D, D X_b; X_b'D, X_b'D X_b] (with_curvature, on its data);
    symbolic is the analysis of its pattern.
    """

    n: int
    p: int
    indptr: np.ndarray  # CSC pattern of the factored matrix
    indices: np.ndarray
    v_of_x: np.ndarray  # E: x_i = sign_i v_{v_of_x[i]}
    sign: np.ndarray
    f: np.ndarray  # (n, p)
    z0: np.ndarray | None
    term_data: np.ndarray  # (T, nnz): G'K_tG on the pattern
    term_c: np.ndarray | None  # (T, n + p)
    term_const: np.ndarray | None  # (T,)
    x_pattern: tuple[np.ndarray, np.ndarray]  # (indptr, indices) of the v-v block
    x_pos: np.ndarray  # positions of its entries in term_data's rows
    cross_pos: np.ndarray  # (n, p) positions of the v-c block and of its transpose
    cross_t_pos: np.ndarray
    cc_pos: np.ndarray  # (p, p)
    obs_pos: np.ndarray  # diagonal positions of the observation term
    obs_rows: np.ndarray  # the observed rows of x
    blocks: "CopyBlocks | None" = None  # the Gaussian layer's two splits
    whole: "CopyBlocks | None" = None

    @functools.cached_property
    def symbolic(self) -> SymbolicFactor:
        """The analysis of the pattern, made at its first factorization."""
        return SymbolicFactor(self.indptr, self.indices)

    def whole_blocks(self) -> "CopyBlocks":
        """The Gaussian split that eliminates no residual, built on first use."""
        if self.whole is None:
            self.whole = CopyBlocks.split(self, 0)
        return self.whole

    def latent(self, w: np.ndarray) -> np.ndarray:
        """z = G w + z0."""
        c = w[self.n :]
        return np.concatenate([self.sign * w[self.v_of_x] + self.f @ c + self.z0[: self.n], c])

    def with_curvature(self, base: np.ndarray, d: np.ndarray, xb: np.ndarray) -> np.ndarray:
        """base plus [D, D X_b; X_b'D, X_b'D X_b], D = diag(d) on the
        observed rows (d holds their curvatures)."""
        out = base.copy()
        out[self.obs_pos] += d
        r = np.zeros((self.n, self.p))
        r[self.obs_rows] = d[:, None] * xb[self.obs_rows]
        out[self.cross_pos] += r
        out[self.cross_t_pos] += r
        out[self.cc_pos] += xb.T @ r
        return out

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        size = self.indptr.size - 1
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(size, size))


@dataclass
class CopyBlocks:
    """The Gaussian layer's matrix split after its first n_o observed
    residuals u, n_o either every observed row or none. In the
    coordinates (u, r), r the rest of v = (u_obs, x_miss) and c, it is

        M = [[tau_obs I + A_uu, A_ur], [A_ru, tau_obs J + A_rr]],

    with A = sum_t a_t G'K_tG and J the diagonal of ones on the observed
    residuals r keeps. A_uu and A_ur (the n_o x r block above the
    diagonal) keep their terms' data on fixed CSC patterns. The reduced
    matrix of _Reduced,

        R = tau J + A_rr - A_ru A_ur / tau + A_ru A_uu A_ur / tau^2,

    is a polynomial in the prior's weights a and tau, so it is stored the
    way the prior is (r_terms, PrecisionTerms): the terms of A_rr; A_ru,s
    A_ur,t for each pair s <= t; A_ru,s A_uu,q A_ur,t for each q and each
    such pair; then J. Each term is exactly symmetric (a pair s < t holds
    both of its orders), and products with a zero block are left out, so
    with n_o = 0 R is M itself, and with every residual eliminated J is
    empty. A theta then costs the weights r_weights(a, tau) and one
    weighted sum, R's data (r_data); symbolic is the analysis of R's
    pattern.

    R lies on a BorderedPattern, as M does. A_ur is [B, C]: B the sparse
    u x x_miss block, C the dense u x c block. So each term's x_miss
    block is a sparse product of B's (B_s'B_t, B_s'A_uu,q B_t), while its
    border and c block are a sparse A_uu,q times the dense C's, followed
    by one small dense product (B_s'(A_uu,q C_t), C_s'(A_uu,q C_t)).
    """

    n_o: int
    r: int
    uu: tuple[np.ndarray, np.ndarray]  # (indptr, indices) of each block
    ur: tuple[np.ndarray, np.ndarray]
    term_uu: np.ndarray  # (T, nnz) of each block
    term_ur: np.ndarray
    uu_diag: np.ndarray  # positions of A_uu's diagonal in its data
    pairs: np.ndarray  # (P, 2) terms s <= t of A_ur in each product
    uu_terms: np.ndarray  # terms q of A_uu in the triple products
    r_terms: PrecisionTerms  # R's terms: A_rr's, the pairs', then q-major the triples'
    # Per pair (j, k) of A_ur's entries in a row i, (j, k) on R's pattern: i,
    # the positions of (i, j) and (i, k) in A_ur's data, that of (j, k) in R's.
    spread_plan: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    @classmethod
    def split(cls, plan: Assembly, n_o: int) -> "CopyBlocks":
        """The blocks of the assembled matrix (plan), eliminating the first
        n_o of its observed residuals."""
        n, p, data = plan.n, plan.p, plan.term_data
        n_terms = data.shape[0]
        m, r = n - n_o, n + p - n_o
        x_indptr, rows = plan.x_pattern
        cols = np.repeat(np.arange(n), np.diff(x_indptr))
        u_row, u_col = rows < n_o, cols < n_o
        uu, ur, rr = u_row & u_col, u_row & ~u_col, ~u_row & ~u_col
        x_uu, x_ur, x_rr = (np.take(data, plan.x_pos[part], axis=1) for part in (uu, ur, rr))
        cross = np.take(data, plan.cross_pos, axis=1)
        uu_pattern = _csc_pattern(cols[uu], rows[uu], n_o)
        b_pattern = _csc_pattern(cols[ur] - n_o, rows[ur], m)
        # A_ur = [B, C]: B sparse on the x_miss columns, C dense on the c ones.
        ur_pattern = (
            np.concatenate([b_pattern[0], x_ur.shape[1] + n_o * np.arange(1, p + 1)]),
            np.concatenate([b_pattern[1], np.tile(np.arange(n_o), p)]),
        )
        c_u = cross[:, :n_o].transpose(0, 2, 1).reshape(n_terms, -1)
        term_ur = np.concatenate([x_ur, c_u], axis=1)
        with_ur = np.flatnonzero(term_ur.any(axis=1))
        uu_terms = np.flatnonzero(x_uu.any(axis=1))
        pairs = np.array(
            list(itertools.combinations_with_replacement(range(with_ur.size), 2)), dtype=np.intp
        ).reshape(-1, 2)
        which, e_rows, e_cols, values, border, corner = _products(
            [_on(b_pattern, x_ur[t], (n_o, m)) for t in with_ur],
            cross[with_ur, :n_o],
            [_on(uu_pattern, x_uu[q], (n_o, n_o)) for q in uu_terms],
            pairs,
            m,
        )
        # R's terms: A_rr's, the products', then J on the kept residuals.
        n_r = n_terms + len(border) + 1
        kept = np.arange(plan.obs_rows.size - n_o)
        rr_rows, rr_cols = rows[rr] - n_o, cols[rr] - n_o
        rr_terms = np.repeat(np.arange(n_terms), rr_rows.size)
        sparse = gather(
            m,
            n_r,
            np.concatenate([rr_terms, n_terms + which, np.full(kept.size, n_r - 1)]),
            np.concatenate([np.tile(rr_rows, n_terms), e_rows, kept]),
            np.concatenate([np.tile(rr_cols, n_terms), e_cols, kept]),
            np.concatenate([x_rr.ravel(), values, np.ones(kept.size)]),
        )
        r_terms = PrecisionTerms.bordered(
            sparse[:2],
            sparse[2],
            np.concatenate([cross[:, n_o:], border, np.zeros((1, m, p))]),
            np.concatenate([np.take(data, plan.cc_pos, axis=1), corner, np.zeros((1, p, p))]),
        )
        return cls(
            n_o=n_o,
            r=r,
            uu=uu_pattern,
            ur=ur_pattern,
            term_uu=x_uu,
            term_ur=term_ur,
            uu_diag=np.flatnonzero(rows[uu] == cols[uu]),
            pairs=with_ur[pairs],
            uu_terms=uu_terms,
            r_terms=r_terms,
            spread_plan=_spread_plan(ur_pattern, n_o, r, r_terms),
        )

    @functools.cached_property
    def symbolic(self) -> SymbolicFactor:
        """The analysis of R's pattern, made at its first factorization."""
        return SymbolicFactor(self.r_terms.indptr, self.r_terms.indices)

    def r_data(self, a: np.ndarray, tau: float) -> np.ndarray:
        """R's data at the prior's weights a and tau = tau_obs, exactly
        symmetric like its terms: einsum runs the same operations for
        every entry, where a BLAS matrix-vector product can round an
        entry and its transpose apart."""
        return np.einsum("t,tk->k", self.r_weights(a, tau), self.r_terms.data)

    def r_weights(self, a: np.ndarray, tau: float, da: np.ndarray | None = None) -> np.ndarray:
        """The weights of r_terms at the prior's weights a and tau =
        tau_obs: [a, -a_s a_t / tau, a_q a_s a_t / tau^2, tau]. Given da,
        their derivative along da at a fixed tau."""
        s, t = self.pairs.T
        st = a[s] * a[t]
        if da is None:
            triples = np.outer(a[self.uu_terms], st).ravel() / tau**2
            return np.concatenate([a, -st / tau, triples, [tau]])
        d_st = da[s] * a[t] + a[s] * da[t]
        d_q = np.outer(da[self.uu_terms], st) + np.outer(a[self.uu_terms], d_st)
        return np.concatenate([da, -d_st / tau, d_q.ravel() / tau**2, [0.0]])


def _products(b, c: np.ndarray, a_q, pairs: np.ndarray, m: int):
    """R's pair and triple terms (CopyBlocks) from the terms [B_s, C_s] of
    A_ur with entries: b the sparse n_o x m blocks B_s, c the dense
    (W, n_o, p) stack of the C_s. With H_0 = I and H_g = A_uu,q for the
    g-th q, term (g, s, t) is P = [B_s, C_s]' H_g [B_t, C_t], plus P' for
    a pair s < t, symmetrised for s = t; the terms run g-major, then by
    pair. Its border B_s'H_g C_t and c block C_s'H_g C_t come from one
    sparse H_g times the dense C's and one dense product; its x_miss block
    B_s'H_g B_t from one sparse product of the stacked B's. Returns the
    x_miss blocks as entries (term, row, col, value), then the borders
    (terms, m, p) and the c blocks (terms, p, p)."""
    n_w, n_o, p = c.shape
    s_of, t_of = pairs.T
    same = (s_of == t_of)[:, None, None]
    count = (1 + len(a_q)) * len(pairs)
    c_all = c.transpose(1, 0, 2).reshape(n_o, n_w * p)
    b_all = sp.hstack(b, format="csc") if b else sp.csc_matrix((n_o, 0))
    h = [c_all] + [a @ c_all for a in a_q]

    def blocks(prods, rows):
        """Block (s, t) of each product, for each pair: (g, pair, rows, p)."""
        full = np.stack(prods).reshape(len(h), n_w, rows, n_w, p)
        return (np.moveaxis(full[:, s, :, t, :], 0, 1) for s, t in ((s_of, t_of), (t_of, s_of)))

    corner, _ = blocks([c_all.T @ h_g for h_g in h], p)
    corner = np.where(same, 0.5, 1.0) * (corner + np.swapaxes(corner, -1, -2))
    border, border_ts = blocks([b_all.T @ h_g for h_g in h], m)
    border = np.where(same, border, border + border_ts)
    # Block (s, t) of each stacked product lies at rows s m + i, columns t m + j.
    pair_of = np.zeros((n_w, n_w), dtype=np.int64)
    pair_of[s_of, t_of] = np.arange(len(pairs))
    entries = [(np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0),)]
    for g, a in enumerate([None] + a_q if b_all.nnz else []):
        prod = (b_all.T @ (b_all if a is None else a @ b_all)).tocoo()
        (s, i), (t, j) = np.divmod(prod.row, m), np.divmod(prod.col, m)
        keep = s <= t
        s, t, i, j = s[keep], t[keep], i[keep], j[keep]
        term = g * len(pairs) + pair_of[s, t]
        v = np.where(s == t, 0.5, 1.0) * prod.data[keep]
        entries += [(term, i, j, v), (term, j, i, v)]
    entries = [np.concatenate(part) for part in zip(*entries)]
    return (*entries, border.reshape(count, m, p), corner.reshape(count, p, p))


def _spread_plan(ur_pattern, n_o: int, r: int, r_terms: PrecisionTerms):
    """For every pair (j, k) of A_ur's entries in one row i with (j, k) on
    R's pattern: i, the positions of (i, j) and (i, k) in A_ur's data, and
    that of (j, k) in R's (CopyBlocks.spread_plan)."""
    ur_indptr, ur_rows = ur_pattern
    ur_cols = np.repeat(np.arange(r), np.diff(ur_indptr))
    by_row = np.argsort(ur_rows, kind="stable")
    counts = np.bincount(ur_rows, minlength=n_o)
    # Row i's c_i entries lie in by_row from start; m numbers its c_i^2 pairs.
    row = np.repeat(np.arange(n_o), counts**2)
    m = np.arange(row.size) - np.repeat(np.cumsum(counts**2) - counts**2, counts**2)
    start = np.repeat(np.cumsum(counts) - counts, counts**2)
    j, k = by_row[start + m // counts[row]], by_row[start + m % counts[row]]
    keys = ur_cols[k] * r + ur_cols[j]
    r_keys = _pattern_keys(r_terms.indptr, r_terms.indices, r)
    at = np.minimum(np.searchsorted(r_keys, keys), r_keys.size - 1)
    on = r_keys[at] == keys
    return row[on], j[on], k[on], at[on]


def _csc_pattern(cols: np.ndarray, rows: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of entries given in CSC order by column and row."""
    counts = np.bincount(cols, minlength=width)
    return np.concatenate([[0], np.cumsum(counts)]), rows


def _on(pattern, data: np.ndarray, shape) -> sp.csc_matrix:
    """The matrix with the given data on a CSC pattern (indptr, indices)."""
    indptr, indices = pattern
    return sp.csc_matrix((data, indices, indptr), shape=shape)


def _assembly(model: CompiledModel) -> Assembly:
    if model.assembly is None:
        model.assembly = _build_assembly(model)
    return model.assembly


def _build_assembly(model: CompiledModel) -> Assembly:
    """The prior's terms on the factored matrix (Assembly), from the
    prior's blocks: K_xx's entries moved by one position map, the cross
    and c blocks from one sparse-times-dense product per term, K_t [F, z0;
    0, 0], and p x p dense products."""
    n, p = model.n, model.p
    size = n + p
    prior = model.prior
    n_terms = prior.data.shape[0]
    obs = model.obs_idx
    gaussian = model.likelihood == "gaussian"
    # v = (u_obs, x_miss) for the Gaussian layer, x itself for the probit:
    # v_of_x keeps the order of the front rows and of the others.
    front = np.zeros(n, dtype=bool)
    front[obs if gaussian else slice(None)] = True
    x_of_v = np.concatenate([np.flatnonzero(front), np.flatnonzero(~front)])
    v_of_x = np.empty(n, dtype=np.int64)
    v_of_x[x_of_v] = np.arange(n)
    sign = np.ones(n)
    f, z0 = np.zeros((n, p)), np.zeros(size)
    if gaussian:
        # x = y - u - X_b c on observed rows.
        sign[obs] = -1.0
        f[obs] = -model.b_design[obs]
        z0[obs] = model.y[obs]

    rows = prior.indices
    cols = np.repeat(np.arange(size), np.diff(prior.indptr))
    in_x = (rows < n) & (cols < n)
    xr, xc = rows[in_x], cols[in_x]
    x_counts = np.bincount(xc, minlength=n)
    x_indptr = np.concatenate([[0], np.cumsum(x_counts)])
    # The coefficient columns dense: K_xc = k_c[:, :n], K_cc = k_c[:, n:].
    k_c = np.zeros((n_terms, size, p))
    tail = slice(prior.indptr[n], None)
    k_c[:, rows[tail], cols[tail] - n] = prior.data[:, tail]

    # Column v of E'K_xxE is column x_of_v[v] of K_xx with its rows
    # relabelled, front rows first: an entry's rank in its new column is
    # the count of entries of its kind ahead of it, after the column's
    # front rows if it is not one.
    is_front = front[xr]
    ahead = np.concatenate([[0], np.cumsum(is_front)])
    start = x_indptr[xc]
    before = ahead[: xr.size] - ahead[start]
    fronts = ahead[x_indptr[xc + 1]] - ahead[start]
    rank = np.where(is_front, before, fronts + np.arange(xr.size) - start - before)
    v_indptr = np.concatenate([[0], np.cumsum(x_counts[x_of_v])])
    dest = v_indptr[v_of_x[xc]] + rank
    v_indices, source = np.empty_like(dest), np.empty_like(dest)
    v_indices[dest], source[dest] = v_of_x[xr], np.flatnonzero(in_x)
    layout = BorderedPattern.of(v_indptr, v_indices, p, p)
    diag = xr == xc
    if np.count_nonzero(diag) != n:
        raise InvalidInputError("the prior's pattern must hold its diagonal")
    diag_pos = np.empty(n, dtype=np.int64)
    diag_pos[v_of_x[xc[diag]]] = layout.s_pos[dest[diag]]

    # K_t [F, z0; 0, 0]: K_xx F and K_xx z0 on the x rows, K_cx F and K_cx
    # z0 on the c rows.
    rhs = np.zeros((size, p + 1))
    rhs[:n, :p], rhs[:n, p] = f, z0[:n]
    kg = np.stack([_on((prior.indptr, rows), data, (size, size)) @ rhs for data in prior.data])
    cross = np.empty((n_terms, n, p))
    cross[:, v_of_x] = sign[:, None] * (kg[:, :n, :p] + k_c[:, :n])
    cc = f.T @ kg[:, :n, :p] + kg[:, n:, :p] + kg[:, n:, :p].transpose(0, 2, 1) + k_c[:, n:]
    signs = sign[rows[source]] * sign[cols[source]]
    cc = 0.5 * (cc + cc.transpose(0, 2, 1))
    term_data = layout.fill(np.take(prior.data, source, axis=1) * signs, cross, cc)
    plan = Assembly(
        n=n,
        p=p,
        indptr=layout.indptr,
        indices=layout.indices,
        v_of_x=v_of_x,
        sign=sign,
        f=f,
        z0=z0,
        term_data=term_data,
        term_c=None,
        term_const=None,
        x_pattern=(v_indptr, v_indices),
        x_pos=layout.s_pos,
        cross_pos=layout.b_pos,
        cross_t_pos=layout.bt_pos,
        cc_pos=layout.c_pos,
        obs_pos=diag_pos[v_of_x[obs]],
        obs_rows=obs,
    )
    if gaussian:
        kz0 = kg[:, :n, p]
        plan.term_c = np.empty((n_terms, size))
        plan.term_c[:, v_of_x] = -sign * kz0
        plan.term_c[:, n:] = -(kz0 @ f + kg[:, n:, p])
        plan.term_const = kz0 @ z0[:n]
        plan.blocks = CopyBlocks.split(plan, obs.size)
    return plan


# ---------------------------------------------------------------------------
# Gaussian observation layer
# ---------------------------------------------------------------------------

# The largest (s / tau_obs)^2, s the largest absolute row sum of A_uu, at
# which the evidence eliminates the observed residuals in closed form:
# the relative size of the terms that elimination drops. Above it the
# evidence takes the split that eliminates none (_copy_system).
_EXPANSION_TOL = 1e-10


class _Reduced:
    """M with the first n_o observed residuals u eliminated in closed form
    (Rue & Held 2005, sec. 2.3), on the split blocks (CopyBlocks). With
    tau = tau_obs and D = tau I + A_uu,

        log|M| = log|D| + log|R|,   R = tau J + A_rr - A_ru D^{-1} A_ur,

    where D^{-1} = I / tau - A_uu / tau^2 and log|D| = n_o log tau +
    tr(A_uu) / tau - ||A_uu||_F^2 / (2 tau^2), each to its second term.
    Since 0 <= A_uu <= s I, s the largest absolute row sum of A_uu, the
    terms dropped are at most (s / tau)^2 of those kept, and log|D|'s at
    most n_o (s / tau)^3 / 3. With n_o = 0 nothing is dropped and R is M.
    R's data is one weighted sum of CopyBlocks.r_terms, factored on their
    pattern, which is analysed once per fit (CopyBlocks.symbolic). Its
    selected inverse Sigma_rr = R^{-1} on that pattern, as data, gives the
    variances of r and each trace tr(R^{-1} dR) as one dot product with
    dR's data. Solves and the u rows of Sigma take products with D^{-1}:
    Sigma_ur = -D^{-1} A_ur R^{-1}, and
    Var(u_i) = 1/tau - (A_uu)_ii / tau^2 + (A_ur R^{-1} A_ru)_ii / tau^2,
    whose last term reads R^{-1} at the entries of A_ru A_ur, which R's
    terms hold. The u blocks are kept as data (uu, ur); their matrices are
    built only for the products of a split that eliminates residuals.
    """

    def __init__(
        self, model: CompiledModel, theta, a: np.ndarray, tau_obs: float, blocks, uu=None
    ):
        self.model, self.blocks, self.a, self.tau_obs = model, blocks, a, tau_obs
        self.uu = a @ blocks.term_uu if uu is None else uu
        self.ur = a @ blocks.term_ur
        if not blocks.r:
            self.factor = _NoRows()
            return
        r_data = blocks.r_data(a, tau_obs)
        self.factor = CholeskyHandle(blocks.symbolic, r_data, f"theta = {dict(theta)}")

    @functools.cached_property
    def a_uu(self) -> sp.csc_matrix:
        return _on(self.blocks.uu, self.uu, (self.blocks.n_o,) * 2)

    @functools.cached_property
    def a_ur(self) -> sp.csc_matrix:
        return _on(self.blocks.ur, self.ur, (self.blocks.n_o, self.blocks.r))

    def _d_inv(self, v: np.ndarray) -> np.ndarray:
        """D^{-1} v."""
        tau = self.tau_obs
        return (v - (self.a_uu @ v) / tau) / tau

    @functools.cached_property
    def _sigma(self) -> np.ndarray:
        """R^{-1} on R's pattern, as data."""
        return self.factor.inverse_on_pattern()

    @functools.cached_property
    def _spread(self) -> np.ndarray:
        """(A_ur R^{-1} A_ru)_ii for each observed row i."""
        row, j, k, at = self.blocks.spread_plan
        ur = self.ur
        return np.bincount(row, ur[j] * self._sigma[at] * ur[k], minlength=self.blocks.n_o)

    def _uu_trace(self, data: np.ndarray) -> float:
        return float(np.sum(data[self.blocks.uu_diag]))

    def logdet(self) -> float:
        tau, uu = self.tau_obs, self.uu
        log_d = self.blocks.n_o * math.log(tau) + (self._uu_trace(uu) - 0.5 * (uu @ uu) / tau) / tau
        return log_d + self.factor.logdet()

    def solve(self, c: np.ndarray) -> np.ndarray:
        if not self.blocks.n_o:
            return self.factor.solve(c)
        c_u, c_r = c[: self.blocks.n_o], c[self.blocks.n_o :]
        w_r = self.factor.solve(c_r - self.a_ur.T @ self._d_inv(c_u))
        return np.concatenate([self._d_inv(c_u - self.a_ur @ w_r), w_r])

    def trace(self, da: np.ndarray) -> float:
        """tr(M^{-1} dM) for dM = da @ Assembly.term_data: tr(D^{-1} dA_uu)
        + tr(R^{-1} dR), with D^{-1} and R as above, so that dR's data is
        r_weights' derivative along da times r_terms' data."""
        blocks, tau = self.blocks, self.tau_obs
        d_uu = da @ blocks.term_uu
        d_r = blocks.r_weights(self.a, tau, da) @ blocks.r_terms.data
        return (self._uu_trace(d_uu) - (self.uu @ d_uu) / tau) / tau + float(self._sigma @ d_r)

    def variances(self) -> np.ndarray:
        """The variances of (u_obs, x_miss)."""
        tau = self.tau_obs
        var_u = (1.0 - (self.uu[self.blocks.uu_diag] - self._spread) / tau) / tau
        n_v = self.blocks.r - self.model.p
        return np.concatenate([var_u, self.factor.marginal_variances(np.arange(n_v))])

    def columns(self) -> np.ndarray:
        """The coefficient columns of M^{-1}."""
        r = self.blocks.r
        cols_r = self.factor.inverse_columns(np.arange(r - self.model.p, r))
        if not self.blocks.n_o:
            return cols_r
        return np.vstack([-self._d_inv(self.a_ur @ cols_r), cols_r])


class _NoRows:
    """The factor of R when R has no rows: every response observed and
    no coefficients."""

    def logdet(self) -> float:
        return 0.0

    def solve(self, b: np.ndarray) -> np.ndarray:
        return np.zeros(0)

    def inverse_on_pattern(self) -> np.ndarray:
        return np.zeros(0)

    def marginal_variances(self, indices) -> np.ndarray:
        return np.zeros(0)

    def inverse_columns(self, indices) -> np.ndarray:
        return np.zeros((0, 0))


def _copy_system(model: CompiledModel, theta, a: np.ndarray, tau_obs: float) -> _Reduced:
    """M at theta on the split that eliminates every observed residual
    (Assembly.blocks) when (s / tau_obs)^2 <= _EXPANSION_TOL, else on the
    split that eliminates none (Assembly.whole_blocks)."""
    plan = model.assembly
    uu = a @ plan.blocks.term_uu
    # A_uu is symmetric, and every column holds its diagonal entry.
    s = float(np.max(np.add.reduceat(np.abs(uu), plan.blocks.uu[0][:-1])))
    if (s / tau_obs) ** 2 <= _EXPANSION_TOL:
        return _Reduced(model, theta, a, tau_obs, plan.blocks, uu)
    return _Reduced(model, theta, a, tau_obs, plan.whole_blocks())


def gaussian_evidence(
    model: CompiledModel,
    theta: Mapping[str, float],
    want_state: bool = False,
    wrt: Sequence[str] = (),
    pending: list | None = None,
) -> tuple[float, GaussianState | np.ndarray | None]:
    """Exact log pi(y | theta) for the Gaussian copy likelihood.

    The matrix M of the residual-shifted quadratic form is solved by
    _Reduced with the observed residuals eliminated in closed form, which
    factors a matrix of n_mis + p rows, or, where the bound on the terms
    that drops fails (a low tau_obs, or a response of small scale), with
    none eliminated, which factors all n + p rows (_copy_system).
    With wrt (names of hyperparameters), the second item is the gradient
    of log pi(y | theta) with respect to them, from the same system
    (_evidence_gradient). With want_state it is the conditional Gaussian
    of z; given a pending list, the latent variances of a state that
    eliminated no residual are left for _finish_variances, which reads
    those of a whole grid row off one Takahashi sweep. The list keeps the
    factor's L and D values; the factor itself, with its SuperLU object,
    is dropped on return.
    """
    a, logdet_qp = model.prior_weights(theta)
    plan = _assembly(model)
    tau_obs = model.tau_obs
    n, n_o = model.n, model.obs_idx.size

    system = _copy_system(model, theta, a, tau_obs)
    c_vec = a @ plan.term_c
    w = system.solve(c_vec)
    s_min = float(a @ plan.term_const) - float(c_vec @ w)
    log_z = (
        -0.5 * n_o * _LOG_2PI
        + 0.5 * n_o * math.log(tau_obs)
        + 0.5 * logdet_qp
        - 0.5 * system.logdet()
        - 0.5 * s_min
    )
    mean_z = plan.latent(w)
    if wrt:
        return log_z, _evidence_gradient(model, theta, wrt, system, mean_z)
    if not want_state:
        return log_z, None

    mean_x, mean_c = mean_z[:n], mean_z[n:]
    cols = system.columns()
    # cov_c is copied so that a kept state holds p x p, not (n+p) x p.
    state = GaussianState(
        mean_x=mean_x,
        var_x=None,
        mean_c=mean_c,
        cov_c=cols[n:].copy(),
        mean_eta=mean_x + model.b_design @ mean_c,
        var_eta=None,
    )
    if pending is not None and system.blocks.n_o == 0:
        pending.append((state, system.factor.symbolic, system.factor.factor_values(), cols))
    else:
        _set_variances(model, state, system.variances(), cols)
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
    system,
    mean_z: np.ndarray,
) -> np.ndarray:
    """Gradient of the Gaussian log pi(y | theta) with respect to the
    hyperparameters named in wrt:

        d/dt = 1/2 d log|Q|/dt - 1/2 tr(M^{-1} dM/dt) - 1/2 mu' (dQ/dt) mu,

    with M the matrix of the quadratic form and mu the conditional mean
    of z (the last term is the envelope theorem on the quadratic
    minimum). With da/dt the derivative of the prior's weights, dQ/dt =
    sum_t da_t/dt K_t and dM/dt = da/dt @ Assembly.term_data; the system
    gives the trace (_Reduced.trace, from R's selected inverse and the
    closed-form u block, which is empty when no residual is eliminated
    and R is M). da/dt and
    d log|Q|/dt are central differences of prior_weights at t +- h (h =
    _DIFF_STEP; the mode search keeps t that far inside the clamp) and
    need no factorization: they are exact to rounding in rho, in which
    the weights are quadratic, and in log tau, in which log|Q| is linear
    (the weights gain the relative error h^2/6). tau_obs is fixed, so
    every hyperparameter enters through the prior alone.
    """
    grad = np.zeros(len(wrt))
    h = _DIFF_STEP
    for i, name in enumerate(wrt):
        a_hi, logdet_hi = model.prior_weights({**theta, name: theta[name] + h})
        a_lo, logdet_lo = model.prior_weights({**theta, name: theta[name] - h})
        da = (a_hi - a_lo) / (2.0 * h)
        grad[i] = 0.5 * (
            (logdet_hi - logdet_lo) / (2.0 * h)
            - system.trace(da)
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


# Caps of the probit inner search: Hessian factorizations, and steps
# (each a chord or Newton step and its backtracking).
_NEWTON_MAX_FACTORIZATIONS = 100
_NEWTON_MAX_STEPS = 300


def laplace_inner(
    model: CompiledModel, theta: Mapping[str, float], want_state: bool = True
) -> tuple[float, GaussianState | None]:
    """Newton mode + Laplace evidence for the probit likelihood.

    The search starts from the model's last converged mode
    (model.last_mode, zero when there is none) and takes chord, or
    modified Newton, steps (Kelley 1995, ch. 5): each solves with a held
    factor, first the model's last converged Hessian (model.last_factor),
    and backtracks by halving to a step that does not lower the
    objective by more than its round-off, 1e-12 max(1, |objective|). The
    Hessian H(z) is factored afresh at the current z when there is no
    held factor, when the chord step falls below 1e-10, or when it is
    not at most half the step before it; a fresh factor that
    does not end the search is held for the next steps. The search stops
    only on a fresh factor: at the first z whose gradient sup-norm is
    below 1e-7 and whose Newton step with H(z) is below 1e-10. That
    factor gives the log determinant, the latent variances and the
    coefficient columns, and is left on the model with the mode. The
    evidence carries the distance of z from the mode at first order
    (through log|H(z)| and the site corrections), so the step bound, not
    the gradient bound, sets how closely two starts agree. The objective
    is strictly concave and every held factor is positive definite, so
    each chord step is an ascent direction and the search reaches the
    same mode from any start and any held factor; a repeated theta costs
    one factorization.

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

    sign = 2.0 * y_o - 1.0

    def objective(z):
        # The log-likelihood alone: log_ndtr as in _probit_site_derivs.
        ll = log_ndtr(sign * eta_of(z)[obs])
        return float(-0.5 * z @ (q_prior @ z) + ll.sum())

    z = np.zeros(n + p) if model.last_mode is None else model.last_mode
    # The model lets go of the held factor, so a fresh one replaces it
    # rather than joining it.
    factor, model.last_factor = model.last_factor, None
    obj = objective(z)
    last_size = math.inf
    factorizations = 0
    converged = False
    for _ in range(_NEWTON_MAX_STEPS):
        eta = eta_of(z)
        ll, s_site, d_site = _probit_site_derivs(eta[obs], y_o)
        s_full = np.zeros(n)
        s_full[obs] = s_site
        qz = q_prior @ z
        grad = -qz + np.concatenate([s_full, xb.T @ s_full])
        gnorm = float(np.max(np.abs(grad)))
        size = math.nan
        if factor is not None:
            delta = factor.solve(grad)
            size = float(np.max(np.abs(delta)))
        if not 1e-10 <= size <= 0.5 * last_size:
            if factorizations == _NEWTON_MAX_FACTORIZATIONS:
                break
            h = plan.with_curvature(q_data, d_site, xb)
            factor = CholeskyHandle(plan.symbolic, h, f"probit Hessian, theta = {dict(theta)}")
            factorizations += 1
            delta = factor.solve(grad)
            size = float(np.max(np.abs(delta)))
            converged = gnorm < 1e-7 and size < 1e-10
            if converged:
                break
        # Backtrack by halving to a step that does not lower the
        # objective beyond its round-off, which is relative: an absolute
        # slack stalls the search once |obj| is in the thousands. Below
        # 2^-30 the step is taken as it is.
        t = 1.0
        while True:
            z_next = z + t * delta
            obj_next = objective(z_next)
            if obj_next >= obj - 1e-12 * max(1.0, abs(obj)) or t < 2.0**-30:
                break
            t *= 0.5
        z, obj, last_size = z_next, obj_next, size
    if not converged:
        raise NumericFailureError(
            f"probit Newton did not converge (last gradient sup-norm {gnorm:.3e})"
        )
    model.last_mode = z

    log_laplace = (
        float(ll.sum()) + 0.5 * logdet_qp - 0.5 * float(z @ qz)
        - 0.5 * factor.logdet()
    )

    var_x = factor.marginal_variances(np.arange(n))
    factor.drop_selected()
    model.last_factor = factor
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
    respect to the named hyperparameters; with pending the latent
    variances of a state that eliminated no residual wait for
    _finish_variances.
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


def _room(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The distance of the mode x to its nearer bound on each axis; a mode
    on the bound of its domain has no room for a centred difference."""
    room = np.minimum(x - lo, hi - x)
    if np.any(room <= 0.0):
        raise NumericFailureError(
            f"hyperparameter mode {x.tolist()} lies on the bound of its domain"
        )
    return room


def _gradient_hessian(fg, x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Hessian of f at x, given fg(x) -> (f, grad f): central differences
    of the gradient, two evaluations per axis, symmetrised. Each axis steps
    _HESS_STEP, or half its room to lo or hi where that is smaller, so no
    point leaves the bounds."""
    steps = np.minimum(_HESS_STEP, 0.5 * _room(x, lo, hi))
    hess = np.empty((x.size, x.size))
    for i, step in enumerate(steps):
        e = np.zeros(x.size)
        e[i] = step
        hess[:, i] = (fg(x + e)[1] - fg(x - e)[1]) / (2.0 * step)
    return 0.5 * (hess + hess.T)


def _extrapolated_curvature(f, x: np.ndarray, fx: float, lo: np.ndarray, hi: np.ndarray):
    """The 1 x 1 Hessian of f at the one-axis x, given fx = f(x): the
    Richardson extrapolation (4 D(s/2) - D(s)) / 3 of the central second
    differences D of f, s = 10 _HESS_STEP or half the room to lo or hi.

    A probit evidence carries the inner Newton's stopping error (about
    1e-11 on the test fits) and site corrections whose last bits depend on
    the inverse that supplies them: D(_HESS_STEP) would multiply either by
    4 / h^2 = 4e8, this by about 5.7 / s^2. Hot starts make the evidence
    depend on the order of evaluation, so D(s/2) comes first."""
    s = min(10.0 * _HESS_STEP, 0.5 * _room(x, lo, hi)[0])

    def second_difference(step):
        return (f(x + step) - 2.0 * fx + f(x - step)) / step**2

    return np.array([[(4.0 * second_difference(0.5 * s) - second_difference(s)) / 3.0]])


# The trust-region search of a Gaussian fit's hyperparameters: the step
# of the forward differences that give its first curvature, its first
# trust radius in that metric, the Newton decrement g'B^{-1}g/2 at which
# it stops, its cap on steps, and the relative round-off of a log
# posterior value (measured: 2e-14 at n = 2100).
_PROBE_STEP = 1e-3
_FIRST_RADIUS = 4.0
_MODE_TOL = 1e-10
_MODE_MAX_STEPS = 50
_F_ROUNDOFF = 1e-12


def _floored_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the symmetric a, each eigenvalue
    raised to at least 1e-6 of the largest magnitude (and 1e-8)."""
    eigval, eigvec = np.linalg.eigh(a)
    return np.maximum(eigval, max(np.abs(eigval).max() * 1e-6, 1e-8)), eigvec


def _trust_region_mode(fg, x: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Maximiser of f within [lo, hi] from x, given fg(x) -> (f, grad f),
    and the value there.

    A trust-region quasi-Newton search (Nocedal & Wright 2006, ch. 4 and
    6.1), as in INLA's first stage (Rue, Martino & Chopin 2009, sec. 6.1).
    Its metric B, an estimate of -Hessian, starts as forward differences
    of the gradient at x, one evaluation per axis, symmetrised and
    floored to positive definite (_floored_eigh), and takes a BFGS
    update after every evaluation that keeps it so. Each step is the Newton step B^{-1} g, shortened to
    the trust radius in the B-norm and projected into the box. A step
    that lowers f, or whose evaluation raises NumericFailureError, is
    rejected and shrinks the radius. A change of f below its round-off
    is measured instead by the trapezoid rule on the two gradients, so
    that the last steps are not decided by the last bits of f. The search
    stops at the first point whose Newton decrement g'B^{-1}g/2 is at most
    _MODE_TOL.
    """
    fx, gx = fg(x)
    b = np.empty((x.size, x.size))
    for i in range(x.size):
        h = np.zeros(x.size)
        h[i] = _PROBE_STEP if x[i] + _PROBE_STEP <= hi[i] else -_PROBE_STEP
        b[:, i] = (gx - fg(x + h)[1]) / h[i]
    eigval, eigvec = _floored_eigh(0.5 * (b + b.T))
    b = (eigvec * eigval) @ eigvec.T
    radius = _FIRST_RADIUS
    for _ in range(_MODE_MAX_STEPS):
        newton = np.linalg.solve(b, gx)
        decrement = 0.5 * float(gx @ newton)
        if decrement <= _MODE_TOL:
            return x, fx
        length = math.sqrt(2.0 * decrement)
        step = np.clip(x + newton * min(1.0, radius / length), lo, hi) - x
        bs = b @ step
        step_length = math.sqrt(float(step @ bs))
        predicted = float(gx @ step) - 0.5 * step_length**2
        if not predicted > 0.0:
            raise NumericFailureError(
                f"hyperparameter mode search did not converge: stalled on the bound "
                f"at {x.tolist()}"
            )
        try:
            ft, gt = fg(x + step)
        except NumericFailureError:
            ft = -math.inf
        if not math.isfinite(ft):
            radius = 0.25 * step_length
            continue
        y = gx - gt
        if step @ y > 1e-12 * step_length**2:
            b = b - np.outer(bs, bs) / step_length**2 + np.outer(y, y) / float(step @ y)
        gain = ft - fx
        if abs(gain) <= _F_ROUNDOFF * abs(fx):
            gain = 0.5 * float((gx + gt) @ step)
        ratio = gain / predicted
        if ratio < 0.25:
            radius = 0.25 * step_length
        elif ratio > 0.75 and step_length >= 0.99 * radius:
            radius *= 2.0
        if gain > 0.0:
            x, fx, gx = x + step, ft, gt
    raise NumericFailureError(
        f"hyperparameter mode search did not converge in {_MODE_MAX_STEPS} steps "
        f"(last point {x.tolist()}, Newton decrement {decrement:.3e})"
    )


# The search of a probit fit's one free hyperparameter: Brent's
# tolerance, the half width of its first bracket around HyperDim.init,
# and the share of the bracket's width, next to each edge, in which a
# peak of the parabola through Brent's first three points makes the
# search test that edge (_edge_passed).
_BRENT_XATOL = 1e-5
_FIRST_BRACKET = 0.1
_EDGE_MARGIN = 0.05


class _PastEdge(Exception):
    """Stops a Brent run whose minimiser lies past an inner edge of its
    bracket; args[0] is that edge."""


def _parabola_min(points) -> float | None:
    """Minimiser of the parabola through three (t, value) points, or None
    when it is not convex."""
    (x0, g0), (x1, g1), (x2, g2) = points
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    if denom == 0.0:
        return None
    a = (x2 * (g1 - g0) + x1 * (g0 - g2) + x0 * (g2 - g1)) / denom
    b = (x2 * x2 * (g0 - g1) + x1 * x1 * (g2 - g0) + x0 * x0 * (g1 - g2)) / denom
    return -b / (2.0 * a) if a > 0.0 else None


def _edge_passed(points, a: float, b: float, lo: float, hi: float, g) -> float | None:
    """The inner edge of the bracket [a, b] (one that is not lo or hi) past
    which Brent's first three points, sorted by t, place the minimiser of
    g; None when they do not.

    Only a best point nearest an inner edge, with the parabola through the
    three points not minimised more than _EDGE_MARGIN of the width inside
    the bracket, costs g at that edge. The edge is passed when the
    parabola through it and the two points nearest it has its minimum at
    or past the edge, or is not convex.
    """
    best = min(range(3), key=lambda i: points[i][1])
    near = {0: a, 2: b}.get(best)
    if near is None or not lo < near < hi:
        return None
    peak = _parabola_min(points)
    margin = _EDGE_MARGIN * (b - a)
    if peak is not None and a + margin < peak < b - margin:
        return None
    nearest = points[:2] if near == a else points[1:]
    peak = _parabola_min(nearest + [(near, g(near))])
    if peak is None or (peak <= a if near == a else peak >= b):
        return near
    return None


def _bracketed_brent(f, init: float, lo: float, hi: float):
    """Maximiser of f([t]) within [lo, hi] and the value there, by bounded
    Brent (Brent 1973) on the bracket init +- _FIRST_BRACKET, clipped to
    [lo, hi]. A maximiser at an edge of the bracket that is not lo or hi
    starts Brent again on a bracket four times as wide around that edge,
    until the maximiser lies inside its bracket or on [lo, hi]'s own bound.

    A maximiser within 10 xatol of an inner edge is one at the edge, and so
    is one that Brent's first three points place past it (_edge_passed):
    the run stops there, after at most one more evaluation, rather than
    converging onto the edge in some twenty.
    """
    center, half = min(max(init, lo), hi), _FIRST_BRACKET
    edge = 10.0 * _BRENT_XATOL
    while True:
        a, b = max(center - half, lo), min(center + half, hi)
        seen = []

        def g(t):
            value = -f([t])
            seen.append((t, value))
            if len(seen) == 3:
                near = _edge_passed(sorted(seen), a, b, lo, hi, lambda e: -f([e]))
                if near is not None:
                    raise _PastEdge(near)
            return value

        try:
            res = scipy.optimize.minimize_scalar(
                g, bounds=(a, b), method="bounded", options={"xatol": _BRENT_XATOL}
            )
        except _PastEdge as past:
            center, half = past.args[0], 4.0 * half
            continue
        if not res.success:
            raise NumericFailureError(
                f"hyperparameter mode search did not converge: {res.message} "
                f"(nit = {res.nit}, nfev = {res.nfev})"
            )
        center = float(res.x)
        if not ((a > lo and center - a <= edge) or (b < hi and b - center <= edge)):
            return np.array([center]), -float(res.fun)
        half *= 4.0


def _mode_and_scale(model: CompiledModel):
    """Posterior mode of the free hyperparameters and the grid's scale per
    axis (the sd of each axis under the Hessian at the mode).

    Gaussian: a trust-region quasi-Newton search (_trust_region_mode) on
    the exact evidence gradient from the model's HyperDim.init values,
    each point one factorization (_evidence_gradient), within
    _theta_bounds narrowed by the gradient's difference step; the Hessian
    is the central difference of that gradient (_gradient_hessian).
    Probit, at most one free hyperparameter: bounded Brent on a bracket
    around HyperDim.init, widened while the maximiser sits on an inner
    edge (_bracketed_brent); the curvature is an extrapolated second
    difference that reuses Brent's value at the mode
    (_extrapolated_curvature).
    """
    free = model.free_dims()
    if not free:
        return np.empty(0), np.empty(0)
    lo, hi = np.array([_theta_bounds(dim.name) for dim in free]).T
    if model.likelihood == "gaussian":
        fg = _log_posterior_and_gradient_fn(model)
        lo, hi = lo + _DIFF_STEP, hi - _DIFF_STEP
        mode, _ = _trust_region_mode(fg, np.clip([dim.init for dim in free], lo, hi), lo, hi)
        hess = _gradient_hessian(fg, mode, lo, hi)
    else:
        if len(free) > 1:
            raise InvalidInputError(
                f"a {model.likelihood} model takes at most one free hyperparameter, "
                f"got {len(free)}"
            )
        f = _log_posterior_fn(model)
        mode, fx = _bracketed_brent(f, free[0].init, lo[0], hi[0])
        hess = _extrapolated_curvature(f, mode, fx, lo, hi)
    try:
        eigval, eigvec = _floored_eigh(-hess)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericFailureError(f"Hessian eigendecomposition failed: {exc}") from exc
    cov = (eigvec / eigval) @ eigvec.T
    sigma = np.sqrt(np.clip(np.diag(cov), 1e-8, None))
    sigma = np.clip(sigma, 1e-3, 5.0)
    return mode, sigma


def _build_grid(model: CompiledModel, settings: GridSettings, want_states: bool):
    # Every exploration starts cold, from no mode and no held factor, so
    # its result does not depend on what was evaluated on the model before.
    model.last_mode = model.last_factor = None
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
    # Whole-matrix Gaussian states leave their latent variances pending
    # until the end of their grid row, which shares one Takahashi sweep.
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


def _gaussian_dic(model: CompiledModel, weights, states) -> tuple[float, float]:
    obs = model.obs_idx
    y_o = model.y[obs]
    tau = model.tau_obs
    log_norm = np.log(2.0 * math.pi / tau)
    e_d = 0.0
    eta_bar = np.zeros(model.n)
    for w_g, state in zip(weights, states):
        resid2 = (y_o - state.mean_eta[obs]) ** 2 + state.var_eta[obs]
        e_d += w_g * float(np.sum(log_norm + tau * resid2))
        eta_bar += w_g * state.mean_eta
    d_plug = float(np.sum(log_norm + tau * (y_o - eta_bar[obs]) ** 2))
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


def _predictive_marginals(model: CompiledModel, weights, states) -> dict[int, mg.Marginal]:
    out: dict[int, mg.Marginal] = {}
    for i in model.miss_idx:
        means = np.array([s.mean_eta[i] for s in states])
        variances = np.array([s.var_eta[i] for s in states])
        if model.likelihood == "gaussian":
            out[int(i)] = mg.gaussian_mixture_marginal(
                means, variances + 1.0 / model.tau_obs, weights, MIXTURE_POINTS
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
    # the last mode and factor; a later evaluation analyses its pattern
    # again and starts Newton from zero.
    model.assembly = None
    model.last_mode = model.last_factor = None
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
        dic, p_eff = _gaussian_dic(model, weights, states)
    else:
        dic, p_eff = _probit_dic(model, weights, states, _DIC_GH_NODES)

    predictive = _predictive_marginals(model, weights, states)

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
