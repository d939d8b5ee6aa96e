"""Sparse GMRF representation of the spatial-lag random effect.

The latent effect is x = (I - rho W)^{-1} (X beta + eps) with
eps ~ N(0, (1/tau) I) and beta ~ N(0, Q^{-1}). Jointly, (x, beta) is a
zero-mean Gaussian Markov random field whose precision has the block form

    [ tau (I - rho W')(I - rho W)    -tau (I - rho W') X ]
    [ -tau X' (I - rho W)             Q + tau X'X        ]

which is sparse and symmetric. This module keeps that matrix as sparse
terms fixed per model, weighted by scalars that depend on (rho, tau), on
one sparsity pattern for every rho and tau (PrecisionTerms), and factors
it (sparse LDL^T via SuperLU in symmetric mode). The autocorrelation
parameter lives on an internal (0, 1) scale mapped affinely onto
(rho_min, rho_max).

Marginal variances come from selected inversion (Takahashi, Fagan & Chen
1973; Rue, Martino & Chopin 2009, sec. 3): the entries of the inverse on
the pattern of the factor L, in O(nnz(L)) memory rather than the (n+p)^2
of a dense inverse. The work splits in two (Rue & Held 2005, sec. 2.4).
A SymbolicFactor analyses one sparsity pattern, from the pattern alone:
its fill-reducing order, the symbolic pattern of L and the recursion's
gather plan. A CholeskyHandle is one numeric factorization of data on an
analysed pattern, pre-permuted into its order; every factor, the first
included, runs that one path. One recursion, _takahashi, serves a single
factor and a stack of factors on one analysis alike: stacked, each
column's gather, product and dot run once for the whole stack
(marginal_variance_stack). The same selected inverse, read on the
analysed pattern (CholeskyHandle.inverse_on_pattern, in the pattern's
storage order), gives the trace tr(A^{-1} B) of any B on that pattern as
one dot product with B's data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidInputError, InvalidParameterError, NumericFailureError
from .weights import WeightsMatrix

# Internal rho is clamped strictly inside (0, 1): the precision loses
# positive definiteness exactly at the spectral bounds.
RHO_INTERNAL_EPS = 1e-6

DEFAULT_Q_BETA_DIAG = 1e-3
DEFAULT_RHO_PRIOR = (0.0, 10.0)  # Gaussian (mean, precision) on logit(internal rho)
DEFAULT_TAU_PRIOR = (1.0, 5e-5)  # log-gamma (shape, rate) on tau


def rho_to_internal(external: float, bounds: tuple[float, float]) -> float:
    """Map an external rho in (rho_min, rho_max) onto the internal (0, 1) scale."""
    lo, hi = bounds
    if not lo < external < hi:
        raise InvalidParameterError(
            f"rho = {external} is not strictly inside ({lo}, {hi})"
        )
    return (external - lo) / (hi - lo)


def rho_to_external(internal: float, bounds: tuple[float, float]) -> float:
    """Inverse of rho_to_internal."""
    lo, hi = bounds
    if not 0.0 < internal < 1.0:
        raise InvalidParameterError(
            f"internal rho = {internal} is not strictly inside (0, 1)"
        )
    return lo + internal * (hi - lo)


@dataclass(frozen=True)
class RhoParam:
    """Autocorrelation parameter on both scales."""

    internal: float
    external: float
    bounds: tuple[float, float]

    @classmethod
    def from_internal(cls, internal: float, bounds: tuple[float, float]) -> "RhoParam":
        return cls(internal, rho_to_external(internal, bounds), bounds)

    @classmethod
    def from_external(cls, external: float, bounds: tuple[float, float]) -> "RhoParam":
        return cls(rho_to_internal(external, bounds), external, bounds)


@dataclass(frozen=True)
class SlmSpec:
    """Definition of one spatial-lag latent effect.

    x_design may have zero columns (the pure autoregressive-error case).
    q_beta is the fixed prior precision of the coefficients inside the
    effect; the default is a vague diagonal.
    """

    w: WeightsMatrix
    x_design: np.ndarray
    q_beta: np.ndarray | None = None
    rho_prior: tuple[float, float] = DEFAULT_RHO_PRIOR
    tau_prior: tuple[float, float] = DEFAULT_TAU_PRIOR
    tau_fixed: float | None = None
    _logdet_q: float = field(default=0.0, init=False, repr=False, compare=False)
    _terms: "PrecisionTerms | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        x = np.asarray(self.x_design, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.shape[0] != self.w.n:
            raise InvalidInputError(
                f"design has {x.shape[0]} rows for a {self.w.n}-region weights matrix"
            )
        object.__setattr__(self, "x_design", x)
        q = self.q_beta
        if q is None:
            q = DEFAULT_Q_BETA_DIAG * np.eye(x.shape[1])
        q = np.atleast_2d(np.asarray(q, dtype=float))
        if q.shape != (x.shape[1], x.shape[1]):
            raise InvalidInputError(
                f"q_beta must be {x.shape[1]} x {x.shape[1]}, got {q.shape}"
            )
        if x.shape[1] and not np.allclose(q, q.T, atol=1e-12):
            raise InvalidInputError("q_beta must be symmetric")
        if x.shape[1]:
            try:
                np.linalg.cholesky(q)
            except np.linalg.LinAlgError as exc:
                raise InvalidInputError("q_beta must be positive definite") from exc
            object.__setattr__(self, "_logdet_q", float(np.linalg.slogdet(q)[1]))
        object.__setattr__(self, "q_beta", q)

    @property
    def n(self) -> int:
        return self.w.n

    @property
    def p(self) -> int:
        return self.x_design.shape[1]

    def bounds(self) -> tuple[float, float]:
        return self.w.rho_range()

    def precision_terms(self) -> "PrecisionTerms":
        """The fixed parts of the joint precision, built on first use."""
        if self._terms is None:
            object.__setattr__(self, "_terms", PrecisionTerms.of(self))
        return self._terms


def badly_scaled(x: np.ndarray) -> bool:
    """True when two nonconstant columns differ in scale by more than 1e4."""
    if x.shape[1] < 2:
        return False
    sds = x.std(axis=0)
    sds = sds[sds > 0]
    return bool(sds.size >= 2 and sds.max() / sds.min() > 1e4)


@dataclass(frozen=True)
class PrecisionTerms:
    """A precision of the form Q(theta) = sum_t a_t(theta) K_t: sparse
    terms K_t fixed per model, weighted by scalars that depend on theta
    (Rue & Held 2005, sec. 2). Every term is stored on the union of their
    patterns and the diagonal, one row of data each, so the pattern of Q
    never depends on theta.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray  # (T, nnz): one row per term

    @classmethod
    def union(cls, terms) -> "PrecisionTerms":
        """The given square sparse terms on the union of their patterns and
        the diagonal, from one gather of all their entries."""
        size = terms[0].shape[0]
        coo = [sp.coo_matrix(t) for t in terms]
        which = np.repeat(np.arange(len(coo)), [t.nnz for t in coo])
        indptr, indices, data = gather(
            size,
            len(coo),
            which,
            np.concatenate([t.row for t in coo]),
            np.concatenate([t.col for t in coo]),
            np.concatenate([t.data for t in coo]),
        )
        return cls(indptr, indices, data)

    @classmethod
    def bordered(cls, pattern, sparse, border, corner) -> "PrecisionTerms":
        """Terms [[S_t, B_t], [B_t', C_t]]: S_t with data sparse[t] on the
        m x m CSC pattern (indptr, indices), B_t = border[t] dense m x p_b
        and C_t = corner[t] dense p x p, p_b <= p, B_t beside the first
        p_b columns of C_t (BorderedPattern)."""
        layout = BorderedPattern.of(*pattern, border.shape[2], corner.shape[1])
        return cls(layout.indptr, layout.indices, layout.fill(sparse, border, corner))

    @classmethod
    def of(cls, spec: SlmSpec, fixed_diag=()) -> "PrecisionTerms":
        """The terms of the spatial-lag effect's joint precision,

            P(rho, tau) = Q_beta + tau (K0 - rho K1 + rho^2 K2),

        with K0 = [I, -X; -X', X'X], K1 = [W + W', -W'X; -X'W, 0] and
        K2 = [W'W, 0; 0, 0], since (I - rho W)'(I - rho W) = I - rho (W +
        W') + rho^2 W'W; the weights are [1, tau, -tau rho, tau rho^2]
        (joint_precision). fixed_diag appends coefficients outside the
        effect with that diagonal precision, joined to the constant term.
        The terms are built in block form (bordered): the x block from the
        entries of I, W, W' and W'W in one gather, the x-c block dense
        (empty when the effect has no coefficients), the c block dense.
        """
        n, p = spec.n, spec.p
        w = sp.csc_matrix(spec.w.mat)
        x = spec.x_design
        # Each block's entries in column-major order, so that the gather's
        # sort merges four sorted runs: W' is read off W's rows.
        w.sort_indices()
        wc, wr = w.tocoo(), sp.csr_matrix(w).tocoo()
        wtw = sp.csc_matrix(w.T @ w).tocoo()
        diag = np.arange(n)
        indptr, indices, xx = gather(
            n,
            4,
            np.repeat([1, 2, 2, 3], [n, wc.nnz, wr.nnz, wtw.nnz]),
            np.concatenate([diag, wc.row, wr.col, wtw.row]),
            np.concatenate([diag, wc.col, wr.row, wtw.col]),
            np.concatenate([np.ones(n), wc.data, wr.data, wtw.data]),
        )
        border = np.zeros((4, n, p))
        border[1], border[2] = -x, -(w.T @ x)
        fixed = np.asarray(fixed_diag, dtype=float)
        corner = np.zeros((4, p + fixed.size, p + fixed.size))
        corner[0, :p, :p] = spec.q_beta
        corner[0, p:, p:] = np.diag(fixed)
        corner[1, :p, :p] = x.T @ x
        return cls.bordered((indptr, indices), xx, border, corner)

    def matrix(self, weights: np.ndarray) -> sp.csc_matrix:
        """sum_t weights[t] K_t on the terms' pattern."""
        size = self.indptr.size - 1
        return sp.csc_matrix((weights @ self.data, self.indices, self.indptr), shape=(size, size))


@dataclass(frozen=True)
class JointPrecision:
    """The joint precision of (x, beta) at one (rho, tau): the weights
    [1, tau, -tau rho, tau rho^2] of the spec's fixed terms
    (PrecisionTerms.of), plus its exact log determinant (the Schur
    complement of the x block is q_beta, so log|P| = n log tau +
    2 log|det(I - rho W)| + log|q_beta|). p_mat assembles the
    (n+p) x (n+p) matrix when it is read."""

    spec: SlmSpec
    weights: np.ndarray
    logdet: float

    @property
    def p_mat(self) -> sp.csc_matrix:
        return self.spec.precision_terms().matrix(self.weights)


def joint_precision(spec: SlmSpec, rho: RhoParam | float, tau: float) -> JointPrecision:
    """The joint precision of (x, beta) at given (rho, tau), as the
    weights of its fixed terms and its log determinant.

    rho may be a RhoParam or an external-scale float.
    """
    if not np.isfinite(tau) or tau <= 0:
        raise InvalidParameterError(f"tau must be a positive finite number, got {tau}")
    bounds = spec.bounds()
    if isinstance(rho, RhoParam):
        rho_ext = rho.external
    else:
        rho_ext = float(rho)
    if not bounds[0] < rho_ext < bounds[1]:
        raise InvalidParameterError(
            f"rho = {rho_ext} is at or outside the admissible range {bounds}"
        )
    weights = np.array([1.0, tau, -tau * rho_ext, tau * rho_ext**2])
    logdet = spec.n * np.log(tau) + 2.0 * spec.w.log_abs_det(rho_ext) + spec._logdet_q
    return JointPrecision(spec=spec, weights=weights, logdet=float(logdet))


class SymbolicFactor:
    """Analysis of one symmetric sparsity pattern, made once and shared by
    every matrix on it.

    Holds the analysed CSC pattern, its fill-reducing order (order[k] is
    the original index of the k-th pivot) and, built on first use, the
    symbolic pattern of the factor L of the permuted matrix together with
    the gather plan of the Takahashi recursion. The order comes from the
    pattern alone: SuperLU's minimum degree on A + A', run on a diagonally
    dominant stand-in with that pattern. A test may pass its own order.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, order: np.ndarray | None = None):
        n = indptr.size - 1
        self.n = n
        self.indptr, self.indices = indptr, indices
        # Data positions of the analysed pattern in the permuted matrix.
        marks = sp.csc_matrix(
            (np.arange(1.0, indices.size + 1.0), indices, indptr), shape=(n, n)
        )
        if order is None:
            # At most n - 1 off-diagonal ones per row: a diagonal of n dominates.
            cols = np.repeat(np.arange(n), np.diff(indptr))
            stand_in = sp.csc_matrix(
                (np.where(indices == cols, float(n), 1.0), indices, indptr), shape=(n, n)
            )
            try:
                order = np.argsort(_splu(stand_in, "MMD_AT_PLUS_A").perm_c)
            except RuntimeError as exc:
                raise NumericFailureError(f"pattern cannot be analysed: {exc}") from exc
        self.order = order
        permuted = sp.csc_matrix(marks[order][:, order])
        permuted.sort_indices()
        self._perm_map = permuted.data.astype(np.intp) - 1
        self._perm_indptr, self._perm_indices = permuted.indptr, permuted.indices
        self._l_pattern = None
        self._lu_layout = None
        self._positions = None

    def permute(self, data: np.ndarray) -> sp.csc_matrix:
        """The matrix with the given pattern data, rows and columns in order."""
        return sp.csc_matrix(
            (data[self._perm_map], self._perm_indices, self._perm_indptr),
            shape=(self.n, self.n),
        )

    def l_pattern(self):
        """(indptr, indices, keys, fused, plan, plan_ptr) of L, built once.

        Column j of L has the rows struct_j = {j} + lower(A_j) + the union
        of struct_c - {c} over the children c of j in the elimination tree
        (Davis 2006, ch. 4); parent(j) is the second entry of struct_j.
        With S_j = struct_j - {j}, column j is fused when S_j = {j + 1} +
        S_{j+1} (j and j + 1 lie in one supernode): Sigma[S_j, S_j] is then
        Sigma[S_{j+1}, S_{j+1}] bordered by column j + 1 of Sigma. For every
        other column, plan[plan_ptr[j]:plan_ptr[j + 1]] holds the storage
        positions of Sigma[S_j, S_j] in row-major order.
        """
        if self._l_pattern is not None:
            return self._l_pattern
        n = self.n
        # The structure of A + A', as SuperLU's symmetric mode factors it.
        marks = sp.csc_matrix(
            (np.ones(self._perm_indices.size), self._perm_indices, self._perm_indptr),
            shape=(n, n),
        )
        both = sp.csc_matrix(marks + marks.T)
        both.sort_indices()
        indptr, indices = both.indptr, both.indices
        children: list[list[int]] = [[] for _ in range(n)]
        structs = []
        for j in range(n):
            col = indices[indptr[j] : indptr[j + 1]]
            parts = [np.array([j]), col[col > j]]
            parts.extend(structs[c][1:] for c in children[j])
            s = np.unique(np.concatenate(parts))
            structs.append(s)
            if s.size > 1:
                children[s[1]].append(j)
        l_indptr = np.zeros(n + 1, dtype=np.intp)
        l_indptr[1:] = np.cumsum([s.size for s in structs])
        l_indices = np.concatenate(structs).astype(np.intp)
        l_keys = _pattern_keys(l_indptr, l_indices, n)
        sizes = np.diff(l_indptr)
        fused = np.zeros(n, dtype=bool)
        fused[:-1] = (sizes[:-1] == sizes[1:] + 1) & (
            l_indices[l_indptr[:-2] + 1] == np.arange(1, n)
        )
        plan_ptr = np.zeros(n + 1, dtype=np.intp)
        plan_ptr[1:] = np.cumsum(np.where(fused, 0, (sizes - 1) ** 2))
        plan = np.empty(plan_ptr[-1], dtype=np.intp)
        for j in np.flatnonzero(~fused & (sizes > 1)):
            rows = structs[j][1:]
            lo = np.minimum.outer(rows, rows)
            hi = np.maximum.outer(rows, rows)
            plan[plan_ptr[j] : plan_ptr[j + 1]] = np.searchsorted(
                l_keys, (lo * n + hi).ravel()
            )
        self._l_pattern = (l_indptr, l_indices, l_keys, fused, plan, plan_ptr)
        return self._l_pattern

    def l_values(self, lu_l: sp.csc_matrix) -> np.ndarray:
        """The values of a factor's L, as SuperLU stores it, on the symbolic
        pattern of L. SuperLU keeps each column's rows in supernode order
        and may leave out entries that cancel to zero, never add any; the
        map from its layout onto the pattern is built once and reused while
        the layout stays the same."""
        layout = self._lu_layout
        if layout is None or not (
            np.array_equal(layout[0], lu_l.indptr) and np.array_equal(layout[1], lu_l.indices)
        ):
            l_keys = self.l_pattern()[2]
            keys = _pattern_keys(lu_l.indptr, lu_l.indices, self.n)
            pos = np.searchsorted(l_keys, keys)
            outside = np.flatnonzero(l_keys.take(pos, mode="clip") != keys)
            pos[outside] = l_keys.size  # a spare slot, dropped below
            layout = self._lu_layout = (lu_l.indptr, lu_l.indices, pos, outside)
        _, _, pos, outside = layout
        if np.any(lu_l.data[outside] != 0.0):
            raise NumericFailureError("factor has entries outside its symbolic pattern")
        size = self.l_pattern()[2].size
        values = np.zeros(size + 1)
        values[pos] = lu_l.data
        return values[:size]

    def positions(self) -> np.ndarray:
        """For each entry of the analysed pattern, the storage position of
        its (symmetric) entry in the selected inverse, built once."""
        if self._positions is None:
            n = self.n
            l_keys = self.l_pattern()[2]
            rank = np.empty(n, dtype=np.int64)
            rank[self.order] = np.arange(n)
            rows = rank[self.indices]
            cols = rank[np.repeat(np.arange(n), np.diff(self.indptr))]
            keys = np.minimum(rows, cols) * n + np.maximum(rows, cols)
            self._positions = np.searchsorted(l_keys, keys)
        return self._positions


def gather(size: int, n_terms: int, which, rows, cols, values):
    """(indptr, indices, data): the entries (rows[k], cols[k]) of the
    terms which[k], values[k] summed per term and position, on the CSC
    union of their positions and the diagonal of a size x size matrix,
    data (n_terms, nnz). One stable sort of the int64 keys col * size +
    row (a merge where the entries come in sorted runs) finds every
    position at once; the sums run in the order of the entries."""
    diag = np.arange(size, dtype=np.int64)
    keys = np.concatenate([np.asarray(cols, dtype=np.int64) * size + rows, diag * (size + 1)])
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    pos = np.empty(keys.size, dtype=np.int64)
    pos[order] = np.cumsum(first) - 1
    unique = ordered[first]
    nnz = unique.size
    slot = np.asarray(which, dtype=np.int64) * nnz + pos[: keys.size - size]
    data = np.bincount(slot, weights=values, minlength=n_terms * nnz).reshape(n_terms, nnz)
    col = unique // size
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(col, minlength=size), out=indptr[1:])
    return _index(indptr, nnz), _index(unique - col * size, nnz), data


@dataclass(frozen=True)
class BorderedPattern:
    """The CSC pattern of [[S, B], [B', C]]: S on an m x m sparse pattern,
    B a dense m x p_b block beside the first p_b of the p columns of the
    dense p x p block C. Column j < m holds S's rows, then m, ..., m + p_b
    - 1; column m + k holds 0, ..., m - 1 when k < p_b, then m, ..., m + p
    - 1. With it the positions of each block's entries in the data:
    s_pos for S's, b_pos[i, k] for B[i, k] in column m + k, bt_pos[i, k]
    for its copy in row m + k of column i, c_pos[a, b] for C[a, b]; and
    source, for each position, its entry in the blocks laid end to end
    (fill)."""

    indptr: np.ndarray
    indices: np.ndarray
    s_pos: np.ndarray
    b_pos: np.ndarray
    bt_pos: np.ndarray
    c_pos: np.ndarray
    source: np.ndarray

    @classmethod
    def of(cls, indptr, indices, p_b: int, p: int) -> "BorderedPattern":
        m, nnz_s = indptr.size - 1, indices.size
        s_counts = np.diff(indptr)
        tall = np.arange(p) < p_b
        counts = np.concatenate([s_counts + p_b, np.where(tall, m + p, p)])
        full = np.zeros(m + p + 1, dtype=np.int64)
        np.cumsum(counts, out=full[1:])
        s_col = np.repeat(np.arange(m), s_counts)
        s_pos = full[s_col] + np.arange(nnz_s) - indptr[s_col]
        bt_pos = (full[:m] + s_counts)[:, None] + np.arange(p_b)
        b_pos = full[m : m + p_b] + np.arange(m)[:, None]
        c_pos = (full[m:-1] + np.where(tall, m, 0)) + np.arange(p)[:, None]
        out = np.empty(full[-1], dtype=np.int64)
        source = np.empty(full[-1], dtype=np.int64)
        for pos, rows, src in (
            (s_pos, indices, np.arange(nnz_s)),
            (bt_pos, m + np.arange(p_b), nnz_s + np.arange(m * p_b).reshape(m, p_b)),
            (b_pos, np.arange(m)[:, None], nnz_s + np.arange(m * p_b).reshape(m, p_b)),
            (c_pos, m + np.arange(p)[:, None], nnz_s + m * p_b + np.arange(p * p).reshape(p, p)),
        ):
            out[pos], source[pos] = rows, src
        indptr, indices = _index(full, out.size), _index(out, out.size)
        return cls(indptr, indices, s_pos, b_pos, bt_pos, c_pos, source)

    def fill(self, sparse, border, corner) -> np.ndarray:
        """The (T, nnz) data of terms with the given blocks: sparse (T,
        nnz(S)), border (T, m, p_b) and corner (T, p, p)."""
        t = sparse.shape[0]
        blocks = np.concatenate([sparse, border.reshape(t, -1), corner.reshape(t, -1)], axis=1)
        return np.take(blocks, self.source, axis=1)


def _index(a: np.ndarray, nnz: int) -> np.ndarray:
    """A CSC index array in the dtype scipy keeps for a pattern of nnz
    entries (int32 below 2^31), so that no matrix built on it copies it."""
    return a.astype(np.int32 if max(nnz, a.size) < 2**31 else np.int64, copy=False)


def _pattern_keys(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """col * n + row for each stored entry; sorted for a sorted CSC pattern."""
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return cols * n + indices


class CholeskyHandle:
    """Sparse symmetric factorization of an SPD matrix.

    Wraps SuperLU in symmetric mode (no partial pivoting), which for an
    SPD input is an LDL^T factorization: positive pivots, log-determinant
    from the U diagonal. A handle factors data on an analysed pattern
    (symbolic): the matrix is pre-permuted into the analysis' order and
    factored in that order, with no ordering of its own. of() factors a
    general SPD matrix, analysing its pattern unless given the analysis.
    Marginal variances come from the selected inverse on the pattern of
    L, in O(nnz(L)) memory. factor_values() is all the selected inverse
    needs: a caller may keep those and drop the handle, with its SuperLU
    factor, before the sweep.
    """

    def __init__(self, symbolic: SymbolicFactor, data: np.ndarray, context: str = ""):
        if data.shape != symbolic.indices.shape:
            raise InvalidInputError(
                f"{data.size} values for an analysed pattern of {symbolic.indices.size} entries"
            )
        try:
            self._lu = _splu(symbolic.permute(data), "NATURAL")
        except RuntimeError as exc:
            raise NumericFailureError(
                f"factorization failed ({context or 'singular matrix'}): {exc}"
            ) from exc
        diag = self._lu.U.diagonal()
        natural = np.arange(symbolic.n)
        if (
            np.any(diag <= 0)
            or not np.all(np.isfinite(diag))
            or not np.array_equal(self._lu.perm_c, natural)
            or not np.array_equal(self._lu.perm_r, natural)
        ):
            raise NumericFailureError(
                f"matrix is not positive definite ({context or 'non-SPD input'})"
            )
        self.symbolic = symbolic
        self._d = diag
        self._logdet = float(np.sum(np.log(diag)))
        self._sigma = None
        self.shape = (symbolic.n, symbolic.n)

    @classmethod
    def of(cls, mat, context: str = "", symbolic: SymbolicFactor | None = None) -> "CholeskyHandle":
        """Factor the SPD matrix mat: put in canonical CSC form (sorted
        indices, no duplicates) once, its pattern analysed unless
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
        return cls(symbolic, mat.data, context)

    def logdet(self) -> float:
        return self._logdet

    def solve(self, b: np.ndarray) -> np.ndarray:
        order = self.symbolic.order
        b = np.asarray(b, dtype=float)
        x = np.empty_like(b)
        x[order] = self._lu.solve(b[order])
        return x

    def inverse_dense(self) -> np.ndarray:
        """Dense inverse, O(n^2) memory: the reference the selected inverse
        is tested and benchmarked against. The engine never calls it."""
        return self.solve(np.eye(self.shape[0]))

    def factor_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(values of L on the symbolic pattern, pivots D): all the
        selected inverse reads of the factor. The L values are a fresh
        array on every call."""
        return self.symbolic.l_values(self._lu.L.tocsc()), self._d

    def _selected(self) -> np.ndarray:
        """Sigma = A^{-1} on the pattern of L (permuted order): the
        Takahashi recursion on a stack of one."""
        if self._sigma is None:
            self._sigma = _takahashi(self.symbolic.l_pattern(), *self.factor_values())
        return self._sigma

    def drop_selected(self) -> None:
        """Free the cached selected inverse: a handle kept only to solve
        with holds the factor and its pivots, not O(nnz(L)) more."""
        self._sigma = None

    def marginal_variances(self, indices) -> np.ndarray:
        """Diagonal entries of the inverse at the requested coordinates."""
        indices = np.atleast_1d(np.asarray(indices, dtype=int))
        return _diagonal(self.symbolic, self._selected())[indices]

    def inverse_on_pattern(self) -> np.ndarray:
        """The entries of A^{-1} on the analysed pattern, as data in that
        pattern's storage order."""
        return self._selected()[self.symbolic.positions()]

    def inverse_columns(self, indices) -> np.ndarray:
        """Columns of the inverse at the requested coordinates, one solve."""
        indices = np.atleast_1d(np.asarray(indices, dtype=int))
        rhs = np.zeros((self.shape[0], indices.size))
        rhs[indices, np.arange(indices.size)] = 1.0
        return self.solve(rhs)


def marginal_variance_stack(
    symbolic: SymbolicFactor, values: list[tuple[np.ndarray, np.ndarray]], indices
) -> np.ndarray:
    """Diagonal entries of G inverses at the requested coordinates, as a
    (G, len(indices)) array, from one Takahashi sweep over the stacked
    factor_values() of G factors analysed by `symbolic`."""
    l_vals = np.stack([v[0] for v in values], axis=-1)
    d = np.stack([v[1] for v in values], axis=-1)
    return _diagonal(symbolic, _takahashi(symbolic.l_pattern(), l_vals, d))[indices].T


def _diagonal(symbolic: SymbolicFactor, sigma: np.ndarray) -> np.ndarray:
    """The diagonal of the selected inverse(s) sigma, original order."""
    diag = np.empty((symbolic.n,) + sigma.shape[1:])
    diag[symbolic.order] = sigma[symbolic.l_pattern()[0][:-1]]
    return diag


def _takahashi(l_pattern, l_vals: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Sigma = A^{-1} on the pattern of L (permuted order) for A = L D L',
    by the Takahashi recursion from the last column to the first:

        Sigma[S_j, j] = -Sigma[S_j, S_j] L[S_j, j],
        Sigma[j, j] = 1 / d_j - L[S_j, j]' Sigma[S_j, j]

    (Takahashi, Fagan & Chen 1973; Rue & Held 2005, sec. 2.3). l_vals and
    d are (nnz(L),) and (n,) for one factor, or (nnz(L), G) and (n, G)
    for a stack of G factors on one pattern, which then share every
    column's gather, product and dot. Sigma overwrites l_vals: column j
    reads its own L values once, before it writes its own Sigma entries,
    and otherwise reads only Sigma of the columns after it.

    A run of fused columns j0 < ... < j1 (a supernode: S_j = {j + 1} +
    S_{j+1}) fills one buffer from the bottom right: the block of j1 is
    gathered by the plan, and each column's block Sigma[S_j, S_j] is the
    block below it bordered by column j + 1 of Sigma.
    """
    l_indptr, _, _, fused, plan, plan_ptr = l_pattern
    stack = l_vals.shape[1:]
    sigma = l_vals
    inv_d = 1.0 / d
    starts, plans, fused = l_indptr.tolist(), plan_ptr.tolist(), fused.tolist()
    if stack:
        # Buffers hold the stack first: (G, m, m) blocks times (G, m, 1).
        def product(block, col):
            return np.matmul(block, col.T[..., None])[..., 0].T
    else:
        product = np.matmul
    j = len(starts) - 2
    while j >= 0:
        top = j
        while top > 0 and fused[top - 1]:
            top -= 1
        a, b = starts[j], starts[j + 1]
        m = b - a - 1
        k = j - top  # Sigma[S_j, S_j] is buf[..., k:, k:]
        buf = np.empty(stack + (m + k, m + k))
        buf[..., k:, k:] = sigma[plan[plans[j] : plans[j + 1]]].T.reshape(stack + (m, m))
        while True:
            l_col = l_vals[a + 1 : b]
            t = product(buf[..., k:, k:], l_col)  # -Sigma[S_j, j]
            sigma[a] = inv_d[j] + np.vecdot(l_col, t, axis=0)
            np.negative(t, out=sigma[a + 1 : b])
            if k == 0:
                break
            j, k, b, m = j - 1, k - 1, a, m + 1
            a = starts[j]
            border = sigma[b : b + m].T
            buf[..., k, k:] = border
            buf[..., k:, k] = border
        j -= 1
    return sigma


def _splu(mat: sp.csc_matrix, permc_spec: str):
    # relax=1 keeps SuperLU's relaxed supernodes to single columns: the
    # same factor, with less work in gstrf on these matrices.
    return spla.splu(
        mat,
        permc_spec=permc_spec,
        diag_pivot_thresh=0.0,
        relax=1,
        options={"SymmetricMode": True},
    )
