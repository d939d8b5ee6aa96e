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
its fill-reducing order, then the pattern of L from one factor of an
M-matrix on the pattern (which cannot cancel), checked to be the
symbolic one, and the sweep's plan. A CholeskyHandle is one numeric
factorization of data on an analysed pattern, pre-permuted into its
order; every factor, the first included, runs that one path. The sweep,
_takahashi, is supernodal (Lin et al. 2011, "SelInv"): each run of
columns with shared rows below is one dense block, and the supernodes at
one depth of the supernodal elimination tree run as one batched numpy
call per block shape, from the roots down. Each factor runs its own
sweep. The same selected inverse, read on the analysed pattern
(CholeskyHandle.inverse_on_pattern, in the pattern's storage order),
gives the trace tr(A^{-1} B) of any B on that pattern as one dot product
with B's data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidInputError, InvalidParameterError, NumericFailureError
from .weights import WeightsMatrix

# Internal rho is clamped strictly inside (0, 1): the precision loses
# positive definiteness exactly at the spectral bounds.
RHO_INTERNAL_EPS = 1e-6

DEFAULT_Q_BETA_DIAG = 1e-3


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
class SlmSpec:
    """Definition of one spatial-lag latent effect.

    x_design may have zero columns (the pure autoregressive-error case).
    q_beta is the fixed prior precision of the coefficients inside the
    effect; the default is a vague diagonal.
    """

    w: WeightsMatrix
    x_design: np.ndarray
    q_beta: np.ndarray | None = None
    _logdet_q: float = field(default=0.0, init=False, repr=False, compare=False)

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

    def quadratic_forms(self, z: np.ndarray) -> np.ndarray:
        """z' K_t z for every term t, from one product with the terms' data."""
        cols = np.repeat(np.arange(self.indptr.size - 1), np.diff(self.indptr))
        return self.data @ (z[self.indices] * z[cols])


@dataclass(frozen=True)
class JointPrecision:
    """The joint precision of (x, beta) at one (rho, tau): the weights
    [1, tau, -tau rho, tau rho^2] of the spec's fixed terms
    (PrecisionTerms.of), plus its exact log determinant (the Schur
    complement of the x block is q_beta, so log|P| = n log tau +
    2 log|det(I - rho W)| + log|q_beta|)."""

    weights: np.ndarray
    logdet: float


def joint_precision(spec: SlmSpec, rho: float, tau: float) -> JointPrecision:
    """The joint precision of (x, beta) at given (rho, tau), rho on the
    external scale, as the weights of its fixed terms and its log
    determinant."""
    if not np.isfinite(tau) or tau <= 0:
        raise InvalidParameterError(f"tau must be a positive finite number, got {tau}")
    bounds = spec.bounds()
    rho_ext = float(rho)
    if not bounds[0] < rho_ext < bounds[1]:
        raise InvalidParameterError(
            f"rho = {rho_ext} is at or outside the admissible range {bounds}"
        )
    weights = np.array([1.0, tau, -tau * rho_ext, tau * rho_ext**2])
    logdet = spec.n * np.log(tau) + 2.0 * spec.w.log_abs_det(rho_ext) + spec._logdet_q
    return JointPrecision(weights=weights, logdet=float(logdet))


class SymbolicFactor:
    """Analysis of one symmetric sparsity pattern, made once and shared by
    every matrix on it.

    Holds the analysed CSC pattern (symmetric), its fill-reducing order
    (order[k] is the original index of the k-th pivot) and, built on
    first use, the symbolic pattern of the factor L of the permuted matrix
    together with the supernodal sweep's plan (l_pattern). Both come from
    the pattern alone, from one factor of its M-matrix stand-in
    (_factor_pattern) under SuperLU's minimum degree on A + A'. A test may
    pass its own order, which the stand-in is then factored in.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, order: np.ndarray | None = None):
        n = indptr.size - 1
        self.n = n
        self.indptr, self.indices = indptr, indices
        # Data positions of the analysed pattern in the permuted matrix.
        marks = sp.csc_matrix(
            (np.arange(1.0, indices.size + 1.0), indices, indptr), shape=(n, n)
        )
        self._l_factor = None
        if order is None:
            order, self._l_factor = _factor_pattern(indptr, indices, "MMD_AT_PLUS_A")
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

    def l_pattern(self) -> "LPattern":
        """The symbolic pattern of L and the sweep's plan, built once
        (_factor_pattern, _sweep_plan)."""
        if self._l_pattern is None:
            indptr, indices = self._perm_indptr, self._perm_indices
            l_factor = self._l_factor or _factor_pattern(indptr, indices, "NATURAL")[1]
            self._l_pattern = _sweep_plan(indptr, indices, *l_factor)
            self._l_factor = None
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
            l_keys = self.l_pattern().keys
            keys = _pattern_keys(lu_l.indptr, lu_l.indices, self.n)
            pos = np.searchsorted(l_keys, keys)
            outside = np.flatnonzero(l_keys.take(pos, mode="clip") != keys)
            pos[outside] = l_keys.size  # a spare slot, dropped below
            layout = self._lu_layout = (lu_l.indptr, lu_l.indices, pos, outside)
        _, _, pos, outside = layout
        if np.any(lu_l.data[outside] != 0.0):
            raise NumericFailureError("factor has entries outside its symbolic pattern")
        size = self.l_pattern().keys.size
        values = np.zeros(size + 1)
        values[pos] = lu_l.data
        return values[:size]

    def positions(self) -> np.ndarray:
        """For each entry of the analysed pattern, the storage position of
        its (symmetric) entry in the selected inverse, built once."""
        if self._positions is None:
            n = self.n
            l_keys = self.l_pattern().keys
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
    factored in that order, with no ordering of its own. Marginal
    variances come from the selected inverse on the pattern of L, in
    O(nnz(L)) memory.
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
        supernodal sweep."""
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
        diag = np.empty(self.symbolic.n)
        diag[self.symbolic.order] = self._selected()[self.symbolic.l_pattern().indptr[:-1]]
        return diag[indices]

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


# Columns of one supernode at most: a longer run of fused columns is cut,
# which bounds the cost of each block's dense inverse.
_SUPERNODE_WIDTH = 32


class SweepGroup(NamedTuple):
    """Supernodes at one depth of the supernodal elimination tree, in one
    class of widths |J| and one class of heights |R| (powers of two),
    padded to the largest of each, as positions in the sweep's storage
    (_takahashi): panel (B, Jb + Rb + 1, Jb) reads L[J + R, J] and, in its
    last row, 1/d_J; out (B, Jb + Rb, Jb) takes Sigma[J + R, J] on the
    pattern of L; above (B, Rb, Rb) reads Sigma[R, R]."""

    panel: np.ndarray
    out: np.ndarray
    above: np.ndarray


class LPattern(NamedTuple):
    """The symbolic pattern of L (CSC, rows sorted), its keys col * n + row,
    the width of every supernode in column order, and the sweep's groups,
    parents before children."""

    indptr: np.ndarray
    indices: np.ndarray
    keys: np.ndarray
    widths: np.ndarray
    groups: tuple


def _factor_pattern(indptr: np.ndarray, indices: np.ndarray, permc_spec: str):
    """(order, (indptr, indices) of L) for a symmetric CSC pattern, from
    SuperLU's factor, in the column order permc_spec picks, of the M-matrix
    with that pattern: -1 off the diagonal and the column count + 1 on it.
    The matrix is strictly diagonally dominant, so every pivot is on the
    diagonal (rows are permuted as columns) and L is the factor of the
    symmetrically permuted matrix. Its elimination adds terms of one sign
    only, so no entry cancels and L has every entry of the symbolic
    pattern (_sweep_plan checks it)."""
    n = indptr.size - 1
    counts = np.diff(indptr)
    cols = np.repeat(np.arange(n), counts)
    stand_in = sp.csc_matrix(
        (np.where(indices == cols, counts[cols] + 1.0, -1.0), indices, indptr), shape=(n, n)
    )
    try:
        lu = _splu(stand_in, permc_spec)
    except RuntimeError as exc:
        raise NumericFailureError(f"pattern cannot be analysed: {exc}") from exc
    lower = lu.L
    lower.sort_indices()
    return np.argsort(lu.perm_c), (lower.indptr, lower.indices)


def _ragged(counts: np.ndarray):
    """(owner, local): for each element of blocks of the given sizes laid
    end to end, its block and its index in the block."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]


def _size_class(m: np.ndarray) -> np.ndarray:
    """0 for 0, else 1 + ceil(log2 m): sizes within a factor of two."""
    return np.where(m > 0, np.ceil(np.log2(np.maximum(m, 1))).astype(np.intp) + 1, 0)


def _sweep_plan(indptr, indices, l_indptr, l_indices) -> LPattern:
    """The sweep's plan for a factor pattern (l_indptr, l_indices) of the
    symmetric pattern (indptr, indices), from array passes alone.

    Check: the pattern holds lower(A) and is closed under the elimination
    tree, every row of column j below parent(j) (its second row) in
    column parent(j). A factor never has entries outside the symbolic
    pattern, and the symbolic pattern is the smallest closed one holding
    lower(A), so the two are equal; otherwise NumericFailureError.

    Supernodes: column j joins j + 1 when S_j = {j + 1} + S_{j+1} (S_j the
    rows of column j below j), up to _SUPERNODE_WIDTH columns J; then
    every column of J has the rows R below J. Closure is checked on this
    structure: a fused pair's rows match exactly, and the rows R of each
    supernode lie in its parent's J + R (one searchsorted, which also
    gives their ranks there). Depths come from pointer jumping on the
    supernode parents, and Sigma[R, R]'s positions from the parent's
    symmetric block of positions, gathered level by level.
    """
    n = indptr.size - 1
    l_indptr, l_indices = l_indptr.astype(np.intp), l_indices.astype(np.intp)
    nnz = l_indices.size
    sizes = np.diff(l_indptr)
    heads = l_indptr[:-1]
    if np.any(sizes == 0) or not np.array_equal(l_indices[heads], np.arange(n)):
        raise NumericFailureError("factor pattern lacks its diagonal")
    keys = np.repeat(np.arange(n), sizes) * n + l_indices
    cols = np.repeat(np.arange(n), np.diff(indptr))
    lower = indices >= cols
    wanted = cols[lower] * n + indices[lower]
    if not np.array_equal(keys.take(np.searchsorted(keys, wanted), mode="clip"), wanted):
        raise NumericFailureError("factor pattern lacks an entry of the matrix")
    parent = np.full(n, n)
    parent[sizes > 1] = l_indices[heads[sizes > 1] + 1]
    fused = (sizes[:-1] == sizes[1:] + 1) & (parent[:-1] == np.arange(1, n))
    f_cols = np.flatnonzero(fused)
    owner, local = _ragged(sizes[f_cols + 1])
    nested = np.array_equal(
        l_indices[heads[f_cols][owner] + 1 + local], l_indices[heads[f_cols + 1][owner] + local]
    )
    start = np.ones(n, dtype=bool)
    start[1:] = ~fused
    run = np.maximum.accumulate(np.where(start, np.arange(n), 0))
    start[1:] |= (np.arange(1, n) - run[1:]) % _SUPERNODE_WIDTH == 0
    first = np.flatnonzero(start)
    ns = first.size
    width = np.diff(np.append(first, n))
    last = first + width - 1
    height = sizes[last] - 1
    up = np.full(ns + 1, ns)  # ns: above every root
    up[:ns][height > 0] = np.repeat(np.arange(ns), width)[parent[last[height > 0]]]
    depth = (up != ns).astype(np.intp)
    anc = up.copy()
    while np.any(anc != ns):
        depth = depth + depth[anc]
        anc = anc[anc]
    # Groups of supernodes in sweep order, t, and their padded shapes.
    key = np.stack([depth[:ns], _size_class(width), _size_class(height)])
    order = np.lexsort(key[::-1])
    key = key[:, order]
    bounds = np.concatenate(
        [[0], np.flatnonzero(np.any(key[:, 1:] != key[:, :-1], axis=0)) + 1, [ns]]
    )
    per = np.diff(bounds)
    w, h, f0 = width[order], height[order], first[order]
    jb = np.repeat(np.maximum.reduceat(w, bounds[:-1]), per)
    rb = np.repeat(np.maximum.reduceat(h, bounds[:-1]), per)
    ub = jb + rb
    t_of = np.empty(ns + 1, dtype=np.intp)
    t_of[order] = np.arange(ns)
    has_child = np.zeros(ns + 1, dtype=bool)
    has_child[up[:ns]] = True
    has_child = has_child[order]
    # Positions on (J + R + 1)^2 for the groups that hold a parent.
    block = np.where(np.repeat(np.maximum.reduceat(has_child, bounds[:-1]), per), (ub + 1) ** 2, 0)
    b_off = np.cumsum(block) - block
    # The rows R of each supernode, padded to Rb, as indices into its
    # parent's padded J + R; padding points at the parent's last index.
    r_owner, r_local = _ragged(rb)
    real = r_local < h[r_owner]
    rows = l_indices[l_indptr[last[order]][r_owner] + 1 + np.minimum(r_local, h[r_owner] - 1)]
    p = up[order][r_owner]
    pt = t_of[p]
    in_j = rows < (f0 + w)[pt]
    s_owner, s_local = _ragged(height)
    table = s_owner * n + l_indices[heads[last][s_owner] + 1 + s_local]  # sorted
    found = np.searchsorted(table, p * n + rows)
    if not (nested and np.all(in_j | ~real | (table.take(found, mode="clip") == p * n + rows))):
        raise NumericFailureError("factor pattern is not closed under its elimination tree")
    rel = np.where(in_j, rows - f0[pt], jb[pt] + found - (np.cumsum(height) - height)[p])
    rel = np.where(real, rel, ub[pt])
    high, low = rel * (ub[pt] + 1), rel + b_off[pt]
    # Panels: positions of L[J + R, J] (padding reads 0, 1 on the diagonal
    # of J) and of 1/d_J, and where Sigma[J + R, J] goes.
    zero, one, dump = nnz + n, nnz + n + 1, nnz + n + 2
    e_owner, e_local = _ragged((ub + 1) * jb)
    e_jb, e_w, e_ub = jb[e_owner], w[e_owner], ub[e_owner]
    u, v = np.divmod(e_local, e_jb)
    del e_local
    u_rank = np.where(u < e_jb, np.where(u < e_w, u, -1), e_w + u - e_jb)
    on_l = (v < e_w) & (u_rank >= v) & (u - e_jb < h[e_owner])
    at = np.where(on_l, l_indptr[f0[e_owner] + np.minimum(v, e_w - 1)] + u_rank - v, zero)
    del u_rank
    panel = np.where(u == v, np.where(v < e_w, at, one), at)
    panel = np.where(u == e_ub, np.where(v < e_w, nnz + f0[e_owner] + v, zero), panel)
    out = np.where(on_l, at, dump)
    # Each parent's symmetric block of Sigma's positions on its padded
    # J + R, with a last row and column of zeros.
    positions = np.empty(int(block.sum()), dtype=np.intp)
    for a, b, mask in ((u, v, u >= v), (v, u, u > v)):
        keep = mask & has_child[e_owner] & (u < e_ub)
        positions[(b_off[e_owner] + a * (e_ub + 1) + b)[keep]] = at[keep]
    del e_owner, e_jb, e_w, e_ub, u, v, on_l, at
    z_owner, z_local = _ragged(np.where(has_child, ub + 1, 0))
    z_ub = ub[z_owner]
    positions[b_off[z_owner] + z_ub * (z_ub + 1) + z_local] = zero
    positions[b_off[z_owner] + z_local * (z_ub + 1) + z_ub] = zero
    e_off = np.cumsum((ub + 1) * jb) - (ub + 1) * jb
    r_off = np.cumsum(rb) - rb
    groups = []
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        b, jw, rw = t1 - t0, int(jb[t0]), int(rb[t0])
        r = slice(r_off[t0], r_off[t0] + b * rw)
        above = positions.take(high[r].reshape(b, rw, 1) + low[r].reshape(b, 1, rw))
        if has_child[t0:t1].any():
            mine = positions[b_off[t0] : b_off[t0] + b * (jw + rw + 1) ** 2]
            mine.reshape(b, jw + rw + 1, jw + rw + 1)[:, jw:-1, jw:-1] = above
        e = slice(e_off[t0], e_off[t0] + b * (jw + rw + 1) * jw)
        shape = (b, jw + rw + 1, jw)
        groups.append(SweepGroup(panel[e].reshape(shape), out[e].reshape(shape)[:, :-1], above))
    return LPattern(l_indptr, l_indices, keys, width, tuple(groups))


def _takahashi(l_pattern: LPattern, l_vals: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Sigma = A^{-1} on the pattern of L (permuted order) for A = L D L'.

    For a supernode of columns J with rows R below them (Takahashi, Fagan
    & Chen 1973; Lin et al. 2011, "SelInv"), Sigma L = L^{-T} D^{-1} on
    the columns J gives, with Y = L_RJ L_JJ^{-1},

        Sigma[R, J] = -Sigma[R, R] Y,
        Sigma[J, J] = L_JJ^{-T} D_J^{-1} L_JJ^{-1} - Sigma[R, J]' Y,

    which reads Sigma only on rows R, all of them ancestors in the
    elimination tree. Supernodes at one depth of the supernodal tree are
    independent, and each group of them (SweepGroup) runs as one batched
    gather, inverse, product and scatter, from the roots down. l_vals and
    d are one factor's (nnz(L),) values of L and (n,) pivots
    (CholeskyHandle.factor_values).
    """
    nnz, n = l_vals.size, d.size
    # L's values, 1/d, then a 0, a 1 and a slot that takes whatever
    # padding writes.
    store = np.empty(nnz + n + 3)
    store[:nnz] = l_vals
    np.divide(1.0, d, out=store[nnz : nnz + n])
    store[nnz + n :] = (0.0, 1.0, 0.0)
    for group in l_pattern.groups:
        jw = group.panel.shape[2]
        panel = store.take(group.panel)
        above = store.take(group.above)
        l_rj, inv_d = panel[:, jw:-1], panel[:, -1:]
        out = np.empty(group.out.shape)
        s_rj, s_jj = out[:, jw:], out[:, :jw]
        if jw == 1:  # L_JJ = 1, Y = L_RJ
            np.matmul(above, l_rj, out=s_rj)
            np.negative(s_rj, out=s_rj)
            np.subtract(inv_d, s_rj.mT @ l_rj, out=s_jj)
        else:
            l_inv = np.linalg.inv(panel[:, :jw])
            y = l_rj @ l_inv
            np.matmul(above, y, out=s_rj)
            np.negative(s_rj, out=s_rj)
            np.matmul(l_inv.mT, inv_d.mT * l_inv, out=s_jj)
            s_jj -= s_rj.mT @ y
        store[group.out] = out
    return store[:nnz]


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
