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
of a dense inverse. A SymbolicFactor keeps the fill-reducing order, the
symbolic pattern of L and the recursion's gather plan of one sparsity
pattern, so repeated factorizations of matrices on that pattern skip the
ordering and the analysis. One recursion, _takahashi, serves a single
factor and a stack of factors on one analysis alike: stacked, each
column's gather, product and dot run once for the whole stack
(marginal_variance_stack). The same selected inverse gives the trace
tr(A^{-1} B) of any B on the analysed pattern as one dot product
(CholeskyHandle.inverse_dot).
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
    patterns, one row of data each, so the pattern of Q never depends on
    theta.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray  # (T, nnz): one row per term

    @classmethod
    def union(cls, terms) -> "PrecisionTerms":
        """The given square sparse terms on the union of their patterns."""
        size = terms[0].shape[0]
        terms = [canonical_csc(t) for t in terms]
        # The union of the structures; ones never cancel.
        union = sp.csc_matrix((size, size))
        for t in terms:
            union = union + sp.csc_matrix((np.ones(t.nnz), t.indices, t.indptr), (size, size))
        union.sort_indices()
        keys = _pattern_keys(union.indptr, union.indices, size)
        data = np.zeros((len(terms), keys.size))
        for row, t in zip(data, terms):
            row[np.searchsorted(keys, _pattern_keys(t.indptr, t.indices, size))] = t.data
        return cls(union.indptr, union.indices, data)

    @classmethod
    def of(cls, spec: SlmSpec, fixed_diag=()) -> "PrecisionTerms":
        """The terms of the spatial-lag effect's joint precision,

            P(rho, tau) = Q_beta + tau (K0 - rho K1 + rho^2 K2),

        with K0 = [I, -X; -X', X'X], K1 = [W + W', -W'X; -X'W, 0] and
        K2 = [W'W, 0; 0, 0], since (I - rho W)'(I - rho W) = I - rho (W +
        W') + rho^2 W'W; the weights are [1, tau, -tau rho, tau rho^2]
        (joint_precision). fixed_diag appends coefficients outside the
        effect with that diagonal precision, joined to the constant term.
        """
        n, p = spec.n, spec.p
        w = sp.csc_matrix(spec.w.mat)
        x = spec.x_design
        wtx = w.T @ x

        def term(top_left, top_right, bottom_right) -> sp.csc_matrix:
            if p == 0:
                return sp.csc_matrix(top_left)
            right = sp.csc_matrix(top_right)
            return sp.csc_matrix(
                sp.bmat([[top_left, right], [right.T, sp.csc_matrix(bottom_right)]])
            )

        zeros_x, zeros_p = np.zeros((n, p)), np.zeros((p, p))
        terms = [
            term(sp.csc_matrix((n, n)), zeros_x, spec.q_beta),
            term(sp.identity(n), -x, x.T @ x),
            term(w + w.T, -wtx, zeros_p),
            term(w.T @ w, zeros_x, zeros_p),
        ]
        m = len(fixed_diag)
        if m:
            tails = [sp.diags(np.asarray(fixed_diag, dtype=float))] + [sp.csc_matrix((m, m))] * 3
            terms = [sp.block_diag([t, tail], format="csc") for t, tail in zip(terms, tails)]
        return cls.union(terms)

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
    """Analysis of one symmetric sparsity pattern, reusable across matrices.

    Holds the analysed pattern, its fill-reducing order (order[k] is the
    original index of the k-th pivot) and, built on first use, the
    symbolic pattern of the factor L of the permuted matrix together with
    the gather plan of the Takahashi recursion. Any matrix whose pattern
    lies inside the analysed one can be factored in this order, with the
    missing entries stored as zeros.
    """

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, order: np.ndarray):
        n = indptr.size - 1
        self.n = n
        self.order = order
        self.indptr, self.indices = indptr, indices
        self._keys = _pattern_keys(indptr, indices, n)
        # Data positions of the analysed pattern in the permuted matrix.
        marks = sp.csc_matrix(
            (np.arange(1.0, indices.size + 1.0), indices, indptr), shape=(n, n)
        )
        permuted = sp.csc_matrix(marks[order][:, order])
        permuted.sort_indices()
        self._perm_map = permuted.data.astype(np.intp) - 1
        self._perm_indptr, self._perm_indices = permuted.indptr, permuted.indices
        self._l_pattern = None
        self._lu_layout = None
        self._positions = None

    def scatter(self, mat: sp.csc_matrix) -> np.ndarray | None:
        """mat's entries on the analysed pattern (zeros where mat has none),
        or None when mat has an entry outside it."""
        if np.array_equal(mat.indptr, self.indptr) and np.array_equal(
            mat.indices, self.indices
        ):
            return mat.data
        keys = _pattern_keys(mat.indptr, mat.indices, self.n)
        pos = np.searchsorted(self._keys, keys)
        if not np.all(self._keys.take(pos, mode="clip") == keys):
            return None
        data = np.zeros(self._keys.size)
        data[pos] = mat.data
        return data

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


def canonical_csc(mat) -> sp.csc_matrix:
    """mat in CSC form with sorted indices and no duplicate entries."""
    mat = sp.csc_matrix(mat)
    if not mat.has_canonical_format:
        mat = mat.copy()
        mat.sum_duplicates()
    return mat


def _pattern_keys(indptr: np.ndarray, indices: np.ndarray, n: int) -> np.ndarray:
    """col * n + row for each stored entry; sorted for a sorted CSC pattern."""
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return cols * n + indices


class CholeskyHandle:
    """Sparse symmetric factorization of an SPD matrix.

    Wraps SuperLU in symmetric mode (no partial pivoting), which for an
    SPD input is an LDL^T factorization: positive pivots, log-determinant
    from the U diagonal. The first factorization of a pattern orders it by
    minimum degree on A + A'; pass the resulting `symbolic` back in and a
    matrix whose pattern lies inside it is pre-permuted and factored in
    that order, with no new ordering. Marginal variances come from the
    selected inverse on the pattern of L, in O(nnz(L)) memory.
    factor_values() is all the selected inverse needs: a caller may keep
    those and drop the handle, with its SuperLU factor, before the sweep.
    """

    def __init__(
        self, mat: sp.csc_matrix, context: str = "", symbolic: SymbolicFactor | None = None
    ):
        mat = canonical_csc(mat)
        data = symbolic.scatter(mat) if symbolic is not None else None
        try:
            if data is None:
                self._base = None
                pattern = (mat.indptr, mat.indices)
                self._lu = _splu(mat, "MMD_AT_PLUS_A")
            else:
                self._base = symbolic.order
                pattern = (symbolic.indptr, symbolic.indices)
                self._lu = _splu(symbolic.permute(data), "NATURAL")
        except RuntimeError as exc:
            raise NumericFailureError(
                f"factorization failed ({context or 'singular matrix'}): {exc}"
            ) from exc
        diag = self._lu.U.diagonal()
        if (
            np.any(diag <= 0)
            or not np.all(np.isfinite(diag))
            or not np.array_equal(self._lu.perm_r, self._lu.perm_c)
        ):
            raise NumericFailureError(
                f"matrix is not positive definite ({context or 'non-SPD input'})"
            )
        # L U = A[order][:, order]; a pre-permuted matrix is normally kept in
        # its order, and a changed order gets its own analysis.
        order = np.argsort(self._lu.perm_c)
        if self._base is not None:
            order = self._base[order]
        if data is None or not np.array_equal(order, symbolic.order):
            symbolic = SymbolicFactor(*pattern, order)
        self.symbolic = symbolic
        self._d = diag
        self._logdet = float(np.sum(np.log(diag)))
        self._sigma = None
        self.shape = mat.shape

    def logdet(self) -> float:
        return self._logdet

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if self._base is None:
            return self._lu.solve(b)
        x = np.empty_like(b)
        x[self._base] = self._lu.solve(b[self._base])
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

    def marginal_variances(self, indices) -> np.ndarray:
        """Diagonal entries of the inverse at the requested coordinates."""
        indices = np.atleast_1d(np.asarray(indices, dtype=int))
        return _diagonal(self.symbolic, self._selected())[indices]

    def inverse_dot(self, mat: sp.csc_matrix) -> float:
        """tr(A^{-1} B) = sum_ij (A^{-1})_ij B_ij for a symmetric B whose
        pattern lies inside the analysed one: a dot product with the
        selected inverse, which holds every entry of A^{-1} that B meets."""
        data = self.symbolic.scatter(canonical_csc(mat))
        if data is None:
            raise InvalidInputError("matrix has entries outside the analysed pattern")
        return float(self._selected()[self.symbolic.positions()] @ data)

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
