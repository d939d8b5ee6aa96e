"""Sparse spatial weight matrices.

Construction (k nearest neighbours, file ingestion), row standardization,
admissible range of the spatial autocorrelation parameter, and covariate
lagging. Matrices are stored in compressed sparse row form and treated as
immutable after construction: every operation returns a new object.

The admissible range (rho_min, rho_max) of the autocorrelation parameter
is determined by the real eigenvalues of the standardized matrix:
rho_max = 1 / max(lambda), rho_min = 1 / min(lambda). A nonnegative W
whose rows all sum to one has max(lambda) = 1 (Perron-Frobenius), so its
rho_max is exactly 1.0.

The structure of W, not its size, picks the spectral path. A W that
row_standardize made from a symmetric matrix A is similar to the
symmetric D^{-1/2} A D^{-1/2} (D the row sums), so up to n = 2000 its
real spectrum comes from one eigvalsh and serves the bounds, the
log-determinant and its slope. Every other W takes the sparse path: the
bounds from fixed-start ARPACK solves, log |I - rho W| and its slope
d/drho log |I - rho W| = -tr((I - rho W)^{-1} W) from sparse LUs in one
column order, each memoised per rho on the instance. The slope is a
complex-step derivative (Squire & Trapp 1998): one LU of
I - (rho + ih) W, exact to rounding since no difference is taken.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.spatial import cKDTree

from .errors import InvalidInputError, InvalidParameterError, NumericFailureError

# Largest symmetric-source W whose spectrum is taken densely (eigvalsh).
_DENSE_EIG_LIMIT = 2000

# Imaginary step of the complex-step slope: far below rounding of the
# real part, so the LU's real parts and pivots are those of I - rho W.
_COMPLEX_STEP = 1e-30


@dataclass(frozen=True)
class WeightsMatrix:
    """A sparse n x n spatial weights matrix.

    Attributes
    ----------
    mat : scipy.sparse.csr_matrix
        The weights, zero diagonal, finite entries.
    standardized : bool
        True once rows have been scaled to sum to one.
    has_islands : bool
        True if some rows are entirely zero (flagged, not an error).
    """

    mat: sp.csr_matrix
    standardized: bool = False
    has_islands: bool = False
    # s with diag(s) W diag(1/s) symmetric, set by row_standardize when its
    # input is symmetric: the square roots of that input's row sums.
    _symmetric_scale: np.ndarray | None = field(default=None, compare=False, repr=False)
    _rho_bounds: tuple[float, float] | None = field(default=None, compare=False)
    _spectrum: np.ndarray | None = field(default=None, compare=False, repr=False)
    _lu_order: np.ndarray | None = field(default=None, compare=False, repr=False)
    # I - rho W's CSC pattern in that order, and where 1, ..., 1, -rho w go.
    _lu_pattern: tuple | None = field(default=None, compare=False, repr=False)
    _log_abs_dets: dict = field(default_factory=dict, compare=False, repr=False)
    _slopes: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        m = self.mat
        if m.shape[0] != m.shape[1]:
            raise InvalidInputError(f"weights matrix must be square, got {m.shape}")
        if m.nnz and not np.all(np.isfinite(m.data)):
            raise InvalidInputError("weights matrix contains non-finite entries")
        if np.any(m.diagonal() != 0.0):
            raise InvalidInputError("weights matrix must have a zero diagonal")

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    @property
    def rho_min(self) -> float:
        return self.rho_range()[0]

    @property
    def rho_max(self) -> float:
        return self.rho_range()[1]

    def spectrum(self) -> np.ndarray | None:
        """The real eigenvalues of a symmetric-source W with n <= 2000, in
        ascending order, from one eigvalsh of diag(s) W diag(1/s) cached on
        the instance (the array is read-only); None for every other W, whose
        log-determinant and rho bounds take the sparse path."""
        if self._symmetric_scale is None or self.n > _DENSE_EIG_LIMIT:
            return None
        if self._spectrum is None:
            s = self._symmetric_scale
            # eigvalsh reads the lower triangle alone.
            lam = np.linalg.eigvalsh((sp.diags(s) @ self.mat @ sp.diags(1.0 / s)).toarray())
            lam.flags.writeable = False
            object.__setattr__(self, "_spectrum", lam)
        return self._spectrum

    def log_abs_det(self, rho: float) -> float:
        """log |det(I - rho W)|.

        With a spectrum it is sum_i log |1 - rho lambda_i| (Ord 1975).
        Otherwise it is sum_k log |u_kk| over U's diagonal from a sparse
        LU of I - rho W (_u_diagonal); each value is kept per rho on the
        instance, so a repeated rho costs no LU.
        """
        lam = self.spectrum()
        if lam is not None:
            return float(np.sum(np.log(np.abs(1.0 - rho * lam))))
        rho = float(rho)
        if rho not in self._log_abs_dets:
            self._log_abs_dets[rho] = float(np.sum(np.log(np.abs(self._u_diagonal(rho)))))
        return self._log_abs_dets[rho]

    def log_abs_det_slope(self, rho: float) -> float:
        """d/drho log |det(I - rho W)| = -tr((I - rho W)^{-1} W).

        With a spectrum it is -sum_i lambda_i / (1 - rho lambda_i).
        Otherwise it is the complex-step derivative of the LU's
        log-determinant: U's diagonal u_kk at rho + ih, h = _COMPLEX_STEP,
        is u_kk(rho) + ih u_kk'(rho) to rounding, so the slope is
        sum_k Im(u_kk) / Re(u_kk) / h. Kept per rho like the values.
        """
        lam = self.spectrum()
        if lam is not None:
            return float(-np.sum(lam / (1.0 - rho * lam)))
        rho = float(rho)
        if rho not in self._slopes:
            u = self._u_diagonal(complex(rho, _COMPLEX_STEP))
            self._slopes[rho] = float(np.sum(u.imag / u.real)) / _COMPLEX_STEP
        return self._slopes[rho]

    def _u_diagonal(self, rho: complex) -> np.ndarray:
        """U's diagonal from a sparse LU of I - rho W, real or complex, in
        one column order per matrix: found by the first factorization and
        reused by every later one. The matrix keeps every entry of W, an
        explicit zero at rho = 0, so the order comes from the pattern of
        I + W whatever rho comes first. That pattern, permuted into the
        order, is built once; each later LU scatters 1 and -rho w onto it."""
        n = self.n
        if self._lu_pattern is None:
            w = self.mat.tocoo()
            w.sum_duplicates()
            diag = np.arange(n)
            # Each entry's index in [1, ..., 1, w], plus one.
            marks = sp.csc_matrix(
                (
                    np.arange(1.0, n + w.nnz + 1.0),
                    (np.concatenate([diag, w.row]), np.concatenate([diag, w.col])),
                ),
                shape=(n, n),
            )
            values = np.concatenate([np.ones(n), -rho * w.data])
            a = sp.csc_matrix(
                (values[marks.data.astype(np.intp) - 1], marks.indices, marks.indptr), shape=(n, n)
            )
            diag_u, order = _lu_diagonal(a)
            marks = marks[:, order]
            object.__setattr__(self, "_lu_order", order)
            object.__setattr__(
                self,
                "_lu_pattern",
                (marks.indptr, marks.indices, marks.data.astype(np.intp) - 1, w.data),
            )
            return diag_u
        indptr, indices, source, w_data = self._lu_pattern
        values = np.concatenate([np.ones(n), -rho * w_data])
        return _lu_diagonal(
            sp.csc_matrix((values[source], indices, indptr), shape=(n, n)), "NATURAL"
        )[0]

    def rho_range(self) -> tuple[float, float]:
        """Admissible open interval for the autocorrelation parameter.

        Requires a standardized matrix. rho_max is 1.0 if W is row-stochastic
        within 1e-12; the other extremes come from spectrum() or one
        fixed-start ARPACK solve each. Cached on the instance (idempotent,
        safe under concurrent readers).
        """
        if not self.standardized:
            raise InvalidParameterError(
                "rho_range requires a row-standardized weights matrix"
            )
        if self._rho_bounds is None:
            stochastic = _row_stochastic(self.mat)
            lam = self.spectrum()
            if lam is None:
                lam = _arnoldi_real_eigs(self.mat, "SR")
                if not stochastic:
                    lam = np.concatenate([lam, _arnoldi_real_eigs(self.mat, "LR")])
            object.__setattr__(self, "_rho_bounds", _eigen_rho_bounds(lam, stochastic))
        return self._rho_bounds

    def toarray(self) -> np.ndarray:
        return self.mat.toarray()


def from_dense(a: np.ndarray, standardized: bool = False) -> WeightsMatrix:
    """Wrap a dense array as a WeightsMatrix (mainly for tests)."""
    a = np.asarray(a, dtype=float)
    mat = sp.csr_matrix(a)
    mat.eliminate_zeros()
    islands = bool(np.any(np.asarray(abs(mat).sum(axis=1)).ravel() == 0.0))
    return WeightsMatrix(mat=mat, standardized=standardized, has_islands=islands)


def knn_adjacency(coords: np.ndarray, k: int) -> WeightsMatrix:
    """Binary k-nearest-neighbour adjacency from 2D point coordinates.

    Each row gets exactly k ones (zero diagonal, not standardized).
    Distance ties are broken by the smaller point index so results are
    reproducible; exact duplicate points are reported through the warning
    channel and resolved the same way.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise InvalidInputError(f"expected (n, 2) coordinates, got {coords.shape}")
    n = coords.shape[0]
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if k >= n:
        raise InvalidParameterError(f"k must be < n = {n}, got {k}")
    if not np.all(np.isfinite(coords)):
        raise InvalidInputError("coordinates must be finite")

    uniq, counts = np.unique(coords, axis=0, return_counts=True)
    if np.any(counts > 1):
        warnings.warn(
            "duplicate points in kNN input; ties resolved by lowest index",
            stacklevel=2,
        )

    return _knn_matrix(_knn_order(coords, k))


def knn_truncate(w: WeightsMatrix, coords: np.ndarray, k: int) -> WeightsMatrix:
    """knn_adjacency(coords, k), read off w = knn_adjacency(coords, m) for
    some m >= k with no new neighbour query: each row keeps the k nearest
    of its m neighbours, ranked and tie-broken as knn_adjacency ranks them.
    """
    n = w.n
    nbrs = w.mat.indices.reshape(n, -1)
    if not 1 <= k <= nbrs.shape[1]:
        raise InvalidParameterError(f"k must be in 1..{nbrs.shape[1]}, got {k}")
    ranked, _ = _rank_candidates(np.asarray(coords, dtype=float), np.arange(n), nbrs)
    return _knn_matrix(ranked[:, :k])


def _knn_matrix(order: np.ndarray) -> WeightsMatrix:
    """Binary adjacency with row i's ones in the columns order[i]."""
    n, k = order.shape
    rows = np.repeat(np.arange(n), k)
    mat = sp.csr_matrix((np.ones(n * k), (rows, order.ravel())), shape=(n, n))
    return WeightsMatrix(mat=mat, standardized=False)


def _rank_candidates(coords: np.ndarray, rows: np.ndarray, idx: np.ndarray):
    """Each row's candidate neighbours idx[i] of point rows[i], sorted by
    squared distance, then by index (n marks no candidate, ranked last);
    returns the sorted candidates and their squared distances."""
    n = coords.shape[0]
    d2 = ((coords[rows, None, :] - coords[np.minimum(idx, n - 1)]) ** 2).sum(axis=2)
    d2[idx == n] = np.inf
    rank = np.lexsort((idx, d2))
    return np.take_along_axis(idx, rank, axis=1), np.take_along_axis(d2, rank, axis=1)


def _knn_order(coords: np.ndarray, k: int) -> np.ndarray:
    """(n, k) indices of each point's k nearest other points, nearest first,
    equal squared distances in index order.

    A k-d tree proposes the m nearest points of each row. A row is settled
    once the farthest proposal lies clearly beyond its k-th nearest, so no
    point left out can tie with the k-th; other rows are queried again
    with m doubled. The settled candidates are ranked by the squared
    distance computed exactly as a brute-force pairwise sort would.
    """
    n = coords.shape[0]
    tree = cKDTree(coords)
    order = np.empty((n, k), dtype=np.intp)
    todo = np.arange(n)
    m = min(k + 2, n)
    while todo.size:
        dist, idx = tree.query(coords[todo], k=m)
        idx = np.where(idx == todo[:, None], n, idx)  # the point itself drops out
        idx, d2 = _rank_candidates(coords, todo, idx)
        kth = d2[:, k - 1]
        done = (dist[:, -1] > np.sqrt(kth) * (1.0 + 1e-9)) | (m == n)
        order[todo[done]] = idx[done, :k]
        todo = todo[~done]
        m = min(2 * m, n)
    return order


def row_standardize(w: WeightsMatrix) -> WeightsMatrix:
    """Scale each nonempty row to sum to one.

    Empty rows (islands) are allowed but flagged with a warning; an
    all-zero matrix is rejected. A symmetric input leaves its similarity
    scale on the result, which opens the eigvalsh path of spectrum().
    """
    mat = w.mat.tocsr(copy=True)
    sums = np.asarray(mat.sum(axis=1)).ravel()
    nonzero = sums != 0.0
    if not np.any(nonzero):
        raise InvalidInputError("cannot standardize an all-zero weights matrix")
    if not np.all(nonzero):
        warnings.warn(
            f"{int(np.count_nonzero(~nonzero))} empty row(s) (islands) left as zero",
            stacklevel=2,
        )
    scale = np.ones_like(sums)
    scale[nonzero] = 1.0 / sums[nonzero]
    # D^{1/2} W D^{-1/2} = D^{-1/2} A D^{-1/2} for W = D^{-1} A, A >= 0.
    symmetric = bool(np.all(mat.data >= 0.0)) and (mat != mat.T).nnz == 0
    return WeightsMatrix(
        mat=(sp.diags(scale) @ mat).tocsr(),
        standardized=True,
        has_islands=bool(np.any(~nonzero)),
        _symmetric_scale=np.sqrt(1.0 / scale) if symmetric else None,
    )


def lag_covariates(x: np.ndarray, w: WeightsMatrix) -> np.ndarray:
    """Spatially lagged covariates W @ X, column-wise.

    The caller is responsible for excluding the intercept column; lagging
    a constant under a row-standardized W just reproduces it.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != w.n:
        raise InvalidInputError(
            f"design matrix has {x.shape[0]} rows, weights are {w.n} x {w.n}"
        )
    return w.mat @ x


def _row_stochastic(mat: sp.csr_matrix) -> bool:
    """Nonnegative, with every row summing to one within 1e-12."""
    sums = np.asarray(mat.sum(axis=1)).ravel()
    return bool(np.all(mat.data >= 0.0) and np.all(np.abs(sums - 1.0) <= 1e-12))


def _real(eigs: np.ndarray) -> np.ndarray:
    """The eigenvalues that are real to numerical tolerance."""
    return eigs.real[np.abs(eigs.imag) <= 1e-9 * np.maximum(1.0, np.abs(eigs))]


def _eigen_rho_bounds(eigs: np.ndarray, stochastic: bool) -> tuple[float, float]:
    """(1 / min(lambda), 1 / max(lambda)) over the real eigenvalues in eigs;
    rho_max is 1.0 for a row-stochastic W."""
    real = _real(eigs)
    pos = real[real > 1e-12]
    neg = real[real < -1e-12]
    if neg.size == 0 or (pos.size == 0 and not stochastic):
        raise NumericFailureError(
            "weights matrix has no usable real eigenvalue pair for rho bounds"
        )
    rho_max = 1.0 if stochastic else 1.0 / float(pos.max())
    return 1.0 / float(neg.min()), rho_max


def _arnoldi_real_eigs(mat: sp.csr_matrix, which: str) -> np.ndarray:
    """The k >= 2 eigenvalues of smallest ("SR") or largest ("LR") real
    part, k doubled until a real one is among them, by ARPACK's Arnoldi
    iteration. The start vector, a fixed-seed draw that depends on n alone
    (not the all-ones eigenvector of lambda = 1), makes the result a
    function of W. ARPACK needs k < n - 1; a W too small for that gets all
    of its eigenvalues from one dense decomposition."""
    n = mat.shape[0]
    v0 = np.random.default_rng(0).standard_normal(n)
    k = 2
    while k < n - 1:
        try:
            eigs = spla.eigs(mat, k=k, which=which, v0=v0, return_eigenvectors=False)
        except spla.ArpackNoConvergence as exc:  # pragma: no cover
            raise NumericFailureError(f"eigen solver did not converge: {exc}") from exc
        if _real(eigs).size:
            return eigs
        k *= 2
    return np.linalg.eigvals(mat.toarray())


def _lu_diagonal(a: sp.csc_matrix, permc_spec: str = "COLAMD"):
    """U's diagonal from a sparse LU of A, real or complex, and the column
    order the LU pivoted in (A[:, order] factors with no new ordering).
    L has a unit diagonal, so log |det A| is sum log |u_kk|."""
    try:
        lu = spla.splu(a, permc_spec=permc_spec)
    except RuntimeError as exc:
        raise NumericFailureError(f"sparse LU failed (singular matrix?): {exc}") from exc
    diag_u = lu.U.diagonal()
    if np.any(diag_u == 0):
        raise NumericFailureError("matrix is singular to working precision")
    return diag_u, np.argsort(lu.perm_c)
