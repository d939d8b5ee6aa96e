"""Spatial weights: construction, standardization, rho bounds, lagging."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spatecon import (
    InvalidInputError,
    InvalidParameterError,
    from_dense,
    knn_adjacency,
    lag_covariates,
    row_standardize,
)
from spatecon import weights
from spatecon.dataio import read_weights, write_weights

from oracles import delaunay_weights, random_weights


def random_standardized(rng, n, k=3):
    coords = rng.uniform(size=(n, 2))
    return row_standardize(knn_adjacency(coords, k))


class TestKnnAdjacency:
    def test_collinear_points_k1(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        w = knn_adjacency(coords, 1)
        dense = w.toarray()
        assert dense[0, 1] == 1 and dense[1, 0] == 1 and dense[2, 1] == 1
        assert dense.sum() == 3

    def test_unit_square_k2_skips_diagonal(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        w = knn_adjacency(coords, 2).toarray()
        # each corner links to its two edge neighbours, not the far corner
        assert w[0, 1] == 1 and w[0, 3] == 1 and w[0, 2] == 0
        assert w[2, 1] == 1 and w[2, 3] == 1 and w[2, 0] == 0

    def test_matches_bruteforce_sort_oracle(self):
        rng = np.random.default_rng(31)
        coords = rng.normal(size=(50, 2))
        k = 5
        w = knn_adjacency(coords, k).toarray()
        # oracle: exhaustive O(n^2) pairwise-distance sort
        for i in range(50):
            d = np.linalg.norm(coords - coords[i], axis=1)
            d[i] = np.inf
            expected = set(np.argsort(d, kind="stable")[:k])
            assert set(np.flatnonzero(w[i])) == expected
        assert np.all(w.sum(axis=1) == k)
        assert np.all(np.diag(w) == 0)

    def test_ties_go_to_the_smallest_index(self):
        # A lattice, where every distance ties several ways, plus a stack
        # of duplicates whose ties run past the first neighbour query.
        grid = np.array([[i, j] for i in range(7) for j in range(7)], dtype=float)
        stack = np.repeat([[3.0, 3.0]], 9, axis=0)
        coords = np.vstack([stack, grid, stack])
        n = coords.shape[0]
        d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        for k in (1, 4, 8, 13):
            with pytest.warns(UserWarning, match="duplicate"):
                w = knn_adjacency(coords, k).toarray()
            expected = np.argsort(d2, axis=1, kind="stable")[:, :k]
            for i in range(n):
                assert set(np.flatnonzero(w[i])) == set(expected[i])

    def test_entry_count_is_nk(self):
        rng = np.random.default_rng(5)
        coords = rng.uniform(size=(23, 2))
        w = knn_adjacency(coords, 4)
        assert w.mat.nnz == 23 * 4

    def test_k_too_large_rejected(self):
        coords = np.zeros((3, 2)) + np.arange(3)[:, None]
        with pytest.raises(InvalidParameterError):
            knn_adjacency(coords, 3)

    def test_duplicate_points_warn(self):
        coords = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        with pytest.warns(UserWarning, match="duplicate"):
            knn_adjacency(coords, 1)

    @given(n=st.integers(5, 25), k=st.integers(1, 4), seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_property_rows_have_k_ones(self, n, k, seed):
        rng = np.random.default_rng(seed)
        coords = rng.normal(size=(n, 2))
        w = knn_adjacency(coords, min(k, n - 1)).toarray()
        assert np.all(w.sum(axis=1) == min(k, n - 1))
        assert np.all(np.diag(w) == 0)


class TestRowStandardize:
    def test_binary_row_equal_split(self):
        w = from_dense([[0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
        s = row_standardize(w).toarray()
        assert_allclose(s[0], [0.0, 0.5, 0.5, 0.0])

    def test_weighted_row_proportional(self):
        w = from_dense([[0, 2, 6], [2, 0, 0], [6, 0, 0]])
        s = row_standardize(w).toarray()
        assert_allclose(s[0], [0.0, 0.25, 0.75])

    def test_random_binary_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        a = (rng.uniform(size=(10, 10)) < 0.4).astype(float)
        np.fill_diagonal(a, 0.0)
        for i in np.flatnonzero(a.sum(axis=1) == 0):
            a[i, (i + 1) % 10] = 1.0
        s = row_standardize(from_dense(a))
        assert_allclose(s.toarray().sum(axis=1), 1.0, atol=1e-12)
        assert s.standardized

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            row_standardize(from_dense(np.zeros((3, 3))))

    def test_islands_flagged(self):
        a = np.array([[0.0, 1.0, 0], [1.0, 0, 0], [0, 0, 0]])
        with pytest.warns(UserWarning, match="island"):
            s = row_standardize(from_dense(a))
        assert s.has_islands

    @given(seed=st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_property_standardized_rows_sum_one(self, seed):
        rng = np.random.default_rng(seed)
        w = random_standardized(rng, 12, 3)
        assert_allclose(w.toarray().sum(axis=1), 1.0, atol=1e-12)


class TestRhoRange:
    def test_two_region_symmetric(self):
        w = from_dense([[0.0, 1.0], [1.0, 0.0]], standardized=True)
        lo, hi = w.rho_range()
        assert_allclose([lo, hi], [-1.0, 1.0], atol=1e-12)

    def test_matches_dense_eig_oracle(self):
        rng = np.random.default_rng(17)
        w = random_standardized(rng, 20, 4)
        lo, hi = w.rho_range()
        eigs = np.linalg.eigvals(w.toarray())
        real = eigs.real[np.abs(eigs.imag) < 1e-9]
        assert_allclose(hi, 1.0 / real[real > 0].max(), rtol=1e-10)
        assert_allclose(lo, 1.0 / real[real < 0].min(), rtol=1e-10)

    @pytest.mark.parametrize("n, k", [(3, 1), (3, 2), (4, 2), (5, 2), (8, 3)])
    def test_tiny_knn_matches_dense_eig_oracle(self, n, k):
        # ARPACK needs k < n - 1; a W too small for that (n = 3) gets its
        # bounds from a dense decomposition of the whole matrix. Mutual
        # neighbour pairs on these tiny graphs give defective eigenvalues
        # such as a double -1/2, which any method (the dense oracle too)
        # resolves only to about sqrt(eps); a triple one, as on some n = 18
        # graphs, to about eps^(1/3), which leaves the oracle no use.
        for seed in range(5):
            w = random_standardized(np.random.default_rng(seed), n, k)
            lo, hi = w.rho_range()
            eigs = np.linalg.eigvals(w.toarray())
            real = eigs.real[np.abs(eigs.imag) < 1e-6]
            assert hi == 1.0
            assert_allclose(lo, 1.0 / real[real < -1e-12].min(), rtol=1e-7)

    def test_row_standardized_upper_bound_is_one(self):
        for seed in range(5):
            w = random_standardized(np.random.default_rng(seed), 15, 3)
            assert w.rho_max == 1.0

    def test_requires_standardized(self):
        coords = np.random.default_rng(0).uniform(size=(10, 2))
        w = knn_adjacency(coords, 2)
        with pytest.raises(InvalidParameterError):
            w.rho_range()


def island_weights(rng, n, k=3):
    """kNN weights with the first five rows emptied, row-standardized."""
    adj = knn_adjacency(rng.uniform(size=(n, 2)), k).toarray()
    adj[:5] = 0.0
    with pytest.warns(UserWarning, match="island"):
        return row_standardize(from_dense(adj))


SPARSE_CASES = {
    "knn": lambda: random_weights(np.random.default_rng(1), 300, 4),
    "delaunay": lambda: delaunay_weights(np.random.default_rng(2), 300),
    "islands": lambda: island_weights(np.random.default_rng(3), 300),
}


class TestSparseRhoRange:
    """The ARPACK bounds path, forced at n = 300 by lowering the switch."""

    @pytest.fixture(autouse=True)
    def sparse_path(self, monkeypatch):
        monkeypatch.setattr(weights, "_DENSE_EIG_LIMIT", 10)

    @staticmethod
    def dense_bounds(w):
        eigs = np.linalg.eigvals(w.toarray())
        real = eigs.real[np.abs(eigs.imag) < 1e-9]
        return 1.0 / real.min(), 1.0 / real.max()

    @pytest.mark.parametrize("case", sorted(SPARSE_CASES))
    def test_matches_dense_eig_oracle(self, case):
        w = SPARSE_CASES[case]()
        lo, hi = w.rho_range()
        want_lo, want_hi = self.dense_bounds(w)
        assert_allclose(lo, want_lo, rtol=1e-10)
        if w.has_islands:
            assert_allclose(hi, want_hi, rtol=1e-10)
        else:
            assert hi == 1.0

    @pytest.mark.parametrize("case", sorted(SPARSE_CASES))
    def test_fresh_instances_agree_bit_for_bit(self, case):
        w = SPARSE_CASES[case]()
        again = weights.WeightsMatrix(w.mat.copy(), w.standardized, w.has_islands)
        assert w.rho_range() == again.rho_range()

    @pytest.mark.parametrize("case", sorted(SPARSE_CASES))
    def test_one_arpack_call_unless_lambda_max_is_needed(self, case, monkeypatch):
        w = SPARSE_CASES[case]()
        real_eigs = spla.eigs
        calls = []

        def counting_eigs(*args, **kwargs):
            calls.append(kwargs["which"])
            return real_eigs(*args, **kwargs)

        monkeypatch.setattr(spla, "eigs", counting_eigs)
        w.rho_range()
        assert calls == (["SR", "LR"] if w.has_islands else ["SR"])

    def test_complex_pair_first_asks_for_more_eigenvalues(self, monkeypatch):
        # On this W the two eigenvalues of smallest real part are a complex
        # pair; a second solve with k = 4 reaches the smallest real one.
        w = random_weights(np.random.default_rng(6), 300, 6)
        real_eigs = spla.eigs
        ks = []

        def counting_eigs(*args, **kwargs):
            ks.append(kwargs["k"])
            return real_eigs(*args, **kwargs)

        monkeypatch.setattr(spla, "eigs", counting_eigs)
        lo, hi = w.rho_range()
        assert ks == [2, 4]
        assert_allclose(lo, self.dense_bounds(w)[0], rtol=1e-10)
        assert hi == 1.0


class TestLagCovariates:
    def test_permutation_swap(self):
        w = from_dense([[0.0, 1.0], [1.0, 0.0]], standardized=True)
        lagged = lag_covariates(np.array([1.0, 2.0]), w)
        assert_allclose(lagged.ravel(), [2.0, 1.0])

    def test_constant_column_reproduced(self):
        rng = np.random.default_rng(2)
        w = random_standardized(rng, 12, 3)
        c = np.full((12, 1), 3.5)
        assert_allclose(lag_covariates(c, w), c, atol=1e-12)

    def test_matches_dense_product(self):
        rng = np.random.default_rng(3)
        w = random_standardized(rng, 30, 4)
        x = rng.normal(size=(30, 3))
        assert_allclose(lag_covariates(x, w), w.toarray() @ x, atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        w = random_standardized(rng, 8, 2)
        with pytest.raises(InvalidInputError):
            lag_covariates(np.ones((9, 2)), w)


class TestWeightsFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        w = random_standardized(rng, 14, 3)
        path = tmp_path / "w.txt"
        write_weights(path, w)
        w2 = read_weights(path)
        assert w2.standardized
        assert_allclose(w2.toarray(), w.toarray(), atol=0)

    def test_header_is_checked(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("3 1\n0 1 1.0\n")
        with pytest.raises(InvalidInputError, match="header"):
            read_weights(path)

    def test_entry_count_checked(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("3 2 0\n0 1 1.0\n")
        with pytest.raises(InvalidInputError, match="promises"):
            read_weights(path)
