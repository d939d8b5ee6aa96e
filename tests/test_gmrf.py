"""Joint precision of the spatial-lag effect and its factorization."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spatecon import (
    CholeskyHandle,
    InvalidInputError,
    InvalidParameterError,
    NumericFailureError,
    SlmSpec,
    from_dense,
    joint_precision,
    knn_adjacency,
    rho_to_external,
    rho_to_internal,
    row_standardize,
)
from spatecon import gmrf
from spatecon.gmrf import SymbolicFactor

from oracles import (
    cholesky_of,
    reference_l_pattern,
    reference_order,
    reference_takahashi,
    selected_inverse,
    terms_matrix,
)


def chain_weights(n):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return row_standardize(from_dense(a))


def random_weights(rng, n, k=3):
    return row_standardize(knn_adjacency(rng.uniform(size=(n, 2)), k))


def assemble_covariance(spec, rho_ext, tau):
    """Dense covariance of (x, beta) straight from the generative form:
    x = (I - rho W)^{-1}(X beta + eps), beta ~ N(0, Q^{-1})."""
    n, p = spec.n, spec.p
    a_inv = np.linalg.inv(np.eye(n) - rho_ext * spec.w.toarray())
    q_inv = np.linalg.inv(spec.q_beta) if p else np.zeros((0, 0))
    x = spec.x_design
    top = a_inv @ (x @ q_inv @ x.T + np.eye(n) / tau) @ a_inv.T
    cross = a_inv @ x @ q_inv
    return np.block([[top, cross], [cross.T, q_inv]])


class TestJointPrecision:
    def test_rho_zero_blocks(self):
        w = from_dense([[0.0, 1.0], [1.0, 0.0]], standardized=True)
        x = np.ones((2, 1))
        spec = SlmSpec(w=w, x_design=x, q_beta=np.eye(1))
        tau = 1.7
        jp = joint_precision(spec, 0.0, tau)
        dense = terms_matrix(spec, jp.weights).toarray()
        assert_allclose(dense[:2, :2], tau * np.eye(2), atol=1e-12)
        assert_allclose(dense[:2, 2:], -tau * x, atol=1e-12)
        assert_allclose(dense[2:, 2:], np.eye(1) + tau * x.T @ x, atol=1e-12)

    def test_chain_matches_dense_product(self):
        w = chain_weights(3)
        spec = SlmSpec(w=w, x_design=np.zeros((3, 0)))
        jp = joint_precision(spec, 0.5, 2.0)
        a = np.eye(3) - 0.5 * w.toarray()
        assert_allclose(terms_matrix(spec, jp.weights).toarray(), 2.0 * a.T @ a, atol=1e-12)

    def test_inverse_matches_assembled_covariance(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(4, 15))
            p = int(rng.integers(0, 4))
            w = random_weights(rng, n, min(3, n - 1))
            x = rng.normal(size=(n, p))
            q = np.diag(rng.uniform(0.5, 2.0, size=p)) if p else None
            spec = SlmSpec(w=w, x_design=x, q_beta=q)
            lo, hi = w.rho_range()
            rho = float(rng.uniform(max(lo * 0.8, -3), hi * 0.8))
            tau = float(rng.uniform(0.5, 3.0))
            jp = joint_precision(spec, rho, tau)
            cov = assemble_covariance(spec, rho, tau)
            prod = terms_matrix(spec, jp.weights).toarray() @ cov
            assert np.max(np.abs(prod - np.eye(n + p))) < 1e-8

    def test_logdet_matches_slogdet(self):
        rng = np.random.default_rng(13)
        w = random_weights(rng, 12, 3)
        spec = SlmSpec(w=w, x_design=rng.normal(size=(12, 2)))
        jp = joint_precision(spec, 0.4, 1.3)
        sign, want = np.linalg.slogdet(terms_matrix(spec, jp.weights).toarray())
        assert sign > 0
        assert abs(jp.logdet - want) < 1e-8 * max(1.0, abs(want))

    def test_sparsity_bound(self):
        rng = np.random.default_rng(21)
        n, p = 30, 2
        w = random_weights(rng, n, 3)
        spec = SlmSpec(w=w, x_design=rng.normal(size=(n, p)))
        jp = joint_precision(spec, 0.3, 1.0)
        wm = w.mat
        bound = (wm.T @ wm).nnz + 2 * wm.nnz + n + 2 * n * p + p * p
        assert terms_matrix(spec, jp.weights).nnz <= bound

    def test_rho_outside_bounds_rejected(self):
        w = chain_weights(4)
        spec = SlmSpec(w=w, x_design=np.zeros((4, 0)))
        with pytest.raises(InvalidParameterError):
            joint_precision(spec, 1.0, 1.0)
        with pytest.raises(InvalidParameterError):
            joint_precision(spec, 0.5, -1.0)


class TestFactorize:
    def test_identity(self):
        h = cholesky_of(sp.identity(6, format="csc"))
        assert abs(h.logdet()) < 1e-14
        b = np.arange(6.0)
        assert_allclose(h.solve(b), b, atol=1e-14)

    def test_logdet_matches_dense_eig(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5))
        spd = a @ a.T + 5 * np.eye(5)
        h = cholesky_of(sp.csc_matrix(spd))
        want = float(np.sum(np.log(np.linalg.eigvalsh(spd))))
        assert abs(h.logdet() - want) < 1e-9

    def test_solve_round_trip(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(20, 20))
        spd = sp.csc_matrix(a @ a.T + 20 * np.eye(20))
        h = cholesky_of(spd)
        b = rng.normal(size=20)
        z = h.solve(b)
        assert np.max(np.abs(spd @ z - b)) < 1e-9 * np.max(np.abs(b))

    def test_non_spd_detected(self):
        indef = sp.csc_matrix(np.diag([1.0, -2.0, 3.0]))
        with pytest.raises(NumericFailureError):
            cholesky_of(indef)

    def test_marginal_variances(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 8))
        spd = a @ a.T + 8 * np.eye(8)
        h = cholesky_of(sp.csc_matrix(spd))
        inv = np.linalg.inv(spd)
        assert_allclose(h.marginal_variances([0, 3, 7]), inv[[0, 3, 7], [0, 3, 7]], rtol=1e-9)


def random_spd(rng, n, p=0, density=0.08):
    """Sparse SPD matrix of size n + p; the last p rows and columns are
    dense, like the coefficient block of a joint precision."""
    sym = sp.random(n, n, density=density, random_state=rng, data_rvs=rng.standard_normal)
    m = np.zeros((n + p, n + p))
    m[:n, :n] = (sym + sym.T).toarray()
    m[n:, :n] = rng.normal(size=(p, n)) / np.sqrt(n)
    m[:n, n:] = m[n:, :n].T
    m[n:, n:] = rng.normal(size=(p, p)) / np.sqrt(n)
    m = (m + m.T) / 2.0
    shift = np.abs(m).sum(axis=1).max() + 1.0
    return sp.csc_matrix(m + shift * np.eye(n + p))


def assert_matches_dense_on_pattern(h):
    """Every selected-inverse entry equals the dense inverse's to 1e-10,
    relative to sqrt(Sigma_ii Sigma_jj), the scale of a covariance entry
    (an entry that cancels to ~0 has no relative precision of its own)."""
    sel = selected_inverse(h).tocoo()
    dense = h.inverse_dense()
    diag = np.diag(dense)
    scale = np.sqrt(diag[sel.row] * diag[sel.col])
    assert np.all(np.abs(sel.data - dense[sel.row, sel.col]) <= 1e-10 * scale)
    return sel


class TestSelectedInverse:
    @pytest.mark.parametrize("p", [0, 3])
    def test_random_spd_matches_dense_inverse(self, p):
        rng = np.random.default_rng(31 + p)
        multi_seen = set()
        for _ in range(8):
            n = int(rng.integers(5, 60))
            h = cholesky_of(random_spd(rng, n, p))
            sel = assert_matches_dense_on_pattern(h)
            # The pattern holds at least the diagonal and every entry of A.
            assert sel.nnz >= n + p
            multi_seen |= set((h.symbolic.l_pattern().widths > 1).tolist())
            assert_allclose(
                h.marginal_variances(np.arange(n + p)),
                np.diag(h.inverse_dense()),
                rtol=1e-10,
            )
        # Both single-column and multi-column supernodes ran.
        assert multi_seen == {False, True}

    def test_joint_precision_pattern_holds_coefficient_columns(self):
        rng = np.random.default_rng(33)
        w = random_weights(rng, 40, 4)
        spec = SlmSpec(w=w, x_design=rng.normal(size=(40, 3)))
        jp = joint_precision(spec, 0.6, 2.0)
        h = cholesky_of(terms_matrix(spec, jp.weights))
        assert_matches_dense_on_pattern(h)
        cols = h.inverse_columns([40, 41, 42])
        assert_allclose(cols, h.inverse_dense()[:, 40:], rtol=1e-10, atol=1e-14)

    def test_cancelled_factor_entry_is_filled(self):
        # In the natural order L[2, 1] is structurally present (A[2, 1] != 0)
        # but cancels exactly: A[2, 1] = L[2, 0] L[1, 0] d_0. SuperLU drops it;
        # the recursion still needs Sigma[2, 1] on the pattern.
        lower = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [-0.25, 0.0, 1.0]])
        a = sp.csc_matrix(lower @ np.diag([4.0, 2.0, 3.0]) @ lower.T)
        natural = SymbolicFactor(a.indptr, a.indices, np.arange(3))
        h = cholesky_of(a, symbolic=natural)
        assert h.symbolic is natural
        assert h._lu.L.nnz < natural.l_pattern()[1].size
        sel = assert_matches_dense_on_pattern(h)
        assert sel.nnz == 9
        assert_allclose(sel.toarray(), np.linalg.inv(a.toarray()), rtol=1e-12)

    def test_data_off_the_analysed_pattern_is_refused(self):
        rng = np.random.default_rng(35)
        a = random_spd(rng, 25, 2)
        symbolic = cholesky_of(a).symbolic
        with pytest.raises(InvalidInputError):
            CholeskyHandle(symbolic, a.data[:-1])
        # Dropping one off-diagonal pair, or adding one, leaves the pattern.
        i, j = next((i, j) for i, j in zip(*a.nonzero()) if i < j < 25)
        k, m = next((k, m) for k in range(25) for m in range(k + 1, 25) if a[k, m] == 0.0)
        for (r, c), value in (((i, j), 0.0), ((k, m), 0.1)):
            b = a.tolil()
            b[r, c] = b[c, r] = value
            b = sp.csc_matrix(b)
            b.eliminate_zeros()
            with pytest.raises(InvalidInputError):
                cholesky_of(b, symbolic=symbolic)


def same_pattern_stack(rng, n, p, count, density=0.08):
    """count SPD matrices on one pattern: random_spd's with its
    off-diagonal entries scaled by symmetric factors in [0.2, 1], which
    keeps them diagonally dominant."""
    base = random_spd(rng, n, p, density).toarray()
    diag = np.diag(np.diag(base))
    out = []
    for _ in range(count):
        f = rng.uniform(0.2, 1.0, size=base.shape)
        out.append(sp.csc_matrix(diag + (base - diag) * (f + f.T) / 2.0))
    return out


def stacked_sigma(handles):
    symbolic = handles[0].symbolic
    values = [h.factor_values() for h in handles]
    l_vals = np.stack([v[0] for v in values], axis=-1)
    d = np.stack([v[1] for v in values], axis=-1)
    return gmrf._takahashi(symbolic.l_pattern(), l_vals, d)


class TestStackedSelectedInverse:
    """One Takahashi sweep over a stack of factors on one analysis."""

    def assert_stack_matches(self, handles):
        symbolic = handles[0].symbolic
        l_indptr, l_indices = symbolic.l_pattern()[:2]
        rows = symbolic.order[l_indices]
        cols = symbolic.order[np.repeat(np.arange(symbolic.n), np.diff(l_indptr))]
        sigma = stacked_sigma(handles)
        assert sigma.shape == (l_indices.size, len(handles))
        variances = gmrf.marginal_variance_stack(
            symbolic, [h.factor_values() for h in handles], np.arange(symbolic.n)
        )
        for g, h in enumerate(handles):
            own = h._selected()
            diag = np.diag(h.inverse_dense())
            scale = np.sqrt(diag[rows] * diag[cols])
            # The stack reproduces each factor's own sweep...
            assert np.all(np.abs(sigma[:, g] - own) <= 1e-12 * scale)
            # ...which matches the dense inverse on the pattern of L.
            assert_matches_dense_on_pattern(h)
            assert_allclose(variances[g], diag, rtol=1e-10)

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("p", [0, 3])
    def test_matches_dense_inverse(self, count, p):
        rng = np.random.default_rng(41 + p + count)
        multi_seen = set()
        for _ in range(5):
            mats = same_pattern_stack(rng, int(rng.integers(8, 50)), p, count)
            first = cholesky_of(mats[0])
            handles = [first] + [cholesky_of(m, symbolic=first.symbolic) for m in mats[1:]]
            assert all(h.symbolic is first.symbolic for h in handles)
            self.assert_stack_matches(handles)
            multi_seen |= set((first.symbolic.l_pattern().widths > 1).tolist())
        # Both single-column and multi-column supernodes ran.
        assert multi_seen == {False, True}

    @pytest.mark.parametrize("count", [1, 3])
    def test_cancelled_factor_entry(self, count):
        # L[2, 1] cancels in the natural order whatever the pivots (see
        # TestSelectedInverse); every factor of the stack fills it with 0.
        lower = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [-0.25, 0.0, 1.0]])
        pivots = ([4.0, 2.0, 3.0], [1.0, 5.0, 2.0], [3.0, 3.0, 0.5])[:count]
        mats = [sp.csc_matrix(lower @ np.diag(d) @ lower.T) for d in pivots]
        natural = SymbolicFactor(mats[0].indptr, mats[0].indices, np.arange(3))
        handles = [cholesky_of(m, symbolic=natural) for m in mats]
        assert all(h._lu.L.nnz < natural.l_pattern()[1].size for h in handles)
        self.assert_stack_matches(handles)
        sigma = stacked_sigma(handles)
        for g, m in enumerate(mats):
            inverse = np.linalg.inv(m.toarray())
            assert_allclose(sigma[:, g], inverse[[0, 1, 2, 1, 2, 2], [0, 0, 0, 1, 1, 2]], rtol=1e-12)

    def test_inverse_on_pattern(self):
        # A^{-1} on A's own pattern, in A's storage order: its entries
        # match the dense inverse, and tr(A^{-1} B) for a B on that
        # pattern is one dot product with B's data.
        rng = np.random.default_rng(44)
        a = random_spd(rng, 40, 3)
        h = cholesky_of(a)
        sigma = h.inverse_on_pattern()
        assert sigma.shape == a.data.shape
        dense = np.linalg.inv(a.toarray())
        rows, cols = a.indices, np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        diag = np.diag(dense)
        scale = np.sqrt(diag[rows] * diag[cols])
        assert np.all(np.abs(sigma - dense[rows, cols]) <= 1e-10 * scale)
        b = a.copy()
        b.data = rng.normal(size=b.nnz)
        b = sp.csc_matrix(b + b.T)
        assert np.array_equal(b.indptr, a.indptr) and np.array_equal(b.indices, a.indices)
        want = np.trace(dense @ b.toarray())
        assert abs(sigma @ b.data - want) <= 1e-10 * np.abs(b.data).sum()


def assert_sweep_matches_references(handles):
    """The supernodal sweep over the stacked factors equals the column
    recursion to 1e-12 sqrt(Sigma_ii Sigma_jj), and each factor's dense
    inverse to 1e-10; the analysed pattern of L equals the union loop's."""
    symbolic = handles[0].symbolic
    pattern = symbolic.l_pattern()
    indptr, indices = reference_l_pattern(symbolic)
    assert np.array_equal(pattern.indptr, indptr) and np.array_equal(pattern.indices, indices)
    values = [h.factor_values() for h in handles]
    l_vals = np.stack([v[0] for v in values], axis=-1)
    d = np.stack([v[1] for v in values], axis=-1)
    sigma = gmrf._takahashi(pattern, l_vals, d)
    want = reference_takahashi(indptr, indices, l_vals, d)
    rows = symbolic.order[indices]
    cols = symbolic.order[np.repeat(np.arange(symbolic.n), np.diff(indptr))]
    for g, h in enumerate(handles):
        dense = h.inverse_dense()
        diag = np.diag(dense)
        scale = np.sqrt(diag[rows] * diag[cols])
        assert np.all(np.abs(sigma[:, g] - want[:, g]) <= 1e-12 * scale)
        assert np.all(np.abs(sigma[:, g] - dense[rows, cols]) <= 1e-10 * scale)
        assert np.array_equal(h._selected(), gmrf._takahashi(pattern, *h.factor_values()))


class TestSupernodalSweep:
    """The sweep and its analysis against the column recursion and the
    union loop they replace (tests/oracles.py)."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 45),
        p=st.sampled_from([0, 3]),
        count=st.sampled_from([1, 3]),
        density=st.floats(0.02, 0.3),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_recursion_and_dense_inverse(self, seed, n, p, count, density):
        mats = same_pattern_stack(np.random.default_rng(seed), n, p, count, density)
        first = cholesky_of(mats[0])
        handles = [first] + [cholesky_of(m, symbolic=first.symbolic) for m in mats[1:]]
        assert_sweep_matches_references(handles)

    @staticmethod
    def scan_hessian_symbolic(k):
        """The analysis of a probit scan's Hessian pattern: n = 673 on the
        benchmark's fixed map, kNN W, intercept and three covariates."""
        from spatecon import build
        from spatecon.engine import _assembly

        coords = np.random.default_rng(0).uniform(size=(673, 2))
        rng = np.random.default_rng(k)
        w = row_standardize(knn_adjacency(coords, k))
        x = rng.normal(size=(673, 3))
        y = (rng.uniform(size=673) < 0.5).astype(float)
        return _assembly(build("slm", y, x, w, likelihood="probit").compiled).symbolic

    @pytest.mark.parametrize("k", [6, 9, 12])
    def test_scan_hessian_pattern_equals_union_loop(self, k):
        symbolic = self.scan_hessian_symbolic(k)
        pattern = symbolic.l_pattern()
        indptr, indices = reference_l_pattern(symbolic)
        assert np.array_equal(pattern.indptr, indptr)
        assert np.array_equal(pattern.indices, indices)
        assert set((pattern.widths > 1).tolist()) == {False, True}

    @pytest.mark.parametrize("k", [6, 9, 12])
    def test_one_stand_in_factor_gives_order_and_pattern(self, k, monkeypatch):
        # One SuperLU run per analysis gives the minimum-degree order of an
        # ordering run of its own and the union loop's pattern of L; an
        # order passed in is kept, with one NATURAL run for the pattern.
        analysed = self.scan_hessian_symbolic(k)
        indptr, indices = analysed.indptr, analysed.indices
        want_order = reference_order(indptr, indices)
        calls = []
        real_splu = gmrf._splu

        def counting(mat, permc_spec):
            calls.append(permc_spec)
            return real_splu(mat, permc_spec)

        monkeypatch.setattr(gmrf, "_splu", counting)
        for order, specs in ((None, ["MMD_AT_PLUS_A"]), (want_order, ["NATURAL"])):
            calls.clear()
            symbolic = SymbolicFactor(indptr, indices, order)
            pattern = symbolic.l_pattern()
            assert calls == specs
            assert np.array_equal(symbolic.order, want_order)
            want = reference_l_pattern(symbolic)
            assert np.array_equal(pattern.indptr, want[0])
            assert np.array_equal(pattern.indices, want[1])

    def test_pattern_missing_an_entry_fails_the_closure_check(self):
        rng = np.random.default_rng(45)
        symbolic = cholesky_of(random_spd(rng, 40, 3)).symbolic
        indptr, indices = symbolic._perm_indptr, symbolic._perm_indices
        pattern = symbolic.l_pattern()
        cols = np.repeat(np.arange(symbolic.n), np.diff(pattern.indptr))
        off = np.flatnonzero(pattern.indices != cols)
        # Every off-diagonal entry, whether of A or fill, is needed.
        for q in rng.choice(off, 25, replace=False):
            l_indptr = pattern.indptr.copy()
            l_indptr[cols[q] + 1 :] -= 1
            with pytest.raises(NumericFailureError):
                gmrf._sweep_plan(indptr, indices, l_indptr, np.delete(pattern.indices, q))
        # The untouched pattern passes.
        gmrf._sweep_plan(indptr, indices, pattern.indptr, pattern.indices)


class TestRhoTransform:
    def test_midpoint(self):
        assert rho_to_internal(0.0, (-1.0, 1.0)) == pytest.approx(0.5)
        assert rho_to_external(0.5, (-1.0, 1.0)) == pytest.approx(0.0)

    def test_wide_bounds_near_upper(self):
        bounds = (-3.276, 1.0)
        internal = rho_to_internal(1.0 - 1e-9, bounds)
        assert internal > 1.0 - 1e-9

    def test_at_bound_rejected(self):
        with pytest.raises(InvalidParameterError):
            rho_to_internal(1.0, (-1.0, 1.0))
        with pytest.raises(InvalidParameterError):
            rho_to_external(0.0, (-1.0, 1.0))

    @given(internal=st.floats(1e-6, 1 - 1e-6), lo=st.floats(-4.0, -0.2))
    @settings(max_examples=50, deadline=None)
    def test_property_round_trip(self, internal, lo):
        bounds = (lo, 1.0)
        back = rho_to_internal(rho_to_external(internal, bounds), bounds)
        assert abs(back - internal) < 1e-14 * max(1.0, 1.0 / min(internal, 1 - internal))


class TestSlmSpec:
    def test_no_scale_warning(self):
        # models.build gives the covariate-scale warning, once per model.
        w = chain_weights(10)
        x = np.column_stack([np.linspace(0, 1, 10), np.linspace(0, 1e6, 10)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            SlmSpec(w=w, x_design=x)
        assert caught == []

    def test_q_beta_must_be_spd(self):
        w = chain_weights(4)
        with pytest.raises(Exception):
            SlmSpec(w=w, x_design=np.ones((4, 1)), q_beta=np.array([[-1.0]]))
