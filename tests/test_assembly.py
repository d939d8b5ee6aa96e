"""The engine assembles the matrix it factors from fixed per-model parts.

The reference is the assembly as products at each theta, in
tests/oracles.py: (I - rho W)'(I - rho W) in a block matrix, then
G'(Q G) plus the copy shift for the Gaussian layer, or Q plus the
curvature blocks for the probit Hessian. A Gaussian evidence factors
that matrix only where the copy precision is too low to eliminate the
observed residuals in closed form; the assembled matrix is checked on
that path.

The per-fit set-up itself (the prior's terms, the assembled pattern and
its terms, the splits and R's terms), built from the sparse x block and
the dense coefficient blocks, is checked against the same set-up as
generic sparse products, also in tests/oracles.py.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import spatecon as se
from spatecon import engine, weights
from spatecon.engine import gaussian_evidence, log_conditional_evidence

from oracles import (
    delaunay_weights,
    random_weights,
    reference_assembly,
    reference_gaussian_matrix,
    reference_gaussian_system,
    reference_prior_terms,
    reference_probit_system,
    reference_split,
    simulate_slm,
)

THETAS = (
    {"rho_internal": 0.25, "log_tau": -0.3},
    {"rho_internal": 0.55, "log_tau": 0.6},
    {"rho_internal": 0.85, "log_tau": 1.4},
)


def record_factored(monkeypatch):
    """Capture every matrix CholeskyHandle factors, in original coordinates."""
    seen = []
    real_init = se.CholeskyHandle.__init__

    def init(self, symbolic, data, context=""):
        n = symbolic.n
        seen.append(sp.csc_matrix((data, symbolic.indices, symbolic.indptr), shape=(n, n)))
        real_init(self, symbolic, data, context=context)

    monkeypatch.setattr(se.CholeskyHandle, "__init__", init)
    return seen


def whole(c, theta, a, tau):
    """The Gaussian system on the split that eliminates no residual."""
    return engine._Reduced(c, theta, a, tau, c.assembly.whole_blocks())


def assert_same_matrix(got, want):
    """Entrywise agreement at 1e-10 of sqrt(A_ii A_jj), the scale an
    entry of an SPD matrix is bounded by."""
    got = got.toarray() if sp.issparse(got) else got
    scale = np.sqrt(np.outer(np.abs(np.diag(want)), np.abs(np.diag(want))))
    assert np.all(np.abs(got - want) <= 1e-10 * scale)


def gaussian_model(kind, seed=3, n=40, missing=5):
    rng = np.random.default_rng(seed)
    w = random_weights(rng, n, 4)
    y, x = simulate_slm(rng, w, [1.0, 0.7, -0.4], 0.5, 0.6)
    y[rng.choice(n, size=missing, replace=False)] = np.nan
    return se.build(kind, y, x, w)


def probit_model(kind, seed=4, n=45):
    rng = np.random.default_rng(seed)
    w = random_weights(rng, n, 4)
    y, x = simulate_slm(rng, w, [0.2, 1.0, -0.8], 0.5, 1.0)
    y = (y > 0).astype(float)
    y[rng.choice(n, size=3, replace=False)] = np.nan
    return se.build(kind, y, x, w, likelihood="probit")


@pytest.mark.parametrize("kind", se.KINDS)
def test_gaussian_assembly_matches_products(kind, monkeypatch):
    model = gaussian_model(kind)
    c = model.compiled
    size, reduced = c.n + c.p, c.miss_idx.size + c.p
    seen = record_factored(monkeypatch)
    for theta in THETAS:
        if kind == "slx":
            theta = {"log_tau_iid": theta["log_tau"]}
        a_ref, log_z_ref = reference_gaussian_system(model, theta)
        with monkeypatch.context() as m:
            m.setattr(engine, "_copy_system", whole)
            log_z_factored, _ = gaussian_evidence(c, theta)
        assert_same_matrix(seen[-1], a_ref)
        log_z, _ = gaussian_evidence(c, theta)
        for got in (log_z_factored, log_z):
            assert abs(got - log_z_ref) <= 1e-10 * abs(log_z_ref)
    # The default path factors the reduced system alone.
    assert [m.shape[0] for m in seen] == [size, reduced] * len(THETAS)


@pytest.mark.parametrize("kind", ["slm", "sem"])
def test_probit_assembly_matches_products(kind, monkeypatch):
    model = probit_model(kind)
    seen = record_factored(monkeypatch)
    for theta in THETAS:
        theta = {"rho_internal": theta["rho_internal"], "log_tau": 0.0}
        log_z, state = log_conditional_evidence(model, theta, want_state=True)
        z = np.concatenate([state.mean_x, state.mean_c])
        h_ref, log_z_ref = reference_probit_system(model, theta, z)
        # The last factorization is the Hessian at the mode.
        assert_same_matrix(seen[-1], h_ref)
        assert abs(log_z - log_z_ref) <= 1e-10 * abs(log_z_ref)


def test_gaussian_fit_runs_one_splu_per_evidence(monkeypatch):
    splu_calls, evidence_calls, logdet_lus, logdet_rhos = [], [], [], []
    real_splu, real_evidence = spla.splu, engine.log_conditional_evidence
    real_lu, real_log_abs_det = weights._logabsdet_sparse, se.WeightsMatrix.log_abs_det

    def counting_splu(mat, *args, **kwargs):
        splu_calls.append((mat.shape[0], kwargs.get("permc_spec")))
        return real_splu(mat, *args, **kwargs)

    def counting_evidence(*args, **kwargs):
        evidence_calls.append(1)
        return real_evidence(*args, **kwargs)

    def counting_lu(*args, **kwargs):
        logdet_lus.append(1)
        return real_lu(*args, **kwargs)

    def recording_log_abs_det(self, rho):
        logdet_rhos.append(rho)
        return real_log_abs_det(self, rho)

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(engine, "log_conditional_evidence", counting_evidence)
    monkeypatch.setattr(weights, "_logabsdet_sparse", counting_lu)
    monkeypatch.setattr(se.WeightsMatrix, "log_abs_det", recording_log_abs_det)
    # Built under the patches: the concentrated-likelihood start's LUs of
    # I - rho W are counted with the fit's.
    model = gaussian_model("slm", n=60)
    assert model.w.spectrum() is None
    se.fit(model)
    assert len(evidence_calls) > 50
    c = model.compiled
    sizes = [size for size, _ in splu_calls]
    # No factorization of the n + p matrix at the default copy precision:
    # the reduced system of n_mis + p rows is analysed once (its ordering
    # run), then each evidence factors it once in that order.
    reduced = c.miss_idx.size + c.p
    assert c.n + c.p not in sizes
    assert splu_calls.count((reduced, "MMD_AT_PLUS_A")) == 1
    assert splu_calls.count((reduced, "NATURAL")) == len(evidence_calls)
    # Each LU of I - rho W is one splu call of its own, one per distinct rho.
    assert len(logdet_lus) == len(set(logdet_rhos))
    assert sizes.count(c.n) == len(logdet_lus)
    assert len(sizes) == 1 + len(evidence_calls) + len(logdet_lus)
    # One ordering of each pattern, then every factorization reuses it.
    specs = [spec for _, spec in splu_calls]
    assert specs.count("MMD_AT_PLUS_A") == 1
    assert specs.count("COLAMD") == 1


SETUP_TOL = 1e-14


def assert_terms_close(got, want):
    """Each term (row) within SETUP_TOL of its largest magnitude."""
    got, want = np.atleast_2d(got), np.atleast_2d(want)
    assert got.shape == want.shape
    scale = np.abs(want).max(axis=1, keepdims=True, initial=0.0)
    assert np.all(np.abs(got - want) <= SETUP_TOL * scale)


def assert_matrices_close(got, want):
    assert got.shape == want.shape
    diff = abs(sp.csc_matrix(got) - sp.csc_matrix(want))
    assert diff.max() <= SETUP_TOL * abs(sp.csc_matrix(want)).max()


def assert_setup_matches_products(model):
    """The prior's terms, the assembly and both splits against the
    generic sparse products of tests/oracles.py."""
    c = model.compiled
    size = c.n + c.p
    want_prior = reference_prior_terms(model)
    for got, want in zip(c.prior.data, want_prior[2], strict=True):
        assert_matrices_close(
            sp.csc_matrix((got, c.prior.indices, c.prior.indptr), shape=(size, size)),
            sp.csc_matrix((want, want_prior[1], want_prior[0]), shape=(size, size)),
        )
    plan = engine._build_assembly(c)
    want = reference_assembly(c, want_prior)
    assert np.array_equal(plan.indptr, want["indptr"])
    assert np.array_equal(plan.indices, want["indices"])
    # The x block is the prior's own entries, moved and signed.
    assert np.array_equal(plan.term_data[:, plan.x_pos], want["term_data"][:, want["x_pos"]])
    assert_terms_close(plan.term_data, want["term_data"])
    if c.likelihood == "probit":
        assert plan.term_c is None and plan.blocks is None
        return
    assert_terms_close(plan.term_c, want["term_c"])
    assert_terms_close(plan.term_const[:, None], want["term_const"][:, None])
    n_obs = c.obs_idx.size
    for blocks, n_o in ((plan.blocks, n_obs), (plan.whole_blocks(), 0)):
        ref = reference_split(want["keys"], size, n_obs, n_o, want["term_data"])
        assert_terms_close(blocks.term_uu, ref["term_uu"])
        assert_terms_close(blocks.term_ur, ref["term_ur"])
        assert np.array_equal(blocks.pairs, ref["pairs"])
        assert np.array_equal(blocks.uu_terms, ref["uu_terms"])
        r_terms, r = blocks.r_terms, blocks.r
        assert r_terms.data.shape[0] == len(ref["r_terms"])
        for got, mat in zip(r_terms.data, ref["r_terms"]):
            assert_matrices_close(
                sp.csc_matrix((got, r_terms.indices, r_terms.indptr), shape=(r, r)), mat
            )


@pytest.mark.parametrize("missing", [0, 6])
@pytest.mark.parametrize("kind", se.KINDS)
def test_gaussian_setup_matches_sparse_products(kind, missing):
    model = gaussian_model(kind, missing=missing)
    assert model.compiled.miss_idx.size == missing
    assert_setup_matches_products(model)


@pytest.mark.parametrize("kind", ["slm", "sem"])
def test_probit_setup_matches_sparse_products(kind):
    assert_setup_matches_products(probit_model(kind))


def test_assembly_keys_do_not_overflow_int32():
    # The keys col * size + row of the assembled pattern pass 2^31 from
    # size 46,342 on; int32 keys put the prior's terms on wrong entries.
    rng = np.random.default_rng(16)
    n = 46_341
    w = random_weights(rng, n, 4)
    y = rng.normal(size=n)
    model = se.build("slm", y, rng.normal(size=(n, 1)), w, priors=se.ModelPriors(rho_fixed=0.3))
    c = model.compiled
    assert c.n + c.p > 46_341
    theta = {"rho_internal": c.hyper_dims[0].fixed, "log_tau": 0.4}
    a, _ = c.prior_weights(theta)
    plan = engine._assembly(c)
    got = plan.matrix(a @ plan.term_data)
    assert abs(got - got.T).max() <= 1e-12 * abs(got).max()
    want = reference_gaussian_matrix(model, theta)
    # The last columns hold the largest keys.
    size = c.n + c.p
    for j in (0, n // 2, n - 1, n, size - 1):
        rows = want[:, j].nonzero()[0]
        col_got, col_want = got[:, j].toarray().ravel(), want[:, j].toarray().ravel()
        scale = np.sqrt(np.abs(want.diagonal()[j] * want.diagonal()))
        assert np.all(np.abs(col_got - col_want) <= 1e-10 * scale), j
        assert rows.size and np.all(col_got[rows] != 0.0)
    assert_setup_matches_products(model)


@pytest.mark.parametrize("make", ["knn", "delaunay"])
def test_eigen_log_determinant_matches_sparse_lu(make):
    rng = np.random.default_rng(12)
    w = random_weights(rng, 120, 5) if make == "knn" else delaunay_weights(rng, 120)
    lo, hi = w.rho_range()
    for rho in (0.9 * lo, 0.5 * lo, -0.05, 0.1, 0.5, 0.95 * hi):
        a = sp.csc_matrix(sp.identity(w.n) - rho * w.mat)
        want, _ = weights._logabsdet_sparse(a)
        got = w.log_abs_det(rho)
        assert abs(got - want) <= 1e-12 * abs(want), rho


def test_sparse_log_determinant_reuses_one_column_order(monkeypatch):
    rng = np.random.default_rng(13)
    w = random_weights(rng, 80, 4)
    assert w.spectrum() is None  # a kNN W takes the sparse path at any n
    lo, hi = w.rho_range()
    rhos = (0.8 * lo, 0.3, 0.9 * hi)
    want = [np.linalg.slogdet(np.eye(w.n) - rho * w.toarray())[1] for rho in rhos]
    specs = []
    real_splu = spla.splu

    def counting_splu(a, permc_spec=None, **kwargs):
        specs.append(permc_spec)
        return real_splu(a, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    got = [w.log_abs_det(rho) for rho in rhos]
    assert specs == ["COLAMD", "NATURAL", "NATURAL"]
    for g, v in zip(got, want):
        assert abs(g - v) <= 1e-12 * abs(v)


def test_sparse_log_determinant_repeats_no_lu_at_one_rho(monkeypatch):
    w = random_weights(np.random.default_rng(14), 300, 4)
    calls = []
    real = weights._logabsdet_sparse

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(weights, "_logabsdet_sparse", counting)
    first = w.log_abs_det(0.4)
    again = w.log_abs_det(0.4)
    assert len(calls) == 1
    assert again == first
    other = w.log_abs_det(0.6)
    assert len(calls) == 2
    assert other != first
    # Every rho is kept, not only the last one.
    assert w.log_abs_det(0.4) == first
    assert w.log_abs_det(0.6) == other
    assert len(calls) == 2
    for rho, value in ((0.4, first), (0.6, other)):
        want = np.linalg.slogdet(np.eye(w.n) - rho * w.toarray())[1]
        assert abs(value - want) <= 1e-12 * abs(want)


def test_sparse_log_determinant_does_not_depend_on_call_order():
    # The first LU finds the column order and later ones reuse it; a fresh
    # instance asked in the reverse order returns the same bits.
    for seed in range(5):
        w = random_weights(np.random.default_rng(seed), 150, 5)
        rhos = np.random.default_rng(seed).uniform(-1.5, 0.99, size=6)
        forward = [w.log_abs_det(rho) for rho in rhos]
        fresh = se.WeightsMatrix(w.mat.copy(), w.standardized, w.has_islands)
        backward = [fresh.log_abs_det(rho) for rho in rhos[::-1]][::-1]
        assert forward == backward


@pytest.mark.parametrize("kind", se.KINDS)
def test_build_warns_once_about_covariate_scale(kind):
    rng = np.random.default_rng(15)
    w = random_weights(rng, 60, 4)
    y, x = simulate_slm(rng, w, [1.0, 0.5, -0.2], 0.4, 0.5)
    x[:, 1] *= 1e5
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        se.build(kind, y, x, w)
    scale = [c for c in caught if "scale" in str(c.message)]
    assert len(scale) == 1
    assert scale[0].filename == __file__

