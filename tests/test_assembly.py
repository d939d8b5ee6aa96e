"""The engine assembles the matrix it factors from fixed per-model parts.

The reference is the assembly as products at each theta, in
tests/oracles.py: (I - rho W)'(I - rho W) in a block matrix, then
G'(Q G) plus the copy shift for the Gaussian layer, or Q plus the
curvature blocks for the probit Hessian.
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
    reference_gaussian_system,
    reference_probit_system,
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

    def init(self, mat, context="", symbolic=None):
        seen.append(sp.csc_matrix(mat))
        real_init(self, mat, context=context, symbolic=symbolic)

    monkeypatch.setattr(se.CholeskyHandle, "__init__", init)
    return seen


def assert_same_matrix(got, want):
    """Entrywise agreement at 1e-10 of sqrt(A_ii A_jj), the scale an
    entry of an SPD matrix is bounded by."""
    got = got.toarray() if sp.issparse(got) else got
    scale = np.sqrt(np.outer(np.abs(np.diag(want)), np.abs(np.diag(want))))
    assert np.all(np.abs(got - want) <= 1e-10 * scale)


def gaussian_model(kind, seed=3, n=40):
    rng = np.random.default_rng(seed)
    w = random_weights(rng, n, 4)
    y, x = simulate_slm(rng, w, [1.0, 0.7, -0.4], 0.5, 0.6)
    y[rng.choice(n, size=5, replace=False)] = np.nan
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
    seen = record_factored(monkeypatch)
    for theta in THETAS:
        if kind == "slx":
            theta = {"log_tau_iid": theta["log_tau"]}
        log_z, _ = gaussian_evidence(model.compiled, theta)
        a_ref, log_z_ref = reference_gaussian_system(model, theta)
        assert_same_matrix(seen[-1], a_ref)
        assert abs(log_z - log_z_ref) <= 1e-10 * abs(log_z_ref)
    assert len(seen) == len(THETAS)


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
    model = gaussian_model("slm", n=60)
    splu_calls, evidence_calls, logdet_lus, logdet_rhos = [], [], [], []
    real_splu, real_evidence = spla.splu, engine.log_conditional_evidence
    real_lu, real_log_abs_det = weights._logabsdet_sparse, se.WeightsMatrix.log_abs_det

    def counting_splu(*args, **kwargs):
        splu_calls.append(kwargs.get("permc_spec"))
        return real_splu(*args, **kwargs)

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
    se.fit(model)
    assert len(evidence_calls) > 50
    # Each LU of I - rho W is one splu call of its own, one per distinct rho.
    assert len(logdet_lus) == len(set(logdet_rhos))
    assert len(splu_calls) - len(logdet_lus) == len(evidence_calls)
    # One ordering, then every factorization reuses it.
    assert splu_calls.count("MMD_AT_PLUS_A") == 1
    assert splu_calls.count("COLAMD") == 1


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

