"""The Gaussian evidence eliminates the observed residuals in closed form.

engine._Reduced on the split that eliminates every observed residual
factors a matrix of n_mis + p rows; on the split that eliminates none it
factors the whole (n + p) matrix. The evidence takes the first wherever
the bound on the terms it drops holds. Called directly, the two splits
agree on the evidence, its gradient and every field of the conditional
Gaussian; where the bound fails (a low copy precision, or a response of
small scale) the evidence factors the whole matrix and matches the dense
oracle of tests/oracles.py.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import spatecon as se
from spatecon import engine
from spatecon.engine import GaussianState, gaussian_evidence

from oracles import (
    delaunay_weights,
    random_weights,
    reference_gaussian_matrix,
    reference_gaussian_state,
    reference_gaussian_system,
    simulate_slm,
)

THETAS = {
    "lag": [
        {"rho_internal": 0.25, "log_tau": 0.4},
        {"rho_internal": 0.55, "log_tau": 1.3},
        {"rho_internal": 0.85, "log_tau": 2.2},
    ],
    "slx": [{"log_tau_iid": 0.4}, {"log_tau_iid": 1.3}, {"log_tau_iid": 2.2}],
    "fixed_rho": [{"log_tau": 0.4}, {"log_tau": 1.3}, {"log_tau": 2.2}],
    # Around the mode of small_scale_slm: noise sd about 0.005.
    "small_scale": [
        {"rho_internal": 0.6, "log_tau": 10.0},
        {"rho_internal": 0.7, "log_tau": 10.6},
        {"rho_internal": 0.8, "log_tau": 11.2},
    ],
}


def gaussian_model(kind, missing=4, n=40, seed=81, **priors):
    rng = np.random.default_rng(seed)
    w = random_weights(rng, n, 4)
    y, x = simulate_slm(rng, w, [1.0, 0.7, -0.4], 0.5, 0.6)
    y = y + rng.normal(scale=0.2, size=n)
    y[rng.choice(n, size=missing, replace=False)] = np.nan
    return se.build(kind, y, x, w, priors=se.ModelPriors(**priors))


def small_scale_slm(seed, scale=0.01, missing=()):
    """A Delaunay SLM at the default priors with y scaled by 0.01: its
    latent precision near the mode, about 4e4, fails the bound at tau_obs
    = 1e8. The responses at the indices in missing are set missing."""
    rng = np.random.default_rng(seed)
    w = delaunay_weights(rng, 60)
    y, x = simulate_slm(rng, w, [1.0, 0.8, -0.6], 0.6, 0.5)
    y = scale * y
    y[list(missing)] = np.nan
    return se.build("slm", y, x, w)


def reduced(c, theta, a, tau):
    """_Reduced on the split that eliminates every observed residual."""
    return engine._Reduced(c, theta, a, tau, c.assembly.blocks)


def whole(c, theta, a, tau):
    """_Reduced on the split that eliminates none: M factored whole."""
    return engine._Reduced(c, theta, a, tau, c.assembly.whole_blocks())


def evaluate(path, model, theta, **kwargs):
    """gaussian_evidence with the system of the given path."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(engine, "_copy_system", path)
        return gaussian_evidence(model.compiled, theta, **kwargs)


def relative(got, want) -> float:
    want = np.asarray(want)
    if not want.size:
        return 0.0
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


def assert_paths_agree(model, thetas):
    c = model.compiled
    names = tuple(d.name for d in c.free_dims())
    for theta in thetas:
        theta = c.theta_from_vector([theta[name] for name in names])
        gaussian_evidence(c, theta)
        a, _ = c.prior_weights(theta)
        assert engine._copy_system(c, theta, a, c.tau_obs).blocks is c.assembly.blocks
        got, want = (evaluate(path, model, theta) for path in (reduced, whole))
        assert relative(got[0], want[0]) <= 1e-10
        _, got = evaluate(reduced, model, theta, wrt=names)
        _, want = evaluate(whole, model, theta, wrt=names)
        assert relative(got, want) <= 1e-10, (theta, got, want)
        _, got = evaluate(reduced, model, theta, want_state=True)
        _, want = evaluate(whole, model, theta, want_state=True)
        for field in dataclasses.fields(GaussianState):
            name = field.name
            assert relative(getattr(got, name), getattr(want, name)) <= 1e-10, (theta, name)


@pytest.mark.parametrize("kind", se.KINDS)
def test_reduced_system_matches_the_factored_one(kind):
    model = gaussian_model(kind)
    assert model.compiled.miss_idx.size == 4
    assert_paths_agree(model, THETAS["slx" if kind == "slx" else "lag"])


@pytest.mark.parametrize("kind", ["sem", "slm", "sdm", "sdem"])
def test_reduced_system_matches_at_a_fixed_rho(kind):
    model = gaussian_model(kind, rho_fixed=0.3)
    assert [d.name for d in model.compiled.free_dims()] == ["log_tau"]
    assert_paths_agree(model, THETAS["fixed_rho"])


def test_every_response_observed_and_no_coefficients():
    # The reduced system then has no rows at all.
    rng = np.random.default_rng(82)
    w = random_weights(rng, 30, 4)
    y, _ = simulate_slm(rng, w, [0.0], 0.5, 0.6)
    model = se.build("sem", y, None, w, intercept=False)
    assert model.compiled.p == 0 and model.compiled.miss_idx.size == 0
    assert_paths_agree(model, THETAS["lag"])


@pytest.mark.parametrize("kind", ["slm", "sdem", "small_scale_slm"])
def test_low_copy_precision_factors_the_whole_matrix(kind, monkeypatch):
    # With tau_obs = 1e4, or a noise sd of about 0.005 at the default
    # 1e8, the bound (s / tau_obs)^2 <= 1e-10 fails: every evidence
    # factors the n + p matrix once.
    if kind == "small_scale_slm":
        model, thetas = small_scale_slm(1), THETAS["small_scale"]
    else:
        model, thetas = gaussian_model(kind, tau_obs=1e4), THETAS["lag"]
    c = model.compiled
    calls = []
    real_splu = spla.splu

    def counting_splu(mat, *args, **kwargs):
        calls.append((mat.shape[0], kwargs.get("permc_spec")))
        return real_splu(mat, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    for theta in thetas:
        log_z, state = gaussian_evidence(c, theta, want_state=True)
        _, want = reference_gaussian_system(model, theta)
        assert abs(log_z - want) <= 1e-10 * abs(want)
        ref = reference_gaussian_state(model, theta)
        for name, value in ref.items():
            assert relative(getattr(state, name), value) <= 1e-10, name
    # One analysis of the pattern (its ordering run), then one
    # factorization per evidence in that order.
    calls = [call for call in calls if call[0] != c.n]
    assert calls == [(c.n + c.p, "MMD_AT_PLUS_A")] + [(c.n + c.p, "NATURAL")] * len(thetas)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_small_scale_response_fits_run_to_the_end(seed, monkeypatch):
    # At the default tau_obs a noise sd of about 0.005 fails the bound, so
    # these fits factor the whole matrix.
    paths = set()
    real = engine._copy_system

    def recording(*args):
        system = real(*args)
        paths.add(system.blocks.n_o)
        return system

    monkeypatch.setattr(engine, "_copy_system", recording)
    fit = se.fit(small_scale_slm(seed))
    assert fit.grid.dims == ("rho_internal", "log_tau")
    assert math.isfinite(fit.log_mlik) and math.isfinite(fit.dic)
    assert 0 in paths


def test_a_fit_whose_grid_mixes_both_splits(monkeypatch):
    # With y x 0.1 the bound holds at some evaluations of this fit and
    # fails at others, so grid rows mix the splits, and the whole split's
    # variances wait for their row's stacked sweep.
    model = small_scale_slm(1, scale=0.1, missing=(3, 17, 40))
    c = model.compiled
    counts = {"reduced": 0, "whole": 0}
    real = engine._copy_system

    def recording(*args):
        system = real(*args)
        counts["whole" if system.blocks.n_o == 0 else "reduced"] += 1
        return system

    monkeypatch.setattr(engine, "_copy_system", recording)
    fit = se.fit(model)
    assert counts["reduced"] > 0 and counts["whole"] > 0, counts
    fields = {
        "var_x": fit.x_vars,
        "var_eta": fit.eta_vars,
        "mean_c": fit.coef_means,
        "cov_c": fit.coef_covs,
    }
    for g in range(fit.grid.points.shape[0]):
        ref = reference_gaussian_state(model, c.theta_from_vector(fit.grid.points[g]))
        for name, values in fields.items():
            assert relative(values[g], ref[name]) <= 1e-10, (g, name)


def test_default_scale_never_builds_the_whole_split():
    # The whole split holds a few more rows of nnz(M) floats, so it is
    # built only when the bound first fails.
    model = gaussian_model("slm")
    c = model.compiled
    for theta in THETAS["lag"]:
        engine.log_conditional_evidence(c, theta)
    assert c.assembly.blocks is not None and c.assembly.whole is None


def on_r_pattern(blocks, data):
    """The matrix with the given data on R's pattern."""
    return engine._on((blocks.r_terms.indptr, blocks.r_terms.indices), data, (blocks.r,) * 2)


def assert_reduced_terms(model, thetas):
    """R from CopyBlocks' terms is bitwise symmetric and equals A_rr -
    A_ru D^{-1} A_ur, D^{-1} = I / tau - A_uu / tau^2, from the blocks of
    the oracle's products; r_weights' derivative matches its central
    differences."""
    c = model.compiled
    rng = np.random.default_rng(83)
    for theta in thetas:
        gaussian_evidence(c, theta)
        blocks, n_o = c.assembly.blocks, c.obs_idx.size
        a, _ = c.prior_weights(theta)
        tau = c.tau_obs
        r = on_r_pattern(blocks, blocks.r_data(a, tau)).toarray()
        assert np.array_equal(r, r.T)
        m = reference_gaussian_matrix(model, theta).toarray()
        a_uu, a_ur = m[:n_o, :n_o], m[:n_o, n_o:]
        d_inv = np.eye(n_o) / tau - a_uu / tau**2
        assert relative(r, m[n_o:, n_o:] - a_ur.T @ d_inv @ a_ur) <= 1e-13
        da, h = a * rng.uniform(0.5, 1.5, size=a.size), 1e-6
        want = (blocks.r_weights(a + h * da, tau) - blocks.r_weights(a - h * da, tau)) / (2.0 * h)
        got = blocks.r_weights(a, tau, da)
        assert np.all(np.abs(got - want) <= 1e-7 * np.abs(want)), (theta, got, want)


@pytest.mark.parametrize("kind", se.KINDS)
def test_reduced_matrix_is_a_weighted_sum_of_terms(kind):
    model = gaussian_model(kind)
    assert model.compiled.miss_idx.size == 4
    assert_reduced_terms(model, THETAS["slx" if kind == "slx" else "lag"])


def test_reduced_matrix_without_rows():
    rng = np.random.default_rng(82)
    w = random_weights(rng, 30, 4)
    y, _ = simulate_slm(rng, w, [0.0], 0.5, 0.6)
    model = se.build("sem", y, None, w, intercept=False)
    assert_reduced_terms(model, THETAS["lag"])
    assert model.compiled.assembly.blocks.r_terms.data.shape[1] == 0


def assert_spread_matches_the_product(model, thetas):
    """_Reduced's Var(u) term, summed over CopyBlocks' spread plan, equals
    the row sums of (A_ur Sigma_R) * A_ur, Sigma_R = R^{-1} on R's
    pattern."""
    c = model.compiled
    names = tuple(d.name for d in c.free_dims())
    for theta in thetas:
        theta = c.theta_from_vector([theta[name] for name in names])
        gaussian_evidence(c, theta)
        a, _ = c.prior_weights(theta)
        system = reduced(c, theta, a, c.tau_obs)
        sigma = on_r_pattern(system.blocks, system._sigma)
        want = np.asarray((system.a_ur @ sigma).multiply(system.a_ur).sum(axis=1)).ravel()
        assert system._spread.shape == want.shape == (c.obs_idx.size,)
        assert np.max(np.abs(system._spread - want)) <= 1e-14 * np.max(np.abs(want)), theta


@pytest.mark.parametrize("missing", [0, 6])
@pytest.mark.parametrize("kind", se.KINDS)
def test_spread_plan_matches_the_product(kind, missing):
    model = gaussian_model(kind, missing=missing)
    assert model.compiled.miss_idx.size == missing
    assert_spread_matches_the_product(model, THETAS["slx" if kind == "slx" else "lag"])


def test_spread_plan_without_rows():
    rng = np.random.default_rng(82)
    w = random_weights(rng, 30, 4)
    y, _ = simulate_slm(rng, w, [0.0], 0.5, 0.6)
    model = se.build("sem", y, None, w, intercept=False)
    assert_spread_matches_the_product(model, THETAS["lag"])
    assert model.compiled.assembly.blocks.spread_plan[0].size == 0
