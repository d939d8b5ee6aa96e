"""Gaussian evidence gradient, the L-BFGS-B mode search it drives, and the
grid's per-row variances."""

import numpy as np
import pytest
from oracles import random_weights, simulate_slm
from scipy import optimize
from test_engine_probit import count_evidence_by_stage

import spatecon as se
from spatecon import engine, weights
from spatecon.engine import CompiledModel, HyperDim

KINDS = ("sem", "slm", "sdm", "sdem", "slx")

# Three points per hyperparameter, on the internal scale.
THETAS = {
    "rho_internal": (0.35, 0.6, 0.8),
    "log_tau": (0.4, 1.3, 2.2),
    "log_tau_iid": (0.4, 1.3, 2.2),
    "log_tau_obs": (2.0, 3.5, 5.0),
}


def gaussian_model(kind, missing=3, n=40, seed=71, **priors):
    rng = np.random.default_rng(seed)
    w = random_weights(rng, n, 4)
    y, x = simulate_slm(rng, w, [1.0, 0.7, -0.4], 0.5, 0.6)
    y = y + rng.normal(scale=0.2, size=n)
    y[rng.choice(n, size=missing, replace=False)] = np.nan
    return se.build(kind, y, x, w, priors=se.ModelPriors(**priors))


def richardson_gradient(f, x, h=2e-3):
    """Central differences of f at x, Richardson-extrapolated (O(h^4))."""
    grad = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        wide = (f(x + e) - f(x - e)) / (2.0 * h)
        narrow = (f(x + e / 2) - f(x - e / 2)) / h
        grad[i] = (4.0 * narrow - wide) / 3.0
    return grad


def assert_gradient_matches_differences(model):
    compiled = model.compiled
    names = [d.name for d in compiled.free_dims()]
    f = engine._log_posterior_fn(compiled)
    fg = engine._log_posterior_and_gradient_fn(compiled)
    for point in range(3):
        x = np.array([THETAS[name][point] for name in names])
        value, grad = fg(x)
        # Equal but for the rounding of the model's first, ordering
        # factorization.
        assert abs(value - f(x)) <= 1e-12 * abs(value)
        want = richardson_gradient(f, x)
        assert np.max(np.abs(grad - want)) <= 1e-6 * np.max(np.abs(want)), (x, grad, want)


class TestEvidenceGradient:
    @pytest.mark.parametrize("kind", KINDS)
    def test_missing_responses(self, kind):
        model = gaussian_model(kind)
        assert len(model.compiled.free_dims()) == (1 if kind == "slx" else 2)
        assert_gradient_matches_differences(model)

    @pytest.mark.parametrize("kind", KINDS)
    def test_observation_precision_free(self, kind):
        model = gaussian_model(kind, tau_obs_hyper=True)
        assert len(model.compiled.free_dims()) == (2 if kind == "slx" else 3)
        assert_gradient_matches_differences(model)

    @pytest.mark.parametrize("kind", ["sem", "slm", "sdm", "sdem"])
    def test_fixed_rho(self, kind):
        model = gaussian_model(kind, rho_fixed=0.3, tau_obs_hyper=True)
        assert [d.name for d in model.compiled.free_dims()] == ["log_tau", "log_tau_obs"]
        assert_gradient_matches_differences(model)

    @pytest.mark.parametrize("kind", ["slm", "sdem"])
    def test_sparse_log_determinant(self, kind, monkeypatch):
        monkeypatch.setattr(weights, "_DENSE_EIG_LIMIT", 10)
        model = gaussian_model(kind)
        assert model.w.spectrum() is None
        assert_gradient_matches_differences(model)

    def test_probit_has_no_gradient(self):
        rng = np.random.default_rng(72)
        w = random_weights(rng, 30, 3)
        y = (rng.uniform(size=30) < 0.5).astype(float)
        model = se.build("sem", y, None, w, likelihood="probit", intercept=False)
        with pytest.raises(se.InvalidInputError, match="Gaussian"):
            engine.log_conditional_evidence(
                model, {"rho_internal": 0.5, "log_tau": 0.0}, want_state=False,
                wrt=("rho_internal",),
            )


class TestGradientModeSearch:
    def test_evaluation_counts(self, monkeypatch):
        # Every point L-BFGS-B visits costs one evidence call, value and
        # gradient together; the Hessian stencil reuses the value at the
        # mode (2 d^2 = 8 calls); the 7 x 7 grid lies inside the rho domain.
        model = gaussian_model("slm", missing=0, seed=73)
        searches = []
        real_minimize = optimize.minimize

        def recording_minimize(*args, **kwargs):
            res = real_minimize(*args, **kwargs)
            searches.append((kwargs["method"], res.nfev))
            return res

        monkeypatch.setattr(optimize, "minimize", recording_minimize)
        stages = count_evidence_by_stage(monkeypatch)
        se.fit(model)
        ((method, nfev),) = searches
        assert method == "L-BFGS-B"
        assert stages == {"mode": nfev, "hessian": 8, "grid": 49}
        # Nelder-Mead took 96 evaluations on this fit.
        assert nfev <= 25

    @pytest.mark.parametrize("kind", ["sem", "sdm"])
    def test_mode_is_a_stationary_maximum(self, kind):
        model = gaussian_model(kind, seed=74)
        fit = se.fit(model)
        f = engine._log_posterior_fn(model.compiled)
        mode = fit.grid.mode_point
        grad = richardson_gradient(f, mode)
        sigma = fit.grid.sigma
        # Within 1e-3 posterior sd of the stationary point, and no point
        # a tenth of an sd away along an axis is higher.
        assert np.all(np.abs(grad) * sigma**2 <= 1e-3 * sigma)
        for i in range(mode.size):
            step = np.zeros(mode.size)
            step[i] = 0.1 * sigma[i]
            assert f(mode + step) < f(mode) and f(mode - step) < f(mode)

    def test_failed_search_is_a_numeric_failure(self, monkeypatch):
        real = optimize.minimize

        def one_iteration(*args, **kwargs):
            return real(*args, **{**kwargs, "options": {**kwargs["options"], "maxiter": 1}})

        monkeypatch.setattr(optimize, "minimize", one_iteration)
        with pytest.raises(se.NumericFailureError, match="did not converge"):
            se.fit(gaussian_model("slm", seed=75))

    def test_probit_with_two_free_hyperparameters_is_refused(self):
        rng = np.random.default_rng(76)
        w = random_weights(rng, 30, 3)
        y = (rng.uniform(size=30) < 0.5).astype(float)
        compiled = se.build("slm", y, rng.normal(size=(30, 1)), w, likelihood="probit").compiled
        rho, log_tau = compiled.hyper_dims
        assert log_tau.fixed == 0.0
        free_tau = CompiledModel(
            y=compiled.y,
            b_design=compiled.b_design,
            likelihood="probit",
            prior_builder=compiled.prior_builder,
            hyper_dims=(rho, HyperDim("log_tau", log_tau.log_prior)),
            coef_names=compiled.coef_names,
            rho_bounds=compiled.rho_bounds,
        )
        with pytest.raises(se.InvalidInputError, match="at most one free hyperparameter"):
            engine.fit_compiled(free_tau)


class TestGridRowVariances:
    @pytest.mark.parametrize("kind", ["sem", "slm", "slx"])
    def test_row_sweep_matches_per_point_states(self, kind):
        # The grid reads its variances off one Takahashi sweep per row;
        # each point's own state gives the same numbers, but for the
        # rounding of a new analysis (fit_compiled drops the model's).
        model = gaussian_model(kind, seed=77)
        fit = se.fit(model)
        for g in range(fit.grid.points.shape[0]):
            _, state = engine.log_conditional_evidence(
                model, fit.grid.theta_at(g), want_state=True
            )
            for got, want in ((fit.x_vars[g], state.var_x), (fit.eta_vars[g], state.var_eta)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
            got, want = fit.coef_means[g], state.mean_c
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
