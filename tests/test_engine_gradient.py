"""Gaussian evidence gradient, the trust-region mode search it drives, and
the grid's per-row variances."""

import numpy as np
import pytest
from oracles import random_weights, simulate_slm
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
        assert value == f(x)
        want = richardson_gradient(f, x)
        assert np.max(np.abs(grad - want)) <= 1e-6 * np.max(np.abs(want)), (x, grad, want)


def assert_stationary_maximum(model, fit):
    """The fit's mode is within 1e-3 posterior sd of the stationary point,
    and no point a tenth of an sd away along an axis is higher."""
    f = engine._log_posterior_fn(model.compiled)
    mode = fit.grid.mode_point
    grad = richardson_gradient(f, mode)
    sigma = fit.grid.sigma
    assert np.all(np.abs(grad) * sigma**2 <= 1e-3 * sigma)
    for i in range(mode.size):
        step = np.zeros(mode.size)
        step[i] = 0.1 * sigma[i]
        assert f(mode + step) < f(mode) and f(mode - step) < f(mode)


class TestEvidenceGradient:
    @pytest.mark.parametrize("kind", KINDS)
    def test_missing_responses(self, kind):
        model = gaussian_model(kind)
        assert len(model.compiled.free_dims()) == (1 if kind == "slx" else 2)
        assert_gradient_matches_differences(model)

    @pytest.mark.parametrize("kind", ["sem", "slm", "sdm", "sdem"])
    def test_fixed_rho(self, kind):
        model = gaussian_model(kind, rho_fixed=0.3)
        assert [d.name for d in model.compiled.free_dims()] == ["log_tau"]
        assert_gradient_matches_differences(model)

    @pytest.mark.parametrize("kind", ["slm", "sdem"])
    def test_sparse_log_determinant(self, kind, monkeypatch):
        monkeypatch.setattr(weights, "_DENSE_EIG_LIMIT", 10)
        model = gaussian_model(kind)
        assert model.w.spectrum() is None
        assert_gradient_matches_differences(model)

    @pytest.mark.parametrize("seed", [71, 72, 73])
    def test_first_evaluation_repeats_bit_for_bit(self, seed):
        # A fresh model's first factorization runs the path of every later
        # one, so a repeat at the same theta gives the same bits.
        model = gaussian_model("sdm", missing=20, n=120, seed=seed).compiled
        names = ("rho_internal", "log_tau")
        for point in range(3):
            theta = {name: THETAS[name][point] for name in names}
            model.assembly = None
            first = engine.log_conditional_evidence(model, theta, want_state=False, wrt=names)
            again = engine.log_conditional_evidence(model, theta, want_state=False, wrt=names)
            assert first[0] == again[0]
            assert np.array_equal(first[1], again[1]), (theta, first[1] - again[1])

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


def test_fit_after_direct_evaluations_is_bit_identical():
    # The fit keeps the analyses the direct evaluations made; they do not
    # change its numbers.
    plain = se.fit(gaussian_model("sdm", missing=20, n=120))
    model = gaussian_model("sdm", missing=20, n=120)
    names = ("rho_internal", "log_tau")
    for point in range(3):
        theta = {name: THETAS[name][point] for name in names}
        engine.log_conditional_evidence(model.compiled, theta, want_state=True)
        engine.log_conditional_evidence(model.compiled, theta, want_state=False, wrt=names)
    assert model.compiled.assembly is not None
    fit = se.fit(model)
    assert fit.log_mlik == plain.log_mlik
    assert np.array_equal(fit.coef_means, plain.coef_means)
    assert np.array_equal(fit.coef_covs, plain.coef_covs)
    assert np.array_equal(fit.grid.points, plain.grid.points)
    assert np.array_equal(fit.grid.log_evidence, plain.grid.log_evidence)


def record_search_points(monkeypatch):
    """The points at which the mode search evaluates the log posterior and
    its gradient, in order."""
    points = []
    real = engine._log_posterior_and_gradient_fn

    def recording(model):
        fg = real(model)

        def fg_recorded(vec):
            points.append(np.array(vec, dtype=float))
            return fg(vec)

        return fg_recorded

    monkeypatch.setattr(engine, "_log_posterior_and_gradient_fn", recording)
    return points


class TestGradientModeSearch:
    def test_evaluation_counts(self, monkeypatch):
        # Every point the search visits costs one evidence call, value and
        # gradient together, two of them the curvature probes at the
        # start; the Hessian differences the gradient (2 d = 4 calls); the
        # 7 x 7 grid lies inside the rho domain.
        model = gaussian_model("slm", missing=0, seed=73)
        points = record_search_points(monkeypatch)
        stages = count_evidence_by_stage(monkeypatch)
        fit = se.fit(model)
        # The Hessian's 4 evaluations are the last recorded points.
        assert stages == {"mode": len(points) - 4, "hessian": 4, "grid": 49}
        # Nelder-Mead took 96 evaluations on this fit and L-BFGS-B from
        # rho_internal = 0.5 took 12.
        assert len(points) - 4 <= 10
        # The search starts at the concentrated-likelihood start and never
        # strays towards the clamp: no point is more than 4 posterior sds
        # from the mode on any axis.
        start = [d.init for d in model.compiled.free_dims()]
        assert np.array_equal(points[0], start)
        assert np.all(np.abs(np.array(points) - fit.grid.mode_point) <= 4.0 * fit.grid.sigma)

    @pytest.mark.parametrize("kind", ["sem", "sdm"])
    def test_mode_is_a_stationary_maximum(self, kind):
        model = gaussian_model(kind, seed=74)
        fit = se.fit(model)
        assert_stationary_maximum(model, fit)

    def test_failed_search_is_a_numeric_failure(self, monkeypatch):
        monkeypatch.setattr(engine, "_MODE_MAX_STEPS", 1)
        with pytest.raises(se.NumericFailureError, match="did not converge in 1 steps"):
            se.fit(gaussian_model("slm", seed=75))

    def test_failed_trial_point_shrinks_the_step(self, monkeypatch):
        # A factorization that fails at one trial point rejects that step;
        # the search goes on from the last point and finds the same mode.
        want = se.fit(gaussian_model("slm", seed=75)).grid
        model = gaussian_model("slm", seed=75)
        points = record_search_points(monkeypatch)
        real = engine.log_conditional_evidence

        def failing_once(*args, **kwargs):
            # The start, two curvature probes, then the first trial point.
            if kwargs.get("wrt") and len(points) == 4:
                raise se.NumericFailureError("matrix is not positive definite")
            return real(*args, **kwargs)

        monkeypatch.setattr(engine, "log_conditional_evidence", failing_once)
        got = se.fit(model).grid
        # The rejected point is not where the search went next.
        assert not np.array_equal(points[4], points[3])
        assert np.all(np.abs(got.mode_point - want.mode_point) <= 1e-4 * want.sigma)
        assert np.allclose(got.sigma, want.sigma, rtol=1e-4, atol=0.0)

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
            prior=compiled.prior,
            prior_weights=compiled.prior_weights,
            hyper_dims=(rho, HyperDim("log_tau", log_tau.log_prior)),
            coef_names=compiled.coef_names,
            rho_bounds=compiled.rho_bounds,
        )
        with pytest.raises(se.InvalidInputError, match="at most one free hyperparameter"):
            engine.fit_compiled(free_tau)


def reference_hessian(fg, x):
    """Richardson-extrapolated central differences of the gradient at x,
    (4 G(1e-3) - G(2e-3)) / 3, symmetrised."""

    def differences(h):
        hess = np.empty((x.size, x.size))
        for i in range(x.size):
            e = np.zeros(x.size)
            e[i] = h
            hess[:, i] = (fg(x + e)[1] - fg(x - e)[1]) / (2.0 * h)
        return hess

    hess = (4.0 * differences(1e-3) - differences(2e-3)) / 3.0
    return 0.5 * (hess + hess.T)


@pytest.mark.parametrize("kind", ["sem", "slm", "sdm", "sdem"])
def test_grid_scale_matches_the_reference_hessian(kind):
    # The grid's sd per axis, from differences of the gradient, is within
    # 1e-6 of that of the reference Hessian (7.7e-8 at most on these fits).
    model = gaussian_model(kind)
    fit = se.fit(model)
    fg = engine._log_posterior_and_gradient_fn(model.compiled)
    want = np.sqrt(np.diag(np.linalg.inv(-reference_hessian(fg, fit.grid.mode_point))))
    assert np.all(np.abs(fit.grid.sigma - want) <= 1e-6 * want), (fit.grid.sigma, want)


class TestGridRowVariances:
    @staticmethod
    def stacks_of_matching_fit(kind, tau_obs, monkeypatch):
        """Fit, and check that each grid point's state, kept by the fit,
        gives the same numbers as that point evaluated again, but for the
        rounding of a new analysis (fit_compiled drops the model's).
        Returns the number of states in each stacked sweep."""
        stacks = []
        real_stack = engine.marginal_variance_stack

        def recording_stack(symbolic, values, indices):
            stacks.append(len(values))
            return real_stack(symbolic, values, indices)

        monkeypatch.setattr(engine, "marginal_variance_stack", recording_stack)
        model = gaussian_model(kind, seed=77, tau_obs=tau_obs)
        fit = se.fit(model)
        for g in range(fit.grid.points.shape[0]):
            _, state = engine.log_conditional_evidence(
                model, fit.grid.theta_at(g), want_state=True
            )
            for got, want in ((fit.x_vars[g], state.var_x), (fit.eta_vars[g], state.var_eta)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
            got, want = fit.coef_means[g], state.mean_c
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        return stacks

    @pytest.mark.parametrize("kind", ["sem", "slm", "slx"])
    def test_row_sweep_matches_per_point_states(self, kind, monkeypatch):
        # At the default tau_obs every state reads its variances off the
        # reduced system, with no sweep of the whole matrix.
        assert self.stacks_of_matching_fit(kind, 1e8, monkeypatch) == []

    @pytest.mark.parametrize("kind", ["sem", "slm", "slx"])
    def test_stacked_row_sweep_matches_per_point_states(self, kind, monkeypatch):
        # At tau_obs = 1e4 the whole matrix is factored, and each grid
        # row's 7 states share one stacked sweep.
        assert set(self.stacks_of_matching_fit(kind, 1e4, monkeypatch)) == {7}
