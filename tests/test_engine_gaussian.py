"""Gaussian-likelihood inference: evidence, grid, marginals, prediction."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from oracles import (
    bayes_lr_posterior,
    dense_evidence,
    dense_posterior_z,
    log_gamma_logpdf,
    logit_normal_logpdf,
    random_weights,
    simulate_slm,
)
from scipy import integrate, stats

import spatecon as se
from spatecon import engine
from spatecon.engine import (
    CompiledModel,
    GridSettings,
    HyperGrid,
    gaussian_evidence,
    log_conditional_evidence,
    marginal_likelihood,
)
from spatecon.gmrf import RHO_INTERNAL_EPS, PrecisionTerms
from spatecon.marginals import mixture_moments


def scalar_model(tau=2.0, y_val=0.7, tau_obs=1e8):
    """One observation, one latent, no coefficients, fixed precision."""

    return CompiledModel(
        y=np.array([y_val]),
        b_design=np.zeros((1, 0)),
        likelihood="gaussian",
        prior=PrecisionTerms.union([sp.csc_matrix(np.array([[tau]]))]),
        prior_weights=lambda theta: (np.ones(1), math.log(tau)),
        hyper_dims=(),
        coef_names=(),
        tau_obs=tau_obs,
    )


class TestConditionalEvidence:
    def test_scalar_conjugate_convolution(self):
        # y = x + e with x ~ N(0, 1/tau), e ~ N(0, 1/tau_obs)
        tau, y_val, tau_obs = 2.0, 0.7, 1e8
        model = scalar_model(tau, y_val, tau_obs)
        lz, state = gaussian_evidence(model, {}, want_state=True)
        want = stats.norm.logpdf(y_val, scale=math.sqrt(1 / tau + 1 / tau_obs))
        assert abs(lz - want) < 1e-10
        # posterior of x concentrates at y
        assert abs(state.mean_x[0] - y_val) < 1e-6

    def test_slm_matches_dense_mvn_oracle(self):
        rng = np.random.default_rng(12)
        w = random_weights(rng, 10, 3)
        y, x = simulate_slm(rng, w, [1.0, 0.5], 0.4, 0.8)
        model = se.build("slm", y, x, w)
        theta = {"rho_internal": 0.62, "log_tau": 0.3}
        lz, _ = log_conditional_evidence(model.compiled, theta)
        assert abs(lz - dense_evidence(model, theta)) < 1e-8

    def test_all_kinds_match_dense_mvn_oracle(self):
        rng = np.random.default_rng(77)
        for kind in se.KINDS:
            n = int(rng.integers(6, 20))
            w = random_weights(rng, n, 3)
            y, x = simulate_slm(rng, w, [0.5, 1.0, -1.0], 0.3, 1.0)
            model = se.build(kind, y, x, w)
            theta = {}
            for dim in model.compiled.hyper_dims:
                theta[dim.name] = (
                    float(rng.uniform(0.2, 0.8))
                    if dim.name == "rho_internal"
                    else float(rng.uniform(-1.0, 1.0))
                )
            lz, _ = log_conditional_evidence(model.compiled, theta)
            assert abs(lz - dense_evidence(model, theta)) < 1e-8, kind

    def test_missing_rows_drop_out_of_likelihood(self):
        rng = np.random.default_rng(5)
        w = random_weights(rng, 12, 3)
        y, x = simulate_slm(rng, w, [1.0, 1.0], 0.3, 0.5)
        y_gap = y.copy()
        y_gap[[2, 7]] = np.nan
        model = se.build("slm", y_gap, x, w)
        theta = {"rho_internal": 0.5, "log_tau": 0.0}
        lz, _ = log_conditional_evidence(model.compiled, theta)
        assert abs(lz - dense_evidence(model, theta)) < 1e-8

    def test_fuzzed_instances_match_dense_oracle(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(
            seed=st.integers(0, 10_000),
            rho=st.floats(0.05, 0.95),
            log_tau=st.floats(-1.5, 1.5),
        )
        @settings(max_examples=20, deadline=None)
        def check(seed, rho, log_tau):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 13))
            kind = str(rng.choice(se.KINDS))
            p = int(rng.integers(0, 3))
            if kind in ("sdm", "sdem", "slx") and p == 0:
                kind = "sem"
            w = random_weights(rng, n, min(2, n - 1))
            x = rng.normal(size=(n, p)) if p else None
            y = rng.normal(size=n)
            model = se.build(kind, y, x, w)
            theta = {}
            for dim in model.compiled.hyper_dims:
                theta[dim.name] = rho if dim.name == "rho_internal" else log_tau
            lz, _ = log_conditional_evidence(model.compiled, theta)
            assert abs(lz - dense_evidence(model, theta)) < 1e-8

        check()

    def test_beta_prior_irrelevant_when_no_coefficients(self):
        rng = np.random.default_rng(9)
        w = random_weights(rng, 8, 2)
        y = rng.normal(size=8)
        theta = {"rho_internal": 0.4, "log_tau": 0.2}
        lz1, _ = log_conditional_evidence(
            se.build("sem", y, None, w, intercept=False).compiled, theta
        )
        lz2, _ = log_conditional_evidence(
            se.build(
                "sem", y, None, w, intercept=False,
                priors=se.ModelPriors(q_beta_diag=2e-3),
            ).compiled,
            theta,
        )
        assert lz1 == lz2


class TestHyperGrid:
    def test_weights_sum_to_one_and_contain_mode(self):
        rng = np.random.default_rng(2)
        w = random_weights(rng, 25, 3)
        y, x = simulate_slm(rng, w, [1.0, 0.8], 0.4, 0.6)
        grid = se.explore_hypergrid(se.build("slm", y, x, w))
        assert abs(grid.weights.sum() - 1.0) < 1e-10
        assert grid.dims == ("rho_internal", "log_tau")
        # the located mode is one of the grid points
        dist = np.min(np.abs(grid.points - grid.mode_point).sum(axis=1))
        assert dist < 1e-12

    def test_posterior_mean_close_to_dense_grid_reference(self):
        rng = np.random.default_rng(42)
        w = random_weights(rng, 50, 4)
        y, x = simulate_slm(rng, w, [1.0, 1.5], 0.6, 0.5)
        model = se.build("slm", y, x, w)
        fit = se.fit(model)
        engine_mean = fit.rho_marginal.mean()

        # dense 200 x 200 reference in (internal rho, log tau), evidence from
        # the dense covariance oracle, priors from the reference formulas
        lo, hi = w.rho_range()
        rhos = np.linspace(0.002, 0.998, 200)
        mode_t = fit.grid.mode_point[1]
        taus = np.linspace(mode_t - 6.0, mode_t + 6.0, 200)
        log_post = np.empty((200, 200))
        for i, r in enumerate(rhos):
            for j, t in enumerate(taus):
                theta = {"rho_internal": r, "log_tau": t}
                log_post[i, j] = (
                    dense_evidence(model, theta)
                    + logit_normal_logpdf(r)
                    + log_gamma_logpdf(t)
                )
        wgt = np.exp(log_post - log_post.max())
        wgt /= wgt.sum()
        ref_mean = float(np.sum(wgt.sum(axis=1) * (lo + rhos * (hi - lo))))
        assert abs(engine_mean - ref_mean) < 0.15

    def test_single_point_marginal_likelihood_identity(self):
        grid = HyperGrid(
            dims=("log_tau",),
            points=np.array([[0.3]]),
            log_evidence=np.array([-12.5]),
            log_prior=np.array([-1.1]),
            delta=0.25,
            theta_fixed={},
            mode_point=np.array([0.3]),
            sigma=np.array([0.5]),
        )
        want = -12.5 - 1.1 + math.log(0.25)
        assert abs(marginal_likelihood(grid) - want) < 1e-14

    def test_marginal_likelihood_matches_2d_quadrature(self):
        rng = np.random.default_rng(3)
        w = random_weights(rng, 10, 3)
        y, x = simulate_slm(rng, w, [0.5, 1.0], 0.3, 0.7)
        model = se.build("slm", y, x, w)
        fit = se.fit(model)

        mode_r, mode_t = fit.grid.mode_point

        def integrand(t, r, f_max):
            theta = {"rho_internal": r, "log_tau": t}
            val = dense_evidence(model, theta) + logit_normal_logpdf(r) + log_gamma_logpdf(t)
            return math.exp(val - f_max)

        f_max = (
            dense_evidence(model, {"rho_internal": mode_r, "log_tau": mode_t})
            + logit_normal_logpdf(mode_r)
            + log_gamma_logpdf(mode_t)
        )
        val, _ = integrate.dblquad(
            integrand,
            1e-6,
            1 - 1e-6,
            lambda r: mode_t - 10.0,
            lambda r: mode_t + 10.0,
            args=(f_max,),
            epsabs=1e-10,
            epsrel=1e-8,
        )
        want = math.log(val) + f_max
        assert abs(fit.log_mlik - want) < 0.05


class TestMarginals:
    def test_degenerate_grid_gives_conditional_gaussian(self):
        rng = np.random.default_rng(4)
        w = random_weights(rng, 10, 3)
        y, x = simulate_slm(rng, w, [1.0, 0.5], 0.0, 0.7)
        model = se.build(
            "slm", y, x, w, priors=se.ModelPriors(rho_fixed=0.0, tau_fixed=2.0)
        )
        fit = se.fit(model)
        assert fit.weights.shape == (1,)
        theta = {d.name: d.fixed for d in model.compiled.hyper_dims}
        _, state = log_conditional_evidence(model.compiled, theta)
        j = fit.coef_index("x1")
        marg = fit.coef_marginal("x1")
        want = stats.norm.pdf(
            marg.support, loc=state.mean_c[j], scale=math.sqrt(state.cov_c[j, j])
        )
        assert np.max(np.abs(marg.density - want / np.trapezoid(want, marg.support))) < 1e-9

    def test_mixture_mean_of_intercept_matches_dense_grid(self):
        # reference: posterior mean over the grid with evidence, priors and
        # per-point conditional means all recomputed by dense linear algebra
        rng = np.random.default_rng(6)
        w = random_weights(rng, 10, 3)
        y, x = simulate_slm(rng, w, [1.0, 0.5], 0.4, 0.6)
        model = se.build("slm", y, x, w)
        fit = se.fit(model)
        mean_engine, var_engine = fit.coef_moments("(Intercept)")

        log_w = np.empty(len(fit.weights))
        cond_means = np.empty(len(fit.weights))
        for g in range(len(fit.weights)):
            theta = fit.grid.theta_at(g)
            log_w[g] = (
                dense_evidence(model, theta)
                + logit_normal_logpdf(theta["rho_internal"])
                + log_gamma_logpdf(theta["log_tau"])
            )
            mean_z, _ = dense_posterior_z(model, theta)
            cond_means[g] = mean_z[model.compiled.n]  # first coefficient
        wgt = np.exp(log_w - log_w.max())
        wgt /= wgt.sum()
        ref_mean = float(wgt @ cond_means)
        assert abs(mean_engine - ref_mean) < 1e-3 * math.sqrt(var_engine)

    def test_mixture_moments_match_analytic(self):
        rng = np.random.default_rng(7)
        w = random_weights(rng, 15, 3)
        y, x = simulate_slm(rng, w, [1.0, -0.5], 0.3, 0.8)
        fit = se.fit(se.build("slm", y, x, w))
        for name in fit.coef_names:
            means, variances = fit.coef_mixture(name)
            want_mean, want_var = mixture_moments(means, variances, fit.weights)
            marg = fit.coef_marginal(name)
            assert abs(marg.mean() - want_mean) <= 1e-6 * max(1.0, abs(want_mean))
            assert abs(marg.variance() - want_var) <= 1e-6 * want_var

    def test_rho_mass_stays_inside_bounds(self):
        rng = np.random.default_rng(8)
        w = random_weights(rng, 20, 3)
        y, x = simulate_slm(rng, w, [0.5, 1.0], 0.5, 0.6)
        fit = se.fit(se.build("slm", y, x, w))
        lo, hi = w.rho_range()
        assert fit.rho_marginal.support[0] > lo
        assert fit.rho_marginal.support[-1] < hi

    def test_latent_marginal_near_data_for_copy_model(self):
        rng = np.random.default_rng(9)
        w = random_weights(rng, 8, 2)
        y, x = simulate_slm(rng, w, [1.0, 1.0], 0.3, 0.5)
        fit = se.fit(se.build("slm", y, x, w))
        marg = fit.latent_marginal(3)
        assert abs(marg.mean() - y[3]) < 1e-3


class TestPrediction:
    def test_disconnected_region_gets_prior_predictive(self):
        # region 4 is an island (empty row and column): no information flows
        # to it, so its predictive equals the prior predictive mixed over the
        # hyperparameter posterior.
        a = np.zeros((5, 5))
        for i, j in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            a[i, j] = a[j, i] = 1.0
        with pytest.warns(UserWarning, match="island"):
            w = se.row_standardize(se.from_dense(a))
        y = np.array([0.5, -0.3, 0.8, 0.1, np.nan])
        model = se.build("sem", y, None, w, intercept=False)
        fit = se.fit(model)
        pred = fit.predictive[4]
        taus = np.exp(fit.grid.points[:, fit.grid.dims.index("log_tau")])
        want = np.zeros_like(pred.support)
        for w_g, tau_g in zip(fit.weights, taus):
            sd = math.sqrt(1.0 / tau_g + 1e-8)
            want += w_g * stats.norm.pdf(pred.support, scale=sd)
        want /= np.trapezoid(want, pred.support)
        assert abs(pred.mean()) < 1e-9
        assert np.max(np.abs(pred.density - want)) < 1e-9

    def test_matches_conjugate_regression_predictive(self):
        rng = np.random.default_rng(11)
        w = random_weights(rng, 10, 3)
        x = rng.normal(size=(10, 2))
        design = np.hstack([np.ones((10, 1)), x])
        beta = np.array([0.5, 1.0, -1.0])
        tau = 4.0
        y = design @ beta + rng.normal(scale=1 / math.sqrt(tau), size=10)
        y_gap = y.copy()
        y_gap[6] = np.nan
        q_diag = 1e-3
        model = se.build(
            "slm", y_gap, x, w,
            priors=se.ModelPriors(rho_fixed=0.0, tau_fixed=tau, q_beta_diag=q_diag),
        )
        fit = se.fit(model)
        pred = fit.predictive[6]

        noise_var = 1 / tau + 1e-8
        obs = np.delete(np.arange(10), 6)
        mean_b, cov_b = bayes_lr_posterior(design[obs], y[obs], q_diag, noise_var)
        m_star = float(design[6] @ mean_b)
        v_star = float(design[6] @ cov_b @ design[6] + noise_var)
        want = stats.norm.pdf(pred.support, loc=m_star, scale=math.sqrt(v_star))
        assert np.max(np.abs(pred.density - want)) < 1e-3

    def test_one_predictive_per_gap(self):
        rng = np.random.default_rng(13)
        w = random_weights(rng, 12, 3)
        y, x = simulate_slm(rng, w, [1.0, 0.5], 0.3, 0.5)
        y[[1, 5, 9]] = np.nan
        fit = se.fit(se.build("slm", y, x, w))
        assert sorted(fit.predictive) == [1, 5, 9]

    def test_all_missing_rejected(self):
        rng = np.random.default_rng(14)
        w = random_weights(rng, 6, 2)
        with pytest.raises(se.InvalidInputError):
            se.build("slm", np.full(6, np.nan), None, w)


class TestDic:
    def test_saturated_single_observation_p_eff_near_one(self):
        # y = x + e with one free latent: about one effective parameter
        model = scalar_model(tau=1.0, y_val=0.9)
        from spatecon.engine import fit_compiled

        fit = fit_compiled(model)
        assert abs(fit.p_eff - 1.0) < 0.2

    def test_gaussian_copy_model_is_saturated(self):
        # the copy layer pins every latent to its observation, so p_eff sits
        # near n regardless of the coefficient count
        rng = np.random.default_rng(16)
        n = 25
        w = random_weights(rng, n, 3)
        y, x = simulate_slm(rng, w, [1.0, 0.5], 0.3, 0.6)
        fit = se.fit(se.build("slm", y, x, w))
        assert abs(fit.p_eff - n) < 1.0

    def test_nested_models_add_effective_parameters(self):
        # probit with a stiff iid layer behaves like plain probit regression;
        # DIC's p_eff then counts coefficients
        rng = np.random.default_rng(16)
        n = 150
        w = random_weights(rng, n, 3)
        x_all = rng.normal(size=(n, 4))
        design = np.hstack([np.ones((n, 1)), x_all])
        beta = np.array([0.3, 1.0, -1.0, 0.9, -0.8])
        eta = design @ beta + rng.normal(size=n)
        y = (eta > 0).astype(float)
        priors = se.ModelPriors(tau_iid_fixed=1e6)
        small = se.fit(se.build("slx", y, x_all[:, :2], w, likelihood="probit", priors=priors))
        big = se.fit(se.build("slx", y, x_all, w, likelihood="probit", priors=priors))
        added_columns = len(big.coef_names) - len(small.coef_names)
        assert abs((big.p_eff - small.p_eff) - added_columns) < 1.0


class TestTauMarginal:
    def test_matches_exact_conjugate_gamma_posterior(self):
        # pure iid model (no coefficients): the precision posterior is exactly
        # Gamma(shape + n/2, rate + sum(y^2)/2); the grid marginal must track
        # its mean, sd and density shape
        rng = np.random.default_rng(42)
        n = 100
        w = random_weights(rng, n, 3)
        y = rng.normal(scale=0.5, size=n)
        fit = se.fit(se.build("slx", y, None, w, intercept=False))
        a = 1.0 + n / 2.0
        b = 5e-5 + float(y @ y) / 2.0
        want_mean, want_sd = a / b, math.sqrt(a) / b
        assert abs(fit.tau_marginal.mean() - want_mean) < 0.01 * want_mean
        assert abs(fit.tau_marginal.sd() - want_sd) < 0.05 * want_sd
        dens = stats.gamma.pdf(fit.tau_marginal.support, a, scale=1.0 / b)
        dens /= np.trapezoid(dens, fit.tau_marginal.support)
        assert np.max(np.abs(fit.tau_marginal.density - dens)) < 0.05 * dens.max()


class TestObservationPrecisionHyper:
    def test_obs_precision_as_hyperparameter(self):
        rng = np.random.default_rng(17)
        w = random_weights(rng, 30, 3)
        y, x = simulate_slm(rng, w, [1.0, 0.5], 0.3, 0.5)
        y = y + rng.normal(scale=0.3, size=30)  # genuine observation noise
        model = se.build(
            "sem", y, x, w, priors=se.ModelPriors(tau_obs_hyper=True)
        )
        assert [d.name for d in model.compiled.hyper_dims] == [
            "rho_internal", "log_tau", "log_tau_obs",
        ]
        fit = se.fit(model, GridSettings(k=2))
        assert abs(fit.weights.sum() - 1.0) < 1e-10
        assert math.isfinite(fit.log_mlik)
        # with a free observation layer the latent no longer copies y exactly
        assert fit.p_eff < 30.0


class TestReproducibility:
    def test_bitwise_identical_refits(self):
        rng = np.random.default_rng(15)
        w = random_weights(rng, 15, 3)
        y, x = simulate_slm(rng, w, [1.0, 0.5], 0.4, 0.6)
        f1 = se.fit(se.build("sem", y, x, w))
        f2 = se.fit(se.build("sem", y, x, w))
        assert f1.log_mlik == f2.log_mlik
        assert np.array_equal(f1.weights, f2.weights)
        assert np.array_equal(f1.coef_means, f2.coef_means)
        assert math.isfinite(f1.log_mlik)


class TestNumericHessian:
    """The mode's Hessian stencil stays inside the domain theta_from_vector
    clamps to, also for a mode within hess_step of a bound."""

    A = np.array([[3.0, 0.5], [0.5, 2.0]])
    B = np.array([0.7, -0.2])

    def clamp_recording_quadratic(self, model, x0):
        clamped = []

        def f(vec):
            theta = model.theta_from_vector(vec)
            v = np.array([theta["rho_internal"], theta["log_tau"]])
            clamped.append(not np.array_equal(v, vec))
            d = v - x0
            return float(-0.5 * d @ self.A @ d + self.B @ d)

        return f, clamped

    @pytest.mark.parametrize(
        "rho", [RHO_INTERNAL_EPS + 3e-5, 1.0 - RHO_INTERNAL_EPS - 2e-5, 0.4]
    )
    def test_quadratic_near_the_rho_bound(self, rho):
        rng = np.random.default_rng(41)
        w = random_weights(rng, 10, 3)
        model = se.build("slm", rng.normal(size=10), None, w).compiled
        assert [d.name for d in model.free_dims()] == ["rho_internal", "log_tau"]
        lo, hi = np.array([engine._theta_bounds(d.name) for d in model.free_dims()]).T
        x0 = np.array([rho, 0.3])
        f, clamped = self.clamp_recording_quadratic(model, x0)
        hess = engine._numeric_hessian(f, x0, 1e-4, lo, hi)
        assert len(clamped) == 9 and not any(clamped)
        assert_allclose(hess, -self.A, rtol=1e-6)

    def test_mode_on_the_bound_is_a_numeric_failure(self):
        x0 = np.array([RHO_INTERNAL_EPS, 0.0])
        lo = np.array([RHO_INTERNAL_EPS, -40.0])
        hi = np.array([1.0 - RHO_INTERNAL_EPS, 40.0])
        with pytest.raises(se.NumericFailureError, match="bound"):
            engine._numeric_hessian(lambda v: 0.0, x0, 1e-4, lo, hi)
