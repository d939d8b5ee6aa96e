"""Model compilation layouts and model-level fitting behaviour."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import bayes_lr_posterior, random_weights, simulate_slm

import spatecon as se


class TestCompileLayouts:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.w = random_weights(rng, 12, 3)
        self.x = rng.normal(size=(12, 2))
        self.y = rng.normal(size=12)

    def test_slm_design_has_intercept_plus_covariates(self):
        m = se.build("slm", self.y, self.x, self.w)
        assert m.slm.x_design.shape == (12, 3)
        assert m.compiled.p == 3
        assert np.all(m.compiled.b_design == 0.0)
        assert m.coef_names == ("(Intercept)", "x1", "x2")

    def test_sdm_design_appends_lagged_covariates(self):
        m = se.build("sdm", self.y, self.x, self.w)
        assert m.slm.x_design.shape == (12, 5)
        assert_allclose(m.slm.x_design[:, 3:], self.w.mat @ self.x)
        assert m.coef_names == ("(Intercept)", "x1", "x2", "lag.x1", "lag.x2")

    def test_sem_separates_fixed_effects_from_latent(self):
        m = se.build("sem", self.y, self.x, self.w)
        assert m.slm.x_design.shape == (12, 0)
        assert m.compiled.b_design.shape == (12, 3)
        assert m.coef_names == ("(Intercept)", "x1", "x2")

    def test_sdem_uses_separate_error_weights(self):
        rng = np.random.default_rng(1)
        m_mat = random_weights(rng, 12, 2)
        m = se.build("sdem", self.y, self.x, self.w, m=m_mat)
        assert m.slm.w is m_mat
        assert m.compiled.b_design.shape == (12, 5)
        assert m.compiled.rho_bounds == m_mat.rho_range()
        # covariates are lagged with W, not with the error weights M
        assert_allclose(m.compiled.b_design[:, 3:], self.w.mat @ self.x)

    def test_slx_has_iid_layer_and_lagged_design(self):
        m = se.build("slx", self.y, self.x, self.w)
        assert m.slm is None
        assert m.compiled.b_design.shape == (12, 5)
        assert m.compiled.rho_bounds is None
        assert [d.name for d in m.compiled.hyper_dims] == ["log_tau_iid"]

    def test_gamma_name_mapping(self):
        m = se.build("sdm", self.y, self.x, self.w, covariate_names=("a", "b"))
        assert m.gamma_name("a") == "lag.a"
        m2 = se.build("slm", self.y, self.x, self.w, covariate_names=("a", "b"))
        assert m2.gamma_name("a") is None

    def test_intercept_is_never_lagged(self):
        m = se.build("sdm", self.y, self.x, self.w)
        # 5 columns: 1 intercept + 2 covariates + 2 lags; no lagged constant
        assert m.slm.x_design.shape[1] == 5
        constant_cols = [
            j for j in range(5) if np.allclose(np.diff(m.slm.x_design[:, j]), 0.0)
        ]
        assert constant_cols == [0]

    def test_sdem_nonconformable_m_rejected(self):
        rng = np.random.default_rng(2)
        bad_m = random_weights(rng, 9, 2)
        with pytest.raises(se.InvalidInputError):
            se.build("sdem", self.y, self.x, self.w, m=bad_m)

    def test_unknown_kind_rejected(self):
        with pytest.raises(se.InvalidParameterError):
            se.build("sarar", self.y, self.x, self.w)

    def test_unstandardized_weights_rejected(self):
        coords = np.random.default_rng(3).uniform(size=(12, 2))
        raw = se.knn_adjacency(coords, 3)
        with pytest.raises(se.InvalidInputError, match="standardized"):
            se.build("slm", self.y, self.x, raw)


class TestDegenerateGridEqualsLinearRegression:
    def check_against_lr(self, kind):
        rng = np.random.default_rng(4)
        n = 15
        w = random_weights(rng, n, 3)
        x = rng.normal(size=(n, 2))
        design_map = {
            "slm": np.hstack([np.ones((n, 1)), x]),
            "slx": np.hstack([np.ones((n, 1)), x, w.mat @ x]),
        }
        design = design_map[kind]
        beta = rng.normal(size=design.shape[1])
        tau = 4.0
        y = design @ beta + rng.normal(scale=1 / math.sqrt(tau), size=n)
        q_diag = 1e-3
        if kind == "slm":
            priors = se.ModelPriors(rho_fixed=0.0, tau_fixed=tau, q_beta_diag=q_diag)
        else:
            priors = se.ModelPriors(tau_iid_fixed=tau, q_beta_diag=q_diag)
        fit = se.fit(se.build(kind, y, x, w, priors=priors))
        assert fit.weights.shape == (1,)

        noise_var = 1 / tau + 1e-8
        mean_lr, cov_lr = bayes_lr_posterior(design, y, q_diag, noise_var)
        for j, name in enumerate(fit.coef_names):
            m_eng, v_eng = fit.coef_moments(name)
            assert abs(m_eng - mean_lr[j]) < 1e-6
            assert abs(math.sqrt(v_eng) - math.sqrt(cov_lr[j, j])) < 1e-6

    def test_slm_at_rho_zero(self):
        self.check_against_lr("slm")

    def test_slx(self):
        self.check_against_lr("slx")


class TestFitBehaviour:
    def test_mliks_finite_and_bitwise_reproducible(self):
        rng = np.random.default_rng(5)
        w = random_weights(rng, 20, 3)
        y, x = simulate_slm(rng, w, [1.0, 0.5], 0.4, 0.6)
        for kind in ("sem", "slm"):
            f1 = se.fit(se.build(kind, y, x, w))
            f2 = se.fit(se.build(kind, y, x, w))
            assert math.isfinite(f1.log_mlik)
            assert f1.log_mlik == f2.log_mlik
            assert np.array_equal(f1.weights, f2.weights)

    def test_rho_zero_data_recovers_zero(self):
        rng = np.random.default_rng(6)
        n = 150
        w = random_weights(rng, n, 4)
        y, x = simulate_slm(rng, w, [1.0, 1.0, -0.5], 0.0, 0.4)
        fit = se.fit(se.build("slm", y, x, w))
        assert abs(fit.rho_marginal.mean()) < 0.1

    def test_grid_defaults_are_pinned(self):
        s = se.GridSettings()
        assert s.k == 3
        assert s.step == 0.8
        assert s.drop == 6.0
        assert se.engine._HESS_STEP == 1e-4
        assert se.engine.MIXTURE_POINTS == 401

    def test_prior_overrides_flow_through(self):
        # an extremely tight rho prior at the centre must dominate weak data
        rng = np.random.default_rng(12)
        w = random_weights(rng, 20, 3)
        y, x = simulate_slm(rng, w, [1.0, 0.5], 0.5, 2.0)
        lo, hi = w.rho_range()
        centre = lo + 0.5 * (hi - lo)
        loose = se.fit(se.build("slm", y, x, w))
        tight = se.fit(
            se.build("slm", y, x, w, priors=se.ModelPriors(rho_prior_prec=1e6))
        )
        assert abs(tight.rho_marginal.mean() - centre) < abs(
            loose.rho_marginal.mean() - centre
        )
        assert abs(tight.rho_marginal.mean() - centre) < 0.02 * (hi - lo)

    def test_selection_prefers_generating_family(self):
        # strong spatially-lagged response: SLM family should beat SLX on
        # marginal likelihood
        rng = np.random.default_rng(13)
        n = 150
        w = random_weights(rng, n, 4)
        y, x = simulate_slm(rng, w, [1.0, 1.0], 0.7, 0.3)
        fits = {k: se.fit(se.build(k, y, x, w)) for k in ("slm", "slx")}
        assert fits["slm"].log_mlik > fits["slx"].log_mlik

    def test_fit_attaches_model_and_kind(self):
        rng = np.random.default_rng(7)
        w = random_weights(rng, 10, 2)
        y, x = simulate_slm(rng, w, [1.0, 0.5], 0.3, 0.6)
        spec = se.build("sdem", y, x, w)
        fit = se.fit(spec)
        assert fit.kind == "sdem"
        assert fit.model is spec
        assert set(fit.hyper_summary()) == {"rho", "tau"}
