"""Probit likelihood: Newton inner loop, Laplace evidence, predictions."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from oracles import gradient_at_mode, random_weights, simulate_slm
from scipy import integrate, optimize, stats

import spatecon as se
from spatecon import engine, univariate
from spatecon.engine import CompiledModel, laplace_inner
from spatecon.gmrf import PrecisionTerms


def site_quadrature(y_i, sd):
    """Exact single-site evidence: int Phi(x)^y (1-Phi(x))^(1-y) N(x; 0, sd^2)."""

    def f(x):
        p = stats.norm.cdf(x)
        return (p if y_i else 1.0 - p) * stats.norm.pdf(x, scale=sd)

    val, _ = integrate.quad(f, -12 * sd, 12 * sd, epsabs=1e-14, limit=300)
    return math.log(val)


def probit_sem_model(rng, n, y=None, rho_fixed=0.0, k=2):
    w = random_weights(rng, n, k)
    if y is None:
        y = (rng.uniform(size=n) < 0.5).astype(float)
    return se.build(
        "sem", y, None, w, likelihood="probit", intercept=False,
        priors=se.ModelPriors(rho_fixed=rho_fixed),
    )


class TestLaplaceEvidence:
    def test_single_observation_matches_quadrature(self):
        # one site, latent x ~ N(0, 1): evidence is a 1D integral
        prior = PrecisionTerms.union([sp.csc_matrix(np.array([[1.0]]))])
        for y_val in (0.0, 1.0):
            model = CompiledModel(
                y=np.array([y_val]),
                b_design=np.zeros((1, 0)),
                likelihood="probit",
                prior=prior,
                prior_weights=lambda theta, wrt=(): (
                    np.ones(1), 0.0, np.zeros((0, 1)), np.zeros(0)
                ),
                hyper_dims=(),
                coef_names=(),
            )
            lz, _ = laplace_inner(model, {})
            assert abs(lz - site_quadrature(y_val, 1.0)) < 1e-6

    def test_independent_sites_product_oracle(self):
        rng = np.random.default_rng(19)
        for trial in range(5):
            model = probit_sem_model(rng, 5)
            theta = {d.name: d.fixed for d in model.compiled.hyper_dims}
            lz, _ = laplace_inner(model.compiled, theta)
            want = sum(site_quadrature(yi, 1.0) for yi in model.y)
            assert abs(lz - want) < 1e-5

    def test_balanced_symmetric_data_centers_intercept(self):
        rng = np.random.default_rng(20)
        n = 12
        w = random_weights(rng, n, 3)
        y = np.array([0.0, 1.0] * (n // 2))
        model = se.build(
            "sem", y, None, w, likelihood="probit",
            priors=se.ModelPriors(rho_fixed=0.0),
        )
        theta = {d.name: d.fixed for d in model.compiled.hyper_dims}
        _, state = laplace_inner(model.compiled, theta)
        assert abs(state.mean_c[0]) < 1e-8

    def test_mode_gradient_supnorm(self):
        rng = np.random.default_rng(21)
        for trial in range(8):
            n = int(rng.integers(6, 25))
            w = random_weights(rng, n, 3)
            p = int(rng.integers(0, 3))
            x = rng.normal(size=(n, p)) if p else None
            y = (rng.uniform(size=n) < 0.5).astype(float)
            model = se.build("sem", y, x, w, likelihood="probit")
            theta = {
                "rho_internal": float(rng.uniform(0.2, 0.8)),
                "log_tau": 0.0,
            }
            lz, state = laplace_inner(model.compiled, theta)
            assert gradient_at_mode(model.compiled, theta, state) < 1e-6

    def test_non_binary_rejected(self):
        rng = np.random.default_rng(22)
        w = random_weights(rng, 8, 2)
        with pytest.raises(se.InvalidInputError, match="binary"):
            se.build("slm", np.arange(8.0), None, w, likelihood="probit")

    def test_gaussian_model_rejected(self):
        rng = np.random.default_rng(29)
        w = random_weights(rng, 8, 2)
        model = se.build("slm", rng.normal(size=8), None, w)
        with pytest.raises(se.InvalidInputError, match="probit"):
            laplace_inner(model.compiled, {"rho_internal": 0.5, "log_tau": 0.0})

    def test_tau_is_pinned_for_probit(self):
        rng = np.random.default_rng(23)
        w = random_weights(rng, 10, 3)
        y = (rng.uniform(size=10) < 0.5).astype(float)
        model = se.build("slm", y, None, w, likelihood="probit")
        tau_dim = [d for d in model.compiled.hyper_dims if d.name == "log_tau"][0]
        assert tau_dim.fixed == 0.0


class TestProbitGrid:
    def test_grid_is_one_dimensional_in_rho(self):
        rng = np.random.default_rng(24)
        w = random_weights(rng, 15, 3)
        x = rng.normal(size=(15, 1))
        y = (rng.uniform(size=15) < 0.5).astype(float)
        model = se.build("slm", y, x, w, likelihood="probit")
        grid = se.fit(model).grid
        assert grid.dims == ("rho_internal",)
        assert abs(grid.weights.sum() - 1.0) < 1e-10

    def test_fit_produces_external_rho_marginal(self):
        rng = np.random.default_rng(25)
        n = 40
        w = random_weights(rng, n, 4)
        x = rng.normal(size=(n, 1))
        eta = np.linalg.solve(
            np.eye(n) - 0.4 * w.toarray(),
            0.5 + 1.5 * x[:, 0] + rng.normal(size=n),
        )
        y = (eta > 0).astype(float)
        fit = se.fit(se.build("slm", y, x, w, likelihood="probit"))
        lo, hi = w.rho_range()
        assert fit.rho_marginal is not None
        assert fit.rho_marginal.support[0] > lo
        assert fit.rho_marginal.support[-1] < hi
        assert math.isfinite(fit.log_mlik)
        assert math.isfinite(fit.dic)

    def test_predictive_is_probability_marginal(self):
        rng = np.random.default_rng(26)
        n = 20
        w = random_weights(rng, n, 3)
        x = rng.normal(size=(n, 1))
        y = (rng.uniform(size=n) < 0.5).astype(float)
        y[3] = np.nan
        fit = se.fit(se.build("sem", y, x, w, likelihood="probit"))
        pred = fit.predictive[3]
        assert pred.support[0] >= 0.0
        assert pred.support[-1] <= 1.0
        assert abs(pred.integral() - 1.0) < 1e-6

    def test_predictive_matches_exact_cdf_past_the_flat_link(self):
        # The eta mixtures of these sites reach past eta = 8.3, where Phi
        # rounds to one; p = Phi(eta) is still a proper marginal whose mean
        # and quantiles agree with the mixture's exact CDF.
        fit = se.fit(correlated_probit_model("slm"))
        assert sorted(fit.predictive) == sorted(np.flatnonzero(np.isnan(fit.model.y)))
        for i, pred in fit.predictive.items():
            m, s = fit.eta_means[:, i], np.sqrt(fit.eta_vars[:, i])
            assert 0.0 <= pred.support[0] and pred.support[-1] <= 1.0
            exact_mean = float(fit.weights @ stats.norm.cdf(m / np.sqrt(1.0 + s * s)))
            assert abs(pred.mean() - exact_mean) < 1e-4
            for level in (0.025, 0.5, 0.975):
                eta_q = optimize.brentq(
                    lambda e: fit.weights @ stats.norm.cdf((e - m) / s) - level, -60, 60
                )
                assert abs(pred.quantile(level) - stats.norm.cdf(eta_q)) < 1e-3


class TestAllKindsProbit:
    def test_every_kind_fits_end_to_end(self):
        rng = np.random.default_rng(30)
        n = 40
        w = random_weights(rng, n, 3)
        x = rng.normal(size=(n, 2))
        eta = np.linalg.solve(
            np.eye(n) - 0.4 * w.toarray(),
            0.3 + x @ np.array([1.0, -0.7]) + rng.normal(size=n),
        )
        y = (eta > 0).astype(float)
        for kind in se.KINDS:
            fit = se.fit(se.build(kind, y, x, w, likelihood="probit"))
            assert math.isfinite(fit.log_mlik), kind
            assert abs(fit.weights.sum() - 1.0) < 1e-10, kind
            if kind != "slx":
                assert fit.rho_marginal is not None, kind
                lo, hi = fit.rho_bounds
                assert lo < fit.rho_marginal.mean() < hi, kind
            for name in fit.coef_names:
                assert math.isfinite(fit.coef_moments(name)[0]), (kind, name)


class TestProbitDic:
    def test_degenerate_probabilities_give_infinite_dic(self):
        # perfectly separated data pushes fitted probabilities to the edge
        rng = np.random.default_rng(27)
        n = 30
        w = random_weights(rng, n, 3)
        x = np.linspace(-4, 4, n)[:, None]
        y = (x[:, 0] > 0).astype(float)
        fit = se.fit(
            se.build(
                "slx", y, 80.0 * x, w, likelihood="probit",
                priors=se.ModelPriors(q_beta_diag=1e-6),
            )
        )
        assert math.isinf(fit.dic)

    def test_p_eff_positive_and_bounded(self):
        rng = np.random.default_rng(28)
        n = 20
        w = random_weights(rng, n, 3)
        y = (rng.uniform(size=n) < 0.5).astype(float)
        fit = se.fit(
            se.build(
                "sem", y, None, w, likelihood="probit", intercept=False,
                priors=se.ModelPriors(rho_fixed=0.0),
            )
        )
        assert 0.0 < fit.p_eff < n


def correlated_probit_model(kind, missing=3, seed=31, n=60):
    rng = np.random.default_rng(seed)
    w = random_weights(rng, n, 4)
    y, x = simulate_slm(rng, w, [0.2, 1.0, -0.8], 0.5, 1.0)
    y = (y > 0).astype(float)
    y[rng.choice(n, size=missing, replace=False)] = np.nan
    return se.build(kind, y, x, w, likelihood="probit")


def count_factorizations(monkeypatch):
    calls = []
    real_init = se.CholeskyHandle.__init__

    def init(self, symbolic, data, context=""):
        calls.append(1)
        real_init(self, symbolic, data, context=context)

    monkeypatch.setattr(se.CholeskyHandle, "__init__", init)
    return calls


class TestHotStart:
    """Newton starts from the model's last mode; the result must not
    depend on where it starts."""

    THETA = {"rho_internal": 0.6, "log_tau": 0.0}

    @pytest.mark.parametrize("kind", ["slm", "sem"])
    @pytest.mark.parametrize("start_rho", [0.62, 1e-3, 0.999])
    def test_hot_start_matches_cold_start(self, kind, start_rho):
        model = correlated_probit_model(kind).compiled
        lz_cold, cold = laplace_inner(model, self.THETA)
        model.last_mode = None
        laplace_inner(model, {"rho_internal": start_rho, "log_tau": 0.0})
        start = model.last_mode.copy()
        lz_hot, hot = laplace_inner(model, self.THETA)
        # Every start is away from the mode it has to reach.
        assert np.max(np.abs(start[: model.n] - cold.mean_x)) > 1e-3
        assert abs(lz_hot - lz_cold) <= 1e-10 * abs(lz_cold)
        for field in ("mean_x", "var_x", "mean_c", "var_eta"):
            got, want = getattr(hot, field), getattr(cold, field)
            assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want)), field

    @pytest.mark.parametrize("kind", ["slm", "sem"])
    @pytest.mark.parametrize("far_rho", [1e-3, 0.999])
    @pytest.mark.parametrize("keep_mode", [True, False])
    def test_held_factor_from_a_far_theta_matches_a_cold_start(self, kind, far_rho, keep_mode):
        # The chord steps start with the converged Hessian factor of a far
        # theta, from that theta's mode or from zero; the evidence must
        # agree with a start from no mode and no factor.
        lz_cold, cold = laplace_inner(correlated_probit_model(kind).compiled, self.THETA)
        model = correlated_probit_model(kind).compiled
        laplace_inner(model, {"rho_internal": far_rho, "log_tau": 0.0})
        held = model.last_factor
        assert held._sigma is None  # held to solve with, without its selected inverse
        if not keep_mode:
            model.last_mode = None
        solves = []
        real_solve = held.solve
        held.solve = lambda b: solves.append(1) or real_solve(b)
        lz_hot, hot = laplace_inner(model, self.THETA)
        assert solves and model.last_factor is not held
        assert abs(lz_hot - lz_cold) <= 1e-10 * abs(lz_cold)
        for field in ("mean_x", "var_x", "mean_c", "var_eta"):
            got, want = getattr(hot, field), getattr(cold, field)
            assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want)), field

    def test_factorization_cap_is_a_numeric_failure(self, monkeypatch):
        # One factorization at the zero start cannot end the search: the
        # stop test needs a fresh factor at the mode.
        monkeypatch.setattr(engine, "_NEWTON_MAX_FACTORIZATIONS", 1)
        model = correlated_probit_model("slm").compiled
        with pytest.raises(se.NumericFailureError, match="probit Newton did not converge"):
            laplace_inner(model, self.THETA)

    def test_repeated_theta_costs_one_factorization(self, monkeypatch):
        model = correlated_probit_model("slm").compiled
        lz_first, first = laplace_inner(model, self.THETA)
        calls = count_factorizations(monkeypatch)
        lz_again, again = laplace_inner(model, self.THETA)
        assert len(calls) == 1
        assert lz_again == lz_first
        assert np.array_equal(again.mean_x, first.mean_x)
        assert np.array_equal(again.var_x, first.var_x)

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_cold_evidence_repeats_bit_for_bit(self, seed):
        # A fresh model's first Hessian factorization runs the path of every
        # later one: two cold starts at one theta give the same bits.
        model = correlated_probit_model("slm", seed=seed, n=120).compiled
        lz_first, first = laplace_inner(model, self.THETA)
        model.last_mode = model.last_factor = None
        lz_again, again = laplace_inner(model, self.THETA)
        assert lz_again == lz_first
        assert np.array_equal(again.mean_x, first.mean_x)
        assert np.array_equal(again.var_x, first.var_x)

    def test_refit_is_bit_identical(self):
        model = correlated_probit_model("slm", missing=0)
        f1 = se.fit(model)
        # Leave a far mode on the model: the next fit must not start from it.
        laplace_inner(model.compiled, {"rho_internal": 0.999, "log_tau": 0.0})
        f2 = se.fit(model)
        assert model.compiled.last_mode is None
        assert model.compiled.last_factor is None
        assert f1.log_mlik == f2.log_mlik
        assert np.array_equal(f1.coef_means, f2.coef_means)
        assert np.array_equal(f1.coef_covs, f2.coef_covs)
        assert np.array_equal(f1.grid.points, f2.grid.points)
        assert np.array_equal(f1.grid.log_evidence, f2.grid.log_evidence)

    def test_fit_factorizations_per_evidence(self, monkeypatch):
        # Chord steps on the last converged factor make 2.3 factorizations
        # per evidence call on this fit (46): one per call at the search's
        # last points, 3-4 at grid points, which lie about two mode shifts
        # apart at n = 60. Full Newton steps from the last mode made 4.6;
        # starting every theta from zero and factoring again at the mode
        # made 9. The one free hyperparameter (rho) costs a bounded Brent
        # search, a 4-point extrapolated Hessian stencil and 7 grid points.
        model = correlated_probit_model("slm", missing=0)
        stages = count_evidence_by_stage(monkeypatch)
        factorizations = count_factorizations(monkeypatch)
        se.fit(model)
        assert stages == {"mode": 9, "hessian": 4, "grid": 7}
        assert len(factorizations) <= 2.5 * sum(stages.values())


def test_newton_converges_where_the_objective_is_large(monkeypatch):
    # At n = 4,000 |objective| is in the thousands, where an absolute
    # backtracking slack of 1e-12 lies below the objective's round-off: a
    # cold search stalled there, ending after 100 factorizations with a
    # gradient sup-norm of 1.2e-10. The slack is relative to |objective|.
    n = 4000
    rng = np.random.default_rng(0)
    coords = rng.uniform(size=(n, 2))
    x = rng.normal(size=(n, 2))
    eps = rng.normal(size=n)
    w = se.row_standardize(se.knn_adjacency(coords, 6))
    eta = spla.spsolve(sp.identity(n, format="csc") - 0.5 * w.mat, 0.3 + x @ [1.0, -0.8] + eps)
    model = se.build("slm", (eta > 0).astype(float), x, w, likelihood="probit").compiled
    theta = {"rho_internal": 0.61, "log_tau": 0.0}
    calls = count_factorizations(monkeypatch)
    lz_cold, _ = laplace_inner(model, theta, want_state=False)
    assert len(calls) <= 5
    model.last_mode = model.last_factor = None
    laplace_inner(model, {**theta, "rho_internal": 0.60}, want_state=False)
    calls.clear()
    lz_hot, _ = laplace_inner(model, theta, want_state=False)
    assert len(calls) <= 3
    assert abs(lz_hot - lz_cold) <= 1e-10 * abs(lz_cold)


def count_evidence_by_stage(monkeypatch):
    """Evidence calls of a fit, counted per stage: mode search, Hessian
    differences and grid."""
    counts = {"mode": 0, "hessian": 0, "grid": 0}
    stage = ["mode"]
    real_evidence = engine.log_conditional_evidence

    def staged(real):
        def hessian(*args, **kwargs):
            stage[0] = "hessian"
            try:
                return real(*args, **kwargs)
            finally:
                stage[0] = "grid"

        return hessian

    def evidence(*args, **kwargs):
        counts[stage[0]] += 1
        return real_evidence(*args, **kwargs)

    for name in ("_gradient_hessian", "_extrapolated_curvature"):
        monkeypatch.setattr(engine, name, staged(getattr(engine, name)))
    monkeypatch.setattr(engine, "log_conditional_evidence", evidence)
    return counts


def one_free_hyperparameter_model(case):
    if case == "probit_slm":
        return correlated_probit_model("slm", missing=0)
    rng = np.random.default_rng(61)
    w = random_weights(rng, 50, 4)
    y, x = simulate_slm(rng, w, [0.5, 1.0, -0.6], 0.4, 0.7)
    if case == "gaussian_slx":
        return se.build("slx", y, x, w)
    return se.build("slm", y, x, w, priors=se.ModelPriors(rho_fixed=0.3))


def scan_mode(f, lo, hi, points=99):
    """Argmax of f on a dense grid over [lo, hi], then on a grid 25 times
    finer around it, refined by the parabola through the finest three."""
    xs = np.linspace(lo, hi, points)
    i = int(np.argmax([f([x]) for x in xs]))
    h = (xs[1] - xs[0]) / 25.0
    xs = xs[i] + h * np.arange(-50, 51)
    vals = np.array([f([x]) for x in xs])
    j = int(np.argmax(vals))
    assert 0 < j < xs.size - 1
    lo_v, mid, hi_v = vals[j - 1 : j + 2]
    return xs[j] - 0.5 * h * (hi_v - lo_v) / (hi_v - 2.0 * mid + lo_v)


def with_start(model, init):
    """The model with its free hyperparameter's mode search started at init."""
    compiled = model.compiled
    compiled.hyper_dims = tuple(
        dataclasses.replace(d, init=init) if d.fixed is None else d
        for d in compiled.hyper_dims
    )
    return compiled


class TestModeSearch:
    """One free hyperparameter: a probit fit's bounded Brent search and a
    Gaussian fit's trust-region search, not Nelder-Mead."""

    @pytest.mark.parametrize("case", ["probit_slm", "gaussian_slx", "gaussian_slm_rho_fixed"])
    def test_one_dimensional_mode_matches_a_dense_scan(self, case, monkeypatch):
        model = one_free_hyperparameter_model(case)
        searches = []

        def spy(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, **k: searches.append(name) or real(*a, **k))

        spy(univariate, "minimize_bounded")
        spy(engine, "_trust_region_mode")
        fit = se.fit(model)
        # Brent for probit, the trust region for Gaussian, and nothing else.
        want_search = "minimize_bounded" if case == "probit_slm" else "_trust_region_mode"
        assert searches and set(searches) == {want_search}
        (name,) = fit.grid.dims
        assert (name == "rho_internal") == (case == "probit_slm")
        f = engine._log_posterior_fn(model.compiled)
        got = fit.grid.mode_point[0]
        if name == "rho_internal":
            want = scan_mode(f, 0.01, 0.99)
        else:
            want = scan_mode(f, got - 3.0, got + 3.0, points=61)
        assert abs(got - want) <= 1e-5

    @pytest.mark.parametrize("offset", [-3.0, -0.25, 0.5, 3.0])
    @pytest.mark.parametrize("case", ["gaussian_slx", "gaussian_slm_rho_fixed"])
    def test_gaussian_start_far_from_the_mode(self, case, offset, monkeypatch):
        # The trust-region search reaches the scanned mode from a start up
        # to 3 away on the log-precision scale, without a bracket.
        model = one_free_hyperparameter_model(case)
        want = se.fit(model).grid.mode_point[0]
        compiled = with_start(model, want + offset)
        runs = []
        monkeypatch.setattr(univariate, "minimize_bounded", lambda *a, **k: runs.append(1))
        got = se.fit(model).grid.mode_point[0]
        assert not runs
        scanned = scan_mode(engine._log_posterior_fn(compiled), got - 3.0, got + 3.0, points=61)
        assert abs(got - scanned) <= 1e-5

    def test_first_point_lies_in_the_bracket_around_the_start(self, monkeypatch):
        model = one_free_hyperparameter_model("probit_slm")
        (dim,) = model.compiled.free_dims()
        stages = count_evidence_by_stage(monkeypatch)
        seen = []
        real = engine.log_conditional_evidence
        monkeypatch.setattr(
            engine, "log_conditional_evidence",
            lambda m, theta, *a, **k: seen.append(theta[dim.name]) or real(m, theta, *a, **k),
        )
        fit = se.fit(model)
        assert abs(seen[0] - dim.init) < engine._FIRST_BRACKET
        # The start is near the mode: one Brent run on the first bracket.
        assert abs(fit.grid.mode_point[0] - dim.init) < engine._FIRST_BRACKET
        assert stages["mode"] <= 12

    def test_start_far_from_the_mode_widens_the_bracket(self, monkeypatch):
        model = one_free_hyperparameter_model("probit_slm")
        want = se.fit(model).grid.mode_point[0]
        compiled = with_start(model, want - 0.5)
        runs = []
        real = univariate.minimize_bounded
        monkeypatch.setattr(
            univariate, "minimize_bounded", lambda f, bounds, **k: runs.append(bounds) or real(f, bounds, **k)
        )
        fit = se.fit(model)
        # The first bracket ends 0.4 short of the mode (its lower edge may
        # be clipped to the domain).
        assert len(runs) >= 2 and runs[0][1] == pytest.approx(want - 0.4)
        got = fit.grid.mode_point[0]
        assert abs(got - scan_mode(engine._log_posterior_fn(compiled), 0.01, 0.99)) <= 1e-5

    def test_first_points_past_an_inner_edge_stop_the_run(self, monkeypatch):
        # The mode lies 0.15 past the upper edge of the first bracket: its
        # first three points and the value at that edge end the first run,
        # and one run on the widened bracket finds the mode.
        model = one_free_hyperparameter_model("probit_slm")
        want = se.fit(model).grid.mode_point[0]
        with_start(model, want - 0.25)
        stages = count_evidence_by_stage(monkeypatch)
        per_run = []
        real = univariate.minimize_bounded

        def counted(*args, **kwargs):
            before = stages["mode"]
            try:
                return real(*args, **kwargs)
            finally:
                per_run.append(stages["mode"] - before)

        monkeypatch.setattr(univariate, "minimize_bounded", counted)
        fit = se.fit(model)
        assert len(per_run) == 2 and per_run[0] == 4
        assert abs(fit.grid.mode_point[0] - want) <= 1e-5

    def test_failed_one_dimensional_search_is_a_numeric_failure(self, monkeypatch):
        real = univariate.minimize_bounded

        def one_iteration(*args, **kwargs):
            return real(*args, **{**kwargs, "maxiter": 1})

        monkeypatch.setattr(univariate, "minimize_bounded", one_iteration)
        with pytest.raises(se.NumericFailureError, match="did not converge: Maximum"):
            se.fit(one_free_hyperparameter_model("probit_slm"))

    @pytest.mark.parametrize("kind, calls", [("slx", 2), ("slm", 4)])
    def test_hessian_costs_two_gradients_per_axis(self, kind, calls, monkeypatch):
        rng = np.random.default_rng(62)
        w = random_weights(rng, 40, 4)
        y, x = simulate_slm(rng, w, [0.5, 1.0], 0.4, 0.7)
        stages = count_evidence_by_stage(monkeypatch)
        fit = se.fit(se.build(kind, y, x, w))
        assert len(fit.grid.dims) == {"slx": 1, "slm": 2}[kind]
        assert stages["hessian"] == calls
