"""Impact matrices, trace functions, grid-mixture posterior summaries."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import (
    impact_mixture,
    monte_carlo_moments,
    random_weights,
    sample_impacts,
    simulate_slm,
)

import spatecon as se
from spatecon.impacts import (
    average_impacts,
    impact_matrix_dense,
    probit_scaling,
    trace_functions,
)


def chain_weights(n):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return se.row_standardize(se.from_dense(a))


def correlated_probit_slm(n, seed):
    rng = np.random.default_rng(seed)
    w = random_weights(rng, n, 3)
    x = rng.normal(size=(n, 2))
    eta = np.linalg.solve(
        np.eye(n) - 0.4 * w.toarray(), 0.3 + x @ np.array([1.0, -0.8]) + rng.normal(size=n)
    )
    y = (eta > 0).astype(float)
    return se.fit(se.build("slm", y, x, w, likelihood="probit"))


class TestImpactMatrixDense:
    def test_sem_is_scaled_identity(self):
        w = chain_weights(4)
        assert_allclose(impact_matrix_dense("sem", w, 0.5, 2.0), 2.0 * np.eye(4))

    def test_slm_at_rho_zero(self):
        w = chain_weights(5)
        assert_allclose(
            impact_matrix_dense("slm", w, 0.0, 1.7), 1.7 * np.eye(5), atol=1e-14
        )

    def test_sdm_row_sums(self):
        rng = np.random.default_rng(1)
        w = random_weights(rng, 6, 2)
        beta, gamma, rho = 1.2, -0.4, 0.35
        s = impact_matrix_dense("sdm", w, rho, beta, gamma)
        assert_allclose(s.sum(axis=1), (beta + gamma) / (1 - rho), atol=1e-10)

    def test_slm_ignores_gamma(self):
        w = chain_weights(4)
        a = impact_matrix_dense("slm", w, 0.3, 1.0, gamma_r=99.0)
        b = impact_matrix_dense("slm", w, 0.3, 1.0, gamma_r=0.0)
        assert_allclose(a, b)


class TestTraceFunctions:
    def test_rho_zero(self):
        rng = np.random.default_rng(2)
        w = random_weights(rng, 10, 3)
        t1, t2 = trace_functions(w, [0.0])
        assert abs(t1[0] - 1.0) < 1e-12
        assert abs(t2[0]) < 1e-12  # zero diagonal

    def test_chain_matches_dense_inverse(self):
        w = chain_weights(5)
        rho = 0.4
        t1, t2 = trace_functions(w, [rho])
        a_inv = np.linalg.inv(np.eye(5) - rho * w.toarray())
        assert abs(t1[0] - np.trace(a_inv) / 5) < 1e-10
        assert abs(t2[0] - np.trace(a_inv @ w.toarray()) / 5) < 1e-10

    def test_series_agrees_with_eig(self, monkeypatch):
        from spatecon import impacts, weights

        rng = np.random.default_rng(3)
        w = random_weights(rng, 100, 4)
        rhos = [0.5, -0.3, 0.2]
        t1e, t2e = trace_functions(w, rhos)
        # The series path, forced at a small n.
        monkeypatch.setattr(weights, "_DENSE_EIG_LIMIT", 10)
        monkeypatch.setattr(impacts, "_SERIES_TERMS", 120)
        t1s, t2s = trace_functions(w, rhos)
        assert np.max(np.abs(t1e - t1s)) < 1e-8
        assert np.max(np.abs(t2e - t2s)) < 1e-8

    def test_series_divergence_flagged(self, monkeypatch):
        from spatecon import weights

        monkeypatch.setattr(weights, "_DENSE_EIG_LIMIT", 10)
        rng = np.random.default_rng(4)
        w = random_weights(rng, 20, 3)
        with pytest.raises(se.NumericFailureError, match="diverges"):
            trace_functions(w, [1.2])


class TestAverageIdentities:
    def test_trace_formula_matches_dense_sums_all_kinds(self):
        # grand-sum / trace identities, every kind, random parameter draws
        rng = np.random.default_rng(5)
        for kind in se.KINDS:
            for _ in range(10):
                n = int(rng.integers(5, 50))
                w = random_weights(rng, n, min(3, n - 1))
                lo, hi = w.rho_range()
                rho = float(rng.uniform(max(lo, -2.0) * 0.9, hi * 0.9))
                beta = float(rng.normal())
                gamma = float(rng.normal()) if kind in ("sdm", "sdem", "slx") else 0.0
                s = impact_matrix_dense(kind, w, rho, beta, gamma)
                direct_dense = np.trace(s) / n
                total_dense = s.sum() / n
                if kind == "sem":
                    direct, total = beta, beta
                elif kind in ("sdem", "slx"):
                    direct, total = beta, beta + gamma
                else:
                    t1, t2 = trace_functions(w, [rho])
                    direct = t1[0] * beta + t2[0] * gamma
                    total = (beta + gamma) / (1 - rho)
                assert abs(direct - direct_dense) < 1e-8
                assert abs(total - total_dense) < 1e-8

    def test_slm_total_row_sum_identity(self):
        rng = np.random.default_rng(6)
        w = random_weights(rng, 12, 3)
        s = impact_matrix_dense("slm", w, 0.45, 2.0)
        assert abs(s.sum() / 12 - 2.0 / (1 - 0.45)) < 1e-10


class TestExactImpacts:
    def test_sem_indirect_identically_zero(self):
        rng = np.random.default_rng(7)
        w = random_weights(rng, 15, 3)
        y, x = simulate_slm(rng, w, [1.0, 0.8], 0.3, 0.5)
        fit = se.fit(se.build("sem", y, x, w))
        summ = average_impacts(fit)["x1"]
        assert summ.indirect.mean == 0.0
        assert summ.indirect.sd == 0.0
        assert summ.indirect.marginal is None
        assert summ.total.mean == summ.direct.mean
        assert summ.method == "exact"

    def test_total_is_direct_plus_indirect(self):
        rng = np.random.default_rng(8)
        w = random_weights(rng, 15, 3)
        y, x = simulate_slm(rng, w, [1.0, 0.8, -0.3], 0.3, 0.5)
        for kind in se.KINDS:
            fit = se.fit(se.build(kind, y, x, w))
            for summ in average_impacts(fit).values():
                assert abs(
                    summ.total.mean - (summ.direct.mean + summ.indirect.mean)
                ) < 1e-8

    def test_slx_direct_is_beta_total_is_sum(self):
        rng = np.random.default_rng(9)
        w = random_weights(rng, 20, 3)
        y, x = simulate_slm(rng, w, [0.5, 1.0], 0.0, 0.5)
        fit = se.fit(se.build("slx", y, x, w))
        summ = average_impacts(fit)["x1"]
        want_direct, _ = fit.coef_moments("x1")
        want_total, _ = fit.linear_combination_moments({"x1": 1.0, "lag.x1": 1.0})
        assert abs(summ.direct.mean - want_direct) < 1e-12
        assert abs(summ.total.mean - want_total) < 1e-12

    @pytest.mark.parametrize("kind", ["sdem", "slx"])
    def test_indirect_is_the_lag_coefficient(self, kind):
        # indirect = gamma_r exactly: its sd is that of lag.x1's mixture,
        # not sqrt(Var(beta + gamma) - Var(beta)).
        rng = np.random.default_rng(8)
        w = random_weights(rng, 60, 4)
        y, x = simulate_slm(rng, w, [1.0, 0.8, -0.3], 0.3, 0.5)
        fit = se.fit(se.build(kind, y, x, w))
        for name in ("x1", "x2"):
            summ = average_impacts(fit)[name]
            mean, var = fit.coef_moments("lag." + name)
            assert abs(summ.indirect.mean - mean) <= 1e-12 * max(1.0, abs(mean))
            assert abs(summ.indirect.sd - math.sqrt(var)) <= 1e-12 * math.sqrt(var)


class TestApproxImpacts:
    def test_degenerate_rho_total_equals_coefficient(self):
        # rho fixed at 0: every impact matrix is beta_r I, so direct and
        # total ARE the coefficient
        rng = np.random.default_rng(10)
        w = random_weights(rng, 15, 3)
        y, x = simulate_slm(rng, w, [1.0, 0.7], 0.2, 0.5)
        fit = se.fit(se.build("slm", y, x, w, priors=se.ModelPriors(rho_fixed=0.0)))
        b_mean, b_var = fit.coef_moments("x1")
        summ = average_impacts(fit)["x1"]
        for stat in (summ.total, summ.direct):
            assert abs(stat.mean - b_mean) <= 1e-12 * max(1, abs(b_mean))
            assert abs(stat.sd - math.sqrt(b_var)) <= 1e-12 * math.sqrt(b_var)

    def test_sdm_total_against_mixture_sampling_oracle(self):
        rng = np.random.default_rng(11)
        n = 20
        w = random_weights(rng, n, 3)
        y, x = simulate_slm(rng, w, [0.5, 1.5], 0.4, 0.5)
        fit = se.fit(se.build("sdm", y, x, w))
        summ = average_impacts(fit)["x1"]

        # oracle: 1e5 joint draws from the grid mixture pushed through
        # the dense impact matrices
        samples = sample_impacts(fit, w, "x1", 10**5, rng)["total"]
        mean, sd, se_mean, se_sd = monte_carlo_moments(samples)
        assert abs(summ.total.mean - mean) < 3.0 * se_mean
        assert abs(summ.total.sd - sd) < 3.0 * se_sd

    @pytest.mark.parametrize("kind", ["slm", "sdm"])
    def test_matches_dense_grid_mixture(self, kind):
        rng = np.random.default_rng(8)
        w = random_weights(rng, 60, 4)
        y, x = simulate_slm(rng, w, [1.0, 0.8, -0.3], 0.4, 0.5)
        fit = se.fit(se.build(kind, y, x, w))
        got = average_impacts(fit)
        for name in ("x1", "x2"):
            want = impact_mixture(fit, w, name)
            for which, (mean, sd) in want.items():
                stat = getattr(got[name], which)
                assert abs(stat.mean - mean) <= 1e-10 * abs(mean), (name, which)
                assert abs(stat.sd - sd) <= 1e-10 * sd, (name, which)

    def test_reported_marginals_are_gaussian_with_stated_moments(self):
        # the marginal is the Gaussian mixture whose moments are reported
        rng = np.random.default_rng(12)
        w = random_weights(rng, 15, 3)
        y, x = simulate_slm(rng, w, [1.0, 0.7], 0.4, 0.5)
        fit = se.fit(se.build("slm", y, x, w))
        summ = average_impacts(fit)["x1"]
        assert abs(summ.total.marginal.mean() - summ.total.mean) < 1e-6
        assert abs(summ.total.marginal.sd() - summ.total.sd) < 1e-6


class TestSpectrumCache:
    def test_one_eigvals_call_per_weights_matrix(self, monkeypatch):
        rng = np.random.default_rng(14)
        w_a, w_b = random_weights(rng, 30, 3), random_weights(rng, 30, 4)
        y, x = simulate_slm(rng, w_a, [1.0, 0.6, -0.3], 0.4, 0.5)
        real_eigvals = np.linalg.eigvals
        calls = []

        def counting_eigvals(a):
            calls.append(a.shape)
            return real_eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        fits = [
            se.fit(se.build("slm", y, x, w_a)),
            se.fit(se.build("sdm", y, x, w_a)),
            se.fit(se.build("slm", y, x, w_b)),
        ]
        got = [average_impacts(f) for f in fits]
        assert calls == [(30, 30), (30, 30)]

        # Bit for bit the impacts of recomputing the spectrum on every call.
        monkeypatch.setattr(
            se.WeightsMatrix, "eigenvalues", lambda self: real_eigvals(self.mat.toarray())
        )
        for summaries, f in zip(got, fits):
            for name, summ in average_impacts(f).items():
                for part in ("direct", "indirect", "total"):
                    a, b = getattr(summaries[name], part), getattr(summ, part)
                    assert (a.mean, a.sd) == (b.mean, b.sd)

    def test_cached_spectrum_is_read_only(self):
        w = chain_weights(5)
        lam = w.eigenvalues()
        assert lam is w.eigenvalues()
        with pytest.raises(ValueError):
            lam[0] = 0.0


class TestTraceMomentCache:
    def test_one_moment_build_per_weights_matrix(self, monkeypatch):
        # The series path, forced at a small n: one build of tr(W^k)/n per
        # weights matrix, however many covariates and fits read it.
        from spatecon import weights

        monkeypatch.setattr(weights, "_DENSE_EIG_LIMIT", 10)
        rng = np.random.default_rng(16)
        w_a, w_b = random_weights(rng, 40, 4), random_weights(rng, 40, 5)
        y, x = simulate_slm(rng, w_a, [1.0, 0.6, -0.3], 0.3, 0.5)
        real_moments = weights._trace_moments
        calls = []

        def counting_moments(mat, terms):
            calls.append(mat.shape)
            return real_moments(mat, terms)

        monkeypatch.setattr(weights, "_trace_moments", counting_moments)
        fits = [
            se.fit(se.build("slm", y, x, w_a)),
            se.fit(se.build("sdm", y, x, w_a)),
            se.fit(se.build("slm", y, x, w_b)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # series truncation notes
            got = [average_impacts(f) for f in fits]
            assert calls == [(40, 40), (40, 40)]

            # Bit for bit the impacts of rebuilding the moments on every call.
            monkeypatch.setattr(
                se.WeightsMatrix,
                "trace_moments",
                lambda self, terms: real_moments(self.mat, terms),
            )
            for summaries, f in zip(got, fits):
                for name, summ in average_impacts(f).items():
                    for part in ("direct", "indirect", "total"):
                        a, b = getattr(summaries[name], part), getattr(summ, part)
                        assert (a.mean, a.sd) == (b.mean, b.sd)

    def test_cached_moments_are_read_only(self):
        w = chain_weights(6)
        m = w.trace_moments(8)
        assert m is w.trace_moments(8)
        with pytest.raises(ValueError):
            m[0] = 0.0


class TestProbitScaling:
    def _fit_with_eta(self, eta):
        rng = np.random.default_rng(13)
        n = len(eta)
        w = random_weights(rng, n, min(2, n - 1))
        y = (rng.uniform(size=n) < 0.5).astype(float)
        fit = se.fit(
            se.build(
                "sem", y, None, w, likelihood="probit", intercept=False,
                priors=se.ModelPriors(rho_fixed=0.0),
            )
        )
        # A degenerate Gaussian of eta at every grid point: phi at eta.
        fit.eta_means = np.tile(np.asarray(eta, dtype=float), (len(fit.weights), 1))
        fit.eta_vars = np.zeros_like(fit.eta_means)
        return fit

    def test_all_zero_eta(self):
        fit = self._fit_with_eta([0.0, 0.0, 0.0])
        s = probit_scaling(fit)
        assert s.shape == fit.weights.shape
        assert np.all(np.abs(s - 1 / math.sqrt(2 * math.pi)) < 1e-12)

    def test_two_point_eta(self):
        fit = self._fit_with_eta([0.0, 1.96])
        from scipy.stats import norm

        want = (norm.pdf(0.0) + norm.pdf(1.96)) / 2.0
        assert np.all(np.abs(probit_scaling(fit) - want) < 1e-12)

    def test_scale_is_expected_density_under_each_grid_gaussian(self):
        from scipy import integrate
        from scipy.stats import norm

        fit = correlated_probit_slm(n=12, seed=21)
        s = probit_scaling(fit)
        for g in (0, int(np.argmax(fit.weights)), len(fit.weights) - 1):
            dens = []
            for m, v in zip(fit.eta_means[g], fit.eta_vars[g]):
                sd = math.sqrt(v)
                val, _ = integrate.quad(
                    lambda e: norm.pdf(e) * norm.pdf(e, m, sd),
                    min(m - 12 * sd, -12.0), max(m + 12 * sd, 12.0),
                    points=(0.0, m), epsabs=1e-14, epsrel=1e-12, limit=200,
                )
                dens.append(val)
            assert abs(s[g] - np.mean(dens)) <= 1e-9 * s[g], g

    def test_scaling_bounded_by_mode_density(self):
        rng = np.random.default_rng(14)
        n = 30
        w = random_weights(rng, n, 3)
        x = rng.normal(size=(n, 1))
        eta = np.linalg.solve(np.eye(n) - 0.3 * w.toarray(), 0.4 + x[:, 0] + rng.normal(size=n))
        y = (eta > 0).astype(float)
        fit = se.fit(se.build("slm", y, x, w, likelihood="probit"))
        s = probit_scaling(fit)
        assert np.all(s > 0.0)
        assert np.all(s <= 1 / math.sqrt(2 * math.pi) + 1e-15)

    def test_probit_impacts_are_scaled_gaussian_case(self):
        # Each grid point's Gaussian-case impact rows, read off the dense
        # impact matrices at its rho, times that point's expected density.
        from scipy.stats import norm

        fit = correlated_probit_slm(n=40, seed=15)
        w = fit.model.slm.w
        sd = np.sqrt(1.0 + fit.eta_vars)
        scale = np.mean(norm.pdf(fit.eta_means / sd) / sd, axis=1)
        got = average_impacts(fit)
        for name in ("x1", "x2"):
            assert got[name].method == "probit_scaled"
            want = impact_mixture(fit, w, name, scale=scale)
            for which, (mean, sd_) in want.items():
                stat = getattr(got[name], which)
                assert abs(stat.mean - mean) <= 1e-10 * abs(mean), (name, which)
                assert abs(stat.sd - sd_) <= 1e-10 * sd_, (name, which)

