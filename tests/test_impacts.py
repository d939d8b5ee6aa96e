"""Impact matrices, trace functions, grid-mixture posterior summaries."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from oracles import (
    delaunay_weights,
    dense_trace_functions,
    impact_matrix_dense,
    impact_mixture,
    monte_carlo_moments,
    random_weights,
    sample_impacts,
    simulate_slm,
)

import spatecon as se
from spatecon import weights
from spatecon.impacts import (
    average_impacts,
    probit_scaling,
    trace_functions,
)


def chain_weights(n):
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return se.row_standardize(se.from_dense(a))


def refuse_eigvals(a):
    raise AssertionError(f"np.linalg.eigvals called on a {a.shape} matrix")


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

    def test_sparse_route_agrees_with_dense_inverse(self):
        rng = np.random.default_rng(3)
        w = random_weights(rng, 100, 4)
        assert w.spectrum() is None
        rhos = [0.5, -0.3, 0.2]
        t1, t2 = trace_functions(w, rhos)
        want_t1, want_t2 = dense_trace_functions(w, rhos)
        assert np.max(np.abs(t1 - want_t1)) < 1e-8
        assert np.max(np.abs(t2 - want_t2)) < 1e-8

    def test_sparse_route_serves_rho_below_minus_one(self):
        rng = np.random.default_rng(4)
        w = random_weights(rng, 20, 3)
        lo, hi = w.rho_range()
        assert lo < -1.2
        rhos = [0.98 * lo, -1.2, -1.0]
        t1, t2 = trace_functions(w, rhos)
        want_t1, want_t2 = dense_trace_functions(w, rhos)
        assert_allclose(t1, want_t1, rtol=1e-8)
        assert_allclose(t2, want_t2, rtol=1e-8)
        for rho in (1.2, 1.05 * lo):
            with pytest.raises(se.InvalidParameterError, match="admissible"):
                trace_functions(w, [rho])


class TestTracesOverTheRange:
    """t1 and t2 against dense inverses over (rho_min, 0.98]."""

    @staticmethod
    def weights_of(make, monkeypatch):
        rng = np.random.default_rng(31)
        if make == "knn":
            return random_weights(rng, 300, 6)
        if make == "delaunay_sparse":
            monkeypatch.setattr(weights, "_DENSE_EIG_LIMIT", 10)
        return delaunay_weights(rng, 300)

    @pytest.mark.parametrize("make", ["knn", "delaunay_sparse", "delaunay_eigvalsh"])
    def test_match_dense_inverse_to_1e_12(self, make, monkeypatch):
        w = self.weights_of(make, monkeypatch)
        assert (w.spectrum() is None) == (make != "delaunay_eigvalsh")
        lo, hi = w.rho_range()
        assert lo < -1.0 and hi == 1.0
        rhos = [0.999 * lo, 0.75 * lo, -1.0, -0.5, 0.0, 0.3, 0.85, 0.95, 0.97, 0.98]
        t1, t2 = trace_functions(w, rhos)
        want_t1, want_t2 = dense_trace_functions(w, rhos)
        # t2(0) = tr(W)/n = 0; atol covers that point alone.
        assert_allclose(t1, want_t1, rtol=1e-12, atol=0.0)
        assert_allclose(t2, want_t2, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("make", ["knn", "delaunay_sparse", "delaunay_eigvalsh"])
    def test_match_dense_inverse_at_the_clamp(self, make, monkeypatch):
        # The grid's extreme rho: internal 1e-6 from either bound, where
        # I - rho W is nearly singular.
        w = self.weights_of(make, monkeypatch)
        lo, hi = w.rho_range()
        rhos = [lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo)]
        t1, t2 = trace_functions(w, rhos)
        want_t1, want_t2 = dense_trace_functions(w, rhos)
        assert_allclose(t1, want_t1, rtol=1e-9, atol=0.0)
        assert_allclose(t2, want_t2, rtol=1e-9, atol=0.0)

    def test_repeated_rho_runs_one_complex_lu(self, monkeypatch):
        w = random_weights(np.random.default_rng(32), 120, 5)
        calls = []
        real = weights._lu_diagonal

        def counting(a, *args, **kwargs):
            calls.append(a.dtype)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(weights, "_lu_diagonal", counting)
        t1, t2 = trace_functions(w, [0.3, 0.6, 0.3, 0.6, 0.3])
        # One complex LU at each distinct rho, none for a value.
        assert calls == [np.complex128, np.complex128]
        assert t1[0] == t1[2] == t1[4] and t2[1] == t2[3]

    def test_eigvalsh_path_refuses_rho_out_of_range(self):
        w = delaunay_weights(np.random.default_rng(35), 60)
        assert w.spectrum() is not None
        lo, hi = w.rho_range()
        for rho in (hi, 1.01 * hi, lo, 1.01 * lo):
            with pytest.raises(se.InvalidParameterError, match="admissible"):
                trace_functions(w, [0.0, rho])


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

    @pytest.mark.parametrize("kind", ["slm", "sdm", "sdem"])
    def test_islands_match_dense_grid_mixture(self, kind):
        # Five isolated regions leave rows of W that sum to zero, where the
        # closed forms (beta + gamma) / (1 - rho) and beta + gamma fail.
        rng = np.random.default_rng(0)
        a = se.knn_adjacency(rng.uniform(size=(60, 2)), 4).toarray()
        a = np.maximum(a, a.T)
        a[:5], a[:, :5] = 0.0, 0.0
        with pytest.warns(UserWarning, match="islands"):
            w = se.row_standardize(se.from_dense(a))
        assert not weights._row_stochastic(w.mat)
        y, x = simulate_slm(rng, w, [1.0, 0.8, -0.3], 0.4, 0.5)
        fit = se.fit(se.build(kind, y, x, w))
        got = average_impacts(fit)
        for name in ("x1", "x2"):
            for which, (mean, sd) in impact_mixture(fit, w, name).items():
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
    def test_one_eigvalsh_call_per_weights_matrix(self, monkeypatch):
        rng = np.random.default_rng(14)
        w_a, w_b = delaunay_weights(rng, 30), delaunay_weights(rng, 30)
        y, x = simulate_slm(rng, w_a, [1.0, 0.6, -0.3], 0.4, 0.5)
        real_eigvalsh = np.linalg.eigvalsh
        calls = []

        def counting_eigvalsh(a):
            calls.append(a.shape)
            return real_eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        monkeypatch.setattr(np.linalg, "eigvals", refuse_eigvals)
        fits = [
            se.fit(se.build("slm", y, x, w_a)),
            se.fit(se.build("sdm", y, x, w_a)),
            se.fit(se.build("slm", y, x, w_b)),
        ]
        got = [average_impacts(f) for f in fits]
        assert calls == [(30, 30), (30, 30)]

        # Bit for bit the impacts of recomputing the spectrum on every call.
        real_spectrum = se.WeightsMatrix.spectrum
        monkeypatch.setattr(
            se.WeightsMatrix,
            "spectrum",
            lambda self: real_spectrum(dataclasses.replace(self, _spectrum=None)),
        )
        for summaries, f in zip(got, fits):
            for name, summ in average_impacts(f).items():
                for part in ("direct", "indirect", "total"):
                    a, b = getattr(summaries[name], part), getattr(summ, part)
                    assert (a.mean, a.sd) == (b.mean, b.sd)

    def test_cached_spectrum_is_read_only(self):
        w = chain_weights(5)
        lam = w.spectrum()
        assert lam is w.spectrum()
        with pytest.raises(ValueError):
            lam[0] = 0.0

    def test_symmetric_source_takes_eigvalsh_and_matches_eigvals(self, monkeypatch):
        w = delaunay_weights(np.random.default_rng(33), 200)
        real_eigvalsh = np.linalg.eigvalsh
        calls = []

        def counting_eigvalsh(a):
            calls.append(a.shape)
            return real_eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        lam = w.spectrum()
        assert calls == [(200, 200)]
        want = np.linalg.eigvals(w.toarray())
        assert np.max(np.abs(want.imag)) <= 1e-12
        assert np.max(np.abs(lam - np.sort(want.real))) <= 1e-12
        # A kNN W, not symmetric, and a W wrapped without its scale take the
        # sparse path.
        assert random_weights(np.random.default_rng(34), 50, 4).spectrum() is None
        assert se.WeightsMatrix(w.mat, w.standardized, w.has_islands).spectrum() is None


class TestLogDeterminantMemo:
    def test_second_impacts_and_refit_run_no_new_lu(self, monkeypatch):
        rng = np.random.default_rng(16)
        w = random_weights(rng, 40, 4)
        y, x = simulate_slm(rng, w, [1.0, 0.6, -0.3], 0.3, 0.5)
        calls = []
        real = weights._lu_diagonal

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(weights, "_lu_diagonal", counting)
        fit = se.fit(se.build("sdm", y, x, w))
        first = average_impacts(fit)
        lus = len(calls)
        assert lus > 0
        again = average_impacts(fit)
        refit = se.fit(se.build("sdm", y, x, w))
        assert len(calls) == lus
        assert refit.log_mlik == fit.log_mlik
        for summaries in (again, average_impacts(refit)):
            for name, summ in summaries.items():
                for part in ("direct", "indirect", "total"):
                    a, b = getattr(first[name], part), getattr(summ, part)
                    assert (a.mean, a.sd) == (b.mean, b.sd)
        assert len(calls) == lus

    def test_knn_fit_and_impacts_run_no_eigvals(self, monkeypatch):
        rng = np.random.default_rng(17)
        w = random_weights(rng, 600, 6)
        y, x = simulate_slm(rng, w, [1.0, 0.6, -0.3], 0.5, 0.5)
        monkeypatch.setattr(np.linalg, "eigvals", refuse_eigvals)
        fit = se.fit(se.build("slm", y, x, w))
        summ = average_impacts(fit)["x1"]
        assert math.isfinite(summ.direct.mean) and math.isfinite(summ.total.sd)


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
