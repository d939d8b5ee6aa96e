"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Criteria 1-7 are self-contained. Criterion 8 reproduces published values
from the Boston housing and Katrina business datasets; those datasets are
public but not bundled, so the tests skip unless fixtures are present
under tests/fixtures/ (see README for the expected layout).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    dense_evidence,
    gradient_at_mode,
    impact_matrix_dense,
    log_gamma_logpdf,
    logit_normal_logpdf,
    monte_carlo_moments,
    random_weights,
    sample_impacts,
    simulate_slm,
    terms_matrix,
)
from scipy import integrate, stats

import spatecon as se
from spatecon import selection
from spatecon.engine import laplace_inner, log_conditional_evidence
from spatecon.gmrf import SlmSpec, joint_precision
from spatecon.impacts import average_impacts, trace_functions

FIXTURES = Path(__file__).parent / "fixtures"


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def test_criterion_1_gmrf_correctness():
    """Dense inverse of the joint precision vs generative covariance."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 21))
        p = int(rng.integers(0, 4))
        w = random_weights(rng, n, min(int(rng.integers(1, 4)), n - 1))
        x = rng.normal(size=(n, p))
        if p:
            a = rng.normal(size=(p, p))
            q = a @ a.T + np.eye(p)
        else:
            q = None
        spec = SlmSpec(w=w, x_design=x, q_beta=q)
        lo, hi = w.rho_range()
        # stay away from the spectral bounds so both dense-inverse paths
        # keep enough conditioning headroom for the 1e-8 sup-norm check
        rho = float(rng.uniform(max(lo, -1.5) * 0.85, hi * 0.85))
        tau = float(rng.uniform(0.5, 3.0))
        jp = joint_precision(spec, rho, tau)

        a_inv = np.linalg.inv(np.eye(n) - rho * w.toarray())
        q_inv = np.linalg.inv(spec.q_beta) if p else np.zeros((0, 0))
        top = a_inv @ (x @ q_inv @ x.T + np.eye(n) / tau) @ a_inv.T
        cross = a_inv @ x @ q_inv
        cov = np.block([[top, cross], [cross.T, q_inv]])
        dense = terms_matrix(spec, jp.weights).toarray()
        worst = max(worst, float(np.max(np.abs(np.linalg.inv(dense) - cov))))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-8 and elapsed < 10.0,
        f"sup-norm {worst:.2e} over 100 instances in {elapsed:.1f}s",
    )


def test_criterion_2_gaussian_evidence():
    """Evidence vs dense MVN oracle; marginal likelihood vs 2D quadrature."""
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(5, 21))
        kind = str(rng.choice(se.KINDS))
        p = int(rng.integers(0, 3))
        w = random_weights(rng, n, min(3, n - 1))
        x = rng.normal(size=(n, p)) if p else None
        y = rng.normal(size=n)
        if rng.uniform() < 0.3:
            y[int(rng.integers(0, n))] = np.nan
        model = se.build(kind, y, x, w)
        theta = {}
        for dim in model.compiled.hyper_dims:
            theta[dim.name] = (
                float(rng.uniform(0.15, 0.85))
                if dim.name == "rho_internal"
                else float(rng.uniform(-1.0, 1.5))
            )
        lz, _ = log_conditional_evidence(model.compiled, theta)
        worst = max(worst, abs(lz - dense_evidence(model, theta)))

    rng = np.random.default_rng(1003)
    w = random_weights(rng, 10, 3)
    y, x = simulate_slm(rng, w, [0.8, 1.0], 0.35, 0.6)
    model = se.build("slm", y, x, w)
    fit = se.fit(model)
    mode_r, mode_t = fit.grid.mode_point
    f_max = (
        dense_evidence(model, {"rho_internal": mode_r, "log_tau": mode_t})
        + logit_normal_logpdf(mode_r)
        + log_gamma_logpdf(mode_t)
    )

    def integrand(t, r):
        theta = {"rho_internal": r, "log_tau": t}
        val = dense_evidence(model, theta) + logit_normal_logpdf(r) + log_gamma_logpdf(t)
        return math.exp(val - f_max)

    val, _ = integrate.dblquad(
        integrand, 1e-6, 1 - 1e-6,
        lambda r: mode_t - 10.0, lambda r: mode_t + 10.0,
        epsabs=1e-10, epsrel=1e-8,
    )
    mlik_err = abs(fit.log_mlik - (math.log(val) + f_max))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst < 1e-8 and mlik_err < 0.05 and elapsed < 30.0,
        f"evidence sup {worst:.2e}, mlik err {mlik_err:.3f} in {elapsed:.1f}s",
    )


def test_criterion_3_probit_laplace():
    """Independent-site evidence vs quadrature; mode gradients."""
    start = time.perf_counter()
    rng = np.random.default_rng(1004)

    def site_quad(y_i):
        def f(v):
            p = stats.norm.cdf(v)
            return (p if y_i else 1.0 - p) * stats.norm.pdf(v)

        val, _ = integrate.quad(f, -12, 12, epsabs=1e-14, limit=200)
        return math.log(val)

    worst_ev = 0.0
    for _ in range(10):
        w = random_weights(rng, 5, 2)
        y = (rng.uniform(size=5) < rng.uniform(0.3, 0.7)).astype(float)
        model = se.build(
            "sem", y, None, w, likelihood="probit", intercept=False,
            priors=se.ModelPriors(rho_fixed=0.0),
        )
        theta = {d.name: d.fixed for d in model.compiled.hyper_dims}
        lz, _ = laplace_inner(model.compiled, theta)
        worst_ev = max(worst_ev, abs(lz - sum(site_quad(v) for v in y)))

    worst_grad = 0.0
    for _ in range(10):
        n = int(rng.integers(5, 26))
        w = random_weights(rng, n, min(3, n - 1))
        p = int(rng.integers(0, 3))
        x = rng.normal(size=(n, p)) if p else None
        y = (rng.uniform(size=n) < 0.5).astype(float)
        model = se.build("sem", y, x, w, likelihood="probit")
        theta = {"rho_internal": float(rng.uniform(0.2, 0.8)), "log_tau": 0.0}
        _, state = laplace_inner(model.compiled, theta)
        worst_grad = max(worst_grad, gradient_at_mode(model.compiled, theta, state))
    elapsed = time.perf_counter() - start
    report(
        3,
        worst_ev < 1e-5 and worst_grad < 1e-6 and elapsed < 10.0,
        f"evidence err {worst_ev:.2e}, gradient sup {worst_grad:.2e} in {elapsed:.1f}s",
    )


def test_criterion_4_impact_algebra():
    """Trace-formula averages vs dense impact-matrix sums, all kinds."""
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    worst = 0.0
    for kind in se.KINDS:
        for _ in range(50):
            n = int(rng.integers(5, 51))
            w = random_weights(rng, n, min(3, n - 1))
            lo, hi = w.rho_range()
            rho = float(rng.uniform(max(lo, -2.0) * 0.9, hi * 0.9))
            beta = float(rng.normal())
            gamma = float(rng.normal()) if kind in ("sdm", "sdem", "slx") else 0.0
            s = impact_matrix_dense(kind, w, rho, beta, gamma)
            if kind == "sem":
                direct, total = beta, beta
            elif kind in ("sdem", "slx"):
                direct, total = beta, beta + gamma
            else:
                t1, t2 = trace_functions(w, [rho])
                direct = float(t1[0] * beta + t2[0] * gamma)
                total = (beta + gamma) / (1.0 - rho)
            worst = max(
                worst,
                abs(direct - np.trace(s) / n),
                abs(total - s.sum() / n),
                abs((total - direct) - (s.sum() - np.trace(s)) / n),
            )
    elapsed = time.perf_counter() - start
    report(4, worst < 1e-8 and elapsed < 10.0, f"worst {worst:.2e} in {elapsed:.1f}s")


def test_criterion_5_impacts_monte_carlo():
    """Grid-mixture impacts vs 1e5 joint Monte Carlo draws (SLM and SDM)."""
    start = time.perf_counter()
    rng = np.random.default_rng(1006)
    w = random_weights(rng, 30, 4)
    y, x = simulate_slm(rng, w, [0.5, 1.0, -0.6], 0.4, 0.5)
    worst = 0.0
    for kind in ("slm", "sdm"):
        fit = se.fit(se.build(kind, y, x, w))
        got = average_impacts(fit)
        for name in ("x1", "x2"):
            draws = sample_impacts(fit, w, name, 10**5, rng)
            for which, samples in draws.items():
                mean, sd, se_mean, se_sd = monte_carlo_moments(samples)
                stat = getattr(got[name], which)
                worst = max(
                    worst, abs(stat.mean - mean) / se_mean, abs(stat.sd - sd) / se_sd
                )
    elapsed = time.perf_counter() - start
    report(5, worst < 3.0 and elapsed < 20.0, f"worst {worst:.2f} MC s.e. in {elapsed:.1f}s")


def test_criterion_6_posterior_model_probabilities():
    """Shift invariance and a hand-computed three-model fixture."""
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(20):
        mliks = rng.normal(scale=20, size=4)
        shift = float(rng.uniform(-300, 300))
        a = selection.posterior_model_probs(mliks)
        b = selection.posterior_model_probs(mliks + shift)
        worst = max(worst, float(np.max(np.abs(a - b))))

    # hand-computed fixture: priors proportional to 1/k^2 for k = 5, 6, 7
    log_mliks = np.array([-2.0, -1.4, -3.1])
    prior = np.array([1 / 25.0, 1 / 36.0, 1 / 49.0])
    probs = selection.posterior_model_probs(log_mliks, prior)
    want = np.exp(log_mliks) * prior
    want = want / want.sum()
    worst = max(worst, float(np.max(np.abs(probs - want))))
    report(6, worst < 1e-12, f"worst abs deviation {worst:.2e}")


def test_criterion_7_simulation_consistency():
    """Recover rho = 0.6 and the coefficients over 10 seeded replications."""
    start = time.perf_counter()
    beta = np.array([1.0, 0.5, -0.75])
    rho_true = 0.6
    worst_rho = 0.0
    worst_beta_z = 0.0
    for seed in range(10):
        rng = np.random.default_rng(3000 + seed)
        n = 200
        w = random_weights(rng, n, 6)
        y, x = simulate_slm(rng, w, beta, rho_true, 0.15)
        fit = se.fit(se.build("slm", y, x, w))
        worst_rho = max(worst_rho, abs(fit.rho_marginal.mean() - rho_true))
        for j, name in enumerate(fit.coef_names):
            m, v = fit.coef_moments(name)
            worst_beta_z = max(worst_beta_z, abs(m - beta[j]) / math.sqrt(v))
    elapsed = time.perf_counter() - start
    report(
        7,
        worst_rho < 0.1 and worst_beta_z < 3.0 and elapsed < 120.0,
        f"worst |rho err| {worst_rho:.3f}, worst beta z {worst_beta_z:.2f} in {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 8: dataset-conditional reproduction of published values
# ---------------------------------------------------------------------------

boston_missing = not (FIXTURES / "boston" / "data.csv").exists()
katrina_missing = not (FIXTURES / "katrina" / "data.csv").exists()


@pytest.mark.skipif(boston_missing, reason="Boston fixture not bundled (public dataset)")
def test_criterion_8_boston_sem():
    from spatecon.dataio import read_data_csv, read_weights

    y, x, names = read_data_csv(FIXTURES / "boston" / "data.csv", "y")
    w = read_weights(FIXTURES / "boston" / "w.txt")
    if not w.standardized:
        w = se.row_standardize(w)
    fit = se.fit(se.build("sem", y, x, w, covariate_names=tuple(names)))
    rho = fit.rho_marginal.summary()
    coef = fit.coef_moments("logLSTAT")[0]
    ok = (
        abs(rho["mean"] - 0.744) < 0.03
        and abs(rho["sd"] - 0.033) < 0.01
        and abs(coef - (-0.22583)) < 0.01
    )
    report(
        "8 (Boston SEM)",
        ok,
        f"rho mean {rho['mean']:.3f}, sd {rho['sd']:.3f}, logLSTAT {coef:.5f}",
    )


@pytest.mark.skipif(katrina_missing, reason="Katrina fixture not bundled (public dataset)")
def test_criterion_8_katrina_sem():
    from spatecon.dataio import read_data_csv, read_points_csv
    from spatecon.impacts import average_impacts

    y, x, names = read_data_csv(FIXTURES / "katrina" / "data.csv", "y")
    coords, _ = read_points_csv(FIXTURES / "katrina" / "points.csv")
    w = se.row_standardize(se.knn_adjacency(coords, 11))
    fit = se.fit(
        se.build("sem", y, x, w, likelihood="probit", covariate_names=tuple(names))
    )
    direct_fd = average_impacts(fit, ["flood_depth"])["flood_depth"].direct.mean
    ok = (
        abs(fit.log_mlik - (-386.37)) < 1.0
        and abs(fit.dic - 664.40) < 2.0
        and abs(direct_fd - (-0.09265)) < 0.01
    )
    report(
        "8 (Katrina SEM)",
        ok,
        f"mlik {fit.log_mlik:.2f}, DIC {fit.dic:.2f}, "
        f"direct flood_depth {direct_fd:.5f}",
    )


@pytest.mark.skipif(boston_missing, reason="Boston fixture not bundled (public dataset)")
def test_boston_impact_values():
    from spatecon.dataio import read_data_csv, read_weights
    from spatecon.impacts import average_impacts

    y, x, names = read_data_csv(FIXTURES / "boston" / "data.csv", "y")
    w = read_weights(FIXTURES / "boston" / "w.txt")
    if not w.standardized:
        w = se.row_standardize(w)
    vals = {}
    for kind, which, want, tol in (
        ("sdem", "direct", -0.23317, 0.01),
        ("slx", "total", -0.41379, 0.01),
        ("slm", "total", -0.43566, 0.02),
    ):
        fit = se.fit(se.build(kind, y, x, w, covariate_names=tuple(names)))
        summ = average_impacts(fit, ["logLSTAT"])["logLSTAT"]
        vals[(kind, which)] = getattr(summ, which).mean
    ok = all(
        abs(vals[(kind, which)] - want) < tol
        for kind, which, want, tol in (
            ("sdem", "direct", -0.23317, 0.01),
            ("slx", "total", -0.41379, 0.01),
            ("slm", "total", -0.43566, 0.02),
        )
    )
    report("8 (Boston impacts)", ok, f"logLSTAT impacts {vals}")


boston_full_missing = not (FIXTURES / "boston_full" / "data.csv").exists()


@pytest.mark.skipif(
    boston_full_missing, reason="full Boston fixture not bundled (public dataset)"
)
def test_boston_censored_tract_predictions():
    """Censored tracts treated as NA: 11 of the 16 predictive medians fall
    below the censoring point (central tracts sit well below it)."""
    from spatecon.dataio import read_data_csv, read_weights

    y, x, names = read_data_csv(FIXTURES / "boston_full" / "data.csv", "y")
    w = read_weights(FIXTURES / "boston_full" / "w.txt")
    if not w.standardized:
        w = se.row_standardize(w)
    cutoff = math.log(50000.0)
    fit = se.fit(se.build("sem", y, x, w, covariate_names=tuple(names)))
    medians = [m.quantile(0.5) for m in fit.predictive.values()]
    below = sum(1 for m in medians if m < cutoff)
    report(
        "8 (Boston censored tracts)",
        len(medians) == 16 and below == 11,
        f"{below} of {len(medians)} predictive medians below the cut-off",
    )


@pytest.mark.skipif(katrina_missing, reason="Katrina fixture not bundled (public dataset)")
def test_criterion_8_katrina_neighbor_scan():
    from spatecon.dataio import read_data_csv, read_points_csv

    y, x, names = read_data_csv(FIXTURES / "katrina" / "data.csv", "y")
    coords, _ = read_points_csv(FIXTURES / "katrina" / "points.csv")
    uniform = selection.neighbor_scan(
        coords, y, x, "slm", range(5, 36), likelihood="probit",
        covariate_names=tuple(names),
    )
    informative = selection.neighbor_scan(
        coords, y, x, "slm", range(5, 36), likelihood="probit",
        prior="inverse_square", covariate_names=tuple(names),
    )
    best_u = uniform.best().label
    best_i = informative.best().label
    bma = selection.bma_combine(uniform, "flood_depth")
    ok = (
        best_u == "k=22"
        and best_i == "k=8"
        and abs(bma.mean() - (-0.132)) < 0.01
        and abs(bma.sd() - 0.047) < 0.01
    )
    report(
        "8 (Katrina scan)",
        ok,
        f"uniform argmax {best_u}, 1/k^2 argmax {best_i}, "
        f"BMA flood_depth ({bma.mean():.3f}, {bma.sd():.3f})",
    )
