"""Output checks for the benchmark workloads.

Every check compares a program output with a quantity computed here,
apart from the program's code paths (dense linear algebra on matrices
rebuilt from the generated inputs), or with a property the method must
have. None compares with a stored copy of earlier outputs. Each check
function returns a list of problems; an empty list means the outputs
passed.

The model constants below are the documented defaults of spatecon's
priors (vague coefficient precision 1e-3, Gaussian copy precision 1e8).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg as sla
from scipy.special import log_ndtr

Q_BETA = 1e-3
TAU_OBS = 1e8
KINDS = ("sem", "slm", "sdm", "sdem", "slx")


def knn_weights(coords: np.ndarray, k: int) -> np.ndarray:
    """Dense row-standardized kNN weights (ties to the smaller index)."""
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    nbrs = np.argsort(d2, axis=1, kind="stable")[:, :k]
    w = np.zeros_like(d2)
    w[np.repeat(np.arange(len(coords)), k), nbrs.ravel()] = 1.0 / k
    return w


def softmax(scores) -> np.ndarray:
    s = np.asarray(scores, dtype=float)
    e = np.exp(s - s.max())
    return e / e.sum()


def within_sd(label: str, truth: float, mean: float, sd: float, k: float = 4.0) -> list[str]:
    if abs(mean - truth) <= k * sd:
        return []
    return [f"{label}: truth {truth:.4g} is {abs(mean - truth) / sd:.2f} sd from mean {mean:.4g}"]


def slm_precision(w: np.ndarray, design: np.ndarray, rho: float, tau: float) -> np.ndarray:
    """Dense joint precision of (x, beta) for x = (I - rho W)^{-1}(X beta + eps)."""
    n, p = design.shape
    a = np.eye(n) - rho * w
    atx = a.T @ design
    q = np.empty((n + p, n + p))
    q[:n, :n] = tau * (a.T @ a)
    q[:n, n:] = -tau * atx
    q[n:, :n] = -tau * atx.T
    q[n:, n:] = Q_BETA * np.eye(p) + tau * (design.T @ design)
    return q


# ---------------------------------------------------------------------------
# gaussian_five_kinds: the CLI output directory
# ---------------------------------------------------------------------------


def read_table(path: Path) -> list[dict[str, str]]:
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError(f"{path.name}: missing header comment line")
    return list(csv.DictReader(lines[1:]))


def expected_files(covariates: list[str]) -> list[str]:
    names = ["coefficients.csv", "comparison.csv"]
    names += [f"impacts_{w}.csv" for w in ("direct", "indirect", "total")]
    for kind in KINDS:
        coefs = ["Intercept"] + covariates
        if kind in ("sdm", "sdem", "slx"):
            coefs += [f"lag_{c}" for c in covariates]
        names += [f"{kind}_{s}" for s in ("summary.json", "coefficients.csv", "predictive.csv",
                                           "impacts.csv", "density_tau.csv")]
        names += [f"{kind}_density_{c}.csv" for c in coefs]
        if kind != "slx":
            names.append(f"{kind}_density_rho.csv")
    return names


def _json_numbers(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _json_numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _json_numbers(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield float(obj)


def check_cli_outputs(out: Path, truth: dict, covariates: list[str]) -> list[str]:
    problems: list[str] = []
    missing = [f for f in expected_files(covariates) if not (out / f).is_file()]
    if missing:
        return [f"missing output files: {missing}"]
    text_cols = {"name", "kind", "covariate", "method"}
    tables = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            if not all(math.isfinite(v) for v in _json_numbers(json.loads(path.read_text()))):
                problems.append(f"{path.name}: non-finite value")
            continue
        rows = read_table(path)
        tables[path.name] = rows
        for row in rows:
            for col, tok in row.items():
                if col in text_cols or tok == "":
                    continue
                if not math.isfinite(float(tok)):
                    problems.append(f"{path.name}: non-finite {col} = {tok}")
        if "_density_" in path.name:
            x = np.array([float(r["value"]) for r in rows])
            d = np.array([float(r["density"]) for r in rows])
            mass = float(np.sum(0.5 * (d[1:] + d[:-1]) * np.diff(x)))
            if abs(mass - 1.0) > 1e-6:
                problems.append(f"{path.name}: density integrates to {mass:.9f}")

    comp = {r["kind"]: r for r in tables["comparison.csv"]}
    probs = np.array([float(comp[k]["posterior_prob"]) for k in KINDS])
    ref = softmax([float(comp[k]["log_mlik"]) for k in KINDS])
    if np.max(np.abs(probs - ref)) > 1e-12:
        problems.append(f"posterior_prob {probs} differs from softmax(log_mlik) {ref}")
    if KINDS[int(np.argmax(probs))] != "slm":
        problems.append(f"generating kind slm is not the most probable: {dict(zip(KINDS, probs))}")

    rho = json.loads((out / "slm_summary.json").read_text())["hyperparameters"]["rho"]
    problems += within_sd("slm rho", truth["rho"], rho["mean"], rho["sd"])
    coefs = {r["name"]: r for r in tables["slm_coefficients.csv"]}
    for name, b in zip(["(Intercept)"] + covariates, truth["beta"]):
        problems += within_sd(f"slm {name}", b, float(coefs[name]["mean"]), float(coefs[name]["sd"]))

    coef_means = {r["name"]: r for r in tables["coefficients.csv"]}
    for kind in KINDS:
        for r in tables[f"{kind}_impacts.csv"]:
            d, i, t = (float(r[f"{w}_mean"]) for w in ("direct", "indirect", "total"))
            if abs(d + i - t) > 1e-9 * max(1.0, abs(t)):
                problems.append(f"{kind} {r['covariate']}: direct + indirect != total")
            if kind == "sem":
                if float(r["indirect_mean"]) != 0.0 or float(r["indirect_sd"]) != 0.0:
                    problems.append(f"sem {r['covariate']}: non-zero indirect impact")
                beta = float(coef_means[r["covariate"]]["sem"])
                if abs(d - beta) > 1e-12 * max(1.0, abs(beta)):
                    problems.append(f"sem {r['covariate']}: direct {d} != coefficient mean {beta}")
        pred = {int(r["index"]): r for r in tables[f"{kind}_predictive.csv"]}
        for idx, y_true in zip(truth["masked"], truth["y_masked"]):
            r = pred.get(int(idx))
            if r is None:
                problems.append(f"{kind}: no predictive row for masked response {idx}")
                continue
            problems += within_sd(f"{kind} predictive[{idx}]", y_true, float(r["mean"]),
                                  float(r["sd"]), k=5.0)
    return problems


# ---------------------------------------------------------------------------
# probit_knn_scan: the ModelSet of the neighbour scan
# ---------------------------------------------------------------------------


def check_scan(mset, inputs: dict, truth: dict) -> list[str]:
    """Checks the fits the scan kept; a dropped k is a failed operation."""
    problems: list[str] = []
    kept = {e.label: e for e in mset.entries}
    k_values = [int(k) for k in inputs["k_values"] if f"k={int(k)}" in kept]
    if len(k_values) != len(kept):
        return [f"neighbour scan returned unexpected entries {list(kept)}"]
    # The scan's prior is uniform over k, renormalized over the kept fits.
    ref = softmax([e.log_mlik - math.log(len(kept)) for e in mset.entries])
    if np.max(np.abs(np.asarray(mset.posterior_probs) - ref)) > 1e-12:
        problems.append(f"posterior probs {mset.posterior_probs} != softmax {ref}")

    coords, x, y = inputs["coords"], inputs["x"], inputs["y"]
    design = np.hstack([np.ones((len(y), 1)), x])
    for k in k_values:
        fit = kept[f"k={k}"].fit
        w = knn_weights(coords, k)
        lam = np.linalg.eigvals(w)
        real = lam.real[np.abs(lam.imag) <= 1e-9]
        lo, hi = 1.0 / real.min(), 1.0 / real.max()
        if not np.allclose(fit.rho_bounds, (lo, hi), rtol=1e-8, atol=0):
            problems.append(f"k={k}: rho bounds {fit.rho_bounds} != dense ({lo}, {hi})")
        g = int(np.argmax(fit.weights))
        theta = fit.grid.theta_at(g)
        rho = lo + theta["rho_internal"] * (hi - lo)
        q = slm_precision(w, design, rho, math.exp(theta["log_tau"]))
        z = np.concatenate([fit.x_means[g], fit.coef_means[g]])
        t = 2.0 * y - 1.0
        u = t * z[: len(y)]
        score = t * np.exp(-0.5 * u * u - 0.5 * math.log(2 * math.pi) - log_ndtr(u))
        grad = -(q @ z)
        grad[: len(y)] += score
        gnorm = float(np.max(np.abs(grad)))
        if gnorm >= 1e-6:
            problems.append(f"k={k}: inner-mode gradient sup-norm {gnorm:.2e} >= 1e-6")
        if k == int(truth["true_k"]):
            rho_m = fit.rho_marginal
            problems += within_sd(f"k={k} rho", float(truth["rho"]), rho_m.mean(), rho_m.sd())
            for j, b in enumerate(truth["beta"]):
                mean, var = fit.coef_moments(j)
                problems += within_sd(f"k={k} {fit.coef_names[j]}", float(b), mean, math.sqrt(var))
    return problems


# ---------------------------------------------------------------------------
# large_gaussian_slm: the fit and its impacts
# ---------------------------------------------------------------------------


def _mixture(means, variances, weights) -> tuple[float, float]:
    mean = float(weights @ means)
    var = float(weights @ (variances + means**2)) - mean**2
    return mean, math.sqrt(max(var, 0.0))


def check_large(fit, impacts: dict, inputs: dict) -> list[str]:
    problems: list[str] = []
    coords, x, y = inputs["coords"], inputs["x"], inputs["y"]
    n = len(y)
    design = np.hstack([np.ones((n, 1)), x])
    w = knn_weights(coords, int(inputs["k"]))
    lo, hi = fit.rho_bounds
    weights = fit.weights
    g_star = int(np.argmax(weights))

    theta = fit.grid.theta_at(g_star)
    r_internal = np.array([fit.grid.theta_at(g)["rho_internal"] for g in range(len(weights))])
    t1 = {}
    for r in np.unique(r_internal):
        a_inv = np.linalg.inv(np.eye(n) - (lo + r * (hi - lo)) * w)
        t1[r] = float(np.trace(a_inv)) / n
        if r == theta["rho_internal"]:
            ai = a_inv
    rho, tau = lo + theta["rho_internal"] * (hi - lo), math.exp(theta["log_tau"])
    m = ai @ design
    cov_y = m @ m.T / Q_BETA + ai @ ai.T / tau + np.eye(n) / TAU_OBS
    chol = sla.cho_factor(cov_y, lower=True)
    log_density = -0.5 * (
        n * math.log(2 * math.pi)
        + 2.0 * float(np.sum(np.log(np.diag(chol[0]))))
        + float(y @ sla.cho_solve(chol, y))
    )
    log_ev = float(fit.grid.log_evidence[g_star])
    if abs(log_ev - log_density) > 1e-8 * max(1.0, abs(log_density)):
        problems.append(f"log evidence {log_ev} != dense MVN log density {log_density}")
    del cov_y, chol, m, ai

    q = slm_precision(w, design, rho, tau)
    q[np.arange(n), np.arange(n)] += TAU_OBS
    chol = sla.cho_factor(q, lower=True)
    p = design.shape[1]
    rhs = np.zeros((n + p, p + 1))
    rhs[:n, 0] = TAU_OBS * y
    rhs[n + np.arange(p), 1 + np.arange(p)] = 1.0
    sol = sla.cho_solve(chol, rhs)
    mean_c, cov_c = sol[n:, 0], sol[n:, 1:]
    if not np.allclose(fit.coef_means[g_star], mean_c, rtol=1e-8, atol=1e-12):
        problems.append(f"coefficient mean {fit.coef_means[g_star]} != dense {mean_c}")
    if not np.allclose(fit.coef_covs[g_star], cov_c, rtol=1e-8, atol=1e-15):
        problems.append("coefficient covariance differs from the dense posterior")
    del q, chol

    rho_g = lo + r_internal * (hi - lo)
    t1_g = np.array([t1[r] for r in r_internal])
    for j, name in enumerate(fit.coef_names[1:], start=1):
        beta_g, var_g = fit.coef_means[:, j], fit.coef_covs[:, j, j]
        for which, scale in (("direct", t1_g), ("total", 1.0 / (1.0 - rho_g))):
            ref_mean, ref_sd = _mixture(beta_g * scale, var_g * scale**2, weights)
            got = getattr(impacts[name], which).mean
            if abs(got - ref_mean) > 0.1 * ref_sd:
                problems.append(
                    f"{name} {which} impact {got:.6g} differs from the grid mixture "
                    f"{ref_mean:.6g} by more than 0.1 sd ({ref_sd:.3g})"
                )
    return problems
