"""Seeded input generator for the benchmark workloads.

Runs as its own process so that generating the inputs never counts
towards the workload's set-up time or peak memory:

    python3 perfbench/gen.py --workload NAME --seed N --dir DIR [--size tiny]

It writes into DIR the files the workload reads (data CSV, points CSV,
weights file, run config, and ``inputs.npz`` with the same coordinates,
covariates and responses as arrays) plus ``truth.npz`` with the
generating parameters and the true values of the masked responses,
which only the output checks read.

The point locations are a fixed map, drawn from a Generator seeded with
``MAP_SEED`` whatever ``N`` is, as the paper's case studies fit many
models on one fixed map. Covariates, errors and masked responses are
drawn from a Generator seeded with ``N``. So the same seed gives
byte-identical files, and the sparse structure of every weights matrix,
which sets the cost of each factorization, is the same on every seed.

The generator uses numpy and scipy only; it does not import spatecon.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np
from scipy.spatial import Delaunay

# Make-up of each workload's inputs. "tiny" is the self-test size.
SIZES = {
    "gaussian_five_kinds": {"full": dict(n=506, n_na=16), "tiny": dict(n=120, n_na=4)},
    "probit_knn_scan": {
        "full": dict(n=673, k_values=(6, 9, 12)),
        "tiny": dict(n=200, k_values=(6, 9)),
    },
    "large_gaussian_slm": {"full": dict(n=2100), "tiny": dict(n=150)},
}
GAUSSIAN_BETA = (1.0, 0.8, -0.6, 0.5, -0.4)  # intercept, x1..x4
GAUSSIAN_RHO, GAUSSIAN_SIGMA = 0.6, 0.5
PROBIT_BETA = (0.3, 1.0, -0.8, 0.6)  # intercept, x1..x3
PROBIT_RHO, PROBIT_TRUE_K = 0.5, 9
LARGE_BETA = (1.0, 0.8, -0.5)  # intercept, x1, x2
LARGE_RHO, LARGE_SIGMA, LARGE_K = 0.5, 0.5, 6
MAP_SEED = 0


def fixed_map(n: int) -> np.ndarray:
    """n points uniform on the unit square, the same on every seed."""
    return np.random.default_rng(MAP_SEED).uniform(size=(n, 2))


def knn_row_standardized(coords: np.ndarray, k: int) -> np.ndarray:
    """Dense row-standardized kNN weights (ties to the smaller index)."""
    d2 = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    nbrs = np.argsort(d2, axis=1, kind="stable")[:, :k]
    w = np.zeros_like(d2)
    w[np.repeat(np.arange(len(coords)), k), nbrs.ravel()] = 1.0 / k
    return w


def delaunay_adjacency(coords: np.ndarray) -> np.ndarray:
    """Symmetric binary contiguity-like adjacency from a Delaunay mesh."""
    n = len(coords)
    adj = np.zeros((n, n))
    for simplex in Delaunay(coords).simplices:
        for a in simplex:
            for b in simplex:
                if a != b:
                    adj[a, b] = 1.0
    return adj


def simulate_slm(rng, w, design, beta, rho, sigma):
    """y = (I - rho W)^{-1} (X beta + eps), eps ~ N(0, sigma^2 I)."""
    n = w.shape[0]
    eps = rng.normal(scale=sigma, size=n)
    return np.linalg.solve(np.eye(n) - rho * w, design @ np.asarray(beta) + eps)


def write_points(path: Path, coords: np.ndarray) -> None:
    lines = ["id,x,y"] + [f"{i},{x:.17g},{y:.17g}" for i, (x, y) in enumerate(coords)]
    path.write_text("\n".join(lines) + "\n")


def write_data(path: Path, y: np.ndarray, x: np.ndarray) -> None:
    cols = ["id", "y"] + [f"x{j + 1}" for j in range(x.shape[1])]
    lines = [",".join(cols)]
    for i in range(len(y)):
        y_tok = "NA" if np.isnan(y[i]) else f"{y[i]:.17g}"
        lines.append(",".join([str(i), y_tok] + [f"{v:.17g}" for v in x[i]]))
    path.write_text("\n".join(lines) + "\n")


def write_binary_weights(path: Path, adj: np.ndarray) -> None:
    rows, cols = np.nonzero(adj)
    lines = [f"{adj.shape[0]} {rows.size} 0"] + [f"{i} {j} 1" for i, j in zip(rows, cols)]
    path.write_text("\n".join(lines) + "\n")


def gen_gaussian_five_kinds(rng, out: Path, n: int, n_na: int) -> None:
    coords = fixed_map(n)
    adj = delaunay_adjacency(coords)
    w = adj / adj.sum(axis=1, keepdims=True)
    x = rng.normal(size=(n, len(GAUSSIAN_BETA) - 1))
    design = np.hstack([np.ones((n, 1)), x])
    y_full = simulate_slm(rng, w, design, GAUSSIAN_BETA, GAUSSIAN_RHO, GAUSSIAN_SIGMA)
    masked = np.sort(rng.choice(n, size=n_na, replace=False))
    y = y_full.copy()
    y[masked] = np.nan
    write_points(out / "points.csv", coords)
    write_data(out / "data.csv", y, x)
    write_binary_weights(out / "weights.txt", adj)
    covs = ",".join(f"x{j + 1}" for j in range(x.shape[1]))
    (out / "run.ini").write_text(
        "[data]\ndata_csv = data.csv\nresponse = y\n"
        f"covariates = {covs}\nweights_file = weights.txt\n\n"
        "[model]\nkinds = sem,slm,sdm,sdem,slx\nlikelihood = gaussian\n\n"
        "[impacts]\nenabled = true\n\n[output]\ndirectory = cli_out\n"
    )
    np.savez(out / "inputs.npz", coords=coords, x=x, y=y)
    np.savez(
        out / "truth.npz", beta=GAUSSIAN_BETA, rho=GAUSSIAN_RHO, sigma=GAUSSIAN_SIGMA,
        masked=masked, y_masked=y_full[masked],
    )


def gen_probit_knn_scan(rng, out: Path, n: int, k_values) -> None:
    coords = fixed_map(n)
    w = knn_row_standardized(coords, PROBIT_TRUE_K)
    x = rng.normal(size=(n, len(PROBIT_BETA) - 1))
    design = np.hstack([np.ones((n, 1)), x])
    latent = simulate_slm(rng, w, design, PROBIT_BETA, PROBIT_RHO, 1.0)
    y = (latent > 0.0).astype(float)
    write_points(out / "points.csv", coords)
    write_data(out / "data.csv", y, x)
    np.savez(out / "inputs.npz", coords=coords, x=x, y=y, k_values=np.asarray(k_values))
    np.savez(out / "truth.npz", beta=PROBIT_BETA, rho=PROBIT_RHO, true_k=PROBIT_TRUE_K)


def gen_large_gaussian_slm(rng, out: Path, n: int) -> None:
    coords = fixed_map(n)
    w = knn_row_standardized(coords, LARGE_K)
    x = rng.normal(size=(n, len(LARGE_BETA) - 1))
    design = np.hstack([np.ones((n, 1)), x])
    y = simulate_slm(rng, w, design, LARGE_BETA, LARGE_RHO, LARGE_SIGMA)
    write_points(out / "points.csv", coords)
    write_data(out / "data.csv", y, x)
    np.savez(out / "inputs.npz", coords=coords, x=x, y=y, k=LARGE_K)
    np.savez(out / "truth.npz", beta=LARGE_BETA, rho=LARGE_RHO, sigma=LARGE_SIGMA)


GENERATORS = {
    "gaussian_five_kinds": gen_gaussian_five_kinds,
    "probit_knn_scan": gen_probit_knn_scan,
    "large_gaussian_slm": gen_large_gaussian_slm,
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    args = parser.parse_args()
    args.dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    GENERATORS[args.workload](rng, args.dir, **SIZES[args.workload][args.size])


if __name__ == "__main__":
    main()
