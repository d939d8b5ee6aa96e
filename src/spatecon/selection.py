"""Model comparison, neighbour scans, Bayesian model averaging.

Posterior model probabilities re-scale marginal likelihoods (times model
priors) to sum to one. The neighbour scan refits one model kind over a
range of k-nearest-neighbour adjacencies and weights the fits either
uniformly or by an informative pi(k) proportional to 1/k^2. Failed fits
are dropped with a warning and the probabilities renormalized.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import models
from .engine import FitResult, GridSettings
from .errors import InvalidInputError, InvalidParameterError
from .marginals import Marginal, combine_on_common_support
from .weights import knn_adjacency, knn_truncate, row_standardize

# The priors on k a neighbour scan takes: uniform, or proportional to 1/k^2
# under either of its two names.
SCAN_PRIORS = ("uniform", "inverse_square", "1/k^2")


def posterior_model_probs(log_mliks, prior_probs=None) -> np.ndarray:
    """Softmax of log marginal likelihood + log prior, max-subtracted."""
    log_mliks = np.asarray(log_mliks, dtype=float)
    if log_mliks.size == 0:
        raise InvalidInputError("no models to compare")
    if np.all(np.isneginf(log_mliks)):
        raise InvalidInputError("all marginal likelihoods are -inf")
    if np.any(np.isnan(log_mliks)) or np.any(log_mliks == np.inf):
        raise InvalidInputError("marginal likelihoods must be finite or -inf")
    if prior_probs is None:
        prior = np.full(log_mliks.size, 1.0 / log_mliks.size)
    else:
        prior = np.asarray(prior_probs, dtype=float)
        if prior.shape != log_mliks.shape:
            raise InvalidInputError("one prior probability per model required")
        if np.any(prior <= 0):
            raise InvalidInputError("prior probabilities must be strictly positive")
        prior = prior / prior.sum()
    score = log_mliks + np.log(prior)
    score -= score.max()
    w = np.exp(score)
    return w / w.sum()


@dataclass
class ModelSetEntry:
    label: str
    fit: FitResult | None
    log_mlik: float
    dic: float
    prior_prob: float


@dataclass
class ModelSet:
    entries: list[ModelSetEntry]
    posterior_probs: np.ndarray = field(init=False)

    def __post_init__(self):
        self.posterior_probs = posterior_model_probs(
            [e.log_mlik for e in self.entries],
            [e.prior_prob for e in self.entries],
        )

    def best(self) -> ModelSetEntry:
        return self.entries[int(np.argmax(self.posterior_probs))]


def model_set(labeled_fits, prior_probs=None) -> ModelSet:
    """Wrap (label, FitResult) pairs into a comparable set."""
    labeled_fits = list(labeled_fits)
    if prior_probs is None:
        prior_probs = [1.0 / len(labeled_fits)] * len(labeled_fits)
    entries = [
        ModelSetEntry(label, f, f.log_mlik, f.dic, p)
        for (label, f), p in zip(labeled_fits, prior_probs)
    ]
    return ModelSet(entries)


def k_range_issue(k_range, n: int) -> str | None:
    """Why a neighbour scan over n regions refuses k_range, or None."""
    if not k_range:
        return "k_range must be nonempty"
    if any(k < 1 or k >= n for k in k_range):
        return f"every k must satisfy 1 <= k < n = {n}"
    return None


def neighbor_scan(
    coords,
    y,
    x,
    kind: str,
    k_range,
    likelihood: str = "gaussian",
    prior: str = "uniform",
    priors: models.ModelPriors | None = None,
    covariate_names=None,
    settings: GridSettings | None = None,
    threads: int = 1,
) -> ModelSet:
    """Fit one model kind across kNN adjacencies for each k in k_range,
    on up to `threads` worker threads. The arguments are checked before
    the neighbour query."""
    k_range = [int(k) for k in k_range]
    if threads < 1:
        raise InvalidParameterError(f"threads must be >= 1, got {threads}")
    issue = k_range_issue(k_range, np.asarray(y).shape[0])
    if issue is not None:
        raise InvalidParameterError(issue)
    if kind not in models.KINDS:
        raise InvalidParameterError(f"unknown model kind {kind!r}; expected one of {models.KINDS}")
    if likelihood not in models.LIKELIHOODS:
        raise InvalidParameterError(
            f"unknown likelihood {likelihood!r}; expected one of {models.LIKELIHOODS}"
        )
    if prior not in SCAN_PRIORS:
        raise InvalidParameterError(f"unknown scan prior {prior!r}; expected one of {SCAN_PRIORS}")
    if prior == "uniform":
        prior_weights = np.ones(len(k_range))
    else:
        prior_weights = 1.0 / np.asarray(k_range, dtype=float) ** 2
    prior_weights = prior_weights / prior_weights.sum()
    # One neighbour query at the largest k; every k reads its graph off it.
    widest = knn_adjacency(coords, max(k_range))

    def fit_one(k: int) -> FitResult:
        w = row_standardize(knn_truncate(widest, coords, k))
        spec = models.build(
            kind,
            y,
            x,
            w,
            likelihood=likelihood,
            priors=priors,
            covariate_names=covariate_names,
        )
        return models.fit(spec, settings)

    results: list[FitResult | Exception] = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for fut in [pool.submit(fit_one, k) for k in k_range]:
            try:
                results.append(fut.result())
            except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                results.append(exc)

    entries: list[ModelSetEntry] = []
    kept_priors: list[float] = []
    for k, pw, res in zip(k_range, prior_weights, results):
        if isinstance(res, Exception):
            warnings.warn(f"fit for k = {k} failed and was dropped: {res}", stacklevel=2)
            continue
        entries.append(ModelSetEntry(f"k={k}", res, res.log_mlik, res.dic, pw))
        kept_priors.append(pw)
    if not entries:
        raise InvalidInputError("every fit in the neighbour scan failed")
    total = sum(kept_priors)
    for e in entries:
        e.prior_prob = e.prior_prob / total
    return ModelSet(entries)


def bma_combine(model_set: ModelSet, quantity, n_points: int = 801) -> Marginal:
    """Posterior-probability-weighted mixture of one marginal across models.

    quantity is a coefficient name or a callable FitResult -> Marginal.
    """
    if callable(quantity):
        get = quantity
    else:
        def get(f):
            if f is None:
                raise InvalidInputError("model carries no fit")
            return f.coef_marginal(quantity)

    component: list[Marginal] = []
    for e in model_set.entries:
        try:
            component.append(get(e.fit))
        except Exception as exc:
            raise InvalidInputError(
                f"quantity unavailable for model {e.label!r}: {exc}"
            ) from exc
    return combine_on_common_support(component, model_set.posterior_probs, n_points)


def scan_table(model_set: ModelSet) -> list[dict]:
    """Rows (label, k, log_mlik, dic, prior_prob, posterior_prob) for export."""
    rows = []
    for e, post in zip(model_set.entries, model_set.posterior_probs):
        k_val = e.label.split("=")[-1] if "=" in e.label else ""
        rows.append(
            {
                "k": k_val,
                "log_mlik": e.log_mlik,
                "dic": e.dic,
                "prior_prob": e.prior_prob,
                "posterior_prob": float(post),
            }
        )
    return rows


def stepwise_select(
    y,
    x: np.ndarray,
    w,
    kind: str,
    likelihood: str = "gaussian",
    covariate_names=None,
    priors: models.ModelPriors | None = None,
    settings: GridSettings | None = None,
    delta: float = 2.0,
    max_steps: int = 50,
) -> tuple[list[str], list[dict]]:
    """Greedy forward-backward variable selection on DIC.

    A move (adding or dropping one covariate) is accepted when it improves
    DIC by more than delta. Returns the selected names and the move history.
    Greedy search can end in a sub-optimal model; it never enumerates all
    subsets.
    """
    x = np.asarray(x, dtype=float)
    if covariate_names is None:
        covariate_names = [f"x{j + 1}" for j in range(x.shape[1])]
    covariate_names = list(covariate_names)
    name_to_col = {name: j for j, name in enumerate(covariate_names)}

    def dic_of(selected: list[str]) -> float:
        cols = [name_to_col[s] for s in selected]
        xs = x[:, cols] if cols else None
        spec = models.build(
            kind, y, xs, w, likelihood=likelihood, priors=priors,
            covariate_names=tuple(selected),
        )
        return models.fit(spec, settings).dic

    selected: list[str] = []
    current = dic_of(selected)
    history = [{"action": "start", "selected": [], "dic": current}]
    for _ in range(max_steps):
        best_move = None
        best_dic = current
        for name in covariate_names:
            if name in selected:
                cand = [s for s in selected if s != name]
                action = ("drop", name)
            else:
                cand = selected + [name]
                action = ("add", name)
            d = dic_of(cand)
            if d < best_dic - delta:
                best_dic = d
                best_move = (action, cand)
        if best_move is None:
            break
        (action, name), selected = best_move[0], best_move[1]
        current = best_dic
        history.append(
            {"action": f"{action} {name}", "selected": list(selected), "dic": current}
        )
    return selected, history
