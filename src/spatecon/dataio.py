"""File formats and run configuration.

Weights file: a plain-text sparse format with a single header line
"n nnz standardized" (standardized is 0 or 1) followed by nnz lines of
0-based "i j value" triples. Point files and data tables are CSV; the
missing-response token is the literal string NA.

Run configuration is an INI-style file (key/value grouped in sections);
see RunConfig for the recognized keys.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .engine import GridSettings
from .errors import InvalidInputError
from .models import ModelPriors
from .weights import WeightsMatrix

NA_TOKEN = "NA"


def fmt(x: float) -> str:
    """17 significant digits: enough for exact float64 round-trips."""
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# weights and point files
# ---------------------------------------------------------------------------


def read_weights(path) -> WeightsMatrix:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read weights file {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise InvalidInputError(f"{path}:1: empty weights file")
    head = lines[0].split()
    if len(head) != 3:
        raise InvalidInputError(
            f"{path}:1: header must be 'n nnz standardized', got {lines[0]!r}"
        )
    try:
        n, nnz, std_flag = int(head[0]), int(head[1]), int(head[2])
    except ValueError as exc:
        raise InvalidInputError(f"{path}:1: non-integer header field: {exc}") from exc
    if n < 1:
        raise InvalidInputError(f"{path}:1: n must be at least 1, got {n}")
    if std_flag not in (0, 1):
        raise InvalidInputError(f"{path}:1: standardized flag must be 0 or 1")
    rows, cols, vals = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise InvalidInputError(f"{path}:{lineno}: expected 'i j value'")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise InvalidInputError(f"{path}:{lineno}: {exc}") from exc
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidInputError(f"{path}:{lineno}: index out of range for n = {n}")
        rows.append(i)
        cols.append(j)
        vals.append(v)
    if len(vals) != nnz:
        raise InvalidInputError(
            f"{path}: header promises {nnz} entries, file has {len(vals)}"
        )
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    if mat.nnz != len(vals):
        raise InvalidInputError(f"{path}: duplicate (i, j) entries")
    islands = bool(np.any(np.asarray(abs(mat).sum(axis=1)).ravel() == 0.0))
    return WeightsMatrix(mat=mat, standardized=bool(std_flag), has_islands=islands)


def write_weights(path, w: WeightsMatrix) -> None:
    mat = w.mat.tocoo()
    out = io.StringIO()
    out.write(f"{w.n} {mat.nnz} {1 if w.standardized else 0}\n")
    order = np.lexsort((mat.col, mat.row))
    for i, j, v in zip(mat.row[order], mat.col[order], mat.data[order]):
        out.write(f"{i} {j} {fmt(v)}\n")
    Path(path).write_text(out.getvalue())


def read_points_csv(path) -> tuple[np.ndarray, list[str]]:
    """CSV with columns id,x,y -> (coords array, ids in file order)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read point file {path}: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or not {"id", "x", "y"}.issubset(reader.fieldnames):
        raise InvalidInputError(f"{path}:1: point file needs columns id,x,y")
    ids, xs, ys = [], [], []
    for lineno, row in enumerate(reader, start=2):
        try:
            xs.append(float(row["x"]))
            ys.append(float(row["y"]))
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"{path}:{lineno}: bad coordinate: {exc}") from exc
        ids.append(row["id"])
    if not ids:
        raise InvalidInputError(f"{path}: no points")
    return np.column_stack([xs, ys]), ids


def read_data_csv(path, response: str, covariates: list[str] | None = None):
    """Data table -> (y with NaN gaps, X, covariate names).

    Only the response column may contain the NA token; every other value
    must be a finite number.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InvalidInputError(f"cannot read data file {path}: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text))
    names = reader.fieldnames or []
    if response not in names:
        raise InvalidInputError(f"{path}:1: no response column {response!r}")
    if covariates is None:
        covariates = [c for c in names if c != response and c != "id"]
    missing_cols = [c for c in covariates if c not in names]
    if missing_cols:
        raise InvalidInputError(f"{path}:1: missing covariate column(s) {missing_cols}")
    y, rows = [], []
    for lineno, row in enumerate(reader, start=2):
        tok = (row[response] or "").strip()
        if tok == NA_TOKEN:
            y.append(np.nan)
        else:
            y.append(_finite(tok))
            if math.isnan(y[-1]):
                raise InvalidInputError(f"{path}:{lineno}: bad response value {tok!r}")
        vals = []
        for c in covariates:
            tok_c = (row[c] or "").strip()
            vals.append(_finite(tok_c))
            if math.isnan(vals[-1]):
                raise InvalidInputError(f"{path}:{lineno}: bad value {tok_c!r} in column {c!r}")
        rows.append(vals)
    if not y:
        raise InvalidInputError(f"{path}: no data rows")
    x = np.asarray(rows, dtype=float) if covariates else None
    return np.asarray(y, dtype=float), x, list(covariates)


def _finite(tok: str) -> float:
    """tok as a float, or NaN when it is not a finite number."""
    try:
        value = float(tok)
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


@dataclass
class RunConfig:
    data_csv: Path
    response: str
    covariates: list[str] | None
    weights_file: Path | None
    points_csv: Path | None
    knn_k: int | None
    kinds: list[str]
    likelihood: str
    priors: ModelPriors
    grid: GridSettings
    output_dir: Path
    scan_kind: str | None = None
    scan_k_min: int | None = None
    scan_k_max: int | None = None
    scan_prior: str = "uniform"
    impacts_enabled: bool = True

    def load_weights(self) -> WeightsMatrix:
        from .weights import knn_adjacency, row_standardize

        if self.weights_file is not None:
            w = read_weights(self.weights_file)
            return w if w.standardized else row_standardize(w)
        coords, _ = read_points_csv(self.points_csv)
        if self.knn_k is None:
            raise InvalidInputError("k is required with a point file")
        return row_standardize(knn_adjacency(coords, self.knn_k))

    def load_data(self):
        return read_data_csv(self.data_csv, self.response, self.covariates)


def _get(parser, section, key, default=None):
    if parser.has_option(section, key):
        val = parser.get(section, key).strip()
        return val if val else default
    return default


def _typed(parser, path, section, key, convert):
    """[section] key converted by convert (int or float); None if unset."""
    val = _get(parser, section, key)
    if val is None:
        return None
    try:
        return convert(val)
    except ValueError as exc:
        raise InvalidInputError(f"{path}: [{section}] {key}: {exc}") from exc


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _flag(parser, path, section, key, default: bool) -> bool:
    """[section] key as a boolean (1/true/yes/on or 0/false/no/off, any
    case); default if unset."""
    val = _get(parser, section, key)
    if val is None:
        return default
    if val.lower() in _TRUE:
        return True
    if val.lower() in _FALSE:
        return False
    raise InvalidInputError(
        f"{path}: [{section}] {key}: expected one of {'/'.join(_TRUE + _FALSE)}, got {val!r}"
    )


def parse_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise InvalidInputError(f"config file {path} does not exist")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc
    if not parser.has_section("data"):
        raise InvalidInputError(f"{path}: missing [data] section")
    base = path.parent

    def resolve(p):
        return None if p is None else (base / p if not Path(p).is_absolute() else Path(p))

    data_csv = resolve(_get(parser, "data", "data_csv"))
    if data_csv is None:
        raise InvalidInputError(f"{path}: [data] data_csv is required")
    response = _get(parser, "data", "response")
    if response is None:
        raise InvalidInputError(f"{path}: [data] response is required")
    covariates = _get(parser, "data", "covariates")
    covariates = [c.strip() for c in covariates.split(",")] if covariates else None
    weights_file = resolve(_get(parser, "data", "weights_file"))
    points_csv = resolve(_get(parser, "data", "points_csv"))
    if (weights_file is None) == (points_csv is None):
        raise InvalidInputError(
            f"{path}: [data] needs exactly one of weights_file or points_csv"
        )
    knn_k = _typed(parser, path, "data", "k", int)

    kinds_raw = _get(parser, "model", "kinds", "slm") if parser.has_section("model") else "slm"
    kinds = [k.strip().lower() for k in kinds_raw.split(",") if k.strip()]
    if not kinds:
        raise InvalidInputError(f"{path}: [model] kinds must be nonempty")
    likelihood = (_get(parser, "model", "likelihood", "gaussian") or "gaussian").lower()

    prior_kwargs = {}
    if parser.has_section("priors"):
        numeric = {
            "q_beta_diag", "rho_prior_mean", "rho_prior_prec", "tau_shape",
            "tau_rate", "tau_iid_shape", "tau_iid_rate", "tau_obs",
            "rho_fixed", "tau_fixed", "tau_iid_fixed",
        }
        for key in parser.options("priors"):
            val = _get(parser, "priors", key)
            if val is None:
                continue
            if key not in numeric:
                raise InvalidInputError(f"{path}: [priors] unknown key {key!r}")
            prior_kwargs[key] = _typed(parser, path, "priors", key, float)
    priors = ModelPriors(**prior_kwargs)

    grid_kwargs = {}
    for key, convert in (("k", int), ("step", float), ("drop", float)):
        val = _typed(parser, path, "grid", key, convert)
        if val is not None:
            grid_kwargs[key] = val
    grid = GridSettings(**grid_kwargs)

    out_dir = resolve(_get(parser, "output", "directory", "out") or "out")

    scan_kind = _get(parser, "scan", "kind") if parser.has_section("scan") else None
    scan_k_min = _typed(parser, path, "scan", "k_min", int)
    scan_k_max = _typed(parser, path, "scan", "k_max", int)
    scan_prior = (
        _get(parser, "scan", "prior", "uniform") if parser.has_section("scan") else "uniform"
    ) or "uniform"

    impacts_enabled = _flag(parser, path, "impacts", "enabled", True)

    return RunConfig(
        data_csv=data_csv,
        response=response,
        covariates=covariates,
        weights_file=weights_file,
        points_csv=points_csv,
        knn_k=knn_k,
        kinds=kinds,
        likelihood=likelihood,
        priors=priors,
        grid=grid,
        output_dir=out_dir,
        scan_kind=scan_kind.lower() if scan_kind else None,
        scan_k_min=scan_k_min,
        scan_k_max=scan_k_max,
        scan_prior=scan_prior,
        impacts_enabled=impacts_enabled,
    )
