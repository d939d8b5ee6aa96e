"""File formats and run configuration.

Weights file: a plain-text sparse format with a single header line
"n nnz standardized" (standardized is 0 or 1) followed by nnz lines of
0-based "i j value" triples. Point files and data tables are CSV; the
missing-response token is the literal string NA.

Run configuration is an INI-style file (key/value grouped in sections);
_KEYS lists every section and key it may hold.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
from dataclasses import dataclass, fields
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


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _flag(value: str) -> bool:
    """1/true/yes/on or 0/false/no/off, any case."""
    if value.lower() in _TRUE + _FALSE:
        return value.lower() in _TRUE
    raise ValueError(f"expected one of {'/'.join(_TRUE + _FALSE)}, got {value!r}")


def _names(value: str) -> list[str]:
    return [name.strip() for name in value.split(",")]


def _kinds(value: str) -> list[str]:
    return [kind.lower() for kind in _names(value) if kind]


# Every section and key a config may hold, with the function that reads a
# non-empty value (a ValueError from it is an input error naming the key).
_KEYS = {
    "data": {
        "data_csv": Path, "response": str, "covariates": _names,
        "weights_file": Path, "points_csv": Path, "k": int,
    },
    "model": {"kinds": _kinds, "likelihood": str.lower},
    "priors": dict.fromkeys((f.name for f in fields(ModelPriors)), float),
    "grid": {f.name: type(f.default) for f in fields(GridSettings)},
    "impacts": {"enabled": _flag},
    "scan": {"kind": str.lower, "k_min": int, "k_max": int, "prior": str},
    "output": {"directory": Path},
}


def parse_config(path) -> RunConfig:
    """Read a run config. An unknown section or key, [DEFAULT] included, is
    an InvalidInputError; an empty value leaves its key unset."""
    path = Path(path)
    if not path.exists():
        raise InvalidInputError(f"config file {path} does not exist")
    # No header can name the empty section, so [DEFAULT] is an ordinary
    # section here, refused as unknown, and no key leaks into the others.
    parser = configparser.ConfigParser(default_section="")
    values = {section: {} for section in _KEYS}
    try:
        parser.read(path)
        for section in parser.sections():
            if section not in _KEYS:
                raise InvalidInputError(f"{path}: unknown section [{section}]")
            for key, raw in parser.items(section):
                if key not in _KEYS[section]:
                    raise InvalidInputError(f"{path}: [{section}] unknown key {key!r}")
                if raw := raw.strip():
                    try:
                        values[section][key] = _KEYS[section][key](raw)
                    except ValueError as exc:
                        raise InvalidInputError(f"{path}: [{section}] {key}: {exc}") from exc
    except configparser.Error as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc
    if not parser.has_section("data"):
        raise InvalidInputError(f"{path}: missing [data] section")
    data, model, scan = values["data"], values["model"], values["scan"]
    for key in ("data_csv", "response"):
        if key not in data:
            raise InvalidInputError(f"{path}: [data] {key} is required")
    if ("weights_file" in data) == ("points_csv" in data):
        raise InvalidInputError(
            f"{path}: [data] needs exactly one of weights_file or points_csv"
        )
    kinds = model.get("kinds", ["slm"])
    if not kinds:
        raise InvalidInputError(f"{path}: [model] kinds must be nonempty")
    # Relative paths are read from the config's directory.
    base = path.parent
    return RunConfig(
        data_csv=base / data["data_csv"],
        response=data["response"],
        covariates=data.get("covariates"),
        weights_file=base / data["weights_file"] if "weights_file" in data else None,
        points_csv=base / data["points_csv"] if "points_csv" in data else None,
        knn_k=data.get("k"),
        kinds=kinds,
        likelihood=model.get("likelihood", "gaussian"),
        priors=ModelPriors(**values["priors"]),
        grid=GridSettings(**values["grid"]),
        output_dir=base / values["output"].get("directory", "out"),
        scan_kind=scan.get("kind"),
        scan_k_min=scan.get("k_min"),
        scan_k_max=scan.get("k_max"),
        scan_prior=scan.get("prior", "uniform"),
        impacts_enabled=values["impacts"].get("enabled", True),
    )
