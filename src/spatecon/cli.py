"""Batch front end: fit, scan, impacts, validate.

Exit codes: 0 success, 2 input/parse error, 3 numeric failure. On
failure every output file the run created is removed, so an output
directory never holds a partial result set. All floats are printed with
17 significant digits and every table starts with a comment line naming
units and scale, which makes repeated runs byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import impacts as impacts_mod
from . import models, selection
from .dataio import RunConfig, fmt, parse_config
from .engine import binary_response
from .errors import InvalidInputError, InvalidParameterError, NumericFailureError
from .gmrf import badly_scaled

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class _OutputTracker:
    """Records files written by one run so failures can clean up."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.created: list[Path] = []

    def path(self, name: str) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        p = self.directory / name
        self.created.append(p)
        return p

    def write_text(self, name: str, text: str) -> None:
        self.path(name).write_text(text)

    def cleanup(self) -> None:
        for p in self.created:
            try:
                p.unlink(missing_ok=True)
            except OSError:
                pass


def _csv_lines(header_comment: str, columns: list[str], rows) -> str:
    lines = [f"# {header_comment}"]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _marginal_csv(marg, comment: str) -> str:
    rows = [(fmt(x), fmt(d)) for x, d in zip(marg.support, marg.density)]
    return _csv_lines(comment, ["value", "density"], rows)


def _fit_outputs(fit, kind: str, out: _OutputTracker) -> None:
    hyper = fit.hyper_summary()
    summary = {
        "kind": kind,
        "likelihood": fit.likelihood,
        "n": fit.n,
        "log_mlik": fit.log_mlik,
        "dic": fit.dic,
        "effective_params": fit.p_eff,
        "hyperparameters": hyper,
        "rho_scale": "external"
        if fit.rho_bounds is not None
        else "not applicable",
        "rho_bounds": list(fit.rho_bounds) if fit.rho_bounds else None,
    }
    out.write_text(
        f"{kind}_summary.json",
        json.dumps(summary, sort_keys=True, indent=2, allow_nan=True) + "\n",
    )

    margs = {name: fit.coef_marginal(name) for name in fit.coef_names}
    rows = []
    for name, marg in margs.items():
        s = marg.summary()
        rows.append(
            (name, fmt(s["mean"]), fmt(s["sd"]), fmt(s["0.025quant"]), fmt(s["0.975quant"]))
        )
    out.write_text(
        f"{kind}_coefficients.csv",
        _csv_lines(
            f"{kind} coefficient posteriors; linear-predictor scale",
            ["name", "mean", "sd", "0.025quant", "0.975quant"],
            rows,
        ),
    )

    if fit.rho_marginal is not None:
        lo, hi = fit.rho_bounds
        out.write_text(
            f"{kind}_density_rho.csv",
            _marginal_csv(
                fit.rho_marginal,
                f"rho posterior density on external scale (rho_min={fmt(lo)}, rho_max={fmt(hi)})",
            ),
        )
    if fit.tau_marginal is not None:
        out.write_text(
            f"{kind}_density_tau.csv",
            _marginal_csv(fit.tau_marginal, "precision posterior density (precision scale)"),
        )
    for name, marg in margs.items():
        safe = name.replace("(", "").replace(")", "").replace(".", "_")
        out.write_text(
            f"{kind}_density_{safe}.csv",
            _marginal_csv(marg, f"posterior density of {name}"),
        )

    if fit.predictive:
        rows = []
        for idx in sorted(fit.predictive):
            s = fit.predictive[idx].summary()
            rows.append(
                (str(idx), fmt(s["mean"]), fmt(s["sd"]), fmt(s["0.025quant"]), fmt(s["0.975quant"]))
            )
        scale = "response scale" if fit.likelihood == "gaussian" else "success probability"
        out.write_text(
            f"{kind}_predictive.csv",
            _csv_lines(
                f"predictive marginals for NA responses; {scale}",
                ["index", "mean", "sd", "0.025quant", "0.975quant"],
                rows,
            ),
        )


def _impact_outputs(fits: dict, out: _OutputTracker) -> None:
    per_kind = {}
    for kind, fit in fits.items():
        if not fit.model.covariate_names:
            continue
        per_kind[kind] = impacts_mod.average_impacts(fit)
        rows = []
        for name, summ in per_kind[kind].items():
            rows.append(
                (
                    name,
                    fmt(summ.direct.mean), fmt(summ.direct.sd),
                    fmt(summ.indirect.mean), fmt(summ.indirect.sd),
                    fmt(summ.total.mean), fmt(summ.total.sd),
                    summ.method,
                )
            )
        out.write_text(
            f"{kind}_impacts.csv",
            _csv_lines(
                f"{kind} average impacts; response scale per unit covariate",
                [
                    "covariate", "direct_mean", "direct_sd", "indirect_mean",
                    "indirect_sd", "total_mean", "total_sd", "method",
                ],
                rows,
            ),
        )
    if not per_kind:
        return
    covs = list(next(iter(per_kind.values())).keys())
    for which in ("direct", "indirect", "total"):
        rows = []
        for cov in covs:
            row = [cov]
            for kind in per_kind:
                row.append(fmt(getattr(per_kind[kind][cov], which).mean))
            rows.append(tuple(row))
        out.write_text(
            f"impacts_{which}.csv",
            _csv_lines(
                f"average {which} impacts (posterior means); rows covariates, columns models",
                ["covariate"] + list(per_kind),
                rows,
            ),
        )


def _fit_kinds(config: RunConfig):
    """Build and fit each configured kind in turn, yielding (kind, fit)."""
    y, x, cov_names = config.load_data()
    w = config.load_weights()
    for kind in config.kinds:
        spec = models.build(
            kind, y, x, w,
            likelihood=config.likelihood,
            priors=config.priors,
            covariate_names=tuple(cov_names) if cov_names else None,
        )
        yield kind, models.fit(spec, config.grid)


def cmd_fit(config: RunConfig, out: _OutputTracker) -> int:
    fits = {}
    for kind, fit in _fit_kinds(config):
        fits[kind] = fit
        _fit_outputs(fit, kind, out)

    all_names: list[str] = []
    for fit in fits.values():
        for name in fit.coef_names:
            if name not in all_names:
                all_names.append(name)
    rows = []
    for name in all_names:
        row = [name]
        for kind, fit in fits.items():
            row.append(fmt(fit.coef_moments(name)[0]) if name in fit.coef_names else "")
        rows.append(tuple(row))
    out.write_text(
        "coefficients.csv",
        _csv_lines(
            "coefficient posterior means; rows coefficients, columns models",
            ["name"] + list(fits),
            rows,
        ),
    )

    mset = selection.model_set([(kind, fit) for kind, fit in fits.items()])
    rows = [
        (e.label, fmt(e.log_mlik), fmt(e.dic), fmt(e.fit.p_eff), fmt(p))
        for e, p in zip(mset.entries, mset.posterior_probs)
    ]
    out.write_text(
        "comparison.csv",
        _csv_lines(
            "model comparison; uniform model prior",
            ["kind", "log_mlik", "dic", "effective_params", "posterior_prob"],
            rows,
        ),
    )

    if config.impacts_enabled:
        _impact_outputs(fits, out)
    return EXIT_OK


def cmd_scan(config: RunConfig, out: _OutputTracker, threads: int) -> int:
    if config.points_csv is None:
        raise InvalidInputError("scan requires [data] points_csv (adjacency is rebuilt per k)")
    if config.scan_k_min is None or config.scan_k_max is None:
        raise InvalidInputError("scan requires [scan] k_min and k_max")
    y, x, cov_names = config.load_data()
    from .dataio import read_points_csv

    coords, _ = read_points_csv(config.points_csv)
    kind = config.scan_kind or config.kinds[0]
    mset = selection.neighbor_scan(
        coords, y, x, kind,
        range(config.scan_k_min, config.scan_k_max + 1),
        likelihood=config.likelihood,
        prior=config.scan_prior,
        priors=config.priors,
        covariate_names=tuple(cov_names) if cov_names else None,
        settings=config.grid,
        threads=threads,
    )
    rows = [
        (r["k"], fmt(r["log_mlik"]), fmt(r["dic"]), fmt(r["prior_prob"]), fmt(r["posterior_prob"]))
        for r in selection.scan_table(mset)
    ]
    out.write_text(
        "scan.csv",
        _csv_lines(
            f"neighbour scan of {kind}; prior = {config.scan_prior}",
            ["k", "log_mlik", "dic", "prior_prob", "posterior_prob"],
            rows,
        ),
    )
    for name in (["(Intercept)"] + list(cov_names or [])):
        try:
            marg = selection.bma_combine(mset, name)
        except InvalidInputError:
            continue
        safe = name.replace("(", "").replace(")", "").replace(".", "_")
        out.write_text(
            f"scan_bma_{safe}.csv",
            _marginal_csv(marg, f"BMA posterior density of {name} across k"),
        )
    return EXIT_OK


def cmd_impacts(config: RunConfig, out: _OutputTracker) -> int:
    _impact_outputs(dict(_fit_kinds(config)), out)
    return EXIT_OK


def validate_config(config: RunConfig) -> list[str]:
    """Dry-run checks; returns a list of human-readable issues."""
    issues: list[str] = []
    try:
        y, x, cov_names = config.load_data()
    except InvalidInputError as exc:
        return [str(exc)]
    try:
        w = config.load_weights()
    except InvalidInputError as exc:
        return [str(exc)]
    if w.n != y.shape[0]:
        issues.append(f"weights are {w.n} x {w.n} but data has {y.shape[0]} rows")
    if config.likelihood == "probit" and not binary_response(y):
        issues.append("non-binary response with probit likelihood")
    if x is not None and badly_scaled(x):
        issues.append("covariate scales differ by more than 1e4; consider rescaling")
    if not config.kinds:
        issues.append("no model kinds requested")
    for kind in config.kinds:
        if kind not in models.KINDS:
            issues.append(f"unknown model kind {kind!r}; expected one of {models.KINDS}")
    if config.likelihood not in models.LIKELIHOODS:
        issues.append(
            f"unknown likelihood {config.likelihood!r}; expected one of {models.LIKELIHOODS}"
        )
    if w.has_islands:
        issues.append("weights matrix contains empty rows (islands)")
    return issues


def cmd_validate(config: RunConfig, out: _OutputTracker) -> int:
    issues = validate_config(config)
    if issues:
        for issue in issues:
            print(f"issue: {issue}")
    else:
        print("ok: no issues found")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spatecon",
        description="Fit Bayesian spatial econometrics models from a config file.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    for verb in ("fit", "scan", "impacts", "validate"):
        sub = verbs.add_parser(verb)
        sub.add_argument("--config", required=True, help="path to the INI run config")
        sub.add_argument("--output", default=None, help="override the output directory")
        if verb == "scan":
            sub.add_argument("--threads", type=int, default=1, help="parallel fits")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
    except (InvalidInputError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.output is not None:
        config.output_dir = Path(args.output)

    out = _OutputTracker(config.output_dir)
    handlers = {"fit": cmd_fit, "impacts": cmd_impacts, "validate": cmd_validate}
    try:
        if args.verb == "scan":
            return cmd_scan(config, out, args.threads)
        return handlers[args.verb](config, out)
    except (InvalidInputError, InvalidParameterError) as exc:
        out.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericFailureError as exc:
        out.cleanup()
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
