"""One workload process: set up, run timed rounds, read memory, check.

    python3 perfbench/workload.py --workload NAME --dir DIR --seconds S
        --trace 0|1 --t0 MONOTONIC [--probe]

DIR holds the generator's files. ``--t0`` is the parent's
``time.monotonic()`` just before it started this process, so set-up time
covers interpreter start, importing spatecon and the workload's one-off
weights construction. With ``--probe`` the process stops after set-up
and writes only its set-up time; the parent runs a few probes per run to
report a median. Otherwise the process runs whole rounds of the
workload's operations until S seconds have passed (at least one round),
reads its peak RSS, then checks the outputs and writes ``result.json``.

With ``--trace 1`` every round is traced and the spans of set-up plus one
round give the per-layer metrics. ``trace.wall_s`` is the traced round's
wall time, to set against ``wall_s`` of the untraced runs; the gap between
the two is the tracing overhead. Because that gap is smaller than the
machine's run-to-run spread, the run also reports ``trace.overhead_pct``:
the number of spans times the measured cost of one traced call, as a
share of the traced round.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))


class Workload:
    """Defaults for a workload; see the three below."""

    def before_round(self):
        pass

    def bytes_written(self) -> int:
        return 0


class GaussianFiveKinds(Workload):
    """CLI ``fit`` of all five kinds with impacts on a Boston-sized problem."""

    ops_per_round = 5

    def __init__(self, workdir: Path):
        from spatecon import cli  # noqa: F401  (import is part of set-up)

        self.dir = workdir
        self.out = workdir / "cli_out"
        self.covariates = [f"x{j + 1}" for j in range(4)]

    def before_round(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def round(self):
        from spatecon import cli

        rc = cli.main(["fit", "--config", str(self.dir / "run.ini"), "--output", str(self.out)])
        return (0 if rc == 0 else self.ops_per_round), rc

    def fingerprint(self, rc):
        return rc, (self.out / "comparison.csv").read_bytes() if rc == 0 else b""

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir())

    def check(self, rc, truth) -> list[str]:
        import checks

        if rc != 0:
            return []
        return checks.check_cli_outputs(self.out, truth, self.covariates)


class ProbitKnnScan(Workload):
    """``selection.neighbor_scan`` of a probit SLM over several k."""

    def __init__(self, workdir: Path):
        from spatecon import selection  # noqa: F401

        self.inputs = dict(np.load(workdir / "inputs.npz"))
        self.k_values = [int(k) for k in self.inputs["k_values"]]
        self.ops_per_round = len(self.k_values)

    def round(self):
        from spatecon import selection

        d = self.inputs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mset = selection.neighbor_scan(
                d["coords"], d["y"], d["x"], "slm", self.k_values, likelihood="probit", threads=1
            )
        return self.ops_per_round - len(mset.entries), mset

    def fingerprint(self, mset):
        return [(e.label, e.log_mlik) for e in mset.entries]

    def check(self, mset, truth) -> list[str]:
        import checks

        return checks.check_scan(mset, self.inputs, truth)


class LargeGaussianSlm(Workload):
    """``spatecon.fit`` then ``impacts.average_impacts`` for a Gaussian SLM
    at n just above the dense-eigenvalue and dense-trace switch."""

    ops_per_round = 2

    def __init__(self, workdir: Path):
        from spatecon import impacts, models, weights  # noqa: F401

        self.inputs = dict(np.load(workdir / "inputs.npz"))
        adj = weights.knn_adjacency(self.inputs["coords"], int(self.inputs["k"]))
        self.w = weights.row_standardize(adj)
        self.w.rho_range()

    def round(self):
        from spatecon import impacts, models

        d = self.inputs
        try:
            fit = models.fit(models.build("slm", d["y"], d["x"], self.w))
        except Exception:  # noqa: BLE001 - a failed operation is counted
            traceback.print_exc()
            return 2, None
        try:
            imp = impacts.average_impacts(fit)
        except Exception:  # noqa: BLE001
            traceback.print_exc()
            return 1, (fit, None)
        return 0, (fit, imp)

    def fingerprint(self, out):
        return None if out is None else float(out[0].log_mlik)

    def check(self, out, truth) -> list[str]:
        import checks

        if out is None or out[1] is None:
            return []
        return checks.check_large(out[0], out[1], self.inputs)


WORKLOADS = {
    "gaussian_five_kinds": GaussianFiveKinds,
    "probit_knn_scan": ProbitKnnScan,
    "large_gaussian_slm": LargeGaussianSlm,
}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "spatecon").glob("*.py"))


def layer_metrics(tracer, setup, rounds, walls, bytes_written):
    """Per-layer metrics: set-up spans plus the mean of the traced rounds."""
    per_round = [tracer.summary(b, e) for b, e in rounds]
    setup_sum = tracer.summary(*setup)

    def agg(name, key):
        value = setup_sum[name][key] if name in setup_sum else 0.0
        return value + statistics.fmean(r[name][key] if name in r else 0.0 for r in per_round)

    def attr_total(name, pred):
        def count(b, e):
            return sum(pred(s) for s in tracer.spans[b:e] if s.name == name)

        return count(*setup) + statistics.fmean(count(b, e) for b, e in rounds)

    evid_mode = attr_total("engine.evidence", lambda s: not s.attrs["want_state"])
    evid_grid = attr_total("engine.evidence", lambda s: s.attrs["want_state"])
    grid_points = attr_total("models.fit", lambda s: s.attrs.get("grid_points", 0))
    factorizations = agg("gmrf.factor", "calls")
    inverse_mb = attr_total("gmrf.inverse_dense", lambda s: s.attrs["bytes"]) / 2**20
    wall = statistics.median(walls)
    spans_per_round = statistics.fmean(e - b for b, e in rounds)
    overhead = spans_per_round * tracer.span_cost()
    return {
        "weights.knn_s": (agg("weights.knn", "self_s"), "s"),
        "weights.rho_range_s": (agg("weights.rho_range", "self_s"), "s"),
        "models.build_calls": (agg("models.build", "calls"), "count"),
        "models.build_s": (agg("models.build", "self_s"), "s"),
        "models.fit_s": (agg("models.fit", "incl_s"), "s"),
        "gmrf.joint_precision_calls": (agg("gmrf.joint_precision", "calls"), "count"),
        "gmrf.joint_precision_s": (agg("gmrf.joint_precision", "self_s"), "s"),
        "gmrf.factorizations": (factorizations, "count"),
        "gmrf.factor_s": (agg("gmrf.factor", "self_s"), "s"),
        "gmrf.inverse_dense_calls": (agg("gmrf.inverse_dense", "calls"), "count"),
        "gmrf.inverse_dense_s": (agg("gmrf.inverse_dense", "self_s"), "s"),
        "gmrf.inverse_dense_mb": (inverse_mb, "MB"),
        "engine.evidence_calls.mode": (evid_mode, "count"),
        "engine.evidence_calls.grid": (evid_grid, "count"),
        "engine.evidence_self_s": (agg("engine.evidence", "self_s"), "s"),
        "engine.grid_points": (grid_points, "count"),
        "engine.grid_kept_ratio": (grid_points / evid_grid if evid_grid else 0.0, "ratio"),
        "engine.factorizations_per_evidence": (
            factorizations / (evid_mode + evid_grid) if evid_mode + evid_grid else 0.0, "ratio"
        ),
        "marginals.mixture_calls": (agg("marginals.mixture", "calls"), "count"),
        "marginals.mixture_s": (agg("marginals.mixture", "self_s"), "s"),
        "impacts.average_s": (agg("impacts.average", "self_s"), "s"),
        "impacts.trace_functions_calls": (agg("impacts.trace_functions", "calls"), "count"),
        "impacts.trace_functions_s": (agg("impacts.trace_functions", "self_s"), "s"),
        "dataio.read_s": (agg("dataio.read", "self_s"), "s"),
        "cli.self_s": (agg("cli.main", "self_s"), "s"),
        "cli.bytes_written": (bytes_written, "bytes"),
        "src.lines": (src_lines(), "count"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_pct": (100.0 * overhead / wall, "%"),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", required=True, type=float)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.enabled = True
    setup_begin = tracer.mark() if tracer else 0
    workload = WORKLOADS[args.workload](args.dir)
    setup_s = time.monotonic() - args.t0
    if args.probe:
        (args.dir / f"probe-{time.monotonic_ns()}.json").write_text(json.dumps({"setup_s": setup_s}))
        return
    setup = (setup_begin, tracer.mark() if tracer else 0)

    walls, round_spans, failed, attempted = [], [], 0, 0
    outputs, fingerprints = None, []
    start = time.perf_counter()
    while True:
        workload.before_round()
        begin = tracer.mark() if tracer else 0
        t = time.perf_counter()
        n_failed, outputs = workload.round()
        walls.append(time.perf_counter() - t)
        if tracer is not None:
            round_spans.append((begin, tracer.mark()))
        attempted += workload.ops_per_round
        failed += n_failed
        fingerprints.append(workload.fingerprint(outputs))
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.enabled = False
        tracer.restore()

    truth = dict(np.load(args.dir / "truth.npz"))
    try:
        problems = workload.check(outputs, truth)
    except (ValueError, KeyError) as exc:
        problems = [f"outputs could not be read: {exc!r}"]
    if any(f != fingerprints[-1] for f in fingerprints):
        problems.append("rounds on the same inputs gave different outputs")
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, setup, round_spans, walls, workload.bytes_written())
    (args.dir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
