"""Self-test of the benchmark harness at tiny input sizes.

    python3 perfbench/selftest.py

Run from the root of a spatecon checkout; takes about a minute. It

1. runs every workload through ``run.py`` at the tiny size, untraced and
   traced, and checks the result line against ``BENCHMARK.json``: the
   exact keys, every metric by name and unit, all checks passing and no
   failed operation;
2. feeds each workload's output checks deliberately wrong outputs and
   requires every one to be caught;
3. runs ``run.py`` in a directory holding only ``BENCHMARK.json`` and the
   benchmark's files, where it must fail without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = HERE / "_work" / "selftest"


def run_harness(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result_line(workload: str, trace: int) -> None:
    proc = run_harness(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = result["metrics"]
    assert set(got) == {m["name"] for m in wanted}, set(got) ^ {m["name"] for m in wanted}
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"], m
        assert isinstance(got[m["name"]]["value"], (int, float)), m
    print(f"ok  {workload} trace={trace}")


def gen(workload: str, out: Path) -> None:
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload, "--seed", "1",
                    "--dir", str(out), "--size", "tiny"], check=True)


def check_cli_checks_catch_faults() -> None:
    from spatecon import cli

    work = SCRATCH / "gaussian"
    gen("gaussian_five_kinds", work)
    out = work / "cli_out"
    assert cli.main(["fit", "--config", str(work / "run.ini"), "--output", str(out)]) == 0
    truth = dict(np.load(work / "truth.npz"))
    covs = [f"x{j + 1}" for j in range(4)]
    assert checks.check_cli_outputs(out, truth, covs) == []

    comp = out / "comparison.csv"
    good = comp.read_text()
    lines = good.splitlines()
    cells = lines[3].split(",")
    cells[-1] = "0.5"
    comp.write_text("\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n")
    assert any("softmax" in p for p in checks.check_cli_outputs(out, truth, covs))
    comp.write_text(good)

    wrong = dict(truth, y_masked=truth["y_masked"] + 100.0)
    assert any("predictive" in p for p in checks.check_cli_outputs(out, wrong, covs))

    (out / "slx_density_tau.csv").unlink()
    assert any("missing" in p for p in checks.check_cli_outputs(out, truth, covs))
    print("ok  gaussian_five_kinds checks catch a wrong probability, prediction and file")


def check_scan_checks_catch_faults() -> None:
    from spatecon import selection

    work = SCRATCH / "probit"
    gen("probit_knn_scan", work)
    inputs = dict(np.load(work / "inputs.npz"))
    truth = dict(np.load(work / "truth.npz"))
    k_values = [int(k) for k in inputs["k_values"]]
    mset = selection.neighbor_scan(inputs["coords"], inputs["y"], inputs["x"], "slm", k_values,
                                   likelihood="probit")
    assert checks.check_scan(mset, inputs, truth) == []

    fit = mset.entries[0].fit
    mset.entries[0].fit = dataclasses.replace(fit, x_means=fit.x_means + 1e-3)
    assert any("gradient" in p for p in checks.check_scan(mset, inputs, truth))
    mset.entries[0].fit = fit
    mset.posterior_probs = mset.posterior_probs[::-1].copy()
    assert any("posterior probs" in p for p in checks.check_scan(mset, inputs, truth))
    print("ok  probit_knn_scan checks catch a wrong inner mode and probability")


def check_large_checks_catch_faults() -> None:
    from spatecon import impacts, models, weights

    work = SCRATCH / "large"
    gen("large_gaussian_slm", work)
    inputs = dict(np.load(work / "inputs.npz"))
    w = weights.row_standardize(weights.knn_adjacency(inputs["coords"], int(inputs["k"])))
    fit = models.fit(models.build("slm", inputs["y"], inputs["x"], w))
    imp = impacts.average_impacts(fit)
    assert checks.check_large(fit, imp, inputs) == []

    shifted = dataclasses.replace(fit, coef_means=fit.coef_means * 1.001)
    assert any("coefficient mean" in p for p in checks.check_large(shifted, imp, inputs))
    bad_ev = dataclasses.replace(fit, grid=dataclasses.replace(
        fit.grid, log_evidence=fit.grid.log_evidence + 1e-3))
    assert any("log evidence" in p for p in checks.check_large(bad_ev, imp, inputs))
    x1 = imp["x1"]
    off = dataclasses.replace(x1, total=dataclasses.replace(x1.total, mean=x1.total.mean * 1.1))
    assert any("total impact" in p for p in checks.check_large(fit, dict(imp, x1=off), inputs))
    print("ok  large_gaussian_slm checks catch a wrong mean, evidence and impact")


def check_fails_without_sources() -> None:
    bare = SCRATCH / "bare"
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("_work"))
    proc = run_harness("gaussian_five_kinds", 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  fails without a result line where spatecon's sources are absent")


def main() -> None:
    start = time.perf_counter()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    (SCRATCH / "bare").mkdir(parents=True)
    try:
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace in (0, 1):
                check_result_line(workload, trace)
        check_cli_checks_catch_faults()
        check_scan_checks_catch_faults()
        check_large_checks_catch_faults()
        check_fails_without_sources()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"selftest passed in {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()
