"""Batch front end: config parsing, outputs, exit codes, determinism."""

import json

import numpy as np
import pytest
from oracles import random_weights, simulate_slm

import spatecon as se
from spatecon.cli import main, validate_config
from spatecon.dataio import parse_config, write_weights


def make_inputs(tmp_path, n=25, gaps=(), likelihood="gaussian", kinds="sem,slm"):
    rng = np.random.default_rng(100)
    w = random_weights(rng, n, 3)
    y, x = simulate_slm(rng, w, [1.0, 0.8], 0.4, 0.5)
    if likelihood == "probit":
        y = (y > np.median(y)).astype(float)
    y = y.astype(float)
    lines = ["y,x1"]
    for i in range(n):
        tok = "NA" if i in gaps else repr(float(y[i]))
        lines.append(f"{tok},{float(x[i, 0])!r}")
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    write_weights(tmp_path / "w.txt", w)
    config = f"""
[data]
data_csv = data.csv
response = y
covariates = x1
weights_file = w.txt

[model]
kinds = {kinds}
likelihood = {likelihood}

[output]
directory = out
"""
    (tmp_path / "run.ini").write_text(config)
    return tmp_path / "run.ini"


class TestFitVerb:
    def test_fit_writes_expected_artifacts(self, tmp_path):
        cfg = make_inputs(tmp_path, gaps=(3,), kinds="sem,slm,sdm,sdem,slx")
        code = main(["fit", "--config", str(cfg)])
        assert code == 0
        out = tmp_path / "out"
        for kind in ("sem", "slm", "sdm", "sdem", "slx"):
            assert (out / f"{kind}_summary.json").exists(), kind
            assert (out / f"{kind}_coefficients.csv").exists(), kind
            assert (out / f"{kind}_impacts.csv").exists(), kind
        for name in (
            "coefficients.csv",
            "comparison.csv",
            "sem_density_rho.csv",
            "impacts_total.csv",
            "sem_predictive.csv",
        ):
            assert (out / name).exists(), name
        summary = json.loads((out / "sem_summary.json").read_text())
        assert summary["rho_scale"] == "external"
        assert {"mean", "sd", "0.025quant", "0.975quant"} <= set(
            summary["hyperparameters"]["rho"]
        )
        # the combined coefficient table has one column per model kind
        header = (out / "coefficients.csv").read_text().splitlines()[1]
        assert header == "name,sem,slm,sdm,sdem,slx"

    def test_outputs_are_byte_identical_across_runs(self, tmp_path):
        cfg = make_inputs(tmp_path)
        assert main(["fit", "--config", str(cfg), "--output", str(tmp_path / "a")]) == 0
        assert main(["fit", "--config", str(cfg), "--output", str(tmp_path / "b")]) == 0
        a_files = sorted((tmp_path / "a").iterdir())
        b_files = sorted((tmp_path / "b").iterdir())
        assert [f.name for f in a_files] == [f.name for f in b_files]
        for fa, fb in zip(a_files, b_files):
            assert fa.read_bytes() == fb.read_bytes(), fa.name

    def test_every_table_has_a_header_comment(self, tmp_path):
        cfg = make_inputs(tmp_path)
        main(["fit", "--config", str(cfg)])
        for csv_file in (tmp_path / "out").glob("*.csv"):
            assert csv_file.read_text().startswith("# "), csv_file.name

    def test_predictive_rows_match_na_count(self, tmp_path):
        gaps = (2, 5, 11)
        cfg = make_inputs(tmp_path, gaps=gaps)
        main(["fit", "--config", str(cfg)])
        lines = (tmp_path / "out" / "sem_predictive.csv").read_text().strip().splitlines()
        assert len(lines) - 2 == len(gaps)  # comment + header
        indices = [int(line.split(",")[0]) for line in lines[2:]]
        assert indices == sorted(gaps)

    def test_missing_weights_file_exits_2_without_outputs(self, tmp_path):
        cfg = make_inputs(tmp_path)
        (tmp_path / "w.txt").unlink()
        code = main(["fit", "--config", str(cfg)])
        assert code == 2
        assert not any((tmp_path / "out").glob("*")) or not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "name, line, field, token",
        [
            ("w.txt", 1, None, "-3 0 1"),
            ("data.csv", 2, 0, "nan"),
            ("data.csv", 3, 0, "inf"),
            ("data.csv", 2, 1, "-inf"),
            ("data.csv", 4, 1, "NaN"),
        ],
    )
    def test_bad_input_file_exits_2_without_outputs(
        self, tmp_path, capsys, name, line, field, token
    ):
        # A weights header with n < 1, or a non-finite number in the data.
        cfg = make_inputs(tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        if field is None:
            lines[line - 1] = token
        else:
            fields = lines[line - 1].split(",")
            fields[field] = token
            lines[line - 1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--config", str(cfg)]) == 2
        assert f"{name}:{line}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        issues = validate_config(parse_config(cfg))
        assert len(issues) == 1 and f"{name}:{line}:" in issues[0]

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "broken.ini"
        cfg.write_text("[data]\nresponse = y\n")
        assert main(["fit", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "section, line, message",
        [
            ("grid", "k = abc", "[grid] k:"),
            ("grid", "k = 1.5", "[grid] k:"),
            ("grid", "k = -1", "grid k must be"),
            ("grid", "step = 0", "grid step must be"),
            ("grid", "step = -0.5", "grid step must be"),
            ("grid", "step = nan", "grid step must be"),
            ("grid", "drop = -1", "grid drop must be"),
            ("grid", "drop = inf", "grid drop must be"),
            ("data", "k = x", "[data] k:"),
            ("scan", "k_min = 2.5", "[scan] k_min:"),
            ("scan", "k_max = many", "[scan] k_max:"),
        ],
    )
    def test_bad_config_value_exits_2_without_outputs(
        self, tmp_path, capsys, section, line, message
    ):
        cfg = make_inputs(tmp_path)
        text = cfg.read_text()
        if f"[{section}]" in text:
            text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        else:
            text += f"\n[{section}]\n{line}\n"
        cfg.write_text(text)
        assert main(["fit", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("impacts", "enabled", "ture"),
            ("impacts", "enabled", "2"),
            ("impacts", "enabled", "enabled"),
        ],
    )
    def test_bad_boolean_exits_2_without_outputs(self, tmp_path, capsys, section, key, value):
        cfg = make_inputs(tmp_path)
        cfg.write_text(cfg.read_text() + f"\n[{section}]\n{key} = {value}\n")
        assert main(["fit", "--config", str(cfg)]) == 2
        assert f"[{section}] {key}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "value, on",
        [("1", True), ("true", True), ("Yes", True), ("ON", True),
         ("0", False), ("FALSE", False), ("no", False), ("Off", False)],
    )
    def test_boolean_spellings(self, tmp_path, value, on):
        cfg = make_inputs(tmp_path)
        text = cfg.read_text()
        cfg.write_text(text + f"\n[impacts]\nenabled = {value}\n")
        assert parse_config(cfg).impacts_enabled is on

    @pytest.mark.parametrize(
        "key, value",
        [
            ("tau_obs", "0"),
            ("tau_obs", "-5"),
            ("tau_obs", "nan"),
            ("tau_obs", "inf"),
            ("tau_rate", "-1"),
            ("tau_shape", "0"),
            ("rho_prior_prec", "0"),
            ("rho_prior_prec", "nan"),
            ("tau_fixed", "0"),
            ("tau_fixed", "-2"),
            ("q_beta_diag", "0"),
            ("tau_obs_hyper", "true"),
        ],
    )
    def test_bad_prior_exits_2_without_outputs(self, tmp_path, capsys, key, value):
        cfg = make_inputs(tmp_path, kinds="sem,slm,sdm,sdem,slx")
        cfg.write_text(cfg.read_text() + f"\n[priors]\n{key} = {value}\n")
        assert main(["fit", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_impacts_switched_off_writes_no_impact_tables(self, tmp_path):
        cfg = make_inputs(tmp_path, kinds="slm")
        cfg.write_text(cfg.read_text() + "\n[impacts]\nenabled = off\n")
        assert main(["fit", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "slm_summary.json").exists()
        assert not list(out.glob("*impacts*"))

    @pytest.mark.parametrize("verb", ["fit", "impacts", "validate"])
    def test_threads_belongs_to_scan_alone(self, tmp_path, capsys, verb):
        cfg = make_inputs(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([verb, "--config", str(cfg), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_numeric_failure_exits_3_and_cleans_up(self, tmp_path, monkeypatch):
        cfg = make_inputs(tmp_path, kinds="sem,slm")
        from spatecon import cli as cli_mod

        real_fit = cli_mod.models.fit
        calls = {"n": 0}

        def failing_fit(spec, settings=None):
            calls["n"] += 1
            if calls["n"] == 2:  # first kind succeeds, second blows up
                raise se.NumericFailureError("synthetic Cholesky failure at theta")
            return real_fit(spec, settings)

        monkeypatch.setattr(cli_mod.models, "fit", failing_fit)
        code = main(["fit", "--config", str(cfg)])
        assert code == 3
        out = tmp_path / "out"
        # the partially written first-kind outputs were removed
        assert not out.exists() or not any(out.iterdir())


class TestImpactsVerb:
    def test_impacts_only_run(self, tmp_path):
        cfg = make_inputs(tmp_path, kinds="slm,sdem")
        assert main(["impacts", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        for name in ("slm_impacts.csv", "sdem_impacts.csv", "impacts_direct.csv"):
            assert (out / name).exists(), name
        lines = (out / "slm_impacts.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "covariate"
        assert lines[2].split(",")[-1] == "exact"
        sdem_lines = (out / "sdem_impacts.csv").read_text().splitlines()
        assert sdem_lines[2].split(",")[-1] == "exact"


class TestScanVerb:
    def test_scan_writes_table(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 30
        coords = rng.uniform(size=(n, 2))
        w = se.row_standardize(se.knn_adjacency(coords, 4))
        y, x = simulate_slm(rng, w, [1.0, 0.8], 0.4, 0.5)
        lines = ["y,x1"] + [f"{float(y[i])!r},{float(x[i, 0])!r}" for i in range(n)]
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
        pts = ["id,x,y"] + [f"p{i},{float(coords[i, 0])!r},{float(coords[i, 1])!r}" for i in range(n)]
        (tmp_path / "pts.csv").write_text("\n".join(pts) + "\n")
        (tmp_path / "run.ini").write_text(
            """
[data]
data_csv = data.csv
response = y
covariates = x1
points_csv = pts.csv
k = 4

[model]
kinds = slm

[scan]
kind = slm
k_min = 3
k_max = 5
prior = inverse_square

[output]
directory = out
"""
        )
        assert main(["scan", "--config", str(tmp_path / "run.ini")]) == 0
        scan_lines = (tmp_path / "out" / "scan.csv").read_text().strip().splitlines()
        assert scan_lines[1] == "k,log_mlik,dic,prior_prob,posterior_prob"
        assert len(scan_lines) == 2 + 3
        assert (tmp_path / "out" / "scan_bma_x1.csv").exists()


class TestValidateVerb:
    def test_conformable_inputs_pass(self, tmp_path):
        cfg = make_inputs(tmp_path)
        config = parse_config(cfg)
        assert validate_config(config) == []

    def test_probit_with_nonbinary_response_flagged(self, tmp_path):
        cfg = make_inputs(tmp_path, likelihood="gaussian")
        text = cfg.read_text().replace("likelihood = gaussian", "likelihood = probit")
        cfg.write_text(text)
        issues = validate_config(parse_config(cfg))
        assert any("non-binary" in issue for issue in issues)

    def test_covariate_scale_warning(self, tmp_path):
        rng = np.random.default_rng(8)
        n = 20
        w = random_weights(rng, n, 3)
        y, x = simulate_slm(rng, w, [1.0, 0.5], 0.3, 0.5)
        big = 1e6 * rng.normal(size=n)
        lines = ["y,x1,x2"] + [
            f"{float(y[i])!r},{float(x[i, 0])!r},{float(big[i])!r}" for i in range(n)
        ]
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
        write_weights(tmp_path / "w.txt", w)
        (tmp_path / "run.ini").write_text(
            """
[data]
data_csv = data.csv
response = y
weights_file = w.txt

[model]
kinds = slm
"""
        )
        issues = validate_config(parse_config(tmp_path / "run.ini"))
        assert any("rescal" in issue for issue in issues)

    def test_validate_exits_zero_even_with_issues(self, tmp_path, capsys):
        cfg = make_inputs(tmp_path, likelihood="gaussian")
        text = cfg.read_text().replace("likelihood = gaussian", "likelihood = probit")
        cfg.write_text(text)
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "issue" in capsys.readouterr().out
