"""End-to-end CLI behavior: output formats, exit codes, error paths."""

from __future__ import annotations

import json

import numpy as np
import pytest

from natreg.cli import main

EXACT_CSV = "1,0,1\n0,1,2\n1,1,3\n"
RANK_DEFICIENT_CSV = "1,0,1\n"


def _parse_coefficients(text: str) -> np.ndarray:
    return np.array(
        [[float(field) for field in line.split(",")] for line in text.strip().splitlines()]
    )


def _write(tmp_path, name: str, content: str) -> str:
    path = tmp_path / name
    path.write_text(content)
    return str(path)


def test_fit_ols_writes_coefficients_to_stdout(tmp_path, capsys):
    data = _write(tmp_path, "d.csv", EXACT_CSV)
    code = main(["fit", "--data", data, "--predictors", "2", "--targets", "1",
                 "--algorithm", "ols"])
    captured = capsys.readouterr()
    assert code == 0
    np.testing.assert_allclose(
        _parse_coefficients(captured.out), [[1.0], [2.0]], rtol=0, atol=1e-12
    )
    assert "sse = " in captured.err
    assert float(captured.err.split("sse = ")[1].split()[0]) <= 1e-20


def test_fit_ridge_output_round_trips_at_full_precision(tmp_path, capsys):
    from natreg.data import Dataset
    from natreg.regression import ridge_fit

    data = _write(tmp_path, "d.csv", "2,1\n")
    code = main(["fit", "--data", data, "--predictors", "1", "--targets", "1",
                 "--algorithm", "ridge", "--lambda", "1.0"])
    captured = capsys.readouterr()
    assert code == 0
    exact = ridge_fit(Dataset([[2.0]], [[1.0]]), 1.0).coef[0, 0]
    # 17 significant digits: parsing the printed text recovers the exact double
    assert _parse_coefficients(captured.out)[0, 0] == exact
    assert abs(exact - 0.4) <= 1e-15
    assert "ridge objective = " in captured.err


def test_fit_writes_to_file_with_out_flag(tmp_path, capsys):
    data = _write(tmp_path, "d.csv", EXACT_CSV)
    out = tmp_path / "coef.csv"
    code = main(["fit", "--data", data, "--predictors", "2", "--targets", "1",
                 "--algorithm", "ols", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    np.testing.assert_allclose(
        _parse_coefficients(out.read_text()), [[1.0], [2.0]], rtol=0, atol=1e-12
    )


def test_fit_minnorm_handles_rank_deficient_data(tmp_path, capsys):
    data = _write(tmp_path, "d.csv", RANK_DEFICIENT_CSV)
    code = main(["fit", "--data", data, "--predictors", "2", "--targets", "1",
                 "--algorithm", "minnorm-ols"])
    captured = capsys.readouterr()
    assert code == 0
    np.testing.assert_allclose(
        _parse_coefficients(captured.out), [[1.0], [0.0]], rtol=0, atol=1e-15
    )


def test_fit_ols_rank_deficient_exits_one_citing_rank(tmp_path, capsys):
    data = _write(tmp_path, "d.csv", RANK_DEFICIENT_CSV)
    code = main(["fit", "--data", data, "--predictors", "2", "--targets", "1",
                 "--algorithm", "ols"])
    captured = capsys.readouterr()
    assert code == 1
    assert "rank 1" in captured.err


def test_fit_usage_errors_exit_two(tmp_path, capsys):
    data = _write(tmp_path, "d.csv", EXACT_CSV)
    # ridge without lambda
    assert main(["fit", "--data", data, "--predictors", "2", "--targets", "1",
                 "--algorithm", "ridge"]) == 2
    # lambda with ols
    assert main(["fit", "--data", data, "--predictors", "2", "--targets", "1",
                 "--algorithm", "ols", "--lambda", "1"]) == 2
    # non-positive lambda
    assert main(["fit", "--data", data, "--predictors", "2", "--targets", "1",
                 "--algorithm", "ridge", "--lambda", "-1"]) == 2
    # unknown algorithm (argparse choice)
    assert main(["fit", "--data", data, "--predictors", "2", "--targets", "1",
                 "--algorithm", "lasso"]) == 2
    # missing file
    assert main(["fit", "--data", str(tmp_path / "nope.csv"), "--predictors", "2",
                 "--targets", "1", "--algorithm", "ols"]) == 2
    # data that is not UTF-8
    latin1 = tmp_path / "latin1.csv"
    latin1.write_bytes("caf\xe9,y\n1,2\n".encode("latin-1"))
    assert main(["fit", "--data", str(latin1), "--predictors", "1", "--targets", "1",
                 "--algorithm", "ols"]) == 2
    # output into a directory that does not exist
    assert main(["fit", "--data", data, "--predictors", "2", "--targets", "1",
                 "--algorithm", "ols", "--out", str(tmp_path / "nope" / "coef.csv")]) == 2
    capsys.readouterr()


def test_fit_malformed_csv_exits_two(tmp_path, capsys):
    data = _write(tmp_path, "bad.csv", "1,2\n3\n")
    code = main(["fit", "--data", data, "--predictors", "1", "--targets", "1",
                 "--algorithm", "ols"])
    captured = capsys.readouterr()
    assert code == 2
    assert "record 2" in captured.err


def test_fit_empty_csv_exits_two(tmp_path, capsys):
    data = _write(tmp_path, "empty.csv", "x,y\n")
    assert main(["fit", "--data", data, "--predictors", "1", "--targets", "1",
                 "--algorithm", "ols"]) == 2
    capsys.readouterr()


def test_audit_small_run_exits_zero(capsys):
    code = main(["audit", "--axes", "target", "--categories", "discrete,euc",
                 "--trials", "3", "--seed", "21"])
    captured = capsys.readouterr()
    assert code == 0
    assert "agreement: 4/4" in captured.out


def test_audit_json_runs_are_byte_identical(tmp_path):
    argv = ["audit", "--algorithm", "ridge", "--axes", "predictor",
            "--categories", "euc,finvec_iso", "--trials", "5", "--seed", "9",
            "--format", "json"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert main(argv + ["--out", str(tmp_path / "nope" / "c.json")]) == 2
    payload = json.loads(first.read_text())
    assert payload["master_seed"] == 9
    assert {cell["category"] for cell in payload["cells"]} == {"euc", "finvec_iso"}


def test_audit_exit_one_when_a_cell_disagrees(capsys):
    # one trial of an any-linear-map cell can sample a square invertible
    # morphism, exhibiting no violation where one is expected
    code = main(["audit", "--algorithm", "ols", "--axes", "predictor",
                 "--categories", "finvec", "--trials", "1", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out
    assert "agreement: 0/1" in captured.out


def test_audit_rejects_unknown_names(capsys):
    assert main(["audit", "--categories", "nosuch"]) == 2
    assert main(["audit", "--axes", "sideways"]) == 2
    assert main(["audit", "--algorithm", "minnorm-ols"]) == 2
    assert main(["audit", "--trials", "0"]) == 2
    capsys.readouterr()


def test_counterexamples_default_exits_zero(capsys):
    code = main(["counterexamples"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("VIOLATION") == 2
    assert "0.15000000000000002" in captured.out


def test_counterexamples_identity_shear_exits_one(capsys):
    assert main(["counterexamples", "--k", "0"]) == 1
    captured = capsys.readouterr()
    assert "no violation" in captured.out


def test_counterexamples_tiny_lambda_exits_one(capsys):
    assert main(["counterexamples", "--lambda", "1e-12"]) == 1
    capsys.readouterr()


def test_counterexamples_json_format(capsys):
    code = main(["counterexamples", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["counterexamples"]["shear"]["residual"] == pytest.approx(0.5)
    assert payload["counterexamples"]["ridge_scaling"]["residual"] == pytest.approx(0.15)


def test_counterexamples_bad_arguments_exit_two(capsys):
    assert main(["counterexamples", "--c", "0"]) == 2
    assert main(["counterexamples", "--lambda", "0"]) == 2
    capsys.readouterr()


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    capsys.readouterr()
