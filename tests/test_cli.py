"""End-to-end CLI behavior: output formats, exit codes, error paths."""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from conftest import no_fork, strict_json

import natreg.cli
import natreg.data
import natreg.naturality
from natreg.cli import main
from natreg.data import _parse_records
from natreg.errors import ParseError

EXACT_CSV = "1,0,1\n0,1,2\n1,1,3\n"
RANK_DEFICIENT_CSV = "1,0,1\n"
# each value fits float64, but the norm of each column does not
OVERFLOW_CSV = "1e308,1.7e308\n-1.5e308,1e308\n1.2e308,-1.6e308\n"


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


def test_fit_ridge_at_extreme_scale_prints_the_exact_fit(tmp_path, capsys):
    # x'x = 1e400 overflows; the fit is 1 / (b + lambda / b) = 1e-200
    data = _write(tmp_path, "d.csv", "1e200,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", "--data", data, "--predictors", "1", "--targets", "1",
                     "--algorithm", "ridge", "--lambda", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert _parse_coefficients(captured.out)[0, 0] == 1e-200
    assert captured.err == "sse = 0\nridge objective = 0\n"


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
    # data that is not UTF-8: a Latin-1 header, and UTF-16, whose byte order
    # mark is not UTF-8 either; each a malformed record 1
    for name, raw in (("latin1.csv", "caf\xe9,y\n1,2\n".encode("latin-1")),
                      ("utf16.csv", "x,y\n1,2\n".encode("utf-16"))):
        (tmp_path / name).write_bytes(raw)
        capsys.readouterr()
        assert main(["fit", "--data", str(tmp_path / name), "--predictors", "1",
                     "--targets", "1", "--algorithm", "ols"]) == 2
        assert capsys.readouterr().err == "error: record 1: bytes that are not UTF-8\n"
    # output into a directory that does not exist
    assert main(["fit", "--data", data, "--predictors", "2", "--targets", "1",
                 "--algorithm", "ols", "--out", str(tmp_path / "nope" / "coef.csv")]) == 2
    capsys.readouterr()


def test_unwritable_out_fails_before_the_work(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(natreg.naturality, "run_audit", never)
    monkeypatch.setattr(natreg.data, "csv_block_factors", never)
    data = _write(tmp_path, "d.csv", EXACT_CSV)
    missing = str(tmp_path / "nope" / "out.txt")
    through_a_file = str(tmp_path / "d.csv" / "coef.csv")
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "nope" / "target.txt")
    slashed = [str(tmp_path / "newdir") + "/", data + "/"]
    for out in (missing, str(tmp_path), through_a_file, "", str(dangling), *slashed):
        assert main(["audit", "--out", out]) == 2
        assert main(["fit", "--data", data, "--predictors", "2", "--targets", "1",
                     "--algorithm", "ols", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "No such file or directory" in err and missing in err
    assert "Is a directory" in err
    assert f"Not a directory: {through_a_file!r}" in err
    assert "No such file or directory: ''" in err
    assert f"No such file or directory: {str(dangling)!r}" in err
    for out in slashed:  # as open says: a name ending in "/" cannot be created
        assert f"Is a directory: {out!r}" in err
        with pytest.raises(IsADirectoryError):
            open(out, "w")


def test_out_is_opened_before_the_work_and_truncated_after_it(tmp_path, monkeypatch, capsys):
    data = _write(tmp_path, "d.csv", EXACT_CSV)
    args = ["fit", "--data", data, "--predictors", "2", "--targets", "1", "--algorithm", "ols"]
    assert main(args) == 0
    expected = capsys.readouterr().out
    old = "old contents, longer than the coefficients\n" * 3
    kept = _write(tmp_path, "kept.csv", old)
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "target.csv")  # dangling: open creates its target
    outs, seen = [kept, str(link)], []
    real = natreg.data.csv_block_factors

    def note_the_output(*parse_args):
        with open(outs[len(seen)], encoding="utf-8") as out:
            seen.append(out.read())
        return real(*parse_args)

    monkeypatch.setattr(natreg.data, "csv_block_factors", note_the_output)
    for out in outs:
        assert main([*args, "--out", out]) == 0
    assert seen == [old, ""]  # while the work ran, each was open and not yet truncated
    assert (tmp_path / "kept.csv").read_text() == expected
    assert (tmp_path / "target.csv").read_text() == expected
    # a FIFO is written, not truncated
    monkeypatch.setattr(natreg.data, "csv_block_factors", real)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # opening the writer does not block
    try:
        assert main([*args, "--out", str(fifo)]) == 0
        assert os.read(reader, 1 << 16).decode() == expected
    finally:
        os.close(reader)
    assert capsys.readouterr().out == ""


def test_fit_leaves_out_untouched_when_it_writes_nothing(tmp_path, capsys):
    data = _write(tmp_path, "d.csv", RANK_DEFICIENT_CSV)
    kept = _write(tmp_path, "kept.csv", "old contents\n")
    fresh = tmp_path / "fresh.csv"
    for out in (kept, str(fresh)):
        assert main(["fit", "--data", data, "--predictors", "2", "--targets", "1",
                     "--algorithm", "ols", "--out", out]) == 1
    assert (tmp_path / "kept.csv").read_text() == "old contents\n"
    assert fresh.read_text() == ""  # opened before the work, it is created empty
    capsys.readouterr()


def test_fit_malformed_csv_exits_two(tmp_path, capsys):
    data = _write(tmp_path, "bad.csv", "1,2\n3\n")
    code = main(["fit", "--data", data, "--predictors", "1", "--targets", "1",
                 "--algorithm", "ols"])
    captured = capsys.readouterr()
    assert code == 2
    assert "record 2" in captured.err
    # a record ends only at "\n", "\r\n" or "\r": the form feed is inside one
    # field, which float reads as 1
    args = ["--predictors", "2", "--targets", "1", "--algorithm", "ols"]
    assert main(["fit", "--data", _write(tmp_path, "d.csv", "x1,x2,y\n" + EXACT_CSV), *args]) == 0
    expected = capsys.readouterr()
    data = _write(tmp_path, "ff.csv", "x1,x2,y\n1,0,1\n0,1\x0c,2\n1,1,3\n")
    assert main(["fit", "--data", data, *args]) == 0
    assert capsys.readouterr() == expected
    path = tmp_path / "ls.csv"
    path.write_text("x,y\n1,2\u20283,4\n", encoding="utf-8")
    assert main(["fit", "--data", str(path), "--predictors", "1", "--targets", "1",
                 "--algorithm", "ols"]) == 2
    assert capsys.readouterr().err == "error: record 2: expected 2 fields, got 3\n"


@pytest.mark.parametrize("field", ("1_0", "\uff11", "\u0661"))
def test_fit_reads_a_number_as_numpy_does(tmp_path, capsys, field):
    # float reads these as 10, 1 and 1; numpy, which parses every value, does not
    path = tmp_path / "n.csv"
    path.write_text(f"1,2\n{field},3\n4,5\n", encoding="utf-8")
    assert main(["fit", "--data", str(path), "--predictors", "1", "--targets", "1",
                 "--algorithm", "ols"]) == 2
    assert capsys.readouterr() == ("", "error: record 2: non-numeric field\n")


def test_fit_empty_csv_exits_two(tmp_path, capsys):
    for content in ("x,y\n", "\n \n\t\r\n\n"):  # a header alone; blank lines only
        data = _write(tmp_path, "empty.csv", content)
        assert main(["fit", "--data", data, "--predictors", "1", "--targets", "1",
                     "--algorithm", "ols"]) == 2
        assert capsys.readouterr() == ("", "error: no data records found\n")


def test_fit_crlf_csv_matches_its_lf_twin(tmp_path, capsys):
    outputs = []
    for name, newline in (("lf.csv", "\n"), ("crlf.csv", "\r\n")):
        path = tmp_path / name
        path.write_bytes(("x1,x2,y\n" + EXACT_CSV).replace("\n", newline).encode())
        assert main(["fit", "--data", str(path), "--predictors", "2", "--targets", "1",
                     "--algorithm", "ridge", "--lambda", "0.5"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert _parse_coefficients(outputs[0].out).shape == (2, 1)


@contextlib.contextmanager
def _piped(raw: bytes):
    """A ``/dev/fd`` path that reads ``raw`` from a pipe."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, raw)
        os.close(write_end)
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_fit_reads_data_from_a_pipe(tmp_path, capsys):
    args = ["--predictors", "2", "--targets", "1", "--algorithm", "ols"]
    assert main(["fit", "--data", _write(tmp_path, "d.csv", EXACT_CSV), *args]) == 0
    expected = capsys.readouterr()
    with _piped(("x1,x2,y\n" + EXACT_CSV).encode()) as data:
        assert main(["fit", "--data", data, *args]) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("source", ("file", "pipe"))
def test_fit_not_utf8_names_its_record(tmp_path, capsys, monkeypatch, source):
    if source == "pipe" and not os.path.isdir("/dev/fd"):
        pytest.skip("needs /dev/fd")
    raw = ("x,y\n" + "1,2\n" * 5000).encode() + b"\xff,3\n"
    path = tmp_path / "late.csv"

    def fit_fails_at_the_record(raw=raw, record=5002):
        # the one error line of every malformed record, and the record
        # parser's on the bytes decoded with surrogateescape
        path.write_bytes(raw)
        message = f"record {record}: bytes that are not UTF-8"
        with pytest.raises(ParseError, match=f"^{message}$"):
            _parse_records(raw.decode("utf-8", "surrogateescape"), 1, 1)
        opened = contextlib.nullcontext(str(path)) if source == "file" else _piped(raw)
        with opened as data:
            assert main(["fit", "--data", data, "--predictors", "1", "--targets", "1",
                         "--algorithm", "ols"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    fit_fails_at_the_record(b"a,\xff\n" + raw, 1)  # in the header: the scan names it
    fit_fails_at_the_record()
    # the scan stops at the first data record; the byte lies in the last
    # block, dealt to a child, which numpy rejects there; the record parser
    # then names its record here
    forked = _force_line_blocks(monkeypatch)
    cuts = []
    real_ranges = natreg.data._ranges
    monkeypatch.setattr(
        natreg.data, "_ranges", lambda *a: cuts.append(real_ranges(*a)) or cuts[-1]
    )
    fit_fails_at_the_record()
    assert forked == []  # fork_map raised before its last result
    (blocks, workers), = cuts
    assert workers == 3 and blocks[-1][0] <= raw.index(b"\xff") and (len(blocks) - 1) % 3
    monkeypatch.setattr(os, "fork", no_fork)  # this process then parses every block
    fit_fails_at_the_record()


def _force_line_blocks(monkeypatch, cpus: int = 3) -> list:
    """Cut any input into one block per line, dealt to ``cpus`` ranges;
    returns the results of each forked parse that yielded them all."""
    monkeypatch.setattr(natreg.data, "MIN_PART_BYTES", 1)
    monkeypatch.setattr(natreg.data, "_usable_cpus", lambda: cpus)
    forked = []
    real = natreg.data.fork_map

    def fork_map(*args):
        results = []
        for result in real(*args):
            results.append(result)
            yield result
        forked.append(results)

    monkeypatch.setattr(natreg.data, "fork_map", fork_map)
    return forked


def _blocks_csv() -> str:
    """200 records of 3 predictor and 2 target fields with runs of blank lines."""
    values = np.random.default_rng(5).standard_normal((200, 5))
    lines = [",".join(format(v, ".17g") for v in row) for row in values]
    for at in (7, 90, 91):
        lines[at] += "\n" * 300
    return "a,b,c,y1,y2\n" + "\n".join(lines) + "\n"


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("algorithm", (["ols"], ["ridge", "--lambda", "0.5"], ["minnorm-ols"]))
def test_fit_digits_depend_only_on_the_bytes(tmp_path, capfd, monkeypatch, algorithm):
    content = _blocks_csv()
    path = _write(tmp_path, "d.csv", content)
    args = ["--predictors", "3", "--targets", "2", "--algorithm", *algorithm]
    monkeypatch.setattr(natreg.data, "MIN_PART_BYTES", 700)  # about 6 records a block
    runs = []
    real = natreg.data.fork_map
    monkeypatch.setattr(
        natreg.data, "fork_map",
        lambda fn, items, workers: runs.append(workers) or real(fn, items, workers),
    )
    outputs = []
    # the forked parsers print nothing and warn nothing, not even to the
    # descriptors they share, and a warning in any parse fails its block
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cpus in (1, 2, 3):
            monkeypatch.setattr(natreg.data, "_usable_cpus", lambda: cpus)
            assert main(["fit", "--data", path, *args]) == 0
            outputs.append(capfd.readouterr())
            with _piped(content.encode()) as data:
                assert main(["fit", "--data", data, *args]) == 0
            outputs.append(capfd.readouterr())
        # after a failed fork, this process parses the blocks dealt to the child
        with monkeypatch.context() as patched:
            patched.setattr(os, "fork", no_fork)
            assert main(["fit", "--data", path, *args]) == 0
        outputs.append(capfd.readouterr())
    assert runs == [1, 1, 2, 2, 3, 3, 3]
    assert all(output == outputs[0] for output in outputs), algorithm
    assert outputs[0].out.count("\n") == 3
    objectives = ["sse", "ridge objective"] if algorithm[0] == "ridge" else ["sse"]
    assert [line.split(" = ")[0] for line in outputs[0].err.splitlines()] == objectives


def test_fit_below_full_rank_and_with_non_finite_values_on_many_blocks(tmp_path, capfd, monkeypatch):
    _force_line_blocks(monkeypatch)
    rows = [f"{i % 7},{i % 5},{i % 7 + i % 5},{i}" for i in range(60)]
    args = ["--predictors", "3", "--targets", "1", "--algorithm", "ols"]
    assert main(["fit", "--data", _write(tmp_path, "r.csv", "\n".join(rows)), *args]) == 1
    assert capfd.readouterr() == (
        "", "error: rank-deficient predictors (rank 2 < 3); "
        "no unique least-squares fit, consider minnorm-ols or ridge\n"
    )
    # x is checked before y, as Dataset checks them, wherever each lies
    for x_value, y_value, name in (("nan", "inf", "x"), ("1", "-inf", "y"), ("1e999", "1", "x")):
        bad = list(rows)
        bad[50] = f"1,{x_value},3,4"
        bad[3] = f"1,2,3,{y_value}"
        data = _write(tmp_path, "bad.csv", "\n".join(bad))
        assert main(["fit", "--data", data, *args]) == 2
        assert capfd.readouterr() == ("", f"error: {name} contains non-finite entries\n")


@pytest.mark.parametrize("algorithm", (["ols"], ["ridge", "--lambda", "1"], ["minnorm-ols"]))
def test_fit_whose_data_norm_overflows_exits_two(tmp_path, capsys, algorithm):
    data = _write(tmp_path, "o.csv", OVERFLOW_CSV)
    assert main(["fit", "--data", data, "--predictors", "1", "--targets", "1",
                 "--algorithm", *algorithm]) == 2
    assert capsys.readouterr() == (
        "", "error: the data are too large: their norm overflows float64\n"
    )


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
    # morphism, exhibiting no violation where one is expected; seed 4 draws
    # a 6x6 one
    code = main(["audit", "--algorithm", "ols", "--axes", "predictor",
                 "--categories", "finvec", "--trials", "1", "--seed", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.out
    assert "agreement: 0/1" in captured.out


def test_audit_repeated_names_print_what_one_of_each_prints(capsys):
    tail = ["--trials", "3", "--format", "json"]
    assert main(["audit", "--algorithm", "ridge,ols,ridge", "--axes", "target,target",
                 "--categories", "euc,euc"] + tail) == 0
    repeated = capsys.readouterr().out
    assert main(["audit", "--algorithm", "ridge,ols", "--axes", "target",
                 "--categories", "euc"] + tail) == 0
    assert repeated == capsys.readouterr().out
    assert len(json.loads(repeated)["cells"]) == 2


def test_audit_rejects_unknown_names(capsys):
    assert main(["audit", "--categories", "nosuch"]) == 2
    assert main(["audit", "--axes", "sideways"]) == 2
    assert main(["audit", "--axes", ","]) == 2  # names no entry
    assert main(["audit", "--algorithm", "minnorm-ols"]) == 2
    assert main(["audit", "--trials", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["audit", "--trials", "x"], "--trials"),
        (["fit", "--data", "d.csv", "--predictors", "1.5", "--targets", "1",
          "--algorithm", "ols"], "--predictors"),
        (["fit", "--data", "d.csv", "--predictors", "2", "--targets", "two",
          "--algorithm", "ols"], "--targets"),
    ],
)
def test_non_integer_counts_are_usage_errors_in_plain_words(argv, flag, capsys):
    value = argv[argv.index(flag) + 1]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be a positive integer, got {value}\n" in err
    assert "_positive_int" not in err


def test_counterexamples_default_exits_zero(capsys):
    code = main(["counterexamples"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.count("VIOLATION") == 2
    assert "0.14999999999999999" in captured.out  # 3/20, rounded once


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
    payload = strict_json(captured.out)
    assert payload["counterexamples"]["shear"]["residual"] == 0.5
    assert payload["counterexamples"]["ridge_scaling"]["residual"] == 0.15


def test_counterexamples_bad_arguments_exit_two(capsys):
    assert main(["counterexamples", "--c", "0"]) == 2
    assert main(["counterexamples", "--lambda", "0"]) == 2
    # the exact gap, about 3.75e-601, is not 0 but would print as 0
    assert main(["counterexamples", "--b", "1e200", "--lambda", "1"]) == 2
    # fit' is about 1e-640 and fit / c is 1e-400: each would print as 0
    assert main(["counterexamples", "--b", "1e-320", "--c", "1e-320", "--lambda", "1"]) == 2
    assert main(["counterexamples", "--b", "1e-300", "--c", "1e100", "--lambda", "1"]) == 2
    # the shear's fit' = 1 / (1 + k^2) is about 1e-400
    assert main(["counterexamples", "--k", "1e200"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: c must be finite and nonzero, got 0.0",
        "error: lambda must be a positive finite number, got 0.0",
        "error: |fit' - fit/c| is nonzero but rounds to 0 in float64 (b = 1e+200, c = 2, lambda = 1)",
        "error: fit' is nonzero but rounds to 0 in float64 (b = 9.99989e-321, c = 9.99989e-321, lambda = 1)",
        "error: fit / c is nonzero but rounds to 0 in float64 (b = 1e-300, c = 1e+100, lambda = 1)",
        "error: fit' is nonzero but rounds to 0 in float64 (k = 1e+200)",
    ]


@pytest.mark.parametrize("argv", [
    ["audit", "--tolerance", "inf", "--format", "json"],
    ["counterexamples", "--c", "1e-320", "--format", "json"],
])
def test_reports_that_would_hold_infinity_exit_two(argv, capsys):
    # an infinite tolerance, and a fit / c past float64, have no JSON form
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_overflows_print_no_numpy_warning(tmp_path):
    # a fresh interpreter shows RuntimeWarnings on stderr, as a user's shell would
    data = _write(tmp_path, "big.csv", "1e200,2e200\n2e200,3.5e200\n3e200,6.1e200\n")
    fit = _run_python(["-m", "natreg.cli", "fit", "--data", data, "--predictors", "1",
                       "--targets", "1", "--algorithm", "ridge", "--lambda", "1"])
    # the residuals are about 1e199, so their squares overflow to inf
    assert (fit.returncode, fit.stderr) == (0, "sse = inf\nridge objective = inf\n")
    assert abs(_parse_coefficients(fit.stdout)[0, 0] - 1.95) <= 1e-12
    # norms past float64's range are one error line
    data = _write(tmp_path, "overflow.csv", OVERFLOW_CSV)
    fit = _run_python(["-m", "natreg.cli", "fit", "--data", data, "--predictors", "1",
                       "--targets", "1", "--algorithm", "minnorm-ols"])
    assert (fit.returncode, fit.stdout, fit.stderr) == (
        2, "", "error: the data are too large: their norm overflows float64\n"
    )
    # so are coefficients past it
    data = _write(tmp_path, "steep.csv", "1e-300,1e300\n2e-300,1e300\n")
    fit = _run_python(["-m", "natreg.cli", "fit", "--data", data, "--predictors", "1",
                       "--targets", "1", "--algorithm", "ols"])
    assert (fit.returncode, fit.stdout, fit.stderr) == (
        2, "", "error: the fitted coefficients overflow float64\n"
    )
    ce = _run_python(["-m", "natreg.cli", "counterexamples", "--b", "1e200", "--c", "1e200"])
    assert (ce.returncode, ce.stdout, ce.stderr) == (
        2, "", "error: b * c overflows float64 (b = 1e+200, c = 1e+200)\n"
    )


def _run_python(args: list[str], stdout=subprocess.PIPE, **env: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on ``args`` that finds this natreg.

    OPENBLAS_NUM_THREADS and PYTHONUNBUFFERED are unset unless given, so
    the standard streams are buffered as in a shell.
    """
    unset = ("OPENBLAS_NUM_THREADS", "PYTHONUNBUFFERED")
    environ = {k: v for k, v in os.environ.items() if k not in unset}
    src = os.path.dirname(os.path.dirname(natreg.cli.__file__))
    environ["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [environ.get("PYTHONPATH")])])
    environ.update(env)
    return subprocess.run(
        [sys.executable, *args], env=environ, stdout=stdout, stderr=subprocess.PIPE, text=True
    )


def _python(code: str, **env: str) -> str:
    """Run ``code`` as :func:`_run_python` does; returns its stdout."""
    done = _run_python(["-c", code], **env)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_natreg_imports_no_numpy_until_a_name_is_used():
    out = _python(
        "import sys, natreg\n"
        "print('numpy' in sys.modules)\n"
        "from natreg import data, linalg, naturality, regression\n"
        "homes = {'AlgorithmSpec': regression, 'AuditConfig': naturality,\n"
        "         'SeedState': linalg, 'run_audit': naturality, 'synth_dataset': data}\n"
        "print(sorted(homes) == sorted(natreg.__all__))\n"
        "print(all(getattr(natreg, n) is getattr(homes[n], n) for n in natreg.__all__))\n"
        "print(hasattr(natreg, 'Dataset'))\n"
    )
    assert out.split() == ["False", "True", "True", "False"]


def test_cli_pins_openblas_to_one_thread_unless_already_set():
    code = "import os, natreg.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(code) == "1\n"
    assert _python(code, OPENBLAS_NUM_THREADS="2") == "2\n"


_AUDIT_ONLY = ("natreg.naturality", "natreg.morphisms", "natreg.report", "json", "hashlib")


def test_fit_loads_no_audit_module(tmp_path):
    data = _write(tmp_path, "d.csv", EXACT_CSV)
    out = _python(
        "import io, sys, contextlib\n"
        "import natreg.cli\n"
        f"loaded = lambda: [name for name in {_AUDIT_ONLY!r} if name in sys.modules]\n"
        "print(loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = natreg.cli.main(['fit', '--data', {data!r}, '--predictors', '2',\n"
        "                            '--targets', '1', '--algorithm', 'ols'])\n"
        "print(code, loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = natreg.cli.main(['counterexamples'])\n"
        "print(code, 'hashlib' in sys.modules)\n"
    )
    assert out.splitlines() == ["[]", "0 []", "0 False"]


def test_counterexamples_version_and_help_load_no_numpy():
    # the witnesses are exact rationals, so these commands need no numpy
    unused = ("numpy", "natreg.data", "natreg.regression", "natreg.naturality", "hashlib")
    out = _python(
        "import io, sys, contextlib\n"
        "import natreg.cli\n"
        "codes = []\n"
        "for argv in (['counterexamples'], ['counterexamples', '--format', 'json'],\n"
        "             ['--version'], ['--help']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(natreg.cli.main(argv))\n"
        f"print(codes, [name for name in {unused!r} if name in sys.modules])\n"
    )
    assert out == "[0, 0, 0, 0] []\n"


def test_benchmark_trace_installs_and_its_calls_succeed(tmp_path):
    # benchmarks/trace_child.py rebinds natreg names it looks up by name and
    # raises on the first one that is gone; its traced main must still work.
    # Tier-1 does not run `pytest benchmarks`, so this test is what fails
    # when a change to src/ removes a name the trace binds
    data = _write(tmp_path, "d.csv", "2,1\n1,3\n")
    root = os.path.dirname(os.path.dirname(os.path.dirname(natreg.cli.__file__)))
    benchmarks = os.path.join(root, "benchmarks")
    out = _python(
        "import io, sys, contextlib\n"
        f"sys.path.insert(0, {benchmarks!r})\n"
        "import trace_child, tracer\n"
        "main = trace_child.install(tracer.Tracer())\n"
        "for argv in (['counterexamples'], ['audit', '--trials', '2'],\n"
        f"             ['fit', '--data', {data!r}, '--predictors', '1', '--targets', '1',\n"
        "              '--algorithm', 'ridge', '--lambda', '1']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(code)\n"
    )
    assert out.split() == ["0", "0", "0"]


def test_module_exit_codes(tmp_path):
    fit = ["-m", "natreg.cli", "fit", "--predictors", "2", "--targets", "1", "--algorithm", "ols"]
    good = _run_python([*fit, "--data", _write(tmp_path, "d.csv", EXACT_CSV)])
    assert good.returncode == 0
    np.testing.assert_allclose(_parse_coefficients(good.stdout), [[1.0], [2.0]], rtol=0, atol=1e-12)
    deficient = _run_python([*fit, "--data", _write(tmp_path, "r.csv", RANK_DEFICIENT_CSV)])
    assert (deficient.returncode, deficient.stdout) == (1, "")
    assert "rank 1" in deficient.stderr
    bad_flag = _run_python(["-m", "natreg.cli", "counterexamples", "--nosuch"])
    assert (bad_flag.returncode, bad_flag.stdout) == (2, "")
    assert "unrecognized arguments: --nosuch" in bad_flag.stderr


def test_module_audit_output_matches_main(tmp_path, capsys):
    argv = ["audit", "--axes", "target", "--trials", "3", "--seed", "5", "--format", "json"]
    assert main(argv) == 0
    in_process = capsys.readouterr().out
    piped = _run_python(["-m", "natreg.cli", *argv])
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, in_process, "")
    out = tmp_path / "report.json"
    written = _run_python(["-m", "natreg.cli", *argv, "--out", str(out)])
    assert (written.returncode, written.stdout, written.stderr) == (0, "", "")
    assert out.read_text(encoding="utf-8") == in_process


@pytest.mark.parametrize("unbuffered", ("", "1"))
@pytest.mark.parametrize(
    "argv",
    (["counterexamples"], ["audit", "--trials", "2", "--format", "json"]),
    ids=("small", "large"),
)
def test_unwritable_stdout_exits_two(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails
    try:
        done = _run_python(["-m", "natreg.cli", *argv], stdout=write_end, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, "error: [Errno 32] Broken pipe\n")


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    capsys.readouterr()
