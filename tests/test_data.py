"""Dataset container, CSV parsing, and the synthetic sampler."""

from __future__ import annotations

import io
import itertools
import os
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import natreg._forkjoin
import natreg.data
from natreg.data import Dataset, _parse_records, dataset_from_csv, synth_dataset
from natreg.errors import ContractViolation, EmptyDataset, NatregError, ParseError
from natreg.linalg import SeedState, numerical_rank


def test_dataset_shapes_and_properties():
    d = Dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [[1.0], [2.0], [3.0]])
    assert (d.n_examples, d.p, d.q) == (3, 2, 1)


def test_dataset_rejects_row_mismatch():
    with pytest.raises(ContractViolation):
        Dataset([[1.0]], [[1.0], [2.0]])


def test_dataset_rejects_non_finite():
    with pytest.raises(ContractViolation):
        Dataset([[np.nan]], [[1.0]])


def test_dataset_rejects_empty():
    with pytest.raises(ContractViolation):
        Dataset(np.zeros((0, 1)), np.zeros((0, 1)))


def test_dataset_arrays_are_frozen():
    d = Dataset([[1.0]], [[2.0]])
    with pytest.raises(ValueError):
        d.x[0, 0] = 5.0
    source = np.array([[1.0]])
    d2 = Dataset(source, [[2.0]])
    source[0, 0] = 9.0  # the dataset copied, so this cannot leak in
    assert d2.x[0, 0] == 1.0


def test_csv_single_record():
    d = dataset_from_csv("1,0,1", p=2, q=1)
    np.testing.assert_array_equal(d.x, [[1.0, 0.0]])
    np.testing.assert_array_equal(d.y, [[1.0]])


def test_csv_header_is_skipped():
    d = dataset_from_csv("x1,x2,y\n1,0,1\n0,1,2", p=2, q=1)
    assert d.n_examples == 2
    np.testing.assert_array_equal(d.y, [[1.0], [2.0]])
    d = dataset_from_csv(io.StringIO("x1,x2,y\n1,0,1\n0,1,2"), p=2, q=1)  # no descriptor
    np.testing.assert_array_equal(d.y, [[1.0], [2.0]])
    # a lone surrogate is encoded as "?", which is never a number
    d = dataset_from_csv("x,\ud800\n2,3", p=1, q=1)
    np.testing.assert_array_equal(d.x, [[2.0]])
    np.testing.assert_array_equal(d.y, [[3.0]])


def test_csv_numeric_first_record_is_data():
    d = dataset_from_csv("1,2\n3,4", p=1, q=1)
    assert d.n_examples == 2


def test_csv_wrong_field_count_reports_record():
    with pytest.raises(ParseError) as excinfo:
        dataset_from_csv("1,2\n3", p=1, q=1)
    assert excinfo.value.record == 2


def test_csv_non_numeric_field_reports_record():
    with pytest.raises(ParseError) as excinfo:
        dataset_from_csv("1,2\n3,oops\n5,6", p=1, q=1)
    assert excinfo.value.record == 2
    with pytest.raises(ParseError) as excinfo:
        dataset_from_csv("1,\ud800\n2,3", p=1, q=1)
    assert excinfo.value.record == 1


def test_csv_header_only_is_empty():
    with pytest.raises(EmptyDataset):
        dataset_from_csv("x,y", p=1, q=1)
    with pytest.raises(EmptyDataset):
        dataset_from_csv("", p=1, q=1)


def test_csv_blank_lines_are_ignored():
    d = dataset_from_csv("\n1,2\n\n3,4\n", p=1, q=1)
    assert d.n_examples == 2


def test_csv_rejects_bad_dims():
    with pytest.raises(ContractViolation):
        dataset_from_csv("1,2", p=0, q=2)


def test_csv_bad_field_after_header_and_blank_lines_reports_record():
    # the header is record 1 and blank lines are not records
    with pytest.raises(ParseError) as excinfo:
        dataset_from_csv("x,y\n\n1,2\n\n3,4\n5,oops\n", p=1, q=1)
    assert excinfo.value.record == 4


def test_csv_uniform_wrong_field_count_reports_first_record():
    # every row has three fields, so loadtxt succeeds with the wrong shape
    with pytest.raises(ParseError) as excinfo:
        dataset_from_csv("1,2,3\n4,5,6\n", p=1, q=1)
    assert excinfo.value.record == 1
    with pytest.raises(ParseError) as excinfo:
        dataset_from_csv("a,b,c\n1,2,3\n4,5,6\n", p=1, q=1)
    assert excinfo.value.record == 2


def test_csv_single_short_record_reports_record():
    with pytest.raises(ParseError) as excinfo:
        dataset_from_csv("1,2", p=1, q=2)
    assert excinfo.value.record == 1
    with pytest.raises(ParseError) as excinfo:
        dataset_from_csv("x,y,z\n1,2\n", p=1, q=2)
    assert excinfo.value.record == 2


def _reference(content: str, p: int, q: int) -> Dataset:
    values = _parse_records(content, p, q)
    return Dataset(x=values[:, :p], y=values[:, p:])


def _outcome(parse, content, p: int, q: int):
    """The parsed bits and shape, or the error's type, message and record."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = parse(content, p, q)
    except NatregError as exc:
        return type(exc), str(exc), getattr(exc, "record", None)
    return d.x.shape, d.y.shape, d.x.tobytes(), d.y.tobytes()


def _assert_same_outcome(content: str, p: int, q: int) -> None:
    assert _outcome(dataset_from_csv, content, p, q) == _outcome(_reference, content, p, q), (
        repr(content), p, q
    )


_ODD_FIELDS = (
    "1", "-0", "0.1", "1e-300", "1_0", "0x10", "nan", "-inf", "1e400", "#1",
    '"1"', "'1'", "\ufeff1", "\uff11", " 2 ", "\t3", "", "x", "1 2", "1e", "+.5",
    "2\x0c", "2\u2028",
)
_SEPARATORS = (
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    "\n\n", "\n \n",
)


def _odd_inputs():
    """(content, p, q) for every odd field at each place, around each separator."""
    for field, sep, header in itertools.product(_ODD_FIELDS, _SEPARATORS, ("", "a,b,c")):
        for position in range(4):
            rows = [["1", "2", "3"], ["4", "5", "6"], ["7", "8", "9"]]
            if position < 3:
                rows[position][position] = field
            else:
                rows.append([field])
            records = ([header] if header else []) + [",".join(row) for row in rows]
            for content in (sep.join(records), sep.join(records) + sep, sep + sep.join(records)):
                for p, q in ((2, 1), (1, 1)):
                    yield content, p, q


def test_csv_fast_path_matches_record_parser_on_odd_input():
    for content, p, q in _odd_inputs():
        _assert_same_outcome(content, p, q)


def test_csv_fast_path_and_record_parser_strip_information_separators():
    # np.loadtxt strips every Unicode space around a field, \x1c-\x1f too,
    # which float() alone rejects; both routes must read 0 here
    for content, rows in (("0,\x1d0", 1), ("0,\x1c0\x1f\n1,2\n", 2), ("a,b\n\x1e1,2\n", 1)):
        assert _outcome(_reference, content, 1, 1)[0] == (rows, 1)
        _assert_same_outcome(content, 1, 1)


_ANY_TEXT = st.text(alphabet="0123456789.,-+e_ x#\n\r\t\x0c\x1d\u2028", max_size=40)


@settings(max_examples=300)
@given(_ANY_TEXT, st.integers(1, 3), st.integers(1, 3))
def test_csv_fast_path_matches_record_parser_on_any_text(content, p, q):
    _assert_same_outcome(content, p, q)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "data.csv"


def _parse_file(path, p: int, q: int) -> Dataset:
    try:
        with open(path, encoding="utf-8") as handle:
            return dataset_from_csv(handle, p, q)
    finally:
        with pytest.raises(ChildProcessError):  # every forked parser was reaped
            os.waitpid(-1, os.WNOHANG)


def _written(path, content: str):
    """``path``, now holding ``content`` in UTF-8 with its line ends as they are.

    The file is overwritten in place and then cut to length.  Emptying it
    first, as ``write_text`` does, costs about 0.2 ms on an ext4 disk, and
    the batteries here write thousands of contents.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o644), "wb") as handle:
        handle.write(content.encode("utf-8"))
        handle.truncate()
    return path


def _assert_file_matches_its_text(path, content: str, p: int, q: int) -> None:
    """Parsing the open file gives what the record parser gives on its text-mode contents."""
    _written(path, content)
    text = path.read_text(encoding="utf-8")
    assert _outcome(_parse_file, path, p, q) == _outcome(_reference, text, p, q), (
        repr(content), p, q
    )


def test_csv_file_matches_its_text_on_odd_input(csv_path):
    for content, p, q in _odd_inputs():
        _assert_file_matches_its_text(csv_path, content, p, q)


@settings(max_examples=300)
@given(_ANY_TEXT, st.integers(1, 3), st.integers(1, 3))
def test_csv_file_matches_its_text_on_any_text(csv_path, content, p, q):
    _assert_file_matches_its_text(csv_path, content, p, q)


def test_csv_file_replaced_during_the_parse_keeps_the_opened_file(csv_path, monkeypatch):
    scan = natreg.data._data_start
    replacement = csv_path.with_name("replacement.csv")

    def scan_then_replace(handle):
        data_start = scan(handle)
        replacement.write_text("9,9,9\n", encoding="utf-8")
        os.replace(replacement, csv_path)
        return data_start

    monkeypatch.setattr(natreg.data, "_data_start", scan_then_replace)
    csv_path.write_text("x1,x2,y\n1,0,1\n0,1,2\n", encoding="utf-8")
    # the handle still reads the file it opened; the path now names another
    assert _outcome(_parse_file, csv_path, 2, 1) == _outcome(
        dataset_from_csv, "1,0,1\n0,1,2\n", 2, 1
    )


def _split_into(monkeypatch, parts: int, step: int = 1) -> None:
    """Cut any input with a newline into blocks on a grid of ``step`` bytes
    (one line each when ``step`` is 1), dealt to up to ``parts`` ranges."""
    monkeypatch.setattr(natreg.data, "MIN_PART_BYTES", step)
    monkeypatch.setattr(natreg.data, "_usable_cpus", lambda: parts)


def _spy(monkeypatch, name: str) -> list:
    """Record the arguments and result of each call of ``natreg.data.<name>``."""
    calls = []
    real = getattr(natreg.data, name)

    def spy(*args, **kwargs):
        calls.append((args, real(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(natreg.data, name, spy)
    return calls


def _fork_map_in_process(fn, items):
    """What ``natreg.data.fork_map`` returns, with every item run in this process.

    Each range still goes through ``fn``, the parse's ``_loadtxt_range`` with
    its p + q check; one failed range fails them all, and a range of only
    blank lines adds no rows.
    """
    parts = [fn(item) for item in items]
    if any(part is None for part in parts):
        return None
    return np.concatenate(parts)


@pytest.mark.parametrize("parts", (2, 3))
def test_csv_split_file_matches_its_text_on_odd_input(csv_path, parts):
    # this battery tests where the ranges are cut, so its ranges are parsed
    # in this process; the tests below fork.  The ranges do not depend on
    # (p, q), so each distinct content is parsed once.
    contents = sorted({content for content, _, _ in _odd_inputs()})
    with pytest.MonkeyPatch.context() as monkeypatch:
        _split_into(monkeypatch, parts)
        monkeypatch.setattr(natreg.data, "fork_map", _fork_map_in_process)
        cuts = _spy(monkeypatch, "_ranges")
        for content in contents:
            _assert_file_matches_its_text(csv_path, content, 2, 1)
    assert max(len(ranges) for _, ranges in cuts) == parts


@pytest.mark.parametrize("parts", (2, 3))
@settings(max_examples=150)
@given(content=_ANY_TEXT, p=st.integers(1, 3), q=st.integers(1, 3))
def test_csv_split_file_matches_its_text_on_any_text(csv_path, parts, content, p, q):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _split_into(monkeypatch, parts)
        _assert_file_matches_its_text(csv_path, content, p, q)


@settings(max_examples=150)
@given(content=_ANY_TEXT, p=st.integers(1, 3), q=st.integers(1, 3))
def test_csv_split_text_matches_record_parser_on_any_text(content, p, q):
    # text takes the ranged route too, its ranges read from memory
    with pytest.MonkeyPatch.context() as monkeypatch:
        _split_into(monkeypatch, 2)
        _assert_same_outcome(content, p, q)


def test_csv_lone_surrogate_after_the_first_record_gives_the_record_parser_outcome(monkeypatch):
    # the scan stops at the first data record and decodes no further than
    # its next chunk, so the range that holds a surrogate this far on fails
    # its strict decode, in this process or a forked one
    rows = "3,4\n" * 5000
    for parts in (1, 2):
        _split_into(monkeypatch, parts)
        for content in ("1,2\n" + rows + "3,\ud800\n5,6\n", "x,y\n1,2\n" + rows + "\ud800\n",
                        "1,2\n" + rows + "5,6\ud800"):
            _assert_same_outcome(content, 1, 1)


def _parse_pipe(raw: bytes, p: int, q: int) -> Dataset:
    read_end, write_end = os.pipe()
    os.write(write_end, raw)
    os.close(write_end)
    with open(read_end, encoding="utf-8") as handle:
        return dataset_from_csv(handle, p, q)


@pytest.mark.parametrize("header", ("", "x,y\n"))
def test_csv_leading_bom_is_skipped(csv_path, monkeypatch, header):
    content = header + "1,2\n3,4\n5,7\n"
    expected = _outcome(dataset_from_csv, content, 1, 1)
    assert expected[:2] == ((3, 1), (3, 1))
    with_bom = "\ufeff" + content
    fallbacks = _spy(monkeypatch, "_parse_records")
    for parts in (1, 2):
        _split_into(monkeypatch, parts)
        assert _outcome(dataset_from_csv, with_bom, 1, 1) == expected
        assert _outcome(_parse_file, _written(csv_path, with_bom), 1, 1) == expected
        assert _outcome(_parse_pipe, with_bom.encode(), 1, 1) == expected
    assert not fallbacks  # numpy parsed every one
    assert _outcome(_reference, with_bom, 1, 1) == expected


_WHITESPACE_LINES = (" ", "\t", "\u3000", "\x1c")


@pytest.mark.parametrize("header", ("", "x,y\n"))
def test_csv_whitespace_only_lines_are_blank_to_numpy_too(csv_path, monkeypatch, header):
    # numpy reads each of these lines as a record of one field; the record
    # rule calls them blank, and so does the retry of each block they fail
    lines = [f"{i},{-i}\n{_WHITESPACE_LINES[i % 4]}\n" for i in range(12)]
    content = "\x1c\n" + header + "".join(lines)
    expected = _outcome(_reference, content, 1, 1)
    assert expected[:2] == ((12, 1), (12, 1))
    fallbacks = _spy(monkeypatch, "_parse_records")
    # one block; then blocks of one or two lines, dealt to 2 and to 3 runs
    for parts, step in ((1, natreg.data.MIN_PART_BYTES), (2, 6), (3, 6)):
        _split_into(monkeypatch, parts, step)
        assert _outcome(dataset_from_csv, content, 1, 1) == expected
        assert _outcome(_parse_file, _written(csv_path, content), 1, 1) == expected
        assert _outcome(_parse_pipe, content.encode(), 1, 1) == expected
    assert not fallbacks  # numpy parsed every one


@pytest.mark.parametrize("field", ("1_0", "\uff11", "\u0661"))
def test_csv_number_is_what_numpy_reads(csv_path, monkeypatch, field):
    # float reads these as 10, 1 and 1; numpy reads none of them
    content = f"1,2\n{field},3\n4,5\n"
    for parts in (1, 2):
        _split_into(monkeypatch, parts)
        for parse, source in (
            (dataset_from_csv, content),
            (_parse_file, _written(csv_path, content)),
            (_parse_pipe, content.encode()),
        ):
            assert _outcome(parse, source, 1, 1) == (ParseError, "record 2: non-numeric field", 2)
    # so a first record led by one is a header
    d = dataset_from_csv(f"{field},y\n4,5\n", 1, 1)
    np.testing.assert_array_equal(d.x, [[4.0]])


def _assert_split_parse_matches_its_text(
    csv_path, monkeypatch, content: str, p: int, q: int, step: int = 1
):
    """Some file cut into 2 and into 3 ranges parses as its text, with no fallback."""
    forked = _spy(monkeypatch, "fork_map")
    for parts in (2, 3):
        _split_into(monkeypatch, parts, step)
        _assert_file_matches_its_text(csv_path, content, p, q)
    assert forked and all(values is not None for _, values in forked)
    return forked


def test_csv_split_inside_a_crlf_file_keeps_each_line_whole(csv_path, monkeypatch):
    # a grid step of one byte aims each cut at the start of a line; at 7
    # bytes, under lines of 8 or more, some steps fall between "\r" and "\n"
    aims = _spy(monkeypatch, "_after_newline")
    inside = 0
    for n in range(2, 12):
        rows = [f"{i},{i * i},-{i}" for i in range(n)]
        _assert_split_parse_matches_its_text(
            csv_path, monkeypatch, "a,b,c\r\n" + "\r\n".join(rows) + "\r\n", 2, 1, step=7
        )
        content = csv_path.read_bytes()
        inside += sum(content[at - 1 : at + 1] == b"\r\n" for (_, at, _), _ in aims)
        aims.clear()
    assert inside  # some cut was aimed between a "\r" and its "\n"


def test_csv_split_between_blank_lines(csv_path, monkeypatch):
    blanks = "\n\n\n"
    content = "x,y\n" + blanks + blanks.join(f"{i},{-i}" for i in range(9)) + blanks
    _assert_split_parse_matches_its_text(csv_path, monkeypatch, content, 1, 1)


def test_csv_split_keeps_the_header_in_the_first_range(csv_path, monkeypatch):
    # the middle of the file lies in the blank lines before the header
    content = "\n" * 60 + "x,y\n" + "".join(f"{i},{-i}\n" for i in range(5))
    _assert_split_parse_matches_its_text(csv_path, monkeypatch, content, 1, 1)


def test_csv_split_part_of_only_blank_lines_warns_nothing(csv_path, monkeypatch):
    # the middle range of three holds only blank lines; each range is parsed
    # under warnings.simplefilter("error"), so a warning would fail its part
    forked = _assert_split_parse_matches_its_text(
        csv_path, monkeypatch, "1,2\n3,4\n" + "\n" * 40 + "5,6\n", 1, 1
    )
    args, _ = forked[-1]
    assert len(args[1]) == 3


def test_csv_header_then_one_long_record_is_one_range(csv_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    for parts in (2, 3):
        _split_into(monkeypatch, parts)
        for end in ("", "\n", "\r\n"):
            content = "a,b,c\n" + ",".join(["1.25" * 50] * 3) + end
            _assert_file_matches_its_text(csv_path, content, 2, 1)


def test_csv_malformed_record_in_a_later_part_reports_its_number(csv_path, monkeypatch):
    rows = [f"{i},{i}" for i in range(40)]
    rows[33] = "33,oops"
    for header in ("", "x,y\n"):
        for parts in (2, 3):
            _split_into(monkeypatch, parts)
            with pytest.raises(ParseError) as excinfo:
                _parse_file(_written(csv_path, header + "\n".join(rows)), 1, 1)
            assert excinfo.value.record == 34 + bool(header)


def test_csv_split_where_records_gain_a_field_reports_the_record(csv_path, monkeypatch):
    # records of equal width, so the cut falls exactly where the second
    # range's records have one field more
    rows = [f"{1000 + i},{1000 + i}" for i in range(20)] + [f"{100 + i},10,10" for i in range(20)]
    _split_into(monkeypatch, 2)
    cuts = _spy(monkeypatch, "_ranges")
    with pytest.raises(ParseError) as excinfo:
        _parse_file(_written(csv_path, "\n".join(rows)), 1, 1)
    assert excinfo.value.record == 21
    # 40 one-line blocks, dealt 20 to each range
    assert [[run[-1] for run in runs] for _, runs in cuts] == [[200, 399]]


@pytest.mark.parametrize("parts", (1, 3))
def test_csv_malformed_file_reaches_numpy_once(csv_path, monkeypatch, parts):
    rows = [f"{i},{i}" for i in range(40)]
    rows[33] = "33,oops"
    content = "x,y\n" + "\n".join(rows)
    _split_into(monkeypatch, parts)
    calls = _spy(monkeypatch, "_loadtxt_range")  # children's calls are not seen here
    with pytest.raises(ParseError) as excinfo:
        _parse_file(_written(csv_path, content), 1, 1)
    assert excinfo.value.record == 35
    # each block reaches numpy at most once, and none after the one that
    # fails, which on one CPU is here and on three is in the last child
    blocks = [args[1:3] for args, _ in calls]
    assert blocks == sorted(set(blocks))
    failed = [i for i, (_, rows) in enumerate(calls) if rows is None]
    assert failed == ([len(calls) - 1] if parts == 1 else [])


_send_rows = natreg._forkjoin.send_rows


def _short_payload(values, pipe):
    with open(pipe, "wb") as out:
        out.write(np.int64(5))
        out.write(np.zeros(3))
    return 0


def _sent_then_failed(values, pipe):
    _send_rows(values, pipe)
    return 3


def _no_fork():
    raise OSError("no process to spare")


@pytest.mark.parametrize(
    "send", (_short_payload, _sent_then_failed, lambda values, pipe: 3)
)
def test_csv_failed_part_falls_back_to_one_process(csv_path, monkeypatch, send):
    content = "x,y,z\n" + "".join(f"{i},{i / 7!r},{-i}\n" for i in range(60))
    _split_into(monkeypatch, 3)
    monkeypatch.setattr(natreg._forkjoin, "send_rows", send)  # only children send
    forked = _spy(monkeypatch, "fork_map")
    assert _outcome(_parse_file, _written(csv_path, content), 2, 1) == _outcome(
        _reference, content, 2, 1
    )
    assert [values for _, values in forked] == [None]


def test_csv_failed_first_part_stops_the_other_parsers(csv_path, monkeypatch):
    content = "1,oops\n" + "".join(f"{i},{-i}\n" for i in range(30))
    _split_into(monkeypatch, 3)
    monkeypatch.setattr(natreg._forkjoin, "send_rows", lambda values, pipe: time.sleep(120))
    begin = time.monotonic()
    with pytest.raises(ParseError) as excinfo:
        _parse_file(_written(csv_path, content), 1, 1)
    assert excinfo.value.record == 1
    assert time.monotonic() - begin < 60


def test_csv_failed_fork_falls_back_to_one_process(csv_path, monkeypatch):
    content = "".join(f"{i},{-i}\n" for i in range(30))
    _split_into(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", _no_fork)
    assert _outcome(_parse_file, _written(csv_path, content), 1, 1) == _outcome(
        _reference, content, 1, 1
    )


def test_csv_file_below_two_parts_never_forks(csv_path, monkeypatch):
    d, _ = synth_dataset(SeedState(6, "small"), 2000, 7, 1, noise_sd=1.0)
    monkeypatch.setattr(os, "fork", _no_fork)
    monkeypatch.setattr(natreg.data, "_usable_cpus", lambda: 64)
    text = dataset_to_csv(d)
    assert len(text.encode()) < 2 * natreg.data.MIN_PART_BYTES
    back = _parse_file(_written(csv_path, text), 7, 1)
    np.testing.assert_array_equal(back.x, d.x)


def test_csv_file_parse_peak_memory_is_about_the_arrays(csv_path):
    d, _ = synth_dataset(SeedState(5, "memory"), 20_000, 21, 1, noise_sd=1.0)
    csv_path.write_text("\n" + ",".join(["x"] * 22) + "\n" + dataset_to_csv(d), encoding="utf-8")
    tracemalloc.start()
    try:
        with open(csv_path, encoding="utf-8") as handle:
            back = dataset_from_csv(handle, 21, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back.x, d.x)
    np.testing.assert_array_equal(back.y, d.y)
    # holding the text or its lines costs several times the arrays
    assert peak <= 3 * (back.x.nbytes + back.y.nbytes)


def dataset_to_csv(d: Dataset) -> str:
    """Serialize at 17 significant digits so parsing back is bit-exact."""
    lines = []
    for xi, yi in zip(d.x, d.y):
        fields = [format(v, ".17g") for v in (*xi, *yi)]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def test_csv_round_trip_is_bit_exact():
    tricky = Dataset(
        [[0.1, -1e300], [1e-300, 3.141592653589793], [2.0 / 3.0, -0.0]],
        [[1.0000000000000002], [-5e-324], [123456789.12345679]],
    )
    back = dataset_from_csv(dataset_to_csv(tricky), p=2, q=1)
    np.testing.assert_array_equal(back.x, tricky.x)
    np.testing.assert_array_equal(back.y, tricky.y)


def test_csv_round_trip_on_sampled_data():
    for i in range(25):
        d, _ = synth_dataset(SeedState(300 + i, "roundtrip"), 7, 3, 2, noise_sd=1.0)
        back = dataset_from_csv(dataset_to_csv(d), p=3, q=2)
        np.testing.assert_array_equal(back.x, d.x)
        np.testing.assert_array_equal(back.y, d.y)


@given(
    st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_csv_round_trip_any_finite_doubles(rows):
    d = Dataset([[a] for a, _ in rows], [[b] for _, b in rows])
    back = dataset_from_csv(dataset_to_csv(d), p=1, q=1)
    np.testing.assert_array_equal(back.x, d.x)
    np.testing.assert_array_equal(back.y, d.y)


def test_synth_dataset_is_deterministic():
    first, coef_a = synth_dataset(SeedState(11, "synth"), 9, 4, 2, noise_sd=0.5)
    second, coef_b = synth_dataset(SeedState(11, "synth"), 9, 4, 2, noise_sd=0.5)
    np.testing.assert_array_equal(first.x, second.x)
    np.testing.assert_array_equal(first.y, second.y)
    np.testing.assert_array_equal(coef_a, coef_b)


def test_synth_dataset_noiseless_targets_in_column_space():
    d, coef = synth_dataset(SeedState(12, "clean"), 10, 3, 2, noise_sd=0.0)
    np.testing.assert_array_equal(d.y, d.x @ coef)


def test_synth_dataset_noise_perturbs_targets():
    clean, coef = synth_dataset(SeedState(13, "n"), 10, 3, 1, noise_sd=0.0)
    noisy, _ = synth_dataset(SeedState(13, "n"), 10, 3, 1, noise_sd=1.0)
    np.testing.assert_array_equal(clean.x, noisy.x)
    assert not np.array_equal(clean.y, noisy.y)


def test_synth_dataset_full_rank_when_enough_examples():
    for i in range(50):
        seed = SeedState(400 + i, "rank")
        p = 1 + i % 8
        d, _ = synth_dataset(seed, p + 1 + i % 5, p, 1, noise_sd=1.0)
        assert numerical_rank(d.x) == p


def test_synth_dataset_rejects_bad_arguments():
    with pytest.raises(ContractViolation):
        synth_dataset(SeedState(1), 0, 1, 1)
    with pytest.raises(ContractViolation):
        synth_dataset(SeedState(1), 1, 1, 1, noise_sd=-0.5)
