"""Dataset container, CSV parsing, and the synthetic sampler.

``_check`` asserts the CSV contract (see ``oracles.csv_reference``) on one
``Draw``.  The hypothesis test draws them, each row of ``KNOWN_ANSWERS`` and
``PINNED`` is a test of fixed draws, and the tests after those check costs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import os
import pickle
import random
import time
import tracemalloc
import warnings
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pytest
from conftest import no_fork
from hypothesis import example, given, settings, strategies as st
from oracles import csv_block_factors_reference, csv_reference

import natreg._forkjoin
import natreg.data
from natreg.data import MIN_PART_BYTES, Dataset, csv_block_factors, dataset_from_csv, synth_dataset
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
    with pytest.raises(ContractViolation, match="must be 2-D"):
        Dataset(np.zeros(3), np.zeros((3, 1)))


def test_dataset_arrays_are_frozen():
    d = Dataset([[1.0]], [[2.0]])
    with pytest.raises(ValueError):
        d.x[0, 0] = 5.0
    source = np.array([[1.0]])
    d2 = Dataset(source, [[2.0]])
    source[0, 0] = 9.0  # the dataset copied, so this cannot leak in
    assert d2.x[0, 0] == 1.0


def test_csv_rejects_bad_dims():
    with pytest.raises(ContractViolation):
        dataset_from_csv("1,2", p=0, q=2)


def _outcome(read, *args):
    """The bits read, or the error's type, message and record."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = read(*args)
    except NatregError as exc:
        return type(exc), str(exc), getattr(exc, "record", None)
    if isinstance(result, Dataset):
        return result.x.shape, result.y.shape, result.x.tobytes(), result.y.tobytes()
    return result[0].shape, result[0].tobytes(), result[1]


def _bad(record: int, why: str = "non-numeric field"):
    return ParseError, f"record {record}: {why}", record


_UTF8, _EMPTY = "bytes that are not UTF-8", (EmptyDataset, "no data records found", None)
_send = natreg._forkjoin._send


def _short_payload(done, pipe):
    with open(pipe, "wb") as out:
        out.write(pickle.dumps(done, pickle.HIGHEST_PROTOCOL)[:-1])


def _sent_then_failed(done, pipe):
    _send(done, pipe)
    os._exit(3)


def _forked():
    raise AssertionError("forked")  # not an OSError, which fork_map takes for a failed fork


# a fork's fate: it works, os.fork raises, or each child's send is cut
# short, exits after sending, or sends nothing
_FATES = (None, no_fork, _short_payload, _sent_then_failed, lambda done, pipe: None)


class Draw(NamedTuple):
    """One input of the CSV readers, and how it is read."""

    content: str | bytes
    p: int = 1
    q: int = 1
    kind: str = "str"  # or "StringIO", "pread" (a file), "no-pread" (no os.pread), "pipe"
    at: int = 0  # where a file or a StringIO stands when it is passed
    step: int = MIN_PART_BYTES  # the block grid's step in bytes
    procs: int = 1  # usable CPUs
    fate: Callable | None = None  # one of _FATES, or _forked for os.fork
    want: object = None  # a known reference outcome: the rows of [x | y], or an error's


def _opened(kind: str, content: str | bytes, path, at: int = 0):
    """An input of ``kind`` holding ``content`` (text for "str" and
    "StringIO", else bytes), standing at ``at``."""
    if kind == "str":
        return contextlib.nullcontext(content)
    if kind == "StringIO":
        handle = io.StringIO(content)
        handle.seek(at)
        return handle
    if kind == "pipe":  # its buffer must hold ``content``: 64 KiB on Linux
        read_end, write_end = os.pipe()
        os.write(write_end, content)
        os.close(write_end)
        return open(read_end, encoding="utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o644), "wb") as out:
        out.write(content)  # in place: emptying the file first costs about 0.2 ms
        out.truncate()
    handle = open(path, encoding="utf-8")
    handle.buffer.read(at)
    return handle


@functools.lru_cache(maxsize=4)
def _expected(raw: bytes, p: int, q: int, step: int) -> tuple:
    """The reference's outcome on ``raw``, and its factors on a grid of
    ``step`` bytes if it accepts them, else the same outcome."""
    expected = _outcome(csv_reference, raw, p, q)
    if isinstance(expected[0], type):  # refused
        return expected, expected
    return expected, _outcome(csv_block_factors_reference, raw, p, q, step)


def _check(draw: Draw, path) -> None:
    """Both readers give the reference's outcome on ``draw`` (text's with a
    lone surrogate as "?"), csv_block_factors the reference's factors,
    whatever the number of processes and the fork's fate.  The record parser
    reads only input that it refuses as malformed, numpy none that is empty."""
    content, p, q = draw.content, draw.p, draw.q
    text = content if isinstance(content, str) else content.decode("utf-8", "surrogateescape")
    textual = draw.kind in ("str", "StringIO")
    raw = content if isinstance(content, bytes) and not textual else text.encode("utf-8", "replace")
    expected, factors = _expected(raw, p, q, draw.step)
    if isinstance(draw.want, list):
        known = np.array(draw.want, dtype=np.float64)
        assert expected == _outcome(Dataset, known[:, :p], known[:, p:]), draw
    elif draw.want:
        assert expected == draw.want, draw
    with pytest.MonkeyPatch.context() as patch:
        _split_into(patch, draw.procs, draw.step)
        if draw.kind == "no-pread":
            patch.delattr(os, "pread")
        if draw.fate in (no_fork, _forked):
            patch.setattr(os, "fork", draw.fate)
        elif draw.fate:
            patch.setattr(natreg._forkjoin, "_send", draw.fate)  # only children send
        fallbacks, blocks = _spy(patch, "_parse_records"), _spy(patch, "_loadtxt_range")
        outcomes = []
        for read in (dataset_from_csv, csv_block_factors):
            with _opened(draw.kind, text if textual else raw, path, draw.at) as source:
                outcomes.append(_outcome(read, source, p, q))
    assert outcomes == [expected, factors], draw
    assert expected[0] is ParseError or not fallbacks, draw
    assert expected != _EMPTY or not blocks, draw


_ODD_FIELDS = (
    "1", "-0", "0.1", "1e-300", "1_0", "0x10", "nan", "-inf", "1e400", "#1", '"1"', "'1'",
    "\ufeff1", "\uff11", " 2 ", "\t3", "", "x", "1 2", "1e", "+.5", "2\x0c", "2\u2028", "\ud800",
)
_SEPARATORS = (
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    "\n\n", "\n \n",
)
_BLANKS = ("", " ", "\t", "\u3000", "\x1c")  # blank lines
_ALPHABET = "0123456789.,-+e_ x#\n\r\t\x0c\x1d\u2028"
_NOT_UTF8 = (
    b"\xff", b"\x80", b"\xbf", b"\xc3", b"\xc0\xaf", b"\xe2\x82", b"\xed\xa0\x80",
    b"\xef\xbf", b"\xf0\x9f\x98", b"\xf4\x90\x80\x80", b"\xf8\x88\x80\x80\x80",
)


def _insert(raw: bytes, at: int, bad: bytes) -> bytes:
    """``raw`` with ``bad`` at ``at``, or before the character ``at`` falls in."""
    while b"\x80" <= raw[at : at + 1] < b"\xc0":
        at -= 1
    return raw[:at] + bad + raw[at:]


@st.composite
def _draws(draw) -> Draw:
    p, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    field = st.sampled_from(("1", "-2.5", "3e2", " 4 ", "+.5"))
    shape = draw(st.sampled_from(("table", "odd field", "odd field", "any")))
    if shape == "odd field":  # a table with one odd field among its numbers
        field = field | st.just(draw(st.sampled_from(_ODD_FIELDS)))
    if shape == "any":  # records of odd fields, any text, any separators
        record = st.lists(st.sampled_from(_ODD_FIELDS), min_size=1, max_size=4).map(",".join)
        record, sep = record | st.text(_ALPHABET, max_size=40), st.sampled_from(_SEPARATORS)
    else:  # records of p + q fields, or all of one field more or less, and blank lines
        width = p + q + draw(st.sampled_from((0, 0, 0, 1, -1)))
        record = st.lists(field, min_size=width, max_size=width).map(",".join)
        record, sep = record | st.sampled_from(_BLANKS), st.sampled_from(("\n", "\r\n", "\r"))
    lines = draw(st.lists(st.tuples(record, sep), min_size=1, max_size=8))
    head = draw(st.sampled_from(("", "\ufeff", "x,y\n", "\ufeffx,y\n")))  # a BOM, a header
    content = head + "".join(record + sep for record, sep in lines)
    # a grid step of one line, a few bytes, the first data record's length, or 1 MiB
    first = len(next((r for r, _ in lines if r.strip()), "").encode("utf-8", "replace"))
    step = draw(st.sampled_from((1, 2, 3, 5, max(1, first), first + 1, MIN_PART_BYTES)))
    if draw(st.integers(0, 2)) == 0:  # bytes, with sequences that are not UTF-8
        content = content.encode("utf-8", "replace")
        for bad in draw(st.lists(st.sampled_from(_NOT_UTF8), max_size=2)):
            content = _insert(content, draw(st.integers(0, len(content))), bad)
    kinds = ("str", "StringIO", "pread", "no-pread", "pipe")
    return Draw(
        content, p, q, draw(st.sampled_from(kinds)), at=draw(st.integers(0, 9)), step=step,
        procs=draw(st.integers(1, 3)), fate=draw(st.sampled_from(_FATES)),
    )


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "data.csv"


@settings(max_examples=300, deadline=None)
@given(draw=_draws())
@example(draw=Draw("1,2\n3,4\n5,6\n", step=3))  # a grid point on a line end
@example(draw=Draw("1,2\n1_0,3\n"))  # a field that float reads and numpy does not
def test_csv_any_bytes_give_the_record_parser_outcome(csv_path, draw):
    _check(draw, csv_path)


KNOWN_ANSWERS = {  # test_csv_<name>: draws and the reference's outcome
    "single_record": [Draw("1,0,1", 2, 1, want=[[1, 0, 1]])],
    "header_is_skipped": [  # text's lone surrogate is a "?", no number
        Draw("x1,x2,y\n1,0,1\n0,1,2", 2, 1, "StringIO", want=[[1, 0, 1], [0, 1, 2]]),
        Draw("x,\ud800\n2,3", want=[[2, 3]]),
        Draw(b"x,\xe2\x82\xac\n2,3", kind="pipe", want=[[2, 3]]),
    ],
    "numeric_first_record_is_data": [Draw("1,2\n3,4", want=[[1, 2], [3, 4]])],
    "blank_lines_are_ignored": [
        Draw(content, want=[[1, 2], [3, 4]]) for content in ("\n1,2\n\n3,4\n", "1,2\r\r\n3,4\r")
    ],
    "fast_path_and_record_parser_strip_information_separators": [  # as numpy does, not float
        Draw("0,\x1d0", want=[[0, 0]]), Draw("0,\x1c0\x1f\n1,2\n", want=[[0, 0], [1, 2]]),
        Draw("a,b\n\x1e1,2\n", want=[[1, 2]]),
    ],
    "header_only_is_empty": [Draw("x,y", want=_EMPTY), Draw("", want=_EMPTY)],
    "wrong_field_count_reports_record": [Draw("1,2\n3", want=_bad(2, "expected 2 fields, got 1"))],
    "non_numeric_field_reports_record": [
        Draw("1,2\n3,oops\n5,6", want=_bad(2)), Draw("1,\ud800\n2,3", want=_bad(1)),
        Draw(b"1,2\n\xff,3\n", kind="pread", want=_bad(2, _UTF8)),
        Draw(b"a,\xe2\x82\n1,2\n", kind="pipe", want=_bad(1, _UTF8)),  # a header too
    ],
    "bad_field_after_header_and_blank_lines_reports_record": [  # blank lines are not records
        Draw("x,y\n\n1,2\n\n3,4\n5,oops\n", want=_bad(4))
    ],
    "uniform_wrong_field_count_reports_first_record": [
        Draw("1,2,3\n4,5,6\n", want=_bad(1, "expected 2 fields, got 3")),
        Draw("a,b,c\n1,2,3\n4,5,6\n", want=_bad(2, "expected 2 fields, got 3")),
    ],
    "single_short_record_reports_record": [
        Draw("1,2", 1, 2, want=_bad(1, "expected 3 fields, got 2")),
        Draw("x,y,z\n1,2\n", 1, 2, want=_bad(2, "expected 3 fields, got 2")),
    ],
}


def _odd_inputs():
    """(content, p, q): each odd field around each separator, in a place of
    a 3 x 3 table or as a record of its own, with a header and ends varied."""
    for i, (field, sep) in enumerate(itertools.product(_ODD_FIELDS, _SEPARATORS)):
        rows = [["1", "2", "3"], ["4", "5", "6"], ["7", "8", "9"], []]
        rows[i % 4][i % 3 : i % 3 + 1] = [field]
        records = sep.join(["a,b,c"][: i % 2] + [",".join(row) for row in rows if row])
        yield (records, records + sep, sep + records)[i // 4 % 3], 1 + (i % 5 > 0), 1


def _insertions():
    """Each character of ``_ALPHABET`` at each place of three records."""
    base = "1,2\n3,4\n5,6"
    return [base[:at] + c + base[at:] for at in range(len(base) + 1) for c in _ALPHABET]


def _not_utf8_anywhere():
    """One sequence that is not UTF-8 in valid input, wherever it falls: the
    header, the scan's read, a block here or a forked one."""
    rng = random.Random(25)
    for trial in range(100):
        records = ["x,\u00e9"] * rng.randint(0, 1) + [
            f"{rng.randint(-9, 99)},{rng.random()!r}" for _ in range(rng.randint(1, 500))
        ]
        raw = rng.choice(("\n", "\r\n", "\r")).join(records).encode() + b"\n" * rng.randint(0, 1)
        raw = _insert(raw, rng.randint(0, len(raw)), rng.choice(_NOT_UTF8))
        step = rng.choice((64, 512, 4096))
        yield Draw(raw, kind=("pread", "pipe")[trial % 2], step=step, procs=1 + trial % 2)


def _not_utf8_on_line(line: int) -> bytes:
    lines = [b"x,y"] + [b"%d,%d" % (i, -i) for i in range(8)]
    lines[line] += b"\xff"
    return b"\n".join(lines) + b"\n"


def _csv(rows, header: str = "", end: str = "\n") -> str:
    return header + end.join(rows) + end


def _split(content, p=1, q=1, parts=(2, 3), step=1, **how) -> list:
    """``content`` from a file cut into one-line blocks, on each of ``parts`` processes."""
    return [Draw(content, p, q, "pread", step=step, procs=n, **how) for n in parts]


_ROWS_40 = [f"{i},{i}" if i != 33 else "33,oops" for i in range(40)]
_KINDS = ("str", "pread", "pipe")

PINNED = {  # test_csv_<name>: its draws, or (parameters, the draws of each)
    "fast_path_matches_record_parser_on_odd_input": lambda: [Draw(*i) for i in _odd_inputs()],
    "file_matches_its_text_on_odd_input": lambda: [Draw(*i, "pread") for i in _odd_inputs()],
    "split_file_matches_its_text_on_odd_input": ((2, 3), lambda n: [
        d for i in _odd_inputs() for d in _split(*i, parts=(n,), fate=no_fork)
    ]),
    "fast_path_matches_record_parser_on_any_text": lambda: [Draw(c) for c in _insertions()],
    "file_matches_its_text_on_any_text": lambda: [Draw(c, kind="pread") for c in _insertions()],
    "split_file_matches_its_text_on_any_text": ((2, 3), lambda n: [
        d for c in _insertions() for d in _split(c, parts=(n,), fate=no_fork)
    ]),
    "split_text_matches_record_parser_on_any_text": lambda: [
        Draw(c, step=1, procs=2, fate=no_fork) for c in _insertions()
    ],
    "lone_surrogate_after_the_first_record_gives_the_record_parser_outcome": lambda: [
        Draw(head + "3,4\n" * 5000 + tail, step=64, procs=n) for n in (1, 2)  # past the scan
        for head, tail in (("1,2\n", "3,\ud800\n5,6\n"), ("x,y\n1,2\n", "\ud800\n"),
                           ("1,2\n", "5,6\ud800"))
    ],
    "not_utf8_anywhere_gives_the_record_parser_outcome": lambda: list(_not_utf8_anywhere()),
    # in the header, in the scan; in block 2, parsed here; in block 3, forked
    "block_factors_names_bytes_that_are_not_utf8_as_dataset_from_csv_does": lambda: [
        d for line in (0, 3, 4)
        for d in _split(_not_utf8_on_line(line), parts=(2,), want=_bad(line + 1, _UTF8))
    ],
    # under lines of 8 bytes or more, some grid steps of 7 fall inside a "\r\n"
    "split_inside_a_crlf_file_keeps_each_line_whole": lambda: [
        d for n in range(2, 12) for d in _split(
            _csv([f"{i},{i * i},-{i}" for i in range(n)], "a,b,c\r\n", "\r\n"), 2, 1, step=7
        )
    ],
    "split_between_blank_lines": lambda: _split(
        _csv([f"{i},{-i}" for i in range(9)], "x,y\n\n\n\n", "\n\n\n")
    ),
    "split_keeps_the_header_in_the_first_range": lambda: _split(
        _csv([f"{i},{-i}" for i in range(5)], "\n" * 60 + "x,y\n")
    ),
    "split_part_of_only_blank_lines_warns_nothing": lambda: _split(  # a warning fails the block
        "1,2\n3,4\n" + "\n" * 40 + "5,6\n", parts=(3,)
    ),
    "malformed_record_in_a_later_part_reports_its_number": lambda: [
        d for h in ("", "x,y\n") for d in _split(_csv(_ROWS_40, h), want=_bad(34 + bool(h)))
    ],
    # records of equal width, so a cut falls where the records gain a field
    "split_where_records_gain_a_field_reports_the_record": lambda: _split(
        _csv([f"{i},{i}" for i in range(1000, 1020)] + [f"{i},10,10" for i in range(100, 120)]),
        parts=(2,), want=_bad(21, "expected 2 fields, got 3"),
    ),
    "failed_fork_falls_back_to_one_process": lambda: _split(
        _csv([f"{i},{-i}" for i in range(30)]), parts=(2,), fate=no_fork
    ),
    "header_then_one_long_record_is_one_range": lambda: [  # so nothing forks
        d for end in ("", "\n", "\r\n")
        for d in _split("a,b,c\n" + ",".join(["1.25" * 50] * 3) + end, 2, 1, fate=_forked)
    ],
    # two whole MiB: on two CPUs a child takes every other 1 MiB block
    "block_factors_after_a_failed_fork_are_the_forked_ones": lambda: [
        Draw(content, 5, 1, "pread", procs=2, fate=fate) for content in [dataset_to_csv(
            synth_dataset(SeedState(7, "failed fork"), 25_000, 5, 1, noise_sd=1.0)[0]
        )] for fate in (None, no_fork)
    ],
    "failed_part_falls_back_to_one_process": (_FATES[2:], lambda send: _split(
        _csv([f"{i},{i / 7!r},{-i}" for i in range(60)], "x,y,z\n"), 2, 1, parts=(3,), fate=send
    )),
    "file_is_read_whole_whatever_its_position": (("pread", "no-pread", "StringIO"), lambda kind: [
        Draw("1,2\n3,4\n5,6\n", kind=kind, at=4, want=[[1, 2], [3, 4], [5, 6]])
    ]),
    "leading_bom_is_skipped": (("", "x,y\n"), lambda header: [
        Draw("\ufeff" + header + "1,2\n3,4\n5,7\n", kind=kind, step=1, procs=n,
             want=[[1, 2], [3, 4], [5, 7]]) for kind in _KINDS for n in (1, 2)
    ]),
    # numpy reads these lines as records of one field; the record rule calls them blank
    "whitespace_only_lines_are_blank_to_numpy_too": (("", "x,y\n"), lambda header: [
        Draw("\x1c\n" + header + "".join(f"{i},{-i}\n{_BLANKS[1 + i % 4]}\n" for i in range(12)),
             kind=kind, step=step, procs=n, want=[[i, -i] for i in range(12)])
        for kind in _KINDS for n, step in ((1, MIN_PART_BYTES), (2, 6), (3, 6))
    ]),
    # float reads these as 10, 1 and 1; numpy reads none, so one leads a header
    "number_is_what_numpy_reads": (("1_0", "\uff11", "\u0661"), lambda field: [
        Draw(f"1,2\n{field},3\n4,5\n", kind=kind, step=1, procs=n, want=_bad(2))
        for kind in _KINDS for n in (1, 2)
    ] + [Draw(f"{field},y\n4,5\n", want=[[4, 5]])]),
    # the scan finds no data record, so neither numpy nor the record parser reads a byte
    "without_a_data_record_is_empty_before_any_parse": ({
        "empty": "", "header": "x,y", "header-blank": "x,y\r\n\n \n", "bom": "\ufeff",
        "bom-blank": "\ufeff\n\n", "blank": "\n \t\n\x1c\r",
    }, lambda content: [Draw(content, kind=k, step=1, procs=2, want=_EMPTY) for k in _KINDS]),
}


def _table_test(cases):
    """A test that checks each draw of ``cases``, a row of a table above."""
    if not isinstance(cases, tuple):
        def test(csv_path):
            for draw in cases() if callable(cases) else cases:
                _check(draw, csv_path)

        return test
    params, draws = cases
    ids = list(params) if isinstance(params, dict) else None

    @pytest.mark.parametrize("param", [params[i] for i in ids] if ids else params, ids=ids)
    def test_each(csv_path, param):
        for draw in draws(param):
            _check(draw, csv_path)

    return test_each


for _name, _cases in {**KNOWN_ANSWERS, **PINNED}.items():
    globals()[f"test_csv_{_name}"] = _table_test(_cases)


def _parse_file(path, p: int, q: int) -> Dataset:
    with open(path, encoding="utf-8") as handle:
        return dataset_from_csv(handle, p, q)


def _split_into(monkeypatch, parts: int, step: int = 1) -> None:
    """Cut any input into blocks on a grid of ``step`` bytes, dealt to up to ``parts`` processes."""
    monkeypatch.setattr(natreg.data, "MIN_PART_BYTES", step)
    monkeypatch.setattr(natreg.data, "_usable_cpus", lambda: parts)


def _spy(monkeypatch, name: str) -> list:
    """The arguments and the result, or the exception, of each call of ``natreg.data.<name>``."""
    calls = []
    real = getattr(natreg.data, name)

    def spy(*args, **kwargs):
        try:
            calls.append((args, real(*args, **kwargs)))
        except Exception as exc:
            calls.append((args, exc))
            raise
        return calls[-1][1]

    monkeypatch.setattr(natreg.data, name, spy)
    return calls


def _spans_read(monkeypatch) -> tuple[dict, list]:
    """``[start, reached]`` of each byte range that this process reads, in the
    order of their first reads, and how many were read when each ``fork_map``
    iterator ended or raised: those read after the last are the error route."""
    spans, marks = {}, []
    readinto, fork_map = natreg.data._ByteRange.readinto, natreg.data.fork_map

    def spy(self, buffer):
        span = spans.setdefault(self, [self._at, self._at])
        count = readinto(self, buffer)
        span[1] += count
        return count

    def marked(*args):
        try:
            yield from fork_map(*args)
        finally:
            marks.append(len(spans))

    monkeypatch.setattr(natreg.data._ByteRange, "readinto", spy)
    monkeypatch.setattr(natreg.data, "fork_map", marked)
    return spans, marks


def test_csv_file_replaced_during_the_parse_keeps_the_opened_file(csv_path, monkeypatch):
    scan, replacement = natreg.data._data_start, csv_path.with_name("replacement.csv")

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


def test_csv_not_utf8_in_the_first_line_is_named_from_the_scan_alone(csv_path, monkeypatch):
    # the scan names record 1 before it decides whether that record is a
    # header, and the 4 MiB input is never read whole
    raw = b"a,\xff\n" + b"1,2\n" * (1 << 20)
    csv_path.write_bytes(raw)
    spans, marks = _spans_read(monkeypatch)
    assert _outcome(_parse_file, csv_path, 1, 1) == _expected(raw, 1, 1, 1)[0] == _bad(1, _UTF8)
    assert sum(reached - start for start, reached in spans.values()) < MIN_PART_BYTES and not marks


@pytest.mark.parametrize("parts", (1, 2))
def test_csv_not_utf8_in_a_block_is_named_from_the_bytes_up_to_its_end(
    csv_path, monkeypatch, parts
):
    # the byte lies past the scan's read, in one of the 4 KiB blocks: once
    # numpy rejects that block, the record parser reads it alone, numbered
    # from the rows of the blocks before it
    raw = b"x,y\n" + b"".join(b"%d,%d\n" % (i, -i) for i in range(20_000))
    bad = raw.index(b"\n12345,") + 1
    raw = raw[:bad] + b"\xe2\x82," + raw[bad:]
    csv_path.write_bytes(raw)
    _split_into(monkeypatch, parts, 4096)
    cuts = _spy(monkeypatch, "_ranges")
    spans, marks = _spans_read(monkeypatch)
    # the header is record 1, so the line of 12345 is record 12347
    expected = _outcome(csv_reference, raw, 1, 1)
    assert _outcome(_parse_file, csv_path, 1, 1) == expected == _bad(12347, _UTF8)
    (blocks, _), = [result for _, result in cuts]
    start, end = next((start, end) for start, end in blocks if start <= bad < end)
    assert end < len(raw) and end - start < 2 * 4096
    (marked,) = marks
    assert list(spans.values())[marked:] == [[start, end]]


@pytest.mark.parametrize("parts", (1, 2, 3))
def test_csv_rejected_block_alone_reaches_the_record_parser(csv_path, monkeypatch, parts):
    # one block a line; a BOM leads only the input's first record, so the
    # one that leads record 4 makes its field non-numeric.  The records
    # before its block are counted, not parsed: the header, 1,2 and 3,4
    content = "\ufeffx,y\n\n1,2\r\n3,4\r \n\ufeff5,6\n7,8\n"
    _split_into(monkeypatch, parts)
    for kind in _KINDS:
        fallbacks = _spy(monkeypatch, "_parse_records")
        with _opened(kind, content if kind == "str" else content.encode(), csv_path) as source:
            assert _outcome(dataset_from_csv, source, 1, 1) == _bad(4)
        assert [args for args, _ in fallbacks] == [("\ufeff5,6\n", 1, 1, 3)]


@pytest.mark.parametrize("parts", (1, 3))
def test_csv_malformed_file_reaches_numpy_once(csv_path, monkeypatch, parts):
    _split_into(monkeypatch, parts)
    calls = _spy(monkeypatch, "_loadtxt_range")  # children's calls are not seen here
    csv_path.write_text(_csv(_ROWS_40, "x,y\n"))
    assert _outcome(_parse_file, csv_path, 1, 1) == _bad(35)
    # each block reaches numpy at most once, and none after the one that
    # fails, block 33 of 40, which both on one CPU and on three is here
    blocks = [args[1:3] for args, _ in calls]
    assert blocks == sorted(set(blocks))
    failed = [i for i, (_, rows) in enumerate(calls) if isinstance(rows, Exception)]
    assert failed == [len(calls) - 1]


def test_csv_failed_first_part_stops_the_other_parsers(csv_path, monkeypatch):
    _split_into(monkeypatch, 3)
    monkeypatch.setattr(natreg._forkjoin, "_send", lambda done, pipe: time.sleep(120))
    csv_path.write_text(_csv(["1,oops"] + [f"{i},{-i}" for i in range(30)]))
    begin = time.monotonic()
    assert _outcome(_parse_file, csv_path, 1, 1) == _bad(1)
    assert time.monotonic() - begin < 60


def test_csv_file_below_two_parts_never_forks(csv_path, monkeypatch):
    d, _ = synth_dataset(SeedState(6, "small"), 9000, 7, 1, noise_sd=1.0)
    monkeypatch.setattr(os, "fork", _forked)
    monkeypatch.setattr(natreg.data, "_usable_cpus", lambda: 64)
    csv_path.write_text(dataset_to_csv(d))
    # two blocks, a whole MiB and a tail, and one process for both
    assert MIN_PART_BYTES < csv_path.stat().st_size < 2 * MIN_PART_BYTES
    np.testing.assert_array_equal(_parse_file(csv_path, 7, 1).x, d.x)


def test_csv_file_parse_peak_memory_is_about_the_arrays(csv_path):
    d, _ = synth_dataset(SeedState(5, "memory"), 20_000, 21, 1, noise_sd=1.0)
    raw = ("\n" + ",".join(["x"] * 22) + "\n" + dataset_to_csv(d)).encode()

    def parse_peak(raw):
        csv_path.write_bytes(raw)
        tracemalloc.start()
        try:
            return _outcome(_parse_file, csv_path, 21, 1), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    outcome, peak = parse_peak(raw)
    assert outcome == ((20_000, 21), (20_000, 1), d.x.tobytes(), d.y.tobytes())
    # holding the text or its lines costs several times the arrays
    assert peak <= 3 * (d.x.nbytes + d.y.nbytes)
    # a byte that is not UTF-8 in the last line costs that line's block,
    # never a read of the bytes before it
    outcome, bad_peak = parse_peak(raw[:-2] + b"\xff\n")
    assert outcome == _bad(20_001, _UTF8) and bad_peak <= peak + MIN_PART_BYTES


def dataset_to_csv(d: Dataset) -> str:
    """Serialize at 17 significant digits so parsing back is bit-exact."""
    rows = (",".join(format(v, ".17g") for v in (*xi, *yi)) for xi, yi in zip(d.x, d.y))
    return "".join(row + "\n" for row in rows)


def _assert_round_trip(d: Dataset) -> None:
    back = dataset_from_csv(dataset_to_csv(d), p=d.p, q=d.q)
    np.testing.assert_array_equal(back.x, d.x)
    np.testing.assert_array_equal(back.y, d.y)


def test_csv_round_trip_is_bit_exact():
    _assert_round_trip(Dataset(
        [[0.1, -1e300], [1e-300, 3.141592653589793], [2.0 / 3.0, -0.0]],
        [[1.0000000000000002], [-5e-324], [123456789.12345679]],
    ))


def test_csv_round_trip_on_sampled_data():
    for i in range(25):
        _assert_round_trip(synth_dataset(SeedState(300 + i, "roundtrip"), 7, 3, 2, noise_sd=1.0)[0])


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=6))
def test_csv_round_trip_any_finite_doubles(rows):
    _assert_round_trip(Dataset([[a] for a, _ in rows], [[b] for _, b in rows]))


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
        p = 1 + i % 8
        d, _ = synth_dataset(SeedState(400 + i, "rank"), p + 1 + i % 5, p, 1, noise_sd=1.0)
        assert numerical_rank(d.x) == p


def test_synth_dataset_rejects_bad_arguments():
    with pytest.raises(ContractViolation):
        synth_dataset(SeedState(1), 0, 1, 1)
    with pytest.raises(ContractViolation):
        synth_dataset(SeedState(1), 1, 1, 1, noise_sd=-0.5)
