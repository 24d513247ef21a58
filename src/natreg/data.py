"""Dataset container, CSV input, and synthetic dataset generation."""

from __future__ import annotations

import functools
import io
import os
import re
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, TextIO

import numpy as np

from ._forkjoin import fork_map
from ._forkjoin import usable_cpus as _usable_cpus
from .errors import ContractViolation, EmptyDataset, ParseError
from .linalg import SeedState, as_matrix


@dataclass(frozen=True)
class Dataset:
    """Paired predictor and target matrices; one example per row.

    Both arrays are copied and frozen on construction, so instances are safe
    to share between trials.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = as_matrix(self.x, "x")
        y = as_matrix(self.y, "y")
        if x.shape[0] != y.shape[0]:
            raise ContractViolation(
                f"x has {x.shape[0]} rows but y has {y.shape[0]}"
            )
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n_examples(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def q(self) -> int:
        return self.y.shape[1]


def dataset_from_csv(content: str | TextIO, p: int, q: int) -> Dataset:
    """Parse comma-separated records with p predictor then q target fields.

    ``content`` is the text itself, or a file opened for reading as text with
    ``encoding="utf-8"``.  A record ends at ``\\n``, ``\\r\\n`` or ``\\r``, and
    only there.  A leading UTF-8 byte order mark is skipped.  A single
    leading header record is skipped when its first field is not a number
    as numpy reads one.  Blank lines, and lines of only whitespace, are
    ignored.  Any other malformed record raises :class:`ParseError`
    carrying the 1-based record number.

    Every input is read as UTF-8 bytes: a seekable handle whole, a file's
    through its descriptor, a pipe once from where its buffer stands, and
    text encoded.
    ``np.loadtxt`` parses every value, from the first data record on, one
    call per line-aligned block of :func:`_ranges`, checked for p + q
    columns.  :func:`~natreg._forkjoin.fork_map` deals the blocks to one
    process per usable CPU, and the blocks' rows, concatenated here, or
    the error, are those of parsing the blocks one at a time in this
    process.  When numpy rejects a block (see :func:`_loadtxt_range`),
    :func:`_parse_records` reads that block alone to raise its first error,
    numbered from the header and the rows of the blocks before it, since
    numpy gives an accepted block one row per record.  An input with no
    data record raises :class:`EmptyDataset` from the scan, with nothing
    parsed.  A file's or a pipe's outcome is :func:`_parse_records`' on its
    bytes decoded with ``errors="surrogateescape"``: a byte that is not
    UTF-8 is a malformed record.  :func:`csv_block_factors` reads the input
    the same way and reduces each block to its R factor instead.
    """
    values = np.concatenate(_read_csv(content, p, q, lambda rows: rows)[0])
    return Dataset(x=values[:, :p], y=values[:, p:])


def csv_block_factors(content: str | TextIO, p: int, q: int) -> tuple[np.ndarray, int]:
    """The R factors of the CSV's row blocks of ``[x | y]``, stacked in
    block order, and the number of records N.

    The input is read and parsed as by :func:`dataset_from_csv`, with the
    same errors, but each process reduces every block it parses with
    :func:`_block_factor` and sends that, not its rows.  The blocks lie on a
    byte grid that the number of CPUs never moves, and the result is that
    of reducing them one at a time in this process, so it depends only on
    the input's bytes, never on the number of processes or on a failed
    fork.  Raises :class:`ContractViolation` as :class:`Dataset` does when
    x, then y, holds a value that is not finite.
    """
    blocks, n_examples = _read_csv(content, p, q, functools.partial(_block_factor, p=p))
    for name in ("x", "y"):
        if any(not_finite == name for not_finite, _ in blocks):
            raise ContractViolation(f"{name} contains non-finite entries")
    return np.concatenate([r for _, r in blocks]), n_examples


def _block_factor(rows: np.ndarray, p: int) -> tuple[str | None, np.ndarray]:
    """The first of ``"x"`` and ``"y"`` that holds a value that is not finite
    in a block of ``rows`` (None when neither), and
    ``np.linalg.qr(rows, mode="r")``, at most p + q rows."""
    finite = np.isfinite(rows).all(axis=0)
    not_finite = "x" if not finite[:p].all() else "y" if not finite[p:].all() else None
    return not_finite, np.linalg.qr(rows, mode="r")


def _read_csv(
    content: str | TextIO, p: int, q: int, reduce: Callable[[np.ndarray], Any]
) -> tuple[list, int]:
    """What ``reduce`` makes of the rows of each block of the CSV, in block
    order, and the number of rows: see :func:`dataset_from_csv`."""
    if p < 1 or q < 1:
        raise ContractViolation(f"p and q must be positive, got p={p}, q={q}")
    pread, size = _input_bytes(content)
    data_start, header = _data_start(_text(pread, 0, size, newline=""))

    def parse(block: tuple[int, int]) -> tuple[int, Any]:
        rows = _loadtxt_range(pread, *block, columns=p + q)
        return len(rows), reduce(rows)

    reduced, records = [], header  # records before the next block: a header, then one a row
    try:
        with warnings.catch_warnings():
            # a block may hold only blank lines; the scan saw a data record
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            for rows, done in fork_map(parse, *_ranges(pread, data_start, size)):
                records += rows
                reduced.append(done)
    except _Rejected as rejected:
        start, end = rejected.args
        _parse_records(_text(pread, start, end).read(), p, q, records)
        raise RuntimeError(f"the record parser finds no error in bytes [{start}, {end})")
    return reduced, records - header


class _Rejected(Exception):
    """numpy rejects the block of bytes ``[start, end)``, the two arguments,
    of the input; the record parser names why."""


# reads up to n bytes at an offset, as os.pread does on a descriptor
_Pread = Callable[[int, int], bytes]


def _input_bytes(content: str | TextIO) -> tuple[_Pread, int]:
    """A ``pread(n, at)`` over the input's UTF-8 bytes, and their count: a
    seekable handle's from its start, a pipe's from where its buffer stands."""
    if not isinstance(content, str) and content.seekable():
        content.seek(0)  # a handle whole, whatever its position
    try:
        fd = None if isinstance(content, str) else content.fileno()
    except io.UnsupportedOperation:
        fd, content = None, content.read()  # no descriptor, such as a StringIO
    if fd is None:
        data = content.encode("utf-8", "replace")  # a lone surrogate as "?", never a number
    elif content.seekable() and hasattr(os, "pread"):
        return functools.partial(os.pread, fd), os.fstat(fd).st_size
    else:
        data = content.buffer.read()  # a pipe's bytes, never its text, or a file whole
    return (lambda n, at: data[at : at + n]), len(data)


# A fork and reap of a natreg process costs about 4 ms on a 2-vCPU Xeon, and
# numpy parses a 100k x 22 CSV at about 34 MB/s there, so a process's share
# breaks even near 140 KB; blocks of 1 MiB save several times what they
# cost, and their R factors are a small share of their rows.
MIN_PART_BYTES = 1 << 20


def _ranges(pread: _Pread, data_start: int, size: int) -> tuple[list[tuple[int, int]], int]:
    """``[data_start, size)`` cut into blocks ``(start, end)``, and the
    number of processes to deal them to: one per usable CPU.

    A block ends just after the first newline at or past each multiple of
    ``MIN_PART_BYTES`` from ``data_start``, or at ``size``: the grid
    depends only on the bytes.  The first block starts at the first data
    record, so no block holds the header.  There are no more processes than
    whole ``MIN_PART_BYTES`` in the data, so a short tail block is never a
    process's whole share.
    """
    cuts = [data_start]
    aim = data_start + MIN_PART_BYTES
    while aim < size:
        cut = _after_newline(pread, aim, size)
        if cut >= size:
            break
        cuts.append(cut)
        aim = cut + (data_start - cut) % MIN_PART_BYTES  # the next grid step
    cuts.append(size)
    workers = min(_usable_cpus(), max(1, (size - data_start) // MIN_PART_BYTES))
    return list(zip(cuts, cuts[1:])), workers


def _after_newline(pread: _Pread, offset: int, size: int) -> int:
    """The offset just after the first ``b"\\n"`` at or after ``offset``."""
    while offset < size:
        chunk = pread(1 << 16, offset)
        if not chunk:
            break
        found = chunk.find(b"\n")
        if found >= 0:
            return offset + found + 1
        offset += len(chunk)
    return size


class _ByteRange(io.RawIOBase):
    """The bytes ``[start, end)`` that ``pread`` reads."""

    def __init__(self, pread: _Pread, start: int, end: int) -> None:
        super().__init__()
        self._pread, self._at, self._end = pread, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = self._pread(min(len(buffer), self._end - self._at), self._at)
        buffer[: len(data)] = data
        self._at += len(data)
        return len(data)


def _text(pread: _Pread, start: int, end: int, newline: str | None = None) -> TextIO:
    """The UTF-8 text of bytes ``[start, end)``, decoded as it is read: a byte
    that is not UTF-8 as a lone surrogate U+DC80-U+DCFF, which is never a number."""
    raw = io.BufferedReader(_ByteRange(pread, start, end))
    return io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape", newline=newline)


def _loadtxt_range(pread: _Pread, start: int, end: int, columns: int) -> np.ndarray:
    """The rows of the text of bytes ``[start, end)``, parsed by ``np.loadtxt``.

    numpy reads a line of only whitespace, which the record rule calls
    blank, as a record of one field, so a range that numpy rejects is
    parsed once more without those lines.  Raises :class:`_Rejected` where
    numpy rejects that too or the rows have other than ``columns`` fields; a
    range of only blank lines gives no rows, as shape (0, ``columns``).
    """
    try:
        try:
            values = _loadtxt(_text(pread, start, end))
        except ValueError:
            values = _loadtxt(line for line in _text(pread, start, end) if line.strip())
    except ValueError as exc:
        raise _Rejected(start, end) from exc
    if not len(values):
        return np.empty((0, columns))
    if values.shape[1] != columns:
        raise _Rejected(start, end)  # other than ``columns`` fields a record
    return values


def _loadtxt(lines) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", dtype=np.float64, comments=None, ndmin=2)


# the byte order mark some editors write first, as U+FEFF
_BOM = "\ufeff"


def _data_start(stream: TextIO) -> tuple[int, int]:
    """The byte offset of the first data record, past a leading UTF-8 BOM,
    and the number of records before it: 1 after a header, else 0.

    ``stream`` reads the text with ``newline=""``, so each line keeps its own
    line end and the offset counts bytes.  Reads up to the first data
    record, raising :class:`ParseError` at any record up to it that holds
    bytes that are not UTF-8, and :class:`EmptyDataset` if there is none.
    """
    header, data_start = 0, 0
    for line in stream:
        if not data_start and line.startswith(_BOM):  # the first line alone
            line, data_start = line[1:], len(_BOM.encode())
        if line.strip():
            _check_utf8(line, 1 + header)
            if header or _is_number(line.split(",", 1)[0]):
                return data_start, header
            header = 1
        data_start += len(line.encode())
    raise EmptyDataset("no data records found")


_NOT_UTF8 = re.compile("[\udc80-\udcff]")  # what surrogateescape makes of such bytes


def _check_utf8(record: str, number: int) -> None:
    """Raise record ``number``'s :class:`ParseError` if it holds bytes that are not UTF-8."""
    if _NOT_UTF8.search(record):
        raise ParseError(f"record {number}: bytes that are not UTF-8", record=number)


def _to_float(field: str) -> float:
    """The number ``np.loadtxt`` reads in ``field``.  numpy strips every
    Unicode space (``float`` alone keeps ``\x1c``-``\x1f``) and hands the
    ASCII of the rest to ``PyOS_string_to_double``, as ``float`` does; but
    ``float`` also reads ``1_0`` and non-ASCII digits."""
    field = field.strip()
    if not field.isascii() or "_" in field:
        raise ValueError(f"not a number numpy reads: {field!r}")
    return float(field)


def _is_number(field: str) -> bool:
    try:
        _to_float(field)
    except ValueError:
        return False
    return True


def _parse_records(content: str, p: int, q: int, before: int = 0) -> np.ndarray:
    """The values of :func:`dataset_from_csv`, parsed one record at a time,
    or the error naming the first malformed record (one holding a byte that
    was not UTF-8 too).  ``before`` records of the input precede ``content``;
    when there are none, a leading BOM is skipped and the first record may be a header."""
    if not before:
        content = content.removeprefix(_BOM)
    lines = content.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    rows: list[list[float]] = []
    for number, line in enumerate((line for line in lines if line.strip()), start=before + 1):
        _check_utf8(line, number)
        fields = line.split(",")
        if number == 1 and not _is_number(fields[0]):
            continue  # header
        if len(fields) != p + q:
            raise ParseError(
                f"record {number}: expected {p + q} fields, got {len(fields)}",
                record=number,
            )
        try:
            rows.append([_to_float(field) for field in fields])
        except ValueError as exc:
            raise ParseError(
                f"record {number}: non-numeric field", record=number
            ) from exc
    if not rows:
        raise EmptyDataset("no data records found")
    return np.array(rows, dtype=np.float64)


def draw_dataset(
    gen: np.random.Generator, n_examples: int, p: int, q: int, noise_sd: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arrays (x, y, coef) that :func:`synth_dataset` wraps.

    Gaussian predictors with targets x @ coef + noise, drawn from ``gen`` in
    that order: x, coef, then the noise when ``noise_sd > 0``.
    """
    if n_examples < 1 or p < 1 or q < 1:
        raise ContractViolation(
            f"dimensions must be positive, got N={n_examples}, p={p}, q={q}"
        )
    if not noise_sd >= 0.0:
        raise ContractViolation(f"noise_sd must be non-negative, got {noise_sd}")
    x = gen.standard_normal((n_examples, p))
    coef = gen.standard_normal((p, q))
    y = x @ coef
    if noise_sd > 0.0:
        y = y + noise_sd * gen.standard_normal((n_examples, q))
    return x, y, coef


def synth_dataset(
    seed: SeedState, n_examples: int, p: int, q: int, noise_sd: float = 0.0
) -> tuple[Dataset, np.ndarray]:
    """Gaussian predictors with targets x @ coef + noise; returns (data, coef).

    With ``noise_sd == 0`` the targets lie exactly in the predictor column
    space.  Identical arguments always produce the identical dataset: every
    array is drawn from the one stream ``seed.generator()``.
    """
    x, y, coef = draw_dataset(seed.generator(), n_examples, p, q, noise_sd)
    return Dataset(x=x, y=y), coef
