"""Dataset container, CSV input, and synthetic dataset generation."""

from __future__ import annotations

import io
import os
import signal
import warnings
from dataclasses import dataclass
from typing import TextIO

import numpy as np

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
    ``encoding="utf-8"``.  A single leading header record is skipped when its
    first field is not numeric.  Blank lines are ignored.  Any other
    malformed record raises :class:`ParseError` carrying the 1-based record
    number.

    Valid input is parsed by ``np.loadtxt``.  A file is first scanned in
    chunks, then parsed through its descriptor in byte ranges that each end
    at a line end: one range per usable CPU, each range after the first in a
    forked process, once the data fills two ranges of ``MIN_PART_BYTES``.
    Neither its text nor its list of lines is ever held.  A file is read
    whole and takes the text path (``np.loadtxt`` over its lines) instead
    when it cannot be seeked (a pipe) or has no descriptor, or when the scan
    finds no data record, a character at which ``str.splitlines`` ends a
    line and numpy's file reader does not, or text that is not UTF-8.
    Whatever ``np.loadtxt`` rejects or shapes differently (including text
    that ``float`` accepts and numpy does not, such as ``1_0``) is parsed
    again by :func:`_parse_records`, which alone raises the parse errors.
    """
    if p < 1 or q < 1:
        raise ContractViolation(f"p and q must be positive, got p={p}, q={q}")
    if isinstance(content, str):
        values = _loadtxt_text(content)
    else:
        values = _loadtxt_file(content)
        if values is None:
            content = _read_from_start(content)
            values = _loadtxt_text(content)
    if values is None or values.shape[1] != p + q:
        if not isinstance(content, str):
            content = _read_from_start(content)
        values = _parse_records(content, p, q)
    return Dataset(x=values[:, :p], y=values[:, p:])


def _loadtxt(source, **options) -> np.ndarray | None:
    """One ``np.loadtxt`` call, or None where numpy rejects the input."""
    try:
        return np.loadtxt(
            source, delimiter=",", dtype=np.float64, comments=None, ndmin=2, **options
        )
    except ValueError:
        return None


def _loadtxt_text(content: str) -> np.ndarray | None:
    """:func:`_loadtxt` over the lines of ``content`` after its header."""
    # a list of lines, not one StringIO: StringIO stores the text as UCS-4
    lines = content.splitlines()
    first = _first_record(lines, 0)
    if first is not None and not _is_number(lines[first].split(",", 1)[0]):
        del lines[first]  # header
        first = _first_record(lines, first)
    if first is None:  # loadtxt warns on input without data
        return None
    return _loadtxt(lines)


def _loadtxt_file(handle: TextIO) -> np.ndarray | None:
    """:func:`_loadtxt` over the opened file, after the scan.

    Reads through ``handle``'s descriptor, never by reopening its path.  The
    data after the header is cut into line-aligned byte ranges, one per
    usable CPU and each at least ``MIN_PART_BYTES`` long; ranges after the
    first are parsed by forked children.  If any range fails, the whole file
    is parsed again as one range here.  None when the file must be read whole
    instead: see :func:`dataset_from_csv`.
    """
    if not (handle.seekable() and hasattr(os, "pread")):
        return None
    try:
        fd = handle.fileno()
    except io.UnsupportedOperation:
        return None  # no descriptor, such as a StringIO
    try:
        scanned = _lines_before_data(handle)
    except UnicodeDecodeError:
        return None  # read whole, the error gives its offset in the file
    if scanned is None:
        return None
    skiprows, data_start = scanned
    size = os.fstat(fd).st_size
    ranges = _ranges(fd, data_start, size)
    if len(ranges) > 1:
        values = _loadtxt_forked(fd, ranges, skiprows)
        if values is not None:
            return values
    return _loadtxt_range(fd, 0, size, skiprows)


# A fork and reap of a natreg process costs about 4 ms on a 2-vCPU host, and
# numpy parses about 45 MB/s, so a part breaks even near 180 KB; 1 MiB parts
# save several times what they cost.
MIN_PART_BYTES = 1 << 20


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _ranges(fd: int, data_start: int, size: int) -> list[tuple[int, int]]:
    """``[0, size)`` cut into byte ranges that each end just after a newline.

    Every cut lies past ``data_start``, so the first range holds the header.
    One range when parts would be under ``MIN_PART_BYTES`` or when
    ``os.fork`` is missing.
    """
    parts = min(_usable_cpus(), (size - data_start) // MIN_PART_BYTES)
    if not hasattr(os, "fork"):
        parts = 1
    cuts = [0]
    for i in range(1, parts):
        aim = max(data_start + (size - data_start) * i // parts, cuts[-1])
        cut = _after_newline(fd, aim, size)
        if cut >= size:
            break
        cuts.append(cut)
    cuts.append(size)
    return list(zip(cuts, cuts[1:]))


def _after_newline(fd: int, offset: int, size: int) -> int:
    """The offset just after the first ``b"\\n"`` at or after ``offset``."""
    while offset < size:
        chunk = os.pread(fd, 1 << 16, offset)
        if not chunk:
            break
        found = chunk.find(b"\n")
        if found >= 0:
            return offset + found + 1
        offset += len(chunk)
    return size


class _ByteRange(io.RawIOBase):
    """The bytes ``[start, end)`` of descriptor ``fd``, read with ``os.pread``."""

    def __init__(self, fd: int, start: int, end: int) -> None:
        super().__init__()
        self._fd, self._at, self._end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self._fd, min(len(buffer), self._end - self._at), self._at)
        buffer[: len(data)] = data
        self._at += len(data)
        return len(data)


def _loadtxt_range(fd: int, start: int, end: int, skiprows: int) -> np.ndarray | None:
    """:func:`_loadtxt` over the text of bytes ``[start, end)`` of ``fd``."""
    stream = io.TextIOWrapper(io.BufferedReader(_ByteRange(fd, start, end)), encoding="utf-8")
    return _loadtxt(stream, skiprows=skiprows)


def _loadtxt_forked(fd: int, ranges: list[tuple[int, int]], skiprows: int) -> np.ndarray | None:
    """The rows of every range in order, or None if any range fails.

    The first range is parsed here; each other one by a forked child, which
    sends its rows back through a pipe.  Every child is reaped before this
    returns, and killed first when its rows are not needed.
    """
    children: list[tuple[int, int]] = []
    values = None
    try:
        with warnings.catch_warnings():
            # a range may hold only blank lines; the scan saw a data record
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            for start, end in ranges[1:]:
                children.append(_fork_part(fd, start, end))
            values = _gather(_loadtxt_range(fd, *ranges[0], skiprows), children)
    except OSError:
        values = None  # no pipe or process to spare: parse in one process
    finally:
        for pid, pipe in children:
            os.close(pipe)
            if values is None:
                os.kill(pid, signal.SIGKILL)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    return None if any(statuses) else values


def _fork_part(fd: int, start: int, end: int) -> tuple[int, int]:
    """Fork a child that sends the rows of ``[start, end)``: (pid, pipe)."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:  # the child never returns, nor writes to stdout or stderr
        code = 1
        try:
            os.close(read_end)
            code = _send_part(fd, start, end, write_end)
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, read_end


def _send_part(fd: int, start: int, end: int, pipe: int) -> int:
    """Write the shape of the range's rows, then their float64 bytes: exit code."""
    values = _loadtxt_range(fd, start, end, 0)
    if values is None:
        return 1
    with open(pipe, "wb") as out:
        out.write(np.array(values.shape, dtype=np.int64))
        out.write(values)
    return 0


def _gather(first: np.ndarray | None, children: list[tuple[int, int]]) -> np.ndarray | None:
    """``first`` followed by each child's rows, read straight into one array."""
    if first is None:
        return None
    shapes = [first.shape]
    for _, pipe in children:
        shape = np.zeros(2, dtype=np.int64)
        if not _read_into(pipe, shape):
            return None
        shapes.append((int(shape[0]), int(shape[1])))
    columns = {cols for rows, cols in shapes if rows}
    if len(columns) != 1:
        return None
    values = np.empty((sum(rows for rows, _ in shapes), columns.pop()))
    at = len(first)
    if at:
        values[:at] = first
    for (rows, _), (_, pipe) in zip(shapes[1:], children):
        if rows and not _read_into(pipe, values[at : at + rows]):
            return None
        at += rows
    return values


def _read_into(pipe: int, array: np.ndarray) -> bool:
    """Fill ``array`` from ``pipe``; False if the pipe ends first."""
    view = memoryview(array).cast("B")
    while view:
        count = os.readv(pipe, [view])
        if not count:
            return False
        view = view[count:]
    return True


# str.splitlines ends a line at each of these; numpy's file reader does not
_SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_SCAN_CHARS = 1 << 20


def _lines_before_data(handle: TextIO) -> tuple[int, int] | None:
    """The lines up to and including the header, and the offset after them.

    (0, 0) when the first record is data.  None when the file holds no data
    record or any character of ``_SPLITLINES_ONLY``.  Reads to the end of
    the file: line by line up to the first data record, then in chunks of
    ``_SCAN_CHARS`` characters.
    """
    header = data_start = 0
    seen = 0
    while True:
        line = handle.readline()
        if not line or any(c in line for c in _SPLITLINES_ONLY):
            return None
        seen += 1
        if not line.strip():
            continue
        if header or _is_number(line.split(",", 1)[0]):
            break  # the first data record
        header = seen
        # a byte offset, unless the decoder holds state (a header ending in
        # a lone "\r"); then it exceeds the size and the file is not cut
        data_start = handle.tell()
    while chunk := handle.read(_SCAN_CHARS):
        if any(c in chunk for c in _SPLITLINES_ONLY):
            return None
    return header, data_start


def _read_from_start(handle: TextIO) -> str:
    if handle.seekable():
        handle.seek(0)
    return handle.read()


def _first_record(lines: list[str], start: int) -> int | None:
    """Index of the first non-blank line at or after ``start``."""
    return next((i for i in range(start, len(lines)) if lines[i].strip()), None)


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _parse_records(content: str, p: int, q: int) -> np.ndarray:
    """The values of :func:`dataset_from_csv`, parsed one record at a time."""
    records = [line for line in content.splitlines() if line.strip()]
    rows: list[list[float]] = []
    for number, line in enumerate(records, start=1):
        fields = line.split(",")
        if number == 1 and not _is_number(fields[0]):
            continue  # header
        if len(fields) != p + q:
            raise ParseError(
                f"record {number}: expected {p + q} fields, got {len(fields)}",
                record=number,
            )
        try:
            rows.append([float(field) for field in fields])
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
