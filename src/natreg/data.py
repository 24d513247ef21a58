"""Dataset container, CSV input, and synthetic dataset generation."""

from __future__ import annotations

import os
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

    Valid input is parsed by one ``np.loadtxt`` call.  A file is first
    scanned in chunks and then parsed from its path, so neither its text nor
    its list of lines is ever held.  A file is read whole and takes the text
    path (``np.loadtxt`` over its lines) instead when it cannot be read
    twice (a pipe), when the scan finds no data record, a character at which
    ``str.splitlines`` ends a line and numpy's file reader does not, or text
    that is not UTF-8, or when the file at its path changes during the
    parse.  Whatever ``np.loadtxt`` rejects or shapes differently (including
    text that ``float`` accepts and numpy does not, such as ``1_0``) is
    parsed again by :func:`_parse_records`, which alone raises the parse
    errors.
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
    """:func:`_loadtxt` over the file at ``handle.name``, after the scan.

    None when the file must be read whole instead: see
    :func:`dataset_from_csv`.
    """
    name = getattr(handle, "name", None)
    if not isinstance(name, str) or not handle.seekable():
        return None
    stamp = _stamp(os.fstat(handle.fileno()))
    try:
        skiprows = _lines_before_data(handle)
    except UnicodeDecodeError:
        return None  # read whole, the error gives its offset in the file
    if skiprows is None or not _unchanged(name, stamp):
        return None
    values = _loadtxt(name, skiprows=skiprows, encoding="utf-8")
    # the path must still name the bytes the scan read
    return values if _unchanged(name, stamp) else None


def _stamp(status: os.stat_result) -> tuple[int, int, int, int]:
    return status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns


def _unchanged(name: str, stamp: tuple[int, int, int, int]) -> bool:
    try:
        return _stamp(os.stat(name)) == stamp
    except OSError:
        return False


# str.splitlines ends a line at each of these; numpy's file reader does not
_SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_SCAN_CHARS = 1 << 20


def _lines_before_data(handle: TextIO) -> int | None:
    """The lines up to and including the header, read from ``handle``.

    0 when the first record is data.  None when the file holds no data
    record or any character of ``_SPLITLINES_ONLY``.  Reads to the end of
    the file: line by line up to the first data record, then in chunks of
    ``_SCAN_CHARS`` characters.
    """
    header = 0
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
    while chunk := handle.read(_SCAN_CHARS):
        if any(c in chunk for c in _SPLITLINES_ONLY):
            return None
    return header


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
