"""Dataset container, CSV input/output, and synthetic dataset generation."""

from __future__ import annotations

from dataclasses import dataclass

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


def dataset_from_csv(content: str, p: int, q: int) -> Dataset:
    """Parse comma-separated records with p predictor then q target fields.

    A single leading header record is skipped when its first field is not
    numeric.  Blank lines are ignored.  Any other malformed record raises
    :class:`ParseError` carrying the 1-based record number.
    """
    if p < 1 or q < 1:
        raise ContractViolation(f"p and q must be positive, got p={p}, q={q}")
    records = [line for line in content.splitlines() if line.strip()]
    rows: list[list[float]] = []
    for number, line in enumerate(records, start=1):
        fields = line.split(",")
        if number == 1:
            try:
                float(fields[0])
            except ValueError:
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
    values = np.array(rows, dtype=np.float64)
    return Dataset(x=values[:, :p], y=values[:, p:])


def dataset_to_csv(d: Dataset) -> str:
    """Serialize at 17 significant digits so parsing back is bit-exact."""
    lines = []
    for xi, yi in zip(d.x, d.y):
        fields = [format(v, ".17g") for v in (*xi, *yi)]
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


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
