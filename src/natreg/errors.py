"""Exception types shared across the package."""

from __future__ import annotations


class NatregError(Exception):
    """Base class for every error this package raises on purpose."""


class ContractViolation(NatregError, ValueError):
    """An argument breaks a documented precondition (shape, range, dtype)."""


class NotPositiveDefinite(NatregError):
    """A symmetric solve hit a non-positive pivot."""


class RankDeficient(NatregError):
    """A matrix that must have full column rank does not.

    Carries the detected rank so callers can report how far short it fell.
    """

    def __init__(self, message: str, rank: int, required: int):
        super().__init__(message)
        self.rank = rank
        self.required = required


class InvalidHyperparameter(NatregError, ValueError):
    """A hyperparameter is outside its admissible range."""


class ParseError(NatregError, ValueError):
    """A CSV record could not be parsed.  Carries the 1-based record number."""

    def __init__(self, message: str, record: int):
        super().__init__(message)
        self.record = record


class EmptyDataset(NatregError):
    """An input that must contain at least one example contains none."""


class ConfigError(NatregError, ValueError):
    """An audit configuration field is invalid.  Carries the field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class SamplingFailed(NatregError):
    """Rejection sampling hit its attempt cap without an admissible draw."""
