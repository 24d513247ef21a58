"""Linear regression fits from their closed forms, plus an iterative oracle.

All fits map a dataset to the coefficient matrix of a linear predictor
``x_new @ coef``, read off one thin SVD of ``x`` through its own gain on the
singular values, so every fit is accurate to about kappa(x) * eps, and the
audit factors each system once for all of them.  The gradient-descent oracle
exists so the closed forms can be cross-checked by an independent route; it
must never be replaced by a call to the closed forms themselves.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import (
    ContractViolation,
    InvalidHyperparameter,
    OracleDiverged,
    RankDeficient,
)
from .linalg import EPS, as_matrix


@dataclass(frozen=True)
class LinearModel:
    """Coefficient matrix of the linear map x -> x @ coef (shape p-by-q)."""

    coef: np.ndarray

    def __post_init__(self):
        coef = as_matrix(self.coef, "coef")
        coef.setflags(write=False)
        object.__setattr__(self, "coef", coef)

    @property
    def p(self) -> int:
        return self.coef.shape[0]

    @property
    def q(self) -> int:
        return self.coef.shape[1]


class AlgorithmKind(enum.Enum):
    OLS = "ols"
    RIDGE = "ridge"
    MIN_NORM_OLS = "minnorm-ols"


def _check_lambda(lam: float) -> None:
    """The ridge penalty must be a positive finite number (a bool is not one)."""
    if isinstance(lam, bool) or not (
        isinstance(lam, numbers.Real) and math.isfinite(lam) and lam > 0.0
    ):
        raise InvalidHyperparameter(f"lambda must be a positive finite number, got {lam}")


@dataclass(frozen=True)
class AlgorithmSpec:
    """A fitting algorithm plus its hyperparameter, if it takes one."""

    kind: AlgorithmKind
    lam: float | None = None

    def __post_init__(self):
        if self.kind is AlgorithmKind.RIDGE:
            if self.lam is None:
                raise InvalidHyperparameter("ridge requires lambda")
            _check_lambda(self.lam)
            object.__setattr__(self, "lam", float(self.lam))
        elif self.lam is not None:
            raise InvalidHyperparameter(f"{self.kind.value} takes no lambda")

    @classmethod
    def ols(cls) -> "AlgorithmSpec":
        return cls(AlgorithmKind.OLS)

    @classmethod
    def ridge(cls, lam: float) -> "AlgorithmSpec":
        return cls(AlgorithmKind.RIDGE, lam)

    @classmethod
    def min_norm_ols(cls) -> "AlgorithmSpec":
        return cls(AlgorithmKind.MIN_NORM_OLS)

    def fit(self, d: Dataset) -> LinearModel:
        if self.kind is AlgorithmKind.OLS:
            return ols_fit(d)
        if self.kind is AlgorithmKind.RIDGE:
            return ridge_fit(d, self.lam)
        return min_norm_ols_fit(d)

    def label(self) -> str:
        if self.kind is AlgorithmKind.RIDGE:
            return f"ridge(lambda={self.lam:g})"
        return self.kind.value


def _check_shapes(d: Dataset, model: LinearModel) -> None:
    if model.p != d.p or model.q != d.q:
        raise ContractViolation(
            f"model is {model.p}x{model.q}, dataset needs {d.p}x{d.q}"
        )


def sse(d: Dataset, model: LinearModel) -> float:
    """Sum of squared residuals over all examples and target coordinates."""
    _check_shapes(d, model)
    r = d.y - d.x @ model.coef
    return float(np.sum(r * r))


def ridge_objective(d: Dataset, model: LinearModel, lam: float) -> float:
    """Sum of squared residuals plus lam times the squared coefficient norm."""
    if not lam >= 0.0:
        raise ContractViolation(f"lambda must be non-negative, got {lam}")
    return sse(d, model) + float(lam) * float(np.sum(model.coef * model.coef))


def sse_gradient(d: Dataset, model: LinearModel) -> np.ndarray:
    """Gradient of :func:`sse` in the coefficients: 2 x'(x coef - y)."""
    _check_shapes(d, model)
    return 2.0 * d.x.T @ (d.x @ model.coef - d.y)


def ridge_objective_gradient(d: Dataset, model: LinearModel, lam: float) -> np.ndarray:
    """Gradient of :func:`ridge_objective`: 2 x'(x coef - y) + 2 lam coef."""
    if not lam >= 0.0:
        raise ContractViolation(f"lambda must be non-negative, got {lam}")
    return sse_gradient(d, model) + 2.0 * float(lam) * model.coef


def _factor(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``s``, ``vt``, ``u' y`` and the numerical rank, from one thin SVD
    ``x = u diag(s) vt``; the rank counts the ``s`` above
    :func:`~natreg.linalg.numerical_rank`'s cutoff, ``max(dims) * eps * s_max``."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    return s, vt, u.T @ y, int(np.count_nonzero(s > max(x.shape) * EPS * s[0]))


def _coef(
    spec: AlgorithmSpec, s: np.ndarray, vt: np.ndarray, uty: np.ndarray, rank: int
) -> np.ndarray | None:
    """``spec``'s coefficients vt' diag(gain) u' y from :func:`_factor`'s
    factors; None for OLS when the rank is below the column count.

    Ridge's gain is s / (s^2 + lam), written 1 / (s + lam / s), which neither
    overflows for huge singular values (s^2 would, above about 1e154) nor
    divides by zero: where s is 0, or so small that lam / s overflows, it is
    0.  OLS and minimum-norm OLS take 1 / s above the rank cutoff and 0 at or
    below it.  Either way the error grows like kappa(x) * eps.
    """
    if spec.kind is AlgorithmKind.RIDGE:
        with np.errstate(divide="ignore", over="ignore"):
            gain = 1.0 / (s + spec.lam / s)
    elif spec.kind is AlgorithmKind.OLS and rank < vt.shape[1]:
        return None
    else:
        gain = np.zeros_like(s)
        gain[:rank] = 1.0 / s[:rank]
    return vt.T @ (gain[:, None] * uty)


def ols_fit(d: Dataset) -> LinearModel:
    """Least-squares fit from one thin SVD of ``x``, accurate to about kappa(x) * eps.

    Requires full column rank; otherwise the minimizer is not unique and a
    :class:`RankDeficient` error reports the detected rank.
    """
    s, vt, uty, rank = _factor(d.x, d.y)
    if rank < d.p:
        raise RankDeficient(
            f"predictor matrix has numerical rank {rank} < {d.p}",
            rank=rank,
            required=d.p,
        )
    return LinearModel(_coef(AlgorithmSpec.ols(), s, vt, uty, rank))


def ridge_fit(d: Dataset, lam: float) -> LinearModel:
    """Penalized fit from one thin SVD of ``x`` (see :func:`_coef`); needs lam > 0 only."""
    return LinearModel(_coef(AlgorithmSpec.ridge(lam), *_factor(d.x, d.y)))


def min_norm_ols_fit(d: Dataset) -> LinearModel:
    """Minimum-Frobenius-norm least-squares fit from one thin SVD of ``x``."""
    return LinearModel(_coef(AlgorithmSpec.min_norm_ols(), *_factor(d.x, d.y)))


def fit_systems(
    specs: tuple[AlgorithmSpec, ...], systems: list[tuple[np.ndarray, np.ndarray]]
) -> list[list[np.ndarray | None]]:
    """Coefficients of each spec's fit (one list per spec) to each (x, y) pair.

    The same numbers :meth:`AlgorithmSpec.fit` gives one dataset at a time,
    from one factorization of each pair for every spec, and without building
    a :class:`Dataset` or :class:`LinearModel` per pair.  An entry is None
    where the pair leaves the fit's domain, which only a rank-deficient ``x``
    does, and only for OLS.
    """
    factors = [_factor(x, y) for x, y in systems]
    coefs = [[_coef(spec, *f) for f in factors] for spec in specs]
    if not all(np.isfinite(c).all() for column in coefs for c in column if c is not None):
        raise ContractViolation("coef contains non-finite entries")
    return coefs


def ols_oracle_fit(
    d: Dataset, steps: int, step_size: float | None = None
) -> LinearModel:
    """Gradient descent on the sum of squared residuals, started from zero.

    An independent route to the least-squares solution, used to certify
    :func:`ols_fit`.  The default step size 1 / (2 trace(x'x)) always
    converges; an explicit step that makes the objective increase raises
    :class:`OracleDiverged`.  Iteration stops early once the gradient is at
    machine-precision scale.
    """
    if steps < 1:
        raise ContractViolation(f"steps must be positive, got {steps}")
    xtx = d.x.T @ d.x
    xty = d.x.T @ d.y
    if step_size is None:
        step_size = 1.0 / (2.0 * float(np.trace(xtx)))
    if not step_size > 0.0:
        raise ContractViolation(f"step_size must be positive, got {step_size}")
    y_sq = float(np.sum(d.y * d.y))
    grad_floor = 1e-15 * (1.0 + float(np.linalg.norm(xty)))
    coef = np.zeros((d.p, d.q))
    previous = y_sq  # objective at coef = 0
    for _ in range(steps):
        grad = 2.0 * (xtx @ coef - xty)
        if float(np.linalg.norm(grad)) <= grad_floor:
            break
        coef = coef - step_size * grad
        # Expand |y - x coef|^2 through the precomputed Gram matrix.
        objective = (
            y_sq
            - 2.0 * float(np.sum(coef * xty))
            + float(np.sum(coef * (xtx @ coef)))
        )
        if objective > previous + 1e-12 * (1.0 + previous):
            raise OracleDiverged(
                f"objective rose from {previous:.6e} to {objective:.6e}; "
                "step size too large"
            )
        previous = objective
    return LinearModel(coef)
