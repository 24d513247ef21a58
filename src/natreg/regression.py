"""Linear regression fits from their closed forms, plus an iterative oracle.

All fits map a dataset to the coefficient matrix of a linear predictor
``x_new @ coef``.  The gradient-descent oracle exists so the closed forms can
be cross-checked by an independent route; it must never be replaced by a call
to the closed forms themselves.
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
from .linalg import EPS, as_matrix, solve_spd, solve_spd_stack


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


def _lstsq(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimum-norm least-squares solution and numerical rank of ``x``.

    One SVD-based solve; singular values at or below
    :func:`numerical_rank`'s cutoff, ``max(dims) * eps * s_max``, are
    treated as zero, so the rank agrees with that function.
    """
    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=max(x.shape) * EPS)
    return coef, int(rank)


def _ridge_system(x: np.ndarray, y: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The penalized normal equations (x'x + lam I, x'y) of a ridge fit."""
    return x.T @ x + float(lam) * np.eye(x.shape[1]), x.T @ y


def ols_fit(d: Dataset) -> LinearModel:
    """Least-squares fit from one SVD of ``x``, accurate to about kappa(x) * eps.

    Requires full column rank; otherwise the minimizer is not unique and a
    :class:`RankDeficient` error reports the detected rank.
    """
    coef, rank = _lstsq(d.x, d.y)
    if rank < d.p:
        raise RankDeficient(
            f"predictor matrix has numerical rank {rank} < {d.p}",
            rank=rank,
            required=d.p,
        )
    return LinearModel(coef)


def ridge_fit(d: Dataset, lam: float) -> LinearModel:
    """Penalized fit solving (x'x + lam I) coef = x'y; needs lam > 0 only."""
    _check_lambda(lam)
    return LinearModel(solve_spd(*_ridge_system(d.x, d.y, lam)))


def min_norm_ols_fit(d: Dataset) -> LinearModel:
    """Minimum-Frobenius-norm least-squares fit from the same SVD solve as OLS."""
    return LinearModel(_lstsq(d.x, d.y)[0])


def fit_systems(
    spec: AlgorithmSpec, systems: list[tuple[np.ndarray, np.ndarray]]
) -> list[np.ndarray | None]:
    """Coefficients of ``spec``'s fit to each (x, y) pair, from raw arrays.

    The same numbers :meth:`AlgorithmSpec.fit` gives one dataset at a time,
    without building a :class:`Dataset` or :class:`LinearModel` per pair.
    An entry is None where the pair leaves the fit's domain: ``x`` is
    rank-deficient for OLS, or the ridge system is not positive definite.
    Ridge systems of equal shape are solved as one stack.
    """
    coefs: list[np.ndarray | None] = [None] * len(systems)
    if spec.kind is AlgorithmKind.RIDGE:
        groups: dict[tuple[int, int], list[int]] = {}
        for i, (x, y) in enumerate(systems):
            groups.setdefault((x.shape[1], y.shape[1]), []).append(i)
        for members in groups.values():
            grams, rhs = zip(*(_ridge_system(*systems[i], spec.lam) for i in members))
            solved, definite = solve_spd_stack(np.stack(grams), np.stack(rhs))
            for i, coef, ok in zip(members, solved, definite):
                if ok:
                    coefs[i] = coef
    else:
        for i, (x, y) in enumerate(systems):
            coef, rank = _lstsq(x, y)
            if spec.kind is AlgorithmKind.MIN_NORM_OLS or rank == x.shape[1]:
                coefs[i] = coef
    if not all(np.isfinite(coef).all() for coef in coefs if coef is not None):
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
