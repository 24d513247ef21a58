"""Linear regression fits from their closed forms, plus an iterative oracle.

All fits map a dataset to the coefficient matrix of a linear predictor
``x_new @ coef``, read off one thin SVD of ``x`` (:func:`_factor`) through
its own gain on the singular values, so every fit is accurate to about
kappa(x) * eps.  :func:`_solve` is the one single fit:
:meth:`AlgorithmSpec.fit` runs it on ``x`` and ``y``, and ``natreg fit`` on
the R factor of ``[x | y]`` (:func:`fit_block_factors`).  The audit factors
each distinct ``x`` once for all of its fits (:func:`fit_systems`).  The
gradient-descent oracle exists so the closed forms can be cross-checked by an
independent route; it must never be replaced by a call to the closed forms
themselves.
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
from .linalg import _rank, as_matrix


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
        """This algorithm's fit to ``d``; see :func:`_solve`."""
        return LinearModel(_solve(self, d.x, d.y, d.x.shape))

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
    # an sse past the float64 range is inf, and says so without a warning
    with np.errstate(over="ignore"):
        r = d.y - d.x @ model.coef
        return float(np.sum(r * r))


def ridge_objective(d: Dataset, model: LinearModel, lam: float) -> float:
    """Sum of squared residuals plus lam times the squared coefficient norm."""
    if not lam >= 0.0:
        raise ContractViolation(f"lambda must be non-negative, got {lam}")
    return _penalized(sse(d, model), model.coef, lam)


def _penalized(sse_value: float, coef: np.ndarray, lam: float) -> float:
    """``sse_value`` plus lam times the squared norm of ``coef``; ``inf``
    past float64's range, without a warning."""
    with np.errstate(over="ignore"):
        return sse_value + float(lam) * float(np.sum(coef * coef))


def sse_gradient(d: Dataset, model: LinearModel) -> np.ndarray:
    """Gradient of :func:`sse` in the coefficients: 2 x'(x coef - y)."""
    _check_shapes(d, model)
    return 2.0 * d.x.T @ (d.x @ model.coef - d.y)


def ridge_objective_gradient(d: Dataset, model: LinearModel, lam: float) -> np.ndarray:
    """Gradient of :func:`ridge_objective`: 2 x'(x coef - y) + 2 lam coef."""
    if not lam >= 0.0:
        raise ContractViolation(f"lambda must be non-negative, got {lam}")
    return sse_gradient(d, model) + 2.0 * float(lam) * model.coef


def _gain(spec: AlgorithmSpec, s: np.ndarray, rank: int, p: int) -> np.ndarray | None:
    """The gain on the singular values ``s`` that turns ``u' y`` into
    ``spec``'s ``vt (coef)`` (see :func:`_coef`); None for OLS below full
    column rank ``p``, where it has no fit.

    Ridge's gain is s / (s^2 + lam), written 1 / (s + lam / s), which neither
    overflows for huge singular values (s^2 would, above about 1e154) nor
    divides by zero: where s is 0, or so small that lam / s overflows, it is
    0 (the caller ignores numpy's divide and overflow warnings).  OLS and
    minimum-norm OLS take 1 / s above the rank cutoff and 0 at or below it.
    Either way the error grows like kappa(x) * eps.
    """
    if spec.kind is AlgorithmKind.RIDGE:
        return 1.0 / (s + spec.lam / s)
    if spec.kind is AlgorithmKind.OLS and rank < p:
        return None
    gain = np.zeros_like(s)
    gain[:rank] = 1.0 / s[:rank]
    return gain


def _coef(vt: np.ndarray, gain: np.ndarray, uty: np.ndarray) -> np.ndarray:
    """The coefficients vt' diag(gain) u' y, from :func:`_factor`'s ``vt``,
    :func:`_gain`'s gain and ``u' y``."""
    return vt.T @ (gain[:, None] * uty)


# the errors of a fit whose data's norm, or whose coefficients, pass float64's range
_OVERFLOW = "the data are too large: their norm overflows float64"
_COEF_OVERFLOW = "the fitted coefficients overflow float64"


def _factor(
    specs: tuple[AlgorithmSpec, ...], x: np.ndarray, shape: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, int, list[np.ndarray | None]]:
    """``u'``, ``vt``, the numerical rank and every spec's :func:`_gain` from
    one thin SVD ``x = u diag(s) vt``; the rank is
    :func:`~natreg.linalg.numerical_rank`'s cutoff counted on ``shape``.

    Raises :class:`ContractViolation` when the largest singular value
    overflowed: the norm of ``x`` is past float64's range.
    """
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    if not np.isfinite(s[0]):
        raise ContractViolation(_OVERFLOW)
    rank = _rank(s, shape)
    with np.errstate(divide="ignore", over="ignore"):
        return u.T, vt, rank, [_gain(spec, s, rank, x.shape[1]) for spec in specs]


def _solve(spec: AlgorithmSpec, x: np.ndarray, y: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """``spec``'s coefficients for predictors ``x`` and targets ``y``, read
    off one thin SVD of ``x`` with the rank cutoff of ``shape``.

    Errors are those of :func:`_factor`, :class:`ContractViolation` when a
    coefficient is past float64's range, and OLS raises
    :class:`RankDeficient` below full column rank.
    """
    ut, vt, rank, [gain] = _factor((spec,), x, shape)
    if gain is None:
        raise RankDeficient(
            f"predictor matrix has numerical rank {rank} < {x.shape[1]}",
            rank=rank,
            required=x.shape[1],
        )
    with np.errstate(over="ignore"):
        coef = _coef(vt, gain, ut @ y)
    if not np.isfinite(coef).all():
        raise ContractViolation(_COEF_OVERFLOW)
    return coef


def fit_block_factors(
    spec: AlgorithmSpec, factors: np.ndarray, n_examples: int, p: int
) -> tuple[LinearModel, float, float]:
    """``spec``'s fit, its sse and its objective, from the R factors of the
    row blocks of ``[x | y]`` stacked in order (``n_examples`` rows, p
    predictor columns), as :func:`natreg.data.csv_block_factors` gives them.

    One more QR of the stack gives R = Q'[x | y] for some Q with orthonormal
    columns.  OLS and ridge commute with such recombinations of the examples
    (the audit's index axis), so the fit is :func:`_solve` on R11 = R[:p, :p]
    for x and R12 = R[:p, p:] for y, with the rank cutoff of the full
    (n_examples, p) shape.  The sse is ``|R [coef; -I]|^2``, and the
    objective adds ridge's penalty to it.  Errors are those of
    :func:`_solve`, and :class:`ContractViolation` when R is not finite: a
    column norm of ``[x | y]`` overflowed.  The digits can differ in their
    last bits from :meth:`AlgorithmSpec.fit` on the same data.
    """
    r = np.linalg.qr(factors, mode="r")
    if not np.isfinite(r).all():
        raise ContractViolation(_OVERFLOW)
    model = LinearModel(_solve(spec, r[:p, :p], r[:p, p:], (n_examples, p)))
    with np.errstate(over="ignore"):
        residual = r[:, :p] @ model.coef - r[:, p:]
        sse_value = float(np.sum(residual * residual))
    if spec.kind is AlgorithmKind.RIDGE:
        return model, sse_value, _penalized(sse_value, model.coef, spec.lam)
    return model, sse_value, sse_value


def ols_fit(d: Dataset) -> LinearModel:
    """Least-squares fit from one thin SVD of ``x``, accurate to about kappa(x) * eps.

    Requires full column rank; otherwise the minimizer is not unique and a
    :class:`RankDeficient` error reports the detected rank.
    """
    return AlgorithmSpec.ols().fit(d)


def ridge_fit(d: Dataset, lam: float) -> LinearModel:
    """Penalized fit from one thin SVD of ``x`` (see :func:`_gain`); needs lam > 0 only."""
    return AlgorithmSpec.ridge(lam).fit(d)


def min_norm_ols_fit(d: Dataset) -> LinearModel:
    """Minimum-Frobenius-norm least-squares fit from one thin SVD of ``x``."""
    return AlgorithmSpec.min_norm_ols().fit(d)


def fit_systems(
    specs: tuple[AlgorithmSpec, ...], systems: list[tuple[np.ndarray, np.ndarray]]
) -> list[list[np.ndarray | None]]:
    """Coefficients of every spec's fit to each (x, y) pair: one list per
    pair, with one entry per spec.

    The same numbers :meth:`AlgorithmSpec.fit` gives one dataset at a time,
    without building a :class:`Dataset` or :class:`LinearModel` per pair.
    Pairs whose ``x`` is the same object share its one :func:`_factor`.  An
    entry is None where the pair leaves the fit's domain, which only a
    rank-deficient ``x`` does, and only for OLS.  Errors are those of
    :func:`_factor`, and :class:`ContractViolation` when a coefficient is past
    float64's range.
    """
    factored = {}  # id(x) -> _factor(specs, x); systems keeps every x alive, so ids stay unique
    fits = []
    with np.errstate(over="ignore"):
        for x, y in systems:
            if id(x) not in factored:
                factored[id(x)] = _factor(specs, x, x.shape)
            ut, vt, _, gains = factored[id(x)]
            uty = ut @ y
            fits.append([None if gain is None else _coef(vt, gain, uty) for gain in gains])
    coefs = [c.ravel() for fit in fits for c in fit if c is not None]
    if coefs and not np.isfinite(np.concatenate(coefs)).all():
        raise ContractViolation(_COEF_OVERFLOW)
    return fits


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
