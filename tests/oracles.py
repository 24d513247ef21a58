"""Independent references that the tests certify natreg against.

The sum of squared residuals, the gradient-descent OLS fit, the ridge
objective and the analytic gradients of both fit objectives, the structural
check of a morphism, and what the CSV readers owe an input.  None of them
ships in the package.  The gradient-descent oracle exists so the closed
forms can be cross-checked by an independent route; it must never be
replaced by a call to the closed forms themselves.
"""

from __future__ import annotations

import io
import math

import numpy as np

from natreg.data import Dataset, _data_start, _parse_records
from natreg.errors import ContractViolation, NatregError
from natreg.linalg import numerical_rank
from natreg.morphisms import Axis, CategoryKind, Morphism
from natreg.regression import LinearModel, _penalized


class OracleDiverged(NatregError):
    """The gradient-descent reference fit increased its objective."""


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


def sse_gradient(d: Dataset, model: LinearModel) -> np.ndarray:
    """Gradient of :func:`sse` in the coefficients: 2 x'(x coef - y)."""
    _check_shapes(d, model)
    return 2.0 * d.x.T @ (d.x @ model.coef - d.y)


def ridge_objective_gradient(d: Dataset, model: LinearModel, lam: float) -> np.ndarray:
    """Gradient of :func:`ridge_objective`: 2 x'(x coef - y) + 2 lam coef."""
    if not lam >= 0.0:
        raise ContractViolation(f"lambda must be non-negative, got {lam}")
    return sse_gradient(d, model) + 2.0 * float(lam) * model.coef


def ols_oracle_fit(
    d: Dataset, steps: int, step_size: float | None = None
) -> LinearModel:
    """Gradient descent on the sum of squared residuals, started from zero.

    An independent route to the least-squares solution, used to certify
    :func:`~natreg.regression.ols_fit`.  The default step size
    1 / (2 trace(x'x)) always converges; an explicit step that makes the
    objective increase raises :class:`OracleDiverged`.  Iteration stops
    early once the gradient is at machine-precision scale.
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


def verify_morphism(morphism: Morphism) -> float:
    """Residual of the structural constraint for the morphism's kind; 0 is exact."""
    m = morphism.matrix
    kind = morphism.kind
    if kind is CategoryKind.FINVEC:
        return 0.0
    if kind is CategoryKind.DISCRETE:
        return float(np.linalg.norm(m - np.eye(morphism.source_dim)))
    if kind is CategoryKind.FINVEC_ISO:
        if numerical_rank(m) < morphism.source_dim:
            return math.inf
        return 0.0
    if kind is CategoryKind.SET_ISO:
        eye = np.eye(morphism.source_dim)
        orthogonality = float(np.linalg.norm(m.T @ m - eye))
        binary = float(np.linalg.norm(m * (m - 1.0)))
        return max(orthogonality, binary)
    # euc and euc_mono: the small Gram matrix must be the identity on the source.
    if morphism.axis is Axis.INDEX:
        gram = m.T @ m
    else:
        gram = m @ m.T
    return float(np.linalg.norm(gram - np.eye(morphism.source_dim)))


def csv_reference(raw: bytes, p: int, q: int) -> Dataset:
    """The CSV contract: a file's or a pipe's outcome is the record parser's
    on its bytes ``raw`` decoded with surrogateescape."""
    values = _parse_records(raw.decode("utf-8", "surrogateescape"), p, q)
    return Dataset(x=values[:, :p], y=values[:, p:])


def csv_block_factors_reference(raw: bytes, p: int, q: int, step: int) -> tuple[np.ndarray, int]:
    """``csv_block_factors`` on bytes ``raw`` that :func:`csv_reference`
    accepts, reduced one block at a time in this process: the R factor of
    each block's rows, stacked in order, and N.  A block ends just after the
    first newline at or past each multiple of ``step`` bytes from the first
    data record (where natreg's scan finds it), or at the end."""
    start, _ = _data_start(io.TextIOWrapper(io.BytesIO(raw), "utf-8", newline=""))
    ends = {raw.find(b"\n", aim) + 1 or len(raw) for aim in range(start + step, len(raw), step)}
    cuts = [start, *sorted(ends | {len(raw)})]
    blocks = [raw[start:end].decode() for start, end in zip(cuts, cuts[1:])]
    rows = [_parse_records(b, p, q, before=1) if b.strip() else np.empty((0, p + q)) for b in blocks]
    return np.concatenate([np.linalg.qr(r, mode="r") for r in rows]), sum(map(len, rows))
