"""The paper's two counterexamples in exact rational arithmetic, and the
algorithm names and penalty check that the fits share with them.

Each witness fits one example (x, y = 1), where minimum-norm OLS (lam = 0,
x nonzero) and ridge share one closed form, x' / (|x|^2 + lam).  Its values
are computed as :class:`~fractions.Fraction` from the float inputs, each
rounded once by ``float()``, which rounds correctly; a matrix is a tuple of
rows.  Only the standard library is used, so ``natreg counterexamples``
loads no numpy.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass

from .errors import ContractViolation, InvalidHyperparameter

# Counterexample residuals above this threshold count as exhibited.
COUNTEREXAMPLE_THRESHOLD = 1e-6


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


def _one_example_fit(
    x: tuple[numbers.Rational, ...], lam: numbers.Rational = 0
) -> tuple[numbers.Rational, ...]:
    """The coefficients x' / (|x|^2 + lam) of the one example (x, y = 1)."""
    denominator = sum(v * v for v in x) + lam
    return tuple(v / denominator for v in x)


def _column(values: tuple[numbers.Rational, ...]) -> tuple[tuple[float], ...]:
    """``values`` rounded once each, as the rows of a column matrix."""
    return tuple((float(v),) for v in values)


@dataclass(frozen=True)
class ShearCounterexample:
    """Minimum-norm fit under a shear of an underdetermined predictor space.

    One example with x = [1, 0] and y = 1.  Both the original and sheared
    data are fit exactly (both sse vanish), yet pulling the second fit back
    through the shear misses the first in its second coordinate, leaving a
    diagram residual of |k| / (1 + k^2).
    """

    k: float
    fit: tuple[tuple[float], ...]
    fit_transformed: tuple[tuple[float], ...]
    pulled_back: tuple[tuple[float], ...]
    residual: float
    sse_original: float
    sse_transformed: float

    @property
    def violation_exhibited(self) -> bool:
        return self.residual > COUNTEREXAMPLE_THRESHOLD


def counterexample_ols_shear(k: float) -> ShearCounterexample:
    """Exact witness that the minimum-norm fit is not shear-equivariant."""
    # imported here: `natreg fit` and `natreg audit` load this module for AlgorithmKind alone
    from fractions import Fraction
    if not math.isfinite(k):
        raise ContractViolation(f"k must be finite, got {k}")
    shear = Fraction(k)
    x, sheared = (Fraction(1), Fraction(0)), (Fraction(1), shear)  # x and x @ [[1, k], [0, 1]]
    fit, refit = _one_example_fit(x), _one_example_fit(sheared)
    pulled_back = (refit[0] + shear * refit[1], refit[1])
    sse = [(1 - sum(map(operator.mul, row, coef))) ** 2 for row, coef in ((x, fit), (sheared, refit))]
    return ShearCounterexample(
        k=float(k),
        fit=_column(fit),
        fit_transformed=_column(refit),
        pulled_back=_column(pulled_back),
        # the first coordinates agree (both are 1): |k| / (1 + k^2), 0 only at k = 0
        residual=float(abs(pulled_back[1] - fit[1])),
        sse_original=float(sse[0]),
        sse_transformed=float(sse[1]),
    )


@dataclass(frozen=True)
class ScalingCounterexample:
    """Penalized fit under a scalar predictor rescaling x -> c x.

    With one example (x = b, y = 1) the closed forms give
    fit = b / (b^2 + lambda) and fit_transformed = b c / (b^2 c^2 + lambda).
    Commuting would force fit_transformed = fit / c, which holds only in the
    unpenalized limit, so a positive penalty leaves a nonzero residual.
    ``fit_closed_form`` and ``fit_transformed_closed_form`` equal ``fit``
    and ``fit_transformed``: the fits are their closed forms, rounded once.
    """

    b: float
    c: float
    lam: float
    fit: float
    fit_transformed: float
    fit_closed_form: float
    fit_transformed_closed_form: float
    expected_if_natural: float
    residual: float
    pulled_back_residual: float

    @property
    def violation_exhibited(self) -> bool:
        return self.residual > COUNTEREXAMPLE_THRESHOLD


def counterexample_ridge_scaling(b: float, c: float, lam: float) -> ScalingCounterexample:
    """Exact witness that the penalized fit is not scaling-equivariant.

    A witness that float64 cannot show raises :class:`ContractViolation`:
    one where ``b * c``, ``fit / c`` or ``c * fit'`` overflows, or where a
    residual is nonzero but rounds to 0.
    """
    from fractions import Fraction
    if not math.isfinite(b):
        raise ContractViolation(f"b must be finite, got {b}")
    if not (math.isfinite(c) and c != 0.0):
        raise ContractViolation(f"c must be finite and nonzero, got {c}")
    b, c = float(b), float(c)
    if not math.isfinite(b * c):
        raise ContractViolation(f"b * c overflows float64 (b = {b:g}, c = {c:g})")
    _check_lambda(lam)  # before float(), which would pass a bool as 0.0 or 1.0
    lam = float(lam)
    where = f"(b = {b:g}, c = {c:g}, lambda = {lam:g})"
    scale, penalty = Fraction(c), Fraction(lam)
    [fit] = _one_example_fit((Fraction(b),), penalty)
    [refit] = _one_example_fit((Fraction(b) * scale,), penalty)
    for name, value in (("fit / c", fit / scale), ("c * fit'", scale * refit)):
        try:
            float(value)
        except OverflowError:
            raise ContractViolation(f"{name} overflows float64 {where}") from None
    gaps = {"|fit' - fit/c|": abs(refit - fit / scale), "|c fit' - fit|": abs(scale * refit - fit)}
    for name, gap in gaps.items():
        if gap and not float(gap):
            raise ContractViolation(f"{name} is nonzero but rounds to 0 in float64 {where}")
    residual, pulled_back_residual = map(float, gaps.values())
    return ScalingCounterexample(
        b=b,
        c=c,
        lam=lam,
        fit=float(fit),
        fit_transformed=float(refit),
        fit_closed_form=float(fit),
        fit_transformed_closed_form=float(refit),
        expected_if_natural=float(fit / scale),
        residual=residual,
        pulled_back_residual=pulled_back_residual,
    )
