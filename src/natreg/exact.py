"""The paper's two counterexamples in exact rational arithmetic, and the
algorithm names and penalty check that the fits share with them.

Each witness fits one example (x, y = 1), where minimum-norm OLS (lam = 0,
x nonzero) and ridge share one closed form, x' / (|x|^2 + lam).  Its values
are computed as :class:`~fractions.Fraction` from the float inputs, and each
value reported is rounded once, correctly, by :func:`_float`; a matrix is a
tuple of rows.  Only the standard library is used, so ``natreg counterexamples``
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


def _float(name: str, value: numbers.Rational, where: str, *, shown: bool = True) -> float:
    """``value`` rounded once to float64, refused (naming it and ``where``) if it
    overflows or, when it is ``shown``, if it is nonzero but rounds to 0."""
    try:
        rounded = float(value)
    except OverflowError:
        raise ContractViolation(f"{name} overflows float64 {where}") from None
    if shown and value and not rounded:
        raise ContractViolation(f"{name} is nonzero but rounds to 0 in float64 {where}")
    return rounded


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
    """Exact witness that the minimum-norm fit is not shear-equivariant; refused
    for |k| above about 6.4e161, where fit' = 1 / (1 + k^2) rounds to 0."""
    # imported here: `natreg fit` and `natreg audit` load this module for AlgorithmKind alone
    from fractions import Fraction
    if not math.isfinite(k):
        raise ContractViolation(f"k must be finite, got {k}")
    k = float(k)
    where = f"(k = {k:g})"
    shear = Fraction(k)
    x, sheared = (Fraction(1), Fraction(0)), (Fraction(1), shear)  # x and x @ [[1, k], [0, 1]]
    fit, refit = _one_example_fit(x), _one_example_fit(sheared)
    pulled_back = (refit[0] + shear * refit[1], refit[1])
    sse = [(1 - sum(map(operator.mul, row, coef))) ** 2 for row, coef in ((x, fit), (sheared, refit))]
    return ShearCounterexample(
        k=k,
        fit=tuple((_float("fit", v, where),) for v in fit),
        fit_transformed=tuple((_float("fit'", v, where),) for v in refit),
        pulled_back=tuple((_float("shear @ fit'", v, where),) for v in pulled_back),
        # the first coordinates agree (both are 1): |k| / (1 + k^2), 0 only at k = 0
        residual=_float("|shear @ fit' - fit|", abs(pulled_back[1] - fit[1]), where),
        sse_original=_float("sse", sse[0], where),
        sse_transformed=_float("sse'", sse[1], where),
    )


@dataclass(frozen=True)
class ScalingCounterexample:
    """Penalized fit under a scalar predictor rescaling x -> c x.

    With one example (x = b, y = 1) the closed forms give
    fit = b / (b^2 + lambda) and fit_transformed = b c / (b^2 c^2 + lambda).
    Commuting would force fit_transformed = fit / c, which holds only in the
    unpenalized limit, so a positive penalty leaves a nonzero residual.
    """

    b: float
    c: float
    lam: float
    fit: float
    fit_transformed: float
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
    residual, ``fit``, ``fit'`` or ``fit / c`` is nonzero but rounds to 0.
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
    expected, pulled_back = fit / scale, scale * refit
    # Overflows are refused before any value that rounds to 0.  c * fit' is not
    # shown, but |c fit' - fit| can overflow only where it does.
    for name, value in (("fit / c", expected), ("c * fit'", pulled_back)):
        _float(name, value, where, shown=False)
    return ScalingCounterexample(  # keywords in refusal order: the residuals first
        b=b,
        c=c,
        lam=lam,
        residual=_float("|fit' - fit/c|", abs(refit - expected), where),
        pulled_back_residual=_float("|c fit' - fit|", abs(pulled_back - fit), where),
        fit=_float("fit", fit, where),
        fit_transformed=_float("fit'", refit, where),
        expected_if_natural=_float("fit / c", expected, where),
    )
