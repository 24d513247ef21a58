"""Structured linear maps acting on datasets and models.

A morphism is a matrix tagged with the kind of structure it preserves and the
dataset axis it acts on.  Predictor and target morphisms multiply rows from
the right; index morphisms recombine examples from the left.  The kinds form
a small fixed vocabulary:

  finvec      any linear map
  finvec_iso  invertible, condition-bounded
  euc         orthogonal (square, m' m = I)
  euc_mono    inner-product preserving into an equal or higher dimension
  set_iso     permutation
  discrete    identity only
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ContractViolation, SamplingFailed
from .linalg import (
    SeedState,
    as_matrix,
    condition_estimate,
    numerical_rank,
    qr_thin,
    sample_gaussian,
)
from .regression import LinearModel


class Axis(enum.Enum):
    PREDICTOR = "predictor"
    TARGET = "target"
    INDEX = "index"


class CategoryKind(enum.Enum):
    FINVEC = "finvec"
    FINVEC_ISO = "finvec_iso"
    EUC = "euc"
    EUC_MONO = "euc_mono"
    SET_ISO = "set_iso"
    DISCRETE = "discrete"


SQUARE_KINDS = frozenset(
    {CategoryKind.FINVEC_ISO, CategoryKind.EUC, CategoryKind.SET_ISO, CategoryKind.DISCRETE}
)

DEFAULT_KAPPA_MAX = 1e4
_RESAMPLE_CAP = 100


def _check_dims(kind: CategoryKind, source_dim: int, target_dim: int) -> None:
    """The dimension rules of a morphism kind: positive, square, or widening."""
    if source_dim < 1 or target_dim < 1:
        raise ContractViolation(f"dimensions must be positive, got {source_dim}->{target_dim}")
    if kind in SQUARE_KINDS and source_dim != target_dim:
        raise ContractViolation(
            f"{kind.value} morphisms are square, got {source_dim}->{target_dim}"
        )
    if kind is CategoryKind.EUC_MONO and target_dim < source_dim:
        raise ContractViolation(
            f"euc_mono needs target_dim >= source_dim, got {source_dim}->{target_dim}"
        )


@dataclass(frozen=True)
class Morphism:
    """A structured map between the dimensions given by its matrix's shape.

    Predictor and target morphisms store a source x target matrix applied by
    right multiplication; index morphisms store a target x source matrix
    applied by left multiplication.  ``source_dim`` and ``target_dim`` are
    read from the shape by that convention, and construction checks the
    kind's dimension rules; the structural constraint itself is checked by
    :func:`verify_morphism` and guaranteed by :func:`sample_morphism`.
    """

    kind: CategoryKind
    axis: Axis
    matrix: np.ndarray

    def __post_init__(self):
        matrix = as_matrix(self.matrix, "matrix")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        _check_dims(self.kind, self.source_dim, self.target_dim)

    @property
    def source_dim(self) -> int:
        return self.matrix.shape[1 if self.axis is Axis.INDEX else 0]

    @property
    def target_dim(self) -> int:
        return self.matrix.shape[0 if self.axis is Axis.INDEX else 1]


def sample_morphism(
    kind: CategoryKind,
    axis: Axis,
    source_dim: int,
    target_dim: int,
    seed: SeedState,
    kappa_max: float = DEFAULT_KAPPA_MAX,
) -> Morphism:
    """Draw a morphism of the requested kind, deterministically from the seed.

    finvec draws a Gaussian matrix; finvec_iso rejection-samples Gaussians
    until the condition number is at most ``kappa_max``; euc and euc_mono take
    the orthonormal factor of a Gaussian (thin QR with its sign convention, so
    draws are unique); set_iso permutes; discrete is the identity.
    """
    _check_dims(kind, source_dim, target_dim)
    if kind is CategoryKind.DISCRETE:
        m = np.eye(source_dim)
    elif kind is CategoryKind.SET_ISO:
        perm = seed.generator().permutation(source_dim)
        m = np.eye(source_dim)[perm]
    elif kind is CategoryKind.FINVEC:
        if axis is Axis.INDEX:
            m = sample_gaussian(target_dim, source_dim, seed)
        else:
            m = sample_gaussian(source_dim, target_dim, seed)
    elif kind is CategoryKind.FINVEC_ISO:
        if not kappa_max >= 1.0:
            raise ContractViolation(f"kappa_max must be >= 1, got {kappa_max}")
        for attempt in range(_RESAMPLE_CAP):
            m = sample_gaussian(source_dim, source_dim, seed.derive("attempt", attempt))
            if condition_estimate(m) <= kappa_max:
                break
        else:
            raise SamplingFailed(
                f"no draw with condition <= {kappa_max:g} in {_RESAMPLE_CAP} attempts"
            )
    elif kind is CategoryKind.EUC:
        m, _ = qr_thin(sample_gaussian(source_dim, source_dim, seed))
    else:  # EUC_MONO
        frame, _ = qr_thin(sample_gaussian(target_dim, source_dim, seed))
        m = frame if axis is Axis.INDEX else frame.T
    return Morphism(kind=kind, axis=axis, matrix=m)


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


def _check_action(morphism: Morphism, axis: Axis, end_dim: int, dim: int, what: str) -> None:
    """Raise unless ``morphism`` acts on ``axis`` and ``end_dim``, the dimension
    of its end that meets the data or model, equals ``what``'s dimension ``dim``."""
    if morphism.axis is not axis:
        raise ContractViolation(
            f"expected a morphism on the {axis.value} axis, got one on {morphism.axis.value}"
        )
    if end_dim != dim:
        raise ContractViolation(
            f"{axis.value} morphism {morphism.source_dim}->{morphism.target_dim} "
            f"does not fit {what} {dim}"
        )


def act_on_predictors(d: Dataset, morphism: Morphism) -> Dataset:
    """Transform predictor rows: x -> x @ m, targets untouched."""
    _check_action(morphism, Axis.PREDICTOR, morphism.source_dim, d.p, "dataset p")
    return Dataset(x=d.x @ morphism.matrix, y=d.y)


def act_on_targets(d: Dataset, morphism: Morphism) -> Dataset:
    """Transform target rows: y -> y @ m, predictors untouched."""
    _check_action(morphism, Axis.TARGET, morphism.source_dim, d.q, "dataset q")
    return Dataset(x=d.x, y=d.y @ morphism.matrix)


def act_on_index(d: Dataset, morphism: Morphism) -> Dataset:
    """Recombine examples: x -> m @ x and y -> m @ y together."""
    _check_action(morphism, Axis.INDEX, morphism.source_dim, d.n_examples, "dataset N")
    return Dataset(x=morphism.matrix @ d.x, y=morphism.matrix @ d.y)


def model_action_target(model: LinearModel, morphism: Morphism) -> LinearModel:
    """Push a model forward along a target morphism: coef -> coef @ m."""
    _check_action(morphism, Axis.TARGET, morphism.source_dim, model.q, "model q")
    return LinearModel(model.coef @ morphism.matrix)


def model_precompose_predictor(morphism: Morphism, model: LinearModel) -> LinearModel:
    """Pull a model back along a predictor morphism: coef -> m @ coef.

    The result predicts on the morphism's source coordinates, so the model
    must live on its target coordinates.
    """
    _check_action(morphism, Axis.PREDICTOR, morphism.target_dim, model.p, "model p")
    return LinearModel(morphism.matrix @ model.coef)
