"""Structured linear maps on one dataset axis, and how to draw them.

A morphism is a matrix tagged with the kind of structure it preserves and the
dataset axis it acts on.  Predictor and target morphisms multiply rows from
the right; index morphisms recombine examples from the left.  Those products
are written where they are used, in :mod:`natreg.naturality`.  The kinds form
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

from .errors import ContractViolation, SamplingFailed
from .linalg import SeedState, as_matrix, condition_estimate, numerical_rank


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
    right multiplication (``x @ matrix``); index morphisms store a target x
    source matrix applied by left multiplication (``matrix @ x``, ``matrix @
    y``).  ``source_dim`` and ``target_dim`` are read from the shape by that
    convention.  Construction copies the matrix into a read-only C-contiguous
    array and checks the kind's dimension rules; the structural constraint is
    checked by :func:`verify_morphism` and guaranteed by
    :func:`sample_morphism`.  Only the ``check_*`` oracle of
    :mod:`natreg.naturality` takes one; the audit uses bare matrices.
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


def draw_morphism_matrix(
    kind: CategoryKind,
    axis: Axis,
    source_dim: int,
    target_dim: int,
    gen: np.random.Generator,
) -> tuple[np.ndarray, float | None]:
    """The C-contiguous matrix that :func:`sample_morphism` wraps, drawn from
    ``gen``, and the condition number its draw was accepted on.

    finvec draws a Gaussian matrix; finvec_iso draws successive Gaussians
    until one has condition number at most ``DEFAULT_KAPPA_MAX``; set_iso
    permutes; discrete is the identity and draws nothing.  euc and euc_mono
    take ``Q`` of ``np.linalg.qr`` of a target x source Gaussian ``G``, its
    column signs flipped to make the diagonal of ``Q' G`` positive, so a
    draw is unique; euc returns the square ``Q``, euc_mono ``Q`` on the index
    axis and a C-contiguous copy of ``Q'`` on the others.  Only finvec_iso
    tests its draw (a Gaussian has full rank with probability one), and
    only it returns a condition number; the others return ``None``.
    """
    _check_dims(kind, source_dim, target_dim)
    if kind is CategoryKind.DISCRETE:
        return np.eye(source_dim), None
    if kind is CategoryKind.SET_ISO:
        perm = gen.permutation(source_dim)
        return np.eye(source_dim)[perm], None
    if kind is CategoryKind.FINVEC:
        if axis is Axis.INDEX:
            return gen.standard_normal((target_dim, source_dim)), None
        return gen.standard_normal((source_dim, target_dim)), None
    if kind is CategoryKind.FINVEC_ISO:
        for _ in range(_RESAMPLE_CAP):
            m = gen.standard_normal((source_dim, source_dim))
            kappa = condition_estimate(m)
            if kappa <= DEFAULT_KAPPA_MAX:
                return m, kappa
        raise SamplingFailed(
            f"no draw with condition <= {DEFAULT_KAPPA_MAX:g} in {_RESAMPLE_CAP} attempts"
        )
    q, r = np.linalg.qr(gen.standard_normal((target_dim, source_dim)))
    frame = q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    if kind is CategoryKind.EUC or axis is Axis.INDEX:
        return frame, None
    # euc_mono off the index axis: the frame transposed into a row-major copy
    # (products of a transposed view round differently)
    return np.ascontiguousarray(frame.T), None


def sample_morphism(
    kind: CategoryKind,
    axis: Axis,
    source_dim: int,
    target_dim: int,
    seed: SeedState,
) -> Morphism:
    """Draw a morphism of the requested kind, deterministically from the seed.

    The matrix comes from :func:`draw_morphism_matrix` on ``seed.generator()``.
    """
    matrix, _ = draw_morphism_matrix(kind, axis, source_dim, target_dim, seed.generator())
    return Morphism(kind=kind, axis=axis, matrix=matrix)


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
