"""Commutative-diagram checks and the randomized audit engine.

For a fitting algorithm F and a structured map on one dataset axis, the
corresponding diagram commutes when transforming the data and fitting agrees
with fitting and transforming the model:

  target axis     fit(y @ eta)        == fit(y) @ eta
  predictor axis  xi @ fit(x @ xi)    == fit(x)          (pulling back)
  index axis      fit(m @ x, m @ y)   == fit(x, y)

These products are written out where they are used.  Each ``check_*``
function returns one diagram's relative residual for a ``Dataset`` and a
``Morphism``, fitting through :meth:`AlgorithmSpec.fit`; it is the reference
for the audit engine (:func:`_transform`, :func:`_residual`), which computes
the same numbers from raw arrays for many seeded trials per (algorithm,
axis, kind) cell and compares the outcome with the expected classification.
The two exact counterexamples that pin down why the negative cells are
negative are in :mod:`natreg.exact`.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._forkjoin import fork_map
from ._forkjoin import usable_cpus as _usable_cpus
from .data import Dataset, draw_dataset
from .errors import ConfigError, ContractViolation
# re-exported for benchmarks/trace_child.py, until its in-process tracer is retired
from .exact import counterexample_ols_shear, counterexample_ridge_scaling  # noqa: F401
from .linalg import SeedState, _rel_distance, _stream_modules, rel_distance
from .morphisms import Axis, CategoryKind, Morphism, SQUARE_KINDS, draw_morphism_matrix, subcategories
from .regression import AlgorithmKind, AlgorithmSpec, fit_systems

# Noise level for audit trial datasets; naturality does not depend on it.
TRIAL_NOISE_SD = 1.0

# The fixed regime each trial's dimensions are drawn from: p and q from
# these inclusive ranges, and N from p + 1 to MAX_EXAMPLES, so that OLS has
# full rank almost surely.  A non-square map's codomain is at most
# CODOMAIN_OFFSET above its domain (euc_mono) or either side of it (finvec).
P_RANGE = (1, 8)
Q_RANGE = (1, 8)
MAX_EXAMPLES = 40
CODOMAIN_OFFSET = 5

# A trial counts as an exhibited violation only well clear of the pass line.
VIOLATION_MARGIN = 10.0

ALL_AXES = tuple(Axis)
ALL_CATEGORIES = tuple(CategoryKind)

# Each algorithm's maximal category per axis: its diagram is expected to
# commute with the maps of that kind and of every kind below it.
#   target     finvec for both: both closed forms are linear in y.
#   index      euc_mono for both: a recombination commutes exactly when it
#              preserves the Gram matrices x'x and x'y, as inner-product
#              preserving maps into as many or more examples do.
#   predictor  finvec_iso for OLS: the least-squares fit commutes with every
#              invertible map, and a dimension-raising map leaves x rank
#              deficient, outside its domain.  euc_mono for ridge: the
#              penalty also needs the map to preserve inner products, and an
#              isometry into a higher dimension does.
MAXIMAL = {
    AlgorithmKind.OLS: {
        Axis.TARGET: CategoryKind.FINVEC,
        Axis.PREDICTOR: CategoryKind.FINVEC_ISO,
        Axis.INDEX: CategoryKind.EUC_MONO,
    },
    AlgorithmKind.RIDGE: {
        Axis.TARGET: CategoryKind.FINVEC,
        Axis.PREDICTOR: CategoryKind.EUC_MONO,
        Axis.INDEX: CategoryKind.EUC_MONO,
    },
}

# The algorithms with an expected classification, hence the ones audited.
AUDITED_KINDS = tuple(MAXIMAL)


def check_target_naturality(spec: AlgorithmSpec, d: Dataset, eta: Morphism) -> float:
    """Residual between fit-then-transform and transform-then-fit on targets."""
    fitted = spec.fit(d)
    refitted = spec.fit(Dataset(x=d.x, y=d.y @ eta.matrix))
    return rel_distance(refitted.coef, fitted.coef @ eta.matrix)


def check_predictor_dinaturality(spec: AlgorithmSpec, d: Dataset, xi: Morphism) -> float:
    """Residual of pulling the refitted model back through the predictor map.

    The refit sees x @ xi; composing its coefficients with xi must recover the
    original fit when the diagram commutes.
    """
    fitted = spec.fit(d)
    refitted = spec.fit(Dataset(x=d.x @ xi.matrix, y=d.y))
    return rel_distance(xi.matrix @ refitted.coef, fitted.coef)


def check_index_invariance(spec: AlgorithmSpec, d: Dataset, m: Morphism) -> float:
    """Residual between fits before and after recombining examples."""
    fitted = spec.fit(d)
    refitted = spec.fit(Dataset(x=m.matrix @ d.x, y=m.matrix @ d.y))
    return rel_distance(refitted.coef, fitted.coef)


_CHECKERS = {
    Axis.TARGET: check_target_naturality,
    Axis.PREDICTOR: check_predictor_dinaturality,
    Axis.INDEX: check_index_invariance,
}


def expected_natural(kind: AlgorithmKind, axis: Axis, category: CategoryKind) -> bool:
    """Expected classification of one audit cell: whether ``category`` lies
    below the algorithm's maximal category on ``axis`` in :data:`MAXIMAL`."""
    try:
        maximal = MAXIMAL[kind]
    except KeyError:
        raise ContractViolation(f"no expected classification for {kind.value}") from None
    return category in subcategories(maximal[axis])


@dataclass(frozen=True)
class AuditConfig:
    """Everything a caller chooses about an audit run: with the fixed trial
    regime above, what determines its report."""

    algorithms: tuple[AlgorithmSpec, ...] = (
        AlgorithmSpec.ols(),
        AlgorithmSpec.ridge(1.0),
    )
    axes: tuple[Axis, ...] = ALL_AXES
    categories: tuple[CategoryKind, ...] = ALL_CATEGORIES
    trials_per_cell: int = 200
    master_seed: int = 42
    base_tolerance: float = 1e-8

    def __post_init__(self):
        for name in ("trials_per_cell", "master_seed"):
            object.__setattr__(self, name, _config_int(name, getattr(self, name)))
        for name, kind in (("algorithms", AlgorithmSpec), ("axes", Axis), ("categories", CategoryKind)):
            object.__setattr__(self, name, _config_members(name, getattr(self, name), kind))
        for spec in self.algorithms:
            if spec.kind not in AUDITED_KINDS:
                raise ConfigError(
                    "algorithms",
                    f"{spec.kind.value} has no expected classification to audit against",
                )
        if self.trials_per_cell < 1:
            raise ConfigError("trials_per_cell", f"must be >= 1, got {self.trials_per_cell}")
        tolerance = self.base_tolerance
        if isinstance(tolerance, bool) or not isinstance(tolerance, numbers.Real):
            raise ConfigError("base_tolerance", f"must be a real number, got {tolerance!r}")
        object.__setattr__(self, "base_tolerance", float(tolerance))
        if not 0.0 < self.base_tolerance < math.inf:
            raise ConfigError("base_tolerance", f"must be positive and finite, got {self.base_tolerance}")


def _config_members(name: str, values, kind: type) -> tuple:
    """``values`` as a tuple of one or more ``kind``, each repeated member
    kept once, where it first occurs; anything else raises
    :class:`ConfigError` naming the field ``name``."""
    try:
        members = tuple(values)
    except TypeError:
        raise ConfigError(name, f"need a sequence of {kind.__name__}, got {values!r}") from None
    if not members:
        raise ConfigError(name, "must not be empty")
    for member in members:
        if not isinstance(member, kind):
            raise ConfigError(name, f"need {kind.__name__} values, got {member!r}")
    return tuple(dict.fromkeys(members))


def _config_int(name: str, value) -> int:
    """``value`` as a Python int, as ``operator.index`` reads it (a numpy
    integer too); anything else, a float or a bool too, raises
    :class:`ConfigError` naming the field ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(name, f"must be an integer, got {value!r}")


@dataclass(frozen=True)
class DiagramTrial:
    """One sampled diagram check; its cell records what was checked."""

    p: int
    q: int
    n_examples: int
    morphism_dim: int
    seed: SeedState
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    @property
    def violation(self) -> bool:
        return bool(_violations(self.residual, self.tolerance))


def _violations(residual, tolerance):
    """``residual > VIOLATION_MARGIN * tolerance`` elementwise, or an undefined (inf) residual."""
    with np.errstate(over="ignore"):  # the product overflows to inf at the largest tolerances
        return np.isinf(residual) | (residual > VIOLATION_MARGIN * tolerance)


# the columns of a cell's rows, one row per trial
_TRIAL_FIELDS = ("residual", "tolerance", "p", "q", "n_examples", "morphism_dim")


@dataclass(frozen=True, eq=False)
class CellSummary:
    """All trials of one (algorithm, axis, kind) cell.

    Only the cell's coordinates, its seed and its trials are stored, the
    trials as one read-only float64 array of :data:`_TRIAL_FIELDS` rows (the
    ``i``-th drawn from ``seed.derive(i)``), copied from the rows the cell is
    built with; the expected classification and every count are derived
    from them.  Two cells are equal when their coordinates, seeds and row
    values are.
    """

    spec: AlgorithmSpec
    axis: Axis
    category: CategoryKind
    seed: SeedState
    rows: np.ndarray

    def __post_init__(self):
        rows = np.array(self.rows, dtype=np.float64)  # a copy, so no other array writes it
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other):
        if not isinstance(other, CellSummary):
            return NotImplemented
        return (self.spec, self.axis, self.category, self.seed) == (
            other.spec, other.axis, other.category, other.seed
        ) and np.array_equal(self.rows, other.rows)

    @cached_property
    def trials(self) -> tuple[DiagramTrial, ...]:
        """The rows as :class:`DiagramTrial` objects, built on first use."""
        return tuple(
            DiagramTrial(p=int(p), q=int(q), n_examples=int(n), morphism_dim=int(dim),
                         seed=self.seed.derive(i), residual=residual, tolerance=tolerance)
            for i, (residual, tolerance, p, q, n, dim) in enumerate(self.rows.tolist())
        )

    @property
    def trial_count(self) -> int:
        return len(self.rows)

    @property
    def expected_natural(self) -> bool:
        return expected_natural(self.spec.kind, self.axis, self.category)

    @property
    def pass_count(self) -> int:
        """Trials with ``residual <= tolerance``, as :attr:`DiagramTrial.passed`."""
        return int(np.count_nonzero(self.rows[:, 0] <= self.rows[:, 1]))

    @property
    def violations(self) -> int:
        """The number of trials for which :attr:`DiagramTrial.violation` holds."""
        return int(np.count_nonzero(_violations(self.rows[:, 0], self.rows[:, 1])))

    @property
    def undefined(self) -> int:
        """Trials whose fit left its domain (a residual of ``inf``); each is also a violation."""
        return int(np.count_nonzero(np.isinf(self.rows[:, 0])))

    @property
    def max_residual(self) -> float:
        """Largest finite residual, 0.0 if there is none; undefined refits (inf) are left out."""
        residuals = self.rows[:, 0]
        finite = residuals[np.isfinite(residuals)]
        return float(finite.max()) if finite.size else 0.0

    @property
    def agrees(self) -> bool:
        """Whether the empirical outcome matches the expected classification.

        A cell expected natural must pass every trial; a cell expected not
        natural must exhibit at least one clear violation.
        """
        if self.expected_natural:
            return self.pass_count == self.trial_count
        return self.violations >= 1


@dataclass(frozen=True)
class AuditReport:
    """Full outcome of an audit: the config and one summary per cell."""

    tool_version: str
    config: AuditConfig
    cells: tuple[CellSummary, ...]

    @property
    def trials(self) -> tuple[DiagramTrial, ...]:
        """Every trial, cell by cell in the order of :attr:`cells`."""
        return tuple(trial for cell in self.cells for trial in cell.trials)

    @property
    def all_agree(self) -> bool:
        return all(cell.agrees for cell in self.cells)


def draw_trial(
    axis: Axis, category: CategoryKind, seed: SeedState
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float | None]:
    """The dataset arrays (x, y), the morphism matrix and its condition number
    (``None`` unless the category is finvec_iso) of one audit trial.

    Everything is drawn from the one stream ``seed.generator()``, in a fixed
    order: the dimensions, then x, coef and noise, then the morphism.
    """
    gen = seed.generator()
    p = int(gen.integers(P_RANGE[0], P_RANGE[1] + 1))
    q = int(gen.integers(Q_RANGE[0], Q_RANGE[1] + 1))
    n = int(gen.integers(p + 1, MAX_EXAMPLES + 1))
    source = {Axis.PREDICTOR: p, Axis.TARGET: q, Axis.INDEX: n}[axis]
    if category in SQUARE_KINDS:
        target = source
    elif category is CategoryKind.EUC_MONO:
        target = source + int(gen.integers(0, CODOMAIN_OFFSET + 1))
    else:  # FINVEC: any codomain near the source, above or below
        lo = max(1, source - CODOMAIN_OFFSET)
        target = int(gen.integers(lo, source + CODOMAIN_OFFSET + 1))
    x, y, _ = draw_dataset(gen, n, p, q, noise_sd=TRIAL_NOISE_SD)
    m, kappa = draw_morphism_matrix(category, axis, source, target, gen)
    return x, y, m, kappa


def _transform(axis: Axis, category: CategoryKind, x: np.ndarray, y: np.ndarray, m: np.ndarray):
    """The data a trial refits: ``x @ m``, ``y @ m`` or ``(m @ x, m @ y)``.

    A discrete map is the identity, whose products are exact, so its trials
    refit the drawn arrays themselves and their fits share one factorization.
    """
    if category is CategoryKind.DISCRETE:
        return x, y
    if axis is Axis.PREDICTOR:
        return x @ m, y
    if axis is Axis.TARGET:
        return x, y @ m
    return m @ x, m @ y


def _residual(axis: Axis, fitted: np.ndarray, refitted: np.ndarray, m: np.ndarray) -> float:
    """The residual of the axis's ``check_*`` diagram, from raw coefficients."""
    if axis is Axis.PREDICTOR:
        return _rel_distance(m @ refitted, fitted)
    if axis is Axis.TARGET:
        return _rel_distance(refitted, fitted @ m)
    return _rel_distance(refitted, fitted)


def _run_group(axis: Axis, category: CategoryKind, seed: SeedState, config: AuditConfig) -> np.ndarray:
    """All trials of one (axis, kind) group, each drawn once and each distinct
    ``x`` factored once: an (algorithms, trials, :data:`_TRIAL_FIELDS`)
    float64 array, one block of rows per configured algorithm, in order.

    The numbers equal those of ``_CHECKERS[axis]`` run on each trial's
    dataset and morphism; a fit that leaves its domain (a rank-deficient
    OLS) makes the diagram undefined, which counts as a residual of ``inf``.
    """
    rows = np.empty((config.trials_per_cell, len(_TRIAL_FIELDS)))
    maps = []
    systems = []
    for i, row in enumerate(rows):
        x, y, m, kappa = draw_trial(axis, category, seed.derive(i))
        x2, y2 = _transform(axis, category, x, y, m)
        tolerance = config.base_tolerance
        if kappa is not None:
            # Ill-conditioned invertible maps amplify roundoff; scale the pass
            # line by the condition number instead of loosening it globally.
            tolerance *= kappa
        morphism_dim = m.shape[0 if axis is Axis.INDEX else 1]
        row[1:] = (tolerance, x.shape[1], y.shape[1], x.shape[0], morphism_dim)
        maps.append(m)
        systems += [(x, y), (x2, y2)]
    blocks = np.repeat(rows[None], len(config.algorithms), axis=0)
    fits = fit_systems(config.algorithms, systems)
    for i, (m, fitted, refitted) in enumerate(zip(maps, fits[0::2], fits[1::2])):
        for block, f, r in zip(blocks, fitted, refitted):
            block[i, 0] = math.inf if f is None or r is None else _residual(axis, f, r, m)
    return blocks


def run_audit(config: AuditConfig) -> AuditReport:
    """Run every configured cell and summarize agreement with expectations.

    The report is a pure function of the config: trial seeds are derived from
    the master seed and the (axis, kind) labels, never from execution order
    or algorithm, so the cells of one (axis, kind) group share their trials.
    The groups are run by :func:`~natreg._forkjoin.fork_map` on one worker
    per usable CPU: this process is the first worker and forked children
    are the others, each sending its groups' blocks back, so one worker
    forks nothing.  Its blocks, or the error it raises, are those of
    running the groups one at a time in config order.
    """
    _stream_modules()  # loaded once here, not again in every forked worker
    from . import __version__

    root = SeedState(config.master_seed)
    groups = [
        (axis, category, root.derive(axis.value, category.value))
        for axis in config.axes
        for category in config.categories
    ]
    runs = list(fork_map(lambda group: _run_group(*group, config), groups, _usable_cpus()))
    summaries = [  # config order
        CellSummary(spec, *group, blocks[a])
        for a, spec in enumerate(config.algorithms)
        for group, blocks in zip(groups, runs)
    ]
    return AuditReport(tool_version=__version__, config=config, cells=tuple(summaries))
