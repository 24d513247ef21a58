"""Commutative-diagram checks, the randomized audit engine, and counterexamples.

For a fitting algorithm F and a structured map on one dataset axis, the
corresponding diagram commutes when transforming the data and fitting agrees
with fitting and transforming the model:

  target axis     fit(y @ eta)        == fit(y) @ eta
  predictor axis  xi @ fit(x @ xi)    == fit(x)          (pulling back)
  index axis      fit(m @ x, m @ y)   == fit(x, y)

Each checker returns the relative residual of its diagram; the audit runs
many seeded trials per (algorithm, axis, kind) cell and compares the outcome
with the expected classification.  Two tiny exact counterexamples pin down
why the negative cells are negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._forkjoin import fork_map
from ._forkjoin import usable_cpus as _usable_cpus
from .data import Dataset, draw_dataset
from .errors import ConfigError, ContractViolation, NatregError
from .linalg import SeedState, rel_distance
from .morphisms import (
    Axis,
    CategoryKind,
    Morphism,
    SQUARE_KINDS,
    act_on_index,
    act_on_predictors,
    act_on_targets,
    draw_morphism_matrix,
    model_action_target,
    model_precompose_predictor,
)
from .regression import (
    AlgorithmKind,
    AlgorithmSpec,
    fit_systems,
    min_norm_ols_fit,
    ridge_fit,
    sse,
)

# Noise level for audit trial datasets; naturality does not depend on it.
TRIAL_NOISE_SD = 1.0

# A trial counts as an exhibited violation only well clear of the pass line.
VIOLATION_MARGIN = 10.0

# Counterexample residuals above this threshold count as exhibited.
COUNTEREXAMPLE_THRESHOLD = 1e-6

ALL_AXES = tuple(Axis)
ALL_CATEGORIES = tuple(CategoryKind)

# The algorithms with an expected classification, hence the ones audited.
AUDITED_KINDS = (AlgorithmKind.OLS, AlgorithmKind.RIDGE)


def check_target_naturality(spec: AlgorithmSpec, d: Dataset, eta: Morphism) -> float:
    """Residual between fit-then-transform and transform-then-fit on targets."""
    fitted = spec.fit(d)
    refitted = spec.fit(act_on_targets(d, eta))
    return rel_distance(refitted.coef, model_action_target(fitted, eta).coef)


def check_predictor_dinaturality(spec: AlgorithmSpec, d: Dataset, xi: Morphism) -> float:
    """Residual of pulling the refitted model back through the predictor map.

    The refit sees x @ xi; composing its coefficients with xi must recover the
    original fit when the diagram commutes.
    """
    fitted = spec.fit(d)
    refitted = spec.fit(act_on_predictors(d, xi))
    pulled_back = model_precompose_predictor(xi, refitted)
    return rel_distance(pulled_back.coef, fitted.coef)


def check_index_invariance(spec: AlgorithmSpec, d: Dataset, m: Morphism) -> float:
    """Residual between fits before and after recombining examples."""
    fitted = spec.fit(d)
    refitted = spec.fit(act_on_index(d, m))
    return rel_distance(refitted.coef, fitted.coef)


_CHECKERS = {
    Axis.TARGET: check_target_naturality,
    Axis.PREDICTOR: check_predictor_dinaturality,
    Axis.INDEX: check_index_invariance,
}


def expected_natural(kind: AlgorithmKind, axis: Axis, category: CategoryKind) -> bool:
    """Expected classification of one audit cell.

    Target maps always commute because both closed forms are linear in y.
    Index maps commute exactly when they preserve the Gram matrix, which
    inner-product-preserving recombinations do and general ones do not.  On
    the predictor axis the plain least-squares fit commutes with invertible
    maps, while the penalized fit additionally needs the map to preserve
    inner products; dimension-raising isometries are fine for the penalized
    fit but outside the plain fit's domain.
    """
    if kind not in AUDITED_KINDS:
        raise ContractViolation(f"no expected classification for {kind.value}")
    if category is CategoryKind.DISCRETE:
        return True
    if axis is Axis.TARGET:
        return True
    if axis is Axis.INDEX:
        return category in (CategoryKind.SET_ISO, CategoryKind.EUC, CategoryKind.EUC_MONO)
    if category in (CategoryKind.SET_ISO, CategoryKind.EUC):
        return True
    if kind is AlgorithmKind.OLS:
        return category is CategoryKind.FINVEC_ISO
    return category is CategoryKind.EUC_MONO


@dataclass(frozen=True)
class AuditConfig:
    """Everything that determines an audit run, and therefore its report."""

    algorithms: tuple[AlgorithmSpec, ...] = (
        AlgorithmSpec.ols(),
        AlgorithmSpec.ridge(1.0),
    )
    axes: tuple[Axis, ...] = ALL_AXES
    categories: tuple[CategoryKind, ...] = ALL_CATEGORIES
    p_range: tuple[int, int] = (1, 8)
    q_range: tuple[int, int] = (1, 8)
    max_examples: int = 40
    codomain_offset: int = 5
    trials_per_cell: int = 200
    master_seed: int = 42
    base_tolerance: float = 1e-8

    def __post_init__(self):
        if not self.algorithms:
            raise ConfigError("algorithms", "must not be empty")
        for spec in self.algorithms:
            if spec.kind not in AUDITED_KINDS:
                raise ConfigError(
                    "algorithms",
                    f"{spec.kind.value} has no expected classification to audit against",
                )
        if not self.axes:
            raise ConfigError("axes", "must not be empty")
        if not self.categories:
            raise ConfigError("categories", "must not be empty")
        for name, lo_hi in (("p_range", self.p_range), ("q_range", self.q_range)):
            lo, hi = lo_hi
            if not (1 <= lo <= hi):
                raise ConfigError(name, f"need 1 <= lo <= hi, got {lo_hi}")
        if self.max_examples < self.p_range[1] + 1:
            raise ConfigError(
                "max_examples",
                f"need at least p_max + 1 = {self.p_range[1] + 1}, got {self.max_examples}",
            )
        if self.codomain_offset < 0:
            raise ConfigError("codomain_offset", f"must be >= 0, got {self.codomain_offset}")
        if self.trials_per_cell < 1:
            raise ConfigError("trials_per_cell", f"must be >= 1, got {self.trials_per_cell}")
        if not self.base_tolerance > 0.0:
            raise ConfigError("base_tolerance", f"must be positive, got {self.base_tolerance}")


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
        return self.residual > VIOLATION_MARGIN * self.tolerance


@dataclass(frozen=True)
class CellSummary:
    """All trials of one (algorithm, axis, kind) cell.

    Only the cell's coordinates and its trials are stored; the expected
    classification and every count are derived from them.
    """

    spec: AlgorithmSpec
    axis: Axis
    category: CategoryKind
    trials: tuple[DiagramTrial, ...]

    @property
    def expected_natural(self) -> bool:
        return expected_natural(self.spec.kind, self.axis, self.category)

    @property
    def pass_count(self) -> int:
        return sum(t.passed for t in self.trials)

    @property
    def violations(self) -> int:
        return sum(t.violation for t in self.trials)

    @property
    def max_residual(self) -> float:
        """Largest finite residual; undefined refits (inf) count only as violations."""
        finite = [t.residual for t in self.trials if math.isfinite(t.residual)]
        return max(finite, default=0.0)

    @property
    def agrees(self) -> bool:
        """Whether the empirical outcome matches the expected classification.

        A cell expected natural must pass every trial; a cell expected not
        natural must exhibit at least one clear violation.
        """
        if self.expected_natural:
            return self.pass_count == len(self.trials)
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
    axis: Axis, category: CategoryKind, config: AuditConfig, seed: SeedState
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float | None]:
    """The dataset arrays (x, y), the morphism matrix and its condition number
    (``None`` unless the category is finvec_iso) of one audit trial.

    Everything is drawn from the one stream ``seed.generator()``, in a fixed
    order: the dimensions, then x, coef and noise, then the morphism.
    """
    gen = seed.generator()
    p = int(gen.integers(config.p_range[0], config.p_range[1] + 1))
    q = int(gen.integers(config.q_range[0], config.q_range[1] + 1))
    n = int(gen.integers(p + 1, config.max_examples + 1))
    source = {Axis.PREDICTOR: p, Axis.TARGET: q, Axis.INDEX: n}[axis]
    if category in SQUARE_KINDS:
        target = source
    elif category is CategoryKind.EUC_MONO:
        target = source + int(gen.integers(0, config.codomain_offset + 1))
    else:  # FINVEC: any codomain near the source, above or below
        lo = max(1, source - config.codomain_offset)
        target = int(gen.integers(lo, source + config.codomain_offset + 1))
    x, y, _ = draw_dataset(gen, n, p, q, noise_sd=TRIAL_NOISE_SD)
    m, kappa = draw_morphism_matrix(category, axis, source, target, gen)
    return x, y, m, kappa


def _transform(axis: Axis, x: np.ndarray, y: np.ndarray, m: np.ndarray):
    """The data a trial refits: the arrays of ``act_on_*``."""
    if axis is Axis.PREDICTOR:
        return x @ m, y
    if axis is Axis.TARGET:
        return x, y @ m
    return m @ x, m @ y


def _residual(axis: Axis, fitted: np.ndarray, refitted: np.ndarray, m: np.ndarray) -> float:
    """The residual of the axis's ``check_*`` diagram, from raw coefficients."""
    if axis is Axis.PREDICTOR:
        return rel_distance(m @ refitted, fitted)
    if axis is Axis.TARGET:
        return rel_distance(refitted, fitted @ m)
    return rel_distance(refitted, fitted)


# the columns of a cell's rows, one row per trial
_TRIAL_FIELDS = ("residual", "tolerance", "p", "q", "n_examples", "morphism_dim")


def _run_cell(
    spec: AlgorithmSpec, axis: Axis, category: CategoryKind, seed: SeedState, config: AuditConfig
) -> np.ndarray:
    """All trials of one cell, as float64 rows of :data:`_TRIAL_FIELDS`:
    sample them as arrays, then fit and check them.

    The numbers equal those of ``_CHECKERS[axis]`` run on each trial's
    dataset and morphism; a fit that leaves its domain (a rank-deficient
    OLS) makes the diagram undefined, which counts as a residual of ``inf``.
    """
    rows = np.empty((config.trials_per_cell, len(_TRIAL_FIELDS)))
    maps = []
    systems = []
    for i, row in enumerate(rows):
        x, y, m, kappa = draw_trial(axis, category, config, seed.derive(i))
        x2, y2 = _transform(axis, x, y, m)
        if not (np.isfinite(x2).all() and np.isfinite(y2).all()):
            raise ContractViolation("transformed data contains non-finite entries")
        tolerance = config.base_tolerance
        if kappa is not None:
            # Ill-conditioned invertible maps amplify roundoff; scale the pass
            # line by the condition number instead of loosening it globally.
            tolerance *= kappa
        morphism_dim = m.shape[0 if axis is Axis.INDEX else 1]
        row[1:] = (tolerance, x.shape[1], y.shape[1], x.shape[0], morphism_dim)
        maps.append(m)
        systems += [(x, y), (x2, y2)]
    coefs = fit_systems(spec, systems)
    for row, m, fitted, refitted in zip(rows, maps, coefs[0::2], coefs[1::2]):
        undefined = fitted is None or refitted is None
        row[0] = math.inf if undefined else _residual(axis, fitted, refitted, m)
    return rows


def run_audit(config: AuditConfig) -> AuditReport:
    """Run every configured cell and summarize agreement with expectations.

    The report is a pure function of the config: trial seeds are derived from
    the master seed and the cell labels, never from execution order.  The
    cells are dealt round-robin to one worker per usable CPU (at most one per
    cell); this process is the first worker and forked children are the
    others, each sending its cells' rows back.  With one worker, or when any
    worker fails, every cell is run here one at a time, so an error is raised
    from the first failing cell in config order.
    """
    from . import __version__

    root = SeedState(config.master_seed)
    cells = [
        (spec, axis, category, root.derive(spec.label(), axis.value, category.value))
        for spec in config.algorithms
        for axis in config.axes
        for category in config.categories
    ]
    workers = min(_usable_cpus(), len(cells))
    shares = [range(w, len(cells), workers) for w in range(workers)]  # cell indices
    order = [i for share in shares for i in share]  # the cell of each block of rows
    rows = None
    if workers > 1:
        rows = fork_map(
            lambda share: _trial_rows([cells[i] for i in share], config), shares, len(_TRIAL_FIELDS)
        )
    if rows is None:
        order = range(len(cells))
        rows = np.concatenate([_run_cell(*cell, config) for cell in cells])
    blocks = rows.reshape(len(cells), config.trials_per_cell, len(_TRIAL_FIELDS))[np.argsort(order)]
    summaries = [_summary_from_rows(*cell, block) for cell, block in zip(cells, blocks)]
    return AuditReport(tool_version=__version__, config=config, cells=tuple(summaries))


def _trial_rows(cells: list[tuple], config: AuditConfig) -> np.ndarray | None:
    """The rows of ``cells``, in order; None when a cell raises one of this package's errors."""
    try:
        return np.concatenate([_run_cell(*cell, config) for cell in cells])
    except NatregError:
        return None


def _summary_from_rows(
    spec: AlgorithmSpec, axis: Axis, category: CategoryKind, seed: SeedState, rows: np.ndarray
) -> CellSummary:
    """The cell whose trials :func:`_run_cell` returned as ``rows``."""
    trials = tuple(
        DiagramTrial(
            p=int(p),
            q=int(q),
            n_examples=int(n),
            morphism_dim=int(dim),
            seed=seed.derive(i),
            residual=float(residual),
            tolerance=float(tolerance),
        )
        for i, (residual, tolerance, p, q, n, dim) in enumerate(rows.tolist())
    )
    return CellSummary(spec, axis, category, trials)


@dataclass(frozen=True)
class ShearCounterexample:
    """Minimum-norm fit under a shear of an underdetermined predictor space.

    One example with x = [1, 0] and y = 1.  Both the original and sheared
    data are fit exactly (both sse vanish), yet pulling the second fit back
    through the shear misses the first in its second coordinate, leaving a
    diagram residual of |k| / (1 + k^2).
    """

    k: float
    fit: np.ndarray
    fit_transformed: np.ndarray
    pulled_back: np.ndarray
    residual: float
    sse_original: float
    sse_transformed: float

    @property
    def violation_exhibited(self) -> bool:
        return self.residual > COUNTEREXAMPLE_THRESHOLD


def counterexample_ols_shear(k: float) -> ShearCounterexample:
    """Exact witness that the minimum-norm fit is not shear-equivariant."""
    if not math.isfinite(k):
        raise ContractViolation(f"k must be finite, got {k}")
    d = Dataset(x=[[1.0, 0.0]], y=[[1.0]])
    xi = Morphism(
        kind=CategoryKind.FINVEC_ISO,
        axis=Axis.PREDICTOR,
        matrix=[[1.0, float(k)], [0.0, 1.0]],
    )
    fitted = min_norm_ols_fit(d)
    transformed = act_on_predictors(d, xi)
    refitted = min_norm_ols_fit(transformed)
    pulled_back = model_precompose_predictor(xi, refitted)
    return ShearCounterexample(
        k=float(k),
        fit=fitted.coef,
        fit_transformed=refitted.coef,
        pulled_back=pulled_back.coef,
        residual=float(np.linalg.norm(pulled_back.coef - fitted.coef)),
        sse_original=sse(d, fitted),
        sse_transformed=sse(transformed, refitted),
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
    fit_closed_form: float
    fit_transformed_closed_form: float
    expected_if_natural: float
    residual: float
    pulled_back_residual: float

    @property
    def violation_exhibited(self) -> bool:
        return self.residual > COUNTEREXAMPLE_THRESHOLD


def _one_example_ridge(b: float, lam: float) -> float:
    """b / (b^2 + lam), the penalized fit to the one example (x = b, y = 1),
    written as 1 / (b + lam / b) so that b^2 cannot overflow."""
    return 0.0 if b == 0.0 else 1.0 / (b + lam / b)


def counterexample_ridge_scaling(b: float, c: float, lam: float) -> ScalingCounterexample:
    """Exact witness that the penalized fit is not scaling-equivariant."""
    if not math.isfinite(b):
        raise ContractViolation(f"b must be finite, got {b}")
    if not (math.isfinite(c) and c != 0.0):
        raise ContractViolation(f"c must be finite and nonzero, got {c}")
    b, c, lam = float(b), float(c), float(lam)
    d = Dataset(x=[[b]], y=[[1.0]])
    xi = Morphism(kind=CategoryKind.FINVEC_ISO, axis=Axis.PREDICTOR, matrix=[[c]])
    fitted = ridge_fit(d, lam).coef[0, 0]
    refitted = ridge_fit(act_on_predictors(d, xi), lam).coef[0, 0]
    return ScalingCounterexample(
        b=b,
        c=c,
        lam=lam,
        fit=float(fitted),
        fit_transformed=float(refitted),
        fit_closed_form=_one_example_ridge(b, lam),
        fit_transformed_closed_form=_one_example_ridge(b * c, lam),
        expected_if_natural=float(fitted) / c,
        residual=abs(float(refitted) - float(fitted) / c),
        pulled_back_residual=abs(c * float(refitted) - float(fitted)),
    )
