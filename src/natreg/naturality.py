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

from .data import Dataset, synth_dataset
from .errors import ConfigError, ContractViolation, NotPositiveDefinite, RankDeficient
from .linalg import SeedState, condition_estimate, rel_distance
from .morphisms import (
    Axis,
    CategoryKind,
    Morphism,
    SQUARE_KINDS,
    act_on_index,
    act_on_predictors,
    act_on_targets,
    model_action_target,
    model_precompose_predictor,
    sample_morphism,
)
from .regression import AlgorithmKind, AlgorithmSpec, min_norm_ols_fit, ridge_fit, sse

# Noise level for audit trial datasets; naturality does not depend on it.
TRIAL_NOISE_SD = 1.0

# A trial counts as an exhibited violation only well clear of the pass line.
VIOLATION_MARGIN = 10.0

# Counterexample residuals above this threshold count as exhibited.
COUNTEREXAMPLE_THRESHOLD = 1e-6

ALL_AXES = (Axis.PREDICTOR, Axis.TARGET, Axis.INDEX)
ALL_CATEGORIES = (
    CategoryKind.FINVEC,
    CategoryKind.FINVEC_ISO,
    CategoryKind.EUC,
    CategoryKind.EUC_MONO,
    CategoryKind.SET_ISO,
    CategoryKind.DISCRETE,
)


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
    if kind not in (AlgorithmKind.OLS, AlgorithmKind.RIDGE):
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
            if spec.kind not in (AlgorithmKind.OLS, AlgorithmKind.RIDGE):
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
    """One sampled diagram check inside an audit cell."""

    algorithm: str
    lam: float | None
    axis: Axis
    category: CategoryKind
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
    """Aggregate outcome of all trials of one (algorithm, axis, kind) cell."""

    algorithm: str
    lam: float | None
    axis: Axis
    category: CategoryKind
    expected_natural: bool
    trials: int
    pass_count: int
    violations: int
    max_residual: float

    @property
    def fail_count(self) -> int:
        return self.trials - self.pass_count

    @property
    def agrees(self) -> bool:
        """Whether the empirical outcome matches the expected classification.

        A cell expected natural must pass every trial; a cell expected not
        natural must exhibit at least one clear violation.
        """
        if self.expected_natural:
            return self.pass_count == self.trials
        return self.violations >= 1


@dataclass(frozen=True)
class AuditReport:
    """Full outcome of an audit: per-trial records plus per-cell summaries."""

    tool_version: str
    master_seed: int
    config: AuditConfig
    cells: tuple[CellSummary, ...]
    trials: tuple[DiagramTrial, ...]

    @property
    def all_agree(self) -> bool:
        return all(cell.agrees for cell in self.cells)


def _sample_trial(
    spec: AlgorithmSpec,
    axis: Axis,
    category: CategoryKind,
    config: AuditConfig,
    seed: SeedState,
) -> tuple[Dataset, Morphism]:
    gen = seed.derive("dims").generator()
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
    d, _ = synth_dataset(seed.derive("data"), n, p, q, noise_sd=TRIAL_NOISE_SD)
    morphism = sample_morphism(category, axis, source, target, seed.derive("morphism"))
    return d, morphism


def _run_trial(
    spec: AlgorithmSpec,
    axis: Axis,
    category: CategoryKind,
    config: AuditConfig,
    seed: SeedState,
) -> DiagramTrial:
    d, morphism = _sample_trial(spec, axis, category, config, seed)
    tolerance = config.base_tolerance
    if category is CategoryKind.FINVEC_ISO:
        # Ill-conditioned invertible maps amplify roundoff; scale the pass
        # line by the condition number instead of loosening it globally.
        tolerance *= condition_estimate(morphism.matrix)
    checker = _CHECKERS[axis]
    try:
        residual = checker(spec, d, morphism)
    except (RankDeficient, NotPositiveDefinite):
        # The transformed data left the algorithm's domain: the diagram
        # cannot commute, which is as hard a violation as they come.
        residual = math.inf
    return DiagramTrial(
        algorithm=spec.kind.value,
        lam=spec.lam,
        axis=axis,
        category=category,
        p=d.p,
        q=d.q,
        n_examples=d.n_examples,
        morphism_dim=morphism.target_dim,
        seed=seed,
        residual=residual,
        tolerance=tolerance,
    )


def run_audit(config: AuditConfig) -> AuditReport:
    """Run every configured cell and summarize agreement with expectations.

    The report is a pure function of the config: trial seeds are derived from
    the master seed and the cell labels, never from execution order.
    """
    from . import __version__

    cells: list[CellSummary] = []
    all_trials: list[DiagramTrial] = []
    root = SeedState(config.master_seed)
    for spec in config.algorithms:
        for axis in config.axes:
            for category in config.categories:
                cell_seed = root.derive(spec.label(), axis.value, category.value)
                trials = [
                    _run_trial(spec, axis, category, config, cell_seed.derive(i))
                    for i in range(config.trials_per_cell)
                ]
                finite = [t.residual for t in trials if math.isfinite(t.residual)]
                cells.append(
                    CellSummary(
                        algorithm=spec.kind.value,
                        lam=spec.lam,
                        axis=axis,
                        category=category,
                        expected_natural=expected_natural(spec.kind, axis, category),
                        trials=len(trials),
                        pass_count=sum(t.passed for t in trials),
                        violations=sum(t.violation for t in trials),
                        max_residual=max(finite, default=0.0),
                    )
                )
                all_trials.extend(trials)
    return AuditReport(
        tool_version=__version__,
        master_seed=config.master_seed,
        config=config,
        cells=tuple(cells),
        trials=tuple(all_trials),
    )


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
        source_dim=2,
        target_dim=2,
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


def counterexample_ridge_scaling(b: float, c: float, lam: float) -> ScalingCounterexample:
    """Exact witness that the penalized fit is not scaling-equivariant."""
    if not math.isfinite(b):
        raise ContractViolation(f"b must be finite, got {b}")
    if not (math.isfinite(c) and c != 0.0):
        raise ContractViolation(f"c must be finite and nonzero, got {c}")
    b, c, lam = float(b), float(c), float(lam)
    d = Dataset(x=[[b]], y=[[1.0]])
    xi = Morphism(
        kind=CategoryKind.FINVEC_ISO,
        axis=Axis.PREDICTOR,
        matrix=[[c]],
        source_dim=1,
        target_dim=1,
    )
    fitted = ridge_fit(d, lam).coef[0, 0]
    refitted = ridge_fit(act_on_predictors(d, xi), lam).coef[0, 0]
    return ScalingCounterexample(
        b=b,
        c=c,
        lam=lam,
        fit=float(fitted),
        fit_transformed=float(refitted),
        fit_closed_form=b / (b * b + lam),
        fit_transformed_closed_form=b * c / (b * b * c * c + lam),
        expected_if_natural=float(fitted) / c,
        residual=abs(float(refitted) - float(fitted) / c),
        pulled_back_residual=abs(c * float(refitted) - float(fitted)),
    )
