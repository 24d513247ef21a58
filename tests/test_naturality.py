"""Diagram checkers, the audit engine, and the two exact counterexamples."""

from __future__ import annotations

import math
import os
import signal
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import no_fork, strict_json

import natreg._forkjoin
import natreg.naturality
from natreg.data import Dataset, synth_dataset
from natreg.errors import (
    ConfigError,
    ContractViolation,
    InvalidHyperparameter,
    RankDeficient,
)
from natreg.exact import counterexample_ols_shear, counterexample_ridge_scaling
from natreg.linalg import SeedState, condition_estimate
from natreg.morphisms import Axis, CategoryKind, Morphism, sample_morphism, subcategories
from natreg.naturality import (
    _CHECKERS,
    VIOLATION_MARGIN,
    AuditConfig,
    CellSummary,
    check_index_invariance,
    check_predictor_dinaturality,
    check_target_naturality,
    draw_trial,
    expected_natural,
    run_audit,
)
from natreg.regression import AlgorithmKind, AlgorithmSpec
from natreg.report import audit_report_to_json

ALGORITHMS = (
    AlgorithmSpec.ols(),
    AlgorithmSpec.ridge(1.0),
    AlgorithmSpec.min_norm_ols(),
)


def test_identity_diagrams_commute_exactly():
    d, _ = synth_dataset(SeedState(100, "identity"), 9, 3, 2, noise_sd=1.0)
    for spec in ALGORITHMS:
        for axis, checker, dim in (
            (Axis.PREDICTOR, check_predictor_dinaturality, 3),
            (Axis.TARGET, check_target_naturality, 2),
            (Axis.INDEX, check_index_invariance, 9),
        ):
            identity = sample_morphism(CategoryKind.DISCRETE, axis, dim, dim, SeedState(0))
            assert checker(spec, d, identity) <= 1e-14


def test_target_scaling_commutes_for_ols():
    # doubling targets doubles the fit, an exact instance of target naturality
    d = Dataset([[1.0], [1.0]], [[0.0], [2.0]])
    eta = sample_morphism(CategoryKind.FINVEC, Axis.TARGET, 1, 1, SeedState(1, "na"))
    assert check_target_naturality(AlgorithmSpec.ols(), d, eta) <= 1e-14


def test_predictor_dinaturality_holds_for_ols_under_invertible_maps():
    for i in range(20):
        seed = SeedState(10000 + i, "ols-iso")
        gen = seed.derive("dims").generator()
        p = int(gen.integers(1, 9))
        d, _ = synth_dataset(seed.derive("data"), p + 1 + int(gen.integers(0, 20)), p,
                             1 + int(gen.integers(0, 3)), noise_sd=1.0)
        xi = sample_morphism(CategoryKind.FINVEC_ISO, Axis.PREDICTOR, p, p, seed.derive("m"))
        residual = check_predictor_dinaturality(AlgorithmSpec.ols(), d, xi)
        assert residual <= 1e-8 * condition_estimate(xi.matrix)


def test_ridge_commutes_with_expanding_isometries_even_rank_deficient():
    for i in range(20):
        seed = SeedState(11000 + i, "ridge-mono")
        gen = seed.derive("dims").generator()
        p = int(gen.integers(2, 9))
        n = int(gen.integers(1, 2 * p))  # includes n < p, rank-deficient
        d, _ = synth_dataset(seed.derive("data"), n, p, 2, noise_sd=1.0)
        xi = sample_morphism(
            CategoryKind.EUC_MONO, Axis.PREDICTOR, p, p + int(gen.integers(0, 6)),
            seed.derive("m"),
        )
        assert check_predictor_dinaturality(AlgorithmSpec.ridge(1.0), d, xi) <= 1e-8


def test_index_isometries_preserve_both_fits():
    for i in range(20):
        seed = SeedState(12000 + i, "index")
        gen = seed.derive("dims").generator()
        p = int(gen.integers(1, 9))
        n = p + 1 + int(gen.integers(0, 20))
        d, _ = synth_dataset(seed.derive("data"), n, p, 2, noise_sd=1.0)
        a = sample_morphism(
            CategoryKind.EUC_MONO, Axis.INDEX, n, n + int(gen.integers(0, 11)),
            seed.derive("m"),
        )
        assert check_index_invariance(AlgorithmSpec.ols(), d, a) <= 1e-8
        assert check_index_invariance(AlgorithmSpec.ridge(1.0), d, a) <= 1e-8


def test_ridge_breaks_under_far_from_orthogonal_invertible_maps():
    # every sampled invertible map far from orthogonal must leave a clear
    # violation: the pass line is 1e-8 scaled by condition, the violation
    # line ten times that
    spec = AlgorithmSpec.ridge(1.0)
    found = 0
    for i in range(200):
        seed = SeedState(13000 + i, "ridge-break")
        gen = seed.derive("dims").generator()
        p = int(gen.integers(2, 9))
        d, _ = synth_dataset(seed.derive("data"), p + 5, p, 2, noise_sd=1.0)
        xi = sample_morphism(CategoryKind.FINVEC_ISO, Axis.PREDICTOR, p, p, seed.derive("m"))
        deviation = np.linalg.norm(xi.matrix.T @ xi.matrix - np.eye(p))
        if deviation < 0.5:
            continue
        found += 1
        assert check_predictor_dinaturality(spec, d, xi) > 1e-3
    assert found > 100  # Gaussian draws are essentially never near-orthogonal


def test_expected_classification_table():
    table = {
        (AlgorithmKind.OLS, Axis.PREDICTOR): {
            CategoryKind.FINVEC: False,
            CategoryKind.FINVEC_ISO: True,
            CategoryKind.EUC: True,
            CategoryKind.EUC_MONO: False,
            CategoryKind.SET_ISO: True,
            CategoryKind.DISCRETE: True,
        },
        (AlgorithmKind.RIDGE, Axis.PREDICTOR): {
            CategoryKind.FINVEC: False,
            CategoryKind.FINVEC_ISO: False,
            CategoryKind.EUC: True,
            CategoryKind.EUC_MONO: True,
            CategoryKind.SET_ISO: True,
            CategoryKind.DISCRETE: True,
        },
    }
    for kind in (AlgorithmKind.OLS, AlgorithmKind.RIDGE):
        for category in CategoryKind:
            assert expected_natural(kind, Axis.TARGET, category) is True
            assert expected_natural(kind, Axis.INDEX, category) is (
                category
                in (
                    CategoryKind.SET_ISO,
                    CategoryKind.EUC,
                    CategoryKind.EUC_MONO,
                    CategoryKind.DISCRETE,
                )
            )
            assert (
                expected_natural(kind, Axis.PREDICTOR, category)
                is table[(kind, Axis.PREDICTOR)][category]
            )
    with pytest.raises(ContractViolation):
        expected_natural(AlgorithmKind.MIN_NORM_OLS, Axis.TARGET, CategoryKind.FINVEC)


@pytest.fixture(scope="module")
def default_report():
    return run_audit(AuditConfig())


def test_observed_verdicts_are_downward_closed(default_report):
    # a cell of the default report that passes every trial implies the same
    # of every smaller kind's cell in its (algorithm, axis)
    cells = {(c.spec, c.axis, c.category): c for c in default_report.cells}
    for (spec, axis, category), cell in cells.items():
        if cell.pass_count == cell.trial_count:
            for smaller in subcategories(category):
                below = cells[(spec, axis, smaller)]
                assert below.pass_count == below.trial_count, (spec, axis, category, smaller)


def test_default_trials_span_the_fixed_regime(default_report):
    # every trial lies in the regime the README states, and each (axis, kind)
    # group reaches each of its ends
    for cell in default_report.cells:
        label = (cell.spec, cell.axis, cell.category)
        p, q, n, dim = cell.rows[:, 2:].astype(int).T
        source = {Axis.PREDICTOR: p, Axis.TARGET: q, Axis.INDEX: n}[cell.axis]
        assert (p.min(), p.max(), q.min(), q.max()) == (1, 8, 1, 8), label
        assert (n - p).min() == 1 and n.max() == 40, label
        offsets = {CategoryKind.EUC_MONO: (0, 5), CategoryKind.FINVEC: (-5, 5)}
        offset = dim - source
        assert (offset.min(), offset.max()) == offsets.get(cell.category, (0, 0)), label
        if cell.category is CategoryKind.FINVEC:
            # a codomain is never empty: a small p or q reaches 1, N (at least 2) reaches 2
            assert dim.min() == (2 if cell.axis is Axis.INDEX else 1), label


def test_audit_config_validation():
    with pytest.raises(ConfigError) as excinfo:
        AuditConfig(trials_per_cell=0)
    assert excinfo.value.field == "trials_per_cell"
    with pytest.raises(ConfigError) as excinfo:
        AuditConfig(algorithms=(AlgorithmSpec.min_norm_ols(),))
    assert excinfo.value.field == "algorithms"
    with pytest.raises(ConfigError):
        AuditConfig(algorithms=())
    with pytest.raises(ConfigError):
        AuditConfig(axes=())
    with pytest.raises(ConfigError) as excinfo:
        AuditConfig(categories=())
    assert excinfo.value.field == "categories"
    for tolerance in (0.0, math.inf, math.nan):
        # an infinite pass line could count no trial as a violation
        with pytest.raises(ConfigError):
            AuditConfig(base_tolerance=tolerance)
    for field, value in (
        ("trials_per_cell", 2.5),
        ("master_seed", None),
        ("trials_per_cell", True),
        ("master_seed", False),
        # refused before any trial runs, not at the report or deep in the engine
        ("base_tolerance", True),
        ("base_tolerance", np.True_),
        ("base_tolerance", "1e-8"),
        ("base_tolerance", None),
        ("algorithms", ("ols",)),
        ("algorithms", AlgorithmSpec.ols()),
        ("axes", ("target",)),
        ("axes", (Axis.TARGET, None)),
        ("categories", ("euc",)),
        ("categories", CategoryKind.EUC),
        ("categories", ([CategoryKind.EUC],)),  # unhashable, refused before the dedupe
    ):
        with pytest.raises(ConfigError) as excinfo:
            AuditConfig(**{field: value})
        assert excinfo.value.field == field


def test_audit_config_stores_numpy_integers_as_ints():
    # a numpy integer is stored as the int it equals, and a numpy float as
    # the float, so the report is the one the Python number gives, and
    # strict JSON can write it
    config = AuditConfig(
        trials_per_cell=np.int64(2), master_seed=np.int64(7), base_tolerance=np.float32(1e-8),
        axes=[Axis.TARGET], categories=[CategoryKind.EUC],
    )
    plain = AuditConfig(
        trials_per_cell=2, master_seed=7, base_tolerance=float(np.float32(1e-8)),
        axes=(Axis.TARGET,), categories=(CategoryKind.EUC,),
    )
    assert config == plain
    for value in (config.trials_per_cell, config.master_seed):
        assert type(value) is int
    assert type(config.base_tolerance) is float
    report = audit_report_to_json(run_audit(config))
    assert report == audit_report_to_json(run_audit(plain))
    assert strict_json(report)["config"]["base_tolerance"] == float(np.float32(1e-8))


def test_run_audit_is_deterministic():
    config = AuditConfig(
        algorithms=(AlgorithmSpec.ridge(1.0),),
        axes=(Axis.PREDICTOR,),
        categories=(CategoryKind.EUC, CategoryKind.FINVEC_ISO),
        trials_per_cell=20,
        master_seed=7,
    )
    first = run_audit(config)
    second = run_audit(config)
    assert first.cells == second.cells
    assert first.trials == second.trials


def test_run_audit_cell_layout_follows_config_order():
    config = AuditConfig(
        algorithms=(AlgorithmSpec.ols(), AlgorithmSpec.ridge(1.0)),
        axes=(Axis.INDEX, Axis.TARGET),
        categories=(CategoryKind.SET_ISO, CategoryKind.DISCRETE),
        trials_per_cell=2,
        master_seed=3,
    )
    report = run_audit(config)
    assert len(report.cells) == 8
    assert [c.spec for c in report.cells[:4]] == [AlgorithmSpec.ols()] * 4
    assert [c.axis for c in report.cells[:2]] == [Axis.INDEX, Axis.INDEX]
    assert [c.category for c in report.cells[:2]] == [
        CategoryKind.SET_ISO,
        CategoryKind.DISCRETE,
    ]
    assert len(report.trials) == 16


def test_a_repeated_member_is_audited_once():
    config = AuditConfig(
        algorithms=(AlgorithmSpec.ols(), AlgorithmSpec.ridge(1.0), AlgorithmSpec.ridge(2.0),
                    AlgorithmSpec.ols(), AlgorithmSpec.ridge(1)),
        axes=(Axis.TARGET, Axis.TARGET),
        categories=(CategoryKind.EUC, CategoryKind.DISCRETE, CategoryKind.EUC),
        trials_per_cell=3,
    )
    once = AuditConfig(
        algorithms=(AlgorithmSpec.ols(), AlgorithmSpec.ridge(1.0), AlgorithmSpec.ridge(2.0)),
        axes=(Axis.TARGET,),
        categories=(CategoryKind.EUC, CategoryKind.DISCRETE),
        trials_per_cell=3,
    )
    assert config == once
    assert len(run_audit(config).cells) == 6


def test_run_audit_counts_fit_errors_as_violations():
    # expanding isometries push the transformed data outside the plain
    # least-squares domain; those trials must register as hard violations
    config = AuditConfig(
        algorithms=(AlgorithmSpec.ols(),),
        axes=(Axis.PREDICTOR,),
        categories=(CategoryKind.EUC_MONO,),
        trials_per_cell=30,
        master_seed=5,
    )
    report = run_audit(config)
    cell = report.cells[0]
    assert not cell.expected_natural
    assert cell.violations >= 1
    assert cell.agrees
    assert math.isfinite(cell.max_residual)
    assert any(math.isinf(t.residual) for t in report.trials)



def test_undefined_trials_are_violations_at_any_tolerance():
    # at 1e308 the violation line VIOLATION_MARGIN * tolerance overflows to
    # inf, which no residual exceeds; an undefined trial still counts, and
    # the overflow warns nothing (the suite makes a RuntimeWarning an error)
    config = AuditConfig(
        algorithms=(AlgorithmSpec.ols(),),
        axes=(Axis.PREDICTOR,),
        categories=(CategoryKind.EUC_MONO,),
        trials_per_cell=30,
        master_seed=5,
        base_tolerance=1e308,
    )
    (cell,) = run_audit(config).cells
    assert cell.undefined >= 1
    assert cell.violations == cell.undefined == sum(t.violation for t in cell.trials)
    assert cell.agrees

def test_run_audit_scales_tolerance_by_condition():
    config = AuditConfig(
        algorithms=(AlgorithmSpec.ols(),),
        axes=(Axis.PREDICTOR,),
        categories=(CategoryKind.FINVEC_ISO, CategoryKind.EUC),
        trials_per_cell=10,
        master_seed=11,
    )
    report = run_audit(config)
    by_category = {cell.category: cell.trials for cell in report.cells}
    for trial in by_category[CategoryKind.EUC]:
        assert trial.tolerance == config.base_tolerance
    assert any(
        trial.tolerance > config.base_tolerance
        for trial in by_category[CategoryKind.FINVEC_ISO]
    )


# Ridge with lam > 0 is not natural under invertible predictor maps, but OLS,
# its lam -> 0 limit, is; so the smallest lam at which the default audit
# still refutes ridge/predictor/finvec_iso is how small a departure from
# naturality it can see.  Tightening this ladder is allowed; loosening is not.
RESOLVED_LAMBDAS = (1e-4, 1e-6, 1e-8, 1e-10)
# at 1e-12 finvec_iso passes every trial, wrongly; printed, not asserted
UNRESOLVED_LAMBDA = 1e-12


def test_audit_resolves_ridge_departing_from_naturality_down_to_lambda_1e_10():
    natural_kinds = (CategoryKind.SET_ISO, CategoryKind.EUC)
    for lam in (*RESOLVED_LAMBDAS, UNRESOLVED_LAMBDA):
        report = run_audit(AuditConfig(
            algorithms=(AlgorithmSpec.ridge(lam),),
            axes=(Axis.PREDICTOR,),
            categories=(CategoryKind.FINVEC_ISO, *natural_kinds),
        ))
        cells = {cell.category: cell for cell in report.cells}
        iso = cells[CategoryKind.FINVEC_ISO]
        natural_worst = max(cells[kind].max_residual for kind in natural_kinds)
        ratio = iso.max_residual / natural_worst if natural_worst else math.inf
        print(
            f"ridge(lambda={lam:g}) predictor/finvec_iso: {iso.violations}/{iso.trial_count} "
            f"violations; worst residual {iso.max_residual:.2e}, {ratio:.1e}x the "
            f"natural cells' {natural_worst:.2e}"
        )
        if lam in RESOLVED_LAMBDAS:
            assert not iso.expected_natural and iso.violations >= 1, lam
            for kind in natural_kinds:
                assert cells[kind].expected_natural, (lam, kind)
                assert cells[kind].pass_count == cells[kind].trial_count, (lam, kind)


def test_engine_matches_the_scalar_checkers_trial_by_trial():
    # the engine fits a cell's trials from raw arrays; the check_* functions
    # are the reference, run on each trial's rebuilt Dataset and Morphism
    config = AuditConfig(trials_per_cell=5)
    report = run_audit(config)
    assert len(report.trials) == 2 * 3 * 6 * 5
    domain_exits = 0
    for cell in report.cells:
        for trial in cell.trials:
            x, y, m, kappa = draw_trial(cell.axis, cell.category, trial.seed)
            d = Dataset(x, y)
            morphism = Morphism(cell.category, cell.axis, m)
            try:
                expected = _CHECKERS[cell.axis](cell.spec, d, morphism)
            except RankDeficient:
                expected = math.inf
                domain_exits += 1
            assert trial.residual == expected
            tolerance = config.base_tolerance
            if cell.category is CategoryKind.FINVEC_ISO:
                tolerance *= condition_estimate(m)
            else:
                assert kappa is None
            assert trial.tolerance == tolerance
            assert (trial.p, trial.q, trial.n_examples, trial.morphism_dim) == (
                d.p, d.q, d.n_examples, morphism.target_dim
            )
    assert domain_exits >= 1


def test_run_audit_draws_each_trial_from_one_stream(monkeypatch):
    calls = []
    generator = SeedState.generator

    def counted(self):
        calls.append(self)
        return generator(self)

    monkeypatch.setattr(SeedState, "generator", counted)
    monkeypatch.setattr(natreg.naturality, "_usable_cpus", lambda: 1)  # the spy sees this process only
    report = run_audit(AuditConfig(trials_per_cell=3))
    # one draw per (axis, category, i), shared by the OLS and the ridge cells
    ols_cells = report.cells[: len(report.cells) // 2]
    assert calls == [trial.seed for cell in ols_cells for trial in cell.trials]


def test_run_audit_gives_every_algorithm_the_same_trials():
    config = AuditConfig(trials_per_cell=5)
    report = run_audit(config)
    groups = len(config.axes) * len(config.categories)
    ols_cells, ridge_cells = report.cells[:groups], report.cells[groups:]
    assert {cell.spec for cell in ols_cells} == {AlgorithmSpec.ols()}
    assert {cell.spec for cell in ridge_cells} == {AlgorithmSpec.ridge(1.0)}

    def drawn(cell):
        return [(t.seed, t.p, t.q, t.n_examples, t.morphism_dim, t.tolerance) for t in cell.trials]

    for ols, ridge in zip(ols_cells, ridge_cells):
        assert (ols.axis, ols.category) == (ridge.axis, ridge.category)
        assert drawn(ols) == drawn(ridge)


def _recount(cell: CellSummary) -> tuple:
    """(trials, passed, violations, undefined, max finite residual), counted over ``cell.trials``."""
    trials = cell.trials
    finite = [t.residual for t in trials if math.isfinite(t.residual)]
    return (
        len(trials),
        sum(t.passed for t in trials),
        sum(t.violation for t in trials),
        sum(math.isinf(t.residual) for t in trials),
        max(finite, default=0.0),
    )


def _counts(cell: CellSummary) -> tuple:
    return (cell.trial_count, cell.pass_count, cell.violations, cell.undefined, cell.max_residual)


def test_cell_counts_read_from_the_rows_match_a_recount_over_the_trials():
    report = run_audit(AuditConfig(trials_per_cell=20, master_seed=5))
    assert any(cell.undefined for cell in report.cells)
    for cell in report.cells:
        assert not cell.rows.flags.writeable
        assert _counts(cell) == _recount(cell)
    # residuals exactly on the pass line and on the violation line, and an
    # undefined one; then a cell with no finite residual at all
    tolerance = 1e-8
    rows = np.array([
        [tolerance, tolerance, 2, 1, 5, 2],
        [VIOLATION_MARGIN * tolerance, tolerance, 2, 1, 5, 2],
        [math.inf, tolerance, 2, 1, 5, 3],
        [0.5, 2 * tolerance, 3, 2, 9, 3],
        [0.0, tolerance, 3, 2, 9, 3],
    ])
    seed = SeedState(1, "hand-built")
    cell = CellSummary(AlgorithmSpec.ols(), Axis.PREDICTOR, CategoryKind.EUC_MONO, seed, rows)
    assert _counts(cell) == _recount(cell) == (5, 2, 2, 1, 0.5)
    assert [t.seed for t in cell.trials] == [seed.derive(i) for i in range(5)]
    undefined = CellSummary(AlgorithmSpec.ols(), Axis.PREDICTOR, CategoryKind.EUC_MONO, seed,
                            rows[[2, 2]])
    assert _counts(undefined) == _recount(undefined) == (2, 0, 2, 2, 0.0)
    # equality compares the rows' values
    assert cell == CellSummary(cell.spec, cell.axis, cell.category, seed, rows.copy())
    changed = rows.copy()
    changed[4, 0] = 1e-300
    assert cell != CellSummary(cell.spec, cell.axis, cell.category, seed, changed)
    assert (cell == object()) is False
    # a cell keeps a read-only copy of its rows: writing the array it was built
    # from changes neither its counts nor its trials
    assert not cell.rows.flags.writeable
    rows[0, 0] = math.inf
    assert _counts(cell) == _recount(cell) == (5, 2, 2, 1, 0.5)


# six cells of one algorithm, hence six groups: three workers take two each
_FORKED_CONFIG = AuditConfig(
    algorithms=(AlgorithmSpec.ridge(0.5),),
    axes=(Axis.PREDICTOR, Axis.INDEX),
    categories=(CategoryKind.EUC, CategoryKind.FINVEC_ISO, CategoryKind.FINVEC),
    trials_per_cell=7,
    master_seed=19,
)


def _audit_on(monkeypatch, workers: int) -> tuple:
    """``run_audit(_FORKED_CONFIG)`` on ``workers`` workers: (report, fork_map's results)."""
    monkeypatch.setattr(natreg.naturality, "_usable_cpus", lambda: workers)
    results = []
    real = natreg.naturality.fork_map
    monkeypatch.setattr(
        natreg.naturality, "fork_map", lambda *a: results.append(list(real(*a))) or results[-1]
    )
    return run_audit(_FORKED_CONFIG), results


def test_run_audit_on_three_workers_matches_one_worker_byte_for_byte(monkeypatch):
    one, _ = _audit_on(monkeypatch, 1)
    three, results = _audit_on(monkeypatch, 3)
    # one (algorithms, trials, fields) block a group, from one fork_map call
    assert [[blocks.shape for blocks in run] for run in results] == [[(1, 7, 6)] * 6]
    assert three.cells == one.cells
    assert audit_report_to_json(three) == audit_report_to_json(one)


def test_run_audit_failed_worker_falls_back_to_one_process(monkeypatch):
    one, _ = _audit_on(monkeypatch, 1)
    # the children's sender fails; this process runs their groups
    monkeypatch.setattr(natreg._forkjoin, "_send", lambda done, pipe: None)
    three, results = _audit_on(monkeypatch, 3)
    assert [[blocks.shape for blocks in run] for run in results] == [[(1, 7, 6)] * 6]
    assert audit_report_to_json(three) == audit_report_to_json(one)
    monkeypatch.setattr(os, "fork", no_fork)  # and when no child can be forked
    assert audit_report_to_json(_audit_on(monkeypatch, 3)[0]) == audit_report_to_json(one)


def test_run_audit_runs_a_killed_workers_groups_here_once(monkeypatch):
    config = AuditConfig(trials_per_cell=2)
    monkeypatch.setattr(natreg.naturality, "_usable_cpus", lambda: 1)
    serial = audit_report_to_json(run_audit(config))
    parent, calls = os.getpid(), []
    real = natreg.naturality._run_group

    def run_group(*args):
        if os.getpid() != parent and calls:  # the child, on its second group
            os.kill(os.getpid(), signal.SIGKILL)
        calls.append(args[:2])
        return real(*args)

    monkeypatch.setattr(natreg.naturality, "_run_group", run_group)
    monkeypatch.setattr(natreg.naturality, "_usable_cpus", lambda: 2)
    assert audit_report_to_json(run_audit(config)) == serial
    # its own 9 groups, then the child's 9: none runs twice here
    assert len(calls) == len(set(calls)) == 18


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_run_audit_raises_the_first_failing_group_in_config_order(monkeypatch, workers):
    groups = [(a, c) for a in _FORKED_CONFIG.axes for c in _FORKED_CONFIG.categories]

    def run_group(axis, category, seed, config):
        # on 2 and 3 workers group 1 is a child's, and group `workers` is
        # this process's, which fails first in time
        index = groups.index((axis, category))
        if index in (1, workers):
            raise ContractViolation(f"group {index}")
        return np.zeros((config.trials_per_cell, 6))

    monkeypatch.setattr(natreg.naturality, "_run_group", run_group)
    with pytest.raises(ContractViolation, match="^group 1$"):
        _audit_on(monkeypatch, workers)


@pytest.mark.parametrize("error", (ContractViolation, RuntimeError))
def test_run_audit_own_cell_raising_stops_the_other_workers(monkeypatch, error):
    parent = os.getpid()

    def run_group(*args):
        if os.getpid() != parent:
            time.sleep(120)
        raise error("this process's cell")

    monkeypatch.setattr(natreg.naturality, "_run_group", run_group)
    begin = time.monotonic()
    with pytest.raises(error, match="this process's cell"):
        _audit_on(monkeypatch, 3)
    assert time.monotonic() - begin < 60


def test_shear_counterexample_exact_values():
    result = counterexample_ols_shear(1.0)
    assert result.fit == ((1.0,), (0.0,))
    assert result.fit_transformed == ((0.5,), (0.5,))
    assert result.pulled_back == ((1.0,), (0.5,))
    assert result.residual == 0.5
    assert result.sse_original == result.sse_transformed == 0.0
    assert result.violation_exhibited


def test_shear_counterexample_general_k():
    # the pulled-back fit differs from the original only in the second
    # coordinate, by k / (1 + k^2), rounded once; k^2 overflows float64 at
    # k = 1e200 and underflows at k = 5e-324
    for k in (0.5, 2.0, -1.0, 10.0, 1e200, 5e-324):
        result = counterexample_ols_shear(k)
        exact = Fraction(k)
        assert result.residual == float(abs(exact) / (1 + exact * exact)) > 0.0
        assert result.pulled_back == ((1.0,), (float(exact / (1 + exact * exact)),))
        assert result.sse_original == result.sse_transformed == 0.0


def test_shear_counterexample_identity_is_silent():
    result = counterexample_ols_shear(0.0)
    assert result.residual == 0.0
    assert not result.violation_exhibited


def _scaling_closed_forms(b: float, c: float, lam: float) -> tuple[float, float, float]:
    """b / (b^2 + lam), b c / (b^2 c^2 + lam) and the gap |fit' - fit/c|,
    each exact and rounded once."""
    b, c, lam = Fraction(b), Fraction(c), Fraction(lam)
    fit, refit = b / (b * b + lam), b * c / (b * b * c * c + lam)
    return float(fit), float(refit), float(abs(refit - fit / c))


def test_scaling_counterexample_exact_values():
    result = counterexample_ridge_scaling(1.0, 2.0, 1.0)
    assert result.fit == result.fit_closed_form == 0.5
    assert result.fit_transformed == result.fit_transformed_closed_form == 0.4
    assert result.expected_if_natural == 0.25
    assert result.residual == 0.15
    assert result.pulled_back_residual == 0.3
    assert result.violation_exhibited


def test_scaling_counterexample_matches_closed_forms_generally():
    for b, c, lam in ((2.0, 3.0, 0.5), (-1.0, 0.5, 2.0), (0.25, -2.0, 1e-3)):
        result = counterexample_ridge_scaling(b, c, lam)
        assert (result.fit, result.fit_transformed, result.residual) == _scaling_closed_forms(b, c, lam)


def test_scaling_counterexample_closed_forms_hold_at_extreme_scale():
    # b^2 overflows float64 at b = 1e200; the witness does not
    result = counterexample_ridge_scaling(1e200, 2.0, 1e300)
    assert (result.fit, result.fit_transformed, result.residual) == _scaling_closed_forms(1e200, 2.0, 1e300)
    assert result.fit == result.fit_closed_form
    assert result.fit_transformed == result.fit_transformed_closed_form
    assert result.residual > 0.0
    # with lambda = 1 the exact gap, about 3.75e-601, is not 0 but rounds to 0
    with pytest.raises(ContractViolation, match=r"^\|fit' - fit/c\| is nonzero but rounds to 0 in float64"):
        counterexample_ridge_scaling(1e200, 2.0, 1.0)
    result = counterexample_ridge_scaling(0.0, 2.0, 1.0)
    assert result.fit == result.fit_closed_form == 0.0
    assert result.fit_transformed == result.fit_transformed_closed_form == 0.0
    assert result.residual == result.pulled_back_residual == 0.0


def test_scaling_counterexample_vanishes_without_penalty():
    result = counterexample_ridge_scaling(1.0, 2.0, 1e-12)
    assert result.residual == _scaling_closed_forms(1.0, 2.0, 1e-12)[2]
    assert result.residual <= 1e-6
    assert not result.violation_exhibited


def test_scaling_counterexample_unit_scaling_is_silent():
    result = counterexample_ridge_scaling(1.0, 1.0, 1.0)
    assert result.residual == result.pulled_back_residual == 0.0
    assert not result.violation_exhibited


def test_counterexample_argument_validation():
    with pytest.raises(ContractViolation):
        counterexample_ridge_scaling(1.0, 0.0, 1.0)
    with pytest.raises(ContractViolation, match=r"^b must be finite"):
        counterexample_ridge_scaling(math.inf, 2.0, 1.0)
    for lam in (0.0, True):  # a bool is not a penalty, as AlgorithmSpec.ridge says
        with pytest.raises(InvalidHyperparameter):
            counterexample_ridge_scaling(1.0, 2.0, lam)
    with pytest.raises(ContractViolation):
        counterexample_ols_shear(math.inf)
    # witnesses that float64 cannot hold: each would report an inf, or warn
    # of an overflowing product
    with pytest.raises(ContractViolation, match=r"^b \* c overflows"):
        counterexample_ridge_scaling(1e200, 1e200, 1.0)
    with pytest.raises(ContractViolation, match=r"^fit / c overflows"):
        counterexample_ridge_scaling(1.0, 1e-320, 1.0)
    with pytest.raises(ContractViolation, match=r"^c \* fit' overflows"):
        counterexample_ridge_scaling(1e-320, 1e300, 1e-300)
    # a shown value that is nonzero but would print as 0, as a residual is refused
    with pytest.raises(ContractViolation, match=r"^fit' is nonzero but rounds to 0 in float64"):
        counterexample_ridge_scaling(1e-320, 1e-320, 1.0)  # fit' is about 1e-640
    with pytest.raises(ContractViolation, match=r"^fit / c is nonzero but rounds to 0 in float64"):
        counterexample_ridge_scaling(1e-300, 1e100, 1.0)  # fit / c is 1e-400
    with pytest.raises(ContractViolation, match=r"^fit is nonzero but rounds to 0 in float64"):
        counterexample_ridge_scaling(5e-324, 1.0, 1e300)  # fit is about 5e-624
