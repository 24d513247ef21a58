"""Diagram checkers, the audit engine, and the two exact counterexamples."""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

import natreg._forkjoin
import natreg.naturality
from natreg.data import Dataset, synth_dataset
from natreg.errors import (
    ConfigError,
    ContractViolation,
    InvalidHyperparameter,
    RankDeficient,
)
from natreg.linalg import SeedState, condition_estimate
from natreg.morphisms import Axis, CategoryKind, Morphism, sample_morphism
from natreg.naturality import (
    _CHECKERS,
    AuditConfig,
    check_index_invariance,
    check_predictor_dinaturality,
    check_target_naturality,
    counterexample_ols_shear,
    counterexample_ridge_scaling,
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
    with pytest.raises(ConfigError):
        AuditConfig(base_tolerance=0.0)
    with pytest.raises(ConfigError):
        AuditConfig(p_range=(3, 2))
    with pytest.raises(ConfigError):
        AuditConfig(max_examples=5)


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


def test_engine_matches_the_scalar_checkers_trial_by_trial():
    # the engine fits a cell's trials from raw arrays; the check_* functions
    # are the reference, run on each trial's rebuilt Dataset and Morphism
    config = AuditConfig(trials_per_cell=5)
    report = run_audit(config)
    assert len(report.trials) == 2 * 3 * 6 * 5
    domain_exits = 0
    for cell in report.cells:
        for trial in cell.trials:
            x, y, m, kappa = draw_trial(cell.axis, cell.category, config, trial.seed)
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
    assert calls == [trial.seed for trial in report.trials]


# six cells, so three workers take two cells each
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
        natreg.naturality, "fork_map", lambda *a: results.append(real(*a)) or results[-1]
    )
    try:
        return run_audit(_FORKED_CONFIG), results
    finally:
        with pytest.raises(ChildProcessError):  # every forked worker was reaped
            os.waitpid(-1, os.WNOHANG)


def test_run_audit_on_three_workers_matches_one_worker_byte_for_byte(monkeypatch):
    one, _ = _audit_on(monkeypatch, 1)
    three, results = _audit_on(monkeypatch, 3)
    assert [rows.shape for rows in results] == [(6 * 7, 6)]  # no serial fallback
    assert three.cells == one.cells
    assert audit_report_to_json(three) == audit_report_to_json(one)


def test_run_audit_failed_worker_falls_back_to_one_process(monkeypatch):
    one, _ = _audit_on(monkeypatch, 1)
    # the children's sender fails; this process sends nothing
    monkeypatch.setattr(natreg._forkjoin, "send_rows", lambda values, pipe: 3)
    three, results = _audit_on(monkeypatch, 3)
    assert results == [None]
    assert audit_report_to_json(three) == audit_report_to_json(one)


@pytest.mark.parametrize("error", (ContractViolation, RuntimeError))
def test_run_audit_own_cell_raising_stops_the_other_workers(monkeypatch, error):
    parent = os.getpid()

    def run_cell(*args):
        if os.getpid() != parent:
            time.sleep(120)
        raise error("this process's cell")

    monkeypatch.setattr(natreg.naturality, "_run_cell", run_cell)
    begin = time.monotonic()
    with pytest.raises(error, match="this process's cell"):
        _audit_on(monkeypatch, 3)
    assert time.monotonic() - begin < 60


def test_shear_counterexample_exact_values():
    result = counterexample_ols_shear(1.0)
    np.testing.assert_allclose(result.fit, [[1.0], [0.0]], rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        result.fit_transformed, [[0.5], [0.5]], rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(result.pulled_back, [[1.0], [0.5]], rtol=0, atol=1e-15)
    assert abs(result.residual - 0.5) <= 1e-12
    assert result.sse_original <= 1e-20
    assert result.sse_transformed <= 1e-20
    assert result.violation_exhibited


def test_shear_counterexample_general_k():
    # the pulled-back fit differs from the original only in the second
    # coordinate, by k / (1 + k^2)
    for k in (0.5, 2.0, -1.0, 10.0):
        result = counterexample_ols_shear(k)
        expected = abs(k) / (1 + k * k)
        assert abs(result.residual - expected) <= 1e-12
        assert result.sse_transformed <= 1e-20


def test_shear_counterexample_identity_is_silent():
    result = counterexample_ols_shear(0.0)
    assert result.residual == 0.0
    assert not result.violation_exhibited


def test_scaling_counterexample_exact_values():
    result = counterexample_ridge_scaling(1.0, 2.0, 1.0)
    assert abs(result.fit - 0.5) <= 1e-12
    assert abs(result.fit_closed_form - 0.5) <= 1e-15
    assert abs(result.fit_transformed - 0.4) <= 1e-12
    assert abs(result.fit_transformed_closed_form - 0.4) <= 1e-15
    assert abs(result.residual - 0.15) <= 1e-12
    assert abs(result.pulled_back_residual - 0.3) <= 1e-12
    assert result.violation_exhibited


def test_scaling_counterexample_matches_closed_forms_generally():
    for b, c, lam in ((2.0, 3.0, 0.5), (-1.0, 0.5, 2.0), (0.25, -2.0, 1e-3)):
        result = counterexample_ridge_scaling(b, c, lam)
        assert abs(result.fit - b / (b * b + lam)) <= 1e-12
        assert abs(
            result.fit_transformed - b * c / (b * b * c * c + lam)
        ) <= 1e-12


def test_scaling_counterexample_closed_forms_hold_at_extreme_scale():
    # b^2 overflows at b = 1e200; the fit and both closed forms stay exact
    result = counterexample_ridge_scaling(1e200, 2.0, 1.0)
    assert result.fit == result.fit_closed_form == 1e-200
    assert result.fit_transformed == result.fit_transformed_closed_form == 5e-201
    assert result.residual == 0.0
    assert not result.violation_exhibited
    result = counterexample_ridge_scaling(0.0, 2.0, 1.0)
    assert result.fit == result.fit_closed_form == 0.0
    assert result.fit_transformed == result.fit_transformed_closed_form == 0.0


def test_scaling_counterexample_vanishes_without_penalty():
    result = counterexample_ridge_scaling(1.0, 2.0, 1e-12)
    assert result.residual <= 1e-6
    assert not result.violation_exhibited


def test_scaling_counterexample_unit_scaling_is_silent():
    result = counterexample_ridge_scaling(1.0, 1.0, 1.0)
    assert result.residual <= 1e-15
    assert not result.violation_exhibited


def test_counterexample_argument_validation():
    with pytest.raises(ContractViolation):
        counterexample_ridge_scaling(1.0, 0.0, 1.0)
    with pytest.raises(InvalidHyperparameter):
        counterexample_ridge_scaling(1.0, 2.0, 0.0)
    with pytest.raises(ContractViolation):
        counterexample_ols_shear(math.inf)
