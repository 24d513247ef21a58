"""Report rendering: JSON schema, byte-stable serialization, text layout."""

from __future__ import annotations

import dataclasses
import json
import math

import pytest

from natreg.exact import counterexample_ols_shear, counterexample_ridge_scaling
from natreg.morphisms import Axis, CategoryKind
from natreg.naturality import AuditConfig, run_audit
from natreg.regression import AlgorithmSpec
from natreg.report import (
    audit_report_to_json,
    audit_report_to_text,
    counterexamples_to_json,
    counterexamples_to_text,
)

SMALL_CONFIG = AuditConfig(
    algorithms=(AlgorithmSpec.ols(), AlgorithmSpec.ridge(1.0)),
    axes=(Axis.TARGET,),
    categories=(CategoryKind.DISCRETE, CategoryKind.EUC),
    trials_per_cell=3,
    master_seed=21,
)


def test_json_top_level_schema():
    report = run_audit(SMALL_CONFIG)
    payload = json.loads(audit_report_to_json(report))
    assert sorted(payload) == [
        "cells",
        "config",
        "counterexamples",
        "master_seed",
        "tool_version",
    ]
    assert payload["master_seed"] == 21
    assert payload["counterexamples"] is None
    assert len(payload["cells"]) == 4
    for cell in payload["cells"]:
        assert sorted(cell) == [
            "agrees_with_paper",
            "algorithm",
            "axis",
            "category",
            "expected",
            "lambda",
            "max_residual",
            "trials",
            "undefined",
            "violations",
        ]
        assert cell["expected"] in ("natural", "not_natural")
        assert isinstance(cell["agrees_with_paper"], bool)
    assert payload["cells"][0]["lambda"] is None
    assert payload["cells"][2]["lambda"] == 1.0


def test_json_config_and_witnesses_hold_every_field():
    config = json.loads(audit_report_to_json(run_audit(SMALL_CONFIG)))["config"]
    assert sorted(config) == [
        "algorithms",
        "axes",
        "base_tolerance",
        "categories",
        "master_seed",
        "trials_per_cell",
    ]
    assert config["algorithms"] == [
        {"kind": "ols", "lambda": None},
        {"kind": "ridge", "lambda": 1.0},
    ]
    assert (config["axes"], config["categories"]) == (["target"], ["discrete", "euc"])
    shear = counterexample_ols_shear(1.0)
    scaling = counterexample_ridge_scaling(1.0, 2.0, 1.0)
    witnesses = json.loads(counterexamples_to_json("0.1.0", shear, scaling))["counterexamples"]
    assert sorted(witnesses["shear"]) == [
        "fit",
        "fit_transformed",
        "k",
        "pulled_back",
        "residual",
        "sse_original",
        "sse_transformed",
        "violation_exhibited",
    ]
    assert sorted(witnesses["ridge_scaling"]) == [
        "b",
        "c",
        "expected_if_natural",
        "fit",
        "fit_transformed",
        "lambda",
        "pulled_back_residual",
        "residual",
        "violation_exhibited",
    ]


def test_json_of_a_list_valued_config_is_that_of_its_tuples():
    fields = {
        "algorithms": [AlgorithmSpec.ols(), AlgorithmSpec.ridge(1.0)],
        "axes": [Axis.TARGET],
        "categories": [CategoryKind.DISCRETE, CategoryKind.EUC],
    }
    listed = dataclasses.replace(SMALL_CONFIG, **fields)
    tupled = dataclasses.replace(
        SMALL_CONFIG, **{name: tuple(value) for name, value in fields.items()}
    )
    rendered = audit_report_to_json(run_audit(tupled))
    assert audit_report_to_json(run_audit(listed)) == rendered
    assert json.loads(rendered)["config"]["categories"] == ["discrete", "euc"]


def test_json_round_trip_is_byte_stable():
    rendered = audit_report_to_json(run_audit(SMALL_CONFIG))
    reparsed = json.dumps(json.loads(rendered), indent=2, sort_keys=True) + "\n"
    assert reparsed == rendered


def test_json_runs_are_byte_identical():
    first = audit_report_to_json(run_audit(SMALL_CONFIG))
    second = audit_report_to_json(run_audit(SMALL_CONFIG))
    assert first == second


def test_text_report_has_one_row_per_cell():
    report = run_audit(SMALL_CONFIG)
    rendered = audit_report_to_text(report)
    lines = rendered.splitlines()
    cell_rows = [line for line in lines if line.startswith(("ols", "ridge"))]
    assert len(cell_rows) == len(report.cells)
    assert all(row.endswith(("PASS", "FAIL")) for row in cell_rows)
    assert "agreement: 4/4" in rendered


def test_text_and_json_numeric_content_agrees():
    report = run_audit(SMALL_CONFIG)
    payload = json.loads(audit_report_to_json(report))
    rendered = audit_report_to_text(report)
    for cell in payload["cells"]:
        assert f"{cell['max_residual']:.6e}" in rendered
        assert str(cell["trials"]) in rendered


def test_counterexamples_json_schema():
    shear = counterexample_ols_shear(1.0)
    scaling = counterexample_ridge_scaling(1.0, 2.0, 1.0)
    payload = json.loads(counterexamples_to_json("0.1.0", shear, scaling))
    assert sorted(payload) == [
        "cells",
        "config",
        "counterexamples",
        "master_seed",
        "tool_version",
    ]
    assert payload["cells"] == []
    witnesses = payload["counterexamples"]
    assert sorted(witnesses) == ["ridge_scaling", "shear"]
    assert witnesses["shear"]["residual"] == shear.residual
    assert witnesses["shear"]["fit"] == [[1.0], [0.0]]
    assert witnesses["ridge_scaling"]["lambda"] == 1.0
    assert witnesses["ridge_scaling"]["violation_exhibited"] is True


def test_counterexamples_text_contains_key_numbers():
    shear = counterexample_ols_shear(1.0)
    scaling = counterexample_ridge_scaling(1.0, 2.0, 1.0)
    rendered = counterexamples_to_text(shear, scaling)
    assert format(shear.residual, ".17g") in rendered
    assert format(scaling.residual, ".17g") in rendered
    assert rendered.count("VIOLATION") == 2


def test_json_refuses_non_finite_numbers():
    # Infinity and NaN are not JSON; the library never builds such a witness
    shear = counterexample_ols_shear(1.0)
    scaling = counterexample_ridge_scaling(1.0, 2.0, 1.0)
    for value in (math.inf, math.nan):
        broken = dataclasses.replace(scaling, residual=value)
        with pytest.raises(ValueError):
            counterexamples_to_json("0.1.0", shear, broken)
