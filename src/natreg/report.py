"""Rendering of audit reports and counterexamples as text or JSON.

The JSON layout is part of the tool's interface: top-level keys are
tool_version, master_seed, config, cells, and counterexamples, and emitting
is byte-stable (parsing a report and re-serializing reproduces it exactly).
"""

from __future__ import annotations

import json

from .naturality import (
    AuditReport,
    CellSummary,
    ScalingCounterexample,
    ShearCounterexample,
)


def _expected_label(natural: bool) -> str:
    return "natural" if natural else "not_natural"


def _cell_payload(cell: CellSummary) -> dict:
    return {
        "algorithm": cell.spec.kind.value,
        "lambda": cell.spec.lam,
        "axis": cell.axis.value,
        "category": cell.category.value,
        "expected": _expected_label(cell.expected_natural),
        "trials": cell.trial_count,
        "max_residual": cell.max_residual,
        "undefined": cell.undefined,
        "violations": cell.violations,
        "agrees_with_paper": cell.agrees,
    }


def _config_payload(report: AuditReport) -> dict:
    config = report.config
    return {
        "algorithms": [
            {"kind": spec.kind.value, "lambda": spec.lam} for spec in config.algorithms
        ],
        "axes": [axis.value for axis in config.axes],
        "categories": [category.value for category in config.categories],
        "p_range": list(config.p_range),
        "q_range": list(config.q_range),
        "max_examples": config.max_examples,
        "codomain_offset": config.codomain_offset,
        "trials_per_cell": config.trials_per_cell,
        "master_seed": config.master_seed,
        "base_tolerance": config.base_tolerance,
    }


def _shear_payload(shear: ShearCounterexample) -> dict:
    return {
        "k": shear.k,
        "fit": shear.fit.tolist(),
        "fit_transformed": shear.fit_transformed.tolist(),
        "pulled_back": shear.pulled_back.tolist(),
        "residual": shear.residual,
        "sse_original": shear.sse_original,
        "sse_transformed": shear.sse_transformed,
        "violation_exhibited": shear.violation_exhibited,
    }


def _scaling_payload(scaling: ScalingCounterexample) -> dict:
    return {
        "b": scaling.b,
        "c": scaling.c,
        "lambda": scaling.lam,
        "fit": scaling.fit,
        "fit_transformed": scaling.fit_transformed,
        "fit_closed_form": scaling.fit_closed_form,
        "fit_transformed_closed_form": scaling.fit_transformed_closed_form,
        "expected_if_natural": scaling.expected_if_natural,
        "residual": scaling.residual,
        "pulled_back_residual": scaling.pulled_back_residual,
        "violation_exhibited": scaling.violation_exhibited,
    }


def _serialize(payload: dict) -> str:
    # a non-finite float would come out as Infinity or NaN, which is not JSON
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def audit_report_to_json(report: AuditReport) -> str:
    payload = {
        "tool_version": report.tool_version,
        "master_seed": report.config.master_seed,
        "config": _config_payload(report),
        "cells": [_cell_payload(cell) for cell in report.cells],
        "counterexamples": None,
    }
    return _serialize(payload)


def counterexamples_to_json(
    tool_version: str, shear: ShearCounterexample, scaling: ScalingCounterexample
) -> str:
    payload = {
        "tool_version": tool_version,
        "master_seed": 0,  # nothing here is randomized
        "config": {
            "k": shear.k,
            "b": scaling.b,
            "c": scaling.c,
            "lambda": scaling.lam,
        },
        "cells": [],
        "counterexamples": {
            "shear": _shear_payload(shear),
            "ridge_scaling": _scaling_payload(scaling),
        },
    }
    return _serialize(payload)


def audit_report_to_text(report: AuditReport) -> str:
    """One aligned row per cell with a PASS/FAIL agreement marker."""
    config = report.config
    header = (
        f"naturality audit: seed {config.master_seed}, "
        f"{config.trials_per_cell} trials/cell, base tolerance {config.base_tolerance:g}"
    )
    columns = ("algorithm", "axis", "category", "expected", "trials",
               "violations", "max_residual", "result")
    rows = []
    for cell in report.cells:
        rows.append((
            cell.spec.label(),
            cell.axis.value,
            cell.category.value,
            _expected_label(cell.expected_natural),
            str(cell.trial_count),
            str(cell.violations),
            f"{cell.max_residual:.6e}",
            "PASS" if cell.agrees else "FAIL",
        ))
    widths = [max(len(col), *(len(row[i]) for row in rows)) for i, col in enumerate(columns)]
    lines = [header, ""]
    lines.append("  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)).rstrip())
    for row in rows:
        lines.append(
            "  ".join(row[i].ljust(widths[i]) for i in range(len(columns))).rstrip()
        )
    agreeing = sum(cell.agrees for cell in report.cells)
    lines.append("")
    lines.append(f"agreement: {agreeing}/{len(report.cells)} cells match the expected classification")
    return "\n".join(lines) + "\n"


def counterexamples_to_text(
    shear: ShearCounterexample, scaling: ScalingCounterexample
) -> str:
    def fmt(v: float) -> str:
        return format(v, ".17g")

    def flat(m) -> str:
        return "[" + ", ".join(fmt(v) for v in m.ravel()) + "]"

    shear_mark = "VIOLATION" if shear.violation_exhibited else "no violation"
    scaling_mark = "VIOLATION" if scaling.violation_exhibited else "no violation"
    lines = [
        f"shear counterexample (k = {shear.k:g})",
        "  data: x = [1, 0], y = [1]; predictor shear [[1, k], [0, 1]]",
        f"  min-norm fit on original data:     {flat(shear.fit)}",
        f"  min-norm fit on sheared data:      {flat(shear.fit_transformed)}",
        f"  pulled back through the shear:     {flat(shear.pulled_back)}",
        f"  sse original / sheared:            {fmt(shear.sse_original)} / {fmt(shear.sse_transformed)}",
        f"  residual |shear @ fit' - fit|:     {fmt(shear.residual)}  {shear_mark}",
        "",
        f"ridge scaling counterexample (b = {scaling.b:g}, c = {scaling.c:g}, lambda = {scaling.lam:g})",
        "  data: x = [b], y = [1]; predictor scaling [[c]]",
        f"  fit b/(b^2 + lambda):              {fmt(scaling.fit)}",
        f"  fit on scaled data bc/(b^2c^2+l):  {fmt(scaling.fit_transformed)}",
        f"  commuting would need fit/c:        {fmt(scaling.expected_if_natural)}",
        f"  residual |fit' - fit/c|:           {fmt(scaling.residual)}  {scaling_mark}",
        f"  residual |c fit' - fit|:           {fmt(scaling.pulled_back_residual)}",
    ]
    return "\n".join(lines) + "\n"
