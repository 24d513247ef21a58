"""Rendering of audit reports and counterexamples as text or JSON.

The JSON layout is part of the tool's interface: top-level keys are
tool_version, master_seed, config, cells, and counterexamples, and emitting
is byte-stable (parsing a report and re-serializing reproduces it exactly).

The audit's ``config`` and each counterexample are written from their
dataclass fields, so a new field is reported without an edit here: a
dataclass is an object of its fields, with ``lam`` written as ``"lambda"``;
an enum is its value; a tuple or a list is a list.  A witness adds
``violation_exhibited``.  A cell's keys, and the counterexamples'
``config``, are derived values and are written out below.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .exact import ScalingCounterexample, ShearCounterexample
    from .naturality import AuditReport, CellSummary


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


def _data(value):
    """``value`` as JSON data, by the rules of the module docstring."""
    if dataclasses.is_dataclass(value):
        return {
            "lambda" if field.name == "lam" else field.name: _data(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_data(item) for item in value]
    return value


def _witness_payload(witness: ShearCounterexample | ScalingCounterexample) -> dict:
    return {**_data(witness), "violation_exhibited": witness.violation_exhibited}


def _serialize(payload: dict) -> str:
    # a non-finite float would come out as Infinity or NaN, which is not JSON
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def audit_report_to_json(report: AuditReport) -> str:
    payload = {
        "tool_version": report.tool_version,
        "master_seed": report.config.master_seed,
        "config": _data(report.config),
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
            "shear": _witness_payload(shear),
            "ridge_scaling": _witness_payload(scaling),
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
        return "[" + ", ".join(fmt(v) for row in m for v in row) + "]"

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
