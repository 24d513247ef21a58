"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import inputs
import run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_generator_is_deterministic_for_a_fixed_seed(tmp_path):
    x1, y1 = inputs.tall_data(7)
    x2, y2 = inputs.tall_data(7)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    assert not np.array_equal(x1, inputs.tall_data(8)[0])
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    for kappa in inputs.LADDER_KAPPAS:
        a = inputs.ladder_case(7, kappa, str(tmp_path / "a"))
        b = inputs.ladder_case(7, kappa, str(tmp_path / "b"))
        with open(a.path, "rb") as fa, open(b.path, "rb") as fb:
            assert fa.read() == fb.read()
        for name, ref in a.reference.items():
            assert np.array_equal(ref, b.reference[name])


def test_csv_round_trips_exactly(tmp_path):
    x = inputs.ladder_matrix(3, 1e9)
    path = str(tmp_path / "m.csv")
    inputs.write_csv(path, x, x[:, :2])
    back = np.loadtxt(path, delimiter=",")
    assert np.array_equal(back[:, : x.shape[1]], x)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ladder_kappa_is_within_one_percent_of_target(seed):
    for label in inputs.LADDER_KAPPAS:
        kappa, _ = inputs.conditioning(inputs.ladder_matrix(seed, float(label)))
        assert abs(kappa / float(label) - 1.0) < 0.01


def test_ridge_reference_matches_the_normal_equations():
    x = inputs.ladder_matrix(4, 1e5)
    y = x @ np.ones((x.shape[1], 2))
    ref = inputs.references(x, y)["ridge"]
    direct = np.linalg.solve(x.T @ x + inputs.RIDGE_LAMBDA * np.eye(x.shape[1]), x.T @ y)
    assert np.allclose(ref, direct, rtol=1e-10, atol=0.0)


def _audit_text(rows):
    lines = ["naturality audit: seed 42, 200 trials/cell, base tolerance 1e-08", ""]
    lines.append("algorithm  axis  category  expected  trials  violations  max_residual  result")
    lines += [f"{a}  {ax}  {c}  {e}  200  0  0.000000e+00  {r}" for a, ax, c, e, r in rows]
    lines += ["", f"agreement: {len(rows)}/{len(rows)} cells match the expected classification"]
    return "\n".join(lines) + "\n"


def test_audit_checker_accepts_the_expected_table_and_rejects_a_flipped_row():
    rows = [(*row, "PASS") for row in checks.EXPECTED_AUDIT]
    assert checks.check_audit_text(0, _audit_text(rows), "").ok
    flipped = list(rows)
    a, ax, c, e, r = flipped[3]
    flipped[3] = (a, ax, c, "natural" if e == "not_natural" else "not_natural", r)
    verdict = checks.check_audit_text(0, _audit_text(flipped), "")
    assert not verdict.ok and not verdict.correct and "row 4" in verdict.reason
    failing = list(rows)
    failing[10] = (*rows[10][:4], "FAIL")
    assert not checks.check_audit_text(0, _audit_text(failing), "").ok
    assert not checks.check_audit_text(0, _audit_text(rows[:-1]), "").ok
    assert not checks.check_audit_text(1, _audit_text(rows), "").ok


def test_witness_checker_allows_rounding_but_not_a_wrong_gap():
    assert checks._witness("shear", 0.49999999999999989, 0.5) is None
    assert checks._witness("scaling", 0.15000000000000002, 0.15) is None
    assert checks._witness("shear", 0.5 + 1e-12, 0.5) is not None


def _cli_text(coef: np.ndarray) -> str:
    return "\n".join(",".join(format(v, ".17g") for v in row) for row in coef) + "\n"


def test_fit_checker_rejects_a_perturbed_coefficient(tmp_path):
    case = inputs.ladder_case(5, "1e5", str(tmp_path))
    ref = case.reference["minnorm-ols"]
    assert checks.check_fit(0, _cli_text(ref), "", ref, case.kappa_x).ok
    bad = ref.copy()
    bad[2, 1] *= 1.0 + 1e-6
    verdict = checks.check_fit(0, _cli_text(bad), "", ref, case.kappa_x)
    assert not verdict.ok and verdict.correct and verdict.rel_err > 0
    way_off = ref + 1.0
    assert not checks.check_fit(0, _cli_text(way_off), "", ref, case.kappa_x).correct
    refused = checks.check_fit(1, "", "error: rank", ref, 1e9)
    assert not refused.ok and refused.correct
    assert not checks.check_fit(1, "", "error: rank", ref, case.kappa_x).correct


def test_tally_flags_output_that_changes_between_calls():
    op = run.Op("audit", ("audit",), lambda code, out, err: checks.PASSED, repeat_exact=True)
    tally = run.Tally()
    tally.record(op, 0, "same", "")
    tally.record(op, 0, "same", "")
    tally.record(op, 0, "other", "")
    assert (tally.attempted, tally.failed, tally.correct) == (3, 1, False)


def test_speed_scaling_divides_by_the_mean_of_the_probes_around_a_call():
    ref = run.SPEED_REFERENCE_S
    assert run.at_reference_speed(2.0, ref, 2 * ref) == pytest.approx(2.0 / 1.5)
    assert run.at_reference_speed(3.0, ref, ref) == pytest.approx(3.0)


def _result(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _units(result: dict) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


def test_untraced_run_emits_the_declared_end_to_end_metrics():
    result = _result("cli-short", 0)
    assert _units(result) == _declared("end_to_end")
    assert result["correct"] and result["attempted"] == 11


def test_traced_counts_repeat_exactly():
    first, second = _result("audit-default", 1), _result("audit-default", 1)
    assert _units(first) == _declared("per_layer")
    assert first["correct"] and first["failed"] == 0
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["naturality.trials"] == 7200
    assert counts[0]["linalg.seed_generator_calls"] > 7200
