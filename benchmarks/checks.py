"""Output checks for every CLI call the benchmark makes.

Each check returns a :class:`Verdict`.  ``ok`` is the benchmark's gate: an
operation that misses it counts as failed, with its reason.  ``correct`` is
weaker and only false when an output is wrong by any standard: a flipped
verdict, a wrong witness, a crash, or a fit outside the κ²·eps envelope that
even the normal equations meet.  A fit between the two bounds is a correct
normal-equation answer that misses the accuracy a backward-stable solver
gives, so it fails the gate while the run stays valid.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# Gate: relative error at most FIT_GATE * κ * eps.  Backward-stable solvers
# land near 1-10 on every input the benchmark makes.
FIT_GATE = 100.0

# The two exact witnesses are computed in floating point; allow 4 ulps.
WITNESS_ULPS = 4

SHEAR_GAP = 0.5
SCALING_GAP = 0.15

# The paper's classification of the default audit, in the CLI's row order.
EXPECTED_AUDIT = [tuple(line.split()) for line in """
ols              predictor  finvec      not_natural
ols              predictor  finvec_iso  natural
ols              predictor  euc         natural
ols              predictor  euc_mono    not_natural
ols              predictor  set_iso     natural
ols              predictor  discrete    natural
ols              target     finvec      natural
ols              target     finvec_iso  natural
ols              target     euc         natural
ols              target     euc_mono    natural
ols              target     set_iso     natural
ols              target     discrete    natural
ols              index      finvec      not_natural
ols              index      finvec_iso  not_natural
ols              index      euc         natural
ols              index      euc_mono    natural
ols              index      set_iso     natural
ols              index      discrete    natural
ridge(lambda=1)  predictor  finvec      not_natural
ridge(lambda=1)  predictor  finvec_iso  not_natural
ridge(lambda=1)  predictor  euc         natural
ridge(lambda=1)  predictor  euc_mono    natural
ridge(lambda=1)  predictor  set_iso     natural
ridge(lambda=1)  predictor  discrete    natural
ridge(lambda=1)  target     finvec      natural
ridge(lambda=1)  target     finvec_iso  natural
ridge(lambda=1)  target     euc         natural
ridge(lambda=1)  target     euc_mono    natural
ridge(lambda=1)  target     set_iso     natural
ridge(lambda=1)  target     discrete    natural
ridge(lambda=1)  index      finvec      not_natural
ridge(lambda=1)  index      finvec_iso  not_natural
ridge(lambda=1)  index      euc         natural
ridge(lambda=1)  index      euc_mono    natural
ridge(lambda=1)  index      set_iso     natural
ridge(lambda=1)  index      discrete    natural
""".strip().splitlines()]

AUDIT_TRIALS = "200"


@dataclass(frozen=True)
class Verdict:
    ok: bool
    correct: bool
    reason: str = ""
    rel_err: float | None = None


PASSED = Verdict(True, True)


def wrong(reason: str) -> Verdict:
    return Verdict(False, False, reason)


def _exit_code(code: int, stderr: str) -> Verdict | None:
    if code == 0:
        return None
    last = stderr.strip().splitlines()[-1:] or [""]
    return wrong(f"exit code {code}: {last[0]}")


def check_audit_text(code: int, stdout: str, stderr: str) -> Verdict:
    """Every row carries the expected classification and agrees with it."""
    failed = _exit_code(code, stderr)
    if failed:
        return failed
    lines = stdout.splitlines()
    try:
        start = next(i for i, line in enumerate(lines) if line.startswith("algorithm"))
    except StopIteration:
        return wrong("audit: no table header")
    rows = [line.split() for line in lines[start + 1:start + 1 + len(EXPECTED_AUDIT)]]
    for number, (row, expected) in enumerate(zip(rows, EXPECTED_AUDIT), start=1):
        if len(row) != 8:
            return wrong(f"audit row {number}: expected 8 columns, got {len(row)}")
        if tuple(row[:4]) != expected:
            return wrong(f"audit row {number}: {' '.join(row[:4])} != {' '.join(expected)}")
        if row[4] != AUDIT_TRIALS:
            return wrong(f"audit row {number}: {row[4]} trials, expected {AUDIT_TRIALS}")
        if row[7] != "PASS":
            return wrong(f"audit row {number}: {' '.join(row[:3])} reports {row[7]}")
    if len(rows) != len(EXPECTED_AUDIT):
        return wrong(f"audit: {len(rows)} rows, expected {len(EXPECTED_AUDIT)}")
    summary = f"agreement: {len(EXPECTED_AUDIT)}/{len(EXPECTED_AUDIT)} cells"
    if not any(line.startswith(summary) for line in lines):
        return wrong("audit: agreement summary missing")
    return PASSED


def _witness(name: str, gap: float, expected: float) -> Verdict | None:
    if math.isclose(gap, expected, rel_tol=WITNESS_ULPS * EPS, abs_tol=0.0):
        return None
    return wrong(f"{name} gap {gap!r}, expected {expected}")


def _text_value(lines: list[str], prefix: str) -> float:
    line = next(line for line in lines if line.strip().startswith(prefix))
    return float(line.split(":", 1)[1].split()[0])


def check_counterexamples_text(code: int, stdout: str, stderr: str) -> Verdict:
    failed = _exit_code(code, stderr)
    if failed:
        return failed
    lines = stdout.splitlines()
    try:
        shear = _text_value(lines, "residual |shear @ fit' - fit|")
        scaling = _text_value(lines, "residual |fit' - fit/c|")
    except (StopIteration, ValueError, IndexError):
        return wrong("counterexamples: residual lines missing")
    return _witness("shear", shear, SHEAR_GAP) or _witness("scaling", scaling, SCALING_GAP) or PASSED


def check_counterexamples_json(code: int, stdout: str, stderr: str) -> Verdict:
    failed = _exit_code(code, stderr)
    if failed:
        return failed
    try:
        witnesses = json.loads(stdout)["counterexamples"]
        shear = witnesses["shear"]
        scaling = witnesses["ridge_scaling"]
    except (ValueError, KeyError, TypeError):
        return wrong("counterexamples: malformed json")
    if not (shear["violation_exhibited"] and scaling["violation_exhibited"]):
        return wrong("counterexamples: a violation is not exhibited")
    return (
        _witness("shear", shear["residual"], SHEAR_GAP)
        or _witness("scaling", scaling["residual"], SCALING_GAP)
        or PASSED
    )


def parse_coef(stdout: str) -> np.ndarray:
    return np.array([[float(v) for v in line.split(",")] for line in stdout.split()])


def check_fit(code: int, stdout: str, stderr: str, reference: np.ndarray, kappa: float) -> Verdict:
    """Relative error against the reference, gated at FIT_GATE·κ·eps.

    Where κ²·eps >= 1 the normal equations are numerically singular, so a
    refusal (exit 1) is a correct, if inaccurate, answer.  A refusal's
    relative error is 1, that of returning zero coefficients.
    """
    if code != 0:
        refused = code == 1 and kappa * kappa * EPS >= 1.0
        return Verdict(False, refused, _exit_code(code, stderr).reason, 1.0)
    try:
        coef = parse_coef(stdout)
    except ValueError:
        return wrong("fit: unparseable coefficients")
    if coef.shape != reference.shape:
        return wrong(f"fit: coefficients {coef.shape}, expected {reference.shape}")
    err = float(np.linalg.norm(coef - reference) / np.linalg.norm(reference))
    gate = FIT_GATE * kappa * EPS
    if err <= gate:
        return Verdict(True, True, "", err)
    reason = f"relative error {err:.3g} > {FIT_GATE:g}·κ·eps = {gate:.3g} (κ = {kappa:.3g})"
    return Verdict(False, err <= FIT_GATE * kappa * kappa * EPS, reason, err)
