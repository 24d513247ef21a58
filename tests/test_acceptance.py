"""Acceptance suite: each test is one release criterion at its stated tolerance.

Every test reports a [PASS]/[FAIL] line through the shared recorder; the
lines are echoed in the terminal summary after the run.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
from conftest import record_criterion, strict_json
from oracles import ols_oracle_fit, ridge_objective, ridge_objective_gradient, sse, sse_gradient

import natreg.naturality
from natreg.cli import main
from natreg.data import Dataset, synth_dataset
from natreg.exact import counterexample_ols_shear, counterexample_ridge_scaling
from natreg.linalg import SeedState, rel_distance
from natreg.morphisms import Axis, CategoryKind, sample_morphism
from natreg.naturality import check_index_invariance, check_predictor_dinaturality
from natreg.regression import AlgorithmSpec, LinearModel, ols_fit, ridge_fit


def _criterion(number: int, description: str):
    """Record the verdict even when the body raises."""

    class _Recorder:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            record_criterion(number, description, exc_type is None)
            return False

    return _Recorder()


def test_criterion_1_default_audit_certifies_the_expected_cells(tmp_path):
    with _criterion(1, "default audit exits 0 and certifies the expected cells"):
        out = tmp_path / "audit.json"
        started = time.monotonic()
        code = main(["audit", "--format", "json", "--out", str(out)])
        elapsed = time.monotonic() - started
        assert code == 0
        assert elapsed <= 30.0
        payload = json.loads(out.read_text())
        cells = {
            (c["algorithm"], c["axis"], c["category"]): c for c in payload["cells"]
        }
        assert payload["master_seed"] == 42
        assert all(c["trials"] == 200 for c in cells.values())
        assert all(c["agrees_with_paper"] for c in cells.values())

        def certified_natural(algorithm, axis, category):
            cell = cells[(algorithm, axis, category)]
            return cell["expected"] == "natural" and cell["violations"] == 0

        assert certified_natural("ols", "predictor", "finvec_iso")
        assert certified_natural("ols", "target", "finvec")
        for category in ("set_iso", "euc", "euc_mono"):
            assert certified_natural("ols", "index", category)
            assert certified_natural("ridge", "index", category)
        assert certified_natural("ridge", "predictor", "euc")
        assert certified_natural("ridge", "predictor", "euc_mono")
        assert certified_natural("ridge", "target", "finvec")
        breaking = cells[("ridge", "predictor", "finvec_iso")]
        assert breaking["expected"] == "not_natural"
        assert breaking["violations"] >= 1


def test_criterion_2_ridge_scaling_counterexample():
    with _criterion(2, "ridge scaling witness matches closed forms, vanishes as lambda -> 0"):
        result = counterexample_ridge_scaling(1.0, 2.0, 1.0)
        assert result.fit == 0.5
        assert result.fit_transformed == 0.4
        assert result.residual == 0.15
        tiny = counterexample_ridge_scaling(1.0, 2.0, 1e-12)
        assert tiny.residual <= 1e-6


def test_criterion_3_min_norm_shear_counterexample():
    with _criterion(3, "shear witness: residual 0.5 with both fits exact"):
        result = counterexample_ols_shear(1.0)
        assert result.residual == 0.5
        assert result.sse_original == result.sse_transformed == 0.0


def test_criterion_4_ridge_commutes_with_expanding_isometries():
    with _criterion(4, "200 expanding isometries: ridge pull-back residual <= 1e-8"):
        spec = AlgorithmSpec.ridge(1.0)
        rank_deficient_seen = 0
        for i in range(200):
            seed = SeedState(42, f"acceptance4/{i}")
            gen = seed.derive("dims").generator()
            p = int(gen.integers(1, 9))
            n = int(gen.integers(1, 41))  # includes n < p
            r = p + int(gen.integers(0, 6))
            if n < p:
                rank_deficient_seen += 1
            d, _ = synth_dataset(seed.derive("data"), n, p, 1 + int(gen.integers(0, 3)),
                                 noise_sd=1.0)
            xi = sample_morphism(CategoryKind.EUC_MONO, Axis.PREDICTOR, p, r,
                                 seed.derive("m"))
            fitted = spec.fit(d)
            refitted = spec.fit(Dataset(d.x @ xi.matrix, d.y))
            residual = float(
                np.linalg.norm(xi.matrix @ refitted.coef - fitted.coef)
                / (1.0 + np.linalg.norm(fitted.coef))
            )
            assert residual <= 1e-8
            assert check_predictor_dinaturality(spec, d, xi) <= 1e-8
        assert rank_deficient_seen >= 10


def test_criterion_5_index_isometries_preserve_both_fits():
    with _criterion(5, "200 index isometries: both fits move <= 1e-8"):
        for i in range(200):
            seed = SeedState(42, f"acceptance5/{i}")
            gen = seed.derive("dims").generator()
            p = int(gen.integers(1, 9))
            n = p + 1 + int(gen.integers(0, 40 - p))
            m_dim = n + int(gen.integers(0, 11))
            d, _ = synth_dataset(seed.derive("data"), n, p, 1 + int(gen.integers(0, 3)),
                                 noise_sd=1.0)
            a = sample_morphism(CategoryKind.EUC_MONO, Axis.INDEX, n, m_dim,
                                seed.derive("m"))
            assert np.linalg.norm(a.matrix.T @ a.matrix - np.eye(n)) <= 1e-10
            assert check_index_invariance(AlgorithmSpec.ols(), d, a) <= 1e-8
            assert check_index_invariance(AlgorithmSpec.ridge(1.0), d, a) <= 1e-8


def test_criterion_6_closed_forms_match_independent_oracles():
    with _criterion(6, "oracle agreement: descent vs ols 1e-6; ridge stationarity 1e-9"):
        for i in range(20):
            seed = SeedState(42, f"acceptance6/ols/{i}")
            gen = seed.derive("dims").generator()
            p = int(gen.integers(1, 9))
            d, _ = synth_dataset(seed.derive("data"), 4 * p + 2, p,
                                 1 + int(gen.integers(0, 3)), noise_sd=1.0)
            oracle = ols_oracle_fit(d, 100000)
            assert rel_distance(oracle.coef, ols_fit(d).coef) <= 1e-6
        for i in range(20):
            seed = SeedState(42, f"acceptance6/ridge/{i}")
            gen = seed.derive("dims").generator()
            p = int(gen.integers(2, 9))
            n = p + 3 if i % 2 == 0 else max(1, p - 2)  # half rank-deficient
            d, _ = synth_dataset(seed.derive("data"), n, p,
                                 1 + int(gen.integers(0, 3)), noise_sd=1.0)
            lam = 10.0 ** ((i % 5) - 3)
            coef = ridge_fit(d, lam).coef
            stationarity = (d.x.T @ d.x + lam * np.eye(p)) @ coef - d.x.T @ d.y
            assert np.linalg.norm(stationarity) <= 1e-9 * np.linalg.norm(d.x.T @ d.y)


def test_criterion_7_analytic_gradients_match_central_differences():
    with _criterion(7, "analytic gradients match central differences to 1e-5"):
        h = 1e-6
        d, _ = synth_dataset(SeedState(42, "acceptance7/data"), 7, 3, 2, noise_sd=1.0)
        gen = SeedState(42, "acceptance7/points").generator()
        lam = 0.9

        def central_difference(objective, point):
            numeric = np.zeros_like(point)
            for r in range(point.shape[0]):
                for c in range(point.shape[1]):
                    bump = np.zeros_like(point)
                    bump[r, c] = h
                    numeric[r, c] = (
                        objective(LinearModel(point + bump))
                        - objective(LinearModel(point - bump))
                    ) / (2.0 * h)
            return numeric

        for _ in range(10):
            point = gen.standard_normal((3, 2))
            analytic = sse_gradient(d, LinearModel(point))
            numeric = central_difference(lambda m: sse(d, m), point)
            assert np.max(np.abs(numeric - analytic)) <= 1e-5 * (
                1.0 + np.max(np.abs(analytic))
            )
        for _ in range(10):
            point = gen.standard_normal((3, 2))
            analytic = ridge_objective_gradient(d, LinearModel(point), lam)
            numeric = central_difference(lambda m: ridge_objective(d, m, lam), point)
            assert np.max(np.abs(numeric - analytic)) <= 1e-5 * (
                1.0 + np.max(np.abs(analytic))
            )


def test_criterion_8_audit_reports_are_byte_deterministic(tmp_path, monkeypatch):
    with _criterion(8, "seeded audit runs, forked or not, emit byte-identical strict JSON"):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        serial = tmp_path / "serial.json"
        argv = ["audit", "--seed", "42", "--format", "json"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert len(first.read_bytes()) > 0
        strict_json(first.read_text(encoding="utf-8"))
        # on one CPU, as under `taskset -c 0`, no worker is forked
        monkeypatch.setattr(natreg.naturality, "_usable_cpus", lambda: 1)
        assert main(argv + ["--out", str(serial)]) == 0
        assert serial.read_bytes() == first.read_bytes()
