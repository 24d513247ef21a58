"""Closed-form fits against frozen values and independent oracles."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from oracles import (
    OracleDiverged,
    ols_oracle_fit,
    ridge_objective,
    ridge_objective_gradient,
    sse,
    sse_gradient,
)

import natreg.data
import natreg.regression
from natreg.data import Dataset, csv_block_factors, dataset_from_csv, synth_dataset
from natreg.errors import ContractViolation, InvalidHyperparameter, RankDeficient
from natreg.exact import counterexample_ols_shear, counterexample_ridge_scaling
from natreg.linalg import SeedState, numerical_rank, rel_distance
from natreg.regression import (
    AlgorithmKind,
    AlgorithmSpec,
    LinearModel,
    fit_block_factors,
    fit_systems,
    min_norm_ols_fit,
    ols_fit,
    ridge_fit,
)


def _full_rank_fixture(i: int, n_mult: int = 4) -> Dataset:
    seed = SeedState(500 + i, "fixture")
    p = 1 + i % 8
    q = 1 + i % 3
    d, _ = synth_dataset(seed, n_mult * p + 2, p, q, noise_sd=1.0)
    return d


def test_sse_known_value():
    d = Dataset([[1.0]], [[1.0]])
    assert sse(d, LinearModel([[0.0]])) == 1.0


def test_sse_shape_mismatch():
    d = Dataset([[1.0, 2.0]], [[1.0]])
    with pytest.raises(ContractViolation):
        sse(d, LinearModel([[1.0]]))


def test_ridge_objective_known_value():
    d = Dataset([[1.0]], [[1.0]])
    assert ridge_objective(d, LinearModel([[0.5]]), 1.0) == 0.5


def test_ridge_objective_rejects_negative_lambda():
    d = Dataset([[1.0]], [[1.0]])
    with pytest.raises(ContractViolation):
        ridge_objective(d, LinearModel([[0.5]]), -1.0)
    with pytest.raises(ContractViolation):
        ridge_objective_gradient(d, LinearModel([[0.5]]), -1.0)


def test_ols_exact_fit():
    d = Dataset([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [[1.0], [2.0], [3.0]])
    model = ols_fit(d)
    np.testing.assert_allclose(model.coef, [[1.0], [2.0]], rtol=0, atol=1e-12)
    assert sse(d, model) <= 1e-20


def test_ols_mean_fit_matches_oracle():
    d = Dataset([[1.0], [1.0]], [[0.0], [2.0]])
    model = ols_fit(d)
    np.testing.assert_allclose(model.coef, [[1.0]], rtol=0, atol=1e-14)
    oracle = ols_oracle_fit(d, 100000)
    np.testing.assert_allclose(oracle.coef, model.coef, rtol=0, atol=1e-10)


def test_ols_rejects_rank_deficient_and_reports_rank():
    with pytest.raises(RankDeficient) as excinfo:
        ols_fit(Dataset([[1.0, 0.0]], [[1.0]]))
    assert excinfo.value.rank == 1
    assert excinfo.value.required == 2
    with pytest.raises(RankDeficient):
        ols_fit(Dataset([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]], [[1.0], [1.0], [1.0]]))


def test_ols_normal_equation_residual():
    for i in range(50):
        d = _full_rank_fixture(i)
        coef = ols_fit(d).coef
        lhs = d.x.T @ (d.x @ coef - d.y)
        assert np.linalg.norm(lhs) <= 1e-9 * np.linalg.norm(d.x.T @ d.y)


def test_ols_perturbation_optimality():
    d = _full_rank_fixture(3)
    model = ols_fit(d)
    base = sse(d, model)
    gen = SeedState(77, "perturb").generator()
    for _ in range(100):
        delta = gen.standard_normal(model.coef.shape)
        delta *= 0.1 / np.linalg.norm(delta)
        assert sse(d, LinearModel(model.coef + delta)) >= base


@pytest.mark.parametrize("kappa", [1e5, 1e7, 1e9])
def test_ols_and_min_norm_accuracy_tracks_conditioning(kappa):
    # x = U diag(s) V' with log-spaced singular values and a consistent target:
    # a backward-stable solve recovers coef to about kappa * eps, while the
    # normal equations lose accuracy like kappa^2 * eps.
    gen = SeedState(int(math.log10(kappa)), "conditioning").generator()
    n, p = 200, 6
    u, _ = np.linalg.qr(gen.standard_normal((n, p)))
    v, _ = np.linalg.qr(gen.standard_normal((p, p)))
    s = np.logspace(0.0, -math.log10(kappa), p)
    x = (u * s) @ v.T
    coef = gen.standard_normal((p, 1))
    d = Dataset(x, x @ coef)
    bound = 100.0 * kappa * np.finfo(np.float64).eps
    for fit in (ols_fit, min_norm_ols_fit):
        err = np.linalg.norm(fit(d).coef - coef) / np.linalg.norm(coef)
        assert err <= bound, (fit.__name__, err, bound)


def test_ridge_accuracy_tracks_conditioning_on_a_scaled_ladder():
    # x = U diag(s) V' with s from 1e6 down to 0.1 (kappa = 1e7) and lambda = 1.
    # Solving x'x + lambda I loses accuracy like s_max^2 * eps / lambda (about
    # 1e-4 here); the thin SVD stays within a small multiple of kappa * eps.
    gen = SeedState(7, "ridge-ladder").generator()
    n, p, kappa, lam = 2000, 6, 1e7, 1.0
    u, _ = np.linalg.qr(gen.standard_normal((n, p)))
    v, _ = np.linalg.qr(gen.standard_normal((p, p)))
    s = 1e6 * np.logspace(0.0, -math.log10(kappa), p)
    x = (u * s) @ v.T
    y = gen.standard_normal((n, 2))
    exact = v @ ((s / (s * s + lam))[:, None] * (u.T @ y))
    err = np.linalg.norm(ridge_fit(Dataset(x, y), lam).coef - exact) / np.linalg.norm(exact)
    assert err <= 10.0 * kappa * np.finfo(np.float64).eps


def test_ridge_is_finite_where_its_normal_equations_are_singular():
    # x'x + lambda I rounds to the singular [[1, 1], [1, 1]] (or twice that);
    # the SVD route still returns the closed form V diag(s / (s^2 + lambda)) U'y
    lam = 1e-300
    coef = ridge_fit(Dataset([[1.0, 1.0]], [[1.0]]), lam).coef
    np.testing.assert_allclose(coef, [[0.5], [0.5]], rtol=1e-15, atol=0)
    x = np.array([[1.0, 1.0], [1.0, 1.0]])
    y = np.array([[1.0], [2.0]])
    coef = ridge_fit(Dataset(x, y), lam).coef
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    assert np.isfinite(coef).all()
    np.testing.assert_allclose(coef, vt.T @ ((s / (s * s + lam))[:, None] * (u.T @ y)), rtol=1e-12)


def test_ridge_known_values():
    np.testing.assert_allclose(
        ridge_fit(Dataset([[1.0]], [[1.0]]), 1.0).coef, [[0.5]], rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(
        ridge_fit(Dataset([[2.0]], [[1.0]]), 1.0).coef, [[0.4]], rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(
        ridge_fit(Dataset([[1.0, 0.0]], [[1.0]]), 1.0).coef,
        [[0.5], [0.0]],
        rtol=0,
        atol=1e-15,
    )


def test_ridge_rejects_non_positive_lambda():
    d = Dataset([[1.0]], [[1.0]])
    for lam in (0.0, -1.0, math.inf, math.nan, True):
        with pytest.raises(InvalidHyperparameter):
            ridge_fit(d, lam)


def test_ridge_minimum_beats_grid_neighbors():
    d = Dataset([[2.0]], [[1.0]])
    fitted = ridge_fit(d, 1.0)
    best = ridge_objective(d, fitted, 1.0)
    for value in np.linspace(-1.0, 1.5, 201):
        assert best <= ridge_objective(d, LinearModel([[value]]), 1.0) + 1e-12


def test_ridge_stationarity_including_rank_deficient():
    for i in range(20):
        seed = SeedState(600 + i, "ridge")
        p = 2 + i % 7
        n = p + 3 if i % 2 == 0 else max(1, p - 2)  # odd cases are rank-deficient
        d, _ = synth_dataset(seed, n, p, 1 + i % 3, noise_sd=1.0)
        lam = 10.0 ** ((i % 5) - 3)
        coef = ridge_fit(d, lam).coef
        lhs = (d.x.T @ d.x + lam * np.eye(p)) @ coef - d.x.T @ d.y
        assert np.linalg.norm(lhs) <= 1e-9 * np.linalg.norm(d.x.T @ d.y)


def test_ridge_approaches_ols_as_lambda_vanishes():
    for i in range(10):
        d = _full_rank_fixture(i)
        ols_coef = ols_fit(d).coef
        sigma_max = float(np.linalg.svd(d.x.T @ d.x, compute_uv=False)[0])
        lams = sigma_max * np.geomspace(1e-2, 1e-10, 9)
        distances = [
            rel_distance(ridge_fit(d, lam).coef, ols_coef) for lam in lams
        ]
        assert distances[-1] <= 1e-6
        for closer, farther in zip(distances[1:], distances[:-1]):
            assert closer <= farther + 1e-15


def test_min_norm_known_value():
    np.testing.assert_allclose(
        min_norm_ols_fit(Dataset([[1.0, 0.0]], [[1.0]])).coef,
        [[1.0], [0.0]],
        rtol=0,
        atol=1e-15,
    )


def test_min_norm_matches_ols_on_full_rank():
    for i in range(10):
        d = _full_rank_fixture(i)
        assert rel_distance(min_norm_ols_fit(d).coef, ols_fit(d).coef) <= 1e-10


def test_min_norm_brute_force_along_null_direction():
    # On x = [1, 0] every fit [1, a] is exact; the norm is smallest at a = 0.
    d = Dataset([[1.0, 0.0]], [[1.0]])
    fitted = min_norm_ols_fit(d)
    for a in np.linspace(-2.0, 2.0, 81):
        candidate = LinearModel([[1.0], [a]])
        assert sse(d, candidate) <= 1e-20
        assert np.linalg.norm(fitted.coef) <= np.linalg.norm(candidate.coef)


def test_min_norm_null_space_additions_only_grow_the_norm():
    for i in range(10):
        seed = SeedState(700 + i, "null")
        p = 4 + i % 4
        n = p - 2  # strictly underdetermined
        d, _ = synth_dataset(seed, n, p, 2, noise_sd=1.0)
        fitted = min_norm_ols_fit(d)
        base_sse = sse(d, fitted)
        _, _, vt = np.linalg.svd(d.x)
        null_vector = vt[-1]  # x @ v = 0 up to roundoff
        direction = np.outer(null_vector, np.ones(d.q))
        delta = 0.1 * direction / np.linalg.norm(direction)
        shifted = LinearModel(fitted.coef + delta)
        assert abs(sse(d, shifted) - base_sse) <= 1e-10 * (1.0 + base_sse)
        assert np.linalg.norm(shifted.coef) > np.linalg.norm(fitted.coef)


def test_min_norm_is_small_lambda_ridge_limit():
    # Convergence is O(lambda / sigma_min^2) on rank-deficient data, so the
    # bound here is looser than the full-rank continuity bound.
    d, _ = synth_dataset(SeedState(71, "limit"), 3, 5, 2, noise_sd=1.0)
    fitted = min_norm_ols_fit(d)
    near = ridge_fit(d, 1e-10)
    assert rel_distance(near.coef, fitted.coef) <= 1e-4


def _within_4_ulp(coef: np.ndarray, exact: tuple[tuple[float], ...]) -> bool:
    """Whether each coefficient is within 4 ulp of the largest exact one: an
    SVD fit's error is normwise, so a coordinate 1e-6 of the largest can be
    hundreds of its own ulp off (k = 1e3 below)."""
    scale = math.ulp(max(abs(v) for (v,) in exact))
    return coef.shape == (len(exact), 1) and all(
        abs(a - e) <= 4 * scale for a, (e,) in zip(coef.ravel().tolist(), exact)
    )


@pytest.mark.parametrize("k", [1.0, 0.5, -3.0, 10.0, 1e-3, 1e3])
def test_min_norm_fits_the_shear_witness_data_as_the_exact_witness_does(k):
    witness = counterexample_ols_shear(k)
    spec = AlgorithmSpec.min_norm_ols()
    assert _within_4_ulp(spec.fit(Dataset([[1.0, 0.0]], [[1.0]])).coef, witness.fit)
    assert _within_4_ulp(spec.fit(Dataset([[1.0, k]], [[1.0]])).coef, witness.fit_transformed)


@pytest.mark.parametrize(
    "b, c, lam",
    [(1.0, 2.0, 1.0), (2.0, 3.0, 0.5), (-1.0, 0.5, 2.0), (0.25, -2.0, 1e-3), (1e200, 2.0, 1e300)],
)
def test_ridge_fits_the_scaling_witness_data_as_the_exact_witness_does(b, c, lam):
    witness = counterexample_ridge_scaling(b, c, lam)
    spec = AlgorithmSpec.ridge(lam)
    assert _within_4_ulp(spec.fit(Dataset([[b]], [[1.0]])).coef, ((witness.fit,),))
    assert _within_4_ulp(spec.fit(Dataset([[b * c]], [[1.0]])).coef, ((witness.fit_transformed,),))


def test_oracle_matches_closed_form():
    for i in range(5):
        d = _full_rank_fixture(i)
        oracle = ols_oracle_fit(d, 100000)
        assert rel_distance(oracle.coef, ols_fit(d).coef) <= 1e-6


def test_oracle_detects_divergence():
    d = Dataset([[1.0], [2.0]], [[1.0], [2.0]])
    sigma_max = float(np.linalg.svd(d.x.T @ d.x, compute_uv=False)[0])
    with pytest.raises(OracleDiverged):
        ols_oracle_fit(d, 100, step_size=2.5 / sigma_max)


def test_oracle_rejects_bad_arguments():
    d = Dataset([[1.0]], [[1.0]])
    with pytest.raises(ContractViolation):
        ols_oracle_fit(d, 0)
    with pytest.raises(ContractViolation):
        ols_oracle_fit(d, 10, step_size=-1.0)


def test_gradients_match_central_differences():
    d, _ = synth_dataset(SeedState(81, "grad"), 6, 3, 2, noise_sd=1.0)
    gen = SeedState(82, "grad-points").generator()
    h = 1e-6
    for _ in range(3):
        point = gen.standard_normal((3, 2))
        model = LinearModel(point)
        for gradient, objective in (
            (sse_gradient(d, model), lambda m: sse(d, m)),
            (
                ridge_objective_gradient(d, model, 0.7),
                lambda m: ridge_objective(d, m, 0.7),
            ),
        ):
            numeric = np.zeros_like(point)
            for r in range(point.shape[0]):
                for c in range(point.shape[1]):
                    bump = np.zeros_like(point)
                    bump[r, c] = h
                    numeric[r, c] = (
                        objective(LinearModel(point + bump))
                        - objective(LinearModel(point - bump))
                    ) / (2.0 * h)
            assert np.max(np.abs(numeric - gradient)) <= 1e-5 * (
                1.0 + np.max(np.abs(gradient))
            )


def test_algorithm_spec_validation():
    with pytest.raises(InvalidHyperparameter):
        AlgorithmSpec(AlgorithmKind.RIDGE)
    for lam in (0.0, math.inf, math.nan, True):
        with pytest.raises(InvalidHyperparameter):
            AlgorithmSpec(AlgorithmKind.RIDGE, lam)
    with pytest.raises(InvalidHyperparameter):
        AlgorithmSpec.ridge(math.inf)
    with pytest.raises(InvalidHyperparameter):
        AlgorithmSpec(AlgorithmKind.OLS, 1.0)
    assert AlgorithmSpec.ridge(2.0).lam == 2.0
    for lam in (np.float32(0.5), np.int64(2)):
        stored = AlgorithmSpec.ridge(lam).lam
        assert type(stored) is float and stored == float(lam)


def test_algorithm_spec_fit_dispatch():
    d = Dataset([[1.0, 0.0]], [[1.0]])
    np.testing.assert_allclose(
        AlgorithmSpec.ridge(1.0).fit(d).coef, [[0.5], [0.0]], rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(
        AlgorithmSpec.min_norm_ols().fit(d).coef, [[1.0], [0.0]], rtol=0, atol=1e-15
    )
    with pytest.raises(RankDeficient):
        AlgorithmSpec.ols().fit(d)


def test_algorithm_spec_labels():
    assert AlgorithmSpec.ols().label() == "ols"
    assert AlgorithmSpec.ridge(1.0).label() == "ridge(lambda=1)"
    assert AlgorithmSpec.min_norm_ols().label() == "minnorm-ols"


def test_linear_model_is_frozen():
    model = LinearModel([[1.0]])
    with pytest.raises(ValueError):
        model.coef[0, 0] = 2.0


def _rank_edge_cases():
    """(name, x): rank-deficient, underdetermined, zero and extreme-scale x."""
    gen = SeedState(3, "rank-edges").generator()
    a = gen.standard_normal((10, 3))
    wide = gen.standard_normal((3, 5))
    full = gen.standard_normal((10, 4))
    return [
        ("duplicated column", np.column_stack([a, a[:, 1]])),
        ("N < p", wide),
        ("all zero", np.zeros((4, 3))),
        ("full rank", full),
        ("full rank x 1e200", full * 1e200),
        ("full rank x 1e-200", full * 1e-200),
        ("duplicated column x 1e200", np.column_stack([a, a[:, 1]]) * 1e200),
        ("N < p x 1e-200", wide * 1e-200),
    ]


@pytest.mark.parametrize("name, x", _rank_edge_cases(), ids=[c[0] for c in _rank_edge_cases()])
def test_rank_cutoff_matches_numerical_rank_and_lstsq_at_the_edges(name, x):
    y = SeedState(4, name).generator().standard_normal((x.shape[0], 2))
    d = Dataset(x, y)
    rank = numerical_rank(x)
    if rank < d.p:
        with pytest.raises(RankDeficient) as excinfo:
            ols_fit(d)
        assert (excinfo.value.rank, excinfo.value.required) == (rank, d.p)
    else:
        assert ols_fit(d).coef.tobytes() == min_norm_ols_fit(d).coef.tobytes()
    coef = min_norm_ols_fit(d).coef
    if rank == 0:
        assert (coef == 0.0).all()
        return
    eps = np.finfo(np.float64).eps
    expected = np.linalg.lstsq(x, y, rcond=max(x.shape) * eps)[0]
    s = np.linalg.svd(x, compute_uv=False)
    kappa = s[0] / s[rank - 1]
    scale = np.abs(expected).max()  # so that norms neither overflow nor underflow
    err = np.linalg.norm(coef / scale - expected / scale)
    assert err <= 10.0 * kappa * eps * np.linalg.norm(expected / scale), err


def test_fit_systems_matches_the_one_at_a_time_fits_bit_for_bit(monkeypatch):
    # pairs share their x object two at a time, and each shape repeats with a
    # new x, so a factorization reused for the wrong x shows in the numbers
    specs = (
        AlgorithmSpec.ols(),
        AlgorithmSpec.ridge(1.0),
        AlgorithmSpec.min_norm_ols(),
        AlgorithmSpec.ridge(1e-3),
    )
    gen = SeedState(31, "fit-systems").generator()
    xs = []
    for n, p in ((12, 3), (12, 3), (5, 5), (5, 5), (3, 6), (3, 6), (40, 8), (9, 1)):
        xs += [gen.standard_normal((n, p)) for _ in range(3)]
    xs += [x for _, x in _rank_edge_cases()]  # rank-deficient, zero and extreme-scale x
    systems = [
        (x, gen.standard_normal((x.shape[0], q))) for i, x in enumerate(xs) for q in (1 + i % 3, 2)
    ]
    factored = []
    real = natreg.regression._factor
    monkeypatch.setattr(
        natreg.regression, "_factor", lambda *args: factored.append(args[1]) or real(*args)
    )
    fits = fit_systems(specs, systems)
    assert len(fits) == len(systems)
    assert len(factored) == len(xs)  # the two pairs of each x share its one factorization
    monkeypatch.undo()
    deficient = 0
    for (x, y), fit in zip(systems, fits):
        assert len(fit) == len(specs)
        for spec, coef in zip(specs, fit):
            try:
                expected = spec.fit(Dataset(x, y)).coef
            except RankDeficient:
                assert spec.kind is AlgorithmKind.OLS
                assert coef is None
                deficient += 1
                continue
            assert coef.shape == expected.shape
            assert coef.tobytes() == expected.tobytes(), (spec, x.shape)
    assert deficient >= 8  # both pairs of each rank-deficient x; the other specs fit them
    # an OLS fit that overflows is an error; one outside its domain is only None
    tiny, huge = np.array([[1e-300]]), np.array([[1e300]])
    message = "^the fitted coefficients overflow float64$"
    with pytest.raises(ContractViolation, match=message):
        fit_systems(specs, [(tiny, huge)])
    with warnings.catch_warnings(), pytest.raises(ContractViolation, match=message):
        warnings.simplefilter("error")  # no numpy overflow warning before the error
        AlgorithmSpec.ols().fit(Dataset(tiny, huge))
    [(ols, ridge)] = fit_systems(specs[:2], [(np.array([[1e-300, 0.0]]), huge)])
    assert ols is None and np.isfinite(ridge).all()


_SPECS = (AlgorithmSpec.ols(), AlgorithmSpec.ridge(0.5), AlgorithmSpec.min_norm_ols())


def _csv(x: np.ndarray, y: np.ndarray, blank_after: int = 0) -> str:
    """x and y as CSV records at 17 digits under a header, with 800 blank
    lines after record ``blank_after``."""
    rows = [",".join(format(v, ".17g") for v in row) for row in np.hstack([x, y])]
    rows[blank_after] += "\n" * 800
    return ",".join(["c"] * (x.shape[1] + y.shape[1])) + "\n" + "\n".join(rows) + "\n"


def _factor_blocks(monkeypatch, content: str, p: int, q: int, step: int, cpus: int):
    """:func:`csv_block_factors` on blocks of a ``step``-byte grid, dealt to ``cpus`` processes."""
    monkeypatch.setattr(natreg.data, "MIN_PART_BYTES", step)
    monkeypatch.setattr(natreg.data, "_usable_cpus", lambda: cpus)
    return csv_block_factors(content, p, q)


@pytest.mark.parametrize("kappa", [1e3, 1e7])
def test_block_factor_fits_match_the_svd_fits(kappa, monkeypatch):
    gen = SeedState(int(math.log10(kappa)), "blocks").generator()
    n, p, q = 150, 5, 2
    u, _ = np.linalg.qr(gen.standard_normal((n, p)))
    v, _ = np.linalg.qr(gen.standard_normal((p, p)))
    x = (u * np.logspace(0.0, -math.log10(kappa), p)) @ v.T
    content = _csv(x, x @ gen.standard_normal((p, q)), blank_after=40)
    d = dataset_from_csv(content, p, q)
    sizes = []
    real = natreg.data._block_factor
    monkeypatch.setattr(
        natreg.data, "_block_factor", lambda rows, **kw: sizes.append(len(rows)) or real(rows, **kw)
    )
    bound = 20.0 * kappa * np.finfo(np.float64).eps
    # 330-byte blocks of two records, fewer than p + q, and some of only blank
    # lines; then 3 KB blocks of about 20 records
    for step in (330, 3000):
        factors, n_examples = _factor_blocks(monkeypatch, content, p, q, step, cpus=1)
        assert n_examples == n
        forked, _ = _factor_blocks(monkeypatch, content, p, q, step, cpus=3)
        assert forked.tobytes() == factors.tobytes()
        for spec in _SPECS:
            model, sse_value, objective = fit_block_factors(spec, factors, n, p)
            expected = spec.fit(d)
            assert rel_distance(model.coef, expected.coef) <= bound, (spec, step)
            if spec.kind is AlgorithmKind.RIDGE:
                assert math.isclose(sse_value, sse(d, expected), rel_tol=1e-9)
                assert math.isclose(objective, ridge_objective(d, expected, spec.lam), rel_tol=1e-9)
            else:
                assert sse_value == objective <= 1e-20
    assert {0, 2} <= set(sizes) and max(sizes) > p + q


def test_block_factor_fits_with_fewer_records_than_predictors(monkeypatch):
    x = np.array([[1.0, 2.0, 0.0, -1.0, 3.0], [0.5, 0.0, 4.0, 1.0, 1.0], [2.0, 2.0, 2.0, 0.0, 1.0]])
    y = np.array([[1.0], [-2.0], [0.25]])
    factors, n_examples = _factor_blocks(monkeypatch, _csv(x, y), 5, 1, step=1, cpus=2)
    assert (n_examples, factors.shape) == (3, (3, 6))  # one row of R per one-record block
    d = Dataset(x, y)
    for spec in _SPECS[1:]:
        model, sse_value, _ = fit_block_factors(spec, factors, n_examples, 5)
        np.testing.assert_allclose(model.coef, spec.fit(d).coef, rtol=0, atol=1e-14)
    with pytest.raises(RankDeficient) as excinfo:
        fit_block_factors(_SPECS[0], factors, n_examples, 5)
    assert (excinfo.value.rank, excinfo.value.required) == (3, 5)


@pytest.mark.parametrize("spec", _SPECS, ids=lambda spec: spec.kind.value)
def test_fits_whose_data_norm_overflows_raise(spec):
    # each value fits float64; the norms of both columns, and s_max, do not
    x = np.array([[1e308], [-1.5e308], [1.2e308]])
    y = np.array([[1.7e308], [1e308], [-1.6e308]])
    message = "the data are too large: their norm overflows float64"
    with pytest.raises(ContractViolation, match=message):
        spec.fit(Dataset(x, y))
    with pytest.raises(ContractViolation, match=message):
        fit_systems((spec,), [(x, y)])
    factors, n_examples = csv_block_factors(_csv(x, y), 1, 1)
    with pytest.raises(ContractViolation, match=message):
        fit_block_factors(spec, factors, n_examples, 1)
