"""Linear-algebra kernels: frozen values, error contracts, and invariants."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import natreg
from natreg.errors import ContractViolation, NotPositiveDefinite, RankDeficient
from natreg.linalg import (
    SeedState,
    condition_estimate,
    numerical_rank,
    qr_thin,
    rel_distance,
    solve_spd,
)


def sample_gaussian(rows: int, cols: int, seed: SeedState) -> np.ndarray:
    """Standard normal matrix; a pure function of (rows, cols, seed)."""
    if rows < 1 or cols < 1:
        raise ContractViolation(f"dimensions must be positive, got {rows}x{cols}")
    return seed.generator().standard_normal((rows, cols))


def test_solve_spd_known_system():
    f = solve_spd([[2.0, 1.0], [1.0, 2.0]], [[3.0], [3.0]])
    np.testing.assert_allclose(f, [[1.0], [1.0]], rtol=0, atol=1e-14)
    # independent check: multiply back
    np.testing.assert_allclose(np.array([[2.0, 1.0], [1.0, 2.0]]) @ f, [[3.0], [3.0]])


def test_solve_spd_rejects_asymmetric():
    with pytest.raises(ContractViolation):
        solve_spd([[1.0, 0.5], [0.0, 1.0]], [[1.0], [1.0]])


def test_solve_spd_rejects_indefinite():
    # eigenvalues 3 and -1
    with pytest.raises(NotPositiveDefinite):
        solve_spd([[1.0, 2.0], [2.0, 1.0]], [[1.0], [1.0]])


def test_solve_spd_rejects_bad_shapes():
    with pytest.raises(ContractViolation):
        solve_spd(np.ones((2, 3)), np.ones((2, 1)))
    with pytest.raises(ContractViolation):
        solve_spd(np.eye(2), np.ones((3, 1)))


def test_solve_spd_backward_error_under_conditioned_fixtures():
    # SPD matrices with condition up to 1e4 built from an orthogonal frame
    # and a log-spaced spectrum; the residual must stay near roundoff.
    for i in range(200):
        seed = SeedState(1000 + i, "spd")
        gen = seed.generator()
        n = int(gen.integers(1, 9))
        kappa = 10.0 ** gen.uniform(0.0, 4.0)
        q, _ = qr_thin(sample_gaussian(n, n, seed.derive("q")))
        spectrum = np.geomspace(1.0, kappa, n)
        a = q @ np.diag(spectrum) @ q.T
        a = (a + a.T) / 2.0
        b = sample_gaussian(n, int(gen.integers(1, 4)), seed.derive("b"))
        f = solve_spd(a, b)
        assert np.linalg.norm(a @ f - b) <= 1e-10 * np.linalg.norm(b)


def test_qr_thin_known_factorization():
    q, r = qr_thin([[3.0], [4.0]])
    np.testing.assert_allclose(q, [[0.6], [0.8]], rtol=0, atol=1e-15)
    np.testing.assert_allclose(r, [[5.0]], rtol=0, atol=1e-15)


def test_qr_thin_sign_convention_gives_unique_factor():
    a = np.array([[-3.0], [-4.0]])
    q, r = qr_thin(a)
    assert r[0, 0] > 0
    np.testing.assert_allclose(q @ r, a, rtol=0, atol=1e-15)


def test_qr_thin_orthonormality_and_reconstruction():
    for i in range(1000):
        seed = SeedState(2000 + i, "qr")
        gen = seed.generator()
        rows = int(gen.integers(1, 21))
        cols = int(gen.integers(1, rows + 1))
        a = sample_gaussian(rows, cols, seed.derive("a"))
        q, r = qr_thin(a)
        assert np.linalg.norm(q.T @ q - np.eye(cols)) <= 1e-12
        assert np.linalg.norm(q @ r - a) <= 1e-12 * np.linalg.norm(a)
        assert np.all(np.diagonal(r) > 0)


def test_qr_thin_rejects_rank_deficient():
    with pytest.raises(RankDeficient) as excinfo:
        qr_thin([[1.0, 2.0], [2.0, 4.0]])
    assert excinfo.value.rank == 1


def test_qr_thin_rejects_wide_input():
    with pytest.raises(ContractViolation):
        qr_thin(np.ones((1, 2)))


def test_numerical_rank_known_values():
    assert numerical_rank([[1.0, 0.0]]) == 1
    assert numerical_rank([[1.0, 2.0], [2.0, 4.0]]) == 1
    assert numerical_rank(np.eye(5)) == 5
    assert numerical_rank(np.zeros((3, 2))) == 0
    assert numerical_rank([[1.0, 0.0], [0.0, 1e-20]]) == 1


def test_numerical_rank_default_cutoff():
    a = np.diag([1.0, 1e-12])
    assert numerical_rank(a) == 2


def test_condition_estimate_shear():
    # singular values of [[1,1],[0,1]] come from the eigenvalues (3 +- sqrt 5)/2
    # of its Gram matrix, giving condition (3 + sqrt 5)/2 exactly.
    expected = (3.0 + math.sqrt(5.0)) / 2.0
    assert condition_estimate([[1.0, 1.0], [0.0, 1.0]]) == pytest.approx(expected, abs=1e-12)
    gram_eigs = np.linalg.eigvalsh(np.array([[1.0, 1.0], [1.0, 2.0]]))
    assert math.sqrt(gram_eigs[1] / gram_eigs[0]) == pytest.approx(expected, abs=1e-12)


def test_condition_estimate_edges():
    assert condition_estimate(np.eye(4)) == pytest.approx(1.0)
    assert condition_estimate([[1.0, 2.0], [2.0, 4.0]]) == math.inf
    with pytest.raises(ContractViolation):
        condition_estimate(np.ones((2, 3)))


def test_rel_distance_known_values():
    assert rel_distance([[1.0]], [[0.0]]) == 1.0
    assert rel_distance([[0.0, 0.5]], [[0.0, 0.0]]) == 0.5


def test_rel_distance_is_exactly_zero_on_equal_input():
    a = sample_gaussian(4, 3, SeedState(7, "rd"))
    assert rel_distance(a, a) == 0.0


def test_rel_distance_normalizes_by_second_argument():
    a = np.full((1, 1), 3.0)
    b = np.full((1, 1), 1.0)
    assert rel_distance(a, b) == pytest.approx(1.0)  # 2 / (1 + 1)
    assert rel_distance(b, a) == pytest.approx(0.5)  # 2 / (1 + 3)


def test_rel_distance_shape_mismatch():
    with pytest.raises(ContractViolation):
        rel_distance(np.ones((1, 2)), np.ones((2, 1)))


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=8,
    )
)
def test_rel_distance_self_and_nonnegative(values):
    a = np.array([values])
    assert rel_distance(a, a) == 0.0
    assert rel_distance(a, np.zeros_like(a)) >= 0.0


def test_sample_gaussian_is_pure():
    seed = SeedState(42, "pure")
    first = sample_gaussian(3, 2, seed)
    second = sample_gaussian(3, 2, seed)
    np.testing.assert_array_equal(first, second)


def test_sample_gaussian_streams_are_independent():
    seed = SeedState(42)
    a = sample_gaussian(2, 2, seed.derive("a"))
    b = sample_gaussian(2, 2, seed.derive("b"))
    assert not np.array_equal(a, b)


def test_sample_gaussian_seed_changes_output():
    a = sample_gaussian(2, 2, SeedState(1, "x"))
    b = sample_gaussian(2, 2, SeedState(2, "x"))
    assert not np.array_equal(a, b)


def test_sample_gaussian_rejects_bad_dims():
    with pytest.raises(ContractViolation):
        sample_gaussian(0, 1, SeedState(1))


def test_sample_gaussian_moments():
    values = np.array(
        [sample_gaussian(1, 1, SeedState(42, f"moment/{i}"))[0, 0] for i in range(10000)]
    )
    assert abs(values.mean()) <= 0.05
    assert abs(values.var() - 1.0) <= 0.1


def test_seed_state_derive_composes_labels():
    seed = SeedState(9, "root")
    derived = seed.derive("a", 3)
    assert derived == SeedState(9, "root/a/3")
    assert SeedState(9).derive("a") == SeedState(9, "a")


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(natreg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import natreg, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
