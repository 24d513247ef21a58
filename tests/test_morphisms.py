"""Morphism sampling, the draws' conventions, and structural constraints."""

from __future__ import annotations

import math

import numpy as np
import pytest

import natreg.morphisms
from natreg.data import synth_dataset
from natreg.errors import ContractViolation, SamplingFailed
from natreg.linalg import SeedState, condition_estimate
from natreg.morphisms import (
    Axis,
    CategoryKind,
    Morphism,
    draw_morphism_matrix,
    sample_morphism,
    verify_morphism,
)

ALL_KINDS = list(CategoryKind)


def _dims_for(kind: CategoryKind, axis: Axis, gen) -> tuple[int, int]:
    source = int(gen.integers(1, 9))
    if kind is CategoryKind.EUC_MONO:
        return source, source + int(gen.integers(0, 6))
    if kind is CategoryKind.FINVEC:
        return source, int(gen.integers(1, 14))
    return source, source


def test_morphism_shape_convention_per_axis():
    # predictor and target matrices are source x target, index ones target x source
    for axis in (Axis.PREDICTOR, Axis.TARGET):
        m = Morphism(CategoryKind.FINVEC, axis, np.ones((2, 3)))
        assert (m.source_dim, m.target_dim) == (2, 3)
    m = Morphism(CategoryKind.FINVEC, Axis.INDEX, np.ones((3, 2)))
    assert (m.source_dim, m.target_dim) == (2, 3)


def test_morphism_dimension_rules():
    with pytest.raises(ContractViolation):
        Morphism(CategoryKind.EUC, Axis.PREDICTOR, np.ones((2, 3)))
    with pytest.raises(ContractViolation):
        Morphism(CategoryKind.EUC_MONO, Axis.PREDICTOR, np.ones((3, 2)))
    with pytest.raises(ContractViolation):
        Morphism(CategoryKind.FINVEC, Axis.PREDICTOR, np.ones((0, 1)))


def test_sampled_morphisms_satisfy_their_constraints():
    # 1000 seeded draws spread over every kind and axis stay within 1e-10.
    kinds = ALL_KINDS
    axes = list(Axis)
    for i in range(1000):
        seed = SeedState(3000 + i, "sample")
        gen = seed.derive("dims").generator()
        kind = kinds[i % len(kinds)]
        axis = axes[(i // len(kinds)) % len(axes)]
        source, target = _dims_for(kind, axis, gen)
        morphism = sample_morphism(kind, axis, source, target, seed.derive("m"))
        assert verify_morphism(morphism) <= 1e-10


def test_sample_morphism_is_deterministic():
    a = sample_morphism(CategoryKind.EUC, Axis.PREDICTOR, 3, 3, SeedState(5, "d"))
    b = sample_morphism(CategoryKind.EUC, Axis.PREDICTOR, 3, 3, SeedState(5, "d"))
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_finvec_iso_samples_are_condition_bounded():
    for i in range(200):
        morphism = sample_morphism(
            CategoryKind.FINVEC_ISO, Axis.PREDICTOR, 1 + i % 8, 1 + i % 8,
            SeedState(4000 + i, "iso"),
        )
        assert condition_estimate(morphism.matrix) <= 1e4


def test_finvec_iso_sampler_gives_up_on_impossible_bound(monkeypatch):
    monkeypatch.setattr(natreg.morphisms, "DEFAULT_KAPPA_MAX", 1.0 + 1e-9)
    with pytest.raises(SamplingFailed):
        sample_morphism(CategoryKind.FINVEC_ISO, Axis.PREDICTOR, 3, 3, SeedState(1, "cap"))


def test_set_iso_samples_are_exact_permutations():
    for i in range(50):
        morphism = sample_morphism(
            CategoryKind.SET_ISO, Axis.INDEX, 6, 6, SeedState(5000 + i, "perm")
        )
        m = morphism.matrix
        assert np.array_equal(np.sort(m, axis=1)[:, -1], np.ones(6))
        assert np.array_equal(m.sum(axis=0), np.ones(6))
        assert np.array_equal(m.sum(axis=1), np.ones(6))
        assert verify_morphism(morphism) == 0.0


def test_set_iso_index_action_permutes_row_multiset_exactly():
    d, _ = synth_dataset(SeedState(51, "rows"), 7, 3, 2, noise_sd=1.0)
    morphism = sample_morphism(CategoryKind.SET_ISO, Axis.INDEX, 7, 7, SeedState(52, "p"))
    stacked = np.hstack([d.x, d.y])
    moved_stacked = np.hstack([morphism.matrix @ d.x, morphism.matrix @ d.y])
    order = np.lexsort(stacked.T)
    moved_order = np.lexsort(moved_stacked.T)
    np.testing.assert_array_equal(stacked[order], moved_stacked[moved_order])


def test_discrete_samples_are_identity():
    morphism = sample_morphism(CategoryKind.DISCRETE, Axis.TARGET, 4, 4, SeedState(6, "id"))
    np.testing.assert_array_equal(morphism.matrix, np.eye(4))
    d, _ = synth_dataset(SeedState(61, "id"), 5, 3, 4, noise_sd=1.0)
    np.testing.assert_array_equal(d.y @ morphism.matrix, d.y)


def test_euc_mono_frames_preserve_inner_products():
    for i in range(100):
        seed = SeedState(7000 + i, "frame")
        source = 1 + i % 6
        target = source + i % 5
        predictor = sample_morphism(CategoryKind.EUC_MONO, Axis.PREDICTOR, source, target, seed)
        np.testing.assert_allclose(
            predictor.matrix @ predictor.matrix.T, np.eye(source), rtol=0, atol=1e-12
        )
        index = sample_morphism(CategoryKind.EUC_MONO, Axis.INDEX, source, target, seed)
        np.testing.assert_allclose(
            index.matrix.T @ index.matrix, np.eye(source), rtol=0, atol=1e-12
        )


def test_orthonormal_draws_are_the_qr_factor_with_a_positive_r_diagonal():
    # The draw is Q of the QR of the Gaussian G that opens its stream, with
    # its column signs chosen so that R = Q' G has a positive diagonal.  Q is
    # target x source: euc_mono off the index axis draws its transpose.
    for i in range(60):
        seed = SeedState(7500 + i, "qr-sign")
        source = 1 + i % 6
        for kind in (CategoryKind.EUC, CategoryKind.EUC_MONO):
            target = source + (i % 4 if kind is CategoryKind.EUC_MONO else 0)
            for axis in Axis:
                m, kappa = draw_morphism_matrix(kind, axis, source, target, seed.generator())
                g = seed.generator().standard_normal((target, source))
                q = m.T if kind is CategoryKind.EUC_MONO and axis is not Axis.INDEX else m
                r = q.T @ g
                assert kappa is None and q.shape == (target, source)
                np.testing.assert_allclose(np.tril(r, -1), 0.0, rtol=0, atol=1e-12)
                assert np.all(np.diagonal(r) > 0.0)


def test_sample_morphism_rejects_bad_dims():
    with pytest.raises(ContractViolation):
        sample_morphism(CategoryKind.EUC, Axis.PREDICTOR, 2, 3, SeedState(1))
    with pytest.raises(ContractViolation):
        sample_morphism(CategoryKind.EUC_MONO, Axis.PREDICTOR, 3, 2, SeedState(1))
    with pytest.raises(ContractViolation):
        sample_morphism(CategoryKind.FINVEC, Axis.PREDICTOR, 0, 2, SeedState(1))


def test_verify_morphism_flags_broken_constraints():
    crooked = Morphism(CategoryKind.EUC, Axis.PREDICTOR, [[1.0, 0.7], [0.0, 1.0]])
    assert verify_morphism(crooked) > 0.1
    singular = Morphism(CategoryKind.FINVEC_ISO, Axis.PREDICTOR, [[1.0, 2.0], [2.0, 4.0]])
    assert verify_morphism(singular) == math.inf
    anything = Morphism(CategoryKind.FINVEC, Axis.PREDICTOR, [[5.0, -3.0]])
    assert verify_morphism(anything) == 0.0
