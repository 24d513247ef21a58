"""Morphism sampling, structural constraints, and actions on data and models."""

from __future__ import annotations

import math

import numpy as np
import pytest

import natreg.morphisms
from natreg.data import Dataset, synth_dataset
from natreg.errors import ContractViolation, SamplingFailed
from natreg.linalg import SeedState, condition_estimate
from natreg.morphisms import (
    Axis,
    CategoryKind,
    Morphism,
    act_on_index,
    act_on_predictors,
    act_on_targets,
    model_action_target,
    model_precompose_predictor,
    sample_morphism,
    verify_morphism,
)
from natreg.regression import LinearModel

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
    moved = act_on_index(d, morphism)
    stacked = np.hstack([d.x, d.y])
    moved_stacked = np.hstack([moved.x, moved.y])
    order = np.lexsort(stacked.T)
    moved_order = np.lexsort(moved_stacked.T)
    np.testing.assert_array_equal(stacked[order], moved_stacked[moved_order])


def test_discrete_samples_are_identity():
    morphism = sample_morphism(CategoryKind.DISCRETE, Axis.TARGET, 4, 4, SeedState(6, "id"))
    np.testing.assert_array_equal(morphism.matrix, np.eye(4))
    d, _ = synth_dataset(SeedState(61, "id"), 5, 3, 4, noise_sd=1.0)
    np.testing.assert_array_equal(act_on_targets(d, morphism).y, d.y)


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


def test_act_on_predictors_applies_right_multiplication():
    d = Dataset([[1.0, 0.0]], [[1.0]])
    shear = Morphism(CategoryKind.FINVEC_ISO, Axis.PREDICTOR, [[1.0, 2.0], [0.0, 1.0]])
    np.testing.assert_array_equal(act_on_predictors(d, shear).x, [[1.0, 2.0]])
    np.testing.assert_array_equal(act_on_predictors(d, shear).y, d.y)


def test_act_on_targets_applies_right_multiplication():
    d = Dataset([[1.0]], [[2.0, 3.0]])
    eta = Morphism(CategoryKind.FINVEC, Axis.TARGET, [[1.0], [1.0]])
    np.testing.assert_array_equal(act_on_targets(d, eta).y, [[5.0]])


def test_act_on_index_applies_left_multiplication():
    d = Dataset([[1.0]], [[2.0]])
    # duplicate the single example with weight 1/sqrt(2): an isometry
    w = 1.0 / math.sqrt(2.0)
    dup = Morphism(CategoryKind.EUC_MONO, Axis.INDEX, [[w], [w]])
    moved = act_on_index(d, dup)
    np.testing.assert_allclose(moved.x, [[w], [w]], rtol=0, atol=1e-16)
    np.testing.assert_allclose(moved.y, [[2.0 * w], [2.0 * w]], rtol=0, atol=1e-16)


def test_actions_check_axis_and_dims():
    d = Dataset([[1.0, 0.0]], [[1.0]])
    eta = Morphism(CategoryKind.FINVEC, Axis.TARGET, [[1.0]])
    with pytest.raises(ContractViolation):
        act_on_predictors(d, eta)
    wrong_dim = Morphism(CategoryKind.FINVEC, Axis.PREDICTOR, [[1.0]])
    with pytest.raises(ContractViolation):
        act_on_predictors(d, wrong_dim)
    with pytest.raises(ContractViolation):
        act_on_index(d, eta)


def test_model_action_target_known_value():
    model = LinearModel([[1.0], [2.0]])
    eta = Morphism(CategoryKind.FINVEC, Axis.TARGET, [[1.0, 0.0]])
    np.testing.assert_array_equal(
        model_action_target(model, eta).coef, [[1.0, 0.0], [2.0, 0.0]]
    )


def test_model_precompose_predictor_known_value():
    model = LinearModel([[1.0], [2.0]])
    xi = Morphism(CategoryKind.FINVEC, Axis.PREDICTOR, [[1.0, 1.0]])
    np.testing.assert_array_equal(model_precompose_predictor(xi, model).coef, [[3.0]])
    with pytest.raises(ContractViolation):
        model_precompose_predictor(
            Morphism(CategoryKind.FINVEC, Axis.PREDICTOR, [[1.0]]), model
        )


def test_identity_morphisms_act_exactly():
    d, _ = synth_dataset(SeedState(62, "exact"), 6, 3, 2, noise_sd=1.0)
    for axis, dim in ((Axis.PREDICTOR, 3), (Axis.TARGET, 2), (Axis.INDEX, 6)):
        identity = sample_morphism(CategoryKind.DISCRETE, axis, dim, dim, SeedState(1))
        acted = {
            Axis.PREDICTOR: act_on_predictors,
            Axis.TARGET: act_on_targets,
            Axis.INDEX: act_on_index,
        }[axis](d, identity)
        np.testing.assert_array_equal(acted.x, d.x)
        np.testing.assert_array_equal(acted.y, d.y)


def test_dataset_actions_are_functorial():
    # Acting twice equals acting once with the composite, to roundoff.
    for i in range(50):
        seed = SeedState(8000 + i, "functor")
        gen = seed.derive("dims").generator()
        p, q, n = (int(gen.integers(1, 7)) for _ in range(3))
        d, _ = synth_dataset(seed.derive("data"), n + 7, p, q, noise_sd=1.0)

        # predictor axis: right multiplication composes left-to-right
        f1 = sample_morphism(CategoryKind.FINVEC, Axis.PREDICTOR, p, 4, seed.derive("p1"))
        f2 = sample_morphism(CategoryKind.FINVEC, Axis.PREDICTOR, 4, 3, seed.derive("p2"))
        composite = Morphism(CategoryKind.FINVEC, Axis.PREDICTOR, f1.matrix @ f2.matrix)
        twice = act_on_predictors(act_on_predictors(d, f1), f2)
        once = act_on_predictors(d, composite)
        assert np.linalg.norm(twice.x - once.x) <= 1e-12 * (1.0 + np.linalg.norm(once.x))

        # target axis
        t1 = sample_morphism(CategoryKind.FINVEC, Axis.TARGET, q, 5, seed.derive("t1"))
        t2 = sample_morphism(CategoryKind.FINVEC, Axis.TARGET, 5, 2, seed.derive("t2"))
        t_composite = Morphism(CategoryKind.FINVEC, Axis.TARGET, t1.matrix @ t2.matrix)
        twice = act_on_targets(act_on_targets(d, t1), t2)
        once = act_on_targets(d, t_composite)
        assert np.linalg.norm(twice.y - once.y) <= 1e-12 * (1.0 + np.linalg.norm(once.y))

        # index axis: left multiplication composes right-to-left
        i1 = sample_morphism(CategoryKind.FINVEC, Axis.INDEX, n + 7, 6, seed.derive("i1"))
        i2 = sample_morphism(CategoryKind.FINVEC, Axis.INDEX, 6, 4, seed.derive("i2"))
        i_composite = Morphism(CategoryKind.FINVEC, Axis.INDEX, i2.matrix @ i1.matrix)
        twice = act_on_index(act_on_index(d, i1), i2)
        once = act_on_index(d, i_composite)
        assert np.linalg.norm(twice.x - once.x) <= 1e-12 * (1.0 + np.linalg.norm(once.x))
        assert np.linalg.norm(twice.y - once.y) <= 1e-12 * (1.0 + np.linalg.norm(once.y))


def test_model_actions_are_functorial():
    for i in range(50):
        seed = SeedState(9000 + i, "model-functor")
        gen = seed.derive("dims").generator()
        p, q = int(gen.integers(1, 7)), int(gen.integers(1, 7))
        coef = seed.derive("coef").generator().standard_normal((p, q))
        model = LinearModel(coef)

        t1 = sample_morphism(CategoryKind.FINVEC, Axis.TARGET, q, 5, seed.derive("t1"))
        t2 = sample_morphism(CategoryKind.FINVEC, Axis.TARGET, 5, 3, seed.derive("t2"))
        composite = Morphism(CategoryKind.FINVEC, Axis.TARGET, t1.matrix @ t2.matrix)
        twice = model_action_target(model_action_target(model, t1), t2)
        once = model_action_target(model, composite)
        assert np.linalg.norm(twice.coef - once.coef) <= 1e-12 * (
            1.0 + np.linalg.norm(once.coef)
        )

        x1 = sample_morphism(CategoryKind.FINVEC, Axis.PREDICTOR, 6, 4, seed.derive("x1"))
        x2 = sample_morphism(CategoryKind.FINVEC, Axis.PREDICTOR, 4, p, seed.derive("x2"))
        pre_composite = Morphism(CategoryKind.FINVEC, Axis.PREDICTOR, x1.matrix @ x2.matrix)
        twice = model_precompose_predictor(x1, model_precompose_predictor(x2, model))
        once = model_precompose_predictor(pre_composite, model)
        assert np.linalg.norm(twice.coef - once.coef) <= 1e-12 * (
            1.0 + np.linalg.norm(once.coef)
        )
