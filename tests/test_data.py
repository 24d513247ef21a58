"""Dataset container, CSV parsing/serialization, and the synthetic sampler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from natreg.data import Dataset, dataset_from_csv, dataset_to_csv, synth_dataset
from natreg.errors import ContractViolation, EmptyDataset, ParseError
from natreg.linalg import SeedState, numerical_rank


def test_dataset_shapes_and_properties():
    d = Dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [[1.0], [2.0], [3.0]])
    assert (d.n_examples, d.p, d.q) == (3, 2, 1)


def test_dataset_rejects_row_mismatch():
    with pytest.raises(ContractViolation):
        Dataset([[1.0]], [[1.0], [2.0]])


def test_dataset_rejects_non_finite():
    with pytest.raises(ContractViolation):
        Dataset([[np.nan]], [[1.0]])


def test_dataset_rejects_empty():
    with pytest.raises(ContractViolation):
        Dataset(np.zeros((0, 1)), np.zeros((0, 1)))


def test_dataset_arrays_are_frozen():
    d = Dataset([[1.0]], [[2.0]])
    with pytest.raises(ValueError):
        d.x[0, 0] = 5.0
    source = np.array([[1.0]])
    d2 = Dataset(source, [[2.0]])
    source[0, 0] = 9.0  # the dataset copied, so this cannot leak in
    assert d2.x[0, 0] == 1.0


def test_csv_single_record():
    d = dataset_from_csv("1,0,1", p=2, q=1)
    np.testing.assert_array_equal(d.x, [[1.0, 0.0]])
    np.testing.assert_array_equal(d.y, [[1.0]])


def test_csv_header_is_skipped():
    d = dataset_from_csv("x1,x2,y\n1,0,1\n0,1,2", p=2, q=1)
    assert d.n_examples == 2
    np.testing.assert_array_equal(d.y, [[1.0], [2.0]])


def test_csv_numeric_first_record_is_data():
    d = dataset_from_csv("1,2\n3,4", p=1, q=1)
    assert d.n_examples == 2


def test_csv_wrong_field_count_reports_record():
    with pytest.raises(ParseError) as excinfo:
        dataset_from_csv("1,2\n3", p=1, q=1)
    assert excinfo.value.record == 2


def test_csv_non_numeric_field_reports_record():
    with pytest.raises(ParseError) as excinfo:
        dataset_from_csv("1,2\n3,oops\n5,6", p=1, q=1)
    assert excinfo.value.record == 2


def test_csv_header_only_is_empty():
    with pytest.raises(EmptyDataset):
        dataset_from_csv("x,y", p=1, q=1)
    with pytest.raises(EmptyDataset):
        dataset_from_csv("", p=1, q=1)


def test_csv_blank_lines_are_ignored():
    d = dataset_from_csv("\n1,2\n\n3,4\n", p=1, q=1)
    assert d.n_examples == 2


def test_csv_rejects_bad_dims():
    with pytest.raises(ContractViolation):
        dataset_from_csv("1,2", p=0, q=2)


def test_csv_round_trip_is_bit_exact():
    tricky = Dataset(
        [[0.1, -1e300], [1e-300, 3.141592653589793], [2.0 / 3.0, -0.0]],
        [[1.0000000000000002], [-5e-324], [123456789.12345679]],
    )
    back = dataset_from_csv(dataset_to_csv(tricky), p=2, q=1)
    np.testing.assert_array_equal(back.x, tricky.x)
    np.testing.assert_array_equal(back.y, tricky.y)


def test_csv_round_trip_on_sampled_data():
    for i in range(25):
        d, _ = synth_dataset(SeedState(300 + i, "roundtrip"), 7, 3, 2, noise_sd=1.0)
        back = dataset_from_csv(dataset_to_csv(d), p=3, q=2)
        np.testing.assert_array_equal(back.x, d.x)
        np.testing.assert_array_equal(back.y, d.y)


@given(
    st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_csv_round_trip_any_finite_doubles(rows):
    d = Dataset([[a] for a, _ in rows], [[b] for _, b in rows])
    back = dataset_from_csv(dataset_to_csv(d), p=1, q=1)
    np.testing.assert_array_equal(back.x, d.x)
    np.testing.assert_array_equal(back.y, d.y)


def test_synth_dataset_is_deterministic():
    first, coef_a = synth_dataset(SeedState(11, "synth"), 9, 4, 2, noise_sd=0.5)
    second, coef_b = synth_dataset(SeedState(11, "synth"), 9, 4, 2, noise_sd=0.5)
    np.testing.assert_array_equal(first.x, second.x)
    np.testing.assert_array_equal(first.y, second.y)
    np.testing.assert_array_equal(coef_a, coef_b)


def test_synth_dataset_noiseless_targets_in_column_space():
    d, coef = synth_dataset(SeedState(12, "clean"), 10, 3, 2, noise_sd=0.0)
    np.testing.assert_array_equal(d.y, d.x @ coef)


def test_synth_dataset_noise_perturbs_targets():
    clean, coef = synth_dataset(SeedState(13, "n"), 10, 3, 1, noise_sd=0.0)
    noisy, _ = synth_dataset(SeedState(13, "n"), 10, 3, 1, noise_sd=1.0)
    np.testing.assert_array_equal(clean.x, noisy.x)
    assert not np.array_equal(clean.y, noisy.y)


def test_synth_dataset_full_rank_when_enough_examples():
    for i in range(50):
        seed = SeedState(400 + i, "rank")
        p = 1 + i % 8
        d, _ = synth_dataset(seed, p + 1 + i % 5, p, 1, noise_sd=1.0)
        assert numerical_rank(d.x) == p


def test_synth_dataset_rejects_bad_arguments():
    with pytest.raises(ContractViolation):
        synth_dataset(SeedState(1), 0, 1, 1)
    with pytest.raises(ContractViolation):
        synth_dataset(SeedState(1), 1, 1, 1, noise_sd=-0.5)
