"""Reduction objects: the accumulation data structure."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.reduction_object import DenseReductionObject
from repro.util.errors import ValidationError


def test_initialized_to_identity():
    assert (DenseReductionObject(4, 2, "sum").values == 0).all()
    assert (DenseReductionObject(4, 1, "min").values == np.inf).all()
    assert (DenseReductionObject(4, 1, "max").values == -np.inf).all()
    assert (DenseReductionObject(4, 1, "prod").values == 1).all()


def test_scalar_insert():
    obj = DenseReductionObject(3, 1, "sum")
    obj.insert(1, 5.0)
    obj.insert(1, 2.0)
    assert obj.values[1, 0] == 7.0
    assert obj.n_inserts == 2


def test_insert_many_with_duplicate_keys():
    obj = DenseReductionObject(4, 1, "sum")
    obj.insert_many(np.array([0, 1, 1, 3, 1]), np.ones(5))
    np.testing.assert_array_equal(obj.values[:, 0], [1, 3, 0, 1])


def test_insert_many_multiwidth():
    obj = DenseReductionObject(2, 3, "sum")
    obj.insert_many(np.array([0, 0, 1]), np.arange(9.0).reshape(3, 3))
    np.testing.assert_array_equal(obj.values[0], [3, 5, 7])
    np.testing.assert_array_equal(obj.values[1], [6, 7, 8])


def test_min_max_ops():
    obj = DenseReductionObject(2, 1, "min")
    obj.insert_many(np.array([0, 0, 1]), np.array([5.0, 2.0, -1.0]))
    np.testing.assert_array_equal(obj.values[:, 0], [2.0, -1.0])

    obj = DenseReductionObject(2, 1, "max")
    obj.insert_many(np.array([0, 0]), np.array([5.0, 2.0]))
    assert obj.values[0, 0] == 5.0


def test_key_range_filter_drops_outside():
    obj = DenseReductionObject(3, 1, "sum")
    obj.insert_many(np.array([-1, 0, 2, 3]), np.ones(4))
    np.testing.assert_array_equal(obj.values[:, 0], [1, 0, 1])
    assert obj.n_dropped == 2
    assert obj.n_inserts == 4
    obj.insert(-5, 1.0)  # scalar path also filters
    assert obj.n_dropped == 3


def test_merge_combines_elementwise():
    a = DenseReductionObject(3, 1, "sum")
    b = DenseReductionObject(3, 1, "sum")
    a.insert_many(np.array([0, 1]), np.array([1.0, 2.0]))
    b.insert_many(np.array([1, 2]), np.array([10.0, 20.0]))
    a.merge(b)
    np.testing.assert_array_equal(a.values[:, 0], [1, 12, 20])


def test_merge_requires_matching_config():
    a = DenseReductionObject(3, 1, "sum")
    with pytest.raises(ValidationError):
        a.merge(DenseReductionObject(4, 1, "sum"))
    with pytest.raises(ValidationError):
        a.merge(DenseReductionObject(3, 2, "sum"))
    with pytest.raises(ValidationError):
        a.merge(DenseReductionObject(3, 1, "min"))


def test_values_shape_validation():
    obj = DenseReductionObject(3, 2, "sum")
    with pytest.raises(ValidationError):
        obj.insert_many(np.array([0]), np.ones((1, 3)))


def test_invalid_construction():
    with pytest.raises(ValidationError):
        DenseReductionObject(0, 1)
    with pytest.raises(ValidationError):
        DenseReductionObject(1, 0)
    with pytest.raises(ValidationError):
        DenseReductionObject(1, 1, "avg")


@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.floats(-100, 100, allow_nan=False)), max_size=60
    ),
    st.sampled_from(["sum", "min", "max"]),
)
def test_insert_many_equals_sequential_inserts(pairs, op):
    """Batch scatter must equal one-at-a-time insertion (associativity)."""
    batch = DenseReductionObject(8, 1, op)
    seq = DenseReductionObject(8, 1, op)
    if pairs:
        keys = np.array([k for k, _ in pairs])
        vals = np.array([v for _, v in pairs])
        batch.insert_many(keys, vals)
        for k, v in pairs:
            seq.insert(k, v)
    np.testing.assert_allclose(batch.values, seq.values, rtol=1e-12)


# -- scatter plans (plan_scatter + planned insert_many) -----------------------


def _planned_vs_plain(op, num_keys, keys, width=1, rounds=2, seed=0):
    """Feed the same batches through a planned and an unplanned object."""
    rng = np.random.default_rng(seed)
    planned = DenseReductionObject(num_keys, width, op)
    plain = DenseReductionObject(num_keys, width, op)
    plan = planned.plan_scatter(keys)
    for r in range(rounds):
        vals = rng.standard_normal((len(keys), width))
        planned.insert_many(keys, vals)
        plain.insert_many(keys, vals)
    return planned, plain, plan


@pytest.mark.parametrize("width", [1, 3])
def test_planned_sum_trash_bin_mode_bit_identical(width):
    """Dense ownership: one bincount with a trailing trash bin.  Planned and
    unplanned scatters must agree bit for bit (same input-order bincount)."""
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 100, size=400)  # ~90% in range -> trash-bin mode
    planned, plain, plan = _planned_vs_plain("sum", 90, keys, width=width)
    assert plan.take_idx is None and plan.bins is not None
    np.testing.assert_array_equal(planned.values, plain.values)
    assert planned.n_inserts == plain.n_inserts
    assert planned.n_dropped == plain.n_dropped > 0


def test_planned_sum_take_mode_bit_identical():
    """Sparse ownership (a device object fed the full edge array): the plan
    gathers its own values first, then bincounts exactly its range."""
    rng = np.random.default_rng(2)
    keys = rng.integers(-40, 60, size=400)  # 10% in [0, 10)
    planned, plain, plan = _planned_vs_plain("sum", 10, keys, width=2)
    assert plan.take_idx is not None  # 2 * n_valid < n_keys
    np.testing.assert_array_equal(planned.values, plain.values)
    assert planned.n_dropped == plain.n_dropped


def test_planned_sum_no_valid_keys():
    keys = np.arange(50, 60)
    planned, plain, plan = _planned_vs_plain("sum", 5, keys)
    assert plan.take_idx is not None and len(plan.take_idx) == 0
    np.testing.assert_array_equal(planned.values, plain.values)
    assert planned.n_dropped == 2 * len(keys)


@pytest.mark.parametrize("op", ["min", "max"])
def test_planned_min_max_csr_reduceat(op):
    """Min/max use the CSR layout (stable sort + reduceat) — exact, because
    the ops are order-insensitive."""
    rng = np.random.default_rng(3)
    keys = rng.integers(-5, 25, size=300)  # unsorted, duplicates, out-of-range
    planned, plain, plan = _planned_vs_plain(op, 20, keys)
    assert plan.order is not None and plan.seg_starts is not None
    np.testing.assert_array_equal(planned.values, plain.values)
    assert planned.n_dropped == plain.n_dropped > 0


def test_planned_generic_op_matches_unplanned():
    """Ops without a fast path (prod) still apply through the plan's
    filtered-index ufunc.at."""
    rng = np.random.default_rng(4)
    keys = rng.integers(0, 12, size=60)
    planned, plain, _ = _planned_vs_plain("prod", 8, keys)
    np.testing.assert_allclose(planned.values, plain.values, rtol=1e-12)


def test_reset_keeps_plans_and_buffers():
    """Pooled objects reset between steps; plans depend only on the key
    layout so a post-reset planned insert is identical to a fresh object's."""
    keys = np.array([0, 2, 2, 5, 9])  # 9 out of range for num_keys=8
    obj = DenseReductionObject(8, 1, "sum")
    obj.plan_scatter(keys)
    buf = obj.values
    obj.insert_many(keys, np.ones(5))
    obj.reset()
    assert obj.values is buf and obj._plans  # same storage, plans survive
    assert obj.n_inserts == obj.n_dropped == 0
    assert (obj.values == 0).all()
    obj.insert_many(keys, np.ones(5))
    fresh = DenseReductionObject(8, 1, "sum")
    fresh.insert_many(keys, np.ones(5))
    np.testing.assert_array_equal(obj.values, fresh.values)
    assert obj.n_dropped == fresh.n_dropped == 1
