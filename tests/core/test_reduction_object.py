"""Reduction objects: the accumulation data structure."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.reduction_object import DenseReductionObject, HashReductionObject
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
    obj = DenseReductionObject(3, 1, "sum", key_lo=10)
    obj.insert_many(np.array([9, 10, 12, 13]), np.ones(4))
    np.testing.assert_array_equal(obj.values[:, 0], [1, 0, 1])
    assert obj.n_dropped == 2
    assert obj.n_inserts == 4
    obj.insert(5, 1.0)  # scalar path also filters
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


@given(
    st.lists(st.tuples(st.integers(0, 5), st.floats(-10, 10, allow_nan=False)), max_size=40)
)
def test_hash_object_matches_dense(pairs):
    """The hash-table variant is a semantic oracle for the dense one."""
    dense = DenseReductionObject(6, 1, "sum")
    hashed = HashReductionObject("sum", 1)
    for k, v in pairs:
        dense.insert(k, v)
        hashed.insert(k, v)
    for k in range(6):
        expect = dense.values[k, 0]
        got = hashed.get(k)
        if got is None:
            assert expect == 0.0
        else:
            assert got[0] == pytest.approx(expect, rel=1e-9, abs=1e-9)


def test_hash_object_arbitrary_keys():
    obj = HashReductionObject("max", 1)
    obj.insert(("word", 3), 5.0)
    obj.insert(("word", 3), 9.0)
    assert obj.get(("word", 3))[0] == 9.0
    assert ("word", 3) in obj
    assert len(obj) == 1
    assert obj.get("missing") is None


def test_hash_object_merge():
    a, b = HashReductionObject("sum", 1), HashReductionObject("sum", 1)
    a.insert("x", 1.0)
    b.insert("x", 2.0)
    b.insert("y", 3.0)
    a.merge(b)
    assert a.get("x")[0] == 3.0
    assert a.get("y")[0] == 3.0
    with pytest.raises(ValidationError):
        a.merge(HashReductionObject("min", 1))


def test_hash_object_insert_many():
    obj = HashReductionObject("sum", 2)
    obj.insert_many(["a", "b", "a"], np.arange(6.0).reshape(3, 2))
    np.testing.assert_array_equal(obj.get("a"), [4.0, 6.0])


# -- vectorized hash insert_many ----------------------------------------------


@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.floats(-50, 50, allow_nan=False)), max_size=50
    ),
    st.sampled_from(["sum", "min", "max"]),
)
def test_hash_insert_many_matches_sequential(pairs, op):
    """The grouped (np.unique) batch path must agree with one-at-a-time
    insertion — exactly for min/max, to rounding for sums."""
    batch = HashReductionObject(op, 1)
    seq = HashReductionObject(op, 1)
    if pairs:
        batch.insert_many(
            np.array([k for k, _ in pairs]), np.array([v for _, v in pairs])
        )
    for k, v in pairs:
        seq.insert(k, v)
    assert set(batch.keys()) == set(seq.keys())
    for k in seq.keys():
        if op == "sum":
            assert batch.get(k)[0] == pytest.approx(seq.get(k)[0], rel=1e-12, abs=1e-12)
        else:
            assert batch.get(k)[0] == seq.get(k)[0]


def test_hash_insert_many_duplicate_keys_min_max():
    """Duplicate keys inside one batch combine with the op, and fold once
    against any pre-existing table entry."""
    obj = HashReductionObject("min", 1)
    obj.insert(3, 0.5)
    obj.insert_many(np.array([3, 3, 7, 7]), np.array([2.0, -1.0, 4.0, 9.0]))
    assert obj.get(3)[0] == -1.0
    assert obj.get(7)[0] == 4.0

    obj = HashReductionObject("max", 1)
    obj.insert_many(np.array([1, 1, 1]), np.array([-5.0, 8.0, 2.0]))
    assert obj.get(1)[0] == 8.0
    assert obj.n_inserts == 3


def test_hash_insert_many_object_keys_fall_back():
    """Tuple / mixed / ragged key sequences take the per-element path."""
    obj = HashReductionObject("sum", 1)
    obj.insert_many([("a", 1), ("b", 2), ("a", 1)], np.array([1.0, 2.0, 3.0]))
    assert obj.get(("a", 1))[0] == 4.0
    assert obj.get(("b", 2))[0] == 2.0
    # Ragged mix of tuples and scalars must not crash the array probe.
    obj.insert_many([("a", 1), "b"], np.array([1.0, 5.0]))
    assert obj.get(("a", 1))[0] == 5.0
    assert obj.get("b")[0] == 5.0


# -- scatter plans (plan_scatter + planned insert_many) -----------------------


def _planned_vs_plain(op, num_keys, key_lo, keys, width=1, rounds=2, seed=0):
    """Feed the same batches through a planned and an unplanned object."""
    rng = np.random.default_rng(seed)
    planned = DenseReductionObject(num_keys, width, op, key_lo=key_lo)
    plain = DenseReductionObject(num_keys, width, op, key_lo=key_lo)
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
    planned, plain, plan = _planned_vs_plain("sum", 90, 0, keys, width=width)
    assert plan.take_idx is None and plan.bins is not None
    np.testing.assert_array_equal(planned.values, plain.values)
    assert planned.n_inserts == plain.n_inserts
    assert planned.n_dropped == plain.n_dropped > 0


def test_planned_sum_take_mode_bit_identical():
    """Sparse ownership (a device object fed the full edge array): the plan
    gathers its own values first, then bincounts exactly its range."""
    rng = np.random.default_rng(2)
    keys = rng.integers(0, 100, size=400)
    planned, plain, plan = _planned_vs_plain("sum", 10, 40, keys, width=2)
    assert plan.take_idx is not None  # 2 * n_valid < n_keys
    np.testing.assert_array_equal(planned.values, plain.values)
    assert planned.n_dropped == plain.n_dropped


def test_planned_sum_no_valid_keys():
    keys = np.arange(50, 60)
    planned, plain, plan = _planned_vs_plain("sum", 5, 0, keys)
    assert plan.take_idx is not None and len(plan.take_idx) == 0
    np.testing.assert_array_equal(planned.values, plain.values)
    assert planned.n_dropped == 2 * len(keys)


@pytest.mark.parametrize("op", ["min", "max"])
def test_planned_min_max_csr_reduceat(op):
    """Min/max use the CSR layout (stable sort + reduceat) — exact, because
    the ops are order-insensitive."""
    rng = np.random.default_rng(3)
    keys = rng.integers(-5, 25, size=300)  # unsorted, duplicates, out-of-range
    planned, plain, plan = _planned_vs_plain(op, 20, 0, keys)
    assert plan.order is not None and plan.seg_starts is not None
    np.testing.assert_array_equal(planned.values, plain.values)
    assert planned.n_dropped == plain.n_dropped > 0


def test_planned_generic_op_matches_unplanned():
    """Ops without a fast path (prod) still apply through the plan's
    filtered-index ufunc.at."""
    rng = np.random.default_rng(4)
    keys = rng.integers(0, 12, size=60)
    planned, plain, _ = _planned_vs_plain("prod", 8, 0, keys)
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
