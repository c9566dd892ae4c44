"""Reduction operator registry."""

import numpy as np
import pytest

from repro.comm.ops import get_reduce_op
from repro.util.errors import ValidationError


@pytest.mark.parametrize(
    "name,a,b,expected",
    [
        ("sum", 2, 3, 5),
        ("max", 2, 3, 3),
    ],
)
def test_named_ops_scalars(name, a, b, expected):
    assert get_reduce_op(name)(a, b) == expected


def test_named_ops_arrays_elementwise():
    op = get_reduce_op("max")
    np.testing.assert_array_equal(
        op(np.array([1, 5, 2]), np.array([4, 0, 2])), np.array([4, 5, 2])
    )


def test_callable_passthrough():
    fn = lambda a, b: a - b  # noqa: E731
    assert get_reduce_op(fn) is fn


def test_unknown_name():
    with pytest.raises(ValidationError, match="sum"):
        get_reduce_op("average")
