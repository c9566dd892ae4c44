"""Cartesian topology helpers (MPI_Dims_create semantics)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.topology import coords_of, dims_create, rank_of
from repro.util.errors import ValidationError


@pytest.mark.parametrize(
    "nprocs,ndims,expected",
    [
        (12, 2, (4, 3)),
        (8, 3, (2, 2, 2)),
        (7, 2, (7, 1)),
        (1, 3, (1, 1, 1)),
        (384, 2, (24, 16)),
        (384, 3, (8, 8, 6)),
    ],
)
def test_dims_create_balanced(nprocs, ndims, expected):
    assert dims_create(nprocs, ndims) == expected


def test_dims_create_bad_args():
    with pytest.raises(ValidationError):
        dims_create(0, 2)
    with pytest.raises(ValidationError):
        dims_create(4, 0)


@given(st.integers(1, 512), st.integers(1, 4))
def test_dims_create_product_and_order(nprocs, ndims):
    dims = dims_create(nprocs, ndims)
    assert math.prod(dims) == nprocs
    assert list(dims) == sorted(dims, reverse=True)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
def test_coords_rank_roundtrip(a, b, c):
    dims = (a, b, c)
    total = a * b * c
    for rank in range(total):
        coords = coords_of(rank, dims)
        assert all(0 <= x < d for x, d in zip(coords, dims))
        assert rank_of(coords, dims) == rank


def test_coords_of_out_of_range():
    with pytest.raises(ValidationError):
        coords_of(6, (2, 3))
    with pytest.raises(ValidationError):
        rank_of((2, 0), (2, 3))
    with pytest.raises(ValidationError):
        rank_of((0,), (2, 3))
