"""Cartesian communicator."""

import pytest

from repro.cluster.topology import dims_create
from repro.comm.cart import CartComm
from repro.comm.constants import PROC_NULL
from repro.util.errors import ConfigurationError
from tests.conftest import run_spmd


def test_auto_dims_from_ndims():
    """The stencil runtime's path: ``dims_create`` picks the grid for an
    axis count, and the view places each rank on it."""

    def prog(ctx):
        cart = CartComm(ctx.comm, dims=dims_create(ctx.size, 2))
        return cart.dims, cart.coords

    values = run_spmd(prog, nodes=6).values
    assert values[0][0] == (3, 2)
    assert values[5][1] == (2, 1)


def test_explicit_dims_validated():
    def prog(ctx):
        CartComm(ctx.comm, dims=(2, 2))

    with pytest.raises(ConfigurationError):
        run_spmd(prog, nodes=6)


def test_shift_non_periodic_borders():
    def prog(ctx):
        cart = CartComm(ctx.comm, dims=(4,))
        return cart.shift(0, 1)

    values = run_spmd(prog, nodes=4).values
    assert values[0] == (PROC_NULL, 1)
    assert values[1] == (0, 2)
    assert values[3] == (2, PROC_NULL)


def test_shift_axis_bounds():
    def prog(ctx):
        cart = CartComm(ctx.comm, dims=(2,))
        cart.shift(1, 1)

    with pytest.raises(ConfigurationError):
        run_spmd(prog, nodes=2)


def test_neighbors_2d():
    def prog(ctx):
        cart = CartComm(ctx.comm, dims=(2, 2))
        return cart.coords, cart.shift(0), cart.shift(1)

    values = run_spmd(prog, nodes=4).values
    assert values[0] == ((0, 0), (PROC_NULL, 2), (PROC_NULL, 1))
    assert values[3] == ((1, 1), (1, PROC_NULL), (2, PROC_NULL))


def test_halo_exchange_through_cart():
    """End-to-end: shifts drive a correct line exchange; the border rank's
    receive from ``PROC_NULL`` is a no-op."""

    def prog(ctx):
        cart = CartComm(ctx.comm, dims=(ctx.size,))
        src, dst = cart.shift(0, 1)
        return ctx.comm.sendrecv(ctx.rank, dst, src, 9, 9)

    values = run_spmd(prog, nodes=5).values
    assert values == [None, 0, 1, 2, 3]
