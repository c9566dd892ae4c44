"""Unit constants and formatters."""

import pytest

from repro.util.units import GB, GFLOPS, KB, MB, MS, US, fmt_seconds


def test_size_constants_are_powers_of_ten():
    assert KB == 1_000
    assert MB == 1_000_000
    assert GB == 1_000_000_000


def test_time_constants():
    assert US == pytest.approx(1e-6)
    assert MS == pytest.approx(1e-3)
    assert GFLOPS == pytest.approx(1e9)


@pytest.mark.parametrize(
    "value,expected",
    [
        (2.0, "2.000 s"),
        (0.0123, "12.300 ms"),
        (4.5e-6, "4.500 us"),
    ],
)
def test_fmt_seconds(value, expected):
    assert fmt_seconds(value) == expected

