"""Unit constants and human-readable formatting.

All simulator-internal quantities use SI base units: seconds for time,
bytes for sizes, FLOP/s for compute rates.  The constants below convert the
conventional HPC units (GB/s, microseconds, GFLOP/s) into base units so
that hardware specs read naturally::

    pcie_bandwidth = 8 * GB          # bytes/second
    network_latency = 2 * US         # seconds
    peak = 515 * GFLOPS              # FLOP/s
"""

from __future__ import annotations

# Sizes (bytes).  Powers of ten, matching vendor datasheets for bandwidths;
# shared-memory capacities use KiB explicitly where it matters.
KB = 1_000
MB = 1_000_000
GB = 1_000_000_000
KIB = 1_024
MIB = 1_048_576

# Times (seconds).
US = 1e-6
MS = 1e-3

# Rates.
GFLOPS = 1e9
TFLOPS = 1e12


def fmt_seconds(t: float) -> str:
    """Format a duration, choosing s/ms/us to keep 3 significant digits.

    >>> fmt_seconds(0.00123)
    '1.230 ms'
    """
    t = float(t)
    if abs(t) >= 1.0:
        return f"{t:.3f} s"
    if abs(t) >= MS:
        return f"{t / MS:.3f} ms"
    return f"{t / US:.3f} us"
