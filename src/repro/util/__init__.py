"""Shared utilities: errors, unit helpers and deterministic RNG.

Wire-document validation lives in :mod:`repro.util.validate`, lazy package
exports in :mod:`repro.util.lazy`.

These helpers are deliberately dependency-free (NumPy only) so every other
subpackage — :mod:`repro.sim`, :mod:`repro.comm`, :mod:`repro.device`,
:mod:`repro.core` — can use them without import cycles.
"""

from repro.util.errors import (
    ReproError,
    ConfigurationError,
    CommunicationError,
    DeadlockError,
    SchedulingError,
    ValidationError,
)
from repro.util.units import (
    KB,
    MB,
    GB,
    US,
    MS,
    GFLOPS,
    fmt_seconds,
)
from repro.util.rng import seeded_rng, derive_seed

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CommunicationError",
    "DeadlockError",
    "SchedulingError",
    "ValidationError",
    "KB",
    "MB",
    "GB",
    "US",
    "MS",
    "GFLOPS",
    "fmt_seconds",
    "seeded_rng",
    "derive_seed",
]
