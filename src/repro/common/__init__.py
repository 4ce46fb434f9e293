"""Shared utilities: errors, deterministic RNG, units, and a logical clock.

Everything in :mod:`repro` that needs randomness or time goes through this
package so that experiments are reproducible bit-for-bit.
"""

from repro.common.clock import LogicalClock
from repro.common.errors import (
    CompilationError,
    DataError,
    DfsError,
    ExecutionError,
    ParseError,
    PlanError,
    ReproError,
    RepositoryError,
)
from repro.common.rng import DeterministicRng
from repro.common.units import format_bytes, format_ratio, GB, KB, MB

__all__ = [
    "CompilationError",
    "DataError",
    "DeterministicRng",
    "DfsError",
    "ExecutionError",
    "format_bytes",
    "format_ratio",
    "GB",
    "KB",
    "LogicalClock",
    "MB",
    "ParseError",
    "PlanError",
    "ReproError",
    "RepositoryError",
]
