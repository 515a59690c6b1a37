"""Shared utilities: deterministic RNG streams, stable hashing, statistics
helpers, ASCII plotting, and table rendering.

Everything in :mod:`repro` that needs randomness draws it from
:class:`repro.util.rng.RngStream` so that corpus generation, profiling noise,
and LLM-emulator behaviour are bit-reproducible across runs and platforms.
"""

from repro.util.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
)
from repro.util.hashing import stable_hash_bytes, stable_hash_hex, stable_hash_u64
from repro.util.retry import (
    AttemptTimeout,
    RetryPolicy,
    TransientError,
    call_with_retry,
    retry_call,
)
from repro.util.rng import RngStream, derive_seed
from repro.util.stats import (
    BoxStats,
    chi_squared_independence,
    chi2_sf,
    describe,
    five_number_summary,
)
from repro.util.tables import format_table, format_markdown_table
from repro.util.textplot import ascii_boxplot, ascii_scatter

__all__ = [
    "RngStream",
    "derive_seed",
    "stable_hash_bytes",
    "stable_hash_hex",
    "stable_hash_u64",
    "BoxStats",
    "chi_squared_independence",
    "chi2_sf",
    "describe",
    "five_number_summary",
    "format_table",
    "format_markdown_table",
    "ascii_boxplot",
    "ascii_scatter",
]
